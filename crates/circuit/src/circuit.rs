//! Circuits: ordered gate lists on a fixed register.

use std::fmt;

use qits_num::key::{Fnv128, KeyBits};

use crate::gate::Gate;

/// A combinational quantum circuit: gates applied left to right on
/// `n_qubits` wires.
///
/// # Example
///
/// ```
/// use qits_circuit::{Circuit, Gate};
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::h(0));
/// bell.push(Gate::cx(0, 1));
/// assert_eq!(bell.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: u32,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `n_qubits` wires.
    pub fn new(n_qubits: u32) -> Circuit {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of wires.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register.
    pub fn push(&mut self, gate: Gate) {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds register of {} qubits",
            self.n_qubits
        );
        self.gates.push(gate);
    }

    /// Appends every gate of `other` (registers must match).
    ///
    /// # Panics
    ///
    /// Panics if register sizes differ.
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(
            self.n_qubits, other.n_qubits,
            "cannot concatenate circuits on different registers"
        );
        self.gates.extend(other.gates.iter().cloned());
    }

    /// The gates in application order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of multi-qubit gates (the quantity counted by the
    /// contraction-partition cut rule).
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_multi_qubit()).count()
    }
}

impl FromIterator<Gate> for Circuit {
    /// Collects gates into a circuit sized by the largest qubit used.
    fn from_iter<I: IntoIterator<Item = Gate>>(iter: I) -> Circuit {
        let gates: Vec<Gate> = iter.into_iter().collect();
        let n_qubits = gates.iter().map(|g| g.max_qubit() + 1).max().unwrap_or(0);
        Circuit { n_qubits, gates }
    }
}

impl KeyBits for Circuit {
    fn key_bits(&self, h: &mut Fnv128) {
        let Circuit { n_qubits, gates } = self;
        n_qubits.key_bits(h);
        gates.key_bits(h);
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.n_qubits)?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn push_checks_register() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds register")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(2));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push(Gate::h(0));
        let mut b = Circuit::new(2);
        b.push(Gate::cx(0, 1));
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn from_iter_sizes_register() {
        let c: Circuit = [Gate::h(0), Gate::cx(0, 3)].into_iter().collect();
        assert_eq!(c.n_qubits(), 4);
    }

    #[test]
    fn multi_qubit_count() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::ccx(0, 1, 2));
        assert_eq!(c.multi_qubit_gate_count(), 2);
    }
}
