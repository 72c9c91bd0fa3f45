//! Transition-system operations: sequences of unitary, projective, and
//! noisy elements, and their expansion into pure Kraus-operator circuits.

use qits_num::key::{Fnv128, KeyBits};
use qits_num::Mat;

use crate::circuit::Circuit;
use crate::gate::Gate;

/// One step of an [`Operation`]'s element sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A (possibly controlled, possibly non-unitary) gate.
    Gate(Gate),
    /// A projection onto the computational-basis outcome `bits` of the
    /// listed qubits — how dynamic circuits (Section III-A.2) record a
    /// measurement result. Expands to one single-qubit projector per qubit.
    Projector {
        /// Measured qubits.
        qubits: Vec<u32>,
        /// Observed outcome, one bit per qubit.
        bits: Vec<bool>,
    },
    /// A noise channel in Kraus form acting on one qubit (Section III-A.3).
    /// Each branch of the operation picks one Kraus operator.
    Channel {
        /// The qubit the channel acts on.
        qubit: u32,
        /// Kraus operators (2x2 each); their `E†E` should sum to at most I.
        kraus: Vec<Mat>,
        /// Human-readable channel name for diagnostics.
        label: String,
    },
}

/// A labelled quantum operation `T_sigma` of a quantum transition system:
/// a sequence of [`Element`]s applied left to right.
///
/// An operation with `k` channels of arities `a_1..a_k` has
/// `a_1 * ... * a_k` Kraus operators, enumerated by
/// [`Operation::kraus_branches`]; each branch is an ordinary [`Circuit`]
/// whose gates may be non-unitary (projectors, scaled Kraus matrices).
///
/// # Example
///
/// ```
/// use qits_circuit::{Element, Gate, Operation};
/// use qits_num::{Cplx, Mat};
///
/// let p = 0.1f64;
/// let flip = Operation::new("noisy-h", 1)
///     .then_gate(Gate::h(0))
///     .then(Element::Channel {
///         qubit: 0,
///         kraus: vec![
///             Mat::identity(2).scale(Cplx::real((1.0 - p).sqrt())),
///             qits_circuit::GateKind::X.matrix().scale(Cplx::real(p.sqrt())),
///         ],
///         label: "bit-flip".into(),
///     });
/// assert_eq!(flip.kraus_branches().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    label: String,
    n_qubits: u32,
    elements: Vec<Element>,
}

impl Operation {
    /// An empty operation on `n_qubits` wires.
    pub fn new(label: impl Into<String>, n_qubits: u32) -> Operation {
        Operation {
            label: label.into(),
            n_qubits,
            elements: Vec::new(),
        }
    }

    /// Wraps a whole combinational circuit as a single unitary operation.
    pub fn from_circuit(label: impl Into<String>, circuit: &Circuit) -> Operation {
        let mut op = Operation::new(label, circuit.n_qubits());
        for g in circuit.gates() {
            op.elements.push(Element::Gate(g.clone()));
        }
        op
    }

    /// The operation's label (the symbol `sigma`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The element sequence.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Appends an element (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the element touches qubits outside the register or is
    /// malformed (projector length mismatch, empty channel).
    pub fn then(mut self, e: Element) -> Operation {
        match &e {
            Element::Gate(g) => assert!(g.max_qubit() < self.n_qubits, "gate {g} exceeds register"),
            Element::Projector { qubits, bits } => {
                assert_eq!(qubits.len(), bits.len(), "one bit per projected qubit");
                assert!(
                    qubits.iter().all(|q| *q < self.n_qubits),
                    "projector exceeds register"
                );
            }
            Element::Channel { qubit, kraus, .. } => {
                assert!(*qubit < self.n_qubits, "channel exceeds register");
                assert!(
                    !kraus.is_empty(),
                    "channel needs at least one Kraus operator"
                );
                assert!(
                    kraus.iter().all(|m| m.dim() == 2),
                    "single-qubit channel Kraus operators must be 2x2"
                );
            }
        }
        self.elements.push(e);
        self
    }

    /// Appends a gate element (builder style).
    pub fn then_gate(self, g: Gate) -> Operation {
        self.then(Element::Gate(g))
    }

    /// Number of Kraus operators (product of channel arities).
    pub fn branch_count(&self) -> usize {
        self.elements
            .iter()
            .map(|e| match e {
                Element::Channel { kraus, .. } => kraus.len(),
                _ => 1,
            })
            .product()
    }

    /// Enumerates the pure Kraus-operator circuits of this operation.
    ///
    /// Branch `i` selects, for each channel element in sequence order, the
    /// Kraus operator indexed by the mixed-radix digits of `i` (first
    /// channel varies slowest). Projectors expand to one single-qubit
    /// projector gate per measured qubit.
    pub fn kraus_branches(&self) -> Vec<Circuit> {
        let arities: Vec<usize> = self
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Channel { kraus, .. } => Some(kraus.len()),
                _ => None,
            })
            .collect();
        let total: usize = arities.iter().product::<usize>().max(1);
        let mut out = Vec::with_capacity(total);
        for branch in 0..total {
            // Mixed-radix digits of `branch`, first channel slowest.
            let mut digits = Vec::with_capacity(arities.len());
            let mut rem = branch;
            for &a in arities.iter().rev() {
                digits.push(rem % a);
                rem /= a;
            }
            digits.reverse();

            let mut circuit = Circuit::new(self.n_qubits);
            let mut ch = 0usize;
            for e in &self.elements {
                match e {
                    Element::Gate(g) => circuit.push(g.clone()),
                    Element::Projector { qubits, bits } => {
                        for (&q, &b) in qubits.iter().zip(bits.iter()) {
                            circuit.push(Gate::projector(q, b));
                        }
                    }
                    Element::Channel { qubit, kraus, .. } => {
                        let m = kraus[digits[ch]].clone();
                        ch += 1;
                        circuit.push(Gate::custom1(*qubit, m));
                    }
                }
            }
            out.push(circuit);
        }
        out
    }
}

impl KeyBits for Element {
    fn key_bits(&self, h: &mut Fnv128) {
        match self {
            Element::Gate(g) => {
                0u8.key_bits(h);
                g.key_bits(h);
            }
            Element::Projector { qubits, bits } => {
                1u8.key_bits(h);
                qubits.key_bits(h);
                bits.key_bits(h);
            }
            Element::Channel {
                qubit,
                kraus,
                label,
            } => {
                2u8.key_bits(h);
                qubit.key_bits(h);
                kraus.key_bits(h);
                label.key_bits(h);
            }
        }
    }
}

impl KeyBits for Operation {
    fn key_bits(&self, h: &mut Fnv128) {
        let Operation {
            label,
            n_qubits,
            elements,
        } = self;
        label.key_bits(h);
        n_qubits.key_bits(h);
        elements.key_bits(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_num::Cplx;

    fn bitflip(p: f64) -> Element {
        Element::Channel {
            qubit: 0,
            kraus: vec![
                Mat::identity(2).scale(Cplx::real((1.0 - p).sqrt())),
                crate::GateKind::X.matrix().scale(Cplx::real(p.sqrt())),
            ],
            label: "bit-flip".into(),
        }
    }

    #[test]
    fn unitary_operation_has_one_branch() {
        let op = Operation::new("u", 2)
            .then_gate(Gate::h(0))
            .then_gate(Gate::cx(0, 1));
        assert_eq!(op.branch_count(), 1);
        let branches = op.kraus_branches();
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].len(), 2);
    }

    #[test]
    fn channels_multiply_branches() {
        let op = Operation::new("nn", 1)
            .then(bitflip(0.1))
            .then(bitflip(0.2));
        assert_eq!(op.branch_count(), 4);
        assert_eq!(op.kraus_branches().len(), 4);
    }

    #[test]
    fn projector_expands_per_qubit() {
        let op = Operation::new("m", 3).then(Element::Projector {
            qubits: vec![1, 2],
            bits: vec![true, false],
        });
        let branches = op.kraus_branches();
        assert_eq!(branches[0].len(), 2);
        assert!(branches[0].gates().iter().all(|g| g.is_diagonal()));
    }

    #[test]
    fn branch_digit_order_first_channel_slowest() {
        let op = Operation::new("nn", 1)
            .then(bitflip(0.1))
            .then(bitflip(0.2));
        let branches = op.kraus_branches();
        // Branch 1 = digits (0,1): first channel I-scaled, second X-scaled.
        let b1 = &branches[1];
        let g0 = &b1.gates()[0];
        let g1 = &b1.gates()[1];
        match (&g0.kind, &g1.kind) {
            (crate::GateKind::Custom1(m0), crate::GateKind::Custom1(m1)) => {
                assert!(m0.is_diagonal()); // scaled identity
                assert!(!m1.is_diagonal()); // scaled X
            }
            _ => panic!("expected custom gates"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds register")]
    fn rejects_out_of_register_elements() {
        let _ = Operation::new("bad", 1).then_gate(Gate::h(3));
    }

    #[test]
    fn from_circuit_preserves_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let op = Operation::from_circuit("c", &c);
        assert_eq!(op.elements().len(), 2);
        assert_eq!(op.branch_count(), 1);
    }
}
