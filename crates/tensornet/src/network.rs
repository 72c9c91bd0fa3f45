//! Circuit → tensor network lowering.

use qits_circuit::tensorize::{gate_tdd, GateLegs};
use qits_circuit::{Circuit, Gate};
use qits_tdd::{Edge, EdgeHolder, TddManager};
use qits_tensor::{Var, VarSet};

/// One tensor of a network: a TDD plus the set of network indices it
/// carries.
///
/// `vars` is authoritative — a reduced diagram may not *depend* on every
/// listed index (a scaled-identity Kraus operator reduces to a scalar), but
/// the index bookkeeping of the contraction engine works on the declared
/// sets, with the factor-2 contraction rule covering reduced indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetTensor {
    /// The tensor, as a TDD in the shared manager.
    pub edge: Edge,
    /// The network indices of this tensor.
    pub vars: VarSet,
}

impl NetTensor {
    /// The tensor of `gate` on `legs`, carrying every leg as an index.
    pub fn gate(m: &mut TddManager, gate: &Gate, legs: &GateLegs) -> NetTensor {
        NetTensor {
            edge: gate_tdd(m, gate, legs),
            vars: VarSet::from_iter(legs.all_vars()),
        }
    }
}

impl EdgeHolder for NetTensor {
    // Network tensors (gate TDDs, pre-contracted blocks) are long-lived
    // edges: whoever holds them across a collection passes them as a mark
    // root. Collection never moves a node, so no post-GC fixup exists.
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        visit(self.edge);
    }
}

/// A quantum circuit as a tensor network.
///
/// Index convention: index `Var::wire(q, p)` is the `p`-th index on qubit
/// `q`'s wire. Position 0 is the circuit input. Non-diagonal gate targets
/// *advance* the wire to a fresh index; control legs and diagonal targets
/// reuse the current index (the hyper-edge convention of Section V-A).
///
/// # Example
///
/// ```
/// use qits_circuit::{Circuit, Gate};
/// use qits_tdd::TddManager;
/// use qits_tensornet::TensorNetwork;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::h(0));
/// c.push(Gate::cp(0, 1, 0.5)); // diagonal: consumes no indices
/// let mut m = TddManager::new();
/// let net = TensorNetwork::from_circuit(&mut m, &c);
/// assert_eq!(net.tensors().len(), 2);
/// // Qubit 1's wire never advanced.
/// assert_eq!(net.in_var(1), net.out_var(1));
/// ```
#[derive(Debug, Clone)]
pub struct TensorNetwork {
    n_qubits: u32,
    tensors: Vec<NetTensor>,
    gate_legs: Vec<GateLegs>,
    out_pos: Vec<u32>,
}

impl TensorNetwork {
    /// Lowers a circuit to a tensor network, building one TDD per gate in
    /// the given manager.
    pub fn from_circuit(m: &mut TddManager, circuit: &Circuit) -> TensorNetwork {
        let (gate_legs, out_pos) = wire_legs(circuit);
        let tensors = circuit
            .gates()
            .iter()
            .zip(&gate_legs)
            .map(|(gate, legs)| NetTensor::gate(m, gate, legs))
            .collect();
        TensorNetwork {
            n_qubits: circuit.n_qubits(),
            tensors,
            gate_legs,
            out_pos,
        }
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The network's tensors, in circuit order (possibly followed by
    /// selector tensors introduced by slicing).
    pub fn tensors(&self) -> &[NetTensor] {
        &self.tensors
    }

    /// The legs of the `i`-th *gate* tensor (selector tensors added by
    /// [`TensorNetwork::slice_at`] have no gate legs).
    pub fn gate_legs(&self) -> &[GateLegs] {
        &self.gate_legs
    }

    /// The circuit input index of qubit `q`.
    pub fn in_var(&self, q: u32) -> Var {
        Var::wire(q, 0)
    }

    /// The circuit output index of qubit `q` (equal to the input index if
    /// no non-diagonal gate ever touched the wire).
    pub fn out_var(&self, q: u32) -> Var {
        Var::wire(q, self.out_pos[q as usize])
    }

    /// All input indices, ascending.
    pub fn in_vars(&self) -> Vec<Var> {
        (0..self.n_qubits).map(|q| self.in_var(q)).collect()
    }

    /// All output indices, ascending.
    pub fn out_vars(&self) -> Vec<Var> {
        (0..self.n_qubits).map(|q| self.out_var(q)).collect()
    }

    /// The external (input or output) indices as a set.
    pub fn external_vars(&self) -> VarSet {
        VarSet::from_iter(self.in_vars().into_iter().chain(self.out_vars()))
    }

    /// Every index of the network.
    pub fn all_vars(&self) -> VarSet {
        let mut s = self.external_vars();
        for t in &self.tensors {
            s = s.union(&t.vars);
        }
        s
    }

    /// Slices the network at `var = value`: every tensor carrying `var` is
    /// sliced, and a selector tensor `<var = value>` is appended so the
    /// slices of a network still *sum* to the original (the
    /// addition-partition identity of Section V-A).
    pub fn slice_at(&self, m: &mut TddManager, var: Var, value: bool) -> TensorNetwork {
        let mut out = self.clone();
        for t in out.tensors.iter_mut() {
            if t.vars.contains(var) {
                t.edge = m.slice(t.edge, var, value);
                t.vars.remove(var);
            }
        }
        let sel = m.selector(var, value);
        out.tensors.push(NetTensor {
            edge: sel,
            vars: VarSet::from_iter([var]),
        });
        out
    }

    /// Slices at every `(var, value)` pair in turn.
    pub fn slice_all(&self, m: &mut TddManager, cuts: &[(Var, bool)]) -> TensorNetwork {
        let mut net = self.clone();
        for &(v, val) in cuts {
            net = net.slice_at(m, v, val);
        }
        net
    }
}

/// The legs [`TensorNetwork::from_circuit`] gives each gate of `circuit`,
/// plus the final position of every wire, without building a tensor.
///
/// A caller that tensorizes the gates itself (on renamed legs, say) starts
/// from the same index convention as the network.
pub fn wire_legs(circuit: &Circuit) -> (Vec<GateLegs>, Vec<u32>) {
    let mut pos = vec![0u32; circuit.n_qubits() as usize];
    let legs = circuit
        .gates()
        .iter()
        .map(|gate| {
            let controls: Vec<(Var, bool)> = gate
                .controls
                .iter()
                .map(|c| (Var::wire(c.qubit, pos[c.qubit as usize]), c.value))
                .collect();
            let target_in: Vec<Var> = gate
                .targets
                .iter()
                .map(|&t| Var::wire(t, pos[t as usize]))
                .collect();
            let target_out: Vec<Var> = if gate.is_diagonal() {
                target_in.clone()
            } else {
                gate.targets
                    .iter()
                    .map(|&t| {
                        pos[t as usize] += 1;
                        Var::wire(t, pos[t as usize])
                    })
                    .collect()
            };
            GateLegs {
                controls,
                target_in,
                target_out,
            }
        })
        .collect();
    (legs, pos)
}

impl EdgeHolder for TensorNetwork {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        for t in &self.tensors {
            t.gc_edges(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_positions_advance_only_for_non_diagonal() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0)); // advances q0
        c.push(Gate::cz(0, 1)); // diagonal: advances nothing
        c.push(Gate::cx(0, 1)); // advances q1 (target), control leg on q0
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        assert_eq!(net.out_var(0), Var::wire(0, 1));
        assert_eq!(net.out_var(1), Var::wire(1, 1));
        // CZ legs reuse position-1 of q0 and position-0 of q1.
        let cz_legs = &net.gate_legs()[1];
        assert_eq!(cz_legs.target_in, cz_legs.target_out);
    }

    #[test]
    fn control_legs_are_hyper() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        // Control on q0 reuses the input index.
        assert_eq!(net.out_var(0), net.in_var(0));
        let legs = &net.gate_legs()[0];
        assert_eq!(legs.controls[0].0, Var::wire(0, 0));
    }

    #[test]
    fn slice_adds_selector_and_removes_var() {
        let mut c = Circuit::new(1);
        c.push(Gate::h(0));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        let v = Var::wire(0, 0);
        let sliced = net.slice_at(&mut m, v, true);
        assert_eq!(sliced.tensors().len(), 2);
        assert!(!sliced.tensors()[0].vars.contains(v));
        assert!(sliced.tensors()[1].vars.contains(v));
    }

    #[test]
    fn network_survives_collection_as_an_edge_holder() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        let ext: Vec<Var> = vec![
            Var::wire(0, 0),
            Var::wire(0, 1),
            Var::wire(1, 0),
            Var::wire(1, 1),
        ];
        let edges_before: Vec<Edge> = net.tensors().iter().map(|t| t.edge).collect();
        let whole_before = crate::contract_network(&mut m, net.tensors(), &net.external_vars());
        let dense_before = m.to_tensor(whole_before.edge, &ext);
        // Everything except the network itself becomes garbage.
        let out = m.collect(&[&net]);
        assert!(out.reclaimed > 0, "the monolithic operator was garbage");
        assert!(
            !m.is_live(whole_before.edge),
            "the unheld operator must be detectably stale"
        );
        // No relocation step exists: the gate tensors are bit-identical
        // and re-contracting them rebuilds the same dense tensor.
        let edges_after: Vec<Edge> = net.tensors().iter().map(|t| t.edge).collect();
        assert_eq!(edges_after, edges_before);
        assert!(edges_after.iter().all(|&e| m.is_live(e)));
        let whole_after = crate::contract_network(&mut m, net.tensors(), &net.external_vars());
        let dense_after = m.to_tensor(whole_after.edge, &ext);
        assert!(dense_after.approx_eq(&dense_before));
    }

    #[test]
    fn external_vars_cover_in_and_out() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        let ext = net.external_vars();
        assert!(ext.contains(Var::wire(0, 0)));
        assert!(ext.contains(Var::wire(0, 1)));
        assert!(ext.contains(Var::wire(1, 0)));
        assert_eq!(ext.len(), 3); // q1 in == out
    }
}
