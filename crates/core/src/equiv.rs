//! Combinational circuit equivalence checking.
//!
//! Equivalence checking of quantum circuits is the application area the
//! paper's introduction builds on (its refs. \[1\]–\[4\]); it falls out of the
//! same machinery: contract each circuit's tensor network into a canonical
//! operator TDD, then compare. Two operators are proportional (equal up to
//! global phase) iff Cauchy–Schwarz holds with equality for the
//! Hilbert–Schmidt inner product, which needs three contractions and no
//! structural diagram comparison.

use std::collections::BTreeMap;

use qits_circuit::Circuit;
use qits_tdd::{Edge, TddManager};
use qits_tensor::Var;
use qits_tensornet::{contract_network, TensorNetwork};

use crate::error::QitsError;

fn check_registers(a: &Circuit, b: &Circuit) -> Result<u32, QitsError> {
    if a.n_qubits() != b.n_qubits() {
        return Err(QitsError::RegisterMismatch {
            expected: a.n_qubits(),
            found: b.n_qubits(),
            context: "the second circuit of an equivalence check".to_string(),
        });
    }
    Ok(a.n_qubits())
}

/// Contracts `circuit` into its operator TDD over the canonical variables
/// `x_q = Var::wire(q, 0)` (columns) and `y_q = Var::wire(q, 1)` (rows).
///
/// Wires the circuit only touches diagonally keep a single index after
/// contraction; they are expanded with an identity factor so operators of
/// structurally different circuits become directly comparable.
pub fn canonical_operator(m: &mut TddManager, circuit: &Circuit) -> Edge {
    let net = TensorNetwork::from_circuit(m, circuit);
    let whole = contract_network(m, net.tensors(), &net.external_vars());
    let n = circuit.n_qubits();
    // Monotone rename: every advanced output index drops to position 1.
    let map: BTreeMap<Var, Var> = (0..n)
        .filter(|&q| net.out_var(q) != net.in_var(q))
        .map(|q| (net.out_var(q), Var::row(q)))
        .collect();
    let mut op = m.rename_monotone(whole.edge, &map);
    // Expand diagonal wires: multiply by delta(x_q, y_q).
    for q in 0..n {
        if net.out_var(q) == net.in_var(q) {
            let id = m.identity(Var::ket(q), Var::row(q));
            op = m.contract(op, id, &[]);
        }
    }
    op
}

/// The Hilbert–Schmidt fidelity
/// `|<A, B>|^2 / (<A, A> <B, B>)` of two operator TDDs over the canonical
/// `2n` variables: 1 exactly when the operators are proportional.
///
/// Returns 0 if either operator is zero.
pub fn operator_fidelity(m: &mut TddManager, a: Edge, b: Edge, n_qubits: u32) -> f64 {
    if a.is_zero() || b.is_zero() {
        return 0.0;
    }
    let vars: Vec<Var> = (0..n_qubits)
        .flat_map(|q| [Var::ket(q), Var::row(q)])
        .collect();
    let ab = m.inner_product(a, b, &vars);
    let aa = m.inner_product(a, a, &vars).re;
    let bb = m.inner_product(b, b, &vars).re;
    ab.norm_sqr() / (aa * bb)
}

/// Whether two circuits on the same register implement the same operator
/// *up to global phase*. [`crate::Engine::equivalent_up_to_phase`] wraps
/// this with the session's rooting and arena/cancel guard.
///
/// Polls a GC safepoint between the two operator contractions (holding the
/// first operator live), so batch equivalence checking on one manager with
/// a [`qits_tdd::GcPolicy`] installed reclaims each circuit's contraction
/// garbage instead of accumulating it.
///
/// **GC hazard:** with a policy installed, that safepoint may collect, and
/// any caller-held edge that is not a registered root (via
/// [`qits_tdd::TddManager::protect`]) or passed as an
/// [`qits_tdd::EdgeHolder`] becomes detectably stale
/// ([`qits_tdd::TddManager::is_live`] returns false) — nodes are never
/// moved, but swept slots are recycled under a new generation. Without a
/// policy (the default), the function never collects.
///
/// # Errors
///
/// [`QitsError::RegisterMismatch`] when the register widths differ.
pub fn try_equivalent_up_to_phase(
    m: &mut TddManager,
    a: &Circuit,
    b: &Circuit,
) -> Result<bool, QitsError> {
    let n = check_registers(a, b)?;
    let oa = canonical_operator(m, a);
    m.maybe_collect_at_safepoint(&[&oa]);
    let ob = canonical_operator(m, b);
    Ok((operator_fidelity(m, oa, ob, n) - 1.0).abs() < 1e-8)
}

/// Whether two circuits implement *exactly* the same operator (global
/// phase included): proportional with ratio 1. [`crate::Engine::equivalent`]
/// wraps this with the session's rooting and arena/cancel guard.
///
/// Safepoint behaviour matches [`try_equivalent_up_to_phase`].
///
/// # Errors
///
/// [`QitsError::RegisterMismatch`] when the register widths differ.
pub fn try_equivalent_exactly(
    m: &mut TddManager,
    a: &Circuit,
    b: &Circuit,
) -> Result<bool, QitsError> {
    let n = check_registers(a, b)?;
    let oa = canonical_operator(m, a);
    m.maybe_collect_at_safepoint(&[&oa]);
    let ob = canonical_operator(m, b);
    if (operator_fidelity(m, oa, ob, n) - 1.0).abs() >= 1e-8 {
        return Ok(false);
    }
    // Proportional; check the ratio at a witness entry.
    let vars: Vec<Var> = (0..n).flat_map(|q| [Var::ket(q), Var::row(q)]).collect();
    let asn = m
        .first_nonzero_assignment(oa, &vars)
        .expect("fidelity 1 implies non-zero");
    let point: BTreeMap<Var, bool> = vars.iter().copied().zip(asn).collect();
    let va = m.eval(oa, &point);
    let vb = m.eval(ob, &point);
    Ok(va.approx_eq_with(vb, 1e-8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::{Gate, GateKind};

    fn circuit(n: u32, gates: Vec<Gate>) -> Circuit {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    }

    #[test]
    fn hxh_equals_z() {
        let mut m = TddManager::new();
        let a = circuit(1, vec![Gate::h(0), Gate::x(0), Gate::h(0)]);
        let b = circuit(1, vec![Gate::z(0)]);
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn swap_is_three_cx() {
        let mut m = TddManager::new();
        let a = circuit(2, vec![Gate::swap(0, 1)]);
        let b = circuit(2, vec![Gate::cx(0, 1), Gate::cx(1, 0), Gate::cx(0, 1)]);
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn rz_is_phase_up_to_global_phase() {
        let mut m = TddManager::new();
        let theta = 0.731;
        let a = circuit(1, vec![Gate::single(GateKind::Rz(theta), 0)]);
        let b = circuit(1, vec![Gate::phase(0, theta)]);
        assert!(try_equivalent_up_to_phase(&mut m, &a, &b).unwrap());
        assert!(!try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn hh_is_identity_even_against_empty_circuit() {
        let mut m = TddManager::new();
        let a = circuit(1, vec![Gate::h(0), Gate::h(0)]);
        let b = circuit(1, vec![]);
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn distinguishes_different_circuits() {
        let mut m = TddManager::new();
        let a = circuit(2, vec![Gate::cx(0, 1)]);
        let b = circuit(2, vec![Gate::cx(1, 0)]);
        assert!(!try_equivalent_up_to_phase(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn elementarized_toffoli_is_equivalent() {
        let mut m = TddManager::new();
        let a = circuit(3, vec![Gate::ccx(0, 1, 2)]);
        let b: Circuit = {
            let mut c = Circuit::new(3);
            for g in qits_circuit::decompose::ccx_to_clifford_t(0, 1, 2) {
                c.push(g);
            }
            c
        };
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn equivalence_checks_survive_aggressive_gc() {
        // With a collect-at-every-opportunity policy, the between-operator
        // safepoint fires and the verdicts must not change.
        let mut m = TddManager::new();
        m.set_gc_policy(Some(qits_tdd::GcPolicy::aggressive()));
        let a = circuit(2, vec![Gate::swap(0, 1)]);
        let b = circuit(2, vec![Gate::cx(0, 1), Gate::cx(1, 0), Gate::cx(0, 1)]);
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
        assert!(try_equivalent_up_to_phase(&mut m, &a, &b).unwrap());
        let c = circuit(2, vec![Gate::cx(1, 0)]);
        assert!(!try_equivalent_up_to_phase(&mut m, &a, &c).unwrap());
        assert!(m.stats().safepoint_collections > 0, "safepoint must fire");
    }

    #[test]
    fn fidelity_of_orthogonal_paulis_is_zero() {
        let mut m = TddManager::new();
        let a = circuit(1, vec![Gate::x(0)]);
        let b = circuit(1, vec![Gate::z(0)]);
        let oa = canonical_operator(&mut m, &a);
        let ob = canonical_operator(&mut m, &b);
        assert!(operator_fidelity(&mut m, oa, ob, 1).abs() < 1e-10);
    }

    #[test]
    fn mixed_diagonal_profiles_compare_correctly() {
        // One circuit leaves q1 purely diagonal, the other advances it.
        let mut m = TddManager::new();
        let a = circuit(2, vec![Gate::cz(0, 1)]);
        let b = circuit(2, vec![Gate::h(1), Gate::cx(0, 1), Gate::h(1)]);
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }
}
