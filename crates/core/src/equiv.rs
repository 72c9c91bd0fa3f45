//! Combinational circuit equivalence checking by one miter contraction.
//!
//! Equivalence checking of quantum circuits is the application area the
//! paper's introduction builds on (its refs. \[1\]–\[4\]), and it is the
//! same kind of question as an image: a tensor-network contraction whose
//! cost is set by the contraction order. The checker builds neither
//! circuit's operator. It closes both circuits into one network whose
//! value is the scalar `t = tr(B†A)`, the miter `U_b† U_a` of Burgholzer
//! and Wille ("Advanced Equivalence Checking for Quantum Circuits", IEEE
//! TCAD 2021), traced:
//!
//! * `a`'s gate tensors sit on the wire positions `0..=P_a` of the
//!   [`qits_tensornet::TensorNetwork`] convention, where `P_a` is the
//!   wire's final position in `a`;
//! * `b`'s gate tensors are built on mirrored legs, `Var::wire(q, p)`
//!   becoming `Var::wire(q, P_a + P_b − p)`, and conjugated, so `b`'s
//!   output meets `a`'s at position `P_a` and `b`'s input lands at
//!   `K = P_a + P_b`;
//! * each wire with `K > 0` is closed by the delta `δ(wire(q, 0),
//!   wire(q, K))`, and each wire no tensor touches contributes a factor 2.
//!
//! `tr(A†B)` is the conjugate of `tr(B†A)`, so either circuit can take
//! the mirrored side; the longer one does (`b` on a tie), and the trace
//! is conjugated when that is `a`.
//!
//! The contraction starts at the junction, where both circuits' last
//! gates meet, and works outward, taking gates from each side in
//! proportion to its gate count. Every index is summed at its last use
//! and the closing deltas come last. When one circuit is a rewrite of the
//! other, the intermediate stays near the identity. Cancellation is
//! polled after every tensor ([`qits_tdd::TddManager::poll_cancel`]), so a
//! tripped [`qits_tdd::CancelToken`] takes effect mid-check.
//!
//! Verdicts use a tolerance of `1e-8`. The squared norm `‖U‖² = tr(U†U)`
//! is `2^n` when every gate is unitary and otherwise the miter of the
//! circuit against itself. Two circuits are equal up to global phase,
//! `A = e^{iφ} B`, when `|t| / (‖A‖ ‖B‖)` is 1 — Cauchy–Schwarz with
//! equality, so `A = λB` for some scalar `λ` — and `‖A‖² / ‖B‖²` is 1,
//! so `|λ| = 1`; the second test only bites when a gate is not unitary.
//! They are exactly equal when `λ = t / ‖B‖²` is 1 as well. A norm below
//! `1e-12 · 2^n` counts as zero: two zero operators are equivalent in
//! both modes, and a zero operator is equivalent to no non-zero one.
//!
//! `t` and the squared norms reach `2^n`, so the verdict divides before
//! it squares: `t` is scaled by `1/‖A‖` and `1/‖B‖` first, and no two
//! `2^n`-sized quantities are multiplied. `2^n` itself overflows an `f64`
//! from 1,024 qubits on, so a register that wide is refused with
//! [`QitsError::DimensionOverflow`].

use std::collections::BTreeMap;

use qits_circuit::tensorize::GateLegs;
use qits_circuit::{Circuit, GateKind};
use qits_num::Cplx;
use qits_tdd::{Edge, TddManager};
use qits_tensor::{Var, VarSet};
use qits_tensornet::{wire_legs, NetTensor};

use crate::error::QitsError;

/// How far a fidelity or a ratio may sit from 1 and still count as 1.
const TOLERANCE: f64 = 1e-8;

/// The widest register whose squared norm `2^n` is a finite `f64`.
const MAX_QUBITS: u32 = f64::MAX_EXP as u32 - 1;

/// A squared norm at or below this fraction of a unitary's (`2^n`)
/// counts as the zero operator: four orders of magnitude above the float
/// noise of a trace on that scale. A rank-1 operator (squared norm 1)
/// falls under it from 40 qubits on.
const ZERO_NORM: f64 = 1e-12;

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

/// `legs` with every index `Var::wire(q, p)` moved to
/// `Var::wire(q, ends[q] - p)`.
fn mirrored(legs: &GateLegs, ends: &[u32]) -> GateLegs {
    let mirror = |v: Var| Var::wire(v.qubit(), ends[v.qubit() as usize] - v.position());
    GateLegs {
        controls: legs
            .controls
            .iter()
            .map(|&(v, on)| (mirror(v), on))
            .collect(),
        target_in: legs.target_in.iter().map(|&v| mirror(v)).collect(),
        target_out: legs.target_out.iter().map(|&v| mirror(v)).collect(),
    }
}

/// The junction-first schedule: both sides from their last gate back to
/// their first, each side taking its turn in proportion to its length.
fn junction_order(a: Vec<NetTensor>, b: Vec<NetTensor>) -> Vec<NetTensor> {
    let (na, nb) = (a.len(), b.len());
    let (mut a, mut b) = (a.into_iter().rev(), b.into_iter().rev());
    let (mut ia, mut ib) = (0, 0);
    let mut order = Vec::with_capacity(na + nb);
    while ia + ib < na + nb {
        // `a` goes next while its share with the next tensor taken does
        // not exceed `b`'s with its next one taken.
        if ib == nb || (ia < na && (ia + 1) * nb <= (ib + 1) * na) {
            order.extend(a.next());
            ia += 1;
        } else {
            order.extend(b.next());
            ib += 1;
        }
    }
    order
}

/// Contracts the closed miter network of `a` and `b` to `tr(B†A)`,
/// polling for cancellation after every tensor.
fn miter_trace(m: &mut TddManager, a: &Circuit, b: &Circuit) -> Cplx {
    let (legs_a, pos_a) = wire_legs(a);
    let (legs_b, pos_b) = wire_legs(b);
    let ends: Vec<u32> = pos_a.iter().zip(&pos_b).map(|(pa, pb)| pa + pb).collect();
    let side_a: Vec<NetTensor> = a
        .gates()
        .iter()
        .zip(&legs_a)
        .map(|(gate, legs)| NetTensor::gate(m, gate, legs))
        .collect();
    let side_b: Vec<NetTensor> = b
        .gates()
        .iter()
        .zip(&legs_b)
        .map(|(gate, legs)| {
            let mut t = NetTensor::gate(m, gate, &mirrored(legs, &ends));
            t.edge = m.conj(t.edge);
            t
        })
        .collect();
    let mut order = junction_order(side_a, side_b);
    for (q, &k) in (0..a.n_qubits()).zip(&ends) {
        if k > 0 {
            let (input, end) = (Var::wire(q, 0), Var::wire(q, k));
            order.push(NetTensor {
                edge: m.identity(input, end),
                vars: VarSet::from_iter([input, end]),
            });
        }
    }
    // Sum every index at its last use; the network is closed, so nothing
    // stays open.
    let mut last_use = BTreeMap::new();
    for (i, t) in order.iter().enumerate() {
        for v in t.vars.iter() {
            last_use.insert(v, i);
        }
    }
    let idle_wires = (0..a.n_qubits())
        .filter(|&q| !last_use.contains_key(&Var::wire(q, 0)))
        .count();
    let mut sums: Vec<Vec<Var>> = vec![Vec::new(); order.len()];
    for (v, i) in last_use {
        sums[i].push(v);
    }
    let mut acc = Edge::ONE;
    for (t, sum) in order.iter().zip(&sums) {
        acc = m.contract(acc, t.edge, sum);
        m.poll_cancel();
    }
    debug_assert!(acc.is_terminal(), "a closed network contracts to a scalar");
    m.weight_value(acc.weight)
        .scale(2f64.powi(idle_wires as i32))
}

/// `tr(U†U)` for `circuit`: `2^n` when every gate is unitary (only custom
/// bases can fail to be), otherwise the miter of the circuit against
/// itself.
fn norm_sqr(m: &mut TddManager, circuit: &Circuit, dim: f64) -> f64 {
    let unitary = circuit.gates().iter().all(|g| match &g.kind {
        GateKind::Custom1(u) | GateKind::Custom2(u) => u.is_unitary(),
        _ => true,
    });
    if unitary {
        dim
    } else {
        miter_trace(m, circuit, circuit).re
    }
}

/// The verdict both public checkers share; `exactly` adds the global
/// phase to the comparison.
fn equivalent(
    m: &mut TddManager,
    a: &Circuit,
    b: &Circuit,
    exactly: bool,
) -> Result<bool, QitsError> {
    let n = check_registers(a, b)?;
    if n > MAX_QUBITS {
        return Err(QitsError::DimensionOverflow { bits: n });
    }
    let dim = 2f64.powi(n as i32);
    let (aa, bb) = (norm_sqr(m, a, dim), norm_sqr(m, b, dim));
    let (a_zero, b_zero) = (aa <= ZERO_NORM * dim, bb <= ZERO_NORM * dim);
    if a_zero || b_zero {
        return Ok(a_zero && b_zero);
    }
    // The longer circuit takes the mirrored side: on structurally
    // unrelated pairs (the Draper adder against the ripple incrementer,
    // random Clifford+T pairs) that creates fewer nodes than a fixed side.
    let t = if a.len() > b.len() {
        miter_trace(m, b, a).conj()
    } else {
        miter_trace(m, a, b)
    };
    // `t / ‖B‖` and `t / (‖A‖ ‖B‖)`, each divided before anything is
    // squared: `|t|²` and `‖A‖² ‖B‖²` overflow from 512 qubits on.
    let (norm_a, norm_b) = (aa.sqrt(), bb.sqrt());
    let t_b = t.scale(1.0 / norm_b);
    let proportional = (t_b.scale(1.0 / norm_a).norm_sqr() - 1.0).abs() < TOLERANCE;
    let same_norm = (aa / bb - 1.0).abs() < TOLERANCE;
    Ok(proportional
        && same_norm
        && (!exactly || t_b.scale(1.0 / norm_b).approx_eq_with(Cplx::ONE, TOLERANCE)))
}

/// Whether two circuits on the same register implement the same operator
/// *up to global phase*: one contraction of their closed miter network
/// `tr(B†A)`, started where the circuits meet, plus one per circuit with
/// a non-unitary gate for its norm (see the module docs).
/// [`crate::Engine::equivalent_up_to_phase`] wraps this with the
/// session's arena/cancel guard.
///
/// Polls for cancellation after every tensor it contracts, so an
/// installed [`qits_tdd::CancelToken`] stops a check at the next tensor.
/// Nothing collects during the check; its intermediates are garbage the
/// caller's next collection sweeps.
///
/// # Errors
///
/// [`QitsError::RegisterMismatch`] when the register widths differ, and
/// [`QitsError::DimensionOverflow`] for a register of 1,024 qubits or
/// more, whose squared norm `2^n` is no finite `f64`.
pub fn try_equivalent_up_to_phase(
    m: &mut TddManager,
    a: &Circuit,
    b: &Circuit,
) -> Result<bool, QitsError> {
    equivalent(m, a, b, false)
}

/// Whether two circuits implement *exactly* the same operator (global
/// phase included): equal up to phase, with `tr(B†A) / ‖B‖²` equal to 1.
/// [`crate::Engine::equivalent`] wraps this with the session's
/// arena/cancel guard.
///
/// Contraction order, norms and cancellation polls match
/// [`try_equivalent_up_to_phase`].
///
/// # Errors
///
/// As [`try_equivalent_up_to_phase`].
pub fn try_equivalent_exactly(
    m: &mut TddManager,
    a: &Circuit,
    b: &Circuit,
) -> Result<bool, QitsError> {
    equivalent(m, a, b, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::Gate;
    use qits_num::Mat;

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
        // Collecting everything after every check leaves the verdicts of
        // the next checks unchanged.
        let mut m = TddManager::new();
        let a = circuit(2, vec![Gate::swap(0, 1)]);
        let b = circuit(2, vec![Gate::cx(0, 1), Gate::cx(1, 0), Gate::cx(0, 1)]);
        let c = circuit(2, vec![Gate::cx(1, 0)]);
        let mut reclaimed = 0;
        for _ in 0..2 {
            assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
            reclaimed += m.collect(&[]).reclaimed;
            assert!(try_equivalent_up_to_phase(&mut m, &a, &b).unwrap());
            reclaimed += m.collect(&[]).reclaimed;
            assert!(!try_equivalent_up_to_phase(&mut m, &a, &c).unwrap());
            reclaimed += m.collect(&[]).reclaimed;
        }
        assert!(reclaimed > 0, "the checks left garbage to collect");
        assert!(m.stats().safepoints_polled > 0, "every tensor polls");
    }

    #[test]
    fn fidelity_of_orthogonal_paulis_is_zero() {
        // tr(Z†X) = 0: the miter of two orthogonal Paulis traces to zero,
        // so they are not equivalent even up to phase.
        let mut m = TddManager::new();
        let a = circuit(1, vec![Gate::x(0)]);
        let b = circuit(1, vec![Gate::z(0)]);
        assert!(miter_trace(&mut m, &a, &b).norm_sqr() < 1e-20);
        assert!(!try_equivalent_up_to_phase(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn mixed_diagonal_profiles_compare_correctly() {
        // One circuit leaves q1 purely diagonal, the other advances it.
        let mut m = TddManager::new();
        let a = circuit(2, vec![Gate::cz(0, 1)]);
        let b = circuit(2, vec![Gate::h(1), Gate::cx(0, 1), Gate::h(1)]);
        assert!(try_equivalent_exactly(&mut m, &a, &b).unwrap());
    }

    #[test]
    fn zero_operators_are_equivalent_to_each_other_only() {
        // `proj 0 0; proj 0 1` is the zero operator. Equivalence is
        // reflexive on it, and it matches no non-zero operator.
        let mut m = TddManager::new();
        let zero = circuit(2, vec![Gate::projector(0, false), Gate::projector(0, true)]);
        let other_zero = circuit(
            2,
            vec![
                Gate::projector(1, true),
                Gate::h(0),
                Gate::projector(1, false),
            ],
        );
        let proj = circuit(2, vec![Gate::projector(0, false)]);
        let empty = circuit(2, vec![]);
        for (a, b, want) in [
            (&zero, &zero, true),
            (&zero, &other_zero, true),
            (&zero, &proj, false),
            (&proj, &zero, false),
            (&zero, &empty, false),
        ] {
            assert_eq!(try_equivalent_up_to_phase(&mut m, a, b).unwrap(), want);
            assert_eq!(try_equivalent_exactly(&mut m, a, b).unwrap(), want);
        }
    }

    #[test]
    fn up_to_phase_needs_a_unit_modulus_factor() {
        // `P0 H P0 = P0 / √2`: a multiple of `P0`, but not a phase.
        let mut m = TddManager::new();
        let p0 = || Gate::projector(0, false);
        let halved = circuit(1, vec![p0(), Gate::h(0), p0()]);
        let proj = circuit(1, vec![p0()]);
        assert!(!try_equivalent_up_to_phase(&mut m, &halved, &proj).unwrap());
        assert!(!try_equivalent_up_to_phase(&mut m, &proj, &halved).unwrap());
        // `e^{i} P0` is `P0` up to a global phase.
        let phase = Mat::identity(2).scale(Cplx::from_polar(1.0, 1.0));
        let phased = circuit(1, vec![p0(), Gate::custom1(0, phase)]);
        assert!(try_equivalent_up_to_phase(&mut m, &phased, &proj).unwrap());
        assert!(!try_equivalent_exactly(&mut m, &phased, &proj).unwrap());
    }

    #[test]
    fn the_trace_is_tr_b_dagger_a() {
        // tr(S† T) = 1 + e^{iπ/4}·(−i) on one wire, times 2 for the idle
        // second wire.
        let mut m = TddManager::new();
        let a = circuit(2, vec![Gate::single(GateKind::T, 0)]);
        let b = circuit(2, vec![Gate::single(GateKind::S, 0)]);
        let want = (Cplx::ONE + Cplx::from_polar(1.0, -std::f64::consts::FRAC_PI_4)).scale(2.0);
        assert!(miter_trace(&mut m, &a, &b).approx_eq_with(want, 1e-12));
    }

    #[test]
    fn the_schedule_starts_at_the_junction_in_proportion() {
        let t = |i: u32| NetTensor {
            edge: Edge::ONE,
            vars: VarSet::from_iter([Var::wire(i, 0)]),
        };
        let qubit = |order: &[NetTensor]| -> Vec<u32> {
            order
                .iter()
                .map(|t| t.vars.iter().next().unwrap().qubit())
                .collect()
        };
        // `a` = qubits 0..4, `b` = qubits 10..12: both start from their
        // last tensor, two of `a`'s per one of `b`'s.
        let order = junction_order((0..4).map(t).collect(), (10..12).map(t).collect());
        assert_eq!(qubit(&order), [3, 2, 11, 1, 0, 10]);
        let order = junction_order(vec![], (10..12).map(t).collect());
        assert_eq!(qubit(&order), [11, 10]);
    }
}
