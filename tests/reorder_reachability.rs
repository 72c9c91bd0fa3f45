//! Dynamic-variable-reordering integration tests: a reachability
//! fixpoint computed with sifting forced at **every** GC safepoint is
//! differentially compared against the grow-only run — same fixpoint,
//! same dimensions, same amplitudes — while the reorder counters prove
//! the sifting actually happened mid-fixpoint.

use qits::{mc, EngineBuilder, QuantumTransitionSystem, ReorderPolicy, Strategy, Subspace};
use qits_circuit::{generators, Circuit, Gate, Operation};
use qits_num::Cplx;
use qits_tdd::{GcPolicy, TddManager};
use qits_tensor::Var;
use std::collections::BTreeMap;

/// A 4-qubit binary increment (mod 16): from `|0000>` the reachable
/// dimension grows by one basis state per iteration — a long fixpoint
/// whose amplitudes are all exactly 0 or 1, so the differential
/// comparison below can demand bit-for-bit equality.
fn increment_qts(m: &mut TddManager) -> QuantumTransitionSystem {
    let mut c = Circuit::new(4);
    c.push(Gate::mcx_polarity(&[(1, true), (2, true), (3, true)], 0));
    c.push(Gate::mcx_polarity(&[(2, true), (3, true)], 1));
    c.push(Gate::cx(3, 2));
    c.push(Gate::x(3));
    let vars = Subspace::ket_vars(4);
    let zero = m.basis_ket(&vars, &[false; 4]);
    let initial = Subspace::from_states(m, 4, &[zero]);
    QuantumTransitionSystem::new(4, vec![Operation::from_circuit("inc", &c)], initial)
}

/// Every projector amplitude of `space`, as a dense assignment-indexed
/// vector read straight off the diagram with `eval`.
fn projector_amplitudes(m: &mut TddManager, space: &Subspace, n: u32) -> Vec<Cplx> {
    let p = space.projector(m);
    let vars: Vec<Var> = Subspace::ket_vars(n)
        .into_iter()
        .chain(Subspace::row_vars(n))
        .collect();
    let k = vars.len();
    (0..1usize << k)
        .map(|bits| {
            let asn: BTreeMap<Var, bool> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, bits >> (k - 1 - i) & 1 == 1))
                .collect();
            m.eval(p, &asn)
        })
        .collect()
}

/// Differential reachability with exact arithmetic: the increment
/// fixpoint under aggressive GC **plus sifting at every collection**
/// reaches the same space as the grow-only run, with bit-for-bit
/// identical projector amplitudes — reordering in the middle of a
/// fixpoint is invisible to the result.
#[test]
fn forced_sifting_fixpoint_matches_grow_only_bit_for_bit() {
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };

    let mut m_plain = TddManager::new();
    let qts_plain = increment_qts(&mut m_plain);
    let r_plain = mc::try_reachable_space(&mut m_plain, &qts_plain, strategy, 30).unwrap();

    let mut m_dvo = TddManager::new();
    let qts_dvo = increment_qts(&mut m_dvo);
    m_dvo.set_gc_policy(Some(
        GcPolicy::aggressive().with_reorder(ReorderPolicy::EveryCollection),
    ));
    let r_dvo = mc::try_reachable_space(&mut m_dvo, &qts_dvo, strategy, 30).unwrap();

    assert!(r_plain.converged && r_dvo.converged);
    assert_eq!(r_plain.iterations, r_dvo.iterations);
    assert_eq!(r_plain.space.dim(), 16);
    assert_eq!(r_dvo.space.dim(), 16);

    // The sifting really ran, mid-fixpoint, more than once.
    let s = m_dvo.stats();
    assert!(r_dvo.collections > 0);
    assert!(
        s.sift_passes > 1,
        "every collection must trigger a sifting pass: got {}",
        s.sift_passes
    );
    assert!(s.swaps > 0, "sifting must perform level swaps");

    // Same span, checked in the reordered manager.
    let mut imported = Subspace::zero(4);
    for &b in r_plain.space.basis() {
        let e = m_dvo.import(&m_plain, b);
        imported.absorb(&mut m_dvo, e);
    }
    assert!(r_dvo.space.clone().equals(&mut m_dvo, &imported));

    // Bit-for-bit amplitudes: the increment system is all 0/1 weights,
    // so the two projectors must agree exactly, entry by entry.
    let amps_plain = projector_amplitudes(&mut m_plain, &r_plain.space, 4);
    let amps_dvo = projector_amplitudes(&mut m_dvo, &r_dvo.space, 4);
    assert_eq!(
        amps_plain, amps_dvo,
        "reordering must not perturb a single amplitude bit"
    );
}

/// The same differential on a genuinely complex-weighted system (the
/// noisy quantum walk), through the engine facade: forced sifting at
/// every safepoint leaves the reachable space equal and every projector
/// amplitude within interning tolerance of the grow-only run.
#[test]
fn forced_sifting_engine_fixpoint_matches_grow_only() {
    let spec = generators::qrw(3, 0.2);
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };

    let mut plain = EngineBuilder::new()
        .strategy(strategy)
        .build_from_spec(&spec)
        .expect("well-formed spec");
    let r_plain = plain.reachable_space(20).expect("plain fixpoint");

    let mut dvo = EngineBuilder::new()
        .strategy(strategy)
        .gc_policy(Some(GcPolicy::aggressive()))
        .reorder(ReorderPolicy::EveryCollection)
        .build_from_spec(&spec)
        .expect("well-formed spec");
    let r_dvo = dvo.reachable_space(20).expect("reordered fixpoint");

    assert_eq!(r_plain.space.dim(), r_dvo.space.dim());
    assert!(
        dvo.manager().stats().sift_passes > 0,
        "the reorder schedule must have fired"
    );

    let amps_plain = projector_amplitudes(plain.manager_mut(), &r_plain.space, 3);
    let amps_dvo = projector_amplitudes(dvo.manager_mut(), &r_dvo.space, 3);
    for (i, (a, b)) in amps_plain.iter().zip(&amps_dvo).enumerate() {
        assert!(
            a.approx_eq_with(*b, 1e-8),
            "projector entry {i} drifted under reordering: {a:?} vs {b:?}"
        );
    }
}
