//! Reachability-analysis integration tests: convergence, monotonicity,
//! and strategy-independence of the fixpoint.

use qits::{mc, QuantumTransitionSystem, Strategy};
use qits_circuit::generators;
use qits_tdd::TddManager;

#[test]
fn fixpoints_agree_across_strategies() {
    let mut dims = Vec::new();
    for s in [
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::Contraction { k1: 2, k2: 2 },
    ] {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.4));
        let r = mc::try_reachable_space(&mut m, &qts, s, 30).unwrap();
        assert!(r.converged, "strategy {s} did not converge");
        dims.push(r.space.dim());
    }
    assert!(dims.windows(2).all(|w| w[0] == w[1]), "dims {dims:?}");
}

#[test]
fn iterates_are_monotone() {
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(4, 0.2));
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };
    // Manually unroll the iteration, checking S_i <= S_{i+1}.
    let ops = qts.operations().clone();
    let mut space = qts.initial().clone();
    for _ in 0..6 {
        let (img, _) = qits::try_image(&mut m, &ops, &space, strategy).unwrap();
        let joined = space.join(&mut m, &img);
        assert!(space.is_subspace_of(&mut m, &joined));
        if joined.dim() == space.dim() {
            break;
        }
        space = joined;
    }
}

#[test]
fn ghz_reachable_space_is_small() {
    // The GHZ preparation from |0..0> cycles among a handful of states.
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(4));
    let r = mc::try_reachable_space(&mut m, &qts, Strategy::Basic, 40).unwrap();
    assert!(r.converged);
    assert!(
        r.space.dim() < 1 << 4,
        "GHZ reachability should not fill the space, got {}",
        r.space.dim()
    );
}

#[test]
fn bitflip_reachability_converges_fast() {
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::bitflip_code());
    let r =
        mc::try_reachable_space(&mut m, &qts, Strategy::Contraction { k1: 3, k2: 2 }, 20).unwrap();
    assert!(r.converged);
    // Initial errors + corrected states.
    assert!(r.space.dim() >= 3);
    assert!(r.iterations <= 5);
}

#[test]
fn safety_property_via_complement() {
    // "The walk never reaches coin=|1>, position=|0...0>" — stated as a
    // bad subspace, checked as an invariant through its complement.
    use qits::Subspace;
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.3));
    let vars = Subspace::ket_vars(3);
    let bad_ket = m.basis_ket(&vars, &[true, false, false]); // |1>|00>
    let bad = Subspace::from_states(&mut m, 3, &[bad_ket]);
    let safe = bad.complement(&mut m);
    let (holds, r) = mc::try_check_invariant(
        &mut m,
        &qts,
        &safe,
        Strategy::Contraction { k1: 2, k2: 2 },
        20,
    )
    .unwrap();
    assert!(r.converged);
    // The walk spreads over the whole cycle, so the bad state IS
    // eventually reachable: the safety property must be reported violated.
    assert!(!holds);
    // Restricting to the 1-step horizon, |1>|00> is not yet reachable
    // from |0>|00> (one step reaches only |0>|111>+|1>|001>).
    let one_step = mc::try_reachable_space(&mut m, &qts, Strategy::Basic, 1).unwrap();
    assert!(one_step.space.is_subspace_of(&mut m, &safe));
}

#[test]
fn invariant_check_on_truncated_run_reports_unconverged() {
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(4, 0.5));
    let inv = qts.initial().clone();
    let (_, r) = mc::try_check_invariant(
        &mut m,
        &qts,
        &inv,
        Strategy::Contraction { k1: 2, k2: 2 },
        1,
    )
    .unwrap();
    assert!(!r.converged);
}
