//! Cross-strategy agreement: the basic algorithm, the addition partition,
//! and the contraction partition must compute the *same* image subspace on
//! every benchmark family — the central soundness claim behind Table I.

use qits::{EngineBuilder, Strategy, Subspace};
use qits_circuit::generators::{self, QtsSpec};

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::Addition { k: 2 },
        Strategy::Addition { k: 3 },
        Strategy::Contraction { k1: 1, k2: 1 },
        Strategy::Contraction { k1: 2, k2: 2 },
        Strategy::Contraction { k1: 4, k2: 4 },
        Strategy::Contraction { k1: 3, k2: 1 },
    ]
}

fn check_all_agree(spec: &QtsSpec) {
    check_all_agree_inner(spec, false);
}

/// Like [`check_all_agree`], but forces a garbage collection after every
/// strategy's image computation: the system, the reference image, and the
/// freshly computed image are held and everything else is swept in
/// place. Cross-strategy agreement must be unaffected.
fn check_all_agree_with_forced_gc(spec: &QtsSpec) {
    check_all_agree_inner(spec, true);
}

fn check_all_agree_inner(spec: &QtsSpec, force_gc: bool) {
    let mut engine = EngineBuilder::new().build_from_spec(spec).unwrap();
    let mut reference: Option<Subspace> = None;
    for s in strategies() {
        let (img, stats) = engine.image_with(s).unwrap();
        assert_eq!(img.dim(), stats.output_dim);
        if force_gc {
            // The engine retains its own system; the computed images ride
            // through the sweep as `kept` subspaces.
            let mut kept: Vec<&Subspace> = vec![&img];
            if let Some(r) = reference.as_ref() {
                kept.push(r);
            }
            engine.collect(&kept);
        }
        match &reference {
            None => reference = Some(img),
            Some(r) => assert!(
                img.equals(engine.manager_mut(), r),
                "{}: strategy {s} disagrees with basic{}",
                spec.name,
                if force_gc { " (with forced GC)" } else { "" }
            ),
        }
    }
}

#[test]
fn ghz_all_strategies_agree() {
    check_all_agree(&generators::ghz(6));
}

#[test]
fn grover_all_strategies_agree() {
    check_all_agree(&generators::grover(5));
}

#[test]
fn bv_all_strategies_agree() {
    let secret = generators::bv_secret(6);
    check_all_agree(&generators::bernstein_vazirani(6, &secret));
}

#[test]
fn qft_all_strategies_agree() {
    check_all_agree(&generators::qft(5));
}

#[test]
fn qft_with_swaps_all_strategies_agree() {
    check_all_agree(&generators::qft_with_swaps(4));
}

#[test]
fn qrw_all_strategies_agree() {
    check_all_agree(&generators::qrw(4, 0.3));
}

#[test]
fn bitflip_code_all_strategies_agree() {
    check_all_agree(&generators::bitflip_code());
}

#[test]
fn ghz_all_strategies_agree_with_forced_gc() {
    check_all_agree_with_forced_gc(&generators::ghz(5));
}

#[test]
fn qrw_all_strategies_agree_with_forced_gc() {
    check_all_agree_with_forced_gc(&generators::qrw(4, 0.3));
}

#[test]
fn grover_all_strategies_agree_with_forced_gc() {
    check_all_agree_with_forced_gc(&generators::grover(4));
}

#[test]
fn grover_invariance_at_moderate_size() {
    // T(S) = S scales with the register: check at 7 qubits.
    let mut engine = EngineBuilder::new()
        .strategy(Strategy::Contraction { k1: 4, k2: 4 })
        .build_from_spec(&generators::grover(7))
        .unwrap();
    let (img, _) = engine.image().unwrap();
    let initial = engine.initial().clone();
    assert!(img.equals(engine.manager_mut(), &initial));
}

#[test]
fn image_dim_is_bounded_by_branches_times_input_dim() {
    let mut engine = EngineBuilder::new()
        .strategy(Strategy::Basic)
        .build_from_spec(&generators::qrw(4, 0.2))
        .unwrap();
    let (img, stats) = engine.image().unwrap();
    assert!(img.dim() <= stats.branches * engine.initial().dim());
}
