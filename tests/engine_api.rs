//! Acceptance tests for the session-based engine API: error paths return
//! `Err` (never panic, release builds included), the engine agrees
//! bit-for-bit with the free-function baseline across the built-in
//! strategies with GC forced at every safepoint, and both session
//! constructors default to the contraction partition at `k1 = k2 = 4`.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;

use qits::{
    try_image, EngineBuilder, EngineSpec, QitsError, QuantumTransitionSystem, Strategy, Subspace,
};
use qits_circuit::{generators, Circuit, Gate, Operation};
use qits_num::Cplx;
use qits_tdd::{GcPolicy, TddManager};

// ----------------------------------------------------------------------
// Error paths: failures are values.
// ----------------------------------------------------------------------

#[test]
fn mismatched_register_operation_is_err_not_panic() {
    // Acceptance criterion: `Engine::image()` on a mismatched-register
    // operation returns `Err(QitsError::RegisterMismatch)` in release
    // mode. Construction already rejects the mismatch...
    let wide = Operation::new("wide", 5);
    let err = EngineBuilder::new()
        .build_with(3, vec![wide.clone()], |_| Subspace::zero(3))
        .unwrap_err();
    assert!(matches!(
        err,
        QitsError::RegisterMismatch {
            expected: 3,
            found: 5,
            ..
        }
    ));

    // ...and a mismatched input subspace at image time errors the same
    // way, leaving the session usable.
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let wrong = Subspace::zero(5);
    assert!(matches!(
        engine.image_of(&wrong).unwrap_err(),
        QitsError::RegisterMismatch {
            expected: 5,
            found: 3,
            ..
        }
    ));
    assert!(engine.image().is_ok());
}

#[test]
fn empty_operation_list_is_err() {
    let mut engine = EngineBuilder::new().build_bare(2).unwrap();
    assert_eq!(engine.image().unwrap_err(), QitsError::EmptyOperationSet);
    assert_eq!(
        engine.reachable_space(5).unwrap_err(),
        QitsError::EmptyOperationSet
    );
    let inv = Subspace::zero(2);
    assert_eq!(
        engine.check_invariant(&inv, 5).unwrap_err(),
        QitsError::EmptyOperationSet
    );
}

#[test]
fn zero_qubit_system_is_err() {
    assert_eq!(
        EngineBuilder::new().build_bare(0).unwrap_err(),
        QitsError::ZeroQubitSystem
    );
    let spec = qits_circuit::generators::QtsSpec {
        name: "empty".into(),
        n_qubits: 0,
        operations: vec![],
        initial_states: vec![],
    };
    assert_eq!(
        EngineBuilder::new().build_from_spec(&spec).unwrap_err(),
        QitsError::ZeroQubitSystem
    );
}

#[test]
fn equivalence_register_mismatch_is_err() {
    let mut engine = EngineBuilder::new().build_bare(2).unwrap();
    let a = Circuit::new(2);
    let b = Circuit::new(3);
    assert!(matches!(
        engine.equivalent(&a, &b).unwrap_err(),
        QitsError::RegisterMismatch {
            expected: 2,
            found: 3,
            ..
        }
    ));
    assert!(matches!(
        engine.equivalent_up_to_phase(&a, &b).unwrap_err(),
        QitsError::RegisterMismatch { .. }
    ));
}

#[test]
fn check_invariant_register_mismatch_is_err() {
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let wrong = Subspace::zero(5);
    assert!(matches!(
        engine.check_invariant(&wrong, 5).unwrap_err(),
        QitsError::RegisterMismatch {
            expected: 3,
            found: 5,
            ..
        }
    ));
}

#[test]
fn equivalence_under_gc_does_not_corrupt_the_session() {
    // The equivalence checkers poll a GC safepoint between the two
    // operator contractions; the engine must pin its own system across
    // it, or an aggressive policy sweeps the initial subspace and a later
    // image() dereferences dangling edges.
    let mut engine = EngineBuilder::new()
        .gc_policy(Some(GcPolicy::aggressive()))
        .build_from_spec(&generators::grover(3))
        .unwrap();
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let mut cx3 = Circuit::new(2);
    cx3.push(Gate::cx(0, 1));
    cx3.push(Gate::cx(1, 0));
    cx3.push(Gate::cx(0, 1));
    assert!(engine.equivalent(&swap, &cx3).unwrap());
    assert!(engine.equivalent_up_to_phase(&swap, &cx3).unwrap());
    assert!(
        engine.manager().stats().safepoint_collections > 0,
        "the aggressive policy must actually collect at the safepoint"
    );
    // The session's system survived the equivalence safepoints intact.
    let (img, _) = engine.image().unwrap();
    let initial = engine.initial().clone();
    assert!(img.equals(engine.manager_mut(), &initial));
    assert_eq!(engine.manager().root_count(), 0);
}

#[test]
fn slice_count_overflow_is_err() {
    let mut engine = EngineBuilder::new()
        .strategy(Strategy::Addition { k: 64 })
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    assert_eq!(
        engine.image().unwrap_err(),
        QitsError::DimensionOverflow { bits: 64 }
    );
}

// ----------------------------------------------------------------------
// The default kernel.
// ----------------------------------------------------------------------

#[test]
fn builder_and_spec_default_to_the_table_one_contraction_partition() {
    // GHZ is the paper's wide, shallow family, where a choice by circuit
    // shape would pick the addition partition: the default must not
    // depend on shape, on the serial and the pooled construction path.
    let seen: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = seen.clone();
    let mut engine = EngineBuilder::new()
        .stats_sink(move |name, _| sink.lock().unwrap().push(name.to_string()))
        .build_from_spec(&generators::ghz(8))
        .unwrap();
    engine.image().unwrap();
    assert_eq!(*seen.lock().unwrap(), ["contraction(k1=4,k2=4)"]);

    let spec = EngineSpec::new(generators::ghz(8));
    assert_eq!(spec.strategy_name(), "contraction(k1=4,k2=4)");
    assert_eq!(
        spec.build().unwrap().strategy(),
        Strategy::Contraction { k1: 4, k2: 4 }
    );
}

// ----------------------------------------------------------------------
// Engine vs free-function baseline, bit for bit, under forced GC.
// ----------------------------------------------------------------------

fn arb_gate(n: u32) -> impl proptest::strategy::Strategy<Value = Gate> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::z),
        (q.clone(), 0.0..std::f64::consts::TAU).prop_map(|(q, t)| Gate::phase(q, t)),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cx(a, b))),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cz(a, b))),
    ]
}

fn arb_circuit(n: u32, max_len: usize) -> impl proptest::strategy::Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..=max_len).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

fn arb_amp() -> impl proptest::strategy::Strategy<Value = (Cplx, Cplx)> {
    (0.0..std::f64::consts::PI, 0.0..std::f64::consts::TAU).prop_map(|(theta, phi)| {
        (
            Cplx::real((theta / 2.0).cos()),
            Cplx::from_polar((theta / 2.0).sin(), phi),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The engine (GC forced at every safepoint) and the `try_image`
    /// kernel on a raw manager (grow-only arena) compute bit-for-bit
    /// identical images — every basis vector imports to the exact same
    /// canonical edge — across random circuits, random initial subspaces,
    /// and all three built-in strategies, the default contraction setting
    /// included.
    #[test]
    fn engine_agrees_with_free_function_baseline_under_forced_gc(
        circuit in arb_circuit(3, 8),
        amps in proptest::collection::vec(proptest::collection::vec(arb_amp(), 3), 1..3),
    ) {
        let strategies = [
            Strategy::Basic,
            Strategy::Addition { k: 1 },
            Strategy::Contraction { k1: 2, k2: 2 },
            Strategy::Contraction { k1: 4, k2: 4 },
        ];
        for strategy in strategies {
            // Free-function baseline on its own grow-only manager.
            let mut m = TddManager::new();
            let op = Operation::from_circuit("rand", &circuit);
            let vars = Subspace::ket_vars(3);
            let states: Vec<_> = amps.iter().map(|a| m.product_ket(&vars, a)).collect();
            let init = Subspace::from_states(&mut m, 3, &states);
            let mut qts = QuantumTransitionSystem::new(3, vec![op.clone()], init);
            let ops = qts.operations().clone();
            let (img_base, _) = try_image(&mut m, &ops, qts.initial_mut(), strategy).unwrap();

            // Engine session with GC forced at every safepoint.
            let mut engine = EngineBuilder::new()
                .gc_policy(Some(GcPolicy::aggressive()))
                .build_with(3, vec![op], |m| {
                    let vars = Subspace::ket_vars(3);
                    let states: Vec<_> =
                        amps.iter().map(|a| m.product_ket(&vars, a)).collect();
                    Subspace::from_states(m, 3, &states)
                })
                .unwrap();
            let (img_engine, _) = engine.image_with(strategy).unwrap();

            prop_assert_eq!(
                img_base.dim(),
                img_engine.dim(),
                "{}: dimension differs from the baseline",
                strategy
            );
            for (&b_base, &b_eng) in img_base.basis().iter().zip(img_engine.basis()) {
                let imported = m.import(engine.manager(), b_eng);
                prop_assert_eq!(
                    imported,
                    b_base,
                    "{}: basis vector differs bit-for-bit from the baseline",
                    strategy
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Session ergonomics.
// ----------------------------------------------------------------------

#[test]
fn engine_reachability_matches_free_function_driver() {
    let spec = generators::qrw(3, 0.4);
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };

    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &spec);
    let base = qits::mc::try_reachable_space(&mut m, &qts, strategy, 30).unwrap();

    let mut engine = EngineBuilder::new()
        .strategy(strategy)
        .build_from_spec(&spec)
        .unwrap();
    let r = engine.reachable_space(30).unwrap();

    assert_eq!(base.converged, r.converged);
    assert_eq!(base.iterations, r.iterations);
    assert_eq!(base.space.dim(), r.space.dim());
}

#[test]
fn engine_leaves_no_roots_behind() {
    // Every internal pin must be released, across plain and GC'd runs.
    for policy in [None, Some(GcPolicy::aggressive())] {
        let mut engine = EngineBuilder::new()
            .gc_policy(policy)
            .strategy(Strategy::Addition { k: 1 })
            .build_from_spec(&generators::qrw(3, 0.2))
            .unwrap();
        engine.image().unwrap();
        let input = engine.initial().clone();
        engine.image_of(&input).unwrap();
        engine.reachable_space(10).unwrap();
        assert_eq!(engine.manager().root_count(), 0, "policy {policy:?}");
    }
}
