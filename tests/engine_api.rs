//! Acceptance tests for the session-based engine API: error paths return
//! `Err` (never panic, release builds included, a swept subspace or state
//! among them), the engine agrees bit-for-bit with the free-function
//! baseline across the built-in strategies with collections forced
//! around its images, both session constructors default to the
//! contraction partition at `k1 = k2 = 4`, and the branches a session
//! compiles once are reused, retained by its collections, rebuilt when a
//! foreign collection swept them, and dropped with the strategy.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;

use qits::{
    run_job, try_image, Engine, EngineBuilder, EngineSpec, ImageStats, Job, JobOutput, QitsError,
    QuantumTransitionSystem, Strategy, Subspace,
};
use qits_circuit::tensorize::states;
use qits_circuit::{generators, Circuit, Gate, Operation};
use qits_num::Cplx;
use qits_tdd::TddManager;

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
    // Collecting the equivalence checks' garbage keeps the session's own
    // state: a later image() reads an intact system.
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::grover(3))
        .unwrap();
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let mut cx3 = Circuit::new(2);
    cx3.push(Gate::cx(0, 1));
    cx3.push(Gate::cx(1, 0));
    cx3.push(Gate::cx(0, 1));
    engine.image().unwrap();
    assert!(engine.equivalent(&swap, &cx3).unwrap());
    assert!(engine.collect(&[]).reclaimed > 0, "the check left garbage");
    assert!(engine.equivalent_up_to_phase(&swap, &cx3).unwrap());
    assert!(engine.collect(&[]).reclaimed > 0, "the check left garbage");
    // The session's system survived the collections intact.
    let (img, _) = engine.image().unwrap();
    let initial = engine.initial().clone();
    assert!(img.equals(engine.manager_mut(), &initial));
}

#[test]
fn a_cancelled_equivalence_check_stops_at_the_tripping_safepoint() {
    // The checker polls a safepoint after every tensor it contracts, so a
    // token set to trip on the fifth poll stops the check right there,
    // and the same session then answers the pair.
    let adder = generators::qft_adder(8, 1).operations[0]
        .kraus_branches()
        .remove(0);
    let ripple = generators::ripple_increment(8);
    let mut engine = EngineBuilder::new().build_bare(8).unwrap();
    let token = qits::CancelToken::cancel_after(5);
    engine.set_cancel_token(Some(token.clone()));
    assert_eq!(
        engine.equivalent(&adder, &ripple).unwrap_err(),
        QitsError::Cancelled
    );
    assert_eq!(token.polls(), 5);
    engine.set_cancel_token(None);
    assert!(engine.equivalent(&adder, &ripple).unwrap());
}

#[test]
fn a_cancelled_image_stops_at_the_tripping_safepoint() {
    // The kernel polls between addition slices, between contraction
    // blocks and after every Gram–Schmidt residual but the last. A token
    // set to trip halfway through an image's polls stops it right there,
    // under each kernel, and the same session then computes the image.
    for strategy in [
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::default(),
    ] {
        let build = || {
            EngineBuilder::new()
                .strategy(strategy)
                .build_from_spec(&generators::qrw(4, 0.25))
                .unwrap()
        };
        let (want, full) = build().image().unwrap();
        assert!(
            full.safepoints >= 2,
            "{strategy}: {} polls",
            full.safepoints
        );
        let trip = full.safepoints / 2;
        let mut engine = build();
        let token = qits::CancelToken::cancel_after(trip);
        engine.set_cancel_token(Some(token.clone()));
        assert_eq!(
            engine.image().unwrap_err(),
            QitsError::Cancelled,
            "{strategy}"
        );
        assert_eq!(token.polls(), trip, "{strategy}");
        engine.set_cancel_token(None);
        let (got, _) = engine.image().unwrap();
        assert_eq!(got.dim(), want.dim(), "{strategy}");
    }
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

    /// The engine (collecting before and after each image) and the
    /// `try_image` kernel on a raw manager (grow-only arena) compute
    /// bit-for-bit identical images — every basis vector imports to the
    /// exact same canonical edge — across random circuits, random initial
    /// subspaces, and all three built-in strategies, the default
    /// contraction setting included.
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

            // Engine session with a collection before and after the image.
            let mut engine = EngineBuilder::new()
                .build_with(3, vec![op], |m| {
                    let vars = Subspace::ket_vars(3);
                    let states: Vec<_> =
                        amps.iter().map(|a| m.product_ket(&vars, a)).collect();
                    Subspace::from_states(m, 3, &states)
                })
                .unwrap();
            engine.collect(&[]);
            let (img_engine, _) = engine.image_with(strategy).unwrap();
            engine.collect(&[&img_engine]);

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
    // A collection keeps the session's state and nothing a call left
    // behind: after extra images and checks, it keeps exactly as many
    // nodes as it keeps for a session that only ran the fixpoint.
    let build = || {
        EngineBuilder::new()
            .strategy(Strategy::Addition { k: 1 })
            .build_from_spec(&generators::qrw(3, 0.2))
            .unwrap()
    };
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let mut busy = build();
    busy.image().unwrap();
    let input = busy.initial().clone();
    busy.image_of(&input).unwrap();
    busy.image_with(Strategy::Basic).unwrap();
    assert!(busy.equivalent(&swap, &swap).unwrap());
    busy.reachable_space(10).unwrap();
    let kept = busy.collect(&[]);
    let mut quiet = build();
    quiet.reachable_space(10).unwrap();
    assert_eq!(kept.live, quiet.collect(&[]).live);
    assert_eq!(kept.live, busy.manager().arena_occupied());
    assert_eq!(busy.collect(&[]).reclaimed, 0, "nothing left to sweep");
}

// ----------------------------------------------------------------------
// Invariant jobs: malformed rows and node caps are errors.
// ----------------------------------------------------------------------

#[test]
fn invariant_job_with_a_short_row_is_a_register_mismatch() {
    let mut engine = EngineSpec::new(generators::qrw(3, 0.25)).build().unwrap();
    let short = vec![vec![states::ZERO; 2]];
    let err = run_job(&mut engine, &Job::invariant(3, short, 8)).unwrap_err();
    assert!(
        matches!(
            err,
            QitsError::RegisterMismatch {
                expected: 3,
                found: 2,
                ..
            }
        ),
        "{err}"
    );
    // A claimed width other than the system's is refused the same way.
    let wide = vec![vec![states::ZERO; 5]];
    let err = run_job(&mut engine, &Job::invariant(5, wide, 8)).unwrap_err();
    assert!(matches!(
        err,
        QitsError::RegisterMismatch {
            expected: 3,
            found: 5,
            ..
        }
    ));
    // The session stays usable.
    let full = basis_rows(3, &(0..8).collect::<Vec<_>>());
    let out = run_job(&mut engine, &Job::invariant(3, full, 32)).unwrap();
    assert_eq!(out.invariant_holds(), Some(true));
}

#[test]
fn arena_exhaustion_while_building_an_invariant_is_an_error() {
    let mut engine = EngineSpec::new(generators::qrw(3, 0.25)).build().unwrap();
    // Amplitudes no diagram of the session carries yet: the first ket
    // needs fresh nodes, and the store has room for none.
    let fresh = vec![vec![(Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8)); 3]];
    let cap = engine.manager().arena_len();
    engine.manager_mut().set_node_capacity(cap);
    let err = run_job(&mut engine, &Job::invariant(3, fresh.clone(), 32)).unwrap_err();
    assert_eq!(
        err,
        QitsError::ArenaExhausted {
            allocated: cap,
            capacity: cap
        }
    );
    engine.manager_mut().set_node_capacity(usize::MAX);
    let out = run_job(&mut engine, &Job::invariant(3, fresh, 32)).unwrap();
    assert_eq!(out.invariant_holds(), Some(false));
}

// ----------------------------------------------------------------------
// The session compiles each branch once.
// ----------------------------------------------------------------------

/// Whether `a` (on `ea`'s manager) and `b` (on `eb`'s) span the same
/// space: `a`'s basis is imported into `eb`'s manager and compared there.
fn same_space(ea: &Engine, a: &Subspace, eb: &mut Engine, b: &Subspace) -> bool {
    let kets: Vec<_> = a
        .basis()
        .iter()
        .map(|&k| eb.manager_mut().import(ea.manager(), k))
        .collect();
    let imported = eb.subspace_from_states(&kets).unwrap();
    imported.equals(eb.manager_mut(), b)
}

/// The basis product states `|b>` of an `n`-qubit register, for every
/// `b` in `bits`.
fn basis_rows(n: usize, bits: &[usize]) -> Vec<Vec<(Cplx, Cplx)>> {
    bits.iter()
        .map(|&b| {
            (0..n)
                .map(|q| {
                    if (b >> (n - 1 - q)) & 1 == 1 {
                        states::ONE
                    } else {
                        states::ZERO
                    }
                })
                .collect()
        })
        .collect()
}

/// Contraction-cache lookups an image issued.
fn lookups(st: &ImageStats) -> u64 {
    st.cont_cache.hits + st.cont_cache.misses
}

/// Dimension, verdict and iteration count of a job's answer.
fn answer(out: &JobOutput) -> (usize, Option<bool>, usize) {
    match out {
        JobOutput::Image(o) => (o.dim, None, 0),
        JobOutput::Reachability(r) => (r.dim, None, r.iterations),
        JobOutput::Invariant { holds, reach } => (reach.dim, Some(*holds), reach.iterations),
        JobOutput::Equivalence { equivalent } => (0, Some(*equivalent), 0),
    }
}

#[test]
fn one_gc_engine_answers_interleaved_jobs_like_fresh_engines() {
    // The pool-worker pattern: one long-lived session that collects after
    // every job answers a mix of jobs, reusing its compiled branches, and
    // every answer matches a fresh session's that never collects.
    let spec = generators::qrw(3, 0.25);
    let mut worker = EngineSpec::new(spec.clone()).build().unwrap();
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let mut cx3 = Circuit::new(2);
    cx3.push(Gate::cx(0, 1));
    cx3.push(Gate::cx(1, 0));
    cx3.push(Gate::cx(0, 1));
    let all: Vec<usize> = (0..8).collect();
    let jobs = [
        Job::reachability(32),
        Job::image(),
        Job::invariant(3, basis_rows(3, &all), 32),
        Job::equivalence(swap.clone(), cx3),
        Job::invariant(3, basis_rows(3, &[0, 1, 2]), 32),
        Job::equivalence(swap, Circuit::new(2)),
        Job::image(),
        Job::reachability(32),
    ];
    let mut verdicts = Vec::new();
    let mut reclaimed = 0;
    for round in 0..2 {
        for (i, job) in jobs.iter().enumerate() {
            let got = run_job(&mut worker, job).unwrap();
            reclaimed += worker.collect(&[]).reclaimed;
            let mut fresh = EngineSpec::new(spec.clone()).build().unwrap();
            let want = run_job(&mut fresh, job).unwrap();
            assert_eq!(answer(&got), answer(&want), "round {round}, job {i}");
            verdicts.push(answer(&got).1);
        }
        // `image_of` on a subspace the job stream never built.
        let rows = basis_rows(3, &[5, 6]);
        let input = worker.subspace_from_product_states(&rows).unwrap();
        let (got, _) = worker.image_of(&input).unwrap();
        reclaimed += worker.collect(&[&got]).reclaimed;
        let mut fresh = EngineSpec::new(spec.clone()).build().unwrap();
        let fresh_input = fresh.subspace_from_product_states(&rows).unwrap();
        let (want, _) = fresh.image_of(&fresh_input).unwrap();
        assert_eq!(got.dim(), want.dim(), "round {round}, image_of");
        assert!(
            same_space(&worker, &got, &mut fresh, &want),
            "round {round}"
        );
    }
    assert!(reclaimed > 0, "the worker must collect");
    // The stream covers both verdicts of both kinds of question.
    for v in [Some(true), Some(false)] {
        assert!(verdicts.contains(&v), "{v:?} missing from {verdicts:?}");
    }
}

#[test]
fn a_warm_image_reuses_the_compiled_branches() {
    // With the operation caches off every contraction recurses in full,
    // so only skipping the block contractions can make the warm image
    // issue fewer lookups; with them on, it issues fewer as well.
    for cache_capacity in [0, 1 << 16] {
        let mut engine = EngineBuilder::new()
            .cache_capacity(cache_capacity)
            .build_from_spec(&generators::qrw(4, 0.25))
            .unwrap();
        let (first, cold) = engine.image().unwrap();
        let (second, warm) = engine.image().unwrap();
        assert!(
            lookups(&warm) < lookups(&cold),
            "capacity {cache_capacity}: a warm image must skip the block \
             contractions: {} vs {}",
            lookups(&warm),
            lookups(&cold)
        );
        assert_eq!(warm.branches, cold.branches);
        assert_eq!(warm.max_nodes, cold.max_nodes);
        assert!(second.equals(engine.manager_mut(), &first));
    }
}

#[test]
fn session_collections_keep_the_compiled_branches() {
    // Every collection the session runs itself retains the compiled
    // branches, so the image after it skips compilation and issues fewer
    // contraction lookups than the image after a collection through
    // `manager_mut()` that swept them.
    let spec = generators::qrw(4, 0.25);
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let image_lookups = |between: &dyn Fn(&mut Engine)| {
        let mut engine = EngineBuilder::new().build_from_spec(&spec).unwrap();
        engine.image().unwrap();
        between(&mut engine);
        lookups(&engine.image().unwrap().1)
    };
    let sweep = |e: &mut Engine| {
        let system = e.qts().clone();
        e.manager_mut().collect(&[&system]);
    };
    let swept = image_lookups(&sweep);
    let kept = [
        image_lookups(&|e| {
            e.collect(&[]);
        }),
        image_lookups(&|e| {
            assert!(e.equivalent(&swap, &swap).unwrap());
            e.collect(&[]);
        }),
        image_lookups(&|e| {
            e.image_with(Strategy::Basic).unwrap();
            e.collect(&[]);
        }),
    ];
    for (what, lookups) in ["collect", "equivalent", "image_with"].iter().zip(kept) {
        assert!(
            lookups < swept,
            "the image after {what} recompiled: {lookups} vs {swept}"
        );
    }
}

#[test]
fn a_swept_compile_cache_is_rebuilt_not_read() {
    // A collection through `manager_mut()` that retains the system but
    // not the compiled branches sweeps them; the next calls notice and
    // compile again instead of reading swept nodes.
    let spec = generators::qrw(4, 0.25);
    let mut engine = EngineBuilder::new().build_from_spec(&spec).unwrap();
    engine.image().unwrap();
    let (_, warm) = engine.image().unwrap();
    let system = engine.qts().clone();
    let out = engine.manager_mut().collect(&[&system]);
    assert!(out.reclaimed > 0);
    let (img, rebuilt) = engine.image().unwrap();
    assert!(
        lookups(&rebuilt) > lookups(&warm),
        "the image after the sweep must recompile: {} vs {}",
        lookups(&rebuilt),
        lookups(&warm)
    );
    let mut fresh = EngineBuilder::new().build_from_spec(&spec).unwrap();
    let (want, _) = fresh.image().unwrap();
    assert!(same_space(&engine, &img, &mut fresh, &want));

    engine.manager_mut().collect(&[&system]);
    let r = engine.reachable_space(64).unwrap();
    let want = fresh.reachable_space(64).unwrap();
    assert_eq!(
        (r.space.dim(), r.iterations, r.converged),
        (want.space.dim(), want.iterations, want.converged)
    );
    assert!(same_space(&engine, &r.space, &mut fresh, &want.space));
}

#[test]
fn a_swept_subspace_or_state_is_a_stale_handle_error() {
    // A collection through `manager_mut()` that keeps only the system
    // sweeps a subspace and a ket built on the session. Every entry point
    // handed them refuses them as a typed error, in release builds too,
    // instead of reading whatever node recycled their slots.
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let amps = (Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8));
    let space = engine
        .subspace_from_product_states(&[vec![amps; 3]])
        .unwrap();
    let ket = space.basis()[0];
    let system = engine.qts().clone();
    assert!(engine.manager_mut().collect(&[&system]).reclaimed > 0);
    assert!(!engine.manager().is_live(ket), "the ket must be swept");
    let stale = |r: Result<_, QitsError>| matches!(r, Err(QitsError::StaleHandle { .. }));
    assert!(stale(engine.image_of(&space).map(|_| ())));
    assert!(stale(engine.check_invariant(&space, 4).map(|_| ())));
    assert!(stale(engine.subspace_from_states(&[ket]).map(|_| ())));
    // The session's own state was kept and still answers.
    assert!(engine.image().is_ok());
}

#[test]
fn set_strategy_drops_the_compiled_branches() {
    let spec = generators::qrw(3, 0.25);
    let seen: Arc<Mutex<Vec<String>>> = Arc::default();
    let seen2 = seen.clone();
    let mut engine = EngineBuilder::new()
        .stats_sink(move |name, _| seen2.lock().unwrap().push(name.to_string()))
        .build_from_spec(&spec)
        .unwrap();
    engine.image().unwrap();
    engine.set_strategy(Strategy::Basic);
    let (img, st) = engine.image().unwrap();
    let mut basic = EngineBuilder::new()
        .strategy(Strategy::Basic)
        .build_from_spec(&spec)
        .unwrap();
    let (want, want_st) = basic.image().unwrap();
    assert_eq!(img.dim(), want.dim());
    // The whole operator was built: the peak is the monolithic one, not
    // the contraction blocks'.
    assert_eq!(st.max_nodes, want_st.max_nodes);
    assert!(same_space(&engine, &img, &mut basic, &want));
    let names = seen.lock().unwrap();
    assert_eq!(
        names.as_slice(),
        ["contraction(k1=4,k2=4)".to_string(), "basic".to_string()]
    );
}
