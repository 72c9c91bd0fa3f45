//! Differential suite for `EnginePool`: a batch of mixed jobs pushed
//! through the pool (2 and 4 workers) must agree with running each job
//! on a fresh serial `Engine` built from the same `EngineSpec` — across
//! all four built-in strategies, the default contraction setting
//! included. (Agreement across the collections workers run between jobs
//! is `tests/worker_memory.rs`'s: 1,000 jobs and 17 collections on one
//! worker, every answer matching a grow-only engine's.)
//!
//! Discrete outputs (dimensions, iteration counts, verdicts, error
//! values) must match **exactly**. Amplitudes are compared to a `1e-9`
//! tolerance, not bit-for-bit: a pool worker keeps its engine — and
//! therefore its tolerance-snapping complex-weight table — across jobs,
//! so a later job's weights can snap to near-equal entries interned by
//! whichever jobs happened to run earlier on that worker. Which worker
//! gets which job is scheduling-dependent, so bit-for-bit equality is
//! not a stable property of the pool (it flakes under CPU load); the
//! tolerance bound is. Real pool races — a stolen job mutating shared
//! state, cross-job cache contamination — still show: they corrupt amplitudes far beyond the
//! weight tolerance or change a discrete field outright.

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;

use qits::{run_job, EnginePool, EngineSpec, Job, JobOutput, QitsError, Strategy};
use qits_circuit::generators::QtsSpec;
use qits_circuit::{Circuit, Gate, Operation};
use qits_num::Cplx;

const N: u32 = 3;

fn arb_gate() -> impl proptest::strategy::Strategy<Value = Gate> {
    let q = 0..N;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::z),
        (q.clone(), 0.0..std::f64::consts::TAU).prop_map(|(q, t)| Gate::phase(q, t)),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cx(a, b))),
        (q.clone(), q).prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cz(a, b))),
    ]
}

fn arb_circuit(max_len: usize) -> impl proptest::strategy::Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(), 1..=max_len).prop_map(|gates| {
        let mut c = Circuit::new(N);
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

/// Field-wise comparison, timing-carrying stats excluded: discrete
/// fields exactly, amplitudes to tolerance (see the module docs for why
/// bit-for-bit is not a stable property of a worker that keeps its
/// weight table across jobs).
fn outputs_match(pool: &JobOutput, serial: &JobOutput) -> Result<(), String> {
    match (pool, serial) {
        (JobOutput::Image(p), JobOutput::Image(s)) => {
            if p.dim != s.dim {
                return Err(format!("image dim {} != {}", p.dim, s.dim));
            }
            let same_shape = p.amplitudes.len() == s.amplitudes.len()
                && p.amplitudes
                    .iter()
                    .zip(&s.amplitudes)
                    .all(|(a, b)| a.len() == b.len());
            let close = same_shape
                && p.amplitudes
                    .iter()
                    .flatten()
                    .zip(s.amplitudes.iter().flatten())
                    .all(|(a, b)| a.approx_eq_with(*b, 1e-9));
            if !close {
                return Err("image amplitudes differ beyond tolerance".to_string());
            }
            Ok(())
        }
        (JobOutput::Reachability(p), JobOutput::Reachability(s)) => {
            if (p.dim, p.iterations, p.converged) != (s.dim, s.iterations, s.converged) {
                return Err(format!(
                    "reachability (dim, iters, converged) ({}, {}, {}) != ({}, {}, {})",
                    p.dim, p.iterations, p.converged, s.dim, s.iterations, s.converged
                ));
            }
            Ok(())
        }
        (
            JobOutput::Invariant {
                holds: p,
                reach: pr,
            },
            JobOutput::Invariant {
                holds: s,
                reach: sr,
            },
        ) => {
            if p != s {
                return Err(format!("invariant verdict {p} != {s}"));
            }
            if (pr.dim, pr.iterations) != (sr.dim, sr.iterations) {
                return Err("invariant witness run differs".to_string());
            }
            Ok(())
        }
        (JobOutput::Equivalence { equivalent: p }, JobOutput::Equivalence { equivalent: s }) => {
            if p != s {
                return Err(format!("equivalence verdict {p} != {s}"));
            }
            Ok(())
        }
        _ => Err("job output variants differ".to_string()),
    }
}

/// Runs the batch through a pool of `workers` and serially (one fresh
/// engine per job, same spec), comparing pairwise.
fn check_pool_against_serial(
    spec: &EngineSpec,
    workers: usize,
    jobs: &[Job],
) -> Result<(), String> {
    let pool = EnginePool::builder(spec.clone())
        .workers(workers)
        .build()
        .map_err(|e| format!("pool build: {e}"))?;
    let handles = pool.submit_batch(jobs.to_vec());
    let pool_results: Vec<Result<JobOutput, QitsError>> =
        handles.into_iter().map(|h| h.join()).collect();
    let stats = pool.shutdown();
    if stats.jobs_completed != jobs.len() as u64 || stats.jobs_failed != 0 {
        return Err(format!(
            "pool stats: {} completed, {} failed, expected {} clean",
            stats.jobs_completed,
            stats.jobs_failed,
            jobs.len()
        ));
    }
    for (i, (job, pool_result)) in jobs.iter().zip(&pool_results).enumerate() {
        let mut serial = spec.build().map_err(|e| format!("serial build: {e}"))?;
        let serial_result = run_job(&mut serial, job);
        match (pool_result, serial_result) {
            (Ok(p), Ok(s)) => {
                outputs_match(p, &s).map_err(|e| format!("job {i} ({workers} workers): {e}"))?
            }
            (Err(p), Err(s)) => {
                if *p != s {
                    return Err(format!("job {i}: pool error {p:?} != serial error {s:?}"));
                }
            }
            (p, s) => {
                return Err(format!(
                    "job {i}: pool {:?} vs serial {:?} disagree on success",
                    p.is_ok(),
                    s.is_ok()
                ))
            }
        }
    }
    Ok(())
}

fn check_strategy(system: &QtsSpec, strategy: Strategy, jobs: &[Job]) -> Result<(), String> {
    let spec = EngineSpec::new(system.clone()).strategy(strategy);
    for workers in [2, 4] {
        check_pool_against_serial(&spec, workers, jobs).map_err(|e| format!("[{strategy}] {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn pool_agrees_with_fresh_serial_engines(
        circuit in arb_circuit(6),
        amps in proptest::collection::vec(proptest::collection::vec(arb_amp(), N as usize), 1..3),
        probe in arb_circuit(4),
    ) {
        let system = QtsSpec {
            name: "rand".into(),
            n_qubits: N,
            operations: vec![Operation::from_circuit("rand", &circuit)],
            initial_states: amps.clone(),
        };
        let mut probe_plus_x = probe.clone();
        probe_plus_x.push(Gate::x(0));
        let jobs = vec![
            Job::Image { densify: true },
            Job::reachability(8),
            Job::Image { densify: true },
            // A valid invariant over the initial product states.
            Job::invariant(N, amps, 8),
            // Self-equivalence is always true; appending X never is.
            Job::equivalence(probe.clone(), probe.clone()),
            Job::Equivalence { a: probe.clone(), b: probe_plus_x, up_to_phase: true },
        ];
        let r = check_strategy(&system, Strategy::Basic, &jobs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        let r = check_strategy(&system, Strategy::Addition { k: 1 }, &jobs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        let r = check_strategy(&system, Strategy::Contraction { k1: 2, k2: 2 }, &jobs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        let r = check_strategy(&system, Strategy::Contraction { k1: 4, k2: 4 }, &jobs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Non-random pin of the same property on a paper system, so a failure
/// here names a deterministic reproduction straight away.
#[test]
fn pool_agrees_on_the_grover_benchmark() {
    let system = qits_circuit::generators::grover(3);
    let jobs = vec![
        Job::Image { densify: true },
        Job::reachability(10),
        Job::Image { densify: true },
        Job::reachability(10),
    ];
    for workers in [2, 4] {
        let spec = EngineSpec::new(system.clone()).strategy(Strategy::Contraction { k1: 2, k2: 2 });
        check_pool_against_serial(&spec, workers, &jobs).unwrap();
    }
}
