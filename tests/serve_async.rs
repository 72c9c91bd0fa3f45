//! Differential and behavioural suite for the async serving front
//! (`ServiceHandle` / `JobRequest` / `JobTicket` / the result memo).
//!
//! The worker count honours `QITS_POOL_WORKERS` (CI runs the suite at 2
//! and oversubscribed at 8), so every property here doubles as a
//! contention test at several widths.
//!
//! Covered:
//! * **Differential, bit-for-bit**: a mixed batch submitted through the
//!   async front (with mixed priorities) must equal the same batch
//!   through the blocking `submit` path must equal a fresh serial engine
//!   per job — exactly, not approximately. Nothing collects inside a
//!   job, so exact equality holds on every matrix leg.
//! * **Cancellation stops work**: a token tripped at the k-th safepoint
//!   poll ends the computation with `QitsError::Cancelled` after
//!   exactly k polls — strictly fewer than the uncancelled run's — and
//!   the session survives; pre-tripped tokens shed at dequeue.
//! * **Backpressure**: a 1-deep queue refuses the third submission with
//!   `QueueFull`, nothing is enqueued, and the refusal is counted.
//! * **Deadlines**: a zero-budget job is shed with `DeadlineExpired`.
//! * **The memo**: duplicate submissions return bit-identical outputs
//!   and count hits; a memo shared across pools over *different* systems
//!   never crosses results between them.
//! * **Tickets as futures**: `.await` works from a minimal hand-rolled
//!   executor (no runtime dependency).

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;

use qits::serve::{JobRequest, Priority};
use qits::{
    run_job, CancelToken, EnginePool, EngineSpec, Job, JobOutput, JobTicket, QitsError, ResultMemo,
    Strategy,
};
use qits_circuit::generators::QtsSpec;
use qits_circuit::{Circuit, Gate, Operation};

fn worker_count() -> usize {
    std::env::var("QITS_POOL_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// A minimal executor: enough to prove `JobTicket: Future` against a
/// real `Waker`, with no async runtime in the dependency tree.
fn block_on<F: Future>(fut: F) -> F::Output {
    struct ThreadWaker(std::thread::Thread);
    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

fn grover_spec() -> EngineSpec {
    EngineSpec::new(qits_circuit::generators::grover(3))
}

fn qrw_spec() -> EngineSpec {
    EngineSpec::new(qits_circuit::generators::qrw(4, 0.125))
}

/// Strict structural equality on outputs — the differential verdict.
/// Amplitudes compare with `==` on purpose: both sides run `run_job` on
/// engines stamped from one spec with GC off, so any inequality is a
/// real divergence, not float noise.
fn assert_outputs_equal(a: &JobOutput, b: &JobOutput, what: &str) {
    match (a, b) {
        (JobOutput::Image(x), JobOutput::Image(y)) => {
            assert_eq!(x.dim, y.dim, "{what}: image dim");
            assert_eq!(x.amplitudes, y.amplitudes, "{what}: image amplitudes");
        }
        (JobOutput::Reachability(x), JobOutput::Reachability(y)) => {
            assert_eq!(
                (x.dim, x.iterations, x.converged),
                (y.dim, y.iterations, y.converged),
                "{what}: reachability"
            );
        }
        (
            JobOutput::Invariant {
                holds: x,
                reach: xr,
            },
            JobOutput::Invariant {
                holds: y,
                reach: yr,
            },
        ) => {
            assert_eq!(x, y, "{what}: invariant verdict");
            assert_eq!((xr.dim, xr.iterations), (yr.dim, yr.iterations), "{what}");
        }
        (JobOutput::Equivalence { equivalent: x }, JobOutput::Equivalence { equivalent: y }) => {
            assert_eq!(x, y, "{what}: equivalence verdict");
        }
        _ => panic!("{what}: output variants differ"),
    }
}

const N: u32 = 3;

fn arb_gate() -> impl proptest::strategy::Strategy<Value = Gate> {
    let q = 0..N;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::z),
        (q.clone(), 0.0..std::f64::consts::TAU).prop_map(|(q, t)| Gate::phase(q, t)),
        (q.clone(), q).prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cx(a, b))),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole differential: async front == blocking pool == fresh
    /// serial engine, bit for bit, on randomly generated systems.
    #[test]
    fn async_front_agrees_with_sync_pool_and_serial(
        circuit in arb_circuit(6),
        probe in arb_circuit(4),
    ) {
        let system = QtsSpec {
            name: "rand".into(),
            n_qubits: N,
            operations: vec![Operation::from_circuit("rand", &circuit)],
            initial_states: vec![vec![(qits_num::Cplx::ONE, qits_num::Cplx::ZERO); N as usize]],
        };
        let spec = EngineSpec::new(system).strategy(Strategy::Contraction { k1: 2, k2: 2 });
        let jobs = vec![
            Job::Image { densify: true },
            Job::reachability(8),
            Job::equivalence(probe.clone(), probe),
            Job::Image { densify: true },
        ];

        // Async front, mixed priorities.
        let pool = EnginePool::builder(spec.clone())
            .workers(worker_count())
            .build()
            .unwrap();
        let handle = pool.handle();
        let tickets: Vec<JobTicket> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let priority = [Priority::High, Priority::Normal, Priority::Low][i % 3];
                handle
                    .try_submit(JobRequest::new(job.clone()).priority(priority))
                    .unwrap()
            })
            .collect();
        let front: Vec<JobOutput> =
            tickets.into_iter().map(|t| t.join().unwrap()).collect();
        pool.shutdown();

        // Blocking pool path, same spec.
        let pool = EnginePool::builder(spec.clone())
            .workers(worker_count())
            .build()
            .unwrap();
        let sync: Vec<JobOutput> = pool
            .submit_batch(jobs.clone())
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        pool.shutdown();

        // Fresh serial engine per job, same spec, same run_job.
        for (i, job) in jobs.iter().enumerate() {
            let mut engine = spec.build().unwrap();
            let serial = run_job(&mut engine, job).unwrap();
            assert_outputs_equal(&front[i], &sync[i], &format!("job {i}: front vs sync"));
            assert_outputs_equal(&front[i], &serial, &format!("job {i}: front vs serial"));
        }
    }
}

#[test]
fn tickets_await_from_a_minimal_executor() {
    let pool = EnginePool::builder(grover_spec())
        .workers(worker_count())
        .build()
        .unwrap();
    let handle = pool.handle();
    let a = handle.submit(Job::image());
    let b = handle.submit(Job::reachability(8));
    let out_a = block_on(a).unwrap();
    let out_b = block_on(b).unwrap();
    assert_eq!(out_a.image().unwrap().dim, 2);
    assert_eq!(out_b.reachability().unwrap().dim, 2);
}

#[test]
fn one_deep_queue_refuses_with_queue_full() {
    // One worker, depth 1: job A occupies the worker (we wait for its
    // dequeue via the live queue-depth stat), job B fills the queue, and
    // job C must then be refused at admission — a submission-time error,
    // not a failed ticket. A is an unbounded fixpoint over a walk on 2^39
    // positions, which gains a few dimensions per iteration and so runs
    // until it is cancelled: it is still running when C arrives, however
    // the threads are scheduled.
    let pool = EnginePool::builder(EngineSpec::new(qits_circuit::generators::qrw(40, 0.125)))
        .workers(1)
        .queue_depth(1)
        .build()
        .unwrap();
    let handle = pool.handle();
    let a = handle.submit(Job::reachability(usize::MAX));
    while handle.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    let b = handle.submit(Job::image());
    match handle.try_submit(Job::image()) {
        Err(QitsError::QueueFull { depth }) => assert_eq!(depth, 1),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    a.cancel();
    assert_eq!(a.join().unwrap_err(), QitsError::Cancelled);
    assert!(b.join().is_ok());
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_submitted, 2, "a refused job is never submitted");
    assert_eq!(stats.jobs_cancelled, 1, "A unwound at a cancellation poll");
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn zero_budget_deadlines_are_shed_at_dequeue() {
    let pool = EnginePool::builder(grover_spec())
        .workers(worker_count())
        .build()
        .unwrap();
    let handle = pool.handle();
    let doomed = handle
        .try_submit(JobRequest::new(Job::reachability(999)).deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(doomed.join().unwrap_err(), QitsError::DeadlineExpired);
    let ok = handle.submit(Job::image());
    assert!(ok.join().is_ok());
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_expired, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 0, "a shed deadline is not a failure");
}

#[test]
fn cancellation_stops_work_mid_run_by_safepoint_count() {
    // Baseline: the full run's safepoint poll count on a fresh session.
    let spec = qrw_spec();
    let mut engine = spec.build().unwrap();
    let before = engine.manager().stats().safepoints_polled;
    run_job(&mut engine, &Job::reachability(16)).unwrap();
    let full_polls = engine.manager().stats().safepoints_polled - before;
    assert!(
        full_polls > 4,
        "the baseline workload must poll enough safepoints to cancel \
         inside ({full_polls} polled)"
    );

    // Same job, token tripping at the midpoint: the computation must end
    // as `Cancelled` after exactly that many polls — early exit, proven
    // by the counter, not by timing.
    let trip_at = full_polls / 2;
    let mut engine = spec.build().unwrap();
    let token = CancelToken::cancel_after(trip_at);
    engine.set_cancel_token(Some(token.clone()));
    let err = run_job(&mut engine, &Job::reachability(16)).unwrap_err();
    assert_eq!(err, QitsError::Cancelled);
    assert_eq!(
        token.polls(),
        trip_at,
        "the computation must stop at the tripping poll, not run on"
    );
    // The session survives the unwind: clear the token and compute again.
    engine.set_cancel_token(None);
    assert!(run_job(&mut engine, &Job::image()).is_ok());
}

#[test]
fn pool_cancellation_sheds_queued_and_unwinds_running_jobs() {
    let pool = EnginePool::builder(qrw_spec())
        .workers(worker_count())
        .build()
        .unwrap();
    let handle = pool.handle();

    // Pre-tripped token: shed at dequeue, never runs.
    let token = CancelToken::new();
    token.cancel();
    let shed = handle
        .try_submit(JobRequest::new(Job::reachability(64)).cancel_token(token))
        .unwrap();
    assert_eq!(shed.join().unwrap_err(), QitsError::Cancelled);

    // Deterministic mid-run trip: the token arms itself at the 3rd GC
    // safepoint the running job polls.
    let token = CancelToken::cancel_after(3);
    let unwound = handle
        .try_submit(JobRequest::new(Job::reachability(64)).cancel_token(token.clone()))
        .unwrap();
    assert_eq!(unwound.join().unwrap_err(), QitsError::Cancelled);
    assert_eq!(
        token.polls(),
        3,
        "the worker must stop at the tripping poll"
    );

    // Ticket-side cancel on a queued job (single-token convenience path).
    let late = handle.submit(Job::image());
    late.cancel();
    // Whatever the race outcome (shed before running vs completed
    // first), the books must balance and the pool must stay healthy.
    let _ = late.join();
    let ok = handle.submit(Job::image());
    assert!(ok.join().is_ok());
    let stats = pool.shutdown();
    assert!(stats.jobs_cancelled >= 2, "{stats:?}");
    assert_eq!(stats.jobs_failed, 0, "cancellation is not failure");
}

#[test]
fn memo_serves_duplicates_bit_identically() {
    let pool = EnginePool::builder(grover_spec())
        .workers(worker_count())
        .memo_capacity(64)
        .build()
        .unwrap();
    let handle = pool.handle();
    let job = Job::Image { densify: true };
    let first = handle.submit(job.clone()).join().unwrap();
    let second = handle.submit(job.clone()).join().unwrap();
    assert_outputs_equal(&first, &second, "memo duplicate");
    assert_eq!(
        first.image().unwrap().amplitudes,
        second.image().unwrap().amplitudes,
        "a memo hit must be the cached value, bit for bit"
    );
    let stats = pool.shutdown();
    assert!(stats.memo.hits >= 1, "{:?}", stats.memo);
    assert!(stats.memo.inserts >= 1);
    assert_eq!(stats.jobs_completed, 2);
}

#[test]
fn shared_memo_never_crosses_distinct_systems() {
    // One memo, two pools over different systems whose image dimensions
    // differ (Grover3 → 2, GHZ3 → 1): if keys failed to embed the spec
    // fingerprint, the second pool would serve the first pool's cached
    // output and report the wrong dimension.
    let memo = Arc::new(ResultMemo::new(64));
    let grover = EnginePool::builder(grover_spec())
        .workers(worker_count())
        .memo(memo.clone())
        .build()
        .unwrap();
    let ghz = EnginePool::builder(EngineSpec::new(qits_circuit::generators::ghz(3)))
        .workers(worker_count())
        .memo(memo.clone())
        .build()
        .unwrap();

    let g1 = grover.submit(Job::image()).join().unwrap();
    let h1 = ghz.submit(Job::image()).join().unwrap();
    let g2 = grover.submit(Job::image()).join().unwrap();
    let h2 = ghz.submit(Job::image()).join().unwrap();
    assert_eq!(g1.image().unwrap().dim, 2);
    assert_eq!(g2.image().unwrap().dim, 2);
    assert_eq!(h1.image().unwrap().dim, 1);
    assert_eq!(h2.image().unwrap().dim, 1);

    // Both pools hit the shared memo — on their own entries.
    let fleet = memo.stats();
    assert!(fleet.hits >= 2, "{fleet:?}");
    assert_eq!(fleet.inserts, 2, "one entry per distinct (spec, job)");
    grover.shutdown();
    ghz.shutdown();
}

#[test]
fn service_handle_stats_snapshot_is_live() {
    let pool = EnginePool::builder(grover_spec())
        .workers(worker_count())
        .build()
        .unwrap();
    let handle = pool.handle();
    assert_eq!(handle.workers(), pool.workers());
    let tickets: Vec<JobTicket> = (0..6).map(|_| handle.submit(Job::image())).collect();
    // Live mid-flight: submissions are visible immediately, from the
    // handle, without touching the pool object.
    let mid = handle.stats();
    assert_eq!(mid.jobs_submitted, 6);
    for t in tickets {
        t.join().unwrap();
    }
    let done = handle.stats();
    assert_eq!(done.jobs_completed, 6);
    assert_eq!(done.jobs_failed, 0);
    assert_eq!(done.queue_depth, 0);
    pool.shutdown();
}

#[test]
fn submissions_after_shutdown_fail_cleanly() {
    let pool = EnginePool::builder(grover_spec())
        .workers(1)
        .build()
        .unwrap();
    let handle = pool.handle();
    assert!(handle.submit(Job::image()).join().is_ok());
    pool.shutdown();
    match handle.try_submit(Job::image()) {
        Err(QitsError::JobFailure { detail }) => {
            assert!(detail.contains("shut down"), "{detail}");
        }
        other => panic!("expected a shutdown failure, got {other:?}"),
    }
    // The infallible path resolves the ticket with the same error.
    let ticket = handle.submit(Job::image());
    assert!(ticket.join().is_err());
}
