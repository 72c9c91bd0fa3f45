//! Concurrency stress and fault isolation for `EnginePool`.
//!
//! The worker count honours `QITS_POOL_WORKERS` (CI runs this suite once
//! with 2 threads and once oversubscribed with 8 on its 2-core runners),
//! so the same tests double as a contention test at several widths.
//!
//! Covered here:
//! * N >> workers jobs with one deliberately malformed job (register
//!   mismatch): that job alone is `Err`, every other job completes, and
//!   the pool stays usable afterwards;
//! * a job that *panics* in its worker (an equivalence job over a
//!   two-qubit gate whose matrix is 2x2, which tensorization indexes past)
//!   surfaces as `QitsError::JobFailure` and the worker rebuilds its
//!   engine and keeps serving;
//! * shutdown drains the queue — every handle of a pre-shutdown batch
//!   resolves `Ok` even when shutdown is called with the queue still full;
//! * `PoolStats` aggregation: fleet totals equal the sum of the
//!   per-worker poll counters, and the shutdown stats sink observes the
//!   same totals; with jobs that each cross the between-jobs collection
//!   rule, the collection and reclaim totals are sums of non-zero rows.

use std::sync::{Arc, Mutex};

use qits::{EnginePool, EngineSpec, Job, PoolStats, QitsError, Strategy};
use qits_circuit::{Circuit, Gate, GateKind};
use qits_num::{Cplx, Mat};

fn worker_count() -> usize {
    std::env::var("QITS_POOL_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn qrw_spec() -> EngineSpec {
    EngineSpec::new(qits_circuit::generators::qrw(3, 0.25))
        .strategy(Strategy::Contraction { k1: 2, k2: 2 })
}

/// One `(alpha, beta)` row per qubit: the basis state `|0...0>`.
fn zero_state(n: usize) -> Vec<(Cplx, Cplx)> {
    vec![(Cplx::ONE, Cplx::ZERO); n]
}

#[test]
fn one_malformed_job_fails_alone_and_the_pool_stays_usable() {
    let workers = worker_count();
    let pool = EnginePool::builder(qrw_spec())
        .workers(workers)
        .build()
        .unwrap();
    let total = workers * 12; // N >> workers
    let bad_index = total / 2;
    let jobs: Vec<Job> = (0..total)
        .map(|i| {
            if i == bad_index {
                // Coherent in itself, wrong register for the 3-qubit
                // system: the canonical malformed job.
                Job::invariant(5, vec![zero_state(5)], 4)
            } else {
                Job::image()
            }
        })
        .collect();
    let results: Vec<_> = pool
        .submit_batch(jobs)
        .into_iter()
        .map(|h| h.join())
        .collect();
    for (i, r) in results.iter().enumerate() {
        if i == bad_index {
            assert!(
                matches!(
                    r,
                    Err(QitsError::RegisterMismatch {
                        expected: 3,
                        found: 5,
                        ..
                    })
                ),
                "job {i}: {r:?}"
            );
        } else {
            assert!(r.is_ok(), "job {i} must be unaffected: {r:?}");
        }
    }
    // The pool is not poisoned: it keeps serving after the failure.
    assert!(pool.submit(Job::image()).join().is_ok());
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, total as u64);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn a_panicking_job_is_isolated_as_job_failure() {
    let workers = worker_count();
    let pool = EnginePool::builder(qrw_spec())
        .workers(workers)
        .build()
        .unwrap();
    let total = workers * 8;
    let bad_index = 1; // early, so later jobs run on the rebuilt engine
    let jobs: Vec<Job> = (0..total)
        .map(|i| {
            if i == bad_index {
                // A two-qubit gate base carrying a 2x2 matrix, built as a
                // struct literal because `Gate::new` refuses it: tensorizing
                // it indexes past the matrix and panics inside the worker.
                let mut bad = Circuit::new(2);
                bad.push(Gate {
                    kind: GateKind::Custom2(Mat::identity(2)),
                    targets: vec![0, 1],
                    controls: vec![],
                });
                Job::equivalence(bad, Circuit::new(2))
            } else {
                Job::image()
            }
        })
        .collect();
    let results: Vec<_> = pool
        .submit_batch(jobs)
        .into_iter()
        .map(|h| h.join())
        .collect();
    for (i, r) in results.iter().enumerate() {
        if i == bad_index {
            assert!(
                matches!(r, Err(QitsError::JobFailure { .. })),
                "job {i}: {r:?}"
            );
        } else {
            assert!(r.is_ok(), "job {i} must be unaffected: {r:?}");
        }
    }
    // The worker that caught the panic rebuilt its engine; the pool still
    // computes correct images afterwards.
    let out = pool.submit(Job::Image { densify: true }).join().unwrap();
    assert!(out.image().unwrap().dim > 0);
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, total as u64);
}

#[test]
fn shutdown_drains_the_queue() {
    let workers = worker_count();
    let pool = EnginePool::builder(qrw_spec())
        .workers(workers)
        .build()
        .unwrap();
    // Enqueue far more work than the workers can have started, then shut
    // down immediately: every handle must still resolve Ok.
    let handles = pool.submit_batch(vec![Job::image(); workers * 16]);
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_completed, (workers * 16) as u64);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.queue_depth, 0, "shutdown must drain, not drop");
    for h in handles {
        assert!(h.join().is_ok());
    }
}

#[test]
fn pool_stats_totals_are_the_sum_of_worker_counters() {
    let workers = worker_count();
    let sink_seen: Arc<Mutex<Option<PoolStats>>> = Arc::default();
    let sink_seen2 = sink_seen.clone();
    let pool = EnginePool::builder(qrw_spec())
        .workers(workers)
        .stats_sink(move |s| {
            *sink_seen2.lock().unwrap() = Some(s.clone());
        })
        .build()
        .unwrap();
    // Mixed batch so fixpoint iterations land in the image counters too.
    let mut jobs = vec![Job::image(); workers * 6];
    jobs.extend(vec![Job::reachability(6); workers * 2]);
    let n_jobs = jobs.len() as u64;
    for h in pool.submit_batch(jobs) {
        h.join().unwrap();
    }
    let stats = pool.shutdown();

    assert_eq!(stats.workers.len(), workers);
    assert_eq!(stats.jobs_submitted, n_jobs);
    assert_eq!(stats.jobs_completed, n_jobs);

    // The aggregation invariant (the satellite under test): every fleet
    // total is exactly the sum of the per-worker rows.
    let sum = |f: &dyn Fn(&qits::WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
    assert_eq!(stats.jobs_completed, sum(&|w| w.jobs_completed));
    assert_eq!(stats.jobs_failed, sum(&|w| w.jobs_failed));
    assert_eq!(stats.images, sum(&|w| w.images));
    assert_eq!(
        stats.manager.safepoints_polled,
        sum(&|w| w.manager.safepoints_polled),
        "safepoint totals must sum across workers"
    );
    assert_eq!(
        stats.manager.nodes_reclaimed,
        sum(&|w| w.manager.nodes_reclaimed),
        "reclaim totals must sum across workers"
    );
    assert_eq!(
        stats.image.safepoints,
        stats
            .workers
            .iter()
            .map(|w| w.image.safepoints)
            .sum::<u64>()
    );

    // The poll counters are live, not zero.
    assert!(stats.manager.safepoints_polled > 0);
    assert!(stats.image.safepoints > 0);
    // Each image job computes one image. A worker's first reachability
    // job computes its session's chain, L images for the L iterations a
    // fresh engine needs, and reads every later one off it: the fixpoint
    // images are L times the number k of workers that drew one.
    let fresh = qrw_spec().build().unwrap().reachable_space(6).unwrap();
    assert!(fresh.converged);
    let l = fresh.iterations as u64;
    let image_jobs = workers as u64 * 6;
    let fixpoint_images = stats
        .images
        .checked_sub(image_jobs)
        .expect("every image job computes an image");
    assert_eq!(
        fixpoint_images % l,
        0,
        "{fixpoint_images} fixpoint images are not whole chains of {l}"
    );
    let k = fixpoint_images / l;
    assert!(
        (1..=workers as u64).contains(&k),
        "{k} chains computed by {workers} workers"
    );

    // The shutdown sink observed the same totals.
    let seen = sink_seen.lock().unwrap();
    let seen = seen.as_ref().expect("sink must run at shutdown");
    assert_eq!(seen.jobs_completed, stats.jobs_completed);
    assert_eq!(
        seen.manager.safepoints_polled,
        stats.manager.safepoints_polled
    );
    assert_eq!(seen.manager.nodes_reclaimed, stats.manager.nodes_reclaimed);

    // A second leg whose jobs each cross the between-jobs collection
    // rule: one GHZ300 image leaves about 28,000 occupied slots, over the
    // 20,000-slot floor and over twice the session's live set, so every
    // image job a worker serves ends in one collection, and the fleet's
    // collection counters are sums of non-zero worker rows.
    let pool = EnginePool::builder(EngineSpec::new(qits_circuit::generators::ghz(300)))
        .workers(workers)
        .build()
        .unwrap();
    for h in pool.submit_batch(vec![Job::image(); workers * 3]) {
        h.join().unwrap();
    }
    let stats = pool.shutdown();
    let sum = |f: &dyn Fn(&qits::WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
    for w in &stats.workers {
        assert_eq!(
            w.manager.gc_runs, w.jobs_completed,
            "every GHZ300 image job must end in one collection"
        );
    }
    assert!(stats.manager.gc_runs > 0);
    assert!(stats.manager.nodes_reclaimed > 0);
    assert_eq!(stats.manager.gc_runs, sum(&|w| w.manager.gc_runs));
    assert_eq!(
        stats.manager.nodes_reclaimed,
        sum(&|w| w.manager.nodes_reclaimed),
        "reclaim totals must sum across workers"
    );
}

#[test]
fn work_stealing_conserves_the_batch_across_workers() {
    // Round-robin sharding spreads a batch over every shard, and
    // stealing lets any worker drain any shard — so which worker serves
    // which job is scheduler-dependent (a late-woken worker may serve
    // none; that is stealing working, not failing). The invariant that
    // IS guaranteed: no job is lost and no job is served twice, so the
    // per-worker counters partition the batch exactly.
    let workers = worker_count();
    let pool = EnginePool::builder(qrw_spec())
        .workers(workers)
        .build()
        .unwrap();
    let total = workers * 10;
    for h in pool.submit_batch(vec![Job::image(); total]) {
        h.join().unwrap();
    }
    let stats = pool.shutdown();
    let served: u64 = stats.workers.iter().map(|w| w.jobs_completed).sum();
    assert_eq!(served, total as u64, "workers must partition the batch");
    assert!(
        stats.workers.iter().any(|w| w.jobs_completed > 0),
        "someone served"
    );
}
