//! A serving worker's memory follows its live set.
//!
//! A pool worker keeps one engine for its whole life. After every job it
//! delivers, it collects once its arena holds more than twice the live
//! nodes its last collection left and more than 20,000 occupied slots,
//! keeping the system, the compiled branches and the chain, and then
//! clears its operation caches. This suite runs about a thousand
//! distinct seeded jobs over qrw6 through a one-worker pool and checks
//! both halves of that rule:
//!
//! * the worker's peak arena stays under [`PEAK_BOUND`] slots, while a
//!   serial engine that answers the same jobs without collecting goes
//!   past it (so the bound can fail);
//! * every answer matches the serial engine's: dimensions, iteration
//!   counts, verdicts and `converged` exactly, amplitudes to `1e-9` (the
//!   weight table is kept across jobs; see `tests/pool_agreement.rs`).

use qits::{run_job, EnginePool, EngineSpec, Job, JobOutput};
use qits_circuit::generators;
use qits_circuit::tensorize::states;
use qits_circuit::{Circuit, Gate, GateKind};
use qits_num::Cplx;

/// Register width of the served system.
const N: u32 = 6;
/// Jobs the pool answers.
const JOBS: usize = 1000;
/// The worker's arena bound, in slots.
const PEAK_BOUND: usize = 60_000;

/// A splitmix64 stream: every job below is drawn from one.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded Clifford+T circuit against itself with a pair that cancels
/// (equivalent) or a `T` (inequivalent) inserted at a seeded place.
fn equivalence(rng: &mut Rng) -> Job {
    let depth = 30 + rng.below(21) as u32;
    let a = generators::random_clifford_t(N, depth, 0.0, rng.next_u64()).operations[0]
        .kraus_branches()
        .remove(0);
    let q = rng.below(N as usize) as u32;
    let inserted = match rng.below(3) {
        0 => vec![Gate::single(GateKind::S, q), Gate::single(GateKind::Sdg, q)],
        1 => vec![Gate::h(q), Gate::h(q)],
        _ => vec![Gate::single(GateKind::T, q)],
    };
    let at = rng.below(a.len() + 1);
    let mut b = Circuit::new(N);
    for g in a.gates()[..at]
        .iter()
        .chain(&inserted)
        .chain(&a.gates()[at..])
    {
        b.push(g.clone());
    }
    Job::equivalence(a, b)
}

/// A seeded set of basis product states; the iteration bound keeps every
/// invariant job distinct.
fn invariant(rng: &mut Rng, index: usize) -> Job {
    let all = 1usize << N;
    let k = 1 + rng.below(all);
    let states: Vec<Vec<(Cplx, Cplx)>> = (0..k)
        .map(|_| {
            let x = rng.below(all);
            (0..N)
                .map(|q| {
                    if (x >> q) & 1 == 1 {
                        states::ONE
                    } else {
                        states::ZERO
                    }
                })
                .collect()
        })
        .collect();
    Job::invariant(N, states, 32 + index)
}

/// Equivalences, invariants and densified images in a 2 : 1 : 1 mix.
fn jobs() -> Vec<Job> {
    let mut rng = Rng(0x5EED_0001);
    (0..JOBS)
        .map(|i| match i % 4 {
            0 | 1 => equivalence(&mut rng),
            2 => invariant(&mut rng, i),
            _ => Job::Image { densify: true },
        })
        .collect()
}

fn assert_same_answer(i: usize, pool: &JobOutput, serial: &JobOutput) {
    match (pool, serial) {
        (JobOutput::Image(p), JobOutput::Image(s)) => {
            assert_eq!(p.dim, s.dim, "job {i}: image dim");
            assert_eq!(p.amplitudes.len(), s.amplitudes.len(), "job {i}");
            for (a, b) in p.amplitudes.iter().zip(&s.amplitudes) {
                assert_eq!(a.len(), b.len(), "job {i}");
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (*x - *y).norm_sqr().sqrt() < 1e-9,
                        "job {i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
        (
            JobOutput::Invariant { holds, reach },
            JobOutput::Invariant {
                holds: holds_s,
                reach: reach_s,
            },
        ) => {
            assert_eq!(holds, holds_s, "job {i}: invariant verdict");
            assert_eq!(reach.dim, reach_s.dim, "job {i}: reachable dim");
            assert_eq!(reach.iterations, reach_s.iterations, "job {i}");
            assert_eq!(reach.converged, reach_s.converged, "job {i}");
        }
        (
            JobOutput::Equivalence { equivalent },
            JobOutput::Equivalence {
                equivalent: equivalent_s,
            },
        ) => assert_eq!(equivalent, equivalent_s, "job {i}: equivalence verdict"),
        _ => panic!("job {i}: {pool:?} answers a different kind than {serial:?}"),
    }
}

#[test]
fn a_worker_collects_between_jobs_and_answers_like_a_grow_only_engine() {
    let spec = EngineSpec::new(generators::qrw(N, 0.125));
    let jobs = jobs();
    let pool = EnginePool::builder(spec.clone())
        .workers(1)
        .build()
        .unwrap();
    let tickets = pool.submit_batch(jobs.clone());

    // The serial reference runs meanwhile, on this thread: the same jobs
    // in the same order on a freshly built engine that never collects.
    let mut serial = spec.build().unwrap();
    let answers: Vec<JobOutput> = jobs
        .iter()
        .map(|job| run_job(&mut serial, job).unwrap())
        .collect();
    let grow_only = serial.manager().stats();
    assert_eq!(grow_only.gc_runs, 0);
    assert!(
        grow_only.peak_arena > PEAK_BOUND,
        "without collections the jobs must outgrow the bound, or the bound \
         tests nothing: peak {}",
        grow_only.peak_arena
    );

    for (i, (ticket, expected)) in tickets.into_iter().zip(&answers).enumerate() {
        assert_same_answer(i, &ticket.join().unwrap(), expected);
    }
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_completed, JOBS as u64);
    let worker = &stats.workers[0].manager;
    assert!(worker.gc_runs >= 1, "the worker never collected");
    assert!(
        worker.peak_arena < PEAK_BOUND,
        "peak arena {} slots after {} collections (grow-only: {})",
        worker.peak_arena,
        worker.gc_runs,
        grow_only.peak_arena
    );
    assert!(worker.nodes_reclaimed > 0);
}
