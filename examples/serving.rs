//! Batch serving: answer a mixed batch of model-checking queries over one
//! system through an `EnginePool`.
//!
//! Quantum model-checking workloads arrive query-batched — many
//! reachability, invariant, and equivalence questions over the same
//! transition system. The pool owns one private `Engine` per worker
//! thread (caches stay warm across the jobs a worker serves) behind a
//! sharded work queue with stealing; every result is a
//! `Result<JobOutput, QitsError>`, and a malformed query fails alone
//! without touching its neighbours.
//!
//! Run with: `cargo run --example serving`

use qits::{EnginePool, EngineSpec, Job, Strategy};
use qits_circuit::{generators, Circuit, Gate};
use qits_num::Cplx;

fn main() {
    let system = generators::qrw(4, 0.125);
    println!("system: {} ({} qubits)", system.name, system.n_qubits);

    // One spec shared by every worker: the system and its strategy.
    // Workers collect between jobs on their own once their arenas grow.
    let spec = EngineSpec::new(system).strategy(Strategy::Contraction { k1: 2, k2: 2 });
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .min(4);
    let pool = EnginePool::builder(spec)
        .workers(workers)
        .build()
        .expect("well-formed spec");
    println!("pool: {} workers, sharded queue", pool.workers());

    // A mixed batch: images, reachability fixpoints, an invariant check,
    // two circuit-equivalence queries — and one deliberately malformed
    // job (a 6-qubit invariant against the 4-qubit system).
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let mut cx3 = Circuit::new(2);
    cx3.push(Gate::cx(0, 1));
    cx3.push(Gate::cx(1, 0));
    cx3.push(Gate::cx(0, 1));
    let zero4 = vec![(Cplx::ONE, Cplx::ZERO); 4];
    let zero6 = vec![(Cplx::ONE, Cplx::ZERO); 6];
    let mut jobs = vec![Job::image(); 8];
    jobs.push(Job::reachability(12));
    jobs.push(Job::invariant(4, vec![zero4], 12));
    jobs.push(Job::equivalence(swap.clone(), cx3));
    jobs.push(Job::equivalence(swap.clone(), swap));
    jobs.push(Job::invariant(6, vec![zero6], 12)); // malformed: wrong register

    let handles = pool.submit_batch(jobs);
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(out) => {
                if let Some(img) = out.image() {
                    println!("job {i:>2}: image       dim {}", img.dim);
                } else if let Some(r) = out.reachability() {
                    println!(
                        "job {i:>2}: reachable   dim {} in {} iterations (converged: {})",
                        r.dim, r.iterations, r.converged
                    );
                } else if let Some(holds) = out.invariant_holds() {
                    println!("job {i:>2}: invariant   holds: {holds}");
                } else if let Some(eq) = out.equivalent() {
                    println!("job {i:>2}: equivalence verdict: {eq}");
                }
            }
            Err(e) => println!("job {i:>2}: FAILED — {e} (isolated to this job)"),
        }
    }

    // Aggregated fleet statistics: totals are the sum of the per-worker
    // counters (see PoolStats).
    let stats = pool.shutdown();
    println!(
        "pool served {} jobs ({} failed), {} image computations",
        stats.jobs_completed, stats.jobs_failed, stats.images
    );
    for (i, w) in stats.workers.iter().enumerate() {
        println!(
            "  worker {i}: {:>3} jobs, {:>3} images, {:>6} safepoints polled, {:>7} nodes reclaimed",
            w.jobs_completed + w.jobs_failed,
            w.images,
            w.manager.safepoints_polled,
            w.manager.nodes_reclaimed,
        );
    }
    println!(
        "  totals:   {:>3} jobs, {:>3} images, {:>6} safepoints polled, {:>7} nodes reclaimed",
        stats.jobs_completed + stats.jobs_failed,
        stats.images,
        stats.manager.safepoints_polled,
        stats.manager.nodes_reclaimed,
    );
    assert_eq!(stats.jobs_failed, 1, "exactly the malformed job fails");
}
