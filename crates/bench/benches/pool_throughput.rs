//! Pool serving throughput: a batch of independent image jobs through an
//! `EnginePool` at several worker widths, against the pre-pool serving
//! model (one fresh serial `Engine` per job).
//!
//! Each pool sample includes pool construction and shutdown, so the
//! measured number is honest end-to-end batch latency — thread spawn,
//! queue, compute, join. The pool's edge comes from parallelism across
//! workers *and* warm per-worker operation caches across the jobs each
//! worker serves; the serial baseline pays a cold session per job.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qits::{EnginePool, EngineSpec, Job, Strategy};
use qits_bench::spec_for;

const JOBS: usize = 32;

fn spec() -> EngineSpec {
    // The CI pool case: the elementarised Grover circuit under the basic
    // (monolithic-operator) method — heavy enough per job that compute
    // dwarfs queue overhead, and cache-friendly enough that a worker's
    // warm repeats are several times cheaper than a cold session.
    EngineSpec::new(spec_for("grover-elem", 9)).strategy(Strategy::Basic)
}

fn run_pool(workers: usize) {
    let pool = EnginePool::builder(spec())
        .workers(workers)
        .build()
        .expect("benchmark spec must build");
    for h in pool.submit_batch(vec![Job::image(); JOBS]) {
        h.join().expect("pool image job must compute");
    }
    pool.shutdown();
}

fn run_serial() {
    for _ in 0..JOBS {
        let mut engine = spec().build().expect("benchmark spec must build");
        engine.image().expect("image must compute");
    }
}

fn pool_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("serial_fresh_engines", JOBS), |b| {
        b.iter(run_serial)
    });
    for workers in [1, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("pool_{workers}w"), JOBS),
            &workers,
            |b, &w| b.iter(|| run_pool(w)),
        );
    }
    group.finish();
}

criterion_group!(benches, pool_throughput);
criterion_main!(benches);
