//! GC-cost ablation: the same reachability fixpoints with the collector
//! off versus a watermark policy.
//!
//! The collector trades sweep time for a bounded arena: between fixpoint
//! iterations the driver protects the live subspaces, compacts the arena,
//! and invalidates the (epoch-tagged) operation caches — so a GC'd run
//! pays both the sweep and the lost memoisation. This bench tracks that
//! overhead on Table-I circuit families small enough for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qits::Strategy;
use qits_bench::{run_reachability, spec_for};
use qits_tdd::GcPolicy;

fn gc_overhead_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_overhead/reachability");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };
    let policies: [(&str, Option<GcPolicy>); 3] = [
        ("off", None),
        (
            "watermark",
            Some(GcPolicy {
                watermark: 1.5,
                min_interval: 1 << 10,
                sweep_budget: usize::MAX,
                ..GcPolicy::default()
            }),
        ),
        ("aggressive", Some(GcPolicy::aggressive())),
    ];
    for (family, n, iters) in [("qrw", 3u32, 20usize), ("ghz", 4, 10), ("bitflip", 0, 10)] {
        let spec = if family == "bitflip" {
            qits_circuit::generators::bitflip_code()
        } else {
            spec_for(family, n)
        };
        for (label, policy) in policies {
            group.bench_with_input(
                BenchmarkId::new(format!("{}{}", family, n), label),
                &policy,
                |b, p| b.iter(|| run_reachability(&spec, strategy, iters, *p)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, gc_overhead_reachability);
criterion_main!(benches);
