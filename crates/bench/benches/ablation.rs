//! Ablation benchmark for one design decision: **primitive
//! multi-controlled tensors vs elementary gates**. `qits` keeps `C^k(X)` as
//! one linear-size tensor; compiling it away (Toffoli ladders, Clifford+T)
//! multiplies the gate count and changes which partition wins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qits::Strategy;
use qits_bench::{run_image, spec_for};

fn ablation_gate_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/gate_lowering");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for family in ["grover", "grover-elem", "grover-ct"] {
        let spec = spec_for(family, 6);
        group.bench_with_input(BenchmarkId::new(family, "contraction"), &spec, |b, spec| {
            b.iter(|| run_image(spec, Strategy::Contraction { k1: 4, k2: 4 }))
        });
        group.bench_with_input(BenchmarkId::new(family, "basic"), &spec, |b, spec| {
            b.iter(|| run_image(spec, Strategy::Basic))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_gate_lowering);
criterion_main!(benches);
