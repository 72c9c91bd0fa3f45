//! Model checking by reachability: the application image computation
//! exists for (Section I).
//!
//! Computes the reachable subspace of several benchmark systems and checks
//! a safety invariant on each — with automatic garbage collection enabled,
//! so the fixpoint iterations run with a bounded live set. The reclaim
//! counters printed per system are the observable effect: between
//! iterations the engine protects the live subspaces and sweeps
//! everything else in place (collection never moves a node) — all
//! internal to the session, with failures surfacing as `Result` values
//! rather than panics.
//!
//! Run with: `cargo run --example reachability`

use qits::{EngineBuilder, Strategy};
use qits_circuit::generators;
use qits_tdd::GcPolicy;

fn main() {
    let strategy = Strategy::Contraction { k1: 4, k2: 4 };
    let specs = vec![
        generators::ghz(4),
        generators::grover(4),
        generators::qrw(4, 0.1),
        generators::bitflip_code(),
    ];
    for spec in specs {
        // Collect whenever occupancy grows 1.5x past the last live set,
        // re-checked at every safepoint of the fixpoint, sweeping at most
        // 4096 slots per poll so no single safepoint pays a full sweep.
        let mut engine = EngineBuilder::new()
            .gc_policy(Some(GcPolicy {
                watermark: 1.5,
                min_interval: 1 << 10,
                sweep_budget: 1 << 12,
            }))
            .strategy(strategy)
            .build_from_spec(&spec)
            .expect("well-formed benchmark system");
        let r = engine.reachable_space(40).expect("fixpoint runs");
        let total_time: std::time::Duration = r.stats.iter().map(|s| s.elapsed).sum();
        println!(
            "{name:<14} initial dim {init:>2} -> reachable dim {dim:>3} in {it:>2} iterations \
             (converged {conv}, {time:?})",
            name = spec.name,
            init = engine.initial().dim(),
            dim = r.space.dim(),
            it = r.iterations,
            conv = r.converged,
            time = total_time,
        );
        println!(
            "  gc: {coll} collections reclaimed {recl} nodes; arena {arena} \
             (live after last gc {live})",
            coll = r.collections,
            recl = r.reclaimed_nodes,
            arena = engine.manager().arena_len(),
            live = engine.manager().stats().live_after_last_gc,
        );
        // Safety: the reachable space is itself an invariant. The GC'd
        // run above swept around the session's system and `r.space`, so
        // both are bit-identical here — a root-registration bug would
        // have left them detectably stale and corrupt this check.
        let inv = r.space.clone();
        let (holds, _) = engine.check_invariant(&inv, 40).expect("check runs");
        assert!(holds, "reachable space must be invariant");
    }
    println!("all reachability fixpoints verified as invariants (with GC enabled)");
}
