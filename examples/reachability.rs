//! Model checking by reachability: the application image computation
//! exists for (Section I).
//!
//! Computes the reachable subspace of several benchmark systems and checks
//! a safety invariant on each. Nothing collects inside a fixpoint, so each
//! one is grown in steps — a few iterations per call — with a garbage
//! collection between the steps: the session keeps its reachability chain
//! across the collection, and the next call extends it from where the
//! last one stopped. The reclaim counters printed per system are the
//! observable effect: every collection keeps the session's system,
//! compiled branches and chain and sweeps everything else in place
//! (collection never moves a node).
//!
//! Run with: `cargo run --example reachability`

use qits::{EngineBuilder, Strategy};
use qits_circuit::generators;

/// Iterations per step of the stepped fixpoint.
const STEP: usize = 4;

fn main() {
    let strategy = Strategy::Contraction { k1: 4, k2: 4 };
    let specs = vec![
        generators::ghz(4),
        generators::grover(4),
        generators::qrw(4, 0.1),
        generators::bitflip_code(),
    ];
    for spec in specs {
        let mut engine = EngineBuilder::new()
            .strategy(strategy)
            .build_from_spec(&spec)
            .expect("well-formed benchmark system");
        let (mut collections, mut reclaimed) = (0, 0);
        let mut bound = 0;
        let r = loop {
            bound += STEP;
            let r = engine.reachable_space(bound).expect("fixpoint step runs");
            let out = engine.collect(&[]);
            collections += 1;
            reclaimed += out.reclaimed;
            if r.converged || bound >= 40 {
                break r;
            }
        };
        println!(
            "{name:<14} initial dim {init:>2} -> reachable dim {dim:>3} in {it:>2} iterations \
             (converged {conv})",
            name = spec.name,
            init = engine.initial().dim(),
            dim = r.space.dim(),
            it = r.iterations,
            conv = r.converged,
        );
        println!(
            "  gc: {collections} collections reclaimed {reclaimed} nodes; arena {arena} \
             (live after last gc {live})",
            arena = engine.manager().arena_len(),
            live = engine.manager().stats().live_after_last_gc,
        );
        // Safety: the reachable space is itself an invariant. The last
        // collection did not hold `r.space`, but every one of its kets is
        // a ket of the session's chain, which it did hold — so the space
        // is intact, and a collection bug would show up right here.
        let inv = r.space.clone();
        assert!(inv.basis().iter().all(|&e| engine.manager().is_live(e)));
        let (holds, _) = engine.check_invariant(&inv, 40).expect("check runs");
        assert!(holds, "reachable space must be invariant");
    }
    println!("all reachability fixpoints verified as invariants (collected between steps)");
}
