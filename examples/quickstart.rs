//! Quickstart: verify the Grover-iteration invariant of Section III-A.1.
//!
//! The subspace `S = span{|++->, |11->}` is invariant under one Grover
//! iteration: `T(S) = S`. We open an engine session on the transition
//! system, compute the image with all three methods, and check they agree
//! — then garbage-collect the arena down to the session's live set and
//! verify the invariant again on the surviving diagrams, which the
//! collection did not move. The engine owns the manager and the system,
//! and its `collect` keeps them.
//!
//! Run with: `cargo run --example quickstart`

use qits::{EngineBuilder, Strategy};
use qits_circuit::generators;

fn main() {
    let n = 5; // 4 search qubits + 1 oracle ancilla
    let spec = generators::grover(n);
    println!("benchmark: {} ({} qubits)", spec.name, spec.n_qubits);

    let mut engine = EngineBuilder::new()
        .build_from_spec(&spec)
        .expect("well-formed benchmark system");
    println!("initial subspace dimension: {}", engine.initial().dim());

    for strategy in [
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::Contraction { k1: 4, k2: 4 },
    ] {
        let (img, stats) = engine
            .image_with(strategy)
            .expect("image computation succeeds");
        let initial = engine.initial().clone();
        let invariant = img.equals(engine.manager_mut(), &initial);
        println!(
            "{strategy:<24} image dim {dim}  max #node {nodes:<6}  time {t:?}  \
             cont-cache {hit:.1}%  T(S)=S: {invariant}",
            dim = img.dim(),
            nodes = stats.max_nodes,
            t = stats.elapsed,
            hit = 100.0 * stats.cont_hit_rate(),
        );
        assert!(invariant, "Grover subspace must be invariant");
    }
    println!("all methods agree: T(S) = S holds");

    // Reclaim every dead intermediate: the engine keeps its system and
    // compiled branches and sweeps the rest — one call.
    let before = engine.manager().arena_len();
    let out = engine.collect(&[]);
    println!(
        "gc: arena {before} -> {after} nodes ({reclaimed} reclaimed, {live} live)",
        after = engine.manager().arena_len(),
        reclaimed = out.reclaimed,
        live = out.live,
    );
    assert!(out.reclaimed > 0, "three image computations leave garbage");

    // The collected session is fully usable: re-verify the invariant
    // with the session's default kernel (contraction, k1 = k2 = 4).
    let (img, _) = engine.image().expect("post-gc image");
    let initial = engine.initial().clone();
    assert!(img.equals(engine.manager_mut(), &initial));
    println!(
        "post-gc {} image still verifies T(S) = S",
        engine.strategy()
    );
}
