//! Noisy quantum walk (Fig. 4, Section III-A.3).
//!
//! A Hadamard-coin walk on an 8-cycle with a bit-flip error on the coin.
//! The paper's check: `T(span{|0>|i>}) = span{|0>|(i-1) mod 8>,
//! |1>|(i+1) mod 8>}` — the bit-flip does not enlarge the reachable
//! subspace of a single step.
//!
//! Run with: `cargo run --example noisy_walk`

use qits::{EngineBuilder, Strategy, Subspace};
use qits_circuit::generators;

fn main() {
    let spec = generators::qrw(4, 0.25); // coin + 3 position qubits
    let mut engine = EngineBuilder::new()
        .strategy(Strategy::Contraction { k1: 2, k2: 2 })
        .build_from_spec(&spec)
        .expect("well-formed benchmark system");

    // One step from |0>|000>: expect span{|0>|111>, |1>|001>}.
    let (img, stats) = engine.image().expect("image computation succeeds");
    println!(
        "one-step image dim {} (max #node {}, {:?})",
        img.dim(),
        stats.max_nodes,
        stats.elapsed
    );
    let vars = Subspace::ket_vars(4);
    let m = engine.manager_mut();
    let down = m.basis_ket(&vars, &[false, true, true, true]); // |0>|7>
    let up = m.basis_ket(&vars, &[true, false, false, true]); // |1>|1>
    let bound = engine
        .subspace_from_states(&[down, up])
        .expect("states fit the register");
    let inside = img.is_subspace_of(engine.manager_mut(), &bound);
    println!("image inside span{{|0>|i-1>, |1>|i+1>}}: {inside}");
    // The bit-flip fixes |+>, so the exact image is the single ray
    // (|0>|i-1> + |1>|i+1>)/sqrt(2) — the noise does not enlarge it.
    println!(
        "image dimension: {} (noise did not enlarge the subspace)",
        img.dim()
    );
    assert!(inside && img.dim() == 1);

    // Reachability: the walk eventually spreads over the cycle. Each
    // iteration images only the frontier the previous one added, so the
    // per-iteration count is the frontier it adds in turn.
    let reach = engine.reachable_space(32).expect("fixpoint runs");
    println!(
        "reachable space dim {} after {} iterations (converged: {})",
        reach.space.dim(),
        reach.iterations,
        reach.converged
    );
    for (i, st) in reach.stats.iter().enumerate() {
        println!(
            "  iteration {:>2}: frontier added {:>3}, max #node {:>6}, {:?}",
            i + 1,
            st.output_dim,
            st.max_nodes,
            st.elapsed
        );
    }
}
