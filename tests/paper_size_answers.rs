//! Known answers at the paper's register sizes, on fresh default engines.
//!
//! Inner products accumulate in plain floats instead of interning every
//! partial sum, so the Gram–Schmidt rank decision no longer reads a
//! `2^-n`-sized norm snapped to zero. These are the answers that fixed:
//! the one-step image of a 34- to 64-qubit QFT keeps its dimension, and
//! an elementarized Grover iteration keeps both of its initial states.
//!
//! Not pinned, because they are still wrong: qft100, bv64 and bv100 give
//! image dim 0, and grover-elem's `T(S) = S` answers false. Their root
//! weights still snap to zero under the absolute weight tolerance (see
//! ROADMAP item 1).

use qits::EngineBuilder;
use qits_circuit::decompose::{elementarize, ElementarizeOptions};
use qits_circuit::generators::{self, QtsSpec};
use qits_circuit::tensorize::states;
use qits_circuit::Operation;

/// One Grover iteration on `n` qubits with every multi-controlled gate
/// lowered to a Toffoli ladder; the ancillas the ladder adds start in
/// `|0>`.
fn grover_elem(n: u32) -> QtsSpec {
    let base = generators::grover(n);
    let circuit = elementarize(
        &base.operations[0].kraus_branches()[0],
        ElementarizeOptions::default(),
    );
    let pad = (circuit.n_qubits() - n) as usize;
    QtsSpec {
        name: format!("{}+{pad}a", base.name),
        n_qubits: circuit.n_qubits(),
        operations: vec![Operation::from_circuit("grover-elem", &circuit)],
        initial_states: base
            .initial_states
            .into_iter()
            .map(|mut amps| {
                amps.extend(std::iter::repeat_n(states::ZERO, pad));
                amps
            })
            .collect(),
    }
}

/// `(initial dim, image dim)` on a fresh default engine.
fn dims(spec: &QtsSpec) -> (usize, usize) {
    let mut engine = EngineBuilder::new().build_from_spec(spec).unwrap();
    let initial = engine.initial().dim();
    let (image, _) = engine.image().unwrap();
    (initial, image.dim())
}

#[test]
fn qft_images_keep_their_dimension_up_to_64_qubits() {
    for n in [34, 50, 64] {
        assert_eq!(dims(&generators::qft(n)), (1, 1), "qft{n}");
    }
}

#[test]
fn elementarized_grover_keeps_both_initial_states() {
    for n in [34, 40] {
        assert_eq!(dims(&grover_elem(n)), (2, 2), "grover-elem{n}");
    }
}
