//! The transition systems the workloads ask about, and the seeded stream
//! every per-seed input is drawn from.

use qits_circuit::decompose::{elementarize, ElementarizeOptions};
use qits_circuit::generators::{self, QtsSpec};
use qits_circuit::tensorize::states;
use qits_circuit::Operation;
use qits_num::Cplx;

/// Bit-flip probability of every quantum-walk system. The reachable and
/// image subspaces do not depend on it.
pub const WALK_NOISE: f64 = 0.125;

/// One generator call: a family and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// `generators::qrw(n, WALK_NOISE)`.
    Qrw(u32),
    /// GHZ preparation.
    Ghz(u32),
    /// QFT without the swap network.
    Qft(u32),
    /// Bernstein–Vazirani with the generator's deterministic secret.
    Bv(u32),
    /// One Grover iteration lowered to a Toffoli ladder.
    GroverElem(u32),
    /// The distance-`d` repetition code.
    RepCode(u32),
}

impl System {
    /// Calls the generator.
    pub fn spec(self) -> QtsSpec {
        match self {
            System::Qrw(n) => generators::qrw(n, WALK_NOISE),
            System::Ghz(n) => generators::ghz(n),
            System::Qft(n) => generators::qft(n),
            System::Bv(n) => generators::bernstein_vazirani(n, &generators::bv_secret(n)),
            System::GroverElem(n) => grover_elem(n),
            System::RepCode(d) => generators::repetition_code(d),
        }
    }

    /// Short name, e.g. `ghz7`.
    pub fn name(self) -> String {
        match self {
            System::Qrw(n) => format!("qrw{n}"),
            System::Ghz(n) => format!("ghz{n}"),
            System::Qft(n) => format!("qft{n}"),
            System::Bv(n) => format!("bv{n}"),
            System::GroverElem(n) => format!("grover-elem{n}"),
            System::RepCode(d) => format!("repcode{d}"),
        }
    }
}

/// One Grover iteration with every multi-controlled gate lowered to a
/// Toffoli ladder; the ancilla wires it adds start in `|0>`.
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

/// The computational basis state `|x>` on `n` qubits as a product state,
/// qubit 0 the most significant bit.
pub fn basis_product(n: u32, x: usize) -> Vec<(Cplx, Cplx)> {
    (0..n)
        .map(|q| {
            if (x >> (n - 1 - q)) & 1 == 1 {
                states::ONE
            } else {
                states::ZERO
            }
        })
        .collect()
}

/// A splitmix64 stream: every seeded input of the benchmark comes from one.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The values `0..n` in a random order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}
