//! Benchmark circuit generators: the workloads of the paper's evaluation
//! (Table I) and the worked examples of Section III-A.
//!
//! Every generator returns a [`QtsSpec`]: the operations of a quantum
//! transition system plus the product states spanning the initial subspace
//! ("the commonly used input states" of Section VI-A). [`family`] builds
//! them by name and size, checking the size first.

use qits_num::key::{Fnv128, KeyBits};
use qits_num::{Cplx, Mat};
use qits_tensor::Var;

use crate::circuit::Circuit;
use crate::decompose::{elementarize, ElementarizeOptions};
use crate::element::{Element, Operation};
use crate::gate::{Gate, GateKind};
use crate::tensorize::states;

/// A quantum transition system specification: operations plus initial
/// product states. The `qits` core crate turns this into symbolic
/// subspaces and runs image computation on it.
#[derive(Debug, Clone)]
pub struct QtsSpec {
    /// Benchmark name, e.g. `"Grover15"`.
    pub name: String,
    /// Register width.
    pub n_qubits: u32,
    /// The operations `T_sigma`.
    pub operations: Vec<Operation>,
    /// Product states spanning the initial subspace: one `(alpha, beta)`
    /// amplitude pair per qubit per state.
    pub initial_states: Vec<Vec<(Cplx, Cplx)>>,
}

impl KeyBits for QtsSpec {
    fn key_bits(&self, h: &mut Fnv128) {
        let QtsSpec {
            name,
            n_qubits,
            operations,
            initial_states,
        } = self;
        name.key_bits(h);
        n_qubits.key_bits(h);
        operations.key_bits(h);
        initial_states.key_bits(h);
    }
}

impl QtsSpec {
    fn named(name: impl Into<String>, n_qubits: u32) -> QtsSpec {
        QtsSpec {
            name: name.into(),
            n_qubits,
            operations: Vec::new(),
            initial_states: Vec::new(),
        }
    }
}

/// GHZ-state preparation: `H` on qubit 0 followed by a CX chain.
/// Initial subspace `span{|0...0>}`.
pub fn ghz(n: u32) -> QtsSpec {
    assert!(n >= 2, "GHZ needs at least 2 qubits");
    let mut c = Circuit::new(n);
    c.push(Gate::h(0));
    for q in 0..n - 1 {
        c.push(Gate::cx(q, q + 1));
    }
    let mut spec = QtsSpec::named(format!("GHZ{n}"), n);
    spec.operations.push(Operation::from_circuit("ghz", &c));
    spec.initial_states.push(vec![states::ZERO; n as usize]);
    spec
}

/// One Grover iteration on `n` qubits (`n-1` search qubits plus one oracle
/// ancilla), generalising the paper's Fig. 2. The oracle marks the all-ones
/// input (`f(x) = x_1 AND ... AND x_{n-1}`); the diffusion operator is the
/// standard reflection `2|psi><psi| - I` on the search qubits.
///
/// Initial subspace `span{|+...+->, |1...1->}` — the invariant subspace `S`
/// of Section III-A.1, for which `T(S) = S`.
pub fn grover(n: u32) -> QtsSpec {
    assert!(n >= 3, "Grover needs at least 2 search qubits + 1 ancilla");
    let search: Vec<u32> = (0..n - 1).collect();
    let ancilla = n - 1;
    let mut c = Circuit::new(n);
    // Oracle: |x>|y> -> |x>|y ^ f(x)>, f = AND.
    c.push(Gate::mcx(&search, ancilla));
    // Diffusion on the search qubits.
    for &q in &search {
        c.push(Gate::h(q));
    }
    for &q in &search {
        c.push(Gate::x(q));
    }
    // Multi-controlled Z via H-MCX-H on the last search qubit.
    let (z_target, z_controls) = search.split_last().expect("n >= 3");
    c.push(Gate::h(*z_target));
    c.push(Gate::mcx(z_controls, *z_target));
    c.push(Gate::h(*z_target));
    for &q in &search {
        c.push(Gate::x(q));
    }
    for &q in &search {
        c.push(Gate::h(q));
    }

    let mut spec = QtsSpec::named(format!("Grover{n}"), n);
    spec.operations.push(Operation::from_circuit("grover", &c));
    let mut plus_minus = vec![states::PLUS; (n - 1) as usize];
    plus_minus.push(states::MINUS);
    let mut ones_minus = vec![states::ONE; (n - 1) as usize];
    ones_minus.push(states::MINUS);
    spec.initial_states.push(plus_minus);
    spec.initial_states.push(ones_minus);
    spec
}

/// Bernstein–Vazirani on `n` qubits (`n-1` data + 1 ancilla) with the given
/// secret string (length `n-1`). Initial subspace `span{|0...0,1>}`.
///
/// # Panics
///
/// Panics if `secret.len() != n-1`.
pub fn bernstein_vazirani(n: u32, secret: &[bool]) -> QtsSpec {
    assert!(n >= 2, "BV needs at least 1 data qubit + 1 ancilla");
    assert_eq!(secret.len(), (n - 1) as usize, "secret length must be n-1");
    let ancilla = n - 1;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::h(q));
    }
    for (q, &bit) in secret.iter().enumerate() {
        if bit {
            c.push(Gate::cx(q as u32, ancilla));
        }
    }
    for q in 0..n - 1 {
        c.push(Gate::h(q));
    }

    let mut spec = QtsSpec::named(format!("BV{n}"), n);
    spec.operations.push(Operation::from_circuit("bv", &c));
    let mut init = vec![states::ZERO; (n - 1) as usize];
    init.push(states::ONE);
    spec.initial_states.push(init);
    spec
}

/// A deterministic pseudo-random secret for [`bernstein_vazirani`],
/// seeded by `n` (splitmix64) so experiments are reproducible.
pub fn bv_secret(n: u32) -> Vec<bool> {
    let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(u64::from(n) + 1);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..n.saturating_sub(1)).map(|_| next() & 1 == 1).collect()
}

/// Quantum Fourier transform on `n` qubits (without the final swap
/// network, the usual benchmark convention; see [`qft_with_swaps`]).
/// Initial subspace `span{|0...0>}`.
pub fn qft(n: u32) -> QtsSpec {
    qft_impl(n, false)
}

/// QFT including the final swap network.
pub fn qft_with_swaps(n: u32) -> QtsSpec {
    qft_impl(n, true)
}

fn qft_impl(n: u32, swaps: bool) -> QtsSpec {
    assert!(n >= 1, "QFT needs at least 1 qubit");
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.push(Gate::h(i));
        for j in i + 1..n {
            let theta = std::f64::consts::PI / 2f64.powi((j - i) as i32);
            c.push(Gate::cp(j, i, theta));
        }
    }
    if swaps {
        for q in 0..n / 2 {
            c.push(Gate::swap(q, n - 1 - q));
        }
    }
    let mut spec = QtsSpec::named(format!("QFT{n}"), n);
    spec.operations.push(Operation::from_circuit("qft", &c));
    spec.initial_states.push(vec![states::ZERO; n as usize]);
    spec
}

/// The bit-flip channel `{sqrt(1-p) I, sqrt(p) X}` on `qubit`.
pub fn bit_flip_channel(qubit: u32, p: f64) -> Element {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Element::Channel {
        qubit,
        kraus: vec![
            Mat::identity(2).scale(Cplx::real((1.0 - p).sqrt())),
            GateKind::X.matrix().scale(Cplx::real(p.sqrt())),
        ],
        label: format!("bit-flip({p})"),
    }
}

/// The phase-flip channel `{sqrt(1-p) I, sqrt(p) Z}` on `qubit`.
pub fn phase_flip_channel(qubit: u32, p: f64) -> Element {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Element::Channel {
        qubit,
        kraus: vec![
            Mat::identity(2).scale(Cplx::real((1.0 - p).sqrt())),
            GateKind::Z.matrix().scale(Cplx::real(p.sqrt())),
        ],
        label: format!("phase-flip({p})"),
    }
}

/// The single-qubit depolarizing channel with parameter `p` on `qubit`:
/// `{sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}`.
pub fn depolarizing_channel(qubit: u32, p: f64) -> Element {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Element::Channel {
        qubit,
        kraus: vec![
            Mat::identity(2).scale(Cplx::real((1.0 - 0.75 * p).sqrt())),
            GateKind::X.matrix().scale(Cplx::real((0.25 * p).sqrt())),
            GateKind::Y.matrix().scale(Cplx::real((0.25 * p).sqrt())),
            GateKind::Z.matrix().scale(Cplx::real((0.25 * p).sqrt())),
        ],
        label: format!("depolarize({p})"),
    }
}

/// A ripple-carry incrementer `|x> -> |x+1 mod 2^n>` (qubit 0 is the most
/// significant bit): the multi-controlled-X cascade. The reference
/// implementation the QFT adder is verified against — not itself
/// DSL-expressible for `n > 3` (controls beyond Toffoli).
pub fn ripple_increment(n: u32) -> Circuit {
    assert!(n >= 1, "incrementer needs at least 1 qubit");
    let mut c = Circuit::new(n);
    // MSB first: bit j flips while the lower bits still hold their
    // original values, exactly when all of them are 1.
    for j in 0..n {
        let controls: Vec<u32> = (j + 1..n).collect();
        if controls.is_empty() {
            c.push(Gate::x(j));
        } else {
            c.push(Gate::mcx(&controls, j));
        }
    }
    c
}

/// Draper's QFT adder: `|x> -> |x + a mod 2^n>` on `n` qubits (qubit 0 is
/// the most significant bit), as QFT, per-qubit phase kicks encoding `a`,
/// inverse QFT. Uses only `h` / `cp` / `phase` — fully DSL-expressible,
/// unlike the ripple-carry cascade it is tested against.
///
/// Initial subspace `span{|0...0>}`; iterating the addition walks the
/// whole `2^n`-element cycle, so the reachable subspace is the full space
/// when `a` is odd.
pub fn qft_adder(n: u32, a: u64) -> QtsSpec {
    assert!((1..=63).contains(&n), "adder supports 1..=63 qubits");
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.push(Gate::h(i));
        for j in i + 1..n {
            let theta = std::f64::consts::PI / 2f64.powi((j - i) as i32);
            c.push(Gate::cp(j, i, theta));
        }
    }
    // In the Fourier basis qubit i carries e^{2 pi i x / 2^(n-i)}; adding
    // `a` is a plain phase on each qubit.
    for i in 0..n {
        let modulus = 1u64 << (n - i);
        let theta = 2.0 * std::f64::consts::PI * (a % modulus) as f64 / modulus as f64;
        c.push(Gate::phase(i, theta));
    }
    for i in (0..n).rev() {
        for j in (i + 1..n).rev() {
            let theta = -std::f64::consts::PI / 2f64.powi((j - i) as i32);
            c.push(Gate::cp(j, i, theta));
        }
        c.push(Gate::h(i));
    }
    let mut spec = QtsSpec::named(format!("Adder{n}"), n);
    spec.operations.push(Operation::from_circuit("add", &c));
    spec.initial_states.push(vec![states::ZERO; n as usize]);
    spec
}

/// The minimum-weight error pattern (bit `i` = flip on data qubit `i`)
/// whose repetition-code syndrome (`s_i = e_i xor e_{i+1}`) is `s`.
fn repetition_decode(s: u32, d: u32) -> u32 {
    let mut best = 0u32;
    let mut best_weight = u32::MAX;
    for e in 0..(1u32 << d) {
        let mut syn = 0u32;
        for i in 0..d - 1 {
            syn |= (((e >> i) & 1) ^ ((e >> (i + 1)) & 1)) << i;
        }
        if syn == s && e.count_ones() < best_weight {
            best = e;
            best_weight = e.count_ones();
        }
    }
    best
}

/// The distance-`d` repetition code as a dynamic circuit: `d` data qubits
/// (0..d-1) and `d-1` syndrome ancillas (d..2d-2) measuring the
/// stabilizers `Z_i Z_{i+1}`. One operation `T_s` per syndrome `s`:
/// CX syndrome extraction, projection of the ancillas onto `|s>`,
/// minimum-weight X corrections on the data, and X resets returning the
/// ancillas to `|0>`. `repetition_code(5)` is the 5-qubit instance the
/// evaluation uses — it corrects every weight-(d-1)/2 error.
///
/// Initial subspace: the `d` single-error states
/// `span{|10...0>, |010...0>, ...} (x) |0...0>`; every image collapses to
/// the all-zeros codeword.
pub fn repetition_code(d: u32) -> QtsSpec {
    assert!(
        (2..=16).contains(&d),
        "repetition code supports 2..=16 data qubits"
    );
    let n = 2 * d - 1;
    let mut spec = QtsSpec::named(format!("RepCode{d}"), n);
    for s in 0..(1u32 << (d - 1)) {
        let mut c = Circuit::new(n);
        for i in 0..d - 1 {
            c.push(Gate::cx(i, d + i));
            c.push(Gate::cx(i + 1, d + i));
        }
        let bits: Vec<bool> = (0..d - 1).map(|i| (s >> i) & 1 == 1).collect();
        let mut op = Operation::from_circuit(format!("T{s:0w$b}", w = (d - 1) as usize), &c).then(
            Element::Projector {
                qubits: (d..n).collect(),
                bits: bits.clone(),
            },
        );
        let fix = repetition_decode(s, d);
        for i in 0..d {
            if (fix >> i) & 1 == 1 {
                op = op.then_gate(Gate::x(i));
            }
        }
        // Reset the measured ancillas so every outcome ends at |0...0>.
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                op = op.then_gate(Gate::x(d + i as u32));
            }
        }
        spec.operations.push(op);
    }
    for e in 0..d as usize {
        let mut state = vec![states::ZERO; n as usize];
        state[e] = states::ONE;
        spec.initial_states.push(state);
    }
    spec
}

/// A reproducible random Clifford+T workload: `depth` gates drawn from
/// `{H, S, T, CX}` by a splitmix64 stream seeded with `seed`, followed —
/// when `p > 0` — by a bit-flip channel with probability `p` on a
/// stream-chosen qubit. Uses only DSL-expressible gates. Initial subspace
/// `span{|0...0>}`.
pub fn random_clifford_t(n: u32, depth: u32, p: f64, seed: u64) -> QtsSpec {
    assert!(n >= 2, "Clifford+T sampler needs at least 2 qubits");
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(seed.wrapping_add(1));
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut pick = move |m: u32| (next() % u64::from(m)) as u32;
    let mut c = Circuit::new(n);
    for _ in 0..depth {
        match pick(4) {
            0 => c.push(Gate::h(pick(n))),
            1 => c.push(Gate::single(GateKind::S, pick(n))),
            2 => c.push(Gate::single(GateKind::T, pick(n))),
            _ => {
                let a = pick(n);
                let mut b = pick(n - 1);
                if b >= a {
                    b += 1;
                }
                c.push(Gate::cx(a, b));
            }
        }
    }
    let mut op = Operation::from_circuit("ct", &c);
    if p > 0.0 {
        op = op.then(bit_flip_channel(pick(n), p));
    }
    let mut spec = QtsSpec::named(format!("CliffordT{n}"), n);
    spec.operations.push(op);
    spec.initial_states.push(vec![states::ZERO; n as usize]);
    spec
}

/// The shift stage of the quantum walk: decrement the position register
/// when the coin (qubit 0) is `|0>`, increment when it is `|1>` —
/// `S = S_0 (+) S_1` of Section III-A.3, realised as two multi-controlled-X
/// cascades (Fig. 4).
fn walk_shift(c: &mut Circuit, n: u32) {
    let k = n - 1; // position bits, qubit 1 (MSB) .. qubit n-1 (LSB)
    let pos = |j: u32| 1 + j;
    // Decrement, negatively controlled on the coin. A decrementer is the
    // inverse of the incrementer below: LSB first.
    for j in (0..k).rev() {
        let mut controls: Vec<(u32, bool)> = vec![(0, false)];
        controls.extend((j + 1..k).map(|b| (pos(b), true)));
        c.push(Gate::mcx_polarity(&controls, pos(j)));
    }
    // Increment, positively controlled on the coin: MSB first, each bit
    // flips when all lower bits are 1.
    for j in 0..k {
        let mut controls: Vec<(u32, bool)> = vec![(0, true)];
        controls.extend((j + 1..k).map(|b| (pos(b), true)));
        c.push(Gate::mcx_polarity(&controls, pos(j)));
    }
}

/// Quantum random walk on a cycle of length `2^(n-1)` with a Hadamard coin
/// on qubit 0 (Fig. 4). Two operations, as in Section III-A.3:
///
/// * `T1 = S . (E_c (x) I)` — coin then shift, noiseless;
/// * `T2 = S . (E_b (x) I) . (E_c (x) I)` — a bit-flip error with
///   probability `p` strikes the coin after the coin toss (two Kraus
///   operators).
///
/// Initial subspace `span{|0>|0...0>}`.
pub fn qrw(n: u32, p: f64) -> QtsSpec {
    assert!(n >= 2, "QRW needs a coin and at least 1 position qubit");
    let mut noiseless = Circuit::new(n);
    noiseless.push(Gate::h(0));
    walk_shift(&mut noiseless, n);
    let t1 = Operation::from_circuit("walk", &noiseless);

    let mut t2 = Operation::new("walk-noisy", n).then_gate(Gate::h(0));
    t2 = t2.then(bit_flip_channel(0, p));
    let mut shift_only = Circuit::new(n);
    walk_shift(&mut shift_only, n);
    for g in shift_only.gates() {
        t2 = t2.then_gate(g.clone());
    }

    let mut spec = QtsSpec::named(format!("QRW{n}"), n);
    spec.operations.push(t1);
    spec.operations.push(t2);
    spec.initial_states.push(vec![states::ZERO; n as usize]);
    spec
}

/// The dynamic bit-flip-code correction circuit of Fig. 3: 3 data qubits
/// (0..2), 3 syndrome ancillas (3..5). Four operations `T_s`, one per
/// measurement outcome `s` in `{000, 101, 110, 011}`, each of the form
/// `(correction (x) |s><s|) U` with `U` the 6-CX syndrome extraction.
///
/// Initial subspace `span{|100>, |010>, |001>} (x) |000>`: one bit-flip
/// error somewhere; the image collapses the data to `|000>`.
pub fn bitflip_code() -> QtsSpec {
    let n = 6u32;
    let syndrome = |c: &mut Circuit| {
        // a0 (qubit 3) checks Z0 Z1; a1 (4) checks Z1 Z2; a2 (5) checks Z0 Z2.
        c.push(Gate::cx(0, 3));
        c.push(Gate::cx(1, 3));
        c.push(Gate::cx(1, 4));
        c.push(Gate::cx(2, 4));
        c.push(Gate::cx(0, 5));
        c.push(Gate::cx(2, 5));
    };
    // outcome bits (a0,a1,a2) -> corrected data qubit (None = no error)
    let cases: [([bool; 3], Option<u32>); 4] = [
        ([false, false, false], None),
        ([true, false, true], Some(0)),
        ([true, true, false], Some(1)),
        ([false, true, true], Some(2)),
    ];
    let mut spec = QtsSpec::named("BitFlipCode", n);
    for (bits, fix) in cases {
        let mut c = Circuit::new(n);
        syndrome(&mut c);
        let label = format!(
            "T{}{}{}",
            u8::from(bits[0]),
            u8::from(bits[1]),
            u8::from(bits[2])
        );
        let mut op = Operation::from_circuit(label, &c).then(Element::Projector {
            qubits: vec![3, 4, 5],
            bits: bits.to_vec(),
        });
        if let Some(q) = fix {
            op = op.then_gate(Gate::x(q));
        }
        spec.operations.push(op);
    }
    for flipped in 0..3usize {
        let mut state = vec![states::ZERO; n as usize];
        state[flipped] = states::ONE;
        spec.initial_states.push(state);
    }
    spec
}

/// Bit-flip probability of the `qrw` family and of the channel that ends
/// each `cliffordt` circuit. The paper does not report its value; the
/// image subspace is independent of it.
const QRW_NOISE: f64 = 0.125;

/// A generator of a system by size.
type Generator = fn(u32) -> QtsSpec;

/// Largest size of an elementarised family: from 4 qubits on, its
/// Toffoli ladders append `n - 2` ancillas, so its register of `2n - 2`
/// qubits is as wide as a diagram variable can address.
const MAX_ELEM_N: u32 = Var::MAX_POS / 2 + 1;

/// Every system [`family`] builds: its name, the smallest and largest size
/// it accepts, and its generator. The smallest is the one its generator
/// asserts (an elementarised variant takes its base family's); the largest
/// is the widest register the engine holds ([`Var::MAX_POS`] qubits,
/// ancillas included), or the generator's own bound where that is lower.
/// `bitflip` ignores the size.
const FAMILIES: [(&str, u32, u32, Generator); 12] = [
    ("grover", 3, Var::MAX_POS, grover),
    ("qft", 1, Var::MAX_POS, qft),
    ("bv", 2, Var::MAX_POS, |n| {
        bernstein_vazirani(n, &bv_secret(n))
    }),
    ("ghz", 2, Var::MAX_POS, ghz),
    ("qrw", 2, Var::MAX_POS, |n| qrw(n, QRW_NOISE)),
    ("bitflip", 0, u32::MAX, |_| bitflip_code()),
    ("adder", 1, 63, |n| qft_adder(n, 1)),
    ("repcode", 2, 16, repetition_code),
    ("cliffordt", 2, Var::MAX_POS, |n| {
        random_clifford_t(n, 3 * n, QRW_NOISE, u64::from(n))
    }),
    ("grover-elem", 3, MAX_ELEM_N, |n| {
        elementarized_grover(n, false)
    }),
    ("grover-ct", 3, MAX_ELEM_N, |n| {
        elementarized_grover(n, true)
    }),
    ("qrw-elem", 2, MAX_ELEM_N, elementarized_qrw),
];

/// Builds a benchmark system by family name and size: the one name table
/// behind `qits serve --family`, `qits export`, and the Table I/II
/// binaries. The names follow Table I (`Grover15` is `family("grover",
/// 15)`).
///
/// Beyond the paper's families (`grover`, `qft`, `bv`, `ghz`, `qrw`) and
/// the bit-flip code of Fig. 3 (`bitflip`), it builds the scenario
/// workloads `adder` (a Draper adder adding 1), `repcode` (the distance-`n`
/// repetition code) and `cliffordt` (`random_clifford_t(n, 3n, 0.125, n)`),
/// and three ablation variants that compile away the primitive
/// multi-controlled tensors: `grover-elem` lowers every `C^k(X)` to a
/// Toffoli ladder with ancillas, `grover-ct` further lowers Toffolis to
/// Clifford+T, and `qrw-elem` elementarises every Kraus branch of the walk.
///
/// # Errors
///
/// An unknown name, or a size outside the family's range, is an error
/// naming what is accepted; neither a generator assertion nor the spec of
/// a register too wide for the engine is reached.
pub fn family(name: &str, n: u32) -> Result<QtsSpec, String> {
    let Some(&(_, lo, hi, build)) = FAMILIES.iter().find(|f| f.0 == name) else {
        let names: Vec<&str> = FAMILIES.iter().map(|f| f.0).collect();
        return Err(format!(
            "unknown family '{name}' (expected {})",
            names.join(", ")
        ));
    };
    if !(lo..=hi).contains(&n) {
        return Err(format!("{name} supports n {lo}..={hi}, got {n}"));
    }
    Ok(build(n))
}

/// Pads every initial state with `|0>` ancilla wires.
fn pad_states(rows: &[Vec<(Cplx, Cplx)>], pad: usize) -> Vec<Vec<(Cplx, Cplx)>> {
    rows.iter()
        .map(|amps| {
            let mut a = amps.clone();
            a.extend(std::iter::repeat_n(states::ZERO, pad));
            a
        })
        .collect()
}

/// The Grover benchmark lowered to elementary gates (see
/// [`crate::decompose::elementarize`]); ancilla wires extend the register
/// and start in `|0>`.
fn elementarized_grover(n: u32, clifford_t: bool) -> QtsSpec {
    let base = grover(n);
    let circuit = base.operations[0].kraus_branches().remove(0);
    let elem = elementarize(&circuit, ElementarizeOptions { clifford_t });
    let pad = (elem.n_qubits() - n) as usize;
    QtsSpec {
        name: format!(
            "Grover{}{}{n}",
            if clifford_t { "CT" } else { "Elem" },
            if pad > 0 {
                format!("+{pad}a ")
            } else {
                String::new()
            }
        ),
        n_qubits: elem.n_qubits(),
        operations: vec![Operation::from_circuit("grover-elem", &elem)],
        initial_states: pad_states(&base.initial_states, pad),
    }
}

/// The quantum-walk benchmark lowered to elementary gates. Every Kraus
/// branch of the noisy operation becomes its own operation; the image of
/// a subspace is the same join either way.
fn elementarized_qrw(n: u32) -> QtsSpec {
    let base = qrw(n, QRW_NOISE);
    let circuits: Vec<Circuit> = base
        .operations
        .iter()
        .flat_map(Operation::kraus_branches)
        .map(|branch| elementarize(&branch, ElementarizeOptions::default()))
        .collect();
    let width = circuits
        .iter()
        .map(Circuit::n_qubits)
        .max()
        .expect("qrw has operations");
    assert!(
        circuits.iter().all(|c| c.n_qubits() == width),
        "elementarised QRW branches must share a register"
    );
    let pad = (width - n) as usize;
    QtsSpec {
        name: format!("QRWElem{n}+{pad}a"),
        n_qubits: width,
        operations: circuits
            .iter()
            .enumerate()
            .map(|(i, c)| Operation::from_circuit(format!("walk-elem-{i}"), c))
            .collect(),
        initial_states: pad_states(&base.initial_states, pad),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn family_refuses_registers_the_engine_cannot_hold() {
        let err = family("qft", 70_000).err().unwrap();
        assert_eq!(err, "qft supports n 1..=65536, got 70000");
        // The first grover-elem size whose padded register, 2n - 2 qubits,
        // is wider than a variable addresses.
        let first_too_wide = (Var::MAX_POS + 2) / 2 + 1;
        let err = family("grover-elem", first_too_wide).err().unwrap();
        assert_eq!(err, "grover-elem supports n 3..=32769, got 32770");
        assert_eq!(first_too_wide, MAX_ELEM_N + 1);
    }

    #[test]
    fn elementarised_families_append_n_minus_2_ancillas() {
        for name in ["grover-elem", "grover-ct", "qrw-elem"] {
            for n in 4..8 {
                let spec = family(name, n).unwrap();
                assert_eq!(spec.n_qubits, 2 * n - 2, "{name} at n = {n}");
            }
        }
        assert_eq!(family("grover-elem", 3).unwrap().n_qubits, 3);
        assert_eq!(family("qrw-elem", 3).unwrap().n_qubits, 3);
    }

    #[test]
    fn ghz_prepares_ghz_state() {
        let spec = ghz(3);
        let branches = spec.operations[0].kraus_branches();
        let s = sim::run(&branches[0], &sim::basis_state(3, 0));
        assert!(s[0].approx_eq(Cplx::FRAC_1_SQRT_2));
        assert!(s[7].approx_eq(Cplx::FRAC_1_SQRT_2));
        assert!((1..7).all(|i| s[i].is_zero()));
    }

    #[test]
    fn grover3_matches_paper_example() {
        // For S = span{|++->, |11->}: applying the iteration to |++-> must
        // stay inside S (T(S) = S, Section III-A.1).
        let spec = grover(3);
        let branch = &spec.operations[0].kraus_branches()[0];
        let input = sim::product_state(&[states::PLUS, states::PLUS, states::MINUS]);
        let out = sim::run(branch, &input);
        // The Grover iterate of |++-> is  (1/2)(|00>+|01>+|10>)|-> - (1/2)|11>|->
        // which lies in span{|++->, |11->}.
        let b1 = sim::product_state(&[states::PLUS, states::PLUS, states::MINUS]);
        let b2 = sim::product_state(&[states::ONE, states::ONE, states::MINUS]);
        let basis = qits_num::linalg::gram_schmidt(&[b1, b2]);
        assert!(qits_num::linalg::in_span(&basis, &out));
    }

    #[test]
    fn grover3_amplifies_marked_state() {
        // One iteration on 2 search qubits finds |11> exactly.
        let spec = grover(3);
        let branch = &spec.operations[0].kraus_branches()[0];
        let input = sim::product_state(&[states::PLUS, states::PLUS, states::MINUS]);
        let out = sim::run(branch, &input);
        // |11>|-> = (|110> - |111>)/sqrt(2) at indices 6, 7.
        assert!((out[6].norm_sqr() - 0.5).abs() < 1e-10);
        assert!((out[7].norm_sqr() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bv_recovers_secret() {
        let secret = [true, false, true];
        let spec = bernstein_vazirani(4, &secret);
        let branch = &spec.operations[0].kraus_branches()[0];
        let mut init = vec![states::ZERO; 3];
        init.push(states::ONE);
        let out = sim::run(branch, &sim::product_state(&init));
        // Data register should read the secret |101>, ancilla |->.
        // |101>|-> = (|1010> - |1011>)/sqrt(2): indices 10 and 11.
        assert!((out[10].norm_sqr() - 0.5).abs() < 1e-10);
        assert!((out[11].norm_sqr() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bv_secret_deterministic() {
        assert_eq!(bv_secret(10), bv_secret(10));
        assert_eq!(bv_secret(10).len(), 9);
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let spec = qft(3);
        let branch = &spec.operations[0].kraus_branches()[0];
        let out = sim::run(branch, &sim::basis_state(3, 0));
        for amp in &out {
            assert!((amp.norm_sqr() - 0.125).abs() < 1e-10);
        }
    }

    #[test]
    fn qft_angles_keep_halving_past_32_qubits() {
        // The rotation between qubits 40 apart is pi / 2^40, not a
        // 32-bit shift that overflows (or wraps round to pi / 2^8).
        let branch = &qft(41).operations[0].kraus_branches()[0];
        let smallest = branch
            .gates()
            .iter()
            .find(|g| g.targets == [0] && g.controls.iter().any(|c| c.qubit == 40))
            .expect("a controlled phase from qubit 40 onto qubit 0");
        assert!(matches!(
            smallest.kind,
            GateKind::Phase(theta) if theta == std::f64::consts::PI / 2f64.powi(40)
        ));
    }

    #[test]
    fn qft_with_swaps_matches_dft_matrix() {
        let n = 3u32;
        let spec = qft_with_swaps(n);
        let m = sim::circuit_matrix(&spec.operations[0].kraus_branches()[0]);
        let dim = 1usize << n;
        let omega = 2.0 * std::f64::consts::PI / dim as f64;
        let scale = 1.0 / (dim as f64).sqrt();
        for r in 0..dim {
            for c in 0..dim {
                let expect = Cplx::from_polar(scale, omega * (r * c) as f64);
                assert!(
                    m[(r, c)].approx_eq_with(expect, 1e-9),
                    "DFT mismatch at ({r},{c}): {} vs {expect}",
                    m[(r, c)]
                );
            }
        }
    }

    #[test]
    fn walk_shift_moves_position() {
        // Coin |0>: position decrements mod 8; coin |1>: increments.
        let spec = qrw(4, 0.1);
        let mut shift = Circuit::new(4);
        walk_shift(&mut shift, 4);
        for posn in 0..8usize {
            let dn = sim::run(&shift, &sim::basis_state(4, posn));
            let down = (posn + 7) % 8;
            assert!(dn[down].approx_eq(Cplx::ONE), "decrement of {posn}");
            let up_in = 8 + posn; // coin = 1
            let upv = sim::run(&shift, &sim::basis_state(4, up_in));
            let up = 8 + (posn + 1) % 8;
            assert!(upv[up].approx_eq(Cplx::ONE), "increment of {posn}");
        }
        assert_eq!(spec.operations.len(), 2);
    }

    #[test]
    fn qrw_t2_has_two_kraus_branches() {
        let spec = qrw(4, 0.25);
        assert_eq!(spec.operations[1].branch_count(), 2);
        // Completeness: sum E†E = I over the noisy operation.
        let ks = sim::operation_kraus_matrices(&spec.operations[1]);
        let sum = ks
            .iter()
            .map(|k| k.adjoint().matmul(k))
            .fold(Mat::zeros(16), |a, b| a.add(&b));
        assert!(sum.approx_eq(&Mat::identity(16)));
    }

    #[test]
    fn bitflip_code_corrects_each_single_error() {
        let spec = bitflip_code();
        // For data error on qubit e, exactly one T_s fires and corrects it.
        for e in 0..3u32 {
            let idx = 1usize << (5 - e); // |e flipped> (x) |000>
            let mut total_norm = 0.0;
            for op in &spec.operations {
                let branch = &op.kraus_branches()[0];
                let out = sim::run(branch, &sim::basis_state(6, idx));
                let norm: f64 = out.iter().map(|a| a.norm_sqr()).sum();
                if norm > 1e-9 {
                    // The surviving branch must have data |000>.
                    for (j, amp) in out.iter().enumerate() {
                        if !amp.is_zero() {
                            assert_eq!(j >> 3, 0, "data not corrected for error {e}");
                        }
                    }
                }
                total_norm += norm;
            }
            assert!((total_norm - 1.0).abs() < 1e-9, "outcomes must partition");
        }
    }

    #[test]
    fn spec_names_include_size() {
        assert_eq!(ghz(100).name, "GHZ100");
        assert_eq!(qrw(20, 0.1).name, "QRW20");
        assert_eq!(qft_adder(5, 3).name, "Adder5");
        assert_eq!(repetition_code(5).name, "RepCode5");
        assert_eq!(random_clifford_t(4, 12, 0.1, 7).name, "CliffordT4");
    }

    #[test]
    fn qft_adder_matches_ripple_carry_increment() {
        for n in 1..=4u32 {
            let adder = sim::circuit_matrix(&qft_adder(n, 1).operations[0].kraus_branches()[0]);
            let ripple = sim::circuit_matrix(&ripple_increment(n));
            assert!(adder.approx_eq(&ripple), "n = {n}");
        }
    }

    #[test]
    fn qft_adder_adds_mod_2n() {
        let n = 3u32;
        let a = 5u64;
        let m = sim::circuit_matrix(&qft_adder(n, a).operations[0].kraus_branches()[0]);
        let dim = 1usize << n;
        for x in 0..dim {
            let want = (x + a as usize) % dim;
            for r in 0..dim {
                let expect = if r == want { 1.0 } else { 0.0 };
                assert!(
                    (m[(r, x)].norm_sqr() - expect).abs() < 1e-9,
                    "column {x}, row {r}"
                );
            }
        }
    }

    #[test]
    fn repetition_code_corrects_up_to_two_errors() {
        let d = 5u32;
        let spec = repetition_code(d);
        assert_eq!(spec.operations.len(), 16);
        let n = 2 * d - 1;
        // Every error of weight <= 2 on the data register: exactly one T_s
        // fires and restores |0...0>.
        let mut patterns: Vec<u32> = vec![0];
        patterns.extend((0..d).map(|i| 1u32 << i));
        for i in 0..d {
            for j in i + 1..d {
                patterns.push((1 << i) | (1 << j));
            }
        }
        for e in patterns {
            // Data qubit i is bit (n-1-i) of the basis index (qubit 0 MSB).
            let idx: usize = (0..d)
                .filter(|i| (e >> i) & 1 == 1)
                .map(|i| 1usize << (n - 1 - i))
                .sum();
            let mut survivors = 0;
            for op in &spec.operations {
                let out = sim::run(&op.kraus_branches()[0], &sim::basis_state(n, idx));
                let norm: f64 = out.iter().map(|a| a.norm_sqr()).sum();
                if norm > 1e-9 {
                    survivors += 1;
                    assert!(out[0].approx_eq(Cplx::ONE), "error {e:05b} not corrected");
                }
            }
            assert_eq!(survivors, 1, "error {e:05b}");
        }
    }

    #[test]
    fn random_clifford_t_is_deterministic_and_trace_preserving() {
        let a = random_clifford_t(4, 12, 0.125, 42);
        let b = random_clifford_t(4, 12, 0.125, 42);
        assert_eq!(a.operations[0].elements(), b.operations[0].elements());
        let c = random_clifford_t(4, 12, 0.125, 43);
        assert_ne!(a.operations[0].elements(), c.operations[0].elements());
        // With noise: two Kraus branches, completeness sum E†E = I.
        assert_eq!(a.operations[0].branch_count(), 2);
        let ks = sim::operation_kraus_matrices(&a.operations[0]);
        let sum = ks
            .iter()
            .map(|k| k.adjoint().matmul(k))
            .fold(Mat::zeros(16), |acc, m| acc.add(&m));
        assert!(sum.approx_eq(&Mat::identity(16)));
        // Noiseless: a single unitary branch.
        assert_eq!(
            random_clifford_t(3, 9, 0.0, 1).operations[0].branch_count(),
            1
        );
    }

    #[test]
    fn new_channels_are_trace_preserving() {
        for e in [
            phase_flip_channel(0, 0.25),
            depolarizing_channel(0, 0.3),
            bit_flip_channel(0, 0.125),
        ] {
            let Element::Channel { kraus, .. } = &e else {
                panic!("not a channel")
            };
            let sum = kraus
                .iter()
                .map(|k| k.adjoint().matmul(k))
                .fold(Mat::zeros(2), |acc, m| acc.add(&m));
            assert!(sum.approx_eq(&Mat::identity(2)));
        }
    }
}
