//! Dense-oracle equivalence: both verdicts of the miter checker, exact and
//! up to global phase, compared with `sim::circuit_matrix` on seeded
//! random circuits of at most four qubits — rewrites by self-inverse
//! pairs, an inserted `T`, `rz` against `phase`, projectors and
//! non-unitary custom gates (zero operators included), the empty circuit,
//! idle wires and wires only diagonal gates touch — and on the Draper
//! adder against the ripple-carry incrementer. Every check runs on one
//! long-lived session, as a pool worker's would.
//!
//! "Up to phase" means equal up to a unit-modulus factor, `A = e^{iφ} B`,
//! for operators that are not unitary too: a multiple by a factor whose
//! modulus is not 1 is equivalent in neither mode. The oracle asks the
//! same.
//!
//! A count guard pins the point of the middle-out order: over serve-style
//! pairs, checks on one manager create fewer than half the nodes that
//! contracting the first circuit's network alone creates.
//!
//! Wide registers: past 511 qubits the trace and the squared norms
//! multiply to more than an `f64` holds, and from 1,024 qubits on `2^n`
//! itself does not fit. Verdicts stay right below that, and a wider
//! register is refused.

use qits::{Engine, EngineBuilder, QitsError};
use qits_circuit::generators::{qft_adder, random_clifford_t, ripple_increment};
use qits_circuit::{sim, Circuit, Gate, GateKind};
use qits_num::{Cplx, Mat};
use qits_tdd::TddManager;
use qits_tensornet::{contract_network, TensorNetwork};

/// Relative tolerance of the dense comparisons.
const DENSE_TOLERANCE: f64 = 1e-9;

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    fn angle(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU
    }

    /// Two distinct wires of an `n`-qubit register.
    fn pair(&mut self, n: u32) -> (u32, u32) {
        let a = self.below(n);
        (a, (a + 1 + self.below(n - 1)) % n)
    }
}

/// A random unitary gate on `n >= 2` wires.
fn unitary_gate(rng: &mut Rng, n: u32) -> Gate {
    let q = rng.below(n);
    let (c, t) = rng.pair(n);
    match rng.below(14) {
        0 => Gate::h(q),
        1 => Gate::x(q),
        2 => Gate::y(q),
        3 => Gate::z(q),
        4 => Gate::single(GateKind::S, q),
        5 => Gate::single(GateKind::Tdg, q),
        6 => Gate::single(GateKind::Rx(rng.angle()), q),
        7 => Gate::single(GateKind::Ry(rng.angle()), q),
        8 => Gate::single(GateKind::Rz(rng.angle()), q),
        9 => Gate::cx(c, t),
        10 => Gate::cz(c, t),
        11 => Gate::cp(c, t, rng.angle()),
        12 => Gate::swap(c, t),
        _ if n >= 3 => {
            let third = (0..n).find(|&x| x != c && x != t).unwrap();
            Gate::ccx(c, third, t)
        }
        _ => Gate::phase(q, rng.angle()),
    }
}

/// A random unitary circuit on `n >= 2` wires, its length drawn from
/// `lens`.
fn random_circuit(rng: &mut Rng, n: u32, lens: std::ops::Range<u32>) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..lens.start + rng.below(lens.end - lens.start) {
        c.push(unitary_gate(rng, n));
    }
    c
}

/// `c` with `inserted` spliced in at a random point.
fn insert(rng: &mut Rng, c: &Circuit, inserted: &[Gate]) -> Circuit {
    let at = rng.below(c.len() as u32 + 1) as usize;
    let mut out = Circuit::new(c.n_qubits());
    for g in c.gates()[..at]
        .iter()
        .chain(inserted)
        .chain(&c.gates()[at..])
    {
        out.push(g.clone());
    }
    out
}

/// The circuit of `gates` on `n` wires.
fn circuit(n: u32, gates: impl IntoIterator<Item = Gate>) -> Circuit {
    let mut c = Circuit::new(n);
    for g in gates {
        c.push(g);
    }
    c
}

fn max_abs(m: &Mat) -> f64 {
    m.as_slice().iter().map(|x| x.abs()).fold(0.0, f64::max)
}

/// The dense verdicts `(exactly, up to phase)`: equal matrices, and
/// matrices equal up to a unit-modulus factor (two zero matrices are
/// both).
fn dense_verdicts(a: &Circuit, b: &Circuit) -> (bool, bool) {
    let (ma, mb) = (sim::circuit_matrix(a), sim::circuit_matrix(b));
    let scale = max_abs(&ma).max(max_abs(&mb)).max(1.0);
    let close = |x: &Mat, y: &Mat| {
        x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| (*p - *q).abs() <= DENSE_TOLERANCE * scale)
    };
    let exactly = close(&ma, &mb);
    let (a_zero, b_zero) = (
        max_abs(&ma) <= DENSE_TOLERANCE,
        max_abs(&mb) <= DENSE_TOLERANCE,
    );
    if a_zero || b_zero {
        return (exactly, a_zero && b_zero);
    }
    // The ratio at `b`'s largest entry is the only candidate factor.
    let k = (0..mb.as_slice().len())
        .max_by(|&i, &j| mb.as_slice()[i].abs().total_cmp(&mb.as_slice()[j].abs()))
        .unwrap();
    let ratio = ma.as_slice()[k] / mb.as_slice()[k];
    let unit = (ratio.abs() - 1.0).abs() <= DENSE_TOLERANCE;
    (exactly, unit && close(&ma, &mb.scale(ratio)))
}

/// Asserts both checker verdicts on `engine` against the oracle and
/// returns them.
fn agree(engine: &mut Engine, a: &Circuit, b: &Circuit, what: &str) -> (bool, bool) {
    let got = (
        engine.equivalent(a, b).unwrap(),
        engine.equivalent_up_to_phase(a, b).unwrap(),
    );
    assert_eq!(got, dense_verdicts(a, b), "{what}: (exactly, up to phase)");
    got
}

fn session() -> Engine {
    EngineBuilder::new().build_bare(4).unwrap()
}

#[test]
fn self_inverse_insertions_are_rewrites() {
    let mut engine = session();
    let mut rng = Rng(1);
    for case in 0..60 {
        let n = 2 + rng.below(3);
        let a = random_circuit(&mut rng, n, 4..16);
        let q = rng.below(n);
        let (c, t) = rng.pair(n);
        let pair = match case % 5 {
            0 => vec![Gate::h(q), Gate::h(q)],
            1 => vec![Gate::cx(c, t), Gate::cx(c, t)],
            2 => vec![Gate::single(GateKind::S, q), Gate::single(GateKind::Sdg, q)],
            3 => vec![Gate::single(GateKind::T, q), Gate::single(GateKind::Tdg, q)],
            _ => vec![Gate::swap(c, t), Gate::swap(c, t)],
        };
        let b = insert(&mut rng, &a, &pair);
        assert_eq!(
            agree(&mut engine, &a, &b, &format!("case {case}")),
            (true, true)
        );
        assert_eq!(
            agree(&mut engine, &b, &a, &format!("case {case}, swapped")),
            (true, true)
        );
    }
}

#[test]
fn an_inserted_t_is_caught_in_both_modes() {
    let mut engine = session();
    let mut rng = Rng(2);
    for case in 0..40 {
        let n = 2 + rng.below(3);
        let a = random_circuit(&mut rng, n, 4..16);
        let t = Gate::single(GateKind::T, rng.below(n));
        let b = insert(&mut rng, &a, &[t]);
        assert_eq!(
            agree(&mut engine, &a, &b, &format!("case {case}")),
            (false, false)
        );
    }
}

#[test]
fn rz_and_phase_differ_by_a_global_phase_only() {
    let mut engine = session();
    let mut rng = Rng(3);
    for case in 0..30 {
        let n = 1 + rng.below(4);
        let (theta, q) = (rng.angle(), rng.below(n));
        let (before, after) = if n >= 2 {
            (
                random_circuit(&mut rng, n, 0..6),
                random_circuit(&mut rng, n, 0..6),
            )
        } else {
            (Circuit::new(1), circuit(1, [Gate::h(0)]))
        };
        let around = |g: Gate| {
            circuit(
                n,
                before
                    .gates()
                    .iter()
                    .cloned()
                    .chain([g])
                    .chain(after.gates().iter().cloned()),
            )
        };
        let a = around(Gate::single(GateKind::Rz(theta), q));
        let b = around(Gate::phase(q, theta));
        assert_eq!(
            agree(&mut engine, &a, &b, &format!("case {case}")),
            (false, true)
        );
    }
}

/// A random non-unitary single-qubit matrix: a projector, a scaled or
/// skewed diagonal, or a dense matrix with random entries.
fn non_unitary(rng: &mut Rng) -> Mat {
    let amp = |rng: &mut Rng| Cplx::from_polar(0.25 + rng.angle() / 8.0, rng.angle());
    match rng.below(3) {
        0 => Mat::diagonal(&[Cplx::ONE, Cplx::ZERO]),
        1 => Mat::diagonal(&[amp(rng), amp(rng)]),
        _ => Mat::from_rows(&[&[amp(rng), amp(rng)], &[amp(rng), amp(rng)]]),
    }
}

#[test]
fn projectors_and_non_unitary_gates_match_the_dense_verdicts() {
    let mut engine = session();
    let mut rng = Rng(4);
    let mut seen = [0usize; 4];
    for case in 0..100 {
        let n = 1 + rng.below(3);
        let mut a = Circuit::new(n);
        for _ in 0..2 + rng.below(6) {
            let q = rng.below(n);
            a.push(match rng.below(4) {
                0 => Gate::projector(q, rng.below(2) == 1),
                1 => Gate::custom1(q, non_unitary(&mut rng)),
                _ if n >= 2 => unitary_gate(&mut rng, n),
                _ => Gate::h(q),
            });
        }
        let scaled = |rng: &mut Rng, factor: Cplx| {
            insert(rng, &a, &[Gate::custom1(0, Mat::identity(2).scale(factor))])
        };
        let b = match case % 5 {
            // The same operator.
            0 => a.clone(),
            // The same operator once a self-inverse pair is inserted.
            1 => {
                let q = rng.below(n);
                insert(&mut rng, &a, &[Gate::h(q), Gate::h(q)])
            }
            // A scalar multiple: not a phase, so equivalent in neither
            // mode.
            2 => scaled(&mut rng, Cplx::from_polar(0.5, 1.0)),
            // A global phase.
            3 => scaled(&mut rng, Cplx::from_polar(1.0, 1.0)),
            // Unrelated.
            _ => circuit(n, [Gate::projector(rng.below(n), false)]),
        };
        let verdicts = agree(&mut engine, &a, &b, &format!("case {case}"));
        seen[usize::from(verdicts.0) * 2 + usize::from(verdicts.1)] += 1;
    }
    // The draws reach every possible verdict pair: (false, false),
    // (false, true) and (true, true).
    assert!(seen[0] > 0 && seen[1] > 0 && seen[3] > 0, "{seen:?}");
}

#[test]
fn zero_operators_are_equivalent_to_each_other_only() {
    let mut engine = session();
    let zero = circuit(2, [Gate::projector(0, false), Gate::projector(0, true)]);
    // Zero too: `h P1 h` and `h P0 h` on wire 1, around a block that
    // multiplies to the identity.
    let other_zero = circuit(
        2,
        [
            Gate::h(1),
            Gate::projector(1, true),
            Gate::h(1),
            Gate::cx(0, 1),
            Gate::h(1),
            Gate::h(1),
            Gate::cx(0, 1),
            Gate::h(1),
            Gate::projector(1, false),
            Gate::h(1),
        ],
    );
    let scaled_zero = circuit(
        2,
        [
            Gate::custom1(0, Mat::diagonal(&[Cplx::real(3.0), Cplx::ZERO])),
            Gate::projector(0, true),
        ],
    );
    let proj = circuit(2, [Gate::projector(1, false)]);
    let empty = Circuit::new(2);
    for (a, b, want) in [
        (&zero, &zero, (true, true)),
        (&zero, &other_zero, (true, true)),
        (&other_zero, &scaled_zero, (true, true)),
        (&zero, &proj, (false, false)),
        (&proj, &zero, (false, false)),
        (&zero, &empty, (false, false)),
        (&empty, &scaled_zero, (false, false)),
    ] {
        assert_eq!(agree(&mut engine, a, b, "zero operators"), want);
    }
}

#[test]
fn the_empty_circuit_is_the_identity() {
    let mut engine = session();
    let empty = Circuit::new(3);
    let cases = [
        (Circuit::new(3), (true, true)),
        (circuit(3, [Gate::h(1), Gate::h(1)]), (true, true)),
        (
            circuit(3, [Gate::swap(0, 2), Gate::swap(2, 0)]),
            (true, true),
        ),
        (circuit(3, [Gate::x(2)]), (false, false)),
        // rz(2π) = −I: the identity up to phase, not exactly.
        (
            circuit(3, [Gate::single(GateKind::Rz(std::f64::consts::TAU), 1)]),
            (false, true),
        ),
    ];
    for (i, (c, want)) in cases.iter().enumerate() {
        assert_eq!(agree(&mut engine, &empty, c, &format!("case {i}")), *want);
        assert_eq!(
            agree(&mut engine, c, &empty, &format!("case {i}, swapped")),
            *want
        );
    }
}

/// A random gate that is diagonal on wire 2 and leaves wire 3 alone:
/// only wires 0 and 1 ever advance.
fn gate_diagonal_on_wire_2(rng: &mut Rng) -> Gate {
    let q = rng.below(2);
    match rng.below(7) {
        0 => Gate::h(q),
        1 => Gate::cx(q, 1 - q),
        2 => Gate::single(GateKind::T, 2),
        3 => Gate::cz(q, 2),
        4 => Gate::cp(2, q, rng.angle()),
        5 => Gate::single(GateKind::Rz(rng.angle()), 2),
        _ => Gate::new(
            GateKind::X,
            vec![q],
            vec![qits_circuit::Control {
                qubit: 2,
                value: rng.below(2) == 1,
            }],
        ),
    }
}

#[test]
fn idle_and_diagonal_only_wires_keep_their_trace() {
    let mut engine = session();
    let mut rng = Rng(5);
    let mut seen = [0usize; 4];
    for case in 0..60 {
        let a = circuit(
            4,
            (0..2 + rng.below(8)).map(|_| gate_diagonal_on_wire_2(&mut rng)),
        );
        let b = match case % 3 {
            0 => insert(
                &mut rng,
                &a,
                &[Gate::single(GateKind::S, 2), Gate::single(GateKind::Sdg, 2)],
            ),
            1 => {
                let rz = Gate::single(GateKind::Rz(rng.angle()), 2);
                insert(&mut rng, &a, &[rz])
            }
            _ => circuit(
                4,
                (0..1 + rng.below(8)).map(|_| gate_diagonal_on_wire_2(&mut rng)),
            ),
        };
        let verdicts = agree(&mut engine, &a, &b, &format!("case {case}"));
        seen[usize::from(verdicts.0) * 2 + usize::from(verdicts.1)] += 1;
    }
    assert!(seen[0] > 0 && seen[3] > 0, "{seen:?}");
}

#[test]
fn the_draper_adder_is_the_ripple_incrementer() {
    let mut engine = EngineBuilder::new().build_bare(6).unwrap();
    for n in 1..=6 {
        let adder = qft_adder(n, 1).operations[0].kraus_branches().remove(0);
        let ripple = ripple_increment(n);
        assert_eq!(
            agree(&mut engine, &adder, &ripple, &format!("n = {n}")),
            (true, true)
        );
        // One gate changed: the adder's last phase kick gets a wrong angle.
        let mut gates = adder.gates().to_vec();
        let kick = gates
            .iter()
            .rposition(|g| matches!(g.kind, GateKind::Phase(_)) && g.controls.is_empty())
            .unwrap();
        let GateKind::Phase(theta) = gates[kick].kind else {
            unreachable!()
        };
        gates[kick] = Gate::phase(gates[kick].targets[0], theta + 0.5);
        let broken = circuit(n, gates);
        assert_eq!(
            agree(&mut engine, &broken, &ripple, &format!("n = {n}, broken")),
            (false, false)
        );
    }
}

#[test]
fn rewrite_checks_create_under_half_of_one_operator_build() {
    // Serve-style pairs: a random 6-qubit Clifford+T circuit of depth
    // 30–50 against a rewrite (a self-inverse pair inserted) or a
    // non-equivalent edit (a `T` inserted). The checks run on one
    // manager, as a pool worker's do; contracting each `a`'s network into
    // its operator runs on a fresh one. Contracted one side after the
    // other, the checks create more nodes than the operator builds.
    let mut rng = Rng(6);
    let mut session = TddManager::new();
    let mut operator = 0u64;
    for case in 0..50 {
        let depth = 30 + rng.below(21);
        let a = random_clifford_t(6, depth, 0.0, rng.next_u64()).operations[0]
            .kraus_branches()
            .remove(0);
        let q = rng.below(6);
        let (c, t) = rng.pair(6);
        let inserted = match rng.below(8) {
            0 => vec![Gate::h(q), Gate::h(q)],
            1 => vec![Gate::cx(c, t), Gate::cx(c, t)],
            2 => vec![Gate::single(GateKind::S, q), Gate::single(GateKind::Sdg, q)],
            3 => vec![Gate::single(GateKind::T, q), Gate::single(GateKind::Tdg, q)],
            _ => vec![Gate::single(GateKind::T, q)],
        };
        let b = insert(&mut rng, &a, &inserted);
        let verdict = qits::equiv::try_equivalent_exactly(&mut session, &a, &b).unwrap();
        assert_eq!(verdict, inserted.len() == 2, "case {case}");
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &a);
        contract_network(&mut m, net.tensors(), &net.external_vars());
        operator += m.stats().nodes_created;
    }
    let check = session.stats().nodes_created;
    assert!(
        2 * check < operator,
        "50 checks created {check} nodes, 50 operator builds {operator}"
    );
}

/// `h 0` and a CX chain down an `n`-qubit register, then `tail`.
fn ghz_chain(n: u32, tail: impl IntoIterator<Item = Gate>) -> Circuit {
    circuit(
        n,
        std::iter::once(Gate::h(0))
            .chain((0..n - 1).map(|q| Gate::cx(q, q + 1)))
            .chain(tail),
    )
}

#[test]
fn verdicts_stay_right_past_512_qubits() {
    // At 520 qubits `|t|²` and `‖A‖² ‖B‖²` are both 2^1040: squaring
    // before dividing overflows to `inf / inf`.
    let n = 520;
    let mut engine = EngineBuilder::new().build_bare(n).unwrap();
    let a = ghz_chain(n, []);
    let b = ghz_chain(n, []);
    let with_t = ghz_chain(n, [Gate::single(GateKind::T, 3)]);
    let verdicts = |engine: &mut Engine, x: &Circuit, y: &Circuit| {
        (
            engine.equivalent(x, y).unwrap(),
            engine.equivalent_up_to_phase(x, y).unwrap(),
        )
    };
    assert_eq!(verdicts(&mut engine, &a, &b), (true, true));
    assert_eq!(verdicts(&mut engine, &a, &with_t), (false, false));
    assert_eq!(verdicts(&mut engine, &with_t, &a), (false, false));
}

#[test]
fn registers_of_1024_qubits_or_more_are_refused() {
    // `2^n` is no finite `f64` from 1,024 qubits on: every norm would
    // read as zero and every pair as equivalent.
    let n = 1030;
    let mut engine = EngineBuilder::new().build_bare(n).unwrap();
    let a = ghz_chain(n, []);
    let with_t = ghz_chain(n, [Gate::single(GateKind::T, 3)]);
    let refused = QitsError::DimensionOverflow { bits: n };
    assert_eq!(engine.equivalent(&a, &with_t).unwrap_err(), refused);
    assert_eq!(engine.equivalent_up_to_phase(&a, &a).unwrap_err(), refused);
}
