//! Dense-oracle reachability: random small transition systems — random
//! circuits, bit-flip and depolarizing channels, and projector
//! operations, started from one or two random product states — answered
//! through [`Engine`] with each serial kernel — in one call, and stepped
//! one iteration at a time with a collection between the steps — and
//! compared with a dense frontier iteration over
//! `sim::operation_kraus_matrices`.
//!
//! The oracle iterates exactly the way the engine's fixpoint does (image
//! the vectors the previous round added, stop when a round adds nothing
//! or the space is full) and makes its rank decisions with the same
//! [`RANK_TOLERANCE`], so the reachable dimension, the iteration count and
//! the converged flag must all agree, every symbolic basis ket must lie
//! in the dense span, and invariant verdicts over basis-state sets must
//! match.

use std::collections::BTreeMap;

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;
use proptest::test_runner::TestCaseError;

use qits::{Engine, EngineBuilder, Strategy, Subspace, RANK_TOLERANCE};
use qits_circuit::generators::{bit_flip_channel, depolarizing_channel};
use qits_circuit::{sim, Element, Gate, GateKind, Operation};
use qits_num::{linalg, Cplx, Mat};
use qits_tdd::{Edge, TddManager};
use qits_tensor::Var;

/// Iteration bound: above the `2^5` steps the longest chain can take.
const MAX_ITERATIONS: usize = 40;

/// A gate as raw draws, fitted to the register by [`gate`].
type RawGate = (u8, u32, u32, f64);

/// An operation as raw draws: its shape, gates, the qubit its channel or
/// projector acts on, the projector outcome, and the channel probability.
type RawOp = (u8, Vec<RawGate>, u32, bool, f64);

fn arb_gate() -> impl proptest::strategy::Strategy<Value = RawGate> {
    (0u8..8, 0u32..5, 0u32..5, 0.0..std::f64::consts::TAU)
}

fn arb_op() -> impl proptest::strategy::Strategy<Value = RawOp> {
    (
        0u8..4,
        proptest::collection::vec(arb_gate(), 1..6),
        0u32..5,
        any::<bool>(),
        0.1..0.9,
    )
}

/// Normalised random single-qubit amplitudes.
fn arb_amp() -> impl proptest::strategy::Strategy<Value = (Cplx, Cplx)> {
    (0.0..std::f64::consts::PI, 0.0..std::f64::consts::TAU).prop_map(|(theta, phi)| {
        (
            Cplx::real((theta / 2.0).cos()),
            Cplx::from_polar((theta / 2.0).sin(), phi),
        )
    })
}

/// The gate a raw draw names on an `n`-qubit register (`None` when a
/// two-qubit gate lands both legs on one wire).
fn gate(n: u32, (kind, a, b, theta): RawGate) -> Option<Gate> {
    let (a, b) = (a % n, b % n);
    Some(match kind {
        0 => Gate::h(a),
        1 => Gate::x(a),
        2 => Gate::z(a),
        3 => Gate::single(GateKind::S, a),
        4 => Gate::single(GateKind::T, a),
        5 => Gate::phase(a, theta),
        6 if a != b => Gate::cx(a, b),
        7 if a != b => Gate::cz(a, b),
        _ => return None,
    })
}

/// One operation: gates then a bit flip, a depolarizing channel then
/// gates, a projector then gates, or gates alone.
fn operation(n: u32, i: usize, (shape, gates, q, bit, p): &RawOp) -> Operation {
    let q = q % n;
    let with_gates = |op: Operation| {
        gates
            .iter()
            .filter_map(|&g| gate(n, g))
            .fold(op, Operation::then_gate)
    };
    let op = Operation::new(format!("op{i}"), n);
    match shape {
        0 => with_gates(op).then(bit_flip_channel(q, *p)),
        1 => with_gates(op.then(depolarizing_channel(q, *p))),
        2 => with_gates(op.then(Element::Projector {
            qubits: vec![q],
            bits: vec![*bit],
        })),
        _ => with_gates(op),
    }
}

/// The dense fixpoint: its orthonormal basis, image rounds, and whether
/// it converged within the bound.
struct DenseReach {
    basis: Vec<Vec<Cplx>>,
    iterations: usize,
    converged: bool,
}

/// Extends the orthonormal `basis` by the modified Gram–Schmidt residual
/// of `v` when its squared norm exceeds [`RANK_TOLERANCE`] — the engine's
/// rank decision.
fn extend(basis: &mut Vec<Vec<Cplx>>, v: &[Cplx]) -> bool {
    let mut u = v.to_vec();
    for b in basis.iter() {
        let c = linalg::inner(b, &u);
        u = linalg::axpy_neg(&u, c, b);
    }
    let n2 = linalg::inner(&u, &u).re;
    if n2 <= RANK_TOLERANCE {
        return false;
    }
    linalg::scale_in_place(&mut u, Cplx::real(1.0 / n2.sqrt()));
    basis.push(u);
    true
}

/// Dense frontier iteration, in the engine's order: every Kraus matrix of
/// every operation applied to every frontier vector.
fn dense_reach(kraus: &[Vec<Mat>], initial: &[Vec<Cplx>], max_iterations: usize) -> DenseReach {
    let full = initial[0].len();
    let mut basis = Vec::new();
    for v in initial {
        extend(&mut basis, v);
    }
    let mut frontier = 0;
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iterations {
        if basis.len() == full {
            converged = true;
            break;
        }
        let before = basis.len();
        for op in kraus {
            for k in op {
                for i in frontier..before {
                    let image = k.matvec(&basis[i]);
                    extend(&mut basis, &image);
                }
            }
        }
        iterations += 1;
        if basis.len() == before {
            converged = true;
            break;
        }
        frontier = before;
        if basis.len() == full {
            converged = true;
            break;
        }
    }
    DenseReach {
        basis,
        iterations,
        converged,
    }
}

fn dense_of_ket(m: &TddManager, n: u32, e: Edge) -> Vec<Cplx> {
    let vars = Subspace::ket_vars(n);
    (0..(1usize << n))
        .map(|i| {
            let asn: BTreeMap<Var, bool> = vars
                .iter()
                .enumerate()
                .map(|(q, &v)| (v, (i >> (n as usize - 1 - q)) & 1 == 1))
                .collect();
            m.eval(e, &asn)
        })
        .collect()
}

/// Whether every dense basis vector lies in the span of the computational
/// basis states `set`, by the engine's membership rule.
fn dense_holds(reach: &DenseReach, set: &[usize]) -> bool {
    reach.basis.iter().all(|v| {
        let outside: f64 = v
            .iter()
            .enumerate()
            .filter(|(x, _)| !set.contains(x))
            .map(|(_, a)| a.norm_sqr())
            .sum();
        outside <= RANK_TOLERANCE
    })
}

/// The invariant spanned by the computational basis states `set`, on the
/// engine's manager.
fn basis_invariant(engine: &mut Engine, n: u32, set: &[usize]) -> Subspace {
    let vars = Subspace::ket_vars(n);
    let kets: Vec<Edge> = set
        .iter()
        .map(|&x| {
            let bits: Vec<bool> = (0..n).map(|q| (x >> (n - 1 - q)) & 1 == 1).collect();
            engine.manager_mut().basis_ket(&vars, &bits)
        })
        .collect();
    engine
        .subspace_from_states(&kets)
        .expect("in-register kets")
}

/// A random system: its operations (one projector operation among
/// them) and its initial product states.
struct System {
    n: u32,
    ops: Vec<Operation>,
    amps: Vec<Vec<(Cplx, Cplx)>>,
}

fn system(n: u32, raw_ops: &[RawOp], projector: &RawOp, initial: &[Vec<(Cplx, Cplx)>]) -> System {
    let mut ops: Vec<Operation> = raw_ops
        .iter()
        .enumerate()
        .map(|(i, raw)| operation(n, i, raw))
        .collect();
    let (_, gates, q, bit, _) = projector;
    ops.push(operation(n, ops.len(), &(2, gates.clone(), *q, *bit, 0.5)));
    let amps = initial.iter().map(|a| a[..n as usize].to_vec()).collect();
    System { n, ops, amps }
}

/// Runs reachability and one invariant check through an engine with
/// `strategy`, in one call and stepped with collections, against the dense
/// oracle. The invariant is spanned by computational basis states: the
/// support of the reachable space (it holds) when `holding`, else the
/// states `picks` selects (usually violated); the verdict comes from the
/// oracle either way.
fn check_against_oracle(
    strategy: Strategy,
    sys: &System,
    holding: bool,
    picks: &[bool],
) -> Result<(), TestCaseError> {
    let n = sys.n;
    let kraus: Vec<Vec<Mat>> = sys.ops.iter().map(sim::operation_kraus_matrices).collect();
    let dense_initial: Vec<Vec<Cplx>> = sys.amps.iter().map(|a| sim::product_state(a)).collect();
    let dense = dense_reach(&kraus, &dense_initial, MAX_ITERATIONS);
    let set: Vec<usize> = (0..1usize << n)
        .filter(|&x| {
            if holding {
                dense.basis.iter().any(|v| v[x].norm_sqr() > 1e-24)
            } else {
                picks[x]
            }
        })
        .collect();
    let verdict = dense_holds(&dense, &set);

    let mut uncollected = None;
    for stepped in [false, true] {
        let label = format!("n={n} {strategy} stepped={stepped}");
        let mut engine = EngineBuilder::new()
            .strategy(strategy)
            .build_with(n, sys.ops.clone(), |m| {
                let vars = Subspace::ket_vars(n);
                let kets: Vec<Edge> = sys.amps.iter().map(|a| m.product_ket(&vars, a)).collect();
                Subspace::from_states(m, n, &kets)
            })
            .expect("well-formed system");

        let r = if stepped {
            // The bound grows by one per call, with a collection between
            // the calls: the session's chain survives each one.
            let mut bound = 0;
            loop {
                bound += 1;
                let r = engine.reachable_space(bound).expect("fixpoint step runs");
                engine.collect(&[]);
                if r.converged || bound == MAX_ITERATIONS {
                    break r;
                }
            }
        } else {
            engine
                .reachable_space(MAX_ITERATIONS)
                .expect("fixpoint runs")
        };
        prop_assert_eq!(r.space.dim(), dense.basis.len(), "dim ({})", label);
        prop_assert_eq!(r.iterations, dense.iterations, "iterations ({})", label);
        prop_assert_eq!(r.converged, dense.converged, "converged ({})", label);
        for &b in r.space.basis() {
            let v = dense_of_ket(engine.manager(), n, b);
            prop_assert!(
                linalg::in_span(&dense.basis, &v),
                "reachable ket escapes the dense span ({})",
                label
            );
        }

        let inv = basis_invariant(&mut engine, n, &set);
        let (holds, r) = engine
            .check_invariant(&inv, MAX_ITERATIONS)
            .expect("invariant check runs");
        prop_assert_eq!(holds, verdict, "verdict on {:?} ({})", set, label);
        prop_assert_eq!(
            r.space.dim(),
            dense.basis.len(),
            "invariant run dim ({})",
            label
        );
        let answer = (r.space.dim(), r.iterations, r.converged, holds);
        match uncollected {
            None => uncollected = Some(answer),
            Some(want) => prop_assert_eq!(answer, want, "stepped against one call ({})", label),
        }
    }
    Ok(())
}

// One property per kernel: each draws its own systems, and the four run
// in parallel.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn basic_reachability_matches_the_dense_oracle(
        n in 2u32..6,
        raw_ops in proptest::collection::vec(arb_op(), 1..3),
        projector in arb_op(),
        initial in proptest::collection::vec(proptest::collection::vec(arb_amp(), 5), 1..3),
        holding in any::<bool>(),
        picks in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let sys = system(n, &raw_ops, &projector, &initial);
        check_against_oracle(Strategy::Basic, &sys, holding, &picks)?;
    }

    #[test]
    fn addition_reachability_matches_the_dense_oracle(
        n in 2u32..6,
        raw_ops in proptest::collection::vec(arb_op(), 1..3),
        projector in arb_op(),
        initial in proptest::collection::vec(proptest::collection::vec(arb_amp(), 5), 1..3),
        holding in any::<bool>(),
        picks in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let sys = system(n, &raw_ops, &projector, &initial);
        check_against_oracle(Strategy::Addition { k: 1 }, &sys, holding, &picks)?;
    }

    #[test]
    fn contraction_reachability_matches_the_dense_oracle(
        n in 2u32..6,
        raw_ops in proptest::collection::vec(arb_op(), 1..3),
        projector in arb_op(),
        initial in proptest::collection::vec(proptest::collection::vec(arb_amp(), 5), 1..3),
        holding in any::<bool>(),
        picks in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let sys = system(n, &raw_ops, &projector, &initial);
        check_against_oracle(Strategy::Contraction { k1: 2, k2: 2 }, &sys, holding, &picks)?;
    }

    /// The engines' default kernel, at the paper's Table I setting.
    #[test]
    fn default_contraction_reachability_matches_the_dense_oracle(
        n in 2u32..6,
        raw_ops in proptest::collection::vec(arb_op(), 1..3),
        projector in arb_op(),
        initial in proptest::collection::vec(proptest::collection::vec(arb_amp(), 5), 1..3),
        holding in any::<bool>(),
        picks in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let sys = system(n, &raw_ops, &projector, &initial);
        check_against_oracle(Strategy::Contraction { k1: 4, k2: 4 }, &sys, holding, &picks)?;
    }
}
