//! The answer checker: what each property should answer, computed by a
//! dense oracle on small registers or taken from the family's known answer
//! on large ones, and the attempted/failed tally it feeds.

use qits::{JobOutput, QitsError};
use qits_circuit::generators::QtsSpec;
use qits_circuit::{sim, Circuit};
use qits_num::linalg::{axpy_neg, inner, norm};
use qits_num::Cplx;

use crate::systems::System;

/// Registers up to this width are checked against the dense oracle.
pub const DENSE_MAX_QUBITS: u32 = 8;

/// A residual shorter than this (relative to the vector it came from)
/// lies in the span.
const RESIDUAL_TOLERANCE: f64 = 1e-7;

/// The manager-independent part of one property's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A reachable subspace.
    Reach { dim: usize, converged: bool },
    /// An invariant verdict and the reachable subspace behind it.
    Invariant {
        holds: bool,
        dim: usize,
        converged: bool,
    },
    /// An image `T(S0)`.
    Image { dim: usize },
    /// An equivalence verdict.
    Equivalence { equivalent: bool },
    /// The program returned an error.
    Error(String),
}

impl Answer {
    /// Reads the answer out of a job result.
    pub fn of(result: &Result<JobOutput, QitsError>) -> Answer {
        match result {
            Ok(JobOutput::Reachability(r)) => Answer::Reach {
                dim: r.dim,
                converged: r.converged,
            },
            Ok(JobOutput::Invariant { holds, reach }) => Answer::Invariant {
                holds: *holds,
                dim: reach.dim,
                converged: reach.converged,
            },
            Ok(JobOutput::Image(o)) => Answer::Image { dim: o.dim },
            Ok(JobOutput::Equivalence { equivalent }) => Answer::Equivalence {
                equivalent: *equivalent,
            },
            Err(e) => Answer::Error(e.to_string()),
        }
    }

    /// Whether `got` is a right answer to a property whose full answer is
    /// `self`. A violated invariant is judged on its verdict, with at most
    /// the reachable dimension: a checker may stop at the first state that
    /// escapes, before the fixpoint converges. Every other answer must
    /// match exactly.
    pub fn accepts(&self, got: &Answer) -> bool {
        match (self, got) {
            (
                Answer::Invariant {
                    holds: false,
                    dim: full,
                    ..
                },
                Answer::Invariant {
                    holds: false, dim, ..
                },
            ) => dim <= full,
            _ => self == got,
        }
    }
}

/// Attempted and failed operations. A wrong answer and an error both
/// count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one answer to `what`, checked against what it should be (see
    /// [`Answer::accepts`]); a wrong one is also reported on standard
    /// error.
    pub fn record(&mut self, what: &str, expected: &Answer, got: &Answer) {
        self.attempted += 1;
        if !expected.accepts(got) {
            self.failed += 1;
            eprintln!("qits-perfbench: {what}: expected {expected:?}, got {got:?}");
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The reachable subspace of a system, computed densely by applying every
/// Kraus branch to the vectors the previous round added.
#[derive(Debug, Clone)]
pub struct DenseReach {
    n_qubits: u32,
    basis: Vec<Vec<Cplx>>,
    rounds: usize,
}

impl DenseReach {
    /// # Panics
    ///
    /// Panics if the register is wider than [`DENSE_MAX_QUBITS`].
    pub fn of(spec: &QtsSpec) -> DenseReach {
        assert!(
            spec.n_qubits <= DENSE_MAX_QUBITS,
            "dense oracle limited to {DENSE_MAX_QUBITS} qubits"
        );
        let branches = kraus_circuits(spec);
        let mut basis = Vec::new();
        let mut frontier = Vec::new();
        for s in &spec.initial_states {
            if let Some(u) = orthonormal_residual(&basis, &sim::product_state(s)) {
                basis.push(u.clone());
                frontier.push(u);
            }
        }
        let mut rounds = 0;
        while !frontier.is_empty() {
            let mut added = Vec::new();
            for v in &frontier {
                for c in &branches {
                    if let Some(u) = orthonormal_residual(&basis, &sim::run(c, v)) {
                        basis.push(u.clone());
                        added.push(u);
                    }
                }
            }
            if !added.is_empty() {
                rounds += 1;
            }
            frontier = added;
        }
        DenseReach {
            n_qubits: spec.n_qubits,
            basis,
            rounds,
        }
    }

    /// Dimension of the reachable subspace.
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// Image computations `S <- S v T(S)` needs to prove its fixpoint: one
    /// per growth round, plus one that adds nothing unless the space is
    /// already full.
    fn needed_iterations(&self) -> usize {
        if self.dim() == 1usize << self.n_qubits {
            self.rounds
        } else {
            self.rounds + 1
        }
    }

    /// The answer of a reachability property.
    pub fn reach(&self, max_iterations: usize) -> Answer {
        Answer::Reach {
            dim: self.dim(),
            converged: self.needed_iterations() <= max_iterations,
        }
    }

    /// The answer of an invariant property over product states.
    pub fn invariant(&self, states: &[Vec<(Cplx, Cplx)>], max_iterations: usize) -> Answer {
        let mut inv: Vec<Vec<Cplx>> = Vec::new();
        for s in states {
            if let Some(u) = orthonormal_residual(&inv, &sim::product_state(s)) {
                inv.push(u);
            }
        }
        Answer::Invariant {
            holds: self
                .basis
                .iter()
                .all(|v| orthonormal_residual(&inv, v).is_none()),
            dim: self.dim(),
            converged: self.needed_iterations() <= max_iterations,
        }
    }
}

/// The family's known dimension of `T(S0)`.
pub fn known_image_dim(system: System) -> usize {
    match system {
        // S0 is one state, and a unitary image keeps the dimension.
        System::Qft(_) | System::Bv(_) | System::Ghz(_) => 1,
        // Grover's two-dimensional S0 is invariant: T(S) = S.
        System::GroverElem(_) => 2,
        // Every Kraus branch of one walk step sends |0>|0..0> to the same
        // state: the coin flip acts on |+>.
        System::Qrw(_) => 1,
        // Every syndrome outcome restores the all-zeros codeword.
        System::RepCode(_) => 1,
    }
}

/// The answer `T(S0)` of `system` should have: dense on small registers,
/// the family's known answer on large ones.
pub fn expected_image(system: System) -> Answer {
    let spec = system.spec();
    let dim = if spec.n_qubits <= DENSE_MAX_QUBITS {
        dense_image_dim(&spec)
    } else {
        known_image_dim(system)
    };
    Answer::Image { dim }
}

/// Dimension of `T(S0)`, computed densely.
pub fn dense_image_dim(spec: &QtsSpec) -> usize {
    assert!(spec.n_qubits <= DENSE_MAX_QUBITS);
    let mut basis: Vec<Vec<Cplx>> = Vec::new();
    for s in &spec.initial_states {
        let v = sim::product_state(s);
        for c in kraus_circuits(spec) {
            if let Some(u) = orthonormal_residual(&basis, &sim::run(&c, &v)) {
                basis.push(u);
            }
        }
    }
    basis.len()
}

/// Whether two circuits have exactly the same matrix, computed densely.
pub fn dense_equivalent(a: &Circuit, b: &Circuit) -> bool {
    assert!(a.n_qubits() <= DENSE_MAX_QUBITS && a.n_qubits() == b.n_qubits());
    let (ma, mb) = (sim::circuit_matrix(a), sim::circuit_matrix(b));
    ma.as_slice()
        .iter()
        .zip(mb.as_slice())
        .all(|(x, y)| x.approx_eq_with(*y, 1e-9))
}

fn kraus_circuits(spec: &QtsSpec) -> Vec<Circuit> {
    spec.operations
        .iter()
        .flat_map(|op| op.kraus_branches())
        .collect()
}

/// The normalised part of `v` orthogonal to the orthonormal `basis`, or
/// `None` when `v` lies in its span. Orthogonalises twice, so the result
/// stays orthogonal to working precision.
fn orthonormal_residual(basis: &[Vec<Cplx>], v: &[Cplx]) -> Option<Vec<Cplx>> {
    let scale = norm(v);
    if scale == 0.0 {
        return None;
    }
    let mut r = v.to_vec();
    for _ in 0..2 {
        for b in basis {
            let c = inner(b, &r);
            r = axpy_neg(&r, c, b);
        }
    }
    let left = norm(&r);
    if left <= RESIDUAL_TOLERANCE * scale {
        return None;
    }
    let k = Cplx::real(1.0 / left);
    Some(r.into_iter().map(|x| x * k).collect())
}
