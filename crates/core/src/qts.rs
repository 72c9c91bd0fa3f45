//! Quantum transition systems (Definition 2 of the paper).

use std::ops::Deref;
use std::sync::Arc;

use qits_circuit::{generators::QtsSpec, Operation};
use qits_tdd::TddManager;

use crate::error::QitsError;
use crate::subspace::Subspace;

/// The operations view of a transition system: the symbols `Sigma` and
/// their quantum operations `T_sigma`, detached from any subspace state.
///
/// Operations are circuits — they hold **no TDD edges** — so this view is
/// immutable and cheaply cloneable (the operation list is behind an
/// [`Arc`]). Cloning [`QuantumTransitionSystem::operations`] gives an
/// owned handle that outlives any borrow of the system — handy when a
/// caller wants to drive the image kernel repeatedly while the system's
/// initial subspace is also in play.
///
/// Derefs to `[Operation]`, so anything taking `&[Operation]` accepts
/// `&ops` directly.
#[derive(Debug, Clone)]
pub struct Operations {
    n_qubits: u32,
    ops: Arc<[Operation]>,
}

impl Operations {
    /// Wraps an operation list as a shareable view, validating that every
    /// operation acts on the given register and has a non-empty Kraus set.
    pub fn try_new(n_qubits: u32, operations: Vec<Operation>) -> Result<Self, QitsError> {
        for op in &operations {
            if op.n_qubits() != n_qubits {
                return Err(QitsError::RegisterMismatch {
                    expected: n_qubits,
                    found: op.n_qubits(),
                    context: format!("operation '{}'", op.label()),
                });
            }
            if op.branch_count() == 0 {
                return Err(QitsError::EmptyKrausSet {
                    label: op.label().to_string(),
                });
            }
        }
        Ok(Operations {
            n_qubits,
            ops: operations.into(),
        })
    }

    /// Wraps an operation list as a shareable view.
    ///
    /// # Panics
    ///
    /// Panics if any operation disagrees on the register width or has an
    /// empty Kraus set; [`Operations::try_new`] reports the same
    /// conditions as [`QitsError`] values instead.
    pub fn new(n_qubits: u32, operations: Vec<Operation>) -> Self {
        Self::try_new(n_qubits, operations).unwrap_or_else(|e| panic!("Operations::new: {e}"))
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Whether two handles share the same underlying operation list.
    pub fn shares_list_with(&self, other: &Operations) -> bool {
        Arc::ptr_eq(&self.ops, &other.ops)
    }
}

impl Deref for Operations {
    type Target = [Operation];

    fn deref(&self) -> &[Operation] {
        &self.ops
    }
}

/// A quantum transition system `M = (H, S0, Sigma, T)`: an `n`-qubit
/// Hilbert space, an initial subspace `S0`, and one quantum operation
/// `T_sigma` per symbol.
///
/// Internally this is two views glued together: an immutable, shareable
/// [`Operations`] handle and the initial-subspace state. Since the image
/// kernel reads its input immutably (GC never moves nodes, so nothing is
/// relocated in place), both views can be borrowed at once —
/// [`crate::Engine`] simply passes `(qts.operations(), qts.initial())`.
///
/// # Example
///
/// ```
/// use qits::QuantumTransitionSystem;
/// use qits_circuit::generators;
/// use qits_tdd::TddManager;
///
/// let mut m = TddManager::new();
/// let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(4));
/// assert_eq!(qts.n_qubits(), 4);
/// assert_eq!(qts.initial().dim(), 1);
/// assert_eq!(qts.operations().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QuantumTransitionSystem {
    operations: Operations,
    initial: Subspace,
}

impl QuantumTransitionSystem {
    /// Assembles a transition system from parts, validating register
    /// agreement (operations and initial subspace) and that the register
    /// is non-empty.
    pub fn try_new(
        n_qubits: u32,
        operations: Vec<Operation>,
        initial: Subspace,
    ) -> Result<Self, QitsError> {
        if n_qubits == 0 {
            return Err(QitsError::ZeroQubitSystem);
        }
        if initial.n_qubits() != n_qubits {
            return Err(QitsError::RegisterMismatch {
                expected: n_qubits,
                found: initial.n_qubits(),
                context: "the initial subspace".to_string(),
            });
        }
        Ok(QuantumTransitionSystem {
            operations: Operations::try_new(n_qubits, operations)?,
            initial,
        })
    }

    /// Assembles a transition system from parts.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`QuantumTransitionSystem::try_new`]
    /// reports as [`QitsError`] values (register mismatch, zero-qubit
    /// register, empty Kraus set).
    pub fn new(n_qubits: u32, operations: Vec<Operation>, initial: Subspace) -> Self {
        Self::try_new(n_qubits, operations, initial)
            .unwrap_or_else(|e| panic!("QuantumTransitionSystem::new: {e}"))
    }

    /// Builds the system of a benchmark spec, spanning the initial
    /// subspace from the spec's product states.
    pub fn try_from_spec(m: &mut TddManager, spec: &QtsSpec) -> Result<Self, QitsError> {
        let vars = Subspace::ket_vars(spec.n_qubits);
        let states: Vec<_> = spec
            .initial_states
            .iter()
            .map(|amps| m.product_ket(&vars, amps))
            .collect();
        let initial = Subspace::from_states(m, spec.n_qubits, &states);
        QuantumTransitionSystem::try_new(spec.n_qubits, spec.operations.clone(), initial)
    }

    /// Builds the system of a benchmark spec.
    ///
    /// # Panics
    ///
    /// Panics where [`QuantumTransitionSystem::try_from_spec`] errors.
    pub fn from_spec(m: &mut TddManager, spec: &QtsSpec) -> Self {
        Self::try_from_spec(m, spec)
            .unwrap_or_else(|e| panic!("QuantumTransitionSystem::from_spec: {e}"))
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.operations.n_qubits()
    }

    /// The operations `T_sigma` — the one canonical accessor. Derefs to
    /// `&[Operation]`; clone it to obtain an owned, `Arc`-shared handle
    /// that outlives any borrow of `self`.
    pub fn operations(&self) -> &Operations {
        &self.operations
    }

    /// The initial subspace `S0`.
    pub fn initial(&self) -> &Subspace {
        &self.initial
    }

    /// Mutable access to the initial subspace, for callers that replace
    /// or extend `S0` between runs.
    pub fn initial_mut(&mut self) -> &mut Subspace {
        &mut self.initial
    }
}

/// The system's long-lived edges are its initial subspace's basis and
/// projector; operations are circuits and hold no edges.
impl qits_tdd::EdgeHolder for QuantumTransitionSystem {
    fn gc_edges(&self, visit: &mut dyn FnMut(qits_tdd::Edge)) {
        self.initial.gc_edges(visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::generators;

    #[test]
    fn from_spec_spans_initial_states() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::grover(3));
        assert_eq!(qts.initial().dim(), 2); // |++-> and |11-> independent
        assert_eq!(qts.operations().len(), 1);
    }

    #[test]
    fn bitflip_spec_has_four_operations() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::bitflip_code());
        assert_eq!(qts.operations().len(), 4);
        assert_eq!(qts.initial().dim(), 3);
    }

    #[test]
    #[should_panic(expected = "register mismatch")]
    fn new_rejects_mismatched_registers() {
        let initial = Subspace::zero(2);
        let op = qits_circuit::Operation::new("op", 3);
        let _ = QuantumTransitionSystem::new(2, vec![op], initial);
    }

    #[test]
    fn try_new_reports_mismatch_as_value() {
        let initial = Subspace::zero(2);
        let op = qits_circuit::Operation::new("op", 3);
        let err = QuantumTransitionSystem::try_new(2, vec![op], initial).unwrap_err();
        assert!(matches!(
            err,
            QitsError::RegisterMismatch {
                expected: 2,
                found: 3,
                ..
            }
        ));
    }

    #[test]
    fn try_new_reports_initial_subspace_mismatch() {
        let initial = Subspace::zero(4);
        let op = qits_circuit::Operation::new("op", 2);
        let err = QuantumTransitionSystem::try_new(2, vec![op], initial).unwrap_err();
        assert!(matches!(
            err,
            QitsError::RegisterMismatch {
                expected: 2,
                found: 4,
                ..
            }
        ));
    }

    #[test]
    fn try_new_rejects_zero_qubits() {
        let err = QuantumTransitionSystem::try_new(0, Vec::new(), Subspace::zero(0)).unwrap_err();
        assert_eq!(err, QitsError::ZeroQubitSystem);
    }

    #[test]
    fn cloned_operations_handle_is_shared_not_copied() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::bitflip_code());
        let a = qts.operations().clone();
        let b = qts.operations().clone();
        assert!(a.shares_list_with(&b), "handles must share the list");
        assert!(a.shares_list_with(qts.operations()));
        assert_eq!(a.len(), 4);
        assert_eq!(a.n_qubits(), qts.n_qubits());
    }

    #[test]
    fn operations_and_initial_borrow_simultaneously() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::grover(3));
        // Both views usable at once: the image kernel's calling convention.
        let (ops, initial) = (qts.operations(), qts.initial());
        assert_eq!(ops.len(), 1);
        assert_eq!(initial.dim(), 2);
        let ops_slice: &[Operation] = ops; // deref coercion
        assert_eq!(ops_slice.len(), 1);
    }
}
