//! The crate's typed error: failures are values, not panics.
//!
//! Every public entry point that can fail — [`crate::Engine`]'s methods
//! and the kernels they wrap ([`crate::try_image`],
//! [`crate::mc::try_reachable_space`], [`crate::mc::try_check_invariant`],
//! the `try_*` equivalence checkers) — returns `Result<_, QitsError>`, and
//! detects its conditions in **release builds** too.

use std::fmt;

/// Everything that can go wrong when driving image computation through
/// the public API.
///
/// The variants mirror the validation points of the paper's machinery:
/// register agreement between operations and subspaces (Definition 2
/// requires every `T_sigma` to act on the system's Hilbert space), Kraus
/// sets being non-empty (a quantum operation has at least one operator),
/// and slice counts staying addressable — plus the session, serving and
/// snapshot failures layered on top.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QitsError {
    /// An operation or state acts on a different register width than the
    /// system it was handed to.
    RegisterMismatch {
        /// Register width of the system (qubits).
        expected: u32,
        /// Register width actually found.
        found: u32,
        /// What carried the mismatched width (operation label, input
        /// subspace, ...).
        context: String,
    },
    /// The transition system has no operations, so no image exists.
    EmptyOperationSet,
    /// An operation's Kraus set is empty — not a quantum operation.
    EmptyKrausSet {
        /// Label of the offending operation.
        label: String,
    },
    /// A system on zero qubits has no state space to compute images in.
    ZeroQubitSystem,
    /// A partition parameter would index more than `usize::BITS` worth of
    /// slices/states: `2^bits` overflows the machine word.
    DimensionOverflow {
        /// The bit count that overflowed (e.g. the addition partition's
        /// `k`).
        bits: u32,
    },
    /// The manager's node store hit its configured capacity
    /// ([`qits_tdd::TddManager::set_node_capacity`]) and collection freed
    /// nothing. The computation that hit the bound is abandoned (there is
    /// no partial diagram to return) but the session and everything built
    /// before the call remain valid.
    ArenaExhausted {
        /// Slots allocated when the store filled (terminal included).
        allocated: usize,
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// A job submitted to an [`crate::EnginePool`] panicked inside its
    /// worker, or its worker died before delivering a result. The failure
    /// is isolated to the one job: the worker rebuilds its engine from the
    /// pool spec and keeps serving, so the pool is never poisoned.
    JobFailure {
        /// The job's panic message, when it carried one.
        detail: String,
    },
    /// Admission refused: the pool's bounded queue (see
    /// [`crate::PoolBuilder::queue_depth`]) already holds `depth` pending
    /// jobs. This is backpressure, not failure — nothing was enqueued;
    /// retry after draining a ticket or shed the request.
    QueueFull {
        /// The configured admission bound that was hit.
        depth: usize,
    },
    /// The job's [`qits_tdd::CancelToken`] was tripped: either before a
    /// worker picked the job up (shed at dequeue) or mid-run, in which
    /// case the computation unwound at the next GC safepoint (see
    /// [`qits_tdd::cancel`]). The worker session survives unpoisoned.
    Cancelled,
    /// The job's deadline passed before a worker started it, so it was
    /// shed at dequeue without running.
    DeadlineExpired,
    /// A snapshot file could not be read or written.
    StoreIo {
        /// The path involved.
        path: String,
        /// The OS-level detail.
        detail: String,
    },
    /// A snapshot file failed validation: bad magic, failed checksum,
    /// truncation, or a malformed payload. The file is rejected whole —
    /// there is no partial restore.
    StoreCorrupt {
        /// What exactly failed to parse or verify.
        detail: String,
    },
    /// A snapshot file carries a format version this build does not
    /// speak. Older readers refuse newer files rather than misparse them.
    StoreVersion {
        /// The version found in the file header.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// A snapshot was produced by a different engine spec than the one
    /// trying to warm-start from it, so its subspaces and memo entries
    /// describe a different system.
    StoreSpecMismatch {
        /// Fingerprint of the spec doing the loading.
        expected: u128,
        /// Fingerprint recorded in the snapshot.
        found: u128,
    },
    /// A snapshot's memo entries could not be preloaded because the pool
    /// was built without a result memo (see
    /// [`crate::PoolBuilder::memo_capacity`]).
    StoreMemoUnavailable,
}

impl fmt::Display for QitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QitsError::RegisterMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "register mismatch: {context} is on {found} qubit(s), \
                 the system on {expected}"
            ),
            QitsError::EmptyOperationSet => {
                write!(f, "the transition system has no operations")
            }
            QitsError::EmptyKrausSet { label } => {
                write!(f, "operation '{label}' has an empty Kraus set")
            }
            QitsError::ZeroQubitSystem => {
                write!(f, "a zero-qubit system has no state space")
            }
            QitsError::DimensionOverflow { bits } => {
                write!(
                    f,
                    "2^{bits} overflows the machine word (dimension overflow)"
                )
            }
            QitsError::ArenaExhausted {
                allocated,
                capacity,
            } => {
                write!(
                    f,
                    "node arena exhausted: {allocated} slots allocated of capacity {capacity}"
                )
            }
            QitsError::JobFailure { detail } => {
                write!(f, "a pool job failed in its worker: {detail}")
            }
            QitsError::QueueFull { depth } => {
                write!(f, "the pool queue is full ({depth} jobs pending)")
            }
            QitsError::Cancelled => {
                write!(f, "the job was cancelled")
            }
            QitsError::DeadlineExpired => {
                write!(f, "the job's deadline expired before it ran")
            }
            QitsError::StoreIo { path, detail } => {
                write!(f, "snapshot i/o failed for '{path}': {detail}")
            }
            QitsError::StoreCorrupt { detail } => {
                write!(f, "snapshot rejected as corrupt: {detail}")
            }
            QitsError::StoreVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} is newer than this \
                     build supports (max {supported})"
                )
            }
            QitsError::StoreSpecMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot spec fingerprint {found:#034x} does not match \
                     this engine's {expected:#034x}"
                )
            }
            QitsError::StoreMemoUnavailable => {
                write!(
                    f,
                    "snapshot carries memo entries but the pool has no \
                     result memo to preload them into"
                )
            }
        }
    }
}

impl std::error::Error for QitsError {}

impl From<qits_store::StoreError> for QitsError {
    fn from(e: qits_store::StoreError) -> Self {
        use qits_store::StoreError;
        match e {
            StoreError::Io { path, detail } => QitsError::StoreIo { path, detail },
            StoreError::UnsupportedVersion { found, supported } => {
                QitsError::StoreVersion { found, supported }
            }
            other => QitsError::StoreCorrupt {
                detail: other.to_string(),
            },
        }
    }
}

impl From<qits_tdd::DumpError> for QitsError {
    fn from(e: qits_tdd::DumpError) -> Self {
        QitsError::StoreCorrupt {
            detail: e.to_string(),
        }
    }
}

/// Extracts a human-readable message from a pool job's panic payload.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked without a message".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(QitsError, &str)> = vec![
            (
                QitsError::RegisterMismatch {
                    expected: 3,
                    found: 2,
                    context: "operation 'op'".into(),
                },
                "register mismatch",
            ),
            (QitsError::EmptyOperationSet, "no operations"),
            (
                QitsError::EmptyKrausSet { label: "T".into() },
                "empty Kraus set",
            ),
            (QitsError::ZeroQubitSystem, "zero-qubit"),
            (QitsError::DimensionOverflow { bits: 70 }, "2^70"),
            (
                QitsError::ArenaExhausted {
                    allocated: 64,
                    capacity: 64,
                },
                "exhausted",
            ),
            (
                QitsError::JobFailure {
                    detail: "job exploded".into(),
                },
                "job exploded",
            ),
            (QitsError::QueueFull { depth: 8 }, "8 jobs pending"),
            (QitsError::Cancelled, "cancelled"),
            (QitsError::DeadlineExpired, "deadline expired"),
            (
                QitsError::StoreIo {
                    path: "x.qsnap".into(),
                    detail: "denied".into(),
                },
                "x.qsnap",
            ),
            (
                QitsError::StoreCorrupt {
                    detail: "bad magic".into(),
                },
                "bad magic",
            ),
            (
                QitsError::StoreVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                QitsError::StoreSpecMismatch {
                    expected: 1,
                    found: 2,
                },
                "fingerprint",
            ),
            (QitsError::StoreMemoUnavailable, "memo to preload"),
        ];
        for (e, needle) in cases {
            let text = e.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
    }

    #[test]
    fn panic_detail_downcasts_both_string_kinds() {
        let a: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_detail(a.as_ref()), "static str");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_detail(b.as_ref()), "owned");
        let c: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert!(panic_detail(c.as_ref()).contains("without a message"));
    }
}
