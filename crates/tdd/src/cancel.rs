//! Cooperative cancellation for long-running diagram operations.
//!
//! A fixpoint computation (reachability, equivalence) can run for a long
//! time between top-level calls, but it polls for cancellation
//! ([`crate::TddManager::poll_cancel`]) at its natural breakpoints: between
//! addition slices and contraction blocks, after every Gram–Schmidt
//! residual and miter tensor, and between fixpoint iterations. The owner
//! of a computation hands a clone of a [`CancelToken`] to whoever may want
//! to stop it, installs it on the manager
//! ([`crate::TddManager::set_cancel_token`]), and every poll checks the
//! flag. A tripped token unwinds the
//! operation with a typed [`OperationCancelled`] panic payload — the same
//! mechanism [`crate::ArenaExhausted`] uses — which session facades catch
//! at the operation boundary and convert into their fallible API's error.
//!
//! Polls are counted ([`CancelToken::polls`]) so tests can *prove* early
//! exit: a cancelled run observes strictly fewer polls than a complete
//! one. [`CancelToken::cancel_after`] trips the token deterministically on
//! the n-th poll, independent of thread timing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Panic payload thrown by [`crate::TddManager::poll_cancel`] when the
/// installed [`CancelToken`] has been tripped.
///
/// Like [`crate::ArenaExhausted`], cancellation is not recoverable
/// *inside* a recursive diagram operation — there is no partial result to
/// return — so it unwinds as a typed payload that the session facade
/// (`qits`'s `Engine`) catches at the operation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperationCancelled {
    /// Polls the token had seen when it fired.
    pub polls: u64,
}

impl std::fmt::Display for OperationCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "operation cancelled after {} safepoint polls",
            self.polls
        )
    }
}

/// Shared cancellation flag polled by [`crate::TddManager::poll_cancel`].
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag: the submitter keeps one clone to call [`CancelToken::cancel`],
/// the worker installs another on its manager. Once tripped a token stays
/// tripped — tokens are single-use by design, one per job.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    polls: AtomicU64,
    /// Trip automatically when `polls` reaches this count (0 = never).
    /// Lets tests cancel at a deterministic point in the computation
    /// instead of racing a wall-clock timer against the worker.
    trip_at: AtomicU64,
}

impl CancelToken {
    /// A fresh, un-tripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips itself on the `n`-th poll (1-based).
    /// `cancel_after(0)` is equivalent to an already-cancelled token.
    pub fn cancel_after(n: u64) -> Self {
        let token = Self::new();
        if n == 0 {
            token.cancel();
        } else {
            token.inner.trip_at.store(n, Ordering::Relaxed);
        }
        token
    }

    /// Trips the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped (without counting a poll).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Polls observed so far (across every clone).
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// Records one poll and reports whether the computation
    /// should unwind. Called by the manager; user code normally has no
    /// reason to invoke this directly.
    pub fn poll(&self) -> bool {
        let seen = self.inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
        let trip_at = self.inner.trip_at.load(Ordering::Relaxed);
        if trip_at != 0 && seen >= trip_at {
            self.cancel();
        }
        self.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn poll_counts_and_trips_deterministically() {
        let t = CancelToken::cancel_after(3);
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(t.poll());
        assert_eq!(t.polls(), 3);
        // Stays tripped.
        assert!(t.poll());
    }

    #[test]
    fn cancel_after_zero_is_pre_cancelled() {
        let t = CancelToken::cancel_after(0);
        assert!(t.is_cancelled());
        assert!(t.poll());
    }
}
