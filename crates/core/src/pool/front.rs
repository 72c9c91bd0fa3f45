//! The async submission front: completion slots, tickets, requests, and
//! the cloneable [`ServiceHandle`].
//!
//! Everything here is std-only. A [`JobTicket`] is a oneshot completion
//! slot with three consumption modes — block ([`JobTicket::join`]), poll
//! ([`JobTicket::try_join`]), or `.await` (it implements
//! [`std::future::Future`], parking the task's [`Waker`] in the slot) —
//! so the pool serves synchronous batch drivers and async executors
//! through one mechanism, without the crate depending on any runtime.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use qits_tdd::CancelToken;

use super::{Job, JobOutput, PoolStats, Shared};
use crate::error::QitsError;

// ----------------------------------------------------------------------
// Priorities.
// ----------------------------------------------------------------------

/// Scheduling class of a [`JobRequest`]. Priorities are **global across
/// shards**: a worker drains every shard's [`Priority::High`] lane before
/// touching any [`Priority::Normal`] lane, so a latency-sensitive query
/// overtakes the whole batch backlog, not just its own shard's.
/// Within one lane, jobs stay FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive: served before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Batch/backfill: served only when nothing else is queued.
    Low,
}

impl Priority {
    /// Number of queue lanes (one per variant).
    pub(crate) const LANES: usize = 3;

    /// This priority's lane index; lower scans first.
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

// ----------------------------------------------------------------------
// Requests.
// ----------------------------------------------------------------------

/// A [`Job`] plus its service envelope: priority, optional deadline, and
/// an optional caller-provided [`CancelToken`].
///
/// ```
/// use std::time::Duration;
/// use qits::serve::{JobRequest, Priority};
/// use qits::Job;
///
/// let req = JobRequest::new(Job::image())
///     .priority(Priority::High)
///     .deadline(Duration::from_millis(250));
/// ```
#[derive(Debug, Clone)]
pub struct JobRequest {
    job: Job,
    priority: Priority,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl JobRequest {
    /// A request with default envelope: [`Priority::Normal`], no
    /// deadline, a fresh private cancellation token.
    pub fn new(job: Job) -> Self {
        JobRequest {
            job,
            priority: Priority::default(),
            deadline: None,
            cancel: None,
        }
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Gives the job `budget` from submission to *start running*. A job
    /// whose deadline passes while it queues is shed at dequeue with
    /// [`QitsError::DeadlineExpired`] (and counted in
    /// [`PoolStats::jobs_expired`]); a job that starts in time runs to
    /// completion — pair a deadline with [`JobTicket::cancel`] to bound
    /// running jobs too.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a caller-owned cancellation token — share one token
    /// across many requests to cancel them as a group. Without this, the
    /// ticket's private token (see [`JobTicket::cancel`]) is created for
    /// the request.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    pub(crate) fn into_parts(self) -> (Job, Priority, Option<Duration>, CancelToken) {
        let cancel = self.cancel.unwrap_or_default();
        (self.job, self.priority, self.deadline, cancel)
    }
}

impl From<Job> for JobRequest {
    fn from(job: Job) -> Self {
        JobRequest::new(job)
    }
}

// ----------------------------------------------------------------------
// Completion slots and tickets.
// ----------------------------------------------------------------------

#[derive(Default)]
struct SlotState {
    result: Option<Result<JobOutput, QitsError>>,
    waker: Option<Waker>,
    taken: bool,
    completed_at: Option<Instant>,
}

/// The shared half of a oneshot: the producer (worker, or the submission
/// path itself) delivers exactly once; the consumer blocks, polls, or
/// awaits.
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
    submitted_at: Instant,
}

impl Slot {
    pub(crate) fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::default()),
            done: Condvar::new(),
            submitted_at: Instant::now(),
        })
    }

    /// Delivers the result. Idempotent: only the first delivery lands
    /// (later calls — e.g. the [`super::Task`] drop guard after a normal
    /// completion — return `false` and change nothing).
    pub(crate) fn deliver(&self, result: Result<JobOutput, QitsError>) -> bool {
        let waker = {
            let mut st = self.state.lock().unwrap();
            if st.taken || st.result.is_some() {
                return false;
            }
            st.result = Some(result);
            st.completed_at = Some(Instant::now());
            st.waker.take()
        };
        self.done.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
        true
    }
}

/// The caller's claim on one submitted job's result.
///
/// Consume it whichever way fits the caller:
///
/// * **Block**: [`JobTicket::join`] parks the thread until the result
///   lands (the original batch-driver shape).
/// * **Poll**: [`JobTicket::try_join`] returns `None` while the job is
///   in flight.
/// * **Await**: the ticket implements [`Future`]; `.await` it from any
///   executor. No runtime is bundled — the pool only stores and wakes
///   the [`Waker`].
///
/// Results stream in completion order: each ticket resolves the moment
/// *its* job finishes, independent of submission order. Dropping a
/// ticket abandons the result; the job still runs (unless
/// [`JobTicket::cancel`] was called first) and still counts in
/// [`PoolStats`].
pub struct JobTicket {
    slot: Arc<Slot>,
    cancel: CancelToken,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.slot.state.lock().unwrap();
        f.debug_struct("JobTicket")
            .field("resolved", &(st.taken || st.result.is_some()))
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

impl JobTicket {
    pub(crate) fn new(slot: Arc<Slot>, cancel: CancelToken) -> JobTicket {
        JobTicket { slot, cancel }
    }

    /// A ticket already resolved to `Err(error)` — how the infallible
    /// [`super::EnginePool::submit`] surfaces an admission refusal.
    pub(crate) fn failed(error: QitsError) -> JobTicket {
        let slot = Slot::new();
        slot.deliver(Err(error));
        JobTicket::new(slot, CancelToken::new())
    }

    /// Blocks until the job's result lands and returns it.
    pub fn join(self) -> Result<JobOutput, QitsError> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            if let Some(r) = st.result.take() {
                st.taken = true;
                return r;
            }
            if st.taken {
                // Unreachable through the public API (join consumes the
                // ticket), kept as a typed failure rather than a hang.
                return Err(QitsError::JobFailure {
                    detail: "the job's result was already taken".to_string(),
                });
            }
            st = self.slot.done.wait(st).unwrap();
        }
    }

    /// Returns the result if the job has finished, `None` while it is
    /// still queued or running. Never blocks.
    pub fn try_join(&mut self) -> Option<Result<JobOutput, QitsError>> {
        let mut st = self.slot.state.lock().unwrap();
        let r = st.result.take();
        if r.is_some() {
            st.taken = true;
        }
        r
    }

    /// Trips the job's cancellation token. Queued jobs are shed at
    /// dequeue; a running job unwinds at its next cancellation poll. Either
    /// way the ticket resolves with [`QitsError::Cancelled`] — a job
    /// that already completed keeps its result.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The job's cancellation token (clone it to cancel from elsewhere).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Submission-to-completion latency, once the job has finished
    /// (`None` while in flight). Measured by the pool, memo fast-path
    /// completions included — this is what the soak harness records.
    pub fn latency(&self) -> Option<Duration> {
        let st = self.slot.state.lock().unwrap();
        st.completed_at
            .map(|t| t.duration_since(self.slot.submitted_at))
    }
}

impl Future for JobTicket {
    type Output = Result<JobOutput, QitsError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.slot.state.lock().unwrap();
        if let Some(r) = st.result.take() {
            st.taken = true;
            return Poll::Ready(r);
        }
        if st.taken {
            panic!("JobTicket polled after completion");
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

// ----------------------------------------------------------------------
// The service handle.
// ----------------------------------------------------------------------

/// A cloneable, `Send + Sync` submission front onto an
/// [`super::EnginePool`], obtained from [`super::EnginePool::handle`].
///
/// Hand clones to async tasks, other threads, or a protocol front (see
/// [`super::proto`]): each clone submits jobs, reads live stats, and
/// never blocks on the workers. Handles are *observers* of the pool's
/// lifetime, not owners — they do not keep workers alive, and after the
/// pool shuts down every submission fails cleanly with a
/// [`QitsError::JobFailure`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("workers", &self.shared.worker_count())
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    pub(crate) fn new(shared: Arc<Shared>) -> ServiceHandle {
        ServiceHandle { shared }
    }

    /// Admits one request ([`Job`] or [`JobRequest`]) or refuses it,
    /// without blocking: [`QitsError::QueueFull`] when the bounded queue
    /// is at depth, a [`QitsError::JobFailure`] after shutdown. On
    /// success the job is queued (or already complete, on a memo hit)
    /// and the ticket will resolve.
    pub fn try_submit(&self, req: impl Into<JobRequest>) -> Result<JobTicket, QitsError> {
        self.shared.try_submit(req.into())
    }

    /// Submits one job at [`Priority::Normal`]; an admission refusal
    /// resolves the returned ticket instead of erroring (the infallible
    /// convenience shape — prefer [`ServiceHandle::try_submit`] when the
    /// caller wants to react to backpressure).
    pub fn submit(&self, job: Job) -> JobTicket {
        match self.try_submit(job) {
            Ok(t) => t,
            Err(e) => JobTicket::failed(e),
        }
    }

    /// A live snapshot of the pool's aggregated statistics — same data
    /// as [`super::EnginePool::stats`], available to any handle holder.
    pub fn stats(&self) -> PoolStats {
        self.shared.stats_snapshot()
    }

    /// Number of worker threads behind this handle.
    pub fn workers(&self) -> usize {
        self.shared.worker_count()
    }

    /// Spills the pool's result memo to a snapshot file (written
    /// atomically: temp sibling, then rename) stamped with the pool's
    /// spec fingerprint, and returns how many entries were written. A
    /// pool without a memo writes a valid, empty snapshot — still useful
    /// as a fingerprint-checked marker.
    ///
    /// The file is a plain [`crate::store::Snapshot`], so it round-trips
    /// through [`ServiceHandle::load_snapshot`],
    /// [`super::PoolBuilder::warm_start`], and the `qits serve` `save` /
    /// `load` protocol ops interchangeably.
    pub fn save_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        label: &str,
    ) -> Result<usize, QitsError> {
        let mut snap = crate::store::Snapshot::new(label);
        snap.spec_fingerprint = Some(self.shared.spec_fingerprint);
        if let Some(memo) = &self.shared.memo {
            snap.memo = crate::store::spill_memo(memo);
        }
        let entries = snap.memo.len();
        snap.write_to(path)?;
        Ok(entries)
    }

    /// Preloads a snapshot's memo entries into the running pool's memo
    /// (as **warm** entries — their hits count in
    /// [`super::MemoStats::warm_hits`]) and returns how many were
    /// loaded. The snapshot's spec fingerprint (when recorded) must
    /// match this pool's, else [`QitsError::StoreSpecMismatch`]; a
    /// snapshot carrying entries into a pool with no memo configured is
    /// [`QitsError::StoreMemoUnavailable`].
    pub fn load_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<usize, QitsError> {
        let snap = crate::store::Snapshot::read_from(path)?;
        if let Some(found) = snap.spec_fingerprint {
            let expected = self.shared.spec_fingerprint;
            if found != expected {
                return Err(QitsError::StoreSpecMismatch { expected, found });
            }
        }
        if snap.memo.is_empty() {
            return Ok(0);
        }
        match &self.shared.memo {
            Some(memo) => crate::store::preload_memo(memo, &snap.memo),
            None => Err(QitsError::StoreMemoUnavailable),
        }
    }
}
