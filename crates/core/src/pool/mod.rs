//! Serving: a fixed-size pool of worker threads, each owning a private
//! [`Engine`], fed by a **sharded, priority-laned MPMC work queue** of
//! typed jobs — with an async-capable submission front.
//!
//! The paper's image-computation kernels are embarrassingly parallel
//! across *independent queries*: distinct initial subspaces, invariants,
//! and circuit pairs share nothing but the algorithm, and quantum
//! model-checking workloads arrive naturally query-batched (many pairwise
//! equivalence or reachability questions over one system). One `Engine`
//! session on one thread therefore leaves throughput on the table twice —
//! once for every idle core, and once for every cold cache a
//! fresh-session-per-query serving model pays. [`EnginePool`] fixes both:
//!
//! * **One engine per worker.** Each worker thread owns a private
//!   [`Engine`] stamped from a shared [`EngineSpec`]; the manager-owned
//!   operation caches stay warm across the jobs that worker serves, so
//!   repeated queries over the same system reuse each other's
//!   contractions exactly as a long-lived session would. A worker's
//!   memory still follows its live set: after a job, once its arena
//!   holds more than twice the live nodes its last collection left and
//!   more than 20,000 occupied slots, it collects, keeping only its
//!   session, and restarts its caches. Each worker runs on a stack sized
//!   to the system's register.
//! * **Sharded queue, priority lanes, work stealing.** Submission
//!   round-robins jobs over one queue shard per worker; within every
//!   shard, three [`Priority`] lanes keep latency-sensitive work ahead of
//!   batch work. A worker scans lanes globally (every shard's high lane
//!   before any normal lane) and steals from its neighbours, so a batch
//!   of uneven jobs still keeps every worker busy.
//! * **An async front.** [`ServiceHandle`] (cloneable, available from any
//!   thread via [`EnginePool::handle`]) accepts [`JobRequest`]s without
//!   ever blocking on workers: [`ServiceHandle::try_submit`] either
//!   admits the job and returns a [`JobTicket`] — a oneshot completion
//!   slot the caller can block on ([`JobTicket::join`]), poll
//!   ([`JobTicket::try_join`]), or `.await` (it implements
//!   [`std::future::Future`]) — or refuses with
//!   [`QitsError::QueueFull`] when the bounded queue is at depth.
//!   Results are delivered as they land, not in submission order.
//! * **Deadlines and cancellation.** A request may carry a deadline
//!   (expired jobs are shed at dequeue, counted in
//!   [`PoolStats::jobs_expired`]) and every ticket carries a
//!   [`CancelToken`]: tripping it sheds a queued job at dequeue and
//!   unwinds a running one at its next cancellation poll (see
//!   [`qits_tdd::cancel`]), either way resolving the ticket with
//!   [`QitsError::Cancelled`].
//! * **A fleet-wide result memo.** An optional [`ResultMemo`]
//!   (per-pool via [`PoolBuilder::memo_capacity`], or one
//!   [`std::sync::Arc`] shared across pools via [`PoolBuilder::memo`])
//!   caches `Ok` results keyed by a canonical hash of the spec *and* the
//!   job payload, so identical queries — from any client, on any worker —
//!   return the cached [`JobOutput`] without re-running the fixpoint.
//!   Hit/miss/insert counters surface in [`PoolStats::memo`].
//! * **Failures are values, isolated per job.** Every result is a
//!   `Result<JobOutput, QitsError>`. A malformed job errors through the
//!   engine's fallible API; a job that *panics* inside its worker is
//!   caught, surfaced as [`QitsError::JobFailure`], and the worker
//!   rebuilds its engine from the spec and keeps serving — a poisoned job
//!   never poisons the pool.
//!
//! Everything here compiles only because the whole session stack —
//! [`qits_tdd::TddManager`], [`crate::QuantumTransitionSystem`],
//! [`crate::Subspace`], [`Engine`] — is `Send` (asserted in
//! `tests/send_bounds.rs`): workers *move* their engines onto their
//! threads; nothing is shared but the queue and the stats slots.
//!
//! ```
//! use qits::{EnginePool, EngineSpec, Job};
//! use qits_circuit::generators;
//!
//! let spec = EngineSpec::new(generators::grover(3));
//! let pool = EnginePool::builder(spec).workers(2).build().unwrap();
//! let handles = pool.submit_batch(vec![Job::image(); 4]);
//! for h in handles {
//!     let out = h.join().unwrap();
//!     assert_eq!(out.image().unwrap().dim, 2);
//! }
//! let stats = pool.shutdown();
//! assert_eq!(stats.jobs_completed, 4);
//! ```

mod front;
mod memo;
pub mod proto;

pub use front::{JobRequest, JobTicket, Priority, ServiceHandle};
pub use memo::{MemoKey, MemoStats, ResultMemo};

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use qits_circuit::generators::QtsSpec;
use qits_circuit::Circuit;
use qits_num::key::{key_of, Fnv128, KeyBits};
use qits_num::Cplx;
use qits_tdd::{CancelToken, ManagerStats};
use qits_tensor::Var;

use crate::engine::{Engine, EngineBuilder};
use crate::error::{panic_detail, QitsError};
use crate::image::{ImageStats, Strategy};
use crate::mc::ReachabilityResult;
use crate::subspace::Subspace;

use front::Slot;

/// The caller's side of one submitted job — an alias for [`JobTicket`],
/// kept under the name the original blocking API used. Obtain the result
/// with [`JobTicket::join`]; dropping the handle abandons the result (the
/// job still runs and still counts in [`PoolStats`]).
pub type JobHandle = JobTicket;

// ----------------------------------------------------------------------
// The shared engine spec.
// ----------------------------------------------------------------------

/// A cloneable, thread-shareable description of an [`Engine`] session:
/// every [`EngineBuilder`] knob plus the transition-system spec.
///
/// This is the contract between an [`EnginePool`] and its workers — the
/// pool hands every worker the same spec, each worker builds (and, after
/// a job panic, rebuilds) its private engine from it — and it doubles as
/// the differential-testing baseline: [`EngineSpec::build`] constructs
/// exactly the serial engine a pool worker runs, so "pool result equals
/// fresh-serial-engine result" is a meaningful bit-for-bit statement.
#[derive(Clone)]
pub struct EngineSpec {
    system: QtsSpec,
    tolerance: f64,
    cache_capacity: Option<usize>,
    node_capacity: Option<usize>,
    strategy: Strategy,
}

impl fmt::Debug for EngineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSpec")
            .field("system", &self.system.name)
            .field("n_qubits", &self.system.n_qubits)
            .field("tolerance", &self.tolerance)
            .field("cache_capacity", &self.cache_capacity)
            .field("node_capacity", &self.node_capacity)
            .field("strategy", &self.strategy.to_string())
            .finish()
    }
}

impl EngineSpec {
    /// A spec with the builder defaults: default tolerance and cache
    /// capacity, no node-store bound, the default [`Strategy`]
    /// (contraction, `k1 = k2 = 4`).
    pub fn new(system: QtsSpec) -> Self {
        EngineSpec {
            system,
            tolerance: qits_num::DEFAULT_TOLERANCE,
            cache_capacity: None,
            node_capacity: None,
            strategy: Strategy::default(),
        }
    }

    /// Weight tolerance of every built engine's manager.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Operation-cache bound of every built engine (`0` disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Node-store bound of every built engine (see
    /// [`EngineBuilder::node_capacity`]). A job that hits the bound fails
    /// with [`QitsError::ArenaExhausted`] — only that job; its worker and
    /// the pool keep serving.
    pub fn node_capacity(mut self, capacity: usize) -> Self {
        self.node_capacity = Some(capacity);
        self
    }

    /// Image kernel of every built engine.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The underlying transition-system spec.
    pub fn system(&self) -> &QtsSpec {
        &self.system
    }

    /// Name of the configured strategy (for logs and stats).
    pub fn strategy_name(&self) -> String {
        self.strategy.to_string()
    }

    /// A canonical 128-bit fingerprint of everything that determines this
    /// spec's results: the full transition system (operations, Kraus
    /// sets, initial amplitudes), the numeric tolerance, the capacities,
    /// and the strategy. Two
    /// specs with equal fingerprints produce interchangeable results, so
    /// this is the namespace half of every [`ResultMemo`] key — it is
    /// what keeps a fleet-wide memo from ever crossing distinct
    /// [`QtsSpec`]s. The raw bits of every field are hashed (see
    /// [`qits_num::key`]); nothing is formatted as text.
    ///
    /// Deliberately conservative: knobs that *probably* don't change
    /// results (cache and node-store sizes) are still folded in, trading memo
    /// hits across differently-configured pools for certainty.
    pub fn fingerprint(&self) -> u128 {
        key_of(self)
    }

    fn builder(&self) -> EngineBuilder {
        let mut b = EngineBuilder::new()
            .tolerance(self.tolerance)
            .strategy(self.strategy);
        if let Some(cap) = self.cache_capacity {
            b = b.cache_capacity(cap);
        }
        if let Some(cap) = self.node_capacity {
            b = b.node_capacity(cap);
        }
        b
    }

    /// Builds one serial engine from the spec — the exact session a pool
    /// worker owns, minus the pool's stats sink and its collections
    /// between jobs. Use this as the reference when differential-testing
    /// pool results.
    pub fn build(&self) -> Result<Engine, QitsError> {
        let mut engine = self.builder().build_from_spec(&self.system)?;
        engine.set_fingerprint(self.fingerprint());
        Ok(engine)
    }

    /// Builds a worker engine wired to a per-image stats sink, stamped
    /// with the fingerprint the pool computed once for all its workers.
    fn build_with_sink(
        &self,
        fingerprint: u128,
        sink: impl FnMut(&str, &ImageStats) + Send + 'static,
    ) -> Result<Engine, QitsError> {
        let mut engine = self
            .builder()
            .stats_sink(sink)
            .build_from_spec(&self.system)?;
        engine.set_fingerprint(fingerprint);
        Ok(engine)
    }
}

impl KeyBits for EngineSpec {
    fn key_bits(&self, h: &mut Fnv128) {
        let EngineSpec {
            system,
            tolerance,
            cache_capacity,
            node_capacity,
            strategy,
        } = self;
        system.key_bits(h);
        tolerance.key_bits(h);
        cache_capacity.key_bits(h);
        node_capacity.key_bits(h);
        strategy.key_bits(h);
    }
}

// ----------------------------------------------------------------------
// Jobs and their outputs.
// ----------------------------------------------------------------------

/// A typed unit of work for an [`EnginePool`].
///
/// Jobs are **manager-independent by construction**: TDD edges only mean
/// something relative to the manager that made them, so a job describes
/// its inputs abstractly (product-state amplitude rows, circuits) and the
/// worker materialises them on its own manager. That is what lets one
/// `Job` value run identically on any worker — or on a fresh serial
/// engine, which is how the differential suite checks the pool.
#[derive(Debug, Clone)]
pub enum Job {
    /// Compute `T(S0)`, the image of the system's initial subspace, with
    /// the worker's session strategy.
    Image {
        /// Also evaluate every output basis ket densely (all `2^n`
        /// amplitudes, qubit 0 as the most significant bit) into
        /// [`ImageOutcome::amplitudes`] — the manager-independent
        /// representation differential tests compare bit-for-bit. Leave
        /// `false` for throughput workloads; the dense pass costs
        /// `O(dim * 2^n)`. An answer of more than `2^20` amplitudes
        /// (`dim · 2^n`) is refused with [`QitsError::DimensionOverflow`]
        /// before any is evaluated.
        densify: bool,
    },
    /// Compute the reachable subspace by fixpoint iteration.
    Reachability {
        /// Iteration bound handed to [`Engine::reachable_space`].
        max_iterations: usize,
    },
    /// Check the safety property "every reachable state stays inside the
    /// subspace spanned by `states`".
    Invariant {
        /// Register width the invariant claims to live on. If it differs
        /// from the system's, the job fails cleanly with
        /// [`QitsError::RegisterMismatch`] — the canonical malformed job.
        n_qubits: u32,
        /// Product states spanning the invariant, one `(alpha, beta)`
        /// amplitude pair per qubit per state (the [`QtsSpec`]
        /// convention). A row whose length differs from `n_qubits` fails
        /// the job with [`QitsError::RegisterMismatch`].
        states: Vec<Vec<(Cplx, Cplx)>>,
        /// Iteration bound for the underlying reachability run.
        max_iterations: usize,
    },
    /// Decide whether two circuits implement the same operator.
    Equivalence {
        /// First circuit.
        a: Circuit,
        /// Second circuit.
        b: Circuit,
        /// Compare up to global phase instead of exactly.
        up_to_phase: bool,
    },
}

impl Job {
    /// An image job without the dense snapshot (the throughput shape).
    pub fn image() -> Job {
        Job::Image { densify: false }
    }

    /// A reachability job.
    pub fn reachability(max_iterations: usize) -> Job {
        Job::Reachability { max_iterations }
    }

    /// An invariant job over product states on `n_qubits` wires.
    pub fn invariant(n_qubits: u32, states: Vec<Vec<(Cplx, Cplx)>>, max_iterations: usize) -> Job {
        Job::Invariant {
            n_qubits,
            states,
            max_iterations,
        }
    }

    /// An exact-equivalence job.
    pub fn equivalence(a: Circuit, b: Circuit) -> Job {
        Job::Equivalence {
            a,
            b,
            up_to_phase: false,
        }
    }
}

impl KeyBits for Job {
    /// A tag per variant, then every field's raw bits: the job half of a
    /// [`MemoKey`].
    fn key_bits(&self, h: &mut Fnv128) {
        match self {
            Job::Image { densify } => {
                0u8.key_bits(h);
                densify.key_bits(h);
            }
            Job::Reachability { max_iterations } => {
                1u8.key_bits(h);
                max_iterations.key_bits(h);
            }
            Job::Invariant {
                n_qubits,
                states,
                max_iterations,
            } => {
                2u8.key_bits(h);
                n_qubits.key_bits(h);
                states.key_bits(h);
                max_iterations.key_bits(h);
            }
            Job::Equivalence { a, b, up_to_phase } => {
                3u8.key_bits(h);
                a.key_bits(h);
                b.key_bits(h);
                up_to_phase.key_bits(h);
            }
        }
    }
}

/// Result of an image job.
#[derive(Debug, Clone)]
pub struct ImageOutcome {
    /// Dimension of the computed image.
    pub dim: usize,
    /// Dense amplitudes of every output basis ket (empty unless the job
    /// asked to densify): `amplitudes[i][b]` is basis vector `i` at
    /// computational-basis index `b`, qubit 0 most significant.
    pub amplitudes: Vec<Vec<Cplx>>,
    /// The kernel's measurements.
    pub stats: ImageStats,
}

/// Manager-independent summary of a reachability run (the
/// [`ReachabilityResult`] minus its subspace, which lives on the worker's
/// private manager and cannot leave it).
#[derive(Debug, Clone)]
pub struct ReachOutcome {
    /// Dimension of the reachable subspace.
    pub dim: usize,
    /// The iterations of the answer: how many images a fresh run from
    /// `S0` computes under the job's bound (see
    /// [`ReachabilityResult::iterations`]).
    pub iterations: usize,
    /// Whether the fixpoint was reached.
    pub converged: bool,
    /// The images this job computed, one per iteration it ran: empty when
    /// the worker read the answer off its session's chain.
    pub stats: Vec<ImageStats>,
}

impl From<ReachabilityResult> for ReachOutcome {
    fn from(r: ReachabilityResult) -> Self {
        ReachOutcome {
            dim: r.space.dim(),
            iterations: r.iterations,
            converged: r.converged,
            stats: r.stats,
        }
    }
}

/// What a completed job returns, one variant per [`Job`] variant.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// From [`Job::Image`]. Boxed: the outcome carries full [`ImageStats`],
    /// which would otherwise dwarf the other variants.
    Image(Box<ImageOutcome>),
    /// From [`Job::Reachability`].
    Reachability(ReachOutcome),
    /// From [`Job::Invariant`].
    Invariant {
        /// Whether every reachable state stays inside the invariant.
        holds: bool,
        /// The witnessing reachability run.
        reach: ReachOutcome,
    },
    /// From [`Job::Equivalence`].
    Equivalence {
        /// The verdict.
        equivalent: bool,
    },
}

impl JobOutput {
    /// The image outcome, if this was an image job.
    pub fn image(&self) -> Option<&ImageOutcome> {
        match self {
            JobOutput::Image(o) => Some(o),
            _ => None,
        }
    }

    /// The reachability outcome, if this was a reachability job.
    pub fn reachability(&self) -> Option<&ReachOutcome> {
        match self {
            JobOutput::Reachability(o) => Some(o),
            _ => None,
        }
    }

    /// The invariant verdict, if this was an invariant job.
    pub fn invariant_holds(&self) -> Option<bool> {
        match self {
            JobOutput::Invariant { holds, .. } => Some(*holds),
            _ => None,
        }
    }

    /// The equivalence verdict, if this was an equivalence job.
    pub fn equivalent(&self) -> Option<bool> {
        match self {
            JobOutput::Equivalence { equivalent } => Some(*equivalent),
            _ => None,
        }
    }
}

/// Runs one job on an engine — the single semantics shared by pool
/// workers and the serial baseline. Public so differential tests can run
/// the *same function* on a fresh [`EngineSpec::build`] session and
/// compare outputs with the pool's, bit for bit.
pub fn run_job(engine: &mut Engine, job: &Job) -> Result<JobOutput, QitsError> {
    match job {
        Job::Image { densify } => {
            let (img, stats) = engine.image()?;
            let amplitudes = if *densify {
                densify_basis(engine, &img)?
            } else {
                Vec::new()
            };
            Ok(JobOutput::Image(Box::new(ImageOutcome {
                dim: img.dim(),
                amplitudes,
                stats,
            })))
        }
        Job::Reachability { max_iterations } => {
            let r = engine.reachable_space(*max_iterations)?;
            Ok(JobOutput::Reachability(r.into()))
        }
        Job::Invariant {
            n_qubits,
            states,
            max_iterations,
        } => {
            // The invariant lives on the system's register: a claimed
            // width or a row of another width is a RegisterMismatch.
            if *n_qubits != engine.n_qubits() {
                return Err(QitsError::RegisterMismatch {
                    expected: engine.n_qubits(),
                    found: *n_qubits,
                    context: "the invariant subspace".to_string(),
                });
            }
            let inv = engine.subspace_from_product_states(states)?;
            let (holds, r) = engine.check_invariant(&inv, *max_iterations)?;
            Ok(JobOutput::Invariant {
                holds,
                reach: r.into(),
            })
        }
        Job::Equivalence { a, b, up_to_phase } => {
            let equivalent = if *up_to_phase {
                engine.equivalent_up_to_phase(a, b)?
            } else {
                engine.equivalent(a, b)?
            };
            Ok(JobOutput::Equivalence { equivalent })
        }
    }
}

/// The most amplitudes a densified image answer holds, as a power of two:
/// `dim · 2^n <= 2^20` (16 MiB of [`Cplx`]). See [`Job::Image::densify`].
const DENSE_AMPLITUDE_BITS: u32 = 20;

/// Evaluates every basis ket of a subspace densely; see
/// [`Job::Image::densify`] for the index convention and the size bound.
fn densify_basis(engine: &mut Engine, img: &Subspace) -> Result<Vec<Vec<Cplx>>, QitsError> {
    let n = img.n_qubits();
    // The answer holds dim · 2^n amplitudes, more than 2^20 exactly when
    // n + ⌈log2 dim⌉ > 20: refuse it before anything is allocated.
    let bits = n.saturating_add(img.dim().next_power_of_two().trailing_zeros());
    if img.dim() > 0 && bits > DENSE_AMPLITUDE_BITS {
        return Err(QitsError::DimensionOverflow { bits });
    }
    let vars = Subspace::ket_vars(n);
    let mut rows = Vec::with_capacity(img.dim());
    for &ket in img.basis() {
        // A ket exists, so the bound above holds n <= 20.
        let dim = 1usize << n;
        let mut row = Vec::with_capacity(dim);
        for b in 0..dim {
            let asn: BTreeMap<Var, bool> = vars
                .iter()
                .enumerate()
                .map(|(q, &v)| (v, (b >> (n as usize - 1 - q)) & 1 == 1))
                .collect();
            row.push(engine.manager().eval(ket, &asn));
        }
        rows.push(row);
    }
    Ok(rows)
}

// ----------------------------------------------------------------------
// Stats.
// ----------------------------------------------------------------------

/// Per-worker counters, snapshotted after every job that worker serves.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Jobs this worker finished with `Ok` (memo hits it served included).
    pub jobs_completed: u64,
    /// Jobs this worker finished with `Err` (malformed jobs and isolated
    /// panics alike; cancelled and deadline-shed jobs count separately).
    pub jobs_failed: u64,
    /// Jobs this worker shed or unwound because their [`CancelToken`]
    /// tripped.
    pub jobs_cancelled: u64,
    /// Jobs this worker shed at dequeue because their deadline had passed.
    pub jobs_expired: u64,
    /// Image computations this worker ran (the fixpoint iterations it
    /// computed included, not those read off its chain), counted through
    /// the engine's stats sink.
    pub images: u64,
    /// Those image computations' stats, [`ImageStats::absorb`]-merged.
    pub image: ImageStats,
    /// The worker manager's lifetime counters as of its last finished job
    /// and the collection after it, if one ran (polls, reclaim,
    /// cache movement; `peak_arena`, `gc_runs` and `nodes_reclaimed`
    /// track the worker's memory).
    pub manager: ManagerStats,
}

/// Aggregated pool statistics: the per-worker breakdown plus fleet
/// totals, where every total is the [`ManagerStats::absorb`] /
/// [`ImageStats::absorb`] sum of the per-worker rows — the invariant the
/// stats test suite pins down.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// One row per worker, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Jobs accepted by the pool so far (admission-refused jobs are not
    /// accepted and count in [`PoolStats::jobs_rejected`] instead).
    pub jobs_submitted: u64,
    /// Jobs finished with `Ok`: the per-worker sums plus jobs completed
    /// straight from the memo at submission, which never reach a worker.
    pub jobs_completed: u64,
    /// Jobs finished with `Err` across all workers (cancelled and
    /// deadline-shed jobs count separately).
    pub jobs_failed: u64,
    /// Jobs refused at submission because the bounded queue was at depth
    /// ([`QitsError::QueueFull`]).
    pub jobs_rejected: u64,
    /// Jobs resolved with [`QitsError::Cancelled`] — shed at dequeue or
    /// unwound mid-run at a cancellation poll.
    pub jobs_cancelled: u64,
    /// Jobs shed at dequeue with [`QitsError::DeadlineExpired`].
    pub jobs_expired: u64,
    /// Jobs currently queued (not yet picked up by a worker).
    pub queue_depth: usize,
    /// The result memo's counters (all zero when no memo is configured).
    /// A shared memo reports its fleet-wide totals, not per-pool ones.
    pub memo: MemoStats,
    /// Total image computations across all workers.
    pub images: u64,
    /// All workers' image stats, absorbed: counters sum, peaks max, and —
    /// because worker arenas are disjoint — the end-of-run snapshot
    /// fields (`output_dim`, `live_nodes`, `allocated_nodes`) are **sums
    /// of the per-worker rows** (each row's snapshot is that worker's
    /// last image), matching how [`ManagerStats::absorb`] treats
    /// `live_after_last_gc`.
    pub image: ImageStats,
    /// All workers' manager counters, absorbed (counters sum, peaks max).
    pub manager: ManagerStats,
}

impl PoolStats {
    fn aggregate(
        workers: Vec<WorkerStats>,
        jobs_submitted: u64,
        queue_depth: usize,
        jobs_rejected: u64,
        memo_completed: u64,
        memo: MemoStats,
    ) -> PoolStats {
        let mut jobs_completed = memo_completed;
        let mut jobs_failed = 0;
        let mut jobs_cancelled = 0;
        let mut jobs_expired = 0;
        let mut images = 0;
        let mut image = ImageStats::default();
        let mut manager = ManagerStats::default();
        for w in &workers {
            jobs_completed += w.jobs_completed;
            jobs_failed += w.jobs_failed;
            jobs_cancelled += w.jobs_cancelled;
            jobs_expired += w.jobs_expired;
            images += w.images;
            image.absorb(&w.image);
            manager.absorb(&w.manager);
        }
        // `ImageStats::absorb`'s take-the-later rule for snapshot fields
        // is right for a sequential per-worker rollup but not across
        // disjoint worker arenas: there, the fleet figure is the sum of
        // each worker's latest snapshot.
        image.output_dim = workers.iter().map(|w| w.image.output_dim).sum();
        image.live_nodes = workers.iter().map(|w| w.image.live_nodes).sum();
        image.allocated_nodes = workers.iter().map(|w| w.image.allocated_nodes).sum();
        PoolStats {
            workers,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_rejected,
            jobs_cancelled,
            jobs_expired,
            queue_depth,
            memo,
            images,
            image,
            manager,
        }
    }
}

/// Callback receiving the final [`PoolStats`] when the pool shuts down.
pub type PoolStatsSink = Arc<dyn Fn(&PoolStats) + Send + Sync>;

// ----------------------------------------------------------------------
// The queue.
// ----------------------------------------------------------------------

/// One admitted job riding the queue: the payload plus its completion
/// slot, cancellation token, absolute deadline, and (when a memo is
/// configured) its memo key.
pub(crate) struct Task {
    job: Job,
    slot: Arc<Slot>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    memo_key: Option<MemoKey>,
}

impl Drop for Task {
    /// Belt and braces: a task dropped without a delivery (queue drained
    /// at shutdown, worker unwound outside the per-job catch) resolves
    /// its ticket with a failure instead of leaving a joiner blocked
    /// forever. On the normal path the worker has already delivered and
    /// this is a no-op ([`Slot::deliver`] is idempotent).
    fn drop(&mut self) {
        self.slot.deliver(Err(QitsError::JobFailure {
            detail: "the pool shut down before this job could run".to_string(),
        }));
    }
}

#[derive(Default)]
struct QueueState {
    /// Tasks enqueued and not yet popped. Incremented *before* the shard
    /// push so a concurrent pop can never underflow it; the worker side
    /// uses a saturating decrement and re-checks the shards on wakeup.
    pending: usize,
    shutdown: bool,
}

pub(crate) struct Shared {
    /// One shard per worker; each shard holds one FIFO lane per
    /// [`Priority`].
    shards: Vec<Mutex<[VecDeque<Task>; Priority::LANES]>>,
    state: Mutex<QueueState>,
    available: Condvar,
    workers: Vec<Mutex<WorkerStats>>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    /// Jobs completed straight from the memo at submission (they never
    /// reach a worker, so no worker row counts them).
    memo_completed: AtomicU64,
    next_shard: AtomicUsize,
    queue_depth: Option<usize>,
    memo: Option<Arc<ResultMemo>>,
    spec_fingerprint: u128,
    /// The snapshot every worker engine is stamped from, kept so a
    /// post-panic replacement engine is warm-started identically to the
    /// worker it replaces.
    warm_snapshot: Option<Arc<crate::store::Snapshot>>,
}

impl Shared {
    /// Admits one request or refuses it without enqueueing anything.
    /// This is the whole non-blocking submission path: memo fast-path,
    /// bounded admission, priority-lane enqueue, worker wakeup.
    pub(crate) fn try_submit(self: &Arc<Self>, req: JobRequest) -> Result<JobTicket, QitsError> {
        let (job, priority, deadline, cancel) = req.into_parts();
        let slot = Slot::new();
        let memo_key = self
            .memo
            .as_ref()
            .map(|_| MemoKey::for_job(self.spec_fingerprint, &job));
        // Memo fast path: an identical query already completed somewhere
        // in the fleet. The ticket resolves before it is even returned —
        // no queue traffic, no worker, no admission pressure.
        if let (Some(memo), Some(key)) = (&self.memo, &memo_key) {
            if let Some(out) = memo.get(key) {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                self.memo_completed.fetch_add(1, Ordering::Relaxed);
                slot.deliver(Ok(out));
                return Ok(JobTicket::new(slot, cancel));
            }
        }
        {
            let mut st = self.state.lock().unwrap();
            if st.shutdown {
                return Err(QitsError::JobFailure {
                    detail: "the pool is shut down".to_string(),
                });
            }
            if let Some(depth) = self.queue_depth {
                if st.pending >= depth {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(QitsError::QueueFull { depth });
                }
            }
            st.pending += 1;
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let deadline = deadline.and_then(|d| Instant::now().checked_add(d));
        let task = Task {
            job,
            slot: slot.clone(),
            cancel: cancel.clone(),
            deadline,
            memo_key,
        };
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().unwrap()[priority.lane()].push_back(task);
        self.available.notify_one();
        Ok(JobTicket::new(slot, cancel))
    }

    /// Pops the next task for worker `index`: lane-major (every shard's
    /// high lane before any shard's normal lane, so priority is global,
    /// not per-shard), own shard first within a lane, then stealing in
    /// ring order. `None` = drained and shut down.
    fn next_task(&self, index: usize) -> Option<Task> {
        loop {
            let n = self.shards.len();
            for lane in 0..Priority::LANES {
                for offset in 0..n {
                    let task = self.shards[(index + offset) % n].lock().unwrap()[lane].pop_front();
                    if let Some(t) = task {
                        let mut st = self.state.lock().unwrap();
                        st.pending = st.pending.saturating_sub(1);
                        return Some(t);
                    }
                }
            }
            let mut st = self.state.lock().unwrap();
            loop {
                if st.pending > 0 {
                    // Re-scan the shards; a submit may still be mid-push,
                    // in which case the outer loop comes straight back
                    // here and waits again.
                    break;
                }
                if st.shutdown {
                    return None;
                }
                st = self.available.wait(st).unwrap();
            }
        }
    }

    /// A live snapshot of the aggregated pool statistics; shared by
    /// [`EnginePool::stats`] and [`ServiceHandle::stats`].
    pub(crate) fn stats_snapshot(&self) -> PoolStats {
        let workers = self
            .workers
            .iter()
            .map(|w| w.lock().unwrap().clone())
            .collect();
        let queue_depth = self.state.lock().unwrap().pending;
        PoolStats::aggregate(
            workers,
            self.submitted.load(Ordering::Relaxed),
            queue_depth,
            self.rejected.load(Ordering::Relaxed),
            self.memo_completed.load(Ordering::Relaxed),
            self.memo.as_ref().map(|m| m.stats()).unwrap_or_default(),
        )
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

// ----------------------------------------------------------------------
// The pool.
// ----------------------------------------------------------------------

/// A fixed-size pool of [`Engine`]-owning worker threads behind a sharded
/// priority queue. See the [`crate::serve`] docs for the design and
/// [`EnginePool::builder`] to construct one; [`EnginePool::handle`] hands
/// out the cloneable async submission front.
pub struct EnginePool {
    shared: Arc<Shared>,
    spec: EngineSpec,
    handles: Vec<JoinHandle<()>>,
    sink: Option<PoolStatsSink>,
    finished: bool,
}

impl fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnginePool")
            .field("workers", &self.shared.workers.len())
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// Stack bytes a pool worker reserves per register qubit, on top of
/// [`STACK_BASE`]. The diagram recursions (addition, contraction, the
/// inner-product walk) descend about one frame per variable, so the
/// deepest stack of an engine build or a job grows with the register.
/// Measured as the smallest stack that builds an engine and answers an
/// image, reachability or equivalence job (ghz, bv and qrw, 200–4,000
/// qubits): about 840 bytes per qubit in a release build and 1,980 in a
/// debug build. These constants leave at least twice that.
const STACK_BYTES_PER_QUBIT: usize = if cfg!(debug_assertions) { 4096 } else { 2048 };

/// A worker's stack besides its register's share: std's default.
const STACK_BASE: usize = 2 << 20;

/// The stack a thread that builds and drives an engine over an
/// `n_qubits` register needs: what a pool worker spawns with, and what
/// the serial `qits run` path spawns its one thread with. The engine
/// build refuses a register wider than [`Var::MAX_POS`], so no thread
/// needs more than that width's share.
pub fn worker_stack_size(n_qubits: u32) -> usize {
    STACK_BASE + STACK_BYTES_PER_QUBIT * n_qubits.min(Var::MAX_POS) as usize
}

/// Configures and constructs an [`EnginePool`].
pub struct PoolBuilder {
    spec: EngineSpec,
    workers: usize,
    sink: Option<PoolStatsSink>,
    queue_depth: Option<usize>,
    memo: Option<Arc<ResultMemo>>,
    warm_snapshot: Option<Arc<crate::store::Snapshot>>,
}

impl PoolBuilder {
    /// Number of worker threads (clamped to at least 1). Defaults to the
    /// machine's available parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Installs a callback that receives the final aggregated
    /// [`PoolStats`] when the pool shuts down.
    pub fn stats_sink(mut self, sink: impl Fn(&PoolStats) + Send + Sync + 'static) -> Self {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Bounds the queue: once `depth` jobs are pending (queued, not yet
    /// dequeued), further submissions are refused with
    /// [`QitsError::QueueFull`] instead of growing the backlog without
    /// limit — the backpressure a latency-bound service needs. Clamped to
    /// at least 1; the default is unbounded (the original batch-serving
    /// behaviour).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth.max(1));
        self
    }

    /// Installs a **shared** result memo: pass the same
    /// [`std::sync::Arc`] to several pools (over equal or different
    /// specs) and they share one fleet-wide cache. Keys embed
    /// [`EngineSpec::fingerprint`], so pools over distinct specs share
    /// capacity but never results.
    pub fn memo(mut self, memo: Arc<ResultMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Installs a fresh pool-private result memo bounded to `capacity`
    /// entries (sugar over [`PoolBuilder::memo`]).
    pub fn memo_capacity(self, capacity: usize) -> Self {
        self.memo(Arc::new(ResultMemo::new(capacity)))
    }

    /// Warm-starts the pool from a snapshot file written by
    /// [`crate::Engine::save_snapshot`] or
    /// [`ServiceHandle::save_snapshot`]:
    ///
    /// * every worker engine (including post-panic replacements) is
    ///   stamped from the snapshot's TDD dump, so its unique table and
    ///   weight table start populated instead of cold;
    /// * the snapshot's memo entries are preloaded into the pool's
    ///   result memo as **warm** entries at [`PoolBuilder::build`] time —
    ///   their hits count in [`MemoStats::warm_hits`]. If no memo was
    ///   configured, one is created sized to hold them.
    ///
    /// The snapshot's spec fingerprint (when recorded) must match this
    /// builder's spec; a mismatch is
    /// [`QitsError::StoreSpecMismatch`] — a snapshot only ever warms the
    /// configuration that produced it.
    pub fn warm_start(mut self, path: impl AsRef<std::path::Path>) -> Result<Self, QitsError> {
        let snap = crate::store::Snapshot::read_from(path)?;
        if let Some(found) = snap.spec_fingerprint {
            let expected = self.spec.fingerprint();
            if found != expected {
                return Err(QitsError::StoreSpecMismatch { expected, found });
            }
        }
        self.warm_snapshot = Some(Arc::new(snap));
        Ok(self)
    }

    /// Builds the pool: spawns every worker on a stack sized to the
    /// system's register, and each worker builds its engine from the spec
    /// there, where the diagram recursions of every later job run too. A
    /// malformed spec is still an `Err` here: the call waits for every
    /// worker's build, and if one failed, it stops the others and returns
    /// that error.
    pub fn build(mut self) -> Result<EnginePool, QitsError> {
        let n = self.workers;
        if let Some(snap) = &self.warm_snapshot {
            if !snap.memo.is_empty() {
                let memo = self
                    .memo
                    .get_or_insert_with(|| Arc::new(ResultMemo::new(snap.memo.len().max(16))));
                crate::store::preload_memo(memo, &snap.memo)?;
            }
        }
        let shared = Arc::new(Shared {
            shards: (0..n).map(|_| Mutex::new(Default::default())).collect(),
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            workers: (0..n).map(|_| Mutex::new(WorkerStats::default())).collect(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            memo_completed: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            queue_depth: self.queue_depth,
            memo: self.memo,
            spec_fingerprint: self.spec.fingerprint(),
            warm_snapshot: self.warm_snapshot,
        });
        let stack = worker_stack_size(self.spec.system.n_qubits);
        let (built_tx, built_rx) = mpsc::channel();
        let handles = (0..n)
            .map(|index| {
                let shared = shared.clone();
                let spec = self.spec.clone();
                let built = built_tx.clone();
                std::thread::Builder::new()
                    .name(format!("qits-pool-{index}"))
                    .stack_size(stack)
                    .spawn(move || match build_worker_engine(&spec, &shared, index) {
                        Ok(engine) => {
                            let _ = built.send(Ok(()));
                            drop(built);
                            worker_main(shared, spec, index, engine);
                        }
                        Err(e) => {
                            let _ = built.send(Err(e));
                        }
                    })
                    .expect("spawning a pool worker thread")
            })
            .collect();
        drop(built_tx);
        // Every worker reports its build once and then drops its sender,
        // so this ends when the last build has finished; a worker whose
        // build panicked drops its sender without a report.
        let reports: Vec<Result<(), QitsError>> = built_rx.iter().collect();
        let mut pool = EnginePool {
            shared,
            spec: self.spec,
            handles,
            sink: None,
            finished: false,
        };
        if reports.len() < n || reports.iter().any(Result::is_err) {
            pool.finished = true;
            let panic = pool.stop_workers();
            if let Some(e) = reports.into_iter().find_map(Result::err) {
                return Err(e);
            }
            // Re-raise the build's panic here, where a build on the
            // calling thread would have raised it.
            std::panic::resume_unwind(panic.expect("a worker that sent no build report panicked"));
        }
        pool.sink = self.sink;
        Ok(pool)
    }
}

impl EnginePool {
    /// Starts configuring a pool over the given engine spec.
    pub fn builder(spec: EngineSpec) -> PoolBuilder {
        PoolBuilder {
            spec,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            sink: None,
            queue_depth: None,
            memo: None,
            warm_snapshot: None,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers.len()
    }

    /// The shared spec workers build their engines from.
    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    /// A cloneable, `Send` submission front onto this pool: hand clones
    /// to async tasks (or other threads) and they submit, poll, and read
    /// live stats without touching the pool object. Handles do not keep
    /// the workers alive — after [`EnginePool::shutdown`] a handle's
    /// submissions fail cleanly.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle::new(self.shared.clone())
    }

    /// Enqueues one job at [`Priority::Normal`] and returns its handle.
    /// Never blocks on workers. If the queue is bounded and full, the
    /// returned handle resolves to [`QitsError::QueueFull`] — use
    /// [`EnginePool::try_submit`] (or a [`ServiceHandle`]) to observe the
    /// refusal as a submission-time error instead.
    pub fn submit(&self, job: Job) -> JobHandle {
        match self.try_submit(job) {
            Ok(ticket) => ticket,
            Err(e) => JobTicket::failed(e),
        }
    }

    /// Admits one request ([`Job`] or [`JobRequest`]) or refuses it with
    /// [`QitsError::QueueFull`] / a shutdown failure, without blocking.
    pub fn try_submit(&self, req: impl Into<JobRequest>) -> Result<JobTicket, QitsError> {
        self.shared.try_submit(req.into())
    }

    /// Enqueues a batch, one handle per job, in order.
    pub fn submit_batch(&self, jobs: Vec<Job>) -> Vec<JobHandle> {
        jobs.into_iter().map(|j| self.submit(j)).collect()
    }

    /// A live snapshot of the aggregated pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.shared.stats_snapshot()
    }

    /// Shuts the pool down: **drains the queue** (every job already
    /// submitted still runs and its handle still resolves), joins every
    /// worker, reports the final stats to the configured sink, and
    /// returns them. Dropping the pool does the same, minus the return
    /// value. Idempotent: a second shutdown (however reached) just
    /// returns the stats snapshot again without re-joining or re-sinking.
    pub fn shutdown(mut self) -> PoolStats {
        self.finish()
    }

    /// Closes the queue and joins every worker, returning the payload of
    /// the first worker that panicked.
    fn stop_workers(&mut self) -> Option<Box<dyn Any + Send>> {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.available.notify_all();
        let mut panic = None;
        for h in self.handles.drain(..) {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        panic
    }

    fn finish(&mut self) -> PoolStats {
        if self.finished {
            return self.shared.stats_snapshot();
        }
        self.finished = true;
        self.stop_workers();
        // Belt and braces: if a worker died outside a job, tasks could
        // still sit in its shard. Dropping them resolves their tickets
        // with a failure (see `Task::drop`) so no joiner blocks forever.
        for shard in &self.shared.shards {
            let mut lanes = shard.lock().unwrap();
            for lane in lanes.iter_mut() {
                lane.clear();
            }
        }
        self.shared.state.lock().unwrap().pending = 0;
        let stats = self.shared.stats_snapshot();
        if let Some(sink) = &self.sink {
            sink(&stats);
        }
        stats
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Builds worker `index`'s engine, wiring its stats sink into the
/// worker's shared stats slot and warm-starting it when the pool was
/// built over a snapshot. The warm start is deterministic over the
/// immutable shared snapshot, so a post-panic rebuild that reaches this
/// path succeeds exactly as the original build did.
fn build_worker_engine(
    spec: &EngineSpec,
    shared: &Arc<Shared>,
    index: usize,
) -> Result<Engine, QitsError> {
    let slot = shared.clone();
    let mut engine = spec.build_with_sink(shared.spec_fingerprint, move |_, stats| {
        let mut w = slot.workers[index].lock().unwrap();
        w.images += 1;
        w.image.absorb(stats);
    })?;
    if let Some(snap) = &shared.warm_snapshot {
        engine.warm_start(snap)?;
    }
    Ok(engine)
}

fn worker_main(shared: Arc<Shared>, spec: EngineSpec, index: usize, mut engine: Engine) {
    // Counters of engines this worker retired after a job panic. The
    // published manager snapshot is always `retired + current engine`, so
    // fleet totals stay monotonic across rebuilds instead of resetting to
    // a fresh manager's zeros.
    let mut retired = ManagerStats::default();
    while let Some(task) = shared.next_task(index) {
        // Shed without running: a token tripped while the job queued, or
        // its deadline passed — either way the fixpoint never starts.
        if task.cancel.is_cancelled() {
            shared.workers[index].lock().unwrap().jobs_cancelled += 1;
            task.slot.deliver(Err(QitsError::Cancelled));
            continue;
        }
        if task.deadline.is_some_and(|d| Instant::now() >= d) {
            shared.workers[index].lock().unwrap().jobs_expired += 1;
            task.slot.deliver(Err(QitsError::DeadlineExpired));
            continue;
        }
        // Second memo probe, at dequeue: a duplicate submitted earlier
        // may have completed while this copy sat in the queue. Misses are
        // counted here — and only here, so a job probed at both ends
        // still counts once.
        if let (Some(memo), Some(key)) = (&shared.memo, &task.memo_key) {
            if let Some(out) = memo.get(key) {
                shared.workers[index].lock().unwrap().jobs_completed += 1;
                task.slot.deliver(Ok(out));
                continue;
            }
            memo.record_miss();
        }
        // The job's cancellation token rides the worker session for
        // exactly this job: every cancellation poll of the computation
        // checks it. Cleared on every path afterwards — the next job
        // must not inherit a tripped token.
        engine.set_cancel_token(Some(task.cancel.clone()));
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&mut engine, &task.job)));
        engine.set_cancel_token(None);
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => {
                // The panic may have unwound mid-mutation, leaving the
                // session in an unknown state: bank its counters and
                // rebuild it from the spec. The spec built every worker
                // engine once already, and building is deterministic, so
                // this cannot fail.
                retired.absorb(&engine.manager().stats());
                engine = build_worker_engine(&spec, &shared, index)
                    .expect("rebuilding a worker engine from an already-validated spec");
                Err(QitsError::JobFailure {
                    detail: panic_detail(payload.as_ref()),
                })
            }
        };
        if let (Ok(out), Some(memo), Some(key)) = (&result, &shared.memo, &task.memo_key) {
            memo.insert(*key, out);
        }
        let manager = |engine: &Engine| {
            let mut snapshot = retired;
            snapshot.absorb(&engine.manager().stats());
            snapshot
        };
        {
            let mut w = shared.workers[index].lock().unwrap();
            match &result {
                Ok(_) => w.jobs_completed += 1,
                Err(QitsError::Cancelled) => w.jobs_cancelled += 1,
                Err(_) => w.jobs_failed += 1,
            }
            w.manager = manager(&engine);
        }
        task.slot.deliver(result);
        if collect_between_jobs(&mut engine) {
            shared.workers[index].lock().unwrap().manager = manager(&engine);
        }
    }
}

/// Occupied arena slots at or below which a worker never collects
/// between jobs: a collection costs a mark over the live set and a sweep
/// over the arena, and a small arena is cheap to keep.
const COLLECT_MIN_OCCUPIED: usize = 20_000;

/// The serving-memory rule a worker applies after delivering each job:
/// once its arena holds more than twice the live nodes its last
/// collection left and more than [`COLLECT_MIN_OCCUPIED`] occupied slots,
/// it collects, keeping the system, the compiled branches and the chain
/// ([`Engine::collect`]); the collection also clears the operation caches,
/// which by then hold almost nothing but entries naming swept nodes.
/// Returns whether it collected.
///
/// Between jobs nothing else is live, so the arena shrinks to the
/// session's own state. Collecting inside a fixpoint instead, between its
/// iterations, made qrw10 and qrw12 fixpoints 1.5–1.9× slower, and
/// collecting without clearing the caches kept their arrays at full size
/// and cost serve-mixed a fifth of its throughput. The weight table is not
/// collected: recycling a weight index could silently change a scalar
/// edge held across the collection, which names no node and so is marked
/// by nothing; generational node handles do not guard it.
fn collect_between_jobs(engine: &mut Engine) -> bool {
    let m = engine.manager();
    let occupied = m.arena_occupied();
    if occupied <= COLLECT_MIN_OCCUPIED || occupied <= 2 * m.stats().live_after_last_gc {
        return false;
    }
    engine.collect(&[]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::tensorize::states;
    use qits_circuit::{generators, Control, Element, Gate, GateKind, Operation};
    use qits_num::Mat;

    fn grover_spec() -> EngineSpec {
        EngineSpec::new(generators::grover(3))
    }

    #[test]
    fn pool_serves_a_batch_of_image_jobs() {
        let pool = EnginePool::builder(grover_spec())
            .workers(2)
            .build()
            .unwrap();
        let handles = pool.submit_batch(vec![Job::image(); 6]);
        for h in handles {
            let out = h.join().unwrap();
            // Grover's initial subspace is invariant: dim 2.
            assert_eq!(out.image().unwrap().dim, 2);
        }
        let stats = pool.shutdown();
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_completed, 6);
        assert_eq!(stats.jobs_failed, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.images, 6);
    }

    #[test]
    fn arena_exhaustion_fails_the_job_not_the_pool() {
        // Clamp every worker's node store to exactly what building the
        // session uses (build is deterministic), so the first image
        // computation on any worker exhausts it.
        let probe = grover_spec().build().unwrap();
        let cap = probe.manager().arena_len();
        drop(probe);
        let pool = EnginePool::builder(grover_spec().node_capacity(cap))
            .workers(2)
            .build()
            .unwrap();
        let handles = pool.submit_batch(vec![Job::image(); 4]);
        for h in handles {
            let err = h.join().unwrap_err();
            assert!(
                matches!(err, QitsError::ArenaExhausted { .. }),
                "expected a typed exhaustion error, got {err:?}"
            );
        }
        // Every failure was a value delivered through the job's own
        // handle; the workers never died and the pool tears down cleanly.
        let stats = pool.shutdown();
        assert_eq!(stats.jobs_failed, 4);
        assert_eq!(stats.jobs_completed, 0);
    }

    #[test]
    fn malformed_spec_is_an_err_at_build_not_a_thread_death() {
        let spec = EngineSpec::new(qits_circuit::generators::QtsSpec {
            name: "empty".into(),
            n_qubits: 0,
            operations: vec![],
            initial_states: vec![],
        });
        let err = EnginePool::builder(spec).workers(2).build().unwrap_err();
        assert_eq!(err, QitsError::ZeroQubitSystem);
    }

    #[test]
    fn an_unaddressable_register_fails_the_build_on_a_bounded_stack() {
        let spec = EngineSpec::new(QtsSpec {
            name: "unaddressable".into(),
            n_qubits: u32::MAX,
            operations: vec![],
            initial_states: vec![],
        });
        assert_eq!(worker_stack_size(u32::MAX), worker_stack_size(Var::MAX_POS));
        let err = EnginePool::builder(spec).workers(2).build().unwrap_err();
        assert!(matches!(err, QitsError::RegisterTooWide { .. }), "{err:?}");
    }

    #[test]
    fn dropping_a_handle_abandons_the_result_not_the_job() {
        let pool = EnginePool::builder(grover_spec())
            .workers(1)
            .build()
            .unwrap();
        drop(pool.submit(Job::image()));
        let kept = pool.submit(Job::image());
        assert!(kept.join().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.jobs_completed, 2, "the abandoned job still ran");
    }

    #[test]
    fn try_join_polls_without_blocking() {
        let pool = EnginePool::builder(grover_spec())
            .workers(1)
            .build()
            .unwrap();
        let mut h = pool.submit(Job::image());
        loop {
            if let Some(r) = h.try_join() {
                assert!(r.is_ok());
                break;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn workers_default_is_at_least_one() {
        let pool = EnginePool::builder(grover_spec())
            .workers(0)
            .build()
            .unwrap();
        assert_eq!(pool.workers(), 1);
        assert!(pool.submit(Job::image()).join().is_ok());
    }

    #[test]
    fn spec_debug_names_the_strategy() {
        let spec = grover_spec().strategy(crate::Strategy::Basic);
        let text = format!("{spec:?}");
        assert!(text.contains("basic"), "{text}");
        assert!(text.contains("Grover3"), "{text}");
    }

    #[test]
    fn spec_fingerprint_separates_semantically_distinct_specs() {
        let a = grover_spec();
        assert_eq!(a.fingerprint(), grover_spec().fingerprint());
        let other_system = EngineSpec::new(generators::ghz(3));
        assert_ne!(a.fingerprint(), other_system.fingerprint());
        let other_tol = grover_spec().tolerance(1e-7);
        assert_ne!(a.fingerprint(), other_tol.fingerprint());
        let other_strategy = grover_spec().strategy(crate::Strategy::Basic);
        assert_ne!(a.fingerprint(), other_strategy.fingerprint());
    }

    /// A two-step spec: a controlled rotation, then a one-branch channel,
    /// from one product state.
    fn keyed_spec(gate: &Gate, kraus: Mat, amp: (Cplx, Cplx), label: &str) -> EngineSpec {
        EngineSpec::new(QtsSpec {
            name: "keyed".into(),
            n_qubits: 3,
            operations: vec![Operation::new(label, 3).then_gate(gate.clone()).then(
                Element::Channel {
                    qubit: 2,
                    kraus: vec![kraus],
                    label: "noise".into(),
                },
            )],
            initial_states: vec![vec![states::ZERO, states::ZERO, amp]],
        })
    }

    /// The next float above `x`: a change in the last bit only.
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn every_field_reaches_the_spec_and_job_keys() {
        let on = |qubit, value| Control { qubit, value };
        let rx =
            |theta, target, control| Gate::new(GateKind::Rx(theta), vec![target], vec![control]);
        let gate = rx(0.25, 1, on(0, true));
        let (alpha, beta) = states::PLUS;
        let nudged = (alpha, Cplx::new(beta.re, next_up(beta.im)));
        let mut nudged_kraus = Mat::identity(2);
        nudged_kraus[(0, 1)] = Cplx::new(0.0, f64::MIN_POSITIVE);
        let base = keyed_spec(&gate, Mat::identity(2), states::PLUS, "step");
        let fp = base.fingerprint();
        assert_eq!(
            fp,
            keyed_spec(&gate.clone(), Mat::identity(2), states::PLUS, "step").fingerprint()
        );

        let circuit = |g: &Gate| -> Circuit { [Gate::h(0), g.clone()].into_iter().collect() };
        let key = |job: &Job| MemoKey::for_job(fp, job);
        let equivalence = Job::equivalence(circuit(&gate), circuit(&gate));
        let invariant =
            |amp, bound| Job::invariant(3, vec![vec![states::ZERO, amp, states::ONE]], bound);
        for job in [
            &equivalence,
            &invariant(states::PLUS, 40),
            &Job::image(),
            &Job::reachability(40),
        ] {
            assert_eq!(key(job), key(&job.clone()));
            assert_ne!(key(job), MemoKey::for_job(fp ^ 1, job), "the spec half");
        }

        // Each gate field, in the system's operation and in a job's circuit.
        for (field, changed) in [
            (
                "gate kind",
                Gate::new(GateKind::Ry(0.25), vec![1], vec![on(0, true)]),
            ),
            ("angle bits", rx(next_up(0.25), 1, on(0, true))),
            ("target", rx(0.25, 2, on(0, true))),
            ("control qubit", rx(0.25, 1, on(2, true))),
            ("control value", rx(0.25, 1, on(0, false))),
        ] {
            let spec = keyed_spec(&changed, Mat::identity(2), states::PLUS, "step");
            assert_ne!(
                fp,
                spec.fingerprint(),
                "changing the {field} kept the fingerprint"
            );
            let job = Job::equivalence(circuit(&gate), circuit(&changed));
            assert_ne!(
                key(&equivalence),
                key(&job),
                "changing the {field} kept the job key"
            );
        }
        for (field, spec) in [
            (
                "Kraus entry",
                keyed_spec(&gate, nudged_kraus, states::PLUS, "step"),
            ),
            (
                "initial amplitude",
                keyed_spec(&gate, Mat::identity(2), nudged, "step"),
            ),
            (
                "label",
                keyed_spec(&gate, Mat::identity(2), states::PLUS, "step'"),
            ),
            (
                "tolerance",
                base.clone().tolerance(next_up(qits_num::DEFAULT_TOLERANCE)),
            ),
            (
                "strategy",
                base.clone().strategy(crate::Strategy::Addition { k: 1 }),
            ),
        ] {
            assert_ne!(
                fp,
                spec.fingerprint(),
                "changing the {field} kept the fingerprint"
            );
        }
        let phase = Job::Equivalence {
            a: circuit(&gate),
            b: circuit(&gate),
            up_to_phase: true,
        };
        for (field, job, changed) in [
            ("up_to_phase", equivalence, phase),
            (
                "amplitude",
                invariant(states::PLUS, 40),
                invariant(nudged, 40),
            ),
            (
                "max_iterations",
                invariant(states::PLUS, 40),
                invariant(states::PLUS, 41),
            ),
            (
                "max_iterations",
                Job::reachability(40),
                Job::reachability(41),
            ),
            ("densify", Job::image(), Job::Image { densify: true }),
        ] {
            assert_ne!(
                key(&job),
                key(&changed),
                "changing the {field} kept the job key"
            );
        }
    }

    #[test]
    fn shutdown_is_idempotent_through_drop() {
        // `shutdown` consumes the pool, but `Drop` runs `finish` again;
        // the flag makes the second pass a pure snapshot instead of a
        // re-join/re-drain that used to rely on drain ordering.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = calls.clone();
        let pool = EnginePool::builder(grover_spec())
            .workers(1)
            .stats_sink(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .unwrap();
        pool.submit(Job::image()).join().unwrap();
        let stats = pool.shutdown();
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "the sink must fire exactly once across shutdown + drop"
        );
    }

    #[test]
    fn densify_past_the_amplitude_bound_is_refused() {
        // ghz21's image is one ket of 2^21 amplitudes, one bit past the
        // bound: refused before any is allocated, and the session answers
        // on.
        let mut engine = EngineSpec::new(generators::ghz(21)).build().unwrap();
        let err = run_job(&mut engine, &Job::Image { densify: true }).unwrap_err();
        assert_eq!(err, QitsError::DimensionOverflow { bits: 21 });
        assert!(err.to_string().contains("2^21"), "{err}");
        let out = run_job(&mut engine, &Job::image()).unwrap();
        assert_eq!(out.image().unwrap().dim, 1);
    }
}
