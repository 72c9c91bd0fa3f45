//! # qits — image computation for quantum transition systems
//!
//! A from-scratch Rust reproduction of *"Image Computation for Quantum
//! Transition Systems"* (Hong, Gao, Li, Ying, Ying — DATE 2025). Model
//! checking explores a system's state space by repeatedly computing the
//! *image* of a set of states under the transition relation; for quantum
//! systems, state sets become **subspaces** of a Hilbert space and
//! transitions become **quantum operations** (Kraus sets). This crate
//! implements that image computation symbolically, on tensor decision
//! diagrams, with the paper's three methods:
//!
//! * [`Strategy::Basic`] — contract each Kraus operator's whole circuit
//!   into one monolithic TDD, then apply it to every basis state
//!   (Section IV, Algorithm 1);
//! * [`Strategy::Addition`] — slice the circuit's tensor network at its
//!   `k` highest-degree indices and sum the `2^k` partial images
//!   (Section V-A);
//! * [`Strategy::Contraction`] — cut the circuit into blocks of at most
//!   `k1` qubits separated after every `k2` crossing gates and contract the
//!   blocks against the state sequentially, never building the monolithic
//!   operator (Section V-B — the method the paper's evaluation shows to
//!   dominate).
//!
//! The public API is the session-based [`Engine`], configured through
//! [`EngineBuilder`]: one object owns the TDD manager, the transition
//! system, and the state it compiles for them, its methods return
//! `Result<_, QitsError>` instead of panicking, and it runs the
//! contraction partition at Table I's `k1 = k2 = 4` unless the builder
//! names another [`Strategy`]. Sessions are `Send`, and query-batched
//! workloads run through the serving layer ([`EnginePool`], re-exported
//! in [`serve`]): a pool of engine-owning workers behind a sharded work
//! queue of typed jobs, with per-job fault isolation and aggregated
//! [`PoolStats`].
//!
//! # Quickstart
//!
//! Check the Grover-iteration invariant of the paper's Section III-A.1:
//! the subspace `S = span{|++->, |11->}` satisfies `T(S) = S`.
//!
//! ```
//! use qits::{EngineBuilder, Strategy};
//! use qits_circuit::generators;
//!
//! let mut engine = EngineBuilder::new()
//!     .strategy(Strategy::Contraction { k1: 2, k2: 2 })
//!     .build_from_spec(&generators::grover(3))
//!     .expect("well-formed benchmark system");
//! let (img, stats) = engine.image().expect("image computation");
//! let initial = engine.initial().clone();
//! assert!(img.equals(engine.manager_mut(), &initial));
//! // Operation caches are manager-owned, so the repeated
//! // block-against-state contractions above reuse each other's work:
//! assert!(stats.cont_hit_rate() > 0.0);
//! ```
//!
//! A collection runs where it is called and nowhere else:
//! [`Engine::collect`] keeps the session's system, compiled branches and
//! chain plus the subspaces handed to it, and sweeps the rest. Collection
//! never moves a node, so inputs are plain `&Subspace` borrows and
//! survivors stay bit-identical; diagrams nobody held become detectably
//! stale instead of dangling. Underneath, each question has one fallible
//! kernel over a raw manager — [`try_image`],
//! [`mc::try_reachable_space`], [`mc::try_check_invariant`] and the
//! `try_*` checkers in [`equiv`] — and each engine method runs one of
//! them with the arena/cancel guard, the stats sink and the Kraus
//! branches the session compiled on its first image. The session
//! also keeps its system's reachability chain, so every reachability
//! bound and invariant after the first fixpoint is read off it or extends
//! it (see [`mc`]).
//!
//! On top of the pool sits an **async serving front** ([`serve`]):
//! cloneable [`ServiceHandle`]s admit [`JobRequest`]s without blocking,
//! results stream back through [`JobTicket`]s (join, poll, or `.await`),
//! a bounded queue refuses overload with [`QitsError::QueueFull`],
//! deadlines shed stale work, [`qits_tdd::CancelToken`]s unwind running
//! jobs at their next cancellation poll, and an optional fleet-wide [`ResultMemo`]
//! short-circuits duplicate queries. The `qits serve` subcommand exposes
//! all of it as a JSON-lines protocol ([`serve::proto`]).

pub mod equiv;
pub mod mc;
pub mod store;

mod engine;
mod error;
mod image;
mod pool;
mod qts;
mod subspace;

pub use engine::{Engine, EngineBuilder, StatsSink};
pub use error::QitsError;
pub use image::{try_image, ImageStats, Strategy};
pub use pool::{
    run_job, worker_stack_size, EnginePool, EngineSpec, ImageOutcome, Job, JobHandle, JobOutput,
    JobRequest, JobTicket, MemoKey, MemoStats, PoolBuilder, PoolStats, PoolStatsSink, Priority,
    ReachOutcome, ResultMemo, ServiceHandle, WorkerStats,
};
pub use qts::{Operations, QuantumTransitionSystem};
pub use subspace::{Subspace, RANK_TOLERANCE};

// The cancellation token, which request envelopes and tickets carry,
// re-exported so engine users need not import the tdd crate by name.
pub use qits_tdd::CancelToken;

/// The serving layer, re-exported under one roof: everything needed to
/// stand up an [`EnginePool`] behind a request queue — the pool itself,
/// the shared [`EngineSpec`], the typed [`Job`]/[`JobOutput`] vocabulary,
/// the async front ([`ServiceHandle`], [`JobRequest`], [`JobTicket`],
/// [`Priority`]), the fleet-wide [`ResultMemo`], the aggregated
/// [`PoolStats`], and the JSON-lines protocol ([`serve::proto`]) the
/// `qits serve` subcommand speaks. `use qits::serve::*;` pulls in the
/// serving surface without the rest of the crate's namespace.
pub mod serve {
    pub use crate::pool::proto;
    pub use crate::pool::{
        run_job, worker_stack_size, EnginePool, EngineSpec, ImageOutcome, Job, JobHandle,
        JobOutput, JobRequest, JobTicket, MemoKey, MemoStats, PoolBuilder, PoolStats,
        PoolStatsSink, Priority, ReachOutcome, ResultMemo, ServiceHandle, WorkerStats,
    };
    pub use qits_tdd::CancelToken;
}
