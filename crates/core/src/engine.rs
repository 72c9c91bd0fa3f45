//! The session facade: one object that owns the manager, the transition
//! system, and the strategy.
//!
//! Everything the paper's workflows need — image computation (Section IV
//! and V), reachability fixpoints and invariant checking (Section I), and
//! circuit equivalence — runs on one manager that the session owns.
//! [`Engine`] is the manager-owned-session shape mature decision-diagram
//! libraries use (OBDDimal's `BDDManager`, rsdd's builder-owned
//! backends): its methods return `Result<_, QitsError>` instead of
//! panicking, and even node-store exhaustion surfaces as a
//! [`QitsError::ArenaExhausted`] value rather than a panic.
//!
//! Nothing collects inside a call. A collection runs where the caller
//! asks for one, with [`Engine::collect`], which keeps the session's own
//! state plus the subspaces handed to it and sweeps everything else.
//! Collection never moves a node, so inputs are plain `&Subspace` borrows
//! and nothing is fixed up afterwards.
//!
//! The session runs one image kernel, named by the [`Strategy`] enum: the
//! contraction partition at the paper's Table I setting (`k1 = k2 = 4`)
//! unless the builder picks another. `Basic` and `Addition` stay
//! selectable as the paper's baselines.
//!
//! The session compiles each Kraus branch of its system once, on the first
//! image that reaches it: the branch's tensor network, the strategy's
//! operator tensors (the whole operator, the addition slices, or the
//! contraction blocks), and the index sets and rename map every state
//! application needs. Every later image, fixpoint iteration, resume and
//! pool job reuses them. [`Engine::collect`] retains them next to the
//! system, and [`Engine::set_strategy`] drops them. A collection run
//! through [`Engine::manager_mut`] that does not retain them is caught at
//! the next call, which compiles them again.
//!
//! The session keeps its system's reachability chain the same way (see
//! [`crate::mc`]): the furthest space `S_L` of the semi-naive iteration
//! from `S0`, `dim S_j` after each iteration and whether `S_L` is the
//! fixpoint. [`Engine::reachable_space`] and [`Engine::check_invariant`]
//! read every bound `b <= L` off it and extend it for a larger one, so
//! the images of a fixpoint are computed once per session, and every
//! answer equals a fresh session's. The chain is held wherever the
//! compiled branches are, and dropped with them by
//! [`Engine::set_strategy`] and by a collection through
//! [`Engine::manager_mut`] that swept it; an extension that fails (an
//! exhausted node store, a cancellation) drops it too, rather than keep
//! a half-absorbed frontier.
//!
//! ```
//! use qits::{EngineBuilder, Strategy};
//! use qits_circuit::generators;
//!
//! let mut engine = EngineBuilder::new()
//!     .strategy(Strategy::Contraction { k1: 2, k2: 2 })
//!     .build_from_spec(&generators::grover(3))
//!     .unwrap();
//! let (img, stats) = engine.image().unwrap();
//! let initial = engine.initial().clone();
//! assert!(img.equals(engine.manager_mut(), &initial));
//! assert!(stats.cont_hit_rate() > 0.0);
//! ```

use std::fmt;

use qits_circuit::generators::QtsSpec;
use qits_circuit::{Circuit, Operation};
use qits_num::Cplx;
use qits_tdd::{ArenaExhausted, Edge, EdgeHolder, GcOutcome, OperationCancelled, TddManager};
use qits_tensor::Var;

use crate::error::QitsError;
use crate::image::{try_image, try_image_into, Compiled, ImageStats, Strategy};
use crate::mc::{
    check_invariant_with, fixpoint_with, validate_invariant, Chain, ReachabilityResult,
};
use crate::qts::{Operations, QuantumTransitionSystem};
use crate::subspace::Subspace;

/// Callback receiving `(strategy name, stats)` after every image
/// computation an engine performs (fixpoint iterations included).
///
/// `Send` so the owning [`Engine`] stays `Send` — pool workers report
/// their per-image stats through exactly this hook, from their own
/// threads, into shared aggregation state.
pub type StatsSink = Box<dyn FnMut(&str, &ImageStats) + Send>;

/// Configures and constructs an [`Engine`].
///
/// All knobs that used to be scattered over `TddManager` setters and
/// per-call arguments live here: weight tolerance, operation-cache
/// capacity, node-store bound, the image strategy, and an optional stats
/// sink.
///
/// ```
/// use qits::{EngineBuilder, Strategy};
/// use qits_circuit::generators;
///
/// let engine = EngineBuilder::new()
///     .tolerance(1e-12)
///     .cache_capacity(1 << 14)
///     .strategy(Strategy::Basic)
///     .build_from_spec(&generators::ghz(4))
///     .unwrap();
/// assert_eq!(engine.n_qubits(), 4);
/// ```
pub struct EngineBuilder {
    tolerance: f64,
    cache_capacity: Option<usize>,
    node_capacity: Option<usize>,
    strategy: Strategy,
    sink: Option<StatsSink>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// A builder with the default tolerance, default cache capacity, no
    /// node-store bound, and the default [`Strategy`] (contraction,
    /// `k1 = k2 = 4`).
    pub fn new() -> Self {
        EngineBuilder {
            tolerance: qits_num::DEFAULT_TOLERANCE,
            cache_capacity: None,
            node_capacity: None,
            strategy: Strategy::default(),
            sink: None,
        }
    }

    /// Weight tolerance of the session's manager (see
    /// [`TddManager::with_tolerance`]).
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Bounds every operation cache to at most this many entries
    /// (`0` disables operation caching). A table grows toward the bound
    /// only while its entries are reused.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Hard bound on allocated node slots (see
    /// [`TddManager::set_node_capacity`]). When a computation hits the
    /// bound and no swept slot is free, the engine method reports
    /// [`QitsError::ArenaExhausted`] instead of growing without limit.
    pub fn node_capacity(mut self, capacity: usize) -> Self {
        self.node_capacity = Some(capacity);
        self
    }

    /// The image kernel the session runs (default: contraction,
    /// `k1 = k2 = 4`).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// A callback invoked with `(strategy name, stats)` after every image
    /// computation.
    pub fn stats_sink(mut self, sink: impl FnMut(&str, &ImageStats) + Send + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// The session's manager, once the register is known to fit in
    /// [`Var`]'s encoding: [`QitsError::RegisterTooWide`] before any
    /// variable of a wider register is minted.
    fn make_manager(&self, n_qubits: u32) -> Result<TddManager, QitsError> {
        if n_qubits > Var::MAX_POS {
            return Err(QitsError::RegisterTooWide {
                n_qubits,
                max: Var::MAX_POS,
            });
        }
        let mut m = TddManager::with_config(self.tolerance, self.cache_capacity);
        if let Some(cap) = self.node_capacity {
            m.set_node_capacity(cap);
        }
        Ok(m)
    }

    /// Builds an engine for a benchmark spec, spanning the initial
    /// subspace from the spec's product states.
    pub fn build_from_spec(self, spec: &QtsSpec) -> Result<Engine, QitsError> {
        let mut m = self.make_manager(spec.n_qubits)?;
        let qts = QuantumTransitionSystem::try_from_spec(&mut m, spec)?;
        Ok(Engine {
            m,
            qts,
            compiled: Compiled::new(self.strategy),
            sink: self.sink,
            fingerprint: None,
        })
    }

    /// Builds an engine from explicit parts; `initial` constructs the
    /// initial subspace on the session's fresh manager.
    pub fn build_with(
        self,
        n_qubits: u32,
        operations: Vec<Operation>,
        initial: impl FnOnce(&mut TddManager) -> Subspace,
    ) -> Result<Engine, QitsError> {
        let mut m = self.make_manager(n_qubits)?;
        let init = initial(&mut m);
        let qts = QuantumTransitionSystem::try_new(n_qubits, operations, init)?;
        Ok(Engine {
            m,
            qts,
            compiled: Compiled::new(self.strategy),
            sink: self.sink,
            fingerprint: None,
        })
    }

    /// Builds an engine with no operations and an empty initial subspace —
    /// a session for workloads that need only the manager, such as
    /// circuit equivalence checking. Image and reachability methods on
    /// such an engine return [`QitsError::EmptyOperationSet`].
    pub fn build_bare(self, n_qubits: u32) -> Result<Engine, QitsError> {
        self.build_with(n_qubits, Vec::new(), |_| Subspace::zero(n_qubits))
    }
}

/// A model-checking session: owns the [`TddManager`], the
/// [`QuantumTransitionSystem`], and the branches and reachability chain
/// it computes for them.
///
/// Every method returns `Result<_, QitsError>`; nothing here panics on
/// malformed input, in release builds included. See the module docs for
/// the design rationale and [`EngineBuilder`] for construction.
pub struct Engine {
    m: TddManager,
    qts: QuantumTransitionSystem,
    /// The session strategy and the system's branches compiled for it.
    compiled: Compiled,
    sink: Option<StatsSink>,
    /// The [`crate::EngineSpec::fingerprint`] this session was stamped
    /// from, when it was built through a spec. Recorded into snapshots
    /// and validated on warm start; `None` (hand-built sessions) skips
    /// both sides of that check.
    fingerprint: Option<u128>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("n_qubits", &self.qts.n_qubits())
            .field("operations", &self.qts.operations().len())
            .field("initial_dim", &self.qts.initial().dim())
            .field("strategy", &self.strategy().to_string())
            .field("arena_len", &self.m.arena_len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Register width of the session's system.
    pub fn n_qubits(&self) -> u32 {
        self.qts.n_qubits()
    }

    /// The session's transition system.
    pub fn qts(&self) -> &QuantumTransitionSystem {
        &self.qts
    }

    /// The initial subspace `S0`.
    pub fn initial(&self) -> &Subspace {
        self.qts.initial()
    }

    /// The operations `T_sigma`.
    pub fn operations(&self) -> &Operations {
        self.qts.operations()
    }

    /// The session's manager (read-only).
    pub fn manager(&self) -> &TddManager {
        &self.m
    }

    /// The session's manager. Subspace queries (`equals`, `contains`,
    /// ...) and ket constructors take `&mut TddManager`; this is the
    /// handle to pass them. Clearing caches or collecting through it is
    /// also fine — the engine re-reads the manager state on every call.
    pub fn manager_mut(&mut self) -> &mut TddManager {
        &mut self.m
    }

    /// Installs (or clears) a cooperative-cancellation token on the
    /// session's manager. While installed, every cancellation poll checks
    /// the token; if another thread trips it, the in-flight operation unwinds
    /// and the engine method returns [`QitsError::Cancelled`] — the
    /// session itself stays usable. See [`qits_tdd::cancel`].
    pub fn set_cancel_token(&mut self, token: Option<qits_tdd::CancelToken>) {
        self.m.set_cancel_token(token);
    }

    /// The [`crate::EngineSpec::fingerprint`] this session was built
    /// from, if it came from a spec (`None` for hand-assembled sessions).
    pub fn fingerprint(&self) -> Option<u128> {
        self.fingerprint
    }

    /// Stamps the spec fingerprint onto a freshly built session — called
    /// by [`crate::EngineSpec::build`] and the pool's worker factory.
    pub(crate) fn set_fingerprint(&mut self, fingerprint: u128) {
        self.fingerprint = Some(fingerprint);
    }

    /// The session's image kernel.
    pub fn strategy(&self) -> Strategy {
        self.compiled.strategy()
    }

    /// Replaces the session's image kernel, dropping the branches compiled
    /// for the old one and the reachability chain; the next image compiles
    /// them for the new one, and the next fixpoint starts from `S0`.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.compiled = Compiled::new(strategy);
    }

    /// Drops the compiled branches or the chain if a collection that did
    /// not retain them — one run through [`Engine::manager_mut`] — swept
    /// any of their edges. Called at the start of every method that uses
    /// them.
    fn revalidate(&mut self) {
        self.compiled.drop_if_stale(&self.m);
    }

    /// Takes the session's chain out of the compiled state for a fixpoint
    /// to extend, or starts one at `S0`. The caller parks it again only if
    /// the fixpoint succeeds: an error or unwind drops it.
    fn take_chain(&mut self) -> Chain {
        self.compiled
            .chain
            .take()
            .unwrap_or_else(|| Chain::new(self.qts.initial().clone()))
    }

    /// Hands every image's stats to the sink, under the kernel's name.
    fn record(&mut self, strategy: Strategy, stats: &[ImageStats]) {
        if let Some(sink) = self.sink.as_mut() {
            let name = strategy.to_string();
            for st in stats {
                sink(&name, st);
            }
        }
    }

    /// Runs a diagram computation, converting the manager's two typed
    /// unwinds into the fallible API's error values: the node store's
    /// [`ArenaExhausted`] (the one panic [`TddManager::make_node`] emits)
    /// becomes [`QitsError::ArenaExhausted`], and a tripped
    /// [`qits_tdd::CancelToken`]'s [`OperationCancelled`] (thrown from a
    /// cancellation poll) becomes [`QitsError::Cancelled`]. Any other panic is
    /// resumed unchanged. This is the session boundary the payloads'
    /// contracts name: inside a recursive operation neither condition has
    /// a partial result to return, so it unwinds; here it becomes an
    /// error and the session stays usable.
    fn guard_exhaustion<T>(f: impl FnOnce() -> Result<T, QitsError>) -> Result<T, QitsError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => match payload.downcast::<ArenaExhausted>() {
                Ok(e) => Err(QitsError::ArenaExhausted {
                    allocated: e.allocated,
                    capacity: e.capacity,
                }),
                Err(other) => match other.downcast::<OperationCancelled>() {
                    Ok(_) => Err(QitsError::Cancelled),
                    Err(other) => std::panic::resume_unwind(other),
                },
            },
        }
    }

    // ------------------------------------------------------------------
    // Image computation.
    // ------------------------------------------------------------------

    /// Computes `T(S0)`, the image of the system's initial subspace, with
    /// the session strategy.
    pub fn image(&mut self) -> Result<(Subspace, ImageStats), QitsError> {
        let initial = self.qts.initial().clone();
        self.image_of(&initial)
    }

    /// Computes the image of an arbitrary subspace (living on this
    /// session's manager) under the system's operations, with the session
    /// strategy and compiled branches.
    pub fn image_of(&mut self, input: &Subspace) -> Result<(Subspace, ImageStats), QitsError> {
        self.revalidate();
        let (m, qts, compiled) = (&mut self.m, &self.qts, &mut self.compiled);
        let mut img = Subspace::zero(input.n_qubits());
        let stats = Self::guard_exhaustion(|| {
            try_image_into(m, qts.operations(), input, &mut img, compiled, &[qts])
        })?;
        self.record(self.strategy(), std::slice::from_ref(&stats));
        Ok((img, stats))
    }

    /// [`Engine::image`] with a one-off strategy override. Another
    /// strategy than the session's compiles into a cache of its own,
    /// dropped after the call.
    pub fn image_with(&mut self, strategy: Strategy) -> Result<(Subspace, ImageStats), QitsError> {
        if strategy == self.strategy() {
            return self.image();
        }
        let (m, qts) = (&mut self.m, &self.qts);
        let (img, stats) =
            Self::guard_exhaustion(|| try_image(m, qts.operations(), qts.initial(), strategy))?;
        self.record(strategy, std::slice::from_ref(&stats));
        Ok((img, stats))
    }

    // ------------------------------------------------------------------
    // Model checking.
    // ------------------------------------------------------------------

    /// Computes the reachable subspace by semi-naive iteration: each
    /// iteration images only the frontier the previous one added and
    /// absorbs the result straight into the space, until nothing is added
    /// (see [`crate::mc`] for the fixpoint semantics). The session's chain
    /// answers a bound it already reaches without an image and is
    /// extended for a larger one; the result's `stats` list only the
    /// images this call computed.
    ///
    /// Nothing collects during the call. To keep a long fixpoint small,
    /// grow the bound in steps and call [`Engine::collect`] between them:
    /// the collection keeps the chain, and the next call extends it.
    pub fn reachable_space(
        &mut self,
        max_iterations: usize,
    ) -> Result<ReachabilityResult, QitsError> {
        self.revalidate();
        let mut chain = self.take_chain();
        let (m, qts, compiled) = (&mut self.m, &self.qts, &mut self.compiled);
        let r =
            Self::guard_exhaustion(|| fixpoint_with(m, qts, max_iterations, compiled, &mut chain))?;
        self.compiled.chain = Some(chain);
        self.record(self.strategy(), &r.stats);
        Ok(r)
    }

    /// Continues a reachability fixpoint from a checkpoint restored by
    /// [`Engine::warm_start`]: iterates from the checkpointed space instead
    /// of `S0` on a chain of its own (the session's chain stays as it
    /// is), with the whole space as the first frontier, then folds the
    /// checkpoint's iteration count into the returned result — so a run
    /// that was snapshotted mid-fixpoint, restarted, and resumed reports
    /// the same totals as one that never stopped. Sound because
    /// the closure is monotone: the checkpointed `S_j` contains `S0`, so
    /// its first image yields the `S_{j+1}` the uninterrupted run reached,
    /// and resuming walks exactly the tail of the original iteration
    /// chain.
    ///
    /// `max_iterations` bounds the *additional* iterations of this call.
    pub fn resume_reachable_space(
        &mut self,
        resumed: &crate::store::ResumedReach,
        max_iterations: usize,
    ) -> Result<ReachabilityResult, QitsError> {
        if resumed.space.n_qubits() != self.qts.n_qubits() {
            return Err(QitsError::RegisterMismatch {
                expected: self.qts.n_qubits(),
                found: resumed.space.n_qubits(),
                context: "the restored reachability space".to_string(),
            });
        }
        self.revalidate();
        let mut chain = Chain::new(resumed.space.clone());
        let (m, qts, compiled) = (&mut self.m, &self.qts, &mut self.compiled);
        let mut r =
            Self::guard_exhaustion(|| fixpoint_with(m, qts, max_iterations, compiled, &mut chain))?;
        r.iterations += resumed.iterations;
        self.record(self.strategy(), &r.stats);
        Ok(r)
    }

    /// Checks the safety property "every reachable state stays inside
    /// `invariant`". Returns the verdict plus the witnessing reachability
    /// result (see
    /// [`crate::mc::try_check_invariant`]), read off or extending the
    /// session's chain like [`Engine::reachable_space`]. An invariant that
    /// is refused (another width, or swept) leaves the chain as it was.
    pub fn check_invariant(
        &mut self,
        invariant: &Subspace,
        max_iterations: usize,
    ) -> Result<(bool, ReachabilityResult), QitsError> {
        validate_invariant(&self.m, &self.qts, invariant)?;
        self.revalidate();
        let mut chain = self.take_chain();
        let (m, qts, compiled) = (&mut self.m, &self.qts, &mut self.compiled);
        let (holds, r) = Self::guard_exhaustion(|| {
            check_invariant_with(m, qts, invariant, max_iterations, compiled, &mut chain)
        })?;
        self.compiled.chain = Some(chain);
        self.record(self.strategy(), &r.stats);
        Ok((holds, r))
    }

    // ------------------------------------------------------------------
    // Equivalence checking.
    // ------------------------------------------------------------------

    /// Whether two circuits implement exactly the same operator (global
    /// phase included), on this session's manager: one contraction of
    /// their miter `tr(B†A)` from where the circuits meet, neither
    /// operator built (see [`crate::equiv`]). The checker polls for
    /// cancellation after every tensor it contracts, so an installed
    /// [`qits_tdd::CancelToken`] stops the check at the next tensor with
    /// [`QitsError::Cancelled`].
    pub fn equivalent(&mut self, a: &Circuit, b: &Circuit) -> Result<bool, QitsError> {
        let m = &mut self.m;
        Self::guard_exhaustion(|| crate::equiv::try_equivalent_exactly(m, a, b))
    }

    /// Whether two circuits implement the same operator up to global
    /// phase, by the same miter contraction. Cancellation matches
    /// [`Engine::equivalent`].
    pub fn equivalent_up_to_phase(&mut self, a: &Circuit, b: &Circuit) -> Result<bool, QitsError> {
        let m = &mut self.m;
        Self::guard_exhaustion(|| crate::equiv::try_equivalent_up_to_phase(m, a, b))
    }

    // ------------------------------------------------------------------
    // Memory management and subspace construction.
    // ------------------------------------------------------------------

    /// Runs a garbage collection, retaining the session's system, its
    /// compiled branches and chain, and every subspace in `kept` (all
    /// untouched — collection never moves a node). Anything else on the
    /// manager is swept: a subspace the caller still uses must be in
    /// `kept`. One that was not is refused with
    /// [`QitsError::StaleHandle`] by [`Engine::image_of`],
    /// [`Engine::check_invariant`] and [`Engine::subspace_from_states`].
    pub fn collect(&mut self, kept: &[&Subspace]) -> GcOutcome {
        self.revalidate();
        let mut holders: Vec<&dyn EdgeHolder> = vec![&self.qts, &self.compiled];
        holders.extend(kept.iter().map(|s| *s as &dyn EdgeHolder));
        self.m.collect(&holders)
    }

    /// Spans a subspace from states on this session's manager, validating
    /// that every state is live and fits the session register (the checks
    /// [`Subspace::try_absorb`] performs).
    pub fn subspace_from_states(&mut self, states: &[Edge]) -> Result<Subspace, QitsError> {
        let (m, n) = (&mut self.m, self.qts.n_qubits());
        Self::guard_exhaustion(|| {
            let mut s = Subspace::zero(n);
            for &e in states {
                s.try_absorb(m, e)?;
            }
            Ok(s)
        })
    }

    /// Spans a subspace from product states on the session register, one
    /// `(alpha, beta)` amplitude pair per qubit per state (the
    /// [`QtsSpec`] convention) — how a pool job builds its invariant.
    ///
    /// # Errors
    ///
    /// [`QitsError::RegisterMismatch`] for a state whose length is not the
    /// register width, and [`QitsError::ArenaExhausted`] when the node cap
    /// is hit while the states are built.
    pub fn subspace_from_product_states(
        &mut self,
        states: &[Vec<(Cplx, Cplx)>],
    ) -> Result<Subspace, QitsError> {
        let n = self.qts.n_qubits();
        if let Some((i, amps)) = states
            .iter()
            .enumerate()
            .find(|(_, amps)| amps.len() != n as usize)
        {
            return Err(QitsError::RegisterMismatch {
                expected: n,
                found: u32::try_from(amps.len()).unwrap_or(u32::MAX),
                context: format!("product state {i}"),
            });
        }
        let m = &mut self.m;
        Self::guard_exhaustion(|| {
            let vars = Subspace::ket_vars(n);
            let mut s = Subspace::zero(n);
            for amps in states {
                let ket = m.product_ket(&vars, amps);
                s.absorb(m, ket);
            }
            Ok(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::{generators, Gate};
    use std::sync::{Arc, Mutex};

    #[test]
    fn engine_image_matches_initial_invariant() {
        let mut engine = EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .build_from_spec(&generators::grover(3))
            .unwrap();
        let (img, stats) = engine.image().unwrap();
        assert_eq!(stats.output_dim, img.dim());
        let initial = engine.initial().clone();
        assert!(img.equals(engine.manager_mut(), &initial));
    }

    #[test]
    fn bare_engine_reports_empty_operation_set() {
        let mut engine = EngineBuilder::new().build_bare(3).unwrap();
        assert_eq!(engine.image().unwrap_err(), QitsError::EmptyOperationSet);
        assert_eq!(
            engine.reachable_space(10).unwrap_err(),
            QitsError::EmptyOperationSet
        );
    }

    #[test]
    fn zero_qubit_engine_is_rejected_at_build() {
        let err = EngineBuilder::new().build_bare(0).unwrap_err();
        assert_eq!(err, QitsError::ZeroQubitSystem);
    }

    #[test]
    fn image_of_mismatched_register_is_an_error_not_a_panic() {
        let mut engine = EngineBuilder::new()
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let wrong = Subspace::zero(5);
        let err = engine.image_of(&wrong).unwrap_err();
        assert!(matches!(
            err,
            QitsError::RegisterMismatch {
                expected: 5,
                found: 3,
                ..
            }
        ));
        // The engine session stays usable after the error.
        assert!(engine.image().is_ok());
    }

    #[test]
    fn builder_knobs_reach_the_manager() {
        let engine = EngineBuilder::new()
            .cache_capacity(0)
            .tolerance(1e-12)
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        assert_eq!(engine.manager().tolerance(), 1e-12);
        assert_eq!(engine.manager().cache_sizes().total(), 0);
    }

    #[test]
    fn equivalence_over_mirrored_legs_above_the_register() {
        // `b`'s mirrored first gate controls on `wire(1, 0)` and then
        // `wire(0, 2)`, a position past the kets and rows of qubit 0.
        let mut engine = EngineBuilder::new().build_bare(3).unwrap();
        let a = Circuit::new(3);
        let mut b = Circuit::new(3);
        for gate in [
            Gate::mcx(&[1, 0], 2),
            Gate::h(0),
            Gate::h(0),
            Gate::mcx(&[1, 0], 2),
        ] {
            b.push(gate);
        }
        assert!(engine.equivalent(&a, &b).unwrap());
        assert!(engine.equivalent(&b, &a).unwrap());
    }

    #[test]
    fn a_register_wider_than_var_is_refused_at_build() {
        // Only the width is checked: no system of that size is built.
        let too_wide = Var::MAX_POS + 1;
        let refused = QitsError::RegisterTooWide {
            n_qubits: too_wide,
            max: Var::MAX_POS,
        };
        assert_eq!(
            EngineBuilder::new().build_bare(too_wide).unwrap_err(),
            refused
        );
        let built = EngineBuilder::new().build_with(too_wide, Vec::new(), |_| {
            unreachable!("no variable of a too-wide register is minted")
        });
        assert_eq!(built.unwrap_err(), refused);
        let spec = QtsSpec {
            name: "wide".into(),
            n_qubits: too_wide,
            operations: Vec::new(),
            initial_states: Vec::new(),
        };
        assert_eq!(
            EngineBuilder::new().build_from_spec(&spec).unwrap_err(),
            refused
        );
    }

    #[test]
    fn stats_sink_sees_every_image_with_the_strategy_name() {
        // Arc<Mutex<_>>, not Rc<RefCell<_>>: the sink must be Send so the
        // engine stays Send (see tests/send_bounds.rs).
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let seen2 = seen.clone();
        let mut engine = EngineBuilder::new()
            .strategy(Strategy::Basic)
            .stats_sink(move |name, stats| {
                assert!(stats.branches > 0);
                seen2.lock().unwrap().push(name.to_string());
            })
            .build_from_spec(&generators::qrw(3, 0.3))
            .unwrap();
        engine.image().unwrap();
        let r = engine.reachable_space(10).unwrap();
        assert!(r.converged);
        let names = seen.lock().unwrap();
        assert_eq!(names.len(), 1 + r.iterations);
        assert!(names.iter().all(|n| n == "basic"));
    }

    #[test]
    fn collect_keeps_a_held_bystander() {
        let mut engine = EngineBuilder::new()
            .strategy(Strategy::Addition { k: 1 })
            .build_from_spec(&generators::qrw(3, 0.2))
            .unwrap();
        let vars = Subspace::ket_vars(3);
        let k = engine.manager_mut().basis_ket(&vars, &[true, false, true]);
        let bystander = engine.subspace_from_states(&[k]).unwrap();
        let input = engine.initial().clone();
        let (image, _) = engine.image_of(&input).unwrap();
        let out = engine.collect(&[&bystander]);
        assert!(out.reclaimed > 0, "the image call left garbage");
        assert!(bystander
            .basis()
            .iter()
            .all(|&e| engine.manager().is_live(e)));
        assert!(
            image.basis().iter().any(|&e| !engine.manager().is_live(e)),
            "an image nobody held is swept"
        );
        assert_eq!(bystander.dim(), 1);
        let k_again = engine.manager_mut().basis_ket(&vars, &[true, false, true]);
        let m = engine.manager_mut();
        assert!(bystander.contains(m, k_again));
    }

    #[test]
    fn arena_exhaustion_is_an_error_not_a_panic() {
        let mut engine = EngineBuilder::new()
            .strategy(Strategy::Basic)
            .build_from_spec(&generators::grover(3))
            .unwrap();
        // Clamp the node store to exactly what the build used: the next
        // fresh node the image computation needs must exhaust it.
        let cap = engine.manager().arena_len();
        engine.manager_mut().set_node_capacity(cap);
        let err = engine.image().unwrap_err();
        assert_eq!(
            err,
            QitsError::ArenaExhausted {
                allocated: cap,
                capacity: cap
            }
        );
        assert!(err.to_string().contains("exhausted"));
        // The session survives the failed computation: the system is
        // intact and cheap queries still work.
        assert_eq!(engine.initial().dim(), 2);
        engine.manager_mut().set_node_capacity(usize::MAX);
        assert!(engine.image().is_ok());
    }

    #[test]
    fn arena_exhaustion_after_the_fixpoint_is_an_error_not_a_panic() {
        // The containment test of `check_invariant` and the absorbs of
        // `subspace_from_states` build nodes outside any image kernel; a
        // node cap hit there must come back as an error too.
        use qits_circuit::tensorize::states;
        let mut engine = EngineBuilder::new()
            .build_from_spec(&generators::qrw(3, 0.3))
            .unwrap();
        assert!(engine.reachable_space(20).unwrap().converged);
        let vars = Subspace::ket_vars(3);
        let m = engine.manager_mut();
        let bad_ket = m.basis_ket(&vars, &[true, false, false]);
        let safe = Subspace::from_states(m, 3, &[bad_ket]).complement(m);
        let fresh = m.product_ket(&vars, &[states::PLUS, states::ZERO, states::MINUS]);
        // Clamp the node store to what exists now: the converged fixpoint
        // reruns from the unique table, so the first fresh node is needed
        // by the containment test.
        let cap = m.arena_len();
        m.set_node_capacity(cap);
        let exhausted = QitsError::ArenaExhausted {
            allocated: cap,
            capacity: cap,
        };
        assert_eq!(engine.check_invariant(&safe, 20).unwrap_err(), exhausted);
        assert_eq!(
            engine.subspace_from_states(&[fresh]).unwrap_err(),
            exhausted
        );
        // Lifting the cap, the same session answers the question.
        engine.manager_mut().set_node_capacity(usize::MAX);
        let (holds, r) = engine.check_invariant(&safe, 20).unwrap();
        assert!(r.converged);
        assert!(!holds, "the walk reaches |100>");
    }

    #[test]
    fn builder_node_capacity_reaches_the_manager() {
        let engine = EngineBuilder::new()
            .node_capacity(1 << 20)
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        assert_eq!(engine.manager().node_capacity(), 1 << 20);
    }

    #[test]
    fn subspace_from_states_validates_the_register() {
        let mut engine = EngineBuilder::new()
            .build_from_spec(&generators::ghz(2))
            .unwrap();
        let wide_vars = Subspace::ket_vars(4);
        let wide = engine
            .manager_mut()
            .basis_ket(&wide_vars, &[true, false, false, true]);
        assert!(matches!(
            engine.subspace_from_states(&[wide]).unwrap_err(),
            QitsError::RegisterMismatch { expected: 2, .. }
        ));
    }

    #[test]
    fn debug_names_the_session_shape() {
        let engine = EngineBuilder::new()
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let text = format!("{engine:?}");
        assert!(text.contains("n_qubits: 3"));
        assert!(text.contains("contraction(k1=4,k2=4)"), "{text}");
    }
}
