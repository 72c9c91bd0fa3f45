//! The session facade: one object that owns the manager, the transition
//! system, the GC policy, and the strategy — so user code never touches
//! root management by hand.
//!
//! Everything the paper's workflows need — image computation (Section IV
//! and V), reachability fixpoints and invariant checking (Section I), and
//! circuit equivalence — previously required the caller to hand-assemble
//! the machinery: pass the right subspaces into the kernel and keep every
//! bystander alive across GC safepoints. [`Engine`] is the
//! manager-owned-session shape mature decision-diagram libraries use
//! (OBDDimal's `BDDManager`, rsdd's builder-owned backends): the session
//! owns all of that state, its methods return `Result<_, QitsError>`
//! instead of panicking, and root management is invisible — the engine
//! roots its own system (and any caller-provided `kept` subspaces) across
//! every collection point. Collection never moves a node, so inputs are
//! plain `&Subspace` borrows and nothing is fixed up afterwards; even
//! node-store exhaustion surfaces as a [`QitsError::ArenaExhausted`]
//! value rather than a panic.
//!
//! The session runs one image kernel, named by the [`Strategy`] enum: the
//! contraction partition at the paper's Table I setting (`k1 = k2 = 4`)
//! unless the builder picks another. `Basic` and `Addition` stay
//! selectable as the paper's baselines.
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
use qits_circuit::tensorize::{static_order, StaticOrder};
use qits_circuit::{Circuit, Operation};
use qits_tdd::{
    ArenaExhausted, Edge, EdgeHolder, GcOutcome, GcPolicy, OperationCancelled, ReorderPolicy,
    TddManager,
};

use crate::error::QitsError;
use crate::image::{try_image, ImageStats, Strategy};
use crate::mc::{fixpoint_with, try_check_invariant, try_reachable_space, ReachabilityResult};
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
/// capacity, GC policy, the image strategy, and an optional stats sink.
///
/// ```
/// use qits::{EngineBuilder, Strategy};
/// use qits_circuit::generators;
/// use qits_tdd::GcPolicy;
///
/// let engine = EngineBuilder::new()
///     .tolerance(1e-12)
///     .cache_capacity(1 << 14)
///     .gc_policy(Some(GcPolicy::default()))
///     .strategy(Strategy::Basic)
///     .build_from_spec(&generators::ghz(4))
///     .unwrap();
/// assert_eq!(engine.n_qubits(), 4);
/// ```
pub struct EngineBuilder {
    tolerance: f64,
    cache_capacity: Option<usize>,
    node_capacity: Option<usize>,
    gc_policy: Option<GcPolicy>,
    reorder: ReorderPolicy,
    order: StaticOrder,
    strategy: Strategy,
    sink: Option<StatsSink>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// A builder with the default tolerance, default cache capacity, GC
    /// off, and the default [`Strategy`] (contraction, `k1 = k2 = 4`).
    pub fn new() -> Self {
        EngineBuilder {
            tolerance: qits_num::DEFAULT_TOLERANCE,
            cache_capacity: None,
            node_capacity: None,
            gc_policy: None,
            reorder: ReorderPolicy::Off,
            order: StaticOrder::Natural,
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
    /// (`0` disables operation caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Hard bound on allocated node slots (see
    /// [`TddManager::set_node_capacity`]). When a computation hits the
    /// bound and collection frees nothing, the engine method reports
    /// [`QitsError::ArenaExhausted`] instead of growing without limit.
    pub fn node_capacity(mut self, capacity: usize) -> Self {
        self.node_capacity = Some(capacity);
        self
    }

    /// Installs (or, with `None` — the default — omits) the automatic
    /// collection policy. With a policy, every safepoint the kernels and
    /// fixpoint drivers poll may sweep dead nodes; the engine keeps its
    /// own system and all `kept` subspaces rooted across those
    /// collections.
    pub fn gc_policy(mut self, policy: Option<GcPolicy>) -> Self {
        self.gc_policy = policy;
        self
    }

    /// Schedules **dynamic variable reordering**: when a GC safepoint
    /// collects, the manager may also run a sifting pass over the freshly
    /// minimised live set (see [`qits_tdd::ReorderPolicy`]). A non-`Off`
    /// schedule is merged into the GC policy — installing the default
    /// [`GcPolicy`] first if [`EngineBuilder::gc_policy`] left collection
    /// off, since reordering is always coupled to a collection.
    ///
    /// The environment variable `QITS_REORDER=aggressive` forces
    /// reordering at every collection **wherever the builder installed a
    /// GC policy** (unless that builder already scheduled reordering) —
    /// the switch the CI matrix uses to run the whole suite with sifting
    /// on. It never *installs* a policy: an engine built with
    /// `gc_policy(None)` is a deliberate GC-off baseline (several tests
    /// assert zero safepoint collections on exactly such engines), and
    /// an environment variable silently turning collection on would
    /// rewrite those semantics rather than exercise the reordering path.
    pub fn reorder(mut self, reorder: ReorderPolicy) -> Self {
        self.reorder = reorder;
        self
    }

    /// Installs a static variable-ordering heuristic (see
    /// [`StaticOrder`]): the wire variables of the register are ordered
    /// by the heuristic *before* any node is interned, so every diagram
    /// the session builds lives under that order from the start.
    /// [`StaticOrder::Natural`], the default, keeps the manager's
    /// zero-cost natural order.
    pub fn static_order(mut self, order: StaticOrder) -> Self {
        self.order = order;
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

    /// The GC policy the session actually installs: the builder's policy
    /// with the reordering schedule merged in, plus the `QITS_REORDER`
    /// environment override (see [`EngineBuilder::reorder`]).
    fn effective_gc_policy(&self) -> Option<GcPolicy> {
        let mut policy = self.gc_policy;
        if self.reorder != ReorderPolicy::Off {
            policy.get_or_insert_with(GcPolicy::default).reorder = self.reorder;
        }
        if std::env::var("QITS_REORDER").is_ok_and(|v| v == "aggressive") {
            // Only piggyback on a policy the builder installed: the env
            // knob schedules sifting wherever collections already happen,
            // it never turns collection on (GC-off engines are often
            // deliberate baselines — see `EngineBuilder::reorder`).
            if let Some(p) = policy.as_mut() {
                if p.reorder == ReorderPolicy::Off {
                    p.reorder = ReorderPolicy::EveryCollection;
                }
            }
        }
        policy
    }

    fn make_manager(&self, n_qubits: u32, operations: &[Operation]) -> TddManager {
        let mut m = TddManager::with_config(
            self.tolerance,
            self.cache_capacity,
            self.effective_gc_policy(),
        );
        if let Some(cap) = self.node_capacity {
            m.set_node_capacity(cap);
        }
        // Install the heuristic order on the still-empty manager, so the
        // very first interned node already lives under it. Natural mode
        // stays lazy (no level map) — sifting materialises it on demand.
        if self.order != StaticOrder::Natural {
            m.install_order(&static_order(n_qubits, operations, self.order));
        }
        m
    }

    /// Builds an engine for a benchmark spec, spanning the initial
    /// subspace from the spec's product states.
    pub fn build_from_spec(self, spec: &QtsSpec) -> Result<Engine, QitsError> {
        let mut m = self.make_manager(spec.n_qubits, &spec.operations);
        let qts = QuantumTransitionSystem::try_from_spec(&mut m, spec)?;
        Ok(Engine {
            m,
            qts,
            strategy: self.strategy,
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
        let mut m = self.make_manager(n_qubits, &operations);
        let init = initial(&mut m);
        let qts = QuantumTransitionSystem::try_new(n_qubits, operations, init)?;
        Ok(Engine {
            m,
            qts,
            strategy: self.strategy,
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
/// [`QuantumTransitionSystem`], the GC policy, and the root bookkeeping
/// for everything it computes.
///
/// Every method returns `Result<_, QitsError>`; nothing here panics on
/// malformed input, in release builds included. See the module docs for
/// the design rationale and [`EngineBuilder`] for construction.
pub struct Engine {
    m: TddManager,
    qts: QuantumTransitionSystem,
    strategy: Strategy,
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
            .field("strategy", &self.strategy.to_string())
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
    /// handle to pass them. Installing a GC policy or clearing caches
    /// through it is also fine — the engine re-reads the manager state on
    /// every call.
    pub fn manager_mut(&mut self) -> &mut TddManager {
        &mut self.m
    }

    /// Installs (or clears) a cooperative-cancellation token on the
    /// session's manager. While installed, every GC safepoint polls the
    /// token; if another thread trips it, the in-flight operation unwinds
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
        self.strategy
    }

    /// Replaces the session's image kernel.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
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
    /// GC safepoint) becomes [`QitsError::Cancelled`]. Any other panic is
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
    /// the session strategy. The initial subspace rides through any
    /// mid-image collection untouched (it is among the kernel's mark
    /// roots); no caller-side rooting needed.
    pub fn image(&mut self) -> Result<(Subspace, ImageStats), QitsError> {
        self.image_with(self.strategy)
    }

    /// [`Engine::image`] with a one-off strategy override.
    pub fn image_with(&mut self, strategy: Strategy) -> Result<(Subspace, ImageStats), QitsError> {
        let (m, qts) = (&mut self.m, &self.qts);
        let (img, stats) =
            Self::guard_exhaustion(|| try_image(m, qts.operations(), qts.initial(), strategy))?;
        self.record(strategy, std::slice::from_ref(&stats));
        Ok((img, stats))
    }

    /// Computes the image of an arbitrary subspace (living on this
    /// session's manager) under the system's operations. The system's own
    /// initial subspace is rooted across the call — the rooting dance
    /// callers previously performed by hand.
    pub fn image_of(&mut self, input: &Subspace) -> Result<(Subspace, ImageStats), QitsError> {
        self.image_of_keeping(input, &[])
    }

    /// [`Engine::image_of`], additionally keeping `kept` subspaces alive
    /// across every mid-image collection (the bystander contract:
    /// anything on the manager that is neither the input nor in `kept`
    /// may be swept once a GC policy is installed — swept edges stay
    /// where they were but report [`TddManager::is_live`] false).
    pub fn image_of_keeping(
        &mut self,
        input: &Subspace,
        kept: &[&Subspace],
    ) -> Result<(Subspace, ImageStats), QitsError> {
        let mut roots = self.qts.protect(&mut self.m);
        for s in kept {
            roots.extend(s.protect(&mut self.m));
        }
        let (m, qts, strategy) = (&mut self.m, &self.qts, self.strategy);
        let result = Self::guard_exhaustion(|| try_image(m, qts.operations(), input, strategy));
        self.m.unprotect_all(roots);
        let (img, stats) = result?;
        self.record(strategy, std::slice::from_ref(&stats));
        Ok((img, stats))
    }

    // ------------------------------------------------------------------
    // Model checking.
    // ------------------------------------------------------------------

    /// Computes the reachable subspace by semi-naive iteration: each
    /// iteration images only the frontier the previous one added and
    /// absorbs the result straight into the space, until nothing is added
    /// (see [`crate::mc`] for the fixpoint semantics). GC roots — the
    /// system, the frontier, and the working space — are managed
    /// internally between and inside iterations.
    pub fn reachable_space(
        &mut self,
        max_iterations: usize,
    ) -> Result<ReachabilityResult, QitsError> {
        let (m, qts, strategy) = (&mut self.m, &self.qts, self.strategy);
        let r = Self::guard_exhaustion(|| try_reachable_space(m, qts, strategy, max_iterations))?;
        self.record(strategy, &r.stats);
        Ok(r)
    }

    /// Continues a reachability fixpoint from a checkpoint restored by
    /// [`Engine::warm_start`]: iterates from the checkpointed space instead
    /// of `S0`, with the whole space as the first frontier, then folds the
    /// checkpoint's iteration/GC counters into the returned result — so a
    /// run that was snapshotted mid-fixpoint, restarted, and resumed
    /// reports the same totals as one that never stopped. Sound because
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
        let start = resumed.space.clone();
        let (m, qts, strategy) = (&mut self.m, &self.qts, self.strategy);
        let mut r = Self::guard_exhaustion(|| {
            fixpoint_with(m, qts, strategy, max_iterations, &[], Some(start))
        })?;
        r.iterations += resumed.iterations;
        r.collections += resumed.collections;
        r.reclaimed_nodes += resumed.reclaimed_nodes;
        self.record(strategy, &r.stats);
        Ok(r)
    }

    /// Checks the safety property "every reachable state stays inside
    /// `invariant`", keeping the invariant rooted across the whole run.
    /// Returns the verdict plus the witnessing reachability result (see
    /// [`crate::mc::try_check_invariant`]).
    pub fn check_invariant(
        &mut self,
        invariant: &Subspace,
        max_iterations: usize,
    ) -> Result<(bool, ReachabilityResult), QitsError> {
        let (m, qts, strategy) = (&mut self.m, &self.qts, self.strategy);
        let (holds, r) = Self::guard_exhaustion(|| {
            try_check_invariant(m, qts, invariant, strategy, max_iterations)
        })?;
        self.record(strategy, &r.stats);
        Ok((holds, r))
    }

    // ------------------------------------------------------------------
    // Equivalence checking.
    // ------------------------------------------------------------------

    /// Whether two circuits implement exactly the same operator (global
    /// phase included), on this session's manager. The equivalence
    /// checkers poll a GC safepoint between the two operator
    /// contractions; the engine roots its own system across the call so a
    /// collection there cannot sweep the session state.
    pub fn equivalent(&mut self, a: &Circuit, b: &Circuit) -> Result<bool, QitsError> {
        let roots = self.qts.protect(&mut self.m);
        let m = &mut self.m;
        let result = Self::guard_exhaustion(|| crate::equiv::try_equivalent_exactly(m, a, b));
        self.m.unprotect_all(roots);
        result
    }

    /// Whether two circuits implement the same operator up to global
    /// phase. Safepoint rooting matches [`Engine::equivalent`].
    pub fn equivalent_up_to_phase(&mut self, a: &Circuit, b: &Circuit) -> Result<bool, QitsError> {
        let roots = self.qts.protect(&mut self.m);
        let m = &mut self.m;
        let result = Self::guard_exhaustion(|| crate::equiv::try_equivalent_up_to_phase(m, a, b));
        self.m.unprotect_all(roots);
        result
    }

    // ------------------------------------------------------------------
    // Memory management and subspace construction.
    // ------------------------------------------------------------------

    /// Runs an explicit garbage collection, retaining the session's
    /// system plus every subspace in `kept` (all untouched — collection
    /// never moves a node). Anything else on the manager is swept.
    pub fn collect(&mut self, kept: &[&Subspace]) -> GcOutcome {
        let mut holders: Vec<&dyn EdgeHolder> = vec![&self.qts];
        holders.extend(kept.iter().map(|s| *s as &dyn EdgeHolder));
        self.m.collect_retaining(&holders)
    }

    /// Spans a subspace from states on this session's manager, validating
    /// that every state fits the session register (the check
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::generators;
    use qits_tdd::GcPolicy;
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
            .gc_policy(Some(GcPolicy::aggressive()))
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let got = engine.manager().gc_policy().expect("policy installed");
        // Compare everything except `reorder`, which the QITS_REORDER
        // environment knob may legitimately rewrite under the CI matrix.
        assert_eq!(
            got,
            GcPolicy {
                reorder: got.reorder,
                ..GcPolicy::aggressive()
            }
        );
        assert_eq!(engine.manager().cache_sizes().total(), 0);
    }

    #[test]
    fn reorder_knob_installs_a_gc_policy_when_none_is_set() {
        let engine = EngineBuilder::new()
            .reorder(ReorderPolicy::EveryCollection)
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let policy = engine.manager().gc_policy().expect("merged-in policy");
        assert_eq!(policy.reorder, ReorderPolicy::EveryCollection);
        // Everything else stays at the GC default.
        assert_eq!(policy.watermark, GcPolicy::default().watermark);
    }

    #[test]
    fn reorder_knob_merges_into_an_explicit_gc_policy() {
        let engine = EngineBuilder::new()
            .gc_policy(Some(GcPolicy::aggressive()))
            .reorder(ReorderPolicy::EveryNSafepoints { n: 3 })
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let policy = engine.manager().gc_policy().unwrap();
        assert_eq!(policy.reorder, ReorderPolicy::EveryNSafepoints { n: 3 });
        assert_eq!(policy.watermark, GcPolicy::aggressive().watermark);
    }

    #[test]
    fn static_order_knob_reaches_the_manager() {
        use qits_tensor::Var;
        let engine = EngineBuilder::new()
            .static_order(StaticOrder::PositionMajor)
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let order = engine.manager().var_order().expect("explicit order");
        // All kets before all rows — and the session built its system
        // under that order without changing any result.
        assert_eq!(
            &order[..3],
            &[Var::wire(0, 0), Var::wire(1, 0), Var::wire(2, 0)]
        );
        assert_eq!(engine.initial().dim(), 1);
    }

    #[test]
    fn gate_locality_order_computes_the_same_image() {
        let spec = generators::qrw(3, 0.2);
        let mut natural = EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .build_from_spec(&spec)
            .unwrap();
        let mut local = EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .static_order(StaticOrder::GateLocality)
            .build_from_spec(&spec)
            .unwrap();
        let (a, _) = natural.image().unwrap();
        let (b, _) = local.image().unwrap();
        assert_eq!(a.dim(), b.dim());
    }

    #[test]
    fn reordering_under_forced_gc_preserves_the_fixpoint() {
        // The whole reachability fixpoint with a sifting pass forced at
        // every collecting safepoint must agree with the grow-only run.
        let spec = generators::qrw(3, 0.2);
        let strategy = Strategy::Contraction { k1: 2, k2: 2 };
        let mut plain = EngineBuilder::new()
            .strategy(strategy)
            .build_from_spec(&spec)
            .unwrap();
        let mut sifted = EngineBuilder::new()
            .strategy(strategy)
            .gc_policy(Some(GcPolicy::aggressive()))
            .reorder(ReorderPolicy::EveryCollection)
            .build_from_spec(&spec)
            .unwrap();
        let a = plain.reachable_space(20).unwrap();
        let b = sifted.reachable_space(20).unwrap();
        assert_eq!(a.space.dim(), b.space.dim());
        assert!(a.converged && b.converged);
        assert!(
            sifted.manager().stats().sift_passes > 0,
            "aggressive GC + EveryCollection must actually sift"
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
    fn image_of_keeping_protects_bystanders_under_gc() {
        let mut engine = EngineBuilder::new()
            .gc_policy(Some(GcPolicy::aggressive()))
            .strategy(Strategy::Addition { k: 1 })
            .build_from_spec(&generators::qrw(3, 0.2))
            .unwrap();
        let vars = Subspace::ket_vars(3);
        let k = engine.manager_mut().basis_ket(&vars, &[true, false, true]);
        let bystander = engine.subspace_from_states(&[k]).unwrap();
        let input = engine.initial().clone();
        let (_, stats) = engine.image_of_keeping(&input, &[&bystander]).unwrap();
        assert!(stats.safepoint_collections > 0, "GC must actually run");
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
