//! Root-tracked garbage collection for the TDD node store.
//!
//! The node store of a [`TddManager`] only accumulates between collections:
//! every operation hash-conses new nodes and nothing is freed in place. The
//! paper's headline workload — reachability via repeated image computation,
//! a chain of images joined into one subspace on one manager — therefore
//! accumulates every dead intermediate of every slice, block, and
//! Gram–Schmidt residual, and long fixpoints become memory-bound before
//! they are time-bound. This module is the reclamation subsystem that
//! fixes that, in the style of mature decision-diagram managers: explicit
//! root tracking plus mark-and-sweep over the backed unique table (the
//! private `table` module).
//!
//! # The generational-handle contract
//!
//! Collection **never moves a node**. A sweep frees an unreachable node by
//! bumping its slot's generation and recycling the slot, so from a
//! holder's point of view every edge is in exactly one of two states after
//! any number of collections:
//!
//! * **live** — the edge was reachable from a root at every collection; it
//!   is *bit-identical* to the day it was built and remains valid;
//! * **stale** — its node was swept; the handle's generation no longer
//!   matches the slot's, which [`TddManager::is_live`] detects. A stale
//!   handle can never silently resolve to whatever node later recycles the
//!   slot.
//!
//! There is no relocation map, no `relocate()` pass over holders, and no
//! pin/restore ceremony: holders simply keep their edges. The entire
//! root contract is:
//!
//! * [`TddManager::protect`] registers an edge as a root and returns a
//!   [`RootId`]; [`TddManager::unprotect`] releases it.
//! * [`TddManager::root_scope`] wraps the manager in a [`RootScope`] RAII
//!   guard that unprotects everything it protected when dropped — the
//!   convenient form for protecting temporaries across a collection.
//! * [`TddManager::collect_retaining`] additionally marks from a slice of
//!   [`EdgeHolder`]s for the duration of one collection — the ergonomic
//!   form when a known set of structures must survive exactly one call.
//!
//! Canonical identity is fully preserved among survivors (the unique index
//! keeps them interned; rebuilding an equal tensor returns the *same*
//! edge), and the index itself is never rebuilt by a collection — sweeps
//! only turn index entries into tombstones in place, which
//! [`crate::ManagerStats::unique_rebuilds`] lets tests assert.
//!
//! # Epoch-aware operation caches
//!
//! Operation-cache entries name generational node handles, so a collection
//! no longer invalidates them wholesale: [`crate::cache::OpCaches`] only
//! bumps its epoch, and each pre-collection entry is re-validated on its
//! next probe (value generation current ⇒ the whole memoised subgraph
//! survived, because marking is transitive) or evicted by the targeted
//! [`TddManager::purge_stale`]. Interners and the complex table survive
//! collections untouched (they key on variables and values, never nodes).
//!
//! # Automatic collection and incremental sweeps
//!
//! [`GcPolicy`] makes collection automatic at the call sites that opt in:
//! [`TddManager::maybe_collect`] and
//! [`TddManager::maybe_collect_at_safepoint`] collect only when at least
//! `min_interval` nodes were interned since the previous collection and
//! the live occupancy has grown past `watermark` times the previous
//! live set. The policy is **off by default** — a manager without a policy
//! behaves exactly like the pre-GC, grow-only arena.
//!
//! Because nodes never move, a sweep no longer has to be atomic:
//! [`GcPolicy::sweep_budget`] bounds how many slots one safepoint poll
//! sweeps, spreading reclamation across the safepoints the image pipeline
//! already polls. While a sweep is in progress, new collections are
//! deferred and interning *resurrects* any unswept node an operation asks
//! for (the private `table` module); [`TddManager::protect`] likewise rescues a
//! subgraph rooted mid-sweep.

use std::ops::{Deref, DerefMut};
use std::time::Instant;

use qits_num::key::{Fnv128, KeyBits};

use crate::manager::TddManager;
use crate::node::Edge;

/// Handle to a protected edge in a manager's root registry.
///
/// Obtained from [`TddManager::protect`]; released with
/// [`TddManager::unprotect`]. Ids are recycled after release, so a stale
/// `RootId` must not be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootId(u32);

/// The manager-owned root registry: a slab of protected edges.
///
/// Edges in the registry are the GC's mark sources. Collection never
/// rewrites them — it cannot, nothing moves — so a root always reads back
/// exactly the edge that was protected.
#[derive(Debug, Default)]
pub(crate) struct RootRegistry {
    slots: Vec<Option<Edge>>,
    free: Vec<u32>,
}

impl RootRegistry {
    pub(crate) fn insert(&mut self, e: Edge) -> RootId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(e);
                RootId(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("root registry overflow");
                self.slots.push(Some(e));
                RootId(i)
            }
        }
    }

    pub(crate) fn remove(&mut self, id: RootId) -> Option<Edge> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let e = slot.take();
        if e.is_some() {
            self.free.push(id.0);
        }
        e
    }

    pub(crate) fn get(&self, id: RootId) -> Option<Edge> {
        self.slots.get(id.0 as usize).copied().flatten()
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.slots.iter().copied().flatten()
    }
}

/// When [`TddManager::maybe_collect`] actually collects, and how much of
/// the sweep one safepoint poll may run.
///
/// The policy is deliberately simple — a watermark ratio over the live set
/// plus a minimum allocation interval — because mark cost is linear in the
/// live set and sweep cost linear in the store; anything cleverer needs
/// workload knowledge the caller has and the manager does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcPolicy {
    /// Collect when the live occupancy reaches `watermark` times the live
    /// set left by the previous collection (values `< 1` are treated as
    /// `1`).
    pub watermark: f64,
    /// Never collect before this many nodes were interned since the
    /// previous collection — bounds collection *frequency* so tight loops
    /// on small diagrams do not pay a mark per iteration.
    pub min_interval: usize,
    /// Most slots one safepoint poll sweeps. `usize::MAX` (the default)
    /// completes the sweep inside the collecting poll; a finite budget
    /// amortizes the sweep across subsequent polls — new collections are
    /// deferred until it finishes.
    pub sweep_budget: usize,
}

impl Default for GcPolicy {
    /// Collect when the live set doubles, at most every 2¹⁶ allocations,
    /// sweeping in one step.
    fn default() -> Self {
        GcPolicy {
            watermark: 2.0,
            min_interval: 1 << 16,
            sweep_budget: usize::MAX,
        }
    }
}

impl KeyBits for GcPolicy {
    fn key_bits(&self, h: &mut Fnv128) {
        let GcPolicy {
            watermark,
            min_interval,
            sweep_budget,
        } = self;
        watermark.key_bits(h);
        min_interval.key_bits(h);
        sweep_budget.key_bits(h);
    }
}

impl GcPolicy {
    /// Collects at every opportunity — maximal reclamation, maximal
    /// overhead. Intended for tests and for measuring GC cost.
    pub fn aggressive() -> Self {
        GcPolicy {
            watermark: 1.0,
            min_interval: 0,
            ..GcPolicy::default()
        }
    }

    /// This policy with the per-safepoint sweep budget set to `budget`
    /// slots.
    pub fn with_sweep_budget(mut self, budget: usize) -> Self {
        self.sweep_budget = budget;
        self
    }
}

/// What one [`TddManager::collect`] call did.
#[derive(Debug, Clone, Copy)]
pub struct GcOutcome {
    /// Nodes swept. Under a finite [`GcPolicy::sweep_budget`] this counts
    /// only the slots the collecting poll itself swept; the remainder is
    /// folded into [`crate::ManagerStats::nodes_reclaimed`] by later polls.
    pub reclaimed: usize,
    /// Non-terminal nodes that were marked reachable.
    pub live: usize,
}

/// A structure holding long-lived [`Edge`]s that can ride through a
/// collection by exposing them as mark roots.
///
/// Implemented for [`Edge`], slices, vectors, and references here, and by
/// the higher-level holders (subspaces, transition systems, tensor
/// networks) in their own crates. Since collection never moves a node,
/// this is the *entire* holder obligation — there is no relocate or
/// restore step; the holder's edges are simply still valid afterwards.
pub trait EdgeHolder {
    /// Calls `visit` on every edge this holder owns.
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge));
}

impl EdgeHolder for Edge {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        visit(*self);
    }
}

impl<T: EdgeHolder> EdgeHolder for [T] {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        for t in self {
            t.gc_edges(visit);
        }
    }
}

impl<T: EdgeHolder> EdgeHolder for Vec<T> {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        self.as_slice().gc_edges(visit);
    }
}

impl<T: EdgeHolder + ?Sized> EdgeHolder for &T {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        (**self).gc_edges(visit);
    }
}

/// RAII guard pairing a manager borrow with a set of scoped roots.
///
/// Derefs to the [`TddManager`], so operations run through the guard; any
/// edge passed to [`RootScope::protect`] is unprotected again when the
/// guard drops. This is the intended way to hold temporaries across a
/// [`TddManager::collect`] / [`TddManager::maybe_collect`]:
///
/// ```
/// use qits_tdd::{GcPolicy, TddManager};
/// use qits_tensor::Var;
///
/// let mut m = TddManager::new();
/// let mut scope = m.root_scope();
/// let e = scope.identity(Var(0), Var(1));
/// scope.protect(e);
/// let outcome = scope.collect();
/// // `e` is bit-identical after the collection — nothing moved.
/// assert_eq!(scope.node_count(e), 3);
/// drop(scope); // unprotects `e`
/// assert_eq!(m.root_count(), 0);
/// # let _ = outcome;
/// # let _ = GcPolicy::default();
/// ```
#[derive(Debug)]
pub struct RootScope<'m> {
    m: &'m mut TddManager,
    roots: Vec<RootId>,
}

impl RootScope<'_> {
    /// Protects `e` for the lifetime of this scope.
    pub fn protect(&mut self, e: Edge) -> RootId {
        let id = self.m.protect(e);
        self.roots.push(id);
        id
    }
}

impl Deref for RootScope<'_> {
    type Target = TddManager;

    fn deref(&self) -> &TddManager {
        self.m
    }
}

impl DerefMut for RootScope<'_> {
    fn deref_mut(&mut self) -> &mut TddManager {
        self.m
    }
}

impl Drop for RootScope<'_> {
    fn drop(&mut self) {
        for id in self.roots.drain(..) {
            self.m.unprotect(id);
        }
    }
}

impl TddManager {
    // ------------------------------------------------------------------
    // Root management.
    // ------------------------------------------------------------------

    /// Registers `e` as a GC root: the diagram below it survives every
    /// collection, bit-identically.
    ///
    /// Protecting an edge while an incremental sweep is in progress also
    /// re-marks its (still unswept) subgraph, so rooting is safe at any
    /// point between safepoints.
    pub fn protect(&mut self, e: Edge) -> RootId {
        self.unique.mark_live_subgraph(e.node);
        self.roots.insert(e)
    }

    /// Releases a root. Releasing an already-released id is a no-op.
    pub fn unprotect(&mut self, id: RootId) {
        let _ = self.roots.remove(id);
    }

    /// Releases a batch of roots (the shape `Subspace::protect` returns).
    pub fn unprotect_all<I: IntoIterator<Item = RootId>>(&mut self, ids: I) {
        for id in ids {
            self.unprotect(id);
        }
    }

    /// The edge behind a root — exactly the edge that was protected
    /// (collection never rewrites it).
    ///
    /// # Panics
    ///
    /// Panics if the root was released.
    pub fn root_edge(&self, id: RootId) -> Edge {
        self.roots.get(id).expect("root was released")
    }

    /// Number of live roots.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Opens an RAII scope whose roots are released when it drops.
    pub fn root_scope(&mut self) -> RootScope<'_> {
        RootScope {
            m: self,
            roots: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Policy.
    // ------------------------------------------------------------------

    /// Installs (or removes, with `None`) the automatic-collection policy
    /// consulted by [`TddManager::maybe_collect`]. `None` — the default —
    /// restores the grow-only behaviour.
    pub fn set_gc_policy(&mut self, policy: Option<GcPolicy>) {
        self.gc_policy = policy;
    }

    /// The installed automatic-collection policy, if any.
    pub fn gc_policy(&self) -> Option<GcPolicy> {
        self.gc_policy
    }

    /// Whether a mark has run whose (incremental) sweep has not finished.
    /// While true, new collections are deferred; safepoint polls drain the
    /// pending sweep instead.
    pub fn sweep_in_progress(&self) -> bool {
        self.unique.sweep_in_progress()
    }

    /// Whether the installed policy asks for a collection right now.
    /// Always `false` without a policy, and while a sweep is in progress.
    pub fn should_collect(&self) -> bool {
        match self.gc_policy {
            None => false,
            Some(p) => {
                !self.unique.sweep_in_progress()
                    && self.allocs_since_gc >= p.min_interval.max(1) as u64
                    && self.unique.occupied() as f64 >= self.gc_floor as f64 * p.watermark.max(1.0)
            }
        }
    }

    /// Collects if (and only if) the installed policy asks for it.
    pub fn maybe_collect(&mut self) -> Option<GcOutcome> {
        if self.should_collect() {
            Some(self.collect())
        } else {
            None
        }
    }

    /// Marks from the registry plus `holders` and sweeps up to `budget`
    /// slots, finishing any sweep a previous bounded collection left
    /// behind first. The shared core of every collection entry point.
    fn collect_with_budget(&mut self, holders: &[&dyn EdgeHolder], budget: usize) -> GcOutcome {
        let start = Instant::now();
        let mut reclaimed = 0usize;
        if self.unique.sweep_in_progress() {
            reclaimed += self.unique.sweep_step(usize::MAX).0;
        }
        // Mark.
        self.unique.begin_mark();
        let mut stack: Vec<u32> = self
            .roots
            .iter()
            .filter(|e| !e.node.is_terminal())
            .map(|e| e.node.idx)
            .collect();
        for h in holders {
            h.gc_edges(&mut |e| {
                if !e.node.is_terminal() {
                    stack.push(e.node.idx);
                }
            });
        }
        let live = self.unique.mark_reachable(&mut stack);
        // Caches keep their entries; the epoch bump forces re-validation.
        self.caches.on_collect();
        // Sweep (possibly just the first installment).
        self.unique.begin_sweep();
        reclaimed += self.unique.sweep_step(budget).0;
        self.stats.gc_runs += 1;
        self.stats.nodes_reclaimed += reclaimed as u64;
        self.stats.live_after_last_gc = live;
        self.gc_floor = live.max(1);
        self.allocs_since_gc = 0;
        self.stats.gc_nanos += start.elapsed().as_nanos() as u64;
        GcOutcome { reclaimed, live }
    }

    /// The whole collection in one call with extra mark roots: everything
    /// reachable from the registry **or** from an edge a holder exposes
    /// survives. Holders need no cleanup afterwards — their edges are
    /// untouched.
    pub fn collect_retaining(&mut self, holders: &[&dyn EdgeHolder]) -> GcOutcome {
        self.collect_with_budget(holders, usize::MAX)
    }

    /// Polls a **GC safepoint**: a point where the caller's `holders`
    /// (plus the registry) are exactly the structures that must survive a
    /// collection.
    ///
    /// Every poll is counted in [`crate::ManagerStats::safepoints_polled`].
    /// If an incremental sweep is pending, the poll runs one
    /// [`GcPolicy::sweep_budget`]-bounded installment of it (folding the
    /// reclaimed slots into [`crate::ManagerStats::nodes_reclaimed`]) and
    /// returns `None`. Otherwise it collects iff the installed policy asks
    /// for it, sweeping up to the budget, and counts the collection in
    /// [`crate::ManagerStats::safepoint_collections`].
    pub fn maybe_collect_at_safepoint(&mut self, holders: &[&dyn EdgeHolder]) -> Option<GcOutcome> {
        self.stats.safepoints_polled += 1;
        // Cancellation rides the safepoint cadence and is checked before
        // the policy gate so GC-free sessions stay cancellable too.
        // `resume_unwind` rather than `panic_any`: cancellation is a
        // routine serving event, caught and converted at the operation
        // boundary, so it must not invoke the panic hook (which would
        // print a backtrace per cancelled job).
        if let Some(token) = &self.cancel_token {
            if token.poll() {
                std::panic::resume_unwind(Box::new(crate::OperationCancelled {
                    polls: token.polls(),
                }));
            }
        }
        if self.unique.sweep_in_progress() {
            let budget = self.gc_policy.map_or(usize::MAX, |p| p.sweep_budget);
            let start = Instant::now();
            let (reclaimed, _done) = self.unique.sweep_step(budget);
            self.stats.nodes_reclaimed += reclaimed as u64;
            self.stats.gc_nanos += start.elapsed().as_nanos() as u64;
            return None;
        }
        let p = self.gc_policy?;
        if !self.should_collect() {
            return None;
        }
        let out = self.collect_with_budget(holders, p.sweep_budget);
        self.stats.safepoint_collections += 1;
        Some(out)
    }

    // ------------------------------------------------------------------
    // Collection.
    // ------------------------------------------------------------------

    /// Mark-and-sweep collection over the root registry.
    ///
    /// Marks every node reachable from a protected edge and sweeps the
    /// rest **in place**: each unreachable node's slot generation is
    /// bumped (stale handles become detectable, never dangling) and the
    /// slot is recycled for future nodes. Nothing moves, the unique index
    /// is not rebuilt, and operation caches keep their entries for lazy
    /// re-validation. Counters are folded into [`crate::ManagerStats`].
    pub fn collect(&mut self) -> GcOutcome {
        self.collect_retaining(&[])
    }

    /// Collections performed so far (equals the current cache epoch).
    pub fn gc_runs(&self) -> u64 {
        self.stats.gc_runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_num::Cplx;
    use qits_tensor::{Tensor, Var};

    fn sample_tensor(seed: u64) -> Tensor {
        let data: Vec<Cplx> = (0..8u64)
            .map(|i| {
                let x = (i * 7 + seed * 13 + 3) % 17;
                Cplx::new(x as f64 * 0.125 - 1.0, (x % 5) as f64 * 0.25)
            })
            .collect();
        Tensor::new(vec![Var(0), Var(1), Var(2)], data)
    }

    #[test]
    fn collect_without_roots_empties_the_store() {
        let mut m = TddManager::new();
        let _garbage = m.from_tensor(&sample_tensor(1));
        assert!(m.arena_occupied() > 0);
        let out = m.collect();
        assert_eq!(m.arena_occupied(), 0, "only the terminal survives");
        assert_eq!(out.live, 0);
        assert!(out.reclaimed > 0);
        assert_eq!(m.arena_free(), out.reclaimed, "slots land on the free list");
        assert_eq!(m.stats().nodes_reclaimed, out.reclaimed as u64);
    }

    #[test]
    fn rooted_diagram_survives_bit_identically() {
        let mut m = TddManager::new();
        let t = sample_tensor(2);
        let e = m.from_tensor(&t);
        let before = m.to_tensor(e, &[Var(0), Var(1), Var(2)]);
        let _garbage = m.from_tensor(&sample_tensor(3));
        let id = m.protect(e);
        m.collect();
        // The defining property of generational handles: nothing moved.
        assert_eq!(m.root_edge(id), e);
        assert!(m.is_live(e));
        let after = m.to_tensor(e, &[Var(0), Var(1), Var(2)]);
        assert!(after.approx_eq(&before));
        assert_eq!(m.arena_occupied(), m.node_count(e));
    }

    #[test]
    fn canonical_identity_survives_collection() {
        // Rebuilding the same tensor after a collection must hash-cons to
        // exactly the original edge: survivors stay interned.
        let mut m = TddManager::new();
        let t = sample_tensor(4);
        let e = m.from_tensor(&t);
        m.protect(e);
        m.collect();
        let rebuilt = m.from_tensor(&t);
        assert_eq!(rebuilt, e);
    }

    #[test]
    fn dead_edges_are_detectably_stale() {
        let mut m = TddManager::new();
        let keep = m.from_tensor(&sample_tensor(5));
        let drop_ = m.from_tensor(&sample_tensor(6));
        m.protect(keep);
        let out = m.collect();
        assert!(out.reclaimed > 0);
        assert!(m.is_live(keep));
        assert!(!m.is_live(drop_), "swept edge must be detectably stale");
    }

    #[test]
    fn swept_slots_recycle_under_a_new_generation() {
        let mut m = TddManager::new();
        let dead = m.from_tensor(&sample_tensor(7));
        let allocated = m.arena_len();
        m.collect();
        assert!(!m.is_live(dead));
        // Rebuilding reuses the freed slots without growing the store, and
        // the stale handle can never alias the recycled nodes.
        let rebuilt = m.from_tensor(&sample_tensor(7));
        assert!(m.is_live(rebuilt));
        assert_ne!(rebuilt, dead, "recycled slot must carry a new generation");
        assert!(!m.is_live(dead), "old handle stays stale forever");
        assert_eq!(m.arena_len(), allocated, "churn must not grow the store");
    }

    #[test]
    fn scalar_and_zero_edges_are_always_live() {
        let mut m = TddManager::new();
        let s = m.constant(Cplx::new(0.5, -0.25));
        m.collect();
        assert!(m.is_live(Edge::ZERO));
        assert!(m.is_live(Edge::ONE));
        assert!(m.is_live(s), "terminal edges never die");
    }

    #[test]
    fn root_scope_unprotects_on_drop() {
        let mut m = TddManager::new();
        let e = m.from_tensor(&sample_tensor(8));
        {
            let mut scope = m.root_scope();
            scope.protect(e);
            assert_eq!(scope.root_count(), 1);
        }
        assert_eq!(m.root_count(), 0);
        m.collect();
        assert_eq!(m.arena_occupied(), 0);
    }

    #[test]
    fn unprotect_is_idempotent_and_ids_recycle() {
        let mut m = TddManager::new();
        let e = m.from_tensor(&sample_tensor(9));
        let a = m.protect(e);
        m.unprotect(a);
        m.unprotect(a); // no-op
        assert_eq!(m.root_count(), 0);
        let b = m.protect(e);
        assert_eq!(m.root_count(), 1);
        assert_eq!(m.root_edge(b), e);
    }

    #[test]
    fn caches_survive_collection_and_purge_stale_evicts_dead_entries() {
        let mut m = TddManager::new();
        let a = m.from_tensor(&sample_tensor(10));
        let b = m.from_tensor(&sample_tensor(11));
        let r = m.add(a, b);
        let entries = m.cache_sizes().total();
        assert!(entries > 0);
        let roots = vec![m.protect(a), m.protect(b), m.protect(r)];
        m.collect();
        // Collection keeps every entry: they name generational handles and
        // everything cached here is about rooted (surviving) diagrams.
        assert_eq!(
            m.cache_sizes().total(),
            entries,
            "collection must not flush caches"
        );
        assert_eq!(m.purge_stale(), 0, "no dead entries while everything lives");
        // Drop the roots and collect again: now every memo names dead
        // nodes, and the targeted purge evicts exactly those.
        m.unprotect_all(roots);
        m.collect();
        let purged = m.purge_stale();
        assert_eq!(purged, entries as u64, "all entries named swept nodes");
        assert_eq!(m.cache_sizes().total(), 0);
        assert!(m.stats().add_cache.purged > 0);
    }

    #[test]
    fn operations_recompute_identically_after_collection() {
        let (ta, tb) = (sample_tensor(12), sample_tensor(13));
        let mut m = TddManager::new();
        let a = m.from_tensor(&ta);
        let b = m.from_tensor(&tb);
        let sum_before = m.add(a, b);
        m.protect(a);
        m.protect(b);
        m.protect(sum_before);
        m.collect();
        // Operands are untouched, and re-adding them re-canonicalises to
        // the exact pre-collection result.
        let sum_after = m.add(a, b);
        assert_eq!(sum_after, sum_before);
        let vars = [Var(0), Var(1), Var(2)];
        assert!(m.to_tensor(sum_after, &vars).approx_eq(&ta.add(&tb)));
    }

    #[test]
    fn policy_watermark_and_interval_gate_collection() {
        let mut m = TddManager::new();
        assert!(!m.should_collect(), "no policy: never collect");
        m.set_gc_policy(Some(GcPolicy {
            min_interval: 1 << 20,
            ..GcPolicy::default()
        }));
        let _ = m.from_tensor(&sample_tensor(14));
        assert!(!m.should_collect(), "min_interval not reached");
        m.set_gc_policy(Some(GcPolicy::aggressive()));
        assert!(m.should_collect());
        let out = m.maybe_collect().expect("aggressive policy collects");
        assert!(out.reclaimed > 0);
        assert!(!m.should_collect(), "store is clean right after a collect");
        assert!(m.maybe_collect().is_none());
    }

    #[test]
    fn collect_retaining_marks_from_holders() {
        let mut m = TddManager::new();
        let t = sample_tensor(20);
        let keep = m.from_tensor(&t);
        let kept_many = vec![m.from_tensor(&sample_tensor(21))];
        let _garbage = m.from_tensor(&sample_tensor(22));
        let out = m.collect_retaining(&[&keep, &kept_many]);
        assert!(out.reclaimed > 0);
        assert_eq!(m.root_count(), 0, "holders are not registry roots");
        // No relocation step: the holders' edges are simply still valid.
        assert!(m.is_live(keep) && m.is_live(kept_many[0]));
        assert!(m.to_tensor(keep, &[Var(0), Var(1), Var(2)]).approx_eq(&t));
        assert_eq!(m.arena_occupied(), m.live_node_count(&[keep, kept_many[0]]));
    }

    #[test]
    fn protected_edges_survive_multiple_collections_bit_identically() {
        // The scenario that used to need pin/unpin ceremony: a holder kept
        // alive across several sweeps. With generational handles, rooting
        // is the whole story — the held edges never change.
        let mut m = TddManager::new();
        let t = sample_tensor(30);
        let keep = m.from_tensor(&t);
        let nested = [m.from_tensor(&sample_tensor(31))];
        let r0 = m.protect(keep);
        let r1 = m.protect(nested[0]);
        let _g1 = m.from_tensor(&sample_tensor(32));
        m.collect();
        let _g2 = m.from_tensor(&sample_tensor(33));
        m.collect();
        m.unprotect_all([r0, r1]);
        assert_eq!(m.root_count(), 0);
        assert!(m.is_live(keep) && m.is_live(nested[0]));
        let vars = [Var(0), Var(1), Var(2)];
        assert!(m.to_tensor(keep, &vars).approx_eq(&t));
        assert!(m.to_tensor(nested[0], &vars).approx_eq(&sample_tensor(31)));
    }

    #[test]
    fn safepoint_counters_track_polls_and_collections() {
        let mut m = TddManager::new();
        let t = sample_tensor(35);
        let e = m.from_tensor(&t);
        // No policy: the poll is counted, nothing collects.
        assert!(m.maybe_collect_at_safepoint(&[&e]).is_none());
        assert_eq!(m.stats().safepoints_polled, 1);
        assert_eq!(m.stats().safepoint_collections, 0);
        // Aggressive policy: the next poll collects and retains `e`.
        let _garbage = m.from_tensor(&sample_tensor(36));
        m.set_gc_policy(Some(GcPolicy::aggressive()));
        let out = m.maybe_collect_at_safepoint(&[&e]);
        assert!(out.expect("must collect").reclaimed > 0);
        assert_eq!(m.stats().safepoints_polled, 2);
        assert_eq!(m.stats().safepoint_collections, 1);
        assert!(m.to_tensor(e, &[Var(0), Var(1), Var(2)]).approx_eq(&t));
        // The counters diff like any other ManagerStats counter.
        let snap = m.stats();
        let _ = m.maybe_collect_at_safepoint(&[&e]);
        let moved = m.stats().since(&snap);
        assert_eq!(moved.safepoints_polled, 1);
    }

    #[test]
    fn collection_never_rebuilds_the_unique_index() {
        // The acceptance criterion of the backed-table refactor: GC cost
        // no longer includes a unique-table rebuild. Rebuilds happen only
        // under load-factor pressure, which this tiny workload never hits.
        let mut m = TddManager::new();
        let e = m.from_tensor(&sample_tensor(40));
        m.protect(e);
        let rebuilds_before = m.stats().unique_rebuilds;
        for seed in 41..46 {
            let _g = m.from_tensor(&sample_tensor(seed));
            m.collect();
        }
        assert!(m.stats().gc_runs >= 5);
        assert_eq!(
            m.stats().unique_rebuilds,
            rebuilds_before,
            "collections must never rebuild the unique index"
        );
        assert!(m.stats().generation_bumps > 0, "sweeps bump generations");
        assert!(m.stats().tombstones_created > 0, "sweeps leave tombstones");
        assert!(m.is_live(e));
    }

    #[test]
    fn incremental_sweep_amortizes_reclamation_across_safepoints() {
        let mut m = TddManager::new();
        let keep = m.from_tensor(&sample_tensor(50));
        let _garbage = m.from_tensor(&sample_tensor(51));
        m.set_gc_policy(Some(GcPolicy::aggressive().with_sweep_budget(2)));
        let out = m
            .maybe_collect_at_safepoint(&[&keep])
            .expect("aggressive policy collects");
        assert!(out.live > 0);
        assert!(
            m.sweep_in_progress(),
            "a 2-slot budget must leave the sweep unfinished"
        );
        let after_first = m.stats().nodes_reclaimed;
        let collections = m.stats().safepoint_collections;
        let mut polls = 0;
        while m.sweep_in_progress() {
            assert!(
                m.maybe_collect_at_safepoint(&[&keep]).is_none(),
                "amortizing polls must not start a new collection"
            );
            polls += 1;
            assert!(polls < 10_000, "sweep cursor must terminate");
        }
        assert!(polls > 0);
        assert!(
            m.stats().nodes_reclaimed > after_first,
            "later installments must keep reclaiming"
        );
        assert_eq!(
            m.stats().safepoint_collections,
            collections,
            "draining the sweep is not a new collection"
        );
        assert!(m.is_live(keep));
        assert_eq!(m.arena_occupied(), m.node_count(keep));
    }

    #[test]
    fn protect_during_incremental_sweep_rescues_the_subgraph() {
        let mut m = TddManager::new();
        let a = m.from_tensor(&sample_tensor(60));
        let b = m.from_tensor(&sample_tensor(61));
        m.protect(a);
        m.set_gc_policy(Some(GcPolicy::aggressive().with_sweep_budget(1)));
        // The collecting poll marks only `a` and sweeps one slot (a's
        // first node — marked, so nothing is reclaimed yet). `b`'s slots
        // all come later in the cursor's order.
        assert!(m.maybe_collect_at_safepoint(&[]).is_some());
        assert!(m.sweep_in_progress());
        // Rooting `b` mid-sweep re-marks its subgraph before the cursor
        // reaches it.
        m.protect(b);
        while m.sweep_in_progress() {
            m.maybe_collect_at_safepoint(&[]);
        }
        assert!(m.is_live(a));
        assert!(m.is_live(b), "mid-sweep protect must rescue the subgraph");
    }

    #[test]
    fn live_node_count_tracks_roots_and_extras() {
        let mut m = TddManager::new();
        let a = m.from_tensor(&sample_tensor(15));
        let b = m.from_tensor(&sample_tensor(16));
        assert_eq!(m.live_node_count(&[]), 0);
        m.protect(a);
        assert_eq!(m.live_node_count(&[]), m.node_count(a));
        let both = m.live_node_count(&[b]);
        assert!(both >= m.node_count(a).max(m.node_count(b)));
        assert!(both <= m.node_count(a) + m.node_count(b));
    }

    #[test]
    fn gc_runs_counts_collections() {
        let mut m = TddManager::new();
        assert_eq!(m.gc_runs(), 0);
        m.collect();
        m.collect();
        assert_eq!(m.gc_runs(), 2);
        assert_eq!(m.stats().gc_runs, 2);
    }
}
