//! The TDD manager: backed unique table and constructors.

use std::collections::BTreeMap;
use std::sync::Mutex;

use qits_num::{Cplx, Mat};
use qits_tensor::{Tensor, Var};

use crate::cache::{CacheSizes, OpCaches, DEFAULT_CACHE_CAPACITY};
use crate::cancel::CancelToken;
use crate::cnum::{CIdx, ComplexTable};
use crate::node::{Edge, Node, NodeId, TERMINAL};
use crate::stats::ManagerStats;
use crate::table::UniqueTable;
use crate::walk::WalkScratch;

/// Default hard bound on allocated node slots: the whole `u32` index space.
const DEFAULT_NODE_CAPACITY: usize = u32::MAX as usize;

/// Panic payload thrown by [`TddManager::make_node`] when the node store is
/// at its configured capacity (see [`TddManager::set_node_capacity`]) and
/// no swept slot is free.
///
/// Exhaustion is not a recoverable condition *inside* a recursive diagram
/// operation — there is no partial result to return — so it unwinds as a
/// typed panic payload that session facades (`qits`'s `Engine`) catch at
/// the operation boundary and convert into their fallible API's error; a
/// pool worker hitting it fails only its own job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaExhausted {
    /// Slots allocated when the table filled (terminal included).
    pub allocated: usize,
    /// The configured bound that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for ArenaExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node arena exhausted: {} slots allocated of capacity {}",
            self.allocated, self.capacity
        )
    }
}

/// Owns every node and weight of a family of TDDs and implements all
/// operations on them.
///
/// All edges ([`Edge`]) are only meaningful relative to the manager that
/// created them. The manager enforces the two invariants that give TDDs
/// canonicity:
///
/// 1. **Reduction** — no node has identical low and high edges, and the zero
///    tensor is always the canonical zero edge;
/// 2. **Normalisation** — the largest-magnitude outgoing weight of each
///    node (ties broken towards the low branch) is exactly 1, with the
///    common factor pushed to the incoming edge. The pivot choice is
///    deliberately **scale-equivariant** — `pivot(λa, λb) = λ·pivot(a, b)`
///    — because every operation factors weights out before recursing
///    (cofactors multiply the root weight down, addition normalises by
///    its first operand's weight); a pivot that ranked absolute values
///    (say by `(|c|, re, im)`) would canonicalise the same tensor
///    differently along different construction routes.
///
/// Both invariants hold relative to one variable order, the natural order
/// of [`Var`]: qubit-major, then position along the wire, which is the
/// paper's interleaved `x1 < y1 < x2 < y2 < …` (Fig. 1). A node's level
/// *is* its variable, so every structural comparison in the crate compares
/// variables; the terminal's sentinel variable sorts below every real one.
///
/// Nodes live in a **backed Robin Hood unique table** (see
/// the private `table` module) under generational handles, reclaimed by
/// **garbage collection** (see [`crate::gc`]): the diagrams of the
/// holders handed to [`TddManager::collect`] survive it
/// **bit-identically** — collection never moves a node — while
/// everything unreachable from them is swept in place: its slot's
/// generation is bumped (making held handles detectably stale, never
/// silently recycled) and the slot is recycled for future nodes.
/// Collection only ever runs where it is called; a manager nobody
/// collects behaves exactly like a grow-only arena.
///
/// Operation caches are **manager-owned** (see [`crate::cache`]) so
/// memoised results survive across top-level calls — the reuse repeated
/// image computations depend on — and they are size-bounded. A collection
/// clears them, so no entry outlives the nodes it names;
/// [`TddManager::clear_caches`] does the same without collecting.
#[derive(Debug)]
pub struct TddManager {
    /// Node storage and hash-consing index in one structure.
    pub(crate) unique: UniqueTable,
    table: ComplexTable,
    pub(crate) caches: OpCaches,
    pub(crate) stats: ManagerStats,
    /// Cooperative-cancellation flag checked at every
    /// [`TddManager::poll_cancel`]; `None` (the default) makes polls
    /// cancellation-free.
    cancel_token: Option<CancelToken>,
    /// Stamps and stack of the node-counting walks (see the private
    /// `walk` module), locked so that counting works through `&self`.
    pub(crate) walk: Mutex<WalkScratch>,
}

impl Default for TddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TddManager {
    /// Creates an empty manager with the default weight tolerance.
    pub fn new() -> Self {
        Self::with_tolerance(qits_num::DEFAULT_TOLERANCE)
    }

    /// Creates an empty manager with a custom weight tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn with_tolerance(tol: f64) -> Self {
        TddManager {
            unique: UniqueTable::new(DEFAULT_NODE_CAPACITY),
            table: ComplexTable::with_tolerance(tol),
            caches: OpCaches::with_capacity(DEFAULT_CACHE_CAPACITY),
            stats: ManagerStats::default(),
            cancel_token: None,
            walk: Mutex::default(),
        }
    }

    /// Creates an empty manager with every session knob applied at once:
    /// weight tolerance and operation-cache capacity (`None` keeps the
    /// default bound). This is the constructor session facades build on,
    /// so a configured manager is never observable in a half-initialised
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn with_config(tol: f64, cache_capacity: Option<usize>) -> Self {
        let mut m = Self::with_tolerance(tol);
        if let Some(cap) = cache_capacity {
            m.set_cache_capacity(cap);
        }
        m
    }

    /// Statistics accumulated so far, including the live counters of every
    /// operation cache and the unique table's probe/tombstone telemetry.
    pub fn stats(&self) -> ManagerStats {
        let mut s = self.stats;
        s.probe_hist = self.unique.probe_hist;
        s.tombstones = self.unique.tombstone_count();
        s.index_cells = self.unique.index_cells();
        s.tombstones_created = self.unique.tombstones_created;
        s.generation_bumps = self.unique.generation_bumps;
        s.unique_rebuilds = self.unique.unique_rebuilds;
        s.add_cache = *self.caches.add.stats();
        s.cont_cache = *self.caches.cont.stats();
        s.slice_cache = *self.caches.slice.stats();
        s.conj_cache = *self.caches.conj.stats();
        s.rename_cache = *self.caches.rename.stats();
        s
    }

    /// Node slots currently allocated (including the terminal and any
    /// dead-but-reusable slots on the free list).
    ///
    /// Collection never shrinks this — sweeps recycle slots in place — but
    /// it stops growing once the free list covers the churn: reclaimed
    /// slots are reused before new ones are allocated. The live occupancy
    /// is [`TddManager::arena_occupied`]; the live set of any particular
    /// diagram is [`TddManager::node_count`], and that of several is
    /// [`TddManager::live_node_count`].
    pub fn arena_len(&self) -> usize {
        self.unique.allocated()
    }

    /// Non-terminal node slots currently holding a live node
    /// (allocated minus free).
    pub fn arena_occupied(&self) -> usize {
        self.unique.occupied()
    }

    /// Node slots reclaimed by sweeps and awaiting reuse.
    pub fn arena_free(&self) -> usize {
        self.unique.free_slots()
    }

    /// Whether `e` still points at the node it was created for.
    ///
    /// Collection never relocates nodes, so an edge is either **live**
    /// (bit-identical to the day it was built) or **stale** — its slot was
    /// swept and its generation bumped. Stale edges must not be passed to
    /// any operation; this is the check holders use after a collection
    /// that did not hold them.
    #[inline]
    pub fn is_live(&self, e: Edge) -> bool {
        self.unique.is_live(e.node)
    }

    /// Hard bound on allocated node slots (terminal included). When the
    /// bound is hit and no swept slot is free, [`TddManager::make_node`]
    /// unwinds with an [`ArenaExhausted`] payload.
    pub fn node_capacity(&self) -> usize {
        self.unique.node_capacity()
    }

    /// Re-bounds the node store (does not free anything already allocated;
    /// values above the `u32` index space are clamped by allocation).
    pub fn set_node_capacity(&mut self, capacity: usize) {
        self.unique.set_node_capacity(capacity);
    }

    /// Installs (or, with `None`, clears) the cooperative-cancellation
    /// token checked by [`TddManager::poll_cancel`]. A tripped token makes
    /// the next poll unwind with an [`crate::OperationCancelled`] payload;
    /// see [`crate::cancel`].
    ///
    /// Tokens are per-job: a pool worker installs the job's token before
    /// running it and clears it afterwards so the next job cannot inherit
    /// a tripped flag.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel_token = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel_token.as_ref()
    }

    /// Polls for cancellation: counts the poll in
    /// [`ManagerStats::safepoints_polled`] and, if the installed token has
    /// tripped, unwinds with an [`crate::OperationCancelled`] payload.
    /// Long computations call this at their natural breakpoints (between
    /// addition slices and contraction blocks, after Gram–Schmidt
    /// residuals and miter tensors, between fixpoint iterations).
    ///
    /// `resume_unwind` rather than `panic_any`: cancellation is a routine
    /// serving event, caught and converted at the operation boundary, so
    /// it must not invoke the panic hook (which would print a backtrace
    /// per cancelled job).
    pub fn poll_cancel(&mut self) {
        self.stats.safepoints_polled += 1;
        if let Some(token) = &self.cancel_token {
            if token.poll() {
                std::panic::resume_unwind(Box::new(crate::OperationCancelled {
                    polls: token.polls(),
                }));
            }
        }
    }

    /// Drops every operation-cache entry (unique table and node store are
    /// kept), as every collection does. Results built so far remain valid;
    /// the next operations recompute and re-memoise what they need. Cache
    /// counters are cumulative and survive the clear.
    pub fn clear_caches(&mut self) {
        self.caches.clear();
    }

    /// Re-bounds every operation cache to at most `capacity` entries.
    ///
    /// `0` disables operation caching entirely (every lookup misses and
    /// inserts are dropped) — results are identical either way, only the
    /// work to reach them changes; the equivalence tests rely on this.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.caches.set_capacity(capacity);
    }

    /// Live entry counts of every operation cache.
    pub fn cache_sizes(&self) -> CacheSizes {
        self.caches.sizes()
    }

    // ------------------------------------------------------------------
    // Weight arithmetic (interned).
    // ------------------------------------------------------------------

    /// The complex value behind an interned weight.
    #[inline]
    pub fn weight_value(&self, w: CIdx) -> Cplx {
        self.table.value(w)
    }

    /// The weight-snapping tolerance this manager interns under.
    pub fn tolerance(&self) -> f64 {
        self.table.tolerance()
    }

    /// Interns a complex value.
    #[inline]
    pub fn intern(&mut self, c: Cplx) -> CIdx {
        self.table.intern(c)
    }

    #[inline]
    pub(crate) fn cmul(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() || b.is_zero() {
            return CIdx::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let v = self.table.value(a) * self.table.value(b);
        self.table.intern(v)
    }

    #[inline]
    pub(crate) fn cadd(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let v = self.table.value(a) + self.table.value(b);
        self.table.intern(v)
    }

    #[inline]
    pub(crate) fn cdiv(&mut self, a: CIdx, b: CIdx) -> CIdx {
        debug_assert!(!b.is_zero(), "division by interned zero");
        if a.is_zero() {
            return CIdx::ZERO;
        }
        if b.is_one() {
            return a;
        }
        if a == b {
            return CIdx::ONE;
        }
        let v = self.table.value(a) / self.table.value(b);
        self.table.intern(v)
    }

    #[inline]
    pub(crate) fn cconj(&mut self, a: CIdx) -> CIdx {
        let v = self.table.value(a).conj();
        self.table.intern(v)
    }

    // ------------------------------------------------------------------
    // Node construction.
    // ------------------------------------------------------------------

    /// The variable of the node behind an edge: its level in the diagram
    /// order (the terminal's sentinel sorts below every real variable).
    #[inline]
    pub(crate) fn var_of(&self, n: NodeId) -> Var {
        self.unique.node(n).var
    }

    /// The variable labelling the root node of `e`, or `None` for scalars.
    pub fn top_var(&self, e: Edge) -> Option<Var> {
        if e.is_terminal() {
            None
        } else {
            Some(self.var_of(e.node))
        }
    }

    #[inline]
    pub(crate) fn node(&self, n: NodeId) -> &Node {
        self.unique.node(n)
    }

    /// Low/high cofactor edges of `e` with respect to variable `x`.
    ///
    /// If the root of `e` is labelled `x`, these are its successors with the
    /// root weight multiplied in; if the diagram does not depend on `x`
    /// (root variable below `x`), both cofactors are `e` itself.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the root variable sits *above* `x`: cofactors
    /// must be taken in order.
    pub fn cofactors(&mut self, e: Edge, x: Var) -> (Edge, Edge) {
        if e.is_terminal() || self.var_of(e.node) > x {
            return (e, e);
        }
        debug_assert_eq!(self.var_of(e.node), x, "cofactor below root variable");
        let Node { low, high, .. } = *self.node(e.node);
        let lo = self.mul_weight(low, e.weight);
        let hi = self.mul_weight(high, e.weight);
        (lo, hi)
    }

    /// Multiplies an edge's weight by `w`, preserving the zero invariant.
    #[inline]
    pub(crate) fn mul_weight(&mut self, e: Edge, w: CIdx) -> Edge {
        if w.is_one() {
            return e;
        }
        let nw = self.cmul(e.weight, w);
        if nw.is_zero() {
            Edge::ZERO
        } else {
            e.with_weight(nw)
        }
    }

    /// Creates (or finds) the node `var ? high : low` and returns the
    /// normalised edge to it.
    ///
    /// This is the single entry point through which every diagram is built;
    /// it applies the reduction and normalisation rules, so any two calls
    /// describing the same tensor return identical edges.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if a successor's root variable does not sit below
    /// `var`.
    pub fn make_node(&mut self, var: Var, low: Edge, high: Edge) -> Edge {
        debug_assert!(
            low.is_terminal() || self.var_of(low.node) > var,
            "low successor out of order"
        );
        debug_assert!(
            high.is_terminal() || self.var_of(high.node) > var,
            "high successor out of order"
        );
        // Redundant node: both branches denote the same tensor.
        if low == high {
            return low;
        }
        // Normalise: the largest-magnitude outgoing weight becomes 1,
        // breaking exact ties towards the low branch. The rule must be
        // scale-equivariant (pivot(λa, λb) = λ·pivot(a, b)) because ops
        // factor weights out before recursing — see invariant 2 on the
        // struct docs.
        let (wl, wh) = (low.weight, high.weight);
        let pivot = if wl.is_zero() {
            wh
        } else if wh.is_zero() {
            wl
        } else {
            let (al, ah) = (self.table.value(wl).abs(), self.table.value(wh).abs());
            if al >= ah {
                wl
            } else {
                wh
            }
        };
        debug_assert!(!pivot.is_zero(), "both branches zero should have reduced");
        let nl = if wl == pivot {
            low.with_weight(if wl.is_zero() { CIdx::ZERO } else { CIdx::ONE })
        } else {
            let w = self.cdiv(wl, pivot);
            if w.is_zero() {
                Edge::ZERO
            } else {
                low.with_weight(w)
            }
        };
        let nh = if wh == pivot && wl != pivot {
            high.with_weight(CIdx::ONE)
        } else {
            let w = self.cdiv(wh, pivot);
            if w.is_zero() {
                Edge::ZERO
            } else {
                high.with_weight(w)
            }
        };
        // Division may round a near-tie to make branches equal after all.
        if nl == nh {
            return self.mul_weight(nl, pivot);
        }
        let node = Node {
            var,
            low: nl,
            high: nh,
        };
        let (id, created) = match self.unique.get_or_insert(node) {
            Ok(found) => found,
            // Exhaustion unwinds as a typed payload: there is no partial
            // diagram to hand back from the middle of a recursion, and the
            // session facade converts this into its fallible API's error.
            Err(full) => std::panic::panic_any(ArenaExhausted {
                allocated: full.allocated,
                capacity: full.capacity,
            }),
        };
        if created {
            self.stats.nodes_created += 1;
            self.stats.peak_arena = self.stats.peak_arena.max(self.unique.allocated());
        }
        Edge {
            node: id,
            weight: pivot,
        }
    }

    // ------------------------------------------------------------------
    // Constructors for common tensors.
    // ------------------------------------------------------------------

    /// The scalar tensor with the given value.
    pub fn constant(&mut self, c: Cplx) -> Edge {
        let w = self.intern(c);
        if w.is_zero() {
            Edge::ZERO
        } else {
            Edge {
                node: TERMINAL,
                weight: w,
            }
        }
    }

    /// The rank-1 selector tensor over `var`: `[1, 0]` if `value` is false,
    /// `[0, 1]` if true. This is `<var = value>` — the building block for
    /// basis kets and control legs.
    pub fn selector(&mut self, var: Var, value: bool) -> Edge {
        if value {
            self.make_node(var, Edge::ZERO, Edge::ONE)
        } else {
            self.make_node(var, Edge::ONE, Edge::ZERO)
        }
    }

    /// The identity tensor `delta(x, y)` over two variables (symmetric in
    /// `x` and `y`).
    ///
    /// # Panics
    ///
    /// Panics if `x == y`.
    pub fn identity(&mut self, x: Var, y: Var) -> Edge {
        assert!(x != y, "identity requires two distinct variables");
        let (top, bot) = (x.min(y), x.max(y));
        let b0 = self.selector(bot, false);
        let b1 = self.selector(bot, true);
        self.make_node(top, b0, b1)
    }

    /// The computational-basis ket `|bits>` over the given variables.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or variables are not strictly ascending.
    pub fn basis_ket(&mut self, vars: &[Var], bits: &[bool]) -> Edge {
        assert_eq!(vars.len(), bits.len(), "one bit per variable");
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "variables must be ascending"
        );
        // Build from the deepest variable up, so every successor sits
        // below its node.
        let mut e = Edge::ONE;
        for (&v, &bit) in vars.iter().zip(bits).rev() {
            e = if bit {
                self.make_node(v, Edge::ZERO, e)
            } else {
                self.make_node(v, e, Edge::ZERO)
            };
        }
        e
    }

    /// A product state: qubit `i` in state `amps[i] = (alpha, beta)` meaning
    /// `alpha|0> + beta|1>` on variable `vars[i]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or variables are not strictly ascending.
    pub fn product_ket(&mut self, vars: &[Var], amps: &[(Cplx, Cplx)]) -> Edge {
        assert_eq!(vars.len(), amps.len(), "one amplitude pair per variable");
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "variables must be ascending"
        );
        let mut e = Edge::ONE;
        for (&v, &(a, b)) in vars.iter().zip(amps).rev() {
            let wa = self.intern(a);
            let wb = self.intern(b);
            let lo = self.mul_weight(e, wa);
            let hi = self.mul_weight(e, wb);
            e = self.make_node(v, lo, hi);
        }
        e
    }

    // ------------------------------------------------------------------
    // Evaluation and dense conversion.
    // ------------------------------------------------------------------

    /// Evaluates the tensor at a (partial) assignment.
    ///
    /// Variables the diagram does not depend on may be omitted; variables it
    /// *does* depend on must be present.
    ///
    /// # Panics
    ///
    /// Panics if the diagram branches on a variable missing from `asn`.
    pub fn eval(&self, e: Edge, asn: &BTreeMap<Var, bool>) -> Cplx {
        let mut acc = self.table.value(e.weight);
        let mut cur = e;
        while !cur.is_terminal() && !acc.is_zero() {
            let n = self.node(cur.node);
            let bit = *asn
                .get(&n.var)
                .unwrap_or_else(|| panic!("assignment missing variable {}", n.var));
            cur = if bit { n.high } else { n.low };
            acc *= self.table.value(cur.weight);
        }
        acc
    }

    /// Builds a TDD from a dense tensor.
    pub fn from_tensor(&mut self, t: &Tensor) -> Edge {
        let vars: Vec<Var> = t.vars().iter().collect();
        self.build_tensor_rec(t, &vars)
    }

    fn build_tensor_rec(&mut self, t: &Tensor, vars: &[Var]) -> Edge {
        match vars.split_first() {
            None => self.constant(t.value_at(0)),
            Some((&v, rest)) => {
                let lo_t = t.slice(v, false);
                let hi_t = t.slice(v, true);
                let lo = self.build_tensor_rec(&lo_t, rest);
                let hi = self.build_tensor_rec(&hi_t, rest);
                self.make_node(v, lo, hi)
            }
        }
    }

    /// Builds the TDD of a `2^k x 2^k` matrix over explicit column and row
    /// variables (see [`Tensor::from_matrix`] for conventions).
    pub fn from_matrix(&mut self, m: &Mat, col_vars: &[Var], row_vars: &[Var]) -> Edge {
        let t = Tensor::from_matrix(m, col_vars, row_vars);
        self.from_tensor(&t)
    }

    /// Expands the TDD to a dense tensor over `vars` (which must contain the
    /// diagram's support).
    ///
    /// # Panics
    ///
    /// Panics if the diagram depends on a variable not listed in `vars`.
    pub fn to_tensor(&self, e: Edge, vars: &[Var]) -> Tensor {
        let sorted: Vec<Var> = {
            let mut v = vars.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        let k = sorted.len();
        let mut data = vec![Cplx::ZERO; 1 << k];
        let mut asn = BTreeMap::new();
        for (bits, slot) in data.iter_mut().enumerate() {
            asn.clear();
            for (i, &v) in sorted.iter().enumerate() {
                asn.insert(v, (bits >> (k - 1 - i)) & 1 == 1);
            }
            *slot = self.eval(e, &asn);
        }
        Tensor::new(sorted, data)
    }

    /// The lexicographically smallest assignment of `vars` on which the
    /// tensor is non-zero, or `None` for the zero tensor.
    ///
    /// "Lexicographically smallest" orders assignments by the given
    /// (ascending) variable order with `false < true` — i.e. it finds the
    /// *leftmost non-zero path* of the paper's Section IV-A, used there to
    /// locate the first non-zero column of a projector. Variables in `vars`
    /// the diagram does not branch on are reported `false`.
    ///
    /// # Panics
    ///
    /// Panics if the diagram depends on a variable missing from `vars`.
    pub fn first_nonzero_assignment(&mut self, e: Edge, vars: &[Var]) -> Option<Vec<bool>> {
        if e.is_zero() {
            return None;
        }
        // Decide one variable at a time in the *given* order via slices,
        // so the result is the lexicographic minimum with respect to
        // `vars`. A non-zero diagram always has a non-zero branch on every
        // variable, so `cur` never becomes zero.
        let mut out = vec![false; vars.len()];
        let mut cur = e;
        for (i, &v) in vars.iter().enumerate() {
            let lo = self.slice(cur, v, false);
            if lo.is_zero() {
                out[i] = true;
                cur = self.slice(cur, v, true);
            } else {
                cur = lo;
            }
        }
        assert!(
            cur.is_terminal(),
            "diagram depends on a variable not listed in vars"
        );
        debug_assert!(!cur.is_zero());
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asn(pairs: &[(u32, bool)]) -> BTreeMap<Var, bool> {
        pairs.iter().map(|&(v, b)| (Var(v), b)).collect()
    }

    #[test]
    fn make_node_reduces_redundant() {
        let mut m = TddManager::new();
        let e = m.make_node(Var(0), Edge::ONE, Edge::ONE);
        assert_eq!(e, Edge::ONE);
    }

    #[test]
    fn make_node_is_hash_consed() {
        let mut m = TddManager::new();
        let a = m.selector(Var(3), true);
        let b = m.selector(Var(3), true);
        assert_eq!(a, b);
        assert_eq!(m.stats().nodes_created, 1);
    }

    #[test]
    fn normalisation_pushes_largest_weight_up() {
        let mut m = TddManager::new();
        // Build [2, 1] over var 0: root weight must be 2, low branch 1,
        // high branch 0.5.
        let two = m.constant(Cplx::real(2.0));
        let e = m.make_node(Var(0), two, Edge::ONE);
        assert!(m.weight_value(e.weight).approx_eq(Cplx::real(2.0)));
        let n = *m.node(e.node);
        assert!(n.low.weight.is_one());
        assert!(m.weight_value(n.high.weight).approx_eq(Cplx::real(0.5)));
    }

    #[test]
    fn canonicity_same_tensor_same_edge() {
        let mut m = TddManager::new();
        // Two different construction orders of the same tensor [1,1,1,-1].
        let h = Cplx::FRAC_1_SQRT_2;
        let mat = Mat::from_rows(&[&[h, h], &[h, -h]]);
        let t = Tensor::from_matrix(&mat, &[Var(0)], &[Var(1)]);
        let a = m.from_tensor(&t);
        let b = m.from_matrix(&mat, &[Var(0)], &[Var(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn eval_multiplies_path_weights() {
        let mut m = TddManager::new();
        let v = m.product_ket(
            &[Var(0), Var(1)],
            &[
                (Cplx::FRAC_1_SQRT_2, Cplx::FRAC_1_SQRT_2),
                (Cplx::ONE, Cplx::ZERO),
            ],
        );
        assert!(m
            .eval(v, &asn(&[(0, false), (1, false)]))
            .approx_eq(Cplx::FRAC_1_SQRT_2));
        assert!(m
            .eval(v, &asn(&[(0, true), (1, false)]))
            .approx_eq(Cplx::FRAC_1_SQRT_2));
        assert!(m
            .eval(v, &asn(&[(0, true), (1, true)]))
            .approx_eq(Cplx::ZERO));
    }

    #[test]
    fn basis_ket_roundtrip() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1), Var(2)];
        let e = m.basis_ket(&vars, &[true, false, true]);
        assert!(m
            .eval(e, &asn(&[(0, true), (1, false), (2, true)]))
            .approx_eq(Cplx::ONE));
        assert!(m
            .eval(e, &asn(&[(0, true), (1, true), (2, true)]))
            .approx_eq(Cplx::ZERO));
        assert_eq!(m.node_count(e), 3);
    }

    #[test]
    fn identity_tensor() {
        let mut m = TddManager::new();
        let e = m.identity(Var(0), Var(1));
        assert!(m
            .eval(e, &asn(&[(0, false), (1, false)]))
            .approx_eq(Cplx::ONE));
        assert!(m
            .eval(e, &asn(&[(0, true), (1, true)]))
            .approx_eq(Cplx::ONE));
        assert!(m
            .eval(e, &asn(&[(0, false), (1, true)]))
            .approx_eq(Cplx::ZERO));
    }

    #[test]
    fn dense_roundtrip() {
        let mut m = TddManager::new();
        let t = Tensor::new(
            vec![Var(0), Var(1)],
            vec![
                Cplx::real(0.25),
                Cplx::new(0.0, -0.5),
                Cplx::ZERO,
                Cplx::real(1.0),
            ],
        );
        let e = m.from_tensor(&t);
        let back = m.to_tensor(e, &[Var(0), Var(1)]);
        assert!(back.approx_eq(&t));
    }

    #[test]
    fn support_skips_dont_care_vars() {
        let mut m = TddManager::new();
        // Tensor over vars {0,2} that doesn't depend on var 1.
        let s0 = m.selector(Var(2), true);
        let e = m.make_node(Var(0), s0, s0);
        assert_eq!(e, s0); // reduced: no dependence on var 0 either
        let sup = m.support(e);
        assert_eq!(sup.as_slice(), &[Var(2)]);
    }

    #[test]
    fn first_nonzero_assignment_finds_leftmost() {
        let mut m = TddManager::new();
        // |10> + |11> over vars 0,1: leftmost non-zero assignment is (1,0).
        let a = m.basis_ket(&[Var(0), Var(1)], &[true, false]);
        let b = m.basis_ket(&[Var(0), Var(1)], &[true, true]);
        let s = m.add(a, b);
        let path = m.first_nonzero_assignment(s, &[Var(0), Var(1)]).unwrap();
        assert_eq!(path, vec![true, false]);
        assert_eq!(m.first_nonzero_assignment(Edge::ZERO, &[Var(0)]), None);
    }

    #[test]
    fn node_count_of_zero_and_scalar() {
        let m = TddManager::new();
        assert_eq!(m.node_count(Edge::ZERO), 0);
        assert_eq!(m.node_count(Edge::ONE), 0);
    }
}
