//! Garbage collection for the TDD node store.
//!
//! The node store of a [`TddManager`] only accumulates between collections:
//! every operation hash-conses new nodes and nothing is freed in place. The
//! paper's headline workload — reachability via repeated image computation,
//! a chain of images joined into one subspace on one manager — therefore
//! accumulates every dead intermediate of every slice, block, and
//! Gram–Schmidt residual, and long fixpoints become memory-bound before
//! they are time-bound. This module is the reclamation that fixes that:
//! mark-and-sweep over the backed unique table (the private `table`
//! module).
//!
//! # Collection runs where it is called
//!
//! Nothing collects inside an operation. A collection runs only when a
//! caller asks for one with [`TddManager::collect`], handing it the
//! [`EdgeHolder`]s whose diagrams must survive. It keeps exactly those
//! diagrams and sweeps everything else, so a caller collects at points
//! where it knows its whole live set: between the steps of a long
//! fixpoint, or between the jobs a serving session answers.
//!
//! # The generational-handle contract
//!
//! Collection **never moves a node**. A sweep frees an unreachable node by
//! bumping its slot's generation and recycling the slot, so from a
//! holder's point of view every edge is in exactly one of two states after
//! any number of collections:
//!
//! * **live** — the edge was reachable from a holder at every collection;
//!   it is *bit-identical* to the day it was built and remains valid;
//! * **stale** — its node was swept; the handle's generation no longer
//!   matches the slot's, which [`TddManager::is_live`] detects. A stale
//!   handle can never silently resolve to whatever node later recycles the
//!   slot.
//!
//! There is no relocation map and no pin/restore ceremony: holders simply
//! keep their edges.
//!
//! Canonical identity is fully preserved among survivors (the unique index
//! keeps them interned; rebuilding an equal tensor returns the *same*
//! edge), and the index itself is never rebuilt by a collection — sweeps
//! only turn index entries into tombstones in place, which
//! [`crate::ManagerStats::unique_rebuilds`] lets tests assert.
//!
//! # Marking
//!
//! The mark is the stamped walk behind [`TddManager::live_node_count`]
//! (the private `walk` module), one `u32` stamp per arena slot. The sweep
//! then frees every occupied slot the walk did not stamp, in slot order.
//! So the live count a collection reports is `live_node_count` of its
//! holders' edges by construction. A stale edge among the holders' edges
//! names no node and is skipped.
//!
//! # Operation caches
//!
//! Every collection clears the operation caches
//! ([`crate::cache::OpCaches::clear`]): their entries name nodes, and the
//! sweep may have freed any of them, so no entry outlives a collection.
//! The next operations re-memoise what they need. Interners and the
//! complex table survive collections untouched (they key on variables and
//! values, never nodes).

use std::time::Instant;

use crate::manager::TddManager;
use crate::node::Edge;

/// What one [`TddManager::collect`] call did.
#[derive(Debug, Clone, Copy)]
pub struct GcOutcome {
    /// Nodes swept.
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

impl TddManager {
    /// Mark-and-sweep collection: everything reachable from an edge one of
    /// `holders` exposes survives, bit-identically; everything else is
    /// swept **in place**.
    ///
    /// Each unreachable node's slot generation is bumped (stale handles
    /// become detectable, never dangling) and the slot is recycled for
    /// future nodes. Nothing moves and the unique index is not rebuilt;
    /// the operation caches are cleared, since their entries may name
    /// swept nodes. Holders need no cleanup afterwards — their edges are
    /// untouched. Counters are folded into [`crate::ManagerStats`].
    ///
    /// ```
    /// use qits_tdd::TddManager;
    /// use qits_tensor::Var;
    ///
    /// let mut m = TddManager::new();
    /// let e = m.identity(Var(0), Var(1));
    /// let _garbage = m.identity(Var(2), Var(3));
    /// let outcome = m.collect(&[&e]);
    /// // `e` is bit-identical after the collection — nothing moved.
    /// assert_eq!(m.node_count(e), 3);
    /// assert_eq!(outcome.live, 3);
    /// assert_eq!(outcome.reclaimed, 3);
    /// ```
    pub fn collect(&mut self, holders: &[&dyn EdgeHolder]) -> GcOutcome {
        let start = Instant::now();
        let mut edges = Vec::new();
        for h in holders {
            h.gc_edges(&mut |e| edges.push(e));
        }
        let (live, reclaimed) = self.mark_and_sweep(&edges);
        self.caches.clear();
        self.stats.gc_runs += 1;
        self.stats.nodes_reclaimed += reclaimed as u64;
        self.stats.live_after_last_gc = live;
        self.stats.gc_nanos += start.elapsed().as_nanos() as u64;
        GcOutcome { reclaimed, live }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_num::Cplx;
    use qits_tensor::{Tensor, Var};

    use crate::cache::CacheSizes;
    use crate::cnum::CIdx;
    use crate::node::NodeId;

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
        let out = m.collect(&[]);
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
        m.collect(&[&e]);
        // The defining property of generational handles: nothing moved.
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
        m.collect(&[&e]);
        let rebuilt = m.from_tensor(&t);
        assert_eq!(rebuilt, e);
    }

    #[test]
    fn dead_edges_are_detectably_stale() {
        let mut m = TddManager::new();
        let keep = m.from_tensor(&sample_tensor(5));
        let drop_ = m.from_tensor(&sample_tensor(6));
        let out = m.collect(&[&keep]);
        assert!(out.reclaimed > 0);
        assert!(m.is_live(keep));
        assert!(!m.is_live(drop_), "swept edge must be detectably stale");
    }

    #[test]
    fn swept_slots_recycle_under_a_new_generation() {
        let mut m = TddManager::new();
        let dead = m.from_tensor(&sample_tensor(7));
        let allocated = m.arena_len();
        m.collect(&[]);
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
        m.collect(&[]);
        assert!(m.is_live(Edge::ZERO));
        assert!(m.is_live(Edge::ONE));
        assert!(m.is_live(s), "terminal edges never die");
    }

    #[test]
    fn collection_clears_the_caches_and_keeps_their_counters() {
        let mut m = TddManager::new();
        let a = m.from_tensor(&sample_tensor(10));
        let b = m.from_tensor(&sample_tensor(11));
        let r = m.add(a, b);
        assert!(m.cache_sizes().total() > 0);
        assert_eq!(m.add(a, b), r, "a repeated add is answered by the cache");
        let before = m.stats();
        assert!(before.add_cache.hits > 0);
        // Even a collection that keeps every operand and result empties
        // every table.
        m.collect(&[&a, &b, &r]);
        assert_eq!(m.cache_sizes(), CacheSizes::default());
        // The lifetime counters survive the clear.
        assert_eq!(m.stats().add_cache, before.add_cache);
        assert_eq!(m.stats().cont_cache, before.cont_cache);
        // The next add recomputes the same edge and memoises it again.
        assert_eq!(m.add(a, b), r);
        assert!(m.stats().add_cache.misses > before.add_cache.misses);
        assert!(m.cache_sizes().add > 0);
    }

    #[test]
    fn operations_recompute_identically_after_collection() {
        let (ta, tb) = (sample_tensor(12), sample_tensor(13));
        let mut m = TddManager::new();
        let a = m.from_tensor(&ta);
        let b = m.from_tensor(&tb);
        let sum_before = m.add(a, b);
        m.collect(&[&a, &b, &sum_before]);
        // Operands are untouched, and re-adding them re-canonicalises to
        // the exact pre-collection result.
        let sum_after = m.add(a, b);
        assert_eq!(sum_after, sum_before);
        let vars = [Var(0), Var(1), Var(2)];
        assert!(m.to_tensor(sum_after, &vars).approx_eq(&ta.add(&tb)));
    }

    #[test]
    fn collect_marks_from_every_holder() {
        let mut m = TddManager::new();
        let t = sample_tensor(20);
        let keep = m.from_tensor(&t);
        let kept_many = vec![m.from_tensor(&sample_tensor(21))];
        let _garbage = m.from_tensor(&sample_tensor(22));
        let out = m.collect(&[&keep, &kept_many]);
        assert!(out.reclaimed > 0);
        // No relocation step: the holders' edges are simply still valid.
        assert!(m.is_live(keep) && m.is_live(kept_many[0]));
        assert!(m.to_tensor(keep, &[Var(0), Var(1), Var(2)]).approx_eq(&t));
        assert_eq!(m.arena_occupied(), m.live_node_count(&[keep, kept_many[0]]));
        assert_eq!(out.live, m.arena_occupied());
    }

    #[test]
    fn protected_edges_survive_multiple_collections_bit_identically() {
        // The scenario that used to need pin/unpin ceremony: a holder kept
        // alive across several sweeps. With generational handles, holding
        // is the whole story — the held edges never change.
        let mut m = TddManager::new();
        let t = sample_tensor(30);
        let keep = m.from_tensor(&t);
        let nested = [m.from_tensor(&sample_tensor(31))];
        let _g1 = m.from_tensor(&sample_tensor(32));
        m.collect(&[&keep, &nested.as_slice()]);
        let _g2 = m.from_tensor(&sample_tensor(33));
        m.collect(&[&keep, &nested.as_slice()]);
        assert!(m.is_live(keep) && m.is_live(nested[0]));
        let vars = [Var(0), Var(1), Var(2)];
        assert!(m.to_tensor(keep, &vars).approx_eq(&t));
        assert!(m.to_tensor(nested[0], &vars).approx_eq(&sample_tensor(31)));
    }

    #[test]
    fn a_stale_holder_edge_is_skipped_by_the_mark() {
        let mut m = TddManager::new();
        let keep = m.from_tensor(&sample_tensor(34));
        let swept = m.from_tensor(&sample_tensor(35));
        m.collect(&[&keep]);
        assert!(!m.is_live(swept));
        // A handle past the end of the arena is as stale as a swept one.
        let foreign = Edge {
            node: NodeId {
                idx: m.arena_len() as u32 + 100,
                gen: 0,
            },
            weight: CIdx::ONE,
        };
        let out = m.collect(&[&keep, &swept, &foreign]);
        assert_eq!(out.reclaimed, 0);
        assert_eq!(out.live, m.node_count(keep));
        assert!(m.is_live(keep));
    }

    #[test]
    fn collection_never_rebuilds_the_unique_index() {
        // The acceptance criterion of the backed-table refactor: GC cost
        // no longer includes a unique-table rebuild. Rebuilds happen only
        // under load-factor pressure, which this tiny workload never hits.
        let mut m = TddManager::new();
        let e = m.from_tensor(&sample_tensor(40));
        let rebuilds_before = m.stats().unique_rebuilds;
        for seed in 41..46 {
            let _g = m.from_tensor(&sample_tensor(seed));
            m.collect(&[&e]);
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
    fn safepoint_counters_track_polls_and_collections() {
        let mut m = TddManager::new();
        let e = m.from_tensor(&sample_tensor(35));
        // A poll is counted and never collects.
        m.poll_cancel();
        assert_eq!(m.stats().safepoints_polled, 1);
        assert_eq!(m.stats().gc_runs, 0);
        // Only an explicit collection collects.
        let _garbage = m.from_tensor(&sample_tensor(36));
        let out = m.collect(&[&e]);
        assert!(out.reclaimed > 0);
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.stats().safepoints_polled, 1);
        // The counters diff like any other ManagerStats counter.
        let snap = m.stats();
        m.poll_cancel();
        let moved = m.stats().since(&snap);
        assert_eq!(moved.safepoints_polled, 1);
        assert_eq!(moved.gc_runs, 0);
    }

    #[test]
    fn live_node_count_tracks_roots_and_extras() {
        // Counted from a root edge alone, then with extra edges: the count
        // is exactly what a collection holding the same edges keeps.
        let mut m = TddManager::new();
        let a = m.from_tensor(&sample_tensor(15));
        let b = m.from_tensor(&sample_tensor(16));
        assert_eq!(m.live_node_count(&[]), 0);
        assert_eq!(m.live_node_count(&[a]), m.node_count(a));
        let both = m.live_node_count(&[a, b]);
        assert!(both >= m.node_count(a).max(m.node_count(b)));
        assert!(both <= m.node_count(a) + m.node_count(b));
        let _garbage = m.from_tensor(&sample_tensor(17));
        assert_eq!(m.collect(&[&a, &b]).live, both);
        assert_eq!(m.arena_occupied(), both);
    }

    #[test]
    fn gc_runs_counts_collections() {
        let mut m = TddManager::new();
        assert_eq!(m.stats().gc_runs, 0);
        m.collect(&[]);
        m.collect(&[]);
        assert_eq!(m.stats().gc_runs, 2);
    }
}
