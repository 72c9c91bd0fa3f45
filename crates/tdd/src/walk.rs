//! Node-counting walks over a manager-owned stamp array.
//!
//! [`TddManager::node_count`] (the "max #node" of the paper's Table I),
//! [`TddManager::live_node_count`] and [`TddManager::support`] all visit
//! each distinct node reachable from some edges exactly once. They share
//! one walk over a scratch area the manager keeps between calls: a `u32`
//! **stamp** per arena slot and a reused stack. Each walk bumps the
//! scratch's **epoch** and marks a slot visited by writing the epoch into
//! its stamp, so a walk allocates nothing (once the stamp array covers
//! the arena) and hashes nothing.
//!
//! The same walk is the mark of a collection ([`TddManager::collect`]):
//! the sweep frees every occupied slot the `live_node_count` walk did not
//! stamp.
//!
//! Stamps are indexed by slot, not by generational handle. That is sound
//! because a walk only reaches live nodes and a slot holds at most one
//! live node at a time; a recycled slot's stamp is left over from an
//! earlier epoch and so never hides the new node. When the epoch wraps,
//! every stamp is cleared before the walk starts.
//!
//! The scratch sits behind a [`std::sync::Mutex`] so that counting works
//! through `&TddManager` (subspaces and fixpoint chains count through
//! shared borrows) while the manager stays `Sync`. The lock is
//! uncontended in practice: a manager is driven by one thread at a time.

use std::sync::PoisonError;

use qits_tensor::{Var, VarSet};

use crate::manager::TddManager;
use crate::node::{Edge, NodeId};

/// Visit stamps and stack reused by every walk (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    /// One stamp per arena slot; a slot is visited in the current walk
    /// iff its stamp equals `epoch`.
    stamps: Vec<u32>,
    /// The current walk's stamp value; never 0 during a walk, so a fresh
    /// (zeroed) stamp always reads unvisited.
    epoch: u32,
    stack: Vec<NodeId>,
}

impl TddManager {
    /// Visits every distinct non-terminal node reachable from `starts`
    /// once, passing its variable to `visit`, and returns how many nodes
    /// it visited.
    fn walk(&self, starts: impl IntoIterator<Item = NodeId>, mut visit: impl FnMut(Var)) -> usize {
        // The scratch holds no invariant a panicking walk (say, the debug
        // stale-handle assert) could break: the next walk resizes, bumps
        // the epoch and clears the stack before reading any of it. So a
        // poisoned lock is recovered, not propagated.
        let mut scratch = self.walk.lock().unwrap_or_else(PoisonError::into_inner);
        let WalkScratch {
            stamps,
            epoch,
            stack,
        } = &mut *scratch;
        let slots = self.unique.allocated();
        if stamps.len() < slots {
            stamps.resize(slots, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamps.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;
        stack.clear();
        let mut count = 0usize;
        let mut enter = |n: NodeId, stack: &mut Vec<NodeId>| {
            if !n.is_terminal() && stamps[n.index()] != epoch {
                stamps[n.index()] = epoch;
                count += 1;
                stack.push(n);
            }
        };
        for n in starts {
            enter(n, stack);
        }
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            visit(node.var);
            enter(node.low.node, stack);
            enter(node.high.node, stack);
        }
        count
    }

    /// The set of variables the diagram actually depends on.
    ///
    /// Cost: one stamped walk over the diagram's nodes; the walk itself
    /// allocates nothing (only the returned set does).
    pub fn support(&self, e: Edge) -> VarSet {
        let mut vars = Vec::new();
        self.walk([e.node], |v| vars.push(v));
        VarSet::from_iter(vars)
    }

    /// Number of distinct non-terminal nodes reachable from `e`.
    ///
    /// This is the "#node" metric of the paper's Table I. Cost: one
    /// stamped walk over those nodes, with no allocation and no hashing.
    pub fn node_count(&self, e: Edge) -> usize {
        self.walk([e.node], |_| ())
    }

    /// Number of distinct non-terminal nodes reachable from the live
    /// edges among `edges` — exactly what a collection holding those edges
    /// would keep; a stale edge names no node and counts nothing. Does not
    /// modify the manager. Cost: one stamped walk over that live set
    /// (`O(live)`), with no allocation and no hashing.
    pub fn live_node_count(&self, edges: &[Edge]) -> usize {
        let unique = &self.unique;
        let starts = edges.iter().map(|e| e.node).filter(|&n| unique.is_live(n));
        self.walk(starts, |_| ())
    }

    /// A collection's mark and sweep: stamps the live set of `edges` with
    /// the [`TddManager::live_node_count`] walk, then frees every occupied
    /// slot that walk did not stamp. Returns the live and the reclaimed
    /// node counts.
    pub(crate) fn mark_and_sweep(&mut self, edges: &[Edge]) -> (usize, usize) {
        let live = self.live_node_count(edges);
        let scratch = self.walk.get_mut().unwrap_or_else(PoisonError::into_inner);
        let (stamps, epoch) = (&scratch.stamps, scratch.epoch);
        let reclaimed = self.unique.sweep(|slot| stamps[slot] == epoch);
        (live, reclaimed)
    }

    /// Sets the epoch the next walk increments, so tests can cross the
    /// `u32` wrap without four billion walks.
    #[cfg(test)]
    pub(crate) fn set_walk_epoch(&self, epoch: u32) {
        self.walk
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use qits_num::Cplx;
    use qits_tensor::Tensor;

    use super::*;
    use crate::cnum::CIdx;

    /// Reference walk: a plain hash set keyed by generational handle.
    fn reference(m: &TddManager, starts: &[Edge]) -> (usize, VarSet) {
        let mut seen = HashSet::new();
        let mut vars = Vec::new();
        let mut stack: Vec<NodeId> = starts.iter().map(|e| e.node).collect();
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = m.node(n);
            vars.push(node.var);
            stack.push(node.low.node);
            stack.push(node.high.node);
        }
        (seen.len(), VarSet::from_iter(vars))
    }

    /// Checks all three walks against the reference, for `e` alone and
    /// for `e` plus `extra`.
    fn check(m: &TddManager, e: Edge, extra: &[Edge]) {
        let (count, support) = reference(m, &[e]);
        assert_eq!(m.node_count(e), count);
        assert_eq!(m.support(e), support);
        let mut live = vec![e];
        live.extend_from_slice(extra);
        assert_eq!(m.live_node_count(&live), reference(m, &live).0);
    }

    /// A splitmix64 step: deterministic test data without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random tensor over `vars` drawn from a few distinct values
    /// (some zero), so its diagram shares and reduces sub-diagrams.
    fn random_diagram(m: &mut TddManager, vars: &[u32], state: &mut u64) -> Edge {
        let data = (0..1usize << vars.len())
            .map(|_| match next(state) % 4 {
                0 => Cplx::ZERO,
                1 => Cplx::ONE,
                2 => Cplx::new(0.5, -0.5),
                _ => Cplx::real(-2.0),
            })
            .collect();
        m.from_tensor(&Tensor::new(vars.iter().map(|&v| Var(v)).collect(), data))
    }

    #[test]
    fn shared_random_diagrams_match_the_hash_set_walk() {
        let mut m = TddManager::new();
        let mut state = 7;
        for _ in 0..6 {
            let a = random_diagram(&mut m, &[0, 1, 2, 3], &mut state);
            let b = random_diagram(&mut m, &[1, 2, 3, 4], &mut state);
            // Sums and products share their operands' sub-diagrams.
            let sum = m.add(a, b);
            let prod = m.contract(a, b, &[Var(1)]);
            check(&m, a, &[b]);
            check(&m, sum, &[a, b, prod]);
            check(&m, prod, &[sum]);
        }
        check(&m, Edge::ZERO, &[Edge::ONE]);
    }

    #[test]
    fn recycled_slots_are_counted_after_a_sweep() {
        let mut m = TddManager::new();
        let mut state = 11;
        let keep = random_diagram(&mut m, &[0, 1, 2], &mut state);
        let mut dropped = Vec::new();
        for _ in 0..4 {
            let d = random_diagram(&mut m, &[3, 4, 5], &mut state);
            // Stamp the soon-to-be-swept slots with a recent epoch.
            check(&m, d, &[]);
            dropped.push(d);
        }
        let out = m.collect(&[&keep]);
        assert!(out.reclaimed > 0);
        assert!(dropped.iter().any(|&d| !m.is_live(d)));
        let free = m.arena_free();
        let fresh = random_diagram(&mut m, &[3, 4, 5, 6], &mut state);
        assert!(m.arena_free() < free, "the new diagram reuses swept slots");
        check(&m, fresh, &[]);
        check(&m, keep, &[fresh]);
    }

    #[test]
    fn arena_growth_between_walks_extends_the_stamps() {
        let mut m = TddManager::new();
        let mut state = 13;
        let small = random_diagram(&mut m, &[0, 1], &mut state);
        check(&m, small, &[]);
        let before = m.arena_len();
        let big = random_diagram(&mut m, &[2, 3, 4, 5, 6, 7], &mut state);
        assert!(m.arena_len() > before);
        check(&m, big, &[small]);
        check(&m, small, &[big]);
    }

    #[test]
    fn overlapping_roots_and_extras_count_once() {
        let mut m = TddManager::new();
        let mut state = 17;
        let a = random_diagram(&mut m, &[0, 1, 2], &mut state);
        let b = random_diagram(&mut m, &[1, 2, 3], &mut state);
        check(&m, a, &[a, b, a, Edge::ONE]);
        assert_eq!(m.live_node_count(&[a, b, a, b]), m.live_node_count(&[b, a]));
    }

    #[test]
    fn an_epoch_wrap_clears_old_stamps() {
        let mut m = TddManager::new();
        let mut state = 19;
        let a = random_diagram(&mut m, &[0, 1, 2, 3], &mut state);
        let b = random_diagram(&mut m, &[4, 5, 6], &mut state);
        // Walk `a` at epoch 1 and `b` at the last epoch before the wrap.
        // Without a clear on wrap, `a`'s stamps would read "visited" again
        // once the epoch comes back round to 1.
        m.set_walk_epoch(0);
        assert_eq!(m.node_count(a), reference(&m, &[a]).0);
        m.set_walk_epoch(u32::MAX - 1);
        assert_eq!(m.node_count(b), reference(&m, &[b]).0);
        check(&m, a, &[b]);
        check(&m, b, &[a]);
    }

    #[test]
    fn a_panicking_walk_does_not_poison_later_counts() {
        let mut m = TddManager::new();
        let mut state = 23;
        let a = random_diagram(&mut m, &[0, 1, 2], &mut state);
        // A handle past the end of the arena makes the walk panic while
        // it holds the scratch lock.
        let foreign = Edge {
            node: NodeId {
                idx: m.arena_len() as u32 + 100,
                gen: 0,
            },
            weight: CIdx::ONE,
        };
        let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.node_count(foreign)));
        assert!(walk.is_err());
        assert!(m.walk.is_poisoned());
        check(&m, a, &[]);
    }
}
