//! The backed Robin Hood unique table: node storage plus the hash-consing
//! index, with generational slots.
//!
//! This replaces the old arena/`FastMap` split with one structure that
//! **owns node memory** (the shape of rsdd's backed robin-hood table and of
//! the consolidated BDD unique tables in mature packages):
//!
//! * **Slot store** — a `Vec` of generational slots plus a free list. A
//!   node lives at a fixed slot for its whole life; a GC sweep frees the
//!   slot by bumping its generation and pushing it on the free list, and
//!   the next interning reuses it. Nothing is ever relocated, so handles
//!   held outside the manager stay bit-identical across any number of
//!   collections (live) or become detectably stale (generation mismatch).
//! * **Robin Hood index** — an open-addressing array of `{hash, slot,
//!   generation}` entries with linear probing and Robin Hood displacement
//!   (an insert steals the cell of any entry closer to its home, bounding
//!   probe-length variance). Deletion is **lazy**: a sweep touches only
//!   slots, and an index entry whose recorded generation no longer matches
//!   its slot's is a tombstone that lookups skip and inserts reuse. The
//!   index is therefore *never rebuilt by the GC* — tombstones are dropped
//!   wholesale only when the index grows (or rehashes at the same size
//!   under tombstone pressure), which the [`UniqueTable::unique_rebuilds`]
//!   counter makes observable: a test can assert a collection leaves it
//!   untouched.
//!
//! Probe lengths are recorded in a fixed-bucket histogram
//! ([`crate::ProbeHistogram`]) so the p50/p99 of the consing hot path is
//! cheap telemetry rather than a profiling session.
//!
//! # Sweeps
//!
//! A collection marks with the manager's stamped walk and then calls
//! [`UniqueTable::sweep`] once, which frees every occupied slot the walk
//! did not reach, in slot order.
//!
//! Generations are `u32` and bump once per sweep of a slot; a stale handle
//! could only be confused for live again after 2³² sweeps of the same
//! slot, which we accept as out of scope.

use crate::node::{Edge, Node, NodeId, TERMINAL_VAR};
use crate::stats::ProbeHistogram;

/// Smallest index size (power of two), matching the old arena's
/// pre-allocation.
const MIN_INDEX: usize = 1 << 12;

/// One node slot: the stored node plus its generation and free flag.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bumped every time the slot is freed; a handle is live iff its
    /// generation equals the slot's.
    gen: u32,
    /// Whether the slot is on the free list.
    dead: bool,
    node: Node,
}

/// One cell of the Robin Hood index.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Folded 64-bit node hash; the home cell is `hash & mask`.
    hash: u32,
    /// Slot the entry points at; [`EMPTY`] marks an unused cell.
    slot: u32,
    /// Slot generation at insert time; a mismatch with the slot's current
    /// generation makes the entry a tombstone.
    gen: u32,
}

const EMPTY: u32 = u32::MAX;

const EMPTY_CELL: IndexEntry = IndexEntry {
    hash: 0,
    slot: EMPTY,
    gen: 0,
};

/// Error returned by [`UniqueTable::get_or_insert`] when the slot store is
/// at its configured capacity (or the `u32` index space) and the free list
/// is empty.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableFull {
    pub allocated: usize,
    pub capacity: usize,
}

/// The backed unique table (see the module docs).
#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    entries: Vec<IndexEntry>,
    /// Index entries whose slot generation still matches.
    live_entries: usize,
    /// Index entries gone stale since the last rehash.
    tombstones: usize,
    /// Hard bound on allocated slots (terminal included).
    node_capacity: usize,
    /// Probe-length histogram over every lookup (hit or insert).
    pub probe_hist: ProbeHistogram,
    /// Tombstones ever created (a lifetime counter, unlike the live
    /// [`UniqueTable::tombstone_count`] snapshot).
    pub tombstones_created: u64,
    /// Slot generations bumped by sweeps.
    pub generation_bumps: u64,
    /// Full index rehashes (growth or same-size tombstone purges). The GC
    /// itself never rehashes — a test pins that down.
    pub unique_rebuilds: u64,
}

#[inline]
fn hash_node(node: &Node) -> u32 {
    use std::hash::BuildHasher;
    let h = crate::hash::FastBuild::default().hash_one(node);
    (h ^ (h >> 32)) as u32
}

impl UniqueTable {
    /// A table holding only the terminal, bounded to `node_capacity`
    /// allocated slots.
    pub(crate) fn new(node_capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(MIN_INDEX);
        // Slot 0 is the terminal; its node fields are never read through
        // edges and the slot is never swept.
        slots.push(Slot {
            gen: 0,
            dead: false,
            node: Node {
                var: TERMINAL_VAR,
                low: Edge::ZERO,
                high: Edge::ZERO,
            },
        });
        UniqueTable {
            slots,
            free: Vec::new(),
            entries: vec![EMPTY_CELL; MIN_INDEX],
            live_entries: 0,
            tombstones: 0,
            node_capacity,
            probe_hist: ProbeHistogram::default(),
            tombstones_created: 0,
            generation_bumps: 0,
            unique_rebuilds: 0,
        }
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Allocated slots, terminal and dead-but-reusable slots included.
    #[inline]
    pub(crate) fn allocated(&self) -> usize {
        self.slots.len()
    }

    /// Live non-terminal nodes (allocated minus free).
    #[inline]
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - 1 - self.free.len()
    }

    /// Slots currently on the free list.
    #[inline]
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Index entries currently stale.
    #[inline]
    pub(crate) fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Robin Hood index cells currently allocated.
    #[inline]
    pub(crate) fn index_cells(&self) -> usize {
        self.entries.len()
    }

    /// Whether `id` still names the node it was created for.
    #[inline]
    pub(crate) fn is_live(&self, id: NodeId) -> bool {
        match self.slots.get(id.index()) {
            Some(s) => s.gen == id.gen && !s.dead,
            None => false,
        }
    }

    /// The node behind a live handle.
    ///
    /// # Panics
    ///
    /// Panics (in debug) on a stale handle — dereferencing one is a
    /// root-safety bug in the caller.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        let s = &self.slots[id.index()];
        debug_assert!(
            s.gen == id.gen && !s.dead,
            "stale node handle dereferenced (root-safety violation)"
        );
        &s.node
    }

    /// Hard bound on allocated slots.
    #[inline]
    pub(crate) fn node_capacity(&self) -> usize {
        self.node_capacity
    }

    /// Re-bounds the slot store (does not free anything already allocated).
    pub(crate) fn set_node_capacity(&mut self, cap: usize) {
        self.node_capacity = cap;
    }

    // ------------------------------------------------------------------
    // Hash consing.
    // ------------------------------------------------------------------

    /// Finds or interns `node`, returning its handle and whether it was
    /// created. Probes from the hash's home cell, skipping tombstones, and
    /// terminates only at an empty cell (tombstones make probe-sequence
    /// early exits unsound). An insert reuses the first tombstone of its
    /// probe run, else Robin Hood-displaces into the run.
    pub(crate) fn get_or_insert(&mut self, node: Node) -> Result<(NodeId, bool), TableFull> {
        // Keep load (live + tombstones) at or below 3/4 so probe runs stay
        // short; rehash in place when tombstone pressure alone is at fault.
        if (self.live_entries + self.tombstones + 1) * 4 > self.entries.len() * 3 {
            self.rehash();
        }
        let h = hash_node(&node);
        let mask = self.entries.len() - 1;
        let mut pos = h as usize & mask;
        let mut dist = 0u32;
        let mut first_stale: Option<usize> = None;
        loop {
            let e = self.entries[pos];
            if e.slot == EMPTY {
                break;
            }
            let s = &self.slots[e.slot as usize];
            if s.gen != e.gen {
                if first_stale.is_none() {
                    first_stale = Some(pos);
                }
            } else if e.hash == h && s.node == node {
                self.probe_hist.record(dist);
                return Ok((
                    NodeId {
                        idx: e.slot,
                        gen: e.gen,
                    },
                    false,
                ));
            }
            pos = (pos + 1) & mask;
            dist += 1;
        }
        self.probe_hist.record(dist);
        // Miss: allocate a slot — free list first, so churn-heavy
        // workloads plateau near their live peak instead of growing.
        let idx = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                debug_assert!(s.dead);
                s.dead = false;
                s.node = node;
                i
            }
            None => {
                if self.slots.len() >= self.node_capacity || self.slots.len() >= EMPTY as usize {
                    return Err(TableFull {
                        allocated: self.slots.len(),
                        capacity: self.node_capacity.min(EMPTY as usize),
                    });
                }
                let i = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    dead: false,
                    node,
                });
                i
            }
        };
        let gen = self.slots[idx as usize].gen;
        let entry = IndexEntry {
            hash: h,
            slot: idx,
            gen,
        };
        match first_stale {
            Some(p) => {
                // Reuse the first tombstone of the probe run: later live
                // entries of the run stay reachable (lookups never stop at
                // a tombstone).
                self.entries[p] = entry;
                self.tombstones -= 1;
            }
            None => self.rh_insert(entry),
        }
        self.live_entries += 1;
        Ok((NodeId { idx, gen }, true))
    }

    /// Robin Hood insert: walk from the home cell, swapping with any entry
    /// closer to its own home, until an empty cell absorbs the carried
    /// entry. Only called when the probe run held no tombstone, so every
    /// traversed entry is live.
    fn rh_insert(&mut self, mut entry: IndexEntry) {
        let mask = self.entries.len() - 1;
        let mut pos = entry.hash as usize & mask;
        let mut dist = 0usize;
        loop {
            let cur = self.entries[pos];
            if cur.slot == EMPTY {
                self.entries[pos] = entry;
                return;
            }
            let cur_dist = (pos + self.entries.len() - (cur.hash as usize & mask)) & mask;
            if cur_dist < dist {
                self.entries[pos] = entry;
                entry = cur;
                dist = cur_dist;
            }
            pos = (pos + 1) & mask;
            dist += 1;
        }
    }

    /// Rebuilds the index, dropping tombstones — doubling it if live
    /// entries alone crowd it, else at the same size. This is the **only**
    /// place the index is ever rebuilt; collections never call it.
    fn rehash(&mut self) {
        let target = if (self.live_entries + 1) * 2 > self.entries.len() {
            self.entries.len() * 2
        } else {
            self.entries.len()
        };
        let old = std::mem::replace(&mut self.entries, vec![EMPTY_CELL; target]);
        self.tombstones = 0;
        self.unique_rebuilds += 1;
        for e in old {
            if e.slot != EMPTY && self.slots[e.slot as usize].gen == e.gen {
                self.rh_insert(e);
            }
        }
    }

    // ------------------------------------------------------------------
    // GC support.
    // ------------------------------------------------------------------

    /// Frees every occupied slot for which `marked` is false, in slot
    /// order, by bumping its generation (its index entry becomes a
    /// tombstone in place — the index itself is untouched). Returns the
    /// slots reclaimed.
    pub(crate) fn sweep(&mut self, marked: impl Fn(usize) -> bool) -> usize {
        let mut reclaimed = 0usize;
        for (i, s) in self.slots.iter_mut().enumerate().skip(1) {
            if !s.dead && !marked(i) {
                s.dead = true;
                s.gen = s.gen.wrapping_add(1);
                self.free.push(i as u32);
                reclaimed += 1;
            }
        }
        self.generation_bumps += reclaimed as u64;
        self.tombstones += reclaimed;
        self.tombstones_created += reclaimed as u64;
        self.live_entries -= reclaimed;
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_tensor::Var;

    fn leaf_node(var: u32, hi: bool) -> Node {
        Node {
            var: Var(var),
            low: if hi { Edge::ZERO } else { Edge::ONE },
            high: if hi { Edge::ONE } else { Edge::ZERO },
        }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = UniqueTable::new(usize::MAX);
        let (a, created_a) = t.get_or_insert(leaf_node(0, true)).unwrap();
        let (b, created_b) = t.get_or_insert(leaf_node(0, true)).unwrap();
        assert!(created_a);
        assert!(!created_b);
        assert_eq!(a, b);
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn sweep_bumps_generation_and_reuses_slot() {
        let mut t = UniqueTable::new(usize::MAX);
        let (a, _) = t.get_or_insert(leaf_node(0, true)).unwrap();
        assert!(t.is_live(a));
        assert_eq!(t.sweep(|_| false), 1);
        assert!(!t.is_live(a), "swept handle must be stale");
        assert_eq!(t.tombstone_count(), 1);
        // The next interning reuses the slot under a fresh generation.
        let (b, created) = t.get_or_insert(leaf_node(1, false)).unwrap();
        assert!(created);
        assert_eq!(b.idx, a.idx, "free list must hand the slot back");
        assert_ne!(b.gen, a.gen, "recycled slot must carry a new generation");
        assert!(t.is_live(b));
        assert!(!t.is_live(a));
        assert_eq!(t.allocated(), 2, "no net growth through churn");
    }

    #[test]
    fn tombstones_do_not_break_collision_runs() {
        // Force every key into one home cell's run by inserting enough
        // nodes, then sweep some and check the survivors still resolve.
        let mut t = UniqueTable::new(usize::MAX);
        let ids: Vec<NodeId> = (0..64)
            .map(|v| t.get_or_insert(leaf_node(v, true)).unwrap().0)
            .collect();
        // Keep only the even ones.
        let kept: Vec<usize> = ids.iter().step_by(2).map(|id| id.index()).collect();
        assert_eq!(t.sweep(|slot| kept.contains(&slot)), 32);
        for (v, id) in ids.iter().enumerate() {
            let (found, created) = t.get_or_insert(leaf_node(v as u32, true)).unwrap();
            if v % 2 == 0 {
                assert!(!created, "survivor {v} must still hash-cons");
                assert_eq!(found, *id);
            } else {
                assert!(created, "swept node {v} must re-intern fresh");
                assert_ne!(found, *id);
            }
        }
    }

    #[test]
    fn rehash_drops_tombstones_and_keeps_entries() {
        let mut t = UniqueTable::new(usize::MAX);
        let n = (MIN_INDEX * 3) / 4 + 8; // push past the load trigger
        let ids: Vec<NodeId> = (0..n)
            .map(|v| t.get_or_insert(leaf_node(v as u32, false)).unwrap().0)
            .collect();
        assert!(t.unique_rebuilds > 0, "load factor must have forced growth");
        for (v, id) in ids.iter().enumerate() {
            let (found, created) = t.get_or_insert(leaf_node(v as u32, false)).unwrap();
            assert!(!created);
            assert_eq!(found, *id);
        }
    }

    #[test]
    fn capacity_exhaustion_reports_table_full() {
        let mut t = UniqueTable::new(3); // terminal + two nodes
        t.get_or_insert(leaf_node(0, true)).unwrap();
        t.get_or_insert(leaf_node(1, true)).unwrap();
        let err = t.get_or_insert(leaf_node(2, true)).unwrap_err();
        assert_eq!(err.allocated, 3);
        assert_eq!(err.capacity, 3);
        // Freeing a slot makes room without growing.
        t.sweep(|_| false);
        assert!(t.get_or_insert(leaf_node(2, true)).is_ok());
    }

    #[test]
    fn probe_histogram_records_lookups() {
        let mut t = UniqueTable::new(usize::MAX);
        for v in 0..32 {
            t.get_or_insert(leaf_node(v, true)).unwrap();
        }
        assert!(t.probe_hist.total() >= 32);
        // Known occupancy, fresh table: every lookup touched at least its
        // home cell, so the median probe length must be at least 1.
        assert!(t.probe_hist.p50() >= 1);
    }
}
