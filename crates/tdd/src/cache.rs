//! Manager-owned operation caches.
//!
//! Mature decision-diagram packages keep *all* operation memos on the
//! manager, not on the call stack: a memo entry for `f op g` is valid for
//! as long as the nodes it names live, so discarding it after one top-level
//! call throws away exactly the reuse that repeated image computations
//! (same blocks against many basis states, same sub-diagrams across Kraus
//! branches) depend on. This module is that subsystem for `qits-tdd`:
//!
//! * [`OpCache`] — a size-bounded memo table with hit/miss/insert/eviction
//!   counters. Keys are **weight-normalized** by the call sites (weights
//!   factored out of the operands before lookup), so one entry serves every
//!   scalar multiple of the same operand pair.
//! * [`SumInterner`] — interns summation-variable suffixes as cons lists,
//!   giving the contraction cache a small copyable key component that is
//!   stable across top-level [`crate::TddManager::contract`] calls.
//! * [`OpCaches`] — the full cache set a [`crate::TddManager`] owns: one
//!   table per cached operation (`add`, `contract`, `slice`, `conj`,
//!   `rename`).
//!
//! # Eviction
//!
//! Every table is a bounded, direct-mapped *computed table* (the design
//! mature BDD packages use): a power-of-two slot array indexed by key
//! hash, where a colliding insert replaces exactly one entry. Eviction is
//! therefore incremental — a contraction deep in recursion may lose
//! individual entries to collisions and recompute them, but its working
//! set is never flushed wholesale, so worst-case behavior degrades
//! gracefully instead of collapsing to the uncached recursion. The hit and
//! eviction counters make collision pressure observable. Capacity `0`
//! disables caching entirely (every lookup misses, inserts are dropped),
//! which is how the equivalence tests compare cached against uncached runs
//! bit for bit.
//!
//! A table grows when it is **reused**, not when it fills: it starts at
//! `MIN_SLOTS` and doubles (rehashing every entry) once the hits since its
//! last growth reach half its slots, up to its capacity. Work that streams
//! distinct lookups, such as a single wide image whose block-against-state
//! contractions are seldom repeated, keeps a table that fits in cache and
//! recomputes the few entries it loses to collisions; fixpoints, which
//! reuse entries across iterations, earn their hits and grow their tables
//! toward the bound. A smaller fixed bound cannot tell the two apart.
//! Hash-consing makes a recomputed entry return the same node, so the
//! growth rule moves time and memory, never a diagram.
//!
//! # Garbage collection
//!
//! Cache keys and values name generational [`NodeId`]s, and a collection
//! sweeps every node its holders do not reach (see [`crate::gc`]). So
//! [`crate::TddManager::collect`] clears every table ([`OpCaches::clear`])
//! and no entry outlives a collection: a probe never has to ask whether
//! the node it names is still live. The interners survive collections
//! untouched — they key on variables, never on nodes.

use std::hash::Hash;

use qits_tensor::Var;

use crate::hash::FastMap;
use crate::node::{Edge, NodeId};

/// Default per-table slot bound (~10⁶ slots per operation cache). A bound,
/// not a size: a table grows toward it only while its entries earn hits
/// (see the module's "Eviction" notes), so streaming work never reaches it.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// Hit/miss/insert/eviction counters for one operation cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries dropped by capacity flushes.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits per lookup in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Counter movement since an earlier snapshot of the same cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Accumulates another counter set (used to merge worker managers).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }
}

/// Smallest slot count a non-disabled cache allocates (power of two).
const MIN_SLOTS: usize = 1 << 12;

/// A size-bounded, direct-mapped memo table with telemetry.
///
/// This is the classic decision-diagram *computed table*: a power-of-two
/// slot array indexed by key hash, where an insert that collides with a
/// different key **replaces** that one entry. Eviction is therefore
/// per-slot and incremental — a contraction deep in recursion can lose
/// individual entries to collisions (and gracefully recompute them) but
/// never has its entire working set flushed out from under it, which a
/// clear-on-full policy would do. The array starts at `MIN_SLOTS` and
/// doubles (rehashing) each time the hits since its last growth reach half
/// its slots, never past the configured capacity: occupancy alone never
/// grows it.
///
/// Values must be `Copy` (they are [`Edge`]s in practice) so a hit never
/// borrows the table.
#[derive(Debug)]
pub struct OpCache<K, V> {
    /// Power-of-two slot array; empty until the first insert so idle
    /// caches cost nothing.
    slots: Vec<Option<(K, V)>>,
    /// Occupied slot count.
    len: usize,
    /// Hits since the slot array last grew or was cleared: it doubles
    /// once these reach half its slots.
    hits_since_growth: usize,
    /// Maximum slot count (power of two; `0` disables the cache).
    capacity: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Copy, V: Copy> OpCache<K, V> {
    /// An empty cache bounded to `capacity` slots (`0` disables caching;
    /// other values round down to a power of two).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            0
        } else {
            prev_power_of_two(capacity)
        };
        OpCache {
            slots: Vec::new(),
            len: 0,
            hits_since_growth: 0,
            capacity,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn slot_of(&self, key: &K) -> usize {
        use std::hash::BuildHasher;
        let h = crate::hash::FastBuild::default().hash_one(key);
        (h as usize) & (self.slots.len() - 1)
    }

    /// Looks `key` up, counting a hit or a miss.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<V> {
        if !self.slots.is_empty() {
            if let Some((k, v)) = self.slots[self.slot_of(key)] {
                if k == *key {
                    self.stats.hits += 1;
                    self.hits_since_growth += 1;
                    return Some(v);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Records `key -> value`, replacing at most the one colliding entry.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.is_empty() {
            self.slots = vec![None; MIN_SLOTS.min(self.capacity)];
        } else if self.hits_since_growth * 2 >= self.slots.len() && self.slots.len() < self.capacity
        {
            self.grow();
        }
        let idx = self.slot_of(&key);
        match &self.slots[idx] {
            None => self.len += 1,
            Some((k, _)) if *k != key => self.stats.evictions += 1,
            Some(_) => {}
        }
        self.slots[idx] = Some((key, value));
        self.stats.inserts += 1;
    }

    /// Doubles the slot array, rehashing live entries, and restarts the
    /// hit count toward the next growth.
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; doubled]);
        self.len = 0;
        self.hits_since_growth = 0;
        for entry in old.into_iter().flatten() {
            let idx = self.slot_of(&entry.0);
            if self.slots[idx].is_none() {
                self.len += 1;
            }
            self.slots[idx] = Some(entry);
        }
    }

    /// Drops every entry and releases the slot array; the next insert
    /// starts again at `MIN_SLOTS` with no hits toward growth (counters are
    /// kept — they are lifetime telemetry).
    pub fn clear(&mut self) {
        self.slots = Vec::new();
        self.len = 0;
        self.hits_since_growth = 0;
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot bound (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the table. Entries are dropped (and counted as evicted)
    /// only if the table must shrink below its current allocation; this is
    /// a configuration-time operation, not a hot-path one.
    pub fn set_capacity(&mut self, capacity: usize) {
        let capacity = if capacity == 0 {
            0
        } else {
            prev_power_of_two(capacity)
        };
        self.capacity = capacity;
        if self.slots.len() > capacity {
            self.stats.evictions += self.len as u64;
            self.clear();
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

/// Largest power of two `<= n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    }
}

/// Handle to an interned summation suffix (see [`SumInterner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SumId(u32);

impl SumId {
    /// The empty suffix (no summation variables remain).
    pub const EMPTY: SumId = SumId(0);
}

/// Interns the suffixes `sum[i..]` of summation-variable lists as cons
/// lists, in O(len) per list.
///
/// The contraction recursion is memoised on `(left node, right node,
/// remaining summation suffix)`. A per-call memo could key on the suffix
/// *position*, but a manager-owned cache needs a key that means the same
/// thing in every call — two contractions whose remaining summation
/// variables coincide may share entries even if their full lists differ.
/// Interning `(head, tail-id)` pairs gives each distinct suffix one stable
/// `u32` for the lifetime of the manager.
#[derive(Debug, Default)]
pub struct SumInterner {
    cons: FastMap<(Var, SumId), SumId>,
}

impl SumInterner {
    /// Interns all suffixes of `sum`, returning `ids[i]` = id of `sum[i..]`
    /// (so `ids[sum.len()]` is [`SumId::EMPTY`]).
    pub fn suffix_ids(&mut self, sum: &[Var]) -> Vec<SumId> {
        let mut ids = vec![SumId::EMPTY; sum.len() + 1];
        for i in (0..sum.len()).rev() {
            let tail = ids[i + 1];
            let next =
                SumId(u32::try_from(self.cons.len() + 1).expect("summation interner overflow"));
            ids[i] = *self.cons.entry((sum[i], tail)).or_insert(next);
        }
        ids
    }

    /// Number of distinct non-empty suffixes seen so far.
    pub fn len(&self) -> usize {
        self.cons.len()
    }

    /// Whether no suffix has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }
}

/// Handle to an interned monotone renaming map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RenameId(u32);

/// Interns renaming maps (sorted `(old, new)` pair lists) so the rename
/// cache can key on `(node, map)` across calls.
#[derive(Debug, Default)]
pub struct RenameInterner {
    maps: FastMap<Vec<(Var, Var)>, RenameId>,
}

impl RenameInterner {
    /// Interns a map given as ascending `(old, new)` pairs.
    pub fn intern(&mut self, pairs: Vec<(Var, Var)>) -> RenameId {
        let next = RenameId(u32::try_from(self.maps.len()).expect("rename interner overflow"));
        *self.maps.entry(pairs).or_insert(next)
    }

    /// Number of distinct maps interned.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// Whether no map has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }
}

/// Live entry counts of every operation cache, for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSizes {
    /// Entries in the addition cache.
    pub add: usize,
    /// Entries in the contraction cache.
    pub cont: usize,
    /// Entries in the slice cache.
    pub slice: usize,
    /// Entries in the conjugation cache.
    pub conj: usize,
    /// Entries in the renaming cache.
    pub rename: usize,
}

impl CacheSizes {
    /// Total entries across all tables.
    pub fn total(&self) -> usize {
        self.add + self.cont + self.slice + self.conj + self.rename
    }
}

/// The complete cache set owned by a [`crate::TddManager`].
#[derive(Debug)]
pub struct OpCaches {
    /// `a + b`, keyed on weight-normalized operand edges.
    pub add: OpCache<(Edge, Edge), Edge>,
    /// `cont(a, b, sum)`, keyed on operand nodes plus the interned
    /// remaining-summation suffix; weights are factored out entirely.
    pub cont: OpCache<(NodeId, NodeId, SumId), Edge>,
    /// `slice(e, var, value)`, keyed on the operand node and the slice.
    pub slice: OpCache<(NodeId, Var, bool), Edge>,
    /// `conj(e)`, keyed on the operand node.
    pub conj: OpCache<NodeId, Edge>,
    /// `rename(e, map)`, keyed on the operand node and the interned map.
    pub rename: OpCache<(NodeId, RenameId), Edge>,
    /// Summation-suffix interner backing the contraction keys.
    pub sums: SumInterner,
    /// Renaming-map interner backing the rename keys.
    pub renames: RenameInterner,
}

impl OpCaches {
    /// A fresh cache set with every table bounded to `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        OpCaches {
            add: OpCache::with_capacity(capacity),
            cont: OpCache::with_capacity(capacity),
            slice: OpCache::with_capacity(capacity),
            conj: OpCache::with_capacity(capacity),
            rename: OpCache::with_capacity(capacity),
            sums: SumInterner::default(),
            renames: RenameInterner::default(),
        }
    }

    /// Drops every entry of every table — what every collection does.
    /// Interners and counters are kept: interned ids must stay stable for
    /// the manager's lifetime, and the counters are cumulative telemetry.
    pub fn clear(&mut self) {
        self.add.clear();
        self.cont.clear();
        self.slice.clear();
        self.conj.clear();
        self.rename.clear();
    }

    /// Re-bounds every table.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.add.set_capacity(capacity);
        self.cont.set_capacity(capacity);
        self.slice.set_capacity(capacity);
        self.conj.set_capacity(capacity);
        self.rename.set_capacity(capacity);
    }

    /// Live entry counts of every table.
    pub fn sizes(&self) -> CacheSizes {
        CacheSizes {
            add: self.add.len(),
            cont: self.cont.len(),
            slice: self.slice.len(),
            conj: self.conj.len(),
            rename: self.rename.len(),
        }
    }
}

impl Default for OpCaches {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_counting() {
        let mut c: OpCache<u32, u32> = OpCache::with_capacity(8);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        let s = *c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounds_size_and_collisions_evict_singly() {
        let mut c: OpCache<u32, u32> = OpCache::with_capacity(4);
        for k in 0..64 {
            c.insert(k, k * 10);
        }
        assert!(c.len() <= 4, "direct-mapped table exceeded capacity");
        assert!(
            c.stats().evictions > 0,
            "64 inserts into 4 slots must collide"
        );
        // Each eviction displaced exactly one entry.
        assert_eq!(
            c.stats().inserts,
            c.len() as u64 + c.stats().evictions,
            "every insert either filled a slot or displaced one entry"
        );
        // Whatever survived is still exactly retrievable.
        let mut live = 0;
        for k in 0..64 {
            if let Some(v) = c.get(&k) {
                assert_eq!(v, k * 10);
                live += 1;
            }
        }
        assert_eq!(live, c.len());
    }

    /// Hits `c` on every key of `keys` it holds until the hits since its
    /// last growth reach half its slots; returns the keys it holds.
    fn hit_until_growth_is_due(c: &mut OpCache<u64, u64>, keys: std::ops::Range<u64>) -> Vec<u64> {
        let held: Vec<u64> = keys.filter(|k| c.get(k).is_some()).collect();
        assert!(!held.is_empty());
        while c.hits_since_growth * 2 < c.slots.len() {
            for k in &held {
                assert_eq!(c.get(k), Some(*k));
            }
        }
        held
    }

    #[test]
    fn distinct_inserts_without_hits_never_grow_the_table() {
        let mut c: OpCache<u64, u64> = OpCache::with_capacity(1 << 16);
        for k in 0..100_000u64 {
            c.insert(k, k);
        }
        assert_eq!(c.slots.len(), MIN_SLOTS, "a table nobody reads grew");
        assert!(c.len() <= MIN_SLOTS);
        assert_eq!(c.stats().inserts, c.len() as u64 + c.stats().evictions);
    }

    #[test]
    fn hits_double_the_table_and_the_rehash_keeps_every_entry() {
        let mut c: OpCache<u64, u64> = OpCache::with_capacity(1 << 16);
        for k in 0..3000u64 {
            c.insert(k, k);
        }
        let held = hit_until_growth_is_due(&mut c, 0..3000);
        assert_eq!(c.slots.len(), MIN_SLOTS, "hits alone must not grow it");
        // Re-inserting a held key evicts nothing, so after the doubling
        // exactly the held keys remain.
        c.insert(held[0], held[0]);
        assert_eq!(c.slots.len(), 2 * MIN_SLOTS);
        assert_eq!(c.hits_since_growth, 0);
        assert_eq!(c.len(), held.len());
        for k in &held {
            assert_eq!(c.get(k), Some(*k), "key {k} lost in the rehash");
        }
        // The next doubling needs hits against the doubled table's size.
        let held = hit_until_growth_is_due(&mut c, 0..3000);
        assert!(c.hits_since_growth >= MIN_SLOTS);
        assert_eq!(c.slots.len(), 2 * MIN_SLOTS);
        c.insert(held[0], held[0]);
        assert_eq!(c.slots.len(), 4 * MIN_SLOTS);
    }

    #[test]
    fn reuse_never_grows_the_table_past_its_capacity() {
        let capacity = 2 * MIN_SLOTS;
        let mut c: OpCache<u64, u64> = OpCache::with_capacity(capacity);
        for k in 0..50_000u64 {
            c.insert(k, k);
            assert_eq!(c.get(&k), Some(k));
            assert!(c.slots.len() <= capacity);
        }
        assert_eq!(c.slots.len(), capacity);
        assert!(c.len() <= capacity);
    }

    #[test]
    fn clear_restarts_the_table_at_min_slots_with_no_hits() {
        let mut c: OpCache<u64, u64> = OpCache::with_capacity(1 << 16);
        for k in 0..3000u64 {
            c.insert(k, k);
        }
        let held = hit_until_growth_is_due(&mut c, 0..3000);
        c.insert(held[0], held[0]);
        assert_eq!(c.slots.len(), 2 * MIN_SLOTS);
        hit_until_growth_is_due(&mut c, 0..3000);
        c.clear();
        assert!(c.slots.is_empty() && c.is_empty());
        assert_eq!(c.hits_since_growth, 0);
        c.insert(0, 0);
        assert_eq!(c.slots.len(), MIN_SLOTS);
        assert_eq!(c.get(&0), Some(0));
        assert_eq!(c.hits_since_growth, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: OpCache<u32, u32> = OpCache::with_capacity(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().inserts, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn stats_since_and_absorb() {
        let a = CacheStats {
            hits: 10,
            misses: 6,
            inserts: 6,
            ..Default::default()
        };
        let b = CacheStats {
            hits: 4,
            misses: 2,
            inserts: 2,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!((d.hits, d.misses), (6, 4));
        let mut m = b;
        m.absorb(&d);
        assert_eq!(m, a);
    }

    #[test]
    fn sum_interner_suffixes_are_stable_and_shared() {
        let mut i = SumInterner::default();
        let a = i.suffix_ids(&[Var(1), Var(2), Var(3)]);
        let b = i.suffix_ids(&[Var(0), Var(2), Var(3)]);
        assert_eq!(a[3], SumId::EMPTY);
        // Identical suffixes [2,3] and [3] intern to identical ids even
        // though the full lists differ.
        assert_eq!(a[1], b[1]);
        assert_eq!(a[2], b[2]);
        // Distinct heads give distinct ids.
        assert_ne!(a[0], b[0]);
        // Re-interning is stable.
        assert_eq!(i.suffix_ids(&[Var(1), Var(2), Var(3)]), a);
    }

    #[test]
    fn rename_interner_distinguishes_maps() {
        let mut i = RenameInterner::default();
        let m1 = i.intern(vec![(Var(0), Var(1))]);
        let m2 = i.intern(vec![(Var(0), Var(2))]);
        let m1b = i.intern(vec![(Var(0), Var(1))]);
        assert_eq!(m1, m1b);
        assert_ne!(m1, m2);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn cache_set_clear_empties_every_table() {
        let mut cs = OpCaches::with_capacity(16);
        cs.add.insert((Edge::ONE, Edge::ONE), Edge::ONE);
        cs.cont.insert(
            (crate::node::TERMINAL, crate::node::TERMINAL, SumId::EMPTY),
            Edge::ONE,
        );
        cs.slice
            .insert((crate::node::TERMINAL, Var(0), true), Edge::ONE);
        cs.conj.insert(crate::node::TERMINAL, Edge::ONE);
        let rid = cs.renames.intern(vec![(Var(0), Var(1))]);
        cs.rename.insert((crate::node::TERMINAL, rid), Edge::ONE);
        assert_eq!(cs.sizes().total(), 5);
        cs.clear();
        assert_eq!(cs.sizes(), CacheSizes::default());
    }
}
