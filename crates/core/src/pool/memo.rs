//! The fleet-wide result memo: a bounded, thread-safe cache of completed
//! [`JobOutput`]s keyed by a canonical hash of *spec + job*.
//!
//! Image computation is deterministic: the same [`super::EngineSpec`]
//! and the same [`Job`] payload always produce the same result, on any
//! worker, in any pool. The memo exploits exactly that — and nothing
//! more: keys embed [`super::EngineSpec::fingerprint`], which folds in
//! every knob that could plausibly influence a result (system, tolerance,
//! capacities, strategy, even the GC configuration), so a hit can only
//! come from a semantically interchangeable session. Only `Ok` results
//! are memoised; failures, cancellations, and deadline sheds always
//! re-run.
//!
//! Bounding is by **least-recently-used eviction**: at capacity, caching
//! a new key evicts the entry whose last hit (or insertion) is oldest,
//! so a drifting query mix keeps its current hot set resident instead of
//! fossilising whichever keys arrived first. Evictions are counted in
//! [`MemoStats::evictions`].
//!
//! Entries restored from a snapshot (see [`crate::store`] and
//! [`super::PoolBuilder::warm_start`]) are tagged **warm**; hits they
//! serve are additionally counted in [`MemoStats::warm_hits`], which is
//! how a serving front distinguishes "answered from persisted state"
//! from "answered from something computed this process".
//!
//! One [`ResultMemo`] in an [`std::sync::Arc`] may back several pools
//! (see [`super::PoolBuilder::memo`]); its counters are then fleet-wide.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qits_num::key::{Fnv128, KeyBits};

use super::{Job, JobOutput};

/// Canonical identity of one (spec, job) pair — the memo's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey(u128);

impl MemoKey {
    /// Keys a job within a spec's namespace. The job's fields stream
    /// their raw bits into the hash (see [`qits_num::key`]): every field
    /// of every variant, circuits gate by gate and invariant states
    /// amplitude by amplitude, each float by its bits — two jobs hash
    /// equal exactly when they are structurally identical.
    pub(crate) fn for_job(spec_fingerprint: u128, job: &Job) -> MemoKey {
        let mut h = Fnv128::new();
        spec_fingerprint.key_bits(&mut h);
        job.key_bits(&mut h);
        MemoKey(h.finish())
    }

    /// Rebuilds a key from its raw snapshot form (the identity
    /// [`ResultMemo::export_entries`] hands a snapshot writer).
    pub(crate) fn from_raw(raw: u128) -> MemoKey {
        MemoKey(raw)
    }
}

/// The memo's counters, snapshotted into [`super::PoolStats::memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that returned a cached result (at submission or dequeue).
    pub hits: u64,
    /// The subset of [`MemoStats::hits`] served by entries preloaded
    /// from a snapshot ([`super::PoolBuilder::warm_start`]) — answers
    /// this process never had to compute.
    pub warm_hits: u64,
    /// Jobs that went to a worker because no cached result existed
    /// (counted once per job, at dequeue).
    pub misses: u64,
    /// Results inserted into the memo (snapshot preloads included).
    pub inserts: u64,
    /// Entries evicted to admit newer ones at capacity.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// The configured entry bound.
    pub capacity: usize,
}

/// One cached result plus its recency bookkeeping.
struct Entry {
    output: JobOutput,
    /// The entry's position in the recency order (its key in
    /// `MemoInner::recency`); larger = more recently used.
    stamp: u64,
    /// Preloaded from a snapshot rather than computed in-process.
    warm: bool,
}

#[derive(Default)]
struct MemoInner {
    entries: HashMap<u128, Entry>,
    /// Recency index: stamp -> key, ordered oldest first. Stamps are
    /// unique (one global tick per touch), so this is a total order and
    /// `pop_first` is exactly the LRU victim.
    recency: BTreeMap<u64, u128>,
    tick: u64,
}

impl MemoInner {
    fn touch(&mut self, key: u128) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(e) = self.entries.get_mut(&key) {
            self.recency.remove(&e.stamp);
            e.stamp = stamp;
            self.recency.insert(stamp, key);
        }
    }
}

/// A bounded, thread-safe cache of completed job results. Construct with
/// [`ResultMemo::new`], install with [`super::PoolBuilder::memo`] /
/// [`super::PoolBuilder::memo_capacity`].
///
/// Bounding is by **LRU eviction** (see the module docs): at capacity,
/// admitting a new key evicts the least-recently-used entry, so the memo
/// tracks the workload's current hot set.
pub struct ResultMemo {
    inner: Mutex<MemoInner>,
    capacity: usize,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ResultMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultMemo")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("warm_hits", &stats.warm_hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl ResultMemo {
    /// A fresh memo holding at most `capacity` results (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> ResultMemo {
        ResultMemo {
            inner: Mutex::new(MemoInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A snapshot of the memo's counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap().entries.len(),
            capacity: self.capacity,
        }
    }

    /// Looks a key up, counting a hit (and refreshing the entry's
    /// recency) when present. Misses are *not* counted here — the pool
    /// probes twice per job (submission and dequeue) and only the
    /// dequeue probe records the miss, so each job contributes at most
    /// one miss.
    pub(crate) fn get(&self, key: &MemoKey) -> Option<JobOutput> {
        let mut inner = self.inner.lock().unwrap();
        inner.touch(key.0);
        let hit = inner
            .entries
            .get(&key.0)
            .map(|e| (e.output.clone(), e.warm));
        drop(inner);
        if let Some((out, warm)) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if warm {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
            Some(out)
        } else {
            None
        }
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Caches a completed result under `key`, evicting the LRU entry at
    /// capacity. First writer wins; a concurrent duplicate is dropped
    /// (without dirtying the original's recency).
    pub(crate) fn insert(&self, key: MemoKey, output: &JobOutput) {
        self.admit(key, output.clone(), false);
    }

    /// [`ResultMemo::insert`] for an entry restored from a snapshot: the
    /// entry is tagged warm, so its future hits count in
    /// [`MemoStats::warm_hits`].
    pub(crate) fn preload(&self, key: MemoKey, output: JobOutput) {
        self.admit(key, output, true);
    }

    fn admit(&self, key: MemoKey, output: JobOutput, warm: bool) {
        let mut inner = self.inner.lock().unwrap();
        if inner.entries.contains_key(&key.0) {
            return;
        }
        let mut evicted = 0u64;
        while inner.entries.len() >= self.capacity {
            match inner.recency.pop_first() {
                Some((_, victim)) => {
                    inner.entries.remove(&victim);
                    evicted += 1;
                }
                None => break,
            }
        }
        inner.tick += 1;
        let stamp = inner.tick;
        inner.recency.insert(stamp, key.0);
        inner.entries.insert(
            key.0,
            Entry {
                output,
                stamp,
                warm,
            },
        );
        drop(inner);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Every cached entry as `(raw key, output)` — the spill a snapshot
    /// writer serialises. Ordered oldest-first by recency, so a loader
    /// preloading into a smaller memo naturally keeps the hottest tail.
    pub(crate) fn export_entries(&self) -> Vec<(u128, JobOutput)> {
        let inner = self.inner.lock().unwrap();
        inner
            .recency
            .values()
            .map(|k| (*k, inner.entries[k].output.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_chunk_boundaries_matter() {
        // The same gates split differently between the two circuits of an
        // equivalence job: length prefixes keep the keys apart.
        use qits_circuit::Gate;
        let job = |a: &[Gate], b: &[Gate]| {
            MemoKey::for_job(
                1,
                &Job::equivalence(a.iter().cloned().collect(), b.iter().cloned().collect()),
            )
        };
        let (h, x) = (Gate::h(0), Gate::x(0));
        let hx_ = job(&[Gate::h(0), Gate::x(0)], &[]);
        assert_ne!(hx_, job(std::slice::from_ref(&h), std::slice::from_ref(&x)));
        assert_ne!(hx_, job(&[], &[Gate::h(0), Gate::x(0)]));
        assert_eq!(hx_, job(&[h, x], &[]));
    }

    #[test]
    fn distinct_jobs_and_specs_key_apart() {
        let a = MemoKey::for_job(1, &Job::image());
        let b = MemoKey::for_job(1, &Job::Image { densify: true });
        let c = MemoKey::for_job(2, &Job::image());
        let a2 = MemoKey::for_job(1, &Job::image());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let memo = ResultMemo::new(2);
        let out = JobOutput::Equivalence { equivalent: true };
        memo.insert(MemoKey(1), &out);
        memo.insert(MemoKey(2), &out);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(memo.get(&MemoKey(1)).is_some());
        memo.insert(MemoKey(3), &out);
        assert!(memo.get(&MemoKey(1)).is_some(), "recently used survives");
        assert!(memo.get(&MemoKey(3)).is_some(), "new entry admitted");
        assert!(memo.get(&MemoKey(2)).is_none(), "LRU victim evicted");
        let stats = memo.stats();
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn missed_probes_do_not_disturb_recency() {
        // A get() on an absent key must not age the resident entries —
        // only touches of *cached* keys reorder the LRU chain.
        let memo = ResultMemo::new(1);
        let out = JobOutput::Equivalence { equivalent: true };
        memo.insert(MemoKey(1), &out);
        assert!(memo.get(&MemoKey(9)).is_none());
        memo.insert(MemoKey(2), &out);
        assert!(memo.get(&MemoKey(1)).is_none(), "1 was the true LRU");
        assert!(memo.get(&MemoKey(2)).is_some());
    }

    #[test]
    fn warm_entries_count_their_hits_separately() {
        let memo = ResultMemo::new(4);
        let out = JobOutput::Equivalence { equivalent: true };
        memo.preload(MemoKey(1), out.clone());
        memo.insert(MemoKey(2), &out);
        assert!(memo.get(&MemoKey(1)).is_some());
        assert!(memo.get(&MemoKey(2)).is_some());
        let stats = memo.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.inserts, 2);
    }

    #[test]
    fn export_round_trips_through_preload() {
        let memo = ResultMemo::new(4);
        memo.insert(MemoKey(7), &JobOutput::Equivalence { equivalent: false });
        memo.insert(MemoKey(8), &JobOutput::Equivalence { equivalent: true });
        let spilled = memo.export_entries();
        assert_eq!(spilled.len(), 2);
        let restored = ResultMemo::new(4);
        for (k, v) in spilled {
            restored.preload(MemoKey::from_raw(k), v);
        }
        assert_eq!(restored.get(&MemoKey(8)).unwrap().equivalent(), Some(true));
        assert_eq!(restored.stats().warm_hits, 1);
    }
}
