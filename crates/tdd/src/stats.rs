//! Manager-level statistics.

use crate::cache::CacheStats;

/// Fixed bucket count of [`ProbeHistogram`]; the last bucket is open-ended.
pub const PROBE_BUCKETS: usize = 16;

/// Probe-length histogram of the backed unique table.
///
/// Buckets count **probe lengths**: a lookup that resolves at its home
/// cell inspected one cell, so it lands in bucket 1 — bucket 0 is always
/// empty, and bucket 15 counts lengths of 15 cells or more. (An earlier
/// revision bucketed the *displacement* instead, which reported
/// `probe_p50: 0` for tables where every lookup genuinely touches a
/// cell.) A fixed-size array keeps the whole stats block `Copy` (worker
/// managers are merged by value into pool aggregates) while still giving
/// p50/p99 summaries — the telemetry the Robin Hood displacement is there
/// to keep flat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeHistogram(pub [u64; PROBE_BUCKETS]);

impl ProbeHistogram {
    /// Records one lookup that probed `dist` cells past its home — a
    /// probe length of `dist + 1`.
    #[inline]
    pub fn record(&mut self, dist: u32) {
        let b = (dist as usize).saturating_add(1).min(PROBE_BUCKETS - 1);
        self.0[b] += 1;
    }

    /// Total lookups recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The smallest probe length covering fraction `p` of lookups (`0` when
    /// nothing was recorded; any recorded lookup has length ≥ 1). Bucket 15
    /// reads as "15 cells or more".
    pub fn percentile(&self, p: f64) -> u32 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = (total as f64 * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= target {
                return i as u32;
            }
        }
        (PROBE_BUCKETS - 1) as u32
    }

    /// Median probe length.
    pub fn p50(&self) -> u32 {
        self.percentile(0.50)
    }

    /// 99th-percentile probe length.
    pub fn p99(&self) -> u32 {
        self.percentile(0.99)
    }

    /// Accumulates another histogram (pool aggregation).
    pub fn absorb(&mut self, other: &ProbeHistogram) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Bucket movement since an earlier snapshot of the same table.
    pub fn since(&self, earlier: &ProbeHistogram) -> ProbeHistogram {
        let mut out = *self;
        for (a, b) in out.0.iter_mut().zip(earlier.0.iter()) {
            *a = a.saturating_sub(*b);
        }
        out
    }
}

/// Counters accumulated by a [`crate::TddManager`] over its lifetime.
///
/// `peak_arena` approximates the memory high-water mark; the per-result
/// node counts reported in the paper's Table I are computed separately via
/// [`crate::TddManager::node_count`] by the image-computation layer.
///
/// The `*_cache` fields are snapshots of the operation caches' lifetime
/// counters (see [`crate::cache`]); [`CacheStats::since`] turns two
/// snapshots into the movement across a phase, which is how the
/// image-computation layer attributes hit rates to individual runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Distinct non-terminal nodes ever created.
    pub nodes_created: u64,
    /// Largest slot-store size observed (number of **allocated** node
    /// slots — dead-but-reusable slots included; the live set is
    /// [`crate::TddManager::live_node_count`]). Free-list reuse keeps this
    /// near the live peak under GC, where a grow-only run keeps climbing.
    pub peak_arena: usize,
    /// Garbage collections performed (see [`crate::gc`]).
    pub gc_runs: u64,
    /// Nodes reclaimed across all collections.
    pub nodes_reclaimed: u64,
    /// Cancellation polls ([`crate::TddManager::poll_cancel`]): between
    /// addition slices and contraction blocks, after Gram–Schmidt
    /// residuals and miter tensors, and between fixpoint iterations.
    pub safepoints_polled: u64,
    /// Non-terminal nodes that survived the most recent collection
    /// (`0` before the first collection).
    pub live_after_last_gc: usize,
    /// Cumulative nanoseconds spent inside collections (mark plus sweep).
    pub gc_nanos: u64,
    /// Probe-length histogram of the backed unique table.
    pub probe_hist: ProbeHistogram,
    /// Index tombstones currently live (snapshot, not a counter).
    pub tombstones: usize,
    /// Robin Hood index cells currently allocated (snapshot) — the
    /// denominator that makes [`ManagerStats::tombstones`] a load ratio.
    pub index_cells: usize,
    /// Index tombstones ever created by sweeps.
    pub tombstones_created: u64,
    /// Slot generations bumped (one per node swept).
    pub generation_bumps: u64,
    /// Full unique-index rehashes (growth/tombstone purges). Collections
    /// never rebuild the index, so this moves only with table load.
    pub unique_rebuilds: u64,
    /// Top-level calls to `add`.
    pub add_calls: u64,
    /// Top-level calls to `contract`.
    pub cont_calls: u64,
    /// Top-level calls to `slice`.
    pub slice_calls: u64,
    /// Top-level calls to `conj`.
    pub conj_calls: u64,
    /// Top-level calls to `rename_monotone`.
    pub rename_calls: u64,
    /// Addition-cache counters.
    pub add_cache: CacheStats,
    /// Contraction-cache counters.
    pub cont_cache: CacheStats,
    /// Slice-cache counters.
    pub slice_cache: CacheStats,
    /// Conjugation-cache counters.
    pub conj_cache: CacheStats,
    /// Renaming-cache counters.
    pub rename_cache: CacheStats,
}

impl ManagerStats {
    /// Merges another manager's counters into this aggregate — the shape a
    /// pool of worker managers needs to report fleet-wide totals (e.g.
    /// `qits`'s `EnginePool` summing per-worker poll and reclaim
    /// counters into its `PoolStats`).
    ///
    /// Counters **sum**; the high-water mark `peak_arena` takes the
    /// **max** (arenas are disjoint, so the fleet peak is at least the
    /// largest single arena); `live_after_last_gc` and `tombstones`
    /// **sum** (totals across all arenas/tables).
    pub fn absorb(&mut self, other: &ManagerStats) {
        self.nodes_created += other.nodes_created;
        self.peak_arena = self.peak_arena.max(other.peak_arena);
        self.gc_runs += other.gc_runs;
        self.nodes_reclaimed += other.nodes_reclaimed;
        self.safepoints_polled += other.safepoints_polled;
        self.live_after_last_gc += other.live_after_last_gc;
        self.gc_nanos += other.gc_nanos;
        self.probe_hist.absorb(&other.probe_hist);
        self.tombstones += other.tombstones;
        self.index_cells += other.index_cells;
        self.tombstones_created += other.tombstones_created;
        self.generation_bumps += other.generation_bumps;
        self.unique_rebuilds += other.unique_rebuilds;
        self.add_calls += other.add_calls;
        self.cont_calls += other.cont_calls;
        self.slice_calls += other.slice_calls;
        self.conj_calls += other.conj_calls;
        self.rename_calls += other.rename_calls;
        self.add_cache.absorb(&other.add_cache);
        self.cont_cache.absorb(&other.cont_cache);
        self.slice_cache.absorb(&other.slice_cache);
        self.conj_cache.absorb(&other.conj_cache);
        self.rename_cache.absorb(&other.rename_cache);
    }

    /// Counter movement since an earlier snapshot of the same manager.
    pub fn since(&self, earlier: &ManagerStats) -> ManagerStats {
        ManagerStats {
            nodes_created: self.nodes_created.saturating_sub(earlier.nodes_created),
            // High-water mark, not a counter: report the later value.
            peak_arena: self.peak_arena,
            gc_runs: self.gc_runs.saturating_sub(earlier.gc_runs),
            nodes_reclaimed: self.nodes_reclaimed.saturating_sub(earlier.nodes_reclaimed),
            safepoints_polled: self
                .safepoints_polled
                .saturating_sub(earlier.safepoints_polled),
            // Snapshot, not a counter: report the later value.
            live_after_last_gc: self.live_after_last_gc,
            gc_nanos: self.gc_nanos.saturating_sub(earlier.gc_nanos),
            probe_hist: self.probe_hist.since(&earlier.probe_hist),
            // Snapshots, not counters: report the later values.
            tombstones: self.tombstones,
            index_cells: self.index_cells,
            tombstones_created: self
                .tombstones_created
                .saturating_sub(earlier.tombstones_created),
            generation_bumps: self
                .generation_bumps
                .saturating_sub(earlier.generation_bumps),
            unique_rebuilds: self.unique_rebuilds.saturating_sub(earlier.unique_rebuilds),
            add_calls: self.add_calls.saturating_sub(earlier.add_calls),
            cont_calls: self.cont_calls.saturating_sub(earlier.cont_calls),
            slice_calls: self.slice_calls.saturating_sub(earlier.slice_calls),
            conj_calls: self.conj_calls.saturating_sub(earlier.conj_calls),
            rename_calls: self.rename_calls.saturating_sub(earlier.rename_calls),
            add_cache: self.add_cache.since(&earlier.add_cache),
            cont_cache: self.cont_cache.since(&earlier.cont_cache),
            slice_cache: self.slice_cache.since(&earlier.slice_cache),
            conj_cache: self.conj_cache.since(&earlier.conj_cache),
            rename_cache: self.rename_cache.since(&earlier.rename_cache),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = ManagerStats::default();
        assert_eq!(s.nodes_created, 0);
        assert_eq!(s.peak_arena, 0);
        assert_eq!(s.add_calls, 0);
        assert_eq!(s.cont_calls, 0);
        assert_eq!(s.tombstones_created, 0);
        assert_eq!(s.probe_hist.total(), 0);
        assert_eq!(s.cont_cache, CacheStats::default());
    }

    #[test]
    fn absorb_sums_counters_and_maxes_peaks() {
        let mut a = ManagerStats {
            nodes_created: 10,
            peak_arena: 100,
            safepoints_polled: 3,
            nodes_reclaimed: 7,
            live_after_last_gc: 20,
            generation_bumps: 2,
            tombstones: 4,
            cont_cache: CacheStats {
                hits: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = ManagerStats {
            nodes_created: 5,
            peak_arena: 250,
            safepoints_polled: 4,
            nodes_reclaimed: 1,
            live_after_last_gc: 30,
            generation_bumps: 3,
            tombstones: 1,
            cont_cache: CacheStats {
                hits: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes_created, 15);
        assert_eq!(a.peak_arena, 250, "high-water mark takes the max");
        assert_eq!(a.safepoints_polled, 7);
        assert_eq!(a.nodes_reclaimed, 8);
        assert_eq!(a.live_after_last_gc, 50);
        assert_eq!(a.generation_bumps, 5);
        assert_eq!(a.tombstones, 5);
        assert_eq!(a.cont_cache.hits, 11);
    }

    #[test]
    fn since_subtracts_counters() {
        let later = ManagerStats {
            nodes_created: 10,
            add_calls: 4,
            cont_cache: CacheStats {
                hits: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        let earlier = ManagerStats {
            nodes_created: 6,
            add_calls: 1,
            cont_cache: CacheStats {
                hits: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.nodes_created, 4);
        assert_eq!(d.add_calls, 3);
        assert_eq!(d.cont_cache.hits, 5);
    }

    #[test]
    fn probe_histogram_percentiles() {
        let mut h = ProbeHistogram::default();
        assert_eq!(h.p50(), 0);
        // 90 lookups of length 1 (home hit), 9 of length 3, 1 of length 8.
        h.0[1] = 90;
        h.0[3] = 9;
        h.0[8] = 1;
        assert_eq!(h.total(), 100);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 3);
        assert_eq!(h.percentile(1.0), 8);
        // Overflow bucket saturates.
        h.record(1000);
        assert_eq!(h.0[PROBE_BUCKETS - 1], 1);
        // absorb and since round-trip.
        let snap = h;
        h.record(3);
        let moved = h.since(&snap);
        assert_eq!(moved.total(), 1);
        assert_eq!(moved.0[4], 1, "distance 3 is a probe of length 4");
        let mut agg = snap;
        agg.absorb(&moved);
        assert_eq!(agg, h);
    }

    #[test]
    fn probe_length_counts_home_hit_as_one() {
        // Regression: home-cell hits used to land in bucket 0, reporting
        // `probe_p50: 0` — as if the median lookup touched no cell at all.
        let mut h = ProbeHistogram::default();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.0[0], 0, "bucket 0 is unreachable");
        assert_eq!(h.0[1], 10);
        assert_eq!(h.p50(), 1, "a home-cell hit is one probe, not zero");
        assert_eq!(h.p99(), 1);
    }
}
