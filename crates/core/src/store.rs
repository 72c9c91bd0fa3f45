//! Persistence for engine sessions — the core-crate face of the
//! [`qits_store`] snapshot format.
//!
//! The `qits-store` crate owns the *container*: a versioned, checksummed
//! binary file holding a topologically-ordered TDD dump, subspace
//! descriptors, a reachability checkpoint, and opaque memo entries. This
//! module owns the *meaning*: how an [`Engine`]'s state maps into that
//! container and back.
//!
//! * [`Engine::snapshot`] / [`Engine::save_snapshot`] dump the session's
//!   initial subspace (and, optionally, an in-flight
//!   [`ReachabilityResult`] checkpoint) into a [`Snapshot`].
//! * [`Engine::warm_start`] / [`Engine::warm_start_from`] restore a
//!   snapshot into a live session: the TDD dump is re-interned through
//!   the manager's unique table (a snapshot an older build wrote under an
//!   installed or sifted order still loads, re-expressed under the one
//!   variable order), and a checkpointed
//!   fixpoint comes back as a [`ResumedReach`] that
//!   [`Engine::resume_reachable_space`] continues.
//! * [`encode_job_output`] / [`decode_job_output`] give [`JobOutput`] a
//!   stable byte form — the payload of the memo spill behind
//!   [`crate::PoolBuilder::warm_start`] and
//!   [`crate::ServiceHandle::save_snapshot`].
//!
//! Every failure surfaces as a typed [`crate::QitsError::StoreIo`] /
//! [`crate::QitsError::StoreCorrupt`] / [`crate::QitsError::StoreVersion`]
//! / [`crate::QitsError::StoreSpecMismatch`] — never a panic: snapshot
//! files cross process lifetimes and machines, so they are treated as
//! untrusted input end to end.

use std::path::Path;
use std::time::Duration;

use qits_num::Cplx;
use qits_tdd::{CacheStats, Edge, TddManager};

use crate::engine::Engine;
use crate::error::QitsError;
use crate::image::ImageStats;
use crate::mc::ReachabilityResult;
use crate::pool::{ImageOutcome, JobOutput, MemoKey, ReachOutcome, ResultMemo};
use crate::subspace::Subspace;

pub use qits_store::{
    decode_tdd_dump, encode_tdd_dump, ByteReader, ByteWriter, MemoEntry, ReachDump, Snapshot,
    StoreError, SubspaceDump, FORMAT_VERSION, MAGIC,
};

// ----------------------------------------------------------------------
// Subspaces in and out of the root table.
// ----------------------------------------------------------------------

/// Appends a subspace's edges (basis kets, then projector) to the dump's
/// root table and returns the descriptor indexing them. A subspace that
/// dropped its projector has it materialised here, so the format always
/// carries one.
fn push_subspace_roots(m: &mut TddManager, s: &Subspace, roots: &mut Vec<Edge>) -> SubspaceDump {
    let start = roots.len() as u32;
    let basis = (0..s.dim() as u32).map(|i| start + i).collect();
    roots.extend_from_slice(s.basis());
    roots.push(s.projector(m));
    SubspaceDump {
        n_qubits: s.n_qubits(),
        basis,
        projector: start + s.dim() as u32,
    }
}

/// Reassembles a subspace from its descriptor against the restored root
/// table; the projector is kept or dropped by the usual node-count rule.
/// Out-of-range indices are [`QitsError::StoreCorrupt`].
fn restore_subspace(
    m: &TddManager,
    d: &SubspaceDump,
    roots: &[Edge],
) -> Result<Subspace, QitsError> {
    let fetch = |i: u32| {
        roots
            .get(i as usize)
            .copied()
            .ok_or_else(|| QitsError::StoreCorrupt {
                detail: format!(
                    "subspace root index {i} out of range ({} roots)",
                    roots.len()
                ),
            })
    };
    let mut basis = Vec::with_capacity(d.basis.len());
    for &i in &d.basis {
        basis.push(fetch(i)?);
    }
    let projector = fetch(d.projector)?;
    Ok(Subspace::from_parts(m, d.n_qubits, basis, projector))
}

// ----------------------------------------------------------------------
// Engine snapshots.
// ----------------------------------------------------------------------

/// A reachability checkpoint restored by [`Engine::warm_start`]: the
/// working space as of the snapshot, plus the iterations counted before
/// it — everything [`Engine::resume_reachable_space`] needs to continue
/// the fixpoint as if the process had never stopped.
#[derive(Debug, Clone)]
pub struct ResumedReach {
    /// The working space `S_j` at checkpoint time (on the restoring
    /// session's manager).
    pub space: Subspace,
    /// The checkpointed answer's iterations (see
    /// [`ReachabilityResult::iterations`]).
    pub iterations: usize,
    /// Whether the checkpointed run had already converged.
    pub converged: bool,
}

impl Engine {
    /// Captures the session into a [`Snapshot`]: the initial subspace,
    /// an optional in-flight reachability checkpoint, and the spec
    /// fingerprint (when the session was built from an
    /// [`crate::EngineSpec`]). All diagrams are dumped in one
    /// topologically-ordered node table, shared subgraphs included once.
    /// A subspace that dropped its projector has it materialised on this
    /// session's manager for the dump (see [`Subspace::projector`]).
    pub fn snapshot(&mut self, label: &str, progress: Option<&ReachabilityResult>) -> Snapshot {
        let mut roots: Vec<Edge> = Vec::new();
        let initial = self.initial().clone();
        let m = self.manager_mut();
        let mut subspaces = vec![push_subspace_roots(m, &initial, &mut roots)];
        let reach = progress.map(|r| {
            let idx = subspaces.len() as u32;
            subspaces.push(push_subspace_roots(m, &r.space, &mut roots));
            ReachDump {
                space: idx,
                iterations: r.iterations as u64,
                converged: r.converged,
            }
        });
        let mut snap = Snapshot::new(label);
        snap.spec_fingerprint = self.fingerprint();
        snap.tdd = Some(self.manager().dump(&roots));
        snap.subspaces = subspaces;
        snap.reach = reach;
        snap
    }

    /// [`Engine::snapshot`] straight to a file (atomically: written to a
    /// temporary sibling, then renamed into place).
    pub fn save_snapshot(
        &mut self,
        path: impl AsRef<Path>,
        label: &str,
        progress: Option<&ReachabilityResult>,
    ) -> Result<(), QitsError> {
        self.snapshot(label, progress)
            .write_to(path)
            .map_err(QitsError::from)
    }

    /// Restores a snapshot into this session: validates the spec
    /// fingerprint (when both sides carry one), re-interns the TDD dump
    /// through the manager — warming the unique table and weight table
    /// with every diagram the snapshot holds — and returns the
    /// reachability checkpoint, if the snapshot recorded one, ready for
    /// [`Engine::resume_reachable_space`].
    ///
    /// A snapshot that an older build wrote under an installed or sifted
    /// variable order still loads: its nodes are re-expressed under the
    /// one order by Shannon expansion on the way in.
    pub fn warm_start(&mut self, snap: &Snapshot) -> Result<Option<ResumedReach>, QitsError> {
        if let (Some(expected), Some(found)) = (self.fingerprint(), snap.spec_fingerprint) {
            if expected != found {
                return Err(QitsError::StoreSpecMismatch { expected, found });
            }
        }
        let roots: Vec<Edge> = match &snap.tdd {
            Some(dump) => self.manager_mut().load_dump(dump)?,
            None => Vec::new(),
        };
        // Restore every descriptor — even the ones this session does not
        // keep — so a snapshot with dangling indices is rejected whole
        // instead of failing later, after state was already mutated.
        let mut restored = Vec::with_capacity(snap.subspaces.len());
        for sd in &snap.subspaces {
            restored.push(restore_subspace(self.manager(), sd, &roots)?);
        }
        match &snap.reach {
            None => Ok(None),
            Some(rd) => {
                let space = restored.get(rd.space as usize).cloned().ok_or_else(|| {
                    QitsError::StoreCorrupt {
                        detail: format!(
                            "reach checkpoint references subspace {} of {}",
                            rd.space,
                            restored.len()
                        ),
                    }
                })?;
                Ok(Some(ResumedReach {
                    space,
                    iterations: rd.iterations as usize,
                    converged: rd.converged,
                }))
            }
        }
    }

    /// [`Engine::warm_start`] straight from a file.
    pub fn warm_start_from(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<Option<ResumedReach>, QitsError> {
        let snap = Snapshot::read_from(path)?;
        self.warm_start(&snap)
    }
}

// ----------------------------------------------------------------------
// Byte codecs for the crate's result types.
// ----------------------------------------------------------------------

/// A [`CacheStats`]'s byte form; the retired purge counter keeps its word
/// after `evictions`, written as zero.
fn encode_cache_stats(w: &mut ByteWriter, c: &CacheStats) {
    w.put_u64(c.hits);
    w.put_u64(c.misses);
    w.put_u64(c.inserts);
    w.put_u64(c.evictions);
    w.put_retired(1);
}

fn decode_cache_stats(r: &mut ByteReader<'_>) -> Result<CacheStats, StoreError> {
    let stats = CacheStats {
        hits: r.get_u64()?,
        misses: r.get_u64()?,
        inserts: r.get_u64()?,
        evictions: r.get_u64()?,
    };
    r.skip_retired(1)?;
    Ok(stats)
}

/// Serialises an [`ImageStats`] into the shared byte form. `f64`-free by
/// construction; the embedded [`Duration`] travels as whole seconds plus
/// subsecond nanoseconds, so the round trip is exact. Retired counters
/// keep their words, written as zeros, so the layout stays the same: the
/// reclaimed nodes before `safepoints`, the in-image collections and
/// their reclaim after it, and five words at the end — the generation
/// bumps, the stale-entry rejections, the GC time and two reordering
/// counters (level swaps and sifting passes).
fn encode_image_stats(w: &mut ByteWriter, st: &ImageStats) {
    w.put_u64(st.max_nodes as u64);
    w.put_u64(st.elapsed.as_secs());
    w.put_u32(st.elapsed.subsec_nanos());
    w.put_u64(st.branches as u64);
    w.put_u64(st.output_dim as u64);
    w.put_u64(st.live_nodes as u64);
    w.put_u64(st.allocated_nodes as u64);
    w.put_u64(st.peak_arena as u64);
    w.put_retired(1);
    w.put_u64(st.safepoints);
    w.put_retired(2);
    encode_cache_stats(w, &st.cont_cache);
    encode_cache_stats(w, &st.add_cache);
    w.put_u32(st.probe_p50);
    w.put_u32(st.probe_p99);
    w.put_u64(st.tombstones as u64);
    w.put_u64(st.index_cells as u64);
    w.put_retired(5);
}

/// Inverse of [`encode_image_stats`]; the retired counters are read and
/// discarded.
fn decode_image_stats(r: &mut ByteReader<'_>) -> Result<ImageStats, StoreError> {
    let max_nodes = r.get_u64()? as usize;
    let elapsed = Duration::new(r.get_u64()?, r.get_u32()?);
    let branches = r.get_u64()? as usize;
    let output_dim = r.get_u64()? as usize;
    let live_nodes = r.get_u64()? as usize;
    let allocated_nodes = r.get_u64()? as usize;
    let peak_arena = r.get_u64()? as usize;
    r.skip_retired(1)?;
    let safepoints = r.get_u64()?;
    r.skip_retired(2)?;
    let cont_cache = decode_cache_stats(r)?;
    let add_cache = decode_cache_stats(r)?;
    let probe_p50 = r.get_u32()?;
    let probe_p99 = r.get_u32()?;
    let tombstones = r.get_u64()? as usize;
    let index_cells = r.get_u64()? as usize;
    r.skip_retired(5)?;
    Ok(ImageStats {
        max_nodes,
        elapsed,
        branches,
        output_dim,
        live_nodes,
        allocated_nodes,
        peak_arena,
        safepoints,
        cont_cache,
        add_cache,
        probe_p50,
        probe_p99,
        tombstones,
        index_cells,
    })
}

/// The reachability summary's byte form; the two retired collection
/// counters after `converged` are written as zeros.
fn encode_reach_outcome(w: &mut ByteWriter, r: &ReachOutcome) {
    w.put_u64(r.dim as u64);
    w.put_u64(r.iterations as u64);
    w.put_bool(r.converged);
    w.put_retired(2);
    w.put_u64(r.stats.len() as u64);
    for st in &r.stats {
        encode_image_stats(w, st);
    }
}

fn decode_reach_outcome(r: &mut ByteReader<'_>) -> Result<ReachOutcome, StoreError> {
    let dim = r.get_u64()? as usize;
    let iterations = r.get_u64()? as usize;
    let converged = r.get_bool()?;
    r.skip_retired(2)?;
    let n = r.get_count(8)?;
    let mut stats = Vec::with_capacity(n);
    for _ in 0..n {
        stats.push(decode_image_stats(r)?);
    }
    Ok(ReachOutcome {
        dim,
        iterations,
        converged,
        stats,
    })
}

/// Serialises a [`JobOutput`] into the stable byte form memo spills use.
pub fn encode_job_output(out: &JobOutput) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match out {
        JobOutput::Image(o) => {
            w.put_u8(0);
            w.put_u64(o.dim as u64);
            w.put_u64(o.amplitudes.len() as u64);
            for row in &o.amplitudes {
                w.put_u64(row.len() as u64);
                for a in row {
                    w.put_f64(a.re);
                    w.put_f64(a.im);
                }
            }
            encode_image_stats(&mut w, &o.stats);
        }
        JobOutput::Reachability(r) => {
            w.put_u8(1);
            encode_reach_outcome(&mut w, r);
        }
        JobOutput::Invariant { holds, reach } => {
            w.put_u8(2);
            w.put_bool(*holds);
            encode_reach_outcome(&mut w, reach);
        }
        JobOutput::Equivalence { equivalent } => {
            w.put_u8(3);
            w.put_bool(*equivalent);
        }
    }
    w.into_bytes()
}

/// Inverse of [`encode_job_output`]. Trailing bytes, unknown variant
/// tags, and short reads are all [`StoreError::Malformed`] /
/// [`StoreError::Truncated`] — a corrupt memo entry is rejected, never
/// misread.
pub fn decode_job_output(bytes: &[u8]) -> Result<JobOutput, StoreError> {
    let mut r = ByteReader::new(bytes);
    let out = match r.get_u8()? {
        0 => {
            let dim = r.get_u64()? as usize;
            let rows = r.get_count(8)?;
            let mut amplitudes = Vec::with_capacity(rows);
            for _ in 0..rows {
                let cols = r.get_count(16)?;
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(Cplx::new(r.get_f64()?, r.get_f64()?));
                }
                amplitudes.push(row);
            }
            let stats = decode_image_stats(&mut r)?;
            JobOutput::Image(Box::new(ImageOutcome {
                dim,
                amplitudes,
                stats,
            }))
        }
        1 => JobOutput::Reachability(decode_reach_outcome(&mut r)?),
        2 => {
            let holds = r.get_bool()?;
            JobOutput::Invariant {
                holds,
                reach: decode_reach_outcome(&mut r)?,
            }
        }
        3 => JobOutput::Equivalence {
            equivalent: r.get_bool()?,
        },
        tag => {
            return Err(StoreError::Malformed(format!(
                "unknown job-output tag {tag}"
            )))
        }
    };
    if r.remaining() != 0 {
        return Err(StoreError::Malformed(format!(
            "{} trailing byte(s) after job output",
            r.remaining()
        )));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Memo spills.
// ----------------------------------------------------------------------

/// Serialises every cached entry of a [`ResultMemo`] into snapshot memo
/// entries (oldest-first, so a smaller loader keeps the hottest tail).
pub(crate) fn spill_memo(memo: &ResultMemo) -> Vec<MemoEntry> {
    memo.export_entries()
        .into_iter()
        .map(|(key, out)| MemoEntry {
            key,
            value: encode_job_output(&out),
        })
        .collect()
}

/// Preloads decoded snapshot entries into a memo as warm entries.
/// Returns how many were loaded; a corrupt entry fails the whole load.
pub(crate) fn preload_memo(memo: &ResultMemo, entries: &[MemoEntry]) -> Result<usize, QitsError> {
    for e in entries {
        let out = decode_job_output(&e.value)?;
        memo.preload(MemoKey::from_raw(e.key), out);
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use crate::image::Strategy;
    use qits_circuit::generators;

    fn busy_stats() -> ImageStats {
        let mut st = ImageStats {
            max_nodes: 17,
            elapsed: Duration::new(3, 999_999_999),
            branches: 5,
            output_dim: 4,
            ..ImageStats::default()
        };
        st.cont_cache.hits = 101;
        st.add_cache.evictions = 7;
        st.probe_p99 = 12;
        st.safepoints = u64::MAX;
        st
    }

    #[test]
    fn image_stats_round_trip_exactly() {
        let st = busy_stats();
        let mut w = ByteWriter::new();
        encode_image_stats(&mut w, &st);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_image_stats(&mut r).unwrap(), st);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_job_output_variant_round_trips() {
        let outputs = vec![
            JobOutput::Image(Box::new(ImageOutcome {
                dim: 2,
                amplitudes: vec![vec![
                    Cplx::new(0.5, -0.25),
                    Cplx::new(std::f64::consts::FRAC_1_SQRT_2, 0.0),
                ]],
                stats: busy_stats(),
            })),
            JobOutput::Reachability(ReachOutcome {
                dim: 8,
                iterations: 3,
                converged: true,
                stats: vec![busy_stats(), ImageStats::default()],
            }),
            JobOutput::Invariant {
                holds: false,
                reach: ReachOutcome {
                    dim: 1,
                    iterations: 1,
                    converged: false,
                    stats: vec![],
                },
            },
            JobOutput::Equivalence { equivalent: true },
        ];
        for out in outputs {
            let bytes = encode_job_output(&out);
            let back = decode_job_output(&bytes).unwrap();
            // JobOutput's structural equality goes through Debug (the
            // memo-key identity), which covers every field bit-for-bit.
            assert_eq!(format!("{back:?}"), format!("{out:?}"));
        }
    }

    #[test]
    fn corrupt_job_outputs_are_typed_errors() {
        assert!(matches!(
            decode_job_output(&[9]),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(decode_job_output(&[]), Err(StoreError::Truncated)));
        let mut bytes = encode_job_output(&JobOutput::Equivalence { equivalent: true });
        bytes.push(0);
        assert!(matches!(
            decode_job_output(&bytes),
            Err(StoreError::Malformed(_))
        ));
        let short = encode_job_output(&JobOutput::Reachability(ReachOutcome {
            dim: 1,
            iterations: 1,
            converged: true,
            stats: vec![ImageStats::default()],
        }));
        assert!(matches!(
            decode_job_output(&short[..short.len() - 3]),
            Err(StoreError::Truncated)
        ));
    }

    #[test]
    fn engine_snapshot_restores_the_checkpoint() {
        let mut engine = EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .build_from_spec(&generators::qrw(3, 0.3))
            .unwrap();
        let partial = engine.reachable_space(1).unwrap();
        assert!(!partial.converged);
        let snap = engine.snapshot("test", Some(&partial));
        assert_eq!(snap.subspaces.len(), 2);

        let mut fresh = EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .build_from_spec(&generators::qrw(3, 0.3))
            .unwrap();
        let resumed = fresh.warm_start(&snap).unwrap().expect("checkpoint");
        assert_eq!(resumed.iterations, 1);
        assert!(!resumed.converged);
        assert_eq!(resumed.space.dim(), partial.space.dim());

        // Resuming finishes the fixpoint with the same final space and
        // combined iteration count as the uninterrupted run.
        let finished = fresh.resume_reachable_space(&resumed, 20).unwrap();
        let mut straight = EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .build_from_spec(&generators::qrw(3, 0.3))
            .unwrap();
        let full = straight.reachable_space(20).unwrap();
        assert!(finished.converged);
        assert_eq!(finished.space.dim(), full.space.dim());
        assert_eq!(finished.iterations, full.iterations);
    }

    #[test]
    fn warm_start_rejects_dangling_subspace_indices() {
        let mut engine = EngineBuilder::new()
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        let mut snap = engine.snapshot("bad", None);
        snap.subspaces[0].projector = 999;
        let mut other = EngineBuilder::new()
            .build_from_spec(&generators::ghz(3))
            .unwrap();
        assert!(matches!(
            other.warm_start(&snap),
            Err(QitsError::StoreCorrupt { .. })
        ));
    }

    #[test]
    fn memo_spill_round_trips_warm() {
        let memo = ResultMemo::new(8);
        memo.insert(
            MemoKey::from_raw(42),
            &JobOutput::Equivalence { equivalent: true },
        );
        let entries = spill_memo(&memo);
        assert_eq!(entries.len(), 1);
        let restored = ResultMemo::new(8);
        assert_eq!(preload_memo(&restored, &entries).unwrap(), 1);
        assert!(restored.get(&MemoKey::from_raw(42)).is_some());
        assert_eq!(restored.stats().warm_hits, 1);
    }
}
