//! Round-trip suite for the persistence layer (`qits::store`).
//!
//! Three layers, three guarantees:
//!
//! * **TDD dumps are bit-for-bit.** A dump loaded into a fresh, empty
//!   manager reconstructs the node store weight-for-weight, so
//!   evaluating any root under any assignment yields *equal* floats, not
//!   merely close ones — proven here by proptest over random circuits.
//! * **Snapshots fail typed, never panic.** Truncations at every prefix
//!   length and byte flips across the file parse to `StoreError`s, and
//!   surface through the engine as `QitsError::Store*` variants.
//! * **Warm starts agree with cold runs.** An engine resumed from a
//!   checkpoint converges to the same fixpoint as a straight run, and a
//!   pool warm-started from a spilled memo serves outputs identical to
//!   a cold pool computing them fresh.
//!
//! Snapshots that older builds wrote under an explicit variable order are
//! pinned by the committed fixture in `tests/store_compat.rs`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;

use qits::store::{decode_tdd_dump, encode_tdd_dump, ByteReader, ByteWriter, Snapshot};
use qits::{EnginePool, EngineSpec, Job, JobOutput, QitsError, Strategy, Subspace};
use qits_circuit::generators::{self, QtsSpec};
use qits_circuit::{Circuit, Gate, Operation};
use qits_num::Cplx;
use qits_tdd::{Edge, TddManager};
use qits_tensor::Var;

const N: u32 = 3;

/// A scratch path under the Cargo-managed test temp dir (never `/tmp`).
fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store_roundtrip");
    std::fs::create_dir_all(&dir).expect("create test temp dir");
    dir.join(name)
}

fn arb_gate() -> impl proptest::strategy::Strategy<Value = Gate> {
    let q = 0..N;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::z),
        (q.clone(), 0.0..std::f64::consts::TAU).prop_map(|(q, t)| Gate::phase(q, t)),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cx(a, b))),
        (q.clone(), q).prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cz(a, b))),
    ]
}

fn arb_circuit(max_len: usize) -> impl proptest::strategy::Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(), 1..=max_len).prop_map(|gates| {
        let mut c = Circuit::new(N);
        for g in gates {
            c.push(g);
        }
        c
    })
}

fn arb_amp() -> impl proptest::strategy::Strategy<Value = (Cplx, Cplx)> {
    (0.0..std::f64::consts::PI, 0.0..std::f64::consts::TAU).prop_map(|(theta, phi)| {
        (
            Cplx::real((theta / 2.0).cos()),
            Cplx::from_polar((theta / 2.0).sin(), phi),
        )
    })
}

fn random_system(circuit: &Circuit, amps: Vec<Vec<(Cplx, Cplx)>>) -> QtsSpec {
    QtsSpec {
        name: "store-roundtrip".into(),
        n_qubits: N,
        operations: vec![Operation::from_circuit("rand", circuit)],
        initial_states: amps,
    }
}

/// Every assignment of the interleaved ket/row variables of `n` qubits
/// (basis kets only branch on kets; projectors on both — `eval` ignores
/// variables a diagram does not depend on).
fn all_assignments(n: u32) -> Vec<BTreeMap<Var, bool>> {
    let vars: Vec<Var> = (0..n).flat_map(|q| [Var::ket(q), Var::row(q)]).collect();
    (0..1usize << vars.len())
        .map(|bits| {
            vars.iter()
                .enumerate()
                .map(|(i, v)| (*v, bits >> i & 1 == 1))
                .collect()
        })
        .collect()
}

/// Bitwise (`PartialEq` on the raw floats) evaluation agreement of two
/// root lists on two managers, across every variable assignment.
fn eval_identical(
    src: &TddManager,
    src_roots: &[Edge],
    dst: &TddManager,
    dst_roots: &[Edge],
) -> Result<(), String> {
    if src_roots.len() != dst_roots.len() {
        return Err(format!(
            "root count {} != {}",
            src_roots.len(),
            dst_roots.len()
        ));
    }
    for (i, (a, b)) in src_roots.iter().zip(dst_roots).enumerate() {
        for asn in all_assignments(N) {
            let (va, vb) = (src.eval(*a, &asn), dst.eval(*b, &asn));
            if va != vb {
                return Err(format!("root {i}: {va:?} != {vb:?} under {asn:?}"));
            }
        }
    }
    Ok(())
}

/// Tolerance-level evaluation agreement, for a warm start that re-interns
/// weights into a manager already holding the system's diagrams.
fn eval_close(
    src: &TddManager,
    src_roots: &[Edge],
    dst: &TddManager,
    dst_roots: &[Edge],
) -> Result<(), String> {
    assert_eq!(src_roots.len(), dst_roots.len());
    for (i, (a, b)) in src_roots.iter().zip(dst_roots).enumerate() {
        for asn in all_assignments(N) {
            let (va, vb) = (src.eval(*a, &asn), dst.eval(*b, &asn));
            if !va.approx_eq_with(vb, 1e-9) {
                return Err(format!("root {i}: {va:?} !~ {vb:?} under {asn:?}"));
            }
        }
    }
    Ok(())
}

/// The roots worth persisting from a partially-run engine: the initial
/// subspace and the reachability frontier, bases and projectors both
/// (materialised where a subspace dropped its projector).
fn engine_roots(
    m: &mut TddManager,
    initial: &qits::Subspace,
    frontier: &qits::Subspace,
) -> Vec<Edge> {
    let mut roots: Vec<Edge> = Vec::new();
    roots.extend_from_slice(initial.basis());
    roots.push(initial.projector(m));
    roots.extend_from_slice(frontier.basis());
    roots.push(frontier.projector(m));
    roots
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// dump → encode → decode → load into a fresh manager → every root
    /// evaluates bit-for-bit.
    #[test]
    fn dump_round_trip_evaluates_bit_for_bit(
        circuit in arb_circuit(6),
        amps in proptest::collection::vec(
            proptest::collection::vec(arb_amp(), N as usize), 1..3),
    ) {
        let spec = EngineSpec::new(random_system(&circuit, amps))
            .strategy(Strategy::Contraction { k1: 2, k2: 2 });
        let mut engine = spec.build().expect("engine builds");
        let partial = engine.reachable_space(2).expect("partial fixpoint");
        let initial = engine.initial().clone();
        let roots = engine_roots(engine.manager_mut(), &initial, &partial.space);
        let dump = engine.manager().dump(&roots);

        // Byte-level codec identity.
        let mut w = ByteWriter::new();
        encode_tdd_dump(&dump, &mut w);
        let bytes = w.into_bytes();
        let decoded = decode_tdd_dump(&mut ByteReader::new(&bytes)).expect("decodes");
        prop_assert_eq!(&decoded, &dump);

        // A fresh empty manager rebuilds every node: bit-identical.
        let mut fresh = TddManager::new();
        let loaded = fresh.load_dump(&decoded).expect("well-formed dump");
        let r = eval_identical(engine.manager(), &roots, &fresh, &loaded);
        prop_assert!(r.is_ok(), "reload: {}", r.unwrap_err());
    }
}

/// A snapshot taken mid-fixpoint warm-starts a sibling engine built from
/// the same spec: the restored frontier matches at tolerance (dimension
/// exactly), and resuming converges to the same fixpoint as a straight
/// uninterrupted run.
#[test]
fn engine_warm_start_resumes_to_the_same_fixpoint() {
    let spec =
        EngineSpec::new(generators::qrw(3, 0.25)).strategy(Strategy::Contraction { k1: 2, k2: 2 });
    let mut first = spec.build().unwrap();
    let partial = first.reachable_space(1).unwrap();
    // Iteration totals only fold cleanly when the checkpoint is strictly
    // pre-convergence (resuming a converged run re-confirms with one
    // extra image).
    assert!(
        !partial.converged,
        "qrw(3) must not converge in 1 iteration"
    );
    let path = tmp("engine-warm-start.qsnap");
    first
        .save_snapshot(&path, "mid-fixpoint", Some(&partial))
        .unwrap();

    let mut second = spec.build().unwrap();
    let resumed = second
        .warm_start_from(&path)
        .unwrap()
        .expect("snapshot carries reachability progress");
    assert_eq!(resumed.iterations, partial.iterations);
    assert_eq!(resumed.converged, partial.converged);
    assert_eq!(resumed.space.dim(), partial.space.dim());
    eval_close(
        first.manager(),
        partial.space.basis(),
        second.manager(),
        resumed.space.basis(),
    )
    .unwrap();

    let continued = second.resume_reachable_space(&resumed, 64).unwrap();
    let straight = spec.build().unwrap().reachable_space(64).unwrap();
    assert!(continued.converged && straight.converged);
    assert_eq!(continued.space.dim(), straight.space.dim());
    assert_eq!(continued.iterations, straight.iterations);
}

/// A GHZ checkpoint whose working space dropped its projector: the
/// snapshot writes the materialised projector (the format always carries
/// one), the restore judges it by the same node-count rule and stays
/// projector-free, and resuming — with the whole restored space as the
/// first frontier — reaches the same fixpoint as a straight run.
#[test]
fn projector_free_checkpoint_round_trips_and_resumes() {
    let spec = EngineSpec::new(generators::ghz(5)).strategy(Strategy::Contraction { k1: 2, k2: 2 });
    let mut first = spec.build().unwrap();
    let partial = first.reachable_space(8).unwrap();
    assert!(!partial.converged);
    assert!(
        !partial.space.keeps_projector(),
        "the GHZ working space must have dropped its projector"
    );
    let path = tmp("projector-free.qsnap");
    first
        .save_snapshot(&path, "ghz checkpoint", Some(&partial))
        .unwrap();

    // The checkpoint's projector root is the projector of its basis.
    let snap = Snapshot::read_from(&path).unwrap();
    let mut m = TddManager::new();
    let roots = m.load_dump(snap.tdd.as_ref().unwrap()).unwrap();
    let reach = &snap.subspaces[snap.reach.as_ref().unwrap().space as usize];
    let from_p = Subspace::from_projector(&mut m, 5, roots[reach.projector as usize]);
    assert_eq!(from_p.dim(), partial.space.dim());
    for &i in &reach.basis {
        assert!(from_p.contains(&mut m, roots[i as usize]));
    }

    let mut second = spec.build().unwrap();
    let resumed = second
        .warm_start_from(&path)
        .unwrap()
        .expect("snapshot carries reachability progress");
    assert_eq!(resumed.space.dim(), partial.space.dim());
    assert!(!resumed.space.keeps_projector());
    let continued = second.resume_reachable_space(&resumed, 64).unwrap();
    let straight = spec.build().unwrap().reachable_space(64).unwrap();
    assert!(straight.converged);
    assert_eq!(continued.converged, straight.converged);
    assert_eq!(continued.space.dim(), straight.space.dim());
    assert_eq!(continued.iterations, straight.iterations);
}

/// Corrupted, truncated, and wrong-version snapshot files must yield
/// typed `StoreError`/`QitsError::Store*` values — never a panic.
#[test]
fn corrupted_snapshots_fail_typed_never_panic() {
    let spec = EngineSpec::new(generators::ghz(3));
    let mut engine = spec.build().unwrap();
    let partial = engine.reachable_space(1).unwrap();
    let snap = engine.snapshot("victim", Some(&partial));
    let bytes = snap.to_bytes();
    assert!(Snapshot::from_bytes(&bytes).is_ok());

    // Every proper prefix is rejected (and must not panic).
    for k in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..k]).is_err(),
            "prefix of {k} bytes parsed"
        );
    }
    // Single-byte flips: the header fields each carry their own typed
    // rejection, and any payload flip trips the checksum. Sample the
    // whole file rather than flipping every byte of a large payload.
    let step = (bytes.len() / 64).max(1);
    for i in (0..bytes.len().min(32)).chain((0..bytes.len()).step_by(step)) {
        let mut tampered = bytes.clone();
        tampered[i] ^= 0x40;
        assert!(
            Snapshot::from_bytes(&tampered).is_err(),
            "flip at byte {i} parsed"
        );
    }

    // Through the engine the failures surface as QitsError variants.
    let truncated_path = tmp("truncated.qsnap");
    std::fs::write(&truncated_path, &bytes[..bytes.len() / 2]).unwrap();
    let mut fresh = spec.build().unwrap();
    match fresh.warm_start_from(&truncated_path) {
        Err(QitsError::StoreCorrupt { .. }) => {}
        other => panic!("truncated file: expected StoreCorrupt, got {other:?}"),
    }

    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    let version_path = tmp("version.qsnap");
    std::fs::write(&version_path, &wrong_version).unwrap();
    match fresh.warm_start_from(&version_path) {
        Err(QitsError::StoreVersion { found: 99, .. }) => {}
        other => panic!("future version: expected StoreVersion, got {other:?}"),
    }

    let mut bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    let magic_path = tmp("magic.qsnap");
    std::fs::write(&magic_path, &bad_magic).unwrap();
    match fresh.warm_start_from(&magic_path) {
        Err(QitsError::StoreCorrupt { .. }) => {}
        other => panic!("bad magic: expected StoreCorrupt, got {other:?}"),
    }

    match fresh.warm_start_from(tmp("does-not-exist.qsnap")) {
        Err(QitsError::StoreIo { .. }) => {}
        other => panic!("missing file: expected StoreIo, got {other:?}"),
    }
}

/// Semantic equality of job outputs across independently-built pools,
/// ignoring timing-carrying stats.
fn outputs_agree(warm: &JobOutput, cold: &JobOutput) -> Result<(), String> {
    match (warm, cold) {
        (JobOutput::Image(w), JobOutput::Image(c)) => {
            if w.dim != c.dim {
                return Err(format!("image dim {} != {}", w.dim, c.dim));
            }
            (w.amplitudes == c.amplitudes)
                .then_some(())
                .ok_or_else(|| "image amplitudes differ".to_string())
        }
        (JobOutput::Reachability(w), JobOutput::Reachability(c)) => {
            if (w.dim, w.iterations, w.converged) != (c.dim, c.iterations, c.converged) {
                return Err("reachability results differ".to_string());
            }
            Ok(())
        }
        (JobOutput::Equivalence { equivalent: w }, JobOutput::Equivalence { equivalent: c }) => {
            if w != c {
                return Err(format!("equivalence verdict {w} != {c}"));
            }
            Ok(())
        }
        _ => Err("job output variants differ".to_string()),
    }
}

fn pool_jobs() -> Vec<Job> {
    let mut probe = Circuit::new(3);
    probe.push(Gate::h(0));
    probe.push(Gate::cx(0, 1));
    vec![
        Job::Image { densify: true },
        Job::reachability(8),
        Job::equivalence(probe.clone(), probe),
    ]
}

fn run_pool(pool: &EnginePool, jobs: &[Job]) -> Vec<JobOutput> {
    pool.submit_batch(jobs.to_vec())
        .into_iter()
        .map(|h| h.join().expect("job succeeds"))
        .collect()
}

/// A pool warm-started from a spilled memo serves every duplicate from
/// the persisted entries — and those answers are identical to what a
/// cold pool computes from scratch.
#[test]
fn warm_started_pool_agrees_with_cold_pool() {
    let spec =
        EngineSpec::new(generators::grover(3)).strategy(Strategy::Contraction { k1: 2, k2: 2 });
    let jobs = pool_jobs();
    let path = tmp("pool-memo.qsnap");

    // Seed run: compute everything once, spill the memo to disk.
    let seed = EnginePool::builder(spec.clone())
        .workers(2)
        .memo_capacity(64)
        .build()
        .unwrap();
    let seed_outputs = run_pool(&seed, &jobs);
    let spilled = seed
        .handle()
        .save_snapshot(&path, "seed memo")
        .expect("snapshot saves");
    assert_eq!(spilled, jobs.len(), "every result spills");
    seed.shutdown();

    // Warm pool: every job is a warm memo hit.
    let warm = EnginePool::builder(spec.clone())
        .workers(2)
        .memo_capacity(64)
        .warm_start(&path)
        .expect("snapshot accepted")
        .build()
        .unwrap();
    let warm_outputs = run_pool(&warm, &jobs);
    let warm_stats = warm.shutdown();
    assert_eq!(warm_stats.memo.warm_hits, jobs.len() as u64);

    // Cold pool: same jobs computed fresh.
    let cold = EnginePool::builder(spec).workers(2).build().unwrap();
    let cold_outputs = run_pool(&cold, &jobs);
    cold.shutdown();

    for (i, ((w, c), s)) in warm_outputs
        .iter()
        .zip(&cold_outputs)
        .zip(&seed_outputs)
        .enumerate()
    {
        outputs_agree(w, c).unwrap_or_else(|e| panic!("job {i} warm vs cold: {e}"));
        outputs_agree(w, s).unwrap_or_else(|e| panic!("job {i} warm vs seed: {e}"));
    }

    // A spec with a different fingerprint rejects the snapshot outright.
    match EnginePool::builder(EngineSpec::new(generators::qft(3))).warm_start(&path) {
        Err(QitsError::StoreSpecMismatch { .. }) => {}
        other => panic!(
            "foreign spec: expected StoreSpecMismatch, got {:?}",
            other.map(|_| "builder")
        ),
    }
}

/// `ServiceHandle::load_snapshot` preloads a running pool's memo (warm
/// hits follow), and reports `StoreMemoUnavailable` when the pool was
/// built without a memo to preload into.
#[test]
fn service_handle_loads_snapshots_into_a_running_pool() {
    let spec =
        EngineSpec::new(generators::grover(3)).strategy(Strategy::Contraction { k1: 2, k2: 2 });
    let jobs = pool_jobs();
    let path = tmp("handle-load.qsnap");

    let seed = EnginePool::builder(spec.clone())
        .workers(2)
        .memo_capacity(64)
        .build()
        .unwrap();
    run_pool(&seed, &jobs);
    seed.handle().save_snapshot(&path, "handle seed").unwrap();
    seed.shutdown();

    let pool = EnginePool::builder(spec.clone())
        .workers(2)
        .memo_capacity(64)
        .build()
        .unwrap();
    let loaded = pool.handle().load_snapshot(&path).unwrap();
    assert_eq!(loaded, jobs.len());
    run_pool(&pool, &jobs);
    let stats = pool.shutdown();
    assert_eq!(stats.memo.warm_hits, jobs.len() as u64);

    let memoless = EnginePool::builder(spec).workers(2).build().unwrap();
    match memoless.handle().load_snapshot(&path) {
        Err(QitsError::StoreMemoUnavailable) => {}
        other => panic!("memoless pool: expected StoreMemoUnavailable, got {other:?}"),
    }
    memoless.shutdown();
}
