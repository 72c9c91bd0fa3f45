//! Shared harness for regenerating the paper's tables.
//!
//! The binaries `table1` and `table2` print the same rows the paper
//! reports (time in seconds, max TDD node count); the Criterion benches in
//! `benches/` track the same workloads for regression purposes. Absolute
//! numbers differ from the paper's Xeon server — the *shape* (method
//! ordering, node-count growth) is the reproduction target; see
//! EXPERIMENTS.md.

pub mod soak;

pub use soak::{run_serve_soak, ServeMeasurement, SoakConfig};

use std::path::Path;
use std::time::{Duration, Instant};

use qits::store::{ByteReader, ByteWriter, MemoEntry, Snapshot, StoreError};
use qits::{
    mc, Engine, EngineBuilder, EnginePool, EngineSpec, ImageStats, Job, ReorderPolicy, StaticOrder,
    Strategy, Subspace,
};
use qits_circuit::generators::{self, QtsSpec};
use qits_tdd::GcPolicy;

/// Bit-flip probability used for all QRW benchmarks (the paper does not
/// report its value; the image subspace is independent of it).
pub const QRW_NOISE: f64 = 0.125;

/// Builds a benchmark spec by family name and size, mirroring the naming
/// of Table I (`Grover15` = `("grover", 15)`).
///
/// Beyond the paper's five families, two ablation variants expose the
/// cost of compiling away the primitive multi-controlled tensors:
/// `grover-elem` lowers every `C^k(X)` to a Toffoli ladder with ancillas,
/// and `grover-ct` further lowers Toffolis to Clifford+T.
///
/// # Panics
///
/// Panics on an unknown family name.
pub fn spec_for(family: &str, n: u32) -> QtsSpec {
    match family {
        "grover" => generators::grover(n),
        "qft" => generators::qft(n),
        "bv" => generators::bernstein_vazirani(n, &generators::bv_secret(n)),
        "ghz" => generators::ghz(n),
        "qrw" => generators::qrw(n, QRW_NOISE),
        "grover-elem" => elementarized_grover(n, false),
        "grover-ct" => elementarized_grover(n, true),
        "qrw-elem" => elementarized_qrw(n),
        "adder" => generators::qft_adder(n, 1),
        "repcode" => generators::repetition_code(n),
        "cliffordt" => generators::random_clifford_t(n, 3 * n, QRW_NOISE, u64::from(n)),
        other => panic!("unknown benchmark family '{other}'"),
    }
}

/// The Grover benchmark lowered to elementary gates (see
/// [`qits_circuit::decompose::elementarize`]); ancilla wires extend the
/// register and start in `|0>`.
fn elementarized_grover(n: u32, clifford_t: bool) -> QtsSpec {
    use qits_circuit::decompose::{elementarize, ElementarizeOptions};
    use qits_circuit::tensorize::states;
    use qits_circuit::Operation;

    let base = generators::grover(n);
    let circuit = base.operations[0].kraus_branches().remove(0);
    let elem = elementarize(&circuit, ElementarizeOptions { clifford_t });
    let pad = (elem.n_qubits() - n) as usize;
    let initial_states = base
        .initial_states
        .iter()
        .map(|amps| {
            let mut a = amps.clone();
            a.extend(std::iter::repeat_n(states::ZERO, pad));
            a
        })
        .collect();
    QtsSpec {
        name: format!(
            "Grover{}{}{n}",
            if clifford_t { "CT" } else { "Elem" },
            if pad > 0 {
                format!("+{pad}a ")
            } else {
                String::new()
            }
        ),
        n_qubits: elem.n_qubits(),
        operations: vec![Operation::from_circuit("grover-elem", &elem)],
        initial_states,
    }
}

/// The quantum-walk benchmark lowered to elementary gates. Every Kraus
/// branch of the noisy operation becomes its own operation; the image of
/// a subspace is the same join either way.
fn elementarized_qrw(n: u32) -> QtsSpec {
    use qits_circuit::decompose::{elementarize, ElementarizeOptions};
    use qits_circuit::tensorize::states;
    use qits_circuit::Operation;

    let base = generators::qrw(n, QRW_NOISE);
    let mut circuits = Vec::new();
    for op in &base.operations {
        for branch in op.kraus_branches() {
            circuits.push(elementarize(&branch, ElementarizeOptions::default()));
        }
    }
    let width = circuits
        .iter()
        .map(qits_circuit::Circuit::n_qubits)
        .max()
        .expect("qrw has operations");
    assert!(
        circuits.iter().all(|c| c.n_qubits() == width),
        "elementarised QRW branches must share a register"
    );
    let pad = (width - n) as usize;
    let operations = circuits
        .iter()
        .enumerate()
        .map(|(i, c)| Operation::from_circuit(format!("walk-elem-{i}"), c))
        .collect();
    let initial_states = base
        .initial_states
        .iter()
        .map(|amps| {
            let mut a = amps.clone();
            a.extend(std::iter::repeat_n(states::ZERO, pad));
            a
        })
        .collect();
    QtsSpec {
        name: format!("QRWElem{n}+{pad}a"),
        n_qubits: width,
        operations,
        initial_states,
    }
}

/// The method names used by the harness CLI, in Table I column order.
pub const METHODS: [&str; 3] = ["basic", "addition", "contraction"];

/// Maps a CLI method name to a strategy with the paper's parameters
/// (`k = 1` for addition, `k1 = k2 = 4` for contraction).
///
/// # Panics
///
/// Panics on an unknown method name.
pub fn strategy_for(method: &str) -> Strategy {
    match method {
        "basic" => Strategy::Basic,
        "addition" => Strategy::Addition { k: 1 },
        "contraction" => Strategy::Contraction { k1: 4, k2: 4 },
        other => panic!("unknown method '{other}'"),
    }
}

/// One measured image computation: builds a fresh engine session (with
/// the default GC watermark installed, so the kernel's safepoints may
/// reclaim mid-run), runs the image of the spec's initial subspace, and
/// finishes with the end-of-run collection a fixpoint driver would do
/// here — its reclaim count is what the `recl` table column reports.
///
/// `live_nodes`/`allocated_nodes`/`elapsed` are snapshotted by the image
/// kernel *before* that final sweep, so the timing and node columns
/// describe the uncollected run and `reclaimed_nodes` the garbage it
/// left behind.
pub fn run_image(spec: &QtsSpec, strategy: Strategy) -> ImageStats {
    let mut engine = EngineBuilder::new()
        .gc_policy(Some(GcPolicy::default()))
        .strategy(strategy)
        .build_from_spec(spec)
        .expect("benchmark spec must form a valid system");
    let (img, mut stats) = engine.image().expect("benchmark image must compute");
    let out = engine.collect(&[&img]);
    stats.reclaimed_nodes += out.reclaimed as u64;
    stats
}

/// One measured image computation on a fresh session with an explicit GC
/// policy (`None` = grow-only): the A/B shape behind the peak-arena
/// regression test and the safepoint counters of `BENCH_ci.json`. No
/// end-of-run sweep — the stats describe the run exactly as the policy
/// (and the in-image safepoints) left it.
pub fn run_image_gc(spec: &QtsSpec, strategy: Strategy, policy: Option<GcPolicy>) -> ImageStats {
    let mut engine = EngineBuilder::new()
        .gc_policy(policy)
        .strategy(strategy)
        .build_from_spec(spec)
        .expect("benchmark spec must form a valid system");
    engine.image().expect("benchmark image must compute").1
}

/// The dynamic-variable-reordering A/B of one CI case: the same image
/// computation under `GcPolicy::aggressive()`, with sifting off and with
/// sifting forced at every safepoint collection — both runs starting
/// from the deliberately poor position-major static order (all kets
/// above all rows), so the sifting has real structure to reclaim. The
/// live/peak node deltas are the `reorder` row of `BENCH_ci.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderMeasurement {
    /// Live nodes at the end of the sifting-off run.
    pub live_off: usize,
    /// Live nodes at the end of the sifting-on run.
    pub live_on: usize,
    /// Peak allocated slots of the sifting-off run.
    pub peak_off: usize,
    /// Peak allocated slots of the sifting-on run.
    pub peak_on: usize,
    /// Adjacent-level swaps the sifting-on run performed.
    pub swaps: u64,
    /// Sifting passes the sifting-on run completed.
    pub sift_passes: u64,
}

/// The static order both arms of [`run_reorder_ab`] start from, as the
/// JSON records it.
pub const REORDER_AB_ORDER: StaticOrder = StaticOrder::PositionMajor;

/// Measures [`ReorderMeasurement`] for one case (see the struct docs).
pub fn run_reorder_ab(spec: &QtsSpec, strategy: Strategy) -> ReorderMeasurement {
    let run = |reorder: ReorderPolicy| {
        let mut engine = EngineBuilder::new()
            .strategy(strategy)
            .static_order(REORDER_AB_ORDER)
            .gc_policy(Some(GcPolicy::aggressive()))
            .reorder(reorder)
            .build_from_spec(spec)
            .expect("benchmark spec must form a valid system");
        engine.image().expect("benchmark image must compute").1
    };
    let off = run(ReorderPolicy::Off);
    let on = run(ReorderPolicy::EveryCollection);
    ReorderMeasurement {
        live_off: off.live_nodes,
        live_on: on.live_nodes,
        peak_off: off.peak_arena,
        peak_on: on.peak_arena,
        swaps: on.swaps,
        sift_passes: on.sift_passes,
    }
}

/// Like [`run_image`] but also returns the image and the session that
/// owns it, for validation.
pub fn run_image_with_result(spec: &QtsSpec, strategy: Strategy) -> (Subspace, ImageStats, Engine) {
    let mut engine = EngineBuilder::new()
        .strategy(strategy)
        .build_from_spec(spec)
        .expect("benchmark spec must form a valid system");
    let (img, stats) = engine.image().expect("benchmark image must compute");
    (img, stats, engine)
}

/// One measured reachability fixpoint on a fresh session, with an
/// optional GC policy — the workload behind the `gc_overhead` bench and
/// the GC columns of the table binaries.
pub fn run_reachability(
    spec: &QtsSpec,
    strategy: Strategy,
    max_iterations: usize,
    policy: Option<GcPolicy>,
) -> (mc::ReachabilityResult, Engine) {
    let mut engine = EngineBuilder::new()
        .gc_policy(policy)
        .strategy(strategy)
        .build_from_spec(spec)
        .expect("benchmark spec must form a valid system");
    let r = engine
        .reachable_space(max_iterations)
        .expect("benchmark fixpoint must run");
    (r, engine)
}

/// One pool-vs-serial throughput measurement: the same batch of
/// independent image jobs served by an [`EnginePool`] and by the
/// pre-pool serving model (one **fresh** serial engine per job, which is
/// also the differential suite's baseline semantics). The pool wins on
/// two axes at once — parallelism across workers and warm per-worker
/// operation caches across the jobs each worker serves — so the speedup
/// floor holds even on single-core CI runners.
#[derive(Debug, Clone)]
pub struct PoolMeasurement {
    /// Benchmark family of the job's system.
    pub family: String,
    /// Register size.
    pub n: u32,
    /// Table-I method name.
    pub method: String,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Independent image jobs in the batch.
    pub jobs: usize,
    /// Wall-clock seconds for the serial fresh-engine-per-job run.
    pub serial_secs: f64,
    /// Wall-clock seconds for the pool run (submit batch, join all).
    pub pool_secs: f64,
    /// `serial_secs / pool_secs`.
    pub speedup: f64,
    /// Jobs the pool failed (must be 0 for a healthy run).
    pub jobs_failed: u64,
    /// Sifting passes each worker's private manager completed, in worker
    /// order. All zeros unless something schedules reordering — the
    /// throughput workload itself runs GC-off, but `QITS_REORDER=
    /// aggressive` (the CI matrix's reordering leg) reaches the worker
    /// engines through the builder and shows up here.
    pub worker_sift_passes: Vec<u64>,
}

/// Measures [`PoolMeasurement`] for one `(family, n, method)` workload:
/// `jobs` independent image jobs, serially on fresh engines and through a
/// `workers`-wide pool built from the same [`EngineSpec`].
pub fn run_pool_throughput(
    family: &str,
    n: u32,
    method: &str,
    workers: usize,
    jobs: usize,
) -> PoolMeasurement {
    // GC off: a throughput bench wants maximal operation-cache retention
    // across the jobs a worker serves (a collection purges the epoch-
    // tagged caches). Long-running deployments pick their own policy
    // through the spec; correctness under forced GC is the differential
    // suite's job, not this bench's.
    let spec = EngineSpec::new(spec_for(family, n))
        .strategy(strategy_for(method))
        .gc_policy(None);

    let start = Instant::now();
    for _ in 0..jobs {
        let mut engine = spec
            .build()
            .expect("benchmark spec must form a valid system");
        engine.image().expect("benchmark image must compute");
    }
    let serial_secs = start.elapsed().as_secs_f64();

    let pool = EnginePool::builder(spec)
        .workers(workers)
        .build()
        .expect("benchmark spec must form a valid system");
    let start = Instant::now();
    let handles = pool.submit_batch(vec![Job::image(); jobs]);
    for h in handles {
        h.join().expect("pool image job must compute");
    }
    let pool_secs = start.elapsed().as_secs_f64();
    let stats = pool.shutdown();

    PoolMeasurement {
        family: family.into(),
        n,
        method: method.into(),
        workers,
        jobs,
        serial_secs,
        pool_secs,
        speedup: serial_secs / pool_secs.max(f64::MIN_POSITIVE),
        jobs_failed: stats.jobs_failed,
        worker_sift_passes: stats
            .workers
            .iter()
            .map(|w| w.manager.sift_passes)
            .collect(),
    }
}

/// The pool workload the CI bench-smoke measures: the elementarised
/// Grover instance under the basic (monolithic-operator) method — heavy
/// enough per job that compute dwarfs queue overhead, and cache-friendly
/// enough that a worker's warm repeats run several times cheaper than a
/// cold session — on a 4-worker pool and a 32-job batch.
pub const CI_POOL_CASE: (&str, u32, &str, usize, usize) = ("grover-elem", 9, "basic", 4, 32);

/// Formats a node count compactly (`1234567` → `"1.2M"`), table style.
pub fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{}k", n / 1000)
    } else if n >= 1000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Formats a duration as fractional seconds, Table I style.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// One subprocess measurement: wall-clock seconds, peak TDD node count,
/// the contraction-cache hit rate, and the live/allocated/reclaimed node
/// accounting of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseMeasurement {
    /// Wall-clock seconds of the image computation.
    pub secs: f64,
    /// Peak TDD node count ("max #node", live nodes per diagram).
    pub max_nodes: usize,
    /// Contraction-cache hit rate in `[0, 1]`.
    pub cont_hit_rate: f64,
    /// Nodes still live (reachable from input/output) at the end.
    pub live_nodes: usize,
    /// Arena slots allocated at the end (live plus uncollected garbage).
    pub allocated_nodes: usize,
    /// Nodes reclaimed by garbage collections during the run.
    pub reclaimed_nodes: u64,
}

/// Runs a single `(family, n, method)` case in a subprocess of the current
/// executable, so a case that exceeds `timeout` can be killed without
/// poisoning later measurements (the paper uses a 3600 s timeout the same
/// way). Returns `None` on timeout or subprocess failure.
///
/// The subprocess is invoked as `<exe> --one <family> <n> <method>` and
/// must print `<seconds> <max_nodes> <cont_hit_rate> <live> <allocated>
/// <reclaimed>` on success.
pub fn run_case_subprocess(
    family: &str,
    n: u32,
    method: &str,
    timeout: Duration,
) -> Option<CaseMeasurement> {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args(["--one", family, &n.to_string(), method])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let start = std::time::Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                if !status.success() {
                    return None;
                }
                break;
            }
            Ok(None) => {
                if start.elapsed() > timeout {
                    let _ = child.kill();
                    let _ = child.wait();
                    return None;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return None,
        }
    }
    let mut out = String::new();
    use std::io::Read;
    child.stdout.take()?.read_to_string(&mut out).ok()?;
    let mut it = out.split_whitespace();
    let secs: f64 = it.next()?.parse().ok()?;
    let max_nodes: usize = it.next()?.parse().ok()?;
    let cont_hit_rate: f64 = it.next()?.parse().ok()?;
    let live_nodes: usize = it.next()?.parse().ok()?;
    let allocated_nodes: usize = it.next()?.parse().ok()?;
    let reclaimed_nodes: u64 = it.next()?.parse().ok()?;
    Some(CaseMeasurement {
        secs,
        max_nodes,
        cont_hit_rate,
        live_nodes,
        allocated_nodes,
        reclaimed_nodes,
    })
}

/// The bench-smoke cases CI runs: one small paper instance per Table-I
/// method, plus the scenario-frontend families (schema v8). Small enough
/// to finish in seconds, real enough that a strategy regression (panic,
/// wrong dimension, runaway time) surfaces pre-merge.
/// The basic method only polls safepoints between Gram–Schmidt residuals
/// (and skips the final one), so its case needs an initial dimension > 1 —
/// Grover's is 2; the three new families all start from dimension <= n,
/// so they ride the addition/contraction methods.
pub const CI_CASES: [(&str, u32, &str); 6] = [
    ("grover", 4, "basic"),
    ("ghz", 5, "addition"),
    ("qrw", 4, "contraction"),
    ("adder", 3, "addition"),
    ("repcode", 5, "contraction"),
    ("cliffordt", 4, "addition"),
];

/// One row of the `BENCH_ci.json` perf artifact: the subprocess
/// measurement of a case (the 6-field protocol, exactly what Table I
/// reports) next to an in-process run under `GcPolicy::aggressive()`
/// whose safepoint counters prove the in-image collection machinery ran.
#[derive(Debug, Clone)]
pub struct CiRow {
    /// Benchmark family (`"ghz"`, `"grover"`, ...).
    pub family: String,
    /// Register size.
    pub n: u32,
    /// Table-I method name.
    pub method: String,
    /// The subprocess measurement (GC off beyond the default watermark).
    pub subprocess: CaseMeasurement,
    /// The in-process aggressive-GC measurement with safepoint counters.
    pub gc: ImageStats,
    /// The sifting-on-vs-off node-count A/B (see [`run_reorder_ab`]).
    pub reorder: ReorderMeasurement,
}

/// Unique-table health aggregated over the CI cases' aggressive-GC runs:
/// the `unique_table` row of `BENCH_ci.json` schema v4. Probe lengths
/// take the worst case across rows; churn counters and pause time sum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UniqueTableHealth {
    /// Worst median Robin Hood probe length across the CI cases.
    pub probe_p50: u32,
    /// Worst 99th-percentile probe length across the CI cases.
    pub probe_p99: u32,
    /// Stale index cells / allocated index cells at each case's end,
    /// summed — how much probe-run pollution the aggressive policy left
    /// behind (the rehash trigger bounds this below 0.75).
    pub tombstone_ratio: f64,
    /// Slot generations bumped by sweeps (one per reclaimed node).
    pub generation_bumps: u64,
    /// Unique-table hits on swept slots, detected by generation.
    pub stale_handle_hits: u64,
    /// Total milliseconds spent inside mark/sweep (GC pause time).
    pub gc_pause_ms: f64,
}

impl UniqueTableHealth {
    /// Aggregates the health row from the CI cases' aggressive-GC stats.
    pub fn from_rows(rows: &[CiRow]) -> UniqueTableHealth {
        let mut h = UniqueTableHealth::default();
        let mut tombstones = 0usize;
        let mut index_cells = 0usize;
        for r in rows {
            h.probe_p50 = h.probe_p50.max(r.gc.probe_p50);
            h.probe_p99 = h.probe_p99.max(r.gc.probe_p99);
            tombstones += r.gc.tombstones;
            index_cells += r.gc.index_cells;
            h.generation_bumps += r.gc.generation_bumps;
            h.stale_handle_hits += r.gc.stale_handle_hits;
            h.gc_pause_ms += r.gc.gc_nanos as f64 / 1e6;
        }
        h.tombstone_ratio = tombstones as f64 / index_cells.max(1) as f64;
        h
    }
}

/// The persistence measurement of one CI run — the `store` row of
/// `BENCH_ci.json` schema v7: how big a mid-fixpoint engine snapshot is,
/// what dumping and warm-starting it cost, whether the resumed fixpoint
/// converged, and whether a warm-started pool answered duplicate traffic
/// straight from the restored memo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreMeasurement {
    /// On-disk size of the engine snapshot (checkpointed mid-fixpoint).
    pub snapshot_bytes: u64,
    /// Milliseconds to dump the session and write the snapshot.
    pub dump_ms: f64,
    /// Milliseconds to read the snapshot back and warm-start a fresh
    /// session from it.
    pub load_ms: f64,
    /// Total fixpoint iterations of the resumed run (checkpointed window
    /// plus continuation) — must equal the uninterrupted run's count.
    pub resumed_iterations: usize,
    /// Whether the resumed fixpoint converged.
    pub resumed_converged: bool,
    /// `warm_hits / hits` of a pool warm-started from a memo spill and
    /// then asked the duplicate question — 1.0 when every hit was served
    /// by a snapshot-restored entry.
    pub warm_hit_rate: f64,
}

/// Measures [`StoreMeasurement`] for the CI store case: checkpoint a
/// QRW fixpoint after one iteration, warm-start a fresh session from the
/// file and finish it, then spill a pool's memo and prove a second,
/// warm-started pool answers the same job as a warm memo hit. Snapshot
/// files land under `dir` (CI passes `target/`).
///
/// # Panics
///
/// Panics when any persistence step fails — in the CI smoke that *is*
/// the regression signal.
pub fn run_store_measurement(dir: &Path) -> StoreMeasurement {
    std::fs::create_dir_all(dir).expect("creating the snapshot dir");
    let spec = EngineSpec::new(spec_for("qrw", 4)).strategy(strategy_for("contraction"));
    let path = dir.join("bench_store_engine.qsnap");

    // Checkpoint a partial fixpoint to disk, timed.
    let mut engine = spec.build().expect("store spec must form a valid system");
    let partial = engine
        .reachable_space(1)
        .expect("store fixpoint window must run");
    let start = Instant::now();
    engine
        .save_snapshot(&path, "bench-store", Some(&partial))
        .expect("snapshot must write");
    let dump_ms = start.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = std::fs::metadata(&path)
        .expect("snapshot must exist after writing")
        .len();

    // Warm-start a fresh session from the file, timed, and finish the
    // fixpoint from the restored space.
    let start = Instant::now();
    let mut fresh = spec.build().expect("store spec must form a valid system");
    let resumed = fresh
        .warm_start_from(&path)
        .expect("snapshot must load")
        .expect("snapshot carries a checkpoint");
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let finished = fresh
        .resume_reachable_space(&resumed, 50)
        .expect("resumed fixpoint must run");

    // Memo spill → warm-started pool → the duplicate job must be a warm
    // hit (answered without any fixpoint running in the new pool).
    let memo_path = dir.join("bench_store_memo.qsnap");
    let job = Job::reachability(50);
    let pool = EnginePool::builder(spec.clone())
        .workers(2)
        .memo_capacity(64)
        .build()
        .expect("store spec must form a valid system");
    pool.submit(job.clone())
        .join()
        .expect("store pool job must compute");
    pool.handle()
        .save_snapshot(&memo_path, "bench-store-memo")
        .expect("memo spill must write");
    pool.shutdown();
    let warmed = EnginePool::builder(spec)
        .workers(2)
        .warm_start(&memo_path)
        .expect("memo snapshot must load")
        .build()
        .expect("store spec must form a valid system");
    warmed
        .submit(job)
        .join()
        .expect("warm-started duplicate must resolve");
    let stats = warmed.shutdown();

    StoreMeasurement {
        snapshot_bytes,
        dump_ms,
        load_ms,
        resumed_iterations: finished.iterations,
        resumed_converged: finished.converged,
        warm_hit_rate: stats.memo.warm_hits as f64 / stats.memo.hits.max(1) as f64,
    }
}

// ----------------------------------------------------------------------
// The resumable-run checkpoint (`table1 --resume`).
// ----------------------------------------------------------------------

fn encode_case(w: &mut ByteWriter, c: &CaseMeasurement) {
    w.put_f64(c.secs);
    w.put_u64(c.max_nodes as u64);
    w.put_f64(c.cont_hit_rate);
    w.put_u64(c.live_nodes as u64);
    w.put_u64(c.allocated_nodes as u64);
    w.put_u64(c.reclaimed_nodes);
}

fn decode_case(r: &mut ByteReader<'_>) -> Result<CaseMeasurement, StoreError> {
    Ok(CaseMeasurement {
        secs: r.get_f64()?,
        max_nodes: r.get_u64()? as usize,
        cont_hit_rate: r.get_f64()?,
        live_nodes: r.get_u64()? as usize,
        allocated_nodes: r.get_u64()? as usize,
        reclaimed_nodes: r.get_u64()?,
    })
}

fn encode_reorder(w: &mut ByteWriter, m: &ReorderMeasurement) {
    w.put_u64(m.live_off as u64);
    w.put_u64(m.live_on as u64);
    w.put_u64(m.peak_off as u64);
    w.put_u64(m.peak_on as u64);
    w.put_u64(m.swaps);
    w.put_u64(m.sift_passes);
}

fn decode_reorder(r: &mut ByteReader<'_>) -> Result<ReorderMeasurement, StoreError> {
    Ok(ReorderMeasurement {
        live_off: r.get_u64()? as usize,
        live_on: r.get_u64()? as usize,
        peak_off: r.get_u64()? as usize,
        peak_on: r.get_u64()? as usize,
        swaps: r.get_u64()?,
        sift_passes: r.get_u64()?,
    })
}

/// Writes a `table1 --resume` checkpoint: the CI rows measured so far,
/// riding inside a [`Snapshot`] container so the file gets the store
/// format's magic, version, and checksum for free. `f64`s travel as raw
/// bits, so a resumed run's rows (and the `BENCH_ci.json` it finally
/// writes) are bit-identical to the interrupted run's measurements.
pub fn write_ci_checkpoint(path: &Path, rows: &[CiRow]) -> Result<(), StoreError> {
    let mut w = ByteWriter::new();
    w.put_u64(rows.len() as u64);
    for row in rows {
        w.put_str(&row.family);
        w.put_u32(row.n);
        w.put_str(&row.method);
        encode_case(&mut w, &row.subprocess);
        qits::store::encode_image_stats(&mut w, &row.gc);
        encode_reorder(&mut w, &row.reorder);
    }
    let mut snap = Snapshot::new("table1-checkpoint");
    snap.memo = vec![MemoEntry {
        key: rows.len() as u128,
        value: w.into_bytes(),
    }];
    snap.write_to(path)
}

/// Reads a `table1 --resume` checkpoint back. Corrupt, truncated, or
/// wrong-version files surface as typed [`StoreError`]s, never panics.
pub fn read_ci_checkpoint(path: &Path) -> Result<Vec<CiRow>, StoreError> {
    let snap = Snapshot::read_from(path)?;
    let entry = snap
        .memo
        .first()
        .ok_or_else(|| StoreError::Malformed("checkpoint carries no payload".to_string()))?;
    let mut r = ByteReader::new(&entry.value);
    let count = r.get_count(16)?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let family = r.get_str()?;
        let n = r.get_u32()?;
        let method = r.get_str()?;
        let subprocess = decode_case(&mut r)?;
        let gc = qits::store::decode_image_stats(&mut r)?;
        let reorder = decode_reorder(&mut r)?;
        rows.push(CiRow {
            family,
            n,
            method,
            subprocess,
            gc,
            reorder,
        });
    }
    if r.remaining() != 0 {
        return Err(StoreError::Malformed(format!(
            "{} trailing byte(s) after checkpoint rows",
            r.remaining()
        )));
    }
    Ok(rows)
}

/// Serialises the CI bench rows plus the pool throughput measurement as
/// `BENCH_ci.json` (hand-rolled — the workspace carries no serde).
/// Schema is versioned so downstream trajectory tooling can evolve it;
/// v3 added the `pool` object (workers, batch size, serial vs pool
/// seconds, speedup); v4 added the `unique_table` health row (Robin Hood
/// probe percentiles, tombstone ratio, generational churn, GC pause
/// time) now that collection recycles slots in place instead of
/// rebuilding the table; v5 adds the per-case `reorder` object (live and
/// peak node counts with sifting off vs forced at every collection, from
/// the position-major order — see [`run_reorder_ab`]) and the pool row's
/// `worker_sift_passes`; v6 adds the `serve` row (the async-front soak:
/// completion-latency percentiles over thousands of mixed-priority jobs
/// with deliberately cancelled and deadline-expired slices, plus the
/// result-memo hit accounting — see [`run_serve_soak`]); v7 adds the
/// `store` row (snapshot size, dump/load milliseconds, resumed-fixpoint
/// iteration count, and the warm-started pool's memo hit rate — see
/// [`run_store_measurement`]); v8 extends `cases` with the scenario
/// frontend's generator families (`adder`, `repcode`, `cliffordt` — see
/// [`CI_CASES`]), so the perf trajectory covers the workloads scenario
/// files drive; v9 drops the per-case name of the kernel the retired
/// shape selector would pick.
pub fn ci_report_json(
    rows: &[CiRow],
    pool: &PoolMeasurement,
    serve: &ServeMeasurement,
    store: &StoreMeasurement,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"qits-bench-ci/9\",\n");
    let ut = UniqueTableHealth::from_rows(rows);
    out.push_str(&format!(
        concat!(
            "  \"unique_table\": {{\"probe_p50\": {}, \"probe_p99\": {}, ",
            "\"tombstone_ratio\": {:.6}, \"generation_bumps\": {}, ",
            "\"stale_handle_hits\": {}, \"gc_pause_ms\": {:.3}}},\n",
        ),
        ut.probe_p50,
        ut.probe_p99,
        ut.tombstone_ratio,
        ut.generation_bumps,
        ut.stale_handle_hits,
        ut.gc_pause_ms,
    ));
    out.push_str(&format!(
        concat!(
            "  \"pool\": {{\"family\": \"{}\", \"n\": {}, \"method\": \"{}\", ",
            "\"workers\": {}, \"jobs\": {}, \"serial_secs\": {:.6}, ",
            "\"pool_secs\": {:.6}, \"speedup\": {:.3}, \"jobs_failed\": {}, ",
            "\"worker_sift_passes\": [{}]}},\n",
        ),
        pool.family,
        pool.n,
        pool.method,
        pool.workers,
        pool.jobs,
        pool.serial_secs,
        pool.pool_secs,
        pool.speedup,
        pool.jobs_failed,
        pool.worker_sift_passes
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str(&format!(
        concat!(
            "  \"serve\": {{\"workers\": {}, \"jobs\": {}, ",
            "\"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, ",
            "\"max_ms\": {:.3}, \"completed\": {}, \"failed\": {}, ",
            "\"cancelled\": {}, \"expired\": {}, \"lost\": {}, ",
            "\"memo_hits\": {}, \"memo_misses\": {}, \"memo_hit_rate\": {:.6}}},\n",
        ),
        serve.workers,
        serve.jobs,
        serve.p50_ms,
        serve.p95_ms,
        serve.p99_ms,
        serve.max_ms,
        serve.completed,
        serve.failed,
        serve.cancelled,
        serve.expired,
        serve.lost,
        serve.memo_hits,
        serve.memo_misses,
        serve.memo_hit_rate,
    ));
    out.push_str(&format!(
        concat!(
            "  \"store\": {{\"snapshot_bytes\": {}, \"dump_ms\": {:.3}, ",
            "\"load_ms\": {:.3}, \"resumed_iterations\": {}, ",
            "\"resumed_converged\": {}, \"warm_hit_rate\": {:.6}}},\n",
        ),
        store.snapshot_bytes,
        store.dump_ms,
        store.load_ms,
        store.resumed_iterations,
        store.resumed_converged,
        store.warm_hit_rate,
    ));
    out.push_str("  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sub = &r.subprocess;
        let gc = &r.gc;
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"family\": \"{}\", \"n\": {}, \"method\": \"{}\",\n",
                "      \"subprocess\": {{\"secs\": {:.6}, \"max_nodes\": {}, ",
                "\"cont_hit_rate\": {:.6}, \"live_nodes\": {}, ",
                "\"allocated_nodes\": {}, \"reclaimed_nodes\": {}}},\n",
                "      \"gc_aggressive\": {{\"secs\": {:.6}, \"max_nodes\": {}, ",
                "\"peak_arena\": {}, \"live_nodes\": {}, \"allocated_nodes\": {}, ",
                "\"reclaimed_nodes\": {}, \"safepoints\": {}, ",
                "\"safepoint_collections\": {}, \"safepoint_reclaimed\": {}}},\n",
                "      \"reorder\": {{\"order\": \"{}\", \"live_off\": {}, ",
                "\"live_on\": {}, \"peak_off\": {}, \"peak_on\": {}, ",
                "\"swaps\": {}, \"sift_passes\": {}}}\n",
                "    }}{}\n",
            ),
            r.family,
            r.n,
            r.method,
            sub.secs,
            sub.max_nodes,
            sub.cont_hit_rate,
            sub.live_nodes,
            sub.allocated_nodes,
            sub.reclaimed_nodes,
            gc.elapsed.as_secs_f64(),
            gc.max_nodes,
            gc.peak_arena,
            gc.live_nodes,
            gc.allocated_nodes,
            gc.reclaimed_nodes,
            gc.safepoints,
            gc.safepoint_collections,
            gc.safepoint_reclaimed,
            REORDER_AB_ORDER,
            r.reorder.live_off,
            r.reorder.live_on,
            r.reorder.peak_off,
            r.reorder.peak_on,
            r.reorder.swaps,
            r.reorder.sift_passes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Entry point for the `--one` subprocess mode shared by the table
/// binaries. Returns `true` if the arguments selected subprocess mode.
pub fn maybe_run_one(args: &[String]) -> bool {
    if args.len() == 5 && args[1] == "--one" {
        let family = &args[2];
        let n: u32 = args[3].parse().expect("size must be an integer");
        let stats = run_image(&spec_for(family, n), strategy_for(&args[4]));
        println!(
            "{} {} {:.6} {} {} {}",
            stats.elapsed.as_secs_f64(),
            stats.max_nodes,
            stats.cont_hit_rate(),
            stats.live_nodes,
            stats.allocated_nodes,
            stats.reclaimed_nodes,
        );
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the workspace `target/` (the repo's
    /// temp-file policy: never the system temp dir).
    fn test_dir(name: &str) -> std::path::PathBuf {
        let d = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/bench-tests")
            .join(name);
        std::fs::create_dir_all(&d).expect("creating the bench test scratch dir");
        d
    }

    #[test]
    fn ci_checkpoint_round_trips_bit_identically() {
        let gc = run_image_gc(
            &spec_for("ghz", 4),
            strategy_for("addition"),
            Some(GcPolicy::aggressive()),
        );
        let rows = vec![CiRow {
            family: "ghz".into(),
            n: 4,
            method: "addition".into(),
            subprocess: CaseMeasurement {
                secs: 0.123456789,
                max_nodes: 17,
                cont_hit_rate: 1.0 / 3.0,
                live_nodes: 5,
                allocated_nodes: 9,
                reclaimed_nodes: 2,
            },
            gc,
            reorder: ReorderMeasurement {
                live_off: 10,
                live_on: 8,
                peak_off: 20,
                peak_on: 16,
                swaps: 3,
                sift_passes: 1,
            },
        }];
        let path = test_dir("checkpoint").join("t1.ck");
        write_ci_checkpoint(&path, &rows).expect("checkpoint must write");
        let back = read_ci_checkpoint(&path).expect("checkpoint must read");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].family, rows[0].family);
        assert_eq!(back[0].subprocess, rows[0].subprocess);
        assert_eq!(back[0].gc, rows[0].gc);
        assert_eq!(back[0].reorder, rows[0].reorder);
        // Bit-identity is what makes a resumed BENCH row identical.
        assert_eq!(
            back[0].subprocess.secs.to_bits(),
            rows[0].subprocess.secs.to_bits()
        );

        // Corruption is a typed error, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        let bad = path.with_extension("ck.bad");
        std::fs::write(&bad, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read_ci_checkpoint(&bad).is_err());
    }

    #[test]
    fn spec_for_names_match_table() {
        assert_eq!(spec_for("grover", 5).name, "Grover5");
        assert_eq!(spec_for("qft", 8).name, "QFT8");
        assert_eq!(spec_for("bv", 10).name, "BV10");
        assert_eq!(spec_for("ghz", 12).name, "GHZ12");
        assert_eq!(spec_for("qrw", 6).name, "QRW6");
        assert_eq!(spec_for("adder", 3).name, "Adder3");
        assert_eq!(spec_for("repcode", 3).name, "RepCode3");
        assert_eq!(spec_for("cliffordt", 4).name, "CliffordT4");
    }

    #[test]
    fn all_methods_run_small_case() {
        for method in METHODS {
            let stats = run_image(&spec_for("ghz", 5), strategy_for(method));
            assert_eq!(stats.output_dim, 1, "{method}");
            assert!(stats.max_nodes > 0, "{method}");
        }
    }

    #[test]
    fn elementary_variants_compute_same_image_dim() {
        // The elementarised Grover acts on more wires but its image of the
        // (padded) invariant subspace has the same dimension.
        let base = run_image(&spec_for("grover", 4), strategy_for("contraction"));
        let elem = run_image(&spec_for("grover-elem", 4), strategy_for("contraction"));
        let ct = run_image(&spec_for("grover-ct", 4), strategy_for("contraction"));
        assert_eq!(base.output_dim, elem.output_dim);
        assert_eq!(base.output_dim, ct.output_dim);
    }

    #[test]
    #[should_panic(expected = "unknown method")]
    fn unknown_method_panics() {
        let _ = strategy_for("quantum-annealing");
    }

    #[test]
    fn fmt_secs_two_decimals() {
        assert_eq!(fmt_secs(Duration::from_millis(1234)), "1.23");
    }

    #[test]
    fn fmt_count_humanizes() {
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1234), "1.2k");
        assert_eq!(fmt_count(56_789), "56k");
        assert_eq!(fmt_count(1_234_567), "1.2M");
        assert_eq!(fmt_count(45_000_000), "45M");
    }

    #[test]
    fn ci_cases_run_and_serialise() {
        // The exact pipeline of the CI bench-smoke job, minus the
        // subprocess hop: every CI case must run, and the JSON must carry
        // the safepoint counters of the aggressive-GC run.
        let (family, n, method) = CI_CASES[2];
        let stats = run_image(&spec_for(family, n), strategy_for(method));
        let gc = run_image_gc(
            &spec_for(family, n),
            strategy_for(method),
            Some(GcPolicy::aggressive()),
        );
        assert_eq!(
            stats.output_dim, gc.output_dim,
            "GC must not change results"
        );
        assert!(gc.safepoints > 0);
        assert!(gc.safepoint_collections > 0);
        let reorder = run_reorder_ab(&spec_for(family, n), strategy_for(method));
        assert!(
            reorder.sift_passes > 0,
            "forcing sifting at every collection must sift: {reorder:?}"
        );
        assert!(reorder.swaps > 0);
        assert!(
            reorder.live_on <= reorder.live_off,
            "sifting must not end with more live nodes than the \
             position-major baseline: {reorder:?}"
        );
        let rows = vec![CiRow {
            family: family.into(),
            n,
            method: method.into(),
            subprocess: CaseMeasurement {
                secs: stats.elapsed.as_secs_f64(),
                max_nodes: stats.max_nodes,
                cont_hit_rate: stats.cont_hit_rate(),
                live_nodes: stats.live_nodes,
                allocated_nodes: stats.allocated_nodes,
                reclaimed_nodes: stats.reclaimed_nodes,
            },
            gc,
            reorder,
        }];
        // A tiny pool measurement keeps this test fast; the real CI case
        // is CI_POOL_CASE.
        let pool = run_pool_throughput("ghz", 4, "contraction", 2, 4);
        assert_eq!(pool.jobs_failed, 0);
        assert!(pool.serial_secs > 0.0 && pool.pool_secs > 0.0);
        // A miniature serve soak keeps this test fast; CI runs the full
        // 2000-job deck through the serve-soak job.
        let serve = run_serve_soak(SoakConfig {
            workers: 2,
            jobs: 100,
            memo_capacity: 256,
        });
        assert!(serve.sound(), "soak books must balance: {serve:?}");
        let store = run_store_measurement(&test_dir("ci-serialise"));
        assert!(store.snapshot_bytes > 0);
        assert!(store.resumed_converged, "resumed fixpoint must converge");
        assert!(
            store.warm_hit_rate > 0.0,
            "a warm-started pool must answer the duplicate from the \
             restored memo: {store:?}"
        );
        let json = ci_report_json(&rows, &pool, &serve, &store);
        assert!(json.contains("\"schema\": \"qits-bench-ci/9\""));
        assert!(json.contains("\"pool\": {\"family\": \"ghz\""));
        assert!(json.contains("\"serve\": {\"workers\": 2, \"jobs\": 100"));
        assert!(json.contains("\"store\": {\"snapshot_bytes\""));
        assert!(json.contains("\"warm_hit_rate\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"memo_hit_rate\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"worker_sift_passes\": ["));
        assert!(json.contains("\"reorder\": {\"order\": \"position-major\""));
        assert!(json.contains("\"live_off\""));
        assert!(json.contains("\"sift_passes\""));
        assert!(json.contains("\"unique_table\": {\"probe_p50\""));
        assert!(json.contains("\"tombstone_ratio\""));
        assert!(json.contains("\"gc_pause_ms\""));
        let health = UniqueTableHealth::from_rows(&rows);
        assert!(
            health.generation_bumps > 0,
            "an aggressive-GC run must bump generations: {health:?}"
        );
        assert!(health.tombstone_ratio <= 1.0);
        assert!(json.contains("\"safepoint_collections\""));
        assert!(json.contains(&format!("\"family\": \"{family}\"")));
        // Balanced braces: crude structural sanity for the hand-rolled JSON.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn reachability_with_gc_matches_without() {
        let spec = spec_for("qrw", 3);
        let strategy = Strategy::Contraction { k1: 2, k2: 2 };
        let (plain, e_plain) = run_reachability(&spec, strategy, 20, None);
        let (gc, e_gc) = run_reachability(&spec, strategy, 20, Some(GcPolicy::aggressive()));
        assert_eq!(plain.space.dim(), gc.space.dim());
        assert!(gc.reclaimed_nodes > 0);
        assert!(e_gc.manager().arena_len() < e_plain.manager().arena_len());
    }

    #[test]
    fn image_stats_report_node_accounting() {
        let stats = run_image(&spec_for("ghz", 5), strategy_for("contraction"));
        assert!(stats.live_nodes > 0);
        assert!(stats.allocated_nodes >= stats.live_nodes);
        assert!(
            stats.reclaimed_nodes > 0,
            "the end-of-run sweep must reclaim the run's garbage"
        );
    }
}
