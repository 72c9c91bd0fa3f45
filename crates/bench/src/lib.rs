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

use qits::{Engine, EngineBuilder, EnginePool, EngineSpec, ImageStats, Job, Strategy, Subspace};
use qits_circuit::generators::{self, QtsSpec};
use qits_tdd::{GcOutcome, ManagerStats};

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

/// One measured image and the collection after it (see [`run_image`]).
#[derive(Debug, Clone, Copy)]
pub struct ImageRun {
    /// The image computation's stats, taken before the collection.
    pub stats: ImageStats,
    /// The post-image collection: its reclaim count is what the `recl`
    /// table column reports.
    pub gc: GcOutcome,
    /// The session manager's counters after that collection.
    pub manager: ManagerStats,
}

/// One measured image computation: builds a fresh default engine session,
/// runs the image of the spec's initial subspace, and finishes with the
/// collection a caller would run here, holding only the image.
///
/// `live_nodes`/`allocated_nodes`/`elapsed` are snapshotted by the image
/// kernel *before* that collection, so the timing and node columns
/// describe the uncollected run and `gc.reclaimed` the garbage it left
/// behind.
pub fn run_image(spec: &QtsSpec, strategy: Strategy) -> ImageRun {
    let mut engine = EngineBuilder::new()
        .strategy(strategy)
        .build_from_spec(spec)
        .expect("benchmark spec must form a valid system");
    let (img, stats) = engine.image().expect("benchmark image must compute");
    let gc = engine.collect(&[&img]);
    ImageRun {
        stats,
        gc,
        manager: engine.manager().stats(),
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
    let spec = EngineSpec::new(spec_for(family, n)).strategy(strategy_for(method));

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
    /// Nodes reclaimed by the collection after the image.
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
/// The basic method only polls for cancellation between Gram–Schmidt
/// residuals (and skips the final one), so its case needs an initial
/// dimension > 1 — Grover's is 2; the three new families all start from
/// dimension <= n, so they ride the addition/contraction methods.
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
/// reports) next to the same image run in-process, whose poll counter
/// proves the kernel's cancellation polls ran and whose post-image
/// collection feeds the unique-table health row.
#[derive(Debug, Clone)]
pub struct CiRow {
    /// Benchmark family (`"ghz"`, `"grover"`, ...).
    pub family: String,
    /// Register size.
    pub n: u32,
    /// Table-I method name.
    pub method: String,
    /// The subprocess measurement.
    pub subprocess: CaseMeasurement,
    /// The in-process image and the collection after it.
    pub run: ImageRun,
}

/// Unique-table health aggregated over the CI cases' in-process runs:
/// the `unique_table` row of `BENCH_ci.json` schema v4. Probe lengths
/// take the worst case across the images; the tombstone ratio, churn
/// counters and pause time are read off each manager after its post-image
/// collection and summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UniqueTableHealth {
    /// Worst median Robin Hood probe length across the CI cases.
    pub probe_p50: u32,
    /// Worst 99th-percentile probe length across the CI cases.
    pub probe_p99: u32,
    /// Stale index cells / allocated index cells after each case's
    /// collection, summed — how much probe-run pollution the sweep left
    /// behind (the rehash trigger bounds this below 0.75).
    pub tombstone_ratio: f64,
    /// Slot generations bumped by sweeps (one per reclaimed node).
    pub generation_bumps: u64,
    /// Total milliseconds spent inside mark/sweep (GC pause time).
    pub gc_pause_ms: f64,
}

impl UniqueTableHealth {
    /// Aggregates the health row from the CI cases' in-process runs.
    pub fn from_rows(rows: &[CiRow]) -> UniqueTableHealth {
        let mut h = UniqueTableHealth::default();
        let mut tombstones = 0usize;
        let mut index_cells = 0usize;
        for r in rows {
            let (image, m) = (&r.run.stats, &r.run.manager);
            h.probe_p50 = h.probe_p50.max(image.probe_p50);
            h.probe_p99 = h.probe_p99.max(image.probe_p99);
            tombstones += m.tombstones;
            index_cells += m.index_cells;
            h.generation_bumps += m.generation_bumps;
            h.gc_pause_ms += m.gc_nanos as f64 / 1e6;
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

/// Serialises the CI bench rows plus the pool throughput measurement as
/// `BENCH_ci.json` (hand-rolled — the workspace carries no serde).
/// Schema is versioned so downstream trajectory tooling can evolve it;
/// v3 added the `pool` object (workers, batch size, serial vs pool
/// seconds, speedup); v4 added the `unique_table` health row (Robin Hood
/// probe percentiles, tombstone ratio, generational churn, GC pause
/// time) now that collection recycles slots in place instead of
/// rebuilding the table; v5 added the per-case `reorder` object (the
/// sifting A/B) and the pool row's `worker_sift_passes`; v6 adds the
/// `serve` row (the async-front soak:
/// completion-latency percentiles over thousands of mixed-priority jobs
/// with deliberately cancelled and deadline-expired slices, plus the
/// result-memo hit accounting — see [`run_serve_soak`]); v7 adds the
/// `store` row (snapshot size, dump/load milliseconds, resumed-fixpoint
/// iteration count, and the warm-started pool's memo hit rate — see
/// [`run_store_measurement`]); v8 extends `cases` with the scenario
/// frontend's generator families (`adder`, `repcode`, `cliffordt` — see
/// [`CI_CASES`]), so the perf trajectory covers the workloads scenario
/// files drive; v9 drops the per-case name of the kernel the retired
/// shape selector would pick; v10 drops v5's `reorder` object and
/// `worker_sift_passes` with the variable reordering they measured; v11
/// replaces each case's `gc_aggressive` object with `in_process`, a
/// default engine's image plus the collection after it; v12 drops the
/// `unique_table` row's count of stale cache entries rejected after a
/// collection, since a collection now clears the operation caches.
pub fn ci_report_json(
    rows: &[CiRow],
    pool: &PoolMeasurement,
    serve: &ServeMeasurement,
    store: &StoreMeasurement,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"qits-bench-ci/12\",\n");
    let ut = UniqueTableHealth::from_rows(rows);
    out.push_str(&format!(
        concat!(
            "  \"unique_table\": {{\"probe_p50\": {}, \"probe_p99\": {}, ",
            "\"tombstone_ratio\": {:.6}, \"generation_bumps\": {}, ",
            "\"gc_pause_ms\": {:.3}}},\n",
        ),
        ut.probe_p50, ut.probe_p99, ut.tombstone_ratio, ut.generation_bumps, ut.gc_pause_ms,
    ));
    out.push_str(&format!(
        concat!(
            "  \"pool\": {{\"family\": \"{}\", \"n\": {}, \"method\": \"{}\", ",
            "\"workers\": {}, \"jobs\": {}, \"serial_secs\": {:.6}, ",
            "\"pool_secs\": {:.6}, \"speedup\": {:.3}, \"jobs_failed\": {}}},\n",
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
        let image = &r.run.stats;
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"family\": \"{}\", \"n\": {}, \"method\": \"{}\",\n",
                "      \"subprocess\": {{\"secs\": {:.6}, \"max_nodes\": {}, ",
                "\"cont_hit_rate\": {:.6}, \"live_nodes\": {}, ",
                "\"allocated_nodes\": {}, \"reclaimed_nodes\": {}}},\n",
                "      \"in_process\": {{\"secs\": {:.6}, \"max_nodes\": {}, ",
                "\"peak_arena\": {}, \"live_nodes\": {}, \"allocated_nodes\": {}, ",
                "\"reclaimed_nodes\": {}, \"safepoints\": {}}}\n",
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
            image.elapsed.as_secs_f64(),
            image.max_nodes,
            image.peak_arena,
            image.live_nodes,
            image.allocated_nodes,
            r.run.gc.reclaimed,
            image.safepoints,
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
        let run = run_image(&spec_for(family, n), strategy_for(&args[4]));
        let stats = run.stats;
        println!(
            "{} {} {:.6} {} {} {}",
            stats.elapsed.as_secs_f64(),
            stats.max_nodes,
            stats.cont_hit_rate(),
            stats.live_nodes,
            stats.allocated_nodes,
            run.gc.reclaimed,
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
            let stats = run_image(&spec_for("ghz", 5), strategy_for(method)).stats;
            assert_eq!(stats.output_dim, 1, "{method}");
            assert!(stats.max_nodes > 0, "{method}");
        }
    }

    #[test]
    fn elementary_variants_compute_same_image_dim() {
        // The elementarised Grover acts on more wires but its image of the
        // (padded) invariant subspace has the same dimension.
        let dim = |family| {
            run_image(&spec_for(family, 4), strategy_for("contraction"))
                .stats
                .output_dim
        };
        assert_eq!(dim("grover"), dim("grover-elem"));
        assert_eq!(dim("grover"), dim("grover-ct"));
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
        // the poll counter of the in-process run.
        let (family, n, method) = CI_CASES[2];
        let run = run_image(&spec_for(family, n), strategy_for(method));
        let stats = run.stats;
        assert!(stats.safepoints > 0);
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
                reclaimed_nodes: run.gc.reclaimed as u64,
            },
            run,
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
        assert!(json.contains("\"schema\": \"qits-bench-ci/12\""));
        assert!(json.contains("\"pool\": {\"family\": \"ghz\""));
        assert!(json.contains("\"serve\": {\"workers\": 2, \"jobs\": 100"));
        assert!(json.contains("\"store\": {\"snapshot_bytes\""));
        assert!(json.contains("\"warm_hit_rate\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"memo_hit_rate\""));
        assert!(json.contains("\"speedup\""));
        assert!(!json.contains("reorder") && !json.contains("sift"));
        assert!(json.contains("\"unique_table\": {\"probe_p50\""));
        assert!(json.contains("\"tombstone_ratio\""));
        assert!(json.contains("\"gc_pause_ms\""));
        let health = UniqueTableHealth::from_rows(&rows);
        assert!(
            health.generation_bumps > 0,
            "the post-image collection must bump generations: {health:?}"
        );
        assert!(health.tombstone_ratio <= 1.0);
        assert!(json.contains("\"in_process\": {\"secs\""));
        assert!(!json.contains("gc_aggressive"));
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
        // The fixpoint in one call, and stepped one iteration at a time
        // with a collection between the steps.
        let spec = spec_for("qrw", 3);
        let strategy = Strategy::Contraction { k1: 2, k2: 2 };
        let build = || {
            EngineBuilder::new()
                .strategy(strategy)
                .build_from_spec(&spec)
                .unwrap()
        };
        let mut e_plain = build();
        let plain = e_plain.reachable_space(20).unwrap();
        let mut e_gc = build();
        let mut reclaimed = 0;
        let gc = (1..=20)
            .map(|bound| {
                let r = e_gc.reachable_space(bound).unwrap();
                reclaimed += e_gc.collect(&[]).reclaimed;
                r
            })
            .find(|r| r.converged)
            .expect("the walk converges within 20 iterations");
        assert_eq!(plain.space.dim(), gc.space.dim());
        assert_eq!(plain.iterations, gc.iterations);
        assert!(reclaimed > 0);
        assert!(e_gc.manager().arena_len() < e_plain.manager().arena_len());
    }

    #[test]
    fn image_stats_report_node_accounting() {
        let run = run_image(&spec_for("ghz", 5), strategy_for("contraction"));
        assert!(run.stats.live_nodes > 0);
        assert!(run.stats.allocated_nodes >= run.stats.live_nodes);
        assert!(
            run.gc.reclaimed > 0,
            "the post-image collection must reclaim the run's garbage"
        );
        assert_eq!(run.manager.gc_runs, 1);
    }
}
