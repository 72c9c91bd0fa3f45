//! Regenerates Table I of the paper: time and max TDD node count of the
//! three image-computation methods across the benchmark families.
//!
//! Usage:
//!   cargo run -p qits-bench --release --bin table1              # laptop sizes
//!   cargo run -p qits-bench --release --bin table1 -- --full    # paper sizes
//!   cargo run -p qits-bench --release --bin table1 -- --timeout 600
//!   cargo run -p qits-bench --release --bin table1 -- --ci      # CI bench smoke
//!
//! Each case runs in a subprocess so timeouts ('-' entries, as in the
//! paper) do not poison later rows. Sizes where only the contraction
//! partition is feasible (the paper's Grover40, QFT30+, QRW30+) are listed
//! with the other methods expected to time out.
//!
//! `--ci` runs the bench-smoke cases (one small paper instance per
//! method), exits non-zero if any subprocess panics, times out, or breaks
//! the 6-field measurement protocol, and writes the `BENCH_ci.json` perf
//! artifact CI uploads on every push.

use std::path::Path;
use std::time::Duration;

use qits_bench::{
    ci_report_json, fmt_count, fmt_secs, maybe_run_one, run_case_subprocess, run_image,
    run_pool_throughput, run_serve_soak, run_store_measurement, spec_for, strategy_for, CiRow,
    SoakConfig, CI_POOL_CASE, METHODS,
};

struct Row {
    family: &'static str,
    n: u32,
    /// Skip basic/addition entirely (known-infeasible paper rows) to keep
    /// default runs fast; they print '-'.
    contraction_only: bool,
}

fn default_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    // Elementary-gate Grover reproduces the paper's hardness profile
    // (the primitive-tensor variant is listed separately below).
    for n in [9, 11, 13] {
        rows.push(Row {
            family: "grover-elem",
            n,
            contraction_only: false,
        });
    }
    rows.push(Row {
        family: "grover-elem",
        n: 17,
        contraction_only: true,
    });
    for n in [9, 11, 13] {
        rows.push(Row {
            family: "grover",
            n,
            contraction_only: false,
        });
    }
    for n in [9, 11, 13] {
        rows.push(Row {
            family: "qft",
            n,
            contraction_only: false,
        });
    }
    for n in [30, 50] {
        rows.push(Row {
            family: "qft",
            n,
            contraction_only: true,
        });
    }
    for n in [50, 100] {
        rows.push(Row {
            family: "bv",
            n,
            contraction_only: false,
        });
    }
    for n in [50, 100] {
        rows.push(Row {
            family: "ghz",
            n,
            contraction_only: false,
        });
    }
    for n in [8, 10, 12] {
        rows.push(Row {
            family: "qrw-elem",
            n,
            contraction_only: false,
        });
    }
    for n in [8, 10, 12] {
        rows.push(Row {
            family: "qrw",
            n,
            contraction_only: false,
        });
    }
    rows.push(Row {
        family: "qrw",
        n: 16,
        contraction_only: true,
    });
    // The scenario-frontend families (`qits run` workloads): Draper
    // adders, distance-d repetition codes, and noisy random Clifford+T.
    for n in [6, 8, 10] {
        rows.push(Row {
            family: "adder",
            n,
            contraction_only: false,
        });
    }
    for n in [3, 5, 7] {
        rows.push(Row {
            family: "repcode",
            n,
            contraction_only: false,
        });
    }
    for n in [6, 8, 10] {
        rows.push(Row {
            family: "cliffordt",
            n,
            contraction_only: false,
        });
    }
    rows
}

fn full_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [15, 18, 20] {
        rows.push(Row {
            family: "grover-elem",
            n,
            contraction_only: false,
        });
    }
    rows.push(Row {
        family: "grover-elem",
        n: 40,
        contraction_only: true,
    });
    for n in [15, 18, 20] {
        rows.push(Row {
            family: "qft",
            n,
            contraction_only: false,
        });
    }
    for n in [30, 50, 100] {
        rows.push(Row {
            family: "qft",
            n,
            contraction_only: true,
        });
    }
    for n in [100, 200, 300, 400, 500] {
        rows.push(Row {
            family: "bv",
            n,
            contraction_only: false,
        });
    }
    for n in [100, 200, 300, 400, 500] {
        rows.push(Row {
            family: "ghz",
            n,
            contraction_only: false,
        });
    }
    for n in [15, 18, 20] {
        rows.push(Row {
            family: "qrw-elem",
            n,
            contraction_only: false,
        });
    }
    for n in [30, 50, 100] {
        rows.push(Row {
            family: "qrw",
            n,
            contraction_only: true,
        });
    }
    for n in [12, 16, 20] {
        rows.push(Row {
            family: "adder",
            n,
            contraction_only: false,
        });
    }
    // A distance-d repetition code declares 2^(d-1) syndrome branches, so
    // d stays modest even in the full table.
    for n in [8, 9, 10] {
        rows.push(Row {
            family: "repcode",
            n,
            contraction_only: false,
        });
    }
    for n in [12, 14, 16] {
        rows.push(Row {
            family: "cliffordt",
            n,
            contraction_only: false,
        });
    }
    rows
}

/// The measured-case summary line.
fn case_summary(row: &CiRow) -> String {
    format!(
        "ci:   ok  {:.3}s  max#node {}  live/alloc {}/{}  \
         safepoints {}  collection reclaimed {} nodes",
        row.subprocess.secs,
        row.subprocess.max_nodes,
        row.subprocess.live_nodes,
        row.subprocess.allocated_nodes,
        row.run.stats.safepoints,
        row.run.gc.reclaimed,
    )
}

/// The CI bench-smoke mode: one small paper instance per method, each
/// measured through the subprocess protocol (so the protocol itself is
/// under test) and once more in-process, a default engine's image plus
/// the collection after it, for the poll counter and the unique-table
/// health row. Returns the process exit code.
fn run_ci_smoke(timeout: Duration) -> i32 {
    let mut rows: Vec<CiRow> = Vec::new();
    for &(family, n, method) in qits_bench::CI_CASES.iter() {
        println!(
            "ci: {family}{n} / {method} (timeout {}s)",
            timeout.as_secs()
        );
        let Some(case) = run_case_subprocess(family, n, method, timeout) else {
            eprintln!(
                "ci: FAIL {family}{n}/{method}: subprocess panicked, timed out, \
                 or broke the 6-field measurement protocol"
            );
            return 1;
        };
        let run = run_image(&spec_for(family, n), strategy_for(method));
        if run.stats.safepoints == 0 {
            // Every serial strategy polls at least one per-state
            // cancellation safepoint; a zero counter means the kernel's
            // poll wiring regressed.
            eprintln!("ci: FAIL {family}{n}/{method}: no safepoint polled");
            return 1;
        }
        let row = CiRow {
            family: family.into(),
            n,
            method: method.into(),
            subprocess: case,
            run,
        };
        println!("{}", case_summary(&row));
        rows.push(row);
    }
    // The pool throughput row (schema v3): a batch of independent image
    // jobs through the EnginePool vs one fresh serial engine per job.
    // Hard-fail on any failed job (a correctness regression); the speedup
    // itself is recorded as a tracked perf number, not gated, because CI
    // runner core counts vary.
    // The unique-table health row (schema v4): Robin Hood probe
    // percentiles of the images, and the tombstone ratio, churn and GC
    // pause time each manager reports after its post-image collection.
    let health = qits_bench::UniqueTableHealth::from_rows(&rows);
    println!(
        "ci: unique_table probe p50/p99 {}/{}  tombstone ratio {:.3}  \
         gen bumps {}  gc pause {:.2}ms",
        health.probe_p50,
        health.probe_p99,
        health.tombstone_ratio,
        health.generation_bumps,
        health.gc_pause_ms,
    );
    let (family, n, method, workers, jobs) = CI_POOL_CASE;
    println!("ci: pool {family}{n} / {method} ({workers} workers, {jobs} jobs)");
    let pool = run_pool_throughput(family, n, method, workers, jobs);
    if pool.jobs_failed > 0 {
        eprintln!(
            "ci: FAIL pool run failed {} of {} jobs",
            pool.jobs_failed, pool.jobs
        );
        return 1;
    }
    println!(
        "ci:   ok  serial {:.3}s  pool {:.3}s  speedup {:.2}x",
        pool.serial_secs, pool.pool_secs, pool.speedup
    );
    if pool.speedup < 2.0 {
        eprintln!(
            "ci: WARN pool speedup {:.2}x below the 2x floor on this runner",
            pool.speedup
        );
    }
    // The serve soak (schema v6): the full CI deck — 2000 mixed-priority
    // jobs with deliberately cancelled and deadline-expired slices —
    // through the async front. Accounting soundness hard-fails here;
    // the tail-latency ceiling is gated by `bench_check` against the
    // JSON this run writes.
    let soak = SoakConfig::default();
    println!(
        "ci: serve soak ({} jobs, {} workers, memo {})",
        soak.jobs, soak.workers, soak.memo_capacity
    );
    let serve = run_serve_soak(soak);
    if !serve.sound() || serve.cancelled == 0 || serve.expired == 0 {
        eprintln!(
            "ci: FAIL serve soak books do not balance: {} ok, {} cancelled, \
             {} expired, {} failed, {} lost of {} (memo hit rate {:.4})",
            serve.completed,
            serve.cancelled,
            serve.expired,
            serve.failed,
            serve.lost,
            serve.jobs,
            serve.memo_hit_rate,
        );
        return 1;
    }
    println!(
        "ci:   ok  p50/p95/p99/max {:.3}/{:.3}/{:.3}/{:.3} ms  \
         ({} ok, {} cancelled, {} expired; memo {:.1}% hits)",
        serve.p50_ms,
        serve.p95_ms,
        serve.p99_ms,
        serve.max_ms,
        serve.completed,
        serve.cancelled,
        serve.expired,
        100.0 * serve.memo_hit_rate,
    );
    // The store row (schema v7): snapshot a mid-fixpoint session, warm-
    // start a fresh one from the file and finish it, then prove a pool
    // warm-started from a memo spill answers the duplicate job as a warm
    // hit. Non-convergence or a cold duplicate is a persistence
    // regression, so both hard-fail.
    println!("ci: store (snapshot round trip + warm-started pool)");
    let store = run_store_measurement(Path::new("target/bench-store"));
    if !store.resumed_converged || store.warm_hit_rate <= 0.0 {
        eprintln!(
            "ci: FAIL store round trip: converged={}, warm hit rate {:.3}",
            store.resumed_converged, store.warm_hit_rate
        );
        return 1;
    }
    println!(
        "ci:   ok  snapshot {} bytes  dump {:.2}ms  load {:.2}ms  \
         resumed fixpoint {} iterations  warm hit rate {:.2}",
        store.snapshot_bytes,
        store.dump_ms,
        store.load_ms,
        store.resumed_iterations,
        store.warm_hit_rate,
    );
    let json = ci_report_json(&rows, &pool, &serve, &store);
    if let Err(e) = std::fs::write("BENCH_ci.json", &json) {
        eprintln!("ci: FAIL cannot write BENCH_ci.json: {e}");
        return 1;
    }
    println!(
        "ci: wrote BENCH_ci.json ({} cases + pool + serve + store)",
        rows.len()
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if maybe_run_one(&args) {
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let timeout_secs: u64 = args
        .iter()
        .position(|a| a == "--timeout")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if full { 3600 } else { 120 });
    let timeout = Duration::from_secs(timeout_secs);
    if args.iter().any(|a| a == "--ci") {
        std::process::exit(run_ci_smoke(timeout));
    }
    let rows = if full { full_rows() } else { default_rows() };

    println!(
        "Table I reproduction ({} sizes, timeout {}s; '-' = timeout, as in the paper)",
        if full { "paper" } else { "laptop" },
        timeout_secs
    );
    println!("cache% = contraction-cache hit rate of the run (see ImageStats)");
    println!(
        "live/alloc/recl = live vs allocated arena nodes at the end, and nodes \
         reclaimed by the collection after the image"
    );
    println!(
        "{:<12} | {:>9} {:>10} {:>7} {:>15} | {:>9} {:>10} {:>7} {:>15} | {:>9} {:>10} {:>7} {:>15}",
        "Benchmark",
        "basic",
        "max#node",
        "cache%",
        "live/alloc/recl",
        "addition",
        "max#node",
        "cache%",
        "live/alloc/recl",
        "contract",
        "max#node",
        "cache%",
        "live/alloc/recl",
    );
    println!("{}", "-".repeat(12 + 3 * 48));

    for row in rows {
        let mut cells = Vec::new();
        for method in METHODS {
            let skip = row.contraction_only && method != "contraction";
            let result = if skip {
                None
            } else {
                run_case_subprocess(row.family, row.n, method, timeout)
            };
            match result {
                Some(case) => {
                    cells.push(format!(
                        "{:>9} {:>10} {:>6.1}% {:>15}",
                        fmt_secs(Duration::from_secs_f64(case.secs)),
                        case.max_nodes,
                        100.0 * case.cont_hit_rate,
                        format!(
                            "{}/{}/{}",
                            fmt_count(case.live_nodes as u64),
                            fmt_count(case.allocated_nodes as u64),
                            fmt_count(case.reclaimed_nodes),
                        ),
                    ));
                }
                None => cells.push(format!("{:>9} {:>10} {:>7} {:>15}", "-", "-", "-", "-")),
            }
        }
        let name = format!(
            "{}{}",
            match row.family {
                "grover" => "Grover",
                "grover-elem" => "GroverE",
                "qft" => "QFT",
                "bv" => "BV",
                "ghz" => "GHZ",
                "qrw" => "QRW",
                "qrw-elem" => "QRWE",
                "adder" => "Adder",
                "repcode" => "RepCode",
                "cliffordt" => "CliffordT",
                other => other,
            },
            row.n
        );
        println!("{:<12} | {} | {} | {}", name, cells[0], cells[1], cells[2]);
    }
}
