//! `bench_check` — the perf regression guard over a fresh `BENCH_ci.json`.
//!
//! Parses the artifact the `table1 --ci` run just wrote (schema v12) and
//! hard-fails CI when a tracked perf number crosses its committed floor:
//!
//! * `pool.speedup` < 2.0 — the pool must beat fresh-serial-per-job by
//!   at least 2x on the CI case, or the serving layer regressed;
//! * `serve.p99_ms` > [`P99_CEILING_MS`] — the soak's tail latency gate;
//! * `serve.failed` / `serve.lost` non-zero — correctness, not perf;
//! * `store.warm_hit_rate` ≤ 0 or `store.resumed_converged` false — a
//!   warm-started pool recomputing duplicates, or a resumed fixpoint
//!   failing to finish, means the persistence layer regressed;
//! * `store.snapshot_bytes` = 0 — an empty snapshot recorded nothing;
//! * `cases` missing any scenario-frontend family (`adder`, `repcode`,
//!   `cliffordt`) — the perf trajectory must keep covering the workloads
//!   scenario files drive.
//!
//! Usage: `bench_check [path/to/BENCH_ci.json]` (default `BENCH_ci.json`).

use qits::serve::proto::{parse_json, JsonValue};

/// The committed p99 ceiling for the 2000-job CI soak, in milliseconds.
///
/// The soak's completion latency includes queue wait, so the tail scales
/// with the whole backlog: locally (release, 4 workers) the deck drains
/// with p99 under ~150 ms; CI's 2-core runners are several times slower
/// and noisier. 2000 ms holds an order-of-magnitude cushion over the
/// local figure while still catching a genuine tail collapse (a lost
/// wakeup, a starved lane, a memo regression serially recomputing the
/// deck) which pushes p99 toward the full-drain time.
const P99_CEILING_MS: f64 = 2000.0;

/// The committed pool-speedup floor for the CI pool case.
const SPEEDUP_FLOOR: f64 = 2.0;

fn fail(msg: &str) -> ! {
    eprintln!("bench_check: FAIL — {msg}");
    std::process::exit(1);
}

fn number(v: &JsonValue, section: &str, key: &str) -> f64 {
    v.get(section)
        .and_then(|s| s.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| fail(&format!("missing numeric field {section}.{key}")))
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ci.json".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let v = parse_json(&text).unwrap_or_else(|e| fail(&format!("{path} is not JSON: {e}")));

    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| fail("missing \"schema\""));
    if schema != "qits-bench-ci/12" {
        fail(&format!(
            "schema is '{schema}', expected 'qits-bench-ci/12' — regenerate \
             the artifact with `table1 --ci`"
        ));
    }

    let cases = v
        .get("cases")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| fail("missing \"cases\" array"));
    for family in ["adder", "repcode", "cliffordt"] {
        let covered = cases
            .iter()
            .any(|case| case.get("family").and_then(JsonValue::as_str) == Some(family));
        if !covered {
            fail(&format!(
                "no '{family}' row in cases — the scenario-frontend \
                 families must stay on the perf trajectory"
            ));
        }
    }

    let speedup = number(&v, "pool", "speedup");
    let p99 = number(&v, "serve", "p99_ms");
    let failed = number(&v, "serve", "failed");
    let lost = number(&v, "serve", "lost");
    let hit_rate = number(&v, "serve", "memo_hit_rate");
    let snapshot_bytes = number(&v, "store", "snapshot_bytes");
    let warm_hit_rate = number(&v, "store", "warm_hit_rate");
    let resumed_converged = v
        .get("store")
        .and_then(|s| s.get("resumed_converged"))
        .and_then(JsonValue::as_bool)
        .unwrap_or_else(|| fail("missing boolean field store.resumed_converged"));

    println!(
        "bench_check: pool speedup {speedup:.2}x (floor {SPEEDUP_FLOOR:.1}x), \
         serve p99 {p99:.1}ms (ceiling {P99_CEILING_MS:.0}ms), \
         memo hit rate {:.1}%, snapshot {snapshot_bytes:.0} bytes \
         (warm hit rate {:.1}%)",
        100.0 * hit_rate,
        100.0 * warm_hit_rate,
    );

    if failed > 0.0 || lost > 0.0 {
        fail(&format!(
            "the soak lost or failed jobs (failed={failed}, lost={lost})"
        ));
    }
    if hit_rate <= 0.0 {
        fail("the result memo served no hits — duplicate traffic is being recomputed");
    }
    if speedup < SPEEDUP_FLOOR {
        fail(&format!(
            "pool speedup {speedup:.2}x is below the {SPEEDUP_FLOOR:.1}x floor"
        ));
    }
    if p99 > P99_CEILING_MS {
        fail(&format!(
            "serve p99 {p99:.1}ms exceeds the {P99_CEILING_MS:.0}ms ceiling"
        ));
    }
    if snapshot_bytes <= 0.0 {
        fail("the store snapshot is empty — persistence recorded nothing");
    }
    if !resumed_converged {
        fail("the resumed fixpoint did not converge");
    }
    if warm_hit_rate <= 0.0 {
        fail("the warm-started pool served no warm memo hits — duplicates were recomputed");
    }
    println!("bench_check: ok");
}
