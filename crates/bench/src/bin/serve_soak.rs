//! `serve_soak` — CI's soak gate for the async serving front.
//!
//! Fires thousands of mixed-priority jobs (with deliberately cancelled
//! and deadline-expired slices) through a [`qits::ServiceHandle`] and
//! audits the books: **every** job must resolve exactly once, nothing
//! may genuinely fail, and the result memo must demonstrably serve
//! duplicate traffic. Exits 1 on any lost, duplicated, or failed result,
//! on a shed slice that did not land, or on a p99 completion latency
//! above [`P99_CEILING_MS`].
//!
//! Usage:
//!   cargo run --release -p qits-bench --bin serve_soak
//!   cargo run --release -p qits-bench --bin serve_soak -- --jobs 5000 --workers 8

use qits_bench::{run_serve_soak, SoakConfig};

/// The p99 completion-latency ceiling of the soak, in milliseconds.
///
/// Completion latency includes queue wait, so the tail scales with the
/// whole backlog: on a 2-vCPU box (release, 4 workers) the 2,000-job deck
/// drains with p99 under a millisecond, and shared CI runners are several
/// times slower and noisier. 2,000 ms keeps a wide cushion over that
/// while still catching a genuine tail collapse (a lost wakeup, a starved
/// lane, a memo regression serially recomputing the deck), which pushes
/// p99 toward the full-drain time.
const P99_CEILING_MS: f64 = 2000.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let defaults = SoakConfig::default();
    let config = SoakConfig {
        workers: flag("--workers", defaults.workers),
        jobs: flag("--jobs", defaults.jobs),
        memo_capacity: flag("--memo", defaults.memo_capacity),
    };
    println!(
        "soak: {} jobs over {} workers (memo capacity {})",
        config.jobs, config.workers, config.memo_capacity
    );
    let m = run_serve_soak(config);
    println!(
        "soak: latency p50/p95/p99/max  {:.3}/{:.3}/{:.3}/{:.3} ms",
        m.p50_ms, m.p95_ms, m.p99_ms, m.max_ms
    );
    println!(
        "soak: outcomes  {} ok, {} cancelled, {} expired, {} failed, {} lost",
        m.completed, m.cancelled, m.expired, m.failed, m.lost
    );
    println!(
        "soak: memo  {} hits / {} misses (hit rate {:.1}%)",
        m.memo_hits,
        m.memo_misses,
        100.0 * m.memo_hit_rate
    );
    if !m.sound() {
        eprintln!(
            "soak: FAIL — lost={} failed={} accounted={}/{} memo_hit_rate={:.4}",
            m.lost,
            m.failed,
            m.completed + m.failed + m.cancelled + m.expired,
            m.jobs,
            m.memo_hit_rate,
        );
        std::process::exit(1);
    }
    if m.cancelled == 0 || m.expired == 0 {
        eprintln!(
            "soak: FAIL — the deliberate shed slices must land \
             (cancelled={}, expired={})",
            m.cancelled, m.expired
        );
        std::process::exit(1);
    }
    if m.p99_ms > P99_CEILING_MS {
        eprintln!(
            "soak: FAIL — p99 latency {:.3} ms is above the {P99_CEILING_MS} ms ceiling",
            m.p99_ms
        );
        std::process::exit(1);
    }
    println!("soak: ok");
}
