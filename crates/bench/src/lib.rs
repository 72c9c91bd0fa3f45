//! Shared harness for regenerating the paper's tables.
//!
//! The binaries `table1` and `table2` print the same rows the paper
//! reports (time in seconds, max TDD node count), and `serve_soak` drives
//! the serving front through thousands of mixed jobs. The Criterion
//! benches in `benches/` time what neither the tables nor perfbench time:
//! the TDD primitives (`tdd_ops`) and the cost of lowering the primitive
//! multi-controlled gates to elementary ones (`ablation`). Absolute
//! numbers differ from the paper's Xeon server — the *shape* (method
//! ordering, node-count growth) is the reproduction target.

pub mod soak;

pub use soak::{run_serve_soak, ServeMeasurement, SoakConfig};

use std::time::Duration;

use qits::{EngineBuilder, ImageStats, Strategy};
use qits_circuit::generators::{self, QtsSpec};
use qits_tdd::{GcOutcome, ManagerStats};

/// The method names used by the harness CLI, in Table I column order;
/// each parses to the [`Strategy`] with the paper's parameters (`k = 1`
/// for addition, `k1 = k2 = 4` for contraction).
pub const METHODS: [&str; 3] = ["basic", "addition", "contraction"];

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

impl CaseMeasurement {
    /// Parses the line `--one` prints: `<seconds> <max_nodes>
    /// <cont_hit_rate> <live> <allocated> <reclaimed>`. `None` if a field
    /// is missing or does not parse.
    pub fn parse(line: &str) -> Option<CaseMeasurement> {
        let mut it = line.split_whitespace();
        Some(CaseMeasurement {
            secs: it.next()?.parse().ok()?,
            max_nodes: it.next()?.parse().ok()?,
            cont_hit_rate: it.next()?.parse().ok()?,
            live_nodes: it.next()?.parse().ok()?,
            allocated_nodes: it.next()?.parse().ok()?,
            reclaimed_nodes: it.next()?.parse().ok()?,
        })
    }
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
    CaseMeasurement::parse(&out)
}

/// Entry point for the `table1 --one` subprocess mode that
/// [`run_case_subprocess`] spawns. Returns `true` if the arguments
/// selected subprocess mode.
///
/// # Panics
///
/// Panics, naming the fault, on an unknown family or method or a size the
/// family does not support: the parent table renders such a case as `-`.
pub fn maybe_run_one(args: &[String]) -> bool {
    if args.len() == 5 && args[1] == "--one" {
        let n: u32 = args[3].parse().expect("size must be an integer");
        let spec = generators::family(&args[2], n).unwrap_or_else(|e| panic!("{e}"));
        let strategy: Strategy = args[4].parse().unwrap_or_else(|e| panic!("{e}"));
        let run = run_image(&spec, strategy);
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

    fn spec(family: &str, n: u32) -> QtsSpec {
        generators::family(family, n).unwrap()
    }

    fn strategy(method: &str) -> Strategy {
        method.parse().unwrap()
    }

    #[test]
    fn spec_for_names_match_table() {
        assert_eq!(spec("grover", 5).name, "Grover5");
        assert_eq!(spec("qft", 8).name, "QFT8");
        assert_eq!(spec("bv", 10).name, "BV10");
        assert_eq!(spec("ghz", 12).name, "GHZ12");
        assert_eq!(spec("qrw", 6).name, "QRW6");
        assert_eq!(spec("adder", 3).name, "Adder3");
        assert_eq!(spec("repcode", 3).name, "RepCode3");
        assert_eq!(spec("cliffordt", 4).name, "CliffordT4");
    }

    #[test]
    fn all_methods_run_small_case() {
        for method in METHODS {
            let stats = run_image(&spec("ghz", 5), strategy(method)).stats;
            assert_eq!(stats.output_dim, 1, "{method}");
            assert!(stats.max_nodes > 0, "{method}");
        }
    }

    #[test]
    fn elementary_variants_compute_same_image_dim() {
        // The elementarised Grover acts on more wires but its image of the
        // (padded) invariant subspace has the same dimension.
        let dim = |family| {
            run_image(&spec(family, 4), strategy("contraction"))
                .stats
                .output_dim
        };
        assert_eq!(dim("grover"), dim("grover-elem"));
        assert_eq!(dim("grover"), dim("grover-ct"));
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
    fn reachability_with_gc_matches_without() {
        // The fixpoint in one call, and stepped one iteration at a time
        // with a collection between the steps.
        let spec = spec("qrw", 3);
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
        let run = run_image(&spec("ghz", 5), strategy("contraction"));
        assert!(run.stats.live_nodes > 0);
        assert!(run.stats.allocated_nodes >= run.stats.live_nodes);
        assert!(
            run.gc.reclaimed > 0,
            "the post-image collection must reclaim the run's garbage"
        );
        assert_eq!(run.manager.gc_runs, 1);
    }
}
