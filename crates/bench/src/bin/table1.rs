//! Regenerates Table I of the paper: time and max TDD node count of the
//! three image-computation methods across the benchmark families.
//!
//! Usage:
//!   cargo run -p qits-bench --release --bin table1              # laptop sizes
//!   cargo run -p qits-bench --release --bin table1 -- --full    # paper sizes
//!   cargo run -p qits-bench --release --bin table1 -- --timeout 600
//!
//! Each case runs in a subprocess so timeouts ('-' entries, as in the
//! paper) do not poison later rows. Sizes where only the contraction
//! partition is feasible (the paper's Grover40, QFT30+, QRW30+) are listed
//! with the other methods expected to time out.
//!
//! `table1 --one <family> <n> <method>` is the subprocess mode: it runs one
//! case, a [`qits_circuit::generators::family`] system under a method of
//! [`METHODS`], and prints the six fields [`CaseMeasurement::parse`]
//! reads.
//!
//! [`CaseMeasurement::parse`]: qits_bench::CaseMeasurement::parse

use std::time::Duration;

use qits_bench::{fmt_count, fmt_secs, maybe_run_one, run_case_subprocess, METHODS};

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
