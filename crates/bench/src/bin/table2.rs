//! Regenerates Table II of the paper: contraction-partition image time as
//! a function of the parameters `(k1, k2)`, on a Grover instance.
//!
//! Usage:
//!   cargo run -p qits-bench --release --bin table2                  # Grover11, k in 1..=8
//!   cargo run -p qits-bench --release --bin table2 -- --size 15 --kmax 15   # paper setting
//!   cargo run -p qits-bench --release --bin table2 -- --family adder --size 8
//!
//! `--family` accepts any [`generators::family`] name (default
//! `grover-elem`), so the (k1, k2) sweep also runs over the
//! scenario-frontend workloads (`adder`, `repcode`, `cliffordt`). An
//! unknown family, or a size it does not support, exits 1.
//!
//! The paper's finding to reproduce: times are flat and small for
//! moderate (k1, k2) and degrade as both grow (the blocks approach the
//! monolithic operator).

use qits::Strategy;
use qits_bench::{fmt_count, run_image};
use qits_circuit::generators;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: u32| -> u32 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let n = get("--size", 13);
    let kmax = get("--kmax", 12);
    let family = args
        .iter()
        .position(|a| a == "--family")
        .and_then(|i| args.get(i + 1))
        .cloned()
        // The elementary-gate Grover: the variant whose (k1, k2)
        // sensitivity matches the paper's Table II (the primitive-tensor
        // Grover is flat).
        .unwrap_or_else(|| "grover-elem".to_string());

    let spec = generators::family(&family, n).unwrap_or_else(|e| {
        eprintln!("table2: {e}");
        std::process::exit(1)
    });
    println!(
        "Table II reproduction: contraction-partition time (s) for {} over k1, k2 in 1..={kmax}",
        spec.name
    );
    print!("{:>5} |", "k1\\k2");
    for k2 in 1..=kmax {
        print!("{k2:>8}");
    }
    println!();
    println!("{}", "-".repeat(7 + 8 * kmax as usize));

    let mut hit_rates = vec![vec![0.0f64; kmax as usize]; kmax as usize];
    let mut node_cells = vec![vec![String::new(); kmax as usize]; kmax as usize];
    let mut probe_p50 = 0u32;
    let mut probe_p99 = 0u32;
    let mut gc_pause_ms = 0.0f64;
    let mut generation_bumps = 0u64;
    for k1 in 1..=kmax {
        print!("{k1:>5} |");
        for k2 in 1..=kmax {
            // Fresh session per cell: no cache sharing between parameter
            // settings, matching the paper's per-run measurements. The
            // hit rate reported below is therefore purely within-run
            // reuse (blocks against many basis states).
            let run = run_image(&spec, Strategy::Contraction { k1, k2 });
            let stats = run.stats;
            probe_p50 = probe_p50.max(stats.probe_p50);
            probe_p99 = probe_p99.max(stats.probe_p99);
            gc_pause_ms += run.manager.gc_nanos as f64 / 1e6;
            generation_bumps += run.manager.generation_bumps;
            hit_rates[(k1 - 1) as usize][(k2 - 1) as usize] = stats.cont_hit_rate();
            node_cells[(k1 - 1) as usize][(k2 - 1) as usize] = format!(
                "{}/{}/{}",
                fmt_count(stats.live_nodes as u64),
                fmt_count(stats.allocated_nodes as u64),
                fmt_count(run.gc.reclaimed as u64),
            );
            print!("{:>8.4}", stats.elapsed.as_secs_f64());
        }
        println!();
    }

    println!();
    println!("Contraction-cache hit rate (%) per cell (within-run reuse):");
    print!("{:>5} |", "k1\\k2");
    for k2 in 1..=kmax {
        print!("{k2:>8}");
    }
    println!();
    println!("{}", "-".repeat(7 + 8 * kmax as usize));
    for k1 in 1..=kmax {
        print!("{k1:>5} |");
        for k2 in 1..=kmax {
            print!(
                "{:>8.1}",
                100.0 * hit_rates[(k1 - 1) as usize][(k2 - 1) as usize]
            );
        }
        println!();
    }

    println!();
    println!("Node accounting per cell: live / allocated / reclaimed-by-GC:");
    print!("{:>5} |", "k1\\k2");
    for k2 in 1..=kmax {
        print!("{k2:>16}");
    }
    println!();
    println!("{}", "-".repeat(7 + 16 * kmax as usize));
    for k1 in 1..=kmax {
        print!("{k1:>5} |");
        for k2 in 1..=kmax {
            print!("{:>16}", node_cells[(k1 - 1) as usize][(k2 - 1) as usize]);
        }
        println!();
    }

    println!();
    println!(
        "Unique-table health across all cells: probe p50/p99 {probe_p50}/{probe_p99}, \
         {generation_bumps} generation bumps, {gc_pause_ms:.2} ms total GC pause"
    );
}
