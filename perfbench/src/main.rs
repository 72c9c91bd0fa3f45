//! Runs one workload of the answered-property benchmark and prints its
//! result as the last line of standard output:
//!
//! ```text
//! qits-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run prints the end-to-end metrics, a traced one the
//! per-layer metrics and writes its spans to `traces/` in this package.
//! The line before the result reports the process's CPU and run-queue
//! time over the measured part.

use std::path::PathBuf;
use std::process::ExitCode;

use qits_perfbench::{run, RunConfig, Workload};

fn parse_args(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("a duration"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let missing = |flag: &str| format!("missing {flag}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        RunConfig {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("qits-perfbench: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: qits-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (outcome, trace) = match run(workload, &cfg) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("qits-perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace) = trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", workload.name(), cfg.seed));
        if let Err(e) = trace.write_jsonl(&path) {
            eprintln!("qits-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("qits-perfbench: spans written to {}", path.display());
    }
    let line = match outcome.result_line(cfg.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("qits-perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"noise\": {{\"proc.cpu_s\": {}, \"proc.runq_wait_s\": {}}}}}",
        outcome.get("proc.cpu_s").unwrap_or(0.0),
        outcome.get("proc.runq_wait_s").unwrap_or(0.0)
    );
    println!("{line}");
    ExitCode::SUCCESS
}
