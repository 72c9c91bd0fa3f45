//! `qits-serve` — a JSON-lines serving front over an [`qits::EnginePool`].
//!
//! Stands up a pool over one of the benchmark transition systems and
//! speaks the protocol documented in [`qits::serve::proto`] on
//! stdin/stdout: one request per input line, one event per output line,
//! results streamed in completion order. Diagnostics go to stderr.
//!
//! ```text
//! qits-serve --family grover --n 3 --workers 4 --queue-depth 256 --memo 1024
//! ```
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--family <name>` | `grover` | `grover`, `qft`, `bv`, `ghz`, `qrw`, `bitflip`, `adder`, `repcode`, `cliffordt` |
//! | `--n <qubits>` | `3` | register size (ignored by `bitflip`); a size the family's generator does not support exits 1 with the supported range |
//! | `--scenario <path>` | off | serve the transition system of a scenario file (see [`qits_circuit::parse`]) instead of a generator family |
//! | `--workers <k>` | available parallelism | pool worker threads |
//! | `--queue-depth <d>` | unbounded | admission bound (`QueueFull` beyond it) |
//! | `--memo <cap>` | off | result-memo capacity in entries |
//! | `--strategy <s>` | `contraction` | `basic`, `addition` (`k = 1`), `contraction` (`k1 = k2 = 4`) |
//! | `--warm-start <path>` | off | warm-start workers and preload the memo from a snapshot file |

use std::io::{self, BufReader, Write};
use std::ops::RangeInclusive;
use std::process::ExitCode;

use qits::serve::proto;
use qits::{EnginePool, EngineSpec, Strategy};
use qits_circuit::generators;

struct Options {
    family: String,
    n: u32,
    scenario: Option<String>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    memo: Option<usize>,
    strategy: Strategy,
    warm_start: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        family: "grover".to_string(),
        n: 3,
        scenario: None,
        workers: None,
        queue_depth: None,
        memo: None,
        strategy: Strategy::default(),
        warm_start: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or(format!("{name} needs a value"))
        };
        match flag {
            "--family" => opts.family = value("--family")?,
            "--scenario" => opts.scenario = Some(value("--scenario")?),
            "--n" => {
                opts.n = value("--n")?
                    .parse()
                    .map_err(|_| "--n needs an integer".to_string())?
            }
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs an integer".to_string())?,
                )
            }
            "--queue-depth" => {
                opts.queue_depth = Some(
                    value("--queue-depth")?
                        .parse()
                        .map_err(|_| "--queue-depth needs an integer".to_string())?,
                )
            }
            "--memo" => {
                opts.memo = Some(
                    value("--memo")?
                        .parse()
                        .map_err(|_| "--memo needs an integer".to_string())?,
                )
            }
            "--strategy" => opts.strategy = value("--strategy")?.parse()?,
            "--warm-start" => opts.warm_start = Some(value("--warm-start")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Noise probability of the `qrw` family — matches the benchmark suite.
const QRW_NOISE: f64 = 0.125;

/// The register sizes a generator family accepts: exactly the range its
/// generator asserts, checked before the call so that an out-of-range
/// `--n` is a usage error rather than a panic. `None` for `bitflip`,
/// which ignores `--n`, and for unknown families.
fn n_range(family: &str) -> Option<RangeInclusive<u32>> {
    match family {
        "qft" => Some(1..=u32::MAX),
        "bv" | "ghz" | "qrw" | "cliffordt" => Some(2..=u32::MAX),
        "grover" => Some(3..=u32::MAX),
        "adder" => Some(1..=63),
        "repcode" => Some(2..=16),
        _ => None,
    }
}

fn spec_for(opts: &Options) -> Result<EngineSpec, String> {
    if let (None, Some(range)) = (&opts.scenario, n_range(&opts.family)) {
        if !range.contains(&opts.n) {
            let (lo, hi) = (range.start(), range.end());
            let supported = if *hi == u32::MAX {
                format!(">= {lo}")
            } else {
                format!("{lo}..={hi}")
            };
            return Err(format!(
                "{} supports --n {supported}, got {}",
                opts.family, opts.n
            ));
        }
    }
    let system = match &opts.scenario {
        // A scenario file's transition system; its property declarations
        // are ignored here — jobs arrive over the wire.
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading scenario '{path}': {e}"))?;
            qits_circuit::parse::parse_scenario(&text)
                .map_err(|e| format!("{path}: {e}"))?
                .to_spec()
        }
        None => match opts.family.as_str() {
            "grover" => generators::grover(opts.n),
            "qft" => generators::qft(opts.n),
            "bv" => generators::bernstein_vazirani(opts.n, &generators::bv_secret(opts.n)),
            "ghz" => generators::ghz(opts.n),
            "qrw" => generators::qrw(opts.n, QRW_NOISE),
            "bitflip" => generators::bitflip_code(),
            "adder" => generators::qft_adder(opts.n, 1),
            "repcode" => generators::repetition_code(opts.n),
            "cliffordt" => {
                generators::random_clifford_t(opts.n, 3 * opts.n, QRW_NOISE, u64::from(opts.n))
            }
            other => return Err(format!("unknown family '{other}'")),
        },
    };
    Ok(EngineSpec::new(system).strategy(opts.strategy))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qits-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match spec_for(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("qits-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut builder = EnginePool::builder(spec);
    if let Some(w) = opts.workers {
        builder = builder.workers(w);
    }
    if let Some(d) = opts.queue_depth {
        builder = builder.queue_depth(d);
    }
    if let Some(cap) = opts.memo {
        builder = builder.memo_capacity(cap);
    }
    if let Some(path) = &opts.warm_start {
        builder = match builder.warm_start(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("qits-serve: warm start from '{path}' failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let pool = match builder.build() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("qits-serve: building the pool failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "qits-serve: {} workers over {:?}; reading JSON-lines from stdin",
        pool.workers(),
        pool.spec().system().name,
    );
    let handle = pool.handle();
    if let Err(e) = proto::serve(handle, BufReader::new(io::stdin()), io::stdout()) {
        eprintln!("qits-serve: i/o error: {e}");
        return ExitCode::FAILURE;
    }
    let stats = pool.shutdown();
    let _ = writeln!(
        io::stderr(),
        "qits-serve: served {} jobs ({} ok, {} failed, {} cancelled, {} expired, \
         {} memo hits of which {} warm)",
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.jobs_expired,
        stats.memo.hits,
        stats.memo.warm_hits,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(family: &str, n: u32) -> Options {
        let args = ["--family", family, "--n", &n.to_string()].map(String::from);
        parse_args(&args).unwrap()
    }

    #[test]
    fn out_of_range_sizes_are_usage_errors() {
        for (family, n, supported) in [
            ("repcode", 40, "2..=16"),
            ("repcode", 1, "2..=16"),
            ("qrw", 1, ">= 2"),
            ("grover", 0, ">= 3"),
            ("grover", 2, ">= 3"),
            ("bv", 0, ">= 2"),
            ("ghz", 1, ">= 2"),
            ("cliffordt", 1, ">= 2"),
            ("qft", 0, ">= 1"),
            ("adder", 64, "1..=63"),
        ] {
            let err = spec_for(&opts(family, n)).err().unwrap();
            assert_eq!(err, format!("{family} supports --n {supported}, got {n}"));
        }
    }

    #[test]
    fn the_smallest_supported_sizes_build() {
        for family in [
            "qft",
            "bv",
            "ghz",
            "qrw",
            "cliffordt",
            "grover",
            "adder",
            "repcode",
        ] {
            let lo = *n_range(family).unwrap().start();
            assert!(spec_for(&opts(family, lo)).is_ok(), "{family} {lo}");
        }
        // `bitflip` ignores --n altogether.
        assert!(spec_for(&opts("bitflip", 0)).is_ok());
    }

    #[test]
    fn a_register_wider_than_a_variable_can_address_fails_the_pool_build() {
        // The width is refused before any worker mints a variable.
        let spec = spec_for(&opts("ghz", 70_000)).unwrap();
        let err = EnginePool::builder(spec).workers(1).build().err().unwrap();
        assert_eq!(
            err,
            qits::QitsError::RegisterTooWide {
                n_qubits: 70_000,
                max: 65_536
            }
        );
    }
}
