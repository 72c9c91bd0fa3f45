//! `qits` — the scenario-file CLI and serving front: parse a textual QTS,
//! pick a strategy, answer its declared properties as JSON lines, or serve
//! a transition system over the JSON-lines protocol.
//!
//! ```text
//! qits run scenarios/adder3.qts
//! qits run scenarios/repcode5.qts --workers 4 --memo 256
//! qits check scenarios/cliffordt4.qts
//! qits export --family adder --n 3 --out scenarios/adder3.qts
//! qits serve --family grover --n 3 --workers 4 --queue-depth 256 --memo 1024
//! ```
//!
//! | subcommand | effect |
//! |---|---|
//! | `run <file>` | parse the scenario, build the engine, run every declared property, print one `result` JSON line per property and a final `done` line; exit 0 iff all properties answered |
//! | `check <file>` | parse only; print a `scenario` summary line |
//! | `export --family <f>` | synthesize a sample scenario for a generator family (`adder`, `repcode`, `cliffordt`) and print it (or write `--out`) |
//! | `serve` | stand up an [`qits::EnginePool`] and speak the protocol documented in [`qits::serve::proto`] on stdin/stdout: one request per input line, one event per output line, results streamed in completion order; diagnostics and a final summary line go to stderr |
//!
//! `run` and `serve` share the pool flags:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--strategy <s>` | `contraction` | `basic`, `addition` (`k = 1`), `contraction` (`k1 = k2 = 4`) |
//! | `--workers <k>` | available parallelism | pool worker threads |
//! | `--memo <cap>` | off | result-memo capacity in entries |
//! | `--warm-start <path>` | off | warm-start workers and preload the memo from a snapshot file |
//!
//! `run` answers on a serial engine unless a pool flag other than
//! `--strategy` is given, in which case the whole batch goes through an
//! [`qits::EnginePool`]. The serial engine is built and driven on one
//! thread with the stack a pool worker gets ([`qits::worker_stack_size`]),
//! so a wide register runs serially wherever it runs pooled. The scenario
//! grammar is documented in [`qits_circuit::parse`].
//!
//! `serve` also takes:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--family <name>` | `grover` | any [`qits_circuit::generators::family`] name |
//! | `--n <qubits>` | `3` | register size (ignored by `bitflip`); a size the family's generator does not support exits 1 with the supported range |
//! | `--scenario <path>` | off | serve the transition system of a scenario file instead of a generator family |
//! | `--queue-depth <d>` | unbounded | admission bound (`QueueFull` beyond it) |

use std::io::{self, BufReader, Write};
use std::process::ExitCode;
use std::str::FromStr;

use qits::serve::proto;
use qits::{
    run_job, worker_stack_size, EnginePool, EngineSpec, Job, PoolBuilder, QitsError, Strategy,
};
use qits_circuit::parse::{parse_scenario, render_scenario, Property, Scenario};
use qits_circuit::tensorize::states;
use qits_circuit::{generators, Circuit, Gate};

/// A cursor over a subcommand's arguments.
struct Args<'a> {
    args: &'a [String],
    next: usize,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args { args, next: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.next)?;
        self.next += 1;
        Some(arg)
    }

    /// The value that follows `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or(format!("{flag} needs a value"))
    }

    /// The integer that follows `flag`.
    fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs an integer"))
    }
}

/// The pool flags `run` and `serve` share.
#[derive(Default)]
struct PoolFlags {
    strategy: Strategy,
    workers: Option<usize>,
    memo: Option<usize>,
    warm_start: Option<String>,
}

impl PoolFlags {
    /// Reads `flag`'s value from `args` if `flag` is a pool flag; `false`
    /// if it is not one.
    fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--strategy" => self.strategy = args.value(flag)?.parse()?,
            "--workers" => self.workers = Some(args.number(flag)?),
            "--memo" => self.memo = Some(args.number(flag)?),
            "--warm-start" => self.warm_start = Some(args.value(flag)?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether a flag that only a pool can honour was given.
    fn pooled(&self) -> bool {
        self.workers.is_some() || self.memo.is_some() || self.warm_start.is_some()
    }

    /// A builder for a pool over `system` with these flags applied.
    fn builder(&self, system: generators::QtsSpec) -> Result<PoolBuilder, String> {
        let mut builder = EnginePool::builder(EngineSpec::new(system).strategy(self.strategy));
        if let Some(w) = self.workers {
            builder = builder.workers(w);
        }
        if let Some(cap) = self.memo {
            builder = builder.memo_capacity(cap);
        }
        if let Some(path) = &self.warm_start {
            builder = builder
                .warm_start(path)
                .map_err(|e| format!("warm start from '{path}': {e}"))?;
        }
        Ok(builder)
    }
}

/// Reads and parses a scenario file.
fn read_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading '{path}': {e}"))?;
    parse_scenario(&text).map_err(|e| format!("{path}: {e}"))
}

struct RunOptions {
    file: String,
    pool: PoolFlags,
}

fn parse_run_args(args: &[String]) -> Result<RunOptions, String> {
    let mut args = Args::new(args);
    let mut file = None;
    let mut pool = PoolFlags::default();
    while let Some(arg) = args.next() {
        if pool.take(arg, &mut args)? {
            continue;
        }
        match arg {
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            path if file.is_none() => file = Some(path.to_string()),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    let file = file.ok_or("run needs a scenario file")?;
    Ok(RunOptions { file, pool })
}

fn property_name(p: &Property) -> &'static str {
    match p {
        Property::Reachability { .. } => "reachability",
        Property::Invariant { .. } => "invariant",
        Property::Equivalence { .. } => "equivalence",
    }
}

/// Builds the job a property declares. Equivalence names were resolved at
/// parse time, so `circuit()` cannot fail here for a parsed scenario.
fn job_for(scenario: &Scenario, p: &Property) -> Result<Job, String> {
    Ok(match p {
        Property::Reachability { max_iterations } => Job::reachability(*max_iterations),
        Property::Invariant {
            states,
            max_iterations,
        } => Job::invariant(scenario.n_qubits, states.clone(), *max_iterations),
        Property::Equivalence { a, b, up_to_phase } => Job::Equivalence {
            a: scenario.circuit(a).map_err(|e| e.to_string())?,
            b: scenario.circuit(b).map_err(|e| e.to_string())?,
            up_to_phase: *up_to_phase,
        },
    })
}

fn result_line(
    scenario: &Scenario,
    index: usize,
    p: &Property,
    result: &Result<qits::JobOutput, QitsError>,
) -> String {
    let head = format!(
        "{{\"event\": \"result\", \"scenario\": \"{}\", \"index\": {index}, \
         \"property\": \"{}\"",
        proto::escape_json(&scenario.name),
        property_name(p),
    );
    match result {
        Ok(out) => format!(
            "{head}, \"status\": \"ok\", \"output\": {}}}",
            proto::output_json(out)
        ),
        Err(e) => format!(
            "{head}, \"status\": \"error\", \"error\": \"{}\"}}",
            proto::escape_json(&e.to_string())
        ),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_run_args(args)?;
    let scenario = read_scenario(&opts.file)?;
    let jobs: Vec<Job> = scenario
        .properties
        .iter()
        .map(|p| job_for(&scenario, p))
        .collect::<Result<_, _>>()?;

    // A serial engine answers one property at a time; `--workers`,
    // `--memo` or `--warm-start` routes the whole batch through an
    // EnginePool instead.
    let results: Vec<Result<qits::JobOutput, QitsError>> = if opts.pool.pooled() {
        let pool = opts
            .pool
            .builder(scenario.to_spec())?
            .build()
            .map_err(|e| format!("building pool: {e}"))?;
        let handle = pool.handle();
        let tickets: Vec<_> = jobs.into_iter().map(|j| handle.submit(j)).collect();
        let results = tickets.into_iter().map(|t| t.join()).collect();
        pool.shutdown();
        results
    } else {
        let spec = EngineSpec::new(scenario.to_spec()).strategy(opts.pool.strategy);
        let stack = worker_stack_size(spec.system().n_qubits);
        std::thread::Builder::new()
            .name("qits-run".to_string())
            .stack_size(stack)
            .spawn(move || -> Result<Vec<_>, String> {
                let mut engine = spec.build().map_err(|e| format!("building engine: {e}"))?;
                Ok(jobs.iter().map(|j| run_job(&mut engine, j)).collect())
            })
            .map_err(|e| format!("spawning the engine thread: {e}"))?
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))?
    };

    let mut failed = 0usize;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (i, (p, result)) in scenario.properties.iter().zip(&results).enumerate() {
        if result.is_err() {
            failed += 1;
        }
        writeln!(out, "{}", result_line(&scenario, i, p, result)).map_err(|e| e.to_string())?;
    }
    writeln!(
        out,
        "{{\"event\": \"done\", \"scenario\": \"{}\", \"properties\": {}, \"failed\": {failed}}}",
        proto::escape_json(&scenario.name),
        results.len(),
    )
    .map_err(|e| e.to_string())?;
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let [file] = args else {
        return Err("check takes exactly one scenario file".to_string());
    };
    let s = read_scenario(file)?;
    println!(
        "{{\"event\": \"scenario\", \"name\": \"{}\", \"n_qubits\": {}, \"ops\": {}, \
         \"circuits\": {}, \"initial_states\": {}, \"properties\": {}}}",
        proto::escape_json(&s.name),
        s.n_qubits,
        s.operations.len(),
        s.circuits.len(),
        s.initial_states.len(),
        s.properties.len(),
    );
    Ok(ExitCode::SUCCESS)
}

/// All `2^n` computational basis states as product states, qubit 0 the
/// most significant bit — the full-space invariant of the samples.
fn basis_states(n: u32) -> Vec<Vec<(qits_num::Cplx, qits_num::Cplx)>> {
    (0..1usize << n)
        .map(|x| {
            (0..n)
                .map(|q| {
                    if (x >> (n - 1 - q)) & 1 == 1 {
                        states::ONE
                    } else {
                        states::ZERO
                    }
                })
                .collect()
        })
        .collect()
}

type Sample = (generators::QtsSpec, Vec<(String, Circuit)>, Vec<Property>);

/// The sample scenario for a generator family: the family's system plus
/// named circuits and one property of each kind.
fn sample_scenario(family: &str, n: u32) -> Result<Sample, String> {
    // The samples stay small enough to declare every basis state, and the
    // adder's ripple cascade is only DSL-expressible up to n = 3
    // (controls beyond Toffoli).
    let (max, why) = match family {
        "adder" => (3, " (ripple needs <= 2 controls)"),
        "repcode" => (5, ""),
        "cliffordt" => (6, ""),
        other => {
            return Err(format!(
                "unknown family '{other}' (expected adder, repcode, cliffordt)"
            ))
        }
    };
    if !(2..=max).contains(&n) {
        return Err(format!("{family} sample supports --n 2..={max}{why}"));
    }
    let spec = generators::family(family, n)?;
    let full_space = || Property::Invariant {
        states: basis_states(n),
        max_iterations: (1 << n) + 2,
    };
    let (circuits, properties) = match family {
        "adder" => (
            vec![("ripple".to_string(), generators::ripple_increment(n))],
            vec![
                Property::Reachability {
                    max_iterations: (1 << n) + 2,
                },
                full_space(),
                equivalence("add", "ripple"),
            ],
        ),
        "repcode" => {
            let reg = spec.n_qubits;
            // Two commuting orderings of the same syndrome extraction.
            let mut syn_a = Circuit::new(reg);
            for i in 0..n - 1 {
                syn_a.push(Gate::cx(i, n + i));
                syn_a.push(Gate::cx(i + 1, n + i));
            }
            let mut syn_b = Circuit::new(reg);
            for i in (0..n - 1).rev() {
                syn_b.push(Gate::cx(i + 1, n + i));
                syn_b.push(Gate::cx(i, n + i));
            }
            let mut invariant_states = spec.initial_states.clone();
            invariant_states.push(vec![states::ZERO; reg as usize]);
            (
                vec![("syn_a".to_string(), syn_a), ("syn_b".to_string(), syn_b)],
                vec![
                    Property::Reachability { max_iterations: 8 },
                    Property::Invariant {
                        states: invariant_states,
                        max_iterations: 8,
                    },
                    equivalence("syn_a", "syn_b"),
                ],
            )
        }
        _ => {
            // T.T = S: a tiny equivalence with real phase structure.
            let mut tt = Circuit::new(spec.n_qubits);
            tt.push(Gate::single(qits_circuit::GateKind::T, 0));
            tt.push(Gate::single(qits_circuit::GateKind::T, 0));
            let mut s1 = Circuit::new(spec.n_qubits);
            s1.push(Gate::single(qits_circuit::GateKind::S, 0));
            (
                vec![("tt".to_string(), tt), ("s1".to_string(), s1)],
                vec![
                    Property::Reachability {
                        max_iterations: (1 << n) + 2,
                    },
                    full_space(),
                    equivalence("tt", "s1"),
                ],
            )
        }
    };
    Ok((spec, circuits, properties))
}

/// An exact equivalence between two named circuits.
fn equivalence(a: &str, b: &str) -> Property {
    Property::Equivalence {
        a: a.to_string(),
        b: b.to_string(),
        up_to_phase: false,
    }
}

fn cmd_export(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(args);
    let mut family = None;
    let mut n = None;
    let mut out_path = None;
    while let Some(flag) = args.next() {
        match flag {
            "--family" => family = Some(args.value(flag)?),
            "--n" => n = Some(args.number(flag)?),
            "--out" => out_path = Some(args.value(flag)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let family = family.ok_or("export needs --family")?;
    let n = n.unwrap_or(match family {
        "adder" => 3,
        "repcode" => 5,
        _ => 4,
    });
    let (spec, circuits, properties) = sample_scenario(family, n)?;
    let text = render_scenario(&spec, &circuits, &properties).map_err(|e| e.to_string())?;
    match out_path {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("writing '{path}': {e}"))?,
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

struct ServeOptions {
    family: String,
    n: u32,
    scenario: Option<String>,
    queue_depth: Option<usize>,
    pool: PoolFlags,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut args = Args::new(args);
    let mut opts = ServeOptions {
        family: "grover".to_string(),
        n: 3,
        scenario: None,
        queue_depth: None,
        pool: PoolFlags::default(),
    };
    while let Some(flag) = args.next() {
        if opts.pool.take(flag, &mut args)? {
            continue;
        }
        match flag {
            "--family" => opts.family = args.value(flag)?.to_string(),
            "--n" => opts.n = args.number(flag)?,
            "--scenario" => opts.scenario = Some(args.value(flag)?.to_string()),
            "--queue-depth" => opts.queue_depth = Some(args.number(flag)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// The pool `serve` stands up: over a scenario file's transition system
/// (its property declarations are ignored, since jobs arrive over the
/// wire) or a generator family's.
fn serve_pool(opts: &ServeOptions) -> Result<PoolBuilder, String> {
    let system = match &opts.scenario {
        Some(path) => read_scenario(path)?.to_spec(),
        None => generators::family(&opts.family, opts.n)?,
    };
    let mut builder = opts.pool.builder(system)?;
    if let Some(d) = opts.queue_depth {
        builder = builder.queue_depth(d);
    }
    Ok(builder)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_serve_args(args)?;
    let pool = serve_pool(&opts)?
        .build()
        .map_err(|e| format!("building pool: {e}"))?;
    eprintln!(
        "qits serve: {} workers over {:?}; reading JSON-lines from stdin",
        pool.workers(),
        pool.spec().system().name,
    );
    proto::serve(pool.handle(), BufReader::new(io::stdin()), io::stdout())
        .map_err(|e| format!("i/o error: {e}"))?;
    let stats = pool.shutdown();
    let _ = writeln!(
        io::stderr(),
        "qits serve: served {} jobs ({} ok, {} failed, {} cancelled, {} expired, \
         {} memo hits of which {} warm)",
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.jobs_expired,
        stats.memo.hits,
        stats.memo.warm_hits,
    );
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage: qits <run|check|export|serve> ...\n  \
    run <file> [--strategy s] [--workers k] [--memo cap] [--warm-start path]\n  \
    check <file>\n  \
    export --family <adder|repcode|cliffordt> [--n k] [--out path]\n  \
    serve [--family f] [--n k] [--scenario path] [--queue-depth d] [--strategy s] \
    [--workers k] [--memo cap] [--warm-start path]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qits: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn serve_opts(family: &str, n: u32) -> ServeOptions {
        parse_serve_args(&args(&["--family", family, "--n", &n.to_string()])).unwrap()
    }

    #[test]
    fn out_of_range_sizes_are_usage_errors() {
        for (family, n, supported) in [
            ("repcode", 40, "2..=16"),
            ("repcode", 1, "2..=16"),
            ("qrw", 1, "2..=65536"),
            ("qrw-elem", 1, "2..=32769"),
            ("grover", 0, "3..=65536"),
            ("grover", 2, "3..=65536"),
            ("grover-elem", 2, "3..=32769"),
            ("grover-ct", 2, "3..=32769"),
            ("bv", 0, "2..=65536"),
            ("ghz", 1, "2..=65536"),
            ("ghz", 70_000, "2..=65536"),
            ("cliffordt", 1, "2..=65536"),
            ("qft", 0, "1..=65536"),
            ("qft", 70_000, "1..=65536"),
            ("grover-ct", 32_770, "3..=32769"),
            ("adder", 64, "1..=63"),
        ] {
            let err = serve_pool(&serve_opts(family, n)).err().unwrap();
            assert_eq!(err, format!("{family} supports n {supported}, got {n}"));
        }
        let err = serve_pool(&serve_opts("toffoli", 3)).err().unwrap();
        assert!(err.starts_with("unknown family 'toffoli'"), "{err}");
    }

    #[test]
    fn the_smallest_supported_sizes_build() {
        for (family, lo) in [
            ("qft", 1),
            ("bv", 2),
            ("ghz", 2),
            ("qrw", 2),
            ("qrw-elem", 2),
            ("cliffordt", 2),
            ("grover", 3),
            ("grover-elem", 3),
            ("grover-ct", 3),
            ("adder", 1),
            ("repcode", 2),
            // `bitflip` ignores --n altogether.
            ("bitflip", 0),
        ] {
            assert!(serve_pool(&serve_opts(family, lo)).is_ok(), "{family} {lo}");
        }
    }

    #[test]
    fn a_register_wider_than_a_variable_can_address_fails_the_pool_build() {
        // The width is refused before any worker mints a variable. `--family`
        // refuses this size before generating it (see
        // `out_of_range_sizes_are_usage_errors`), so the spec is built here.
        let mut opts = serve_opts("ghz", 3);
        opts.pool.workers = Some(1);
        let builder = opts.pool.builder(generators::ghz(70_000)).unwrap();
        let err = builder.build().err().unwrap();
        assert_eq!(
            err,
            QitsError::RegisterTooWide {
                n_qubits: 70_000,
                max: 65_536
            }
        );
    }

    #[test]
    fn a_memo_capacity_alone_routes_run_to_a_pool_with_that_memo() {
        let serial = parse_run_args(&args(&["s.qts", "--strategy", "basic"])).unwrap();
        assert!(!serial.pool.pooled(), "a strategy alone stays serial");
        let opts = parse_run_args(&args(&["s.qts", "--memo", "64"])).unwrap();
        assert!(opts.pool.pooled());
        let pool = opts
            .pool
            .builder(generators::family("ghz", 3).unwrap())
            .unwrap()
            .workers(1)
            .build()
            .unwrap();
        assert_eq!(pool.stats().memo.capacity, 64);
        pool.shutdown();
    }
}
