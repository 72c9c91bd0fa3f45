//! `qits` — the scenario-file CLI: parse a textual QTS, pick a strategy,
//! answer its declared properties as JSON lines.
//!
//! ```text
//! qits run scenarios/adder3.qts
//! qits run scenarios/repcode5.qts --workers 4 --memo 256
//! qits check scenarios/cliffordt4.qts
//! qits export --family adder --n 3 --out scenarios/adder3.qts
//! ```
//!
//! | subcommand | effect |
//! |---|---|
//! | `run <file>` | parse the scenario, build the engine, run every declared property, print one `result` JSON line per property and a final `done` line; exit 0 iff all properties answered |
//! | `check <file>` | parse only; print a `scenario` summary line |
//! | `export --family <f>` | synthesize a sample scenario for a generator family (`adder`, `repcode`, `cliffordt`) and print it (or write `--out`) |
//!
//! `run` flags: `--strategy basic|addition|contraction` (default
//! `contraction`, the paper's `k1 = k2 = 4`), `--workers <k>` (run the
//! properties on a `k`-worker [`qits::EnginePool`] instead of a serial
//! engine), `--memo <cap>` (pool result-memo capacity), `--warm-start
//! <path>` (warm-start pool workers and memo from a snapshot file — implies
//! the pool path). The serial engine is built and driven on one thread
//! with the stack a pool worker gets ([`qits::worker_stack_size`]), so a
//! wide register runs serially wherever it runs pooled. The scenario
//! grammar is documented in [`qits_circuit::parse`].

use std::io::Write;
use std::process::ExitCode;

use qits::serve::proto;
use qits::{run_job, worker_stack_size, EnginePool, EngineSpec, Job, QitsError, Strategy};
use qits_circuit::parse::{parse_scenario, render_scenario, Property, Scenario};
use qits_circuit::tensorize::states;
use qits_circuit::{generators, Circuit, Gate};

struct RunOptions {
    file: String,
    strategy: Strategy,
    workers: Option<usize>,
    memo: Option<usize>,
    warm_start: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        file: String::new(),
        strategy: Strategy::default(),
        workers: None,
        memo: None,
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
            "--strategy" => opts.strategy = value("--strategy")?.parse()?,
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs an integer".to_string())?,
                )
            }
            "--memo" => {
                opts.memo = Some(
                    value("--memo")?
                        .parse()
                        .map_err(|_| "--memo needs an integer".to_string())?,
                )
            }
            "--warm-start" => opts.warm_start = Some(value("--warm-start")?),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            path if opts.file.is_empty() => opts.file = path.to_string(),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
        i += 1;
    }
    if opts.file.is_empty() {
        return Err("run needs a scenario file".to_string());
    }
    Ok(opts)
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
    let text =
        std::fs::read_to_string(&opts.file).map_err(|e| format!("reading '{}': {e}", opts.file))?;
    let scenario = parse_scenario(&text).map_err(|e| format!("{}: {e}", opts.file))?;
    let spec = EngineSpec::new(scenario.to_spec()).strategy(opts.strategy);

    let jobs: Vec<Job> = scenario
        .properties
        .iter()
        .map(|p| job_for(&scenario, p))
        .collect::<Result<_, _>>()?;

    // A serial engine answers one property at a time; --workers or
    // --warm-start routes the whole batch through an EnginePool instead.
    let results: Vec<Result<qits::JobOutput, QitsError>> =
        if opts.workers.is_some() || opts.warm_start.is_some() {
            let mut builder = EnginePool::builder(spec);
            if let Some(w) = opts.workers {
                builder = builder.workers(w);
            }
            if let Some(cap) = opts.memo {
                builder = builder.memo_capacity(cap);
            }
            if let Some(path) = &opts.warm_start {
                builder = builder
                    .warm_start(path)
                    .map_err(|e| format!("warm start from '{path}': {e}"))?;
            }
            let pool = builder.build().map_err(|e| format!("building pool: {e}"))?;
            let handle = pool.handle();
            let tickets: Vec<_> = jobs.into_iter().map(|j| handle.submit(j)).collect();
            let results = tickets.into_iter().map(|t| t.join()).collect();
            pool.shutdown();
            results
        } else {
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
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading '{file}': {e}"))?;
    let s = parse_scenario(&text).map_err(|e| format!("{file}: {e}"))?;
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

/// The committed sample scenario for a generator family: the spec plus
/// named circuits and one property of each kind.
fn sample_scenario(family: &str, n: u32) -> Result<Sample, String> {
    match family {
        "adder" => {
            // The Draper adder op vs the ripple-carry cascade — only
            // DSL-expressible up to n = 3 (controls beyond Toffoli).
            if !(2..=3).contains(&n) {
                return Err("adder sample supports --n 2..=3 (ripple needs <= 2 controls)".into());
            }
            let spec = generators::qft_adder(n, 1);
            let circuits = vec![("ripple".to_string(), generators::ripple_increment(n))];
            let properties = vec![
                Property::Reachability {
                    max_iterations: (1 << n) + 2,
                },
                Property::Invariant {
                    states: basis_states(n),
                    max_iterations: (1 << n) + 2,
                },
                Property::Equivalence {
                    a: "add".to_string(),
                    b: "ripple".to_string(),
                    up_to_phase: false,
                },
            ];
            Ok((spec, circuits, properties))
        }
        "repcode" => {
            if !(2..=5).contains(&n) {
                return Err("repcode sample supports --n 2..=5".into());
            }
            let spec = generators::repetition_code(n);
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
            let properties = vec![
                Property::Reachability { max_iterations: 8 },
                Property::Invariant {
                    states: invariant_states,
                    max_iterations: 8,
                },
                Property::Equivalence {
                    a: "syn_a".to_string(),
                    b: "syn_b".to_string(),
                    up_to_phase: false,
                },
            ];
            Ok((
                spec,
                vec![("syn_a".to_string(), syn_a), ("syn_b".to_string(), syn_b)],
                properties,
            ))
        }
        "cliffordt" => {
            if !(2..=6).contains(&n) {
                return Err("cliffordt sample supports --n 2..=6".into());
            }
            let spec = generators::random_clifford_t(n, 3 * n, 0.125, 42);
            // T.T = S: a tiny equivalence with real phase structure.
            let mut tt = Circuit::new(spec.n_qubits);
            tt.push(Gate::single(qits_circuit::GateKind::T, 0));
            tt.push(Gate::single(qits_circuit::GateKind::T, 0));
            let mut s1 = Circuit::new(spec.n_qubits);
            s1.push(Gate::single(qits_circuit::GateKind::S, 0));
            let properties = vec![
                Property::Reachability {
                    max_iterations: (1 << n) + 2,
                },
                Property::Invariant {
                    states: basis_states(n),
                    max_iterations: (1 << n) + 2,
                },
                Property::Equivalence {
                    a: "tt".to_string(),
                    b: "s1".to_string(),
                    up_to_phase: false,
                },
            ];
            Ok((
                spec,
                vec![("tt".to_string(), tt), ("s1".to_string(), s1)],
                properties,
            ))
        }
        other => Err(format!(
            "unknown family '{other}' (expected adder, repcode, cliffordt)"
        )),
    }
}

fn cmd_export(args: &[String]) -> Result<ExitCode, String> {
    let mut family: Option<String> = None;
    let mut n: Option<u32> = None;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or(format!("{name} needs a value"))
        };
        match flag {
            "--family" => family = Some(value("--family")?),
            "--n" => {
                n = Some(
                    value("--n")?
                        .parse()
                        .map_err(|_| "--n needs an integer".to_string())?,
                )
            }
            "--out" => out_path = Some(value("--out")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    let family = family.ok_or("export needs --family")?;
    let n = n.unwrap_or(match family.as_str() {
        "adder" => 3,
        "repcode" => 5,
        _ => 4,
    });
    let (spec, circuits, properties) = sample_scenario(&family, n)?;
    let text = render_scenario(&spec, &circuits, &properties).map_err(|e| e.to_string())?;
    match out_path {
        Some(path) => std::fs::write(&path, &text).map_err(|e| format!("writing '{path}': {e}"))?,
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage: qits <run|check|export> ...\n  \
    run <file> [--strategy s] [--workers k] [--memo cap] [--warm-start path]\n  \
    check <file>\n  \
    export --family <adder|repcode|cliffordt> [--n k] [--out path]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
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
