//! The committed sample scenarios drive the full frontend: parse the
//! textual QTS, build an engine, and check every declared property's
//! verdict — the exact pipeline `qits run` executes.
//!
//! The verdicts asserted here are the committed contract of the sample
//! files (CI greps `qits run` output for the same numbers): `adder3`
//! reaches an 8-dimensional fixpoint in 7 iterations, `repcode5` a
//! 6-dimensional one in 2, `cliffordt4` a 4-dimensional one in 3; every
//! invariant holds and every declared equivalence is genuine.

use qits::{run_job, EnginePool, EngineSpec, Job, JobOutput};
use qits_circuit::parse::{parse_scenario, render_scenario, ParseErrorKind, Property, Scenario};

/// A committed sample and its expected property verdicts, in declaration
/// order: (reachable dim, iterations to converge).
const SAMPLES: [(&str, usize, usize); 3] = [
    ("adder3.qts", 8, 7),
    ("repcode5.qts", 6, 2),
    ("cliffordt4.qts", 4, 3),
];

fn read_sample(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading committed sample {}: {e}", path.display()))
}

fn job_for(scenario: &Scenario, property: &Property) -> Job {
    match property {
        Property::Reachability { max_iterations } => Job::reachability(*max_iterations),
        Property::Invariant {
            states,
            max_iterations,
        } => Job::invariant(scenario.n_qubits, states.clone(), *max_iterations),
        Property::Equivalence { a, b, up_to_phase } => Job::Equivalence {
            a: scenario.circuit(a).expect("declared circuit must resolve"),
            b: scenario.circuit(b).expect("declared circuit must resolve"),
            up_to_phase: *up_to_phase,
        },
    }
}

#[test]
fn committed_scenarios_answer_their_properties() {
    for (file, want_dim, want_iters) in SAMPLES {
        let scenario =
            parse_scenario(&read_sample(file)).unwrap_or_else(|e| panic!("{file} must parse: {e}"));
        assert!(
            scenario.properties.len() >= 3,
            "{file} must declare all three property kinds"
        );
        let mut engine = EngineSpec::new(scenario.to_spec())
            .build()
            .unwrap_or_else(|e| panic!("{file} must build an engine: {e}"));
        let mut seen = (false, false, false);
        for property in &scenario.properties {
            let out = run_job(&mut engine, &job_for(&scenario, property))
                .unwrap_or_else(|e| panic!("{file}: property must run: {e}"));
            match out {
                JobOutput::Reachability(r) => {
                    seen.0 = true;
                    assert!(r.converged, "{file}: reachability must converge");
                    assert_eq!(r.dim, want_dim, "{file}: reachable dimension");
                    assert_eq!(r.iterations, want_iters, "{file}: fixpoint iterations");
                }
                JobOutput::Invariant { holds, reach } => {
                    seen.1 = true;
                    assert!(holds, "{file}: the declared invariant must hold");
                    assert_eq!(reach.dim, want_dim, "{file}: invariant reach dim");
                }
                JobOutput::Equivalence { equivalent } => {
                    seen.2 = true;
                    assert!(equivalent, "{file}: the declared equivalence is genuine");
                }
                other => panic!("{file}: unexpected output {other:?}"),
            }
        }
        assert_eq!(
            seen,
            (true, true, true),
            "{file} must answer reachability, invariant, and equivalence"
        );
    }
}

/// The serial engine and the pool must agree on every sample verdict —
/// the `--workers` path of `qits run` is not a different answer.
#[test]
fn pool_path_agrees_with_serial_on_samples() {
    for (file, want_dim, _) in SAMPLES {
        let scenario = parse_scenario(&read_sample(file)).unwrap();
        let pool = EnginePool::builder(EngineSpec::new(scenario.to_spec()))
            .workers(2)
            .memo_capacity(64)
            .build()
            .unwrap();
        let handle = pool.handle();
        let tickets: Vec<_> = scenario
            .properties
            .iter()
            .map(|p| handle.submit(job_for(&scenario, p)))
            .collect();
        for (property, ticket) in scenario.properties.iter().zip(tickets) {
            let out = ticket
                .join()
                .unwrap_or_else(|e| panic!("{file}: pooled property must run: {e}"));
            match out {
                JobOutput::Reachability(r) => assert_eq!(r.dim, want_dim, "{file}"),
                JobOutput::Invariant { holds, .. } => assert!(holds, "{file}"),
                JobOutput::Equivalence { equivalent } => {
                    assert!(equivalent, "{file}: {property:?}")
                }
                other => panic!("{file}: unexpected output {other:?}"),
            }
        }
        pool.shutdown();
    }
}

/// Render → parse must be a fixpoint: re-rendering a parsed scenario
/// reproduces the same system, circuits, and properties. `adder3` and
/// `repcode5` are exactly `qits export` output (CI diffs them); `cliffordt4`
/// is `random_clifford_t(4, 12, 0.125, 42)`, where the family table seeds
/// with `n`, kept for its sharper pinned verdicts.
#[test]
fn committed_scenarios_render_round_trip() {
    for (file, _, _) in SAMPLES {
        let first = parse_scenario(&read_sample(file)).unwrap();
        let rendered = render_scenario(&first.to_spec(), &first.circuits, &first.properties)
            .unwrap_or_else(|e| panic!("{file} must render: {e}"));
        let second = parse_scenario(&rendered)
            .unwrap_or_else(|e| panic!("{file}: rendered text must re-parse: {e}"));

        let (a, b) = (first.to_spec(), second.to_spec());
        assert_eq!(a.name, b.name, "{file}");
        assert_eq!(a.n_qubits, b.n_qubits, "{file}");
        assert_eq!(a.operations, b.operations, "{file}: operations");
        assert_eq!(a.initial_states, b.initial_states, "{file}: initial states");
        assert_eq!(first.circuits, second.circuits, "{file}: circuits");
        assert_eq!(first.properties, second.properties, "{file}: properties");
    }
}

#[test]
fn circuit_lookup_resolves_ops_and_refuses_unknowns() {
    let scenario = parse_scenario(&read_sample("adder3.qts")).unwrap();
    // A channel-free op doubles as a circuit for equivalence queries.
    let add = scenario.circuit("add").expect("'add' is a pure op");
    assert!(!add.gates().is_empty());
    // A declared pure circuit resolves too.
    assert!(scenario.circuit("ripple").is_ok());
    let err = scenario.circuit("no-such").unwrap_err();
    assert!(
        matches!(&err.kind, ParseErrorKind::UnknownOp { name } if name == "no-such"),
        "{err:?}"
    );
}
