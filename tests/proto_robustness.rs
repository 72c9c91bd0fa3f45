//! No client line may kill the server: adversarial and randomized inputs
//! through every textual surface — `parse_request`, the shared gate DSL,
//! the scenario parser, and the live serve loop.
//!
//! The contract under test is uniform: every function here returns a
//! typed `Err` on bad input and never panics. The proptest cases assert
//! nothing *about* the results beyond "the call returned" — reaching the
//! end of the closure is the property — plus a few sanity checks that
//! errors render as non-empty messages (they end up on the wire).

use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use qits::serve::proto::{self, parse_circuit, parse_json, parse_request};
use qits::{EnginePool, EngineSpec};
use qits_circuit::parse::{parse_circuit_pair, parse_scenario};

// ----------------------------------------------------------------------
// Generators: byte soup, near-miss DSL, adversarial scenario documents,
// and JSON-ish request lines.
// ----------------------------------------------------------------------

/// Arbitrary bytes forced into a `str` — exercises the lexers on inputs
/// far outside the grammar (control characters, lone separators, UTF-8
/// replacement characters from invalid sequences).
fn byte_soup() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(0u8..=255, 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A token that looks almost like a gate mnemonic: the real set, common
/// typos, and noise.
fn gate_token() -> impl proptest::strategy::Strategy<Value = String> {
    prop_oneof![
        Just("h".to_string()),
        Just("x".to_string()),
        Just("cx".to_string()),
        Just("ccx".to_string()),
        Just("cp".to_string()),
        Just("swap".to_string()),
        Just("proj".to_string()),
        Just("rz".to_string()),
        Just("sdg".to_string()),
        Just("cnot".to_string()),
        Just("H".to_string()),
        Just("hadamard".to_string()),
        Just("".to_string()),
        Just("{".to_string()),
        Just("#h".to_string()),
    ]
}

/// A token in wire position: in-range, out-of-range, overflowing,
/// negative, fractional, or plain garbage.
fn wire_token() -> impl proptest::strategy::Strategy<Value = String> {
    prop_oneof![
        (0u32..4).prop_map(|w| w.to_string()),
        Just("99999999999999999999".to_string()),
        Just("4294967296".to_string()),
        Just("-1".to_string()),
        Just("1.5".to_string()),
        Just("q0".to_string()),
        Just("0x2".to_string()),
        Just("".to_string()),
    ]
}

/// A token in angle position: finite, special, overflowing, or garbage.
fn angle_token() -> impl proptest::strategy::Strategy<Value = String> {
    prop_oneof![
        (-10.0..10.0f64).prop_map(|t| t.to_string()),
        Just("nan".to_string()),
        Just("inf".to_string()),
        Just("-inf".to_string()),
        Just("1e999".to_string()),
        Just("pi".to_string()),
        Just("--2".to_string()),
    ]
}

/// A near-miss DSL statement: a gate-ish head with 0..=4 argument
/// tokens — wrong arity, duplicate wires, and malformed numbers all
/// arise naturally from the combination.
fn dsl_statement() -> impl proptest::strategy::Strategy<Value = String> {
    (
        gate_token(),
        proptest::collection::vec(prop_oneof![wire_token(), angle_token()], 0..4),
    )
        .prop_map(|(gate, args)| {
            let mut s = gate;
            for a in args {
                s.push(' ');
                s.push_str(&a);
            }
            s
        })
}

/// A whole DSL program: statements joined by the grammar's separators
/// (and some that are not separators).
fn dsl_program() -> impl proptest::strategy::Strategy<Value = String> {
    (
        proptest::collection::vec(dsl_statement(), 0..6),
        prop_oneof![
            Just("; ".to_string()),
            Just("\n".to_string()),
            Just(";;".to_string()),
            Just(" ".to_string()),
        ],
    )
        .prop_map(|(stmts, sep)| stmts.join(&sep))
}

/// A line that belongs to (or nearly belongs to) the scenario grammar.
fn scenario_line() -> impl proptest::strategy::Strategy<Value = String> {
    prop_oneof![
        Just("scenario fuzz".to_string()),
        (0u32..6).prop_map(|n| format!("qubits {n}")),
        Just("qubits -3".to_string()),
        Just("qubits 99999999999999999999".to_string()),
        dsl_statement().prop_map(|s| format!("op a {{ {s} }}")),
        Just("op a {".to_string()),
        dsl_statement(),
        Just("}".to_string()),
        (wire_token(), angle_token()).prop_map(|(q, p)| format!("channel bitflip {q} {p}")),
        Just("circuit c { h 0 }".to_string()),
        Just("init 0 0".to_string()),
        Just("init + - (0.6,0;0.8,0)".to_string()),
        Just("init (".to_string()),
        (0usize..20).prop_map(|k| format!("reach {k}")),
        Just("invariant 4 {".to_string()),
        Just("0 1".to_string()),
        Just("equivalent a b".to_string()),
        Just("equivalent a b maybe".to_string()),
        Just("# comment".to_string()),
        byte_soup(),
    ]
}

/// A scenario document: random lines, sometimes with a plausible prefix.
fn scenario_doc() -> impl proptest::strategy::Strategy<Value = String> {
    (
        proptest::prelude::any::<bool>(),
        proptest::collection::vec(scenario_line(), 0..12),
    )
        .prop_map(|(prefixed, lines)| {
            let mut doc = String::new();
            if prefixed {
                doc.push_str("qubits 3\nop base { h 0 }\ninit 0 0 0\n");
            }
            for l in lines {
                doc.push_str(&l);
                doc.push('\n');
            }
            doc
        })
}

/// A request line: structurally valid JSON with adversarial payloads, or
/// outright non-JSON.
fn request_line() -> impl proptest::strategy::Strategy<Value = String> {
    prop_oneof![
        byte_soup(),
        dsl_program().prop_map(|p| {
            format!(
                "{{\"op\":\"submit\",\"id\":\"f\",\"job\":{{\"type\":\"equivalence\",\
                 \"a\":\"{}\",\"b\":\"h 0\"}}}}",
                proto::escape_json(&p)
            )
        }),
        (0usize..3, proptest::prelude::any::<u64>()).prop_map(|(depth, n)| {
            let pad = "[".repeat(depth * 8);
            format!("{pad}{n}")
        }),
        Just("{\"op\":\"submit\"}".to_string()),
        Just(
            "{\"op\":\"submit\",\"id\":\"x\",\"job\":{\"type\":\"invariant\",\
              \"n_qubits\":4294967296,\"max_iterations\":1,\"states\":[]}}"
                .to_string()
        ),
        Just(
            "{\"op\":\"submit\",\"id\":\"x\",\"job\":{\"type\":\"reachability\",\
              \"max_iterations\":18446744073709551616}}"
                .to_string()
        ),
        Just("{\"op\":\"stats\"".to_string()),
        Just("null".to_string()),
    ]
}

// ----------------------------------------------------------------------
// The properties: every surface returns, no input panics.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes through every parser entry point.
    #[test]
    fn byte_soup_never_panics(text in byte_soup()) {
        let _ = parse_json(&text);
        let _ = parse_request(&text);
        let _ = parse_circuit(&text);
        let _ = parse_circuit_pair(&text, &text);
        let _ = parse_scenario(&text);
    }

    /// Near-miss DSL programs: either a circuit or a typed error with a
    /// renderable message — never a panic (duplicate wires included).
    #[test]
    fn near_miss_dsl_never_panics(program in dsl_program()) {
        if let Err(e) = qits_circuit::parse::parse_circuit(&program) {
            prop_assert!(!e.to_string().is_empty());
        }
        let _ = parse_circuit_pair(&program, "h 0");
        let _ = parse_circuit_pair("h 0", &program);
    }

    /// Adversarial scenario documents through the scenario parser.
    #[test]
    fn scenario_documents_never_panic(doc in scenario_doc()) {
        match parse_scenario(&doc) {
            // A parsed scenario must also survive spec construction and
            // circuit lookup — the CLI calls both on client input.
            Ok(s) => {
                let _ = s.to_spec();
                for (name, _) in &s.circuits {
                    let _ = s.circuit(name);
                }
                let _ = s.circuit("no-such-circuit");
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Request lines — including submits whose embedded circuits are
    /// near-miss DSL — through the wire-protocol parser.
    #[test]
    fn request_lines_never_panic(line in request_line()) {
        if let Err(e) = parse_request(&line) {
            prop_assert!(!e.is_empty());
        }
    }
}

/// The named regressions, pinned deterministically: each of these once
/// panicked (or could have) somewhere below the protocol layer.
#[test]
fn adversarial_corpus_is_typed_errors() {
    let corpus = [
        "cx 0 0",
        "swap 2 2",
        "ccx 0 1 0",
        "ccx 1 0 0",
        "cp 3 3 0.5",
        "h 18446744073709551616",
        "proj 0 2",
        "rz 0 not-a-number",
        "h 0 extra",
        "cx 0",
        "\u{0}\u{1}\u{2}",
        "h \u{221e}",
    ];
    for line in corpus {
        let err = qits_circuit::parse::parse_circuit(line)
            .expect_err(&format!("{line:?} must be refused"));
        assert!(!err.to_string().is_empty(), "{line:?}");
        // The same line smuggled through a wire-protocol equivalence job.
        let req = format!(
            "{{\"op\":\"submit\",\"id\":\"x\",\"job\":{{\"type\":\"equivalence\",\
             \"a\":\"{}\",\"b\":\"h 0\"}}}}",
            proto::escape_json(line)
        );
        assert!(parse_request(&req).is_err(), "{line:?} via equivalence");
    }

    // JSON-layer nasties: truncation, trailing junk, nesting bombs (the
    // parser's depth cap must turn a megabyte of '['s into a typed error,
    // not a stack overflow), and numbers that overflow the integer
    // conversions.
    for line in [
        "{\"op\":\"stats\"",
        "{\"op\":\"stats\"} trailing",
        &"[".repeat(1 << 20),
        &"{\"k\":".repeat(1 << 18),
        "{\"op\":\"submit\",\"id\":\"x\",\"job\":{\"type\":\"reachability\",\
         \"max_iterations\":18446744073709551616}}",
        "{\"op\":\"submit\",\"id\":\"x\",\"job\":{\"type\":\"invariant\",\
         \"n_qubits\":4294967296,\"max_iterations\":1,\"states\":[]}}",
    ] {
        assert!(parse_request(line).is_err(), "{line:?}");
    }
}

/// A `Write` sink the test can read back after `serve` hands ownership
/// of the stream to its poller thread.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The serve loop under fire: a deck of malformed, hostile, and valid
/// lines interleaved. Every bad line must come back as an `error` (or
/// `rejected`) event, every good job must still be answered, and the
/// loop must run through to its `bye` — the server outlives all of it.
#[test]
fn serve_loop_survives_adversarial_lines() {
    let deck = [
        "this is not json",
        "{\"op\":\"submit\",\"id\":\"dup\",\"job\":{\"type\":\"equivalence\",\
         \"a\":\"cx 0 0\",\"b\":\"h 0\"}}",
        "{\"op\":\"submit\",\"id\":\"arity\",\"job\":{\"type\":\"equivalence\",\
         \"a\":\"ccx 0 1\",\"b\":\"h 0\"}}",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"submit\",\"id\":\"notype\",\"job\":{}}",
        "{\"op\":\"submit\"}",
        "\u{0}\"\u{7f}{[",
        "{\"op\":\"submit\",\"id\":\"ok1\",\"job\":{\"type\":\"reachability\",\
         \"max_iterations\":8}}",
        "{\"op\":\"submit\",\"id\":\"ok2\",\"job\":{\"type\":\"equivalence\",\
         \"a\":\"h 1; cx 0 1; h 1\",\"b\":\"cz 0 1\"}}",
        "{\"op\":\"stats\"}",
        "{\"op\":\"shutdown\"}",
    ];
    let input = deck.join("\n");

    let pool = EnginePool::builder(EngineSpec::new(qits_circuit::generators::ghz(3)))
        .workers(2)
        .build()
        .expect("the fuzz pool must build");
    let sink = SharedSink::default();
    proto::serve(pool.handle(), Cursor::new(input), sink.clone()).expect("serve must not error");
    let stats = pool.shutdown();

    let output = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let errors = output.matches("\"event\": \"error\"").count()
        + output.matches("\"event\": \"rejected\"").count();
    assert!(
        errors >= 7,
        "each of the seven bad lines must produce an error or rejected \
         event; got {errors} in:\n{output}"
    );
    for id in ["ok1", "ok2"] {
        assert!(
            output.contains(&format!("\"event\": \"accepted\", \"id\": \"{id}\"")),
            "{id} must be accepted:\n{output}"
        );
        assert!(
            output.contains(&format!("\"id\": \"{id}\", \"status\": \"ok\"")),
            "{id} must still be answered after the hostile lines:\n{output}"
        );
    }
    assert!(
        output.contains("\"event\": \"stats\""),
        "stats must answer:\n{output}"
    );
    assert!(
        output.trim_end().ends_with("{\"event\": \"bye\"}"),
        "the loop must run through to its goodbye:\n{output}"
    );
    assert_eq!(stats.jobs_completed, 2, "{stats:?}");
    assert_eq!(stats.jobs_failed, 0, "{stats:?}");
}

/// A densified image past the amplitude bound (ghz21: 2^21 amplitudes)
/// comes back as an error event instead of wedging its worker, and the
/// server keeps answering.
#[test]
fn serve_refuses_an_oversized_dense_image_and_answers_on() {
    let deck = [
        "{\"op\":\"submit\",\"id\":\"dense\",\"job\":{\"type\":\"image\",\"densify\":true}}",
        "{\"op\":\"submit\",\"id\":\"after\",\"job\":{\"type\":\"image\"}}",
        "{\"op\":\"shutdown\"}",
    ];
    let pool = EnginePool::builder(EngineSpec::new(qits_circuit::generators::ghz(21)))
        .workers(1)
        .build()
        .expect("the ghz21 pool must build");
    let sink = SharedSink::default();
    proto::serve(pool.handle(), Cursor::new(deck.join("\n")), sink.clone())
        .expect("serve must not error");
    let stats = pool.shutdown();

    let output = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    assert!(
        output.contains("\"id\": \"dense\", \"status\": \"error\", \"error\": \"2^21 exceeds"),
        "the oversized answer must be an error event:\n{output}"
    );
    assert!(
        output.contains("\"id\": \"after\", \"status\": \"ok\""),
        "the server must answer after the refusal:\n{output}"
    );
    assert_eq!(
        (stats.jobs_completed, stats.jobs_failed),
        (1, 1),
        "{stats:?}"
    );
}
