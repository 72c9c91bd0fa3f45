//! The benchmark's self-test: every workload runs and answers correctly,
//! the checker counts a wrong answer as failed, tracing changes no count,
//! and the printed metrics are the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use qits::Job;
use qits_perfbench::check::{dense_image_dim, expected_image, known_image_dim, Answer, Tally};
use qits_perfbench::deck::{self, Counts, Deck, DeckRun, Entry, Property};
use qits_perfbench::measure::{percentile, END_TO_END, PER_LAYER};
use qits_perfbench::serve::{self, Kind};
use qits_perfbench::systems::System;
use qits_perfbench::{run, RunConfig, Workload};

/// The shortest run the command line makes: five passes per deck, a
/// thousand stream jobs.
fn shortest(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn every_workload_answers_correctly() {
    for workload in Workload::ALL {
        let name = workload.name();
        let (outcome, _) = run(workload, &shortest(7, false)).expect("workload runs");
        let line = outcome.result_line(false).expect("every metric measured");
        assert!(line.contains("\"correct\": true"), "{name}: {line}");
        assert!(outcome.tally.attempted > 0, "{name}: nothing attempted");
        for (metric, _) in END_TO_END {
            let value = outcome.get(metric).unwrap_or(0.0);
            assert!(value > 0.0, "{name}: {metric} = {value}");
        }
    }
}

#[test]
fn a_collapsed_image_is_counted_as_failed() {
    // qft34's image collapses to dimension 0 in this build; its known
    // answer is 1.
    let mut tally = Tally::default();
    tally.record(
        "qft34",
        &expected_image(System::Qft(34)),
        &Answer::Image { dim: 0 },
    );
    tally.record(
        "an error",
        &Answer::Image { dim: 1 },
        &Answer::Error("node store exhausted".into()),
    );
    tally.record(
        "a right answer",
        &Answer::Image { dim: 1 },
        &Answer::Image { dim: 1 },
    );
    assert_eq!(
        tally,
        Tally {
            attempted: 3,
            failed: 2
        }
    );
}

#[test]
fn a_planted_wrong_answer_fails_its_pass() {
    // The program answers dim 1; the deck claims 2.
    let planted = Deck {
        entries: vec![Entry {
            system: System::Qft(32),
            properties: vec![Property {
                label: "qft32 image".into(),
                job: Job::image(),
                expected: Answer::Image { dim: 2 },
            }],
        }],
    };
    let mut setup = deck::set_up(&planted, None).expect("builds");
    let pass = deck::answer(&planted, &mut setup, None);
    assert_eq!(
        pass.tally,
        Tally {
            attempted: 1,
            failed: 1
        }
    );
    // A whole run reports it.
    let line = deck::run(&planted, &shortest(1, false))
        .expect("runs")
        .outcome(&planted)
        .result_line(false)
        .expect("every metric measured");
    assert!(line.contains("\"correct\": false"), "{line}");
    assert!(line.contains("\"attempted\": 5, \"failed\": 5"), "{line}");
}

#[test]
fn a_violated_invariant_is_judged_on_its_verdict() {
    let deck = Deck::reach_entangled();
    let violated = deck
        .entries
        .iter()
        .flat_map(|e| &e.properties)
        .find_map(|p| match p.expected {
            Answer::Invariant {
                holds: false, dim, ..
            } => Some((p.expected.clone(), dim)),
            _ => None,
        })
        .expect("the deck asks a violated invariant");
    let (expected, full) = violated;
    let answer = |holds, dim, converged| Answer::Invariant {
        holds,
        dim,
        converged,
    };
    // Stopping at the first escaping state leaves a partial, unconverged
    // space: still right.
    assert!(expected.accepts(&answer(false, 2, false)));
    assert!(expected.accepts(&answer(false, full, true)));
    assert!(!expected.accepts(&answer(true, full, true)));
    assert!(!expected.accepts(&answer(false, full + 1, true)));
    // A holding invariant still needs the whole converged space.
    let holding = answer(true, full, true);
    assert!(!holding.accepts(&answer(true, 2, false)));
    assert!(!holding.accepts(&answer(true, full, false)));
}

#[test]
fn the_stream_is_seeded() {
    let fingerprint = |seed| -> Vec<String> {
        serve::stream(seed, 200)
            .iter()
            .map(|j| format!("{:?} {} {:?}", j.kind, j.source, j.job))
            .collect()
    };
    assert_eq!(fingerprint(4), fingerprint(4));
    assert_ne!(fingerprint(4), fingerprint(5));
    // Every round of 20 has the same mix, whatever the seed.
    for round in serve::stream(9, 200).chunks(20) {
        let count = |kind| round.iter().filter(|j| j.kind == kind).count();
        let mix: Vec<usize> = Kind::ALL.into_iter().map(count).collect();
        assert_eq!(mix, [6, 3, 5, 2, 4]);
    }
}

#[test]
fn tracing_changes_no_count() {
    let counts = |run: &DeckRun| -> Vec<(Counts, Tally)> {
        run.passes
            .iter()
            .map(|(_, p)| (p.counts.clone(), p.tally))
            .collect()
    };
    for deck in [Deck::reach_entangled(), Deck::image_paper()] {
        let traced = deck::run(&deck, &shortest(3, true)).expect("traced run");
        let untraced = deck::run(&deck, &shortest(3, false)).expect("untraced run");
        let spans = traced.trace.as_ref().expect("spans recorded").spans();
        assert!(spans.iter().any(|s| s.images.is_some()));
        assert_eq!(traced.passes.iter().filter(|(t, _)| *t).count(), 3);
        // Every pass of either run counts exactly the same work.
        let first = counts(&untraced)[0].clone();
        assert!(counts(&traced)
            .iter()
            .chain(&counts(&untraced))
            .all(|c| *c == first));
        traced
            .outcome(&deck)
            .result_line(true)
            .expect("every per-layer metric");
    }
}

#[test]
fn the_percentile_helper_refuses_thin_tails() {
    // Ten samples beyond the 99th percentile take 902 samples.
    let samples: Vec<f64> = (0..1000).map(f64::from).collect();
    let p99 = percentile(&samples[..902], 0.99).expect("ten samples beyond");
    assert!((p99 - 891.99).abs() < 1e-9, "{p99}");
    assert_eq!(percentile(&samples[..901], 0.99), None);
    assert_eq!(percentile(&samples[..20], 0.5), Some(9.5));
    assert_eq!(percentile(&samples[..19], 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn known_answers_match_the_dense_oracle_on_small_registers() {
    for system in [
        System::Qft(5),
        System::Bv(6),
        System::Ghz(6),
        System::Qrw(5),
        System::GroverElem(4),
        System::RepCode(3),
    ] {
        let spec = system.spec();
        assert!(spec.n_qubits <= 8, "{}", system.name());
        assert_eq!(
            known_image_dim(system),
            dense_image_dim(&spec),
            "{}",
            system.name()
        );
    }
}

#[test]
fn the_decks_ask_the_intended_questions() {
    let holds = |deck: &Deck| -> Vec<bool> {
        deck.entries
            .iter()
            .flat_map(|e| &e.properties)
            .filter_map(|p| match p.expected {
                Answer::Invariant { holds, .. } => Some(holds),
                _ => None,
            })
            .collect()
    };
    assert_eq!(holds(&Deck::reach_entangled()), [true, false]);
    assert_eq!(Deck::reach_entangled().property_count(), 4);
    assert_eq!(Deck::image_paper().property_count(), 6);
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let declared = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(declared.contains(&entry), "{entry} not declared");
    }
    for workload in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", workload.name());
        assert!(declared.contains(&entry), "{entry} not declared");
    }
    assert_eq!(
        declared.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
