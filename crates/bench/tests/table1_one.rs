//! Table I's subprocess protocol: `table1 --one <family> <n> <method>` runs
//! one case and prints the six fields the parent table reads with
//! [`CaseMeasurement::parse`]; a case it cannot build exits non-zero, which
//! the parent renders as `-`.

use std::process::Command;

use qits_bench::{CaseMeasurement, METHODS};

fn one(family: &str, n: &str, method: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--one", family, n, method])
        .output()
        .expect("table1 must start")
}

#[test]
fn every_method_prints_the_six_fields() {
    for method in METHODS {
        let out = one("ghz", "5", method);
        assert!(out.status.success(), "{method}: {out:?}");
        let line = String::from_utf8(out.stdout).unwrap();
        let case = CaseMeasurement::parse(&line)
            .unwrap_or_else(|| panic!("{method}: unparsable line {line:?}"));
        assert_eq!(line.split_whitespace().count(), 6, "{method}: {line:?}");
        assert!(case.secs >= 0.0, "{method}");
        assert!(case.max_nodes > 0, "{method}");
        assert!((0.0..=1.0).contains(&case.cont_hit_rate), "{method}");
        assert!(case.live_nodes > 0, "{method}");
        assert!(case.allocated_nodes >= case.live_nodes, "{method}");
        assert!(
            case.reclaimed_nodes > 0,
            "{method}: the collection after the image"
        );
    }
}

#[test]
fn a_case_that_cannot_be_built_exits_non_zero() {
    for (family, n, method) in [
        ("toffoli", "5", "contraction"),
        ("repcode", "40", "contraction"),
        ("ghz", "5", "auto"),
    ] {
        let out = one(family, n, method);
        assert!(!out.status.success(), "{family} {n} {method}: {out:?}");
        assert!(out.stdout.is_empty(), "{family} {n} {method}: {out:?}");
    }
}
