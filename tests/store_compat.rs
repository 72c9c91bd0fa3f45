//! Format-compatibility guard over **committed** golden snapshots.
//!
//! `tests/fixtures/golden_v1.qsnap` was written by the version-1 codec
//! (see [`regenerate_golden_fixture`]) and is checked in. This suite
//! proves today's reader still accepts yesterday's bytes: if an edit to
//! the store crate changes the on-disk layout without bumping
//! `FORMAT_VERSION`, the fixture stops parsing (or parses to different
//! contents) and CI fails here — before a user's snapshot silently
//! rots.
//!
//! `tests/fixtures/golden_v1_position_major.qsnap` pins the other kind of
//! version-1 snapshot: one written under an explicit variable order,
//! which no build can write any more (see
//! [`position_major_fixture_path`]).
//!
//! To regenerate after an *intentional* format bump:
//!
//! ```text
//! cargo test -p qits --test store_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use qits::store::{decode_job_output, encode_job_output, Snapshot, FORMAT_VERSION};
use qits::{EngineBuilder, JobOutput};
use qits_circuit::generators;

/// The fixture's synthetic spec fingerprint — round-trip coverage for
/// the `Some` arm without tying the fixture to the live fingerprint
/// hash (whose inputs may legitimately evolve).
const GOLDEN_FINGERPRINT: u128 = 0x5152_5354_5556_5758_595A_0001_0002_0003;

/// Key of the fixture's single memo entry.
const GOLDEN_MEMO_KEY: u128 = 0x42;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_v1.qsnap")
}

/// A version-1 snapshot whose TDD dump nests its nodes under the
/// position-major variable order (every ket above every row) and carries
/// that order's list. Builds that could install an order wrote it with
///
/// ```text
/// let mut engine = EngineBuilder::new()
///     .static_order(StaticOrder::PositionMajor)
///     .build_from_spec(&generators::ghz(3))?;
/// let partial = engine.reachable_space(1)?;
/// engine.snapshot("golden-v1-position-major", Some(&partial))
/// ```
///
/// Those options are gone, so the fixture cannot be regenerated: it is
/// kept byte for byte.
fn position_major_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/golden_v1_position_major.qsnap")
}

/// The deterministic recipe behind the fixture: GHZ(3), one fixpoint
/// iteration, a synthetic fingerprint, and one memo entry. Everything
/// here is single-threaded and input-pinned, so regeneration is
/// byte-stable unless the codec itself changes.
fn golden_snapshot() -> Snapshot {
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .expect("ghz engine builds");
    let partial = engine.reachable_space(1).expect("one iteration");
    let mut snap = engine.snapshot("golden-v1", Some(&partial));
    snap.spec_fingerprint = Some(GOLDEN_FINGERPRINT);
    snap.memo.push(qits::store::MemoEntry {
        key: GOLDEN_MEMO_KEY,
        value: encode_job_output(&JobOutput::Equivalence { equivalent: true }),
    });
    snap
}

/// Rewrites the committed fixture. Run explicitly (`-- --ignored`)
/// after an intentional format change, and commit the result.
#[test]
#[ignore = "regenerates the committed fixture; run on intentional format bumps only"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    golden_snapshot().write_to(&path).unwrap();
    println!("wrote {}", path.display());
}

#[test]
fn golden_fixture_still_parses() {
    let snap = Snapshot::read_from(fixture_path())
        .expect("version-1 fixture must stay readable — see module docs");
    assert_eq!(snap.label, "golden-v1");
    assert_eq!(snap.spec_fingerprint, Some(GOLDEN_FINGERPRINT));
    assert!(snap.tdd.is_some(), "fixture carries a TDD dump");
    assert_eq!(snap.subspaces.len(), 2, "initial space + frontier");
    let reach = snap.reach.as_ref().expect("fixture checkpoints a fixpoint");
    assert_eq!(reach.iterations, 1);

    assert_eq!(snap.memo.len(), 1);
    assert_eq!(snap.memo[0].key, GOLDEN_MEMO_KEY);
    match decode_job_output(&snap.memo[0].value) {
        Ok(JobOutput::Equivalence { equivalent: true }) => {}
        other => panic!("memo entry decodes to {other:?}"),
    }
}

#[test]
fn golden_fixture_warm_starts_todays_engine() {
    let snap = Snapshot::read_from(fixture_path()).expect("fixture parses");
    // Built through `EngineBuilder` the engine carries no fingerprint,
    // so the synthetic one in the fixture is not compared.
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let resumed = engine
        .warm_start(&snap)
        .expect("v1 snapshot warm-starts")
        .expect("progress restored");
    assert_eq!(resumed.iterations, 1);

    // The restored frontier must be the frontier today's engine
    // computes for the same recipe.
    let mut fresh = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let expected = fresh.reachable_space(1).unwrap();
    assert_eq!(resumed.space.dim(), expected.space.dim());
    assert_eq!(resumed.converged, expected.converged);

    let continued = engine.resume_reachable_space(&resumed, 64).unwrap();
    assert!(continued.converged);
}

#[test]
fn reencoding_the_fixture_reproduces_its_bytes() {
    // decode ∘ encode must be the identity on the golden bytes: today's
    // *writer* still speaks version 1, not just today's reader. This
    // catches a layout change where reader and writer evolved together
    // (a mere re-read would still pass) without depending on engine
    // internals staying byte-deterministic forever.
    let committed = std::fs::read(fixture_path()).expect("fixture readable");
    let parsed = Snapshot::from_bytes(&committed).expect("fixture parses");
    assert_eq!(
        parsed.to_bytes(),
        committed,
        "re-encoding the parsed fixture diverged from the committed v1 \
         bytes — if the format changed intentionally, bump FORMAT_VERSION \
         (currently {FORMAT_VERSION}) and regenerate the fixture"
    );
}

#[test]
fn position_major_fixture_still_parses() {
    let snap = Snapshot::read_from(position_major_fixture_path())
        .expect("position-major v1 fixture must stay readable");
    assert_eq!(snap.label, "golden-v1-position-major");
    assert_eq!(snap.spec_fingerprint, None);
    assert!(snap.tdd.is_some(), "fixture carries a TDD dump");
    assert_eq!(snap.subspaces.len(), 2, "initial space + frontier");
    let reach = snap.reach.as_ref().expect("fixture checkpoints a fixpoint");
    assert_eq!(reach.iterations, 1);
    assert!(snap.memo.is_empty());
}

#[test]
fn position_major_fixture_warm_starts_and_resumes_a_natural_engine() {
    let snap = Snapshot::read_from(position_major_fixture_path()).expect("fixture parses");
    let mut engine = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let resumed = engine
        .warm_start(&snap)
        .expect("position-major snapshot warm-starts")
        .expect("progress restored");
    assert_eq!(resumed.iterations, 1);

    let mut fresh = EngineBuilder::new()
        .build_from_spec(&generators::ghz(3))
        .unwrap();
    let expected = fresh.reachable_space(1).unwrap();
    assert_eq!(resumed.space.dim(), expected.space.dim());
    assert_eq!(resumed.converged, expected.converged);

    let continued = engine.resume_reachable_space(&resumed, 64).unwrap();
    let straight = fresh.reachable_space(64).unwrap();
    assert!(continued.converged && straight.converged);
    assert_eq!(continued.space.dim(), straight.space.dim());
}
