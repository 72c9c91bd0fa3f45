//! Grep-enforced API-surface contract: retired machinery stays retired.
//!
//! * **Relocation.** Collection never moves a node, so the `Relocations`
//!   side-table, the `Relocatable` trait, and the `gc_restore` hook must
//!   not exist anywhere in the workspace source.
//! * **Variable ordering.** Every diagram is built under one variable
//!   order, the natural order of `Var` (the paper's interleaved
//!   `x1 < y1 < x2 < y2 < …`). The static-order heuristics, order
//!   installation, level swaps, sifting, its GC schedule and its
//!   environment override must not come back.
//! * **Automatic collection.** A collection runs only where a caller asks
//!   for one, and keeps exactly the holders it is handed. The collection
//!   policy, the incremental sweep, in-call collections and the root
//!   registry they needed must not come back.
//! * **Cache epochs.** A collection clears the operation caches, so no
//!   entry outlives one. The epoch-tagged probe, the re-validation of
//!   pre-collection entries and the targeted purge must not come back.
//!   (The bare word "epoch" is not forbidden: the counting walk keeps a
//!   stamp epoch of its own.)
//!
//! None may reappear as a public item, as `pub(crate)` plumbing, or
//! even as dead private code waiting to be resurrected. The tests walk
//! every `crates/*/src` tree and fail on any occurrence, quoting file
//! and line so a regression is a one-click fix.
//!
//! The forbidden names are assembled with `concat!` so this file does
//! not match itself if it ever migrates into a scanned tree.

use std::fs;
use std::path::{Path, PathBuf};

/// Identifiers of the retired relocation machinery. Assembled at compile
/// time from halves so the scanner cannot trip over its own source.
fn relocation_names() -> [&'static str; 3] {
    [
        concat!("Reloc", "ations"),
        concat!("Reloc", "atable"),
        concat!("gc_", "restore"),
    ]
}

/// Identifiers of the retired variable-ordering machinery, assembled the
/// same way.
fn ordering_names() -> [&'static str; 6] {
    [
        concat!("Reorder", "Policy"),
        concat!("Static", "Order"),
        concat!("install", "_order"),
        concat!("swap_adjacent", "_levels"),
        concat!("sift", "_all"),
        concat!("QITS_", "REORDER"),
    ]
}

/// Identifiers of the retired automatic-collection machinery, assembled
/// the same way.
fn automatic_collection_names() -> [&'static str; 10] {
    [
        concat!("Gc", "Policy"),
        concat!("gc_", "policy"),
        concat!("maybe_", "collect"),
        concat!("sweep_", "budget"),
        concat!("sweep_in", "_progress"),
        concat!("Root", "Scope"),
        concat!("Root", "Id"),
        concat!("unpro", "tect"),
        concat!("collect_", "retaining"),
        concat!("image_of", "_keeping"),
    ]
}

/// Identifiers of the retired cache-epoch machinery, assembled the same
/// way.
fn cache_epoch_names() -> [&'static str; 7] {
    [
        concat!("Cache", "Lookup"),
        concat!("purge", "_stale"),
        concat!("reject", "_stale"),
        concat!("stale_value", "_admissible"),
        concat!("bump", "_epoch"),
        concat!("retain", "_with"),
        concat!("on_", "collect"),
    ]
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `crates/<name>/src` tree of the workspace, relative to this
/// test's compile-time location (the repository-root `tests/`).
fn workspace_source_roots() -> Vec<PathBuf> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/core has a workspace root two levels up")
        .to_path_buf();
    let crates = repo_root.join("crates");
    let mut roots = Vec::new();
    for entry in fs::read_dir(&crates).expect("workspace crates/ directory") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    assert!(
        roots.len() >= 5,
        "expected the full workspace under crates/, found {roots:?}"
    );
    roots
}

/// Every line of every workspace source that names one of `names`, as
/// `path:line: name: text`.
fn occurrences(names: &[&str]) -> Vec<String> {
    let mut sources = Vec::new();
    for root in workspace_source_roots() {
        rust_sources(&root, &mut sources);
    }
    assert!(
        sources.len() > 20,
        "scanner found suspiciously few files: {sources:?}"
    );
    let mut hits = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (lineno, line) in text.lines().enumerate() {
            for name in names {
                if line.contains(name) {
                    hits.push(format!("{}:{}: {name}: {line}", path.display(), lineno + 1));
                }
            }
        }
    }
    hits
}

#[test]
fn relocation_machinery_is_gone_from_every_crate() {
    let hits = occurrences(&relocation_names());
    assert!(
        hits.is_empty(),
        "retired relocation identifiers resurfaced:\n{}",
        hits.join("\n")
    );
}

#[test]
fn variable_ordering_machinery_is_gone_from_every_crate() {
    let hits = occurrences(&ordering_names());
    assert!(
        hits.is_empty(),
        "retired variable-ordering identifiers resurfaced:\n{}",
        hits.join("\n")
    );
}

#[test]
fn automatic_collection_machinery_is_gone_from_every_crate() {
    let hits = occurrences(&automatic_collection_names());
    assert!(
        hits.is_empty(),
        "retired automatic-collection identifiers resurfaced:\n{}",
        hits.join("\n")
    );
}

#[test]
fn cache_epoch_machinery_is_gone_from_every_crate() {
    let hits = occurrences(&cache_epoch_names());
    assert!(
        hits.is_empty(),
        "retired cache-epoch identifiers resurfaced:\n{}",
        hits.join("\n")
    );
}

#[test]
fn generational_surface_is_present() {
    // The flip side of the contract: the replacement surface the docs
    // promise must actually exist where the docs say it lives.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let tdd_lib = fs::read_to_string(repo_root.join("crates/tdd/src/lib.rs")).expect("tdd lib.rs");
    for name in ["EdgeHolder", "GcOutcome", "ArenaExhausted"] {
        assert!(
            tdd_lib.contains(name),
            "crates/tdd must re-export {name} as part of the generational GC surface"
        );
    }
}
