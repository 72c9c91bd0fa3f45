//! Node accounting: the "max #node" and live-node figures an image reports
//! are exact.
//!
//! `ImageStats::live_nodes` claims to be "exactly what a collection would
//! keep", and these tests hold it to that: an explicit collection that
//! keeps the session and the answer leaves exactly that many nodes in the
//! arena, after a single image and after a reachability fixpoint, under
//! each strategy. The paper-size images then pin `(max_nodes,
//! live_nodes)` on fresh default engines, so a faster way of counting
//! cannot change a figure the paper's Table I reports.

use qits::{Engine, EngineBuilder, Strategy};
use qits_circuit::generators::{self, QtsSpec};

/// The strategies every accounting case runs under: Algorithm 1, the
/// paper's two-part addition partition, and the default contraction
/// partition.
fn strategies() -> [Strategy; 3] {
    [
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::default(),
    ]
}

fn engine(spec: &QtsSpec, strategy: Strategy) -> Engine {
    EngineBuilder::new()
        .strategy(strategy)
        .build_from_spec(spec)
        .unwrap()
}

/// Runs one image, collects keeping only the image, and returns the
/// image's `(live_nodes, nodes left in the arena)`.
fn image_live_and_kept(spec: &QtsSpec, strategy: Strategy) -> (usize, usize) {
    let mut e = engine(spec, strategy);
    let (img, stats) = e.image().unwrap();
    e.collect(&[&img]);
    (stats.live_nodes, e.manager().arena_occupied())
}

/// Runs a reachability fixpoint, collects keeping only the reachable
/// space, and returns the last iteration's `(live_nodes, nodes left in
/// the arena)`.
fn fixpoint_live_and_kept(spec: &QtsSpec, strategy: Strategy) -> (usize, usize) {
    let mut e = engine(spec, strategy);
    let r = e.reachable_space(200).unwrap();
    assert!(r.converged, "{} under {strategy}", spec.name);
    let last = r
        .stats
        .last()
        .expect("a fixpoint computes an image")
        .live_nodes;
    e.collect(&[&r.space]);
    (last, e.manager().arena_occupied())
}

fn qrw(n: u32) -> QtsSpec {
    generators::qrw(n, 0.125)
}

#[test]
fn image_live_nodes_are_what_a_collection_keeps() {
    let systems = [
        generators::qft(8),
        generators::ghz(20),
        qrw(6),
        generators::repetition_code(4),
        generators::grover(4),
        generators::bitflip_code(),
    ];
    for spec in &systems {
        for strategy in strategies() {
            let (live, kept) = image_live_and_kept(spec, strategy);
            assert_eq!(live, kept, "{} under {strategy}", spec.name);
        }
    }
    assert_eq!(
        image_live_and_kept(&generators::qft(8), Strategy::Basic).0,
        604
    );
    assert_eq!(
        image_live_and_kept(&generators::ghz(20), Strategy::default()).0,
        353
    );
}

#[test]
fn fixpoint_live_nodes_are_what_a_collection_keeps() {
    let systems = [
        generators::ghz(6),
        qrw(5),
        generators::repetition_code(4),
        generators::grover(4),
        generators::bitflip_code(),
        generators::random_clifford_t(5, 20, 0.125, 3),
    ];
    for spec in &systems {
        for strategy in strategies() {
            let (live, kept) = fixpoint_live_and_kept(spec, strategy);
            assert_eq!(live, kept, "{} under {strategy}", spec.name);
        }
    }
    assert_eq!(
        fixpoint_live_and_kept(&generators::ghz(6), Strategy::default()).0,
        503
    );
}

#[test]
fn paper_size_images_keep_their_node_figures() {
    let cases = [
        (generators::qft(32), (32, 1726)),
        (
            generators::bernstein_vazirani(60, &generators::bv_secret(60)),
            (119, 982),
        ),
        (generators::ghz(500), (999, 9113)),
        (qrw(100), (220, 4419)),
        (generators::repetition_code(8), (19, 409)),
    ];
    for (spec, want) in &cases {
        let mut e = EngineBuilder::new().build_from_spec(spec).unwrap();
        let (_, stats) = e.image().unwrap();
        assert_eq!(
            (stats.max_nodes, stats.live_nodes),
            *want,
            "{} (max_nodes, live_nodes)",
            spec.name
        );
    }
}
