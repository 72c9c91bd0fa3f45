//! Operation caching is manager-owned, so repeated image computations in
//! one engine session reuse each other's work, and the hit rates are
//! observable from `ImageStats` / `ManagerStats`.

use qits::{EngineBuilder, Strategy};
use qits_circuit::generators;

#[test]
fn second_contraction_image_hits_the_cache() {
    let mut engine = EngineBuilder::new()
        .strategy(Strategy::Contraction { k1: 2, k2: 2 })
        .build_from_spec(&generators::grover(3))
        .unwrap();

    let (img1, stats1) = engine.image().unwrap();
    let (img2, stats2) = engine.image().unwrap();

    assert!(
        img1.equals(engine.manager_mut(), &img2),
        "same computation, same image"
    );
    assert!(
        stats2.cont_cache.hits > 0,
        "second image() run in the same session must hit the contraction \
         cache: {:?}",
        stats2.cont_cache
    );
    assert!(
        stats2.cont_hit_rate() > stats1.cont_hit_rate(),
        "reuse must increase on the repeat run: first {:.3}, second {:.3}",
        stats1.cont_hit_rate(),
        stats2.cont_hit_rate()
    );
    // The manager-level view agrees with the per-run deltas.
    let total = engine.manager().stats();
    assert!(total.cont_cache.hits >= stats1.cont_cache.hits + stats2.cont_cache.hits);
}

#[test]
fn contraction_partition_reuses_within_a_single_run() {
    // Multiple basis states against the same pre-contracted blocks: the
    // reuse the paper's contraction partition depends on shows up as a
    // nonzero hit rate already within one image() call (Grover's initial
    // subspace has dimension 2).
    let mut engine = EngineBuilder::new()
        .strategy(Strategy::Contraction { k1: 2, k2: 2 })
        .build_from_spec(&generators::grover(3))
        .unwrap();
    assert!(
        engine.initial().dim() >= 2,
        "need >= 2 basis states for reuse"
    );
    let (_, stats) = engine.image().unwrap();
    assert!(
        stats.cont_cache.hits > 0,
        "block-against-state contractions must share structure: {:?}",
        stats.cont_cache
    );
    assert!(stats.cont_hit_rate() > 0.0);
}

#[test]
fn image_stats_cache_counters_cover_all_strategies() {
    for strategy in [
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::Contraction { k1: 2, k2: 2 },
    ] {
        let mut engine = EngineBuilder::new()
            .strategy(strategy)
            .build_from_spec(&generators::ghz(4))
            .unwrap();
        let (_, stats) = engine.image().unwrap();
        assert!(
            stats.cont_cache.lookups() > 0,
            "{strategy}: image() must exercise the contraction cache"
        );
        let rate = stats.cont_hit_rate();
        assert!(
            (0.0..=1.0).contains(&rate),
            "{strategy}: hit rate out of range: {rate}"
        );
    }
}

#[test]
fn caching_disabled_computes_the_same_image() {
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };

    let mut cached = EngineBuilder::new()
        .strategy(strategy)
        .build_from_spec(&generators::grover(3))
        .unwrap();
    let (img_c, stats_c) = cached.image().unwrap();

    let mut plain = EngineBuilder::new()
        .strategy(strategy)
        .cache_capacity(0)
        .build_from_spec(&generators::grover(3))
        .unwrap();
    let (img_p, stats_p) = plain.image().unwrap();

    assert_eq!(img_c.dim(), img_p.dim());
    assert_eq!(stats_c.output_dim, stats_p.output_dim);
    assert_eq!(stats_p.cont_cache.hits, 0, "disabled cache must never hit");
    // Same subspace: every cached basis vector lies in the uncached image.
    for &b in img_c.basis() {
        let moved = plain.manager_mut().import(cached.manager(), b);
        assert!(
            img_p.contains(plain.manager_mut(), moved),
            "cached image vector escapes the uncached image"
        );
    }
}

#[test]
fn a_streaming_image_keeps_its_contraction_table_small() {
    // A ghz300 image makes tens of thousands of distinct contraction
    // lookups and few hits: its table stays near its starting size, and
    // the evicted entries it recomputes rebuild the very nodes an uncached
    // run builds.
    let run = |capacity: Option<usize>| {
        let mut builder = EngineBuilder::new();
        if let Some(c) = capacity {
            builder = builder.cache_capacity(c);
        }
        let mut engine = builder.build_from_spec(&generators::ghz(300)).unwrap();
        let (image, _) = engine.image().unwrap();
        assert_eq!(image.dim(), 1);
        let created = engine.manager().stats().nodes_created;
        (created, engine.manager().cache_sizes().cont)
    };
    let (cached_nodes, cont_entries) = run(None);
    let (uncached_nodes, _) = run(Some(0));
    assert_eq!(cached_nodes, uncached_nodes);
    assert_eq!(cached_nodes, 29_382);
    assert!(cont_entries <= 8_192, "{cont_entries} contraction entries");
}
