//! The session's reachability chain: one engine computes its system's
//! image chain `S0 ⊆ S1 ⊆ ... ⊆ S_L` once and answers every later
//! reachability bound and invariant from it.
//!
//! Every answer a warm engine gives — read off the chain, read as a prefix
//! of it, or after extending it — must equal a fresh engine's, and the
//! chain must never outlive what it was computed from: a strategy change,
//! a collection that swept it, or an extension that failed part-way
//! (node cap or cancellation) drops it, and the next call computes it
//! again.

use qits::mc::ReachabilityResult;
use qits::{Engine, EngineBuilder, EngineSpec, QitsError, Strategy, Subspace};
use qits_circuit::generators::{self, QtsSpec};
use qits_circuit::tensorize::states;
use qits_circuit::{Circuit, Gate, Operation};
use qits_num::Cplx;
use qits_tdd::CancelToken;

/// Dimension, iterations and convergence of a reachability answer.
fn key(r: &ReachabilityResult) -> (usize, usize, bool) {
    (r.space.dim(), r.iterations, r.converged)
}

/// A fresh session with the default strategy.
fn fresh(spec: &QtsSpec) -> Engine {
    EngineBuilder::new().build_from_spec(spec).unwrap()
}

/// A fresh session's answer to `reachable_space(b)`.
fn fresh_reach(spec: &QtsSpec, b: usize) -> (Engine, ReachabilityResult) {
    let mut engine = fresh(spec);
    let r = engine.reachable_space(b).unwrap();
    (engine, r)
}

/// `L`: the iterations a fresh run needs to converge.
fn chain_length(spec: &QtsSpec) -> usize {
    let (_, r) = fresh_reach(spec, 1 << 10);
    assert!(r.converged, "{}", spec.name);
    r.iterations
}

/// Whether `a` (on `ea`'s manager) and `b` (on `eb`'s) span the same
/// space: `a`'s basis is imported into `eb`'s manager and compared there.
fn same_space(ea: &Engine, a: &Subspace, eb: &mut Engine, b: &Subspace) -> bool {
    let kets: Vec<_> = a
        .basis()
        .iter()
        .map(|&k| eb.manager_mut().import(ea.manager(), k))
        .collect();
    let imported = eb.subspace_from_states(&kets).unwrap();
    imported.equals(eb.manager_mut(), b)
}

/// Product states, one `(alpha, beta)` amplitude pair per qubit.
type Rows = Vec<Vec<(Cplx, Cplx)>>;

/// The product rows of the computational basis states `bits` of an
/// `n`-qubit register.
fn basis_rows(n: usize, bits: &[usize]) -> Rows {
    bits.iter()
        .map(|&b| {
            (0..n)
                .map(|q| {
                    if (b >> (n - 1 - q)) & 1 == 1 {
                        states::ONE
                    } else {
                        states::ZERO
                    }
                })
                .collect()
        })
        .collect()
}

/// A holding invariant (every basis state) and a violated one (`|0..0>`)
/// on an `n`-qubit register.
fn invariants(n: usize) -> [(Rows, bool); 2] {
    let all: Vec<usize> = (0..1 << n).collect();
    [(basis_rows(n, &all), true), (basis_rows(n, &[0]), false)]
}

/// `0..=top` in a fixed scrambled order that starts inside the chain, so
/// the warm engine extends a partial chain, reads prefixes of it and
/// reads past its fixpoint.
fn scrambled(top: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..=top).collect();
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mid = order.iter().position(|&b| b == top / 2).unwrap();
    order.swap(0, mid);
    order
}

#[test]
fn every_bound_reads_the_chain_like_a_fresh_engine() {
    for spec in [
        generators::qrw(4, 0.25),
        generators::qrw(6, 0.25),
        generators::ghz(5),
        generators::ghz(7),
    ] {
        let l = chain_length(&spec);
        let mut warm = fresh(&spec);
        let mut computed = 0;
        for b in scrambled(l + 2) {
            let got = warm.reachable_space(b).unwrap();
            computed += got.stats.len();
            let (mut base, want) = fresh_reach(&spec, b);
            assert_eq!(key(&got), key(&want), "{} at bound {b}", spec.name);
            assert!(
                same_space(&warm, &got.space, &mut base, &want.space),
                "{} at bound {b}",
                spec.name
            );
        }
        assert_eq!(computed, l, "{}: each iteration is imaged once", spec.name);
    }
}

#[test]
fn a_full_start_converges_only_under_a_positive_bound() {
    // S0 is the whole register, so the chain converges with no image
    // (L = 0); a bound of 0 still reports no convergence, warm or fresh.
    let mut h = Circuit::new(2);
    h.push(Gate::h(0));
    let build = || {
        EngineBuilder::new()
            .build_with(2, vec![Operation::from_circuit("h", &h)], |m| {
                Subspace::full(m, 2)
            })
            .unwrap()
    };
    let mut warm = build();
    for b in [3, 0, 1] {
        let got = warm.reachable_space(b).unwrap();
        let want = build().reachable_space(b).unwrap();
        assert_eq!(key(&got), key(&want), "bound {b}");
        assert_eq!(key(&got), (4, 0, b >= 1), "bound {b}");
        assert!(got.stats.is_empty());
    }
}

#[test]
fn invariants_and_reaches_share_the_chain() {
    let spec = generators::qrw(4, 0.25);
    let l = chain_length(&spec);
    for (rows, holds) in invariants(4) {
        for bound in [l / 2, l + 2] {
            // A reach, then an invariant read off its chain.
            let mut warm = fresh(&spec);
            let got = warm.reachable_space(bound).unwrap();
            assert_eq!(key(&got), key(&fresh_reach(&spec, bound).1));
            let inv = warm.subspace_from_product_states(&rows).unwrap();
            let (verdict, r) = warm.check_invariant(&inv, bound).unwrap();
            let mut base = fresh(&spec);
            let base_inv = base.subspace_from_product_states(&rows).unwrap();
            let (want, want_r) = base.check_invariant(&base_inv, bound).unwrap();
            assert_eq!((verdict, key(&r)), (want, key(&want_r)), "bound {bound}");
            assert!(r.stats.is_empty(), "the invariant reads the chain");
            assert_eq!(verdict, holds, "bound {bound}");

            // An invariant, then a reach read off its chain.
            let mut warm = fresh(&spec);
            let inv = warm.subspace_from_product_states(&rows).unwrap();
            let (verdict, r) = warm.check_invariant(&inv, bound).unwrap();
            assert_eq!((verdict, key(&r)), (want, key(&want_r)), "bound {bound}");
            let got = warm.reachable_space(bound).unwrap();
            assert_eq!(key(&got), key(&want_r), "bound {bound}");
            assert!(got.stats.is_empty(), "the reach reads the chain");
        }
    }
}

#[test]
fn aggressive_gc_interleaving_keeps_the_chain() {
    // One session answers reach, equivalence, `image_of` and invariant
    // calls in turn and collects after every one: the chain survives
    // every collection, so a repeated reach computes nothing, and every
    // answer matches a fresh session's that never collects.
    let spec = generators::qrw(4, 0.25);
    let l = chain_length(&spec);
    let mut engine = EngineSpec::new(spec.clone()).build().unwrap();
    let mut reclaimed = 0;
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let mut cx3 = Circuit::new(2);
    cx3.push(Gate::cx(0, 1));
    cx3.push(Gate::cx(1, 0));
    cx3.push(Gate::cx(0, 1));

    for round in 0..2 {
        for bound in [l + 2, l / 2] {
            let got = engine.reachable_space(bound).unwrap();
            let (mut base, want) = fresh_reach(&spec, bound);
            assert_eq!(key(&got), key(&want), "round {round}, bound {bound}");
            assert!(same_space(&engine, &got.space, &mut base, &want.space));
            if round > 0 || bound < l {
                assert!(got.stats.is_empty(), "round {round}: a repeated reach");
            }
            reclaimed += engine.collect(&[]).reclaimed;
        }

        assert!(engine.equivalent(&swap, &cx3).unwrap());
        reclaimed += engine.collect(&[]).reclaimed;

        let rows = basis_rows(4, &[5, 6]);
        let input = engine.subspace_from_product_states(&rows).unwrap();
        let (img, _) = engine.image_of(&input).unwrap();
        let mut base = fresh(&spec);
        let base_input = base.subspace_from_product_states(&rows).unwrap();
        let (want, _) = base.image_of(&base_input).unwrap();
        assert!(same_space(&engine, &img, &mut base, &want));
        reclaimed += engine.collect(&[]).reclaimed;

        let want = fresh_reach(&spec, l + 2).1;
        for (rows, holds) in invariants(4) {
            let inv = engine.subspace_from_product_states(&rows).unwrap();
            let (verdict, r) = engine.check_invariant(&inv, l + 2).unwrap();
            assert_eq!((verdict, key(&r)), (holds, key(&want)), "round {round}");
            assert!(
                r.stats.is_empty(),
                "round {round}: the invariant reads the chain"
            );
            reclaimed += engine.collect(&[]).reclaimed;
        }

        let again = engine.reachable_space(l + 2).unwrap();
        assert!(
            again.stats.is_empty(),
            "round {round}: collect kept the chain"
        );
        assert_eq!(key(&again), key(&fresh_reach(&spec, l + 2).1));
        reclaimed += engine.collect(&[]).reclaimed;
    }
    assert!(reclaimed > 0, "the calls left garbage to collect");
}

#[test]
fn a_refused_invariant_keeps_the_chain() {
    // An invariant of the wrong width and one a collection swept are
    // refused before any fixpoint work: the chain the first reach built
    // still answers the second without an image.
    let spec = generators::qrw(4, 0.25);
    let mut engine = fresh(&spec);
    let first = engine.reachable_space(1000).unwrap();
    assert!(first.converged && !first.stats.is_empty());

    let err = engine
        .check_invariant(&Subspace::zero(3), 1000)
        .unwrap_err();
    assert!(matches!(err, QitsError::RegisterMismatch { .. }), "{err}");

    let amps = (Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8));
    let swept = engine
        .subspace_from_product_states(&[vec![amps; 4]])
        .unwrap();
    assert!(engine.collect(&[]).reclaimed > 0);
    assert!(!engine.manager().is_live(swept.basis()[0]), "swept");
    let err = engine.check_invariant(&swept, 1000).unwrap_err();
    assert!(matches!(err, QitsError::StaleHandle { .. }), "{err}");

    let again = engine.reachable_space(1000).unwrap();
    assert!(again.stats.is_empty(), "the refusals kept the chain");
    assert_eq!(key(&again), key(&first));
}

#[test]
fn a_swept_chain_is_recomputed() {
    // A collection through `manager_mut()` that retains only the system
    // sweeps the chain; the next reach notices and computes it again.
    let spec = generators::qrw(4, 0.25);
    let l = chain_length(&spec);
    let mut engine = fresh(&spec);
    engine.reachable_space(l).unwrap();
    let system = engine.qts().clone();
    assert!(engine.manager_mut().collect(&[&system]).reclaimed > 0);
    let r = engine.reachable_space(l + 2).unwrap();
    assert_eq!(r.stats.len(), l, "the swept chain is recomputed, not read");
    let (mut base, want) = fresh_reach(&spec, l + 2);
    assert_eq!(key(&r), key(&want));
    assert!(same_space(&engine, &r.space, &mut base, &want.space));
}

/// Checks that a session whose extension from `S_2` failed answers every
/// bound like a fresh one, computing the chain again from `S0`.
fn answers_from_scratch(engine: &mut Engine, spec: &QtsSpec, l: usize) {
    let r = engine.reachable_space(3).unwrap();
    assert_eq!(r.stats.len(), 3, "the failed chain was dropped");
    for b in [3, 1, l + 2, 2] {
        let got = engine.reachable_space(b).unwrap();
        let (mut base, want) = fresh_reach(spec, b);
        assert_eq!(key(&got), key(&want), "bound {b}");
        assert!(same_space(engine, &got.space, &mut base, &want.space));
    }
}

#[test]
fn a_node_cap_hit_mid_extension_drops_the_chain() {
    // A probe session measures the arena after iterations 2 and 3; the
    // real one extends its 2-iteration chain under a cap that lets
    // iteration 3 finish and stops iteration 4 part-way.
    let spec = generators::qrw(4, 0.25);
    let l = chain_length(&spec);
    assert!(l > 4);
    let mut probe = fresh(&spec);
    probe.reachable_space(2).unwrap();
    probe.reachable_space(3).unwrap();
    let cap = probe.manager().arena_len() + 1;

    let mut engine = fresh(&spec);
    engine.reachable_space(2).unwrap();
    engine.manager_mut().set_node_capacity(cap);
    let err = engine.reachable_space(l + 2).unwrap_err();
    assert!(matches!(err, QitsError::ArenaExhausted { .. }), "{err}");
    engine.manager_mut().set_node_capacity(usize::MAX);
    answers_from_scratch(&mut engine, &spec, l);
}

#[test]
fn a_cancellation_mid_extension_drops_the_chain() {
    // The same, with a token that trips at the first safepoint poll of
    // iteration 4, counted on a probe session.
    let spec = generators::qrw(4, 0.25);
    let l = chain_length(&spec);
    let mut probe = fresh(&spec);
    probe.reachable_space(2).unwrap();
    let counter = CancelToken::new();
    probe.set_cancel_token(Some(counter.clone()));
    probe.reachable_space(3).unwrap();
    assert!(counter.polls() > 0);

    let mut engine = fresh(&spec);
    engine.reachable_space(2).unwrap();
    let token = CancelToken::cancel_after(counter.polls() + 1);
    engine.set_cancel_token(Some(token.clone()));
    let err = engine.reachable_space(l + 2).unwrap_err();
    assert_eq!(err, QitsError::Cancelled);
    assert_eq!(token.polls(), counter.polls() + 1);
    engine.set_cancel_token(None);
    answers_from_scratch(&mut engine, &spec, l);
}

#[test]
fn set_strategy_drops_the_chain() {
    let spec = generators::qrw(4, 0.25);
    let l = chain_length(&spec);
    let mut engine = fresh(&spec);
    engine.reachable_space(l + 2).unwrap();
    assert!(engine.reachable_space(l + 2).unwrap().stats.is_empty());
    engine.set_strategy(Strategy::Basic);
    let r = engine.reachable_space(l + 2).unwrap();
    assert_eq!(r.stats.len(), l, "the new strategy computes its own chain");
    let mut basic = EngineBuilder::new()
        .strategy(Strategy::Basic)
        .build_from_spec(&spec)
        .unwrap();
    let want = basic.reachable_space(l + 2).unwrap();
    assert_eq!(key(&r), key(&want));
    assert_eq!(
        r.stats.iter().map(|s| s.max_nodes).collect::<Vec<_>>(),
        want.stats.iter().map(|s| s.max_nodes).collect::<Vec<_>>(),
        "the images ran the basic kernel"
    );
    assert!(same_space(&engine, &r.space, &mut basic, &want.space));
}
