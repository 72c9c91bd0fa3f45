//! Garbage-collection integration tests: a forced collection preserves
//! semantics across random circuits, handles held across collections are
//! bit-identical or detectably stale (never silently recycled), and GC'd
//! reachability fixpoints keep the node store bounded by the live set.

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as _;

use qits::{mc, try_image, QuantumTransitionSystem, Strategy, Subspace};
use qits_circuit::{generators, Circuit, Gate, Operation};
use qits_num::Cplx;
use qits_tdd::{GcPolicy, TddManager};
use qits_tensornet::{contract_network, TensorNetwork};

fn arb_gate(n: u32) -> impl proptest::strategy::Strategy<Value = Gate> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::z),
        (q.clone(), 0.0..std::f64::consts::TAU).prop_map(|(q, t)| Gate::phase(q, t)),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cx(a, b))),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| Gate::cz(a, b))),
    ]
}

fn arb_circuit(n: u32, max_len: usize) -> impl proptest::strategy::Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..=max_len).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

fn arb_amp() -> impl proptest::strategy::Strategy<Value = (Cplx, Cplx)> {
    (0.0..std::f64::consts::PI, 0.0..std::f64::consts::TAU).prop_map(|(theta, phi)| {
        (
            Cplx::real((theta / 2.0).cos()),
            Cplx::from_polar((theta / 2.0).sin(), phi),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Forced `collect()` preserves semantics: contraction, addition, and
    /// inner-product results over a random circuit are **bit-identical**
    /// after protect → collect — collection never moves a node, so the
    /// held edges need no fixup at all.
    #[test]
    fn forced_collect_preserves_operation_results(
        circuit in arb_circuit(3, 8),
        amps1 in proptest::collection::vec(arb_amp(), 3),
        amps2 in proptest::collection::vec(arb_amp(), 3),
    ) {
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(3);
        let psi1 = m.product_ket(&vars, &amps1);
        let psi2 = m.product_ket(&vars, &amps2);
        let net = TensorNetwork::from_circuit(&mut m, &circuit);

        // Reference results, before any collection.
        let op_before = contract_network(&mut m, net.tensors(), &net.external_vars());
        let sum_before = m.add(psi1, psi2);
        let ip_before = m.inner_product(psi1, psi2, &vars);

        // Protect the inputs and the results, collect.
        let mut roots = vec![m.protect(psi1), m.protect(psi2)];
        roots.push(m.protect(op_before.edge));
        roots.push(m.protect(sum_before));
        roots.extend(net.protect(&mut m));
        let _ = m.collect();
        prop_assert!(m.is_live(psi1) && m.is_live(psi2));
        prop_assert!(m.is_live(op_before.edge) && m.is_live(sum_before));
        m.unprotect_all(roots);

        // Recomputing after the collection reproduces the held results
        // exactly — hash-consing lands on the surviving nodes.
        let op_after = contract_network(&mut m, net.tensors(), &net.external_vars());
        prop_assert_eq!(op_after.edge, op_before.edge, "contraction changed across GC");
        let sum_after = m.add(psi1, psi2);
        prop_assert_eq!(sum_after, sum_before, "addition changed across GC");
        let ip_after = m.inner_product(psi1, psi2, &vars);
        prop_assert!(ip_after.approx_eq(ip_before), "inner product changed across GC");
    }

    /// The generational-handle contract: an edge held across forced
    /// collections is either still valid (its subgraph was rooted, and
    /// rebuilding the same diagram returns the *same* handle) or
    /// detectably stale — and a stale handle is never silently recycled:
    /// rebuilding the same diagram after its slot was swept yields a
    /// *different* handle (fresh generation), and churning the store with
    /// new allocations never flips the stale handle back to live.
    #[test]
    fn held_handles_stay_valid_or_detectably_stale(
        circuit in arb_circuit(3, 8),
        amps1 in proptest::collection::vec(arb_amp(), 3),
        amps2 in proptest::collection::vec(arb_amp(), 3),
    ) {
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(3);
        let psi1 = m.product_ket(&vars, &amps1);
        let psi2 = m.product_ket(&vars, &amps2);
        let net = TensorNetwork::from_circuit(&mut m, &circuit);
        let op = contract_network(&mut m, net.tensors(), &net.external_vars());
        let sum = m.add(psi1, psi2);
        let held = [psi1, psi2, op.edge, sum];

        // Root only psi1; everything else survives only if it happens to
        // share psi1's subgraph.
        let root = m.protect(psi1);
        let _ = m.collect();
        let _ = m.collect();
        let live_after_gc: Vec<bool> = held.iter().map(|&e| m.is_live(e)).collect();
        prop_assert!(live_after_gc[0], "the rooted edge must survive");

        // Churn: rebuild everything, forcing swept slots to be reused
        // under new generations.
        let re_psi1 = m.product_ket(&vars, &amps1);
        let re_psi2 = m.product_ket(&vars, &amps2);
        // The old network's gate tensors were swept with everything else,
        // so rebuild it from the circuit before re-contracting.
        let re_net = TensorNetwork::from_circuit(&mut m, &circuit);
        let re_op = contract_network(&mut m, re_net.tensors(), &re_net.external_vars());
        let re_sum = m.add(re_psi1, re_psi2);
        let rebuilt = [re_psi1, re_psi2, re_op.edge, re_sum];

        for (i, (&old, &new)) in held.iter().zip(rebuilt.iter()).enumerate() {
            if live_after_gc[i] {
                // Valid handle: hash-consing finds the surviving node.
                prop_assert_eq!(new, old, "handle {} should be canonical", i);
            } else {
                // Stale handle: the recreated diagram lives under a fresh
                // generation, so the old handle can never be confused
                // with it — and churn must not resurrect it.
                prop_assert!(new != old, "handle {} was silently recycled", i);
                prop_assert!(!m.is_live(old), "handle {} flipped back to live", i);
                prop_assert!(m.is_live(new));
            }
        }
        m.unprotect_all(vec![root]);
    }

    /// `Subspace::contains` answers are identical before and after a
    /// forced collection, across random circuits and states.
    #[test]
    fn forced_collect_preserves_containment_answers(
        circuit in arb_circuit(3, 8),
        amps in proptest::collection::vec(proptest::collection::vec(arb_amp(), 3), 2..4),
        probe_amps in proptest::collection::vec(arb_amp(), 3),
    ) {
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(3);
        let states: Vec<_> = amps.iter().map(|a| m.product_ket(&vars, a)).collect();
        let init = Subspace::from_states(&mut m, 3, &states);
        let op = Operation::from_circuit("rand", &circuit);
        let qts = QuantumTransitionSystem::new(3, vec![op], init);
        let ops = qts.operations().clone();
        let (img, _) = try_image(&mut m, &ops, qts.initial(), Strategy::Basic).unwrap();
        let probe = m.product_ket(&vars, &probe_amps);

        let in_image_before = img.contains(&mut m, probe);
        let in_initial_before = qts.initial().clone().contains(&mut m, probe);

        let out = m.collect_retaining(&[&qts, &img, &probe]);
        prop_assert!(out.reclaimed > 0, "an image computation must leave garbage");

        prop_assert_eq!(img.contains(&mut m, probe), in_image_before);
        prop_assert_eq!(qts.initial().clone().contains(&mut m, probe), in_initial_before);
        // The image is still the image: recomputing it after the sweep
        // agrees with the held copy.
        let (img2, _) = try_image(&mut m, &ops, qts.initial(), Strategy::Basic).unwrap();
        prop_assert!(img2.equals(&mut m, &img));
    }
}

/// Regression: a multi-iteration reachability run under an aggressive
/// `GcPolicy` keeps the *occupied* slot count pinned to the live set —
/// right after each collection the store holds exactly the rooted
/// survivors, and the free-list keeps total allocation from drifting.
#[test]
fn aggressive_gc_keeps_store_bounded_by_live_set() {
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.4));
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };
    let ops = qts.operations().clone();
    let mut space = qts.initial().clone();
    let mut collected = 0u64;
    let rebuilds_before = m.stats().unique_rebuilds;
    for _ in 0..10 {
        let (img, _) = try_image(&mut m, &ops, &space, strategy).unwrap();
        space = space.join(&mut m, &img);
        // Force a collection every iteration, as aggressively as possible.
        let out = m.collect_retaining(&[&qts, &space]);
        collected += out.reclaimed as u64;
        // Occupancy invariant: after a full collection the store holds
        // exactly the live survivors; everything else sits on the
        // free-list awaiting reuse. No rebuild, no relocation.
        assert_eq!(
            m.arena_occupied(),
            out.live,
            "post-collect occupancy must equal the marked live set"
        );
        // Allocated = occupied + free-list + the always-allocated terminal
        // slot; nothing is ever lost or double-counted.
        assert_eq!(m.arena_len(), m.arena_occupied() + m.arena_free() + 1);
    }
    assert!(collected > 0, "ten iterations must reclaim something");
    assert_eq!(
        m.stats().unique_rebuilds,
        rebuilds_before,
        "collection must never rebuild the unique index"
    );
    // The held fixpoint state is still sound.
    let (img, _) = try_image(&mut m, &ops, &space, strategy).unwrap();
    assert!(img.is_subspace_of(&mut m, &space) || space.join(&mut m, &img).dim() > space.dim());
}

/// A 4-qubit binary increment (mod 16): from `|0000>` the reachable
/// dimension grows by exactly one basis state per iteration, giving a
/// guaranteed 15-iteration fixpoint — the long-fixpoint shape the GC
/// exists for.
fn increment_qts(m: &mut TddManager) -> QuantumTransitionSystem {
    let mut c = Circuit::new(4);
    // MSB-first ripple: bit k flips iff all lower bits are 1 (pre-state).
    c.push(Gate::mcx_polarity(&[(1, true), (2, true), (3, true)], 0));
    c.push(Gate::mcx_polarity(&[(2, true), (3, true)], 1));
    c.push(Gate::cx(3, 2));
    c.push(Gate::x(3));
    let vars = Subspace::ket_vars(4);
    let zero = m.basis_ket(&vars, &[false; 4]);
    let initial = Subspace::from_states(m, 4, &[zero]);
    QuantumTransitionSystem::new(4, vec![Operation::from_circuit("inc", &c)], initial)
}

/// Acceptance: a ≥10-iteration reachability fixpoint under `GcPolicy`
/// reclaims nodes and — thanks to free-list reuse — ends with strictly
/// fewer allocated slots than the grow-only run, while computing the
/// same space bit-for-bit (differential grow-only vs aggressive-GC).
#[test]
fn ten_iteration_fixpoint_reclaims_and_stays_below_grow_only() {
    let strategy = Strategy::Contraction { k1: 2, k2: 2 };

    let mut m_plain = TddManager::new();
    let qts_plain = increment_qts(&mut m_plain);
    let r_plain = mc::try_reachable_space(&mut m_plain, &qts_plain, strategy, 30).unwrap();

    let mut m_gc = TddManager::new();
    let qts_gc = increment_qts(&mut m_gc);
    m_gc.set_gc_policy(Some(GcPolicy::aggressive()));
    let r_gc = mc::try_reachable_space(&mut m_gc, &qts_gc, strategy, 30).unwrap();

    assert!(r_gc.converged);
    assert!(
        r_gc.iterations >= 10,
        "increment fixpoint must run long: got {} iterations",
        r_gc.iterations
    );
    assert_eq!(r_plain.iterations, r_gc.iterations);
    assert_eq!(r_plain.space.dim(), 16);
    assert_eq!(r_gc.space.dim(), 16);
    assert!(r_gc.collections > 0);
    assert!(r_gc.reclaimed_nodes > 0, "reclaimed counter must move");
    assert!(
        m_gc.arena_len() < m_plain.arena_len(),
        "free-list reuse must keep the GC'd run below the grow-only \
         allocation: {} vs {}",
        m_gc.arena_len(),
        m_plain.arena_len()
    );
    // Bit-for-bit differential: import each grow-only basis vector into
    // the GC'd manager and compare the spanned spaces exactly.
    let mut independent = Subspace::zero(4);
    for &b in r_plain.space.basis() {
        let imported = m_gc.import(&m_plain, b);
        independent.absorb(&mut m_gc, imported);
    }
    assert!(r_gc.space.clone().equals(&mut m_gc, &independent));
}

/// Typed misuse: a subspace that a collection swept (it was neither
/// rooted nor passed to `collect_retaining`) fails fast in debug builds
/// at the first operation its edges enter, naming the problem — not on
/// an unrelated assertion deep inside the contraction.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "stale handle")]
fn reusing_a_swept_subspace_reports_a_stale_handle() {
    let mut m = TddManager::new();
    let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(3));
    let vars = Subspace::ket_vars(3);
    let plus = (Cplx::FRAC_1_SQRT_2, Cplx::FRAC_1_SQRT_2);
    let zero = (Cplx::ONE, Cplx::ZERO);
    let one = (Cplx::ZERO, Cplx::ONE);
    let k = m.product_ket(&vars, &[plus, zero, one]);
    let swept = Subspace::from_states(&mut m, 3, &[k]);
    // Only the system survives: every node of `swept` is reclaimed.
    let out = m.collect_retaining(&[&qts]);
    assert!(out.reclaimed > 0);
    let probe = m.basis_ket(&vars, &[true, false, true]);
    swept.contains(&mut m, probe);
}
