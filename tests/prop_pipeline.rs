//! Property-based tests: random circuits and random states through the
//! whole symbolic pipeline, cross-checked against the dense oracle.

use std::collections::BTreeMap;

use proptest::prelude::*;
// `qits::Strategy` shadows the proptest trait of the same name from the
// prelude glob; re-import the trait anonymously for method resolution.
use proptest::strategy::Strategy as _;

use qits::{try_image, QuantumTransitionSystem, Strategy, Subspace};
use qits_circuit::{sim, Circuit, Gate, Operation};
use qits_num::{linalg, Cplx};
use qits_tdd::TddManager;
use qits_tensor::Var;

/// A random gate on up to `n` qubits.
fn arb_gate(n: u32) -> impl proptest::strategy::Strategy<Value = Gate> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::z),
        q.clone()
            .prop_map(|q| Gate::single(qits_circuit::GateKind::S, q)),
        q.clone()
            .prop_map(|q| Gate::single(qits_circuit::GateKind::T, q)),
        (q.clone(), 0.0..std::f64::consts::TAU).prop_map(|(q, t)| Gate::phase(q, t)),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| { (a != b).then(|| Gate::cx(a, b)) }),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| { (a != b).then(|| Gate::cz(a, b)) }),
        (q.clone(), q.clone(), 0.0..std::f64::consts::TAU)
            .prop_filter_map("distinct", |(a, b, t)| (a != b).then(|| Gate::cp(a, b, t))),
        (q.clone(), q.clone())
            .prop_filter_map("distinct", |(a, b)| { (a != b).then(|| Gate::swap(a, b)) }),
        (
            q.clone(),
            q.clone(),
            q.clone(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_filter_map("distinct", |(a, b, c, pa, pb)| {
                (a != b && b != c && a != c).then(|| Gate::mcx_polarity(&[(a, pa), (b, pb)], c))
            }),
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

/// Normalised random single-qubit amplitudes.
fn arb_amp() -> impl proptest::strategy::Strategy<Value = (Cplx, Cplx)> {
    (0.0..std::f64::consts::PI, 0.0..std::f64::consts::TAU).prop_map(|(theta, phi)| {
        (
            Cplx::real((theta / 2.0).cos()),
            Cplx::from_polar((theta / 2.0).sin(), phi),
        )
    })
}

fn dense_of_ket(m: &TddManager, n: u32, e: qits_tdd::Edge) -> Vec<Cplx> {
    let vars = Subspace::ket_vars(n);
    (0..(1usize << n))
        .map(|i| {
            let asn: BTreeMap<Var, bool> = vars
                .iter()
                .enumerate()
                .map(|(q, &v)| (v, (i >> (n as usize - 1 - q)) & 1 == 1))
                .collect();
            m.eval(e, &asn)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The image of a random product state under a random circuit matches
    /// the dense matrix-vector product, for every strategy.
    #[test]
    fn random_circuit_image_matches_dense(
        circuit in arb_circuit(3, 10),
        amps in proptest::collection::vec(arb_amp(), 3),
    ) {
        let n = 3u32;
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(n);
        let psi = m.product_ket(&vars, &amps);
        let init = Subspace::from_states(&mut m, n, &[psi]);
        let op = Operation::from_circuit("rand", &circuit);
        let mut qts = QuantumTransitionSystem::new(n, vec![op], init);

        // Dense reference.
        let dense_in = sim::product_state(&amps);
        let dense_out = sim::run(&circuit, &dense_in);
        let expect = linalg::gram_schmidt(&[dense_out]);

        for strategy in [
            Strategy::Basic,
            Strategy::Addition { k: 1 },
            Strategy::Contraction { k1: 2, k2: 1 },
            Strategy::Contraction { k1: 1, k2: 2 },
        ] {
            let ops = qts.operations().clone();
            let (img, _) = try_image(&mut m, &ops, qts.initial_mut(), strategy).unwrap();
            prop_assert_eq!(img.dim(), expect.len(), "dim mismatch ({})", strategy);
            for &b in img.basis() {
                let v = dense_of_ket(&m, n, b);
                prop_assert!(
                    linalg::in_span(&expect, &v),
                    "image vector escapes dense span ({})", strategy
                );
            }
        }
    }

    /// Subspace span: dimension never exceeds the number of generators,
    /// every generator is contained, and the projector is idempotent.
    #[test]
    fn random_subspace_invariants(
        amp_sets in proptest::collection::vec(
            proptest::collection::vec(arb_amp(), 3), 1..5
        ),
    ) {
        let n = 3u32;
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(n);
        let states: Vec<_> = amp_sets.iter().map(|a| m.product_ket(&vars, a)).collect();
        let s = Subspace::from_states(&mut m, n, &states);
        prop_assert!(s.dim() <= states.len());
        for &st in &states {
            prop_assert!(s.contains(&mut m, st));
        }
        // Idempotency on each generator: P(P psi) == P psi.
        for &st in &states {
            let p1 = s.project(&mut m, st);
            let p2 = s.project(&mut m, p1);
            let d = m.sub(p1, p2);
            let resid = if d.is_zero() { 0.0 } else { m.norm_sqr(d, &vars) };
            prop_assert!(resid < 1e-12, "projector not idempotent: {resid}");
        }
        // Round-trip through the projector decomposition of Section IV-A.
        let p = s.projector(&mut m);
        let back = Subspace::from_projector(&mut m, n, p);
        prop_assert_eq!(back.dim(), s.dim());
        prop_assert!(back.equals(&mut m, &s));
    }

    /// Join is commutative and monotone in dimension.
    #[test]
    fn random_join_properties(
        a_amps in proptest::collection::vec(proptest::collection::vec(arb_amp(), 2), 1..3),
        b_amps in proptest::collection::vec(proptest::collection::vec(arb_amp(), 2), 1..3),
    ) {
        let n = 2u32;
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(n);
        let sa: Vec<_> = a_amps.iter().map(|x| m.product_ket(&vars, x)).collect();
        let sb: Vec<_> = b_amps.iter().map(|x| m.product_ket(&vars, x)).collect();
        let a = Subspace::from_states(&mut m, n, &sa);
        let b = Subspace::from_states(&mut m, n, &sb);
        let ab = a.join(&mut m, &b);
        let ba = b.join(&mut m, &a);
        prop_assert!(ab.equals(&mut m, &ba), "join not commutative");
        prop_assert!(ab.dim() >= a.dim().max(b.dim()));
        prop_assert!(ab.dim() <= a.dim() + b.dim());
        prop_assert!(a.is_subspace_of(&mut m, &ab));
        prop_assert!(b.is_subspace_of(&mut m, &ab));
    }

    /// The monolithic operator TDD of a random circuit matches the dense
    /// circuit matrix entry by entry.
    #[test]
    fn random_circuit_operator_matches_dense(circuit in arb_circuit(3, 8)) {
        use qits_tensornet::{contract_network, TensorNetwork};
        let n = 3u32;
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &circuit);
        let whole = contract_network(&mut m, net.tensors(), &net.external_vars());
        let dense = sim::circuit_matrix(&circuit);
        for col in 0..(1usize << n) {
            for row in 0..(1usize << n) {
                let consistent = (0..n).all(|q| {
                    net.in_var(q) != net.out_var(q)
                        || ((col >> (n - 1 - q)) & 1) == ((row >> (n - 1 - q)) & 1)
                });
                if !consistent {
                    prop_assert!(dense[(row, col)].is_zero());
                    continue;
                }
                let mut asn = BTreeMap::new();
                for q in 0..n {
                    asn.insert(net.in_var(q), (col >> (n - 1 - q)) & 1 == 1);
                    asn.insert(net.out_var(q), (row >> (n - 1 - q)) & 1 == 1);
                }
                let got = m.eval(whole.edge, &asn);
                prop_assert!(
                    got.approx_eq_with(dense[(row, col)], 1e-8),
                    "entry ({row},{col}): {got} vs {}", dense[(row, col)]
                );
            }
        }
    }
}
