//! Property-based tests for the TDD package: every operation is checked
//! against the dense tensor oracle on random inputs, and the canonicity
//! invariants are exercised directly.

use proptest::prelude::*;

use qits_num::Cplx;
use qits_tdd::{Edge, TddManager};
use qits_tensor::{Tensor, Var, VarSet};

/// A random dense tensor over the given variables, with entries from a
/// small lattice (so exact zeros and coincidences occur often — the
/// interesting cases for reduction and normalisation).
fn arb_tensor(vars: Vec<Var>) -> impl Strategy<Value = Tensor> {
    let len = 1usize << vars.len();
    proptest::collection::vec((-4i8..=4, -4i8..=4), len).prop_map(move |entries| {
        let data: Vec<Cplx> = entries
            .iter()
            .map(|&(re, im)| Cplx::new(f64::from(re) * 0.25, f64::from(im) * 0.25))
            .collect();
        Tensor::new(vars.clone(), data)
    })
}

fn vars3() -> Vec<Var> {
    vec![Var(0), Var(1), Var(2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: dense -> TDD -> dense is the identity.
    #[test]
    fn roundtrip(t in arb_tensor(vars3())) {
        let mut m = TddManager::new();
        let e = m.from_tensor(&t);
        prop_assert!(m.to_tensor(e, &vars3()).approx_eq(&t));
    }

    /// Canonicity: structurally different construction orders of the same
    /// tensor produce the *same* edge.
    #[test]
    fn canonicity_under_addition_split(t in arb_tensor(vars3())) {
        let mut m = TddManager::new();
        let whole = m.from_tensor(&t);
        // Rebuild from slices: t = sel0 * t|0 + sel1 * t|1.
        let s0 = t.slice(Var(0), false);
        let s1 = t.slice(Var(0), true);
        let e0 = m.from_tensor(&s0);
        let e1 = m.from_tensor(&s1);
        let sel0 = m.selector(Var(0), false);
        let sel1 = m.selector(Var(0), true);
        let p0 = m.contract(sel0, e0, &[]);
        let p1 = m.contract(sel1, e1, &[]);
        let rebuilt = m.add(p0, p1);
        prop_assert_eq!(rebuilt, whole);
    }

    /// Addition matches the dense oracle and is commutative/associative.
    #[test]
    fn addition_laws(a in arb_tensor(vars3()), b in arb_tensor(vars3()), c in arb_tensor(vars3())) {
        let mut m = TddManager::new();
        let (ea, eb, ec) = (m.from_tensor(&a), m.from_tensor(&b), m.from_tensor(&c));
        let ab = m.add(ea, eb);
        prop_assert!(m.to_tensor(ab, &vars3()).approx_eq(&a.add(&b)));
        let ba = m.add(eb, ea);
        prop_assert_eq!(ab, ba);
        let ab_c = m.add(ab, ec);
        let bc = m.add(eb, ec);
        let a_bc = m.add(ea, bc);
        // Associativity holds up to weight tolerance; compare densely.
        prop_assert!(
            m.to_tensor(a_bc, &vars3()).approx_eq(&m.to_tensor(ab_c, &vars3()))
        );
    }

    /// Contraction over every subset of shared variables matches dense.
    #[test]
    fn contraction_matches_dense(
        a in arb_tensor(vec![Var(0), Var(1), Var(2)]),
        b in arb_tensor(vec![Var(1), Var(2), Var(3)]),
        mask in 0u8..4,
    ) {
        let mut m = TddManager::new();
        let ea = m.from_tensor(&a);
        let eb = m.from_tensor(&b);
        let mut sum = Vec::new();
        if mask & 1 != 0 { sum.push(Var(1)); }
        if mask & 2 != 0 { sum.push(Var(2)); }
        let out = m.contract(ea, eb, &sum);
        let expect = Tensor::contract(&a, &b, &VarSet::from_iter(sum.iter().copied()));
        let out_vars: Vec<Var> = expect.vars().iter().collect();
        prop_assert!(m.to_tensor(out, &out_vars).approx_eq(&expect));
    }

    /// Contraction is bilinear: cont(a, b + c) = cont(a, b) + cont(a, c).
    #[test]
    fn contraction_bilinear(
        a in arb_tensor(vec![Var(0), Var(1)]),
        b in arb_tensor(vec![Var(1), Var(2)]),
        c in arb_tensor(vec![Var(1), Var(2)]),
    ) {
        let mut m = TddManager::new();
        let ea = m.from_tensor(&a);
        let eb = m.from_tensor(&b);
        let ec = m.from_tensor(&c);
        let sum = [Var(1)];
        let bc = m.add(eb, ec);
        let lhs = m.contract(ea, bc, &sum);
        let ab = m.contract(ea, eb, &sum);
        let ac = m.contract(ea, ec, &sum);
        let rhs = m.add(ab, ac);
        let vars = [Var(0), Var(2)];
        prop_assert!(m.to_tensor(lhs, &vars).approx_eq(&m.to_tensor(rhs, &vars)));
    }

    /// Slicing then re-selecting loses nothing; slicing twice commutes.
    #[test]
    fn slicing_laws(t in arb_tensor(vars3())) {
        let mut m = TddManager::new();
        let e = m.from_tensor(&t);
        let s01 = {
            let s0 = m.slice(e, Var(0), true);
            m.slice(s0, Var(1), false)
        };
        let s10 = {
            let s1 = m.slice(e, Var(1), false);
            m.slice(s1, Var(0), true)
        };
        // Equal as tensors (structural equality can differ by float
        // association order in the weight products).
        prop_assert!(m.to_tensor(s01, &[Var(2)]).approx_eq(&m.to_tensor(s10, &[Var(2)])));
        let expect = t.slice(Var(0), true).slice(Var(1), false);
        prop_assert!(m.to_tensor(s01, &[Var(2)]).approx_eq(&expect));
    }

    /// Conjugation is an involution and distributes over addition.
    #[test]
    fn conjugation_laws(a in arb_tensor(vars3()), b in arb_tensor(vars3())) {
        let mut m = TddManager::new();
        let ea = m.from_tensor(&a);
        let eb = m.from_tensor(&b);
        let cc = {
            let c1 = m.conj(ea);
            m.conj(c1)
        };
        prop_assert_eq!(cc, ea);
        let sum_then_conj = {
            let s = m.add(ea, eb);
            m.conj(s)
        };
        let conj_then_sum = {
            let ca = m.conj(ea);
            let cb = m.conj(eb);
            m.add(ca, cb)
        };
        // Equal as tensors; structural equality is not guaranteed across
        // different arithmetic orders (weight interning is path-dependent
        // within the tolerance).
        prop_assert!(m
            .to_tensor(sum_then_conj, &vars3())
            .approx_eq(&m.to_tensor(conj_then_sum, &vars3())));
    }

    /// Inner products satisfy conjugate symmetry and positivity.
    #[test]
    fn inner_product_laws(a in arb_tensor(vars3()), b in arb_tensor(vars3())) {
        let mut m = TddManager::new();
        let ea = m.from_tensor(&a);
        let eb = m.from_tensor(&b);
        let ab = m.inner_product(ea, eb, &vars3());
        let ba = m.inner_product(eb, ea, &vars3());
        prop_assert!(ab.approx_eq_with(ba.conj(), 1e-8));
        let aa = m.inner_product(ea, ea, &vars3());
        prop_assert!(aa.im.abs() < 1e-8);
        prop_assert!(aa.re >= -1e-8);
    }

    /// Monotone renaming preserves structure and values.
    #[test]
    fn renaming_preserves(t in arb_tensor(vars3())) {
        use std::collections::BTreeMap;
        let mut m = TddManager::new();
        let e = m.from_tensor(&t);
        let map: BTreeMap<Var, Var> =
            [(Var(0), Var(10)), (Var(1), Var(11)), (Var(2), Var(12))].into();
        let r = m.rename_monotone(e, &map);
        prop_assert_eq!(m.node_count(e), m.node_count(r));
        let expect = t.rename(&map);
        prop_assert!(m.to_tensor(r, &[Var(10), Var(11), Var(12)]).approx_eq(&expect));
    }

    /// Scaling composes multiplicatively and scaling by zero collapses to
    /// the canonical zero edge.
    #[test]
    fn scaling_laws(t in arb_tensor(vars3()), re in -2.0f64..2.0, im in -2.0f64..2.0) {
        let mut m = TddManager::new();
        let e = m.from_tensor(&t);
        let k = Cplx::new(re, im);
        let ke = m.scale(e, k);
        prop_assert!(m.to_tensor(ke, &vars3()).approx_eq(&t.scale(k)));
        let z = m.scale(e, Cplx::ZERO);
        prop_assert_eq!(z, Edge::ZERO);
    }

    /// The leftmost non-zero assignment really is non-zero and minimal.
    #[test]
    fn first_nonzero_is_minimal(t in arb_tensor(vars3())) {
        use std::collections::BTreeMap;
        let mut m = TddManager::new();
        let e = m.from_tensor(&t);
        match m.first_nonzero_assignment(e, &vars3()) {
            None => prop_assert!(e.is_zero()),
            Some(asn) => {
                let found: usize = asn.iter().fold(0, |acc, &b| (acc << 1) | usize::from(b));
                let assign_of = |bits: usize| -> BTreeMap<Var, bool> {
                    vars3()
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, (bits >> (2 - i)) & 1 == 1))
                        .collect()
                };
                prop_assert!(!m.eval(e, &assign_of(found)).is_zero());
                for smaller in 0..found {
                    prop_assert!(
                        m.eval(e, &assign_of(smaller)).is_zero(),
                        "assignment {smaller:03b} before {found:03b} is non-zero"
                    );
                }
            }
        }
    }
}
