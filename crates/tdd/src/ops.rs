//! Tensor operations on TDDs: addition, contraction, slicing, conjugation,
//! scaling, renaming, and inner products.
//!
//! In debug builds every public operation here checks that its operand
//! edges are live ([`TddManager::is_live`]) and panics with "stale handle"
//! otherwise: a handle a collection swept is misuse, reported as such.

use std::collections::BTreeMap;

use qits_num::Cplx;
use qits_tensor::Var;

use crate::cache::SumId;
use crate::cnum::CIdx;
use crate::hash::FastMap;
use crate::manager::TddManager;
use crate::node::{Edge, NodeId};

impl TddManager {
    /// Debug-build guard at the entry of every public operation: an edge
    /// whose node was swept by a collection reports as a stale handle
    /// here, instead of as whatever unrelated invariant its slot's reuse
    /// breaks deeper in the recursion.
    #[inline]
    fn debug_assert_live(&self, e: Edge) {
        debug_assert!(
            self.is_live(e),
            "stale handle: {e:?} was swept by a garbage collection (pass its \
             holder to the collecting call)"
        );
    }

    // ------------------------------------------------------------------
    // Addition.
    // ------------------------------------------------------------------

    /// Point-wise sum of two tensors.
    ///
    /// Operands may have different supports; a variable absent from one
    /// operand is treated as a variable the tensor does not depend on
    /// (standard reduced-diagram semantics).
    pub fn add(&mut self, a: Edge, b: Edge) -> Edge {
        self.debug_assert_live(a);
        self.debug_assert_live(b);
        self.stats.add_calls += 1;
        self.add_rec(a, b)
    }

    fn add_rec(&mut self, a: Edge, b: Edge) -> Edge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == b.node {
            let w = self.cadd(a.weight, b.weight);
            return if w.is_zero() {
                Edge::ZERO
            } else {
                a.with_weight(w)
            };
        }
        // Commutative: canonicalise operand order for the cache.
        let (a, b) = if (a.node, a.weight) <= (b.node, b.weight) {
            (a, b)
        } else {
            (b, a)
        };
        // Factor the first weight out: a + b = wa * (A + (wb/wa) B).
        let beta = self.cdiv(b.weight, a.weight);
        if beta.is_zero() {
            // b is negligible relative to a at the working tolerance.
            return a;
        }
        let ka = a.with_weight(CIdx::ONE);
        let kb = b.with_weight(beta);
        if let Some(r) = self.caches.add.get(&(ka, kb)) {
            return self.mul_weight(r, a.weight);
        }
        // Branch on the topmost root variable (the terminal's sentinel
        // sorts below every real one).
        let x = self.var_of(a.node).min(self.var_of(b.node));
        let (a0, a1) = self.cofactors(ka, x);
        let (b0, b1) = self.cofactors(kb, x);
        let lo = self.add_rec(a0, b0);
        let hi = self.add_rec(a1, b1);
        let r = self.make_node(x, lo, hi);
        self.caches.add.insert((ka, kb), r);
        self.mul_weight(r, a.weight)
    }

    /// Sums an iterator of tensors (`0` for an empty iterator).
    pub fn add_many<I: IntoIterator<Item = Edge>>(&mut self, edges: I) -> Edge {
        edges
            .into_iter()
            .fold(Edge::ZERO, |acc, e| self.add(acc, e))
    }

    /// Point-wise difference `a - b`.
    pub fn sub(&mut self, a: Edge, b: Edge) -> Edge {
        self.debug_assert_live(a);
        self.debug_assert_live(b);
        let nb = self.scale(b, Cplx::NEG_ONE);
        self.add(a, nb)
    }

    // ------------------------------------------------------------------
    // Contraction.
    // ------------------------------------------------------------------

    /// Contracts two tensors, summing over the sorted variable list `sum`.
    ///
    /// This is the `cont` operation of the paper: the result's indices are
    /// `(vars(a) U vars(b)) \ sum`. A summation variable that appears in
    /// *neither* operand multiplies the result by 2 (both assignments
    /// contribute equally) — callers pass the full list of bond indices and
    /// the algorithm handles diagrams that have reduced them away.
    ///
    /// A variable shared by both operands but **not** listed in `sum` is
    /// combined element-wise, which is exactly the hyper-edge semantics the
    /// tensor-network layer relies on for diagonal gates and control legs.
    ///
    /// # Panics
    ///
    /// Panics if `sum` is not strictly ascending.
    pub fn contract(&mut self, a: Edge, b: Edge, sum: &[Var]) -> Edge {
        self.debug_assert_live(a);
        self.debug_assert_live(b);
        assert!(
            sum.windows(2).all(|w| w[0] < w[1]),
            "summation variables must be strictly ascending"
        );
        self.stats.cont_calls += 1;
        // Intern every suffix of the summation list: the manager-owned
        // contraction cache keys on `(nodes, remaining-suffix id)`, which
        // is stable across top-level calls — entries written while
        // contracting one basis state (or one Kraus branch) are hit again
        // by every later contraction that reaches the same sub-diagrams
        // with the same remaining summation variables.
        let suffixes = self.caches.sums.suffix_ids(sum);
        self.cont_rec(a, b, sum, 0, &suffixes)
    }

    fn cont_rec(&mut self, a: Edge, b: Edge, sum: &[Var], si: usize, suffixes: &[SumId]) -> Edge {
        if a.is_zero() || b.is_zero() {
            return Edge::ZERO;
        }
        let w = self.cmul(a.weight, b.weight);
        if w.is_zero() {
            return Edge::ZERO;
        }
        if a.is_terminal() && b.is_terminal() {
            // Every remaining summation variable doubles the scalar.
            let remaining = (sum.len() - si) as i32;
            let v = self.weight_value(w).scale(2f64.powi(remaining));
            return self.constant(v);
        }
        // Weight-normalized key: both weights are factored into `w`, so one
        // entry serves every scalar multiple of this operand pair.
        let key = (a.node, b.node, suffixes[si]);
        if let Some(r) = self.caches.cont.get(&key) {
            return self.mul_weight(r, w);
        }
        let ka = a.with_weight(CIdx::ONE);
        let kb = b.with_weight(CIdx::ONE);
        let x = self.var_of(a.node).min(self.var_of(b.node));
        let r = if si < sum.len() && sum[si] <= x {
            if sum[si] < x {
                // Summation variable absent from both operands: factor 2.
                let inner = self.cont_rec(ka, kb, sum, si + 1, suffixes);
                self.scale(inner, Cplx::real(2.0))
            } else {
                // sv == x: sum the two cofactor contractions.
                let (a0, a1) = self.cofactors(ka, x);
                let (b0, b1) = self.cofactors(kb, x);
                let r0 = self.cont_rec(a0, b0, sum, si + 1, suffixes);
                let r1 = self.cont_rec(a1, b1, sum, si + 1, suffixes);
                self.add(r0, r1)
            }
        } else {
            // Free variable: branch on it.
            let (a0, a1) = self.cofactors(ka, x);
            let (b0, b1) = self.cofactors(kb, x);
            let r0 = self.cont_rec(a0, b0, sum, si, suffixes);
            let r1 = self.cont_rec(a1, b1, sum, si, suffixes);
            self.make_node(x, r0, r1)
        };
        self.caches.cont.insert(key, r);
        self.mul_weight(r, w)
    }

    // ------------------------------------------------------------------
    // Slicing, scaling, conjugation, renaming.
    // ------------------------------------------------------------------

    /// Fixes `var = value`, removing `var` from the tensor's indices.
    ///
    /// Slicing a diagram that does not depend on `var` returns it unchanged.
    pub fn slice(&mut self, e: Edge, var: Var, value: bool) -> Edge {
        self.debug_assert_live(e);
        self.stats.slice_calls += 1;
        self.slice_rec(e, var, value)
    }

    fn slice_rec(&mut self, e: Edge, var: Var, value: bool) -> Edge {
        if e.is_terminal() || self.var_of(e.node) > var {
            return e;
        }
        let key = (e.node, var, value);
        if let Some(r) = self.caches.slice.get(&key) {
            return self.mul_weight(r, e.weight);
        }
        let n = *self.node(e.node);
        let r = if n.var == var {
            if value {
                n.high
            } else {
                n.low
            }
        } else {
            let lo = self.slice_rec(n.low, var, value);
            let hi = self.slice_rec(n.high, var, value);
            self.make_node(n.var, lo, hi)
        };
        self.caches.slice.insert(key, r);
        self.mul_weight(r, e.weight)
    }

    /// Multiplies the whole tensor by the scalar `c`.
    pub fn scale(&mut self, e: Edge, c: Cplx) -> Edge {
        self.debug_assert_live(e);
        let w = self.intern(c);
        self.mul_weight(e, w)
    }

    /// Complex-conjugates every entry (used to form bras from kets).
    pub fn conj(&mut self, e: Edge) -> Edge {
        self.debug_assert_live(e);
        self.stats.conj_calls += 1;
        self.conj_rec(e)
    }

    fn conj_rec(&mut self, e: Edge) -> Edge {
        if e.is_zero() {
            return Edge::ZERO;
        }
        let w = self.cconj(e.weight);
        if e.is_terminal() {
            return Edge::ZERO.with_weight(w);
        }
        if let Some(r) = self.caches.conj.get(&e.node) {
            return self.mul_weight(r, w);
        }
        let n = *self.node(e.node);
        let lo = self.conj_rec(n.low);
        let hi = self.conj_rec(n.high);
        let r = self.make_node(n.var, lo, hi);
        self.caches.conj.insert(e.node, r);
        self.mul_weight(r, w)
    }

    /// Renames variables according to `map` (old -> new), which must be
    /// **monotone**: if `u < v` then `map(u) < map(v)` for all variables the
    /// diagram depends on (identity outside the map). A monotone renaming
    /// preserves canonical structure, so this is a relabelling pass.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the renaming violates the natural order.
    pub fn rename_monotone(&mut self, e: Edge, map: &BTreeMap<Var, Var>) -> Edge {
        self.debug_assert_live(e);
        debug_assert!(
            map.iter()
                .collect::<Vec<_>>()
                .windows(2)
                .all(|w| w[0].1 < w[1].1),
            "renaming must be monotone"
        );
        self.stats.rename_calls += 1;
        // BTreeMap iteration is ascending, so the pair list is already a
        // canonical form for interning.
        let pairs: Vec<(Var, Var)> = map.iter().map(|(&o, &n)| (o, n)).collect();
        let map_id = self.caches.renames.intern(pairs);
        self.rename_rec(e, map, map_id)
    }

    fn rename_rec(
        &mut self,
        e: Edge,
        map: &BTreeMap<Var, Var>,
        map_id: crate::cache::RenameId,
    ) -> Edge {
        if e.is_zero() || e.is_terminal() {
            return e;
        }
        let key = (e.node, map_id);
        if let Some(r) = self.caches.rename.get(&key) {
            return self.mul_weight(r, e.weight);
        }
        let n = *self.node(e.node);
        let lo = self.rename_rec(n.low, map, map_id);
        let hi = self.rename_rec(n.high, map, map_id);
        let nv = map.get(&n.var).copied().unwrap_or(n.var);
        let r = self.make_node(nv, lo, hi);
        self.caches.rename.insert(key, r);
        self.mul_weight(r, e.weight)
    }

    // ------------------------------------------------------------------
    // Inner products.
    // ------------------------------------------------------------------

    /// Hermitian inner product `<a|b>` over the explicit variable list
    /// `vars` (conjugate-linear in `a`).
    ///
    /// The variable list must cover the supports of both operands *and* any
    /// reduced-away qubit variables: a product state like `|+...+>` reduces
    /// to a bare scalar edge, and only the variable list tells the
    /// recursion how many factors of 2 that hides.
    ///
    /// The result is a plain float, never interned or snapped: one
    /// memoised walk over the node pairs of `a` and `b` multiplies their
    /// weights out and accumulates the sum, without building the bra
    /// `conj(a)` or any other diagram. See [`TddManager::inner_products`]
    /// for several bras against one ket.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not strictly ascending or misses a support
    /// variable of either operand.
    pub fn inner_product(&mut self, a: Edge, b: Edge, vars: &[Var]) -> Cplx {
        self.inner_products(&[a], b, vars)[0]
    }

    /// `<a_i|b>` for every `a_i` in `bras`, over `vars` as in
    /// [`TddManager::inner_product`]. One memo over node pairs serves the
    /// whole batch, so sub-diagrams the bras share with each other are
    /// walked against `b` once.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not strictly ascending or misses a support
    /// variable of any operand.
    pub fn inner_products(&mut self, bras: &[Edge], b: Edge, vars: &[Var]) -> Vec<Cplx> {
        for &a in bras {
            self.debug_assert_live(a);
        }
        self.debug_assert_live(b);
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "inner product variables must be strictly ascending"
        );
        let mut memo = FastMap::default();
        bras.iter()
            .map(|&a| self.ip_edges(a, b, 0, vars, &mut memo))
            .collect()
    }

    /// `<a|b>` over `vars[from..]`, all of which lie above or at the top
    /// variable of the pair. The ones strictly above it are the factor-2
    /// rule's.
    fn ip_edges(
        &mut self,
        a: Edge,
        b: Edge,
        from: usize,
        vars: &[Var],
        memo: &mut FastMap<(NodeId, NodeId), Cplx>,
    ) -> Cplx {
        if a.is_zero() || b.is_zero() {
            return Cplx::ZERO;
        }
        let top = self.var_of(a.node).min(self.var_of(b.node));
        let skipped = vars.partition_point(|&v| v < top) - from;
        let w = self.weight_value(a.weight).conj() * self.weight_value(b.weight);
        (w * self.ip_nodes(a.node, b.node, vars, memo)).scale(2f64.powi(skipped as i32))
    }

    /// `<a|b>` over the variables at or below the top variable of the
    /// pair, with both root weights 1. The value depends on the pair
    /// alone, so one memo entry serves every path that reaches it.
    fn ip_nodes(
        &mut self,
        a: NodeId,
        b: NodeId,
        vars: &[Var],
        memo: &mut FastMap<(NodeId, NodeId), Cplx>,
    ) -> Cplx {
        if a.is_terminal() && b.is_terminal() {
            return Cplx::ONE;
        }
        if let Some(&r) = memo.get(&(a, b)) {
            return r;
        }
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let x = va.min(vb);
        let Ok(at) = vars.binary_search(&x) else {
            panic!("inner product variable list must cover both supports");
        };
        let branches = |m: &TddManager, n: NodeId, vn: Var| {
            if vn == x {
                let node = m.node(n);
                [node.low, node.high]
            } else {
                [Edge {
                    node: n,
                    weight: CIdx::ONE,
                }; 2]
            }
        };
        let ([a0, a1], [b0, b1]) = (branches(self, a, va), branches(self, b, vb));
        let r =
            self.ip_edges(a0, b0, at + 1, vars, memo) + self.ip_edges(a1, b1, at + 1, vars, memo);
        memo.insert((a, b), r);
        r
    }

    /// Squared norm `<e|e>` over `vars`.
    pub fn norm_sqr(&mut self, e: Edge, vars: &[Var]) -> f64 {
        self.inner_product(e, e, vars).re
    }

    // ------------------------------------------------------------------
    // Linear combinations.
    // ------------------------------------------------------------------

    /// The linear combination `sum c_i * e_i`, built in one recursion over
    /// all operands — the n-ary counterpart of a chain of
    /// [`TddManager::scale`] and [`TddManager::add`], returning the same
    /// canonical edge without materialising any partial sum.
    ///
    /// Each level merges the operands that reach the same node, factors
    /// out the largest-magnitude weight and memoises on the nodes and the
    /// interned ratios to it, so every ratio has magnitude at most 1 and
    /// only an operand negligible against the largest one (below the
    /// weight tolerance) is dropped — the rule [`TddManager::add`] applies
    /// to two operands.
    pub fn lin_comb(&mut self, terms: &[(Cplx, Edge)]) -> Edge {
        let mut weighted = Vec::with_capacity(terms.len());
        for &(c, e) in terms {
            self.debug_assert_live(e);
            if !e.is_zero() {
                weighted.push((e.node, c * self.weight_value(e.weight)));
            }
        }
        self.lin_comb_rec(weighted, &mut FastMap::default())
    }

    fn lin_comb_rec(
        &mut self,
        mut terms: Vec<(NodeId, Cplx)>,
        memo: &mut FastMap<Vec<(NodeId, CIdx)>, Edge>,
    ) -> Edge {
        terms.sort_unstable_by_key(|&(n, _)| n);
        terms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        let Some(pivot) = terms
            .iter()
            .map(|&(_, w)| w)
            .max_by(|x, y| x.norm_sqr().total_cmp(&y.norm_sqr()))
        else {
            return Edge::ZERO;
        };
        let scale = self.intern(pivot);
        if scale.is_zero() {
            return Edge::ZERO;
        }
        let mut key = Vec::with_capacity(terms.len());
        for &(n, w) in &terms {
            let r = self.intern(w / pivot);
            if !r.is_zero() {
                key.push((n, r));
            }
        }
        match key[..] {
            [] => return Edge::ZERO,
            [(node, weight)] => return self.mul_weight(Edge { node, weight }, scale),
            _ => {}
        }
        if let Some(&r) = memo.get(&key) {
            return self.mul_weight(r, scale);
        }
        let x = key
            .iter()
            .map(|&(n, _)| self.var_of(n))
            .min()
            .expect("two or more operands");
        let mut lo = Vec::with_capacity(key.len());
        let mut hi = Vec::with_capacity(key.len());
        for &(n, r) in &key {
            let rv = self.weight_value(r);
            if self.var_of(n) == x {
                let node = *self.node(n);
                for (side, e) in [(&mut lo, node.low), (&mut hi, node.high)] {
                    if !e.is_zero() {
                        side.push((e.node, rv * self.weight_value(e.weight)));
                    }
                }
            } else {
                lo.push((n, rv));
                hi.push((n, rv));
            }
        }
        let lo = self.lin_comb_rec(lo, memo);
        let hi = self.lin_comb_rec(hi, memo);
        let r = self.make_node(x, lo, hi);
        memo.insert(key, r);
        self.mul_weight(r, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_num::Mat;
    use qits_tensor::{Tensor, VarSet};

    fn c(x: f64) -> Cplx {
        Cplx::real(x)
    }

    fn rand_tensor(vars: &[Var], seed: u64) -> Tensor {
        // Small deterministic pseudo-random tensor for cross-checking.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let data: Vec<Cplx> = (0..(1usize << vars.len()))
            .map(|_| Cplx::new(next(), next()))
            .collect();
        Tensor::new(vars.to_vec(), data)
    }

    #[test]
    fn add_matches_dense() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1), Var(2)];
        let ta = rand_tensor(&vars, 1);
        let tb = rand_tensor(&vars, 2);
        let ea = m.from_tensor(&ta);
        let eb = m.from_tensor(&tb);
        let sum = m.add(ea, eb);
        let expect = ta.add(&tb);
        assert!(m.to_tensor(sum, &vars).approx_eq(&expect));
    }

    #[test]
    fn add_is_commutative_and_cancels() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1)];
        let ta = rand_tensor(&vars, 3);
        let ea = m.from_tensor(&ta);
        let eb = m.from_tensor(&rand_tensor(&vars, 4));
        assert_eq!(m.add(ea, eb), m.add(eb, ea));
        let neg = m.scale(ea, Cplx::NEG_ONE);
        assert!(m.add(ea, neg).is_zero());
    }

    #[test]
    fn contract_matches_dense_matrix_vector() {
        let mut m = TddManager::new();
        let h = Cplx::FRAC_1_SQRT_2;
        let hm = Mat::from_rows(&[&[h, h], &[h, -h]]);
        let g = m.from_matrix(&hm, &[Var(0)], &[Var(1)]);
        let ket = m.basis_ket(&[Var(0)], &[true]);
        let out = m.contract(g, ket, &[Var(0)]);
        let expect_t = {
            let gt = Tensor::from_matrix(&hm, &[Var(0)], &[Var(1)]);
            let kt = Tensor::new(vec![Var(0)], vec![Cplx::ZERO, Cplx::ONE]);
            Tensor::contract(&gt, &kt, &VarSet::from_iter([Var(0)]))
        };
        assert!(m.to_tensor(out, &[Var(1)]).approx_eq(&expect_t));
    }

    #[test]
    fn contract_matches_dense_random() {
        let mut m = TddManager::new();
        // a over {0,1,2}, b over {1,2,3}; sum over {1,2}.
        let ta = rand_tensor(&[Var(0), Var(1), Var(2)], 7);
        let tb = rand_tensor(&[Var(1), Var(2), Var(3)], 8);
        let ea = m.from_tensor(&ta);
        let eb = m.from_tensor(&tb);
        let out = m.contract(ea, eb, &[Var(1), Var(2)]);
        let expect = Tensor::contract(&ta, &tb, &VarSet::from_iter([Var(1), Var(2)]));
        assert!(m.to_tensor(out, &[Var(0), Var(3)]).approx_eq(&expect));
    }

    #[test]
    fn contract_elementwise_shared_free_var() {
        let mut m = TddManager::new();
        let ta = rand_tensor(&[Var(0)], 9);
        let tb = rand_tensor(&[Var(0)], 10);
        let ea = m.from_tensor(&ta);
        let eb = m.from_tensor(&tb);
        let out = m.contract(ea, eb, &[]);
        let expect = Tensor::contract(&ta, &tb, &VarSet::new());
        assert!(m.to_tensor(out, &[Var(0)]).approx_eq(&expect));
    }

    #[test]
    fn contract_phantom_var_doubles() {
        let mut m = TddManager::new();
        let a = m.constant(c(3.0));
        let b = m.constant(c(5.0));
        let out = m.contract(a, b, &[Var(4)]);
        assert!(m.weight_value(out.weight).approx_eq(c(30.0)));
    }

    #[test]
    fn contract_reduced_plus_state_norm() {
        // |+>^n reduces to a scalar edge; contraction must reintroduce the
        // 2^n factor via the phantom-variable rule.
        let mut m = TddManager::new();
        let n = 5;
        let vars: Vec<Var> = (0..n).map(|i| Var::wire(i, 0)).collect();
        let amps = vec![(Cplx::FRAC_1_SQRT_2, Cplx::FRAC_1_SQRT_2); n as usize];
        let plus = m.product_ket(&vars, &amps);
        assert!(plus.is_terminal(), "uniform product state should reduce");
        let n2 = m.norm_sqr(plus, &vars);
        assert!((n2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slice_matches_dense() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1), Var(2)];
        let t = rand_tensor(&vars, 11);
        let e = m.from_tensor(&t);
        for v in vars {
            for val in [false, true] {
                let s = m.slice(e, v, val);
                let expect = t.slice(v, val);
                let rest: Vec<Var> = vars.iter().copied().filter(|x| *x != v).collect();
                assert!(m.to_tensor(s, &rest).approx_eq(&expect));
            }
        }
    }

    #[test]
    fn slices_rejoin_via_selectors() {
        // e == sel0 * e|0  +  sel1 * e|1 (the addition-partition identity).
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1)];
        let t = rand_tensor(&vars, 12);
        let e = m.from_tensor(&t);
        let s0 = m.slice(e, Var(0), false);
        let s1 = m.slice(e, Var(0), true);
        let sel0 = m.selector(Var(0), false);
        let sel1 = m.selector(Var(0), true);
        let p0 = m.contract(s0, sel0, &[]);
        let p1 = m.contract(s1, sel1, &[]);
        let back = m.add(p0, p1);
        assert_eq!(back, e);
    }

    #[test]
    fn conj_matches_dense() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1)];
        let t = rand_tensor(&vars, 13);
        let e = m.from_tensor(&t);
        let ce = m.conj(e);
        assert!(m.to_tensor(ce, &vars).approx_eq(&t.conj()));
        // Involution.
        assert_eq!(m.conj(ce), e);
    }

    #[test]
    fn rename_monotone_relabels() {
        let mut m = TddManager::new();
        let t = rand_tensor(&[Var(0), Var(2)], 14);
        let e = m.from_tensor(&t);
        let map: BTreeMap<Var, Var> = [(Var(0), Var(1)), (Var(2), Var(5))].into();
        let r = m.rename_monotone(e, &map);
        let expect = t.rename(&map);
        assert!(m.to_tensor(r, &[Var(1), Var(5)]).approx_eq(&expect));
        // Same structure, same node count.
        assert_eq!(m.node_count(e), m.node_count(r));
    }

    #[test]
    fn inner_product_orthonormal_basis() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1)];
        let k00 = m.basis_ket(&vars, &[false, false]);
        let k01 = m.basis_ket(&vars, &[false, true]);
        assert!(m.inner_product(k00, k00, &vars).approx_eq(Cplx::ONE));
        assert!(m.inner_product(k00, k01, &vars).approx_eq(Cplx::ZERO));
    }

    #[test]
    fn inner_product_conjugates_left() {
        let mut m = TddManager::new();
        let vars = [Var(0)];
        let a = m.product_ket(&vars, &[(Cplx::ZERO, Cplx::I)]);
        let b = m.basis_ket(&vars, &[true]);
        assert!(m.inner_product(a, b, &vars).approx_eq(-Cplx::I));
        assert!(m.inner_product(b, a, &vars).approx_eq(Cplx::I));
    }

    /// `sum conj(a) b` over two dense tensors laid out on the same
    /// variables.
    fn dense_inner(a: &Tensor, b: &Tensor) -> Cplx {
        assert_eq!(a.vars(), b.vars());
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| x.conj() * y)
            .sum()
    }

    #[test]
    fn float_inner_products_match_dense_on_random_kets() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1), Var(2), Var(3)];
        let tb = rand_tensor(&vars, 20);
        let b = m.from_tensor(&tb);
        let bras: Vec<Tensor> = (21..26).map(|s| rand_tensor(&vars, s)).collect();
        let edges: Vec<Edge> = bras.iter().map(|t| m.from_tensor(t)).collect();
        let batch = m.inner_products(&edges, b, &vars);
        for ((t, &a), got) in bras.iter().zip(&edges).zip(batch) {
            assert!(got.approx_eq_with(dense_inner(t, &tb), 1e-8), "{got}");
            assert_eq!(m.inner_product(a, b, &vars), got);
        }
        let n2 = m.norm_sqr(b, &vars);
        assert!((n2 - dense_inner(&tb, &tb).re).abs() < 1e-8);
    }

    #[test]
    fn float_inner_product_counts_reduced_away_variables() {
        let mut m = TddManager::new();
        // Neither operand depends on var 1 or var 4; a lacks var 3 and b
        // lacks var 0. Every variable in the list counts.
        let all = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let a = m.from_tensor(&rand_tensor(&[Var(0), Var(2)], 30));
        let b = m.from_tensor(&rand_tensor(&[Var(2), Var(3)], 31));
        let expect = dense_inner(&m.to_tensor(a, &all), &m.to_tensor(b, &all));
        assert!(m.inner_product(a, b, &all).approx_eq_with(expect, 1e-8));
        // Two scalars over one phantom variable: 2 * conj(3i) * 5.
        let x = m.constant(Cplx::new(0.0, 3.0));
        let y = m.constant(c(5.0));
        let ip = m.inner_product(x, y, &[Var(4)]);
        assert!(ip.approx_eq(Cplx::new(0.0, -30.0)), "{ip}");
    }

    #[test]
    #[should_panic(expected = "cover both supports")]
    fn float_inner_product_rejects_an_uncovered_support() {
        let mut m = TddManager::new();
        let a = m.from_tensor(&rand_tensor(&[Var(0), Var(1)], 32));
        m.inner_product(a, a, &[Var(0)]);
    }

    #[test]
    fn float_inner_product_of_zero_edges_is_zero() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1)];
        let a = m.from_tensor(&rand_tensor(&vars, 50));
        assert_eq!(m.inner_product(Edge::ZERO, a, &vars), Cplx::ZERO);
        assert_eq!(m.inner_product(a, Edge::ZERO, &vars), Cplx::ZERO);
        assert_eq!(m.norm_sqr(Edge::ZERO, &vars), 0.0);
        assert!(m.inner_products(&[], a, &vars).is_empty());
    }

    /// `sum c_i e_i` as a chain of `scale` and `add`.
    fn chained(m: &mut TddManager, terms: &[(Cplx, Edge)]) -> Edge {
        let mut acc = Edge::ZERO;
        for &(c, e) in terms {
            let scaled = m.scale(e, c);
            acc = m.add(acc, scaled);
        }
        acc
    }

    #[test]
    fn lin_comb_is_the_chain_of_scale_and_add() {
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1), Var(2)];
        let e: Vec<Edge> = (60..64)
            .map(|s| m.from_tensor(&rand_tensor(&vars, s)))
            .collect();
        let k = m.basis_ket(&vars, &[true, false, true]);
        let sel = m.selector(Var(1), true);
        let three = m.constant(c(3.0));
        let cases: Vec<Vec<(Cplx, Edge)>> = vec![
            vec![
                (Cplx::new(0.3, -0.2), e[0]),
                (c(-1.5), e[1]),
                (Cplx::I, e[2]),
            ],
            // Repeated operands, a scalar, a basis ket and a selector.
            vec![
                (c(0.5), e[3]),
                (c(0.25), e[3]),
                (c(1.0), three),
                (c(-2.0), k),
            ],
            vec![(c(1.0), sel), (Cplx::new(0.0, -0.7), e[0]), (c(0.1), k)],
            // Zero operands and zero coefficients drop out.
            vec![(c(2.0), Edge::ZERO), (Cplx::ZERO, e[1]), (c(0.5), e[2])],
        ];
        for terms in &cases {
            let expect = chained(&mut m, terms);
            assert_eq!(m.lin_comb(terms), expect, "{terms:?}");
            let got = m.lin_comb(terms);
            assert!(m
                .to_tensor(got, &vars)
                .approx_eq(&m.to_tensor(expect, &vars)));
        }
        // Exact cancellation is the zero edge.
        assert!(m.lin_comb(&[(c(1.0), e[0]), (c(-1.0), e[0])]).is_zero());
        assert!(m.lin_comb(&[]).is_zero());
    }

    #[test]
    fn lin_comb_keeps_the_sum_when_its_first_weight_is_negligible() {
        // Normalising by the first operand would intern a 1e-11 pivot to
        // zero and lose the whole sum; the largest weight is the pivot.
        let mut m = TddManager::new();
        let vars = [Var(0), Var(1)];
        let a = m.from_tensor(&rand_tensor(&vars, 70));
        let b = m.from_tensor(&rand_tensor(&vars, 71));
        let terms = [(c(1e-11), a), (c(1.0), b), (c(0.5), a)];
        let expect = chained(&mut m, &terms);
        assert!(!expect.is_zero());
        assert_eq!(m.lin_comb(&terms), expect);
    }

    #[test]
    fn sub_self_is_zero() {
        let mut m = TddManager::new();
        let t = rand_tensor(&[Var(0), Var(1)], 15);
        let e = m.from_tensor(&t);
        assert!(m.sub(e, e).is_zero());
    }

    #[test]
    fn contract_gate_chain_is_matrix_product() {
        // (H on wire) twice over a 3-index chain == identity operator.
        let mut m = TddManager::new();
        let h = Cplx::FRAC_1_SQRT_2;
        let hm = Mat::from_rows(&[&[h, h], &[h, -h]]);
        let g1 = m.from_matrix(&hm, &[Var(0)], &[Var(1)]);
        let g2 = m.from_matrix(&hm, &[Var(1)], &[Var(2)]);
        let id = m.contract(g1, g2, &[Var(1)]);
        let expect = m.identity(Var(0), Var(2));
        assert_eq!(id, expect);
    }
}
