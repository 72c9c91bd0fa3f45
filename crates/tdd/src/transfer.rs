//! Cross-manager diagram transfer.
//!
//! Managers are single-threaded by design (hash-consing wants exclusive
//! access), so parallel algorithms give each worker its own manager and
//! merge results afterwards. [`TddManager::import`] deep-copies a diagram
//! from another manager, re-interning weights and re-consing nodes, so the
//! result obeys this manager's canonical invariants.

use crate::hash::FastMap;
use crate::manager::TddManager;
use crate::node::{Edge, NodeId};
use qits_tensor::Var;

impl TddManager {
    /// Deep-copies the diagram rooted at `e` from `src` into `self`.
    ///
    /// The returned edge is canonical in `self`; importing the same
    /// diagram twice returns identical edges (hash-consing). Weight
    /// values are re-interned, so tolerances of the two managers need not
    /// match (the destination's discipline wins). Both managers order
    /// variables the same way, so every source node is one
    /// [`TddManager::make_node`] here.
    pub fn import(&mut self, src: &TddManager, e: Edge) -> Edge {
        self.import_rec(src, e, &mut FastMap::default())
    }

    fn import_rec(&mut self, src: &TddManager, e: Edge, memo: &mut FastMap<NodeId, Edge>) -> Edge {
        if e.is_zero() {
            return Edge::ZERO;
        }
        let w = self.intern(src.weight_value(e.weight));
        if w.is_zero() {
            return Edge::ZERO;
        }
        if e.is_terminal() {
            return Edge::ZERO.with_weight(w);
        }
        if let Some(&r) = memo.get(&e.node) {
            return self.mul_weight(r, w);
        }
        let node = *src.node(e.node);
        let lo = self.import_rec(src, node.low, memo);
        let hi = self.import_rec(src, node.high, memo);
        let r = self.make_node(node.var, lo, hi);
        memo.insert(e.node, r);
        self.mul_weight(r, w)
    }

    /// Builds the diagram `var ? high : low` even when `var` sits *below*
    /// a successor's root variable — the shape a snapshot that an older
    /// build wrote under an installed or sifted order hands to dump
    /// loading (`dump.rs`). While any successor's root is at or above
    /// `var`, expand both successors by cofactors on the topmost such
    /// variable and recurse; once `var` tops both, this is exactly
    /// [`TddManager::make_node`], so a dump written under the natural
    /// order pays one comparison per node.
    pub(crate) fn branch(
        &mut self,
        var: Var,
        low: Edge,
        high: Edge,
        memo: &mut FastMap<(Var, Edge, Edge), Edge>,
    ) -> Edge {
        // `y`: the topmost successor variable (the terminal's sentinel
        // sorts below every real one).
        let y = self.var_of(low.node).min(self.var_of(high.node));
        if y > var {
            return self.make_node(var, low, high);
        }
        if let Some(&r) = memo.get(&(var, low, high)) {
            return r;
        }
        // `y` is strictly above `var` (a canonical source diagram never
        // repeats `var` below itself, so equality is unreachable):
        // Shannon-expand both successors on it.
        let (l0, l1) = self.cofactors(low, y);
        let (h0, h1) = self.cofactors(high, y);
        let r0 = self.branch(var, l0, h0, memo);
        let r1 = self.branch(var, l1, h1, memo);
        let r = self.make_node(y, r0, r1);
        memo.insert((var, low, high), r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_num::Cplx;
    use qits_tensor::{Tensor, Var};

    fn sample_tensor() -> Tensor {
        Tensor::new(
            vec![Var(0), Var(1), Var(2)],
            (0..8)
                .map(|i| Cplx::new(i as f64 * 0.25 - 1.0, (i % 3) as f64 * 0.5))
                .collect(),
        )
    }

    #[test]
    fn import_preserves_values() {
        let t = sample_tensor();
        let mut src = TddManager::new();
        let e = src.from_tensor(&t);
        let mut dst = TddManager::new();
        let imported = dst.import(&src, e);
        assert!(dst
            .to_tensor(imported, &[Var(0), Var(1), Var(2)])
            .approx_eq(&t));
    }

    #[test]
    fn import_is_canonical_in_destination() {
        let t = sample_tensor();
        let mut src = TddManager::new();
        let e = src.from_tensor(&t);
        let mut dst = TddManager::new();
        let a = dst.import(&src, e);
        let b = dst.import(&src, e);
        let direct = dst.from_tensor(&t);
        assert_eq!(a, b);
        assert_eq!(a, direct);
    }

    #[test]
    fn import_zero_and_scalars() {
        let mut src = TddManager::new();
        let s = src.constant(Cplx::new(0.5, -0.25));
        let mut dst = TddManager::new();
        assert_eq!(dst.import(&src, Edge::ZERO), Edge::ZERO);
        let si = dst.import(&src, s);
        assert!(dst.weight_value(si.weight).approx_eq(Cplx::new(0.5, -0.25)));
    }

    #[test]
    fn import_node_count_matches() {
        let t = sample_tensor();
        let mut src = TddManager::new();
        let e = src.from_tensor(&t);
        let mut dst = TddManager::new();
        let imported = dst.import(&src, e);
        assert_eq!(src.node_count(e), dst.node_count(imported));
    }

    #[test]
    fn managers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TddManager>();
    }
}
