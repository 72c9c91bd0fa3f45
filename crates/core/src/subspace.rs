//! Hilbert-space subspaces, represented symbolically.
//!
//! A subspace is an orthonormal basis of TDD kets plus, while it is the
//! cheaper of the two, the TDD of its projector `P = sum |v><v|` (the
//! paper's Section IV). Both answer the one question every join and
//! membership test asks — the residual `psi - P psi` — at different
//! costs: applying `P` walks `node_count(P)` nodes, Gram–Schmidt against
//! the basis walks every basis ket. Floating-point noise defeats the
//! projector's node sharing on entangled spaces (a GHZ fixpoint's
//! projector reaches tens of thousands of nodes while no basis ket
//! exceeds a few hundred), whereas a walk's projector stays far smaller
//! than its basis. So a subspace keeps `P` only while it is no larger
//! than the basis (see [`Subspace`] for the exact rule), answers by
//! classical Gram–Schmidt applied twice past that point, and
//! materialises `P` on demand ([`Subspace::projector`]) for the callers
//! that need the operator itself. Each Gram–Schmidt round takes every
//! coefficient `<v_i|psi>` in one float walk
//! ([`TddManager::inner_products`]) and removes them all in one linear
//! combination ([`TddManager::lin_comb`]); the second round restores the
//! orthogonality the first loses to rounding. The rule follows node
//! counts the manager reports; there is no option or tuned constant.

use std::collections::BTreeMap;

use qits_num::Cplx;
use qits_tdd::{Edge, EdgeHolder, TddManager};
use qits_tensor::Var;

use crate::error::QitsError;

/// Squared-norm threshold below which a Gram–Schmidt residual counts as
/// zero (the vector lies in the subspace already).
///
/// Distinct from the TDD weight tolerance: residual norms accumulate error
/// from full contractions, so the rank decision uses a coarser cutoff.
pub const RANK_TOLERANCE: f64 = 1e-9;

/// A (closed) subspace of an `n`-qubit state space: an orthonormal basis
/// and, while it is the cheaper residual, the projector it sums to.
///
/// Kets live on the position-0 wire variables `x_i = Var::wire(i, 0)`; the
/// projector uses `x_i` as column and `y_i = Var::wire(i, 1)` as row
/// variables, giving the interleaved order `x1 < y1 < x2 < y2 < ...` shown
/// in the paper's Fig. 1.
///
/// All edges are owned by the [`TddManager`] passed to each method; using
/// a subspace with a different manager is a logic error.
///
/// # Projector or basis
///
/// Every [`Subspace::absorb`] extends the basis by one Gram–Schmidt step,
/// residual first, and then settles the projector by node counts the
/// manager reports. Call the new ket `v` and the projector of the basis
/// before it `P`:
///
/// * a kept `P` is compared with the grown basis: while `node_count(P)`
///   does not exceed the summed node counts of the basis kets (`v`
///   included), it is extended to `P + |v><v|`; otherwise it is dropped
///   and its node count remembered;
/// * a dropped `P` is rebuilt from the basis and judged the same way once
///   the basis has grown to the size the projector had when it was
///   dropped — so a space whose projector becomes compact again (a walk
///   filling its register) gets it back, while one whose projector keeps
///   outgrowing the basis (a GHZ fixpoint) stays projector-free. The
///   rebuild gives up as soon as a partial sum of its outer products
///   outgrows the grown basis, and remembers that sum's size instead.
///
/// A subspace made from a whole projector ([`Subspace::from_projector`],
/// [`Subspace::full`], [`Subspace::complement`], a restored snapshot)
/// keeps it iff it is no larger than the basis.
///
/// Residuals, [`Subspace::project`] and [`Subspace::contains`] apply `P`
/// when it is kept and run classical Gram–Schmidt twice against the basis
/// otherwise; the answers agree up to the rank tolerance.
/// [`Subspace::projector`] returns the kept `P`, or builds `sum |v><v|`
/// from the basis on each call — for [`Subspace::complement`], the
/// snapshot store, and figure reproductions.
///
/// # Garbage collection
///
/// A subspace holds long-lived edges (the basis kets and the kept
/// projector), so it is an [`EdgeHolder`] for the manager's garbage
/// collection (see [`qits_tdd::gc`]). Collection never moves a node, so
/// there is no relocation step: a subspace handed to
/// [`TddManager::collect`] (or to [`crate::Engine::collect`]) is simply
/// still valid afterwards, bit for bit. A subspace that was *not* held
/// holds detectably stale edges ([`TddManager::is_live`] returns `false`)
/// and must not be used again. Nothing collects inside an operation, so a
/// subspace only needs holding across the collections its owner runs.
///
/// # Example
///
/// ```
/// use qits_tdd::TddManager;
/// use qits_tensor::Var;
/// use qits::Subspace;
///
/// let mut m = TddManager::new();
/// let vars: Vec<Var> = (0..2).map(Var::ket).collect();
/// let k00 = m.basis_ket(&vars, &[false, false]);
/// let k11 = m.basis_ket(&vars, &[true, true]);
/// let s = Subspace::from_states(&mut m, 2, &[k00, k11]);
/// assert_eq!(s.dim(), 2);
/// let bell = m.product_ket(&vars, &[(qits_num::Cplx::FRAC_1_SQRT_2, qits_num::Cplx::FRAC_1_SQRT_2); 2]);
/// assert!(!s.contains(&mut m, bell)); // |++> is not in span{|00>,|11>}
/// ```
#[derive(Debug, Clone)]
pub struct Subspace {
    n_qubits: u32,
    basis: Vec<Edge>,
    /// `sum node_count(v)` over the basis: the nodes a Gram–Schmidt
    /// residual walks.
    basis_nodes: usize,
    projector: Projector,
}

/// The projector half of a [`Subspace`].
#[derive(Debug, Clone, Copy)]
enum Projector {
    /// `P = sum |v><v|` and its node count, updated by every absorb.
    Kept { p: Edge, nodes: usize },
    /// Dropped when it had this many nodes; rebuilt and judged again once
    /// the basis has at least as many.
    Dropped { nodes: usize },
}

impl Projector {
    /// `p`, the projector of a whole basis of `basis_nodes` nodes: kept
    /// iff it is no larger, else dropped with its size remembered.
    fn judge(m: &TddManager, p: Edge, basis_nodes: usize) -> Projector {
        let nodes = m.node_count(p);
        if nodes <= basis_nodes {
            Projector::Kept { p, nodes }
        } else {
            Projector::Dropped { nodes }
        }
    }
}

impl Subspace {
    /// The zero subspace of an `n`-qubit space.
    pub fn zero(n_qubits: u32) -> Subspace {
        Subspace {
            n_qubits,
            basis: Vec::new(),
            basis_nodes: 0,
            projector: Projector::Kept {
                p: Edge::ZERO,
                nodes: 0,
            },
        }
    }

    /// The ket variables `x_i` of an `n`-qubit space.
    pub fn ket_vars(n_qubits: u32) -> Vec<Var> {
        (0..n_qubits).map(Var::ket).collect()
    }

    /// The projector row variables `y_i` of an `n`-qubit space.
    pub fn row_vars(n_qubits: u32) -> Vec<Var> {
        (0..n_qubits).map(Var::row).collect()
    }

    /// Spans a subspace from arbitrary (possibly dependent, possibly
    /// unnormalised) states via the Gram–Schmidt join of Section IV-B.
    pub fn from_states(m: &mut TddManager, n_qubits: u32, states: &[Edge]) -> Subspace {
        let mut s = Subspace::zero(n_qubits);
        for &e in states {
            s.absorb(m, e);
        }
        s
    }

    /// Reassembles a subspace from parts restored off disk, keeping the
    /// projector iff it is no larger than the basis. The caller (the
    /// snapshot loader in [`crate::store`]) guarantees the basis is
    /// orthonormal and the projector is its sum of outer products — both
    /// held by construction, since dumps are taken from live subspaces
    /// and the TDD round trip is value-exact.
    pub(crate) fn from_parts(
        m: &TddManager,
        n_qubits: u32,
        basis: Vec<Edge>,
        projector: Edge,
    ) -> Subspace {
        let basis_nodes = basis.iter().map(|&v| m.node_count(v)).sum();
        Subspace {
            n_qubits,
            basis,
            basis_nodes,
            projector: Projector::judge(m, projector, basis_nodes),
        }
    }

    /// The subspace spanned by the basis kets from index `from` on — the
    /// frontier a fixpoint iteration images. It is only ever an input, so
    /// no projector is built for it; one would be built and judged on its
    /// first absorb, like any dropped projector whose size is unknown.
    pub(crate) fn tail(&self, m: &TddManager, from: usize) -> Subspace {
        Self::spanned(m, self.n_qubits, self.basis[from..].to_vec())
    }

    /// The subspace spanned by the first `k` basis kets — an earlier space
    /// of a reachability chain. Its projector is built on demand
    /// ([`Subspace::projector`]) and judged on its first absorb, as for
    /// [`Subspace::tail`].
    pub(crate) fn prefix(&self, m: &TddManager, k: usize) -> Subspace {
        Self::spanned(m, self.n_qubits, self.basis[..k].to_vec())
    }

    /// A projector-free subspace over part of an orthonormal basis.
    fn spanned(m: &TddManager, n_qubits: u32, basis: Vec<Edge>) -> Subspace {
        Subspace {
            n_qubits,
            basis_nodes: basis.iter().map(|&v| m.node_count(v)).sum(),
            basis,
            projector: Projector::Dropped { nodes: 0 },
        }
    }

    /// Register width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Dimension of the subspace.
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// The orthonormal basis kets.
    pub fn basis(&self) -> &[Edge] {
        &self.basis
    }

    /// Whether the subspace spans its whole `2^n`-dimensional space, so it
    /// contains every ket of its register.
    pub fn is_full(&self) -> bool {
        self.n_qubits < usize::BITS && self.basis.len() == 1usize << self.n_qubits
    }

    /// Whether the projector is currently kept (rather than rebuilt by
    /// [`Subspace::projector`] on each call).
    pub fn keeps_projector(&self) -> bool {
        matches!(self.projector, Projector::Kept { .. })
    }

    /// The projector TDD over interleaved `(x_i, y_i)` variables: the
    /// kept one, or `sum |v><v|` built from the basis.
    pub fn projector(&self, m: &mut TddManager) -> Edge {
        match self.projector {
            Projector::Kept { p, .. } => p,
            Projector::Dropped { .. } => {
                let built = self.build_projector(m, usize::MAX);
                built.expect("no partial sum exceeds usize::MAX nodes").0
            }
        }
    }
}

impl EdgeHolder for Subspace {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        for &e in &self.basis {
            visit(e);
        }
        if let Projector::Kept { p, .. } = self.projector {
            visit(p);
        }
    }
}

impl Subspace {
    /// Applies the projector to a ket: `P |psi>`.
    pub fn project(&self, m: &mut TddManager, psi: Edge) -> Edge {
        match self.projector {
            Projector::Kept { p, .. } => self.apply(m, p, psi),
            Projector::Dropped { .. } => {
                let u = self.gram_schmidt_residual(m, psi);
                m.sub(psi, u)
            }
        }
    }

    /// The Gram–Schmidt residual `psi - P psi`: through the kept
    /// projector, or by Gram–Schmidt against the basis.
    fn residual(&self, m: &mut TddManager, psi: Edge) -> Edge {
        match self.projector {
            Projector::Kept { p, .. } => {
                let proj = self.apply(m, p, psi);
                m.sub(psi, proj)
            }
            Projector::Dropped { .. } => self.gram_schmidt_residual(m, psi),
        }
    }

    /// `p |psi>` with the result renamed back onto the ket variables.
    fn apply(&self, m: &mut TddManager, p: Edge, psi: Edge) -> Edge {
        if p.is_zero() {
            return Edge::ZERO;
        }
        let xs = Self::ket_vars(self.n_qubits);
        let projected = m.contract(p, psi, &xs);
        let map: BTreeMap<Var, Var> = (0..self.n_qubits)
            .map(|q| (Var::row(q), Var::ket(q)))
            .collect();
        m.rename_monotone(projected, &map)
    }

    /// Classical Gram–Schmidt, applied twice: each round takes every
    /// coefficient `<v_i|u>` in one batched walk and removes them all from
    /// `u` in one linear combination. One round leaves `u` orthogonal to
    /// the basis only up to the rounding of its coefficients; the second
    /// removes what that left behind.
    fn gram_schmidt_residual(&self, m: &mut TddManager, psi: Edge) -> Edge {
        let xs = Self::ket_vars(self.n_qubits);
        let mut u = psi;
        for _ in 0..2 {
            if u.is_zero() || self.basis.is_empty() {
                break;
            }
            let coefficients = m.inner_products(&self.basis, u, &xs);
            let mut terms = Vec::with_capacity(self.basis.len() + 1);
            terms.push((Cplx::ONE, u));
            terms.extend(self.basis.iter().zip(coefficients).map(|(&v, c)| (-c, v)));
            u = m.lin_comb(&terms);
        }
        u
    }

    /// Gram–Schmidt step: extends the basis by (the normalised residual
    /// of) `psi` if it adds a new dimension. Returns `true` if the
    /// dimension grew; a full space returns `false` without a residual.
    ///
    /// This is the paper's subspace-join primitive: `u = psi - P psi`;
    /// if `u` is non-zero, normalise it and add it to the basis. The
    /// projector is then settled as the type docs describe: `P += |u><u|`
    /// while it is no larger than the grown basis, dropped otherwise, and
    /// rebuilt once the basis has outgrown the last dropped projector —
    /// a rebuild that stops once its partial sum outgrows the basis.
    pub fn absorb(&mut self, m: &mut TddManager, psi: Edge) -> bool {
        if psi.is_zero() || self.is_full() {
            return false;
        }
        let u = self.residual(m, psi);
        if u.is_zero() {
            return false;
        }
        let xs = Self::ket_vars(self.n_qubits);
        let n2 = m.norm_sqr(u, &xs);
        if n2 <= RANK_TOLERANCE {
            return false;
        }
        let v = m.scale(u, Cplx::real(1.0 / n2.sqrt()));
        let basis_nodes = self.basis_nodes + m.node_count(v);
        // The projector of the basis before `v` and its node count, if
        // kept or rebuilt within the grown basis's size; otherwise the
        // size to remember.
        let before = match self.projector {
            Projector::Kept { p, nodes } => Ok((p, nodes)),
            Projector::Dropped { nodes } if basis_nodes >= nodes => {
                self.build_projector(m, basis_nodes)
            }
            Projector::Dropped { nodes } => Err(nodes),
        };
        self.basis.push(v);
        self.basis_nodes = basis_nodes;
        self.projector = match before {
            Ok((p, nodes)) if nodes <= basis_nodes => {
                let outer = self.outer(m, v);
                let p = m.add(p, outer);
                Projector::Kept {
                    p,
                    nodes: m.node_count(p),
                }
            }
            Ok((_, nodes)) | Err(nodes) => Projector::Dropped { nodes },
        };
        true
    }

    /// [`Subspace::absorb`] with the implicit register assumption made
    /// explicit: `psi` must be a ket over this subspace's register — its
    /// support may only contain ket variables `x_q` with `q < n_qubits`.
    /// `absorb` silently trusts this (a wider ket corrupts the projector
    /// bookkeeping); here it is validated and reported as a
    /// [`QitsError::RegisterMismatch`] value. [`crate::Engine`]'s
    /// subspace constructor routes through this check. A `psi` a
    /// collection swept is reported as [`QitsError::StaleHandle`].
    pub fn try_absorb(&mut self, m: &mut TddManager, psi: Edge) -> Result<bool, QitsError> {
        ensure_live(m, &psi, "the state")?;
        for v in m.support(psi).iter() {
            if v.position() != 0 {
                // Not a width problem at all: the tensor carries a
                // non-ket index (row/intermediate wire position), so it
                // is not a state vector over this register.
                return Err(QitsError::RegisterMismatch {
                    expected: self.n_qubits,
                    found: v.qubit() + 1,
                    context: format!(
                        "a tensor that is not a ket (variable {v} sits at wire \
                         position {}, not 0)",
                        v.position()
                    ),
                });
            }
            if v.qubit() >= self.n_qubits {
                return Err(QitsError::RegisterMismatch {
                    expected: self.n_qubits,
                    found: v.qubit() + 1,
                    context: format!("a state depending on ket variable {v}"),
                });
            }
        }
        Ok(self.absorb(m, psi))
    }

    /// `|v><v|` over the projector variable convention.
    fn outer(&self, m: &mut TddManager, v: Edge) -> Edge {
        let bra = m.conj(v); // column variables x_i
        let map: BTreeMap<Var, Var> = (0..self.n_qubits)
            .map(|q| (Var::ket(q), Var::row(q)))
            .collect();
        let ket_rows = m.rename_monotone(v, &map); // row variables y_i
        m.contract(bra, ket_rows, &[])
    }

    /// `sum |v><v|` over the basis, in basis order, and its node count —
    /// or, once a partial sum has more than `limit` nodes, that partial
    /// sum's node count.
    ///
    /// Outer products are added one at a time while each one grows the
    /// partial sum, so a sum that outgrows `limit` is caught at the outer
    /// product that takes it over. Once one leaves the sum no larger, the
    /// projector has saturated and every further add would rebuild all of
    /// it, so the next batch is twice as long and is summed in one linear
    /// combination; the sum is checked after each batch.
    fn build_projector(&self, m: &mut TddManager, limit: usize) -> Result<(Edge, usize), usize> {
        let (mut p, mut nodes) = (Edge::ZERO, 0);
        let (mut start, mut batch) = (0, 1);
        while start < self.basis.len() {
            let end = (start + batch).min(self.basis.len());
            p = if batch == 1 {
                let outer = self.outer(m, self.basis[start]);
                m.add(p, outer)
            } else {
                let mut terms = vec![(Cplx::ONE, p)];
                for &v in &self.basis[start..end] {
                    terms.push((Cplx::ONE, self.outer(m, v)));
                }
                m.lin_comb(&terms)
            };
            let grown = m.node_count(p);
            if grown > limit {
                return Err(grown);
            }
            batch = if grown > nodes { 1 } else { 2 * batch };
            (start, nodes) = (end, grown);
        }
        Ok((p, nodes))
    }

    /// The join `self v other` (smallest subspace containing both).
    pub fn join(&self, m: &mut TddManager, other: &Subspace) -> Subspace {
        assert_eq!(self.n_qubits, other.n_qubits, "join needs equal registers");
        let mut s = self.clone();
        for &e in &other.basis {
            s.absorb(m, e);
        }
        s
    }

    /// Whether a (normalised) ket lies in the subspace.
    pub fn contains(&self, m: &mut TddManager, psi: Edge) -> bool {
        let u = self.residual(m, psi);
        if u.is_zero() {
            return true;
        }
        let xs = Self::ket_vars(self.n_qubits);
        m.norm_sqr(u, &xs) <= RANK_TOLERANCE
    }

    /// Whether `self` is contained in `other`.
    pub fn is_subspace_of(&self, m: &mut TddManager, other: &Subspace) -> bool {
        self.basis.iter().all(|&e| other.contains(m, e))
    }

    /// Subspace equality (mutual containment; dimensions checked first).
    pub fn equals(&self, m: &mut TddManager, other: &Subspace) -> bool {
        self.dim() == other.dim() && self.is_subspace_of(m, other)
    }

    /// The full `2^n`-dimensional space, whose projector is the identity.
    ///
    /// Useful as the trivial invariant and as the starting point for
    /// [`Subspace::complement`]. Cost is `O(4^n)` basis kets; intended for
    /// the small registers model-checking properties are stated on.
    pub fn full(m: &mut TddManager, n_qubits: u32) -> Subspace {
        let identity = Self::identity(m, n_qubits);
        Subspace::from_projector(m, n_qubits, identity)
    }

    /// The orthogonal complement: the subspace with projector `I - P`.
    ///
    /// Safety properties are often stated as "never reach `Bad`"; checking
    /// them as an invariant needs `Bad`'s complement.
    pub fn complement(&self, m: &mut TddManager) -> Subspace {
        let identity = Self::identity(m, self.n_qubits);
        let p = self.projector(m);
        let comp = m.sub(identity, p);
        Subspace::from_projector(m, self.n_qubits, comp)
    }

    /// The identity over interleaved `(x_i, y_i)` variables.
    fn identity(m: &mut TddManager, n_qubits: u32) -> Edge {
        let mut identity = Edge::ONE;
        for q in 0..n_qubits {
            let id = m.identity(Var::ket(q), Var::row(q));
            identity = m.contract(identity, id, &[]);
        }
        identity
    }

    /// Reconstructs a subspace from a projector TDD via the paper's
    /// Section IV-A basis decomposition: repeatedly locate the leftmost
    /// non-zero path, slice out that column, normalise it into a basis
    /// vector, and subtract its outer product. The given projector is then
    /// kept iff it is no larger than the basis.
    ///
    /// # Panics
    ///
    /// Panics if `projector` is not (numerically) an orthogonal projector —
    /// detected when a peeled column fails to reduce the remainder.
    pub fn from_projector(m: &mut TddManager, n_qubits: u32, projector: Edge) -> Subspace {
        let xs = Self::ket_vars(n_qubits);
        let ys = Self::row_vars(n_qubits);
        let all: Vec<Var> = {
            let mut v = xs.clone();
            v.extend(ys.iter().copied());
            v.sort_unstable();
            v
        };
        let mut s = Subspace::zero(n_qubits);
        let mut p = projector;
        let max_dim = 1usize << n_qubits.min(30);
        while !p.is_zero() {
            assert!(
                s.dim() < max_dim,
                "projector decomposition exceeded the space dimension; \
                 input is not a projector"
            );
            let asn = m
                .first_nonzero_assignment(p, &all)
                .expect("non-zero diagram has a non-zero path");
            // Column index: the x-variable bits of the leftmost path.
            let mut column = p;
            for (i, &v) in all.iter().enumerate() {
                if v.position() == 0 {
                    column = m.slice(column, v, asn[i]);
                }
            }
            // `column` is a ket over the row variables y_i.
            let n2 = m.norm_sqr(column, &ys);
            assert!(
                n2 > RANK_TOLERANCE,
                "leftmost non-zero column has zero norm; input is not a projector"
            );
            let v = m.scale(column, Cplx::real(1.0 / n2.sqrt()));
            let map: BTreeMap<Var, Var> =
                (0..n_qubits).map(|q| (Var::row(q), Var::ket(q))).collect();
            let ket = m.rename_monotone(v, &map);
            s.basis.push(ket);
            s.basis_nodes += m.node_count(ket);
            let outer = s.outer(m, ket);
            p = m.sub(p, outer);
        }
        s.projector = Projector::judge(m, projector, s.basis_nodes);
        s
    }
}

/// Whether a collection that did not hold `h` swept any of its edges: one
/// liveness check per edge, and no diagram operation.
pub(crate) fn swept(m: &TddManager, h: &dyn EdgeHolder) -> bool {
    let mut stale = false;
    h.gc_edges(&mut |e| stale |= !m.is_live(e));
    stale
}

/// [`QitsError::StaleHandle`] naming `context` if a collection swept any
/// edge of `h` — the check a fallible entry point runs on what its caller
/// hands it, in release builds too.
pub(crate) fn ensure_live(
    m: &TddManager,
    h: &dyn EdgeHolder,
    context: &str,
) -> Result<(), QitsError> {
    if swept(m, h) {
        return Err(QitsError::StaleHandle {
            context: context.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::tensorize::states;

    fn ket(m: &mut TddManager, n: u32, bits: &[bool]) -> Edge {
        let vars = Subspace::ket_vars(n);
        m.basis_ket(&vars, bits)
    }

    #[test]
    fn zero_subspace() {
        let mut m = TddManager::new();
        let s = Subspace::zero(2);
        assert_eq!(s.dim(), 0);
        let k = ket(&mut m, 2, &[false, true]);
        assert!(!s.contains(&mut m, k));
        assert!(s.project(&mut m, k).is_zero());
    }

    #[test]
    fn absorb_builds_orthonormal_basis() {
        let mut m = TddManager::new();
        let mut s = Subspace::zero(2);
        let k00 = ket(&mut m, 2, &[false, false]);
        let k01 = ket(&mut m, 2, &[false, true]);
        assert!(s.absorb(&mut m, k00));
        assert!(!s.absorb(&mut m, k00)); // already inside
        assert!(s.absorb(&mut m, k01));
        assert_eq!(s.dim(), 2);
        // Orthonormality of the stored basis.
        let vars = Subspace::ket_vars(2);
        for (i, &a) in s.basis().iter().enumerate() {
            for (j, &b) in s.basis().iter().enumerate() {
                let ip = m.inner_product(a, b, &vars);
                let expect = if i == j { Cplx::ONE } else { Cplx::ZERO };
                assert!(ip.approx_eq_with(expect, 1e-8));
            }
        }
    }

    #[test]
    fn try_absorb_rejects_wider_kets_and_row_variables() {
        let mut m = TddManager::new();
        let mut s = Subspace::zero(2);
        // A ket on qubit 2 exceeds the 2-qubit register.
        let wide = ket(&mut m, 3, &[false, false, true]);
        let err = s.try_absorb(&mut m, wide).unwrap_err();
        assert!(matches!(
            err,
            crate::error::QitsError::RegisterMismatch { expected: 2, .. }
        ));
        // A projector-shaped tensor (row variable) is not a ket at all.
        let id = m.identity(Var::ket(0), Var::row(0));
        assert!(s.try_absorb(&mut m, id).is_err());
        // In-register kets absorb exactly as `absorb` would.
        let k = ket(&mut m, 2, &[true, false]);
        assert!(s.try_absorb(&mut m, k).unwrap());
        assert_eq!(s.dim(), 1);
    }

    #[test]
    fn absorb_dependent_superposition() {
        let mut m = TddManager::new();
        let mut s = Subspace::zero(1);
        let k0 = ket(&mut m, 1, &[false]);
        let k1 = ket(&mut m, 1, &[true]);
        s.absorb(&mut m, k0);
        s.absorb(&mut m, k1);
        // |+> is dependent on {|0>, |1>}.
        let vars = Subspace::ket_vars(1);
        let plus = m.product_ket(&vars, &[states::PLUS]);
        assert!(!s.absorb(&mut m, plus));
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn projector_is_idempotent_and_hermitian() {
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(3);
        let a = m.product_ket(&vars, &[states::PLUS, states::PLUS, states::MINUS]);
        let b = m.basis_ket(&vars, &[true, true, false]);
        let s = Subspace::from_states(&mut m, 3, &[a, b]);
        assert_eq!(s.dim(), 2);
        // P applied twice equals P applied once, on a probe state.
        let probe = m.product_ket(&vars, &[states::PLUS, states::ZERO, states::ONE]);
        let p1 = s.project(&mut m, probe);
        let p2 = s.project(&mut m, p1);
        let diff = m.sub(p1, p2);
        assert!(diff.is_zero() || m.norm_sqr(diff, &vars) < 1e-16);
        // Hermitian: P == conj(P) transposed == rename-swapped conj. The
        // interleaved convention makes transposition a x<->y swap, which is
        // NOT monotone; check instead <a|P b> == <P a|b>.
        let pa = s.project(&mut m, probe);
        let c = m.basis_ket(&vars, &[false, true, true]);
        let pc = s.project(&mut m, c);
        let lhs = m.inner_product(c, pa, &vars);
        let rhs = m.inner_product(pc, probe, &vars);
        assert!(lhs.approx_eq_with(rhs, 1e-8));
    }

    #[test]
    fn paper_example_2_join() {
        // Section IV-B, Example 2: completing {|++->} with |11->.
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(3);
        let ppm = m.product_ket(&vars, &[states::PLUS, states::PLUS, states::MINUS]);
        let oom = m.product_ket(&vars, &[states::ONE, states::ONE, states::MINUS]);
        let s = Subspace::from_states(&mut m, 3, &[ppm, oom]);
        assert_eq!(s.dim(), 2);
        // The second basis vector is -1/(2 sqrt 3) (|00>+|01>+|10>-3|11>)|->.
        let v = s.basis()[1];
        let amp = |m: &mut TddManager, bits: [bool; 3]| {
            let asn: BTreeMap<Var, bool> = vars.iter().copied().zip(bits.iter().copied()).collect();
            m.eval(v, &asn)
        };
        let c = 1.0 / (2.0 * 3f64.sqrt()) * std::f64::consts::FRAC_1_SQRT_2;
        // |xy0> component of |-> carries +1/sqrt2; overall sign is a global
        // phase, so compare ratios: a(110)/a(000) = -3.
        let a000 = amp(&mut m, [false, false, false]);
        let a110 = amp(&mut m, [true, true, false]);
        assert!((a000.abs() - c).abs() < 1e-9, "got {a000}");
        assert!((a110 / a000).approx_eq_with(Cplx::real(-3.0), 1e-6));
    }

    #[test]
    fn paper_example_1_projector_decomposition() {
        // Section IV-A, Example 1: decompose the projector of
        // span{|++->, |11->} (the matrix of Fig. 1) back into a basis.
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(3);
        let ppm = m.product_ket(&vars, &[states::PLUS, states::PLUS, states::MINUS]);
        let oom = m.product_ket(&vars, &[states::ONE, states::ONE, states::MINUS]);
        let s = Subspace::from_states(&mut m, 3, &[ppm, oom]);
        let p = s.projector(&mut m);
        let decomposed = Subspace::from_projector(&mut m, 3, p);
        assert_eq!(decomposed.dim(), 2);
        assert!(decomposed.equals(&mut m, &s));
        // First recovered vector: normalised first non-zero column =
        // 1/sqrt(3)(|00>+|01>+|10>)|->, as computed in the paper.
        let v1 = decomposed.basis()[0];
        let a = {
            let asn: BTreeMap<Var, bool> =
                vars.iter().copied().zip([false, false, false]).collect();
            m.eval(v1, &asn)
        };
        assert!((a.abs() - 1.0 / 6f64.sqrt()).abs() < 1e-9, "got {a}");
    }

    #[test]
    fn join_of_disjoint_spaces() {
        let mut m = TddManager::new();
        let k0 = ket(&mut m, 2, &[false, false]);
        let k1 = ket(&mut m, 2, &[true, true]);
        let a = Subspace::from_states(&mut m, 2, &[k0]);
        let b = Subspace::from_states(&mut m, 2, &[k1]);
        let j = a.join(&mut m, &b);
        assert_eq!(j.dim(), 2);
        assert!(a.is_subspace_of(&mut m, &j));
        assert!(b.is_subspace_of(&mut m, &j));
        assert!(!j.is_subspace_of(&mut m, &a));
    }

    #[test]
    fn equality_is_basis_independent() {
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(1);
        let k0 = ket(&mut m, 1, &[false]);
        let k1 = ket(&mut m, 1, &[true]);
        let plus = m.product_ket(&vars, &[states::PLUS]);
        let minus = m.product_ket(&vars, &[states::MINUS]);
        let a = Subspace::from_states(&mut m, 1, &[k0, k1]);
        let b = Subspace::from_states(&mut m, 1, &[plus, minus]);
        assert!(a.equals(&mut m, &b));
    }

    #[test]
    fn full_space_has_full_dimension() {
        let mut m = TddManager::new();
        let s = Subspace::full(&mut m, 3);
        assert_eq!(s.dim(), 8);
        let probe = m.product_ket(
            &Subspace::ket_vars(3),
            &[states::PLUS, states::MINUS, states::ONE],
        );
        assert!(s.contains(&mut m, probe));
        assert!(s.is_full());
        assert!(!s.clone().absorb(&mut m, probe));
    }

    #[test]
    fn complement_properties() {
        let mut m = TddManager::new();
        let vars = Subspace::ket_vars(2);
        let bell_pieces = [
            m.basis_ket(&vars, &[false, false]),
            m.basis_ket(&vars, &[true, true]),
        ];
        let s = Subspace::from_states(&mut m, 2, &bell_pieces);
        let c = s.complement(&mut m);
        assert_eq!(s.dim() + c.dim(), 4);
        // Complement basis is orthogonal to the original space.
        for &b in c.basis() {
            assert!(!s.contains(&mut m, b));
            let proj = s.project(&mut m, b);
            assert!(proj.is_zero() || m.norm_sqr(proj, &vars) < 1e-12);
        }
        // Double complement returns the original space.
        let cc = c.complement(&mut m);
        assert!(cc.equals(&mut m, &s));
    }

    #[test]
    fn complement_of_full_space_is_zero() {
        let mut m = TddManager::new();
        let s = Subspace::full(&mut m, 2);
        let c = s.complement(&mut m);
        assert_eq!(c.dim(), 0);
    }

    #[test]
    fn full_space_projector_is_identity() {
        let mut m = TddManager::new();
        let k0 = ket(&mut m, 1, &[false]);
        let k1 = ket(&mut m, 1, &[true]);
        let s = Subspace::from_states(&mut m, 1, &[k0, k1]);
        let expect = m.identity(Var::ket(0), Var::row(0));
        assert_eq!(s.projector(&mut m), expect);
    }

    /// A 3-qubit subspace whose projector outgrows its basis: GHZ-like
    /// superpositions with irrational phases.
    fn entangled(m: &mut TddManager) -> (Subspace, Vec<Edge>) {
        let vars = Subspace::ket_vars(3);
        let mut states = Vec::new();
        for (i, bits) in [
            [false, false, false],
            [true, false, true],
            [false, true, true],
        ]
        .iter()
        .enumerate()
        {
            let a = m.basis_ket(&vars, bits);
            let flipped: Vec<bool> = bits.iter().map(|b| !b).collect();
            let b = m.basis_ket(&vars, &flipped);
            let phase = m.scale(b, Cplx::from_polar(1.0, 0.7 + i as f64));
            states.push(m.add(a, phase));
        }
        (Subspace::from_states(m, 3, &states), states)
    }

    #[test]
    fn projector_is_dropped_once_it_outgrows_the_basis() {
        let mut m = TddManager::new();
        let (s, _) = entangled(&mut m);
        assert_eq!(s.dim(), 3);
        assert!(!s.keeps_projector());
        // The on-demand projector is the sum of the basis outer products:
        // applying it agrees with the modified Gram–Schmidt projection.
        let p = s.projector(&mut m);
        let vars = Subspace::ket_vars(3);
        let probe = m.product_ket(&vars, &[states::PLUS, states::ZERO, states::MINUS]);
        let by_gram_schmidt = s.project(&mut m, probe);
        let by_p = s.apply(&mut m, p, probe);
        let diff = m.sub(by_gram_schmidt, by_p);
        assert!(diff.is_zero() || m.norm_sqr(diff, &vars) < 1e-16);
        assert!(m.node_count(p) > s.basis().iter().map(|&v| m.node_count(v)).sum());
    }

    #[test]
    fn projector_free_answers_match_the_projector() {
        let mut m = TddManager::new();
        let (s, states) = entangled(&mut m);
        let vars = Subspace::ket_vars(3);
        for &e in &states {
            assert!(s.contains(&mut m, e));
        }
        let outside = m.basis_ket(&vars, &[true, true, false]);
        assert!(!s.contains(&mut m, outside));
        assert!(!s.clone().absorb(&mut m, states[1]));
        // The complement goes through the materialised projector.
        let c = s.complement(&mut m);
        assert_eq!(c.dim(), 5);
        for &b in c.basis() {
            assert!(!s.contains(&mut m, b));
        }
    }

    #[test]
    fn a_prefix_spans_the_first_basis_kets() {
        let mut m = TddManager::new();
        let (s, states) = entangled(&mut m);
        let prefix = s.prefix(&m, 2);
        assert_eq!(prefix.basis(), &s.basis()[..2]);
        assert!(!prefix.keeps_projector());
        let first_two = Subspace::from_states(&mut m, 3, &states[..2]);
        assert!(prefix.equals(&mut m, &first_two));
        assert!(!prefix.contains(&mut m, states[2]));
        assert!(s.prefix(&m, 0).basis().is_empty());
    }

    #[test]
    fn a_batched_projector_rebuild_is_the_sum_of_its_outer_products() {
        // A full basis of entangled kets: the partial sums of its outer
        // products stop growing well before the identity they end at, so
        // the rebuild sums later outer products in batches.
        let mut m = TddManager::new();
        let n = 4;
        let vars = Subspace::ket_vars(n);
        let states: Vec<Edge> = (0..16usize)
            .map(|x| {
                let bits: Vec<bool> = (0..n).map(|q| (x >> q) & 1 == 1).collect();
                let flipped: Vec<bool> = bits.iter().map(|b| !b).collect();
                let a = m.basis_ket(&vars, &bits);
                let b = m.basis_ket(&vars, &flipped);
                let b = m.scale(b, Cplx::from_polar(0.5, 0.3 * x as f64));
                m.add(a, b)
            })
            .collect();
        let s = Subspace::from_states(&mut m, n, &states);
        assert_eq!(s.dim(), 16);
        let free = s.prefix(&m, 16);
        let mut one_at_a_time = Edge::ZERO;
        for &v in free.basis() {
            let outer = free.outer(&mut m, v);
            one_at_a_time = m.add(one_at_a_time, outer);
        }
        let batched = free.projector(&mut m);
        assert_eq!(batched, one_at_a_time);
        assert_eq!(batched, Subspace::full(&mut m, n).projector(&mut m));
    }

    #[test]
    fn a_compact_projector_comes_back() {
        // The entangled states outgrow their projector; completing the
        // space with computational basis kets makes it compact again
        // (the identity, at full dimension), so it is rebuilt and kept.
        let mut m = TddManager::new();
        let (mut s, _) = entangled(&mut m);
        assert!(!s.keeps_projector());
        for x in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|q| (x >> (2 - q)) & 1 == 1).collect();
            let k = ket(&mut m, 3, &bits);
            s.absorb(&mut m, k);
        }
        assert_eq!(s.dim(), 8);
        assert!(s.keeps_projector());
        let identity = Subspace::full(&mut m, 3).projector(&mut m);
        assert_eq!(s.projector(&mut m), identity);
    }
}
