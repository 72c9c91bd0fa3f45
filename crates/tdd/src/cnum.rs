//! Interned complex numbers for TDD edge weights.
//!
//! Canonicity of decision diagrams requires that "the same" weight always
//! compares equal. Floating-point arithmetic would break that, so — like
//! mature DD packages — `qits-tdd` stores every weight once in a
//! [`ComplexTable`] and refers to it by a [`CIdx`]. Lookups are
//! tolerance-based: any value within the table's tolerance of an existing
//! entry is snapped to it. Node hashing and equality then operate on plain
//! `u32`s and are exact.

use qits_num::{Cplx, DEFAULT_TOLERANCE};

use crate::hash::FastMap;

/// Handle to an interned complex value in a [`ComplexTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CIdx(pub(crate) u32);

impl CIdx {
    /// The interned value `0`, present in every table.
    pub const ZERO: CIdx = CIdx(0);
    /// The interned value `1`, present in every table.
    pub const ONE: CIdx = CIdx(1);

    /// Whether this is the interned zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == CIdx::ZERO
    }

    /// Whether this is the interned one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == CIdx::ONE
    }
}

/// A tolerance-bucketed interning table for complex numbers.
///
/// Values are bucketed on a grid of `2 * tolerance`; a lookup inspects the
/// 3x3 neighbourhood of the candidate's bucket, so any stored value within
/// `tolerance` (in both components) is found. The first match wins, which
/// keeps snapping deterministic.
///
/// # Example
///
/// ```
/// use qits_num::Cplx;
/// use qits_tdd::ComplexTable;
///
/// let mut t = ComplexTable::new();
/// let a = t.intern(Cplx::new(0.5, 0.0));
/// let b = t.intern(Cplx::new(0.5 + 1e-14, 0.0));
/// assert_eq!(a, b); // snapped to the same entry
/// ```
#[derive(Debug)]
pub struct ComplexTable {
    values: Vec<Cplx>,
    buckets: FastMap<(i64, i64), Vec<u32>>,
    tol: f64,
    grid: f64,
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ComplexTable {
    /// Creates a table with the workspace default tolerance.
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// Creates a table with a custom tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn with_tolerance(tol: f64) -> Self {
        assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
        let mut table = ComplexTable {
            values: Vec::with_capacity(1024),
            buckets: FastMap::default(),
            tol,
            grid: 2.0 * tol,
        };
        let zero = table.push(Cplx::ZERO);
        debug_assert_eq!(zero, CIdx::ZERO);
        let one = table.push(Cplx::ONE);
        debug_assert_eq!(one, CIdx::ONE);
        table
    }

    /// The tolerance used for snapping.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds only the mandatory 0 and 1. Practically
    /// never true after any work; provided for completeness.
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 2
    }

    /// The complex value behind a handle.
    #[inline]
    pub fn value(&self, idx: CIdx) -> Cplx {
        self.values[idx.0 as usize]
    }

    /// Interns `c`, snapping to an existing entry within tolerance.
    ///
    /// Values within tolerance of zero always intern to [`CIdx::ZERO`] —
    /// this single rule is what makes "zero edge" detection exact everywhere
    /// else in the crate.
    pub fn intern(&mut self, c: Cplx) -> CIdx {
        if c.is_zero_with(self.tol) {
            return CIdx::ZERO;
        }
        let (bx, by) = self.bucket_of(c);
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                // Grid indices saturate for values past ~2^63 grid cells
                // (about 1.8e9 at the default tolerance), so the
                // neighbourhood must saturate too.
                let key = (bx.saturating_add(dx), by.saturating_add(dy));
                if let Some(entries) = self.buckets.get(&key) {
                    for &i in entries {
                        if self.values[i as usize].approx_eq_with(c, self.tol) {
                            return CIdx(i);
                        }
                    }
                }
            }
        }
        self.push(c)
    }

    fn bucket_of(&self, c: Cplx) -> (i64, i64) {
        (
            (c.re / self.grid).round() as i64,
            (c.im / self.grid).round() as i64,
        )
    }

    fn push(&mut self, c: Cplx) -> CIdx {
        let idx = u32::try_from(self.values.len()).expect("complex table overflow");
        self.values.push(c);
        let key = self.bucket_of(c);
        self.buckets.entry(key).or_default().push(idx);
        CIdx(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_preinterned() {
        let mut t = ComplexTable::new();
        assert_eq!(t.intern(Cplx::ZERO), CIdx::ZERO);
        assert_eq!(t.intern(Cplx::ONE), CIdx::ONE);
        assert!(t.value(CIdx::ZERO).approx_eq(Cplx::ZERO));
        assert!(t.value(CIdx::ONE).approx_eq(Cplx::ONE));
    }

    #[test]
    fn snaps_within_tolerance() {
        let mut t = ComplexTable::new();
        let a = t.intern(Cplx::new(0.25, -0.75));
        let b = t.intern(Cplx::new(0.25 + 5e-11, -0.75 - 5e-11));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_beyond_tolerance() {
        let mut t = ComplexTable::new();
        let a = t.intern(Cplx::new(0.25, 0.0));
        let b = t.intern(Cplx::new(0.25 + 1e-6, 0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn near_zero_is_zero() {
        let mut t = ComplexTable::new();
        assert!(t.intern(Cplx::new(1e-12, -1e-12)).is_zero());
        assert!(!t.intern(Cplx::new(1e-3, 0.0)).is_zero());
    }

    #[test]
    fn bucket_boundary_values_still_snap() {
        // Values straddling a bucket boundary must still be identified.
        let mut t = ComplexTable::with_tolerance(1e-10);
        let grid = 2e-10;
        let x = 3.0 * grid + 0.49 * grid; // just below a boundary
        let a = t.intern(Cplx::new(x, 0.0));
        let b = t.intern(Cplx::new(x + 0.9e-10, 0.0)); // crosses the boundary
        assert_eq!(a, b);
    }

    #[test]
    fn values_past_the_grid_range_still_intern() {
        // A weight ratio above ~1.8e9 (an `add` of a tiny residual and a
        // large edge) has a saturated grid index; looking up its
        // neighbourhood must not overflow.
        let mut t = ComplexTable::new();
        let big = Cplx::new(1e12, -1e12);
        let a = t.intern(big);
        assert_eq!(t.intern(big), a);
        assert_ne!(t.intern(Cplx::new(2e12, -1e12)), a);
        assert!(t.value(a).approx_eq_with(big, 0.0));
    }

    #[test]
    fn many_distinct_values() {
        let mut t = ComplexTable::new();
        let n0 = t.len();
        for i in 0..100 {
            t.intern(Cplx::new(i as f64 * 0.1, 0.0));
        }
        // 0.0 snaps to the pre-interned ZERO and 1.0 to ONE.
        assert_eq!(t.len(), n0 + 98);
    }
}
