//! Dense square complex matrices.
//!
//! [`Mat`] backs two things in the workspace:
//!
//! 1. **Gate definitions** — every base gate in `qits-circuit` is a 2x2 or
//!    4x4 [`Mat`] before controls are added around it symbolically.
//! 2. **Brute-force oracles** — test suites build the full `2^n x 2^n`
//!    operator of a small circuit with [`Mat::kron`] / [`Mat::matmul`] and
//!    compare against the symbolic TDD pipeline.
//!
//! Dimensions are powers of two throughout `qits`, but nothing here assumes
//! it except [`Mat::qubits`].

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::key::{Fnv128, KeyBits};
use crate::Cplx;

/// A dense, row-major, square complex matrix.
///
/// # Example
///
/// ```
/// use qits_num::{Cplx, Mat};
///
/// let x = Mat::from_rows(&[
///     &[Cplx::ZERO, Cplx::ONE],
///     &[Cplx::ONE, Cplx::ZERO],
/// ]);
/// assert!(x.matmul(&x).approx_eq(&Mat::identity(2)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    dim: usize,
    data: Vec<Cplx>,
}

impl Mat {
    /// Creates a `dim x dim` zero matrix.
    pub fn zeros(dim: usize) -> Self {
        Mat {
            dim,
            data: vec![Cplx::ZERO; dim * dim],
        }
    }

    /// Creates the `dim x dim` identity matrix.
    pub fn identity(dim: usize) -> Self {
        let mut m = Mat::zeros(dim);
        for i in 0..dim {
            m[(i, i)] = Cplx::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not all of length `rows.len()` (the matrix must
    /// be square).
    pub fn from_rows(rows: &[&[Cplx]]) -> Self {
        let dim = rows.len();
        let mut m = Mat::zeros(dim);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), dim, "matrix must be square");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Builds a diagonal matrix from its diagonal entries.
    pub fn diagonal(diag: &[Cplx]) -> Self {
        let mut m = Mat::zeros(diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// The dimension (number of rows = number of columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of qubits this matrix acts on.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is not a power of two.
    pub fn qubits(&self) -> usize {
        assert!(
            self.dim.is_power_of_two(),
            "dimension {} not a power of two",
            self.dim
        );
        self.dim.trailing_zeros() as usize
    }

    /// Row-major access to the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[Cplx] {
        &self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.dim, rhs.dim, "dimension mismatch in matmul");
        let n = self.dim;
        let mut out = Mat::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn matvec(&self, v: &[Cplx]) -> Vec<Cplx> {
        assert_eq!(v.len(), self.dim, "dimension mismatch in matvec");
        let n = self.dim;
        let mut out = vec![Cplx::ZERO; n];
        for i in 0..n {
            let mut acc = Cplx::ZERO;
            for j in 0..n {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Kronecker (tensor) product `self (x) rhs`.
    pub fn kron(&self, rhs: &Mat) -> Mat {
        let (a, b) = (self.dim, rhs.dim);
        let mut out = Mat::zeros(a * b);
        for i in 0..a {
            for j in 0..a {
                let v = self[(i, j)];
                if v.is_zero() {
                    continue;
                }
                for k in 0..b {
                    for l in 0..b {
                        out[(i * b + k, j * b + l)] = v * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// The (non-conjugating) transpose.
    pub fn transpose(&self) -> Mat {
        let n = self.dim;
        let mut out = Mat::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// The conjugate transpose.
    pub fn adjoint(&self) -> Mat {
        let n = self.dim;
        let mut out = Mat::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Sum of two matrices.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.dim, rhs.dim, "dimension mismatch in add");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += *r;
        }
        out
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: Cplx) -> Mat {
        let mut out = self.clone();
        for o in out.data.iter_mut() {
            *o *= k;
        }
        out
    }

    /// Whether the entries of `self` and `rhs` agree within the default
    /// tolerance.
    pub fn approx_eq(&self, rhs: &Mat) -> bool {
        self.dim == rhs.dim
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(a, b)| a.approx_eq(*b))
    }

    /// Whether `self * self^dagger = I` within the default tolerance.
    pub fn is_unitary(&self) -> bool {
        self.matmul(&self.adjoint())
            .approx_eq(&Mat::identity(self.dim))
    }

    /// Whether the matrix is diagonal within the default tolerance.
    ///
    /// Diagonal gates are represented with a single (shared) tensor-network
    /// index per wire, which is what makes the paper's hyper-edge interaction
    /// graph (Fig. 5) and the small QFT diagrams possible.
    pub fn is_diagonal(&self) -> bool {
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i != j && !self[(i, j)].is_zero() {
                    return false;
                }
            }
        }
        true
    }
}

impl KeyBits for Mat {
    fn key_bits(&self, h: &mut Fnv128) {
        let Mat { dim, data } = self;
        dim.key_bits(h);
        data.key_bits(h);
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = Cplx;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Cplx {
        &self.data[i * self.dim + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Cplx {
        &mut self.data[i * self.dim + j]
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.dim {
            for j in 0..self.dim {
                if j > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>8.4}", format!("{}", self[(i, j)]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hadamard() -> Mat {
        let h = Cplx::FRAC_1_SQRT_2;
        Mat::from_rows(&[&[h, h], &[h, -h]])
    }

    #[test]
    fn identity_is_neutral() {
        let h = hadamard();
        assert!(h.matmul(&Mat::identity(2)).approx_eq(&h));
        assert!(Mat::identity(2).matmul(&h).approx_eq(&h));
    }

    #[test]
    fn hadamard_is_unitary_and_self_inverse() {
        let h = hadamard();
        assert!(h.is_unitary());
        assert!(h.matmul(&h).approx_eq(&Mat::identity(2)));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = Mat::from_rows(&[&[Cplx::ZERO, Cplx::ONE], &[Cplx::ONE, Cplx::ZERO]]);
        let xx = x.kron(&x);
        assert_eq!(xx.dim(), 4);
        // X (x) X maps |00> -> |11>.
        let v = xx.matvec(&[Cplx::ONE, Cplx::ZERO, Cplx::ZERO, Cplx::ZERO]);
        assert!(v[3].approx_eq(Cplx::ONE));
        assert!(v[0].approx_eq(Cplx::ZERO));
    }

    #[test]
    fn adjoint_conjugates() {
        let m = Mat::from_rows(&[
            &[Cplx::new(1.0, 2.0), Cplx::new(0.0, 1.0)],
            &[Cplx::ZERO, Cplx::new(-1.0, 0.5)],
        ]);
        let a = m.adjoint();
        assert!(a[(0, 0)].approx_eq(Cplx::new(1.0, -2.0)));
        assert!(a[(1, 0)].approx_eq(Cplx::new(0.0, -1.0)));
    }

    #[test]
    fn diagonal_detection() {
        let z = Mat::diagonal(&[Cplx::ONE, Cplx::NEG_ONE]);
        assert!(z.is_diagonal());
        assert!(!hadamard().is_diagonal());
    }

    #[test]
    fn qubit_count() {
        assert_eq!(Mat::identity(8).qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn qubit_count_rejects_non_power() {
        let _ = Mat::identity(3).qubits();
    }

    #[test]
    fn matvec_matches_matmul() {
        let h = hadamard();
        let v = vec![Cplx::ONE, Cplx::ZERO];
        let mv = h.matvec(&v);
        assert!(mv[0].approx_eq(Cplx::FRAC_1_SQRT_2));
        assert!(mv[1].approx_eq(Cplx::FRAC_1_SQRT_2));
    }
}
