//! Complex arithmetic and small dense linear algebra for the `qits` workspace.
//!
//! This crate is the numeric substrate shared by every other `qits` crate:
//!
//! * [`Cplx`] — a plain `f64` complex number with the operator overloads,
//!   conjugation, and polar helpers needed by quantum gate matrices and
//!   tensor decision diagram weights.
//! * [`approx`] — tolerance-based comparison helpers. Decision-diagram
//!   canonicity and subspace ranks hinge on a consistent notion of
//!   "numerically zero", so the tolerance lives here, in one place.
//! * [`matrix`] — dense square complex matrices ([`matrix::Mat`]) used for
//!   gate definitions and for the brute-force oracles the test suites
//!   compare symbolic results against.
//! * [`linalg`] — dense vector routines (inner products, Gram–Schmidt)
//!   mirroring the subspace calculus of the paper, again for use as a
//!   reference implementation.
//! * [`key`] — canonical 128-bit keys over the raw bits of a value's
//!   fields, for result memos and spec fingerprints.
//!
//! # Example
//!
//! ```
//! use qits_num::Cplx;
//!
//! let h = Cplx::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
//! let amp = h * Cplx::I;
//! assert!((amp.norm_sqr() - 0.5).abs() < 1e-12);
//! ```

pub mod approx;
pub mod key;
pub mod linalg;
pub mod matrix;

mod cplx;

pub use approx::{approx_eq_f64, DEFAULT_TOLERANCE};
pub use cplx::Cplx;
pub use matrix::Mat;
