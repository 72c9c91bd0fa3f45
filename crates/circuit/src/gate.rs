//! Gates: base operations plus positive/negative controls.

use std::fmt;

use qits_num::key::{Fnv128, KeyBits};
use qits_num::{Cplx, Mat};

/// A control condition on a qubit.
///
/// `value = true` is the usual "filled dot" control (active on |1>);
/// `value = false` is a negative control (active on |0>), drawn as an open
/// dot — the quantum-walk shift circuits of Fig. 4 use both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Control {
    /// Controlled qubit.
    pub qubit: u32,
    /// Activation value of the control.
    pub value: bool,
}

/// The base (uncontrolled) operation of a gate.
///
/// Bases act on one or two *target* qubits; any number of controls can be
/// folded around a base via [`Gate`]. Non-unitary bases are deliberately
/// allowed: projective elements of dynamic circuits and individual Kraus
/// operators of noise channels flow through the same representation.
#[derive(Debug, Clone, PartialEq)]
pub enum GateKind {
    /// Single-qubit identity (useful in tests and padding).
    I,
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// T gate `diag(1, e^{i pi/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// `diag(1, e^{i theta})`.
    Phase(f64),
    /// Rotation about X by `theta`.
    Rx(f64),
    /// Rotation about Y by `theta`.
    Ry(f64),
    /// Rotation about Z by `theta` (diagonal, up to global phase convention
    /// `diag(e^{-i theta/2}, e^{i theta/2})`).
    Rz(f64),
    /// Two-qubit swap.
    Swap,
    /// Arbitrary single-qubit matrix (need not be unitary).
    Custom1(Mat),
    /// Arbitrary two-qubit matrix (need not be unitary).
    Custom2(Mat),
}

impl GateKind {
    /// Number of target qubits the base acts on.
    pub fn n_targets(&self) -> usize {
        match self {
            GateKind::Swap | GateKind::Custom2(_) => 2,
            _ => 1,
        }
    }

    /// The dense matrix of the base operation.
    pub fn matrix(&self) -> Mat {
        use GateKind::*;
        let h = Cplx::FRAC_1_SQRT_2;
        match self {
            I => Mat::identity(2),
            H => Mat::from_rows(&[&[h, h], &[h, -h]]),
            X => Mat::from_rows(&[&[Cplx::ZERO, Cplx::ONE], &[Cplx::ONE, Cplx::ZERO]]),
            Y => Mat::from_rows(&[&[Cplx::ZERO, -Cplx::I], &[Cplx::I, Cplx::ZERO]]),
            Z => Mat::diagonal(&[Cplx::ONE, Cplx::NEG_ONE]),
            S => Mat::diagonal(&[Cplx::ONE, Cplx::I]),
            Sdg => Mat::diagonal(&[Cplx::ONE, -Cplx::I]),
            T => Mat::diagonal(&[
                Cplx::ONE,
                Cplx::from_polar(1.0, std::f64::consts::FRAC_PI_4),
            ]),
            Tdg => Mat::diagonal(&[
                Cplx::ONE,
                Cplx::from_polar(1.0, -std::f64::consts::FRAC_PI_4),
            ]),
            Phase(theta) => Mat::diagonal(&[Cplx::ONE, Cplx::from_polar(1.0, *theta)]),
            Rx(theta) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Mat::from_rows(&[
                    &[Cplx::real(c), Cplx::new(0.0, -s)],
                    &[Cplx::new(0.0, -s), Cplx::real(c)],
                ])
            }
            Ry(theta) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Mat::from_rows(&[
                    &[Cplx::real(c), Cplx::real(-s)],
                    &[Cplx::real(s), Cplx::real(c)],
                ])
            }
            Rz(theta) => Mat::diagonal(&[
                Cplx::from_polar(1.0, -theta / 2.0),
                Cplx::from_polar(1.0, theta / 2.0),
            ]),
            Swap => {
                let mut m = Mat::zeros(4);
                m[(0, 0)] = Cplx::ONE;
                m[(1, 2)] = Cplx::ONE;
                m[(2, 1)] = Cplx::ONE;
                m[(3, 3)] = Cplx::ONE;
                m
            }
            Custom1(m) | Custom2(m) => m.clone(),
        }
    }

    /// Whether the base matrix is diagonal.
    ///
    /// Diagonal bases get a *single* tensor-network index per wire (input
    /// and output identified), the hyper-edge convention of Section V-A.
    pub fn is_diagonal(&self) -> bool {
        use GateKind::*;
        match self {
            Z | S | Sdg | T | Tdg | Phase(_) | Rz(_) => true,
            I | H | X | Y | Rx(_) | Ry(_) | Swap => false,
            Custom1(m) | Custom2(m) => m.is_diagonal(),
        }
    }

    /// A short mnemonic for rendering.
    pub fn mnemonic(&self) -> String {
        use GateKind::*;
        match self {
            I => "I".into(),
            H => "H".into(),
            X => "X".into(),
            Y => "Y".into(),
            Z => "Z".into(),
            S => "S".into(),
            Sdg => "S†".into(),
            T => "T".into(),
            Tdg => "T†".into(),
            Phase(t) => format!("P({t:.2})"),
            Rx(t) => format!("Rx({t:.2})"),
            Ry(t) => format!("Ry({t:.2})"),
            Rz(t) => format!("Rz({t:.2})"),
            Swap => "SW".into(),
            Custom1(_) => "U1".into(),
            Custom2(_) => "U2".into(),
        }
    }
}

/// A gate: a base operation on target qubits plus controls.
///
/// # Example
///
/// ```
/// use qits_circuit::Gate;
///
/// let toffoli = Gate::mcx(&[0, 1], 2);
/// assert_eq!(toffoli.controls.len(), 2);
/// assert!(toffoli.qubits().eq([2, 0, 1])); // targets first, then controls
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The base operation.
    pub kind: GateKind,
    /// Target qubits, in the base matrix's qubit order (first = most
    /// significant bit of the matrix index).
    pub targets: Vec<u32>,
    /// Control conditions; all must hold for the base to apply.
    pub controls: Vec<Control>,
}

impl Gate {
    /// Creates a gate, validating the base's size and qubit disjointness.
    ///
    /// # Panics
    ///
    /// Panics if target count does not match the base, a custom base's
    /// matrix is not `2^k x 2^k` for its `k` targets, or any qubit is
    /// repeated among targets and controls.
    pub fn new(kind: GateKind, targets: Vec<u32>, controls: Vec<Control>) -> Gate {
        assert_eq!(
            targets.len(),
            kind.n_targets(),
            "base {} expects {} target(s)",
            kind.mnemonic(),
            kind.n_targets()
        );
        if let GateKind::Custom1(m) | GateKind::Custom2(m) = &kind {
            let dim = 1 << kind.n_targets();
            assert_eq!(
                m.dim(),
                dim,
                "{} requires a {dim}x{dim} matrix",
                kind.mnemonic()
            );
        }
        let mut all: Vec<u32> = targets
            .iter()
            .copied()
            .chain(controls.iter().map(|c| c.qubit))
            .collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "gate qubits must be distinct");
        Gate {
            kind,
            targets,
            controls,
        }
    }

    /// Uncontrolled single-qubit gate helper.
    pub fn single(kind: GateKind, q: u32) -> Gate {
        Gate::new(kind, vec![q], vec![])
    }

    /// Hadamard on `q`.
    pub fn h(q: u32) -> Gate {
        Gate::single(GateKind::H, q)
    }

    /// Pauli X on `q`.
    pub fn x(q: u32) -> Gate {
        Gate::single(GateKind::X, q)
    }

    /// Pauli Y on `q`.
    pub fn y(q: u32) -> Gate {
        Gate::single(GateKind::Y, q)
    }

    /// Pauli Z on `q`.
    pub fn z(q: u32) -> Gate {
        Gate::single(GateKind::Z, q)
    }

    /// Phase `diag(1, e^{i theta})` on `q`.
    pub fn phase(q: u32, theta: f64) -> Gate {
        Gate::single(GateKind::Phase(theta), q)
    }

    /// Controlled-X with control `c` and target `t`.
    pub fn cx(c: u32, t: u32) -> Gate {
        Gate::new(
            GateKind::X,
            vec![t],
            vec![Control {
                qubit: c,
                value: true,
            }],
        )
    }

    /// Controlled-Z between `c` and `t`.
    pub fn cz(c: u32, t: u32) -> Gate {
        Gate::new(
            GateKind::Z,
            vec![t],
            vec![Control {
                qubit: c,
                value: true,
            }],
        )
    }

    /// Controlled phase (the QFT workhorse).
    pub fn cp(c: u32, t: u32, theta: f64) -> Gate {
        Gate::new(
            GateKind::Phase(theta),
            vec![t],
            vec![Control {
                qubit: c,
                value: true,
            }],
        )
    }

    /// Toffoli with controls `c1`, `c2` and target `t`.
    pub fn ccx(c1: u32, c2: u32, t: u32) -> Gate {
        Gate::mcx(&[c1, c2], t)
    }

    /// Multi-controlled X (all controls positive).
    pub fn mcx(controls: &[u32], t: u32) -> Gate {
        Gate::new(
            GateKind::X,
            vec![t],
            controls
                .iter()
                .map(|&qubit| Control { qubit, value: true })
                .collect(),
        )
    }

    /// Multi-controlled X with explicit control polarities.
    pub fn mcx_polarity(controls: &[(u32, bool)], t: u32) -> Gate {
        Gate::new(
            GateKind::X,
            vec![t],
            controls
                .iter()
                .map(|&(qubit, value)| Control { qubit, value })
                .collect(),
        )
    }

    /// Swap of two qubits.
    pub fn swap(a: u32, b: u32) -> Gate {
        Gate::new(GateKind::Swap, vec![a, b], vec![])
    }

    /// An arbitrary single-qubit matrix on `q` (need not be unitary).
    ///
    /// # Panics
    ///
    /// Panics unless `m` is 2x2 (checked by [`Gate::new`]).
    pub fn custom1(q: u32, m: Mat) -> Gate {
        Gate::single(GateKind::Custom1(m), q)
    }

    /// The single-qubit projector `|b><b|` on `q` — a diagonal, non-unitary
    /// gate used to encode measurement outcomes of dynamic circuits.
    pub fn projector(q: u32, b: bool) -> Gate {
        let diag = if b {
            [Cplx::ZERO, Cplx::ONE]
        } else {
            [Cplx::ONE, Cplx::ZERO]
        };
        Gate::custom1(q, Mat::diagonal(&diag))
    }

    /// All qubits the gate touches (targets then controls).
    pub fn qubits(&self) -> impl Iterator<Item = u32> + '_ {
        self.targets
            .iter()
            .copied()
            .chain(self.controls.iter().map(|c| c.qubit))
    }

    /// The largest qubit index the gate touches.
    pub fn max_qubit(&self) -> u32 {
        self.qubits().max().expect("gates touch at least one qubit")
    }

    /// Whether the base is diagonal (see [`GateKind::is_diagonal`]).
    pub fn is_diagonal(&self) -> bool {
        self.kind.is_diagonal()
    }

    /// Whether the gate acts on more than one qubit (controls included) —
    /// the "multi-qubit gate" notion used by the contraction-partition cut
    /// rule.
    pub fn is_multi_qubit(&self) -> bool {
        self.targets.len() + self.controls.len() > 1
    }
}

impl KeyBits for Control {
    fn key_bits(&self, h: &mut Fnv128) {
        let Control { qubit, value } = self;
        qubit.key_bits(h);
        value.key_bits(h);
    }
}

impl KeyBits for GateKind {
    /// A tag per variant, then its angle's bits or its matrix.
    fn key_bits(&self, h: &mut Fnv128) {
        let tag: u8 = match self {
            GateKind::I => 0,
            GateKind::H => 1,
            GateKind::X => 2,
            GateKind::Y => 3,
            GateKind::Z => 4,
            GateKind::S => 5,
            GateKind::Sdg => 6,
            GateKind::T => 7,
            GateKind::Tdg => 8,
            GateKind::Phase(_) => 9,
            GateKind::Rx(_) => 10,
            GateKind::Ry(_) => 11,
            GateKind::Rz(_) => 12,
            GateKind::Swap => 13,
            GateKind::Custom1(_) => 14,
            GateKind::Custom2(_) => 15,
        };
        tag.key_bits(h);
        match self {
            GateKind::Phase(theta)
            | GateKind::Rx(theta)
            | GateKind::Ry(theta)
            | GateKind::Rz(theta) => theta.key_bits(h),
            GateKind::Custom1(m) | GateKind::Custom2(m) => m.key_bits(h),
            GateKind::I
            | GateKind::H
            | GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::S
            | GateKind::Sdg
            | GateKind::T
            | GateKind::Tdg
            | GateKind::Swap => {}
        }
    }
}

impl KeyBits for Gate {
    fn key_bits(&self, h: &mut Fnv128) {
        let Gate {
            kind,
            targets,
            controls,
        } = self;
        kind.key_bits(h);
        targets.key_bits(h);
        controls.key_bits(h);
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.mnemonic())?;
        write!(f, " t[")?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")?;
        if !self.controls.is_empty() {
            write!(f, " c[")?;
            for (i, c) in self.controls.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}{}", if c.value { "" } else { "!" }, c.qubit)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_gates_are_unitary() {
        use GateKind::*;
        for k in [
            I,
            H,
            X,
            Y,
            Z,
            S,
            Sdg,
            T,
            Tdg,
            Phase(0.3),
            Rx(0.7),
            Ry(1.1),
            Rz(2.3),
            Swap,
        ] {
            assert!(k.matrix().is_unitary(), "{} not unitary", k.mnemonic());
        }
    }

    #[test]
    fn diagonal_detection() {
        assert!(GateKind::Z.is_diagonal());
        assert!(GateKind::Phase(0.5).is_diagonal());
        assert!(GateKind::Rz(0.5).is_diagonal());
        assert!(!GateKind::H.is_diagonal());
        assert!(!GateKind::Swap.is_diagonal());
    }

    #[test]
    fn projector_is_diagonal_not_unitary() {
        let p = Gate::projector(0, true);
        assert!(p.is_diagonal());
        assert!(!p.kind.matrix().is_unitary());
    }

    #[test]
    fn mcx_collects_controls() {
        let g = Gate::mcx(&[0, 1, 2], 3);
        assert_eq!(g.controls.len(), 3);
        assert!(g.is_multi_qubit());
        assert_eq!(g.max_qubit(), 3);
    }

    #[test]
    fn negative_controls() {
        let g = Gate::mcx_polarity(&[(0, false), (1, true)], 2);
        assert!(!g.controls[0].value);
        assert!(g.controls[1].value);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_overlapping_qubits() {
        let _ = Gate::cx(1, 1);
    }

    #[test]
    #[should_panic(expected = "U2 requires a 4x4 matrix")]
    fn rejects_a_custom_base_of_the_wrong_size() {
        let _ = Gate::new(GateKind::Custom2(Mat::identity(2)), vec![0, 1], vec![]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gate::cx(0, 1).to_string(), "X t[1] c[0]");
        assert_eq!(
            Gate::mcx_polarity(&[(2, false)], 0).to_string(),
            "X t[0] c[!2]"
        );
    }

    #[test]
    fn s_squared_is_z() {
        let s = GateKind::S.matrix();
        assert!(s.matmul(&s).approx_eq(&GateKind::Z.matrix()));
    }
}
