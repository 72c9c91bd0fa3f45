//! Gate → TDD construction.
//!
//! The tensor of a gate is built *symbolically*: a dense base matrix (at
//! most two targets, so at most 4x4) is converted to a small TDD over the
//! target legs, and the controls select between it and the identity,
//!
//! ```text
//! G' = <every control active> (x) G  +  <otherwise> (x) Id(targets),
//! ```
//!
//! in one walk over the gate's legs in variable order (see [`gate_tdd`]).
//! Each control adds O(1) nodes per target assignment, so a 99-control
//! Toffoli — the shift cascades of the quantum-walk benchmark — costs
//! O(#controls) nodes instead of a `2^100` matrix.
//!
//! Leg conventions (see [`GateLegs`]):
//!
//! * every **control** wire carries a single leg (input and output indices
//!   identified — a hyper-edge in the interaction graph of Fig. 5);
//! * a **diagonal** base also uses a single leg per target wire;
//! * a non-diagonal base has distinct input and output legs per target.

use std::collections::BTreeMap;

use qits_num::Mat;
use qits_tdd::{Edge, TddManager};
use qits_tensor::{Tensor, Var};

use crate::gate::Gate;

/// The tensor-network legs assigned to one gate.
///
/// Produced by the tensor-network layer (which owns wire positions) and
/// consumed by [`gate_tdd`]. `target_in[i]`/`target_out[i]` belong to
/// `gate.targets[i]`'s wire; for diagonal gates `target_out` must equal
/// `target_in`. `controls[i]` is the single leg of `gate.controls[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateLegs {
    /// One `(leg, active_value)` pair per control, in gate order.
    pub controls: Vec<(Var, bool)>,
    /// Input leg per target qubit.
    pub target_in: Vec<Var>,
    /// Output leg per target qubit (same as input for diagonal bases).
    pub target_out: Vec<Var>,
}

impl GateLegs {
    /// All distinct legs of the gate.
    pub fn all_vars(&self) -> Vec<Var> {
        let mut v: Vec<Var> = self
            .controls
            .iter()
            .map(|&(l, _)| l)
            .chain(self.target_in.iter().copied())
            .chain(self.target_out.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Builds the TDD of `gate` over the given legs.
///
/// The base matrix becomes the *active* tensor over the target legs, and
/// the identity over the same legs the *idle* one (the constant 1 for a
/// diagonal base, whose legs are shared). One recursion then walks every
/// leg of the gate in variable order, top of the diagram first:
///
/// * at a target leg it takes the [`TddManager::cofactors`] of both
///   tensors and recurses on each half;
/// * at a control leg it makes a node whose inactive branch is the idle
///   tensor as cofactored so far and whose active branch recurses;
/// * past the last leg it returns the active tensor.
///
/// Each path through the target legs walks the controls once, so a gate
/// costs `O(#legs · 4^#targets)` node lookups and creates about as many
/// nodes as its diagram ends with: a 99-control X creates 103 nodes with
/// its target below the controls and 205 with it above (201 in its
/// diagram, 4 for the base and identity).
///
/// # Panics
///
/// Panics if leg counts do not match the gate shape, or if a diagonal
/// gate's input and output legs differ.
pub fn gate_tdd(m: &mut TddManager, gate: &Gate, legs: &GateLegs) -> Edge {
    assert_eq!(
        legs.controls.len(),
        gate.controls.len(),
        "one control leg per control"
    );
    assert_eq!(
        legs.target_in.len(),
        gate.targets.len(),
        "one input leg per target"
    );
    assert_eq!(
        legs.target_out.len(),
        gate.targets.len(),
        "one output leg per target"
    );
    let diagonal = gate.is_diagonal();
    if diagonal {
        assert_eq!(
            legs.target_in, legs.target_out,
            "diagonal gates use one leg per wire"
        );
    }

    let base = gate.kind.matrix();
    let k = gate.targets.len();

    // 1. Base tensor over the target legs.
    let active = if diagonal {
        // Rank-k tensor: value at target assignment a is diag[a].
        let mut t = Tensor::zeros({
            let mut v = legs.target_in.clone();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), k, "target legs must be distinct");
            v
        });
        for a in 0..(1usize << k) {
            let mut asn = BTreeMap::new();
            for (b, &leg) in legs.target_in.iter().enumerate() {
                asn.insert(leg, (a >> (k - 1 - b)) & 1 == 1);
            }
            t.set(&asn, base[(a, a)]);
        }
        m.from_tensor(&t)
    } else {
        m.from_matrix(&base, &legs.target_in, &legs.target_out)
    };
    if gate.controls.is_empty() {
        return active;
    }

    // 2. Identity over the target legs (for inactive-control branches).
    //    For diagonal gates the identity on a shared leg is the constant-1
    //    tensor, which reduces to the terminal.
    let idle = if diagonal {
        Edge::ONE
    } else {
        m.from_matrix(&Mat::identity(1 << k), &legs.target_in, &legs.target_out)
    };

    // 3. Walk every leg in variable order; a diagonal target lists its
    //    shared leg twice, and the walk keeps it once.
    let mut walk: Vec<(Var, Leg)> = legs
        .controls
        .iter()
        .map(|&(v, on)| (v, Leg::Control(on)))
        .chain(
            legs.target_in
                .iter()
                .chain(&legs.target_out)
                .map(|&v| (v, Leg::Target)),
        )
        .collect();
    walk.sort_by_key(|&(v, _)| v);
    walk.dedup_by_key(|&mut (v, _)| v);
    controlled(m, &walk, active, idle)
}

/// The role of one leg in [`gate_tdd`]'s walk.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// An input or output leg of a target wire.
    Target,
    /// A control leg, with the value that activates it.
    Control(bool),
}

/// The gate tensor over `legs` (variable order) given that every control
/// above them is active, where `active` and `idle` are the base tensor
/// and the identity cofactored by the target legs above.
fn controlled(m: &mut TddManager, legs: &[(Var, Leg)], active: Edge, idle: Edge) -> Edge {
    let Some((&(var, leg), rest)) = legs.split_first() else {
        return active;
    };
    match leg {
        Leg::Target => {
            let (a0, a1) = m.cofactors(active, var);
            let (i0, i1) = m.cofactors(idle, var);
            let low = controlled(m, rest, a0, i0);
            let high = controlled(m, rest, a1, i1);
            m.make_node(var, low, high)
        }
        Leg::Control(on) => {
            let fired = controlled(m, rest, active, idle);
            if on {
                m.make_node(var, idle, fired)
            } else {
                m.make_node(var, fired, idle)
            }
        }
    }
}

/// Convenience: sequential legs for a standalone gate, for tests and
/// examples that tensorize a gate outside a network. Controls get position
/// 0 on their wire; targets get positions 0 (in) and 1 (out), or a single
/// position 0 leg when diagonal.
pub fn standalone_legs(gate: &Gate) -> GateLegs {
    let controls = gate
        .controls
        .iter()
        .map(|c| (Var::wire(c.qubit, 0), c.value))
        .collect();
    let target_in: Vec<Var> = gate.targets.iter().map(|&t| Var::wire(t, 0)).collect();
    let target_out: Vec<Var> = if gate.is_diagonal() {
        target_in.clone()
    } else {
        gate.targets.iter().map(|&t| Var::wire(t, 1)).collect()
    };
    GateLegs {
        controls,
        target_in,
        target_out,
    }
}

/// The scalar 2-amplitude pairs of some common single-qubit states, for
/// building initial subspaces: `|0>`, `|1>`, `|+>`, `|->`.
pub mod states {
    use qits_num::Cplx;

    /// Amplitudes of `|0>`.
    pub const ZERO: (Cplx, Cplx) = (Cplx::ONE, Cplx::ZERO);
    /// Amplitudes of `|1>`.
    pub const ONE: (Cplx, Cplx) = (Cplx::ZERO, Cplx::ONE);
    /// Amplitudes of `|+>`.
    pub const PLUS: (Cplx, Cplx) = (Cplx::FRAC_1_SQRT_2, Cplx::FRAC_1_SQRT_2);
    /// Amplitudes of `|->`.
    pub const MINUS: (Cplx, Cplx) = (
        Cplx::FRAC_1_SQRT_2,
        Cplx {
            re: -std::f64::consts::FRAC_1_SQRT_2,
            im: 0.0,
        },
    );
}

/// Applies a gate TDD to a dense ket for cross-checking in tests: returns
/// the dense output tensor over the gate's output legs.
#[doc(hidden)]
pub fn apply_to_dense(
    m: &mut TddManager,
    gate_edge: Edge,
    ket: &Tensor,
    sum_vars: &[Var],
) -> Tensor {
    let ket_edge = m.from_tensor(ket);
    let out = m.contract(gate_edge, ket_edge, sum_vars);
    let support: Vec<Var> = m.support(out).iter().collect();
    m.to_tensor(out, &support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::{generators, sim, Control};
    use qits_num::{Cplx, Mat};

    /// Cross-check a gate TDD against the dense simulator on every basis
    /// state of a small register.
    fn check_gate_against_sim(gate: &Gate, n: u32) {
        let mut m = TddManager::new();
        // Legs: every wire w has input (w,0); non-diagonal targets output
        // at (w,1); controls/diagonal share (w,0).
        let legs = standalone_legs(gate);
        let e = gate_tdd(&mut m, gate, &legs);

        // Variables of input and output for the full register.
        let in_vars: Vec<Var> = (0..n).map(|q| Var::wire(q, 0)).collect();
        let out_var_of = |q: u32| -> Var {
            if gate.targets.contains(&q) && !gate.is_diagonal() {
                Var::wire(q, 1)
            } else {
                Var::wire(q, 0)
            }
        };

        for idx in 0..(1usize << n) {
            let bits: Vec<bool> = (0..n).map(|q| (idx >> (n - 1 - q)) & 1 == 1).collect();
            let ket = m.basis_ket(&in_vars, &bits);
            // Sum over the gate's *input* legs only for non-diagonal
            // targets; shared legs stay free and are then read off.
            let sum: Vec<Var> = if gate.is_diagonal() {
                vec![]
            } else {
                let mut sum: Vec<Var> = gate.targets.iter().map(|&t| Var::wire(t, 0)).collect();
                sum.sort_unstable();
                sum
            };
            let out = m.contract(e, ket, &sum);
            let expect = sim::apply_gate(&sim::basis_state(n, idx), n, gate);
            for (jdx, amp) in expect.iter().enumerate() {
                let asn: BTreeMap<Var, bool> = (0..n)
                    .map(|q| (out_var_of(q), (jdx >> (n - 1 - q)) & 1 == 1))
                    .collect();
                // For non-target wires the output must match the input bits
                // (the gate tensor doesn't touch them).
                let input_consistent = (0..n).all(|q| {
                    gate.targets.contains(&q) || ((jdx >> (n - 1 - q)) & 1 == 1) == bits[q as usize]
                });
                if !input_consistent {
                    continue;
                }
                let got = m.eval(out, &asn);
                assert!(
                    got.approx_eq(*amp),
                    "{gate}: in {idx:0w$b} out {jdx:0w$b}: got {got}, want {amp}",
                    w = n as usize
                );
            }
        }
    }

    #[test]
    fn hadamard_tdd_matches_sim() {
        check_gate_against_sim(&Gate::h(0), 1);
    }

    #[test]
    fn cx_tdd_matches_sim() {
        check_gate_against_sim(&Gate::cx(0, 1), 2);
        check_gate_against_sim(&Gate::cx(1, 0), 2);
    }

    #[test]
    fn ccx_tdd_matches_sim() {
        check_gate_against_sim(&Gate::ccx(0, 1, 2), 3);
    }

    #[test]
    fn negative_control_tdd_matches_sim() {
        check_gate_against_sim(&Gate::mcx_polarity(&[(0, false), (2, true)], 1), 3);
    }

    #[test]
    fn diagonal_cp_tdd_matches_sim() {
        check_gate_against_sim(&Gate::cp(0, 1, 0.73), 2);
        check_gate_against_sim(&Gate::z(0), 1);
        check_gate_against_sim(&Gate::phase(0, 1.234), 1);
    }

    #[test]
    fn swap_tdd_matches_sim() {
        check_gate_against_sim(&Gate::swap(0, 1), 2);
    }

    #[test]
    fn projector_tdd_matches_sim() {
        check_gate_against_sim(&Gate::projector(0, true), 1);
        check_gate_against_sim(&Gate::projector(0, false), 1);
    }

    #[test]
    fn mcx_node_count_is_linear_in_controls() {
        // The whole point of symbolic folding: no exponential blow-up.
        let mut m = TddManager::new();
        let controls: Vec<u32> = (0..40).collect();
        let gate = Gate::mcx(&controls, 40);
        let legs = standalone_legs(&gate);
        let e = gate_tdd(&mut m, &gate, &legs);
        let nodes = m.node_count(e);
        assert!(nodes <= 3 * 41, "MCX TDD has {nodes} nodes");
    }

    /// The reference `gate_tdd`'s leg walk must reproduce edge for edge:
    /// the controls folded in one at a time, each with two contractions
    /// and an addition, `G' = <c = active> (x) G + <c = inactive> (x)
    /// Id(targets)`.
    fn folded_gate_tdd(m: &mut TddManager, gate: &Gate, legs: &GateLegs) -> Edge {
        let base = Gate::new(gate.kind.clone(), gate.targets.clone(), vec![]);
        let base_legs = GateLegs {
            controls: vec![],
            ..legs.clone()
        };
        let active = gate_tdd(m, &base, &base_legs);
        let idle = if gate.is_diagonal() {
            Edge::ONE
        } else {
            let mut idle = Edge::ONE;
            for (&i, &o) in legs.target_in.iter().zip(legs.target_out.iter()) {
                let id = m.identity(i.min(o), i.max(o));
                idle = m.contract(idle, id, &[]);
            }
            idle
        };
        let mut d = active;
        for &(leg, active_value) in &legs.controls {
            let sel_a = m.selector(leg, active_value);
            let sel_i = m.selector(leg, !active_value);
            let on = m.contract(sel_a, d, &[]);
            let off = m.contract(sel_i, idle, &[]);
            d = m.add(on, off);
        }
        d
    }

    fn spec_gates(spec: &generators::QtsSpec) -> Vec<Gate> {
        spec.operations
            .iter()
            .flat_map(|op| op.kraus_branches())
            .flat_map(|c| c.gates().to_vec())
            .collect()
    }

    #[test]
    fn the_leg_walk_matches_the_control_fold_on_every_benchmark_gate() {
        let families: Vec<(&str, Vec<Gate>)> = vec![
            ("qrw6", spec_gates(&generators::qrw(6, 0.125))),
            ("qrw100", spec_gates(&generators::qrw(100, 0.125))),
            ("grover8", spec_gates(&generators::grover(8))),
            ("qft10", spec_gates(&generators::qft(10))),
            (
                "bv20",
                spec_gates(&generators::bernstein_vazirani(
                    20,
                    &generators::bv_secret(20),
                )),
            ),
            ("repcode5", spec_gates(&generators::repetition_code(5))),
            ("adder8", spec_gates(&generators::qft_adder(8, 1))),
            (
                "ripple10",
                generators::ripple_increment(10).gates().to_vec(),
            ),
            (
                "clifford+t",
                spec_gates(&generators::random_clifford_t(6, 40, 0.0, 7)),
            ),
            ("bitflip", spec_gates(&generators::bitflip_code())),
        ];
        let mut m = TddManager::new();
        for (family, gates) in &families {
            for gate in gates {
                let legs = standalone_legs(gate);
                let walked = gate_tdd(&mut m, gate, &legs);
                let folded = folded_gate_tdd(&mut m, gate, &legs);
                assert_eq!(walked, folded, "{family}: {gate}");
            }
        }
    }

    /// Gates whose control and target legs interleave in variable order.
    fn interleaved_gates() -> Vec<(Gate, u32)> {
        let c = |qubit: u32, value: bool| Control { qubit, value };
        let z = Cplx::new;
        let skew = Mat::from_rows(&[
            &[z(0.5, 0.0), z(0.1, 0.3), z(0.0, 0.0), z(-0.2, 0.0)],
            &[z(0.0, 0.7), z(0.25, 0.0), z(0.4, 0.0), z(0.0, 0.0)],
            &[z(0.0, 0.0), z(-0.6, 0.0), z(0.2, -0.2), z(0.9, 0.0)],
            &[z(0.3, 0.0), z(0.0, 0.0), z(-0.5, 0.1), z(0.15, 0.0)],
        ]);
        let damp = Mat::from_rows(&[&[z(0.8, 0.0), z(0.0, 0.3)], &[z(-0.2, 0.0), z(0.5, 0.0)]]);
        vec![
            // Mixed polarities, above and below the target.
            (
                Gate::mcx_polarity(&[(0, false), (2, true), (3, false)], 1),
                4,
            ),
            // Controls above, between and below two targets.
            (
                Gate::new(
                    GateKind::Swap,
                    vec![1, 3],
                    vec![c(0, true), c(2, false), c(4, true)],
                ),
                5,
            ),
            (
                Gate::new(
                    GateKind::Custom2(skew),
                    vec![3, 1],
                    vec![c(4, false), c(0, true), c(2, true)],
                ),
                5,
            ),
            // Diagonal bases with extra controls.
            (
                Gate::new(GateKind::Phase(0.73), vec![2], vec![c(0, true), c(3, true)]),
                4,
            ),
            (
                Gate::new(GateKind::Z, vec![1], vec![c(3, true), c(0, false)]),
                4,
            ),
            (
                Gate::new(
                    GateKind::Custom1(Mat::diagonal(&[Cplx::ZERO, Cplx::ONE])),
                    vec![1],
                    vec![c(0, true), c(2, false)],
                ),
                3,
            ),
            // A controlled non-unitary, non-diagonal base.
            (
                Gate::new(
                    GateKind::Custom1(damp),
                    vec![2],
                    vec![c(3, false), c(0, true), c(1, true)],
                ),
                4,
            ),
        ]
    }

    #[test]
    fn interleaved_legs_match_sim() {
        for (gate, n) in interleaved_gates() {
            check_gate_against_sim(&gate, n);
        }
    }

    #[test]
    fn legs_past_the_register_positions_match_the_control_fold() {
        // Every other control sits at wire position 2, past the kets and
        // rows of its qubit.
        let mut gates = interleaved_gates();
        gates.push((Gate::mcx(&[1, 0], 2), 3));
        let mut m = TddManager::new();
        for (gate, _) in gates {
            let mut legs = standalone_legs(&gate);
            for (i, (leg, _)) in legs.controls.iter_mut().enumerate() {
                *leg = Var::wire(leg.qubit(), 2 * (i as u32 % 2));
            }
            let walked = gate_tdd(&mut m, &gate, &legs);
            let folded = folded_gate_tdd(&mut m, &gate, &legs);
            assert_eq!(walked, folded, "{gate}");
        }
    }

    #[test]
    fn a_99_control_x_creates_about_the_nodes_it_ends_with() {
        // Folding the controls in one at a time rebuilds the diagram per
        // control: 15,646 nodes created with the target above the
        // controls, 10,299 below.
        for (controls, target) in [((1..100).collect::<Vec<u32>>(), 0), ((0..99).collect(), 99)] {
            let mut m = TddManager::new();
            let gate = Gate::mcx(&controls, target);
            let e = gate_tdd(&mut m, &gate, &standalone_legs(&gate));
            let (created, kept) = (m.stats().nodes_created, m.node_count(e));
            assert!(
                created <= kept as u64 + 8,
                "target {target}: created {created} nodes for a {kept}-node diagram"
            );
        }
    }

    #[test]
    fn controlled_custom_nonunitary() {
        let damp = Mat::from_rows(&[&[Cplx::ONE, Cplx::ZERO], &[Cplx::ZERO, Cplx::real(0.5)]]);
        let g = Gate::new(
            GateKind::Custom1(damp),
            vec![1],
            vec![crate::Control {
                qubit: 0,
                value: true,
            }],
        );
        check_gate_against_sim(&g, 2);
    }
}
