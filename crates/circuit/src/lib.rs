//! Quantum circuits for the `qits` workspace.
//!
//! This crate provides everything between "a quantum algorithm" and "a
//! tensor network": the gate and circuit IR, the three circuit classes the
//! paper models as quantum transition systems (combinational, dynamic, and
//! noisy circuits — Section III-A), the benchmark generators of the
//! evaluation section, and a dense simulator used as an independent oracle
//! in tests.
//!
//! * [`Gate`] / [`GateKind`] — gates with arbitrary positive/negative
//!   controls; diagonal gates are detected so the tensor-network layer can
//!   give them hyper-edge (shared-index) legs.
//! * [`Circuit`] — a gate list on `n` qubits, with an ASCII renderer.
//! * [`Element`] / [`Operation`] — transition-system operations: unitary
//!   gates, projective elements (measurement outcomes of dynamic circuits),
//!   and Kraus noise channels. [`Operation::kraus_branches`] enumerates the
//!   pure Kraus-operator circuits the image computation iterates over.
//! * [`generators`] — GHZ, Grover, Bernstein–Vazirani, QFT, QFT adder,
//!   quantum random walk, the bit-flip code of Fig. 3, the distance-d
//!   repetition code, and random Clifford+T workloads, plus
//!   [`generators::family`], the one table that builds them by name.
//! * [`parse`] — the textual frontends: the gate DSL of the serving
//!   protocol and the scenario file format the `qits` CLI reads; every
//!   malformed input is a typed [`parse::ParseError`], never a panic.
//! * [`tensorize`] — gate → TDD construction, adding controls
//!   symbolically so a 99-control Toffoli never materialises a matrix.
//! * [`sim`] — dense state-vector/operator reference semantics.
//!
//! # Example
//!
//! ```
//! use qits_circuit::{Circuit, Gate};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::h(0));
//! c.push(Gate::cx(0, 1));
//! let state = qits_circuit::sim::run(&c, &qits_circuit::sim::basis_state(2, 0));
//! assert!((state[0].norm_sqr() - 0.5).abs() < 1e-12); // Bell state
//! ```

mod circuit;
pub mod decompose;
mod element;
mod gate;
pub mod generators;
pub mod parse;
pub mod render;
pub mod sim;
pub mod tensorize;

pub use circuit::Circuit;
pub use element::{Element, Operation};
pub use gate::{Control, Gate, GateKind};
pub use generators::QtsSpec;
