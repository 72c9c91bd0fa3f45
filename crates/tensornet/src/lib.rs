//! Tensor networks for quantum circuits.
//!
//! A quantum circuit *is* a tensor network: every gate is a tensor, wires
//! carry shared indices, and the circuit's functionality is the contraction
//! of the network (Section II-B of the paper). This crate provides:
//!
//! * [`TensorNetwork`] — circuit → network lowering with the paper's
//!   hyper-edge convention: diagonal gates and control legs *reuse* the wire
//!   index instead of consuming it, so a controlled-phase gate has two legs
//!   instead of four;
//! * [`InteractionGraph`] — the undirected graph of Fig. 5 whose vertices
//!   are indices and whose (hyper-)edges are gates; its degree ranking
//!   drives the **addition partition** (Section V-A);
//! * [`TensorNetwork::slice_at`] — index slicing; slicing the `k`
//!   highest-degree indices splits the network into `2^k` additive parts;
//! * [`contraction_blocks`] — the **contraction partition** (Section V-B):
//!   horizontal cuts every `k1` qubits, a vertical cut after every `k2`
//!   boundary-crossing multi-qubit gates;
//! * [`contract_network`] — a sequential contraction engine that sums each
//!   bond index exactly once (at its last use) and tracks the peak TDD node
//!   count, the "max #node" metric of Table I.

mod engine;
mod graph;
mod network;
mod partition;

pub use engine::{block_keep_vars, contract_network, precontract_blocks, ContractionOutcome};
pub use graph::InteractionGraph;
pub use network::{wire_legs, NetTensor, TensorNetwork};
pub use partition::{contraction_blocks, Blocks};
