//! Sequential network contraction with last-use index summation.

use qits_tdd::{CacheStats, Edge, TddManager};
use qits_tensor::{Var, VarSet};

use crate::network::{NetTensor, TensorNetwork};
use crate::partition::Blocks;

/// Result of a network contraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractionOutcome {
    /// The contracted tensor over the kept indices.
    pub edge: Edge,
    /// Peak **live** node count over all intermediate TDDs — the paper's
    /// "max #node" measurement. This counts the nodes reachable from each
    /// intermediate diagram ([`TddManager::node_count`]), never arena
    /// slots, so it is unaffected by garbage accumulated in the arena and
    /// comparable across GC-on and GC-off runs.
    pub max_nodes: usize,
    /// Arena slots allocated in the manager when the contraction finished
    /// ([`TddManager::arena_len`]) — the *allocated* counterpart to the
    /// live `max_nodes`: live nodes plus garbage a collection would
    /// reclaim.
    pub allocated_nodes: usize,
    /// Movement of the manager's contraction cache across this call
    /// (hits here are sub-contractions reused from *earlier* work on the
    /// same manager — other slices, blocks, or basis states).
    pub cont_cache: CacheStats,
}

/// Contracts `tensors` in order, summing every index at its *last* use
/// unless it is listed in `keep`.
///
/// This single routine backs all three image-computation methods:
/// the basic method contracts a whole circuit with `keep = external
/// indices`; the addition partition contracts each slice the same way; the
/// contraction partition pre-contracts blocks and then feeds
/// `[state, block_1, ..., block_k]` through it with `keep = outputs`.
///
/// An index in `keep` that appears in no tensor simply never arises; an
/// index summed here that no tensor *depends* on (possible after diagram
/// reduction) is handled by the contraction's factor-2 rule.
pub fn contract_network(
    m: &mut TddManager,
    tensors: &[NetTensor],
    keep: &VarSet,
) -> ContractionOutcome {
    if tensors.is_empty() {
        return ContractionOutcome {
            edge: Edge::ONE,
            max_nodes: 0,
            allocated_nodes: m.arena_len(),
            cont_cache: CacheStats::default(),
        };
    }
    let cache_before = m.stats().cont_cache;
    // Last tensor index in which each variable occurs.
    let mut last_use = std::collections::BTreeMap::new();
    for (i, t) in tensors.iter().enumerate() {
        for v in t.vars.iter() {
            last_use.insert(v, i);
        }
    }
    // Each summed index in the bucket of its last use; one ascending pass
    // over the map leaves every bucket sorted.
    let mut sums: Vec<Vec<Var>> = vec![Vec::new(); tensors.len()];
    for (v, i) in last_use {
        if !keep.contains(v) {
            sums[i].push(v);
        }
    }

    let mut max_nodes = tensors
        .iter()
        .map(|t| m.node_count(t.edge))
        .max()
        .unwrap_or(0);
    let mut acc = m.contract(tensors[0].edge, Edge::ONE, &sums[0]);
    max_nodes = max_nodes.max(m.node_count(acc));
    for (t, sum) in tensors.iter().zip(&sums).skip(1) {
        acc = m.contract(acc, t.edge, sum);
        max_nodes = max_nodes.max(m.node_count(acc));
    }
    ContractionOutcome {
        edge: acc,
        max_nodes,
        allocated_nodes: m.arena_len(),
        cont_cache: m.stats().cont_cache.since(&cache_before),
    }
}

/// The keep-set of every block of a contraction partition: the indices
/// shared with other blocks or external to the circuit (everything else is
/// internal to the block and summed when the block is pre-contracted).
///
/// Exposed separately from [`precontract_blocks`] so a caller that wants
/// control *between* block contractions — e.g. to poll for cancellation —
/// can run the per-block loop itself:
/// `contract_network(m, &members_of_block_i, &keeps[i])`.
pub fn block_keep_vars(net: &TensorNetwork, blocks: &Blocks) -> Vec<VarSet> {
    let tensors = net.tensors();
    // How many tensors use each variable, across the whole network.
    let mut usage = std::collections::BTreeMap::new();
    for t in tensors {
        for v in t.vars.iter() {
            *usage.entry(v).or_insert(0usize) += 1;
        }
    }
    let external = net.external_vars();

    blocks
        .blocks
        .iter()
        .map(|block| {
            // A variable is internal iff all its users are inside this
            // block and it is not an external index.
            let mut in_block = std::collections::BTreeMap::new();
            for &gi in block {
                for v in tensors[gi].vars.iter() {
                    *in_block.entry(v).or_insert(0usize) += 1;
                }
            }
            in_block
                .iter()
                .filter(|&(v, &cnt)| external.contains(*v) || usage[v] > cnt)
                .map(|(&v, _)| v)
                .collect()
        })
        .collect()
}

/// Pre-contracts each block of a contraction partition into a single
/// [`NetTensor`], keeping every index shared with other blocks or external
/// to the circuit.
///
/// Returns the block tensors in block order plus the peak node count
/// observed while building them.
pub fn precontract_blocks(
    m: &mut TddManager,
    net: &TensorNetwork,
    blocks: &Blocks,
) -> (Vec<NetTensor>, usize) {
    let keeps = block_keep_vars(net, blocks);
    let mut out = Vec::with_capacity(blocks.blocks.len());
    let mut max_nodes = 0usize;
    for (block, keep) in blocks.blocks.iter().zip(keeps) {
        let members: Vec<NetTensor> = block.iter().map(|&gi| net.tensors()[gi].clone()).collect();
        let outcome = contract_network(m, &members, &keep);
        max_nodes = max_nodes.max(outcome.max_nodes);
        out.push(NetTensor {
            edge: outcome.edge,
            vars: keep,
        });
    }
    (out, max_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::{sim, Circuit, Gate};
    use qits_num::Cplx;
    use std::collections::BTreeMap;

    /// Contract a full circuit network monolithically and compare the
    /// resulting operator against the dense simulator.
    fn check_monolithic(c: &Circuit) {
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, c);
        let outcome = contract_network(&mut m, net.tensors(), &net.external_vars());
        let dense = sim::circuit_matrix(c);
        let n = c.n_qubits();
        for col in 0..(1usize << n) {
            for row in 0..(1usize << n) {
                let mut asn = BTreeMap::new();
                for q in 0..n {
                    asn.insert(net.in_var(q), (col >> (n - 1 - q)) & 1 == 1);
                    asn.insert(net.out_var(q), (row >> (n - 1 - q)) & 1 == 1);
                }
                // Wires with in == out only have consistent assignments.
                let consistent = (0..n).all(|q| {
                    net.in_var(q) != net.out_var(q)
                        || ((col >> (n - 1 - q)) & 1) == ((row >> (n - 1 - q)) & 1)
                });
                if !consistent {
                    assert!(
                        dense[(row, col)].is_zero(),
                        "diagonal wire with off-diagonal entry"
                    );
                    continue;
                }
                let got = m.eval(outcome.edge, &asn);
                assert!(
                    got.approx_eq(dense[(row, col)]),
                    "({row},{col}): got {got}, want {}",
                    dense[(row, col)]
                );
            }
        }
    }

    #[test]
    fn monolithic_bell_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        check_monolithic(&c);
    }

    #[test]
    fn monolithic_diagonal_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::cp(0, 1, 0.7));
        c.push(Gate::z(0));
        check_monolithic(&c);
    }

    #[test]
    fn monolithic_mixed_three_qubits() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::ccx(0, 1, 2));
        c.push(Gate::cp(1, 2, 0.3));
        c.push(Gate::h(2));
        c.push(Gate::cx(2, 0));
        check_monolithic(&c);
    }

    #[test]
    fn slices_sum_to_whole() {
        // Addition-partition identity at network level.
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::h(1));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        let whole = contract_network(&mut m, net.tensors(), &net.external_vars());
        let v = net.in_var(0); // a hyper leg (CX control): interesting cut
        let s0 = net.slice_at(&mut m, v, false);
        let s1 = net.slice_at(&mut m, v, true);
        let e0 = contract_network(&mut m, s0.tensors(), &net.external_vars());
        let e1 = contract_network(&mut m, s1.tensors(), &net.external_vars());
        let sum = m.add(e0.edge, e1.edge);
        assert_eq!(sum, whole.edge);
    }

    #[test]
    fn blocks_contract_to_whole() {
        // Contraction-partition identity: blocks recontract to the circuit.
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c.push(Gate::cx(2, 3));
        c.push(Gate::h(3));
        c.push(Gate::cx(0, 3));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        let whole = contract_network(&mut m, net.tensors(), &net.external_vars());
        for (k1, k2) in [(2u32, 1u32), (2, 2), (1, 3), (4, 1)] {
            let blocks = crate::partition::contraction_blocks(&c, k1, k2);
            let (bt, _) = precontract_blocks(&mut m, &net, &blocks);
            let re = contract_network(&mut m, &bt, &net.external_vars());
            assert_eq!(re.edge, whole.edge, "k1={k1} k2={k2}");
        }
    }

    #[test]
    fn reduced_kraus_tensor_still_sums_correctly() {
        // A scaled-identity Kraus gate reduces to a bare scalar TDD, yet
        // its declared wire index must still be summed exactly once (the
        // factor-2 contraction rule). Compare against the dense matrix.
        use qits_circuit::{Gate, GateKind};
        use qits_num::Mat;
        let p: f64 = 0.36;
        let mut c = Circuit::new(1);
        c.push(Gate::h(0));
        c.push(Gate::custom1(
            0,
            Mat::identity(2).scale(Cplx::real((1.0 - p).sqrt())),
        ));
        c.push(Gate::single(GateKind::X, 0));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        // The scaled identity is diagonal: its tensor reduces to a scalar.
        assert!(net.tensors()[1].edge.is_terminal());
        let out = contract_network(&mut m, net.tensors(), &net.external_vars());
        let dense = sim::circuit_matrix(&c);
        let mut asn = BTreeMap::new();
        asn.insert(net.in_var(0), false);
        asn.insert(net.out_var(0), false);
        let got = m.eval(out.edge, &asn);
        assert!(got.approx_eq(dense[(0, 0)]));
    }

    #[test]
    fn empty_network_is_one() {
        let mut m = TddManager::new();
        let out = contract_network(&mut m, &[], &VarSet::new());
        assert_eq!(out.edge, Edge::ONE);
    }

    #[test]
    fn max_nodes_tracks_peak() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        c.push(Gate::h(2));
        let mut m = TddManager::new();
        let net = TensorNetwork::from_circuit(&mut m, &c);
        let out = contract_network(&mut m, net.tensors(), &net.external_vars());
        assert!(out.max_nodes >= 3);
        // Sanity: result evaluates to (1/sqrt 2)^3 on the all-zero column.
        let mut asn = BTreeMap::new();
        for q in 0..3 {
            asn.insert(net.in_var(q), false);
            asn.insert(net.out_var(q), false);
        }
        let got = m.eval(out.edge, &asn);
        assert!(got.approx_eq(Cplx::real(0.5f64.powf(1.5))));
    }
}
