//! Image computation: the basic algorithm and the two partition schemes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qits_circuit::{Circuit, Operation};
use qits_num::key::{Fnv128, KeyBits};
use qits_tdd::{CacheStats, Edge, EdgeHolder, TddManager};
use qits_tensor::{Var, VarSet};
use qits_tensornet::{
    block_keep_vars, contract_network, contraction_blocks, InteractionGraph, NetTensor,
    TensorNetwork,
};

use crate::error::QitsError;
use crate::mc::Chain;
use crate::subspace::{ensure_live, swept, Subspace};

/// Which image-computation method to run (the three columns of Table I).
///
/// The default is the contraction partition at the paper's Table I
/// setting, `k1 = k2 = 4` — the method Table I shows to be fastest.
/// `Basic` and `Addition` stay selectable as the paper's baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 1: contract each Kraus circuit into one monolithic
    /// operator TDD, then apply it to every basis state.
    Basic,
    /// Addition partition (Section V-A): slice the tensor network at its
    /// `k` highest-degree indices, contract each of the `2^k` slices to an
    /// operator, and sum the per-slice images. `k = 1` reproduces the
    /// paper's Table I setting (two parts).
    Addition {
        /// Number of indices to slice.
        k: usize,
    },
    /// Contraction partition (Section V-B): pre-contract the blocks of the
    /// `(k1, k2)` circuit cut, then contract them against each basis state
    /// in sequence — the monolithic operator is never built.
    Contraction {
        /// Maximum qubits per horizontal band.
        k1: u32,
        /// Crossing multi-qubit gates per vertical segment.
        k2: u32,
    },
}

impl KeyBits for Strategy {
    fn key_bits(&self, h: &mut Fnv128) {
        match self {
            Strategy::Basic => 0u8.key_bits(h),
            Strategy::Addition { k } => {
                1u8.key_bits(h);
                k.key_bits(h);
            }
            Strategy::Contraction { k1, k2 } => {
                2u8.key_bits(h);
                k1.key_bits(h);
                k2.key_bits(h);
            }
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Basic => write!(f, "basic"),
            Strategy::Addition { k } => write!(f, "addition(k={k})"),
            Strategy::Contraction { k1, k2 } => write!(f, "contraction(k1={k1},k2={k2})"),
        }
    }
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Contraction { k1: 4, k2: 4 }
    }
}

/// The command-line names of the Table I methods, at the paper's
/// parameters: `basic`, `addition` (`k = 1`) and `contraction`
/// (`k1 = k2 = 4`).
impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "basic" => Ok(Strategy::Basic),
            "addition" => Ok(Strategy::Addition { k: 1 }),
            "contraction" => Ok(Strategy::default()),
            other => Err(format!("unknown strategy '{other}'")),
        }
    }
}

/// Measurements of one image computation — the quantities Table I reports,
/// plus the operation-cache movement behind them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImageStats {
    /// Peak **live** node count over every TDD produced ("max #node") —
    /// per-diagram reachable nodes, never arena slots.
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Number of Kraus branches processed across all operations.
    pub branches: usize,
    /// Vectors this computation added to its target subspace: the image
    /// dimension for [`crate::Engine::image`] (a fresh zero target), and
    /// the size of the next frontier in a reachability fixpoint (the
    /// reachable space as target).
    pub output_dim: usize,
    /// Nodes still live when the computation finished: everything
    /// reachable from the input and target subspaces, the compiled
    /// operators of the session (or, for a one-off image, of the call),
    /// the session's system and its reachability chain — exactly what a
    /// collection holding those would keep.
    pub live_nodes: usize,
    /// Arena slots allocated in the manager when the computation finished
    /// — live nodes plus uncollected garbage.
    pub allocated_nodes: usize,
    /// Arena high-water mark of the manager when the computation finished
    /// ([`qits_tdd::ManagerStats::peak_arena`]). A lifetime counter of the
    /// manager, so only comparable across runs on fresh managers.
    pub peak_arena: usize,
    /// Cancellation polls during this computation
    /// ([`TddManager::poll_cancel`]): between addition slices, between
    /// contraction blocks, and after each Gram–Schmidt residual but the
    /// last.
    pub safepoints: u64,
    /// Contraction-cache movement across this computation.
    pub cont_cache: CacheStats,
    /// Addition-cache movement across this computation.
    pub add_cache: CacheStats,
    /// Median Robin Hood probe length of the unique-table lookups this
    /// computation issued.
    pub probe_p50: u32,
    /// 99th-percentile probe length of the same lookups.
    pub probe_p99: u32,
    /// Stale (tombstoned) Robin Hood index cells in the manager's unique
    /// table when the computation finished — an end-of-run snapshot, like
    /// [`ImageStats::allocated_nodes`].
    pub tombstones: usize,
    /// Index cells allocated at the same moment — the denominator that
    /// turns [`ImageStats::tombstones`] into a load ratio (the rehash
    /// trigger keeps `live + tombstones` at or below 3/4 of this).
    pub index_cells: usize,
}

impl ImageStats {
    /// Contraction-cache hit rate in `[0, 1]` — the headline reuse metric:
    /// the contraction partition wins precisely when repeated
    /// block-against-state contractions share structure.
    pub fn cont_hit_rate(&self) -> f64 {
        self.cont_cache.hit_rate()
    }

    /// Merges the stats of another image computation into this aggregate,
    /// for per-worker/per-session rollups ([`crate::PoolStats`] sums every
    /// image a pool worker ran this way).
    ///
    /// Counters (`branches`, `elapsed`, polls, cache movement) **sum**;
    /// high-water marks (`max_nodes`, `peak_arena`) take the **max**;
    /// end-of-run snapshots (`output_dim`, `live_nodes`,
    /// `allocated_nodes`) take the **later** value, so an aggregate reads
    /// like one long computation.
    pub fn absorb(&mut self, other: &ImageStats) {
        self.max_nodes = self.max_nodes.max(other.max_nodes);
        self.elapsed += other.elapsed;
        self.branches += other.branches;
        self.output_dim = other.output_dim;
        self.live_nodes = other.live_nodes;
        self.allocated_nodes = other.allocated_nodes;
        self.peak_arena = self.peak_arena.max(other.peak_arena);
        self.safepoints += other.safepoints;
        self.cont_cache.absorb(&other.cont_cache);
        self.add_cache.absorb(&other.add_cache);
        self.probe_p50 = self.probe_p50.max(other.probe_p50);
        self.probe_p99 = self.probe_p99.max(other.probe_p99);
        self.tombstones = other.tombstones;
        self.index_cells = other.index_cells;
    }
}

/// The Kraus branches of one list of operations, compiled for one
/// strategy: each branch's tensor network plus the operator tensors the
/// strategy applies to every input state. None of it depends on the
/// states — the point of pre-contracting blocks in Section V-B — so each
/// branch is compiled once, by the first image that reaches it, and every
/// later image, fixpoint iteration and pool job reuses it.
///
/// The cache belongs to its caller: [`crate::Engine`] keeps one for its
/// system and session strategy, a fixpoint run one for its whole run, and
/// [`try_image`] a fresh one per call. It is a GC holder:
/// [`crate::Engine::collect`] holds it next to the system. The engine also
/// parks its system's reachability chain here between fixpoints, so
/// whatever holds the compiled branches holds the chain too.
#[derive(Debug)]
pub(crate) struct Compiled {
    strategy: Strategy,
    /// Compiled branches, in operation-then-branch order. Filled in that
    /// order, so its length is the number of branches compiled so far.
    branches: Vec<Branch>,
    /// The session's reachability chain (see [`crate::mc`]): `None` until
    /// the first fixpoint, and while one extends it.
    pub(crate) chain: Option<Chain>,
}

/// One compiled Kraus branch.
#[derive(Debug)]
struct Branch {
    /// The branch circuit's tensor network.
    net: TensorNetwork,
    /// The strategy's operator tensors: the whole operator (`Basic`), the
    /// `2^k` slice operators (`Addition`), or the pre-contracted blocks
    /// (`Contraction`).
    operators: Vec<NetTensor>,
    /// Peak live node count of the compilation, folded into every image's
    /// [`ImageStats::max_nodes`] so the figure does not depend on whether
    /// the call compiled the branch or reused it.
    build_peak: usize,
    /// The indices a state enters the network on: the circuit inputs.
    in_vars: VarSet,
    /// The indices an application keeps: the circuit outputs.
    out_vars: VarSet,
    /// Renames the advanced outputs back to ket variables.
    rename: BTreeMap<Var, Var>,
}

impl Compiled {
    /// An empty cache for `strategy`.
    pub(crate) fn new(strategy: Strategy) -> Compiled {
        Compiled {
            strategy,
            branches: Vec::new(),
            chain: None,
        }
    }

    /// The strategy the branches are compiled for.
    pub(crate) fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Drops every compiled branch if a collection that did not hold the
    /// cache swept any of its tensors, and the chain if it swept any of
    /// the chain's kets; the next call computes them again. One liveness
    /// check per cached edge.
    pub(crate) fn drop_if_stale(&mut self, m: &TddManager) {
        if self.branches.iter().any(|b| swept(m, b)) {
            self.branches.clear();
        }
        if self.chain.as_ref().is_some_and(|c| swept(m, c)) {
            self.chain = None;
        }
    }

    /// Compiles one branch circuit: lowers it to a tensor network and
    /// builds the strategy's operator tensors, polling for cancellation
    /// after every slice or block.
    fn compile(&self, m: &mut TddManager, circuit: &Circuit) -> Branch {
        let net = TensorNetwork::from_circuit(m, circuit);
        let mut build_peak = 0;
        let mut operators: Vec<NetTensor> = Vec::new();
        match self.strategy {
            Strategy::Basic => {
                let whole = contract_network(m, net.tensors(), &net.external_vars());
                build_peak = whole.max_nodes;
                operators.push(NetTensor {
                    edge: whole.edge,
                    vars: net.external_vars(),
                });
            }
            Strategy::Addition { k } => {
                let graph = InteractionGraph::of(&net);
                let cut_vars = graph.highest_degree_vars(k);
                let k = cut_vars.len();
                for bits in 0..(1usize << k) {
                    let cuts: Vec<(Var, bool)> = cut_vars
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, (bits >> (k - 1 - i)) & 1 == 1))
                        .collect();
                    let sliced = net.slice_all(m, &cuts);
                    let part = contract_network(m, sliced.tensors(), &net.external_vars());
                    build_peak = build_peak.max(part.max_nodes);
                    operators.push(NetTensor {
                        edge: part.edge,
                        vars: net.external_vars(),
                    });
                    m.poll_cancel();
                }
            }
            Strategy::Contraction { k1, k2 } => {
                let blocks = contraction_blocks(circuit, k1, k2);
                let keeps = block_keep_vars(&net, &blocks);
                for (block, keep) in blocks.blocks.iter().zip(keeps) {
                    let members: Vec<NetTensor> =
                        block.iter().map(|&gi| net.tensors()[gi].clone()).collect();
                    let outcome = contract_network(m, &members, &keep);
                    build_peak = build_peak.max(outcome.max_nodes);
                    operators.push(NetTensor {
                        edge: outcome.edge,
                        vars: keep,
                    });
                    m.poll_cancel();
                }
            }
        }
        let n = net.n_qubits();
        Branch {
            in_vars: VarSet::from_iter(net.in_vars()),
            out_vars: VarSet::from_iter(net.out_vars()),
            rename: (0..n)
                .filter(|&q| net.out_var(q) != net.in_var(q))
                .map(|q| (net.out_var(q), Var::ket(q)))
                .collect(),
            net,
            operators,
            build_peak,
        }
    }
}

impl EdgeHolder for Compiled {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        for b in &self.branches {
            b.gc_edges(visit);
        }
        if let Some(chain) = &self.chain {
            chain.gc_edges(visit);
        }
    }
}

impl EdgeHolder for Branch {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        self.net.gc_edges(visit);
        self.operators.gc_edges(visit);
    }
}

impl Branch {
    /// Applies the branch operator to a ket: the slice images summed for
    /// the addition partition, one contraction through every operator
    /// tensor otherwise. Returns the image ket and the peak node count.
    fn apply(&self, m: &mut TddManager, strategy: Strategy, psi: Edge) -> (Edge, usize) {
        if let Strategy::Addition { .. } = strategy {
            let mut total = Edge::ZERO;
            let mut peak = 0;
            for part in &self.operators {
                let (phi, part_peak) = self.apply_tensors(m, std::slice::from_ref(part), psi);
                total = m.add(total, phi);
                peak = peak.max(part_peak).max(m.node_count(total));
            }
            (total, peak)
        } else {
            self.apply_tensors(m, &self.operators, psi)
        }
    }

    /// Contracts `[psi, t_1, ..., t_k]` keeping the circuit outputs, then
    /// renames the outputs back to ket variables. Returns the image ket
    /// and the peak node count.
    fn apply_tensors(&self, m: &mut TddManager, tensors: &[NetTensor], psi: Edge) -> (Edge, usize) {
        let mut list = Vec::with_capacity(tensors.len() + 1);
        list.push(NetTensor {
            edge: psi,
            vars: self.in_vars.clone(),
        });
        list.extend_from_slice(tensors);
        let outcome = contract_network(m, &list, &self.out_vars);
        let ket = m.rename_monotone(outcome.edge, &self.rename);
        (ket, outcome.max_nodes.max(m.node_count(ket)))
    }
}

/// Computes the image `T(S)` of subspace `input` under the given
/// operations, with the chosen strategy, into a fresh subspace.
///
/// Every Kraus branch `E` of every operation is applied to every basis
/// state `|psi>` of `input`, and each result is absorbed into the image by
/// one Gram–Schmidt step ([`Subspace::absorb`]). This realises Algorithm 1
/// of the paper, with the operator-application step swapped per strategy.
/// A reachability fixpoint runs the same kernel with the reachable space
/// in place of the fresh subspace (see [`crate::mc`]).
///
/// Each branch is compiled — lowered to a tensor network, and its
/// operator, slices or blocks contracted — when the call first reaches
/// it. A one-off call compiles into a cache of its own and drops it at
/// the end; [`crate::Engine`] and the fixpoint drivers keep theirs, so
/// every later image reuses the compiled branches.
///
/// # Cancellation and collection
///
/// Every strategy polls for cancellation mid-call
/// ([`TddManager::poll_cancel`]) — between addition-partition slices,
/// between contraction-partition blocks, and after every Gram–Schmidt
/// residual absorbed into the image but the last. Nothing collects
/// inside the call: the intermediates it leaves in the arena are
/// reclaimed by the next [`TddManager::collect`] that does not hold them,
/// which the caller runs where it likes ([`crate::Engine::collect`]).
///
/// # Errors
///
/// Returns [`QitsError::ZeroQubitSystem`] for an empty register,
/// [`QitsError::EmptyOperationSet`] when `operations` is empty,
/// [`QitsError::RegisterMismatch`] when any operation's width differs
/// from the input's (checked in release builds),
/// [`QitsError::EmptyKrausSet`] for an operation with zero Kraus
/// operators, [`QitsError::StaleHandle`] when a collection swept the
/// input's kets, and [`QitsError::DimensionOverflow`] when an addition
/// partition's `k` cannot index its `2^k` slices.
pub fn try_image(
    m: &mut TddManager,
    operations: &[Operation],
    input: &Subspace,
    strategy: Strategy,
) -> Result<(Subspace, ImageStats), QitsError> {
    let mut out = Subspace::zero(input.n_qubits());
    let stats = try_image_into(
        m,
        operations,
        input,
        &mut out,
        &mut Compiled::new(strategy),
        &[],
    )?;
    Ok((out, stats))
}

/// The image kernel behind [`try_image`]: absorbs `T(input)` into `target`
/// instead of a fresh subspace, with the branches of `operations` compiled
/// into `compiled` (for its strategy). A reachability fixpoint passes the
/// frontier as `input` and the reachable space as `target`, so every image
/// vector is absorbed once, straight into the whole space.
/// [`ImageStats::output_dim`] counts the vectors the call added.
///
/// `compiled` must come from earlier calls with the same `operations` (or
/// be empty): its `i`-th branch stands for the `i`-th branch in
/// operation-then-branch order. `held` names what else the caller keeps
/// live across the call — a session's system — so that
/// [`ImageStats::live_nodes`] counts it too.
///
/// # Errors
///
/// As [`try_image`], plus [`QitsError::RegisterMismatch`] when the
/// target's width differs from the input's.
pub(crate) fn try_image_into(
    m: &mut TddManager,
    operations: &[Operation],
    input: &Subspace,
    target: &mut Subspace,
    compiled: &mut Compiled,
    held: &[&dyn EdgeHolder],
) -> Result<ImageStats, QitsError> {
    let strategy = compiled.strategy;
    let n = input.n_qubits();
    if n == 0 {
        return Err(QitsError::ZeroQubitSystem);
    }
    if operations.is_empty() {
        return Err(QitsError::EmptyOperationSet);
    }
    for op in operations {
        if op.n_qubits() != n {
            return Err(QitsError::RegisterMismatch {
                expected: n,
                found: op.n_qubits(),
                context: format!("operation '{}'", op.label()),
            });
        }
        if op.branch_count() == 0 {
            return Err(QitsError::EmptyKrausSet {
                label: op.label().to_string(),
            });
        }
    }
    if target.n_qubits() != n {
        return Err(QitsError::RegisterMismatch {
            expected: n,
            found: target.n_qubits(),
            context: "the image target subspace".to_string(),
        });
    }
    ensure_live(m, input, "the input subspace")?;
    if let Strategy::Addition { k } = strategy {
        if k >= usize::BITS as usize {
            return Err(QitsError::DimensionOverflow { bits: k as u32 });
        }
    }
    let start = Instant::now();
    let manager_before = m.stats();
    let dim_before = target.dim();
    let mut stats = ImageStats::default();

    // Index of the current branch in operation-then-branch order.
    let mut flat = 0;
    for (op_i, op) in operations.iter().enumerate() {
        let n_branches = op.branch_count();
        // The branch circuits, enumerated only if a branch of this
        // operation still needs compiling.
        let mut circuits = None;
        for b_i in 0..n_branches {
            // After the very last Gram–Schmidt residual of the very last
            // branch the call returns anyway, so that one per-state poll
            // is skipped.
            let final_branch = op_i + 1 == operations.len() && b_i + 1 == n_branches;
            stats.branches += 1;
            if compiled.branches.len() == flat {
                let circuits = circuits.get_or_insert_with(|| op.kraus_branches());
                let branch = compiled.compile(m, &circuits[b_i]);
                compiled.branches.push(branch);
            }
            stats.max_nodes = stats.max_nodes.max(compiled.branches[flat].build_peak);
            for i in 0..input.dim() {
                let psi = input.basis()[i];
                let (phi, peak) = compiled.branches[flat].apply(m, strategy, psi);
                stats.max_nodes = stats.max_nodes.max(peak);
                target.absorb(m, phi);
                if !(final_branch && i + 1 == input.dim()) {
                    m.poll_cancel();
                }
            }
            flat += 1;
        }
    }

    let moved = m.stats().since(&manager_before);
    stats.cont_cache = moved.cont_cache;
    stats.add_cache = moved.add_cache;
    stats.safepoints = moved.safepoints_polled;
    stats.output_dim = target.dim() - dim_before;
    // Live-vs-allocated accounting: the live set is what a collection
    // holding the input, the target, the compiled branches and chain and
    // `held` would keep; the arena additionally holds every uncollected
    // intermediate.
    let mut live_edges: Vec<Edge> = Vec::with_capacity(input.dim() + target.dim() + 2);
    input.gc_edges(&mut |e| live_edges.push(e));
    target.gc_edges(&mut |e| live_edges.push(e));
    compiled.gc_edges(&mut |e| live_edges.push(e));
    held.gc_edges(&mut |e| live_edges.push(e));
    stats.live_nodes = m.live_node_count(&live_edges);
    stats.allocated_nodes = m.arena_len();
    stats.peak_arena = m.stats().peak_arena;
    // Unique-table health over this computation: probe lengths of the
    // lookups it issued, and the index's tombstone load.
    stats.probe_p50 = moved.probe_hist.p50();
    stats.probe_p99 = moved.probe_hist.p99();
    stats.tombstones = m.stats().tombstones;
    stats.index_cells = m.stats().index_cells;
    stats.elapsed = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::{generators, sim};
    use qits_num::linalg;
    use qits_num::Cplx;

    use crate::qts::QuantumTransitionSystem;

    const STRATEGIES: [Strategy; 4] = [
        Strategy::Basic,
        Strategy::Addition { k: 1 },
        Strategy::Addition { k: 2 },
        Strategy::Contraction { k1: 2, k2: 2 },
    ];

    /// Dense reference image: apply every Kraus matrix to every basis
    /// vector, Gram–Schmidt the lot.
    fn dense_image(m: &mut TddManager, ops: &[Operation], input: &Subspace) -> Vec<Vec<Cplx>> {
        let n = input.n_qubits();
        let vars = Subspace::ket_vars(n);
        let mut vectors = Vec::new();
        for op in ops {
            for k in sim::operation_kraus_matrices(op) {
                for &psi in input.basis() {
                    let dense_psi: Vec<Cplx> = (0..(1usize << n))
                        .map(|i| {
                            let asn: BTreeMap<Var, bool> = vars
                                .iter()
                                .enumerate()
                                .map(|(q, &v)| (v, (i >> (n as usize - 1 - q)) & 1 == 1))
                                .collect();
                            m.eval(psi, &asn)
                        })
                        .collect();
                    vectors.push(k.matvec(&dense_psi));
                }
            }
        }
        linalg::gram_schmidt(&vectors)
    }

    fn check_image_matches_dense(spec: &generators::QtsSpec, strategy: Strategy) {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, spec);
        let (img, stats) = try_image(&mut m, qts.operations(), qts.initial(), strategy).unwrap();
        let expect = dense_image(&mut m, qts.operations(), qts.initial());
        assert_eq!(
            img.dim(),
            expect.len(),
            "{}: dimension mismatch with dense oracle ({strategy})",
            spec.name
        );
        // Every symbolic basis vector must lie in the dense span.
        let n = qts.n_qubits();
        let vars = Subspace::ket_vars(n);
        for &b in img.basis() {
            let dense_b: Vec<Cplx> = (0..(1usize << n))
                .map(|i| {
                    let asn: BTreeMap<Var, bool> = vars
                        .iter()
                        .enumerate()
                        .map(|(q, &v)| (v, (i >> (n as usize - 1 - q)) & 1 == 1))
                        .collect();
                    m.eval(b, &asn)
                })
                .collect();
            assert!(
                linalg::in_span(&expect, &dense_b),
                "{}: symbolic image vector outside dense image ({strategy})",
                spec.name
            );
        }
        assert!(stats.max_nodes > 0);
        assert!(stats.branches > 0);
    }

    #[test]
    fn ghz_image_matches_dense_all_strategies() {
        for s in STRATEGIES {
            check_image_matches_dense(&generators::ghz(4), s);
        }
    }

    #[test]
    fn grover_image_matches_dense_all_strategies() {
        for s in STRATEGIES {
            check_image_matches_dense(&generators::grover(3), s);
        }
    }

    #[test]
    fn qft_image_matches_dense_all_strategies() {
        for s in STRATEGIES {
            check_image_matches_dense(&generators::qft(3), s);
        }
    }

    #[test]
    fn bv_image_matches_dense_all_strategies() {
        for s in STRATEGIES {
            check_image_matches_dense(&generators::bernstein_vazirani(4, &[true, false, true]), s);
        }
    }

    #[test]
    fn qrw_image_matches_dense_all_strategies() {
        for s in STRATEGIES {
            check_image_matches_dense(&generators::qrw(3, 0.2), s);
        }
    }

    #[test]
    fn bitflip_image_matches_dense_all_strategies() {
        for s in STRATEGIES {
            check_image_matches_dense(&generators::bitflip_code(), s);
        }
    }

    #[test]
    fn grover_invariant_subspace() {
        // T(S) = S for S = span{|++->, |11->} (Section III-A.1).
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::grover(3));
        for s in STRATEGIES {
            let (img, _) = try_image(&mut m, qts.operations(), qts.initial(), s).unwrap();
            assert!(img.equals(&mut m, qts.initial()), "strategy {s}");
        }
    }

    #[test]
    fn strategies_agree_pairwise() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(4, 0.3));
        let mut images: Vec<Subspace> = Vec::new();
        for &s in STRATEGIES.iter() {
            images.push(
                try_image(&mut m, qts.operations(), qts.initial(), s)
                    .unwrap()
                    .0,
            );
        }
        for w in images.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(a.clone().equals(&mut m, b));
        }
    }

    #[test]
    fn image_of_zero_subspace_is_zero() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(3));
        let zero = Subspace::zero(3);
        let (img, stats) = try_image(&mut m, qts.operations(), &zero, Strategy::Basic).unwrap();
        assert_eq!(img.dim(), 0);
        assert_eq!(stats.output_dim, 0);
    }

    #[test]
    fn image_into_a_target_counts_only_what_it_adds() {
        // T(S) = S for the Grover invariant: absorbing T(S) into S itself
        // adds nothing.
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::grover(3));
        let ops = qts.operations().clone();
        for s in STRATEGIES {
            let mut target = qts.initial().clone();
            let st = try_image_into(
                &mut m,
                &ops,
                qts.initial(),
                &mut target,
                &mut Compiled::new(s),
                &[],
            )
            .unwrap();
            assert_eq!(st.output_dim, 0, "{s}");
            assert_eq!(target.dim(), qts.initial().dim(), "{s}");
        }
        let mut wider = Subspace::zero(4);
        let err = try_image_into(
            &mut m,
            &ops,
            qts.initial(),
            &mut wider,
            &mut Compiled::new(Strategy::Basic),
            &[],
        );
        assert!(matches!(
            err.unwrap_err(),
            crate::error::QitsError::RegisterMismatch {
                expected: 3,
                found: 4,
                ..
            }
        ));
    }

    #[test]
    fn try_image_reports_register_mismatch_in_release() {
        let mut m = TddManager::new();
        let input = Subspace::zero(3);
        let wide = Operation::new("wide", 5);
        let err = try_image(&mut m, &[wide], &input, Strategy::Basic).unwrap_err();
        assert!(matches!(
            err,
            crate::error::QitsError::RegisterMismatch {
                expected: 3,
                found: 5,
                ..
            }
        ));
    }

    #[test]
    fn try_image_reports_empty_operation_set_and_zero_register() {
        let mut m = TddManager::new();
        let input = Subspace::zero(3);
        assert_eq!(
            try_image(&mut m, &[], &input, Strategy::Basic).unwrap_err(),
            crate::error::QitsError::EmptyOperationSet
        );
        let zero = Subspace::zero(0);
        let op = Operation::new("id", 0);
        assert_eq!(
            try_image(&mut m, &[op], &zero, Strategy::Basic).unwrap_err(),
            crate::error::QitsError::ZeroQubitSystem
        );
    }

    #[test]
    fn try_image_reports_slice_count_overflow() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(3));
        let err = try_image(
            &mut m,
            qts.operations(),
            qts.initial(),
            Strategy::Addition { k: 64 },
        )
        .unwrap_err();
        assert_eq!(err, crate::error::QitsError::DimensionOverflow { bits: 64 });
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::Basic.to_string(), "basic");
        assert_eq!(Strategy::Addition { k: 1 }.to_string(), "addition(k=1)");
        assert_eq!(
            Strategy::Contraction { k1: 4, k2: 4 }.to_string(),
            "contraction(k1=4,k2=4)"
        );
    }

    #[test]
    fn strategy_names_parse_to_their_kernels() {
        assert_eq!("basic".parse(), Ok(Strategy::Basic));
        assert_eq!("addition".parse(), Ok(Strategy::Addition { k: 1 }));
        assert_eq!(
            "contraction".parse(),
            Ok(Strategy::Contraction { k1: 4, k2: 4 })
        );
        for bad in ["auto", ""] {
            assert_eq!(
                bad.parse::<Strategy>(),
                Err(format!("unknown strategy '{bad}'"))
            );
        }
    }
}
