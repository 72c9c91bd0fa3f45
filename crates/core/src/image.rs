//! Image computation: the basic algorithm and the two partition schemes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qits_circuit::Operation;
use qits_tdd::{CacheStats, Edge, EdgeHolder, TddManager};
use qits_tensor::{Var, VarSet};
use qits_tensornet::{
    block_keep_vars, contract_network, contraction_blocks, InteractionGraph, NetTensor,
    TensorNetwork,
};

use crate::error::QitsError;
use crate::subspace::Subspace;

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
    /// reachable from the input and target subspaces (and any registered
    /// GC roots).
    pub live_nodes: usize,
    /// Arena slots allocated in the manager when the computation finished
    /// — live nodes plus uncollected garbage.
    pub allocated_nodes: usize,
    /// Arena high-water mark of the manager when the computation finished
    /// ([`qits_tdd::ManagerStats::peak_arena`]). A lifetime counter of the
    /// manager, so only comparable across runs on fresh managers — where
    /// it is exactly the quantity in-image safepoint collections exist to
    /// keep down.
    pub peak_arena: usize,
    /// Nodes reclaimed by garbage collections during this computation.
    pub reclaimed_nodes: u64,
    /// GC safepoints polled during this computation: between addition
    /// slices, between contraction blocks, and after each Gram–Schmidt
    /// residual.
    pub safepoints: u64,
    /// Safepoint polls that actually collected.
    pub safepoint_collections: u64,
    /// Nodes reclaimed by in-image safepoint collections, incremental
    /// sweep installments included.
    pub safepoint_reclaimed: u64,
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
    /// Slot generations bumped by sweeps during this computation (one per
    /// reclaimed node).
    pub generation_bumps: u64,
    /// Unique-table hits on a swept slot's key during this computation —
    /// each one is a dead node detected by its generation instead of a
    /// dangling read.
    pub stale_handle_hits: u64,
    /// Nanoseconds the manager spent inside mark/sweep during this
    /// computation (GC pause time).
    pub gc_nanos: u64,
    /// Adjacent-level variable swaps performed by dynamic-reordering
    /// passes during this computation (zero unless the GC policy schedules
    /// reordering — see [`qits_tdd::ReorderPolicy`]).
    pub swaps: u64,
    /// Full sifting passes ([`qits_tdd::TddManager::sift_all`]) the
    /// reordering schedule ran during this computation.
    pub sift_passes: u64,
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
    /// Counters (`branches`, `elapsed`, safepoint and reclaim totals,
    /// cache movement) **sum**; high-water marks (`max_nodes`,
    /// `peak_arena`) take the **max**; end-of-run snapshots
    /// (`output_dim`, `live_nodes`, `allocated_nodes`) take the **later**
    /// value, so an aggregate reads like one long computation.
    pub fn absorb(&mut self, other: &ImageStats) {
        self.max_nodes = self.max_nodes.max(other.max_nodes);
        self.elapsed += other.elapsed;
        self.branches += other.branches;
        self.output_dim = other.output_dim;
        self.live_nodes = other.live_nodes;
        self.allocated_nodes = other.allocated_nodes;
        self.peak_arena = self.peak_arena.max(other.peak_arena);
        self.reclaimed_nodes += other.reclaimed_nodes;
        self.safepoints += other.safepoints;
        self.safepoint_collections += other.safepoint_collections;
        self.safepoint_reclaimed += other.safepoint_reclaimed;
        self.cont_cache.absorb(&other.cont_cache);
        self.add_cache.absorb(&other.add_cache);
        self.probe_p50 = self.probe_p50.max(other.probe_p50);
        self.probe_p99 = self.probe_p99.max(other.probe_p99);
        self.tombstones = other.tombstones;
        self.index_cells = other.index_cells;
        self.generation_bumps += other.generation_bumps;
        self.stale_handle_hits += other.stale_handle_hits;
        self.gc_nanos += other.gc_nanos;
        self.swaps += other.swaps;
        self.sift_passes += other.sift_passes;
    }
}

/// Polls an in-image GC safepoint: at this point of a strategy,
/// `holders` are exactly the structures that must survive — the input and
/// target subspaces, the network's gate tensors, and the operator/block
/// tensors built so far. Everything else in the arena is garbage a
/// collection may sweep.
fn safepoint(m: &mut TddManager, stats: &mut ImageStats, holders: &[&dyn EdgeHolder]) {
    let before = m.stats().nodes_reclaimed;
    if let Some(out) = m.maybe_collect_at_safepoint(holders) {
        stats.safepoint_reclaimed += out.reclaimed as u64;
    } else {
        // A poll that only ran an installment of a pending incremental
        // sweep: count its reclaim as safepoint work too.
        stats.safepoint_reclaimed += m.stats().nodes_reclaimed - before;
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
/// # Garbage collection
///
/// Every strategy polls **GC safepoints** mid-call — between
/// addition-partition slices, between contraction-partition blocks, and
/// after every Gram–Schmidt residual absorbed into the image. If the
/// manager has a [`qits_tdd::GcPolicy`] installed and the policy asks for
/// it, a safepoint sweeps everything not reachable from the strategy's
/// live set (the input, the image so far, the network's gate tensors, and
/// the operator/block tensors), so the node store stays pinned to the live
/// set *inside* one call instead of growing for its whole duration.
/// Collection never moves a node, so `input` is read-only: its edges are
/// bit-identical before, during, and after the call. With no policy
/// installed (the default) no safepoint ever collects.
///
/// Callers holding **other** long-lived diagrams on the same manager
/// (another subspace, a transition system whose initial subspace is not
/// the input) must keep them rooted across the call with
/// [`qits_tdd::TddManager::protect`] — anything unrooted is swept by the
/// first safepoint collection and becomes detectably stale. The fixpoint
/// drivers in [`crate::mc`] and the [`crate::Engine`] facade do exactly
/// that; the engine is the intended way to drive this kernel.
///
/// # Errors
///
/// Returns [`QitsError::ZeroQubitSystem`] for an empty register,
/// [`QitsError::EmptyOperationSet`] when `operations` is empty,
/// [`QitsError::RegisterMismatch`] when any operation's width differs
/// from the input's (checked in release builds),
/// [`QitsError::EmptyKrausSet`] for an operation with zero Kraus
/// operators, and [`QitsError::DimensionOverflow`] when an addition
/// partition's `k` cannot index its `2^k` slices.
pub fn try_image(
    m: &mut TddManager,
    operations: &[Operation],
    input: &Subspace,
    strategy: Strategy,
) -> Result<(Subspace, ImageStats), QitsError> {
    let mut out = Subspace::zero(input.n_qubits());
    let stats = try_image_into(m, operations, input, &mut out, strategy)?;
    Ok((out, stats))
}

/// The image kernel behind [`try_image`]: absorbs `T(input)` into `target`
/// instead of a fresh subspace. A reachability fixpoint passes the
/// frontier as `input` and the reachable space as `target`, so every image
/// vector is orthogonalised once, against the whole space; the safepoints
/// keep `target` among their mark roots. [`ImageStats::output_dim`]
/// counts the vectors the call added.
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
    strategy: Strategy,
) -> Result<ImageStats, QitsError> {
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
    if let Strategy::Addition { k } = strategy {
        if k >= usize::BITS as usize {
            return Err(QitsError::DimensionOverflow { bits: k as u32 });
        }
    }
    let start = Instant::now();
    let manager_before = m.stats();
    let dim_before = target.dim();
    let mut stats = ImageStats::default();

    for (op_i, op) in operations.iter().enumerate() {
        let branches = op.kraus_branches();
        let n_branches = branches.len();
        for (b_i, branch) in branches.into_iter().enumerate() {
            // After the very last Gram–Schmidt residual of the very last
            // branch nothing runs that could benefit from a collection,
            // so that one per-state poll is skipped.
            let final_branch = op_i + 1 == operations.len() && b_i + 1 == n_branches;
            stats.branches += 1;
            let net = TensorNetwork::from_circuit(m, &branch);
            match strategy {
                Strategy::Basic => {
                    let whole = contract_network(m, net.tensors(), &net.external_vars());
                    stats.max_nodes = stats.max_nodes.max(whole.max_nodes);
                    let op_tensor = NetTensor {
                        edge: whole.edge,
                        vars: net.external_vars(),
                    };
                    for i in 0..input.dim() {
                        let psi = input.basis()[i];
                        let (phi, peak) =
                            apply_tensors(m, std::slice::from_ref(&op_tensor), &net, psi);
                        stats.max_nodes = stats.max_nodes.max(peak);
                        target.absorb(m, phi);
                        if !(final_branch && i + 1 == input.dim()) {
                            safepoint(m, &mut stats, &[input, &*target, &op_tensor, &net]);
                        }
                    }
                }
                Strategy::Addition { k } => {
                    let graph = InteractionGraph::of(&net);
                    let cut_vars = graph.highest_degree_vars(k);
                    let k = cut_vars.len();
                    let mut op_tensors: Vec<NetTensor> = Vec::with_capacity(1 << k);
                    for bits in 0..(1usize << k) {
                        let cuts: Vec<(Var, bool)> = cut_vars
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| (v, (bits >> (k - 1 - i)) & 1 == 1))
                            .collect();
                        // Slice lazily, one part at a time, so the
                        // between-slice safepoint has nothing pending to
                        // protect beyond the parts already contracted.
                        let sliced = net.slice_all(m, &cuts);
                        let part = contract_network(m, sliced.tensors(), &net.external_vars());
                        drop(sliced);
                        stats.max_nodes = stats.max_nodes.max(part.max_nodes);
                        op_tensors.push(NetTensor {
                            edge: part.edge,
                            vars: net.external_vars(),
                        });
                        safepoint(m, &mut stats, &[input, &*target, &op_tensors, &net]);
                    }
                    for i in 0..input.dim() {
                        let psi = input.basis()[i];
                        let mut total = Edge::ZERO;
                        for part in &op_tensors {
                            let (phi, peak) =
                                apply_tensors(m, std::slice::from_ref(part), &net, psi);
                            stats.max_nodes = stats.max_nodes.max(peak);
                            total = m.add(total, phi);
                            stats.max_nodes = stats.max_nodes.max(m.node_count(total));
                        }
                        target.absorb(m, total);
                        if !(final_branch && i + 1 == input.dim()) {
                            safepoint(m, &mut stats, &[input, &*target, &op_tensors, &net]);
                        }
                    }
                }
                Strategy::Contraction { k1, k2 } => {
                    let blocks = contraction_blocks(&branch, k1, k2);
                    let keeps = block_keep_vars(&net, &blocks);
                    let mut block_tensors: Vec<NetTensor> = Vec::with_capacity(blocks.blocks.len());
                    for (block, keep) in blocks.blocks.iter().zip(keeps) {
                        let members: Vec<NetTensor> =
                            block.iter().map(|&gi| net.tensors()[gi].clone()).collect();
                        let outcome = contract_network(m, &members, &keep);
                        drop(members);
                        stats.max_nodes = stats.max_nodes.max(outcome.max_nodes);
                        block_tensors.push(NetTensor {
                            edge: outcome.edge,
                            vars: keep,
                        });
                        safepoint(m, &mut stats, &[input, &*target, &block_tensors, &net]);
                    }
                    for i in 0..input.dim() {
                        let psi = input.basis()[i];
                        let (phi, peak) = apply_tensors(m, &block_tensors, &net, psi);
                        stats.max_nodes = stats.max_nodes.max(peak);
                        target.absorb(m, phi);
                        if !(final_branch && i + 1 == input.dim()) {
                            safepoint(m, &mut stats, &[input, &*target, &block_tensors, &net]);
                        }
                    }
                }
            }
        }
    }

    let moved = m.stats().since(&manager_before);
    stats.cont_cache = moved.cont_cache;
    stats.add_cache = moved.add_cache;
    stats.reclaimed_nodes = moved.nodes_reclaimed;
    stats.safepoints = moved.safepoints_polled;
    stats.safepoint_collections = moved.safepoint_collections;
    stats.output_dim = target.dim() - dim_before;
    // Live-vs-allocated accounting: the live set is what a collection run
    // right now would keep (input + target + registered roots); the arena
    // additionally holds every uncollected intermediate.
    let mut live_edges: Vec<Edge> = Vec::with_capacity(input.dim() + target.dim() + 2);
    input.gc_edges(&mut |e| live_edges.push(e));
    target.gc_edges(&mut |e| live_edges.push(e));
    stats.live_nodes = m.live_node_count(&live_edges);
    stats.allocated_nodes = m.arena_len();
    stats.peak_arena = m.stats().peak_arena;
    // Unique-table health over this computation: probe lengths of the
    // lookups it issued, plus the generational churn its collections
    // caused.
    stats.probe_p50 = moved.probe_hist.p50();
    stats.probe_p99 = moved.probe_hist.p99();
    stats.tombstones = m.stats().tombstones;
    stats.index_cells = m.stats().index_cells;
    stats.generation_bumps = moved.generation_bumps;
    stats.stale_handle_hits = moved.stale_handle_hits;
    stats.gc_nanos = moved.gc_nanos;
    stats.swaps = moved.swaps;
    stats.sift_passes = moved.sift_passes;
    stats.elapsed = start.elapsed();
    Ok(stats)
}

/// Applies a list of operator tensors to a ket: contracts
/// `[psi, t_1, ..., t_k]` keeping the circuit outputs, then renames the
/// outputs back to ket variables. Returns the image ket and the peak node
/// count.
fn apply_tensors(
    m: &mut TddManager,
    tensors: &[NetTensor],
    net: &TensorNetwork,
    psi: Edge,
) -> (Edge, usize) {
    let n = net.n_qubits();
    let mut list = Vec::with_capacity(tensors.len() + 1);
    list.push(NetTensor {
        edge: psi,
        vars: VarSet::from_iter(net.in_vars()),
    });
    list.extend_from_slice(tensors);
    let keep: VarSet = VarSet::from_iter(net.out_vars());
    let outcome = contract_network(m, &list, &keep);
    let map: BTreeMap<Var, Var> = (0..n)
        .filter(|&q| net.out_var(q) != net.in_var(q))
        .map(|q| (net.out_var(q), Var::ket(q)))
        .collect();
    let ket = m.rename_monotone(outcome.edge, &map);
    (ket, outcome.max_nodes.max(m.node_count(ket)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_circuit::{generators, sim};
    use qits_num::linalg;
    use qits_num::Cplx;
    use qits_tdd::GcPolicy;

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
            let st = try_image_into(&mut m, &ops, qts.initial(), &mut target, s).unwrap();
            assert_eq!(st.output_dim, 0, "{s}");
            assert_eq!(target.dim(), qts.initial().dim(), "{s}");
        }
        let mut wider = Subspace::zero(4);
        let err = try_image_into(&mut m, &ops, qts.initial(), &mut wider, Strategy::Basic);
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
    fn serial_safepoints_collect_under_aggressive_policy() {
        // Every serial strategy must poll safepoints; under the
        // collect-at-every-opportunity policy they must actually reclaim,
        // and the relocated input/output must still verify against the
        // GC-off run.
        let spec = generators::qrw(3, 0.2);
        for s in [
            Strategy::Basic,
            Strategy::Addition { k: 1 },
            Strategy::Contraction { k1: 2, k2: 2 },
        ] {
            let mut m_gc = TddManager::new();
            m_gc.set_gc_policy(Some(GcPolicy::aggressive()));
            let qts_gc = QuantumTransitionSystem::from_spec(&mut m_gc, &spec);
            let (img_gc, st) =
                try_image(&mut m_gc, qts_gc.operations(), qts_gc.initial(), s).unwrap();
            assert!(st.safepoints > 0, "{s}: no safepoint polled");
            assert!(st.safepoint_collections > 0, "{s}: no safepoint collected");
            assert!(st.safepoint_reclaimed > 0, "{s}: nothing reclaimed");

            let mut m = TddManager::new();
            let qts = QuantumTransitionSystem::from_spec(&mut m, &spec);
            let (img, st_plain) = try_image(&mut m, qts.operations(), qts.initial(), s).unwrap();
            assert_eq!(st_plain.safepoint_collections, 0, "no policy: no collect");
            assert_eq!(img.dim(), img_gc.dim(), "{s}");
            // Same subspace: import the GC run's basis and compare.
            let mut imported = Subspace::zero(3);
            for &b in img_gc.basis() {
                let e = m.import(&m_gc, b);
                imported.absorb(&mut m, e);
            }
            assert!(imported.equals(&mut m, &img), "{s}");
            // The input is untouched: still the initial subspace.
            let fresh = {
                let vars = Subspace::ket_vars(3);
                let states: Vec<Edge> = spec
                    .initial_states
                    .iter()
                    .map(|amps| m_gc.product_ket(&vars, amps))
                    .collect();
                Subspace::from_states(&mut m_gc, 3, &states)
            };
            assert!(qts_gc.initial().clone().equals(&mut m_gc, &fresh), "{s}");
        }
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
