//! Tensor Decision Diagrams (TDDs).
//!
//! A TDD represents a tensor over binary indices as a rooted DAG: every
//! internal node is labelled with an index ([`qits_tensor::Var`]), has a
//! *low* (index = 0, drawn blue in the paper) and a *high* (index = 1, red)
//! successor edge, and every edge carries a complex weight. The value of the
//! tensor at an assignment is the product of the weights along the matching
//! path from the root edge to the terminal node. With a fixed index order
//! and the normalisation discipline implemented by [`TddManager::make_node`],
//! every tensor has a *unique* TDD — the canonicity that makes symbolic
//! model checking possible, exactly as BDDs do for Boolean functions.
//!
//! This crate is a from-scratch implementation of the data structure from
//! Hong et al., *"A Tensor Network Based Decision Diagram for Representation
//! of Quantum Circuits"* (TODAES 2022), which the DATE 2025 image-computation
//! paper builds on. It provides:
//!
//! * a tolerance-bucketed **complex table** ([`ComplexTable`]) interning edge
//!   weights, so node hashing/equality is exact while arithmetic is floating
//!   point;
//! * hash-consed nodes with the **redundant-node** and **zero-edge**
//!   reductions and largest-magnitude weight normalisation;
//! * the tensor operations the image-computation algorithms need:
//!   [`TddManager::add`], [`TddManager::contract`] (summation over an
//!   arbitrary sorted index set, with the factor-2 rule for indices absent
//!   from both operands), [`TddManager::slice`], [`TddManager::conj`],
//!   [`TddManager::scale`], monotone renaming, and inner products;
//! * conversions to and from dense [`qits_tensor::Tensor`]s for testing, a
//!   Graphviz exporter reproducing the style of the paper's Fig. 1, and node
//!   statistics (the "max #node" column of Table I);
//! * **garbage collection** ([`gc`]) over a backed Robin-Hood unique
//!   table with **generational node handles**: a caller hands
//!   [`TddManager::collect`] the holders of its live diagrams and
//!   everything else is reclaimed, keeping the node store bounded by the
//!   live set. Collection runs only where it is called. It never moves a
//!   node: survivors stay bit-identical and swept handles become
//!   detectably stale ([`TddManager::is_live`]), so there is no
//!   relocation or pinning ceremony anywhere in the API.
//!
//! # Example
//!
//! ```
//! use qits_num::{Cplx, Mat};
//! use qits_tensor::Var;
//! use qits_tdd::TddManager;
//!
//! let mut m = TddManager::new();
//! let h = Cplx::FRAC_1_SQRT_2;
//! let hadamard = Mat::from_rows(&[&[h, h], &[h, -h]]);
//! // |+> = H |0>, built by contracting the gate TDD with the ket TDD.
//! let gate = m.from_matrix(&hadamard, &[Var::wire(0, 0)], &[Var::wire(0, 1)]);
//! let ket0 = m.basis_ket(&[Var::wire(0, 0)], &[false]);
//! let plus = m.contract(gate, ket0, &[Var::wire(0, 0)]);
//! let amp = m.eval(plus, &[(Var::wire(0, 1), true)].into_iter().collect());
//! assert!(amp.approx_eq(h));
//! ```

pub mod cache;
pub mod cancel;
mod cnum;
mod dot;
mod dump;
pub mod gc;
mod hash;
mod manager;
mod node;
mod ops;
mod stats;
mod table;
mod transfer;
mod walk;

pub use cache::{CacheSizes, CacheStats, DEFAULT_CACHE_CAPACITY};
pub use cancel::{CancelToken, OperationCancelled};
pub use cnum::{CIdx, ComplexTable};
pub use dump::{DumpEdge, DumpError, DumpNode, TddDump};
pub use gc::{EdgeHolder, GcOutcome};
pub use manager::{ArenaExhausted, TddManager};
pub use node::{Edge, NodeId, TERMINAL};
pub use stats::{ManagerStats, ProbeHistogram, PROBE_BUCKETS};

// Thread-safety contract, checked at compile time: a manager (and every
// handle into it) is owned data, so whole sessions can move between
// threads — the property `qits`'s `EnginePool` worker threads are built
// on — and can be read through shared borrows from several threads. Its
// one piece of interior mutability, the node-counting walks' scratch, sits
// behind a `Mutex`, so concurrent counts serialise rather than race. A
// field that smuggles in `Rc`/`RefCell`/raw-pointer state breaks this
// assertion, not a user at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TddManager>();
    assert_send_sync::<Edge>();
    assert_send_sync::<ManagerStats>();
    assert_send_sync::<ArenaExhausted>();
    assert_send_sync::<CancelToken>();
    assert_send_sync::<OperationCancelled>();
    assert_send_sync::<ProbeHistogram>();
};
