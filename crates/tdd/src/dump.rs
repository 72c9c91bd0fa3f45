//! Manager-neutral TDD dumps: the serialization boundary of the crate.
//!
//! A [`TddDump`] is a self-contained, topologically-ordered description of
//! a family of diagrams: every node lists its variable and two successor
//! edges, successors always refer to **earlier** dump entries (or the
//! terminal), and edge weights are plain [`Cplx`] values — no [`crate::CIdx`]
//! handles, no generational [`crate::NodeId`]s, nothing that is only
//! meaningful relative to one manager's tables. That makes a dump the right
//! interchange form for persistence: `qits-store` encodes it byte-for-byte,
//! and any manager can re-intern it.
//!
//! Loading goes through [`TddManager::make_node`], so a loaded diagram obeys
//! the destination's canonical invariants (reduction, weight normalisation,
//! tolerance snapping) no matter how the dump was produced. A dump whose
//! nodes nest under another variable order — one that an older build wrote
//! under an installed or sifted order — still loads: any successor whose
//! root does not sit below the node's variable is Shannon-expanded.

use qits_num::Cplx;
use qits_tensor::Var;

use crate::hash::FastMap;
use crate::manager::TddManager;
use crate::node::{Edge, NodeId, TERMINAL};

/// One serialized edge: a target node plus the resolved complex weight.
///
/// `target` is `0` for the terminal, otherwise `i + 1` where `i` indexes
/// [`TddDump::nodes`]. Successor edges of node `i` may only target the
/// terminal or nodes `0..i` (children precede parents); [`TddManager::
/// load_dump`] rejects anything else with [`DumpError::NodeOutOfRange`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumpEdge {
    /// `0` = terminal; otherwise 1-based index into [`TddDump::nodes`].
    pub target: u32,
    /// The edge weight as a plain complex value.
    pub weight: Cplx,
}

/// One serialized internal node: a variable and its two successor edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumpNode {
    /// The branching variable.
    pub var: Var,
    /// The low (index = 0) successor.
    pub low: DumpEdge,
    /// The high (index = 1) successor.
    pub high: DumpEdge,
}

/// A manager-neutral dump of one or more diagrams (see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TddDump {
    /// The weight tolerance of the dumping manager (informational: loading
    /// snaps weights under the *destination's* tolerance).
    pub tolerance: f64,
    /// Topologically ordered nodes: successors precede their parents.
    pub nodes: Vec<DumpNode>,
    /// The dumped root edges, in the order they were passed to
    /// [`TddManager::dump`].
    pub roots: Vec<DumpEdge>,
}

impl TddDump {
    /// Total number of internal nodes in the dump.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// A structurally invalid [`TddDump`], reported by [`TddManager::load_dump`]
/// instead of panicking — the dump may come from a corrupted or adversarial
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpError {
    /// A successor or root edge targets a node at or beyond the position it
    /// may legally reference (children must precede parents).
    NodeOutOfRange {
        /// Index of the offending entry: the referring node's position in
        /// [`TddDump::nodes`], or `nodes.len()` for a root edge.
        index: usize,
        /// The out-of-range 1-based target.
        target: u32,
    },
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::NodeOutOfRange { index, target } => write!(
                f,
                "dump entry {index} references node {target} out of range \
                 (children must precede parents)"
            ),
        }
    }
}

impl std::error::Error for DumpError {}

impl TddManager {
    /// Dumps the diagrams rooted at `roots` into a manager-neutral
    /// [`TddDump`]: a topological node list (children first) with all
    /// weights resolved to plain complex values. Shared subdiagrams are
    /// emitted once.
    ///
    /// The dump is deterministic: the node order is the depth-first
    /// postorder of the roots as given.
    pub fn dump(&self, roots: &[Edge]) -> TddDump {
        // `index[n]` = 1-based position of node `n` in the emitted list.
        let mut index: FastMap<NodeId, u32> = FastMap::default();
        let mut nodes: Vec<DumpNode> = Vec::new();
        // Iterative postorder: (node, successors already pushed).
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for e in roots {
            if !e.is_zero() && !e.is_terminal() {
                stack.push((e.node, false));
            }
            while let Some((n, expanded)) = stack.pop() {
                if index.contains_key(&n) {
                    continue;
                }
                let node = *self.node(n);
                if expanded {
                    let emit = |e: Edge, index: &FastMap<NodeId, u32>| DumpEdge {
                        target: if e.is_zero() || e.is_terminal() {
                            0
                        } else {
                            index[&e.node]
                        },
                        weight: self.weight_value(e.weight),
                    };
                    let low = emit(node.low, &index);
                    let high = emit(node.high, &index);
                    nodes.push(DumpNode {
                        var: node.var,
                        low,
                        high,
                    });
                    index.insert(n, nodes.len() as u32);
                } else {
                    stack.push((n, true));
                    for succ in [node.high, node.low] {
                        if !succ.is_zero() && !succ.is_terminal() && !index.contains_key(&succ.node)
                        {
                            stack.push((succ.node, false));
                        }
                    }
                }
            }
        }
        let root_edges = roots
            .iter()
            .map(|e| DumpEdge {
                target: if e.is_zero() || e.is_terminal() {
                    0
                } else {
                    index[&e.node]
                },
                weight: self.weight_value(e.weight),
            })
            .collect();
        TddDump {
            tolerance: self.tolerance(),
            nodes,
            roots: root_edges,
        }
    }

    /// Rebuilds the dumped diagrams in this manager, returning one edge per
    /// dump root (same order). Weights are re-interned under this manager's
    /// tolerance and every node goes through [`TddManager::make_node`], so
    /// the results are canonical here — loading the same dump twice returns
    /// identical edges. A node whose successors' roots do not sit below its
    /// variable (a dump nested under another order) is Shannon-expanded
    /// into place.
    ///
    /// # Errors
    ///
    /// [`DumpError::NodeOutOfRange`] if any edge references a node that
    /// does not precede it — the dump is malformed (e.g. a corrupted or
    /// truncated file) and nothing is loaded beyond the valid prefix.
    ///
    /// # Panics
    ///
    /// Unwinds with [`crate::ArenaExhausted`] if the node store's capacity
    /// is hit, like every constructor.
    pub fn load_dump(&mut self, dump: &TddDump) -> Result<Vec<Edge>, DumpError> {
        let mut built: Vec<Edge> = Vec::with_capacity(dump.nodes.len());
        let mut branch_memo: FastMap<(Var, Edge, Edge), Edge> = FastMap::default();
        for (i, n) in dump.nodes.iter().enumerate() {
            let low = self.resolve_dump_edge(&n.low, &built, i)?;
            let high = self.resolve_dump_edge(&n.high, &built, i)?;
            let e = self.branch(n.var, low, high, &mut branch_memo);
            built.push(e);
        }
        dump.roots
            .iter()
            .map(|de| self.resolve_dump_edge(de, &built, dump.nodes.len()))
            .collect()
    }

    /// Resolves one dump edge against the already-rebuilt prefix `built`
    /// (entries `0..limit` are referenceable), re-interning its weight.
    fn resolve_dump_edge(
        &mut self,
        de: &DumpEdge,
        built: &[Edge],
        limit: usize,
    ) -> Result<Edge, DumpError> {
        let w = self.intern(de.weight);
        if w.is_zero() {
            return Ok(Edge::ZERO);
        }
        if de.target == 0 {
            return Ok(Edge {
                node: TERMINAL,
                weight: w,
            });
        }
        let idx = de.target as usize - 1;
        if idx >= limit {
            return Err(DumpError::NodeOutOfRange {
                index: limit,
                target: de.target,
            });
        }
        Ok(self.mul_weight(built[idx], w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits_tensor::Tensor;

    fn sample_tensor() -> Tensor {
        Tensor::new(
            vec![Var(0), Var(1), Var(2)],
            (0..8)
                .map(|i| Cplx::new(i as f64 * 0.25 - 1.0, (i % 3) as f64 * 0.5))
                .collect(),
        )
    }

    #[test]
    fn dump_load_round_trip_preserves_values() {
        let t = sample_tensor();
        let mut src = TddManager::new();
        let e = src.from_tensor(&t);
        let dump = src.dump(&[e]);
        assert_eq!(dump.node_count(), src.node_count(e));
        let mut dst = TddManager::new();
        let roots = dst.load_dump(&dump).expect("well-formed dump");
        assert_eq!(roots.len(), 1);
        assert!(dst
            .to_tensor(roots[0], &[Var(0), Var(1), Var(2)])
            .approx_eq(&t));
    }

    #[test]
    fn load_is_canonical_in_destination() {
        let t = sample_tensor();
        let mut src = TddManager::new();
        let e = src.from_tensor(&t);
        let dump = src.dump(&[e]);
        let mut dst = TddManager::new();
        let a = dst.load_dump(&dump).unwrap()[0];
        let b = dst.load_dump(&dump).unwrap()[0];
        assert_eq!(a, b, "loading twice must hash-cons");
        assert_eq!(a, dst.from_tensor(&t), "loaded == natively built");
    }

    #[test]
    fn fresh_manager_round_trip_is_structurally_identical() {
        let t = sample_tensor();
        let mut src = TddManager::new();
        let e = src.from_tensor(&t);
        let dump = src.dump(&[e]);
        let mut dst = TddManager::new();
        let r = dst.load_dump(&dump).unwrap()[0];
        assert_eq!(dst.node_count(r), src.node_count(e));
        assert_eq!(dst.dump(&[r]), dump);
    }

    #[test]
    fn load_across_mismatched_orders_shannon_expands() {
        // Var(1) above Var(0): the nesting of a dump written under an
        // order that lists Var(1) first. Loading re-expresses it with
        // Var(0) on top.
        let leaf = |a: f64, b: f64| DumpNode {
            var: Var(0),
            low: DumpEdge {
                target: 0,
                weight: Cplx::real(a),
            },
            high: DumpEdge {
                target: 0,
                weight: Cplx::real(b),
            },
        };
        let dump = TddDump {
            tolerance: 1e-10,
            nodes: vec![
                leaf(1.0, 0.5),
                leaf(-0.25, 1.0),
                DumpNode {
                    var: Var(1),
                    low: DumpEdge {
                        target: 1,
                        weight: Cplx::ONE,
                    },
                    high: DumpEdge {
                        target: 2,
                        weight: Cplx::new(0.0, 2.0),
                    },
                },
            ],
            roots: vec![DumpEdge {
                target: 3,
                weight: Cplx::ONE,
            }],
        };
        // Entry (v0, v1): v1 picks the leaf, v0 its branch.
        let t = Tensor::new(
            vec![Var(0), Var(1)],
            vec![
                Cplx::ONE,
                Cplx::new(0.0, -0.5),
                Cplx::real(0.5),
                Cplx::new(0.0, 2.0),
            ],
        );
        let mut m = TddManager::new();
        let r = m.load_dump(&dump).unwrap()[0];
        assert_eq!(m.top_var(r), Some(Var(0)));
        assert!(m.to_tensor(r, &[Var(0), Var(1)]).approx_eq(&t));
        assert_eq!(r, m.from_tensor(&t), "canonical in the destination");
    }

    #[test]
    fn shared_subdiagrams_dump_once() {
        let mut m = TddManager::new();
        let a = m.from_tensor(&sample_tensor());
        let b = m.scale(a, Cplx::new(0.0, 2.0));
        let dump = m.dump(&[a, b]);
        // b is a scaled alias of a's node: one shared node set, two roots.
        assert_eq!(dump.roots.len(), 2);
        assert_eq!(dump.node_count(), m.node_count(a));
        let mut dst = TddManager::new();
        let roots = dst.load_dump(&dump).unwrap();
        assert_eq!(roots[0].node, roots[1].node);
    }

    #[test]
    fn zero_and_scalar_roots_round_trip() {
        let mut m = TddManager::new();
        let s = m.constant(Cplx::new(0.5, -0.25));
        let dump = m.dump(&[Edge::ZERO, s, Edge::ONE]);
        assert_eq!(dump.node_count(), 0);
        let mut dst = TddManager::new();
        let roots = dst.load_dump(&dump).unwrap();
        assert_eq!(roots[0], Edge::ZERO);
        assert!(dst
            .weight_value(roots[1].weight)
            .approx_eq(Cplx::new(0.5, -0.25)));
        assert_eq!(roots[2], Edge::ONE);
    }

    #[test]
    fn forward_references_are_rejected_not_loaded() {
        let dump = TddDump {
            tolerance: 1e-10,
            nodes: vec![DumpNode {
                var: Var(0),
                low: DumpEdge {
                    target: 1, // self-reference: node 0 targeting entry 1
                    weight: Cplx::ONE,
                },
                high: DumpEdge {
                    target: 0,
                    weight: Cplx::ONE,
                },
            }],
            roots: vec![DumpEdge {
                target: 1,
                weight: Cplx::ONE,
            }],
        };
        let mut m = TddManager::new();
        let err = m.load_dump(&dump).unwrap_err();
        assert_eq!(
            err,
            DumpError::NodeOutOfRange {
                index: 0,
                target: 1
            }
        );
    }

    #[test]
    fn root_out_of_range_is_rejected() {
        let dump = TddDump {
            tolerance: 1e-10,
            nodes: Vec::new(),
            roots: vec![DumpEdge {
                target: 7,
                weight: Cplx::ONE,
            }],
        };
        let mut m = TddManager::new();
        let err = m.load_dump(&dump).unwrap_err();
        assert_eq!(
            err,
            DumpError::NodeOutOfRange {
                index: 0,
                target: 7
            }
        );
    }

    #[test]
    fn empty_dump_loads_to_nothing() {
        let mut m = TddManager::new();
        let roots = m.load_dump(&TddDump::default()).unwrap();
        assert!(roots.is_empty());
    }
}
