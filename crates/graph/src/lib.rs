//! Graph substrate for *Restoration by Path Concatenation* (RBPC).
//!
//! This crate provides the network-graph machinery the RBPC paper
//! (Afek, Bremler-Barr, Cohen, Kaplan, Merritt, PODC 2001) builds on:
//!
//! * an undirected, weighted **multigraph** ([`Graph`]) — parallel edges are
//!   first-class because several of the paper's constructions need them;
//! * **failure views** ([`FailureSet`], [`FailureView`]) that mask failed
//!   edges and routers without copying the graph;
//! * binary-heap **Dijkstra** over any [`Topology`], producing
//!   [`ShortestPathTree`]s and [`Path`]s;
//! * a deterministic realization of the paper's *infinitesimal weight
//!   padding* ([`CostModel`]): perturbed `u128` costs that make shortest
//!   paths unique with overwhelming probability while preserving the
//!   original cost order (Theorem 3 of the paper);
//! * shortest-path **counting** (for the paper's redundancy statistic),
//!   BFS, connectivity, and a union-find.
//!
//! # Example
//!
//! ```
//! use rbpc_graph::{Graph, CostModel, Metric, shortest_path, FailureSet};
//!
//! # fn main() -> Result<(), rbpc_graph::GraphError> {
//! let mut g = Graph::new(4);
//! let ab = g.add_edge(0, 1, 1)?;
//! g.add_edge(1, 2, 1)?;
//! g.add_edge(0, 3, 1)?;
//! g.add_edge(3, 2, 1)?;
//!
//! let cost = CostModel::new(Metric::Weighted, 42);
//! let p = shortest_path(&g, &cost, 0.into(), 2.into()).expect("connected");
//! assert_eq!(p.hop_count(), 2);
//!
//! // Fail whichever two-hop route was chosen; the other one takes over.
//! let mut failures = FailureSet::new();
//! failures.fail_edge(p.edges()[0]);
//! let view = failures.view(&g);
//! let q = shortest_path(&view, &cost, 0.into(), 2.into()).expect("still connected");
//! assert_eq!(q.hop_count(), 2);
//! assert_ne!(p.edges()[0], q.edges()[0]);
//! # let _ = ab;
//! # Ok(())
//! # }
//! ```
//!
//! The full paper-to-code map (theorems, figures, tables -> modules and
//! tests) is in `docs/PAPER_MAP.md` at the repository root;
//! `docs/ARCHITECTURE.md` shows how the crates fit together.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bfs;
mod cost;
mod counting;
pub mod csr;
mod cuts;
mod digraph;
mod dijkstra;
pub mod dynamic;
mod error;
mod graph;
mod ids;
pub mod par;
mod path;
mod rng;
mod spt;
mod subgraph;
mod unionfind;
mod view;
mod yen;

pub use bfs::{bfs_distances, connected_components, is_connected, ComponentLabels};
pub use cost::{splitmix64, CostModel, IdHasher, IdMap, Metric, PathCost};
pub use counting::count_shortest_paths;
pub use csr::{CsrGraph, DijkstraScratch, FailureMask, RepairArena, RepairWork, SptBatchScratch};
pub use cuts::{cut_elements, CutElements};
pub use digraph::{ArcId, ArcRecord, DiGraph};
pub use dijkstra::{distance, shortest_path, shortest_path_tree};
pub use dynamic::{repair_after_failures, RepairStats};
pub use error::{GraphError, PathError};
pub use graph::{DegreeStats, EdgeRecord, Graph, HalfEdge};
pub use ids::{EdgeId, NodeId};
pub use par::{par_all_sources_csr, ParStats, PAR_SERIAL_CUTOFF};
pub use path::Path;
pub use rng::{DetRng, SampleRange};
pub use spt::{ShortestPathTree, TREE_BYTES_PER_NODE};
pub use subgraph::{extract_subgraph, Subgraph};
pub use unionfind::UnionFind;
pub use view::{FailureSet, FailureView, Topology};
pub use yen::k_shortest_paths;
