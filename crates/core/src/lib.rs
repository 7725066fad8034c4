//! **Restoration by Path Concatenation (RBPC)** — the contribution of
//! Afek, Bremler-Barr, Cohen, Kaplan & Merritt (PODC 2001), implemented
//! over the [`rbpc_graph`] and [`rbpc_mpls`] substrates.
//!
//! The idea: statically provision a *base set* of LSPs — one canonical
//! shortest path per ordered pair of routers (Theorem 3's padded base set,
//! realized by [`rbpc_graph::CostModel`]'s deterministic perturbation).
//! When links or routers fail, every disrupted route is restored by
//! **concatenating surviving base LSPs** with the MPLS label stack:
//!
//! * after `k` edge failures in an unweighted network, `k + 1` base paths
//!   suffice (Theorem 1);
//! * in the weighted case, `k + 1` base paths interleaved with `k` raw
//!   edges suffice (Theorems 2 & 3);
//! * so a single link failure needs a stack of at most two or three labels.
//!
//! # Modules
//!
//! * [`basepaths`] — the [`BasePathOracle`] query abstraction;
//! * [`store`] — the one base-path store, [`BasePaths`], and its
//!   [`BasePathStore`] residency/budget surface: all-resident when its
//!   tree budget covers the graph (the paper's ISP), bounded behind an LRU
//!   of shards otherwise (the 40 377-node Internet router map);
//! * [`decompose`] — greedy longest-prefix decomposition (§4.1 of the
//!   paper) and an optimal jump-graph search for comparison;
//! * [`restore`] — source-router RBPC: compute the post-failure shortest
//!   path and its base-path concatenation; build per-link failover plans;
//! * [`local`] — local RBPC at the router adjacent to the failure:
//!   *end-route* and *edge-bypass* variants (§4.2);
//! * [`provision`] — drive a simulated [`rbpc_mpls::MplsNetwork`]: install
//!   the base LSPs, apply FEC rewrites and ILM splices, forward packets;
//! * [`baseline`] — the two schemes the paper compares against (explicit
//!   backup pre-provisioning; online teardown + re-establishment) with
//!   signaling/table cost models;
//! * [`theory`] — checkers for the paper's theorems: minimum covers of a
//!   path by original shortest paths and edges.
//!
//! # Quickstart
//!
//! ```
//! use rbpc_core::{BasePathOracle, DenseBasePaths, Restorer};
//! use rbpc_graph::{CostModel, FailureSet, Metric};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = rbpc_topo_fixture();
//! let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 7));
//! let restorer = Restorer::new(&oracle);
//!
//! // Fail the first link of the 0 -> 3 base path and restore.
//! let base = oracle.base_path(0.into(), 3.into()).expect("connected");
//! let failures = FailureSet::of_edge(base.edges()[0]);
//! let r = restorer.restore(0.into(), 3.into(), &failures)?;
//! assert!(r.affected);
//! assert!(r.concatenation.len() <= 3); // Theorem 2: k+1 paths + k edges
//! # Ok(())
//! # }
//! # fn rbpc_topo_fixture() -> rbpc_graph::Graph {
//! #     let mut g = rbpc_graph::Graph::new(4);
//! #     for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
//! #         g.add_edge(a, b, 1).unwrap();
//! #     }
//! #     g
//! # }
//! ```
//!
//! The full paper-to-code map (theorems, figures, tables -> modules and
//! tests) is in `docs/PAPER_MAP.md` at the repository root;
//! `docs/ARCHITECTURE.md` shows how the crates fit together.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod basepaths;
pub mod churn;
pub mod decompose;
mod error;
pub mod expanded;
pub mod families;
pub mod hybrid;
pub mod local;
pub mod provision;
pub mod restore;
pub mod store;
pub mod theory;

pub use basepaths::{default_threads, BasePathOracle};
pub use churn::ChurnDriver;
pub use decompose::{greedy_decompose, optimal_decompose, Concatenation, Segment, SegmentKind};
pub use error::RestoreError;
pub use expanded::{
    expanded_base_set_size, expanded_decompose, ExpandedConcatenation, ExpandedKind,
    ExpandedSegment,
};
pub use families::{FamilyRestoration, FamilySet, RouteFamily};
pub use hybrid::{hybrid_restore, HybridRestoration, LocalVariant};
pub use local::{edge_bypass, end_route, LocalRestoration};
pub use provision::{ProvisionedDomain, TableReport};
pub use restore::{destinations_through_edge, FailoverPlan, FecUpdate, Restoration, Restorer};
pub use store::{
    dense_store_bytes, directed_pairs, BasePathStore, BasePaths, DenseBasePaths, ShardedBasePaths,
    ShardedStoreStats, TREE_BYTES_PER_NODE,
};
