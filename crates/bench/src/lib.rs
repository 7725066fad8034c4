//! Shared fixtures for the RBPC benchmark suite.
//!
//! Each bench target regenerates one of the paper's artifacts (`table1`,
//! `table2`, `table3`, `figure10`) or measures a core mechanism
//! (`dijkstra`, `decompose`, `restoration_vs_reestablish`) using the
//! std-only Criterion-shaped harness in [`crit`]. Fixtures are built once
//! per target at quick scale so `cargo bench` completes in minutes; run
//! `rbpc-eval --scale paper` for the full-size numbers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crit;
pub mod gate;

pub use crit::{take_results, BatchSize, BenchResult, Bencher, BenchmarkGroup, Criterion};

use rbpc_core::DenseBasePaths;
use rbpc_graph::{CostModel, Graph, Metric, NodeId};
use rbpc_topo::{isp_topology, IspParams};

/// The standard seed used across all bench fixtures.
pub const SEED: u64 = 1;

/// The paper-scale synthetic ISP backbone (≈200 nodes).
pub fn isp_graph() -> Graph {
    isp_topology(IspParams::default(), SEED).graph
}

/// An all-resident store over the ISP with OSPF weights.
pub fn isp_oracle() -> DenseBasePaths {
    DenseBasePaths::build(isp_graph(), CostModel::new(Metric::Weighted, SEED))
}

/// Deterministic sampled pairs on a graph (delegates to the eval crate).
pub fn pairs(graph: &Graph, count: usize) -> Vec<(NodeId, NodeId)> {
    rbpc_eval::sample_pairs(graph, count, SEED)
}
