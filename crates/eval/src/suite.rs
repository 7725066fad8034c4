//! The evaluated networks and oracle selection.

use rbpc_core::{BasePathOracle, BasePathStore, DenseBasePaths, LazyBasePaths, ShardedBasePaths};
use rbpc_graph::{CostModel, FailureSet, Graph, Metric, NodeId, Path, ShortestPathTree};
use rbpc_topo::{
    as_graph_like, ba_graph_clustered, internet_like, internet_like_scaled, isp_topology,
    IspParams, INTERNET_TRIAD_PCT,
};

/// How big to make the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalScale {
    /// Scaled-down graphs (seconds): for CI, tests, and benches.
    Quick,
    /// The paper's Table 1 sizes, including the 40 377-node Internet map.
    Paper,
}

/// One network under evaluation.
#[derive(Debug, Clone)]
pub struct NetworkCase {
    /// Display name, matching the paper's tables.
    pub name: String,
    /// The topology.
    pub graph: Graph,
    /// The metric the paper used on this network.
    pub metric: Metric,
    /// Number of sampled source–destination pairs (paper: 200 ISP / 40
    /// large).
    pub samples: usize,
}

impl NetworkCase {
    /// Builds the right oracle for this network's size, provisioning on
    /// the machine's available parallelism.
    pub fn oracle(&self, seed: u64) -> AnyOracle {
        AnyOracle::for_graph(self.graph.clone(), CostModel::new(self.metric, seed))
    }

    /// [`NetworkCase::oracle`] with an explicit provisioning thread count
    /// (the `--threads` flag of `rbpc-eval`).
    pub fn oracle_threads(&self, seed: u64, threads: usize) -> AnyOracle {
        AnyOracle::for_graph_threads(
            self.graph.clone(),
            CostModel::new(self.metric, seed),
            threads,
        )
    }
}

/// The standard four-network suite of the paper (ISP weighted, ISP
/// unweighted, Internet, AS graph), generated deterministically from
/// `seed`.
pub fn standard_suite(scale: EvalScale, seed: u64) -> Vec<NetworkCase> {
    let isp = isp_topology(IspParams::default(), seed).graph;
    let (internet, as_graph, big_samples) = match scale {
        EvalScale::Paper => (internet_like(seed), as_graph_like(seed), 40),
        EvalScale::Quick => (
            internet_like_scaled(1_500, seed),
            ba_graph_clustered(1_000, 2_081, INTERNET_TRIAD_PCT, seed),
            12,
        ),
    };
    vec![
        NetworkCase {
            name: "ISP, Weighted".into(),
            graph: isp.clone(),
            metric: Metric::Weighted,
            samples: match scale {
                EvalScale::Paper => 200,
                EvalScale::Quick => 40,
            },
        },
        NetworkCase {
            name: "ISP, Unweighted".into(),
            graph: isp,
            metric: Metric::Unweighted,
            samples: match scale {
                EvalScale::Paper => 200,
                EvalScale::Quick => 40,
            },
        },
        NetworkCase {
            name: "Internet".into(),
            graph: internet,
            metric: Metric::Unweighted,
            samples: big_samples,
        },
        NetworkCase {
            name: "AS Graph".into(),
            graph: as_graph,
            metric: Metric::Unweighted,
            samples: big_samples,
        },
    ]
}

/// Size threshold above which the dense (all-pairs) oracle is replaced by
/// the lazy cached one.
pub const DENSE_ORACLE_MAX_NODES: usize = 600;

/// Size threshold above which the lazy oracle is replaced by the implicit
/// sharded store ([`ShardedBasePaths`]): batch shard builds on the
/// parallel engine amortize far better than one-at-a-time lazy Dijkstras
/// once graphs reach AS-graph/Internet-map size.
pub const SHARDED_ORACLE_MIN_NODES: usize = 10_000;

/// Any base-path oracle, chosen by graph size.
#[derive(Debug)]
pub enum AnyOracle {
    /// Precomputed all-pairs trees (small graphs).
    Dense(DenseBasePaths),
    /// On-demand cached trees (mid-size graphs).
    Lazy(LazyBasePaths),
    /// Implicit sharded store with an LRU residency budget (paper-scale
    /// graphs, e.g. the 40 377-node Internet router map).
    Sharded(ShardedBasePaths),
}

impl AnyOracle {
    /// Picks dense for graphs up to [`DENSE_ORACLE_MAX_NODES`] nodes,
    /// lazy up to [`SHARDED_ORACLE_MIN_NODES`], and the sharded store
    /// beyond. Provisioning runs on the machine's available parallelism;
    /// results are thread-count-invariant (canonical trees).
    pub fn for_graph(graph: Graph, model: CostModel) -> Self {
        Self::for_graph_threads(graph, model, rbpc_core::default_threads())
    }

    /// [`AnyOracle::for_graph`] with an explicit provisioning thread
    /// count for the dense and sharded cases (the lazy oracle computes
    /// on demand and ignores it).
    pub fn for_graph_threads(graph: Graph, model: CostModel, threads: usize) -> Self {
        if graph.node_count() <= DENSE_ORACLE_MAX_NODES {
            AnyOracle::Dense(DenseBasePaths::build_with_threads(graph, model, threads))
        } else if graph.node_count() < SHARDED_ORACLE_MIN_NODES {
            AnyOracle::Lazy(LazyBasePaths::new(graph, model))
        } else {
            AnyOracle::Sharded(ShardedBasePaths::with_budget(
                graph,
                model,
                ShardedBasePaths::DEFAULT_MAX_RESIDENT_SPTS,
                ShardedBasePaths::DEFAULT_SHARD_SIZE,
                threads,
            ))
        }
    }
}

impl BasePathOracle for AnyOracle {
    fn graph(&self) -> &Graph {
        match self {
            AnyOracle::Dense(o) => o.graph(),
            AnyOracle::Lazy(o) => o.graph(),
            AnyOracle::Sharded(o) => o.graph(),
        }
    }

    fn cost_model(&self) -> &CostModel {
        match self {
            AnyOracle::Dense(o) => o.cost_model(),
            AnyOracle::Lazy(o) => o.cost_model(),
            AnyOracle::Sharded(o) => o.cost_model(),
        }
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        match self {
            AnyOracle::Dense(o) => o.with_spt(source, f),
            AnyOracle::Lazy(o) => o.with_spt(source, f),
            AnyOracle::Sharded(o) => o.with_spt(source, f),
        }
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        // Forward explicitly so every variant keeps its incremental-repair
        // override instead of the trait's rebuild-from-scratch default.
        match self {
            AnyOracle::Dense(o) => o.with_spt_under(source, failures, f),
            AnyOracle::Lazy(o) => o.with_spt_under(source, failures, f),
            AnyOracle::Sharded(o) => o.with_spt_under(source, failures, f),
        }
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        // Likewise for the targeted repair, which stops once `t` settles.
        match self {
            AnyOracle::Dense(o) => o.path_under(s, t, failures),
            AnyOracle::Lazy(o) => o.path_under(s, t, failures),
            AnyOracle::Sharded(o) => o.path_under(s, t, failures),
        }
    }
}

impl BasePathStore for AnyOracle {
    fn resident_trees(&self) -> usize {
        match self {
            AnyOracle::Dense(o) => o.resident_trees(),
            AnyOracle::Lazy(o) => o.resident_trees(),
            AnyOracle::Sharded(o) => o.resident_trees(),
        }
    }

    fn max_resident_trees(&self) -> Option<usize> {
        match self {
            AnyOracle::Dense(o) => o.max_resident_trees(),
            AnyOracle::Lazy(o) => o.max_resident_trees(),
            AnyOracle::Sharded(o) => o.max_resident_trees(),
        }
    }

    fn evicted_trees(&self) -> u64 {
        match self {
            AnyOracle::Dense(o) => o.evicted_trees(),
            AnyOracle::Lazy(o) => o.evicted_trees(),
            AnyOracle::Sharded(o) => o.evicted_trees(),
        }
    }

    fn prefetch(&self, sources: &[NodeId]) -> usize {
        match self {
            AnyOracle::Dense(o) => o.prefetch(sources),
            AnyOracle::Lazy(o) => o.prefetch(sources),
            AnyOracle::Sharded(o) => o.prefetch(sources),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_has_four_networks() {
        let suite = standard_suite(EvalScale::Quick, 7);
        assert_eq!(suite.len(), 4);
        let names: Vec<_> = suite.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["ISP, Weighted", "ISP, Unweighted", "Internet", "AS Graph"]
        );
        // The two ISP rows share the topology; metrics differ.
        assert_eq!(suite[0].graph, suite[1].graph);
        assert_ne!(suite[0].metric, suite[1].metric);
    }

    #[test]
    fn oracle_selection_by_size() {
        let suite = standard_suite(EvalScale::Quick, 1);
        assert!(matches!(suite[0].oracle(1), AnyOracle::Dense(_))); // ISP ~200
        assert!(matches!(suite[2].oracle(1), AnyOracle::Lazy(_))); // 1500 nodes
    }

    #[test]
    fn paper_scale_graphs_get_the_sharded_store() {
        // Construction is cheap (CSR only, no trees), so exercising the
        // selection threshold at 10k nodes is affordable in a unit test.
        let g =
            rbpc_topo::gnm_connected(SHARDED_ORACLE_MIN_NODES, 2 * SHARDED_ORACLE_MIN_NODES, 5, 1);
        let oracle = AnyOracle::for_graph_threads(g, CostModel::new(Metric::Unweighted, 1), 2);
        assert!(matches!(oracle, AnyOracle::Sharded(_)));
        assert_eq!(oracle.resident_trees(), 0); // nothing provisioned yet
        assert!(oracle.max_resident_trees().is_some());
        let d = oracle.base_dist(0.into(), 1.into());
        assert!(d.is_some());
        assert!(oracle.resident_trees() > 0);
    }

    #[test]
    fn any_oracle_delegates() {
        let case = &standard_suite(EvalScale::Quick, 2)[0];
        let oracle = case.oracle(2);
        assert_eq!(oracle.graph().node_count(), case.graph.node_count());
        assert_eq!(oracle.cost_model().metric(), Metric::Weighted);
        let d = oracle.base_dist(0.into(), 1.into());
        assert!(d.is_some());
    }

    #[test]
    // The double borrow deliberately exercises the `&O` blanket impl.
    #[allow(clippy::needless_borrows_for_generic_args)]
    fn any_oracle_with_spt_under_repairs_like_rebuild() {
        let case = &standard_suite(EvalScale::Quick, 3)[0];
        let model = CostModel::new(case.metric, 3);
        let g = &case.graph;
        let variants = [
            AnyOracle::Dense(DenseBasePaths::build_with_threads(g.clone(), model, 2)),
            AnyOracle::Lazy(LazyBasePaths::with_capacity(g.clone(), model, 4)),
            AnyOracle::Sharded(ShardedBasePaths::with_budget(g.clone(), model, 8, 4, 2)),
        ];
        let mut failures = FailureSet::new();
        failures.fail_edge(rbpc_graph::EdgeId::new(0));
        failures.fail_edge(rbpc_graph::EdgeId::new(9));
        failures.fail_node(NodeId::new(11));
        let view = failures.view(g);
        // Generic, so `&&store` reaches each variant through the `&O`
        // blanket impl, which must forward both overrides.
        fn path_via<O: BasePathOracle>(o: O, s: NodeId, t: NodeId, f: &FailureSet) -> Option<Path> {
            o.path_under(s, t, f)
        }
        for oracle in &variants {
            for s in [0usize, 5, 17] {
                let s = NodeId::new(s);
                let want = rbpc_graph::shortest_path_tree(&view, &model, s);
                oracle.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "source {s}"));
                for t in g.nodes() {
                    let path = rbpc_graph::shortest_path(&view, &model, s, t);
                    assert_eq!(oracle.path_under(s, t, &failures), path, "{s} -> {t}");
                    assert_eq!(path_via(&&oracle, s, t, &failures), path, "&&, {s} -> {t}");
                }
            }
        }
    }

    #[test]
    fn deterministic_suites() {
        let a = standard_suite(EvalScale::Quick, 5);
        let b = standard_suite(EvalScale::Quick, 5);
        assert_eq!(a[2].graph, b[2].graph);
    }
}
