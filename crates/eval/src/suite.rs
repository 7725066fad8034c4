//! The evaluated networks and the base-path store they run on.

use rbpc_core::{BasePathOracle, BasePathStore, BasePaths};
use rbpc_graph::{CostModel, Graph, Metric};
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
    /// This network's [`eval_store`], provisioning on the machine's
    /// available parallelism.
    pub fn oracle(&self, seed: u64) -> BasePaths {
        self.oracle_threads(seed, rbpc_core::default_threads())
    }

    /// [`NetworkCase::oracle`] with an explicit provisioning thread count
    /// (the `--threads` flag of `rbpc-eval`).
    pub fn oracle_threads(&self, seed: u64, threads: usize) -> BasePaths {
        eval_store(
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

/// The store every evaluation runs on: [`BasePaths::with_budget`] at the
/// default budget and shard size, on `threads` workers (results are
/// thread-count-invariant). A graph the budget covers (the ~200-node
/// ISP) is all-resident and gets every tree provisioned before the first
/// query; larger maps stay bounded and build shards on demand.
pub fn eval_store(graph: Graph, model: CostModel, threads: usize) -> BasePaths {
    let store = BasePaths::with_budget(
        graph,
        model,
        BasePaths::DEFAULT_MAX_RESIDENT_SPTS,
        BasePaths::DEFAULT_SHARD_SIZE,
        threads,
    );
    if store.max_resident_trees().is_none() {
        let all: Vec<_> = store.graph().nodes().collect();
        store.prefetch(&all);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_graph::{FailureSet, NodeId, Path};

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
    fn residency_follows_graph_size() {
        let suite = standard_suite(EvalScale::Quick, 1);
        // ISP, ~200 nodes: under the budget, so all-resident and
        // provisioned before the first query.
        let isp = suite[0].oracle(1);
        assert_eq!(isp.max_resident_trees(), None);
        assert_eq!(isp.resident_trees(), suite[0].graph.node_count());
        // 1 500 nodes: bounded, nothing provisioned yet.
        let internet = suite[2].oracle(1);
        assert_eq!(
            internet.max_resident_trees(),
            Some(BasePaths::DEFAULT_MAX_RESIDENT_SPTS)
        );
        assert_eq!(internet.resident_trees(), 0);
        assert!(internet.base_dist(0.into(), 1.into()).is_some());
        assert_eq!(internet.resident_trees(), BasePaths::DEFAULT_SHARD_SIZE);
    }

    #[test]
    fn case_oracle_uses_the_case_metric() {
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
    fn every_residency_repairs_like_rebuild() {
        let case = &standard_suite(EvalScale::Quick, 3)[0];
        let model = CostModel::new(case.metric, 3);
        let g = &case.graph;
        // All-resident, bounded, and bounded with one source per shard.
        let variants = [
            BasePaths::build_with_threads(g.clone(), model, 2),
            BasePaths::with_budget(g.clone(), model, 8, 4, 2),
            BasePaths::with_budget(g.clone(), model, 4, 1, 2),
        ];
        assert_eq!(variants[0].max_resident_trees(), None);
        assert_eq!(variants[1].max_resident_trees(), Some(8));
        assert_eq!(variants[2].max_resident_trees(), Some(4));
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
