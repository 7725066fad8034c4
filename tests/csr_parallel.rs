//! Determinism property test for the CSR core and the parallel
//! provisioning engine: on every suite topology family, the trees produced
//! by [`CsrGraph`] + scratch Dijkstra and by [`par_all_sources_csr`] at
//! thread counts {1, 2, 8} must be **bit-identical** to the sequential
//! [`shortest_path_tree`] over the `Vec<Vec>` adjacency — same perturbed
//! distances, same parents — with and without random failure sets. Every CSR graph and tree built here must also pass the
//! structural validators ([`CsrGraph::validate`] /
//! [`CsrGraph::validate_tree`]), so the invariant layer is exercised in
//! release builds where `debug_assert!` compiles out. Uses the in-tree
//! [`DetRng`], so it runs in offline builds.
//!
//! `scripts/check.sh` runs this suite as the release-mode determinism
//! gate (its thread loops include the 2-thread configuration the CI box
//! can actually exercise). Families below
//! [`PAR_SERIAL_CUTOFF`](mpls_rbpc::graph::PAR_SERIAL_CUTOFF) nodes
//! collapse to the inline path by design; `powerlaw_1000` sits at the
//! cutoff and carries the genuinely-parallel coverage.

use mpls_rbpc::graph::{
    par_all_sources_csr, shortest_path_tree, CostModel, CsrGraph, DetRng, DijkstraScratch,
    FailureMask, FailureSet, Graph, Metric, NodeId,
};
use mpls_rbpc::topo::{
    gnm_connected, internet_like_scaled, isp_topology, waxman, IspParams, WaxmanParams,
};

const THREADS: [usize; 3] = [1, 2, 8];

/// Samples `k` distinct-ish sources spread over the node range.
fn sample_sources(n: usize, k: usize) -> Vec<NodeId> {
    (0..k.min(n))
        .map(|i| NodeId::new(i * n / k.min(n)))
        .collect()
}

/// A random failure set: a few edges plus (optionally) one non-source
/// node, mirroring the paper's single-node-failure scenarios.
fn random_failures(graph: &Graph, rng: &mut DetRng, fail_node: bool) -> FailureSet {
    let mut set = FailureSet::new();
    let m = graph.edge_count();
    for _ in 0..5 {
        set.fail_edge(mpls_rbpc::graph::EdgeId::new(rng.gen_range(0..m)));
    }
    if fail_node && graph.node_count() > 2 {
        set.fail_node(NodeId::new(1 + rng.gen_range(0..graph.node_count() - 1)));
    }
    set
}

/// The core property: sequential `shortest_path_tree`, CSR scratch
/// Dijkstra, and `par_all_sources_csr` at every thread count all agree
/// exactly, healthy and under failures.
fn assert_family_deterministic(name: &str, graph: &Graph, metric: Metric, seed: u64) {
    let model = CostModel::new(metric, seed);
    let sources = sample_sources(graph.node_count(), 12);

    // Healthy graph.
    let want: Vec<_> = sources
        .iter()
        .map(|&s| shortest_path_tree(graph, &model, s))
        .collect();
    let csr = CsrGraph::new(graph, &model);
    // Structural invariants hold on every family (direct calls, not
    // `debug_assert!`: check.sh runs this suite in release mode).
    assert_eq!(
        csr.validate(),
        Ok(()),
        "{name}: CSR invariants, seed {seed}"
    );
    let mut scratch = DijkstraScratch::new(graph.node_count());
    for (i, &s) in sources.iter().enumerate() {
        let tree = csr.full_tree(s, &mut scratch);
        assert_eq!(
            csr.validate_tree(&tree, None),
            Ok(()),
            "{name}: tree invariants at source {s:?}, seed {seed}"
        );
        assert_eq!(
            tree, want[i],
            "{name}: CSR tree diverged at source {s:?}, seed {seed}"
        );
    }
    for threads in THREADS {
        let (trees, _) = par_all_sources_csr(&csr, None, &sources, threads);
        assert_eq!(
            trees, want,
            "{name}: parallel batch diverged at {threads} threads, seed {seed}"
        );
    }

    // Under random failure sets (edges, and edges + a node).
    let mut rng = DetRng::seed_from_u64(seed ^ 0xF00D);
    for fail_node in [false, true] {
        let failures = random_failures(graph, &mut rng, fail_node);
        let sources: Vec<_> = sources
            .iter()
            .copied()
            .filter(|&s| !failures.node_failed(s))
            .collect();
        let view = failures.view(graph);
        let want: Vec<_> = sources
            .iter()
            .map(|&s| shortest_path_tree(&view, &model, s))
            .collect();
        let mask = FailureMask::from_set(&csr, &failures);
        for (i, &s) in sources.iter().enumerate() {
            let tree = csr.full_tree_masked(s, Some(&mask), &mut scratch);
            assert_eq!(
                csr.validate_tree(&tree, Some(&mask)),
                Ok(()),
                "{name}: masked tree invariants at source {s:?}, seed {seed}"
            );
            assert_eq!(
                tree, want[i],
                "{name}: masked CSR tree diverged at source {s:?}, seed {seed}"
            );
        }
        for threads in THREADS {
            let (trees, _) = par_all_sources_csr(&csr, Some(&mask), &sources, threads);
            assert_eq!(
                trees, want,
                "{name}: masked parallel batch diverged at {threads} threads, seed {seed}"
            );
        }
    }
}

#[test]
fn isp_family_is_deterministic() {
    let graph = isp_topology(IspParams::default(), 31).graph;
    for seed in [1, 2] {
        assert_family_deterministic("isp", &graph, Metric::Weighted, seed);
    }
    assert_family_deterministic("isp", &graph, Metric::Unweighted, 3);
}

#[test]
fn gnm_family_is_deterministic() {
    let graph = gnm_connected(400, 1_100, 20, 32);
    assert_family_deterministic("gnm_400", &graph, Metric::Weighted, 4);
    assert_family_deterministic("gnm_400", &graph, Metric::Unweighted, 5);
}

#[test]
fn powerlaw_family_is_deterministic() {
    let graph = internet_like_scaled(1_000, 33);
    assert_family_deterministic("powerlaw_1000", &graph, Metric::Unweighted, 6);
}

#[test]
fn waxman_family_is_deterministic() {
    let graph = waxman(
        WaxmanParams {
            nodes: 300,
            ..WaxmanParams::default()
        },
        34,
    );
    assert_family_deterministic("waxman_300", &graph, Metric::Weighted, 7);
}

/// Reusing one scratch arena across families and failure states must not
/// leak state between runs (the epoch stamps are doing their job).
#[test]
fn scratch_reuse_across_families_stays_exact() {
    let graphs = [
        isp_topology(IspParams::default(), 41).graph,
        gnm_connected(150, 360, 15, 42),
        waxman(
            WaxmanParams {
                nodes: 120,
                ..WaxmanParams::default()
            },
            43,
        ),
    ];
    let mut scratch = DijkstraScratch::new(1); // grows on demand
    for (gi, graph) in graphs.iter().enumerate() {
        let model = CostModel::new(Metric::Weighted, 9 + gi as u64);
        let csr = CsrGraph::new(graph, &model);
        for &s in &sample_sources(graph.node_count(), 6) {
            assert_eq!(
                csr.full_tree(s, &mut scratch),
                shortest_path_tree(graph, &model, s),
                "graph {gi}, source {s:?}"
            );
        }
    }
    assert!(scratch.runs() >= 18);
}
