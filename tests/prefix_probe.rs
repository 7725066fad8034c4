//! Property test for the early-exit prefix probe a bounded base-path
//! store answers greedy decomposition with.
//!
//! [`CsrGraph::longest_tree_prefix`] stops its Dijkstra as soon as the
//! prefix question is settled; it must give exactly the answer of
//! walking `is_tree_step` over the full tree of the segment start, for
//! every start position of base paths, post-failure backups (which leave
//! the trees of their interior nodes, including one-hop raw edges) and
//! random walks (which revisit nodes), on weighted and unweighted
//! G(n,m), a power-law map, and a multigraph. A bounded store must then
//! decompose exactly like an all-resident one while building shards only
//! for source lookups. Uses the in-tree [`DetRng`], so it runs in
//! offline builds.

use mpls_rbpc::core::{greedy_decompose, BasePathOracle, BasePathStore, BasePaths};
use mpls_rbpc::graph::{
    CostModel, CsrGraph, DetRng, DijkstraScratch, FailureMask, FailureSet, Graph, Metric, NodeId,
    Path, ShortestPathTree,
};
use mpls_rbpc::topo::{gnm_connected, internet_like_scaled};

/// One to three failures on `path`: edges of the path, or (when it has
/// an interior node, one case in four) an interior router.
fn on_path_failures(path: &Path, rng: &mut DetRng) -> FailureSet {
    let mut set = FailureSet::new();
    let interior = &path.nodes()[1..path.nodes().len() - 1];
    if !interior.is_empty() && rng.gen_bool(0.25) {
        set.fail_node(interior[rng.gen_range(0..interior.len())]);
        return set;
    }
    let k = rng.gen_range(1..4usize).min(path.hop_count());
    while set.failed_edge_count() < k {
        set.fail_edge(path.edges()[rng.gen_range(0..path.hop_count())]);
    }
    set
}

/// A walk of one to ten random hops from a random node; it may revisit
/// nodes and edges.
fn random_walk(graph: &Graph, rng: &mut DetRng) -> Path {
    let start = NodeId::new(rng.gen_range(0..graph.node_count()));
    let mut at = start;
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(1..11usize) {
        let hops: Vec<_> = graph.neighbors(at).collect();
        let h = hops[rng.gen_range(0..hops.len())];
        edges.push(h.edge);
        at = h.to;
    }
    Path::from_edges(graph, start, &edges).expect("a walk over incident edges")
}

/// Base paths from a sample of sources, post-failure backups of those
/// under 1–3 failures, and random walks.
fn sample_paths(graph: &Graph, csr: &CsrGraph, rng: &mut DetRng) -> Vec<Path> {
    let n = graph.node_count();
    let mut scratch = DijkstraScratch::new(n);
    let mut paths = Vec::new();
    for _ in 0..8 {
        let s = NodeId::new(rng.gen_range(0..n));
        let tree = csr.full_tree(s, &mut scratch);
        for _ in 0..8 {
            let t = NodeId::new(rng.gen_range(0..n));
            let Some(base) = tree.path_to(t) else {
                continue;
            };
            if base.hop_count() > 0 {
                for _ in 0..3 {
                    let mask = FailureMask::from_set(csr, &on_path_failures(&base, rng));
                    paths.extend(csr.point_to_point(s, t, Some(&mask), &mut scratch));
                }
            }
            paths.push(base);
        }
    }
    paths.extend((0..60).map(|_| random_walk(graph, rng)));
    paths
}

/// Checks the probe against the full-tree walk at every start position
/// of every sampled path. Returns how many answers were a raw edge
/// (`j == from`); every family must diverge mid-path somewhere.
fn assert_probe_matches(name: &str, graph: &Graph, model: CostModel, seed: u64) -> usize {
    let csr = CsrGraph::new(graph, &model);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut scratch = DijkstraScratch::new(graph.node_count());
    let mut probe = DijkstraScratch::new(graph.node_count());
    let mut trees: Vec<Option<ShortestPathTree>> = vec![None; graph.node_count()];
    let (mut probe_settled, mut full_settled) = (0usize, 0usize);
    let (mut raw, mut partial) = (0usize, 0usize);
    for path in sample_paths(graph, &csr, &mut rng) {
        let (nodes, edges) = (path.nodes(), path.edges());
        let last = nodes.len() - 1;
        for from in 0..nodes.len() {
            let u = nodes[from];
            let tree = trees[u.index()].get_or_insert_with(|| csr.full_tree(u, &mut scratch));
            let mut want = from;
            while want < last && tree.is_tree_step(nodes[want], edges[want], nodes[want + 1]) {
                want += 1;
            }
            let (got, settled) = csr.longest_tree_prefix(&path, from, &mut probe);
            assert_eq!(got, want, "{name}: seed {seed}, from {from} of {path:?}");
            let reachable = graph.nodes().filter(|&v| tree.reachable(v)).count();
            if from < last {
                assert!(
                    (1..=reachable).contains(&settled),
                    "{name}: {settled} settled"
                );
                raw += usize::from(got == from);
                partial += usize::from(from < got && got < last);
            } else {
                assert_eq!(settled, 0, "{name}: the last node needs no search");
            }
            probe_settled += settled;
            full_settled += reachable;
        }
    }
    assert!(partial > 0, "{name}: no prefix ended mid-path");
    assert!(
        probe_settled < full_settled,
        "{name}: the probe settled {probe_settled} nodes, full trees {full_settled}"
    );
    raw
}

/// `gnm_connected(60, 150, 9, seed)` plus a second, differently weighted
/// twin of every third edge.
fn multigraph(seed: u64) -> Graph {
    let mut graph = gnm_connected(60, 150, 9, seed);
    let mut rng = DetRng::seed_from_u64(seed);
    let twins: Vec<(NodeId, NodeId)> = graph.edges().step_by(3).map(|(_, r)| (r.u, r.v)).collect();
    for (u, v) in twins {
        graph
            .add_edge(u, v, rng.gen_range(1..10u32))
            .expect("parallel edges are allowed");
    }
    graph
}

#[test]
fn probe_matches_full_tree_walk_on_gnm() {
    let graph = gnm_connected(400, 1_200, 20, 41);
    // Under weights a heavy edge is not its endpoints' shortest path, so
    // backups and walks take raw edges; under hop counts every edge is.
    let weighted = CostModel::new(Metric::Weighted, 41);
    assert!(assert_probe_matches("gnm_weighted", &graph, weighted, 1) > 0);
    let hops = CostModel::new(Metric::Unweighted, 42);
    assert_probe_matches("gnm_unweighted", &graph, hops, 2);
}

#[test]
fn probe_matches_full_tree_walk_on_power_law() {
    let graph = internet_like_scaled(300, 43);
    assert_probe_matches(
        "powerlaw_300",
        &graph,
        CostModel::new(Metric::Weighted, 43),
        3,
    );
    let hops = CostModel::new(Metric::Unweighted, 44);
    assert_probe_matches("powerlaw_300_hops", &graph, hops, 4);
}

#[test]
fn probe_matches_full_tree_walk_on_parallel_edges() {
    let graph = multigraph(45);
    assert!(graph.edge_count() > 150);
    // The costlier twin of a parallel pair is never a tree step.
    let model = CostModel::new(Metric::Weighted, 45);
    assert!(assert_probe_matches("multigraph", &graph, model, 5) > 0);
}

/// Restores sampled queries on `graph` through an all-resident store and
/// a bounded one holding a single shard of `shard_size` sources: the
/// backups and their decompositions agree exactly, and only the source
/// lookup may build a shard.
fn assert_bounded_decomposes_like_resident(name: &str, graph: &Graph, shard_size: usize) {
    let model = CostModel::new(Metric::Weighted, 46);
    let all = BasePaths::build_with_threads(graph.clone(), model, 1);
    let bounded = BasePaths::with_budget(graph.clone(), model, 1, shard_size, 1);
    assert_eq!(bounded.max_resident_trees(), Some(shard_size));
    let mut rng = DetRng::seed_from_u64(shard_size as u64);
    let n = graph.node_count();
    let (mut decomposed, mut lookups) = (0u64, 0u64);
    for _ in 0..150 {
        let (s, t) = (
            NodeId::new(rng.gen_range(0..n)),
            NodeId::new(rng.gen_range(0..n)),
        );
        let Some(base) = all.base_path(s, t).filter(|p| p.hop_count() > 0) else {
            continue;
        };
        let failures = on_path_failures(&base, &mut rng);
        let before = bounded.stats();
        let backup = bounded.path_under(s, t, &failures);
        lookups += 1;
        let looked_up = bounded.stats();
        assert!(looked_up.shard_builds - before.shard_builds <= 1, "{name}");
        assert_eq!(backup, all.path_under(s, t, &failures), "{name}: {s}->{t}");
        let Some(backup) = backup else {
            continue;
        };
        // `&&bounded` goes through the `&O` forwarding impl, as a
        // `Restorer<&BasePaths>` does.
        let got = greedy_decompose(&&bounded, &backup);
        assert_eq!(got, greedy_decompose(&all, &backup), "{name}: {s}->{t}");
        let after = bounded.stats();
        assert_eq!(
            after.shard_builds, looked_up.shard_builds,
            "{name}: {s}->{t}"
        );
        assert_eq!(after.misses, looked_up.misses, "{name}: {s}->{t}");
        assert_eq!(
            after.evicted_trees, looked_up.evicted_trees,
            "{name}: {s}->{t}"
        );
        assert!(after.resident_trees <= shard_size, "{name}");
        decomposed += 1;
    }
    let stats = bounded.stats();
    assert!(decomposed > 100, "{name}: {decomposed} decompositions");
    assert!(stats.shard_builds <= lookups, "{name}: {stats:?}");
    assert!(stats.probes > 0, "{name}: no probe ran");
}

#[test]
fn bounded_store_decomposes_like_all_resident() {
    let gnm = gnm_connected(120, 320, 12, 47);
    let powerlaw = internet_like_scaled(300, 48);
    for shard_size in [1, 4] {
        assert_bounded_decomposes_like_resident("gnm_120", &gnm, shard_size);
        assert_bounded_decomposes_like_resident("powerlaw_300", &powerlaw, shard_size);
    }
}
