//! Property test for post-failure tree repair: across random failure /
//! recovery sequences on every suite topology family, the CSR repair
//! kernel every restoration runs ([`CsrGraph::repair_tree`] /
//! [`CsrGraph::repair_path`]) must produce a tree **bit-identical** to a
//! full Dijkstra rebuild over the failed view — same perturbed distances,
//! same parents — and identical to the scalar reference
//! [`repair_after_failures`]. The kernel's settle loop never leaves a
//! node closer than before the failure (deletions only lengthen paths);
//! every repaired tree here is checked for that in release mode. The
//! kernels pop nodes of one base distance in arbitrary order, which is
//! exact only while shortest paths are unique, so every repair here must
//! also meet no exact tie. A graph with base weights up to `u32::MAX`
//! runs the kernels' level queue past its window. Uses the in-tree
//! [`DetRng`], so it runs in offline builds (unlike the proptest-gated
//! suites).

use mpls_rbpc::graph::{
    repair_after_failures, shortest_path, shortest_path_tree, CostModel, CsrGraph, DetRng,
    DijkstraScratch, EdgeId, FailureMask, FailureSet, Graph, Metric, NodeId, RepairArena,
    RepairWork, ShortestPathTree,
};
use mpls_rbpc::sim::{churn_sequence, ChurnEvent};
use mpls_rbpc::topo::{gnm_connected, internet_like_scaled, isp_topology, IspParams};

/// Repairs `base` on the CSR kernel under `failures`, asserts the result
/// equals a rebuild over the failed view, is nowhere shorter than `base`
/// and met no exact tie, and returns it. Recoveries need no repair of their own: the
/// failure set after a recovery is repaired from the unfailed base like
/// any other.
fn repair_equals_rebuild(
    case: &str,
    graph: &Graph,
    csr: &CsrGraph,
    model: &CostModel,
    base: &ShortestPathTree,
    failures: &FailureSet,
) -> (ShortestPathTree, RepairWork) {
    let (tree, work) = csr.repair_tree(base, failures, &mut RepairArena::default());
    let want = shortest_path_tree(&failures.view(graph), model, base.source());
    assert_eq!(tree, want, "{case}: repaired tree diverged from rebuild");
    let never_shorter = graph.nodes().all(|v| {
        tree.perturbed_dist(v).unwrap_or(u128::MAX) >= base.perturbed_dist(v).unwrap_or(u128::MAX)
    });
    assert!(never_shorter, "{case}: a failure shortened a path");
    assert_eq!(work.ties, 0, "{case}: padded shortest paths tied");
    (tree, work)
}

/// Replays `events` into a failure set and, after every single event,
/// repairs the unfailed tree of `source` under the current set.
fn assert_repair_tracks_rebuild(name: &str, graph: &Graph, seed: u64, source: usize) {
    let model = CostModel::new(Metric::Weighted, seed);
    let csr = CsrGraph::new(graph, &model);
    let base = shortest_path_tree(graph, &model, NodeId::new(source));
    let events = churn_sequence(graph, 40, 4, seed);
    let mut failures = FailureSet::new();
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            ChurnEvent::Fail(e) => {
                failures.fail_edge(e);
            }
            ChurnEvent::Recover(e) => {
                failures.restore_edge(e);
            }
        }
        let case = format!("{name}: event {i} ({ev:?}), seed {seed}, source {source}");
        repair_equals_rebuild(&case, graph, &csr, &model, &base, &failures);
    }
}

#[test]
fn repair_equals_rebuild_on_isp() {
    let graph = isp_topology(IspParams::default(), 11).graph;
    let far = graph.node_count() - 1;
    for seed in [1, 2, 3] {
        assert_repair_tracks_rebuild("isp", &graph, seed, 0);
        assert_repair_tracks_rebuild("isp", &graph, seed, far);
    }
}

#[test]
fn repair_equals_rebuild_on_gnm_1000() {
    let graph = gnm_connected(1_000, 3_000, 20, 12);
    assert_repair_tracks_rebuild("gnm_1000", &graph, 4, 0);
    assert_repair_tracks_rebuild("gnm_1000", &graph, 5, 500);
}

#[test]
fn repair_equals_rebuild_on_power_law() {
    let graph = internet_like_scaled(1_200, 13);
    assert_repair_tracks_rebuild("powerlaw_1200", &graph, 6, 0);
    assert_repair_tracks_rebuild("powerlaw_1200", &graph, 7, 600);
}

/// Beyond the sim's churn generator: adversarial sequences that fail and
/// recover the *same* few edges repeatedly (the generator spreads events
/// over the whole edge set, so repeated flaps of one edge are rare there).
#[test]
fn repeated_flaps_of_tree_edges_stay_exact() {
    let graph = isp_topology(IspParams::default(), 21).graph;
    let model = CostModel::new(Metric::Weighted, 21);
    let csr = CsrGraph::new(&graph, &model);
    let source = NodeId::new(0);
    let base = shortest_path_tree(&graph, &model, source);
    // Flap edges that are actually on the tree — the interesting case.
    let tree_edges: Vec<_> = (0..graph.node_count())
        .filter_map(|i| base.parent_edge(NodeId::new(i)))
        .collect();
    let mut rng = DetRng::seed_from_u64(99);
    let mut failures = FailureSet::new();
    for step in 0..120 {
        let e = tree_edges[rng.gen_range(0..tree_edges.len())];
        if failures.edge_failed(e) {
            failures.restore_edge(e);
        } else {
            failures.fail_edge(e);
        }
        let case = format!("flap step {step} on edge {e:?}");
        repair_equals_rebuild(&case, &graph, &csr, &model, &base, &failures);
    }
}

/// Failure sets for the CSR kernel check from `source`'s tree: 1–3 edge
/// failures (each a tree edge or a uniform pick, so most detach a
/// subtree) and single failures of transit nodes (nodes with tree
/// children).
fn failure_sets(graph: &Graph, base: &ShortestPathTree, rng: &mut DetRng) -> Vec<FailureSet> {
    let n = graph.node_count();
    let mut sets = Vec::new();
    for k in 1..=3 {
        for _ in 0..3 {
            let mut set = FailureSet::new();
            while set.failed_edge_count() < k {
                let tree_edge = base.parent_edge(NodeId::new(rng.gen_range(0..n)));
                let e = match tree_edge {
                    Some(e) if rng.gen_bool(0.5) => e,
                    _ => EdgeId::new(rng.gen_range(0..graph.edge_count())),
                };
                set.fail_edge(e);
            }
            sets.push(set);
        }
    }
    let transit: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| v != base.source() && graph.nodes().any(|c| base.parent_node(c) == Some(v)))
        .collect();
    for _ in 0..3 {
        let mut set = FailureSet::new();
        set.fail_node(transit[rng.gen_range(0..transit.len())]);
        sets.push(set);
    }
    sets
}

/// Holds the CSR repair kernel to the scalar reference and a rebuild from
/// each of `sources`: the untargeted tree equals both, the region sizes
/// agree, and for every target in the detached region the targeted
/// path equals `path_to` on that tree (`None` when the target is cut
/// off).
fn assert_csr_repair_matches(name: &str, graph: &Graph, seed: u64, sources: &[usize]) {
    let model = CostModel::new(Metric::Weighted, seed);
    let csr = CsrGraph::new(graph, &model);
    let mut rng = DetRng::seed_from_u64(seed);
    for &source in sources {
        let s = NodeId::new(source);
        let base = shortest_path_tree(graph, &model, s);
        for set in failure_sets(graph, &base, &mut rng) {
            let case = format!("{name}: seed {seed}, source {source}, failures {set:?}");
            let view = set.view(graph);
            let mut links: Vec<EdgeId> = set.failed_edges().collect();
            for v in set.failed_nodes() {
                links.extend(graph.neighbors(v).map(|h| h.edge));
            }
            let mut reference = base.clone();
            let stats = repair_after_failures(&mut reference, &view, &model, &links);

            let (tree, work) = repair_equals_rebuild(&case, graph, &csr, &model, &base, &set);
            assert_eq!(
                tree, reference,
                "{case}: CSR tree differs from the reference's"
            );
            assert_eq!(
                work.nodes_touched, stats.nodes_touched,
                "{case}: region size"
            );
            assert!(work.settled <= work.nodes_touched, "{case}");

            let detached = graph.nodes().filter(|&t| {
                base.path_to(t).is_some_and(|p| {
                    p.edges().iter().any(|&e| set.edge_failed(e))
                        || p.nodes().iter().any(|&v| set.node_failed(v))
                })
            });
            for t in detached {
                let (path, w) = csr.repair_path(&base, &set, t, &mut RepairArena::default());
                assert_eq!(path, tree.path_to(t), "{case}: path to {t}");
                assert_eq!(w.ties, 0, "{case}: target {t}");
                if !set.node_failed(t) {
                    assert_eq!(w.nodes_touched, work.nodes_touched, "{case}: target {t}");
                    assert!(w.settled <= work.settled, "{case}: target {t}");
                }
            }
        }
    }
}

#[test]
fn csr_repair_matches_engine_on_isp() {
    let graph = isp_topology(IspParams::default(), 11).graph;
    let far = graph.node_count() - 1;
    assert_csr_repair_matches("isp", &graph, 31, &[0, far]);
}

#[test]
fn csr_repair_matches_engine_on_gnm_1000() {
    let graph = gnm_connected(1_000, 3_000, 20, 12);
    assert_csr_repair_matches("gnm_1000", &graph, 32, &[0, 500]);
}

#[test]
fn csr_repair_matches_engine_on_power_law() {
    let graph = internet_like_scaled(1_200, 13);
    assert_csr_repair_matches("powerlaw_1200", &graph, 33, &[0, 600]);
}

/// A connected graph whose base weights reach `u32::MAX`, mixed with
/// weight-1 and weight-2 links, so base distances jump across many
/// windows of the kernels' level queue.
fn heavy_graph(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = DetRng::seed_from_u64(seed);
    let weight = |rng: &mut DetRng| match rng.gen_range(0..4u32) {
        0 => rng.gen_range(1..=2u32),
        1 => u32::MAX - rng.gen_range(0..2u32),
        _ => rng.gen_range(1..=u32::MAX),
    };
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        g.add_edge(u, v, weight(&mut rng)).unwrap();
    }
    while g.edge_count() < m {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            g.add_edge(a, b, weight(&mut rng)).unwrap();
        }
    }
    g
}

/// The spill path of the level queue: on [`heavy_graph`], the repair
/// kernel's full, fresh targeted and resumed runs equal the scalar
/// reference and a masked
/// rebuild, and the scalar kernel's `full_tree_masked`,
/// `point_to_point` and `longest_tree_prefix` equal the reference
/// trees, all with no exact tie.
#[test]
fn heavy_weights_spill_past_the_level_window() {
    let graph = heavy_graph(80, 200, 41);
    let model = CostModel::new(Metric::Weighted, 41);
    let csr = CsrGraph::new(&graph, &model);
    let mut scratch = DijkstraScratch::new(graph.node_count());
    let mut resumable = RepairArena::default();
    let mut rng = DetRng::seed_from_u64(41);
    let unfailed: Vec<ShortestPathTree> = graph
        .nodes()
        .map(|v| shortest_path_tree(&graph, &model, v))
        .collect();
    for source in [0, 40, 79] {
        let s = NodeId::new(source);
        let base = &unfailed[source];
        assert_eq!(&csr.full_tree(s, &mut scratch), base, "source {source}");
        for set in failure_sets(&graph, base, &mut rng) {
            let case = format!("heavy: source {source}, failures {set:?}");
            let view = set.view(&graph);
            let mut links: Vec<EdgeId> = set.failed_edges().collect();
            for v in set.failed_nodes() {
                links.extend(graph.neighbors(v).map(|h| h.edge));
            }
            let mut reference = base.clone();
            repair_after_failures(&mut reference, &view, &model, &links);
            let (tree, _) = repair_equals_rebuild(&case, &graph, &csr, &model, base, &set);
            assert_eq!(
                tree, reference,
                "{case}: CSR tree differs from the reference's"
            );
            let mask = FailureMask::from_set(&csr, &set);
            let masked = csr.full_tree_masked(s, Some(&mask), &mut scratch);
            assert_eq!(masked, tree, "{case}: full_tree_masked");
            for t in graph.nodes() {
                let want = tree.path_to(t);
                let (path, work) = csr.repair_path(base, &set, t, &mut RepairArena::default());
                assert_eq!(path, want, "{case}: repair_path to {t}");
                let (resumed, rwork) = csr.repair_path(base, &set, t, &mut resumable);
                assert_eq!(resumed, want, "{case}: resumed repair_path to {t}");
                assert_eq!((work.ties, rwork.ties), (0, 0), "{case}: target {t}");
                let p2p = csr.point_to_point(s, t, Some(&mask), &mut scratch);
                assert_eq!(p2p, shortest_path(&view, &model, s, t), "{case}: to {t}");
                assert_eq!(p2p, want, "{case}: point_to_point to {t}");
            }
            // Backup paths leave the unfailed trees of their interior
            // nodes, so their prefixes end anywhere along them.
            for path in graph.nodes().filter_map(|t| tree.path_to(t)) {
                let (nodes, edges) = (path.nodes(), path.edges());
                let last = nodes.len() - 1;
                for from in 0..=last {
                    let start = &unfailed[nodes[from].index()];
                    let mut want = from;
                    while want < last
                        && start.is_tree_step(nodes[want], edges[want], nodes[want + 1])
                    {
                        want += 1;
                    }
                    let (got, _) = csr.longest_tree_prefix(&path, from, &mut scratch);
                    assert_eq!(got, want, "{case}: prefix from {from} of {path:?}");
                }
            }
        }
    }
    assert_eq!(scratch.ties_total(), 0, "padded shortest paths tied");
}
