//! Dijkstra's algorithm over a [`Topology`], using perturbed `u128` costs
//! for unique tie-breaking (see [`CostModel`]).

use crate::spt::{NO_EDGE, NO_NODE};
use crate::{CostModel, NodeId, Path, PathCost, ShortestPathTree, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the shortest-path tree from `source` over `topo`.
///
/// Ties in the original metric are broken by the cost model's perturbation,
/// so the returned tree is canonical for a given `(metric, seed)` pair —
/// independently computed trees agree on every shared subpath, which is the
/// property the RBPC base-path set needs.
///
/// If `source` itself is failed in the view, every node (including the
/// source) is unreachable in the returned tree.
///
/// # Panics
///
/// Panics if `source` is out of range for the underlying graph.
pub fn shortest_path_tree<T: Topology>(
    topo: &T,
    model: &CostModel,
    source: NodeId,
) -> ShortestPathTree {
    let graph = topo.graph();
    assert!(
        source.index() < graph.node_count(),
        "source {source} out of range"
    );
    let mut tree = ShortestPathTree::unreachable(source, graph.node_count());
    if topo.node_alive(source) {
        search(topo, model, source, |v, d, (pn, pe)| {
            tree.dist[v] = d;
            tree.parent_node[v] = pn;
            tree.parent_edge[v] = pe;
            false
        });
    }
    tree
}

/// Computes the (unique, tie-broken) shortest path from `s` to `t` over
/// `topo`, with early termination once `t` is settled.
///
/// Returns `None` if `t` is unreachable from `s`.
///
/// # Panics
///
/// Panics if `s` or `t` is out of range.
pub fn shortest_path<T: Topology>(
    topo: &T,
    model: &CostModel,
    s: NodeId,
    t: NodeId,
) -> Option<Path> {
    let graph = topo.graph();
    assert!(s.index() < graph.node_count(), "source {s} out of range");
    assert!(t.index() < graph.node_count(), "target {t} out of range");
    if !topo.node_alive(s) || !topo.node_alive(t) {
        return None;
    }
    let mut reached = false;
    let parent = search(topo, model, s, |v, _, _| {
        reached = v == t.index();
        reached
    });
    reached.then(|| Path::from_parent_chain(t, |v| parent[v]))
}

/// The reference Dijkstra: a binary heap over perturbed costs from the
/// live node `source`. Each node is handed to `settle(v, dist, (parent
/// node, parent edge))` as it settles, and the search ends once that
/// returns true or every reachable node has settled. Returns the parent
/// links as last relaxed, final for every settled node.
fn search<T: Topology>(
    topo: &T,
    model: &CostModel,
    source: NodeId,
    mut settle: impl FnMut(usize, u128, (u32, u32)) -> bool,
) -> Vec<(u32, u32)> {
    let graph = topo.graph();
    let n = graph.node_count();
    assert!(
        n <= CostModel::MAX_NODES,
        "graphs are limited to {} nodes (padding overflow)",
        CostModel::MAX_NODES
    );
    let mut dist = vec![u128::MAX; n];
    let mut settled = vec![false; n];
    let mut parent = vec![(NO_NODE, NO_EDGE); n];

    let mut heap: BinaryHeap<(Reverse<u128>, u32)> = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push((Reverse(0), source.index() as u32));

    while let Some((Reverse(d), ui)) = heap.pop() {
        let u = ui as usize;
        if settled[u] || d > dist[u] {
            continue;
        }
        settled[u] = true;
        if settle(u, d, parent[u]) {
            break;
        }
        for h in topo.live_neighbors(NodeId::new(u)) {
            let vi = h.to.index();
            if settled[vi] {
                continue;
            }
            let nd = d + model.perturbed_weight(graph, h.edge);
            if nd < dist[vi] {
                dist[vi] = nd;
                parent[vi] = (ui, h.edge.index() as u32);
                heap.push((Reverse(nd), vi as u32));
            }
        }
    }
    parent
}

/// The cost of the shortest path from `s` to `t` over `topo`, or `None` if
/// disconnected.
///
/// # Panics
///
/// Panics if `s` or `t` is out of range.
pub fn distance<T: Topology>(
    topo: &T,
    model: &CostModel,
    s: NodeId,
    t: NodeId,
) -> Option<PathCost> {
    shortest_path(topo, model, s, t).map(|p| p.cost(topo.graph(), model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureSet, Graph, Metric};

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 17)
    }

    /// Classic 5-node weighted graph with a known shortest path structure.
    fn sample() -> Graph {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(0, 2, 3).unwrap();
        g.add_edge(2, 1, 4).unwrap();
        g.add_edge(1, 3, 2).unwrap();
        g.add_edge(2, 3, 8).unwrap();
        g.add_edge(3, 4, 7).unwrap();
        g.add_edge(2, 4, 20).unwrap();
        g
    }

    #[test]
    fn tree_matches_known_distances() {
        let g = sample();
        let t = shortest_path_tree(&g, &model(), 0.into());
        let want = [0u64, 7, 3, 9, 16];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(t.base_dist(i.into()), Some(w), "node {i}");
        }
    }

    #[test]
    fn single_pair_agrees_with_tree() {
        let g = sample();
        let t = shortest_path_tree(&g, &model(), 0.into());
        for v in g.nodes() {
            let p = shortest_path(&g, &model(), 0.into(), v).unwrap();
            assert_eq!(p, t.path_to(v).unwrap(), "paths to {v} must be canonical");
        }
    }

    #[test]
    fn trivial_when_endpoints_equal() {
        let g = sample();
        let p = shortest_path(&g, &model(), 2.into(), 2.into()).unwrap();
        assert!(p.is_trivial());
        assert_eq!(distance(&g, &model(), 2.into(), 2.into()).unwrap().base, 0);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut g = sample();
        let iso = g.add_node();
        assert_eq!(shortest_path(&g, &model(), 0.into(), iso), None);
        assert_eq!(distance(&g, &model(), 0.into(), iso), None);
    }

    #[test]
    fn respects_edge_failures() {
        let g = sample();
        // Fail 0-2; distance to 2 must go 0-1-2 = 14.
        let e = g.find_edge(0.into(), 2.into()).unwrap();
        let f = FailureSet::of_edge(e);
        let p = shortest_path(&f.view(&g), &model(), 0.into(), 2.into()).unwrap();
        assert_eq!(p.cost(&g, &model()).base, 14);
        assert!(!p.contains_edge(e));
    }

    #[test]
    fn respects_node_failures() {
        let g = sample();
        // Fail node 2: 0->4 must go 0-1-3-4 = 19.
        let f = FailureSet::of_nodes([2usize]);
        let p = shortest_path(&f.view(&g), &model(), 0.into(), 4.into()).unwrap();
        assert_eq!(p.cost(&g, &model()).base, 19);
        assert!(!p.contains_node(2.into()));
    }

    #[test]
    fn failed_source_or_target_unreachable() {
        let g = sample();
        let f = FailureSet::of_nodes([0usize]);
        let v = f.view(&g);
        assert_eq!(shortest_path(&v, &model(), 0.into(), 1.into()), None);
        assert_eq!(shortest_path(&v, &model(), 1.into(), 0.into()), None);
        let t = shortest_path_tree(&v, &model(), 0.into());
        assert!(!t.reachable(0.into()));
        assert!(!t.reachable(1.into()));
    }

    #[test]
    fn unweighted_metric_minimizes_hops() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 3, 1).unwrap();
        g.add_edge(0, 2, 100).unwrap();
        g.add_edge(2, 3, 100).unwrap();
        let um = CostModel::new(Metric::Unweighted, 5);
        let p = shortest_path(&g, &um, 0.into(), 3.into()).unwrap();
        assert_eq!(p.hop_count(), 2); // either 2-hop route; hops, not weights
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // A 4-cycle has two equal shortest paths between opposite corners;
        // the same seed must always pick the same one.
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(a, b, 1).unwrap();
        }
        let m = CostModel::new(Metric::Weighted, 42);
        let p1 = shortest_path(&g, &m, 0.into(), 2.into()).unwrap();
        let p2 = shortest_path(&g, &m, 0.into(), 2.into()).unwrap();
        let t = shortest_path_tree(&g, &m, 0.into());
        assert_eq!(p1, p2);
        assert_eq!(p1, t.path_to(2.into()).unwrap());
    }

    #[test]
    fn parallel_edges_cheapest_wins() {
        let mut g = Graph::new(2);
        let _pricey = g.add_edge(0, 1, 9).unwrap();
        let cheap = g.add_edge(0, 1, 1).unwrap();
        let p = shortest_path(&g, &model(), 0.into(), 1.into()).unwrap();
        assert_eq!(p.edges(), &[cheap]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = sample();
        let _ = shortest_path(&g, &model(), 99.into(), 0.into());
    }

    #[test]
    fn early_exit_equals_full_tree_on_random_style_graph() {
        // Deterministic pseudo-random graph; checks early-exit correctness.
        let mut g = Graph::new(30);
        let mut x = 12345u64;
        for _ in 0..80 {
            x = crate::splitmix64(x);
            let a = (x % 30) as usize;
            let b = ((x >> 8) % 30) as usize;
            if a != b {
                let w = ((x >> 16) % 50 + 1) as u32;
                g.add_edge(a, b, w).unwrap();
            }
        }
        let m = model();
        let t = shortest_path_tree(&g, &m, 0.into());
        for v in g.nodes() {
            let got = distance(&g, &m, 0.into(), v).map(|c| c.base);
            assert_eq!(got, t.base_dist(v), "distance to {v}");
        }
    }
}
