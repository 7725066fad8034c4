//! Counting distinct shortest paths (the paper's *redundancy* statistic).
//!
//! Table 2 of the RBPC paper reports, per topology, the maximum number of
//! distinct shortest paths between any two routers — an indication of how
//! much extra state storing *all* shortest paths would require. We count
//! shortest paths under the **original** metric (no perturbation): parallel
//! edges of equal weight contribute distinct paths, exactly as distinct
//! LSPs would.

use crate::{CostModel, Metric, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// For each node `v`, the number of distinct shortest `source → v` paths
/// under the original metric, saturating at `u64::MAX`.
///
/// Unreachable nodes (and all nodes, when the source is failed) count 0;
/// the source itself counts 1 (the trivial path).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn count_shortest_paths<T: Topology>(topo: &T, metric: Metric, source: NodeId) -> Vec<u64> {
    let graph = topo.graph();
    let n = graph.node_count();
    assert!(source.index() < n, "source {source} out of range");
    let mut counts = vec![0u64; n];
    if !topo.node_alive(source) {
        return counts;
    }
    // Plain Dijkstra on base weights; on settling u, propagate counts along
    // all tight edges. With non-negative weights every tight predecessor of
    // v settles before v, so counts are final when v settles.
    let mut dist = vec![u64::MAX; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<(Reverse<u64>, u32)> = BinaryHeap::new();
    let model = CostModel::new(metric, 0); // base weights only; seed unused
    dist[source.index()] = 0;
    counts[source.index()] = 1;
    heap.push((Reverse(0), source.index() as u32));

    while let Some((Reverse(d), ui)) = heap.pop() {
        let u = NodeId::new(ui as usize);
        if settled[ui as usize] || d > dist[ui as usize] {
            continue;
        }
        settled[ui as usize] = true;
        for h in topo.live_neighbors(u) {
            let w = model.base_weight(graph, h.edge);
            let vi = h.to.index();
            let nd = d.saturating_add(w);
            if nd < dist[vi] {
                dist[vi] = nd;
                counts[vi] = counts[ui as usize];
                heap.push((Reverse(nd), vi as u32));
            } else if nd == dist[vi] && !settled[vi] {
                counts[vi] = counts[vi].saturating_add(counts[ui as usize]);
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureSet, Graph};

    #[test]
    fn single_path_counts_one() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let c = count_shortest_paths(&g, Metric::Weighted, 0.into());
        assert_eq!(c, vec![1, 1, 1]);
    }

    #[test]
    fn square_has_two_paths_across() {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (1, 2), (3, 2), (0, 3)] {
            g.add_edge(a, b, 1).unwrap();
        }
        let c = count_shortest_paths(&g, Metric::Weighted, 0.into());
        assert_eq!(c[2], 2);
        assert_eq!(c[1], 1);
        assert_eq!(c[3], 1);
    }

    #[test]
    fn parallel_edges_count_separately() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(0, 1, 7).unwrap(); // longer, doesn't count
        let c = count_shortest_paths(&g, Metric::Weighted, 0.into());
        assert_eq!(c[1], 2);
    }

    #[test]
    fn weighted_vs_unweighted_counts_differ() {
        // 0-1-2 with weights 1,1 and a direct 0-2 of weight 2:
        // weighted: two shortest paths (cost 2); unweighted: one (1 hop).
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(0, 2, 2).unwrap();
        let cw = count_shortest_paths(&g, Metric::Weighted, 0.into());
        let cu = count_shortest_paths(&g, Metric::Unweighted, 0.into());
        assert_eq!(cw[2], 2);
        assert_eq!(cu[2], 1);
    }

    #[test]
    fn grid_counts_binomials() {
        // 3x3 grid: #shortest paths corner-to-corner = C(4,2) = 6.
        let mut g = Graph::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(i, i + 1, 1).unwrap();
                }
                if r + 1 < 3 {
                    g.add_edge(i, i + 3, 1).unwrap();
                }
            }
        }
        let c = count_shortest_paths(&g, Metric::Unweighted, 0.into());
        assert_eq!(c[8], 6);
        assert_eq!(c[4], 2);
    }

    #[test]
    fn unreachable_and_failed() {
        let mut g = Graph::new(3);
        let e = g.add_edge(0, 1, 1).unwrap();
        let c = count_shortest_paths(&g, Metric::Weighted, 0.into());
        assert_eq!(c[2], 0);
        let f = FailureSet::of_edge(e);
        let c2 = count_shortest_paths(&f.view(&g), Metric::Weighted, 0.into());
        assert_eq!(c2, vec![1, 0, 0]);
        let fnode = FailureSet::of_nodes([0usize]);
        let c3 = count_shortest_paths(&fnode.view(&g), Metric::Weighted, 0.into());
        assert_eq!(c3, vec![0, 0, 0]);
    }
}
