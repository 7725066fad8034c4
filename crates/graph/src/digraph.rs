//! Directed graphs — for the paper's negative results.
//!
//! The RBPC theorems hold for *undirected* networks; the paper's Figure 5
//! shows that in a directed graph a **single** arc failure can force a new
//! shortest path that is the concatenation of `Ω(n)` original shortest
//! paths. This module provides the minimal directed substrate to state and
//! verify that: a directed multigraph, Dijkstra over it, and arc masking.

use crate::{GraphError, NodeId};
use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a directed arc in a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ArcId(u32);

impl ArcId {
    /// Creates an arc id from a raw index.
    pub fn new(index: usize) -> Self {
        ArcId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// One stored arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArcRecord {
    /// Tail (source) of the arc.
    pub from: NodeId,
    /// Head (target) of the arc.
    pub to: NodeId,
    /// Strictly positive weight.
    pub weight: u32,
}

/// A directed weighted multigraph over dense node indices.
///
/// Kept intentionally small: enough to compute directed shortest paths
/// with arc failures and check the paper's directed counterexamples.
///
/// ```
/// use rbpc_graph::{DiGraph, NodeId};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = DiGraph::new(3);
/// g.add_arc(0, 1, 1)?;
/// g.add_arc(1, 2, 1)?;
/// assert_eq!(g.distances(NodeId::new(0), None)[2], Some(2));
/// // No arc back: 2 cannot reach 0.
/// assert_eq!(g.distances(NodeId::new(2), None)[0], None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiGraph {
    arcs: Vec<ArcRecord>,
    out: Vec<Vec<(NodeId, ArcId)>>,
}

impl DiGraph {
    /// Creates a directed graph with `node_count` isolated nodes.
    pub fn new(node_count: usize) -> Self {
        DiGraph {
            arcs: Vec::new(),
            out: vec![Vec::new(); node_count],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Adds an arc `from → to` with a strictly positive weight.
    ///
    /// # Errors
    ///
    /// Rejects self-loops, out-of-range endpoints, and zero weights, as
    /// [`Graph::add_edge`](crate::Graph::add_edge) does.
    pub fn add_arc(
        &mut self,
        from: impl Into<NodeId>,
        to: impl Into<NodeId>,
        weight: u32,
    ) -> Result<ArcId, GraphError> {
        let (from, to) = (from.into(), to.into());
        for n in [from, to] {
            if n.index() >= self.node_count() {
                return Err(GraphError::NodeOutOfRange {
                    node: n,
                    node_count: self.node_count(),
                });
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        let id = ArcId::new(self.arcs.len());
        self.arcs.push(ArcRecord { from, to, weight });
        self.out[from.index()].push((to, id));
        Ok(id)
    }

    /// The record of an arc.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn arc(&self, a: ArcId) -> &ArcRecord {
        &self.arcs[a.index()]
    }

    /// Out-neighbors of `u` as `(head, arc)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, ArcId)> + '_ {
        self.out[u.index()].iter().copied()
    }

    /// Single-source shortest distances, optionally masking one failed
    /// arc. `None` marks unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn distances(&self, source: NodeId, failed: Option<ArcId>) -> Vec<Option<u64>> {
        assert!(
            source.index() < self.node_count(),
            "source {source} out of range"
        );
        self.search(source, failed, None).0
    }

    /// One shortest path `s → t` (node sequence), optionally masking a
    /// failed arc. `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn shortest_path(
        &self,
        s: NodeId,
        t: NodeId,
        failed: Option<ArcId>,
    ) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        assert!(s.index() < n && t.index() < n, "endpoint out of range");
        let (dist, parent) = self.search(s, failed, Some(t));
        dist[t.index()]?;
        let mut path = vec![t];
        let mut at = t;
        while at != s {
            at = parent[at.index()].expect("invariant: reachable nodes have parents");
            path.push(at);
        }
        path.reverse();
        Some(path)
    }

    /// Dijkstra from `source` without the arc `failed`, stopping once
    /// `target` settles: each node's distance and parent as last
    /// relaxed, final for every settled node.
    fn search(
        &self,
        source: NodeId,
        failed: Option<ArcId>,
        target: Option<NodeId>,
    ) -> (Vec<Option<u64>>, Vec<Option<NodeId>>) {
        let n = self.node_count();
        let mut dist: Vec<Option<u64>> = vec![None; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut heap: BinaryHeap<(Reverse<u64>, u32)> = BinaryHeap::new();
        dist[source.index()] = Some(0);
        heap.push((Reverse(0), source.index() as u32));
        while let Some((Reverse(d), ui)) = heap.pop() {
            if settled[ui as usize] {
                continue;
            }
            settled[ui as usize] = true;
            if target.is_some_and(|t| t.index() == ui as usize) {
                break;
            }
            for &(v, a) in &self.out[ui as usize] {
                if Some(a) == failed {
                    continue;
                }
                let nd = d + u64::from(self.arcs[a.index()].weight);
                if dist[v.index()].is_none_or(|cur| nd < cur) && !settled[v.index()] {
                    dist[v.index()] = Some(nd);
                    parent[v.index()] = Some(NodeId::new(ui as usize));
                    heap.push((Reverse(nd), v.index() as u32));
                }
            }
        }
        (dist, parent)
    }

    /// All-pairs distance matrix (no failures); `None` for unreachable
    /// pairs. Quadratic memory — intended for the small counterexample
    /// graphs.
    pub fn distance_matrix(&self) -> Vec<Vec<Option<u64>>> {
        (0..self.node_count())
            .map(|s| self.distances(NodeId::new(s), None))
            .collect()
    }

    /// The minimum number of pieces needed to cover the node path `p` such
    /// that every piece is a shortest path of this (unfailed) digraph.
    /// Pieces that are single non-shortest arcs count too (as in
    /// Theorem 2's accounting). Greedy longest-prefix, which is optimal by
    /// subpath-closure of directed shortest paths.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a walk in the digraph.
    pub fn min_shortest_cover(&self, p: &[NodeId]) -> usize {
        if p.len() <= 1 {
            return 0;
        }
        let dist = self.distance_matrix();
        // Arc weights along the walk.
        let mut step = Vec::with_capacity(p.len() - 1);
        for w in p.windows(2) {
            let weight = self
                .out_neighbors(w[0])
                .filter(|&(to, _)| to == w[1])
                .map(|(_, a)| u64::from(self.arc(a).weight))
                .min()
                .expect("invariant: path is a walk in the digraph");
            step.push(weight);
        }
        let mut pieces = 0;
        let mut i = 0;
        while i + 1 < p.len() {
            let mut j = i;
            let mut cost = 0u64;
            while j + 1 < p.len() {
                let c = cost + step[j];
                if dist[p[i].index()][p[j + 1].index()] == Some(c) {
                    cost = c;
                    j += 1;
                } else {
                    break;
                }
            }
            if j == i {
                // Single non-shortest arc piece.
                j = i + 1;
            }
            pieces += 1;
            i = j;
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3 (cheaper), plus 3 -> 0 back.
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 5).unwrap();
        g.add_arc(1, 3, 5).unwrap();
        g.add_arc(0, 2, 1).unwrap();
        g.add_arc(2, 3, 1).unwrap();
        g.add_arc(3, 0, 1).unwrap();
        g
    }

    #[test]
    fn directed_distances_are_asymmetric() {
        let g = diamond();
        let d0 = g.distances(NodeId::new(0), None);
        assert_eq!(d0[3], Some(2));
        let d3 = g.distances(NodeId::new(3), None);
        assert_eq!(d3[0], Some(1));
        assert_eq!(d3[1], Some(6)); // 3 -> 0 -> 1
    }

    #[test]
    fn arc_failure_changes_route() {
        let g = diamond();
        let p = g
            .shortest_path(NodeId::new(0), NodeId::new(3), None)
            .unwrap();
        assert_eq!(p, vec![NodeId::new(0), NodeId::new(2), NodeId::new(3)]);
        let cheap = ArcId::new(2); // 0 -> 2
        let p2 = g
            .shortest_path(NodeId::new(0), NodeId::new(3), Some(cheap))
            .unwrap();
        assert_eq!(p2, vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, 1).unwrap();
        assert_eq!(g.shortest_path(NodeId::new(1), NodeId::new(0), None), None);
        assert_eq!(g.distances(NodeId::new(2), None)[0], None);
    }

    #[test]
    fn validation_errors() {
        let mut g = DiGraph::new(2);
        assert!(matches!(
            g.add_arc(0, 0, 1),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_arc(0, 5, 1),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert_eq!(g.add_arc(0, 1, 0), Err(GraphError::ZeroWeight));
    }

    #[test]
    fn parallel_arcs_allowed() {
        let mut g = DiGraph::new(2);
        let a = g.add_arc(0, 1, 3).unwrap();
        let b = g.add_arc(0, 1, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(g.distances(NodeId::new(0), None)[1], Some(1));
        assert_eq!(g.arc_count(), 2);
    }

    #[test]
    fn cover_of_shortest_path_is_one() {
        let g = diamond();
        let p = g
            .shortest_path(NodeId::new(0), NodeId::new(3), None)
            .unwrap();
        assert_eq!(g.min_shortest_cover(&p), 1);
        assert_eq!(g.min_shortest_cover(&p[..1]), 0);
    }

    #[test]
    fn cover_splits_non_shortest_walk() {
        let g = diamond();
        // 0 -> 1 -> 3 costs 10; shortest is 2. The walk is covered by the
        // two arcs, each of which is shortest between its endpoints?
        // 0->1 (5): shortest 0->1 distance is 5 ✓; 1->3 (5): shortest ✓.
        let walk = vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)];
        assert_eq!(g.min_shortest_cover(&walk), 2);
    }
}
