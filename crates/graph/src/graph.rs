//! The undirected weighted multigraph.

use crate::{EdgeId, GraphError, NodeId};

/// One stored (undirected) edge: endpoints and an OSPF-style positive weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRecord {
    /// First endpoint (the `u` passed to [`Graph::add_edge`]).
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Strictly positive link weight (OSPF cost). Unweighted experiments
    /// ignore this and charge 1 per hop — see [`Metric`](crate::Metric).
    pub weight: u32,
}

impl EdgeRecord {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.u {
            self.v
        } else {
            debug_assert_eq!(from, self.v, "node is not an endpoint of this edge");
            self.u
        }
    }

    /// Returns `true` if `n` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        self.u == n || self.v == n
    }
}

/// An edge as seen from one of its endpoints: the neighbor it leads to and
/// the edge id (distinct for parallel edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HalfEdge {
    /// The neighbor this half-edge leads to.
    pub to: NodeId,
    /// The underlying undirected edge.
    pub edge: EdgeId,
}

/// Degree statistics of a graph, as reported in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree over all nodes.
    pub min: usize,
    /// Maximum degree over all nodes.
    pub max: usize,
    /// Average degree (`2m / n`).
    pub avg: f64,
}

/// An undirected, weighted multigraph over dense node indices.
///
/// * Parallel edges are allowed (each gets its own [`EdgeId`]); self-loops
///   are rejected.
/// * Weights are strictly positive `u32` values, as in OSPF configurations.
/// * The node set is fixed at construction; edges are appended.
///
/// ```
/// use rbpc_graph::Graph;
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(0, 1, 10)?;
/// let e1 = g.add_edge(1, 2, 20)?;
/// let e2 = g.add_edge(0, 1, 10)?; // parallel edge, distinct id
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 3);
/// assert_ne!(e0, e2);
/// assert_eq!(g.degree(1.into()), 3);
/// # let _ = e1;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    edges: Vec<EdgeRecord>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Creates a graph with `node_count` isolated nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); node_count],
        }
    }

    /// Creates a graph with `node_count` nodes, pre-allocating for
    /// `edge_capacity` edges.
    pub fn with_capacity(node_count: usize, edge_capacity: usize) -> Self {
        let mut g = Graph::new(node_count);
        g.edges.reserve(edge_capacity);
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges (parallel edges counted individually).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge `u — v` with the given strictly positive
    /// weight and returns its id.
    ///
    /// # Errors
    ///
    /// * [`GraphError::SelfLoop`] if `u == v`;
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is out of range;
    /// * [`GraphError::ZeroWeight`] if `weight == 0`.
    pub fn add_edge(
        &mut self,
        u: impl Into<NodeId>,
        v: impl Into<NodeId>,
        weight: u32,
    ) -> Result<EdgeId, GraphError> {
        let (u, v) = (u.into(), v.into());
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(EdgeRecord { u, v, weight });
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        Ok(id)
    }

    /// Adds an edge of weight 1. Convenience for unweighted topologies.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::add_edge`].
    pub fn add_unit_edge(
        &mut self,
        u: impl Into<NodeId>,
        v: impl Into<NodeId>,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge(u, v, 1)
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    /// Looks up the record of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        &self.edges[e.index()]
    }

    /// Looks up an edge record, returning `None` when out of range.
    pub fn edge_checked(&self, e: EdgeId) -> Option<&EdgeRecord> {
        self.edges.get(e.index())
    }

    /// The two endpoints of an edge, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let r = self.edge(e);
        (r.u, r.v)
    }

    /// The stored weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u32 {
        self.edge(e).weight
    }

    /// Iterates over the half-edges incident to `u` (neighbor + edge id).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = HalfEdge> + '_ {
        self.adj[u.index()]
            .iter()
            .map(|&(to, edge)| HalfEdge { to, edge })
    }

    /// Raw adjacency slice of `u`, used by iterator internals.
    #[inline]
    pub(crate) fn adjacency_slice(&self, u: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[u.index()]
    }

    /// The degree of node `u` (parallel edges counted individually).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Iterates over all node ids, `n0, n1, …`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// Iterates over `(EdgeId, &EdgeRecord)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, r)| (EdgeId::new(i), r))
    }

    /// Finds an edge between `u` and `v` (any parallel one), if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj
            .get(u.index())?
            .iter()
            .find(|&&(to, _)| to == v)
            .map(|&(_, e)| e)
    }

    /// All parallel edges between `u` and `v`.
    pub fn edges_between(&self, u: NodeId, v: NodeId) -> Vec<EdgeId> {
        match self.adj.get(u.index()) {
            Some(list) => list
                .iter()
                .filter(|&&(to, _)| to == v)
                .map(|&(_, e)| e)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Degree statistics of the graph (Table 1 of the paper).
    ///
    /// Returns `None` for the empty graph.
    pub fn degree_stats(&self) -> Option<DegreeStats> {
        if self.is_empty() {
            return None;
        }
        let (min, max) = self
            .adj
            .iter()
            .map(Vec::len)
            .fold((usize::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
        let avg = 2.0 * self.edge_count() as f64 / self.node_count() as f64;
        Some(DegreeStats { min, max, avg })
    }

    /// Validates that `n` is a node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when it is not.
    pub fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: n,
                node_count: self.node_count(),
            })
        }
    }

    /// Validates that `e` is an edge of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfRange`] when it is not.
    pub fn check_edge(&self, e: EdgeId) -> Result<(), GraphError> {
        if e.index() < self.edge_count() {
            Ok(())
        } else {
            Err(GraphError::EdgeOutOfRange {
                edge: e,
                edge_count: self.edge_count(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        g.add_edge(2, 0, 3).unwrap();
        g
    }

    #[test]
    fn construction_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(1, 1, 1),
            Err(GraphError::SelfLoop {
                node: NodeId::new(1)
            })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(0, 5, 1),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(g.check_edge(EdgeId::new(0)).is_err());
    }

    #[test]
    fn rejects_zero_weight() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(0, 1, 0), Err(GraphError::ZeroWeight));
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::new(2);
        let a = g.add_edge(0, 1, 1).unwrap();
        let b = g.add_edge(0, 1, 5).unwrap();
        assert_ne!(a, b);
        assert_eq!(g.degree(0.into()), 2);
        assert_eq!(g.edges_between(0.into(), 1.into()), vec![a, b]);
        assert_eq!(g.weight(a), 1);
        assert_eq!(g.weight(b), 5);
    }

    #[test]
    fn neighbors_and_degree() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(0.into()).map(|h| h.to).collect();
        assert_eq!(n, vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.degree(0.into()), 2);
    }

    #[test]
    fn endpoints_and_other() {
        let g = triangle();
        let e = g.find_edge(1.into(), 2.into()).unwrap();
        assert_eq!(g.endpoints(e), (NodeId::new(1), NodeId::new(2)));
        assert_eq!(g.edge(e).other(1.into()), NodeId::new(2));
        assert_eq!(g.edge(e).other(2.into()), NodeId::new(1));
        assert!(g.edge(e).touches(1.into()));
        assert!(!g.edge(e).touches(0.into()));
    }

    #[test]
    fn find_edge_missing() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1).unwrap();
        assert_eq!(g.find_edge(2.into(), 3.into()), None);
        assert!(g.edges_between(2.into(), 3.into()).is_empty());
    }

    #[test]
    fn degree_stats_table1_style() {
        let g = triangle();
        let s = g.degree_stats().unwrap();
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.avg - 2.0).abs() < 1e-12);
        assert!(Graph::new(0).degree_stats().is_none());
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = triangle();
        let v = g.add_node();
        assert_eq!(v.index(), 3);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(v), 0);
        g.add_edge(v, 0, 9).unwrap();
        assert_eq!(g.degree(v), 1);
    }

    #[test]
    fn iterators_cover_everything() {
        let g = triangle();
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.edge_ids().count(), 3);
        let total_weight: u32 = g.edges().map(|(_, r)| r.weight).sum();
        assert_eq!(total_weight, 6);
    }

    #[test]
    fn edge_checked_bounds() {
        let g = triangle();
        assert!(g.edge_checked(EdgeId::new(2)).is_some());
        assert!(g.edge_checked(EdgeId::new(3)).is_none());
    }
}
