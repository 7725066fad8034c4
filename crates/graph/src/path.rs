//! Simple paths (and walks) through a graph.

use crate::spt::NO_NODE;
use crate::{CostModel, EdgeId, Graph, NodeId, PathCost, PathError};
use core::fmt;
use std::collections::HashSet;

/// A walk through a [`Graph`]: a node sequence together with the edge used
/// at every hop (edges are explicit so parallel edges are unambiguous).
///
/// Invariants (checked at construction):
/// * at least one node;
/// * `nodes.len() == edges.len() + 1`;
/// * edge `i` connects `nodes[i]` and `nodes[i + 1]` in the graph.
///
/// Most paths produced by this crate are *simple* (no repeated node);
/// [`Path::is_simple`] distinguishes the general case.
///
/// ```
/// use rbpc_graph::{Graph, Path};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(0, 1, 2)?;
/// let e1 = g.add_edge(1, 2, 3)?;
/// let p = Path::from_edges(&g, 0.into(), &[e0, e1])?;
/// assert_eq!(p.hop_count(), 2);
/// assert_eq!(p.target(), 2.into());
/// assert!(p.is_simple());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// The trivial path consisting of a single node and no edges.
    pub fn trivial(node: NodeId) -> Self {
        Path {
            nodes: vec![node],
            edges: Vec::new(),
        }
    }

    /// Builds a path from a start node and an edge sequence, resolving and
    /// validating each hop against `graph`.
    ///
    /// # Errors
    ///
    /// [`PathError::NotAWalk`] if some edge is not incident to the node
    /// reached so far (or is out of range).
    pub fn from_edges(graph: &Graph, start: NodeId, edges: &[EdgeId]) -> Result<Self, PathError> {
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(start);
        let mut at = start;
        for (i, &e) in edges.iter().enumerate() {
            let rec = graph
                .edge_checked(e)
                .ok_or(PathError::NotAWalk { position: i })?;
            if !rec.touches(at) {
                return Err(PathError::NotAWalk { position: i });
            }
            at = rec.other(at);
            nodes.push(at);
        }
        Ok(Path {
            nodes,
            edges: edges.to_vec(),
        })
    }

    /// Builds a path from a node sequence, picking for each hop the
    /// cheapest edge (under `model`) among parallel edges.
    ///
    /// # Errors
    ///
    /// * [`PathError::Empty`] for an empty node sequence;
    /// * [`PathError::NotAWalk`] if consecutive nodes are not adjacent.
    pub fn from_nodes(
        graph: &Graph,
        model: &CostModel,
        nodes: &[NodeId],
    ) -> Result<Self, PathError> {
        if nodes.is_empty() {
            return Err(PathError::Empty);
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for (i, w) in nodes.windows(2).enumerate() {
            let e = graph
                .edges_between(w[0], w[1])
                .into_iter()
                .min_by_key(|&e| model.perturbed_weight(graph, e))
                .ok_or(PathError::NotAWalk { position: i })?;
            edges.push(e);
        }
        Ok(Path {
            nodes: nodes.to_vec(),
            edges,
        })
    }

    /// Constructs a path from pre-validated parts.
    ///
    /// Intended for algorithms inside this crate family that already
    /// guarantee the walk invariant; cheaper than re-validating.
    ///
    /// # Panics
    ///
    /// Debug-panics if the sequences have inconsistent lengths or are empty.
    pub fn from_parts_unchecked(nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Self {
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(nodes.len(), edges.len() + 1);
        Path { nodes, edges }
    }

    /// The path from the root of a parent chain to `t`, where
    /// `parent(v)` is `v`'s `(parent node, parent edge)` and the root's
    /// parent node is the `NO_NODE` sentinel. Every tree path and every
    /// path the CSR kernels return is read back this way.
    pub(crate) fn from_parent_chain(
        t: NodeId,
        mut parent: impl FnMut(usize) -> (u32, u32),
    ) -> Self {
        let mut nodes = vec![t];
        let mut edges = Vec::new();
        let mut at = t.index();
        loop {
            let (pn, pe) = parent(at);
            if pn == NO_NODE {
                break;
            }
            edges.push(EdgeId::new(pe as usize));
            nodes.push(NodeId::new(pn as usize));
            at = pn as usize;
        }
        nodes.reverse();
        edges.reverse();
        Path { nodes, edges }
    }

    /// First node of the path.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    #[inline]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("invariant: paths are nonempty")
    }

    /// Number of edges (hops). Zero for a trivial path.
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether this is a trivial single-node path.
    #[inline]
    pub fn is_trivial(&self) -> bool {
        self.edges.is_empty()
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether no node repeats.
    pub fn is_simple(&self) -> bool {
        let mut seen = HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|n| seen.insert(*n))
    }

    /// Whether the path traverses edge `e`.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Whether the path visits node `v`.
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// Position of node `v` on the path, if visited (first occurrence).
    pub fn position_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == v)
    }

    /// Total cost of the path under `model`.
    pub fn cost(&self, graph: &Graph, model: &CostModel) -> PathCost {
        model.path_cost(graph, &self.edges)
    }

    /// The subpath spanning node positions `from..=to` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to >= self.nodes().len()`.
    pub fn subpath(&self, from: usize, to: usize) -> Path {
        assert!(from <= to && to < self.nodes.len(), "subpath out of range");
        Path {
            nodes: self.nodes[from..=to].to_vec(),
            edges: self.edges[from..to].to_vec(),
        }
    }

    /// Concatenates `self` with `next`.
    ///
    /// # Errors
    ///
    /// [`PathError::ConcatMismatch`] unless `self` ends where `next` starts.
    pub fn concat(&self, next: &Path) -> Result<Path, PathError> {
        if self.target() != next.source() {
            return Err(PathError::ConcatMismatch {
                left_end: self.target(),
                right_start: next.source(),
            });
        }
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&next.nodes[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&next.edges);
        Ok(Path { nodes, edges })
    }

    /// The same path walked in the opposite direction.
    pub fn reversed(&self) -> Path {
        Path {
            nodes: self.nodes.iter().rev().copied().collect(),
            edges: self.edges.iter().rev().copied().collect(),
        }
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " -{}- ", self.edges[i - 1])?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    fn square() -> (Graph, Vec<EdgeId>) {
        let mut g = Graph::new(4);
        let e = vec![
            g.add_edge(0, 1, 1).unwrap(),
            g.add_edge(1, 2, 1).unwrap(),
            g.add_edge(2, 3, 1).unwrap(),
            g.add_edge(3, 0, 1).unwrap(),
        ];
        (g, e)
    }

    #[test]
    fn from_edges_resolves_nodes() {
        let (g, e) = square();
        let p = Path::from_edges(&g, 0.into(), &[e[0], e[1], e[2]]).unwrap();
        assert_eq!(
            p.nodes(),
            &[
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        assert_eq!(p.source(), 0.into());
        assert_eq!(p.target(), 3.into());
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn from_edges_rejects_non_walk() {
        let (g, e) = square();
        let err = Path::from_edges(&g, 0.into(), &[e[0], e[2]]).unwrap_err();
        assert_eq!(err, PathError::NotAWalk { position: 1 });
    }

    #[test]
    fn from_nodes_picks_cheapest_parallel_edge() {
        let mut g = Graph::new(2);
        let cheap = g.add_edge(0, 1, 1).unwrap();
        let pricey = g.add_edge(0, 1, 10).unwrap();
        let m = CostModel::new(Metric::Weighted, 1);
        let p = Path::from_nodes(&g, &m, &[0.into(), 1.into()]).unwrap();
        assert_eq!(p.edges(), &[cheap]);
        let _ = pricey;
    }

    #[test]
    fn from_nodes_error_cases() {
        let (g, _) = square();
        let m = CostModel::new(Metric::Weighted, 1);
        assert_eq!(Path::from_nodes(&g, &m, &[]).unwrap_err(), PathError::Empty);
        assert_eq!(
            Path::from_nodes(&g, &m, &[0.into(), 2.into()]).unwrap_err(),
            PathError::NotAWalk { position: 0 }
        );
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(5.into());
        assert!(p.is_trivial());
        assert!(p.is_simple());
        assert_eq!(p.source(), p.target());
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn simplicity_detection() {
        let (g, e) = square();
        let walk = Path::from_edges(&g, 0.into(), &[e[0], e[0]]).unwrap();
        assert!(!walk.is_simple());
        let simple = Path::from_edges(&g, 0.into(), &[e[0], e[1]]).unwrap();
        assert!(simple.is_simple());
    }

    #[test]
    fn concat_and_mismatch() {
        let (g, e) = square();
        let a = Path::from_edges(&g, 0.into(), &[e[0]]).unwrap();
        let b = Path::from_edges(&g, 1.into(), &[e[1]]).unwrap();
        let ab = a.concat(&b).unwrap();
        assert_eq!(ab.hop_count(), 2);
        assert_eq!(ab.target(), 2.into());
        let err = b.concat(&b).unwrap_err();
        assert!(matches!(err, PathError::ConcatMismatch { .. }));
    }

    #[test]
    fn concat_with_trivial() {
        let (g, e) = square();
        let a = Path::from_edges(&g, 0.into(), &[e[0]]).unwrap();
        let t = Path::trivial(1.into());
        assert_eq!(a.concat(&t).unwrap(), a);
        assert_eq!(t.concat(&a.reversed()).unwrap().target(), 0.into());
    }

    #[test]
    fn subpath_extraction() {
        let (g, e) = square();
        let p = Path::from_edges(&g, 0.into(), &[e[0], e[1], e[2]]).unwrap();
        let s = p.subpath(1, 2);
        assert_eq!(s.nodes(), &[NodeId::new(1), NodeId::new(2)]);
        assert_eq!(s.edges(), &[e[1]]);
        let whole = p.subpath(0, 3);
        assert_eq!(whole, p);
        let point = p.subpath(2, 2);
        assert!(point.is_trivial());
    }

    #[test]
    #[should_panic(expected = "subpath out of range")]
    fn subpath_out_of_range_panics() {
        let (g, e) = square();
        let p = Path::from_edges(&g, 0.into(), &[e[0]]).unwrap();
        let _ = p.subpath(0, 5);
    }

    #[test]
    fn reversal() {
        let (g, e) = square();
        let p = Path::from_edges(&g, 0.into(), &[e[0], e[1]]).unwrap();
        let r = p.reversed();
        assert_eq!(r.source(), 2.into());
        assert_eq!(r.target(), 0.into());
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn membership_queries() {
        let (g, e) = square();
        let p = Path::from_edges(&g, 0.into(), &[e[0], e[1]]).unwrap();
        assert!(p.contains_edge(e[0]));
        assert!(!p.contains_edge(e[3]));
        assert!(p.contains_node(1.into()));
        assert!(!p.contains_node(3.into()));
        assert_eq!(p.position_of(2.into()), Some(2));
        assert_eq!(p.position_of(3.into()), None);
    }

    #[test]
    fn cost_sums_weights() {
        let mut g = Graph::new(3);
        let e0 = g.add_edge(0, 1, 5).unwrap();
        let e1 = g.add_edge(1, 2, 7).unwrap();
        let m = CostModel::new(Metric::Weighted, 0);
        let p = Path::from_edges(&g, 0.into(), &[e0, e1]).unwrap();
        assert_eq!(p.cost(&g, &m).base, 12);
        assert_eq!(p.cost(&g, &m).hops, 2);
    }

    #[test]
    fn debug_and_display() {
        let (g, e) = square();
        let p = Path::from_edges(&g, 0.into(), &[e[0]]).unwrap();
        assert_eq!(format!("{p}"), "n0 -> n1");
        assert_eq!(format!("{p:?}"), "Path[n0 -e0- n1]");
    }
}
