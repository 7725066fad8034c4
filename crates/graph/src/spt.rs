//! Shortest-path trees.

use crate::{EdgeId, Graph, NodeId, Path};

pub(crate) const NO_EDGE: u32 = u32::MAX;
pub(crate) const NO_NODE: u32 = u32::MAX;

/// Bytes a [`ShortestPathTree`] holds per node: `dist` (u128) plus
/// `parent_edge` and `parent_node` (u32 each). Every tree-memory figure
/// ([`ShortestPathTree::approx_bytes`], a store's resident bytes and
/// budget) is this times the node count.
pub const TREE_BYTES_PER_NODE: usize = 16 + 4 + 4;

/// A single-source shortest-path tree over some topology, produced by
/// [`shortest_path_tree`](crate::shortest_path_tree).
///
/// Stores, per node, only the perturbed distance (unique tie-breaking)
/// and the tree parent ([`TREE_BYTES_PER_NODE`] bytes). The
/// original-metric distance is the high 64 bits of the perturbed one
/// (44-bit pads cannot carry across bit 64 on any supported path, see
/// [`CostModel`](crate::CostModel)), and the hop count is the length of
/// [`path_to`](Self::path_to). Because perturbed costs make shortest
/// paths unique, tree paths are canonical: *the* base path of the RBPC
/// scheme from this source to every node.
///
/// ```
/// use rbpc_graph::{CostModel, Graph, Metric, shortest_path_tree};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 2)?;
/// g.add_edge(0, 2, 10)?;
/// let spt = shortest_path_tree(&g, &CostModel::new(Metric::Weighted, 0), 0.into());
/// assert_eq!(spt.base_dist(2.into()), Some(4));
/// assert_eq!(spt.path_to(2.into()).unwrap().hop_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathTree {
    source: NodeId,
    pub(crate) dist: Vec<u128>,
    pub(crate) parent_edge: Vec<u32>,
    pub(crate) parent_node: Vec<u32>,
}

impl ShortestPathTree {
    /// Creates an all-unreachable tree skeleton (crate-internal).
    pub(crate) fn unreachable(source: NodeId, n: usize) -> Self {
        ShortestPathTree {
            source,
            dist: vec![u128::MAX; n],
            parent_edge: vec![NO_EDGE; n],
            parent_node: vec![NO_NODE; n],
        }
    }

    /// Assembles a tree from prefilled per-node arrays (crate-internal;
    /// the CSR engine harvests its scratch arena in one sequential pass
    /// instead of settling nodes one at a time).
    pub(crate) fn from_arrays(
        source: NodeId,
        dist: Vec<u128>,
        parent_edge: Vec<u32>,
        parent_node: Vec<u32>,
    ) -> Self {
        let tree = ShortestPathTree {
            source,
            dist,
            parent_edge,
            parent_node,
        };
        debug_assert_eq!(tree.validate_structure(), Ok(()));
        tree
    }

    pub(crate) fn settle(&mut self, v: NodeId, dist: u128, parent: Option<(NodeId, EdgeId)>) {
        let i = v.index();
        self.dist[i] = dist;
        match parent {
            Some((pn, pe)) => {
                self.parent_node[i] = pn.index() as u32;
                self.parent_edge[i] = pe.index() as u32;
            }
            None => {
                self.parent_node[i] = NO_NODE;
                self.parent_edge[i] = NO_EDGE;
            }
        }
    }

    /// Resets `v` to the unreachable sentinel state (crate-internal; used
    /// by the repairs to detach a subtree before re-attaching it).
    pub(crate) fn clear_node(&mut self, i: usize) {
        self.dist[i] = u128::MAX;
        self.parent_edge[i] = NO_EDGE;
        self.parent_node[i] = NO_NODE;
    }

    /// The tree's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of nodes the tree was computed over.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.dist.len()
    }

    /// Whether `v` is reachable from the source.
    #[inline]
    pub fn reachable(&self, v: NodeId) -> bool {
        self.dist[v.index()] != u128::MAX
    }

    /// Perturbed (tie-broken) distance to `v`, or `None` if unreachable.
    #[inline]
    pub fn perturbed_dist(&self, v: NodeId) -> Option<u128> {
        match self.dist[v.index()] {
            u128::MAX => None,
            d => Some(d),
        }
    }

    /// Original-metric distance to `v`, or `None` if unreachable: the
    /// high 64 bits of the perturbed distance, which the padding never
    /// carries into.
    #[inline]
    pub fn base_dist(&self, v: NodeId) -> Option<u64> {
        self.perturbed_dist(v).map(|d| (d >> 64) as u64)
    }

    /// The tree edge entering `v`, or `None` for the source / unreachable
    /// nodes.
    #[inline]
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        match self.parent_edge[v.index()] {
            NO_EDGE => None,
            e => Some(EdgeId::new(e as usize)),
        }
    }

    /// The tree parent of `v`, or `None` for the source / unreachable nodes.
    #[inline]
    pub fn parent_node(&self, v: NodeId) -> Option<NodeId> {
        match self.parent_node[v.index()] {
            NO_NODE => None,
            n => Some(NodeId::new(n as usize)),
        }
    }

    /// Checks whether edge `pe` into node `v` from `pu` is the tree edge of
    /// `v` — i.e. whether extending the tree path of `pu` by `pe` yields the
    /// canonical shortest path to `v`. This is the O(1) primitive behind
    /// greedy longest-prefix decomposition.
    #[inline]
    pub fn is_tree_step(&self, pu: NodeId, pe: EdgeId, v: NodeId) -> bool {
        self.parent_node[v.index()] == pu.index() as u32
            && self.parent_edge[v.index()] == pe.index() as u32
    }

    /// Materializes the tree path from the source to `v`.
    ///
    /// Returns `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Path> {
        if !self.reachable(v) {
            return None;
        }
        let path = Path::from_parent_chain(v, |i| (self.parent_node[i], self.parent_edge[i]));
        debug_assert_eq!(path.source(), self.source);
        Some(path)
    }

    /// Fills `offsets`/`kids` with the CSR form of the children relation
    /// (counts → prefix sums → fill), reusing `cursor` as working memory.
    /// All three buffers are cleared first, so scratch reuse is safe.
    pub(crate) fn fill_children_csr(
        &self,
        offsets: &mut Vec<u32>,
        kids: &mut Vec<u32>,
        cursor: &mut Vec<u32>,
    ) {
        let n = self.dist.len();
        offsets.clear();
        offsets.resize(n + 1, 0);
        for i in 0..n {
            let p = self.parent_node[i];
            if p != NO_NODE {
                offsets[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        kids.clear();
        kids.resize(offsets[n] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        for i in 0..n {
            let p = self.parent_node[i];
            if p != NO_NODE {
                kids[cursor[p as usize] as usize] = i as u32;
                cursor[p as usize] += 1;
            }
        }
    }

    /// All nodes whose tree path traverses the tree edge entering `below`
    /// (i.e. the subtree rooted at `below`). Linear in `n`: the children
    /// relation is filled once, then the subtree is walked.
    pub fn subtree(&self, below: NodeId) -> Vec<NodeId> {
        if !self.reachable(below) {
            return Vec::new();
        }
        let (mut offsets, mut kids, mut cursor) = (Vec::new(), Vec::new(), Vec::new());
        self.fill_children_csr(&mut offsets, &mut kids, &mut cursor);
        let mut stack = vec![below.index() as u32];
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            let vi = v as usize;
            out.push(NodeId::new(vi));
            stack.extend_from_slice(&kids[offsets[vi] as usize..offsets[vi + 1] as usize]);
        }
        out
    }

    /// Structural self-check: array lengths agree, the reachable/sentinel
    /// state of every node is all-or-nothing across the three arrays, the
    /// source is the unique root, and every parent link is consistent
    /// (perturbed distance strictly increases from parent to child, which
    /// also proves the parent relation is acyclic).
    ///
    /// Graph-free (no weights available here): edge-level consistency and
    /// the uniqueness-under-perturbation property are checked by
    /// [`CsrGraph::validate_tree`](crate::csr::CsrGraph::validate_tree).
    /// O(n); intended for `debug_assert!` and the validation harnesses.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_structure(&self) -> Result<(), String> {
        let n = self.dist.len();
        for (name, len) in [
            ("parent_edge", self.parent_edge.len()),
            ("parent_node", self.parent_node.len()),
        ] {
            if len != n {
                return Err(format!("{name} has length {len}, dist has {n}"));
            }
        }
        let si = self.source.index();
        if si >= n {
            return Err(format!("source {} out of range for {n} nodes", self.source));
        }
        if self.dist[si] == u128::MAX {
            // The all-unreachable skeleton (failed source): nothing may be
            // reachable, and the per-node sentinel check below finishes.
            if let Some(v) = (0..n).find(|&v| self.dist[v] != u128::MAX) {
                return Err(format!(
                    "source {} is unreachable but node {v} is reachable",
                    self.source
                ));
            }
        } else if self.dist[si] != 0
            || self.parent_edge[si] != NO_EDGE
            || self.parent_node[si] != NO_NODE
        {
            return Err(format!(
                "source {} must have zero distance and no parent",
                self.source
            ));
        }
        for v in 0..n {
            if self.dist[v] == u128::MAX {
                if self.parent_edge[v] != NO_EDGE || self.parent_node[v] != NO_NODE {
                    return Err(format!("unreachable node {v} has a parent"));
                }
                continue;
            }
            if v == si {
                continue;
            }
            let (pe, pn) = (self.parent_edge[v], self.parent_node[v]);
            if pe == NO_EDGE || pn == NO_NODE {
                return Err(format!("reachable non-source node {v} has no parent"));
            }
            let p = pn as usize;
            if p >= n {
                return Err(format!("node {v} has out-of-range parent {p}"));
            }
            if self.dist[p] == u128::MAX {
                return Err(format!("node {v}'s parent {p} is unreachable"));
            }
            if self.dist[v] <= self.dist[p] {
                return Err(format!(
                    "node {v}'s perturbed distance does not exceed its parent {p}'s"
                ));
            }
        }
        Ok(())
    }

    /// Memory-relevant size in bytes (for cache budgeting).
    pub fn approx_bytes(&self) -> usize {
        self.dist.len() * TREE_BYTES_PER_NODE
    }

    /// Reference to the raw graph this tree indexes into is not stored;
    /// validate compatibility by node count.
    pub fn compatible_with(&self, graph: &Graph) -> bool {
        graph.node_count() == self.dist.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path_tree, CostModel, Metric};

    fn line(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, (i + 1) as u32).unwrap();
        }
        g
    }

    fn spt(g: &Graph, s: usize) -> ShortestPathTree {
        shortest_path_tree(g, &CostModel::new(Metric::Weighted, 11), s.into())
    }

    #[test]
    fn line_distances() {
        let g = line(4); // weights 1, 2, 3
        let t = spt(&g, 0);
        assert_eq!(t.base_dist(0.into()), Some(0));
        assert_eq!(t.base_dist(1.into()), Some(1));
        assert_eq!(t.base_dist(2.into()), Some(3));
        assert_eq!(t.base_dist(3.into()), Some(6));
        assert_eq!(t.source(), 0.into());
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn unreachable_node() {
        let mut g = line(3);
        let iso = g.add_node();
        let t = spt(&g, 0);
        assert!(!t.reachable(iso));
        assert_eq!(t.base_dist(iso), None);
        assert_eq!(t.perturbed_dist(iso), None);
        assert_eq!(t.path_to(iso), None);
    }

    #[test]
    fn path_reconstruction() {
        let g = line(4);
        let t = spt(&g, 0);
        let p = t.path_to(3.into()).unwrap();
        assert_eq!(p.source(), 0.into());
        assert_eq!(p.target(), 3.into());
        assert_eq!(p.hop_count(), 3);
        assert_eq!(
            p.nodes(),
            &[0usize.into(), 1usize.into(), 2usize.into(), 3usize.into()] as &[NodeId]
        );
        let src = t.path_to(0.into()).unwrap();
        assert!(src.is_trivial());
    }

    #[test]
    fn parents_and_tree_steps() {
        let g = line(3);
        let t = spt(&g, 0);
        assert_eq!(t.parent_node(0.into()), None);
        assert_eq!(t.parent_edge(0.into()), None);
        assert_eq!(t.parent_node(2.into()), Some(1.into()));
        let e = t.parent_edge(2.into()).unwrap();
        assert!(t.is_tree_step(1.into(), e, 2.into()));
        assert!(!t.is_tree_step(0.into(), e, 2.into()));
    }

    #[test]
    fn subtree_below_a_node() {
        let g = line(4);
        let t = spt(&g, 0);
        let mut sub = t.subtree(1.into());
        sub.sort();
        assert_eq!(sub, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        let mut g2 = line(2);
        let iso = g2.add_node();
        let t2 = spt(&g2, 0);
        assert!(t2.subtree(iso).is_empty());
    }

    #[test]
    fn tree_distances_match_the_path_cost() {
        let g = line(3);
        let t = spt(&g, 0);
        let c = t
            .path_to(2.into())
            .unwrap()
            .cost(&g, &CostModel::new(Metric::Weighted, 11));
        assert_eq!(t.base_dist(2.into()), Some(c.base));
        assert_eq!(t.perturbed_dist(2.into()), Some(c.perturbed));
        assert_eq!(c.hops, 2);
    }

    #[test]
    fn compatibility_and_size() {
        let g = line(3);
        let t = spt(&g, 0);
        assert!(t.compatible_with(&g));
        assert!(!t.compatible_with(&line(4)));
        assert_eq!(t.approx_bytes(), 3 * TREE_BYTES_PER_NODE);
    }
}
