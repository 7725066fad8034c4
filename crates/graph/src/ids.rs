//! Strongly-typed node and edge identifiers.

use core::fmt;

/// Identifier of a node (router) in a [`Graph`](crate::Graph).
///
/// Node ids are dense indices in `0..graph.node_count()`.
///
/// ```
/// use rbpc_graph::NodeId;
/// let v = NodeId::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(v.to_string(), "n7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected edge (link) in a [`Graph`](crate::Graph).
///
/// Edge ids are dense indices in `0..graph.edge_count()`, assigned in
/// insertion order. Parallel edges receive distinct ids.
///
/// ```
/// use rbpc_graph::EdgeId;
/// let e = EdgeId::new(3);
/// assert_eq!(e.index(), 3);
/// assert_eq!(e.to_string(), "e3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(index as u32)
    }

    /// Returns the raw index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for EdgeId {
    #[inline]
    fn from(index: usize) -> Self {
        EdgeId::new(index)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_round_trip() {
        for i in [0usize, 1, 17, 1_000_000] {
            assert_eq!(NodeId::new(i).index(), i);
            assert_eq!(NodeId::from(i).index(), i);
        }
    }

    #[test]
    fn edge_id_round_trip() {
        for i in [0usize, 1, 17, 1_000_000] {
            assert_eq!(EdgeId::new(i).index(), i);
            assert_eq!(EdgeId::from(i).index(), i);
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(9));
        let set: HashSet<NodeId> = [1, 2, 2, 3].iter().map(|&i| NodeId::new(i)).collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId::new(5)), "n5");
        assert_eq!(format!("{:?}", EdgeId::new(5)), "e5");
    }
}
