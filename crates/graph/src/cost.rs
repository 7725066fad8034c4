//! Cost models: the weighted/unweighted metric and the deterministic
//! realization of the paper's "infinitesimal padding".
//!
//! Theorem 3 of the RBPC paper selects a base set with *exactly one*
//! shortest path per pair by padding each edge weight with an infinitesimal
//! so that shortest paths become unique. We realize that padding exactly:
//! the perturbed cost of an edge is
//!
//! ```text
//! ŵ(e) = (w(e) as u128) << 64  |  (splitmix64(seed ^ (e + 1)) >> 20)
//! ```
//!
//! The 44-bit padding guarantees that summing it along any path of fewer
//! than 2^20 hops stays below 2^64 and never carries into the base-weight
//! bits, so a path with smaller *original* cost always has smaller
//! perturbed cost. Ties in the original metric are broken by the
//! pseudo-random low bits, making shortest paths unique except with
//! negligible probability — the computational analogue of infinitesimal
//! padding.

use crate::{EdgeId, Graph};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Distance metric used by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Use the configured OSPF-style link weights (the paper's
    /// "ISP, Weighted" rows).
    #[default]
    Weighted,
    /// Charge 1 per hop regardless of configured weights (the paper's
    /// "Unweighted" rows, where Theorem 1 applies).
    Unweighted,
}

impl Metric {
    /// The base (unperturbed) cost this metric assigns to edge `e`.
    #[inline]
    pub fn base_weight(self, graph: &Graph, e: EdgeId) -> u64 {
        match self {
            Metric::Weighted => u64::from(graph.weight(e)),
            Metric::Unweighted => 1,
        }
    }
}

/// SplitMix64 — the small, high-quality 64-bit mixer used to derive
/// per-edge padding deterministically from a seed.
///
/// ```
/// use rbpc_graph::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(7), splitmix64(7));
/// ```
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The hasher of the workspace's maps keyed by small integer ids
/// ([`NodeId`](crate::NodeId), [`EdgeId`], MPLS labels and tuples of them).
/// Each word costs one rotate, xor and multiply (the FxHash step), where
/// the standard SipHash runs several rounds per key.
///
/// It is not collision-resistant against chosen keys, which is fine for
/// ids the process allocates itself. Its iteration order is an artifact
/// of the mixing, so a map hashed by it serves lookups only: nothing may
/// iterate one where the order could reach an output.
///
/// ```
/// use rbpc_graph::{IdMap, NodeId};
/// let mut m: IdMap<(NodeId, NodeId), u32> = IdMap::default();
/// m.insert((NodeId::new(1), NodeId::new(2)), 7);
/// assert_eq!(m.get(&(NodeId::new(1), NodeId::new(2))), Some(&7));
/// assert_eq!(m.get(&(NodeId::new(2), NodeId::new(1))), None);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The cost of a path under a [`CostModel`]: the original-metric cost, the
/// tie-broken perturbed cost, and the hop count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PathCost {
    /// Sum of base weights along the path (what the paper reports).
    pub base: u64,
    /// Sum of perturbed weights (used only for unique tie-breaking).
    pub perturbed: u128,
    /// Number of edges on the path.
    pub hops: u32,
}

impl PathCost {
    /// The zero cost (an empty path).
    pub const ZERO: PathCost = PathCost {
        base: 0,
        perturbed: 0,
        hops: 0,
    };

    /// Adds one edge's cost to this accumulated cost.
    #[inline]
    pub fn plus_edge(self, model: &CostModel, graph: &Graph, e: EdgeId) -> PathCost {
        PathCost {
            base: self.base + model.base_weight(graph, e),
            perturbed: self.perturbed + model.perturbed_weight(graph, e),
            hops: self.hops + 1,
        }
    }
}

/// A metric plus a perturbation seed: everything needed to evaluate edge
/// and path costs with unique tie-breaking.
///
/// Two `CostModel`s with the same metric and seed produce identical
/// perturbations, so independently computed shortest-path trees agree on
/// which of several equal-cost paths is "the" base path — the property the
/// greedy decomposition of §4.1 of the paper relies on.
///
/// ```
/// use rbpc_graph::{CostModel, Graph, Metric};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(2);
/// let e = g.add_edge(0, 1, 7)?;
/// let m = CostModel::new(Metric::Weighted, 1);
/// assert_eq!(m.base_weight(&g, e), 7);
/// assert_eq!(m.perturbed_weight(&g, e) >> 64, 7);
/// let u = CostModel::new(Metric::Unweighted, 1);
/// assert_eq!(u.base_weight(&g, e), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    metric: Metric,
    seed: u64,
}

impl CostModel {
    /// Bits of per-edge padding entropy. `2^(64 - PAD_BITS)` bounds the
    /// supported path length (in hops) without padding overflow.
    pub const PAD_BITS: u32 = 44;

    /// Maximum supported number of nodes per graph, implied by
    /// [`CostModel::PAD_BITS`]: a simple path has at most `n − 1` hops.
    pub const MAX_NODES: usize = 1 << (64 - Self::PAD_BITS);

    /// Creates a cost model with the given metric and perturbation seed.
    pub fn new(metric: Metric, seed: u64) -> Self {
        CostModel { metric, seed }
    }

    /// The metric in use.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The perturbation seed in use.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Base (original-metric) weight of edge `e`.
    #[inline]
    pub fn base_weight(&self, graph: &Graph, e: EdgeId) -> u64 {
        self.metric.base_weight(graph, e)
    }

    /// Perturbed weight of edge `e`: base weight in the high 64 bits,
    /// deterministic pseudo-random padding in the low 64 bits.
    ///
    /// The padding is truncated to 44 bits so that summing it along any
    /// path of fewer than 2^20 hops stays below 2^64 and can never carry
    /// into the base-weight bits — the "infinitesimal" property. Graphs in
    /// this crate family are therefore limited to 2^20 nodes (the paper's
    /// largest network has 40 377).
    #[inline]
    pub fn perturbed_weight(&self, graph: &Graph, e: EdgeId) -> u128 {
        let base = u128::from(self.metric.base_weight(graph, e));
        let pad = splitmix64(self.seed ^ (e.index() as u64 + 1)) >> (64 - Self::PAD_BITS);
        (base << 64) | u128::from(pad)
    }

    /// Cost of a path given as an edge sequence.
    pub fn path_cost(&self, graph: &Graph, edges: &[EdgeId]) -> PathCost {
        edges
            .iter()
            .fold(PathCost::ZERO, |acc, &e| acc.plus_edge(self, graph, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_route_graph() -> (Graph, Vec<EdgeId>) {
        // 0 -1- 1 -1- 2   and   0 -2- 2 : equal total weight (2) both ways.
        let mut g = Graph::new(3);
        let e = vec![
            g.add_edge(0, 1, 1).unwrap(),
            g.add_edge(1, 2, 1).unwrap(),
            g.add_edge(0, 2, 2).unwrap(),
        ];
        (g, e)
    }

    #[test]
    fn perturbed_preserves_base_order() {
        let (g, e) = two_route_graph();
        let m = CostModel::new(Metric::Weighted, 99);
        // Path of base cost 2 always beats any path of base cost 3.
        let cheap = m.perturbed_weight(&g, e[2]);
        let expensive = m.perturbed_weight(&g, e[0])
            + m.perturbed_weight(&g, e[1])
            + m.perturbed_weight(&g, e[2]);
        assert!(cheap < expensive);
    }

    #[test]
    fn equal_base_paths_get_strict_order() {
        let (g, e) = two_route_graph();
        let m = CostModel::new(Metric::Weighted, 7);
        let via1 = m.perturbed_weight(&g, e[0]) + m.perturbed_weight(&g, e[1]);
        let direct = m.perturbed_weight(&g, e[2]);
        assert_eq!(via1 >> 64, direct >> 64); // same base cost...
        assert_ne!(via1, direct); // ...but strictly ordered after padding
    }

    #[test]
    fn deterministic_across_models() {
        let (g, e) = two_route_graph();
        let a = CostModel::new(Metric::Weighted, 5);
        let b = CostModel::new(Metric::Weighted, 5);
        let c = CostModel::new(Metric::Weighted, 6);
        assert_eq!(a.perturbed_weight(&g, e[0]), b.perturbed_weight(&g, e[0]));
        assert_ne!(a.perturbed_weight(&g, e[0]), c.perturbed_weight(&g, e[0]));
    }

    #[test]
    fn unweighted_charges_one_per_hop() {
        let (g, e) = two_route_graph();
        let m = CostModel::new(Metric::Unweighted, 0);
        assert_eq!(m.base_weight(&g, e[2]), 1);
        let cost = m.path_cost(&g, &[e[0], e[1]]);
        assert_eq!(cost.base, 2);
        assert_eq!(cost.hops, 2);
    }

    #[test]
    fn path_cost_accumulates() {
        let (g, e) = two_route_graph();
        let m = CostModel::new(Metric::Weighted, 3);
        let c = m.path_cost(&g, &[e[0], e[1]]);
        assert_eq!(c.base, 2);
        assert_eq!(c.hops, 2);
        assert_eq!(
            c.perturbed,
            m.perturbed_weight(&g, e[0]) + m.perturbed_weight(&g, e[1])
        );
        assert_eq!(m.path_cost(&g, &[]), PathCost::ZERO);
    }

    #[test]
    fn splitmix_spreads() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(splitmix64(i));
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn id_hasher_separates_ordered_pairs() {
        use crate::NodeId;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut seen = std::collections::HashSet::new();
        for s in 0..300 {
            for t in 0..300 {
                seen.insert(build.hash_one((NodeId::new(s), NodeId::new(t))));
            }
        }
        assert_eq!(seen.len(), 300 * 300);
        let mut a = IdHasher::default();
        a.write_u32(9);
        let mut b = IdHasher::default();
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }
}
