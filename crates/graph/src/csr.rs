//! Compressed-sparse-row graph core and scratch-arena Dijkstra.
//!
//! The general-purpose [`Graph`] stores adjacency as `Vec<Vec<(NodeId,
//! EdgeId)>>` — one heap allocation per node — and every Dijkstra call
//! re-derives perturbed edge costs via `splitmix64` and allocates three
//! fresh working arrays. That is fine for one restoration, but the RBPC
//! provisioning phase runs *n* Dijkstras (one per source), and the eval
//! suites run thousands more. This module is the batch-friendly form of the
//! same computation:
//!
//! * [`CsrGraph`] — adjacency flattened into an `offsets` array plus one
//!   packed 32-byte record per half-edge (neighbor, edge id, and the
//!   perturbed `u128` cost of a fixed [`CostModel`] **precomputed**), so
//!   the relaxation inner loop streams one contiguous block per node with
//!   no hashing and no mixing;
//! * [`FailureMask`] — a bitset mirror of [`FailureSet`] so the masked
//!   traversal tests a bit instead of probing two ordered sets per half-edge;
//! * [`DijkstraScratch`] — a reusable arena holding one 32-byte working
//!   record per node (so a relaxation touches one cache line, not four
//!   parallel arrays) plus a queue of `u32` node ids bucketed by base
//!   distance (the `level` module, which the repair kernel shares), with
//!   epoch-stamped visited marks so resetting between runs is O(1);
//! * [`CsrGraph::repair_tree`] / [`CsrGraph::repair_path`] /
//!   [`CsrGraph::resume_path`] — the failure-repair kernel every
//!   restoration runs: it re-settles only the subtrees a failure detaches
//!   from a provisioned tree, with a target stops once the target
//!   settles, and under a [`TreeOwner`] resumes the last run of the same
//!   tree and failures (see the `repair` module);
//! * [`CsrGraph::longest_tree_prefix`] — how far a path follows the tree
//!   of one of its nodes, from a Dijkstra that stops once the answer is
//!   known (greedy decomposition's question on a store that does not
//!   hold that tree), sharing [`CsrGraph::point_to_point`]'s settle loop;
//! * [`batch`] — the batched multi-source kernel ([`SptBatchScratch`],
//!   [`CsrGraph::full_tree_batch`]) for provisioning sweeps, where one
//!   scratch serves a whole batch of sources: a unit-weight batch sweeps
//!   two level queues over a compacted adjacency, and any other batch
//!   runs the scalar loop per source.
//!
//! Determinism: the perturbed costs make shortest paths unique (see
//! [`CostModel`]), so the tree produced by [`CsrGraph::full_tree`] is
//! **bit-identical** to [`shortest_path_tree`](crate::shortest_path_tree)
//! over the same graph, model, and failures — regardless of traversal
//! order, scratch reuse, or which thread ran it. The property test
//! `tests/csr_parallel.rs` at the repository root enforces this.

use crate::spt::{NO_EDGE, NO_NODE};
use crate::{CostModel, EdgeId, FailureSet, Graph, NodeId, Path, ShortestPathTree};
use level::LevelQueue;
use std::cell::RefCell;

pub mod batch;
mod level;
mod repair;

pub use batch::SptBatchScratch;
pub use repair::{RepairWork, TreeOwner};

/// A [`Graph`] + [`CostModel`] frozen into flat CSR arrays for batch
/// shortest-path computation.
///
/// Built once with [`CsrGraph::new`]; all subsequent queries are
/// allocation-free when a [`DijkstraScratch`] is reused.
///
/// ```
/// use rbpc_graph::{csr::{CsrGraph, DijkstraScratch}, CostModel, Graph, Metric};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 2)?;
/// g.add_edge(0, 2, 10)?;
/// let model = CostModel::new(Metric::Weighted, 0);
/// let csr = CsrGraph::new(&g, &model);
/// let mut scratch = DijkstraScratch::new(csr.node_count());
/// let spt = csr.full_tree(0.into(), &mut scratch);
/// assert_eq!(spt.base_dist(2.into()), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    n: usize,
    m: usize,
    /// `offsets[u] .. offsets[u + 1]` indexes the half-edges of node `u`.
    offsets: Vec<u32>,
    /// Packed half-edge records: one node's adjacency is one contiguous
    /// 32-bytes-per-edge block (rather than four parallel arrays), so
    /// scanning it streams a single cache-line run.
    half: Vec<HalfEdge>,
    /// Both endpoints of every undirected edge, so a repair finds the
    /// tree edges a failure cuts without scanning every node.
    ends: Vec<[u32; 2]>,
    model: CostModel,
}

/// One half-edge of the packed adjacency: the precomputed perturbed
/// weight plus the neighbor and undirected edge id. 24 bytes of data,
/// padded to 32 by the `u128`'s alignment.
#[derive(Debug, Clone, Copy)]
struct HalfEdge {
    /// Precomputed perturbed weight under the frozen [`CostModel`]; the
    /// high 64 bits are the base (original-metric) weight.
    weight: u128,
    /// Neighbor node of this half-edge.
    target: u32,
    /// Undirected edge id of this half-edge.
    edge: u32,
}

/// The base (original-metric) half of a perturbed distance: the key of
/// the kernels' [`LevelQueue`]. Base distances stay below 2⁵² (fewer
/// than 2²⁰ hops of `u32` weights), so nothing is cut off.
#[inline]
fn level_of(dist: u128) -> u64 {
    (dist >> 64) as u64
}

impl CsrGraph {
    /// Flattens `graph` under `model`, precomputing perturbed costs.
    ///
    /// Half-edges keep the insertion order of [`Graph::neighbors`], so
    /// traversal order matches the `Vec<Vec>` path exactly (not that
    /// correctness needs it — perturbed costs are unique).
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds [`CostModel::MAX_NODES`] nodes.
    pub fn new(graph: &Graph, model: &CostModel) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        assert!(
            n <= CostModel::MAX_NODES,
            "graphs are limited to {} nodes (padding overflow)",
            CostModel::MAX_NODES
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut half = Vec::with_capacity(2 * m);
        offsets.push(0);
        for u in graph.nodes() {
            for h in graph.neighbors(u) {
                half.push(HalfEdge {
                    weight: model.perturbed_weight(graph, h.edge),
                    target: h.to.index() as u32,
                    edge: h.edge.index() as u32,
                });
            }
            offsets.push(half.len() as u32);
        }
        let ends = graph
            .edges()
            .map(|(_, r)| [r.u.index() as u32, r.v.index() as u32])
            .collect();
        CsrGraph {
            n,
            m,
            offsets,
            half,
            ends,
            model: *model,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The cost model the weights were precomputed under.
    #[inline]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The packed half-edges of node `u`.
    #[inline]
    fn half_edges(&self, u: usize) -> &[HalfEdge] {
        &self.half[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Structural self-check of the CSR arrays: offsets are monotone and
    /// cover exactly `2m` half-edges, every half-edge is in range, every
    /// undirected edge id appears exactly twice with mirrored endpoints
    /// and identical weights, and every perturbed weight carries a
    /// non-zero base weight in the high 64 bits (hence is at least `2^64`
    /// — the padding discipline Theorem 3's uniqueness argument and the
    /// base-distance level queues all rely on).
    ///
    /// O(n + m); intended for `debug_assert!` and the validation
    /// harnesses (`rbpc-eval validate`, `tests/csr_parallel.rs`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let (n, m) = (self.n, self.m);
        if self.offsets.len() != n + 1 {
            return Err(format!(
                "offsets has length {}, expected {}",
                self.offsets.len(),
                n + 1
            ));
        }
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".to_string());
        }
        if let Some(u) = (0..n).find(|&u| self.offsets[u] > self.offsets[u + 1]) {
            return Err(format!("offsets decrease at node {u}"));
        }
        if self.offsets[n] as usize != self.half.len() || self.half.len() != 2 * m {
            return Err(format!(
                "half-edge count {} does not cover offsets end {} = 2m = {}",
                self.half.len(),
                self.offsets[n],
                2 * m
            ));
        }
        // (from, to, weight) per appearance of each undirected edge.
        let mut twins: Vec<Vec<(u32, u32, u128)>> = vec![Vec::new(); m];
        for u in 0..n {
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for he in &self.half[lo..hi] {
                if he.target as usize >= n {
                    return Err(format!(
                        "half-edge of {u} targets out-of-range {}",
                        he.target
                    ));
                }
                if he.edge as usize >= m {
                    return Err(format!(
                        "half-edge of {u} names out-of-range edge {}",
                        he.edge
                    ));
                }
                if he.weight >> 64 == 0 {
                    return Err(format!(
                        "edge {} has zero base weight in the high 64 bits of its \
                         perturbed weight (so it is not >= 2^64-padded)",
                        he.edge
                    ));
                }
                twins[he.edge as usize].push((u as u32, he.target, he.weight));
            }
        }
        for (e, t) in twins.iter().enumerate() {
            if t.len() != 2 {
                return Err(format!("edge {e} has {} half-edges, expected 2", t.len()));
            }
            let ((f1, t1, w1), (f2, t2, w2)) = (t[0], t[1]);
            if t1 != f2 || t2 != f1 {
                return Err(format!("edge {e} half-edges do not mirror each other"));
            }
            if w1 != w2 {
                return Err(format!("edge {e} half-edges disagree on weight"));
            }
            if !matches!(self.ends.get(e), Some(&x) if x == [f1, t1] || x == [t1, f1]) {
                return Err(format!(
                    "edge {e} endpoint record does not match its half-edges"
                ));
            }
        }
        Ok(())
    }

    /// Full consistency check of a tree against this graph (and optional
    /// mask): structure (via
    /// [`ShortestPathTree::validate_structure`]), parent edges that really
    /// exist unmasked with exactly matching distance sums, failed nodes
    /// unreachable, no live edge left relaxable (optimality), and — the
    /// perturbation discipline's signature — **no ties**: any live edge
    /// that exactly achieves a node's distance must *be* that node's
    /// parent edge, otherwise two distinct shortest paths coexist and
    /// Theorem 3's uniqueness is broken.
    ///
    /// O(n + m); intended for `debug_assert!` and the validation
    /// harnesses.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_tree(
        &self,
        tree: &ShortestPathTree,
        mask: Option<&FailureMask>,
    ) -> Result<(), String> {
        tree.validate_structure()?;
        if tree.node_count() != self.n {
            return Err(format!(
                "tree covers {} nodes, graph has {}",
                tree.node_count(),
                self.n
            ));
        }
        if let Some(msk) = mask {
            if msk.n != self.n || msk.m != self.m {
                return Err("failure mask dimensions do not match the graph".to_string());
            }
        }
        let masked = |e: u32, v: u32| mask.is_some_and(|m| m.half_edge_masked(e, v));
        let node_dead = |v: usize| mask.is_some_and(|m| m.node_failed(NodeId::new(v)));
        let src = tree.source().index();
        if node_dead(src) {
            if let Some(v) = (0..self.n).find(|&v| tree.reachable(NodeId::new(v))) {
                return Err(format!("source {src} failed but node {v} is reachable"));
            }
            return Ok(());
        }
        if !tree.reachable(tree.source()) {
            return Err(format!("live source {src} is unreachable in its own tree"));
        }
        for u in 0..self.n {
            if node_dead(u) {
                if tree.reachable(NodeId::new(u)) {
                    return Err(format!("failed node {u} is reachable"));
                }
                continue;
            }
            if !tree.reachable(NodeId::new(u)) {
                continue;
            }
            let du = tree.dist[u];
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for he in &self.half[lo..hi] {
                let v = he.target as usize;
                if masked(he.edge, he.target) {
                    continue;
                }
                if !tree.reachable(NodeId::new(v)) {
                    return Err(format!(
                        "edge {} reaches node {v} from settled {u}, yet {v} is unreachable",
                        he.edge
                    ));
                }
                let nd = du + he.weight;
                let dv = tree.dist[v];
                if nd < dv {
                    return Err(format!(
                        "edge {} from {u} improves node {v}: tree is not optimal",
                        he.edge
                    ));
                }
                if nd == dv && (tree.parent_node[v] != u as u32 || tree.parent_edge[v] != he.edge) {
                    return Err(format!(
                        "edge {} from {u} ties node {v}'s distance without being its \
                         parent edge: perturbed shortest paths are not unique",
                        he.edge
                    ));
                }
            }
        }
        // Parent edges must exist in the adjacency, unmasked, with sums
        // that match exactly (not just non-improving). The perturbed sum
        // implies the base sum: pads never carry into the high 64 bits.
        for v in 0..self.n {
            if !tree.reachable(NodeId::new(v)) || v == src {
                continue;
            }
            let (pe, pu) = (tree.parent_edge[v], tree.parent_node[v] as usize);
            if masked(pe, v as u32) {
                return Err(format!("node {v}'s parent edge {pe} is masked"));
            }
            let (lo, hi) = (self.offsets[pu] as usize, self.offsets[pu + 1] as usize);
            let Some(he) = self.half[lo..hi]
                .iter()
                .find(|he| he.edge == pe && he.target as usize == v)
            else {
                return Err(format!(
                    "node {v}'s parent edge {pe} does not exist from parent {pu}"
                ));
            };
            if tree.dist[v] != tree.dist[pu] + he.weight {
                return Err(format!(
                    "node {v}'s distance is not parent {pu}'s plus edge {pe}"
                ));
            }
        }
        Ok(())
    }

    /// Computes the full shortest-path tree from `source`, reusing
    /// `scratch`. Bit-identical to
    /// [`shortest_path_tree`](crate::shortest_path_tree) on the source
    /// graph and model.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn full_tree(&self, source: NodeId, scratch: &mut DijkstraScratch) -> ShortestPathTree {
        self.full_tree_masked(source, None, scratch)
    }

    /// [`CsrGraph::full_tree`] with an optional failure mask applied —
    /// the CSR analogue of running over a
    /// [`FailureView`](crate::FailureView).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `mask` was built for
    /// different graph dimensions.
    pub fn full_tree_masked(
        &self,
        source: NodeId,
        mask: Option<&FailureMask>,
        scratch: &mut DijkstraScratch,
    ) -> ShortestPathTree {
        assert!(source.index() < self.n, "source {source} out of range");
        if let Some(m) = mask {
            m.check_dims(self.n, self.m);
        }
        if mask.is_some_and(|m| m.node_failed(source)) {
            return ShortestPathTree::unreachable(source, self.n);
        }
        // Monomorphize the settle loop per mask-ness: the unmasked copy
        // compiles the predicate away entirely.
        let s = source.index();
        match mask {
            Some(m) => self.settle_until(s, scratch, |e, v| m.half_edge_masked(e, v), |_, _| false),
            None => self.settle_until(s, scratch, |_, _| false, |_, _| false),
        };

        // Harvest: after a full run every touched node is settled, so the
        // odd stamp alone separates reached from unreachable. One
        // sequential pass writes each output element exactly once.
        let n = self.n;
        let done = scratch.epoch + 1;
        let mut dist = Vec::with_capacity(n);
        let mut parent_edge = Vec::with_capacity(n);
        let mut parent_node = Vec::with_capacity(n);
        for rec in &scratch.nodes[..n] {
            if rec.stamp == done {
                dist.push(rec.dist);
                parent_edge.push(rec.parent_edge);
                parent_node.push(rec.parent_node);
            } else {
                dist.push(u128::MAX);
                parent_edge.push(NO_EDGE);
                parent_node.push(NO_NODE);
            }
        }
        ShortestPathTree::from_arrays(source, dist, parent_edge, parent_node)
    }

    /// Single-pair shortest path with early exit once `t` settles, reusing
    /// `scratch`. Returns the same unique path as
    /// [`shortest_path`](crate::shortest_path), or `None` if disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn point_to_point(
        &self,
        s: NodeId,
        t: NodeId,
        mask: Option<&FailureMask>,
        scratch: &mut DijkstraScratch,
    ) -> Option<Path> {
        assert!(s.index() < self.n, "source {s} out of range");
        assert!(t.index() < self.n, "target {t} out of range");
        if let Some(m) = mask {
            m.check_dims(self.n, self.m);
            if m.node_failed(s) || m.node_failed(t) {
                return None;
            }
        }
        if s == t {
            return Some(Path::trivial(s));
        }
        match mask {
            Some(m) => self.point_to_point_inner(s, t, scratch, |e, v| m.half_edge_masked(e, v)),
            None => self.point_to_point_inner(s, t, scratch, |_, _| false),
        }
    }

    /// The point-to-point search: [`CsrGraph::settle_until`] stopping at
    /// `t`, then the parent chain read back from the scratch.
    fn point_to_point_inner<F: Fn(u32, u32) -> bool>(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut DijkstraScratch,
        masked: F,
    ) -> Option<Path> {
        let ti = t.index();
        if !self.settle_until(s.index(), scratch, masked, |u, _| u == ti) {
            return None;
        }

        // Walk the parent chain back from `t` (cold: runs once per query).
        let recs = &scratch.nodes;
        let mut nodes = vec![t];
        let mut edges = Vec::new();
        let mut at = ti;
        while recs[at].parent_node != NO_NODE {
            edges.push(EdgeId::new(recs[at].parent_edge as usize));
            let pn = recs[at].parent_node as usize;
            nodes.push(NodeId::new(pn));
            at = pn;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path::from_parts_unchecked(nodes, edges))
    }

    /// How far `path` runs along the canonical shortest-path tree of its
    /// node `from` over the unfailed graph: the largest `j ≥ from` such
    /// that every hop of `path[from..=j]` is a tree step, plus the number
    /// of nodes the search settled.
    ///
    /// The answer equals walking [`ShortestPathTree::is_tree_step`] over
    /// [`full_tree`](CsrGraph::full_tree) of `path.nodes()[from]`, but the
    /// Dijkstra stops at the first of: the path's next node settling
    /// with a parent node or edge other than the path's; the last node
    /// being accepted; the path's next node having settled already when
    /// the prefix advanced (the node just accepted settled first, so it
    /// cannot be that node's tree parent). Padded costs make every
    /// shortest path unique, so a node's parent is final once it settles
    /// and the early answer is exact. Greedy decomposition asks exactly
    /// this question of a tree it does not hold.
    ///
    /// Runs on this thread's scratch, allocating nothing once it has
    /// grown to the graph.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for the path or the path names a
    /// node outside this graph.
    pub fn longest_tree_prefix(&self, path: &Path, from: usize) -> (usize, usize) {
        let (nodes, edges) = (path.nodes(), path.edges());
        assert!(from < nodes.len(), "from out of range");
        let source = nodes[from].index();
        assert!(source < self.n, "source {source} out of range");
        let last = nodes.len() - 1;
        if from == last {
            return (from, 0);
        }
        with_scratch(|scratch| {
            let before = scratch.settled_total;
            let mut j = from;
            self.settle_until(
                source,
                scratch,
                |_, _| false,
                |u, run| {
                    if u != nodes[j + 1].index() {
                        return false;
                    }
                    let step = (nodes[j].index() as u32, edges[j].index() as u32);
                    if run.parent(u) != step {
                        return true;
                    }
                    j += 1;
                    j == last || run.settled(nodes[j + 1].index())
                },
            );
            (j, (scratch.settled_total - before) as usize)
        })
    }

    /// The one scalar settle loop, behind [`CsrGraph::full_tree_masked`]
    /// (whose `stop` never fires), [`CsrGraph::point_to_point`] and
    /// [`CsrGraph::longest_tree_prefix`]: Dijkstra from `s` in `scratch`,
    /// keeping distances and parents only, generic over the half-edge
    /// mask predicate. Each node `u` is handed to `stop(u, run)` as it
    /// settles, before its edges are relaxed; the search ends as soon as
    /// `stop` returns true. Returns whether it did, or `false` once every
    /// reachable node settled. Either way `scratch` holds this run's
    /// records.
    ///
    /// The frontier is the scratch's [`LevelQueue`], keyed by base
    /// distance: a pad-only improvement rewrites the record in place, and
    /// an exact tie (`nd` equal to a touched node's distance) is counted
    /// in [`DijkstraScratch::ties_total`].
    fn settle_until<F, S>(
        &self,
        s: usize,
        scratch: &mut DijkstraScratch,
        masked: F,
        mut stop: S,
    ) -> bool
    where
        F: Fn(u32, u32) -> bool,
        S: FnMut(usize, Settled<'_>) -> bool,
    {
        scratch.begin(self.n);
        let ep = scratch.epoch;
        let ep_done = ep + 1;
        let DijkstraScratch {
            nodes: recs,
            queue,
            settled_total,
            ties_total,
            ..
        } = scratch;
        recs[s] = NodeRec {
            dist: 0,
            stamp: ep,
            parent_node: NO_NODE,
            parent_edge: NO_EDGE,
        };
        queue.begin(0);
        queue.push(0, s as u32);

        // lint:hot: the settle loop of every scalar search. The cold stop
        // exit drops out of the region so the caller can read the records
        // freely.
        while let Some(un) = queue.pop(|v, lvl| {
            let rec = &recs[v as usize];
            rec.stamp == ep && level_of(rec.dist) == lvl
        }) {
            let u = un as usize;
            let d = recs[u].dist;
            recs[u].stamp = ep_done;
            *settled_total += 1;
            let run = Settled {
                recs,
                done: ep_done,
            };
            if stop(u, run) {
                return true;
            }
            // lint:allow(hot-path) — `offsets` has n+1 entries, so `u + 1` is in bounds for every settled node id
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for he in &self.half[lo..hi] {
                let vt = he.target;
                let rec = &mut recs[vt as usize];
                if rec.stamp == ep_done || masked(he.edge, vt) {
                    continue;
                }
                let nd = d + he.weight;
                let first = rec.stamp != ep;
                if first || nd < rec.dist {
                    // Queue the node unless only pad bits improved: its
                    // entry at this level is still live.
                    let lower = first || level_of(nd) < level_of(rec.dist);
                    *rec = NodeRec {
                        dist: nd,
                        stamp: ep,
                        parent_node: un,
                        parent_edge: he.edge,
                    };
                    if lower {
                        // lint:allow(hot-path) — the queue's buckets keep their capacity across runs; pushes are amortized alloc-free
                        queue.push(level_of(nd), vt);
                    }
                } else if nd == rec.dist {
                    *ties_total += 1;
                }
            }
        }
        false
    }
}

/// A [`CsrGraph::settle_until`] run as its stop callback sees it.
struct Settled<'a> {
    recs: &'a [NodeRec],
    /// The settled stamp of this run.
    done: u32,
}

impl Settled<'_> {
    /// Whether `v` has settled in this run.
    #[inline]
    fn settled(&self, v: usize) -> bool {
        self.recs[v].stamp == self.done
    }

    /// `(parent node, parent edge)` of `v` as last relaxed — final once
    /// `v` has settled.
    #[inline]
    fn parent(&self, v: usize) -> (u32, u32) {
        (self.recs[v].parent_node, self.recs[v].parent_edge)
    }
}

/// Runs `f` with this thread's [`DijkstraScratch`] for
/// [`CsrGraph::longest_tree_prefix`]; a re-entrant call gets a fresh one
/// instead of panicking.
fn with_scratch<R>(f: impl FnOnce(&mut DijkstraScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new(0));
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DijkstraScratch::new(0)),
    })
}

/// Bitset mirror of a [`FailureSet`] sized to one [`CsrGraph`]: the masked
/// traversal tests one bit per half-edge instead of probing hash sets.
///
/// A failed node masks itself and (by the endpoint check in the traversal)
/// every incident half-edge, matching [`FailureView`](crate::FailureView)
/// semantics.
#[derive(Debug, Clone)]
pub struct FailureMask {
    n: usize,
    m: usize,
    edges: Vec<u64>,
    nodes: Vec<u64>,
}

#[inline]
fn bit_get(words: &[u64], i: u32) -> bool {
    words[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
}

/// Calls `f` with the index of every set bit, in increasing order.
fn for_each_bit(words: &[u64], mut f: impl FnMut(u32)) {
    for (i, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(((i as u32) << 6) | w.trailing_zeros());
            w &= w - 1;
        }
    }
}

#[inline]
fn bit_set(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1u64 << (i & 63);
}

impl FailureMask {
    /// An all-clear mask for a graph with `nodes` nodes and `edges` edges.
    pub fn new(nodes: usize, edges: usize) -> Self {
        FailureMask {
            n: nodes,
            m: edges,
            edges: vec![0; edges.div_ceil(64)],
            nodes: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Builds the mask equivalent of `set` for `csr`'s dimensions.
    pub fn from_set(csr: &CsrGraph, set: &FailureSet) -> Self {
        let mut mask = FailureMask::new(csr.node_count(), csr.edge_count());
        for e in set.failed_edges() {
            mask.fail_edge(e);
        }
        for v in set.failed_nodes() {
            mask.fail_node(v);
        }
        mask
    }

    /// Marks an edge as failed.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn fail_edge(&mut self, e: EdgeId) {
        assert!(e.index() < self.m, "edge {e} out of range");
        bit_set(&mut self.edges, e.index() as u32);
    }

    /// Marks a node (and implicitly its incident edges) as failed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn fail_node(&mut self, v: NodeId) {
        assert!(v.index() < self.n, "node {v} out of range");
        bit_set(&mut self.nodes, v.index() as u32);
    }

    /// Whether this node is failed.
    #[inline]
    pub fn node_failed(&self, v: NodeId) -> bool {
        bit_get(&self.nodes, v.index() as u32)
    }

    /// Whether this edge is explicitly failed (node failures not considered).
    #[inline]
    pub fn edge_failed(&self, e: EdgeId) -> bool {
        bit_get(&self.edges, e.index() as u32)
    }

    /// Traversal predicate: half-edge `edge → to` is unusable. The
    /// traversing endpoint is known alive (Dijkstra never enters a failed
    /// node), so checking `to` covers both endpoints.
    #[inline]
    fn half_edge_masked(&self, edge: u32, to: u32) -> bool {
        bit_get(&self.edges, edge) || bit_get(&self.nodes, to)
    }

    fn check_dims(&self, n: usize, m: usize) {
        assert!(
            self.n == n && self.m == m,
            "failure mask built for {}x{} applied to a {n}x{m} graph",
            self.n,
            self.m
        );
    }
}

/// Per-node Dijkstra working record. Everything a relaxation reads or
/// writes for node `v` lives in this one 32-byte struct, so visiting a
/// node costs at most one cache line instead of four parallel-array
/// accesses (the array-of-structs layout is what makes the CSR engine
/// faster than the general path, which is memory-bound on exactly those
/// scattered accesses). Like a tree, it holds no base distance or hop
/// count: both follow from `dist` and the parent chain.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    dist: u128,
    /// Merged epoch stamp: `== epoch` ⇔ touched (`dist` valid this run),
    /// `== epoch + 1` ⇔ settled this run, anything else stale.
    stamp: u32,
    parent_node: u32,
    parent_edge: u32,
}

// Two records per cache line: a field that pushes the record past 32
// bytes fails the build.
const _: () = assert!(std::mem::size_of::<NodeRec>() == 32);

const EMPTY_REC: NodeRec = NodeRec {
    dist: 0,
    stamp: 0,
    parent_node: 0,
    parent_edge: 0,
};

/// Reusable Dijkstra working memory: one record per node plus a
/// base-distance level queue (see the `level` module) whose buckets keep
/// their capacity across runs, with epoch-stamped visited marks, so a
/// fresh run only bumps an epoch and empties the queue instead of
/// refilling O(n) arrays.
///
/// One scratch serves any number of runs over graphs up to its capacity
/// (it grows on demand). Not `Sync`: use one per thread (see
/// [`par_all_sources_csr`](crate::par::par_all_sources_csr)).
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    /// Current run stamp, always even; steps by 2 per run.
    epoch: u32,
    nodes: Vec<NodeRec>,
    queue: LevelQueue,
    runs: u64,
    settled_total: u64,
    ties_total: u64,
}

impl DijkstraScratch {
    /// A scratch arena with capacity for `n`-node graphs (grows on demand).
    pub fn new(n: usize) -> Self {
        DijkstraScratch {
            epoch: 0,
            nodes: vec![EMPTY_REC; n],
            queue: LevelQueue::default(),
            runs: 0,
            settled_total: 0,
            ties_total: 0,
        }
    }

    /// Prepares for a run over an `n`-node graph: bumps the epoch
    /// (handling wrap-around) and grows the records if needed; the run
    /// empties the queue itself.
    fn begin(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, EMPTY_REC);
        }
        self.epoch = self.epoch.wrapping_add(2);
        if self.epoch == 0 {
            // u32 wrapped after ~2 billion runs: old stamps could collide.
            self.nodes.iter_mut().for_each(|r| r.stamp = 0);
            self.epoch = 2;
        }
        self.runs += 1;
    }

    /// Number of runs served so far (reuses = `runs() - 1` for the first
    /// allocation).
    #[inline]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total nodes settled across all runs (perf accounting).
    #[inline]
    pub fn settled_total(&self) -> u64 {
        self.settled_total
    }

    /// Exact ties across all runs: relaxations whose distance equals the
    /// touched target's distance exactly, reached through a different
    /// parent. Padded costs make every shortest path unique, so this
    /// stays 0; a tie would make the settled tree depend on pop order.
    #[inline]
    pub fn ties_total(&self) -> u64 {
        self.ties_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path, shortest_path_tree, DetRng, Metric};

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

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        while g.edge_count() < m {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let w = rng.gen_range(1..=50u32);
                g.add_edge(a, b, w).unwrap();
            }
        }
        g
    }

    #[test]
    fn full_tree_matches_sequential() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        for s in g.nodes() {
            let want = shortest_path_tree(&g, &model, s);
            let got = csr.full_tree(s, &mut scratch);
            assert_eq!(got, want, "tree from {s}");
        }
        assert_eq!(scratch.runs(), 5);
        assert!(scratch.settled_total() >= 25);
    }

    #[test]
    fn full_tree_matches_sequential_random_reused_scratch() {
        let model = CostModel::new(Metric::Unweighted, 3);
        let mut scratch = DijkstraScratch::new(0);
        for seed in 0..4u64 {
            let g = random_graph(40, 90, seed);
            let csr = CsrGraph::new(&g, &model);
            for s in g.nodes() {
                let want = shortest_path_tree(&g, &model, s);
                let got = csr.full_tree(s, &mut scratch);
                assert_eq!(got, want, "seed {seed} source {s}");
            }
        }
    }

    #[test]
    fn masked_tree_matches_failure_view() {
        let g = random_graph(30, 70, 9);
        let model = CostModel::new(Metric::Weighted, 5);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        let mut rng = DetRng::seed_from_u64(42);
        for _ in 0..10 {
            let mut set = FailureSet::new();
            for _ in 0..3 {
                set.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
            }
            set.fail_node(NodeId::new(rng.gen_range(0..g.node_count())));
            let mask = FailureMask::from_set(&csr, &set);
            let view = set.view(&g);
            for s in g.nodes() {
                let want = shortest_path_tree(&view, &model, s);
                let got = csr.full_tree_masked(s, Some(&mask), &mut scratch);
                assert_eq!(got, want, "masked tree from {s}");
            }
        }
    }

    #[test]
    fn failed_source_is_all_unreachable() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 1);
        let csr = CsrGraph::new(&g, &model);
        let mut mask = FailureMask::new(csr.node_count(), csr.edge_count());
        mask.fail_node(0.into());
        let mut scratch = DijkstraScratch::new(csr.node_count());
        let t = csr.full_tree_masked(0.into(), Some(&mask), &mut scratch);
        for v in g.nodes() {
            assert!(!t.reachable(v));
        }
        assert_eq!(
            csr.point_to_point(0.into(), 4.into(), Some(&mask), &mut scratch),
            None
        );
        assert_eq!(
            csr.point_to_point(4.into(), 0.into(), Some(&mask), &mut scratch),
            None
        );
    }

    #[test]
    fn point_to_point_matches_sequential() {
        let g = random_graph(30, 70, 11);
        let model = CostModel::new(Metric::Weighted, 23);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        for s in g.nodes() {
            for t in g.nodes() {
                let want = shortest_path(&g, &model, s, t);
                let got = csr.point_to_point(s, t, None, &mut scratch);
                assert_eq!(got, want, "{s} -> {t}");
            }
        }
    }

    #[test]
    fn point_to_point_trivial_and_masked() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        let p = csr
            .point_to_point(2.into(), 2.into(), None, &mut scratch)
            .unwrap();
        assert!(p.is_trivial());
        // Fail 0-2; path to 2 must go 0-1-2 = 14, as in the dijkstra tests.
        let e = g.find_edge(0.into(), 2.into()).unwrap();
        let set = FailureSet::of_edge(e);
        let mask = FailureMask::from_set(&csr, &set);
        let p = csr
            .point_to_point(0.into(), 2.into(), Some(&mask), &mut scratch)
            .unwrap();
        assert_eq!(p.cost(&g, &model).base, 14);
        assert!(!p.contains_edge(e));
    }

    #[test]
    fn mask_mirrors_failure_set() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(3));
        set.fail_node(NodeId::new(4));
        let mask = FailureMask::from_set(&csr, &set);
        for e in g.edge_ids() {
            assert_eq!(mask.edge_failed(e), set.edge_failed(e), "edge {e}");
        }
        for v in g.nodes() {
            assert_eq!(mask.node_failed(v), set.node_failed(v), "node {v}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = sample();
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 0));
        let mut scratch = DijkstraScratch::new(csr.node_count());
        let _ = csr.full_tree(99.into(), &mut scratch);
    }

    #[test]
    #[should_panic(expected = "applied to a")]
    fn wrong_dims_mask_panics() {
        let g = sample();
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 0));
        let mask = FailureMask::new(2, 1);
        let mut scratch = DijkstraScratch::new(csr.node_count());
        let _ = csr.full_tree_masked(0.into(), Some(&mask), &mut scratch);
    }

    #[test]
    fn validate_accepts_real_graphs_and_trees() {
        let g = random_graph(30, 70, 5);
        let model = CostModel::new(Metric::Weighted, 13);
        let csr = CsrGraph::new(&g, &model);
        assert_eq!(csr.validate(), Ok(()));
        let mut scratch = DijkstraScratch::new(g.node_count());
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(4));
        set.fail_node(NodeId::new(7));
        let mask = FailureMask::from_set(&csr, &set);
        for s in g.nodes() {
            let t = csr.full_tree(s, &mut scratch);
            assert_eq!(csr.validate_tree(&t, None), Ok(()), "unmasked from {s}");
            let tm = csr.full_tree_masked(s, Some(&mask), &mut scratch);
            assert_eq!(
                csr.validate_tree(&tm, Some(&mask)),
                Ok(()),
                "masked from {s}"
            );
        }
    }

    #[test]
    fn validate_rejects_corrupted_graph() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let mut csr = CsrGraph::new(&g, &model);
        // Strip the base weight out of one perturbed weight: no longer
        // 2^64-padded.
        csr.half[0].weight &= (1u128 << 64) - 1;
        assert!(csr.validate().unwrap_err().contains("high 64 bits"));
        let mut csr = CsrGraph::new(&g, &model);
        csr.half[0].target = 99;
        assert!(csr.validate().unwrap_err().contains("out-of-range"));
        let mut csr = CsrGraph::new(&g, &model);
        csr.offsets[1] = csr.offsets[2] + 1;
        assert!(csr.validate().is_err());
        let mut csr = CsrGraph::new(&g, &model);
        csr.ends[0] = [0, 4];
        assert!(csr.validate().unwrap_err().contains("endpoint record"));
    }

    #[test]
    fn validate_tree_rejects_tampering() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        let good = csr.full_tree(0.into(), &mut scratch);

        // An inflated distance leaves a relaxable edge (not optimal).
        let mut t = good.clone();
        t.dist[4] += 1u128 << 64;
        assert!(csr.validate_tree(&t, None).is_err());

        // Rerouting a node to a non-tree parent breaks the distance sum.
        let mut t = good.clone();
        t.parent_node[4] = 2;
        t.parent_edge[4] = 6; // edge 2-4 exists but is not on the tree path
        assert!(csr.validate_tree(&t, None).is_err());

        // A structural hole: reachable node whose parent link is cleared.
        let mut t = good.clone();
        t.parent_edge[3] = NO_EDGE;
        t.parent_node[3] = NO_NODE;
        assert!(t.validate_structure().is_err());
        assert!(csr.validate_tree(&t, None).is_err());

        // A masked tree must not use the masked edge.
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(1)); // 0-2
        let mask = FailureMask::from_set(&csr, &set);
        assert!(csr.validate_tree(&good, Some(&mask)).is_err());
        let masked = csr.full_tree_masked(0.into(), Some(&mask), &mut scratch);
        assert_eq!(csr.validate_tree(&masked, Some(&mask)), Ok(()));
    }

    #[test]
    fn scalar_queue_capacity_is_stable() {
        let g = random_graph(80, 220, 13);
        let model = CostModel::new(Metric::Weighted, 11);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(csr.node_count());
        // Warm one full sweep, then assert an identical sweep reuses the
        // queue's bucket capacity.
        for s in g.nodes() {
            let _ = csr.full_tree(s, &mut scratch);
        }
        let cap = scratch.queue.capacity();
        for s in g.nodes() {
            let _ = csr.full_tree(s, &mut scratch);
        }
        assert_eq!(
            scratch.queue.capacity(),
            cap,
            "reused scratch must not reallocate mid-sweep"
        );
        assert_eq!(scratch.ties_total(), 0, "padded shortest paths are unique");
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(csr.node_count());
        // Force the epoch to the wrap boundary and verify runs stay correct.
        scratch.epoch = u32::MAX - 1;
        let want = shortest_path_tree(&g, &model, 0.into());
        for _ in 0..4 {
            let got = csr.full_tree(0.into(), &mut scratch);
            assert_eq!(got, want);
        }
        assert!(scratch.epoch >= 1);
    }
}
