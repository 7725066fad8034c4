//! Incremental maintenance of [`ShortestPathTree`]s under edge failures
//! and recoveries, in the style of Ramalingam–Reps.
//!
//! A full Dijkstra over a failed view costs `O((n + m) log n)` even when a
//! failure detaches only a handful of nodes. This module updates an
//! existing tree in place instead:
//!
//! * **Failure** ([`repair_after_failures`]): only nodes whose tree path
//!   used a failed edge can change (edge deletions never shorten paths).
//!   The affected subtrees are detached, re-seeded from their best live
//!   neighbors outside the region, and re-settled by a Dijkstra restricted
//!   to the region.
//! * **Recovery** ([`repair_after_recoveries`]): a returning edge can only
//!   shorten paths, so a decrease-only relaxation wave from its endpoints
//!   suffices; nodes it never improves keep their entries verbatim.
//!
//! Because the padded [`CostModel`] makes shortest paths unique (distinct
//! perturbed costs ⇒ a unique optimum per node — see the crate-level
//! discussion of infinitesimal padding), a repaired tree is **bit-identical**
//! to the tree a full rebuild over the same view would produce: same
//! distances, same parents, same canonical base paths. This is the same
//! invariant Bodwin–Parter call *restorable tiebreaking* — canonical
//! shortest paths that survive edge deletions. The equivalence is enforced
//! by this module's tests and by the `spt_repair` property suite.
//!
//! # Caller contract
//!
//! The `topo` passed to a repair call must be the **post-event** view: each
//! failed edge already dead, each recovered edge already alive. A failure
//! of the tree's source node itself cannot be expressed as a repair (the
//! rebuilt tree is all-unreachable, including the source slot); callers
//! must fall back to a rebuild for that case, as
//! `rbpc_core`'s base-path oracles do. Node failures elsewhere are handled
//! by repairing with the node's incident-edge set: the dead node never
//! re-attaches because the view masks all of its edges.
//!
//! ```
//! use rbpc_graph::{
//!     repair_after_failure, shortest_path_tree, CostModel, FailureSet, Graph, Metric,
//! };
//! # fn main() -> Result<(), rbpc_graph::GraphError> {
//! let mut g = Graph::new(4);
//! let ab = g.add_edge(0, 1, 1)?;
//! g.add_edge(1, 2, 1)?;
//! g.add_edge(0, 3, 1)?;
//! g.add_edge(3, 2, 1)?;
//! let model = CostModel::new(Metric::Weighted, 7);
//!
//! let mut tree = shortest_path_tree(&g, &model, 0.into());
//! let failures = FailureSet::of_edge(ab);
//! let view = failures.view(&g);
//! let stats = repair_after_failure(&mut tree, &view, &model, ab);
//! assert_eq!(tree, shortest_path_tree(&view, &model, 0.into()));
//! assert!(stats.nodes_touched <= g.node_count());
//! # Ok(())
//! # }
//! ```
//!
//! See `docs/PAPER_MAP.md` (repository root) for the full map from the
//! paper's results to modules and tests.

use crate::{
    shortest_path_tree, CostModel, EdgeId, FailureSet, Graph, NodeId, ShortestPathTree, Topology,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one incremental repair did to the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Nodes whose tree entry was recomputed: the detached-subtree size for
    /// a failure, the number of improved nodes for a recovery. Zero means
    /// the event did not intersect the tree at all.
    pub nodes_touched: usize,
}

/// Reusable working memory for the repair engine: the children-CSR
/// buffers, epoch-stamped affected/settled marks, and the priority queue.
///
/// A churn stream repairs the same tree thousands of times; with a scratch
/// the per-event cost drops from six O(n) allocations to an epoch bump
/// (the children CSR is still refilled — it depends on the current tree —
/// but into retained capacity). [`DynamicSpt`] owns one internally; the
/// free-standing [`repair_after_failures_with`] /
/// [`repair_after_recoveries_with`] take one explicitly.
#[derive(Debug, Clone, Default)]
pub struct RepairScratch {
    epoch: u32,
    /// `affected[v] == epoch` ⇔ `v` is in the detached region this run
    /// (failures) or already counted as improved (recoveries).
    affected: Vec<u32>,
    /// `settled[v] == epoch` ⇔ `v` was settled by this run's Dijkstra.
    settled: Vec<u32>,
    offsets: Vec<u32>,
    kids: Vec<u32>,
    cursor: Vec<u32>,
    affected_list: Vec<u32>,
    heap: BinaryHeap<(Reverse<u128>, u32)>,
    runs: u64,
}

impl RepairScratch {
    /// An empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        RepairScratch::default()
    }

    /// Prepares for a repair over an `n`-node graph.
    fn begin(&mut self, n: usize) {
        if self.affected.len() < n {
            self.affected.resize(n, 0);
            self.settled.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.affected.iter_mut().for_each(|s| *s = 0);
            self.settled.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.affected_list.clear();
        self.runs += 1;
    }

    /// Number of repairs served (reuses = `runs() - 1`).
    #[inline]
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

/// Runs `f` with this thread's shared [`RepairScratch`], so the
/// convenience wrappers ([`repair_after_failures`],
/// [`repair_after_recoveries`]) get arena reuse for free instead of
/// paying a fresh allocation + zero-fill on every call. The epoch stamps
/// make reuse across unrelated trees and graph sizes exact.
fn with_thread_scratch<R>(f: impl FnOnce(&mut RepairScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<RepairScratch> =
            std::cell::RefCell::new(RepairScratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant call (e.g. from a destructor mid-repair): fall back
        // to a fresh arena rather than panicking.
        Err(_) => f(&mut RepairScratch::new()),
    })
}

/// Repairs `tree` in place after a single edge failure.
///
/// Equivalent to [`repair_after_failures`] with a one-element slice; see
/// the [module docs](self) for the caller contract.
pub fn repair_after_failure<T: Topology>(
    tree: &mut ShortestPathTree,
    topo: &T,
    model: &CostModel,
    failed: EdgeId,
) -> RepairStats {
    repair_after_failures(tree, topo, model, &[failed])
}

/// Repairs `tree` in place after a batch of edge failures, touching only
/// the subtrees hanging below the failed tree edges.
///
/// `topo` must be the post-failure view (every edge in `failed` dead) and
/// the tree's source must still be alive; see the [module docs](self).
/// Failing edges that were never tree edges is a no-op, because deleting a
/// non-tree edge can neither shorten any path nor invalidate a tree path.
///
/// Returns the number of nodes in the detached (recomputed) region.
pub fn repair_after_failures<T: Topology>(
    tree: &mut ShortestPathTree,
    topo: &T,
    model: &CostModel,
    failed: &[EdgeId],
) -> RepairStats {
    with_thread_scratch(|scratch| repair_after_failures_with(tree, topo, model, failed, scratch))
}

/// [`repair_after_failures`] with caller-provided working memory, for
/// churn streams that repair the same tree repeatedly.
pub fn repair_after_failures_with<T: Topology>(
    tree: &mut ShortestPathTree,
    topo: &T,
    model: &CostModel,
    failed: &[EdgeId],
    scratch: &mut RepairScratch,
) -> RepairStats {
    let graph = topo.graph();
    let n = graph.node_count();
    debug_assert!(tree.compatible_with(graph), "tree/graph size mismatch");
    debug_assert!(
        topo.node_alive(tree.source()),
        "source failure requires a full rebuild, not a repair"
    );

    // Roots of the detached region: tree edges are directed parent→child in
    // `parent_edge`, so only a failed edge's endpoints can root a subtree.
    let mut roots: Vec<u32> = Vec::new();
    for &e in failed {
        debug_assert!(
            !topo.edge_alive(e),
            "`topo` must be the post-failure view (edge {e} still alive)"
        );
        let (u, v) = graph.endpoints(e);
        for x in [u, v] {
            if tree.parent_edge[x.index()] == e.index() as u32 {
                roots.push(x.index() as u32);
            }
        }
    }
    if roots.is_empty() {
        return RepairStats::default();
    }

    scratch.begin(n);
    let epoch = scratch.epoch;

    // Children as a CSR (counts → offsets → fill): O(n), flat buffers
    // retained across repairs, no Vec-per-node.
    tree.fill_children_csr(&mut scratch.offsets, &mut scratch.kids, &mut scratch.cursor);

    // Collect the affected subtrees; the `affected` stamps deduplicate
    // roots nested inside other roots' subtrees.
    let mut stack = roots;
    while let Some(v) = stack.pop() {
        let vi = v as usize;
        if scratch.affected[vi] == epoch {
            continue;
        }
        scratch.affected[vi] = epoch;
        scratch.affected_list.push(v);
        stack.extend_from_slice(
            &scratch.kids[scratch.offsets[vi] as usize..scratch.offsets[vi + 1] as usize],
        );
    }

    // Detach the region, then seed every affected node with its best entry
    // point from the unaffected remainder (whose distances are final:
    // deletions only lengthen paths).
    for &v in &scratch.affected_list {
        tree.clear_node(v as usize);
    }
    for &ai in &scratch.affected_list {
        let a = NodeId::new(ai as usize);
        for h in topo.live_neighbors(a) {
            let bi = h.to.index();
            if scratch.affected[bi] == epoch || tree.dist[bi] == u128::MAX {
                continue;
            }
            let nd = tree.dist[bi] + model.perturbed_weight(graph, h.edge);
            if nd < tree.dist[ai as usize] {
                tree.settle(a, nd, Some((h.to, h.edge)));
            }
        }
        if tree.dist[ai as usize] != u128::MAX {
            scratch.heap.push((Reverse(tree.dist[ai as usize]), ai));
        }
    }

    // Dijkstra restricted to the affected region.
    while let Some((Reverse(d), ui)) = scratch.heap.pop() {
        let uidx = ui as usize;
        if scratch.settled[uidx] == epoch || d > tree.dist[uidx] {
            continue;
        }
        scratch.settled[uidx] = epoch;
        let u = NodeId::new(uidx);
        for h in topo.live_neighbors(u) {
            let vi = h.to.index();
            if scratch.affected[vi] != epoch || scratch.settled[vi] == epoch {
                continue;
            }
            let nd = d + model.perturbed_weight(graph, h.edge);
            if nd < tree.dist[vi] {
                tree.settle(h.to, nd, Some((u, h.edge)));
                scratch.heap.push((Reverse(nd), vi as u32));
            }
        }
    }
    RepairStats {
        nodes_touched: scratch.affected_list.len(),
    }
}

/// Repairs `tree` in place after a single edge recovery.
///
/// Equivalent to [`repair_after_recoveries`] with a one-element slice; see
/// the [module docs](self) for the caller contract.
pub fn repair_after_recovery<T: Topology>(
    tree: &mut ShortestPathTree,
    topo: &T,
    model: &CostModel,
    recovered: EdgeId,
) -> RepairStats {
    repair_after_recoveries(tree, topo, model, &[recovered])
}

/// Repairs `tree` in place after a batch of edge recoveries, via a
/// decrease-only relaxation wave from the recovered edges' endpoints.
///
/// `topo` must be the post-recovery view. A recovered edge that is still
/// dead in the view (e.g. one endpoint's router is failed) is skipped: it
/// cannot carry traffic, so the tree is unchanged. Nodes the wave never
/// improves keep their entries verbatim — correct because an insertion
/// only ever shortens paths, and unique perturbed costs pin the parent of
/// every unimproved node.
///
/// Returns the number of nodes whose entry improved.
pub fn repair_after_recoveries<T: Topology>(
    tree: &mut ShortestPathTree,
    topo: &T,
    model: &CostModel,
    recovered: &[EdgeId],
) -> RepairStats {
    with_thread_scratch(|scratch| {
        repair_after_recoveries_with(tree, topo, model, recovered, scratch)
    })
}

/// [`repair_after_recoveries`] with caller-provided working memory, for
/// churn streams that repair the same tree repeatedly.
pub fn repair_after_recoveries_with<T: Topology>(
    tree: &mut ShortestPathTree,
    topo: &T,
    model: &CostModel,
    recovered: &[EdgeId],
    scratch: &mut RepairScratch,
) -> RepairStats {
    let graph = topo.graph();
    let n = graph.node_count();
    debug_assert!(tree.compatible_with(graph), "tree/graph size mismatch");
    debug_assert!(
        topo.node_alive(tree.source()),
        "source failure requires a full rebuild, not a repair"
    );

    scratch.begin(n);
    let epoch = scratch.epoch;
    for &e in recovered {
        if !topo.edge_alive(e) {
            continue;
        }
        let (u, v) = graph.endpoints(e);
        let w = model.perturbed_weight(graph, e);
        for (a, b) in [(u, v), (v, u)] {
            let (ai, bi) = (a.index(), b.index());
            if tree.dist[ai] == u128::MAX {
                continue;
            }
            let nd = tree.dist[ai] + w;
            if nd < tree.dist[bi] {
                tree.settle(b, nd, Some((a, e)));
                scratch.heap.push((Reverse(nd), bi as u32));
            }
        }
    }

    // `affected` stamps double as the improved-node marker here.
    let mut touched = 0usize;
    while let Some((Reverse(d), ui)) = scratch.heap.pop() {
        let uidx = ui as usize;
        if d > tree.dist[uidx] {
            continue;
        }
        if scratch.affected[uidx] != epoch {
            scratch.affected[uidx] = epoch;
            touched += 1;
        }
        let u = NodeId::new(uidx);
        for h in topo.live_neighbors(u) {
            let vi = h.to.index();
            let nd = d + model.perturbed_weight(graph, h.edge);
            if nd < tree.dist[vi] {
                tree.settle(h.to, nd, Some((u, h.edge)));
                scratch.heap.push((Reverse(nd), vi as u32));
            }
        }
    }
    RepairStats {
        nodes_touched: touched,
    }
}

/// A shortest-path tree kept current across a stream of edge failures and
/// recoveries — the stateful convenience wrapper over
/// [`repair_after_failures`] / [`repair_after_recoveries`].
///
/// Owns its [`FailureSet`], so callers only announce events; the view
/// bookkeeping and the post-event contract of the repair functions are
/// handled internally. Node failures are intentionally not part of this
/// API (a source failure is not expressible as a repair) — callers that
/// need them should go through `rbpc_core`'s oracle layer, which falls
/// back to a rebuild.
///
/// ```
/// use rbpc_graph::{shortest_path_tree, CostModel, DynamicSpt, Graph, Metric};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(3);
/// let ab = g.add_edge(0, 1, 1)?;
/// g.add_edge(1, 2, 1)?;
/// g.add_edge(0, 2, 5)?;
/// let model = CostModel::new(Metric::Weighted, 3);
/// let mut spt = DynamicSpt::new(&g, &model, 0.into());
/// assert_eq!(spt.tree().base_dist(2.into()), Some(2));
/// spt.fail_edge(ab);
/// assert_eq!(spt.tree().base_dist(2.into()), Some(5));
/// spt.recover_edge(ab);
/// assert_eq!(spt.tree(), &shortest_path_tree(&g, &model, 0.into()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicSpt<'g> {
    graph: &'g Graph,
    model: CostModel,
    failures: FailureSet,
    tree: ShortestPathTree,
    scratch: RepairScratch,
}

impl<'g> DynamicSpt<'g> {
    /// Builds the initial tree over the unfailed graph.
    pub fn new(graph: &'g Graph, model: &CostModel, source: NodeId) -> Self {
        DynamicSpt {
            graph,
            model: *model,
            failures: FailureSet::new(),
            tree: shortest_path_tree(graph, model, source),
            scratch: RepairScratch::new(),
        }
    }

    /// Builds the initial tree over `graph` with `failures` already in
    /// effect (one full Dijkstra; subsequent events are incremental).
    pub fn with_failures(
        graph: &'g Graph,
        model: &CostModel,
        source: NodeId,
        failures: FailureSet,
    ) -> Self {
        let tree = shortest_path_tree(&failures.view(graph), model, source);
        DynamicSpt {
            graph,
            model: *model,
            failures,
            tree,
            scratch: RepairScratch::new(),
        }
    }

    /// Incremental repairs served so far by the internal scratch arena
    /// (no-op events are not counted).
    #[inline]
    pub fn repairs_served(&self) -> u64 {
        self.scratch.runs()
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The cost model the tree is canonical under.
    #[inline]
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The current tree — always bit-identical to a fresh
    /// `shortest_path_tree` over [`failures()`](Self::failures)' view.
    #[inline]
    pub fn tree(&self) -> &ShortestPathTree {
        &self.tree
    }

    /// The failure state the tree currently reflects.
    #[inline]
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// Marks `e` failed and repairs the tree. Failing an already-failed
    /// edge is a no-op.
    pub fn fail_edge(&mut self, e: EdgeId) -> RepairStats {
        if self.failures.edge_failed(e) {
            return RepairStats::default();
        }
        self.failures.fail_edge(e);
        if self.failures.node_failed(self.tree.source()) {
            return RepairStats::default(); // tree is all-unreachable and stays so
        }
        let view = self.failures.view(self.graph);
        repair_after_failures_with(&mut self.tree, &view, &self.model, &[e], &mut self.scratch)
    }

    /// Clears `e` from the failure set and repairs the tree. Recovering an
    /// edge that was not failed is a no-op.
    pub fn recover_edge(&mut self, e: EdgeId) -> RepairStats {
        if !self.failures.edge_failed(e) {
            return RepairStats::default();
        }
        self.failures.restore_edge(e);
        if self.failures.node_failed(self.tree.source()) {
            return RepairStats::default();
        }
        let view = self.failures.view(self.graph);
        repair_after_recoveries_with(&mut self.tree, &view, &self.model, &[e], &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetRng, Metric};

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 17)
    }

    /// The same 5-node weighted graph the Dijkstra tests use.
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

    /// Deterministic pseudo-random multigraph (may be disconnected).
    fn random_graph(n: usize, edges: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut added = 0usize;
        while added < edges {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let w = rng.gen_range(1u32..=50);
                g.add_edge(a, b, w).unwrap();
                added += 1;
            }
        }
        g
    }

    #[test]
    fn single_failure_matches_rebuild_everywhere() {
        let g = sample();
        let m = model();
        for s in g.nodes() {
            let base = shortest_path_tree(&g, &m, s);
            for e in g.edge_ids() {
                let failures = FailureSet::of_edge(e);
                let view = failures.view(&g);
                let mut repaired = base.clone();
                repair_after_failure(&mut repaired, &view, &m, e);
                let rebuilt = shortest_path_tree(&view, &m, s);
                assert_eq!(repaired, rebuilt, "source {s}, failed edge {e}");
            }
        }
    }

    #[test]
    fn non_tree_edge_failure_is_noop() {
        let g = sample();
        let m = model();
        let tree = shortest_path_tree(&g, &m, 0.into());
        let non_tree: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| {
                let (u, v) = g.endpoints(e);
                tree.parent_edge(u) != Some(e) && tree.parent_edge(v) != Some(e)
            })
            .collect();
        assert!(
            !non_tree.is_empty(),
            "sample graph must have non-tree edges"
        );
        for e in non_tree {
            let failures = FailureSet::of_edge(e);
            let view = failures.view(&g);
            let mut repaired = tree.clone();
            let stats = repair_after_failure(&mut repaired, &view, &m, e);
            assert_eq!(stats.nodes_touched, 0);
            assert_eq!(repaired, tree);
        }
    }

    #[test]
    fn bridge_failure_detaches_subtree() {
        let g = sample();
        let m = model();
        // 3-4 is node 4's only cheap attachment; failing both its edges
        // makes 4 unreachable.
        let e34 = g.find_edge(3.into(), 4.into()).unwrap();
        let e24 = g.find_edge(2.into(), 4.into()).unwrap();
        let mut failures = FailureSet::new();
        failures.fail_edge(e34);
        failures.fail_edge(e24);
        let view = failures.view(&g);
        let mut tree = shortest_path_tree(&g, &m, 0.into());
        let stats = repair_after_failures(&mut tree, &view, &m, &[e34, e24]);
        assert!(stats.nodes_touched >= 1);
        assert!(!tree.reachable(4.into()));
        assert_eq!(tree, shortest_path_tree(&view, &m, 0.into()));
    }

    #[test]
    fn recovery_matches_rebuild_everywhere() {
        let g = sample();
        let m = model();
        for s in g.nodes() {
            for e in g.edge_ids() {
                // Start from the failed tree, then recover e.
                let failures = FailureSet::of_edge(e);
                let mut tree = shortest_path_tree(&failures.view(&g), &m, s);
                repair_after_recovery(&mut tree, &g, &m, e);
                assert_eq!(
                    tree,
                    shortest_path_tree(&g, &m, s),
                    "source {s}, recovered edge {e}"
                );
            }
        }
    }

    #[test]
    fn parallel_edge_failure_falls_back_to_twin() {
        let mut g = Graph::new(2);
        let cheap = g.add_edge(0, 1, 1).unwrap();
        let pricey = g.add_edge(0, 1, 9).unwrap();
        let m = model();
        let mut tree = shortest_path_tree(&g, &m, 0.into());
        assert_eq!(tree.parent_edge(1.into()), Some(cheap));
        let failures = FailureSet::of_edge(cheap);
        let view = failures.view(&g);
        let stats = repair_after_failure(&mut tree, &view, &m, cheap);
        assert_eq!(stats.nodes_touched, 1);
        assert_eq!(tree.parent_edge(1.into()), Some(pricey));
        assert_eq!(tree, shortest_path_tree(&view, &m, 0.into()));
    }

    #[test]
    fn batch_failure_matches_rebuild_on_random_graphs() {
        for seed in 0..8u64 {
            let g = random_graph(40, 100, seed);
            let m = CostModel::new(Metric::Weighted, seed ^ 0xABCD);
            let mut rng = DetRng::seed_from_u64(seed.wrapping_mul(77));
            let batch: Vec<EdgeId> = (0..5)
                .map(|_| EdgeId::new(rng.gen_range(0..g.edge_count())))
                .collect();
            let mut failures = FailureSet::new();
            for &e in &batch {
                failures.fail_edge(e);
            }
            let view = failures.view(&g);
            let mut tree = shortest_path_tree(&g, &m, 0.into());
            repair_after_failures(&mut tree, &view, &m, &batch);
            assert_eq!(tree, shortest_path_tree(&view, &m, 0.into()), "seed {seed}");
        }
    }

    #[test]
    fn node_failure_as_incident_edges_matches_rebuild() {
        let g = sample();
        let m = model();
        for dead in 1..5usize {
            let mut failures = FailureSet::new();
            failures.fail_node(dead.into());
            let incident: Vec<EdgeId> = g.neighbors(dead.into()).map(|h| h.edge).collect();
            let view = failures.view(&g);
            let mut tree = shortest_path_tree(&g, &m, 0.into());
            repair_after_failures(&mut tree, &view, &m, &incident);
            assert_eq!(
                tree,
                shortest_path_tree(&view, &m, 0.into()),
                "failed node {dead}"
            );
            assert!(!tree.reachable(dead.into()));
        }
    }

    #[test]
    fn dynamic_spt_tracks_random_churn() {
        for seed in 0..4u64 {
            let g = random_graph(30, 70, seed);
            let m = CostModel::new(Metric::Weighted, seed + 1);
            let mut spt = DynamicSpt::new(&g, &m, 0.into());
            let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED);
            for step in 0..60 {
                let e = EdgeId::new(rng.gen_range(0..g.edge_count()));
                if spt.failures().edge_failed(e) {
                    spt.recover_edge(e);
                } else {
                    spt.fail_edge(e);
                }
                let rebuilt = shortest_path_tree(&spt.failures().view(&g), &m, 0.into());
                assert_eq!(spt.tree(), &rebuilt, "seed {seed}, step {step}");
            }
        }
    }

    #[test]
    fn shared_scratch_matches_fresh_scratch() {
        // One scratch across many repairs (and across graphs of different
        // sizes) must behave exactly like fresh allocations each time.
        let mut scratch = RepairScratch::new();
        for seed in 0..4u64 {
            let g = random_graph(20 + 5 * seed as usize, 60, seed);
            let m = CostModel::new(Metric::Weighted, seed);
            for e in g.edge_ids().step_by(7) {
                let failures = FailureSet::of_edge(e);
                let view = failures.view(&g);
                let mut with_scratch = shortest_path_tree(&g, &m, 0.into());
                repair_after_failures_with(&mut with_scratch, &view, &m, &[e], &mut scratch);
                assert_eq!(with_scratch, shortest_path_tree(&view, &m, 0.into()));
                repair_after_recoveries_with(&mut with_scratch, &g, &m, &[e], &mut scratch);
                assert_eq!(with_scratch, shortest_path_tree(&g, &m, 0.into()));
            }
        }
        assert!(scratch.runs() > 4);
    }

    #[test]
    fn dynamic_spt_counts_repairs() {
        let g = sample();
        let m = model();
        let e = g.find_edge(0.into(), 2.into()).unwrap();
        let mut spt = DynamicSpt::new(&g, &m, 0.into());
        assert_eq!(spt.repairs_served(), 0);
        spt.fail_edge(e);
        spt.recover_edge(e);
        assert_eq!(spt.repairs_served(), 2);
    }

    #[test]
    fn redundant_events_are_noops() {
        let g = sample();
        let m = model();
        let e = g.find_edge(0.into(), 2.into()).unwrap();
        let mut spt = DynamicSpt::new(&g, &m, 0.into());
        assert_eq!(spt.recover_edge(e).nodes_touched, 0); // not failed
        let first = spt.fail_edge(e);
        assert!(first.nodes_touched > 0);
        assert_eq!(spt.fail_edge(e).nodes_touched, 0); // already failed
        let back = spt.recover_edge(e);
        assert_eq!(back.nodes_touched, first.nodes_touched);
        assert_eq!(spt.tree(), &shortest_path_tree(&g, &m, 0.into()));
    }

    #[test]
    fn with_failures_starts_from_failed_state() {
        let g = sample();
        let m = model();
        let e = g.find_edge(0.into(), 2.into()).unwrap();
        let mut spt = DynamicSpt::with_failures(&g, &m, 0.into(), FailureSet::of_edge(e));
        assert_eq!(
            spt.tree(),
            &shortest_path_tree(&FailureSet::of_edge(e).view(&g), &m, 0.into())
        );
        spt.recover_edge(e);
        assert_eq!(spt.tree(), &shortest_path_tree(&g, &m, 0.into()));
    }
}
