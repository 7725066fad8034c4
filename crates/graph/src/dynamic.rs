//! The scalar reference for repairing a [`ShortestPathTree`] after edge
//! failures, in the style of Ramalingam–Reps.
//!
//! A full Dijkstra over a failed view costs `O((n + m) log n)` even when a
//! failure detaches only a handful of nodes. [`repair_after_failures`]
//! updates an existing tree in place instead: only nodes whose tree path
//! used a failed edge can change (edge deletions never shorten paths). The
//! affected subtrees are detached, re-seeded from their best live
//! neighbors outside the region, and re-settled by a Dijkstra restricted
//! to the region.
//!
//! Every restoration repairs on the CSR kernel
//! ([`CsrGraph::repair_tree`](crate::CsrGraph::repair_tree) /
//! [`repair_path`](crate::CsrGraph::repair_path)); this generic version
//! over any [`Topology`] is the reference the kernel is tested against.
//! Recovered links need no tree repair: a recovery reverts the FEC
//! rewrite, and the unfailed tree is the base tree.
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
//! The `topo` passed to a repair call must be the **post-failure** view:
//! each failed edge already dead. A failure of the tree's source node
//! itself cannot be expressed as a repair (the rebuilt tree is
//! all-unreachable, including the source slot); callers must fall back to
//! a rebuild for that case, as `rbpc_core`'s base-path oracles do. Node
//! failures elsewhere are handled by repairing with the node's
//! incident-edge set: the dead node never re-attaches because the view
//! masks all of its edges.
//!
//! ```
//! use rbpc_graph::{
//!     repair_after_failures, shortest_path_tree, CostModel, FailureSet, Graph, Metric,
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
//! let stats = repair_after_failures(&mut tree, &view, &model, &[ab]);
//! assert_eq!(tree, shortest_path_tree(&view, &model, 0.into()));
//! assert!(stats.nodes_touched <= g.node_count());
//! # Ok(())
//! # }
//! ```
//!
//! See `docs/PAPER_MAP.md` (repository root) for the full map from the
//! paper's results to modules and tests.

use crate::{CostModel, EdgeId, NodeId, ShortestPathTree, Topology};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one incremental repair did to the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Nodes whose tree entry was recomputed: the detached-subtree size.
    /// Zero means the failures did not intersect the tree at all.
    pub nodes_touched: usize,
}

/// Working memory for the repair: the children-CSR buffers,
/// epoch-stamped affected/settled marks, and the priority queue. Each
/// thread keeps one, so a repair costs an epoch bump instead of six O(n)
/// allocations (the children CSR is still refilled — it depends on the
/// current tree — but into retained capacity).
#[derive(Debug, Default)]
struct RepairScratch {
    epoch: u32,
    /// `affected[v] == epoch` ⇔ `v` is in the detached region this run.
    affected: Vec<u32>,
    /// `settled[v] == epoch` ⇔ `v` was settled by this run's Dijkstra.
    settled: Vec<u32>,
    offsets: Vec<u32>,
    kids: Vec<u32>,
    cursor: Vec<u32>,
    affected_list: Vec<u32>,
    heap: BinaryHeap<(Reverse<u128>, u32)>,
}

impl RepairScratch {
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
    }
}

thread_local! {
    /// This thread's repair arena: each repair takes it and puts it back,
    /// so repeated repairs reuse its buffers (a nested repair finds the
    /// slot empty and starts from a fresh one).
    static SCRATCH: Cell<RepairScratch> = Cell::new(RepairScratch::default());
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

    let mut scratch = SCRATCH.take();
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
    let stats = RepairStats {
        nodes_touched: scratch.affected_list.len(),
    };
    SCRATCH.set(scratch);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path_tree, DetRng, FailureSet, Graph, Metric};

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
                repair_after_failures(&mut repaired, &view, &m, &[e]);
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
            let stats = repair_after_failures(&mut repaired, &view, &m, &[e]);
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
    fn parallel_edge_failure_falls_back_to_twin() {
        let mut g = Graph::new(2);
        let cheap = g.add_edge(0, 1, 1).unwrap();
        let pricey = g.add_edge(0, 1, 9).unwrap();
        let m = model();
        let mut tree = shortest_path_tree(&g, &m, 0.into());
        assert_eq!(tree.parent_edge(1.into()), Some(cheap));
        let failures = FailureSet::of_edge(cheap);
        let view = failures.view(&g);
        let stats = repair_after_failures(&mut tree, &view, &m, &[cheap]);
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
    fn thread_scratch_is_exact_across_graph_sizes() {
        // The thread's one arena serves every repair below, across graphs
        // of different sizes; each must still equal a rebuild.
        for seed in 0..4u64 {
            let g = random_graph(20 + 5 * seed as usize, 60, seed);
            let m = CostModel::new(Metric::Weighted, seed);
            for e in g.edge_ids().step_by(7) {
                let failures = FailureSet::of_edge(e);
                let view = failures.view(&g);
                let mut tree = shortest_path_tree(&g, &m, 0.into());
                repair_after_failures(&mut tree, &view, &m, &[e]);
                assert_eq!(tree, shortest_path_tree(&view, &m, 0.into()));
            }
        }
    }
}
