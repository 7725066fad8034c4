//! Failure repair of a provisioned tree on the CSR core.
//!
//! A restoration needs the source's shortest-path tree over the failed
//! view, and the base-path stores already hold the source's *unfailed*
//! tree. Edge and node deletions never shorten a path, so only the nodes
//! whose tree path crosses a failed element can change (Ramalingam–Reps):
//!
//! 1. **Roots** — every endpoint whose tree edge is failed, or touches a
//!    failed router, roots a detached subtree; the mask's set bits and
//!    the graph's endpoint table find them without a scan over nodes.
//! 2. **Region** — the union of those subtrees, collected through a
//!    children index (sibling lists) that is refilled from the tree's
//!    parent array into the scratch on every repair, in one pass; no
//!    per-tree state is kept.
//! 3. **Seeds** — each live region node enters at its best live neighbor
//!    outside the region, whose distance is final.
//! 4. **Settle** — the CSR settle loop in its region form: a stamp
//!    below the run's epoch means "outside the region", so the loop
//!    never leaves it. It pops the arena's base-distance level queue
//!    (the `level` module), floored at the region's shallowest base
//!    distance, tests one [`FailureMask`] bit per half-edge, queues a
//!    node only when it is first reached or moves to a lower level, and
//!    rewrites a pad-only improvement in place. A settled node's edges
//!    are relaxed before the loop checks for the target, so the queue it
//!    leaves behind is a valid Dijkstra frontier.
//! 5. **Resume** — the caller's [`RepairArena`] keeps that frontier,
//!    and the run's graph, source and failures. A later
//!    [`CsrGraph::repair_path`] handed the same arena, on the same graph,
//!    for the same source under exactly the same failures, skips steps
//!    1–3: it reads the path at once when its target has settled or lies
//!    outside the region, and otherwise pops the same queue until the
//!    target settles. One failure event's restorations from one source
//!    thus cost at most one full repair between them. A prefix probe runs
//!    on a [`DijkstraScratch`] of its own, so a probe between two calls
//!    leaves the run resumable.
//!
//! The arena's key is its run: the graph's id (unique per
//! [`CsrGraph::new`], shared by clones), the source, and the run's
//! [`FailureMask`], which every fresh run refills in place and a resuming
//! call compares bit for bit against its [`FailureSet`] — never an
//! address or a hash. Resuming is exact because padded costs make every
//! post-failure path unique: the run is determined by the graph, the
//! source and the failures. So the caller vouches only that every tree it
//! hands the kernel is the canonical tree of its source on this graph (a
//! base-path store's trees are, even after eviction and rebuild). A
//! resumed run drops the key before it settles anything, so a panic
//! mid-settle cannot leave a stale one.
//!
//! With a target ([`CsrGraph::repair_path`]) the search stops as soon
//! as the target settles. Padded costs make every shortest path unique
//! (the restorable tiebreaking of Bodwin–Parter), so a settled node's
//! parent is final and its parent is either settled too or outside the
//! region: the path reads repaired entries from the arena and everything
//! else from the untouched base tree, with no tree clone. Without a
//! target ([`CsrGraph::repair_tree`]) the whole region settles and its
//! entries are written into a clone of the base tree.
//!
//! Every form is **bit-identical** to
//! [`repair_after_failures`](crate::repair_after_failures) over the
//! equivalent [`FailureView`](crate::FailureView), and therefore to a full
//! rebuild; `tests/spt_repair.rs` and `tests/repair_resume.rs` at the
//! repository root pin this.

use super::{for_each_bit, level_of, CsrGraph, DijkstraScratch, FailureMask, NodeRec};
use crate::spt::{NO_EDGE, NO_NODE};
use crate::{EdgeId, FailureSet, NodeId, Path, ShortestPathTree};

/// What one [`CsrGraph::repair_tree`] / [`CsrGraph::repair_path`] call
/// did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairWork {
    /// Nodes in the detached region — the same count as
    /// [`RepairStats::nodes_touched`](crate::RepairStats::nodes_touched).
    /// Zero when no tree edge failed.
    pub nodes_touched: usize,
    /// Region nodes settled before the search stopped: all reachable
    /// ones for a full tree, fewer when a target settles early. A resumed
    /// call counts every node its run has settled so far.
    pub settled: usize,
    /// Exact ties met so far this run: a seed or relaxation whose
    /// distance equals a region node's tentative distance exactly,
    /// reached through a different parent. Padded costs make every
    /// shortest path unique, so this stays 0; a tie would make the
    /// repaired tree depend on the queue's pop order.
    pub ties: usize,
    /// Whether the call resumed the run its arena held instead of
    /// starting a fresh one.
    pub resumed: bool,
}

/// Working memory of the repair kernel, owned by its caller: the settle
/// loop's arena (records, level queue, epoch and counts), the children
/// index (`first_kid[p]` heads `p`'s children, `next_kid[v]` links `v` to
/// its next sibling), the region list, and the key of the run a later
/// [`CsrGraph::repair_path`] may resume: its graph, source and failures.
///
/// Concurrent repairs need one arena each. An arena grows to the graph on
/// its first run and may serve any number of graphs; a run is resumed
/// only on the graph it was started on.
///
/// A fresh run stamps its region nodes with the arena's epoch, so a
/// stamp below it means "outside the region" (see the settle loop).
#[derive(Debug, Default)]
pub struct RepairArena {
    pub(super) core: DijkstraScratch,
    first_kid: Vec<u32>,
    next_kid: Vec<u32>,
    region: Vec<u32>,
    stack: Vec<u32>,
    /// The core's settled and tie totals when the run began.
    settled_from: u64,
    ties_from: u64,
    /// The run: its graph's id, source and failures, the mask refilled
    /// in place by every fresh run.
    graph: u64,
    source: usize,
    mask: FailureMask,
    /// Whether the run may be resumed.
    resumable: bool,
}

impl RepairArena {
    /// Whether the arena holds the run of `source` on `csr` under
    /// exactly `failures`.
    fn holds(&self, csr: &CsrGraph, source: NodeId, failures: &FailureSet) -> bool {
        self.resumable
            && self.graph == csr.id
            && self.source == source.index()
            && self.mask.matches(failures)
    }

    /// Keys the arena to a fresh run of `source` on `csr` under
    /// `failures`, not yet resumable.
    fn load(&mut self, csr: &CsrGraph, source: NodeId, failures: &FailureSet) {
        self.resumable = false;
        if (self.mask.n, self.mask.m) != (csr.n, csr.m) {
            self.mask = FailureMask::new(csr.n, csr.m);
        }
        self.mask.refill(failures);
        self.graph = csr.id;
        self.source = source.index();
    }

    fn work(&self, resumed: bool) -> RepairWork {
        RepairWork {
            nodes_touched: self.region.len(),
            settled: (self.core.settled_total - self.settled_from) as usize,
            ties: (self.core.ties_total - self.ties_from) as usize,
            resumed,
        }
    }

    /// Whether `v` settled in the last run.
    fn settled(&self, v: usize) -> bool {
        self.core.recs[v].stamp == self.core.epoch + 2
    }

    /// Whether `v` was in the last run's detached region.
    fn in_region(&self, v: usize) -> bool {
        self.core.recs[v].stamp >= self.core.epoch
    }
}

impl CsrGraph {
    /// The tree of `base.source()` over this graph with `failures`
    /// applied, repaired from `base`, the canonical tree of the same
    /// source under none (or a subset) of the failures, in `arena`.
    /// Bit-identical to [`full_tree_masked`](CsrGraph::full_tree_masked);
    /// a failed source yields the all-unreachable tree. Ends any run
    /// `arena` held, unless the source failed.
    ///
    /// # Panics
    ///
    /// Panics if `base` was built for a different node count or
    /// `failures` names an element outside this graph.
    pub fn repair_tree(
        &self,
        base: &ShortestPathTree,
        failures: &FailureSet,
        arena: &mut RepairArena,
    ) -> (ShortestPathTree, RepairWork) {
        self.check_base(base);
        let source = base.source();
        if failures.node_failed(source) {
            return (
                ShortestPathTree::unreachable(source, self.n),
                RepairWork::default(),
            );
        }
        arena.load(self, source, failures);
        self.detach(base, arena);
        let masked = |e, v| arena.mask.half_edge_masked(e, v);
        self.settle::<true, _, _>(&mut arena.core, &base.dist, masked, |_, _| false);
        let work = arena.work(false);
        let mut tree = base.clone();
        for &v in &arena.region {
            let vi = v as usize;
            if arena.settled(vi) {
                let r = &arena.core.recs[vi];
                tree.settle(
                    NodeId::new(vi),
                    r.dist,
                    Some((
                        NodeId::new(r.parent_node as usize),
                        EdgeId::new(r.parent_edge as usize),
                    )),
                );
            } else {
                tree.clear_node(vi);
            }
        }
        (tree, work)
    }

    /// The canonical path from `base.source()` to `target` over this
    /// graph with `failures` applied, or `None` if they cut it off. The
    /// repair stops once `target` settles, and no tree is cloned. Equal
    /// to `repair_tree(base, failures, ..).0.path_to(target)`.
    ///
    /// When `arena` holds the run of the same source on this graph under
    /// exactly `failures`, the call resumes it: it reads the path at once
    /// if `target` has settled or lies outside the region, and otherwise
    /// settles on from where the run stopped. Otherwise it starts a fresh
    /// run, which a later call may resume in turn.
    ///
    /// # Correctness
    ///
    /// Every `base` handed to the kernel must be the canonical tree of
    /// its source on this graph: a resumed call reads the run, not
    /// `base`'s region.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range, `base` was built for a
    /// different node count or `failures` names an element outside this
    /// graph.
    pub fn repair_path(
        &self,
        base: &ShortestPathTree,
        failures: &FailureSet,
        target: NodeId,
        arena: &mut RepairArena,
    ) -> (Option<Path>, RepairWork) {
        self.check_base(base);
        assert!(target.index() < self.n, "target {target} out of range");
        let source = base.source();
        if failures.node_failed(source) || failures.node_failed(target) {
            return (None, RepairWork::default());
        }
        let ti = target.index();
        let resumed = arena.holds(self, source, failures);
        if !resumed {
            arena.load(self, source, failures);
            self.detach(base, arena);
        }
        // Dropped while settling: a panic must not leave the key.
        arena.resumable = false;
        if arena.in_region(ti) && !arena.settled(ti) {
            let masked = |e, v| arena.mask.half_edge_masked(e, v);
            self.settle::<true, _, _>(&mut arena.core, &base.dist, masked, |u, _| u == ti);
        }
        arena.resumable = true;
        let reached = arena.settled(ti) || (!arena.in_region(ti) && base.reachable(target));
        let path = reached.then(|| {
            let recs = &arena.core.recs;
            Path::from_parent_chain(target, |v| {
                if arena.settled(v) {
                    (recs[v].parent_node, recs[v].parent_edge)
                } else {
                    (base.parent_node[v], base.parent_edge[v])
                }
            })
        });
        (path, arena.work(resumed))
    }

    fn check_base(&self, base: &ShortestPathTree) {
        assert_eq!(
            base.node_count(),
            self.n,
            "tree covers {} nodes, graph has {}",
            base.node_count(),
            self.n
        );
    }

    /// Starts the fresh run `arena` is keyed to: detaches the region
    /// below every failed tree edge and seeds it from outside, ready for
    /// the settle loop in its region form. The source must be alive.
    fn detach(&self, base: &ShortestPathTree, arena: &mut RepairArena) {
        arena.core.begin(self.n);
        arena.settled_from = arena.core.settled_total;
        arena.ties_from = arena.core.ties_total;
        let ep = arena.core.epoch;
        let ep_seen = ep + 1;
        let RepairArena {
            core,
            first_kid,
            next_kid,
            region,
            stack,
            mask,
            ..
        } = arena;
        let DijkstraScratch {
            recs,
            queue,
            ties_total,
            ..
        } = core;
        region.clear();
        stack.clear();

        // Roots: the endpoints whose tree edge failed, and for a failed
        // router the router itself plus every neighbor it parents.
        for_each_bit(&mask.edges, |e| {
            for x in self.ends[e as usize] {
                if base.parent_edge[x as usize] == e {
                    stack.push(x);
                }
            }
        });
        for_each_bit(&mask.nodes, |v| {
            if base.parent_edge[v as usize] != NO_EDGE {
                stack.push(v);
            }
            for he in self.half_edges(v as usize) {
                if base.parent_edge[he.target as usize] == he.edge {
                    stack.push(he.target);
                }
            }
        });
        // Every region node's repaired distance is at least its base
        // distance, which is at least its subtree root's: the queue's
        // floor.
        let floor = stack.iter().map(|&v| level_of(base.dist[v as usize])).min();
        queue.begin(floor.unwrap_or(0));
        if stack.is_empty() {
            return;
        }

        // The region: every subtree below a root, deduplicated by stamp.
        first_kid.clear();
        first_kid.resize(self.n, NO_NODE);
        next_kid.resize(self.n, NO_NODE);
        for (v, &p) in base.parent_node.iter().enumerate() {
            if p != NO_NODE {
                next_kid[v] = first_kid[p as usize];
                first_kid[p as usize] = v as u32;
            }
        }
        while let Some(v) = stack.pop() {
            let vi = v as usize;
            if recs[vi].stamp >= ep {
                continue;
            }
            recs[vi].stamp = ep;
            region.push(v);
            let mut kid = first_kid[vi];
            while kid != NO_NODE {
                stack.push(kid);
                kid = next_kid[kid as usize];
            }
        }

        // Seeds: each live region node's best entry from outside the
        // region, whose distances are final (deletions only lengthen).
        for &a in region.iter() {
            let ai = a as usize;
            if mask.node_failed(NodeId::new(ai)) {
                continue;
            }
            for he in self.half_edges(ai) {
                let b = he.target as usize;
                if recs[b].stamp >= ep
                    || mask.half_edge_masked(he.edge, he.target)
                    || base.dist[b] == u128::MAX
                {
                    continue;
                }
                let nd = base.dist[b] + he.weight;
                if recs[ai].stamp == ep || nd < recs[ai].dist {
                    recs[ai] = NodeRec {
                        dist: nd,
                        stamp: ep_seen,
                        parent_node: he.target,
                        parent_edge: he.edge,
                    };
                } else if nd == recs[ai].dist {
                    *ties_total += 1;
                }
            }
            if recs[ai].stamp == ep_seen {
                queue.push(level_of(recs[ai].dist), a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path_tree, CostModel, DetRng, Graph, Metric};

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        while g.edge_count() < m {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge(a, b, rng.gen_range(1..=30u32)).unwrap();
            }
        }
        g
    }

    #[test]
    fn untouched_tree_and_failed_source() {
        let g = random_graph(20, 50, 1);
        let model = CostModel::new(Metric::Weighted, 2);
        let csr = CsrGraph::new(&g, &model);
        let base = shortest_path_tree(&g, &model, NodeId::new(0));
        // A non-tree edge: nothing detaches.
        let e = g
            .edge_ids()
            .find(|&e| {
                let (u, v) = g.endpoints(e);
                base.parent_edge(u) != Some(e) && base.parent_edge(v) != Some(e)
            })
            .expect("a non-tree edge");
        let arena = &mut RepairArena::default();
        let (tree, work) = csr.repair_tree(&base, &FailureSet::of_edge(e), arena);
        assert_eq!((tree, work), (base.clone(), RepairWork::default()));
        // A failed source: all-unreachable, like the masked rebuild.
        let mut set = FailureSet::new();
        set.fail_node(NodeId::new(0));
        let (tree, _) = csr.repair_tree(&base, &set, arena);
        assert!(g.nodes().all(|v| !tree.reachable(v)));
        assert_eq!(csr.repair_path(&base, &set, NodeId::new(3), arena).0, None);
    }
}
