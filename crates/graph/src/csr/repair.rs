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
//! 5. **Resume** — [`CsrGraph::resume_path`] keeps that frontier. A later
//!    call for the same tree and the same failures skips steps 1–3: it
//!    reads the path at once when its target has settled or lies outside
//!    the region, and otherwise pops the same queue until the target
//!    settles. One failure event's restorations from one source thus
//!    cost at most one full repair between them. The arena is this
//!    thread's own, apart from the prefix probe's scratch, so a probe
//!    between two calls leaves the run resumable.
//!
//! The resume key is the pair ([`TreeOwner`], source) plus the mask's
//! edge and node words, compared bit for bit — never an address or a
//! hash. Only the caller knows that every tree it passes under one owner
//! is the canonical tree of its source (a base-path store's trees are,
//! even after eviction and rebuild), so the caller supplies the owner;
//! [`CsrGraph::repair_path`] takes none and never resumes. Every fresh
//! run, [`CsrGraph::repair_tree`] included, drops the key, and a resumed
//! run drops it before it settles anything, so a panic mid-settle cannot
//! leave a stale one.
//!
//! With a target ([`CsrGraph::repair_path`], [`CsrGraph::resume_path`])
//! the search stops as soon as the target settles. Padded costs make
//! every shortest path unique (the restorable tiebreaking of
//! Bodwin–Parter), so a settled node's parent is final and its parent is
//! either settled too or outside the region: the path reads repaired
//! entries from the scratch and everything else from the untouched base
//! tree, with no tree clone. Without a target ([`CsrGraph::repair_tree`])
//! the whole region settles and its entries are written into a clone of
//! the base tree.
//!
//! Every form is **bit-identical** to
//! [`repair_after_failures`](crate::repair_after_failures) over the
//! equivalent [`FailureView`](crate::FailureView), and therefore to a full
//! rebuild; `tests/spt_repair.rs` and `tests/repair_resume.rs` at the
//! repository root pin this.

use super::{for_each_bit, level_of, with_local, CsrGraph, DijkstraScratch, FailureMask, NodeRec};
use crate::spt::{NO_EDGE, NO_NODE};
use crate::{EdgeId, NodeId, Path, ShortestPathTree};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one [`CsrGraph::repair_tree`] / [`CsrGraph::repair_path`] /
/// [`CsrGraph::resume_path`] call did.
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
    /// Whether the call resumed the previous call's run instead of
    /// starting a fresh one.
    pub resumed: bool,
}

/// A process-unique name for a family of base trees that
/// [`CsrGraph::resume_path`] may resume across calls: each source has
/// exactly one tree under one owner. Owners are never reused and cannot
/// be cloned, so two owners never name the same run.
#[derive(Debug)]
pub struct TreeOwner(u64);

impl TreeOwner {
    /// A fresh owner, distinct from every other owner in the process.
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // lint:allow(atomics-order) — a pure id counter; uniqueness needs only the atomic RMW, no ordering with other memory
        TreeOwner(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for TreeOwner {
    fn default() -> Self {
        Self::new()
    }
}

/// The run an arena holds, as [`CsrGraph::resume_path`] keys it: the
/// owner id, the source, and the mask's words.
#[derive(Debug, Default)]
struct ResumeKey {
    owner: u64,
    source: usize,
    edges: Vec<u64>,
    nodes: Vec<u64>,
}

impl ResumeKey {
    fn matches(&self, owner: &TreeOwner, source: NodeId, mask: &FailureMask) -> bool {
        self.owner == owner.0
            && self.source == source.index()
            && self.edges == mask.edges
            && self.nodes == mask.nodes
    }

    fn set(&mut self, owner: &TreeOwner, source: NodeId, mask: &FailureMask) {
        self.owner = owner.0;
        self.source = source.index();
        self.edges.clear();
        self.edges.extend_from_slice(&mask.edges);
        self.nodes.clear();
        self.nodes.extend_from_slice(&mask.nodes);
    }
}

/// Working memory of the repair kernel, one per thread: the settle
/// loop's arena (records, level queue, epoch and counts) plus the
/// children index (`first_kid[p]` heads `p`'s children, `next_kid[v]`
/// links `v` to its next sibling), the region list, and the key of the
/// run a later call may resume.
///
/// A fresh run stamps its region nodes with the arena's epoch, so a
/// stamp below it means "outside the region" (see the settle loop).
#[derive(Debug, Default)]
pub(super) struct RepairArena {
    pub(super) core: DijkstraScratch,
    first_kid: Vec<u32>,
    next_kid: Vec<u32>,
    region: Vec<u32>,
    stack: Vec<u32>,
    /// The core's settled and tie totals when the run began.
    settled_from: u64,
    ties_from: u64,
    /// Whether `key` names the run the arena holds; the key's buffers
    /// are kept for reuse while it does not.
    resumable: bool,
    key: ResumeKey,
}

thread_local! {
    /// This thread's repair arena, apart from the prefix probe's scratch
    /// so that a probe never drops a resumable run.
    pub(super) static ARENA: RefCell<RepairArena> = RefCell::default();
}

impl RepairArena {
    /// Whether the arena holds the run of `owner`'s tree of `source`
    /// under exactly `mask`.
    fn holds(&self, owner: &TreeOwner, source: NodeId, mask: &FailureMask) -> bool {
        self.resumable && self.key.matches(owner, source, mask)
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
    /// The tree of `base.source()` over this graph with `mask` applied,
    /// repaired from `base`, the canonical tree of the same source under
    /// none (or a subset) of `mask`'s failures. Bit-identical to
    /// [`full_tree_masked`](CsrGraph::full_tree_masked); a failed source
    /// yields the all-unreachable tree.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `mask` was built for different graph
    /// dimensions.
    pub fn repair_tree(
        &self,
        base: &ShortestPathTree,
        mask: &FailureMask,
    ) -> (ShortestPathTree, RepairWork) {
        self.check_repair_inputs(base, mask);
        let source = base.source();
        if mask.node_failed(source) {
            return (
                ShortestPathTree::unreachable(source, self.n),
                RepairWork::default(),
            );
        }
        with_local(&ARENA, |arena: &mut RepairArena| {
            self.detach(base, mask, arena);
            let masked = |e, v| mask.half_edge_masked(e, v);
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
        })
    }

    /// The canonical path from `base.source()` to `target` over this
    /// graph with `mask` applied, or `None` if the failures cut it off.
    /// The repair stops once `target` settles, and no tree is cloned.
    /// Equal to `repair_tree(base, mask).0.path_to(target)`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range, or `base` or `mask` was built
    /// for different graph dimensions.
    pub fn repair_path(
        &self,
        base: &ShortestPathTree,
        mask: &FailureMask,
        target: NodeId,
    ) -> (Option<Path>, RepairWork) {
        self.targeted(base, mask, target, None)
    }

    /// [`repair_path`](CsrGraph::repair_path) that resumes this thread's
    /// previous run when that run repaired `owner`'s tree of the same
    /// source under a bitwise-equal `mask`: it reads the path at once if
    /// `target` has settled or lies outside the region, and otherwise
    /// settles on from where the run stopped. Otherwise it starts a fresh
    /// run, which a later call may resume in turn. Equal to
    /// `repair_tree(base, mask).0.path_to(target)`.
    ///
    /// The caller vouches that every `base` it passes under one `owner`
    /// is the canonical tree of its source on this graph.
    ///
    /// # Panics
    ///
    /// As [`repair_path`](CsrGraph::repair_path).
    pub fn resume_path(
        &self,
        base: &ShortestPathTree,
        mask: &FailureMask,
        target: NodeId,
        owner: &TreeOwner,
    ) -> (Option<Path>, RepairWork) {
        self.targeted(base, mask, target, Some(owner))
    }

    fn targeted(
        &self,
        base: &ShortestPathTree,
        mask: &FailureMask,
        target: NodeId,
        owner: Option<&TreeOwner>,
    ) -> (Option<Path>, RepairWork) {
        self.check_repair_inputs(base, mask);
        assert!(target.index() < self.n, "target {target} out of range");
        let source = base.source();
        if mask.node_failed(source) || mask.node_failed(target) {
            return (None, RepairWork::default());
        }
        let ti = target.index();
        with_local(&ARENA, |arena: &mut RepairArena| {
            let resumed = owner.is_some_and(|o| arena.holds(o, source, mask));
            // Dropped while settling: a panic must not leave the key.
            arena.resumable = false;
            if !resumed {
                self.detach(base, mask, arena);
            }
            if arena.in_region(ti) && !arena.settled(ti) {
                let masked = |e, v| mask.half_edge_masked(e, v);
                self.settle::<true, _, _>(&mut arena.core, &base.dist, masked, |u, _| u == ti);
            }
            if let Some(owner) = owner {
                if !resumed {
                    arena.key.set(owner, source, mask);
                }
                arena.resumable = true;
            }
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
        })
    }

    fn check_repair_inputs(&self, base: &ShortestPathTree, mask: &FailureMask) {
        assert_eq!(
            base.node_count(),
            self.n,
            "tree covers {} nodes, graph has {}",
            base.node_count(),
            self.n
        );
        mask.check_dims(self.n, self.m);
    }

    /// Starts a fresh run in `arena`: detaches the region below every
    /// failed tree edge and seeds it from outside, ready for
    /// the settle loop in its region form. The source must be alive.
    fn detach(&self, base: &ShortestPathTree, mask: &FailureMask, arena: &mut RepairArena) {
        arena.resumable = false;
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
    use crate::{shortest_path_tree, CostModel, DetRng, FailureSet, Graph, Metric};

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
        let mask = FailureMask::from_set(&csr, &FailureSet::of_edge(e));
        let (tree, work) = csr.repair_tree(&base, &mask);
        assert_eq!((tree, work), (base.clone(), RepairWork::default()));
        // A failed source: all-unreachable, like the masked rebuild.
        let mut set = FailureSet::new();
        set.fail_node(NodeId::new(0));
        let mask = FailureMask::from_set(&csr, &set);
        let (tree, _) = csr.repair_tree(&base, &mask);
        assert!(g.nodes().all(|v| !tree.reachable(v)));
        assert_eq!(csr.repair_path(&base, &mask, NodeId::new(3)).0, None);
    }
}
