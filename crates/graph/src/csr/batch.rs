//! Batched multi-source shortest-path-tree kernel.
//!
//! The provisioning sweep — `DenseBasePaths::build`, every
//! `ShardedBasePaths` shard build, the paper-scale eval — is *n*
//! independent full-tree Dijkstras over one frozen [`CsrGraph`].
//! [`CsrGraph::full_tree_batch`] runs a batch of them on one
//! [`SptBatchScratch`] and picks one of two loops from what the batch's
//! live adjacency holds:
//!
//! * **the unit-weight sweep**, when every live half-edge has base
//!   weight 1 — the unweighted metric, and every hop-count topology in
//!   the eval (the AS and router maps). Once per batch the kernel
//!   compacts the adjacency into 8-byte half-edges (`target`, `edge`)
//!   with the failure mask *pre-applied*: masked edges do not exist in
//!   the compacted CSR, so the per-source hot loop has no mask branch and
//!   streams a quarter of the scalar path's 32-byte half-edges. The
//!   perturbed weight is reconstructed on the fly from the model seed
//!   (`(1 << 64) | pad(edge)`, the exact
//!   [`CostModel::perturbed_weight`](crate::CostModel::perturbed_weight)
//!   expression). Base distance is hop count, so the frontier is two
//!   level queues — the current level and the next — swept as slices.
//!   The per-node record is packed to **exactly 32 bytes**
//!   (`dist`/`parent_node`/`parent_edge`), two per cache line, with
//!   epoch-stamped O(1) reset; the stamp lives in a separate
//!   L1-resident one-byte lane, so the settled-target fast path of a
//!   relaxation never touches the record line. The harvest is one
//!   sequential pass that writes each output element exactly once
//!   (settled value or unreachable sentinel) into the tree's three
//!   per-field arrays;
//! * **the scalar loop** for every other batch. Compaction stops at the
//!   first live half-edge whose base weight is not 1, and each source
//!   runs [`CsrGraph::full_tree_masked`] on the scratch's
//!   [`DijkstraScratch`] — the level-queue settle loop that point-to-point
//!   searches share.
//!
//! # Why `u64` base-distance frontier keys are exact
//!
//! Every perturbed weight is `(base << 64) | pad` with a 44-bit pad and
//! `base ≥ 1` ([`CostModel`]; zero weights are
//! rejected at graph construction). A path of fewer than 2²⁰ hops (the
//! [`MAX_NODES`](crate::CostModel::MAX_NODES) ceiling) accumulates a pad
//! sum strictly below 2⁶⁴, so pads can never carry into the base half
//! and `perturbed_dist = (base_dist << 64) + pad_sum` exactly. Dijkstra
//! stays exact under *any* pop order that never pops a node whose
//! distance a frontier neighbor could still improve; keys here order the
//! frontier by base distance with ties broken arbitrarily, and any path
//! through a same-base or later frontier node exceeds the popped node's
//! distance by at least `1 << 64` — more than any pad difference can
//! recover. Relaxations still compare full `u128` distances, so the
//! settled values (and the harvested tree) are **bit-identical** to the
//! scalar path; only the settle *order* may differ. The scalar and
//! repair kernels' level queue (the `level` module) rests on this same
//! argument, so every Dijkstra loop of the crate pops same-base nodes in
//! arbitrary order. Perturbed padded costs make every
//! shortest path unique ([`CostModel`]), so no
//! harvested array depends on settle order. `tests/spt_batch.rs` at the
//! repository root pins this across topology families × failure masks ×
//! batch sizes × thread counts.
//!
//! # Accounting
//!
//! The scratch counts runs, settled nodes, the unit sweep's pad-only
//! record rewrites ([`SptBatchScratch::decrease_keys`]; the scalar loop
//! counts none) and exact ties across its lifetime.
//! [`par_all_sources_csr`](crate::par::par_all_sources_csr)
//! surfaces the totals through [`ParStats`](crate::par::ParStats), and
//! the core crate records them as `core.provision.*` and `graph.ties`
//! obs counters (`/metrics`, loadtest window JSONL).

use super::{CsrGraph, DijkstraScratch, FailureMask};
use crate::cost::{splitmix64, CostModel};
use crate::spt::{NO_EDGE, NO_NODE};
use crate::{NodeId, ShortestPathTree};

/// Per-node working record of the batched kernel. Everything a
/// relaxation reads or writes for node `v` lives in these 32 bytes. The
/// base (original-metric) distance is deliberately absent: it is the
/// high 64 bits of `dist`, and the tree derives it on demand.
#[derive(Debug, Clone, Copy)]
struct BatchRec {
    /// Perturbed distance; the high 64 bits are the base-metric distance.
    dist: u128,
    parent_node: u32,
    parent_edge: u32,
}

const EMPTY_BATCH_REC: BatchRec = BatchRec {
    dist: 0,
    parent_node: 0,
    parent_edge: 0,
};

// The whole point of the packed record: if a field pushes this past 32
// bytes the kernel quietly loses its cache-line guarantee, so fail the
// build instead.
const _: () = assert!(std::mem::size_of::<BatchRec>() == 32);

/// One compacted half-edge of a *unit-weight* batch: the base weight is
/// identically 1, so it is not stored and the hot loop streams 8 bytes
/// per half-edge — a quarter of the scalar path's 32.
#[derive(Debug, Clone, Copy)]
struct UnitEdge {
    target: u32,
    edge: u32,
}

const _: () = assert!(std::mem::size_of::<UnitEdge>() == 8);

/// Reusable working memory for [`CsrGraph::full_tree_batch`]: packed
/// 32-byte per-node records, the per-batch compacted unit-weight
/// adjacency, the two level queues of the unit sweep, and the scalar
/// scratch a weighted batch runs on, shared across every source of a
/// batch.
///
/// Reset between sources is O(1) (epoch stamps); buffers grow on demand
/// and are never shrunk, so a scratch that served one batch serves the
/// next without reallocating. Not `Sync`: use one per worker thread (the
/// parallel engine hands each worker exactly one).
///
/// ```
/// use rbpc_graph::{csr::{CsrGraph, SptBatchScratch}, CostModel, Graph, Metric, NodeId};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 2)?;
/// let model = CostModel::new(Metric::Weighted, 0);
/// let csr = CsrGraph::new(&g, &model);
/// let mut scratch = SptBatchScratch::new(csr.node_count());
/// let trees = csr.full_tree_batch(&[NodeId::new(0), NodeId::new(2)], None, &mut scratch);
/// assert_eq!(trees[0].base_dist(2.into()), Some(4));
/// assert_eq!(trees[1].base_dist(0.into()), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SptBatchScratch {
    /// Current run stamp, always even; steps by 2 per source.
    epoch: u32,
    /// One packed record per node (valid when `stamp[v] >= epoch`).
    recs: Vec<BatchRec>,
    /// One-byte epoch stamp per node: `== epoch & 0xff` ⇔ touched (in
    /// a level queue), `== (epoch & 0xff) + 1` ⇔ settled this run,
    /// anything else stale. Kept out of [`BatchRec`] on purpose: the
    /// whole lane is ~n bytes, so the settled-target fast path of a
    /// relaxation resolves inside this L1-resident lane without ever
    /// touching the 32-byte record line. The one-byte width forces a
    /// full clear every 127 runs — O(n) amortized to nothing.
    stamp: Vec<u8>,
    /// The unit sweep's current level; drained to empty by every run.
    cur: Vec<u32>,
    /// The unit sweep's next level; drained to empty by every run.
    next: Vec<u32>,
    /// Compacted per-batch CSR offsets (`soff[u]..soff[u+1]` indexes
    /// `unit`).
    soff: Vec<u32>,
    /// Compacted per-batch unit-weight half-edges, failure mask
    /// pre-applied; unfinished after a weighted batch.
    unit: Vec<UnitEdge>,
    /// Working memory of the scalar loop a weighted batch runs; empty
    /// until one does.
    scalar: DijkstraScratch,
    runs: u64,
    settled_total: u64,
    decrease_keys: u64,
    ties: u64,
}

impl SptBatchScratch {
    /// A batch scratch with capacity for `n`-node graphs (grows on
    /// demand). The per-node lanes are reserved up front; the level
    /// queues keep their capacity, so reuse never reallocates mid-sweep.
    pub fn new(n: usize) -> Self {
        SptBatchScratch {
            epoch: 0,
            recs: vec![EMPTY_BATCH_REC; n],
            stamp: vec![0; n],
            cur: Vec::new(),
            next: Vec::new(),
            soff: Vec::with_capacity(n + 1),
            unit: Vec::new(),
            scalar: DijkstraScratch::new(0),
            runs: 0,
            settled_total: 0,
            decrease_keys: 0,
            ties: 0,
        }
    }

    /// Prepares for one source's run over an `n`-node graph: bumps the
    /// epoch (handling wrap-around) and grows buffers if needed.
    fn begin(&mut self, n: usize) {
        if self.recs.len() < n {
            self.recs.resize(n, EMPTY_BATCH_REC);
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(2);
        if self.epoch & 0xff == 0 {
            // The one-byte stamps wrapped: old stamps could collide with
            // this run's, so clear them and skip past low byte 0 (the
            // cleared value must match no live epoch).
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = self.epoch.wrapping_add(2);
        }
        self.runs += 1;
    }

    /// Number of single-source runs served so far.
    #[inline]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total nodes settled across all runs (perf accounting). Every node
    /// the unit sweep touches is queued once and settles, so this is
    /// also its frontier's push and pop count.
    #[inline]
    pub fn settled_total(&self) -> u64 {
        self.settled_total
    }

    /// The unit sweep's pad-only improvements across all runs: a second
    /// relaxation into a node of the next level that lowered only its
    /// pad bits, so the record is rewritten in place and the node's
    /// level is unchanged. The scalar loop a weighted batch runs counts
    /// none.
    #[inline]
    pub fn decrease_keys(&self) -> u64 {
        self.decrease_keys
    }

    /// Exact ties across all runs of both loops: relaxations whose
    /// distance equals the touched target's distance exactly, reached
    /// through a different parent. Padded costs make every shortest path
    /// unique, so this stays 0; a tie would make the settled tree depend
    /// on pop order.
    #[inline]
    pub fn ties_total(&self) -> u64 {
        self.ties + self.scalar.ties_total()
    }
}

/// The unit-weight sweep: with every base weight exactly 1, base
/// distance *is* hop count, and the frontier is two level queues — the
/// current level and the next. A level-L settle can only key a node at
/// L + 1, so the current level is frozen while it drains and the
/// frontier needs no keys and no per-node `pop`: the kernel sweeps the
/// current level as a slice (sequential reads) and appends first touches
/// to the next. A frontier node's level is L or L + 1 and every fresh
/// relaxation lands at exactly L + 1, so improvements are pad-only
/// record rewrites that never move a node between levels. Relaxations
/// still compare full `u128` distances, so the settled records stay
/// bit-identical to the scalar path.
///
/// Both queues drain to empty, preserving the scratch invariant.
#[allow(clippy::too_many_arguments)] // split-borrow plumbing, not an API
fn run_search_unit(
    soff: &[u32],
    slim: &[UnitEdge],
    seed: u64,
    s: usize,
    ep: u8,
    recs: &mut [BatchRec],
    stamp: &mut [u8],
    cur: &mut Vec<u32>,
    next: &mut Vec<u32>,
    settled_total: &mut u64,
    decrease_keys: &mut u64,
    ties: &mut u64,
) {
    let ep_done = ep + 1;
    recs[s] = BatchRec {
        dist: 0,
        parent_node: NO_NODE,
        parent_edge: NO_EDGE,
    };
    stamp[s] = ep;
    cur.clear();
    next.clear();
    cur.push(s as u32);

    // lint:hot: the unit-weight level sweep.
    while !cur.is_empty() {
        for &un in cur.iter() {
            let u = un as usize;
            debug_assert_eq!(stamp[u], ep, "level queues never hold stale entries");
            stamp[u] = ep_done;
            *settled_total += 1;
            let d = recs[u].dist;

            // lint:allow(hot-path) — `soff` has n+1 entries, so `u + 1` is in bounds for every settled node id
            let (lo, hi) = (soff[u] as usize, soff[u + 1] as usize);
            for &se in &slim[lo..hi] {
                let v = se.target as usize;
                let sv = stamp[v];
                if sv == ep_done {
                    continue;
                }
                let nd = d + ((1u128 << 64) | u128::from(edge_pad(seed, se.edge)));
                if sv != ep {
                    recs[v] = BatchRec {
                        dist: nd,
                        parent_node: un,
                        parent_edge: se.edge,
                    };
                    stamp[v] = ep;
                    // lint:allow(hot-path) — level queues keep their capacity across the batch; pushes are amortized alloc-free
                    next.push(se.target);
                } else if nd < recs[v].dist {
                    // Same-level pad improvement: rewrite the record in
                    // place; the node's level (its key) cannot change.
                    recs[v] = BatchRec {
                        dist: nd,
                        parent_node: un,
                        parent_edge: se.edge,
                    };
                    *decrease_keys += 1;
                } else if nd == recs[v].dist {
                    *ties += 1;
                }
            }
        }
        std::mem::swap(cur, next);
        next.clear();
    }
}

impl CsrGraph {
    /// Computes the full shortest-path trees of every source in
    /// `sources`, in order — bit-identical to calling
    /// [`CsrGraph::full_tree_masked`] per source. A batch whose live
    /// half-edges all have base weight 1 runs the unit-weight sweep over
    /// a compacted adjacency; any other batch runs the scalar loop per
    /// source (module docs).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range or `mask` was built for
    /// different graph dimensions.
    pub fn full_tree_batch(
        &self,
        sources: &[NodeId],
        mask: Option<&FailureMask>,
        scratch: &mut SptBatchScratch,
    ) -> Vec<ShortestPathTree> {
        if let Some(m) = mask {
            m.check_dims(self.n, self.m);
        }
        if sources.is_empty() {
            return Vec::new();
        }
        let unit = self.compact_unit(mask, scratch);
        sources
            .iter()
            .map(|&source| {
                assert!(source.index() < self.n, "source {source} out of range");
                if mask.is_some_and(|m| m.node_failed(source)) {
                    ShortestPathTree::unreachable(source, self.n)
                } else if unit {
                    self.unit_tree(source, scratch)
                } else {
                    self.scalar_tree(source, mask, scratch)
                }
            })
            .collect()
    }

    /// Compacts the adjacency into the scratch's unit-weight CSR,
    /// dropping every masked half-edge (and the whole adjacency of failed
    /// nodes — the search can never enter them anyway). One sequential
    /// O(n + m) pass amortized across the entire batch. Returns `false`,
    /// leaving the compaction unfinished, at the first live half-edge
    /// whose base weight is not 1: that batch runs the scalar loop.
    fn compact_unit(&self, mask: Option<&FailureMask>, scratch: &mut SptBatchScratch) -> bool {
        let SptBatchScratch { soff, unit, .. } = scratch;
        soff.clear();
        unit.clear();
        soff.reserve(self.n + 1);
        unit.reserve(self.half.len());
        soff.push(0);
        for u in 0..self.n {
            let dead = mask.is_some_and(|m| m.node_failed(NodeId::new(u)));
            if !dead {
                let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
                for he in &self.half[lo..hi] {
                    if mask.is_some_and(|m| m.half_edge_masked(he.edge, he.target)) {
                        continue;
                    }
                    if he.weight >> 64 != 1 {
                        return false;
                    }
                    debug_assert_eq!(
                        (1u128 << 64) | u128::from(edge_pad(self.model.seed(), he.edge)),
                        he.weight,
                        "unit edge must reconstruct the precomputed weight exactly"
                    );
                    unit.push(UnitEdge {
                        target: he.target,
                        edge: he.edge,
                    });
                }
            }
            soff.push(unit.len() as u32);
        }
        true
    }

    /// One source of a weighted batch: the scalar loop on the scratch's
    /// [`DijkstraScratch`].
    fn scalar_tree(
        &self,
        source: NodeId,
        mask: Option<&FailureMask>,
        scratch: &mut SptBatchScratch,
    ) -> ShortestPathTree {
        let before = scratch.scalar.settled_total();
        let tree = self.full_tree_masked(source, mask, &mut scratch.scalar);
        scratch.runs += 1;
        scratch.settled_total += scratch.scalar.settled_total() - before;
        tree
    }

    /// One source of a unit-weight batch over the compacted adjacency
    /// (mask already applied at compaction): the sweep, then the harvest.
    fn unit_tree(&self, source: NodeId, scratch: &mut SptBatchScratch) -> ShortestPathTree {
        scratch.begin(self.n);
        let ep = (scratch.epoch & 0xff) as u8;
        let ep_done = ep + 1;
        let SptBatchScratch {
            recs,
            stamp,
            cur,
            next,
            soff,
            unit,
            settled_total,
            decrease_keys,
            ties,
            ..
        } = scratch;
        let recs = &mut recs[..];
        let stamp = &mut stamp[..];
        let settled_before = *settled_total;
        run_search_unit(
            soff,
            unit,
            self.model.seed(),
            source.index(),
            ep,
            recs,
            stamp,
            cur,
            next,
            settled_total,
            decrease_keys,
            ties,
        );

        // Harvest: one sequential pass over the packed records (which sit
        // in L2 after the search); every output element is written
        // exactly once (settled value or unreachable sentinel). When the
        // search settled every node (a connected graph under no mask —
        // the provisioning steady state), the stamp lane is not consulted
        // at all: the harvest is a straight branch-free record copy-out.
        let n = self.n;
        let mut out_dist = Vec::with_capacity(n);
        let mut out_pe = Vec::with_capacity(n);
        let mut out_pn = Vec::with_capacity(n);
        if *settled_total - settled_before == n as u64 {
            for rec in &recs[..n] {
                out_dist.push(rec.dist);
                out_pe.push(rec.parent_edge);
                out_pn.push(rec.parent_node);
            }
        } else {
            for (rec, &sv) in recs[..n].iter().zip(&stamp[..n]) {
                if sv == ep_done {
                    out_dist.push(rec.dist);
                    out_pe.push(rec.parent_edge);
                    out_pn.push(rec.parent_node);
                } else {
                    out_dist.push(u128::MAX);
                    out_pe.push(NO_EDGE);
                    out_pn.push(NO_NODE);
                }
            }
        }
        ShortestPathTree::from_arrays(source, out_dist, out_pe, out_pn)
    }
}

/// The per-edge 44-bit padding — exactly
/// [`CostModel::perturbed_weight`](crate::CostModel::perturbed_weight)'s
/// low half, recomputed from the seed instead of loaded from memory.
#[inline]
fn edge_pad(seed: u64, edge: u32) -> u64 {
    splitmix64(seed ^ (u64::from(edge) + 1)) >> (64 - CostModel::PAD_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::DijkstraScratch;
    use crate::{CostModel, DetRng, EdgeId, FailureSet, Graph, Metric};

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        while g.edge_count() < m {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge(a, b, rng.gen_range(1..=50u32)).unwrap();
            }
        }
        g
    }

    #[test]
    fn batch_matches_scalar_unmasked() {
        let g = random_graph(60, 150, 3);
        let mut scalar = DijkstraScratch::new(g.node_count());
        let sources: Vec<NodeId> = g.nodes().collect();
        for metric in [Metric::Weighted, Metric::Unweighted] {
            let csr = CsrGraph::new(&g, &CostModel::new(metric, 17));
            let mut batch = SptBatchScratch::new(csr.node_count());
            let settled_before = scalar.settled_total();
            let want: Vec<_> = sources
                .iter()
                .map(|&s| csr.full_tree(s, &mut scalar))
                .collect();
            let got = csr.full_tree_batch(&sources, None, &mut batch);
            assert_eq!(got, want, "{metric:?}");
            assert_eq!(batch.runs(), 60);
            assert_eq!(
                batch.settled_total(),
                scalar.settled_total() - settled_before
            );
            assert_eq!(batch.ties_total(), 0, "padded shortest paths are unique");
            if metric == Metric::Unweighted {
                assert!(batch.decrease_keys() > 0, "a dense graph must improve pads");
            } else {
                assert_eq!(batch.decrease_keys(), 0, "the scalar loop counts none");
            }
        }
    }

    #[test]
    fn batch_matches_scalar_masked_and_failed_source() {
        let g = random_graph(40, 100, 7);
        let model = CostModel::new(Metric::Unweighted, 5);
        let csr = CsrGraph::new(&g, &model);
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(0));
        set.fail_edge(EdgeId::new(13));
        set.fail_node(NodeId::new(3));
        let mask = FailureMask::from_set(&csr, &set);
        let mut scalar = DijkstraScratch::new(csr.node_count());
        let mut batch = SptBatchScratch::new(csr.node_count());
        let sources: Vec<NodeId> = g.nodes().collect(); // includes failed node 3
        let want: Vec<_> = sources
            .iter()
            .map(|&s| csr.full_tree_masked(s, Some(&mask), &mut scalar))
            .collect();
        let got = csr.full_tree_batch(&sources, Some(&mask), &mut batch);
        assert_eq!(got, want);
        assert!(!got[3].reachable(NodeId::new(3)), "failed source tree");
    }

    #[test]
    fn batch_preserves_source_order_with_repeats() {
        let g = random_graph(20, 45, 11);
        let model = CostModel::new(Metric::Weighted, 2);
        let csr = CsrGraph::new(&g, &model);
        let mut batch = SptBatchScratch::new(csr.node_count());
        let sources = [NodeId::new(5), NodeId::new(0), NodeId::new(5)];
        let trees = csr.full_tree_batch(&sources, None, &mut batch);
        let seen: Vec<NodeId> = trees.iter().map(ShortestPathTree::source).collect();
        assert_eq!(seen, sources);
        assert_eq!(trees[0], trees[2]);
    }

    #[test]
    fn scratch_reuse_across_graphs_grows_and_stays_exact() {
        let mut batch = SptBatchScratch::new(0); // grows on demand
        let mut scalar = DijkstraScratch::new(0);
        for seed in 0..3u64 {
            let g = random_graph(30 + 10 * seed as usize, 80, seed);
            for metric in [Metric::Weighted, Metric::Unweighted] {
                let csr = CsrGraph::new(&g, &CostModel::new(metric, 9));
                let sources: Vec<NodeId> = g.nodes().collect();
                let want: Vec<_> = sources
                    .iter()
                    .map(|&s| csr.full_tree(s, &mut scalar))
                    .collect();
                assert_eq!(csr.full_tree_batch(&sources, None, &mut batch), want);
            }
        }
        assert!(batch.runs() >= 180);
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = random_graph(10, 20, 1);
        let model = CostModel::new(Metric::Weighted, 1);
        let csr = CsrGraph::new(&g, &model);
        let mut batch = SptBatchScratch::new(csr.node_count());
        assert!(csr.full_tree_batch(&[], None, &mut batch).is_empty());
        assert_eq!(batch.runs(), 0);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let g = random_graph(15, 35, 4);
        let model = CostModel::new(Metric::Unweighted, 6);
        let csr = CsrGraph::new(&g, &model);
        let mut scalar = DijkstraScratch::new(csr.node_count());
        let want = csr.full_tree(NodeId::new(0), &mut scalar);
        let mut batch = SptBatchScratch::new(csr.node_count());
        batch.epoch = u32::MAX - 1;
        for _ in 0..4 {
            let got = csr.full_tree_batch(&[NodeId::new(0)], None, &mut batch);
            assert_eq!(got[0], want);
        }
        assert!(batch.epoch >= 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = random_graph(5, 8, 2);
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 0));
        let mut batch = SptBatchScratch::new(csr.node_count());
        let _ = csr.full_tree_batch(&[NodeId::new(99)], None, &mut batch);
    }

    #[test]
    #[should_panic(expected = "applied to a")]
    fn wrong_dims_mask_panics() {
        let g = random_graph(5, 8, 2);
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 0));
        let mask = FailureMask::new(2, 1);
        let mut batch = SptBatchScratch::new(csr.node_count());
        let _ = csr.full_tree_batch(&[NodeId::new(0)], Some(&mask), &mut batch);
    }

    /// A graph with base weights up to 100 000, far past the level
    /// queue's window.
    fn heavy_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        while g.edge_count() < m {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge(a, b, rng.gen_range(1..=100_000u32)).unwrap();
            }
        }
        g
    }

    /// Runs `sources` through one batch and reports which loop served
    /// them: `"scalar"` when the scalar scratch ran, else `"unit"`.
    fn batch_loop(
        csr: &CsrGraph,
        sources: &[NodeId],
        mask: Option<&FailureMask>,
        batch: &mut SptBatchScratch,
    ) -> (Vec<ShortestPathTree>, &'static str) {
        let scalar_runs = batch.scalar.runs();
        let trees = csr.full_tree_batch(sources, mask, batch);
        let name = if batch.scalar.runs() > scalar_runs {
            "scalar"
        } else {
            "unit"
        };
        (trees, name)
    }

    #[test]
    fn heavy_weights_take_scalar_loop_and_match_scalar() {
        let g = heavy_graph(60, 150, 12);
        let model = CostModel::new(Metric::Weighted, 21);
        let csr = CsrGraph::new(&g, &model);
        let mut scalar = DijkstraScratch::new(csr.node_count());
        let mut batch = SptBatchScratch::new(csr.node_count());
        let sources: Vec<NodeId> = g.nodes().collect();
        let want: Vec<_> = sources
            .iter()
            .map(|&s| csr.full_tree(s, &mut scalar))
            .collect();
        let (got, used) = batch_loop(&csr, &sources, None, &mut batch);
        assert_eq!(got, want);
        assert_eq!(used, "scalar", "fixture must take the scalar loop");
        assert_eq!(batch.runs(), 60);
        assert_eq!(batch.settled_total(), scalar.settled_total());
        assert_eq!(batch.ties_total(), 0);
    }

    #[test]
    fn one_scratch_switches_frontier_between_batches() {
        let heavy = heavy_graph(40, 100, 5);
        // Weights 1..=50.
        let light = random_graph(40, 100, 5);
        // Unit weights everywhere except the edges at node 7, which every
        // masked batch fails: masked, it takes the unit sweep.
        let mut mostly_unit = Graph::new(40);
        for (_, r) in random_graph(40, 100, 6).edges() {
            let w = if r.u.index() == 7 || r.v.index() == 7 {
                9
            } else {
                1
            };
            mostly_unit.add_edge(r.u.index(), r.v.index(), w).unwrap();
        }
        let weighted = CostModel::new(Metric::Weighted, 31);
        let unit = CostModel::new(Metric::Unweighted, 31);
        let mut batch = SptBatchScratch::new(0);
        let mut scalar = DijkstraScratch::new(0);
        let batches = [
            (&heavy, weighted, ["scalar", "scalar"]),
            (&light, unit, ["unit", "unit"]),
            (&light, weighted, ["scalar", "scalar"]),
            (&mostly_unit, weighted, ["scalar", "unit"]),
            (&heavy, unit, ["unit", "unit"]),
        ];
        for (g, model, loops) in batches {
            let csr = CsrGraph::new(g, &model);
            let mut set = FailureSet::new();
            set.fail_edge(EdgeId::new(2));
            set.fail_node(NodeId::new(7));
            let mask = FailureMask::from_set(&csr, &set);
            let sources: Vec<NodeId> = g.nodes().collect();
            for (m, want_loop) in [None, Some(&mask)].into_iter().zip(loops) {
                let want: Vec<_> = sources
                    .iter()
                    .map(|&s| csr.full_tree_masked(s, m, &mut scalar))
                    .collect();
                let (got, used) = batch_loop(&csr, &sources, m, &mut batch);
                assert_eq!(got, want, "{want_loop} batch, masked: {}", m.is_some());
                assert_eq!(used, want_loop, "masked: {}", m.is_some());
                assert!(
                    batch.cur.is_empty() && batch.next.is_empty(),
                    "every batch drains its level queues completely"
                );
            }
        }
        assert_eq!(batch.ties_total(), 0);
    }
}
