//! Batched multi-source shortest-path-tree kernel.
//!
//! The provisioning sweep — `DenseBasePaths::build`, every
//! `ShardedBasePaths` shard build, the paper-scale eval — is *n*
//! independent full-tree Dijkstras over one frozen [`CsrGraph`]. The
//! scalar path ([`CsrGraph::full_tree`]) is already allocation-free, but
//! every one of its runs pays three per-edge costs that a *batch* can
//! amortize or eliminate:
//!
//! * it streams 32-byte [`HalfEdge`](super::CsrGraph) records whose
//!   precomputed `u128` weight is derivable from 12 bytes;
//! * it re-evaluates the failure-mask predicate (two bitset probes) for
//!   every half-edge of every source;
//! * its level queue has no decrease-key: a node that moves to a lower
//!   base distance is queued again and leaves a stale entry behind for a
//!   later pop to discard.
//!
//! This module is the batch-shaped replacement:
//!
//! * **once per batch**, the kernel compacts the adjacency into 12-byte
//!   slim half-edges (`target`, `edge`, `base`) with the failure mask
//!   *pre-applied* — masked edges simply do not exist in the compacted
//!   CSR, so the per-source hot loop has no mask branch and streams
//!   2.7× less edge data. The perturbed weight is reconstructed on the
//!   fly from the model seed (`(base << 64) | pad(edge)`, the exact
//!   [`CostModel::perturbed_weight`](crate::CostModel::perturbed_weight)
//!   expression), trading ~5 ALU ops for 20 bytes of memory traffic per
//!   relaxation;
//! * the per-node hot record ([`SptBatchScratch`]) is packed to
//!   **exactly 32 bytes** (`dist`/`parent_node`/`parent_edge`), two per
//!   cache line, with the same epoch-stamped O(1) reset discipline as
//!   the scalar scratch. The stamp itself lives in a separate
//!   L1-resident one-byte lane so the settled-target fast path of a
//!   relaxation never touches the record line;
//! * a **decrease-key frontier keyed by base distance** — one entry per
//!   touched node, a `pos[]` array keyed by node id, 8-byte `u64` keys
//!   (the *base* distance, not the padded `u128`; validity argument
//!   below). An improvement re-keys the node in place; no duplicate
//!   entries, so the pop count equals the settle count exactly, and
//!   pad-only improvements skip the frontier entirely. A unit-weight
//!   batch (hop counts) sweeps two level queues; otherwise, when every
//!   base weight in the compacted batch is ≤ `BUCKET_MAX_WEIGHT`
//!   (OSPF-style metrics — every topology family in the eval), **Dial's
//!   monotone bucket ring** makes push, pop, and decrease-key O(1)
//!   division-free array ops. A batch with a heavier weight runs each
//!   source through the scalar [`CsrGraph::full_tree_masked`] instead;
//!   its trees are the same (unique shortest paths), only slower;
//! * a **prefetch-friendly tree harvest**: one sequential pass over the
//!   packed records writes each output element exactly once (settled
//!   value or unreachable sentinel) into the tree's three per-field
//!   arrays — no random-order stores, no sentinel prefill.
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
//! argument, so all three Dijkstra kernels pop same-base nodes in
//! arbitrary order. Perturbed padded costs make every
//! shortest path unique ([`CostModel`]), so no
//! harvested array depends on settle order. `tests/spt_batch.rs` at the
//! repository root pins this across topology families × failure masks ×
//! batch sizes × thread counts.
//!
//! # Accounting
//!
//! The scratch counts frontier pushes, pops, and decrease-keys across
//! its lifetime; a heavy-weight source counts one push and one pop per
//! settled node and no decrease-keys (the scalar queue has none).
//! [`par_all_sources_csr`](crate::par::par_all_sources_csr)
//! surfaces the totals through [`ParStats`](crate::par::ParStats), and
//! the core crate records them as `core.provision.heap_*` obs counters,
//! so the duplicate-pop traffic this kernel eliminates is visible in
//! live telemetry (`/metrics`, loadtest window JSONL).

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

/// One compacted half-edge: 12 bytes instead of the scalar path's 32.
/// The perturbed weight is *not* stored — it is recomputed from
/// (`base`, `edge`, model seed) during relaxation, and the failure mask
/// is pre-applied at build time, so the hot loop needs neither the
/// `u128` weight nor a mask probe.
#[derive(Debug, Clone, Copy)]
struct SlimEdge {
    target: u32,
    edge: u32,
    /// Base-metric weight. Both metrics produce values that fit `u32`
    /// (`Weighted` is the configured `u32` link weight, `Unweighted` is
    /// 1); the build asserts it.
    base: u32,
}

const _: () = assert!(std::mem::size_of::<SlimEdge>() == 12);

/// One compacted half-edge of a *unit-weight* batch: the base weight is
/// identically 1, so it is not stored and the hot loop streams 8 bytes
/// per half-edge — a quarter of the scalar path's 32. Unit base weights
/// are the common case (the unweighted metric, and every hop-count
/// topology in the eval), so the batch compaction re-packs into this
/// form whenever the batch's maximum base weight is 1.
#[derive(Debug, Clone, Copy)]
struct UnitEdge {
    target: u32,
    edge: u32,
}

const _: () = assert!(std::mem::size_of::<UnitEdge>() == 8);

/// Reusable working memory for [`CsrGraph::full_tree_batch`]: packed
/// 32-byte per-node records, the per-batch compacted slim adjacency, the
/// frontier queues, and the scalar scratch a heavy-weight batch runs on,
/// shared across every source of a batch.
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
    /// the frontier, `pos[v]` valid), `== (epoch & 0xff) + 1` ⇔ settled
    /// this run, anything else stale. Kept out of [`BatchRec`] on
    /// purpose: the whole lane is ~n bytes, so the settled-target fast
    /// path of a relaxation resolves inside this L1-resident lane
    /// without ever touching the 32-byte record line. The one-byte
    /// width forces a full clear every 127 runs — O(n) amortized to
    /// nothing.
    stamp: Vec<u8>,
    /// Index within its Dial bucket per node, valid only while
    /// `stamp[v] == epoch`. Kept out of [`BatchRec`] for the same reason
    /// as the stamps: bucket traffic stays inside this one small lane
    /// instead of dirtying the record lines.
    pos: Vec<u32>,
    /// Dial bucket ring (small-weight frontier): `buckets[slot(d)]`
    /// holds the touched-unsettled nodes at base distance `d`. Capacity
    /// is kept across runs; every run drains its buckets completely.
    buckets: Vec<Vec<u32>>,
    /// Compacted per-batch CSR offsets (`soff[u]..soff[u+1]` indexes
    /// `slim`).
    soff: Vec<u32>,
    /// Compacted per-batch slim half-edges, failure mask pre-applied.
    slim: Vec<SlimEdge>,
    /// 8-byte re-pack of `slim` used when the batch is unit-weight
    /// (`slim_wmax <= 1`); empty otherwise.
    unit: Vec<UnitEdge>,
    /// Maximum base weight over `slim` — selects the frontier discipline
    /// (≤ 1 ⇒ level queues, ≤ [`BUCKET_MAX_WEIGHT`] ⇒ Dial buckets, else
    /// the scalar search on `scalar`).
    slim_wmax: u32,
    /// Working memory of the scalar search a heavy-weight batch runs;
    /// empty until one does.
    scalar: DijkstraScratch,
    runs: u64,
    settled_total: u64,
    heap_pushes: u64,
    heap_pops: u64,
    decrease_keys: u64,
}

impl SptBatchScratch {
    /// A batch scratch with capacity for `n`-node graphs (grows on
    /// demand). The per-node lanes are reserved up front; the buckets
    /// keep their capacity, so reuse never reallocates mid-sweep.
    pub fn new(n: usize) -> Self {
        SptBatchScratch {
            epoch: 0,
            recs: vec![EMPTY_BATCH_REC; n],
            stamp: vec![0; n],
            pos: vec![0; n],
            buckets: Vec::new(),
            soff: Vec::with_capacity(n + 1),
            slim: Vec::new(),
            unit: Vec::new(),
            slim_wmax: 0,
            scalar: DijkstraScratch::new(0),
            runs: 0,
            settled_total: 0,
            heap_pushes: 0,
            heap_pops: 0,
            decrease_keys: 0,
        }
    }

    /// Prepares for one source's run over an `n`-node graph: bumps the
    /// epoch (handling wrap-around) and grows buffers if needed.
    fn begin(&mut self, n: usize) {
        if self.recs.len() < n {
            self.recs.resize(n, EMPTY_BATCH_REC);
            self.stamp.resize(n, 0);
            self.pos.resize(n, 0);
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

    /// Total nodes settled across all runs (perf accounting).
    #[inline]
    pub fn settled_total(&self) -> u64 {
        self.settled_total
    }

    /// Frontier insertions across all runs — exactly one per touched
    /// node, never one per improvement (that is the decrease-key win).
    #[inline]
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    /// Frontier pops across all runs. With decrease-key every pop
    /// settles a node, so this always equals
    /// [`settled_total`](Self::settled_total) — the scalar level queue
    /// also pops the stale entries a lower-level move leaves behind.
    #[inline]
    pub fn heap_pops(&self) -> u64 {
        self.heap_pops
    }

    /// Improvements of an already-queued node across all runs — each one
    /// that lowers the base distance is a relaxation the scalar path
    /// turns into a duplicate queue entry plus a stale pop. Here it is at most an
    /// in-place re-key (and not even that when only pad bits improved:
    /// the base-distance key is unchanged, so the frontier needs no work
    /// at all). A heavy-weight batch's scalar search counts none.
    #[inline]
    pub fn decrease_keys(&self) -> u64 {
        self.decrease_keys
    }
}

/// Weight ceiling for the Dial bucket frontier: with all base weights
/// `<= BUCKET_MAX_WEIGHT`, the frontier spans at most that many distinct
/// base distances, so a ring of `w_max + 1` buckets replaces the heap
/// and every queue operation is O(1). OSPF-style metrics (the paper's
/// networks, the ISP fixture, every topology family in the eval) sit
/// far below this; a batch with larger weights runs the scalar search.
const BUCKET_MAX_WEIGHT: u32 = 1024;

/// The batched kernel's frontier, keyed by *base* distance (see the
/// module docs for why `u64` base keys are exact): Dial's monotone
/// bucket ring. `cur` sweeps base distances upward; all live keys sit
/// in `[cur, cur + c)` (every edge adds at least 1 and at most
/// `c - 1 = w_max` to a settled distance), so each key maps to exactly
/// one ring slot. The slot is
/// computed *incrementally* — `cur`'s slot index rides along with `cur`
/// and a key's offset from `cur` is a subtract-compare, never a `% c`
/// division (a runtime-divisor `%` costs tens of cycles on every one of
/// the millions of queue ops in a provisioning sweep). Within one bucket
/// every node has the *same* base distance, so LIFO pop order is one of
/// the arbitrary tie orders the kernel's exactness argument already
/// covers.
/// (Unit-weight batches bypass this ring entirely — see
/// [`run_search_unit`].)
struct BucketQueue<'a> {
    buckets: &'a mut [Vec<u32>],
    /// Ring size: `w_max + 1`.
    c: usize,
    /// Current sweep distance (monotonically non-decreasing).
    cur: u64,
    /// Ring slot holding keys equal to `cur`.
    cur_idx: usize,
    /// Queued-node count; buckets drain to exactly zero every run.
    live: usize,
}

impl BucketQueue<'_> {
    /// Ring slot of `key`, which monotonicity guarantees lies in
    /// `[cur, cur + c)`.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        debug_assert!(key >= self.cur && key - self.cur < self.c as u64);
        let off = (key - self.cur) as usize + self.cur_idx;
        if off >= self.c {
            off - self.c
        } else {
            off
        }
    }

    /// Inserts a node with the given base-distance key.
    #[inline]
    fn push(&mut self, node: u32, key: u64, pos: &mut [u32]) {
        let b = &mut self.buckets[self.slot(key)];
        pos[node as usize] = b.len() as u32;
        b.push(node);
        self.live += 1;
    }

    /// Removes and returns a node with the minimum key, or `None` when
    /// empty.
    #[inline]
    fn pop(&mut self) -> Option<u32> {
        if self.live == 0 {
            return None;
        }
        loop {
            let b = &mut self.buckets[self.cur_idx];
            if let Some(node) = b.pop() {
                self.live -= 1;
                return Some(node);
            }
            self.cur += 1;
            self.cur_idx += 1;
            if self.cur_idx == self.c {
                self.cur_idx = 0;
            }
        }
    }

    /// Re-keys a queued node from `old` to the strictly smaller `new`.
    #[inline]
    fn decrease(&mut self, node: u32, old: u64, new: u64, pos: &mut [u32]) {
        let ob = self.slot(old);
        let at = pos[node as usize] as usize;
        let moved = self.buckets[ob].swap_remove(at);
        debug_assert_eq!(moved, node, "pos[] must track bucket slots");
        if let Some(&m) = self.buckets[ob].get(at) {
            pos[m as usize] = at as u32;
        }
        let nb = &mut self.buckets[self.slot(new)];
        pos[node as usize] = nb.len() as u32;
        nb.push(node);
    }
}

/// The bucket-ring search loop of the batched kernel. Relaxations
/// compare full `u128` perturbed distances; only the frontier is keyed
/// by the `u64` base half, so the settled records are bit-identical to
/// the scalar path (module docs).
#[allow(clippy::too_many_arguments)] // split-borrow plumbing, not an API
#[inline]
fn run_search(
    soff: &[u32],
    slim: &[SlimEdge],
    seed: u64,
    s: usize,
    ep: u8,
    recs: &mut [BatchRec],
    stamp: &mut [u8],
    pos: &mut [u32],
    q: &mut BucketQueue<'_>,
    settled_total: &mut u64,
    heap_pushes: &mut u64,
    heap_pops: &mut u64,
    decrease_keys: &mut u64,
) {
    let ep_done = ep + 1;
    recs[s] = BatchRec {
        dist: 0,
        parent_node: NO_NODE,
        parent_edge: NO_EDGE,
    };
    stamp[s] = ep;
    q.push(s as u32, 0, pos);
    *heap_pushes += 1;

    // lint:hot: the batched settle loop (every provisioning source runs it).
    while let Some(un) = q.pop() {
        *heap_pops += 1;
        let u = un as usize;
        debug_assert_eq!(
            stamp[u], ep,
            "decrease-key frontier never holds stale entries"
        );
        stamp[u] = ep_done;
        *settled_total += 1;
        let d = recs[u].dist;
        // Pad sums along any supported path stay below 2^64 (44-bit
        // pads, < 2^20 hops), so a relaxed distance's base half is
        // always the settled base half plus the edge's base — one u64
        // add, no u128 shifts in the hot loop.
        // lint:allow(hot-path) — `>> 64` leaves exactly the base half; `as u64` discards nothing
        let dhi = (d >> 64) as u64;

        // lint:allow(hot-path) — `soff` has n+1 entries, so `u + 1` is in bounds for every settled node id
        let (lo, hi) = (soff[u] as usize, soff[u + 1] as usize);
        for &SlimEdge { target, edge, base } in &slim[lo..hi] {
            let v = target as usize;
            // The settled-target fast path never leaves the one-byte
            // stamp lane — no record line is touched.
            let sv = stamp[v];
            if sv == ep_done {
                continue;
            }
            let w = (u128::from(base) << 64) | u128::from(edge_pad(seed, edge));
            let nd = d + w;
            let nk = dhi + u64::from(base);
            // lint:allow(hot-path) — debug-only check; `>> 64` leaves exactly the base half, so `as u64` discards nothing
            debug_assert_eq!(nk, (nd >> 64) as u64, "pads never carry into the base half");
            if sv != ep {
                // First touch: one frontier entry, forever.
                recs[v] = BatchRec {
                    dist: nd,
                    parent_node: un,
                    parent_edge: edge,
                };
                stamp[v] = ep;
                // lint:allow(hot-path) — frontier pushes land in ring buckets that keep their capacity across the batch
                q.push(target, nk, pos);
                *heap_pushes += 1;
            } else if nd < recs[v].dist {
                // Improvement: re-key in place, no duplicate entry. If
                // only pad bits improved, the u64 base key is unchanged
                // and the frontier needs no work at all.
                // lint:allow(hot-path) — `>> 64` leaves exactly the base half; `as u64` discards nothing
                let ok = (recs[v].dist >> 64) as u64;
                recs[v] = BatchRec {
                    dist: nd,
                    parent_node: un,
                    parent_edge: edge,
                };
                if nk < ok {
                    q.decrease(target, ok, nk, pos);
                }
                *decrease_keys += 1;
            }
        }
    }
}

/// The unit-weight specialization of [`run_search`]: with every base
/// weight exactly 1, base distance *is* hop count and Dial's ring
/// degenerates to two buckets — the current BFS level and the next. A
/// level-L settle can only key a node at L + 1, so the current level is
/// frozen while it drains and the frontier needs no keys, no `pos[]`
/// bookkeeping, and no per-node `pop`: the kernel sweeps the current
/// level as a slice (sequential reads) and appends first touches to the
/// next (a base-key decrease is impossible — a frontier node's key is L
/// or L + 1 and every fresh relaxation keys at exactly L + 1 — so
/// improvements are pad-only record rewrites that never move a node
/// between levels). Relaxations still compare full `u128` distances, so
/// the settled records stay bit-identical to the scalar path.
///
/// `cur` and `next` are the first two ring buckets, reused as the two
/// level queues; both drain to empty, preserving the scratch invariant.
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
    heap_pushes: &mut u64,
    heap_pops: &mut u64,
    decrease_keys: &mut u64,
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
    *heap_pushes += 1;

    // lint:hot: the unit-weight level sweep.
    while !cur.is_empty() {
        for &un in cur.iter() {
            *heap_pops += 1;
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
                    *heap_pushes += 1;
                } else if nd < recs[v].dist {
                    // Same-level pad improvement: rewrite the record in
                    // place; the node's level (its key) cannot change.
                    recs[v] = BatchRec {
                        dist: nd,
                        parent_node: un,
                        parent_edge: se.edge,
                    };
                    *decrease_keys += 1;
                }
            }
        }
        std::mem::swap(cur, next);
        next.clear();
    }
}

impl CsrGraph {
    /// Computes the full shortest-path trees of every source in
    /// `sources`, in order, through the batched decrease-key kernel —
    /// bit-identical to calling [`CsrGraph::full_tree_masked`] per
    /// source, and ≥1.3× faster on provisioning-sized batches (the
    /// bench gate enforces that floor; see `benches/spt_batch.rs`).
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
        self.build_slim(mask, scratch);
        sources
            .iter()
            .map(|&source| {
                assert!(source.index() < self.n, "source {source} out of range");
                if mask.is_some_and(|m| m.node_failed(source)) {
                    ShortestPathTree::unreachable(source, self.n)
                } else if scratch.slim_wmax > BUCKET_MAX_WEIGHT {
                    self.heavy_tree(source, mask, scratch)
                } else {
                    self.batch_tree_inner(source, scratch)
                }
            })
            .collect()
    }

    /// Compacts the adjacency into the scratch's slim CSR, dropping every
    /// masked half-edge (and the whole adjacency of failed nodes — the
    /// search can never enter them anyway). One sequential O(n + m) pass
    /// amortized across the entire batch.
    fn build_slim(&self, mask: Option<&FailureMask>, scratch: &mut SptBatchScratch) {
        let soff = &mut scratch.soff;
        let slim = &mut scratch.slim;
        soff.clear();
        slim.clear();
        soff.reserve(self.n + 1);
        slim.reserve(self.half.len());
        soff.push(0);
        let seed = self.model.seed();
        let mut wmax = 0u32;
        for u in 0..self.n {
            let dead = mask.is_some_and(|m| m.node_failed(NodeId::new(u)));
            if !dead {
                let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
                for he in &self.half[lo..hi] {
                    if mask.is_some_and(|m| m.half_edge_masked(he.edge, he.target)) {
                        continue;
                    }
                    let base = (he.weight >> 64) as u64;
                    assert!(base <= u64::from(u32::MAX), "base weight exceeds u32");
                    debug_assert_eq!(
                        (u128::from(base) << 64) | u128::from(edge_pad(seed, he.edge)),
                        he.weight,
                        "slim edge must reconstruct the precomputed weight exactly"
                    );
                    wmax = wmax.max(base as u32);
                    slim.push(SlimEdge {
                        target: he.target,
                        edge: he.edge,
                        base: base as u32,
                    });
                }
            }
            soff.push(slim.len() as u32);
        }
        scratch.slim_wmax = wmax;
        // Unit-weight batch: re-pack into the 8-byte record once, so
        // every source of the batch streams 33% fewer edge bytes. (One
        // extra sequential O(m) pass, amortized across the batch.)
        scratch.unit.clear();
        if wmax <= 1 {
            scratch.unit.extend(slim.iter().map(|se| UnitEdge {
                target: se.target,
                edge: se.edge,
            }));
        }
    }

    /// One source of a batch whose base weights exceed
    /// [`BUCKET_MAX_WEIGHT`]: the scalar search on the scratch's
    /// [`DijkstraScratch`], counted as one push and one pop per settled
    /// node.
    fn heavy_tree(
        &self,
        source: NodeId,
        mask: Option<&FailureMask>,
        scratch: &mut SptBatchScratch,
    ) -> ShortestPathTree {
        let before = scratch.scalar.settled_total();
        let tree = self.full_tree_masked(source, mask, &mut scratch.scalar);
        let settled = scratch.scalar.settled_total() - before;
        scratch.runs += 1;
        scratch.settled_total += settled;
        scratch.heap_pushes += settled;
        scratch.heap_pops += settled;
        tree
    }

    /// One source's run of the batched kernel over the pre-built slim
    /// adjacency (mask already applied at build time). Dispatches the
    /// frontier discipline on the batch's maximum base weight, runs the
    /// search, then harvests.
    fn batch_tree_inner(&self, source: NodeId, scratch: &mut SptBatchScratch) -> ShortestPathTree {
        scratch.begin(self.n);
        let ep = (scratch.epoch & 0xff) as u8;
        let ep_done = ep + 1;
        let seed = self.model.seed();
        let SptBatchScratch {
            recs,
            stamp,
            pos,
            buckets,
            soff,
            slim,
            unit,
            slim_wmax,
            settled_total,
            heap_pushes,
            heap_pops,
            decrease_keys,
            ..
        } = scratch;
        let recs = &mut recs[..];
        let stamp = &mut stamp[..];
        let pos = &mut pos[..];
        let (soff, slim, unit) = (&soff[..], &slim[..], &unit[..]);
        let s = source.index();
        let pops_before = *heap_pops;

        if *slim_wmax <= 1 {
            // Unit weights: 8-byte edges, level-synchronous two-queue
            // sweep (the first two ring buckets serve as the queues).
            if buckets.len() < 2 {
                buckets.resize_with(2, Vec::new);
            }
            let (b0, b1) = buckets.split_at_mut(1);
            run_search_unit(
                soff,
                unit,
                seed,
                s,
                ep,
                recs,
                stamp,
                &mut b0[0],
                &mut b1[0],
                settled_total,
                heap_pushes,
                heap_pops,
                decrease_keys,
            );
        } else {
            let c = *slim_wmax as usize + 1;
            if buckets.len() < c {
                buckets.resize_with(c, Vec::new);
            }
            let mut q = BucketQueue {
                buckets: &mut buckets[..c],
                c,
                cur: 0,
                cur_idx: 0,
                live: 0,
            };
            run_search(
                soff,
                slim,
                seed,
                s,
                ep,
                recs,
                stamp,
                pos,
                &mut q,
                settled_total,
                heap_pushes,
                heap_pops,
                decrease_keys,
            );
        }

        // Harvest: one sequential pass over the packed records (which sit
        // in L2 after the search); every output element is written
        // exactly once (settled value or unreachable sentinel). When the
        // search settled every node (a connected graph under no mask —
        // the provisioning steady state), the stamp lane is not consulted
        // at all: the harvest is a straight branch-free record copy-out.
        let n = self.n;
        let settled_run = *heap_pops - pops_before;
        let mut out_dist = Vec::with_capacity(n);
        let mut out_pe = Vec::with_capacity(n);
        let mut out_pn = Vec::with_capacity(n);
        if settled_run == n as u64 {
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
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scalar = DijkstraScratch::new(csr.node_count());
        let mut batch = SptBatchScratch::new(csr.node_count());
        let sources: Vec<NodeId> = g.nodes().collect();
        let want: Vec<_> = sources
            .iter()
            .map(|&s| csr.full_tree(s, &mut scalar))
            .collect();
        let got = csr.full_tree_batch(&sources, None, &mut batch);
        assert_eq!(got, want);
        assert_eq!(batch.runs(), 60);
        assert_eq!(
            batch.heap_pops(),
            batch.settled_total(),
            "decrease-key pops exactly once per settle"
        );
        assert!(batch.decrease_keys() > 0, "a dense graph must improve keys");
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
        let model = CostModel::new(Metric::Weighted, 9);
        let mut batch = SptBatchScratch::new(0); // grows on demand
        let mut scalar = DijkstraScratch::new(0);
        for seed in 0..3u64 {
            let g = random_graph(30 + 10 * seed as usize, 80, seed);
            let csr = CsrGraph::new(&g, &model);
            let sources: Vec<NodeId> = g.nodes().collect();
            let want: Vec<_> = sources
                .iter()
                .map(|&s| csr.full_tree(s, &mut scalar))
                .collect();
            assert_eq!(csr.full_tree_batch(&sources, None, &mut batch), want);
        }
        assert!(batch.runs() >= 90);
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
        let model = CostModel::new(Metric::Weighted, 6);
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

    /// A graph whose base weights exceed [`BUCKET_MAX_WEIGHT`], forcing
    /// the scalar search.
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

    #[test]
    fn heavy_weights_take_heap_path_and_match_scalar() {
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
        let got = csr.full_tree_batch(&sources, None, &mut batch);
        assert_eq!(got, want);
        assert!(
            batch.slim_wmax > BUCKET_MAX_WEIGHT,
            "fixture must actually take the heavy-weight path"
        );
    }

    #[test]
    fn small_weights_take_bucket_path() {
        let g = random_graph(60, 150, 3); // weights 1..=50
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut batch = SptBatchScratch::new(csr.node_count());
        let sources: Vec<NodeId> = g.nodes().collect();
        let _ = csr.full_tree_batch(&sources, None, &mut batch);
        assert!(batch.slim_wmax <= BUCKET_MAX_WEIGHT);
        assert!(batch.buckets.len() > 50, "ring sized to w_max + 1");
        assert!(
            batch.buckets.iter().all(Vec::is_empty),
            "every run drains its buckets completely"
        );
    }

    #[test]
    fn one_scratch_switches_frontier_between_batches() {
        let heavy = heavy_graph(40, 100, 5);
        let light = random_graph(40, 100, 5); // weights 1..=50
        let weighted = CostModel::new(Metric::Weighted, 31);
        let unit = CostModel::new(Metric::Unweighted, 31);
        let frontier = |wmax: u32| match wmax {
            0..=1 => "unit",
            w if w <= BUCKET_MAX_WEIGHT => "bucket",
            _ => "heavy",
        };
        let mut batch = SptBatchScratch::new(0);
        let mut scalar = DijkstraScratch::new(0);
        let batches = [
            (&heavy, weighted, "heavy"),
            (&light, weighted, "bucket"),
            (&heavy, weighted, "heavy"),
            (&light, unit, "unit"),
        ];
        for (g, model, want_frontier) in batches {
            let csr = CsrGraph::new(g, &model);
            let mut set = FailureSet::new();
            set.fail_edge(EdgeId::new(2));
            set.fail_node(NodeId::new(7));
            let mask = FailureMask::from_set(&csr, &set);
            let sources: Vec<NodeId> = g.nodes().collect();
            for m in [None, Some(&mask)] {
                let want: Vec<_> = sources
                    .iter()
                    .map(|&s| csr.full_tree_masked(s, m, &mut scalar))
                    .collect();
                let got = csr.full_tree_batch(&sources, m, &mut batch);
                assert_eq!(got, want, "{want_frontier} batch, masked: {}", m.is_some());
                assert_eq!(frontier(batch.slim_wmax), want_frontier);
                assert!(
                    batch.buckets.iter().all(Vec::is_empty),
                    "every batch drains its buckets completely"
                );
            }
        }
        assert_eq!(batch.heap_pops(), batch.settled_total());
    }
}
