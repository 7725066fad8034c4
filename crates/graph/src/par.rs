//! Std-only parallel batch Dijkstra: the RBPC provisioning fan-out.
//!
//! Provisioning computes one shortest-path tree per source — *n*
//! independent Dijkstras. This module runs them on a `std::thread::scope`
//! work pool: sources are cut into fixed chunks, worker threads claim
//! chunks through a single `AtomicUsize` (lock-free stealing, so an
//! unlucky thread that draws the expensive sources does not serialize the
//! batch), and each thread runs its chunks through the **batched
//! decrease-key kernel** ([`CsrGraph::full_tree_batch_with`]), reusing
//! one [`SptBatchScratch`] across all the trees it computes — the
//! packed per-node records and the frontier queues are allocated once
//! per worker, never per chunk or per source.
//!
//! # Determinism
//!
//! Results are written into an output slot pre-assigned per source
//! (`result[i]` is the tree of `sources[i]`), so the merge is a no-op and
//! the output order never depends on scheduling. The tree *contents* are
//! scheduling-independent too: perturbed costs make every shortest path
//! unique (see [`CostModel`](crate::CostModel)), so any thread computing the tree of source
//! `s` produces bit-identical arrays. `par_all_sources_csr` with 1, 2, or 64
//! threads returns byte-for-byte the same `Vec<ShortestPathTree>` as the
//! sequential [`shortest_path_tree`](crate::shortest_path_tree) loop —
//! enforced by `tests/csr_parallel.rs` at the repository root.
//!
//! This crate forbids `unsafe`, so output pre-slicing uses a `Mutex`
//! hand-off: each chunk's `&mut` output slice sits in a `Mutex<Option<…>>`
//! claimed exactly once by the thread that wins its index. The mutexes are
//! uncontended by construction (the atomic hands each index to one
//! thread), so the cost is one lock per chunk, not per tree.

use crate::csr::{CsrGraph, FailureMask, SptBatchScratch};
use crate::{NodeId, ShortestPathTree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Per-thread accounting from a [`par_all_sources_csr`] run, for obs counters
/// at the call site (`rbpc-graph` itself carries no instrumentation).
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Worker threads used (1 means the run was inline, no spawning).
    pub threads: usize,
    /// Number of chunks the source list was cut into.
    pub chunks: usize,
    /// Sources per chunk (last chunk may be smaller).
    pub chunk_size: usize,
    /// Chunks claimed by each thread — the "steal" distribution.
    pub chunk_claims: Vec<u64>,
    /// Nodes settled by each thread across all its Dijkstra runs.
    pub settled: Vec<u64>,
    /// Dijkstra runs each thread served from its one scratch arena.
    pub scratch_runs: Vec<u64>,
    /// Heap insertions per thread — with the decrease-key kernel, exactly
    /// one per touched node (the lazy-deletion heap pushed one per
    /// *improvement*).
    pub heap_pushes: Vec<u64>,
    /// Heap pops per thread — equals that thread's settled count under
    /// decrease-key; the surplus the scalar heap used to pop and discard
    /// is gone.
    pub heap_pops: Vec<u64>,
    /// In-place key decreases per thread: improvements absorbed without a
    /// duplicate heap entry.
    pub decrease_keys: Vec<u64>,
}

impl ParStats {
    /// Total chunks claimed (equals [`ParStats::chunks`] after a full run).
    pub fn total_chunks_claimed(&self) -> u64 {
        self.chunk_claims.iter().sum()
    }

    /// Total nodes settled across all threads.
    pub fn total_settled(&self) -> u64 {
        self.settled.iter().sum()
    }

    /// Scratch reuses: runs beyond the first per allocated arena.
    pub fn total_scratch_reuses(&self) -> u64 {
        self.scratch_runs.iter().map(|&r| r.saturating_sub(1)).sum()
    }

    /// Total heap insertions across all threads.
    pub fn total_heap_pushes(&self) -> u64 {
        self.heap_pushes.iter().sum()
    }

    /// Total heap pops across all threads.
    pub fn total_heap_pops(&self) -> u64 {
        self.heap_pops.iter().sum()
    }

    /// Total in-place key decreases across all threads.
    pub fn total_decrease_keys(&self) -> u64 {
        self.decrease_keys.iter().sum()
    }

    /// Appends one thread's lanes: the chunks it claimed and its
    /// scratch's lifetime totals.
    fn push_thread(&mut self, claims: u64, scratch: &SptBatchScratch) {
        self.chunk_claims.push(claims);
        self.settled.push(scratch.settled_total());
        self.scratch_runs.push(scratch.runs());
        self.heap_pushes.push(scratch.heap_pushes());
        self.heap_pops.push(scratch.heap_pops());
        self.decrease_keys.push(scratch.decrease_keys());
    }
}

/// Node count below which a parallel batch runs inline instead.
///
/// Spawning workers, fencing the claim atomic, and handing chunks
/// through mutexes costs tens of microseconds — more than a whole batch
/// of Dijkstras on a small graph, which is why
/// `par_provision/isp_200/threads_8` used to *lose* to `threads_1`. Below
/// this threshold [`par_all_sources_csr`] ignores the requested thread count
/// and runs the single-thread path ([`ParStats::threads`] reports what
/// was actually used). Results are bit-identical either way, so the
/// cutoff is purely a scheduling decision.
pub const PAR_SERIAL_CUTOFF: usize = 1_000;

/// Deterministic chunk size: small enough to balance, large enough that
/// the per-chunk mutex hand-off is noise.
fn chunk_size_for(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * 4).max(1)
}

/// Computes the shortest-path trees of `sources` over `csr` on `threads`
/// worker threads, with an optional failure mask applied to every tree.
///
/// `result[i]` is the tree of `sources[i]`, bit-identical to
/// [`shortest_path_tree`](crate::shortest_path_tree) from `sources[i]`
/// over the graph the CSR was built from (under the mask's failures) for
/// every thread count. `threads == 0` is treated as 1; with 1 thread —
/// requested, or forced by the [`PAR_SERIAL_CUTOFF`] on small graphs —
/// the batch runs inline on the caller's thread.
///
/// Every chunk runs through the batched decrease-key kernel
/// ([`CsrGraph::full_tree_batch_with`]); the returned [`ParStats`] carry
/// per-thread heap push/pop/decrease-key totals so callers can surface
/// the kernel's traffic as metrics.
///
/// # Panics
///
/// Panics if any source is out of range, or `mask` was built for
/// different graph dimensions.
pub fn par_all_sources_csr(
    csr: &CsrGraph,
    mask: Option<&FailureMask>,
    sources: &[NodeId],
    threads: usize,
) -> (Vec<ShortestPathTree>, ParStats) {
    let threads = if csr.node_count() < PAR_SERIAL_CUTOFF {
        1
    } else {
        threads.max(1)
    };
    let chunk = chunk_size_for(sources.len(), threads);
    let mut stats = ParStats {
        threads,
        chunks: sources.len().div_ceil(chunk),
        chunk_size: chunk,
        ..ParStats::default()
    };

    if threads == 1 {
        // One batch scratch reused across every source of the sweep — the
        // serial arm is simply the batched kernel over the whole list.
        let mut scratch = SptBatchScratch::new(csr.node_count());
        let trees = csr.full_tree_batch(sources, mask, &mut scratch);
        stats.push_thread(stats.chunks as u64, &scratch);
        return (trees, stats);
    }

    let mut out: Vec<Option<ShortestPathTree>> = Vec::new();
    out.resize_with(sources.len(), || None);
    {
        // Pre-slice the output per chunk. Each Mutex is locked exactly
        // once, by the thread whose fetch_add claimed that index.
        type Job<'a> = (&'a mut [Option<ShortestPathTree>], &'a [NodeId]);
        let jobs: Vec<Mutex<Option<Job<'_>>>> = out
            .chunks_mut(chunk)
            .zip(sources.chunks(chunk))
            .map(|job| Mutex::new(Some(job)))
            .collect();
        let next = AtomicUsize::new(0);

        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        // One batch scratch per worker, reused across every
                        // chunk this thread steals.
                        let mut scratch = SptBatchScratch::new(csr.node_count());
                        let mut claims = 0u64;
                        // lint:hot: the worker steal loop of the sweep.
                        loop {
                            // lint:allow(atomics-order) — pure ticket counter; the per-job Mutex is the hand-off that orders the data
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if j >= jobs.len() {
                                break;
                            }
                            claims += 1;
                            let job = jobs[j]
                                .lock()
                                .unwrap_or_else(|poison| poison.into_inner())
                                .take();
                            let Some((slots, srcs)) = job else { continue };
                            csr.full_tree_batch_with(srcs, mask, &mut scratch, |i, tree| {
                                slots[i] = Some(tree);
                            });
                        }
                        (claims, scratch)
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok((claims, scratch)) => stats.push_thread(claims, &scratch),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
    }
    let trees = out
        .into_iter()
        .map(|slot| slot.expect("invariant: every chunk is claimed exactly once"))
        .collect();
    (trees, stats)
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
                g.add_edge(a, b, rng.gen_range(1..=20u32)).unwrap();
            }
        }
        g
    }

    #[test]
    fn matches_sequential_across_thread_counts() {
        // 60 nodes is far below PAR_SERIAL_CUTOFF: every requested
        // thread count must collapse to the inline path and still match.
        let g = random_graph(60, 150, 2);
        let model = CostModel::new(Metric::Weighted, 7);
        let csr = CsrGraph::new(&g, &model);
        let sources: Vec<NodeId> = g.nodes().collect();
        let want: Vec<ShortestPathTree> = sources
            .iter()
            .map(|&s| shortest_path_tree(&g, &model, s))
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let (got, stats) = par_all_sources_csr(&csr, None, &sources, threads);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(stats.threads, 1, "below the cutoff the run is inline");
            assert_eq!(stats.total_chunks_claimed(), stats.chunks as u64);
            assert_eq!(stats.scratch_runs.iter().sum::<u64>(), 60);
            assert!(stats.total_settled() > 0);
            assert_eq!(
                stats.total_heap_pops(),
                stats.total_settled(),
                "decrease-key pops exactly once per settle"
            );
            assert_eq!(stats.total_heap_pushes(), stats.total_settled());
            assert!(stats.total_decrease_keys() > 0);
        }
    }

    #[test]
    fn heap_stats_cover_every_thread() {
        let g = random_graph(PAR_SERIAL_CUTOFF, 3 * PAR_SERIAL_CUTOFF, 6);
        let model = CostModel::new(Metric::Weighted, 5);
        let csr = CsrGraph::new(&g, &model);
        let sources: Vec<NodeId> = (0..24).map(|i| NodeId::new(i * 40)).collect();
        let (_, stats) = par_all_sources_csr(&csr, None, &sources, 2);
        assert_eq!(stats.heap_pushes.len(), stats.threads);
        assert_eq!(stats.heap_pops.len(), stats.threads);
        assert_eq!(stats.decrease_keys.len(), stats.threads);
        assert_eq!(stats.total_heap_pops(), stats.total_settled());
    }

    #[test]
    fn above_cutoff_spawns_requested_threads() {
        let g = random_graph(PAR_SERIAL_CUTOFF, 3 * PAR_SERIAL_CUTOFF, 4);
        let model = CostModel::new(Metric::Weighted, 11);
        let csr = CsrGraph::new(&g, &model);
        // A subset of sources keeps the test quick; the cutoff keys on
        // node count, not batch length.
        let sources: Vec<NodeId> = (0..16).map(|i| NodeId::new(i * 60)).collect();
        let want: Vec<ShortestPathTree> = sources
            .iter()
            .map(|&s| shortest_path_tree(&g, &model, s))
            .collect();
        for threads in [1usize, 2] {
            let (got, stats) = par_all_sources_csr(&csr, None, &sources, threads);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(stats.threads, threads);
        }
    }

    #[test]
    fn masked_batch_matches_sequential_view() {
        let g = random_graph(40, 90, 5);
        let model = CostModel::new(Metric::Unweighted, 13);
        let mut set = FailureSet::new();
        set.fail_edge(crate::EdgeId::new(0));
        set.fail_edge(crate::EdgeId::new(17));
        set.fail_node(NodeId::new(3));
        let view = set.view(&g);
        let sources: Vec<NodeId> = g.nodes().collect();
        let want: Vec<ShortestPathTree> = sources
            .iter()
            .map(|&s| shortest_path_tree(&view, &model, s))
            .collect();
        let csr = CsrGraph::new(&g, &model);
        let mask = FailureMask::from_set(&csr, &set);
        for threads in [1usize, 4] {
            let (got, _) = par_all_sources_csr(&csr, Some(&mask), &sources, threads);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_subset_sources() {
        let g = random_graph(10, 20, 1);
        let model = CostModel::new(Metric::Weighted, 1);
        let csr = CsrGraph::new(&g, &model);
        let (trees, stats) = par_all_sources_csr(&csr, None, &[], 4);
        assert!(trees.is_empty());
        assert_eq!(stats.chunks, 0);
        let subset = [NodeId::new(3), NodeId::new(7), NodeId::new(3)];
        let (trees, _) = par_all_sources_csr(&csr, None, &subset, 2);
        assert_eq!(trees.len(), 3);
        assert_eq!(trees[0], trees[2]);
        assert_eq!(trees[1].source(), NodeId::new(7));
    }

    #[test]
    fn zero_threads_is_one() {
        let g = random_graph(12, 25, 9);
        let model = CostModel::new(Metric::Weighted, 3);
        let csr = CsrGraph::new(&g, &model);
        let sources: Vec<NodeId> = g.nodes().collect();
        let (a, stats) = par_all_sources_csr(&csr, None, &sources, 0);
        let (b, _) = par_all_sources_csr(&csr, None, &sources, 1);
        assert_eq!(a, b);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.total_scratch_reuses(), 11);
    }

    #[test]
    fn chunk_size_is_deterministic() {
        assert_eq!(chunk_size_for(0, 4), 1);
        assert_eq!(chunk_size_for(100, 4), 7);
        assert_eq!(chunk_size_for(100, 1), 25);
        assert_eq!(chunk_size_for(3, 8), 1);
    }
}
