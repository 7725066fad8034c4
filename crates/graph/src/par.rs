//! Std-only work pool: every parallel sweep of the workspace runs here.
//!
//! [`map_chunks_with`] is the one thread pool in library code. Worker
//! threads on a `std::thread::scope` claim the caller's chunks through a
//! single `AtomicUsize` (lock-free stealing, so an unlucky worker that
//! draws the expensive chunks does not serialize the sweep), each with
//! its own state from an `init` closure. A worker hands its
//! `(chunk index, result)` pairs and its state back through its join,
//! which orders them; no lock is taken. [`map_chunks`] is the evenly cut,
//! stateless form.
//!
//! Consumers: the provisioning fan-out [`par_all_sources_csr`] below (one
//! [`SptBatchScratch`] per worker), `Restorer::failover_plan_par` in
//! `rbpc-core`, `outage_summary_threads` and `churn_under_threads` in
//! `rbpc-sim`, and `table2_block`, `table3` and `figure10` in
//! `rbpc-eval`.
//!
//! # Determinism
//!
//! Results come back in chunk order, and each chunk's result depends on
//! its inputs alone: perturbed costs make every shortest path unique (see
//! [`CostModel`](crate::CostModel)), so any worker computing the tree of
//! source `s` — or restoring pair `(s, t)` — produces bit-identical
//! output. Every consumer's output is therefore the same for every thread
//! count. `par_all_sources_csr` with 1, 2, or 64 threads returns
//! byte-for-byte the same `Vec<ShortestPathTree>` as the sequential
//! [`shortest_path_tree`](crate::shortest_path_tree) loop — enforced by
//! `tests/csr_parallel.rs` at the repository root.

use crate::csr::{CsrGraph, FailureMask, SptBatchScratch};
use crate::{NodeId, ShortestPathTree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Deterministic chunk length: about four chunks per worker, small enough
/// to balance, large enough that claiming a chunk is noise.
fn chunk_size_for(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * 4).max(1)
}

/// Applies `work` to chunks of `items` on up to `threads` worker threads
/// and returns the per-chunk results in chunk order, with each worker's
/// final state.
///
/// `cut(items, len)` splits `items` into consecutive chunks of about
/// `len` items (the pool's even chunk length for `threads`) that
/// together are `items`; a caller whose work must not straddle some
/// boundary extends chunks to it, since each chunk runs whole, in order,
/// on the one worker that claims it. Every worker starts from its own
/// `init()` state, which `work` mutates across all the chunks that
/// worker claims; the states come back in worker order.
///
/// `threads == 0` is treated as 1. With one worker — one thread, fewer
/// than two items (`cut` is then not called), or a cut into a single
/// chunk — the whole input runs as one chunk on the caller's thread (an
/// empty input runs none) and one state comes back.
///
/// # Panics
///
/// Re-raises a worker's panic with its own payload.
pub fn map_chunks_with<'a, T, S, R>(
    items: &'a [T],
    threads: usize,
    cut: impl FnOnce(&'a [T], usize) -> Vec<&'a [T]>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &'a [T]) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    S: Send,
    R: Send,
{
    let threads = threads.max(1);
    let chunks = if threads == 1 || items.len() < 2 {
        Vec::new()
    } else {
        cut(items, chunk_size_for(items.len(), threads))
    };
    let workers = threads.min(chunks.len());
    if workers < 2 {
        let mut state = init();
        let results = if items.is_empty() {
            Vec::new()
        } else {
            vec![work(&mut state, items)]
        };
        return (results, vec![state]);
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, R)>, S)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // lint:allow(atomics-order) — pure ticket counter; each worker's results travel back through its join, which orders them
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&chunk) = chunks.get(i) else { break };
                        done.push((i, work(&mut state, chunk)));
                    }
                    (done, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut done = Vec::with_capacity(chunks.len());
    let mut states = Vec::with_capacity(workers);
    for (mine, state) in per_worker {
        done.extend(mine);
        states.push(state);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    (done.into_iter().map(|(_, result)| result).collect(), states)
}

/// [`map_chunks_with`] with even chunks and no per-worker state: applies
/// `work` to chunks of `items` on up to `threads` worker threads and
/// returns the per-chunk results in chunk order.
///
/// # Panics
///
/// Re-raises a worker's panic with its own payload.
pub fn map_chunks<T, R>(items: &[T], threads: usize, work: impl Fn(&[T]) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    map_chunks_with(items, threads, even_chunks, || (), |_, chunk| work(chunk)).0
}

/// Cuts `items` into consecutive chunks of `len` (the last may be shorter).
fn even_chunks<T>(items: &[T], len: usize) -> Vec<&[T]> {
    items.chunks(len).collect()
}

/// Per-thread accounting from a [`par_all_sources_csr`] run, for obs counters
/// at the call site (`rbpc-graph` itself carries no instrumentation).
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Worker threads used (1 means the run was inline, no spawning).
    pub threads: usize,
    /// Number of chunks the source list was cut into.
    pub chunks: usize,
    /// Sources per chunk (last chunk may be smaller; the whole list when
    /// the run was inline).
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
/// Spawning workers and fencing the claim atomic costs tens of
/// microseconds — more than a whole batch of Dijkstras on a small graph,
/// which is why `par_provision/isp_200/threads_8` used to *lose* to
/// `threads_1`. Below this threshold [`par_all_sources_csr`] ignores the
/// requested thread count and runs the single-thread path
/// ([`ParStats::threads`] reports what was actually used). Results are
/// bit-identical either way, so the cutoff is purely a scheduling
/// decision.
pub const PAR_SERIAL_CUTOFF: usize = 1_000;

/// Computes the shortest-path trees of `sources` over `csr` on `threads`
/// worker threads, with an optional failure mask applied to every tree.
///
/// `result[i]` is the tree of `sources[i]`, bit-identical to
/// [`shortest_path_tree`](crate::shortest_path_tree) from `sources[i]`
/// over the graph the CSR was built from (under the mask's failures) for
/// every thread count. `threads == 0` is treated as 1; with 1 thread —
/// requested, or forced by the [`PAR_SERIAL_CUTOFF`] on small graphs —
/// the whole list runs as one batch on the caller's thread.
///
/// Every chunk runs through the batched decrease-key kernel
/// ([`CsrGraph::full_tree_batch`]) on its worker's one
/// [`SptBatchScratch`]; the returned [`ParStats`] carry per-thread heap
/// push/pop/decrease-key totals so callers can surface the kernel's
/// traffic as metrics.
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
        threads
    };
    // Each worker reuses one batch scratch across every chunk it claims.
    let (parts, workers) = map_chunks_with(
        sources,
        threads,
        even_chunks,
        || (SptBatchScratch::new(csr.node_count()), 0u64),
        |(scratch, claims), srcs| {
            *claims += 1;
            csr.full_tree_batch(srcs, mask, scratch)
        },
    );
    let mut stats = ParStats {
        threads: workers.len(),
        chunks: parts.len(),
        chunk_size: parts.first().map_or(0, Vec::len),
        ..ParStats::default()
    };
    for (scratch, claims) in &workers {
        stats.push_thread(*claims, scratch);
    }
    (parts.into_iter().flatten().collect(), stats)
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
    fn chunk_results_come_back_in_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let sums = map_chunks(&items, threads, |chunk| chunk.iter().sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), 4950, "threads {threads}");
        }
        // Chunk order: concatenating the chunks reproduces the input.
        let echoed = map_chunks(&items, 4, <[usize]>::to_vec);
        assert_eq!(echoed.concat(), items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(map_chunks::<u8, usize>(&[], 8, <[u8]>::len).is_empty());
        assert_eq!(map_chunks(&[7u8], 8, <[u8]>::len), vec![1]);
    }

    #[test]
    fn caller_cut_chunks_run_whole_and_states_come_back() {
        // Cut at every change of the leading digit, as a caller keeping
        // runs together would; each chunk must reach `work` whole.
        fn by_tens(items: &[u32], _len: usize) -> Vec<&[u32]> {
            items.chunk_by(|a, b| a / 10 == b / 10).collect()
        }
        let items: Vec<u32> = (0..60).collect();
        let (runs, states) = map_chunks_with(
            &items,
            3,
            by_tens,
            || 0usize,
            |seen, chunk| {
                *seen += chunk.len();
                (chunk[0], chunk.len())
            },
        );
        assert_eq!(runs, (0..6).map(|d| (d * 10, 10)).collect::<Vec<_>>());
        assert_eq!(states.len(), 3);
        assert_eq!(states.iter().sum::<usize>(), 60);
    }

    #[test]
    #[should_panic(expected = "chunk at 5 failed")]
    fn worker_panic_keeps_its_payload() {
        // 40 items on 2 workers cut into chunks of 5; the one holding 7
        // starts at 5.
        let items: Vec<usize> = (0..40).collect();
        map_chunks(&items, 2, |chunk| {
            if chunk.contains(&7) {
                panic!("chunk at {} failed", chunk[0]);
            }
            chunk.len()
        });
    }

    #[test]
    fn one_worker_runs_one_chunk_on_the_callers_thread() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..100).collect();
        for threads in [0, 1] {
            let (runs, states) = map_chunks_with(
                &items,
                threads,
                |_, _| unreachable!("one worker never cuts"),
                || 0u32,
                |calls, chunk| {
                    *calls += 1;
                    (thread::current().id(), chunk.len())
                },
            );
            assert_eq!(runs, vec![(caller, 100)], "threads {threads}");
            assert_eq!(states, vec![1]);
        }
    }

    #[test]
    fn chunk_size_is_deterministic() {
        assert_eq!(chunk_size_for(0, 4), 1);
        assert_eq!(chunk_size_for(100, 4), 7);
        assert_eq!(chunk_size_for(100, 1), 25);
        assert_eq!(chunk_size_for(3, 8), 1);
    }
}
