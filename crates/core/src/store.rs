//! Implicit, sharded base-path storage — provisioning at paper scale.
//!
//! # Why a third storage shape
//!
//! The paper's largest topology, the Internet router map, has 40 377
//! nodes and 101 659 links. Its all-pairs base set covers
//! `n · (n − 1) ≈ 1.63 billion` directed pairs — materializing even one
//! `Vec` of nodes per pair is out of the question, and holding one
//! [`ShortestPathTree`] per source (the [`DenseBasePaths`] layout, 36
//! bytes per node per tree) would cost `40 377² · 36 ≈ 59 GB`. The paper
//! sampled 40 pairs and moved on; we want the same protocol *and* sweeps
//! the paper could not afford, under a memory budget we can state.
//!
//! # The implicit representation
//!
//! Nothing about RBPC needs per-pair storage. A shortest-path tree in
//! `parent[]`/`dist[]` form already encodes the canonical base path of
//! *every* destination implicitly: the base path `s → t` is the walk up
//! `parent[]` from `t` to `s`, reversed — `O(len)` to materialize, zero
//! bytes to store beyond the tree's five flat arrays. All query
//! primitives the restoration pipeline uses ([`base_dist`], [`path_to`],
//! [`is_tree_step`] for greedy decomposition) read those arrays
//! directly, so one resident tree answers `n − 1` pairs.
//!
//! [`ShardedBasePaths`] keeps the trees themselves implicit too: sources
//! are grouped into fixed *shards* (contiguous index ranges), each shard
//! is provisioned as one batch on the [`rbpc_graph::par`] thread pool
//! (every worker reuses one `DijkstraScratch` arena across its trees),
//! and at most a budgeted number of shards stay resident behind an LRU.
//! A query outside the resident set rebuilds its shard — bit-identical
//! by construction, because perturbed costs make every tree canonical
//! (see [`rbpc_graph::CostModel`]).
//!
//! The [`BasePathStore`] trait exposes the residency/budget surface on
//! every oracle, so `Restorer`, decomposition, and the sim/eval layers
//! can be handed any of the three shapes and report what the store did.
//!
//! [`base_dist`]: ShortestPathTree::base_dist
//! [`path_to`]: ShortestPathTree::path_to
//! [`is_tree_step`]: ShortestPathTree::is_tree_step

use crate::basepaths::{
    lock_unpoisoned, path_under_csr, record_par_stats, with_spt_under_csr, BasePathOracle,
    DenseBasePaths, LazyBasePaths,
};
use rbpc_graph::{
    par_all_sources_csr, CostModel, CsrGraph, FailureSet, Graph, NodeId, Path, ShortestPathTree,
};
use rbpc_obs::{obs_count, obs_span, obs_trace};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes one [`ShortestPathTree`] occupies per node: `dist` (u128) +
/// `base_dist` (u64) + `hops`, `parent_edge`, `parent_node` (u32 each).
/// Matches [`ShortestPathTree::approx_bytes`].
pub const TREE_BYTES_PER_NODE: usize = 16 + 8 + 4 + 4 + 4;

/// Bytes a *dense* all-sources store would need on an `n`-node graph:
/// one tree per source, [`TREE_BYTES_PER_NODE`] per node per tree. On
/// the paper's 40 377-node router map this is ≈ 59 GB — the number that
/// motivates the sharded store (see `docs/SCALE.md`).
pub fn dense_store_bytes(n: usize) -> u128 {
    (n as u128) * (n as u128) * (TREE_BYTES_PER_NODE as u128)
}

/// Directed source–destination pairs an all-pairs base set covers on an
/// `n`-node graph: `n · (n − 1)` (≈ 1.63 billion on the 40k router map).
pub fn directed_pairs(n: usize) -> u128 {
    let n = n as u128;
    n * n.saturating_sub(1)
}

/// The storage half of a base-path oracle: residency, budget, and batch
/// provisioning. Every [`BasePathOracle`] in the workspace implements
/// this, so callers can switch between the dense, lazy, and sharded
/// shapes without touching the query side — and report, after a run,
/// how much memory the base set actually held resident and how often
/// the budget forced recomputation.
pub trait BasePathStore: BasePathOracle {
    /// Shortest-path trees currently held in memory.
    fn resident_trees(&self) -> usize;

    /// Approximate bytes of resident tree storage
    /// ([`TREE_BYTES_PER_NODE`] per node per resident tree).
    fn resident_bytes(&self) -> usize {
        self.resident_trees() * self.graph().node_count() * TREE_BYTES_PER_NODE
    }

    /// The residency ceiling in trees, or `None` when the store is
    /// unbounded (the dense store keeps every tree forever).
    fn max_resident_trees(&self) -> Option<usize>;

    /// Trees evicted so far to stay under the budget. Evicted trees are
    /// not lost — a later query rebuilds them bit-identically — but each
    /// eviction converts future hits into recomputation, so this is the
    /// store's thrash gauge.
    fn evicted_trees(&self) -> u64;

    /// Ensures the trees of `sources` are resident, batch-building any
    /// that are not; returns how many trees were newly provisioned.
    ///
    /// For bounded stores a prefetch larger than the budget still
    /// succeeds — later sources evict earlier ones — so callers
    /// streaming a sweep should prefetch in budget-sized windows.
    fn prefetch(&self, sources: &[NodeId]) -> usize;
}

/// Forwarding impl so generic layers can take `&S` where a
/// [`BasePathStore`] is expected, mirroring the [`BasePathOracle`]
/// blanket impl.
impl<S: BasePathStore> BasePathStore for &S {
    fn resident_trees(&self) -> usize {
        (**self).resident_trees()
    }

    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }

    fn max_resident_trees(&self) -> Option<usize> {
        (**self).max_resident_trees()
    }

    fn evicted_trees(&self) -> u64 {
        (**self).evicted_trees()
    }

    fn prefetch(&self, sources: &[NodeId]) -> usize {
        (**self).prefetch(sources)
    }
}

impl BasePathStore for DenseBasePaths {
    fn resident_trees(&self) -> usize {
        self.graph().node_count()
    }

    fn max_resident_trees(&self) -> Option<usize> {
        None
    }

    fn evicted_trees(&self) -> u64 {
        0
    }

    fn prefetch(&self, _sources: &[NodeId]) -> usize {
        0 // Everything is already resident, forever.
    }
}

impl BasePathStore for LazyBasePaths {
    fn resident_trees(&self) -> usize {
        self.cached_trees()
    }

    fn max_resident_trees(&self) -> Option<usize> {
        Some(self.capacity())
    }

    fn evicted_trees(&self) -> u64 {
        self.evictions()
    }

    fn prefetch(&self, sources: &[NodeId]) -> usize {
        // One Dijkstra per missing source; the lazy store has no batch
        // engine, which is exactly why the sharded store exists.
        let mut built = 0;
        for &s in sources {
            if self.with_spt_if_cached(s, |_| ()).is_none() {
                self.with_spt(s, |_| ());
                built += 1;
            }
        }
        built
    }
}

/// A provisioned shard: the trees of one contiguous block of sources.
#[derive(Debug)]
struct Shard {
    /// Index of the first source this shard covers.
    first: u32,
    /// Trees of sources `first .. first + trees.len()`, in order.
    trees: Vec<ShortestPathTree>,
}

/// LRU-ordered resident shard set. `order` runs cold → hot; `map` is a
/// `BTreeMap` (deterministic iteration, per the workspace's
/// hash-iteration lint) keyed by shard index.
#[derive(Debug, Default)]
struct ShardCache {
    map: BTreeMap<u32, Arc<Shard>>,
    order: VecDeque<u32>,
}

impl ShardCache {
    /// Marks `key` most-recently-used.
    fn touch(&mut self, key: u32) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }
}

/// The implicit, sharded base-path store: per-source shortest-path trees
/// in flat `parent[]`/`dist[]` form, provisioned shard-by-shard on the
/// parallel engine, behind a bounded LRU.
///
/// # Representation
///
/// No path is ever stored. A resident tree answers every query about its
/// source implicitly:
///
/// * `base_path(s, t)` walks `parent[]` up from `t` (materializing one
///   transient [`Path`] of `O(len)` nodes);
/// * `base_dist`/`base_cost` are single array reads;
/// * greedy decomposition's `is_tree_step` is two array reads.
///
/// Sources are grouped into shards of [`shard_size`](Self::shard_size)
/// consecutive indices. A miss provisions the whole shard as one batch
/// via [`par_all_sources_csr`] over a [`CsrGraph`] built once at
/// construction, so every worker thread reuses a single
/// `DijkstraScratch` arena across the shard's trees. At most
/// [`max_resident_trees`](BasePathStore::max_resident_trees) trees
/// (rounded up to whole shards, minimum one shard) stay resident; the
/// least-recently-used shard is dropped first.
///
/// # Determinism
///
/// Perturbed costs make every tree canonical, so eviction and
/// re-provisioning — at any thread count — returns bit-identical trees
/// and therefore bit-identical base paths (property-tested against
/// [`DenseBasePaths`] in `tests/sharded_store.rs`).
///
/// Thread-safe: the cache is lock-protected, shards are shared via
/// [`Arc`], and shard builds happen outside the lock (racing threads may
/// duplicate a build; the first insert wins and the duplicate is
/// counted, never kept).
#[derive(Debug)]
pub struct ShardedBasePaths {
    graph: Graph,
    model: CostModel,
    csr: CsrGraph,
    shard_size: usize,
    max_shards: usize,
    threads: usize,
    cache: Mutex<ShardCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    builds: AtomicU64,
}

/// A point-in-time residency/traffic snapshot of a [`ShardedBasePaths`],
/// for run reports (`rbpc-eval paper-scale` prints one per window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedStoreStats {
    /// Trees currently resident.
    pub resident_trees: usize,
    /// Approximate bytes of resident tree storage.
    pub resident_bytes: usize,
    /// Residency ceiling in trees.
    pub max_resident_trees: usize,
    /// Shard-cache hits so far.
    pub hits: u64,
    /// Shard-cache misses so far (each triggered a shard build).
    pub misses: u64,
    /// Trees evicted so far.
    pub evicted_trees: u64,
    /// Shard batch builds so far (misses + prefetches + duplicated
    /// racing builds).
    pub shard_builds: u64,
}

impl ShardedBasePaths {
    /// Default sources per shard: small enough that one shard of the 40k
    /// map is ~46 MB, large enough to amortize the parallel fan-out.
    pub const DEFAULT_SHARD_SIZE: usize = 32;

    /// Default residency budget in trees: 512 trees ≈ 0.74 GB on the
    /// 40 377-node router map, comfortably under commodity RAM while
    /// holding 16 default-size shards.
    pub const DEFAULT_MAX_RESIDENT_SPTS: usize = 512;

    /// Creates a sharded store with the default budget and shard size,
    /// building shards on [`default_threads`](crate::default_threads)
    /// workers.
    pub fn new(graph: Graph, model: CostModel) -> Self {
        Self::with_budget(
            graph,
            model,
            Self::DEFAULT_MAX_RESIDENT_SPTS,
            Self::DEFAULT_SHARD_SIZE,
            crate::default_threads(),
        )
    }

    /// Creates a sharded store holding at most `max_resident_spts` trees
    /// (rounded up to whole shards of `shard_size` sources, minimum one
    /// shard), building shards on `threads` workers (`0` means 1).
    ///
    /// The `--max-resident-spts` / `--shard-size` flags of
    /// `rbpc-eval paper-scale` land here.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size == 0` or the graph exceeds
    /// [`CostModel::MAX_NODES`] nodes.
    pub fn with_budget(
        graph: Graph,
        model: CostModel,
        max_resident_spts: usize,
        shard_size: usize,
        threads: usize,
    ) -> Self {
        assert!(shard_size >= 1, "shard size must be positive");
        let csr = CsrGraph::new(&graph, &model);
        ShardedBasePaths {
            graph,
            model,
            csr,
            shard_size,
            max_shards: max_resident_spts.div_ceil(shard_size).max(1),
            threads: threads.max(1),
            cache: Mutex::new(ShardCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// Sources per shard.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Total shards the source space divides into.
    pub fn shard_count(&self) -> usize {
        self.graph.node_count().div_ceil(self.shard_size)
    }

    /// Worker threads used per shard build.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of residency and cache traffic, for run reports.
    pub fn stats(&self) -> ShardedStoreStats {
        ShardedStoreStats {
            resident_trees: self.resident_trees(),
            resident_bytes: self.resident_bytes(),
            max_resident_trees: self.max_shards * self.shard_size,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted_trees: self.evicted.load(Ordering::Relaxed),
            shard_builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// The shard index covering `source`.
    fn shard_of(&self, source: NodeId) -> u32 {
        (source.index() / self.shard_size) as u32
    }

    /// Batch-provisions the shard `key` (outside any lock).
    fn build_shard(&self, key: u32) -> Shard {
        let _span = obs_span!("core.store.shard_build.ns");
        let first = key as usize * self.shard_size;
        let last = (first + self.shard_size).min(self.graph.node_count());
        let sources: Vec<NodeId> = (first..last).map(NodeId::new).collect();
        let (trees, stats) = par_all_sources_csr(&self.csr, None, &sources, self.threads);
        record_par_stats(&stats);
        self.builds.fetch_add(1, Ordering::Relaxed);
        Shard {
            first: first as u32,
            trees,
        }
    }

    /// Returns the resident shard covering `source`, provisioning (and
    /// possibly evicting) as needed.
    fn shard(&self, source: NodeId) -> Arc<Shard> {
        let key = self.shard_of(source);
        {
            let mut cache = lock_unpoisoned(&self.cache);
            if let Some(shard) = cache.map.get(&key) {
                let shard = Arc::clone(shard);
                cache.touch(key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs_count!("core.store.shard_hit");
                return shard;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs_count!("core.store.shard_miss");
        let _t = obs_trace!("store.shard_build", cat: "lookup", shard = key as usize);
        let built = Arc::new(self.build_shard(key));
        let mut cache = lock_unpoisoned(&self.cache);
        if let Some(shard) = cache.map.get(&key) {
            // A racing thread provisioned this shard while we did: keep
            // theirs (identical trees) and drop our duplicate work.
            obs_count!("core.store.duplicate_shard");
            return Arc::clone(shard);
        }
        while cache.map.len() >= self.max_shards {
            let Some(cold) = cache.order.pop_front() else {
                break;
            };
            if let Some(gone) = cache.map.remove(&cold) {
                self.evicted
                    .fetch_add(gone.trees.len() as u64, Ordering::Relaxed);
                obs_count!("core.store.shard_evict");
            }
        }
        cache.map.insert(key, Arc::clone(&built));
        cache.order.push_back(key);
        built
    }
}

impl BasePathOracle for ShardedBasePaths {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn cost_model(&self) -> &CostModel {
        &self.model
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        let shard = self.shard(source);
        f(&shard.trees[source.index() - shard.first as usize])
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        // The transient failed tree is never cached, so the store stays
        // canonical.
        with_spt_under_csr(self, &self.csr, source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        path_under_csr(self, &self.csr, s, t, failures)
    }
}

impl BasePathStore for ShardedBasePaths {
    fn resident_trees(&self) -> usize {
        lock_unpoisoned(&self.cache)
            .map
            .values()
            .map(|s| s.trees.len())
            .sum()
    }

    fn max_resident_trees(&self) -> Option<usize> {
        Some(self.max_shards * self.shard_size)
    }

    fn evicted_trees(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn prefetch(&self, sources: &[NodeId]) -> usize {
        let mut shards: Vec<u32> = sources.iter().map(|&s| self.shard_of(s)).collect();
        shards.sort_unstable();
        shards.dedup();
        let mut built = 0;
        for key in shards {
            let resident = lock_unpoisoned(&self.cache).map.contains_key(&key);
            if !resident {
                // `shard` handles build + LRU insert + eviction.
                let shard = self.shard(NodeId::new(key as usize * self.shard_size));
                built += shard.trees.len();
            }
        }
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_graph::Metric;
    use rbpc_topo::gnm_connected;

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 21)
    }

    #[test]
    fn sharded_matches_dense_exactly() {
        let g = gnm_connected(50, 120, 12, 5);
        let dense = DenseBasePaths::build(g.clone(), model());
        // Budget of 8 trees / shards of 4: at most 2 shards resident, so
        // the sweep below evicts and rebuilds constantly.
        let sharded = ShardedBasePaths::with_budget(g.clone(), model(), 8, 4, 2);
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(dense.base_path(s, t), sharded.base_path(s, t));
                assert_eq!(dense.base_dist(s, t), sharded.base_dist(s, t));
            }
        }
        let stats = sharded.stats();
        assert!(stats.evicted_trees > 0, "tiny budget must evict");
        assert!(stats.resident_trees <= stats.max_resident_trees);
    }

    #[test]
    fn lru_keeps_hot_shards() {
        let g = gnm_connected(40, 90, 9, 3);
        // 2 shards resident max (budget 16, shard 8).
        let store = ShardedBasePaths::with_budget(g, model(), 16, 8, 1);
        let hot = NodeId::new(0);
        let _ = store.base_dist(hot, 1.into()); // shard 0 resident
        let _ = store.base_dist(NodeId::new(8), 1.into()); // shard 1
        let _ = store.base_dist(hot, 2.into()); // touch shard 0 → hot
        let _ = store.base_dist(NodeId::new(16), 1.into()); // shard 2: evicts shard 1
        let before = store.stats().misses;
        let _ = store.base_dist(hot, 3.into()); // must still be a hit
        assert_eq!(store.stats().misses, before);
        assert_eq!(store.resident_trees(), 16);
    }

    #[test]
    fn with_spt_under_matches_rebuild() {
        let g = gnm_connected(40, 90, 12, 5);
        let store = ShardedBasePaths::with_budget(g.clone(), model(), 8, 4, 2);
        let mut failures = FailureSet::new();
        failures.fail_edge(rbpc_graph::EdgeId::new(0));
        failures.fail_edge(rbpc_graph::EdgeId::new(17));
        failures.fail_node(7.into());
        for s in g.nodes() {
            let want = rbpc_graph::shortest_path_tree(&failures.view(&g), &model(), s);
            store.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "source {s}"));
        }
    }

    #[test]
    fn prefetch_provisions_whole_shards() {
        let g = gnm_connected(30, 70, 9, 3);
        let store = ShardedBasePaths::with_budget(g, model(), 64, 8, 1);
        let built = store.prefetch(&[NodeId::new(0), NodeId::new(3), NodeId::new(9)]);
        assert_eq!(built, 16); // shards 0 and 1, 8 trees each
        assert_eq!(store.resident_trees(), 16);
        // Already resident: nothing new.
        assert_eq!(store.prefetch(&[NodeId::new(1)]), 0);
        let stats = store.stats();
        assert_eq!(stats.evicted_trees, 0);
        assert!(stats.shard_builds >= 2);
    }

    #[test]
    fn last_shard_may_be_short() {
        let g = gnm_connected(10, 25, 5, 1);
        let store = ShardedBasePaths::with_budget(g.clone(), model(), 64, 4, 1);
        assert_eq!(store.shard_count(), 3); // 4 + 4 + 2
        let d = store.base_dist(NodeId::new(9), 0.into());
        assert!(d.is_some());
        let _ = store.prefetch(&g.nodes().collect::<Vec<_>>());
        assert_eq!(store.resident_trees(), 10);
    }

    #[test]
    fn store_trait_surfaces_on_all_oracles() {
        let g = gnm_connected(20, 45, 6, 2);
        let dense = DenseBasePaths::build(g.clone(), model());
        assert_eq!(dense.resident_trees(), 20);
        assert_eq!(dense.max_resident_trees(), None);
        assert_eq!(dense.prefetch(&[NodeId::new(0)]), 0);
        assert_eq!(dense.resident_bytes(), 20 * 20 * TREE_BYTES_PER_NODE);

        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 3);
        assert_eq!(lazy.resident_trees(), 0);
        assert_eq!(lazy.max_resident_trees(), Some(3));
        assert_eq!(lazy.prefetch(&[NodeId::new(0), NodeId::new(1)]), 2);
        assert_eq!(lazy.prefetch(&[NodeId::new(1)]), 0);
        for s in 0..5usize {
            let _ = lazy.base_dist(s.into(), 0.into());
        }
        assert!(lazy.evicted_trees() > 0);

        // The &S forwarding impl must reach the underlying store.
        fn takes_store<S: BasePathStore>(s: S) -> usize {
            s.resident_trees()
        }
        assert_eq!(takes_store(&dense), 20);
    }

    #[test]
    fn sharded_is_shareable_across_threads() {
        let g = gnm_connected(24, 60, 7, 4);
        let dense = DenseBasePaths::build(g.clone(), model());
        let store = ShardedBasePaths::with_budget(g.clone(), model(), 8, 4, 1);
        std::thread::scope(|scope| {
            for chunk in 0..4usize {
                let store = &store;
                let dense = &dense;
                scope.spawn(move || {
                    for s in (0..24).filter(|s| s % 4 == chunk) {
                        for t in 0..24usize {
                            assert_eq!(
                                store.base_dist(s.into(), t.into()),
                                dense.base_dist(s.into(), t.into())
                            );
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.resident_trees <= stats.max_resident_trees);
    }

    #[test]
    fn memory_math_matches_the_paper_map() {
        // The numbers docs/SCALE.md quotes for the 40 377-node map.
        let n = 40_377usize;
        assert_eq!(directed_pairs(n), 40_377 * 40_376);
        assert!(directed_pairs(n) > 1_600_000_000);
        let dense_gb = dense_store_bytes(n) as f64 / (1u64 << 30) as f64;
        assert!((54.0..56.0).contains(&dense_gb), "dense ≈ {dense_gb} GiB");
        let budget = 512 * n * TREE_BYTES_PER_NODE;
        assert!(budget < (1 << 30), "512-tree budget fits in 1 GiB");
    }
}
