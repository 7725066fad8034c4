//! The base-path store: per-source shortest-path trees, held resident
//! as far as a budget allows — provisioning from the ISP to paper scale.
//!
//! # One store, residency from the budget
//!
//! Theorem 3 needs one canonical shortest-path tree per source, and
//! padded costs make that tree unique (see [`rbpc_graph::CostModel`]),
//! so every way of holding the trees returns the same answers. What
//! differs is how many trees stay in memory, and that is the only knob
//! [`BasePaths`] exposes: a tree budget.
//!
//! * **Budget ≥ node count** — the all-resident store. Every tree, once
//!   its shard is built (on first use or by
//!   [`prefetch`](BasePathStore::prefetch)), stays in its source's slot
//!   forever; a lookup takes no lock and does no LRU bookkeeping. [`BasePaths::build`] is this store with every tree
//!   provisioned up front — right for the paper's ~200-node ISP.
//! * **Budget < node count** — the bounded store: at most a budgeted
//!   number of shards stay resident behind an LRU, and a lookup outside
//!   them rebuilds its shard — except greedy decomposition's
//!   [`longest_base_prefix`](BasePathOracle::longest_base_prefix), which
//!   answers a non-resident segment start with an early-exit search
//!   ([`CsrGraph::longest_tree_prefix`]) and builds nothing. Right for
//!   the 4 746-node AS graph and the 40 377-node Internet map.
//!
//! # Why the trees stay implicit
//!
//! The Internet router map has 40 377 nodes and 101 659 links. Its
//! all-pairs base set covers `n · (n − 1) ≈ 1.63 billion` directed pairs
//! — materializing even one `Vec` of nodes per pair is out of the
//! question, and holding one [`ShortestPathTree`] per source (24 bytes
//! per node per tree) would cost `40 377² · 24 ≈ 39 GB`. The paper
//! sampled 40 pairs and moved on; we want the same protocol *and* sweeps
//! the paper could not afford, under a memory budget we can state.
//!
//! Nothing about RBPC needs per-pair storage. A shortest-path tree in
//! `parent[]`/`dist[]` form already encodes the canonical base path of
//! *every* destination implicitly: the base path `s → t` is the walk up
//! `parent[]` from `t` to `s`, reversed — `O(len)` to materialize, zero
//! bytes to store beyond the tree's three flat arrays. All query
//! primitives the restoration pipeline uses ([`base_dist`], [`path_to`],
//! [`is_tree_step`] for greedy decomposition) read those arrays
//! directly, so one resident tree answers `n − 1` pairs.
//!
//! Sources are grouped into fixed *shards* (contiguous index ranges),
//! each provisioned as one batch on the [`rbpc_graph::par`] thread pool
//! (every worker reuses one `SptBatchScratch` across its trees).
//! Rebuilding an evicted shard is bit-identical by construction.
//!
//! The [`BasePathStore`] trait exposes the residency/budget surface, so
//! `Restorer`, decomposition, and the sim/eval layers can report what
//! the store did.
//!
//! [`base_dist`]: ShortestPathTree::base_dist
//! [`path_to`]: ShortestPathTree::path_to
//! [`is_tree_step`]: ShortestPathTree::is_tree_step

use crate::basepaths::{default_threads, tree_prefix, BasePathOracle};
pub use rbpc_graph::TREE_BYTES_PER_NODE;
use rbpc_graph::{
    par_all_sources_csr, CostModel, CsrGraph, DijkstraScratch, FailureMask, FailureSet, Graph,
    NodeId, ParStats, Path, RepairArena, RepairWork, ShortestPathTree,
};
use rbpc_obs::{obs_count, obs_record, obs_span, obs_trace};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Bytes a *dense* all-sources store would need on an `n`-node graph:
/// one tree per source, [`TREE_BYTES_PER_NODE`] per node per tree. On
/// the paper's 40 377-node router map this is ≈ 39 GB — the number that
/// motivates the bounded store (see `docs/SCALE.md`).
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
/// provisioning — what a caller reports after a run: how much memory the
/// base set held resident and how often the budget forced recomputation.
pub trait BasePathStore: BasePathOracle {
    /// Shortest-path trees currently held in memory.
    fn resident_trees(&self) -> usize;

    /// Approximate bytes of resident tree storage
    /// ([`TREE_BYTES_PER_NODE`] per node per resident tree).
    fn resident_bytes(&self) -> usize {
        self.resident_trees() * self.graph().node_count() * TREE_BYTES_PER_NODE
    }

    /// The residency ceiling in trees, or `None` when the store is
    /// unbounded (an all-resident store keeps every tree forever).
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

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// The shard cache is always left consistent between operations (a
/// panicked holder can at worst have skipped an insert), so continuing
/// past poison is safe and keeps one crashed experiment thread from
/// wedging every other one.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records a provisioning batch's [`ParStats`] into the obs registry.
fn record_par_stats(stats: &ParStats) {
    obs_count!("core.provision.chunk_claims", stats.total_chunks_claimed());
    obs_count!(
        "core.provision.scratch_reuses",
        stats.total_scratch_reuses()
    );
    for &settled in &stats.settled {
        obs_record!("core.provision.settled_per_thread", settled);
    }
    // Frontier traffic of the batch kernel, counted as one push and one
    // pop per settled node: the unit sweep queues each touched node once
    // and every touched node settles. The names stay because the
    // benchmark's `graph.csr.heap_pops` layer and the loadtest window
    // JSONL read them. `decrease_keys` counts the unit sweep's pad-only
    // rewrites, so weighted provisioning records none; ties stay 0 (see
    // `record_repair_work`).
    obs_count!("core.provision.heap_pushes", stats.total_settled());
    obs_count!("core.provision.heap_pops", stats.total_settled());
    obs_count!("core.provision.decrease_keys", stats.total_decrease_keys());
    obs_count!("graph.ties", stats.total_ties());
    // Silence unused-variable lint when the obs feature is off.
    let _ = stats;
}

/// A provisioned shard: the trees of one contiguous block of sources.
#[derive(Debug)]
struct Shard {
    /// Index of the first source this shard covers.
    first: u32,
    /// Trees of sources `first .. first + trees.len()`, in order.
    trees: Vec<ShortestPathTree>,
}

impl Shard {
    /// The tree of `source`, one of this shard's sources.
    fn tree(&self, source: NodeId) -> &ShortestPathTree {
        &self.trees[source.index() - self.first as usize]
    }
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

/// Where a store's shards live, fixed at construction by the budget.
#[derive(Debug)]
enum Residency {
    /// The budget covers every source: one slot per source, filled a
    /// shard at a time and never emptied, so a lookup is a lock-free
    /// slot read.
    All(Vec<OnceLock<ShortestPathTree>>),
    /// At most `max_shards` shards resident; the least recently used is
    /// evicted first.
    Bounded {
        max_shards: usize,
        cache: Mutex<ShardCache>,
    },
}

/// The kernel working memory of one store call: a repair arena, which
/// keys its own run, and a prefix probe's scratch of its own, so a probe
/// never ends a resumable repair.
#[derive(Debug, Default)]
struct Arena {
    repair: RepairArena,
    probe: DijkstraScratch,
}

/// The base-path store: per-source shortest-path trees in flat
/// `parent[]`/`dist[]` form, provisioned shard-by-shard on the parallel
/// engine, resident as far as the tree budget allows.
///
/// # Representation
///
/// No path is ever stored. A resident tree answers every query about its
/// source implicitly:
///
/// * `base_path(s, t)` walks `parent[]` up from `t` (materializing one
///   transient [`Path`] of `O(len)` nodes);
/// * `base_dist` is a single array read;
/// * greedy decomposition's `is_tree_step` is two array reads.
///
/// Sources are grouped into shards of [`shard_size`](Self::shard_size)
/// consecutive indices, provisioned as batches via
/// [`par_all_sources_csr`] over a [`CsrGraph`] built once at
/// construction. A post-failure tree or path is repaired from the
/// resident tree on the same CSR ([`CsrGraph::repair_tree`],
/// [`CsrGraph::repair_path`]) and never cached, so the store stays
/// canonical. The store owns the kernels' working memory: a small pool
/// of [`RepairArena`]s, each with a prefix probe's scratch, lent to one
/// call at a time. A caller takes the arena returned last, and the
/// kernel resumes that arena's run if it is of the caller's source under
/// the caller's failures. The store's tree of a source is the same
/// canonical tree after any eviction and rebuild, so a sequential
/// caller's `path_under` calls for one source under one failure set
/// resume a single repair instead of repeating it. Parallel workers
/// share the pool, so they resume only when the arena they take holds
/// their run.
///
/// # Residency
///
/// A budget of at least the node count makes the store *all-resident*
/// ([`max_resident_trees`](BasePathStore::max_resident_trees) is
/// `None`): shards are never evicted and lookups take no lock. A smaller
/// budget makes it *bounded*: at most that many trees (rounded up to
/// whole shards, minimum one shard) stay resident behind an LRU, and a
/// lookup outside them rebuilds its shard. The exception is
/// [`longest_base_prefix`](BasePathOracle::longest_base_prefix): when the
/// segment start's shard is absent it runs
/// [`CsrGraph::longest_tree_prefix`], which stops once the prefix ends
/// and leaves the cache alone. Source lookups (`base_path`,
/// `path_under`, `with_spt`) still build, so a sweep's next
/// `shard_size − 1` sources find their trees resident.
///
/// # Determinism
///
/// Perturbed costs make every tree canonical, so eviction and
/// re-provisioning — at any thread count — returns bit-identical trees
/// and therefore bit-identical base paths (property-tested in
/// `tests/sharded_store.rs`).
///
/// Thread-safe: shard builds happen outside any lock. Racing builds of a
/// bounded store's shard keep the first insert and count the duplicate
/// (`core.store.duplicate_shard`); an all-resident slot keeps the first
/// tree stored in it.
#[derive(Debug)]
pub struct BasePaths {
    graph: Graph,
    model: CostModel,
    csr: CsrGraph,
    shard_size: usize,
    threads: usize,
    residency: Residency,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    builds: AtomicU64,
    probes: AtomicU64,
    resumed: AtomicU64,
    /// Kernel arenas not lent out, the most recently returned last.
    arenas: Mutex<Vec<Arena>>,
}

/// [`BasePaths`] built all-resident, every source's tree provisioned up
/// front by [`BasePaths::build`].
pub type DenseBasePaths = BasePaths;

/// [`BasePaths`] built bounded, by [`BasePaths::with_budget`] with a
/// budget below the node count.
pub type ShardedBasePaths = BasePaths;

/// A point-in-time residency/traffic snapshot of a [`BasePaths`] store,
/// for run reports (`rbpc-eval paper-scale` prints one per window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedStoreStats {
    /// Trees currently resident.
    pub resident_trees: usize,
    /// Approximate bytes of resident tree storage.
    pub resident_bytes: usize,
    /// Residency ceiling in trees (the node count when all-resident).
    pub max_resident_trees: usize,
    /// Lookups that found their shard resident in a bounded store
    /// (all-resident lookups are not counted).
    pub hits: u64,
    /// Lookups, and bounded-store prefetches, that found their shard
    /// absent (each triggered a shard build).
    pub misses: u64,
    /// Trees evicted so far.
    pub evicted_trees: u64,
    /// Shards built so far (misses + prefetches + duplicated racing
    /// builds).
    pub shard_builds: u64,
    /// Greedy-decomposition prefix questions a bounded store answered
    /// with an early-exit search because the segment start's shard was
    /// absent (each built nothing and evicted nothing).
    pub probes: u64,
    /// `path_under` repairs that resumed the run of the same source under
    /// the same failures that a pooled arena held, instead of starting
    /// over.
    pub resumed_repairs: u64,
}

impl BasePaths {
    /// Default sources per shard: small enough that one shard of the 40k
    /// map is ~31 MB, large enough to amortize the parallel fan-out.
    pub const DEFAULT_SHARD_SIZE: usize = 32;

    /// Default residency budget in trees: 512 trees ≈ 0.50 GB on the
    /// 40 377-node router map, comfortably under commodity RAM while
    /// holding 16 default-size shards.
    pub const DEFAULT_MAX_RESIDENT_SPTS: usize = 512;

    /// An all-resident store with every source's tree computed up front,
    /// on [`default_threads`] worker threads.
    ///
    /// The trees are bit-identical for every thread count (padded costs
    /// make them canonical), so parallel provisioning is an invisible
    /// speedup — see [`rbpc_graph::par_all_sources_csr`].
    pub fn build(graph: Graph, model: CostModel) -> Self {
        Self::build_with_threads(graph, model, default_threads())
    }

    /// [`BasePaths::build`] on an explicit number of worker threads
    /// (the eval binary's `--threads` flag lands here). `0` means 1.
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds [`CostModel::MAX_NODES`] nodes.
    pub fn build_with_threads(graph: Graph, model: CostModel, threads: usize) -> Self {
        let _span = obs_span!("core.provision.build.ns");
        let n = graph.node_count();
        let store = Self::with_budget(graph, model, n, Self::DEFAULT_SHARD_SIZE, threads);
        store.prefetch(&store.graph.nodes().collect::<Vec<_>>());
        store
    }

    /// A store holding at most `max_resident_spts` trees, building shards
    /// of `shard_size` sources on `threads` workers (`0` means 1). Nothing
    /// is provisioned yet.
    ///
    /// A budget of at least the node count makes the store all-resident;
    /// a smaller one bounds it, rounded up to whole shards (minimum one
    /// shard). The `--max-resident-spts` / `--shard-size` flags of
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
        let n = graph.node_count();
        let residency = if max_resident_spts >= n {
            Residency::All((0..n).map(|_| OnceLock::new()).collect())
        } else {
            Residency::Bounded {
                max_shards: max_resident_spts.div_ceil(shard_size).max(1),
                cache: Mutex::new(ShardCache::default()),
            }
        };
        BasePaths {
            graph,
            model,
            csr,
            shard_size,
            threads: threads.max(1),
            residency,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            arenas: Mutex::new(Vec::new()),
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
            max_resident_trees: self.max_resident_trees().unwrap_or(self.graph.node_count()),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted_trees: self.evicted.load(Ordering::Relaxed),
            shard_builds: self.builds.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            // lint:allow(atomics-order) — a display-only statistics total read for a report
            resumed_repairs: self.resumed.load(Ordering::Relaxed),
        }
    }

    /// Direct access to a source's tree in an all-resident store,
    /// building its shard first if no lookup or prefetch has.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, or if the store is bounded: a
    /// bounded store may evict the tree, so it only lends it for the
    /// duration of [`BasePathOracle::with_spt`].
    pub fn spt(&self, source: NodeId) -> &ShortestPathTree {
        let Residency::All(slots) = &self.residency else {
            // Documented panic: a bounded store lends its trees only for
            // the duration of `with_spt`. lint:allow(panic)
            panic!("BasePaths::spt needs an all-resident store; use with_spt");
        };
        self.resident_tree(slots, source)
    }

    /// The shard index covering `source`.
    fn shard_of(&self, source: NodeId) -> u32 {
        (source.index() / self.shard_size) as u32
    }

    /// The sources of shard `key`.
    fn sources_of(&self, key: u32) -> Range<usize> {
        let first = key as usize * self.shard_size;
        first..(first + self.shard_size).min(self.graph.node_count())
    }

    /// Batch-provisions the shards `keys` in one parallel sweep (outside
    /// any lock), returned in `keys` order.
    fn build_shards(&self, keys: &[u32]) -> Vec<Shard> {
        let _span = obs_span!("core.store.shard_build.ns");
        let sources: Vec<NodeId> = keys
            .iter()
            .flat_map(|&key| self.sources_of(key))
            .map(NodeId::new)
            .collect();
        let (trees, stats) = par_all_sources_csr(&self.csr, None, &sources, self.threads);
        record_par_stats(&stats);
        let mut trees = trees.into_iter();
        keys.iter()
            .map(|&key| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                let range = self.sources_of(key);
                Shard {
                    first: range.start as u32,
                    trees: trees.by_ref().take(range.len()).collect(),
                }
            })
            .collect()
    }

    /// Builds the shard `key` after a lookup missed it.
    fn build_missed(&self, key: u32) -> Shard {
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs_count!("core.store.shard_miss");
        let _t = obs_trace!("store.shard_build", cat: "lookup", shard = key as usize);
        let mut built = self.build_shards(&[key]);
        built
            .pop()
            .expect("invariant: build_shards returns one shard per key")
    }

    /// `source`'s tree in an all-resident store, its shard built on
    /// first use. Racing builds of one shard are harmless: each slot
    /// keeps the first tree stored.
    fn resident_tree<'a>(
        &self,
        slots: &'a [OnceLock<ShortestPathTree>],
        source: NodeId,
    ) -> &'a ShortestPathTree {
        if let Some(tree) = slots[source.index()].get() {
            return tree;
        }
        fill_slots(slots, self.build_missed(self.shard_of(source)));
        slots[source.index()]
            .get()
            .expect("invariant: the shard covering source was just stored")
    }

    /// The bounded store's shard covering `source`, provisioning (and
    /// possibly evicting) as needed.
    fn bounded_shard(
        &self,
        source: NodeId,
        max_shards: usize,
        cache: &Mutex<ShardCache>,
    ) -> Arc<Shard> {
        let key = self.shard_of(source);
        if let Some(shard) = self.cached_shard(key, cache) {
            return shard;
        }
        let built = Arc::new(self.build_missed(key));
        let mut cache = lock_unpoisoned(cache);
        if let Some(shard) = cache.map.get(&key) {
            // A racing thread provisioned this shard while we did: keep
            // theirs (identical trees) and drop our duplicate work.
            obs_count!("core.store.duplicate_shard");
            return Arc::clone(shard);
        }
        while cache.map.len() >= max_shards {
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

    /// The bounded store's shard `key` if resident, marked most recently
    /// used and counted as a hit.
    fn cached_shard(&self, key: u32, cache: &Mutex<ShardCache>) -> Option<Arc<Shard>> {
        let mut cache = lock_unpoisoned(cache);
        let shard = Arc::clone(cache.map.get(&key)?);
        cache.touch(key);
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs_count!("core.store.shard_hit");
        Some(shard)
    }

    /// Runs `f` on an arena lent from the pool: the one returned last,
    /// else a new one. The arena goes back afterwards.
    fn with_arena<R>(&self, f: impl FnOnce(&mut Arena) -> R) -> R {
        let taken = lock_unpoisoned(&self.arenas).pop();
        let mut arena = taken.unwrap_or_default();
        let out = f(&mut arena);
        lock_unpoisoned(&self.arenas).push(arena);
        out
    }
}

/// Stores `shard`'s trees in their empty all-resident slots; returns how
/// many it stored. A slot a racing build filled first keeps its tree.
fn fill_slots(slots: &[OnceLock<ShortestPathTree>], shard: Shard) -> usize {
    let mut stored = 0;
    for (v, tree) in (shard.first as usize..).zip(shard.trees) {
        stored += usize::from(slots[v].set(tree).is_ok());
    }
    if stored == 0 {
        obs_count!("core.store.duplicate_shard");
    }
    stored
}

fn record_repair_work(work: RepairWork) {
    obs_record!("spt.repair.nodes_touched", work.nodes_touched as u64);
    obs_record!("spt.repair.settled", work.settled as u64);
    // Padded costs make shortest paths unique, so this stays 0; a tie
    // would make the repaired tree depend on the kernel's pop order. A
    // resumed call reports its run's ties so far, so only zero versus
    // non-zero is meaningful.
    obs_count!("graph.ties", work.ties as u64);
    // Silence unused-variable lint when the obs feature is off.
    let _ = work;
}

impl BasePathOracle for BasePaths {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn cost_model(&self) -> &CostModel {
        &self.model
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        match &self.residency {
            Residency::All(slots) => f(self.resident_tree(slots, source)),
            Residency::Bounded { max_shards, cache } => {
                let shard = self.bounded_shard(source, *max_shards, cache);
                f(shard.tree(source))
            }
        }
    }

    /// Repairs the resident tree with [`CsrGraph::repair_tree`]
    /// (recorded under `spt.repair.*`); a failed source needs no stored
    /// tree at all.
    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        if failures.is_empty() {
            return self.with_spt(source, f);
        }
        if failures.node_failed(source) {
            // The all-unreachable tree, built without touching the store.
            let mask = FailureMask::from_set(&self.csr, failures);
            return f(&self.csr.full_tree_masked(
                source,
                Some(&mask),
                &mut DijkstraScratch::default(),
            ));
        }
        let tree = self.with_arena(|arena| {
            self.with_spt(source, |base| {
                let _t = obs_trace!("spt.repair", cat: "lookup", source = source.index());
                let _span = obs_span!("spt.repair.ns");
                let (tree, work) = self.csr.repair_tree(base, failures, &mut arena.repair);
                record_repair_work(work);
                tree
            })
        });
        f(&tree)
    }

    /// Repairs with [`CsrGraph::repair_path`], which stops once `t`
    /// settles, clones no tree, and carries on from the run a pooled
    /// arena holds of `s` under the same failures (counted as
    /// [`resumed_repairs`](ShardedStoreStats::resumed_repairs)).
    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        if failures.is_empty() {
            return self.base_path(s, t);
        }
        if failures.node_failed(s) || failures.node_failed(t) {
            return None;
        }
        self.with_arena(|arena| {
            self.with_spt(s, |base| {
                let _t = obs_trace!("spt.repair", cat: "lookup", source = s.index());
                let _span = obs_span!("spt.repair.ns");
                let (path, work) = self.csr.repair_path(base, failures, t, &mut arena.repair);
                if work.resumed {
                    // lint:allow(atomics-order) — a display-only statistics total, independently exact; the repair state itself is in the arena this call holds
                    self.resumed.fetch_add(1, Ordering::Relaxed);
                }
                record_repair_work(work);
                path
            })
        })
    }

    /// Walks the resident tree of the segment start. A bounded store
    /// whose shard for it is absent answers with
    /// [`CsrGraph::longest_tree_prefix`] instead — the same answer, from
    /// a search that stops once the prefix ends — and builds, inserts and
    /// evicts nothing (`core.store.prefix_probe`,
    /// `spt.prefix_probe.settled`, and its ties under `graph.ties`).
    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        assert!(from < path.nodes().len(), "from out of range");
        let source = path.nodes()[from];
        match &self.residency {
            Residency::All(slots) => tree_prefix(self.resident_tree(slots, source), path, from),
            Residency::Bounded { cache, .. } => {
                if let Some(shard) = self.cached_shard(self.shard_of(source), cache) {
                    return tree_prefix(shard.tree(source), path, from);
                }
                self.probes.fetch_add(1, Ordering::Relaxed);
                obs_count!("core.store.prefix_probe");
                self.with_arena(|arena| {
                    let ties = arena.probe.ties_total();
                    let (j, settled) = self.csr.longest_tree_prefix(path, from, &mut arena.probe);
                    obs_record!("spt.prefix_probe.settled", settled as u64);
                    // Padded costs make shortest paths unique, so this stays 0.
                    obs_count!("graph.ties", arena.probe.ties_total() - ties);
                    // Silence unused-variable lint when the obs feature is off.
                    let _ = (settled, ties);
                    j
                })
            }
        }
    }
}

impl BasePathStore for BasePaths {
    fn resident_trees(&self) -> usize {
        match &self.residency {
            Residency::All(slots) => slots.iter().filter(|s| s.get().is_some()).count(),
            Residency::Bounded { cache, .. } => lock_unpoisoned(cache)
                .map
                .values()
                .map(|s| s.trees.len())
                .sum(),
        }
    }

    fn max_resident_trees(&self) -> Option<usize> {
        match &self.residency {
            Residency::All(_) => None,
            Residency::Bounded { max_shards, .. } => Some(max_shards * self.shard_size),
        }
    }

    fn evicted_trees(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// An all-resident store builds every missing shard in one parallel
    /// sweep. A bounded one builds them shard by shard, so its peak stays
    /// at the budget plus one shard.
    fn prefetch(&self, sources: &[NodeId]) -> usize {
        let mut keys: Vec<u32> = sources.iter().map(|&s| self.shard_of(s)).collect();
        keys.sort_unstable();
        keys.dedup();
        match &self.residency {
            Residency::All(slots) => {
                keys.retain(|&key| self.sources_of(key).any(|v| slots[v].get().is_none()));
                let shards = self.build_shards(&keys);
                shards
                    .into_iter()
                    .map(|shard| fill_slots(slots, shard))
                    .sum()
            }
            Residency::Bounded { max_shards, cache } => {
                let mut built = 0;
                for key in keys {
                    let resident = lock_unpoisoned(cache).map.contains_key(&key);
                    if !resident {
                        let first = NodeId::new(key as usize * self.shard_size);
                        built += self.bounded_shard(first, *max_shards, cache).trees.len();
                    }
                }
                built
            }
        }
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
    fn bounded_matches_all_resident_exactly() {
        let g = gnm_connected(50, 120, 12, 5);
        let dense = BasePaths::build(g.clone(), model());
        // Budget of 8 trees / shards of 4: at most 2 shards resident, so
        // the sweep below evicts and rebuilds constantly. Shards of one
        // source are the per-tree cache.
        for (budget, shard) in [(8, 4), (4, 1)] {
            let bounded = BasePaths::with_budget(g.clone(), model(), budget, shard, 2);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(dense.base_path(s, t), bounded.base_path(s, t));
                    assert_eq!(dense.base_dist(s, t), bounded.base_dist(s, t));
                }
            }
            let stats = bounded.stats();
            assert!(stats.evicted_trees > 0, "tiny budget must evict");
            assert!(stats.resident_trees <= stats.max_resident_trees);
        }
    }

    #[test]
    fn residency_follows_the_budget() {
        let g = gnm_connected(20, 45, 6, 2);
        for budget in [20, 64] {
            let store = BasePaths::with_budget(g.clone(), model(), budget, 8, 1);
            assert_eq!(store.max_resident_trees(), None, "budget {budget}");
            assert_eq!(store.stats().max_resident_trees, 20);
        }
        let store = BasePaths::with_budget(g.clone(), model(), 19, 8, 1);
        assert_eq!(store.max_resident_trees(), Some(24)); // whole shards
        let store = BasePaths::with_budget(g, model(), 0, 8, 1);
        assert_eq!(store.max_resident_trees(), Some(8)); // at least one
    }

    #[test]
    fn all_resident_lookups_count_no_traffic() {
        let g = gnm_connected(20, 45, 6, 2);
        let store = BasePaths::build_with_threads(g.clone(), model(), 1);
        assert_eq!(store.resident_trees(), 20);
        for s in g.nodes() {
            let _ = store.base_dist(s, 0.into());
        }
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.evicted_trees), (0, 0, 0));
        assert_eq!(stats.shard_builds, 1); // one shard of 32 covers all 20
    }

    #[test]
    fn all_resident_builds_missing_shards_on_first_use() {
        let g = gnm_connected(20, 45, 6, 2);
        let store = BasePaths::with_budget(g, model(), 20, 8, 1);
        assert_eq!(store.resident_trees(), 0);
        let _ = store.base_dist(NodeId::new(9), 0.into());
        let _ = store.spt(NodeId::new(10));
        assert_eq!(store.resident_trees(), 8);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "all-resident")]
    fn spt_panics_on_a_bounded_store() {
        let g = gnm_connected(20, 45, 6, 2);
        let store = BasePaths::with_budget(g, model(), 8, 4, 1);
        let _ = store.spt(NodeId::new(0));
    }

    #[test]
    fn lru_keeps_hot_shards() {
        let g = gnm_connected(40, 90, 9, 3);
        // 2 shards resident max (budget 16, shard 8).
        let store = BasePaths::with_budget(g, model(), 16, 8, 1);
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
        let mut failures = FailureSet::new();
        failures.fail_edge(rbpc_graph::EdgeId::new(0));
        failures.fail_edge(rbpc_graph::EdgeId::new(17));
        failures.fail_node(7.into());
        // Generic so `O = &BasePaths` goes through the `&O` blanket impl,
        // which must forward the override, not fall back to the default
        // rebuild.
        fn tree_via<O: BasePathOracle>(o: O, s: NodeId, f: &FailureSet) -> ShortestPathTree {
            o.with_spt_under(s, f, ShortestPathTree::clone)
        }
        for store in [
            BasePaths::build(g.clone(), model()),
            BasePaths::with_budget(g.clone(), model(), 8, 4, 2),
            BasePaths::with_budget(g.clone(), model(), 4, 1, 2),
        ] {
            for s in g.nodes() {
                let want = rbpc_graph::shortest_path_tree(&failures.view(&g), &model(), s);
                store.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "source {s}"));
                assert_eq!(tree_via(&store, s, &failures), want, "&, source {s}");
                for t in g.nodes() {
                    let path = want.path_to(t);
                    assert_eq!(store.path_under(s, t, &failures), path, "{s} -> {t}");
                }
            }
        }
    }

    #[test]
    fn prefetch_provisions_whole_shards() {
        let g = gnm_connected(30, 70, 9, 3);
        // All-resident (one batch) and bounded (shard by shard) alike.
        for budget in [64, 24] {
            let store = BasePaths::with_budget(g.clone(), model(), budget, 8, 1);
            let built = store.prefetch(&[NodeId::new(0), NodeId::new(3), NodeId::new(9)]);
            assert_eq!(built, 16, "budget {budget}"); // shards 0 and 1, 8 trees each
            assert_eq!(store.resident_trees(), 16);
            // Already resident: nothing new.
            assert_eq!(store.prefetch(&[NodeId::new(1)]), 0);
            let stats = store.stats();
            assert_eq!(stats.evicted_trees, 0);
            assert_eq!(stats.shard_builds, 2);
        }
    }

    #[test]
    fn last_shard_may_be_short() {
        let g = gnm_connected(10, 25, 5, 1);
        let store = BasePaths::with_budget(g.clone(), model(), 64, 4, 1);
        assert_eq!(store.shard_count(), 3); // 4 + 4 + 2
        let d = store.base_dist(NodeId::new(9), 0.into());
        assert!(d.is_some());
        let _ = store.prefetch(&g.nodes().collect::<Vec<_>>());
        assert_eq!(store.resident_trees(), 10);
    }

    #[test]
    fn store_trait_surfaces() {
        let g = gnm_connected(20, 45, 6, 2);
        let dense = BasePaths::build(g.clone(), model());
        assert_eq!(dense.resident_trees(), 20);
        assert_eq!(dense.max_resident_trees(), None);
        assert_eq!(dense.prefetch(&[NodeId::new(0)]), 0);
        assert_eq!(dense.resident_bytes(), 20 * 20 * TREE_BYTES_PER_NODE);

        let bounded = BasePaths::with_budget(g.clone(), model(), 3, 1, 1);
        assert_eq!(bounded.resident_trees(), 0);
        assert_eq!(bounded.max_resident_trees(), Some(3));
        assert_eq!(bounded.prefetch(&[NodeId::new(0), NodeId::new(1)]), 2);
        assert_eq!(bounded.prefetch(&[NodeId::new(1)]), 0);
        for s in 0..5usize {
            let _ = bounded.base_dist(s.into(), 0.into());
        }
        assert!(bounded.evicted_trees() > 0);
        assert_eq!(bounded.resident_trees(), 3);
    }

    #[test]
    fn racing_lookups_keep_one_copy_per_shard_within_budget() {
        // Many threads hammer a few sources; racing misses may duplicate
        // a shard build, but the store must never hold two copies of a
        // shard nor exceed its budget.
        let g = gnm_connected(16, 40, 6, 8);
        let n = g.node_count();
        let dense = BasePaths::build(g.clone(), model());
        for budget in [n - 1, 3, n] {
            let store = BasePaths::with_budget(g.clone(), model(), budget, 1, 2);
            std::thread::scope(|scope| {
                for worker in 0..8usize {
                    let (store, dense) = (&store, &dense);
                    scope.spawn(move || {
                        for round in 0..50usize {
                            let s = NodeId::new((worker + round) % 4); // heavy collision
                            let t = NodeId::new((worker * 5 + round) % 16);
                            assert_eq!(store.base_dist(s, t), dense.base_dist(s, t));
                        }
                    });
                }
            });
            let resident = store.resident_trees();
            assert!(
                resident <= 4,
                "budget {budget}: {resident} trees for 4 sources"
            );
            assert!(resident <= store.max_resident_trees().unwrap_or(n));
            if let Residency::Bounded { cache, .. } = &store.residency {
                let cache = lock_unpoisoned(cache);
                let mut order: Vec<u32> = cache.order.iter().copied().collect();
                order.sort_unstable();
                let keys: Vec<u32> = cache.map.keys().copied().collect();
                assert_eq!(order, keys, "budget {budget}: LRU order and map disagree");
            }
        }
    }

    #[test]
    fn memory_math_matches_the_paper_map() {
        // The numbers docs/SCALE.md quotes for the 40 377-node map.
        let n = 40_377usize;
        assert_eq!(directed_pairs(n), 40_377 * 40_376);
        assert!(directed_pairs(n) > 1_600_000_000);
        let dense_gb = dense_store_bytes(n) as f64 / (1u64 << 30) as f64;
        assert!((36.0..37.0).contains(&dense_gb), "dense ≈ {dense_gb} GiB");
        let budget = 512 * n * TREE_BYTES_PER_NODE;
        assert!(budget < (1 << 30), "512-tree budget fits in 1 GiB");
    }
}
