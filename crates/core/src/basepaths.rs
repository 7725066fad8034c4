//! Base-path oracles: the provisioned set of canonical shortest paths.
//!
//! Theorem 3 of the paper shows a base set with **exactly one** shortest
//! path per ordered pair suffices, provided shortest paths are made unique
//! by infinitesimal padding. Our [`CostModel`] realizes the padding, so the
//! base set is simply "the shortest-path tree of every source", and a path
//! is a base path iff it is a tree path of its own source — an `O(len)`
//! check that never materializes the set.
//!
//! Two implementations trade memory for latency:
//!
//! * [`DenseBasePaths`] precomputes every source's tree — right for graphs
//!   up to a few thousand nodes (the paper's ISP);
//! * [`LazyBasePaths`] computes trees on demand behind a bounded cache —
//!   right for the 4 746-node AS graph and the 40 377-node Internet map,
//!   where the paper (and we) sample pairs rather than enumerate them.
//!
//! Both return bit-identical answers because the trees are canonical for a
//! given `(metric, seed)`.

use rbpc_graph::{
    par_all_sources_csr, shortest_path_tree, CostModel, CsrGraph, DijkstraScratch, FailureMask,
    FailureSet, Graph, NodeId, ParStats, Path, PathCost, RepairWork, ShortestPathTree,
};
use rbpc_obs::{obs_count, obs_record, obs_span, obs_trace};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// The caches guarded here are always left consistent between operations
/// (a panicked holder can at worst have skipped an insert), so continuing
/// past poison is safe and keeps one crashed experiment thread from
/// wedging every other one.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Default worker-thread count for batch provisioning: the machine's
/// available parallelism, or 1 if that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Records a provisioning batch's [`ParStats`] into the obs registry.
pub(crate) fn record_par_stats(stats: &ParStats) {
    obs_count!("core.provision.chunk_claims", stats.total_chunks_claimed());
    obs_count!(
        "core.provision.scratch_reuses",
        stats.total_scratch_reuses()
    );
    for &settled in &stats.settled {
        obs_record!("core.provision.settled_per_thread", settled);
    }
    // Frontier traffic of the batched SPT kernel: pops equal settles by
    // construction (decrease-key, no duplicate entries), so any gap
    // between pushes and decrease-keys in live telemetry is the
    // duplicate-pop work the batch kernel eliminated.
    obs_count!("core.provision.heap_pushes", stats.total_heap_pushes());
    obs_count!("core.provision.heap_pops", stats.total_heap_pops());
    obs_count!("core.provision.decrease_keys", stats.total_decrease_keys());
    // Silence unused-variable lint when the obs feature is off.
    let _ = stats;
}

/// Runs `f` with `source`'s tree under `failures`, for a store that holds
/// unfailed trees over `csr`: the shared fast path behind every store's
/// [`BasePathOracle::with_spt_under`]. The stored tree is repaired with
/// [`CsrGraph::repair_tree`] (recorded under `spt.repair.*`); a failed
/// source needs no stored tree at all.
pub(crate) fn with_spt_under_csr<O: BasePathOracle, R>(
    store: &O,
    csr: &CsrGraph,
    source: NodeId,
    failures: &FailureSet,
    f: impl FnOnce(&ShortestPathTree) -> R,
) -> R {
    if failures.is_empty() {
        return store.with_spt(source, f);
    }
    let mask = FailureMask::from_set(csr, failures);
    if mask.node_failed(source) {
        // Returns the all-unreachable tree before touching the scratch.
        return f(&csr.full_tree_masked(source, Some(&mask), &mut DijkstraScratch::new(0)));
    }
    store.with_spt(source, |base| {
        let _t = obs_trace!("spt.repair", cat: "lookup", source = source.index());
        let tree = {
            let _span = obs_span!("spt.repair.ns");
            let (tree, work) = csr.repair_tree(base, &mask);
            record_repair_work(work);
            tree
        };
        f(&tree)
    })
}

/// The canonical `s → t` path under `failures`, for a store that holds
/// unfailed trees over `csr`: the shared fast path behind every store's
/// [`BasePathOracle::path_under`]. The repair stops once `t` settles and
/// clones no tree ([`CsrGraph::repair_path`]).
pub(crate) fn path_under_csr<O: BasePathOracle>(
    store: &O,
    csr: &CsrGraph,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
) -> Option<Path> {
    if failures.is_empty() {
        return store.base_path(s, t);
    }
    let mask = FailureMask::from_set(csr, failures);
    if mask.node_failed(s) || mask.node_failed(t) {
        return None;
    }
    store.with_spt(s, |base| {
        let _t = obs_trace!("spt.repair", cat: "lookup", source = s.index());
        let _span = obs_span!("spt.repair.ns");
        let (path, work) = csr.repair_path(base, &mask, t);
        record_repair_work(work);
        path
    })
}

fn record_repair_work(work: RepairWork) {
    obs_record!("spt.repair.nodes_touched", work.nodes_touched as u64);
    obs_record!("spt.repair.settled", work.settled as u64);
    // Silence unused-variable lint when the obs feature is off.
    let _ = work;
}

/// The provisioned base set: one canonical shortest path per ordered pair.
///
/// All methods are derived from [`BasePathOracle::with_spt`]; implementors
/// only supply tree storage.
pub trait BasePathOracle {
    /// The graph the base set was computed over.
    fn graph(&self) -> &Graph;

    /// The cost model (metric + padding seed) defining canonical paths.
    fn cost_model(&self) -> &CostModel;

    /// Runs `f` with the shortest-path tree rooted at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R;

    /// Runs `f` with the shortest-path tree rooted at `source` over the
    /// graph with `failures` applied — the tree a router recomputes when
    /// links go down.
    ///
    /// The default implementation rebuilds from scratch (recorded under the
    /// `spt.rebuild.ns` histogram). Every store overrides it to *repair*
    /// its unfailed tree with [`CsrGraph::repair_tree`] (`spt.repair.ns` /
    /// `spt.repair.nodes_touched` / `spt.repair.settled`), which yields a
    /// bit-identical tree because padded costs make shortest paths unique.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        if failures.is_empty() {
            return self.with_spt(source, f);
        }
        let tree = {
            let _span = obs_span!("spt.rebuild.ns");
            shortest_path_tree(&failures.view(self.graph()), self.cost_model(), source)
        };
        f(&tree)
    }

    /// The canonical shortest path from `s` to `t` over the failed view,
    /// or `None` if the failures disconnect the pair.
    ///
    /// Every store overrides this with [`CsrGraph::repair_path`], which
    /// stops repairing once `t` settles and clones no tree.
    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        self.with_spt_under(s, failures, |spt| spt.path_to(t))
    }

    /// The canonical base path from `s` to `t`, or `None` if disconnected.
    fn base_path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        self.with_spt(s, |spt| spt.path_to(t))
    }

    /// Original-metric distance from `s` to `t`.
    fn base_dist(&self, s: NodeId, t: NodeId) -> Option<u64> {
        self.with_spt(s, |spt| spt.base_dist(t))
    }

    /// Full cost (base, perturbed, hops) from `s` to `t`.
    fn base_cost(&self, s: NodeId, t: NodeId) -> Option<PathCost> {
        self.with_spt(s, |spt| spt.cost_to(t))
    }

    /// Whether `path` is exactly the canonical base path between its
    /// endpoints. `O(len)` via tree-step checks; trivial paths qualify.
    fn is_base_path(&self, path: &Path) -> bool {
        self.longest_base_prefix(path, 0) == path.nodes().len() - 1
    }

    /// The largest node index `j ≥ from` such that `path[from..=j]` is a
    /// base path. Returns `from` itself when not even one hop matches the
    /// tree of `path.nodes()[from]`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for the path.
    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        let nodes = path.nodes();
        let edges = path.edges();
        assert!(from < nodes.len(), "from out of range");
        self.with_spt(nodes[from], |spt| {
            let mut j = from;
            while j + 1 < nodes.len() && spt.is_tree_step(nodes[j], edges[j], nodes[j + 1]) {
                j += 1;
            }
            j
        })
    }
}

/// Precomputed all-pairs base paths: one [`ShortestPathTree`] per source.
///
/// Memory is `O(n²)`; see [`LazyBasePaths`] for large graphs.
#[derive(Debug, Clone)]
pub struct DenseBasePaths {
    graph: Graph,
    model: CostModel,
    csr: CsrGraph,
    trees: Vec<ShortestPathTree>,
}

impl DenseBasePaths {
    /// Computes every source's tree up front, on
    /// [`default_threads`] worker threads.
    ///
    /// The trees are bit-identical for every thread count (padded costs
    /// make them canonical), so parallel provisioning is an invisible
    /// speedup — see [`rbpc_graph::par_all_sources_csr`].
    pub fn build(graph: Graph, model: CostModel) -> Self {
        Self::build_with_threads(graph, model, default_threads())
    }

    /// [`DenseBasePaths::build`] on an explicit number of worker threads
    /// (the eval binary's `--threads` flag lands here). `0` means 1.
    pub fn build_with_threads(graph: Graph, model: CostModel, threads: usize) -> Self {
        let _span = obs_span!("core.provision.build.ns");
        let sources: Vec<NodeId> = graph.nodes().collect();
        let csr = CsrGraph::new(&graph, &model);
        let (trees, stats) = par_all_sources_csr(&csr, None, &sources, threads);
        record_par_stats(&stats);
        DenseBasePaths {
            graph,
            model,
            csr,
            trees,
        }
    }

    /// Direct access to a source's tree.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn spt(&self, source: NodeId) -> &ShortestPathTree {
        &self.trees[source.index()]
    }
}

impl BasePathOracle for DenseBasePaths {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn cost_model(&self) -> &CostModel {
        &self.model
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        f(&self.trees[source.index()])
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        with_spt_under_csr(self, &self.csr, source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        path_under_csr(self, &self.csr, s, t, failures)
    }
}

/// On-demand base paths with a bounded FIFO tree cache.
///
/// Answers are identical to [`DenseBasePaths`] (trees are canonical); only
/// memory and latency differ. Thread-safe: the cache is lock-protected and
/// trees are shared via [`Arc`], so parallel experiment sampling can share
/// one oracle.
#[derive(Debug)]
pub struct LazyBasePaths {
    graph: Graph,
    model: CostModel,
    csr: CsrGraph,
    cache: Mutex<LazyCache>,
    capacity: usize,
    evicted: std::sync::atomic::AtomicU64,
}

#[derive(Debug, Default)]
struct LazyCache {
    map: BTreeMap<u32, Arc<ShortestPathTree>>,
    order: VecDeque<u32>,
}

impl LazyBasePaths {
    /// Default number of cached trees.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a lazy oracle with the default cache capacity.
    pub fn new(graph: Graph, model: CostModel) -> Self {
        Self::with_capacity(graph, model, Self::DEFAULT_CAPACITY)
    }

    /// Creates a lazy oracle caching at most `capacity` trees.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(graph: Graph, model: CostModel, capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be positive");
        LazyBasePaths {
            csr: CsrGraph::new(&graph, &model),
            graph,
            model,
            cache: Mutex::new(LazyCache::default()),
            capacity,
            evicted: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of trees currently cached (for tests and monitoring).
    pub fn cached_trees(&self) -> usize {
        lock_unpoisoned(&self.cache).map.len()
    }

    /// The cache's capacity in trees.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Trees evicted from the cache so far.
    pub fn evictions(&self) -> u64 {
        self.evicted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs `f` with `source`'s tree only if it is already cached;
    /// returns `None` (computing nothing) otherwise. Lets batch layers
    /// probe residency without triggering a Dijkstra.
    pub fn with_spt_if_cached<R>(
        &self,
        source: NodeId,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> Option<R> {
        let key = source.index() as u32;
        let cached = lock_unpoisoned(&self.cache).map.get(&key).map(Arc::clone);
        cached.map(|t| f(&t))
    }

    fn tree(&self, source: NodeId) -> Arc<ShortestPathTree> {
        let key = source.index() as u32;
        if let Some(t) = lock_unpoisoned(&self.cache).map.get(&key) {
            obs_count!("core.basepaths.cache_hit");
            return Arc::clone(t);
        }
        obs_count!("core.basepaths.cache_miss");
        // Compute outside the lock; a racing thread may duplicate the work
        // but the result is identical either way.
        let _t = obs_trace!("spt.build", cat: "lookup", source = source.index());
        let computed = Arc::new(shortest_path_tree(&self.graph, &self.model, source));
        let mut cache = lock_unpoisoned(&self.cache);
        if let Some(t) = cache.map.get(&key) {
            // A racing thread built this tree while we were computing it:
            // our Dijkstra was duplicated work. Keep theirs (identical
            // contents, and it is already in FIFO order) and count it.
            obs_count!("core.basepaths.duplicate_spt");
            return Arc::clone(t);
        }
        while cache.map.len() >= self.capacity {
            if let Some(old) = cache.order.pop_front() {
                if cache.map.remove(&old).is_some() {
                    self.evicted
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            } else {
                break;
            }
        }
        cache.map.insert(key, Arc::clone(&computed));
        cache.order.push_back(key);
        computed
    }
}

impl BasePathOracle for LazyBasePaths {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn cost_model(&self) -> &CostModel {
        &self.model
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        let tree = self.tree(source);
        f(&tree)
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        // The (transient) failed tree is never cached, so the cache stays
        // canonical.
        with_spt_under_csr(self, &self.csr, source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        path_under_csr(self, &self.csr, s, t, failures)
    }
}

impl<O: BasePathOracle> BasePathOracle for &O {
    fn graph(&self) -> &Graph {
        (**self).graph()
    }

    fn cost_model(&self) -> &CostModel {
        (**self).cost_model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        (**self).with_spt(source, f)
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        (**self).with_spt_under(source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        (**self).path_under(s, t, failures)
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
    fn dense_and_lazy_agree_exactly() {
        let g = gnm_connected(40, 90, 12, 5);
        let dense = DenseBasePaths::build(g.clone(), model());
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 4);
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(dense.base_path(s, t), lazy.base_path(s, t));
                assert_eq!(dense.base_dist(s, t), lazy.base_dist(s, t));
            }
        }
    }

    #[test]
    fn lazy_cache_evicts_fifo() {
        let g = gnm_connected(20, 40, 5, 1);
        let lazy = LazyBasePaths::with_capacity(g, model(), 3);
        for s in 0..6usize {
            let _ = lazy.base_dist(s.into(), 0.into());
        }
        assert_eq!(lazy.cached_trees(), 3);
        // Re-query an evicted source: still correct.
        let d = lazy.base_dist(0.into(), 5.into());
        assert!(d.is_some());
    }

    #[test]
    fn base_paths_are_recognized() {
        let g = gnm_connected(30, 70, 9, 3);
        let oracle = DenseBasePaths::build(g.clone(), model());
        for t in [5usize, 17, 29] {
            let p = oracle.base_path(0.into(), t.into()).unwrap();
            assert!(oracle.is_base_path(&p));
            // Subpaths of base paths are base paths (padding uniqueness).
            if p.hop_count() >= 2 {
                assert!(oracle.is_base_path(&p.subpath(1, p.nodes().len() - 1)));
            }
        }
    }

    #[test]
    fn non_base_paths_are_rejected() {
        // A square with one heavy edge: the heavy detour is not a base path.
        let mut g = Graph::new(4);
        for (a, b, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 10)] {
            g.add_edge(a, b, w).unwrap();
        }
        let oracle = DenseBasePaths::build(g.clone(), model());
        let heavy = Path::from_edges(&g, 0.into(), &[3.into()]).unwrap();
        assert!(!oracle.is_base_path(&heavy)); // 0-3 direct costs 10 vs 3
        assert_eq!(oracle.base_dist(0.into(), 3.into()), Some(3));
    }

    #[test]
    fn longest_base_prefix_walks_maximally() {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            g.add_unit_edge(a, b).unwrap();
        }
        let oracle = DenseBasePaths::build(g.clone(), model());
        let p = oracle.base_path(0.into(), 3.into()).unwrap();
        assert_eq!(oracle.longest_base_prefix(&p, 0), 3);
        assert_eq!(oracle.longest_base_prefix(&p, 2), 3);
        assert_eq!(oracle.longest_base_prefix(&p, 3), 3);
    }

    #[test]
    fn trivial_path_is_base() {
        let g = gnm_connected(5, 6, 3, 0);
        let oracle = DenseBasePaths::build(g, model());
        assert!(oracle.is_base_path(&Path::trivial(2.into())));
    }

    #[test]
    fn disconnected_pairs_have_no_base_path() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        let oracle = DenseBasePaths::build(g, model());
        assert_eq!(oracle.base_path(0.into(), 2.into()), None);
        assert_eq!(oracle.base_dist(0.into(), 2.into()), None);
        assert_eq!(oracle.base_cost(0.into(), 2.into()), None);
    }

    #[test]
    // The double borrow deliberately exercises the `&O` blanket impl.
    #[allow(clippy::needless_borrows_for_generic_args)]
    fn oracle_by_reference_works() {
        fn takes_oracle<O: BasePathOracle>(o: O) -> usize {
            o.graph().node_count()
        }
        let g = gnm_connected(5, 6, 3, 0);
        let oracle = DenseBasePaths::build(g, model());
        assert_eq!(takes_oracle(&oracle), 5);
        assert_eq!(takes_oracle(&&oracle), 5);

        // The blanket impl must forward `path_under` itself, not fall back
        // to the trait default (which goes through `with_spt_under`).
        struct Spy<'a>(&'a DenseBasePaths, std::cell::Cell<usize>);
        impl BasePathOracle for Spy<'_> {
            fn graph(&self) -> &Graph {
                self.0.graph()
            }
            fn cost_model(&self) -> &CostModel {
                self.0.cost_model()
            }
            fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
                self.0.with_spt(source, f)
            }
            fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
                self.1.set(self.1.get() + 1);
                self.0.path_under(s, t, failures)
            }
        }
        fn path_via<O: BasePathOracle>(o: O) -> Option<Path> {
            o.path_under(0.into(), 4.into(), &FailureSet::of_edge(0.into()))
        }
        let spy = Spy(&oracle, std::cell::Cell::new(0));
        let _ = path_via(&&spy);
        assert_eq!(spy.1.get(), 1);
    }

    #[test]
    fn with_spt_under_matches_rebuild_for_all_oracles() {
        let g = gnm_connected(40, 90, 12, 5);
        let dense = DenseBasePaths::build(g.clone(), model());
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 4);
        let mut failures = FailureSet::new();
        // A couple of edge failures plus a node failure.
        failures.fail_edge(rbpc_graph::EdgeId::new(0));
        failures.fail_edge(rbpc_graph::EdgeId::new(17));
        failures.fail_node(7.into());
        // Generic so `O = &DenseBasePaths` goes through the `&O` blanket
        // impl, which must forward the override, not fall back to the
        // default rebuild.
        fn check<O: BasePathOracle>(
            oracle: O,
            failures: &FailureSet,
            s: NodeId,
            want: &ShortestPathTree,
        ) {
            oracle.with_spt_under(s, failures, |spt| assert_eq!(spt, want));
        }
        for s in g.nodes() {
            let want = shortest_path_tree(&failures.view(&g), &model(), s);
            dense.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "dense, {s}"));
            lazy.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "lazy, {s}"));
            check(&dense, &failures, s, &want);
            for t in g.nodes() {
                let path = want.path_to(t);
                assert_eq!(dense.path_under(s, t, &failures), path, "dense, {s} -> {t}");
                assert_eq!(lazy.path_under(s, t, &failures), path, "lazy, {s} -> {t}");
            }
        }
    }

    #[test]
    fn with_spt_under_empty_failures_is_base_tree() {
        let g = gnm_connected(20, 40, 5, 1);
        let dense = DenseBasePaths::build(g.clone(), model());
        let none = FailureSet::new();
        for s in g.nodes() {
            dense.with_spt_under(s, &none, |spt| assert_eq!(spt, dense.spt(s)));
        }
    }

    #[test]
    fn path_under_avoids_failures() {
        let g = gnm_connected(30, 70, 9, 3);
        let oracle = DenseBasePaths::build(g.clone(), model());
        let p = oracle.base_path(0.into(), 20.into()).unwrap();
        let mut failures = FailureSet::new();
        failures.fail_edge(p.edges()[0]);
        if let Some(q) = oracle.path_under(0.into(), 20.into(), &failures) {
            assert!(!q.contains_edge(p.edges()[0]));
            assert_eq!(
                Some(&q),
                rbpc_graph::shortest_path(&failures.view(&g), &model(), 0.into(), 20.into())
                    .as_ref()
            );
        }
    }

    #[test]
    fn dense_build_is_thread_count_invariant() {
        let g = gnm_connected(30, 70, 9, 3);
        let seq = DenseBasePaths::build_with_threads(g.clone(), model(), 1);
        for threads in [2usize, 4, 8] {
            let par = DenseBasePaths::build_with_threads(g.clone(), model(), threads);
            for s in g.nodes() {
                assert_eq!(seq.spt(s), par.spt(s), "threads = {threads}, source {s}");
            }
        }
        // `build` (auto thread count) must agree too.
        let auto = DenseBasePaths::build(g.clone(), model());
        for s in g.nodes() {
            assert_eq!(seq.spt(s), auto.spt(s));
        }
    }

    #[test]
    fn lazy_stress_never_over_caches() {
        // Many threads hammer a few sources through an ample cache; racing
        // misses may duplicate Dijkstra work, but the cache must never hold
        // more than one tree per source (and never exceed its capacity).
        let g = gnm_connected(16, 40, 6, 8);
        let n = g.node_count();
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 2 * n);
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let lazy = &lazy;
                scope.spawn(move || {
                    for round in 0..50usize {
                        let s = (worker + round) % 4; // heavy collision on 4 sources
                        let t = (worker * 5 + round) % 16;
                        let _ = lazy.base_dist(s.into(), t.into());
                    }
                });
            }
        });
        assert!(
            lazy.cached_trees() <= n,
            "cache holds {} trees for an {n}-node graph",
            lazy.cached_trees()
        );
    }

    #[test]
    fn lazy_is_shareable_across_threads() {
        let g = gnm_connected(25, 60, 7, 2);
        let lazy = LazyBasePaths::new(g.clone(), model());
        let dense = DenseBasePaths::build(g.clone(), model());
        std::thread::scope(|scope| {
            for chunk in 0..4usize {
                let lazy = &lazy;
                let dense = &dense;
                scope.spawn(move || {
                    for s in (0..25).filter(|s| s % 4 == chunk) {
                        for t in 0..25usize {
                            assert_eq!(
                                lazy.base_dist(s.into(), t.into()),
                                dense.base_dist(s.into(), t.into())
                            );
                        }
                    }
                });
            }
        });
    }
}
