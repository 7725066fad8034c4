//! The two workloads on the 4 000-node Internet-like map (unweighted),
//! both through `ShardedBasePaths`: a tight budget swept in source order,
//! and every tree resident.

use crate::checks::{check_disconnected, check_restoration};
use crate::report::{Digest, Metrics};
use crate::trace::{Layer, Tracer};
use crate::{
    heap_pops, last_path_under_ns, mid_edge, mix_result, ms_since, repeat_setup, replay_metrics,
    store_metrics, within, Bench, Config, Mode, Replay, ReplayCounts, Size, Tally, Verdict,
};
use rbpc_core::{BasePathOracle, BasePathStore, RestoreError, Restorer, ShardedBasePaths};
use rbpc_graph::{CostModel, DetRng, FailureSet, Graph, Metric, NodeId};
use rbpc_topo::internet_like_scaled;
use std::time::Instant;

/// The map is fixed; the seed draws the queries and failures.
const TOPO_SEED: u64 = 1;
/// Check one restoration in this many against a from-scratch Dijkstra.
const REFERENCE_EVERY: u64 = 8;

/// The sweep visits this many blocks of the source index range.
const SWEEP_BLOCKS: usize = 10;

/// One restoration to make: source, destination, failures.
type Query = (NodeId, NodeId, FailureSet);

fn map_nodes(size: Size) -> usize {
    match size {
        Size::Full => 4_000,
        Size::Tiny => 300,
    }
}

fn model() -> CostModel {
    CostModel::new(Metric::Unweighted, TOPO_SEED)
}

/// Store counters and set-up times both Internet workloads report.
#[derive(Debug, Default)]
struct Shared {
    graph: Graph,
    queries: Vec<Query>,
    topo_ms: f64,
    provision_ms: f64,
    setup_s: f64,
    setup_heap_pops: u64,
    counts: ReplayCounts,
    event_seq: u64,
    /// Store traffic and heap pops over the traced passes.
    traced: (u64, u64, u64, u64),
    traced_heap_pops: u64,
}

impl Shared {
    /// One pass of `queries` through `store`.
    fn pass(
        &mut self,
        store: &ShardedBasePaths,
        mode: Mode,
        tracer: &Tracer,
        tally: &mut Tally,
        v: &mut Verdict,
    ) -> Digest {
        let mut digest = Digest::default();
        let restorer = Restorer::new(store);
        let mut replay = Replay::new(store, Some(store), tracer, std::mem::take(&mut self.counts));
        let before = store.stats();
        let pops0 = heap_pops();
        for (s, t, failures) in &self.queries {
            let (s, t) = (*s, *t);
            v.attempted += 1;
            self.event_seq += 1;
            replay.event = self.event_seq;
            tracer.next_rid();
            let under0 = tracer.total_ns(Layer::PathUnder);
            let start = Instant::now();
            let res = within(mode, tracer, Layer::Restore, || {
                if mode == Mode::Traced {
                    replay.restore(s, t, failures)
                } else {
                    restorer.restore(s, t, failures)
                }
            });
            let ns = start.elapsed().as_nanos() as u64;
            // Each query is its own failure event with one broken LSP.
            tally.restore_ns.push(ns);
            tally.event_ns.push(ns);
            tally.busy_ns.push(ns);
            mix_result(&mut digest, s, t, &res);
            match &res {
                Ok(r) => {
                    tally.done += 1;
                    if mode == Mode::Checked {
                        let reference = v.attempted.is_multiple_of(REFERENCE_EVERY);
                        v.check(check_restoration(store, s, t, failures, r, reference));
                    }
                    if mode == Mode::Traced {
                        let under = last_path_under_ns(tracer, under0);
                        v.check(replay.maybe_drill(r, failures, under));
                    }
                }
                Err(RestoreError::Disconnected { .. }) => {
                    if mode == Mode::Checked {
                        v.check(check_disconnected(store, s, t, failures));
                    }
                }
                Err(e) => v.fail(format!("{s}->{t}: {e}")),
            }
        }
        self.counts = replay.counts;
        if mode == Mode::Traced {
            let after = store.stats();
            self.traced.0 += after.hits - before.hits;
            self.traced.1 += after.misses - before.misses;
            self.traced.2 += after.shard_builds - before.shard_builds;
            self.traced.3 += after.evicted_trees - before.evicted_trees;
            self.traced_heap_pops += heap_pops() - pops0;
        }
        digest
    }

    fn layer_metrics(&self, tracer: &Tracer, passes: u64, shard_size: usize, m: &mut Metrics) {
        let c = &self.counts;
        let (hits, misses, builds, evicted) = self.traced;
        let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
        m.insert("topo.generate_ms", self.topo_ms);
        m.insert("core.basepaths.provision_ms", self.provision_ms);
        replay_metrics(c, tracer, Layer::Restore, passes, m);
        store_metrics(
            hits - c.drill_hits,
            misses - c.drill_misses,
            builds - c.drill_builds,
            evicted,
            passes,
            m,
        );
        let built = per_pass(builds - c.drill_builds) * shard_size as f64;
        let pops = self.setup_heap_pops as f64 + per_pass(self.traced_heap_pops);
        m.insert("graph.csr.trees_built", built);
        m.insert("graph.csr.heap_pops", pops);
    }
}

/// Generates the map, timing it.
fn generate(size: Size) -> (Graph, f64) {
    let start = Instant::now();
    let graph = internet_like_scaled(map_nodes(size), TOPO_SEED);
    (graph, ms_since(start))
}

/// `internet_sweep`: sources in index order, each with one sampled
/// destination and a mid-path link failure, through a store that holds 64
/// trees in shards of 16. Every pass starts from an empty store.
pub(crate) struct Sweep {
    shared: Shared,
    budget: usize,
    shard_size: usize,
}

/// Worker threads of the sweep's store. A miss builds its shard inside
/// the restoration, and a shard built on two threads of a shared 2-vCPU
/// host took as long as whichever thread the host held back, which spread
/// `restore_p50_us` by 12–19% between runs; one thread measures the build.
const SWEEP_THREADS: usize = 1;

impl Sweep {
    pub(crate) fn setup(cfg: &Config) -> Self {
        let (budget, shard_size, window) = match cfg.size {
            Size::Full => (64, 16, 600),
            Size::Tiny => (16, 4, 40),
        };
        let ((graph, topo_ms, provision_ms, setup_heap_pops), setup_s) = repeat_setup(|| {
            let pops0 = heap_pops();
            let (graph, topo_ms) = generate(cfg.size);
            let start = Instant::now();
            let store = ShardedBasePaths::with_budget(
                graph.clone(),
                model(),
                budget,
                shard_size,
                SWEEP_THREADS,
            );
            let provision_ms = ms_since(start);
            drop(store);
            (graph, topo_ms, provision_ms, heap_pops() - pops0)
        });

        // Inputs: in each of `BLOCKS` equal blocks of the source index
        // range, a run of consecutive sources from a seeded offset, each
        // failing the middle link of its base path to a random
        // destination. Their base paths come from a store that holds all
        // of them.
        let n = graph.node_count();
        let mut rng = DetRng::seed_from_u64(cfg.seed);
        let (block, run) = (n / SWEEP_BLOCKS, window / SWEEP_BLOCKS);
        let sources: Vec<NodeId> = (0..SWEEP_BLOCKS)
            .flat_map(|b| {
                let first = b * block + rng.gen_range(0..=block - run);
                (first..first + run).map(NodeId::new)
            })
            .collect();
        let prep = ShardedBasePaths::with_budget(
            graph.clone(),
            model(),
            window + 2 * shard_size,
            shard_size,
            cfg.threads,
        );
        prep.prefetch(&sources);
        let queries = sources
            .into_iter()
            .filter_map(|s| {
                let t = loop {
                    let t = NodeId::new(rng.gen_range(0..n));
                    if t != s {
                        break t;
                    }
                };
                let path = prep.base_path(s, t)?;
                Some((s, t, FailureSet::of_edge(mid_edge(&path))))
            })
            .collect();
        Sweep {
            shared: Shared {
                graph,
                queries,
                topo_ms,
                provision_ms,
                setup_s,
                setup_heap_pops,
                ..Shared::default()
            },
            budget,
            shard_size,
        }
    }
}

impl Bench for Sweep {
    fn setup_s(&self) -> f64 {
        self.shared.setup_s
    }

    fn pass(&mut self, mode: Mode, tracer: &Tracer, tally: &mut Tally, v: &mut Verdict) -> Digest {
        let store = ShardedBasePaths::with_budget(
            self.shared.graph.clone(),
            model(),
            self.budget,
            self.shard_size,
            SWEEP_THREADS,
        );
        self.shared.pass(&store, mode, tracer, tally, v)
    }

    fn layer_metrics(&self, tracer: &Tracer, passes: u64, m: &mut Metrics) {
        self.shared
            .layer_metrics(tracer, passes, self.shard_size, m);
    }
}

/// `internet_resident`: random pairs, each with one to three failed
/// on-path links or (one case in five) a failed transit router, with all
/// trees prefetched at set-up.
pub(crate) struct Resident {
    shared: Shared,
    store: ShardedBasePaths,
    prefetch_ms: f64,
    shard_size: usize,
}

/// One to three failed links of `path`, or every fifth case a failed
/// transit router, drawn from `rng`.
fn on_path_failures(
    i: usize,
    hops: usize,
    path: &rbpc_graph::Path,
    rng: &mut DetRng,
) -> FailureSet {
    if i % 5 == 4 && hops >= 2 {
        return FailureSet::of_nodes([path.nodes()[rng.gen_range(1..hops)]]);
    }
    let k = ((i % 5) % 3 + 1).min(hops);
    let mut f = FailureSet::new();
    while f.failed_edge_count() < k {
        f.fail_edge(path.edges()[rng.gen_range(0..hops)]);
    }
    f
}

impl Resident {
    pub(crate) fn setup(cfg: &Config) -> Self {
        let (shard_size, count) = match cfg.size {
            Size::Full => (32, 4_000),
            Size::Tiny => (8, 60),
        };
        let ((graph, store, topo_ms, provision_ms, prefetch_ms, setup_heap_pops), setup_s) =
            repeat_setup(|| {
                let pops0 = heap_pops();
                let (graph, topo_ms) = generate(cfg.size);
                let n = graph.node_count();
                let start = Instant::now();
                let store = ShardedBasePaths::with_budget(
                    graph.clone(),
                    model(),
                    n,
                    shard_size,
                    cfg.threads,
                );
                let provision_ms = ms_since(start);
                let start = Instant::now();
                let all: Vec<NodeId> = graph.nodes().collect();
                store.prefetch(&all);
                let prefetch_ms = ms_since(start);
                (
                    graph,
                    store,
                    topo_ms,
                    provision_ms,
                    prefetch_ms,
                    heap_pops() - pops0,
                )
            });
        let n = graph.node_count();

        let mut rng = DetRng::seed_from_u64(cfg.seed);
        let mut queries = Vec::with_capacity(count);
        while queries.len() < count {
            let s = NodeId::new(rng.gen_range(0..n));
            let t = NodeId::new(rng.gen_range(0..n));
            let Some(path) = store.base_path(s, t).filter(|p| p.hop_count() > 0) else {
                continue;
            };
            let failures = on_path_failures(queries.len(), path.hop_count(), &path, &mut rng);
            queries.push((s, t, failures));
        }
        Resident {
            shared: Shared {
                graph,
                queries,
                topo_ms,
                provision_ms,
                setup_s,
                setup_heap_pops,
                ..Shared::default()
            },
            store,
            prefetch_ms,
            shard_size,
        }
    }
}

impl Bench for Resident {
    fn setup_s(&self) -> f64 {
        self.shared.setup_s
    }

    fn pass(&mut self, mode: Mode, tracer: &Tracer, tally: &mut Tally, v: &mut Verdict) -> Digest {
        self.shared.pass(&self.store, mode, tracer, tally, v)
    }

    fn layer_metrics(&self, tracer: &Tracer, passes: u64, m: &mut Metrics) {
        self.shared
            .layer_metrics(tracer, passes, self.shard_size, m);
        m.insert("core.store.prefetch_ms", self.prefetch_ms);
        m.insert(
            "graph.csr.trees_built",
            self.shared.graph.node_count() as f64,
        );
    }
}
