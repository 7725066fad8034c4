//! End-to-end restore benchmark for the RBPC workspace.
//!
//! One restoration follows the chain base-path lookup → affected check →
//! post-failure tree → greedy decomposition (and, on `isp_events`, the FEC
//! rewrite and a forwarding probe). Every timing is taken here, around
//! public calls of `rbpc-core`, `rbpc-graph` and `rbpc-mpls`.
//!
//! A run sets up its workload several times (the median is `setup_s`),
//! makes one checked pass over the seed's inputs, then repeats timed passes
//! over the same inputs until the measuring time is spent. Every pass must
//! reproduce the checked pass's plan digest. A traced run alternates
//! untraced and traced passes; the traced ones replace `Restorer::restore`
//! by the public calls it makes, each in a span.

pub mod checks;
mod internet;
mod isp;
pub mod report;
pub mod trace;

use rbpc_core::{greedy_decompose, BasePathOracle, Restoration, RestoreError, ShardedBasePaths};
use rbpc_graph::{repair_after_failures, EdgeId, FailureSet, NodeId, Path};
use report::{peak_rss_mib, quantile, Digest, Metrics, Report, Stamp};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Layer, Probe, Tracer};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Failure events on the ~200-node ISP with all pairs provisioned.
    IspEvents,
    /// Source-ordered sweep of a 4 000-node map through a tight store.
    InternetSweep,
    /// Random pairs on the 4 000-node map with every tree resident.
    InternetResident,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IspEvents,
        Workload::InternetSweep,
        Workload::InternetResident,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IspEvents => "isp_events",
            Workload::InternetSweep => "internet_sweep",
            Workload::InternetResident => "internet_resident",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small maps and few inputs; every check still runs.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the inputs (failures, pairs, orders).
    pub seed: u64,
    /// Measuring time, after set-up and the checked pass.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Threads for provisioning and parallel plans.
    pub threads: usize,
    /// Directory for the span file of a traced run, if any.
    pub trace_out: Option<PathBuf>,
}

/// A finished run: the stamp line and the result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Provenance of the result.
    pub stamp: Stamp,
    /// The result record.
    pub report: Report,
}

/// How a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// First pass: untimed, every check.
    Checked,
    /// Untraced, measured.
    Timed,
    /// Traced replay, measured.
    Traced,
}

/// Samples of the passes of one mode. A pass records its samples in
/// input order; every pass repeats the same inputs, so [`Tally::end_pass`]
/// keeps, per input, the fastest time any pass took. Latency is reported
/// over those per-input minima, which filters out the slow phases of a
/// shared host while keeping the spread across inputs.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Per-restoration latency.
    pub restore_ns: Vec<u64>,
    /// Per-event latency.
    pub event_ns: Vec<u64>,
    /// Busy time per restoration.
    pub busy_ns: Vec<u64>,
    /// Restorations this pass completed.
    pub done: u64,
    /// Whole passes.
    pub passes: u64,
    done_per_pass: u64,
    best_restore: Vec<u64>,
    best_event: Vec<u64>,
    best_busy: Vec<u64>,
}

impl Tally {
    /// Folds the pass's samples into the per-input minima.
    fn end_pass(&mut self) {
        fn fold(best: &mut Vec<u64>, pass: &mut Vec<u64>) {
            if best.is_empty() {
                std::mem::swap(best, pass);
            } else {
                for (b, &x) in best.iter_mut().zip(pass.iter()) {
                    *b = (*b).min(x);
                }
            }
            pass.clear();
        }
        fold(&mut self.best_restore, &mut self.restore_ns);
        fold(&mut self.best_event, &mut self.event_ns);
        fold(&mut self.best_busy, &mut self.busy_ns);
        self.done_per_pass = self.done;
        self.done = 0;
        self.passes += 1;
    }

    /// Restorations completed per second of busy time, from the per-unit
    /// minima.
    fn per_second(&self) -> f64 {
        let busy_s = self.best_busy.iter().sum::<u64>() as f64 / 1e9;
        self.done_per_pass as f64 / busy_s.max(1e-9)
    }
}

/// Attempts and failures across all passes, with the first few messages.
#[derive(Debug, Default)]
pub(crate) struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Verdict {
    /// Counts one failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Counts a check result.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(e);
        }
    }
}

/// One set-up workload.
pub(crate) trait Bench {
    /// Median seconds the system's own set-up took over
    /// [`repeat_setup`]'s repetitions: map generation, base-path
    /// provisioning and, where the workload has one, MPLS provisioning.
    fn setup_s(&self) -> f64;

    /// Runs one pass over the inputs and returns its plan digest.
    fn pass(&mut self, mode: Mode, tracer: &Tracer, tally: &mut Tally, v: &mut Verdict) -> Digest;

    /// Per-layer metrics this workload knows beyond the tracer's spans,
    /// given the number of traced passes.
    fn layer_metrics(&self, tracer: &Tracer, traced_passes: u64, m: &mut Metrics);
}

/// Set-up is repeated at least this many times...
const MIN_SETUPS: usize = 3;
/// ...and until this many seconds are spent in it...
const SETUP_BUDGET_S: f64 = 1.0;
/// ...but no more than this many times.
const MAX_SETUPS: usize = 51;

/// Runs the system set-up `f` repeatedly, dropping each result before the
/// next, and returns the last result with the median time in seconds.
pub(crate) fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let mut spent = 0.0;
    while times.len() < MIN_SETUPS || (spent < SETUP_BUDGET_S && times.len() < MAX_SETUPS) {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        let s = start.elapsed().as_secs_f64();
        times.push(s);
        spent += s;
    }
    let last = last.expect("invariant: set-up ran at least once");
    (last, quantile(&mut times, 0.5))
}

/// Runs one workload as configured.
pub fn run(cfg: &Config) -> Outcome {
    let mut bench: Box<dyn Bench> = match cfg.workload {
        Workload::IspEvents => Box::new(isp::Events::setup(cfg)),
        Workload::InternetSweep => Box::new(internet::Sweep::setup(cfg)),
        Workload::InternetResident => Box::new(internet::Resident::setup(cfg)),
    };

    let tracer = Tracer::default();
    let mut verdict = Verdict::default();
    let digest = bench.pass(Mode::Checked, &tracer, &mut Tally::default(), &mut verdict);

    let mut timed = Tally::default();
    let mut traced = Tally::default();
    let start = Instant::now();
    for i in 0u64.. {
        let enough = start.elapsed().as_secs_f64() >= cfg.seconds;
        if enough && timed.passes > 0 && (!cfg.trace || traced.passes > 0) {
            break;
        }
        let (mode, tally) = if cfg.trace && i % 2 == 1 {
            (Mode::Traced, &mut traced)
        } else {
            (Mode::Timed, &mut timed)
        };
        let d = bench.pass(mode, &tracer, tally, &mut verdict);
        tally.end_pass();
        if d != digest {
            verdict.fail(format!(
                "pass {i} digest {:016x} differs from the checked pass's {:016x}",
                d.0, digest.0
            ));
        }
    }

    let mut metrics = Metrics::new();
    if cfg.trace {
        let overhead = p(&mut traced.best_restore, 0.5) / p(&mut timed.best_restore, 0.5);
        metrics.insert("bench.trace_overhead", overhead);
        bench.layer_metrics(&tracer, traced.passes, &mut metrics);
        if let Some(dir) = &cfg.trace_out {
            write_spans(&tracer, dir, cfg);
        }
    } else {
        metrics.insert("restore_p50_us", p(&mut timed.best_restore, 0.5) / 1e3);
        metrics.insert("restore_p99_us", p(&mut timed.best_restore, 0.99) / 1e3);
        metrics.insert("restores_per_s", timed.per_second());
        metrics.insert("event_p50_ms", p(&mut timed.best_event, 0.5) / 1e6);
        metrics.insert("event_p90_ms", p(&mut timed.best_event, 0.9) / 1e6);
        metrics.insert("setup_s", bench.setup_s());
        metrics.insert("peak_rss_mib", peak_rss_mib());
    }
    for msg in &verdict.messages {
        eprintln!("check failed: {msg}");
    }
    let failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    Outcome {
        stamp: Stamp {
            workload: cfg.workload.name(),
            seed: cfg.seed,
            trace: cfg.trace,
            nproc: rbpc_core::default_threads(),
            threads: cfg.threads,
            git_rev: report::git_rev(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            obs: cfg!(feature = "obs"),
            plan_digest: digest.0,
            passes: timed.passes + traced.passes,
            failed_frac,
        },
        report: Report {
            correct: verdict.failed == 0 && verdict.attempted > 0,
            attempted: verdict.attempted.max(1),
            failed: verdict.failed,
            metrics,
        },
    }
}

/// The `q`-quantile of nanosecond samples, as `f64` nanoseconds.
fn p(samples: &mut [u64], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    quantile(&mut v, q)
}

fn write_spans(tracer: &Tracer, dir: &std::path::Path, cfg: &Config) {
    let file = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&file)?);
        tracer.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = written {
        eprintln!("warning: spans not written to {}: {e}", file.display());
    }
}

/// Runs `f` in a span of `layer` on traced passes, bare otherwise.
pub(crate) fn within<R>(mode: Mode, tracer: &Tracer, layer: Layer, f: impl FnOnce() -> R) -> R {
    if mode == Mode::Traced {
        tracer.span(layer, f)
    } else {
        f()
    }
}

/// Every failed edge, plus the links of every failed router: the edge
/// set a repair must drop.
pub(crate) fn failed_links(graph: &rbpc_graph::Graph, failures: &FailureSet) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = failures.failed_edges().collect();
    for v in failures.failed_nodes() {
        edges.extend(graph.neighbors(v).map(|h| h.edge));
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Counts the traced replay gathers beyond span times.
#[derive(Debug, Default)]
pub(crate) struct ReplayCounts {
    /// Store misses during `greedy_decompose` calls.
    pub decompose_misses: u64,
    /// Segments and raw-edge segments over all decompositions.
    pub segments: u64,
    pub raw_edges: u64,
    pub decompositions: u64,
    /// Store traffic caused by the drill-down, to subtract from the
    /// store's own counters.
    pub drill_hits: u64,
    pub drill_misses: u64,
    pub drill_builds: u64,
    /// `path_under` time of the drilled restorations.
    pub drill_path_under_ns: u64,
    pub drill_touched: u64,
    pub drills: u64,
    /// Distinct (event, source) pairs that needed a post-failure tree.
    pub event_sources: BTreeSet<(u64, NodeId)>,
}

/// Drill down every this many affected restorations of a traced pass.
const DRILL_EVERY: u64 = 4;

/// The traced replay of `Restorer::restore`: the same public calls in the
/// same order, each in its own span.
pub(crate) struct Replay<'a, O> {
    pub probe: Probe<'a, O>,
    /// The store's own counters, when it keeps any.
    pub sharded: Option<&'a ShardedBasePaths>,
    pub counts: ReplayCounts,
    /// Current failure event, for `repairs_per_source_tree`.
    pub event: u64,
    affected_seen: u64,
}

impl<'a, O: BasePathOracle> Replay<'a, O> {
    pub fn new(
        store: &'a O,
        sharded: Option<&'a ShardedBasePaths>,
        tracer: &'a Tracer,
        counts: ReplayCounts,
    ) -> Self {
        Replay {
            probe: Probe::new(store, tracer),
            sharded,
            counts,
            event: 0,
            affected_seen: 0,
        }
    }

    fn misses(&self) -> (u64, u64, u64) {
        self.sharded.map_or((0, 0, 0), |s| {
            let st = s.stats();
            (st.hits, st.misses, st.shard_builds)
        })
    }

    /// `Restorer::restore(s, t, failures)`, call by call, each call in a
    /// span under the caller's [`Layer::Restore`] span.
    pub fn restore(
        &mut self,
        s: NodeId,
        t: NodeId,
        failures: &FailureSet,
    ) -> Result<Restoration, RestoreError> {
        let tracer = self.probe.tracer;
        let graph = self.probe.graph();
        let model = self.probe.cost_model();
        for node in [s, t] {
            if node.index() >= graph.node_count() {
                return Err(RestoreError::UnknownNode { node });
            }
            if failures.node_failed(node) {
                return Err(RestoreError::EndpointFailed { node });
            }
        }
        let disconnected = RestoreError::Disconnected {
            source: s,
            target: t,
        };
        let original = tracer
            .span(Layer::Lookup, || self.probe.base_path(s, t))
            .ok_or(disconnected)?;
        let affected = tracer.span(Layer::Affected, || !checks::survives(&original, failures));
        let backup = if affected {
            self.counts.event_sources.insert((self.event, s));
            tracer
                .span(Layer::PathUnder, || self.probe.path_under(s, t, failures))
                .ok_or(disconnected)?
        } else {
            original.clone()
        };
        let before = self.misses().1;
        let concatenation =
            tracer.span(Layer::Decompose, || greedy_decompose(&self.probe, &backup));
        self.counts.decompose_misses += self.misses().1 - before;
        self.counts.decompositions += 1;
        self.counts.segments += concatenation.len() as u64;
        self.counts.raw_edges += concatenation.raw_edge_count() as u64;
        let r = tracer.span(Layer::Assemble, || Restoration {
            source: s,
            target: t,
            original_cost: original.cost(graph, model),
            backup_cost: backup.cost(graph, model),
            original,
            backup,
            concatenation,
            affected,
        });
        Ok(r)
    }

    /// After a traced restoration: on every [`DRILL_EVERY`]-th affected
    /// one, re-derive its post-failure path through `with_spt`, a tree
    /// clone, `repair_after_failures` and `path_to`, and check that it is
    /// the path `path_under` returned. Runs outside the restore span.
    ///
    /// # Errors
    ///
    /// When the drilled path differs from `path_under`'s.
    pub fn maybe_drill(
        &mut self,
        r: &Restoration,
        failures: &FailureSet,
        path_under_ns: u64,
    ) -> Result<(), String> {
        if !r.affected {
            return Ok(());
        }
        self.affected_seen += 1;
        if !self.affected_seen.is_multiple_of(DRILL_EVERY) {
            return Ok(());
        }
        let tracer = self.probe.tracer;
        let graph = self.probe.graph();
        let model = self.probe.cost_model();
        let (h0, m0, b0) = self.misses();
        let (path, touched) = tracer.span(Layer::Drill, || {
            self.probe.with_spt(r.source, |base| {
                let mut tree = tracer.span(Layer::Clone, || base.clone());
                let stats = tracer.span(Layer::Repair, || {
                    let edges = failed_links(graph, failures);
                    repair_after_failures(&mut tree, &failures.view(graph), model, &edges)
                });
                let path = tracer.span(Layer::PathTo, || tree.path_to(r.target));
                (path, stats.nodes_touched)
            })
        });
        let (h1, m1, b1) = self.misses();
        self.counts.drill_hits += h1 - h0;
        self.counts.drill_misses += m1 - m0;
        self.counts.drill_builds += b1 - b0;
        self.counts.drill_path_under_ns += path_under_ns;
        self.counts.drill_touched += touched as u64;
        self.counts.drills += 1;
        if path.as_ref() == Some(&r.backup) {
            Ok(())
        } else {
            Err(format!(
                "{}->{}: drill-down path {path:?} differs from path_under's {}",
                r.source, r.target, r.backup
            ))
        }
    }
}

/// Per-layer metrics every restoring workload shares: the spans of the
/// replay, as means, counts per traced pass, and shares of `root` time.
pub(crate) fn replay_metrics(
    c: &ReplayCounts,
    tracer: &Tracer,
    root: Layer,
    passes: u64,
    m: &mut Metrics,
) {
    let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
    let root_ns = tracer.total_ns(root).max(1) as f64;
    let mean = |l: Layer| tracer.total_ns(l) as f64 / tracer.calls(l).max(1) as f64;
    let share = |l: Layer| tracer.total_ns(l) as f64 / root_ns;

    m.insert(
        "core.basepaths.lookup.calls",
        per_pass(tracer.calls(Layer::Lookup)),
    );
    m.insert("core.basepaths.lookup.mean_ns", mean(Layer::Lookup));
    m.insert("core.basepaths.lookup.share", share(Layer::Lookup));
    m.insert(
        "core.restore.path_under.calls",
        per_pass(tracer.calls(Layer::PathUnder)),
    );
    m.insert("core.restore.path_under.mean_ns", mean(Layer::PathUnder));
    m.insert("core.restore.path_under.share", share(Layer::PathUnder));
    m.insert("core.decompose.mean_ns", mean(Layer::Decompose));
    m.insert("core.decompose.share", share(Layer::Decompose));
    m.insert(
        "core.decompose.segments_mean",
        c.segments as f64 / c.decompositions.max(1) as f64,
    );
    m.insert("core.decompose.raw_edges", per_pass(c.raw_edges));
    m.insert("core.decompose.store_misses", per_pass(c.decompose_misses));

    // Fetches made by the drill-down are not part of any restoration.
    let fetch_ns = tracer.total_ns(Layer::Fetch) - tracer.total_under(Layer::Fetch, Layer::Drill);
    let fetches = tracer.calls(Layer::Fetch) - tracer.calls_under(Layer::Fetch, Layer::Drill);
    m.insert(
        "core.store.fetch.mean_ns",
        fetch_ns as f64 / fetches.max(1) as f64,
    );
    m.insert("core.store.fetch.share", fetch_ns as f64 / root_ns);

    // The drill-down: each part's share of `path_under`, scaled by
    // `path_under`'s own share of the root.
    let under = c.drill_path_under_ns.max(1) as f64;
    let pu_share = share(Layer::PathUnder);
    for (layer, mean_name, share_name) in [
        (
            Layer::Clone,
            "graph.spt.clone.mean_ns",
            "graph.spt.clone.share",
        ),
        (
            Layer::Repair,
            "graph.dynamic.repair.mean_ns",
            "graph.dynamic.repair.share",
        ),
        (
            Layer::PathTo,
            "graph.spt.path_to.mean_ns",
            "graph.spt.path_to.share",
        ),
    ] {
        m.insert(mean_name, mean(layer));
        m.insert(share_name, tracer.total_ns(layer) as f64 / under * pu_share);
    }
    let drilled = tracer.children_ns(Layer::Drill);
    m.insert("bench.drilldown_coverage", drilled as f64 / under);
    m.insert(
        "graph.dynamic.nodes_touched",
        c.drill_touched as f64 / c.drills.max(1) as f64,
    );
    m.insert(
        "graph.dynamic.repairs_per_source_tree",
        tracer.calls(Layer::PathUnder) as f64 / c.event_sources.len().max(1) as f64,
    );
    // Coverage is taken over the restoration units themselves, whatever
    // the root the shares are relative to.
    let restore_ns = tracer.total_ns(Layer::Restore).max(1) as f64;
    m.insert(
        "bench.coverage",
        tracer.children_ns(Layer::Restore) as f64 / restore_ns,
    );
}

/// Store-side per-layer metrics: hits, misses and builds per traced pass
/// (the drill-down's own traffic removed), from the store's counters
/// summed over the traced passes.
pub(crate) fn store_metrics(
    hits: u64,
    misses: u64,
    builds: u64,
    evicted: u64,
    passes: u64,
    m: &mut Metrics,
) {
    let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
    m.insert("core.store.hits", per_pass(hits));
    m.insert("core.store.misses", per_pass(misses));
    m.insert(
        "core.store.miss_ratio",
        misses as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("core.store.shard_builds", per_pass(builds));
    m.insert("core.store.evicted_trees", per_pass(evicted));
}

/// The `core.provision.heap_pops` counter of the global obs registry (0
/// when instrumentation is compiled out).
pub(crate) fn heap_pops() -> u64 {
    rbpc_obs::Registry::global_snapshot()
        .counter("core.provision.heap_pops")
        .unwrap_or(0)
}

/// Milliseconds since `start`.
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Mixes a restoration result into a plan digest: the plan hash, or a
/// marker and the endpoints for a pair left disconnected.
pub(crate) fn mix_result(
    d: &mut Digest,
    s: NodeId,
    t: NodeId,
    r: &Result<Restoration, RestoreError>,
) {
    match r {
        Ok(r) => d.mix(r.plan_hash()),
        Err(_) => {
            d.mix(u64::MAX);
            d.mix(s.index() as u64);
            d.mix(t.index() as u64);
        }
    }
}

/// The `path_under` time traced since `before` was read from
/// [`Tracer::total_ns`]: that of the restoration just replayed.
pub(crate) fn last_path_under_ns(tracer: &Tracer, before: u64) -> u64 {
    tracer.total_ns(Layer::PathUnder) - before
}

/// Fisher–Yates shuffle driven by `rng`.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut rbpc_graph::DetRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A path's mid-path edge: the link a sweep query fails.
pub(crate) fn mid_edge(path: &Path) -> EdgeId {
    path.edges()[path.hop_count() / 2]
}
