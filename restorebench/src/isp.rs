//! The workload on the paper's ~200-node weighted ISP, with every source's
//! tree resident (`DenseBasePaths`).

use crate::checks::{check_disconnected, check_restoration};
use crate::report::{quantile, Digest, Metrics};
use crate::trace::{Layer, Tracer};
use crate::{
    heap_pops, last_path_under_ns, mix_result, ms_since, repeat_setup, replay_metrics, shuffle,
    store_metrics, within, Bench, Config, Mode, Replay, ReplayCounts, Size, Tally, Verdict,
};
use rbpc_core::{
    destinations_through_edge, BasePathOracle, DenseBasePaths, ProvisionedDomain, RestoreError,
    Restorer,
};
use rbpc_graph::{CostModel, DetRng, EdgeId, FailureSet, Graph, Metric, NodeId};
use rbpc_mpls::SignalingStats;
use rbpc_topo::{isp_topology, IspParams};
use std::time::Instant;

/// The ISP map is fixed, and so is the grouping of its failures into
/// events; the seed orders the events.
const TOPO_SEED: u64 = 1;
/// One router in this many fails in a round of `isp_events`, which makes
/// about one event in five a router failure.
const ROUTER_EVERY: usize = 4;
/// Check one restoration in this many against a from-scratch Dijkstra.
const REFERENCE_EVERY: u64 = 8;
/// The checked pass builds the failover plan of one link in this many.
const PLAN_SAMPLE_EVERY: usize = 16;

fn isp_map(size: Size) -> Graph {
    let params = match size {
        Size::Full => IspParams::default(),
        Size::Tiny => IspParams {
            core_routers: 4,
            pops: 4,
            min_access_per_pop: 1,
            max_access_per_pop: 2,
            core_chords: 2,
            ..IspParams::default()
        },
    };
    isp_topology(params, TOPO_SEED).graph
}

/// Generates the map and provisions every source's tree, timing both.
fn provision(cfg: &Config) -> (DenseBasePaths, SetupTimes) {
    let pops0 = heap_pops();
    let start = Instant::now();
    let graph = isp_map(cfg.size);
    let topo_ms = ms_since(start);
    let start = Instant::now();
    let model = CostModel::new(Metric::Weighted, TOPO_SEED);
    let oracle = DenseBasePaths::build_with_threads(graph, model, cfg.threads);
    let times = SetupTimes {
        topo_ms,
        provision_ms: ms_since(start),
        heap_pops: heap_pops() - pops0,
        total_s: 0.0,
    };
    (oracle, times)
}

/// Set-up phase times (of the last set-up) and counts; `total_s` is the
/// median over the repeated set-ups.
#[derive(Debug, Default)]
struct SetupTimes {
    topo_ms: f64,
    provision_ms: f64,
    heap_pops: u64,
    total_s: f64,
}

impl SetupTimes {
    fn insert(&self, n: usize, m: &mut Metrics) {
        m.insert("topo.generate_ms", self.topo_ms);
        m.insert("core.basepaths.provision_ms", self.provision_ms);
        m.insert("graph.csr.trees_built", n as f64);
        m.insert("graph.csr.heap_pops", self.heap_pops as f64);
    }
}

/// `isp_events`: failure events one after another; every provisioned LSP
/// an event breaks is found, restored, rewritten and probed, and its FEC
/// entry is reverted on recovery.
pub(crate) struct Events {
    oracle: DenseBasePaths,
    dom: ProvisionedDomain,
    events: Vec<FailureSet>,
    setup: SetupTimes,
    mpls_ms: f64,
    threads: usize,
    plans: PlanSample,
    counts: ReplayCounts,
    event_seq: u64,
    on_demand_lsps: u64,
    traced_signals: SignalingStats,
    traced_event_ns: u64,
}

/// What the checked pass's sample of §4.1 failover plans measured.
#[derive(Debug, Default)]
struct PlanSample {
    pairs_scanned: u64,
    affected_routes: u64,
    /// Sequential over parallel plan time, per sampled link.
    speedup: Vec<f64>,
}

/// One round of failure events: every link fails once, in events of one,
/// two and three links in turn drawn from a fixed permutation, and every
/// [`ROUTER_EVERY`]-th router fails on its own. The seed orders the
/// events. The events themselves are the same for every seed: which links
/// share an event sets how many LSPs it breaks, and a seeded grouping
/// moved the median event by ±13% from seed to seed.
fn draw_events(graph: &Graph, seed: u64) -> Vec<FailureSet> {
    let mut links: Vec<EdgeId> = graph.edge_ids().collect();
    shuffle(&mut links, &mut DetRng::seed_from_u64(TOPO_SEED));
    let mut events = Vec::new();
    let mut rest = &links[..];
    while !rest.is_empty() {
        let k = (events.len() % 3 + 1).min(rest.len());
        events.push(FailureSet::of_edges(rest[..k].iter().copied()));
        rest = &rest[k..];
    }
    events.extend(
        graph
            .nodes()
            .step_by(ROUTER_EVERY)
            .map(|v| FailureSet::of_nodes([v])),
    );
    shuffle(&mut events, &mut DetRng::seed_from_u64(seed));
    events
}

/// Every provisioned pair whose base path `failures` break, found per
/// source through `destinations_through_edge`. Pairs that start or end
/// at a failed router are not restorable and are left out.
fn broken_pairs(oracle: &DenseBasePaths, failures: &FailureSet) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    let mut dests = Vec::new();
    for s in oracle.graph().nodes() {
        if failures.node_failed(s) {
            continue;
        }
        dests.clear();
        for e in failures.failed_edges() {
            dests.extend(destinations_through_edge(oracle, s, e));
        }
        for v in failures.failed_nodes() {
            if let Some(up) = oracle.with_spt(s, |spt| spt.parent_edge(v)) {
                dests.extend(destinations_through_edge(oracle, s, up));
            }
        }
        dests.retain(|&t| !failures.node_failed(t));
        dests.sort_unstable();
        dests.dedup();
        pairs.extend(dests.iter().map(|&t| (s, t)));
    }
    pairs
}

impl Events {
    pub(crate) fn setup(cfg: &Config) -> Self {
        let ((oracle, mut setup, dom, mpls_ms), total_s) = repeat_setup(|| {
            let (oracle, setup) = provision(cfg);
            let start = Instant::now();
            let mut dom = ProvisionedDomain::new(&oracle);
            dom.provision_all_pairs(&oracle)
                .expect("invariant: every base path of a connected map can be signalled");
            (oracle, setup, dom, ms_since(start))
        });
        setup.total_s = total_s;
        let events = draw_events(oracle.graph(), cfg.seed);
        Events {
            oracle,
            dom,
            events,
            setup,
            mpls_ms,
            threads: cfg.threads,
            plans: PlanSample::default(),
            counts: ReplayCounts::default(),
            event_seq: 0,
            on_demand_lsps: 0,
            traced_signals: SignalingStats::default(),
            traced_event_ns: 0,
        }
    }

    /// §4.1's failover plan of every [`PLAN_SAMPLE_EVERY`]-th link over
    /// all ordered pairs, built by `failover_plan_par` on the run's threads
    /// and by the sequential `failover_plan`, which must agree; every
    /// planned route is checked. Untimed apart from the two builds.
    fn sample_plans(&mut self, tracer: &Tracer, v: &mut Verdict) {
        let restorer = Restorer::new(&self.oracle);
        let nodes: Vec<NodeId> = self.oracle.graph().nodes().collect();
        let pairs: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .flat_map(|&s| nodes.iter().filter(move |&&t| t != s).map(move |&t| (s, t)))
            .collect();
        let links: Vec<EdgeId> = self.oracle.graph().edge_ids().collect();
        for &link in links.iter().step_by(PLAN_SAMPLE_EVERY) {
            let start = Instant::now();
            let plan = tracer.span(Layer::Plan, || {
                restorer.failover_plan_par(link, &pairs, self.threads)
            });
            let par_ns = start.elapsed().as_nanos() as u64;
            let start = Instant::now();
            let seq = restorer.failover_plan(link, pairs.iter().copied());
            let seq_ns = start.elapsed().as_nanos() as u64;
            self.plans
                .speedup
                .push(seq_ns as f64 / par_ns.max(1) as f64);
            self.plans.pairs_scanned += pairs.len() as u64;
            self.plans.affected_routes += plan.affected_routes() as u64;
            v.attempted += plan.affected_routes() as u64;
            if seq != plan {
                v.fail(format!(
                    "link {link}: parallel plan differs from sequential"
                ));
            }
            let failures = FailureSet::of_edge(link);
            for (j, u) in plan.updates.iter().enumerate() {
                let reference = (j as u64).is_multiple_of(REFERENCE_EVERY);
                v.check(check_restoration(
                    &self.oracle,
                    u.source,
                    u.dest,
                    &failures,
                    &u.restoration,
                    reference,
                ));
            }
            for &(s, t) in &plan.unrestorable {
                v.check(check_disconnected(&self.oracle, s, t, &failures));
            }
        }
    }
}

impl Bench for Events {
    fn setup_s(&self) -> f64 {
        self.setup.total_s
    }

    fn pass(&mut self, mode: Mode, tracer: &Tracer, tally: &mut Tally, v: &mut Verdict) -> Digest {
        let mut digest = Digest::default();
        let signals0 = self.dom.net().stats();
        let oracle = &self.oracle;
        let dom = &mut self.dom;
        let restorer = Restorer::new(oracle);
        let mut replay = Replay::new(oracle, None, tracer, std::mem::take(&mut self.counts));
        for failures in &self.events {
            self.event_seq += 1;
            replay.event = self.event_seq;
            let event_start = Instant::now();
            let pairs = within(mode, tracer, Layer::Discover, || {
                broken_pairs(oracle, failures)
            });
            let mut rewritten = Vec::with_capacity(pairs.len());
            for &(s, t) in &pairs {
                v.attempted += 1;
                tracer.next_rid();
                let under0 = tracer.total_ns(Layer::PathUnder);
                let start = Instant::now();
                let (res, probe) = within(mode, tracer, Layer::Restore, || {
                    let res = if mode == Mode::Traced {
                        replay.restore(s, t, failures)
                    } else {
                        restorer.restore(s, t, failures)
                    };
                    let probe = res.as_ref().ok().map(|r| {
                        within(mode, tracer, Layer::FecApply, || {
                            dom.apply_source_restoration(r)
                        })
                        .map_err(|e| e.to_string())
                        .and_then(|()| {
                            within(mode, tracer, Layer::Forward, || dom.forward(s, t, failures))
                                .map_err(|e| e.to_string())
                        })
                    });
                    (res, probe)
                });
                let ns = start.elapsed().as_nanos() as u64;
                tally.restore_ns.push(ns);
                tally.busy_ns.push(ns);
                mix_result(&mut digest, s, t, &res);
                match (&res, probe) {
                    (Ok(r), Some(Ok(trace))) => {
                        tally.done += 1;
                        rewritten.push((s, t));
                        if trace.route() != r.backup.nodes() {
                            v.fail(format!("{s}->{t}: packet took {:?}", trace.route()));
                        }
                        if mode == Mode::Checked {
                            let reference = v.attempted.is_multiple_of(REFERENCE_EVERY);
                            v.check(check_restoration(oracle, s, t, failures, r, reference));
                        }
                        if mode == Mode::Traced {
                            let under = last_path_under_ns(tracer, under0);
                            v.check(replay.maybe_drill(r, failures, under));
                        }
                    }
                    (Ok(_), Some(Err(e))) => v.fail(format!("{s}->{t}: MPLS: {e}")),
                    (Err(RestoreError::Disconnected { .. }), _) => {
                        if mode == Mode::Checked {
                            v.check(check_disconnected(oracle, s, t, failures));
                        }
                    }
                    (Err(e), _) => v.fail(format!("{s}->{t}: {e}")),
                    (Ok(_), None) => unreachable!("a restoration always gets a probe"),
                }
            }
            let event_ns = event_start.elapsed().as_nanos() as u64;
            tally.event_ns.push(event_ns);
            if mode == Mode::Traced {
                self.traced_event_ns += event_ns;
            }
            // Recovery: every rewritten entry goes back to its base LSP.
            for (s, t) in rewritten {
                let reverted = within(mode, tracer, Layer::Revert, || {
                    let lsp = dom.lsp_for_pair(s, t).ok_or("no base LSP")?;
                    dom.net_mut()
                        .set_fec_via_lsps(s, t, &[lsp])
                        .map_err(|_| "FEC rewrite refused")
                });
                if let Err(e) = reverted {
                    v.fail(format!("{s}->{t}: revert: {e}"));
                }
            }
        }
        self.counts = replay.counts;
        let signals = self.dom.net().stats().since(&signals0);
        match mode {
            Mode::Checked => {
                self.on_demand_lsps = signals.lsps_established;
                self.sample_plans(tracer, v);
            }
            Mode::Traced => {
                let t = &mut self.traced_signals;
                t.fec_writes += signals.fec_writes;
                t.messages += signals.messages;
            }
            Mode::Timed => {}
        }
        digest
    }

    fn layer_metrics(&self, tracer: &Tracer, passes: u64, m: &mut Metrics) {
        let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
        self.setup.insert(self.oracle.graph().node_count(), m);
        replay_metrics(&self.counts, tracer, Layer::Restore, passes, m);
        // Every fetch of the dense store hits.
        let fetches = tracer.calls(Layer::Fetch) - tracer.calls_under(Layer::Fetch, Layer::Drill);
        store_metrics(fetches + tracer.calls(Layer::PathUnder), 0, 0, 0, passes, m);
        m.insert(
            "core.restore.discover.share",
            tracer.total_ns(Layer::Discover) as f64 / self.traced_event_ns.max(1) as f64,
        );
        let mean = |l: Layer| tracer.total_ns(l) as f64 / tracer.calls(l).max(1) as f64;
        m.insert("mpls.fec_apply.mean_ns", mean(Layer::FecApply));
        m.insert("mpls.forward.mean_ns", mean(Layer::Forward));
        m.insert("mpls.revert.mean_ns", mean(Layer::Revert));
        m.insert("mpls.fec_writes", per_pass(self.traced_signals.fec_writes));
        m.insert("mpls.messages", per_pass(self.traced_signals.messages));
        m.insert("mpls.on_demand_lsps", self.on_demand_lsps as f64);
        m.insert("mpls.provision_ms", self.mpls_ms);
        m.insert("core.plan.pairs_scanned", self.plans.pairs_scanned as f64);
        m.insert(
            "core.plan.affected_routes",
            self.plans.affected_routes as f64,
        );
        m.insert(
            "core.plan.par_speedup",
            quantile(&mut self.plans.speedup.clone(), 0.5),
        );
    }
}
