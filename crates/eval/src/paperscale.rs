//! Paper-scale provisioning: the 40 377-node Internet router map,
//! end to end, under a stated memory budget.
//!
//! The paper's Table 1 lists the Internet router map at 40 377 nodes and
//! 101 659 links, but its evaluation samples only 40 source–destination
//! pairs there — an all-pairs base set is `n(n−1) ≈ 1.63 billion`
//! directed pairs, and even one tree per source is ~59 GB. This module
//! drives the implicit sharded store ([`ShardedBasePaths`]) over exactly
//! that topology (the [`standard_suite`] "Internet" case, so incident
//! files replay with [`TopoSpec::Suite`](crate::incident::TopoSpec::Suite)) and reports two things:
//!
//! 1. **The paper's 40-sample protocol** — the Table 2 measurement
//!    (ILM stretch, PC length, length stretch, redundancy) across all
//!    four failure classes, computed through the bounded store instead
//!    of an all-resident one;
//! 2. **A full sweep the paper could not afford in 2001** — with
//!    `--full-sweep`, every source in the map is visited shard by shard
//!    (perfect LRU locality), a few sampled destinations per source are
//!    disturbed by a mid-path link failure and restored, and one JSONL
//!    window line per source block reports restore-latency quantiles
//!    plus the store's residency/traffic counters.
//!
//! Coverage is bounded honestly: the sweep touches **every source** but
//! samples `dests_per_source` destinations per source rather than all
//! `n − 1`; the JSONL lines carry the exact query counts.
//!
//! The run flies under the usual black box: a [`FlightRecorder`] ring is
//! installed for the duration, every restore leaves a record, and with
//! an [`IncidentSink`] the ring is frozen into an incident file on
//! completion — `rbpc-eval replay` then re-executes the recorded
//! restores against a freshly rebuilt map and hash-checks every plan.
//!
//! Timing discipline matches the rest of the workspace: all wall-clock
//! access goes through [`monotonic_ns`], windows are identified by
//! injected tick numbers, and everything is deterministic per seed.

use crate::incident::{write_incident, IncidentHeader};
use crate::loadtest::{run_id_for_seed, IncidentSink};
use crate::suite::{standard_suite, EvalScale};
use crate::table2::{table2_block, FailureClass, Table2Row};
use crate::{format_table, sample_pairs};
use rbpc_core::{
    dense_store_bytes, directed_pairs, BasePathOracle, Restorer, ShardedBasePaths,
    ShardedStoreStats,
};
use rbpc_graph::{splitmix64, CostModel, FailureSet, Graph, Metric, NodeId};
use rbpc_obs::{
    monotonic_ns, obs_count, obs_span, set_flight_recorder, FlightRecorder, HistogramSummary,
    WindowSnapshot, WindowedHistogram,
};
use std::io::{self, Write};
use std::sync::Arc;

/// Index of the Internet router map within [`standard_suite`] — the
/// `case` an incident header's [`TopoSpec::Suite`](crate::incident::TopoSpec::Suite) must carry for
/// `rbpc-eval replay` to rebuild the same map.
pub const INTERNET_CASE: usize = 2;

/// Upper bound on the flight-recorder ring installed for a paper-scale
/// run (records, not bytes). A full sweep can produce more restore
/// records than this; the ring keeps the newest ones, which is what a
/// black box is for.
const RECORDER_CAP: usize = 1 << 17;

/// Shape of a paper-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperScaleConfig {
    /// Suite scale: [`EvalScale::Paper`] is the real 40 377-node map,
    /// [`EvalScale::Quick`] the 1 500-node stand-in for CI smoke runs.
    pub scale: EvalScale,
    /// Seed for topology generation, cost padding, and sampling.
    pub seed: u64,
    /// Worker threads for shard builds and the Table 2 measurement.
    pub threads: usize,
    /// Residency budget in trees (`--max-resident-spts`).
    pub max_resident_spts: usize,
    /// Sources per shard (`--shard-size`).
    pub shard_size: usize,
    /// Sampled pairs for the paper protocol (paper: 40).
    pub samples: usize,
    /// Also run the all-sources sweep (`--full-sweep`).
    pub full_sweep: bool,
    /// Sampled destinations per source in the sweep
    /// (`--dests-per-source`).
    pub dests_per_source: usize,
    /// Number of JSONL windows the sweep's source space is split into.
    pub sweep_windows: u64,
}

impl PaperScaleConfig {
    /// The real thing: the paper's 40-sample protocol on the 40 377-node
    /// map, default store budget (512 trees ≈ 0.74 GB), sweep off.
    pub fn paper(seed: u64, threads: usize) -> PaperScaleConfig {
        PaperScaleConfig {
            scale: EvalScale::Paper,
            seed,
            threads,
            max_resident_spts: ShardedBasePaths::DEFAULT_MAX_RESIDENT_SPTS,
            shard_size: ShardedBasePaths::DEFAULT_SHARD_SIZE,
            samples: 40,
            full_sweep: false,
            dests_per_source: 2,
            sweep_windows: 32,
        }
    }

    /// CI smoke shape: the quick-scale 1 500-node map, a deliberately
    /// tiny budget (64 trees) so shard eviction is exercised, fewer
    /// samples and windows. Sub-second with `--full-sweep` off; a few
    /// seconds with it on.
    pub fn smoke(seed: u64, threads: usize) -> PaperScaleConfig {
        PaperScaleConfig {
            scale: EvalScale::Quick,
            seed,
            threads,
            max_resident_spts: 64,
            shard_size: 16,
            samples: 12,
            full_sweep: false,
            dests_per_source: 2,
            sweep_windows: 6,
        }
    }
}

/// One finished sweep window: a block of consecutive sources, each
/// disturbed and restored through the sharded store.
#[derive(Debug, Clone)]
pub struct SweepWindow {
    /// Run correlation id (same for every window of one run).
    pub run_id: String,
    /// 0-based window index (also the flight-recorder tick, offset past
    /// the four protocol ticks).
    pub window: u64,
    /// Sources this window visited.
    pub sources: usize,
    /// Restore queries issued (≤ `sources × dests_per_source`).
    pub queries: usize,
    /// Queries restored successfully.
    pub restored: u64,
    /// Queries that could not be restored (failure disconnected the
    /// pair).
    pub dropped: u64,
    /// Sampled destinations skipped because no base path existed.
    pub unreachable: u64,
    /// Restore-latency digest (nanoseconds).
    pub latency: HistogramSummary,
    /// Cumulative store residency/traffic counters at window close.
    pub store: ShardedStoreStats,
}

impl SweepWindow {
    /// This window as one compact JSON object (a JSONL line, no trailing
    /// newline) — parses back with [`rbpc_obs::json::parse`].
    pub fn to_json(&self) -> String {
        let l = &self.latency;
        let s = &self.store;
        format!(
            "{{\"run_id\":\"{}\",\"window\":{},\"sources\":{},\"queries\":{},\
             \"restored\":{},\"dropped\":{},\"unreachable\":{},\
             \"latency_ns\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{},\
             \"p99\":{},\"max\":{}}},\
             \"store\":{{\"resident_trees\":{},\"resident_bytes\":{},\
             \"hits\":{},\"misses\":{},\"evicted_trees\":{},\"shard_builds\":{},\
             \"resumed_repairs\":{}}}}}",
            self.run_id,
            self.window,
            self.sources,
            self.queries,
            self.restored,
            self.dropped,
            self.unreachable,
            l.count,
            l.mean,
            l.p50,
            l.p95,
            l.p99,
            l.max,
            s.resident_trees,
            s.resident_bytes,
            s.hits,
            s.misses,
            s.evicted_trees,
            s.shard_builds,
            s.resumed_repairs,
        )
    }
}

/// The sweep half of a paper-scale report.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Per-window statistics, in window order.
    pub windows: Vec<SweepWindow>,
    /// Whole-sweep restore-latency digest.
    pub latency: HistogramSummary,
    /// Total sources visited (every node of the map).
    pub sources: usize,
    /// Total restore queries issued.
    pub queries: usize,
    /// Total restored.
    pub restored: u64,
    /// Total dropped.
    pub dropped: u64,
}

/// Everything a paper-scale run measured.
#[derive(Debug, Clone)]
pub struct PaperScaleReport {
    /// Run correlation id.
    pub run_id: String,
    /// Topology name from the suite ("Internet").
    pub topo_name: String,
    /// Node count of the map.
    pub nodes: usize,
    /// Link count of the map.
    pub links: usize,
    /// Directed pairs an all-pairs base set covers.
    pub pairs_total: u128,
    /// Bytes a dense per-source store would need.
    pub dense_bytes: u128,
    /// The stated residency budget, in trees.
    pub budget_trees: usize,
    /// The stated residency budget, in bytes.
    pub budget_bytes: usize,
    /// Sources per shard.
    pub shard_size: usize,
    /// The paper's Table 2 rows, one per failure class, measured through
    /// the sharded store.
    pub protocol: Vec<Table2Row>,
    /// The full sweep, when `--full-sweep` was given.
    pub sweep: Option<SweepSummary>,
    /// Final store residency/traffic counters.
    pub store: ShardedStoreStats,
}

impl PaperScaleReport {
    /// Human-readable run summary: the memory math, per-class protocol
    /// event counts, the sweep table (when present), and the store's
    /// final counters.
    pub fn render(&self) -> String {
        let mut out = format!(
            "run_id {}\n\
             map: {} — {} nodes, {} links, {} directed pairs\n\
             dense store would need {:.1} GiB; budget {} trees \
             ({:.1} MiB) in shards of {}\n",
            self.run_id,
            self.topo_name,
            self.nodes,
            self.links,
            self.pairs_total,
            self.dense_bytes as f64 / (1u64 << 30) as f64,
            self.budget_trees,
            self.budget_bytes as f64 / (1u64 << 20) as f64,
            self.shard_size,
        );
        if let Some(sweep) = &self.sweep {
            let rows: Vec<Vec<String>> = sweep
                .windows
                .iter()
                .map(|w| {
                    vec![
                        w.window.to_string(),
                        w.sources.to_string(),
                        w.restored.to_string(),
                        w.dropped.to_string(),
                        w.latency.p50.to_string(),
                        w.latency.p99.to_string(),
                        (w.store.resident_bytes >> 20).to_string(),
                        w.store.evicted_trees.to_string(),
                    ]
                })
                .collect();
            out.push_str(&format_table(
                &[
                    "window", "sources", "restored", "dropped", "p50_ns", "p99_ns", "res_MiB",
                    "evicted",
                ],
                &rows,
            ));
            out.push_str(&format!(
                "sweep: {} sources, {} queries, {} restored, {} dropped, \
                 p99 {} ns\n",
                sweep.sources, sweep.queries, sweep.restored, sweep.dropped, sweep.latency.p99,
            ));
        }
        let s = &self.store;
        out.push_str(&format!(
            "store: {} trees resident ({:.1} MiB), {} hits / {} misses, \
             {} evicted, {} shard builds, {} probes, {} resumed repairs\n",
            s.resident_trees,
            s.resident_bytes as f64 / (1u64 << 20) as f64,
            s.hits,
            s.misses,
            s.evicted_trees,
            s.shard_builds,
            s.probes,
            s.resumed_repairs,
        ));
        out
    }
}

/// Restores the previously-installed flight recorder on drop, so every
/// exit path (including `?` on I/O errors) puts the global back.
struct RecorderGuard(Option<Arc<FlightRecorder>>);

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        set_flight_recorder(self.0.take());
    }
}

/// The Internet router map case of the suite at the given scale:
/// `(name, graph, metric)`. Paper scale generates the real
/// 40 377-node / 101 659-link map; quick scale its 1 500-node stand-in.
pub fn internet_case(scale: EvalScale, seed: u64) -> (String, Graph, Metric) {
    let case = standard_suite(scale, seed)
        .into_iter()
        .nth(INTERNET_CASE)
        .expect("invariant: the standard suite always has an Internet case");
    (case.name, case.graph, case.metric)
}

/// Deterministic destination sample for a sweep source: the `j`-th
/// destination of `s` under `seed`, never equal to `s`.
fn sweep_dest(n: usize, seed: u64, s: usize, j: usize) -> NodeId {
    let h = splitmix64(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 40);
    let d = (h % (n as u64 - 1)) as usize;
    NodeId::new(if d >= s { d + 1 } else { d })
}

/// Drives a paper-scale run: builds the Internet map, provisions the
/// sharded store under the configured budget, runs the paper's Table 2
/// protocol through it, and — with `full_sweep` — visits every source
/// shard by shard, restoring sampled mid-path link failures and writing
/// one JSONL window line to `out` as each source block completes.
///
/// A [`FlightRecorder`] ring flies for the duration (protocol classes
/// use ticks 0–3, sweep windows tick on from 4); when `sink` is given
/// the ring is frozen into an incident file at the end of the run, ready
/// for `rbpc-eval replay`.
///
/// # Errors
///
/// Only I/O errors from `out` or the incident file — unrestorable
/// queries are data (the `dropped` count), not failures.
pub fn run_paper_scale<W: Write>(
    cfg: &PaperScaleConfig,
    out: &mut W,
    sink: Option<&IncidentSink>,
) -> io::Result<PaperScaleReport> {
    let run_id = run_id_for_seed(cfg.seed);
    let (topo_name, graph, metric) = internet_case(cfg.scale, cfg.seed);
    let n = graph.node_count();
    let links = graph.edge_count();

    let recorder = Arc::new(FlightRecorder::new(RECORDER_CAP));
    let _guard = RecorderGuard(set_flight_recorder(Some(Arc::clone(&recorder))));

    let store = {
        let _span = obs_span!("eval.paperscale.provision.ns");
        ShardedBasePaths::with_budget(
            graph.clone(),
            CostModel::new(metric, cfg.seed),
            cfg.max_resident_spts,
            cfg.shard_size,
            cfg.threads.max(1),
        )
    };

    // Phase 1 — the paper's sampled protocol (Table 2, all four failure
    // classes) through the sharded store. One recorder tick per class.
    let pairs = sample_pairs(&graph, cfg.samples, cfg.seed);
    let mut protocol = Vec::new();
    for (i, class) in FailureClass::all().into_iter().enumerate() {
        recorder.set_tick(i as u64);
        let _span = obs_span!("eval.paperscale.protocol.ns");
        obs_count!("paperscale.protocol_classes");
        protocol.push(table2_block(
            &topo_name,
            &store,
            class,
            &pairs,
            cfg.threads.max(1),
        ));
    }

    // Phase 2 — the full sweep: every source, in shard order (so the LRU
    // sees perfect locality), a few sampled destinations each, one
    // mid-path link failure restored per destination.
    let sweep = if cfg.full_sweep {
        let windows = (cfg.sweep_windows.max(1) as usize).min(n);
        let per_window = n.div_ceil(windows);
        let latency = WindowedHistogram::new(windows);
        let restorer = Restorer::new(&store);
        let mut rows = Vec::with_capacity(windows);
        let (mut queries, mut restored, mut dropped) = (0usize, 0u64, 0u64);
        for w in 0..windows {
            recorder.set_tick(FailureClass::all().len() as u64 + w as u64);
            let _span = obs_span!("eval.paperscale.sweep_window.ns");
            let first = w * per_window;
            let last = ((w + 1) * per_window).min(n);
            let mut w_restored = 0u64;
            let mut w_dropped = 0u64;
            let mut w_unreachable = 0u64;
            let mut w_queries = 0usize;
            for s in first..last {
                let s = NodeId::new(s);
                for j in 0..cfg.dests_per_source.max(1) {
                    let d = sweep_dest(n, cfg.seed, s.index(), j);
                    let Some(path) = store.base_path(s, d) else {
                        w_unreachable += 1;
                        continue;
                    };
                    let failures = FailureSet::of_edge(path.edges()[path.hop_count() / 2]);
                    w_queries += 1;
                    obs_count!("paperscale.sweep_queries");
                    let started = monotonic_ns();
                    let result = restorer.restore(s, d, &failures);
                    let elapsed = monotonic_ns().saturating_sub(started);
                    match result {
                        Ok(_) => {
                            latency.record(w as u64, elapsed);
                            w_restored += 1;
                        }
                        Err(_) => w_dropped += 1,
                    }
                }
            }
            let row = SweepWindow {
                run_id: run_id.clone(),
                window: w as u64,
                sources: last - first,
                queries: w_queries,
                restored: w_restored,
                dropped: w_dropped,
                unreachable: w_unreachable,
                latency: latency
                    .window(w as u64)
                    .unwrap_or_else(|| WindowSnapshot::empty(w as u64))
                    .summary(),
                store: store.stats(),
            };
            writeln!(out, "{}", row.to_json())?;
            out.flush()?;
            queries += w_queries;
            restored += w_restored;
            dropped += w_dropped;
            rows.push(row);
        }
        Some(SweepSummary {
            latency: latency.merged().summary(),
            windows: rows,
            sources: n,
            queries,
            restored,
            dropped,
        })
    } else {
        None
    };

    // Freeze the black box into a replayable incident at end of run.
    if let Some(sink) = sink {
        let records = recorder.freeze();
        let header = IncidentHeader {
            run_id: run_id.clone(),
            seed: cfg.seed,
            metric,
            topo: sink.topo.clone(),
            breach_tick: recorder.current_tick(),
            breach_reason: "paper-scale run complete (manual freeze)".to_string(),
            records: records.len(),
        };
        let file = std::fs::File::create(&sink.path)?;
        write_incident(&mut io::BufWriter::new(file), &header, &records)?;
    }

    Ok(PaperScaleReport {
        run_id,
        topo_name,
        nodes: n,
        links,
        pairs_total: directed_pairs(n),
        dense_bytes: dense_store_bytes(n),
        budget_trees: cfg.max_resident_spts,
        budget_bytes: cfg.max_resident_spts * n * rbpc_core::TREE_BYTES_PER_NODE,
        shard_size: cfg.shard_size,
        protocol,
        sweep,
        store: store.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::TopoSpec;

    fn tiny() -> PaperScaleConfig {
        PaperScaleConfig {
            full_sweep: true,
            sweep_windows: 3,
            ..PaperScaleConfig::smoke(5, 2)
        }
    }

    #[test]
    fn smoke_run_covers_protocol_and_sweep() {
        let cfg = tiny();
        let mut buf = Vec::new();
        let report = run_paper_scale(&cfg, &mut buf, None).expect("runs");
        assert_eq!(report.protocol.len(), 4, "one row per failure class");
        assert!(report.protocol.iter().all(|r| r.events > 0));
        let sweep = report.sweep.expect("sweep requested");
        assert_eq!(sweep.windows.len(), 3);
        assert_eq!(sweep.sources, report.nodes);
        assert!(sweep.restored > 0);
        // Every source was visited under the tiny budget: evictions ran.
        assert!(report.store.evicted_trees > 0);
        assert!(report.store.resident_trees <= cfg.max_resident_spts);
        // One JSONL line per window, each parseable, each with store stats.
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = rbpc_obs::json::parse(line).expect("window line parses");
            assert_eq!(
                v.get("run_id").and_then(|x| x.as_str()),
                Some(report.run_id.as_str())
            );
            assert!(v.get("store").and_then(|s| s.get("misses")).is_some());
            assert!(v
                .get("store")
                .and_then(|s| s.get("resumed_repairs"))
                .is_some());
        }
    }

    #[test]
    fn report_renders_memory_math() {
        let cfg = PaperScaleConfig::smoke(5, 2);
        let mut buf = Vec::new();
        let report = run_paper_scale(&cfg, &mut buf, None).expect("runs");
        assert!(report.sweep.is_none(), "sweep is opt-in");
        assert!(buf.is_empty(), "no sweep, no JSONL");
        let text = report.render();
        assert!(text.contains("directed pairs"));
        assert!(text.contains("budget 64 trees"));
        assert!(text.starts_with(&format!("run_id {}", report.run_id)));
    }

    #[test]
    fn sweep_dest_never_self_and_is_deterministic() {
        for s in 0..50usize {
            for j in 0..4usize {
                let d = sweep_dest(1000, 9, s, j);
                assert_ne!(d.index(), s);
                assert!(d.index() < 1000);
                assert_eq!(d, sweep_dest(1000, 9, s, j));
            }
        }
    }

    #[test]
    fn incident_freeze_is_replayable() {
        let cfg = PaperScaleConfig {
            samples: 4,
            ..PaperScaleConfig::smoke(5, 2)
        };
        let path = std::env::temp_dir().join(format!(
            "rbpc-paperscale-incident-{}.jsonl",
            std::process::id()
        ));
        let sink = IncidentSink {
            topo: TopoSpec::Suite {
                scale: cfg.scale,
                seed: cfg.seed,
                case: INTERNET_CASE,
            },
            path: path.clone(),
        };
        let mut buf = Vec::new();
        let report = run_paper_scale(&cfg, &mut buf, Some(&sink)).expect("runs");
        let text = std::fs::read_to_string(&path).expect("incident written");
        let (header, records) = crate::parse_incident(&text).expect("incident parses");
        assert_eq!(header.run_id, report.run_id);
        assert_eq!(header.records, records.len());
        assert_eq!(
            header.topo,
            TopoSpec::Suite {
                scale: cfg.scale,
                seed: cfg.seed,
                case: INTERNET_CASE,
            }
        );
        // Record contents are not replayed here: the recorder is
        // process-global, so parallel tests may interleave their own
        // records — the single-process check.sh replay step owns
        // end-to-end fidelity.
        let _ = std::fs::remove_file(&path);
    }
}
