//! Load-test driver: flow queries under failure storms, reported live.
//!
//! The paper's pitch is restoration *speed*; the tables measure quality
//! (stretch, stack depth) but nothing in the harness answered "how fast
//! does the engine restore under sustained churn?". This module drives a
//! paced stream of restore queries against a [`Restorer`] while a
//! deterministic [failure storm](rbpc_sim::storm_schedule) knocks links
//! out, and reports **per window**: restore latency quantiles
//! (p50/p95/p99/max), restored/dropped counts, and the
//! concatenation-depth distribution the Theorem 1/2 bounds govern.
//!
//! Each window is emitted as one JSON object per line (JSONL) while the
//! run is live, and the final [`LoadtestReport`] merges every window into
//! a whole-run summary. Every line carries the run's seed-derived
//! `run_id`, which joins window lines, `/healthz` output, span profiles,
//! and incident files from the same run.
//!
//! The run is flown under a black box: a [`FlightRecorder`] ring is
//! installed for the duration, so every restore, outage, and storm
//! window leaves a compact record. An [`SloWatchdog`] checks each
//! finished window against the configured [`SloPolicy`]; on the first
//! breach the ring is frozen into a self-contained incident file (see
//! [`crate::incident`]) that `rbpc-eval replay` can re-execute
//! deterministically, and the process health cell flips to `degraded`.
//!
//! Timing discipline: all wall-clock access goes through `rbpc-obs`
//! ([`Ticker`] for pacing, [`monotonic_ns`] for latency deltas), so this
//! crate stays clean under the workspace's wall-clock lint — windows are
//! identified by injected tick numbers and the whole run is replayable
//! against simulated time.

use crate::incident::{write_incident, IncidentHeader, TopoSpec};
use crate::{eval_store, format_table, sample_pairs};
use rbpc_core::{BasePathOracle, Restorer};
use rbpc_graph::{splitmix64, CostModel, DetRng, EdgeId, Graph, Metric, NodeId};
use rbpc_obs::{
    monotonic_ns, obs_count, obs_span, set_flight_recorder, set_health, FlightRecorder,
    HealthReport, HistogramSummary, SloBreach, SloPolicy, SloWatchdog, Ticker, WindowSnapshot,
    WindowedCounter, WindowedHistogram,
};
use rbpc_sim::{storm_schedule, StormParams};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Salt folded into the seed before hashing it into a run id, so the run
/// id never collides with other `splitmix64(seed)` uses of the same
/// seed.
const RUN_ID_SALT: u64 = 0xF116_87EC_0F11_5EED;

/// The seed-derived run correlation id: 16 hex digits, identical for
/// identical configs, joining JSONL window lines, `/healthz` output, and
/// incident files from one run.
pub fn run_id_for_seed(seed: u64) -> String {
    format!("{:016x}", splitmix64(seed ^ RUN_ID_SALT))
}

/// Shape of a load-test run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadtestConfig {
    /// Number of windows to drive (one JSONL line each).
    pub windows: u64,
    /// Window length in milliseconds (the live-reporting granularity).
    pub window_ms: u64,
    /// Restore queries issued per window.
    pub queries_per_window: usize,
    /// Flow pairs sampled up front (queries cycle through them).
    pub pairs: usize,
    /// The failure storm layered over the windows.
    pub storm: StormParams,
    /// SLO budgets the watchdog enforces per window (default: disabled).
    pub slo: SloPolicy,
    /// Seed for pair sampling and query order.
    pub seed: u64,
    /// Provisioning threads for the base-path oracle.
    pub threads: usize,
}

impl LoadtestConfig {
    /// The standard run: 24 windows of 100ms — enough for four full
    /// calm/burst storm cycles at the default [`StormParams`].
    pub fn standard() -> LoadtestConfig {
        LoadtestConfig {
            windows: 24,
            window_ms: 100,
            queries_per_window: 200,
            pairs: 64,
            storm: StormParams::default(),
            slo: SloPolicy::default(),
            seed: 1,
            threads: 1,
        }
    }

    /// A sub-second smoke run for CI: few short windows, few queries.
    pub fn smoke() -> LoadtestConfig {
        LoadtestConfig {
            windows: 6,
            window_ms: 5,
            queries_per_window: 25,
            pairs: 16,
            storm: StormParams::default(),
            slo: SloPolicy::default(),
            seed: 1,
            threads: 1,
        }
    }
}

/// One finished window of the load test.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Run correlation id (same for every window of one run).
    pub run_id: String,
    /// 0-based window index (the tick the samples were recorded under).
    pub window: u64,
    /// Links the storm failed during this window.
    pub failed_links: usize,
    /// Queries issued.
    pub queries: usize,
    /// Queries restored successfully.
    pub restored: u64,
    /// Queries that could not be restored (disconnected under failures).
    pub dropped: u64,
    /// Restore-latency digest (nanoseconds).
    pub latency: HistogramSummary,
    /// Concatenation-depth digest (segments per restoration).
    pub depth: HistogramSummary,
    /// Cumulative provisioning-frontier pushes at window close (the
    /// `core.provision.heap_pushes` obs counter; 0 with obs off): one per
    /// node the provisioning batches settled.
    pub heap_pushes: u64,
    /// Cumulative provisioning-frontier pops at window close (the
    /// `core.provision.heap_pops` obs counter): one per settled node, so
    /// it equals `heap_pushes`.
    pub heap_pops: u64,
    /// Cumulative pad-only record rewrites of the unit-weight sweep at
    /// window close (the `core.provision.decrease_keys` obs counter);
    /// weighted provisioning adds none.
    pub decrease_keys: u64,
}

impl WindowStats {
    /// This window as one compact JSON object (a JSONL line, no trailing
    /// newline) — parses back with [`rbpc_obs::json::parse`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"run_id\":\"{}\",\"window\":{},\"failed_links\":{},\"queries\":{},\
             \"restored\":{},\"dropped\":{},\"latency_ns\":{},\"depth\":{},\
             \"heap_pushes\":{},\"heap_pops\":{},\"decrease_keys\":{}}}",
            self.run_id,
            self.window,
            self.failed_links,
            self.queries,
            self.restored,
            self.dropped,
            summary_json(&self.latency),
            summary_json(&self.depth),
            self.heap_pushes,
            self.heap_pops,
            self.decrease_keys,
        )
    }
}

/// Current cumulative value of a provisioning obs counter (0 when the
/// core crate's obs feature is off and nothing ever increments it).
fn provision_counter(name: &str) -> u64 {
    rbpc_obs::Registry::global().counter(name).get()
}

/// A [`HistogramSummary`] as a JSON object.
fn summary_json(s: &HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
        s.count, s.mean, s.p50, s.p95, s.p99, s.max
    )
}

/// Where a frozen flight-recorder ring goes when the watchdog trips.
#[derive(Debug, Clone)]
pub struct IncidentSink {
    /// Topology recipe written into the incident header — must rebuild
    /// the graph the run was driven on, or replay will diverge.
    pub topo: TopoSpec,
    /// Path the incident JSONL file is written to.
    pub path: PathBuf,
}

/// The whole load-test run: every window plus merged digests.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Run correlation id.
    pub run_id: String,
    /// Per-window statistics, in window order.
    pub windows: Vec<WindowStats>,
    /// Whole-run restore-latency digest (all windows merged).
    pub latency: HistogramSummary,
    /// Whole-run concatenation-depth digest.
    pub depth: HistogramSummary,
    /// Total restored queries.
    pub restored: u64,
    /// Total dropped (unrestorable) queries.
    pub dropped: u64,
    /// The SLO breach the watchdog latched, if the run broke its budget.
    pub breach: Option<SloBreach>,
}

impl LoadtestReport {
    /// The final summary: a `run_id` line, an ASCII table with one row
    /// per window plus a merged `TOTAL` row, and — if the watchdog
    /// tripped — a trailing breach line.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .windows
            .iter()
            .map(|w| {
                vec![
                    w.window.to_string(),
                    w.failed_links.to_string(),
                    w.restored.to_string(),
                    w.dropped.to_string(),
                    w.latency.p50.to_string(),
                    w.latency.p95.to_string(),
                    w.latency.p99.to_string(),
                    w.latency.max.to_string(),
                    format!("{:.2}", w.depth.mean),
                    w.depth.max.to_string(),
                ]
            })
            .collect();
        rows.push(vec![
            "TOTAL".to_string(),
            "-".to_string(),
            self.restored.to_string(),
            self.dropped.to_string(),
            self.latency.p50.to_string(),
            self.latency.p95.to_string(),
            self.latency.p99.to_string(),
            self.latency.max.to_string(),
            format!("{:.2}", self.depth.mean),
            self.depth.max.to_string(),
        ]);
        let table = format_table(
            &[
                "window",
                "failed",
                "restored",
                "dropped",
                "p50_ns",
                "p95_ns",
                "p99_ns",
                "max_ns",
                "depth_mean",
                "depth_max",
            ],
            &rows,
        );
        let mut out = format!("run_id {}\n{table}", self.run_id);
        if let Some(b) = &self.breach {
            out.push_str(&format!("SLO BREACH window {}: {}\n", b.tick, b.reason));
        }
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

/// [`run_loadtest_watched`] without an incident sink: the flight
/// recorder still flies and the watchdog still latches breaches into the
/// report and health cell, but a frozen ring has nowhere to go.
pub fn run_loadtest<W: Write>(
    graph: &Graph,
    metric: Metric,
    cfg: &LoadtestConfig,
    out: &mut W,
) -> io::Result<LoadtestReport> {
    run_loadtest_watched(graph, metric, cfg, out, None)
}

/// Drives the load test: provisions an oracle over `graph`, samples flow
/// pairs, builds a deterministic failure storm from the edges those
/// flows actually use (so every window disturbs live traffic), then
/// issues `queries_per_window` restore queries per paced window. Each
/// finished window is written to `out` as one JSONL line before the next
/// window starts — tail the file for a live view.
///
/// For the duration of the run a [`FlightRecorder`] sized to hold every
/// record the run can produce is installed as the process black box
/// (the previous recorder is restored on exit). After each window the
/// [`SloWatchdog`] checks the configured budgets; on the first breach
/// the ring is frozen and — when `sink` is given — written as an
/// incident file for `rbpc-eval replay`, and the global health cell
/// flips to `degraded` (otherwise it tracks `ok` per window).
///
/// Latency is measured around [`Restorer::restore`] with
/// [`monotonic_ns`] deltas and recorded into [`WindowedHistogram`]s
/// under the window's tick; pacing uses [`Ticker::wait_for`]. Windows
/// that overrun their budget simply start the next one late (the tick
/// ring holds every window, so nothing is lost).
///
/// # Errors
///
/// Only I/O errors from writing `out` or the incident file — the query
/// stream itself treats unrestorable flows as data (the `dropped`
/// count), not failures.
pub fn run_loadtest_watched<W: Write>(
    graph: &Graph,
    metric: Metric,
    cfg: &LoadtestConfig,
    out: &mut W,
    sink: Option<&IncidentSink>,
) -> io::Result<LoadtestReport> {
    let run_id = run_id_for_seed(cfg.seed);
    let oracle = eval_store(
        graph.clone(),
        CostModel::new(metric, cfg.seed),
        cfg.threads.max(1),
    );
    let pairs = sample_pairs(graph, cfg.pairs.max(1), cfg.seed);
    // Candidate failure pool: the union of edges on the provisioned base
    // paths, so every storm window hits at least one live LSP.
    let mut candidates: Vec<EdgeId> = Vec::new();
    for &(s, t) in &pairs {
        if let Some(path) = oracle.base_path(s, t) {
            candidates.extend_from_slice(path.edges());
        }
    }
    candidates.sort_unstable();
    candidates.dedup();

    let cap = usize::try_from(cfg.windows).unwrap_or(usize::MAX).max(1);
    // Black box: one slot per possible record (a restore per query, plus
    // one storm record per window, plus slack) so a frozen incident holds
    // the whole run, not a truncated tail. Installed before the storm is
    // built so the schedule's own records are captured too.
    let recorder = Arc::new(FlightRecorder::new(
        cap.saturating_mul(cfg.queries_per_window + 1) + 16,
    ));
    let _guard = RecorderGuard(set_flight_recorder(Some(Arc::clone(&recorder))));
    let schedule = storm_schedule(&candidates, cfg.windows, &cfg.storm);

    let restorer = Restorer::new(&oracle);
    let latency = WindowedHistogram::new(cap);
    let depth = WindowedHistogram::new(cap);
    let restored = WindowedCounter::new(cap);
    let dropped = WindowedCounter::new(cap);
    let mut watchdog = SloWatchdog::new(cfg.slo);
    let mut rng = DetRng::seed_from_u64(cfg.seed ^ 0x10AD_7E57);

    let mut windows = Vec::with_capacity(cap);
    let ticker = Ticker::start(Duration::from_millis(cfg.window_ms.max(1)));
    for t in 0..cfg.windows {
        ticker.wait_for(t);
        let _window_span = obs_span!("eval.loadtest.window");
        recorder.set_tick(t);
        let failures = &schedule[usize::try_from(t).unwrap_or(0)];
        for _ in 0..cfg.queries_per_window {
            let (s, d): (NodeId, NodeId) = pairs[rng.gen_range(0..pairs.len())];
            obs_count!("loadtest.queries");
            let started = monotonic_ns();
            let result = restorer.restore(s, d, failures);
            let elapsed = monotonic_ns().saturating_sub(started);
            match result {
                Ok(r) => {
                    latency.record(t, elapsed);
                    depth.record(t, r.concatenation.len() as u64);
                    restored.add(t, 1);
                    obs_count!("loadtest.restored");
                }
                Err(_) => {
                    dropped.add(t, 1);
                    obs_count!("loadtest.dropped");
                }
            }
        }
        // Freeze the window immediately: with capacity == windows the
        // slot can't rotate out, but snapshotting here is what makes the
        // JSONL stream *live* rather than an end-of-run dump.
        let stats = WindowStats {
            run_id: run_id.clone(),
            window: t,
            failed_links: failures.failed_edge_count(),
            queries: cfg.queries_per_window,
            restored: restored.get(t).unwrap_or(0),
            dropped: dropped.get(t).unwrap_or(0),
            latency: latency
                .window(t)
                .unwrap_or_else(|| WindowSnapshot::empty(t))
                .summary(),
            depth: depth
                .window(t)
                .unwrap_or_else(|| WindowSnapshot::empty(t))
                .summary(),
            heap_pushes: provision_counter("core.provision.heap_pushes"),
            heap_pops: provision_counter("core.provision.heap_pops"),
            decrease_keys: provision_counter("core.provision.decrease_keys"),
        };
        writeln!(out, "{}", stats.to_json())?;
        out.flush()?;

        // The watchdog sees the window the moment it closes. The first
        // breach freezes the black box into an incident file and flips
        // the health cell; later windows keep the degraded verdict.
        let first_breach = watchdog
            .observe(t, &stats.latency, stats.restored, stats.dropped)
            .cloned();
        if let Some(breach) = first_breach {
            set_health(Some(HealthReport::degraded(&run_id, t, &breach.reason)));
            if let Some(sink) = sink {
                let records = recorder.freeze();
                let header = IncidentHeader {
                    run_id: run_id.clone(),
                    seed: cfg.seed,
                    metric,
                    topo: sink.topo.clone(),
                    breach_tick: breach.tick,
                    breach_reason: breach.reason.clone(),
                    records: records.len(),
                };
                let file = std::fs::File::create(&sink.path)?;
                write_incident(&mut io::BufWriter::new(file), &header, &records)?;
            }
        } else if watchdog.breach().is_none() {
            set_health(Some(HealthReport::ok(&run_id, t)));
        }
        windows.push(stats);
    }

    let total_restored = restored.totals().iter().map(|&(_, n)| n).sum();
    let total_dropped = dropped.totals().iter().map(|&(_, n)| n).sum();
    Ok(LoadtestReport {
        run_id,
        windows,
        latency: latency.merged().summary(),
        depth: depth.merged().summary(),
        restored: total_restored,
        dropped: total_dropped,
        breach: watchdog.breach().cloned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_topo::gnm_connected;

    fn tiny_cfg() -> LoadtestConfig {
        LoadtestConfig {
            windows: 3,
            window_ms: 1,
            queries_per_window: 10,
            pairs: 8,
            seed: 5,
            ..LoadtestConfig::smoke()
        }
    }

    #[test]
    fn smoke_run_emits_one_line_per_window() {
        let graph = gnm_connected(40, 120, 8, 7);
        let mut buf = Vec::new();
        let report = run_loadtest(&graph, Metric::Weighted, &tiny_cfg(), &mut buf).unwrap();
        assert_eq!(report.windows.len(), 3);
        assert_eq!(report.restored + report.dropped, 30);
        assert!(report.restored > 0, "a connected gnm graph must restore");
        assert!(report.breach.is_none(), "default policy cannot breach");
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn jsonl_lines_parse_and_match_report() {
        let graph = gnm_connected(40, 120, 8, 7);
        let mut buf = Vec::new();
        let report = run_loadtest(&graph, Metric::Weighted, &tiny_cfg(), &mut buf).unwrap();
        assert_eq!(report.run_id, run_id_for_seed(tiny_cfg().seed));
        let text = String::from_utf8(buf).unwrap();
        for (line, w) in text.lines().zip(&report.windows) {
            let v = rbpc_obs::json::parse(line).expect("window line is valid JSON");
            assert_eq!(
                v.get("run_id").and_then(|x| x.as_str()),
                Some(report.run_id.as_str()),
                "every window line carries the run id"
            );
            assert_eq!(
                v.get("window").and_then(|x| x.as_f64()),
                Some(w.window as f64)
            );
            assert_eq!(
                v.get("restored").and_then(|x| x.as_f64()),
                Some(w.restored as f64)
            );
            let lat = v.get("latency_ns").expect("latency object");
            assert_eq!(
                lat.get("p50").and_then(|x| x.as_f64()),
                Some(w.latency.p50 as f64)
            );
            // Real restores take time: the windows saw nonzero latency.
            if w.restored > 0 {
                assert!(w.latency.p50 > 0, "window {} p50", w.window);
            }
        }
        assert!(report.latency.max >= report.latency.p50);
    }

    #[test]
    fn depth_respects_theorem_bound() {
        // Calm windows fail exactly 1 link: Theorem 2 (weighted) bounds
        // every restoration to 2k + 1 = 3 segments.
        let graph = gnm_connected(60, 200, 10, 11);
        let cfg = LoadtestConfig {
            storm: rbpc_sim::StormParams {
                period: 0,
                calm_links: 1,
                ..rbpc_sim::StormParams::default()
            },
            ..tiny_cfg()
        };
        let mut buf = Vec::new();
        let report = run_loadtest(&graph, Metric::Weighted, &cfg, &mut buf).unwrap();
        assert!(report.depth.max <= 3, "depth {} > 2k+1", report.depth.max);
        assert!(report.depth.mean >= 1.0 || report.restored == 0);
    }

    #[test]
    fn render_has_total_row() {
        let graph = gnm_connected(40, 120, 8, 7);
        let mut buf = Vec::new();
        let report = run_loadtest(&graph, Metric::Weighted, &tiny_cfg(), &mut buf).unwrap();
        let table = report.render();
        assert!(table.contains("TOTAL"));
        assert!(table.contains("p99_ns"));
        assert!(table.starts_with(&format!("run_id {}\n", report.run_id)));
        // Run-id line + header + rule + one row per window + total.
        assert_eq!(table.lines().count(), 1 + 2 + 3 + 1);
    }

    #[test]
    fn breach_freezes_an_incident_file() {
        let graph = gnm_connected(40, 120, 8, 7);
        let cfg = LoadtestConfig {
            // A 0ns p99 budget: the first window with any successful
            // restore breaches deterministically.
            slo: SloPolicy {
                p99_budget_ns: Some(0),
                ..SloPolicy::default()
            },
            ..tiny_cfg()
        };
        let path = std::env::temp_dir().join(format!(
            "rbpc-loadtest-incident-{}.jsonl",
            std::process::id()
        ));
        let sink = IncidentSink {
            topo: TopoSpec::Gnm {
                nodes: 40,
                edges: 120,
                max_weight: 8,
                seed: 7,
            },
            path: path.clone(),
        };
        let mut buf = Vec::new();
        let report =
            run_loadtest_watched(&graph, Metric::Weighted, &cfg, &mut buf, Some(&sink)).unwrap();
        let rendered = report.render();
        let breach = report.breach.expect("0ns budget must breach");
        assert!(rendered.contains("SLO BREACH"), "{rendered}");
        // The incident file is a parseable header + records. (Record
        // contents are not asserted here: the recorder is process-global,
        // so parallel tests may interleave their own records — the
        // binary-level replay test owns end-to-end fidelity.)
        let text = std::fs::read_to_string(&path).expect("incident written");
        let (header, _records) = crate::incident::parse_incident(&text).expect("incident parses");
        assert_eq!(header.run_id, report.run_id);
        assert_eq!(header.breach_tick, breach.tick);
        assert_eq!(header.breach_reason, breach.reason);
        assert_eq!(header.seed, cfg.seed);
        let _ = std::fs::remove_file(&path);
    }
}
