//! Result records: the metric names and units, the run stamp, the plan
//! digest, and the statistics the metrics are computed with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("restore_p50_us", "us"),
    ("restore_p99_us", "us"),
    ("restores_per_s", "1/s"),
    ("event_p50_ms", "ms"),
    ("event_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("topo.generate_ms", "ms"),
    ("core.basepaths.provision_ms", "ms"),
    ("core.basepaths.lookup.calls", "count"),
    ("core.basepaths.lookup.mean_ns", "ns"),
    ("core.basepaths.lookup.share", "ratio"),
    ("core.store.hits", "count"),
    ("core.store.misses", "count"),
    ("core.store.miss_ratio", "ratio"),
    ("core.store.shard_builds", "count"),
    ("core.store.evicted_trees", "count"),
    ("core.store.fetch.mean_ns", "ns"),
    ("core.store.fetch.share", "ratio"),
    ("core.store.prefetch_ms", "ms"),
    ("graph.csr.trees_built", "count"),
    ("graph.csr.heap_pops", "count"),
    ("core.restore.discover.share", "ratio"),
    ("core.restore.path_under.calls", "count"),
    ("core.restore.path_under.mean_ns", "ns"),
    ("core.restore.path_under.share", "ratio"),
    ("graph.spt.clone.mean_ns", "ns"),
    ("graph.spt.clone.share", "ratio"),
    ("graph.dynamic.repair.mean_ns", "ns"),
    ("graph.dynamic.repair.share", "ratio"),
    ("graph.spt.path_to.mean_ns", "ns"),
    ("graph.spt.path_to.share", "ratio"),
    ("graph.dynamic.nodes_touched", "count"),
    ("graph.dynamic.repairs_per_source_tree", "ratio"),
    ("bench.drilldown_coverage", "ratio"),
    ("core.decompose.mean_ns", "ns"),
    ("core.decompose.share", "ratio"),
    ("core.decompose.segments_mean", "count"),
    ("core.decompose.raw_edges", "count"),
    ("core.decompose.store_misses", "count"),
    ("mpls.fec_apply.mean_ns", "ns"),
    ("mpls.forward.mean_ns", "ns"),
    ("mpls.revert.mean_ns", "ns"),
    ("mpls.fec_writes", "count"),
    ("mpls.messages", "count"),
    ("mpls.on_demand_lsps", "count"),
    ("mpls.provision_ms", "ms"),
    ("core.plan.pairs_scanned", "count"),
    ("core.plan.affected_routes", "count"),
    ("core.plan.par_speedup", "ratio"),
    ("bench.coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// How far `bench.coverage` may fall below 1 before the layer breakdown
/// no longer accounts for the traced restore time.
pub const COVERAGE_BOUND: f64 = 0.15;

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The record printed as the last line of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every check passed and every pass reproduced the digest.
    pub correct: bool,
    /// Restorations attempted over all passes, with the routes of the
    /// sampled failover plans on `isp_events`.
    pub attempted: u64,
    /// Failed checks plus unexpected errors.
    pub failed: u64,
    /// Every metric of the run's kind, by name.
    pub metrics: Metrics,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, and each metric of
    /// `names` as `{"value": v, "unit": u}`. A metric the workload did not
    /// produce prints as 0.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// What produced a result: printed before the result line so that every
/// recorded number can be traced to its host, build and inputs.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker threads used for provisioning and parallel plans.
    pub threads: usize,
    /// Git revision of the checkout, or `unknown`.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Whether the `obs` instrumentation is compiled in.
    pub obs: bool,
    /// FNV digest over every plan of one pass, in order.
    pub plan_digest: u64,
    /// Whole passes measured.
    pub passes: u64,
    /// `failed / attempted`.
    pub failed_frac: f64,
}

impl Stamp {
    /// One JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\": \"stamp\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
             \"nproc\": {}, \"threads\": {}, \"git_rev\": \"{}\", \"profile\": \"{}\", \
             \"obs\": {}, \"plan_digest\": \"{:016x}\", \"passes\": {}, \"failed_frac\": {:?}}}",
            self.workload,
            self.seed,
            self.trace,
            self.nproc,
            self.threads,
            self.git_rev,
            self.profile,
            self.obs,
            self.plan_digest,
            self.passes,
            self.failed_frac
        )
    }
}

/// FNV-1a over 64-bit words — the same mix `Restoration::plan_hash` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the nearest enclosing checkout, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(str::trim))
                .unwrap_or("unknown")
                .to_string();
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn result_line_prints_every_named_metric() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Metrics::from([("setup_s", 0.25)]),
        };
        let line = report.to_json(&END_TO_END);
        let v = rbpc_obs::json::parse(&line).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.25)
        );
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(unit)
            );
        }
    }
}
