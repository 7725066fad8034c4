//! Figure 10: overhead of local RBPC relative to source-routed RBPC.
//!
//! For sampled (pair, failed-link) events on the weighted ISP, compare the
//! end-to-end route produced by *edge-bypass* and *end-route* local RBPC
//! against the min-cost restoration path (what source RBPC achieves), both
//! by cost and by hop count. The paper's four histograms show that the
//! vast majority of local restorations are (nearly) as good as optimal.

use rbpc_core::{edge_bypass, end_route, BasePathOracle, Restorer};
use rbpc_graph::{par, FailureSet, NodeId};

/// A histogram over stretch ratios with the paper's binning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StretchHistogram {
    /// Ratio < 1 (the min-cost path had more hops than the local route —
    /// possible for hop-count stretch only).
    pub below_one: usize,
    /// Ratio exactly 1 (local restoration is optimal).
    pub exactly_one: usize,
    /// Ratio in (1, 1.25].
    pub upto_1_25: usize,
    /// Ratio in (1.25, 1.5].
    pub upto_1_5: usize,
    /// Ratio in (1.5, 2].
    pub upto_2: usize,
    /// Ratio above 2.
    pub above_2: usize,
}

impl StretchHistogram {
    /// Adds one observation.
    pub fn add(&mut self, ratio: f64) {
        if ratio < 1.0 - 1e-12 {
            self.below_one += 1;
        } else if ratio <= 1.0 + 1e-12 {
            self.exactly_one += 1;
        } else if ratio <= 1.25 {
            self.upto_1_25 += 1;
        } else if ratio <= 1.5 {
            self.upto_1_5 += 1;
        } else if ratio <= 2.0 {
            self.upto_2 += 1;
        } else {
            self.above_2 += 1;
        }
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.below_one
            + self.exactly_one
            + self.upto_1_25
            + self.upto_1_5
            + self.upto_2
            + self.above_2
    }

    /// Fraction of observations with ratio ≤ 1 (locally optimal or better).
    pub fn optimal_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.below_one + self.exactly_one) as f64 / t as f64
        }
    }

    fn merge(&mut self, o: &StretchHistogram) {
        self.below_one += o.below_one;
        self.exactly_one += o.exactly_one;
        self.upto_1_25 += o.upto_1_25;
        self.upto_1_5 += o.upto_1_5;
        self.upto_2 += o.upto_2;
        self.above_2 += o.above_2;
    }

    /// The paper's bin labels, paired with this histogram's fractions.
    pub fn bins(&self) -> Vec<(&'static str, f64)> {
        let t = self.total().max(1) as f64;
        vec![
            ("<1", self.below_one as f64 / t),
            ("=1", self.exactly_one as f64 / t),
            ("(1,1.25]", self.upto_1_25 as f64 / t),
            ("(1.25,1.5]", self.upto_1_5 as f64 / t),
            ("(1.5,2]", self.upto_2 as f64 / t),
            (">2", self.above_2 as f64 / t),
        ]
    }
}

/// The four histograms of Figure 10.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Figure10 {
    /// Cost stretch of edge-bypass local RBPC.
    pub cost_edge_bypass: StretchHistogram,
    /// Cost stretch of end-route local RBPC.
    pub cost_end_route: StretchHistogram,
    /// Hop-count stretch of edge-bypass local RBPC.
    pub hops_edge_bypass: StretchHistogram,
    /// Hop-count stretch of end-route local RBPC.
    pub hops_end_route: StretchHistogram,
    /// Restoration events measured.
    pub events: usize,
}

impl Figure10 {
    fn merge(&mut self, o: &Figure10) {
        self.cost_edge_bypass.merge(&o.cost_edge_bypass);
        self.cost_end_route.merge(&o.cost_end_route);
        self.hops_edge_bypass.merge(&o.hops_edge_bypass);
        self.hops_end_route.merge(&o.hops_end_route);
        self.events += o.events;
    }
}

/// Computes Figure 10 over the given sampled pairs (each link of each base
/// path fails in turn), parallelized over pairs.
pub fn figure10<O: BasePathOracle + Sync>(
    oracle: &O,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Figure10 {
    let mut total = Figure10::default();
    for part in par::map_chunks(pairs, threads, |chunk| run_pairs(oracle, chunk)) {
        total.merge(&part);
    }
    total
}

fn run_pairs<O: BasePathOracle>(oracle: &O, pairs: &[(NodeId, NodeId)]) -> Figure10 {
    let graph = oracle.graph();
    let model = oracle.cost_model();
    let restorer = Restorer::new(oracle);
    let mut fig = Figure10::default();
    for &(s, t) in pairs {
        let Some(base) = oracle.base_path(s, t) else {
            continue;
        };
        for &failed in base.edges() {
            let failures = FailureSet::of_edge(failed);
            let Ok(optimal) = restorer.restore(s, t, &failures) else {
                continue;
            };
            let opt_cost = optimal.backup_cost.base.max(1);
            let opt_hops = u64::from(optimal.backup_cost.hops).max(1);
            let mut measured = false;
            if let Ok(lr) = edge_bypass(oracle, &base, failed, &failures) {
                let c = lr.end_to_end.cost(graph, model);
                fig.cost_edge_bypass.add(c.base as f64 / opt_cost as f64);
                fig.hops_edge_bypass
                    .add(f64::from(c.hops) / opt_hops as f64);
                measured = true;
            }
            if let Ok(lr) = end_route(oracle, &base, failed, &failures) {
                let c = lr.end_to_end.cost(graph, model);
                fig.cost_end_route.add(c.base as f64 / opt_cost as f64);
                fig.hops_end_route.add(f64::from(c.hops) / opt_hops as f64);
                measured = true;
            }
            if measured {
                fig.events += 1;
            }
        }
    }
    fig
}

/// Renders the four histograms as aligned text bars.
pub fn render(fig: &Figure10) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let sections: [(&str, &StretchHistogram); 4] = [
        ("Cost stretch, edge-bypass", &fig.cost_edge_bypass),
        ("Cost stretch, end-route", &fig.cost_end_route),
        ("Hopcount stretch, edge-bypass", &fig.hops_edge_bypass),
        ("Hopcount stretch, end-route", &fig.hops_end_route),
    ];
    for (title, h) in sections {
        let _ = writeln!(out, "{title} ({} events):", h.total());
        for (label, frac) in h.bins() {
            let bar = "#".repeat((frac * 50.0).round() as usize);
            let _ = writeln!(out, "  {label:>10} {:6.2}% {bar}", 100.0 * frac);
        }
        out.push('\n');
    }
    out
}

/// Renders the four histograms as CSV (one row per histogram × bin).
pub fn to_csv(fig: &Figure10) -> String {
    let mut csv = crate::Csv::new();
    csv.row(["histogram", "bin", "fraction"]);
    let sections: [(&str, &StretchHistogram); 4] = [
        ("cost_edge_bypass", &fig.cost_edge_bypass),
        ("cost_end_route", &fig.cost_end_route),
        ("hops_edge_bypass", &fig.hops_edge_bypass),
        ("hops_end_route", &fig.hops_end_route),
    ];
    for (name, h) in sections {
        for (label, frac) in h.bins() {
            csv.row([name.to_string(), label.to_string(), format!("{frac:.4}")]);
        }
    }
    csv.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_pairs;
    use rbpc_core::DenseBasePaths;
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::{gnm_connected, isp_topology, IspParams};

    #[test]
    fn histogram_binning() {
        let mut h = StretchHistogram::default();
        for r in [0.5, 1.0, 1.0, 1.1, 1.3, 1.7, 5.0] {
            h.add(r);
        }
        assert_eq!(h.below_one, 1);
        assert_eq!(h.exactly_one, 2);
        assert_eq!(h.upto_1_25, 1);
        assert_eq!(h.upto_1_5, 1);
        assert_eq!(h.upto_2, 1);
        assert_eq!(h.above_2, 1);
        assert_eq!(h.total(), 7);
        assert!((h.optimal_fraction() - 3.0 / 7.0).abs() < 1e-12);
        let bins = h.bins();
        assert_eq!(bins.len(), 6);
        let sum: f64 = bins.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn local_stretch_is_at_least_one_by_cost() {
        let g = gnm_connected(30, 70, 8, 6);
        let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 6));
        let pairs = sample_pairs(oracle.graph(), 15, 2);
        let fig = figure10(&oracle, &pairs, 2);
        assert!(fig.events > 0);
        // Cost of a local restoration can never beat the min-cost path.
        assert_eq!(fig.cost_edge_bypass.below_one, 0);
        assert_eq!(fig.cost_end_route.below_one, 0);
    }

    #[test]
    fn isp_local_restorations_are_mostly_optimal() {
        let isp = isp_topology(IspParams::default(), 5).graph;
        let oracle = DenseBasePaths::build(isp, CostModel::new(Metric::Weighted, 5));
        let pairs = sample_pairs(oracle.graph(), 30, 3);
        let fig = figure10(&oracle, &pairs, 4);
        // Paper's headline: the vast majority of local restorations cost
        // about as much as the optimal restoration.
        let h = &fig.cost_end_route;
        let near_optimal = h.optimal_fraction() + h.bins()[2].1; // ratio ≤ 1.25
        assert!(
            near_optimal > 0.6,
            "end-route near-optimal fraction = {near_optimal}"
        );
        assert!(h.optimal_fraction() > 0.25);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let g = gnm_connected(25, 55, 6, 9);
        let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 9));
        let pairs = sample_pairs(oracle.graph(), 12, 4);
        assert_eq!(figure10(&oracle, &pairs, 1), figure10(&oracle, &pairs, 3));
    }

    #[test]
    fn csv_has_24_bins() {
        let fig = Figure10::default();
        let csv = to_csv(&fig);
        assert_eq!(csv.lines().count(), 1 + 24);
    }

    #[test]
    fn renders_bars() {
        let g = gnm_connected(20, 45, 5, 1);
        let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 1));
        let pairs = sample_pairs(oracle.graph(), 8, 1);
        let fig = figure10(&oracle, &pairs, 2);
        let out = render(&fig);
        assert!(out.contains("edge-bypass"));
        assert!(out.contains("end-route"));
    }
}
