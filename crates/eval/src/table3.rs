//! Table 3: the hop count of the min-cost bypass of each edge.
//!
//! For every link `(u, v)`, the bypass is the min-cost path from `u` to
//! `v` in `G − (u, v)`. The paper reports the distribution of bypass hop
//! counts per topology; the prevalence of 2–3-hop bypasses is what makes
//! edge-bypass local RBPC cheap.

use crate::format_table;
use rbpc_graph::{par, shortest_path, CostModel, FailureSet, Graph, Metric};
use std::collections::BTreeMap;

/// The bypass hop-count distribution of one network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BypassHistogram {
    /// Network name.
    pub network: String,
    /// hop count → number of edges whose min-cost bypass has that many
    /// hops.
    pub counts: BTreeMap<u32, usize>,
    /// Edges with no bypass (bridges).
    pub bridges: usize,
    /// Total edges examined.
    pub total: usize,
}

impl BypassHistogram {
    /// Fraction of edges with a bypass of exactly `hops` hops.
    pub fn fraction(&self, hops: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&hops).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// Fraction of edges with a bypass of at most `hops` hops.
    pub fn fraction_at_most(&self, hops: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts
                .iter()
                .filter(|&(&h, _)| h <= hops)
                .map(|(_, &c)| c)
                .sum::<usize>() as f64
                / self.total as f64
        }
    }
}

/// Computes the bypass histogram of a network, parallelized over edges.
pub fn table3(
    network: &str,
    graph: &Graph,
    metric: Metric,
    seed: u64,
    threads: usize,
) -> BypassHistogram {
    let model = CostModel::new(metric, seed);
    let m = graph.edge_count();
    let edge_ids: Vec<_> = graph.edge_ids().collect();
    let partials = par::map_chunks(&edge_ids, threads, |slice| {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        let mut bridges = 0usize;
        for &e in slice {
            let (u, v) = graph.endpoints(e);
            let failures = FailureSet::of_edge(e);
            let view = failures.view(graph);
            match shortest_path(&view, &model, u, v) {
                Some(p) => *counts.entry(p.hop_count() as u32).or_default() += 1,
                None => bridges += 1,
            }
        }
        (counts, bridges)
    });

    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    let mut bridges = 0;
    for (c, b) in partials {
        for (h, n) in c {
            *counts.entry(h).or_default() += n;
        }
        bridges += b;
    }
    BypassHistogram {
        network: network.to_string(),
        counts,
        bridges,
        total: m,
    }
}

/// Renders several networks' histograms side by side, as in the paper.
pub fn render(histograms: &[BypassHistogram]) -> String {
    let max_hops = histograms
        .iter()
        .flat_map(|h| h.counts.keys().copied())
        .max()
        .unwrap_or(2);
    let mut header = vec!["Bypass Hopcount".to_string()];
    header.extend(histograms.iter().map(|h| h.network.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for hops in 2..=max_hops {
        let mut row = vec![hops.to_string()];
        for h in histograms {
            row.push(format!("{:.2}%", 100.0 * h.fraction(hops)));
        }
        rows.push(row);
    }
    if histograms.iter().any(|h| h.bridges > 0) {
        let mut row = vec!["(bridge)".to_string()];
        for h in histograms {
            row.push(format!(
                "{:.2}%",
                100.0 * h.bridges as f64 / h.total.max(1) as f64
            ));
        }
        rows.push(row);
    }
    format_table(&header_refs, &rows)
}

/// Renders bypass histograms as CSV (one row per network × hop count).
pub fn to_csv(histograms: &[BypassHistogram]) -> String {
    let mut csv = crate::Csv::new();
    csv.row(["network", "hops", "links", "fraction"]);
    for h in histograms {
        for (&hops, &count) in &h.counts {
            csv.row([
                h.network.clone(),
                hops.to_string(),
                count.to_string(),
                format!("{:.4}", count as f64 / h.total.max(1) as f64),
            ]);
        }
        if h.bridges > 0 {
            csv.row([
                h.network.clone(),
                "bridge".to_string(),
                h.bridges.to_string(),
                format!("{:.4}", h.bridges as f64 / h.total.max(1) as f64),
            ]);
        }
    }
    csv.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_topo::{cycle, gnm_connected, isp_topology, IspParams};

    #[test]
    fn cycle_bypass_is_the_rest_of_the_cycle() {
        let g = cycle(6);
        let h = table3("cycle", &g, Metric::Unweighted, 0, 2);
        assert_eq!(h.total, 6);
        assert_eq!(h.bridges, 0);
        assert_eq!(h.counts.get(&5), Some(&6)); // all bypasses are 5 hops
        assert!((h.fraction(5) - 1.0).abs() < 1e-12);
        assert_eq!(h.fraction(2), 0.0);
        assert!((h.fraction_at_most(5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bridges_are_counted() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let h = table3("path", &g, Metric::Unweighted, 0, 1);
        assert_eq!(h.bridges, 2);
        assert!(h.counts.is_empty());
    }

    #[test]
    fn isp_bypasses_are_mostly_short() {
        let isp = isp_topology(IspParams::default(), 3).graph;
        let h = table3("ISP", &isp, Metric::Weighted, 3, 4);
        // The paper observes > 90% of ISP bypasses with hop count 2–3; our
        // synthetic ISP should be in the same regime (dual-homing).
        assert!(
            h.fraction_at_most(3) > 0.6,
            "short-bypass fraction = {}",
            h.fraction_at_most(3)
        );
        assert_eq!(h.counts.values().sum::<usize>() + h.bridges, h.total);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let g = gnm_connected(40, 90, 6, 7);
        let a = table3("g", &g, Metric::Weighted, 1, 1);
        let b = table3("g", &g, Metric::Weighted, 1, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn csv_rows_per_bucket() {
        let g = cycle(5);
        let h = table3("C", &g, Metric::Unweighted, 0, 1);
        let csv = to_csv(&[h]);
        assert!(csv.starts_with("network,hops,links,fraction\n"));
        assert_eq!(csv.lines().count(), 2); // header + single 4-hop bucket
    }

    #[test]
    fn renders_side_by_side() {
        let g = cycle(4);
        let h1 = table3("A", &g, Metric::Unweighted, 0, 1);
        let h2 = table3("B", &g, Metric::Unweighted, 0, 1);
        let out = render(&[h1, h2]);
        assert!(out.contains("Bypass Hopcount"));
        assert!(out.contains('A'));
        assert!(out.contains('B'));
    }
}
