//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! * [`provisioning_footprint`] — ILM entries of the three base-set
//!   deployments: per-pair LSPs, per-pair with PHP, merged sink trees;
//! * [`ksp_comparison`] — the k-shortest-paths pre-provisioning baseline
//!   vs RBPC: coverage, cost stretch, and state;
//! * [`decomposition_agreement`] — greedy longest-prefix vs the optimal
//!   jump-graph search (validating that greedy is optimal in practice,
//!   not only by the subpath-closure argument);
//! * [`protection_coverage`] — how many failure events are unrestorable
//!   for topological reasons (bridges / articulation points), the paper's
//!   caveat that RBPC restores whenever *any* path survives.

use crate::format_table;
use rbpc_core::baseline::KspBackupSet;
use rbpc_core::{greedy_decompose, optimal_decompose, BasePathOracle, ProvisionedDomain, Restorer};
use rbpc_graph::{cut_elements, shortest_path, FailureSet, NodeId};

/// ILM footprint of the three deployments of the same base set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvisioningFootprint {
    /// Per-pair LSPs, label at every hop.
    pub per_pair: usize,
    /// Per-pair LSPs with penultimate-hop popping.
    pub per_pair_php: usize,
    /// Merged per-destination sink trees (§2's LSP merging): `n` per
    /// destination.
    pub merged: usize,
}

/// Measures the ILM footprint of each deployment on the oracle's graph
/// (all-pairs; keep the graph small).
pub fn provisioning_footprint<O: BasePathOracle>(oracle: &O) -> ProvisioningFootprint {
    let n = oracle.graph().node_count();
    let mut pairs = ProvisionedDomain::new(oracle);
    pairs
        .provision_all_pairs(oracle)
        .expect("provisioning cannot fail on a validated graph");
    let mut php = ProvisionedDomain::new(oracle);
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            if let Some(p) = oracle.base_path(NodeId::new(s), NodeId::new(t)) {
                php.net_mut()
                    .establish_lsp_php(p)
                    .expect("php establishment");
            }
        }
    }
    let mut merged = ProvisionedDomain::new(oracle);
    merged
        .provision_merged(oracle)
        .expect("merged provisioning");
    ProvisioningFootprint {
        per_pair: pairs.net().total_ilm_entries(),
        per_pair_php: php.net().total_ilm_entries(),
        merged: merged.net().total_ilm_entries(),
    }
}

/// One row of the KSP-vs-RBPC comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KspRow {
    /// Number of pre-provisioned paths per pair.
    pub j: usize,
    /// Single-link failure events examined.
    pub events: usize,
    /// Events where no pre-provisioned path survived (KSP falls back to
    /// online re-establishment; RBPC restored all of these).
    pub uncovered: usize,
    /// Mean cost stretch of the KSP survivor vs the min-cost restoration
    /// (RBPC is 1.0 by construction).
    pub mean_stretch: f64,
    /// ILM entries the KSP sets consume for the sampled pairs.
    pub ilm_entries: u64,
}

/// Compares KSP(j) restoration against RBPC over every link of every
/// sampled pair's primary path.
pub fn ksp_comparison<O: BasePathOracle>(
    oracle: &O,
    pairs: &[(NodeId, NodeId)],
    js: &[usize],
) -> Vec<KspRow> {
    let graph = oracle.graph();
    let model = oracle.cost_model();
    let restorer = Restorer::new(oracle);
    js.iter()
        .map(|&j| {
            let mut row = KspRow {
                j,
                events: 0,
                uncovered: 0,
                mean_stretch: 0.0,
                ilm_entries: 0,
            };
            let mut stretch_sum = 0.0;
            for &(s, t) in pairs {
                let set = KspBackupSet::precompute(oracle, s, t, j);
                row.ilm_entries += set.ilm_entries();
                let Some(primary) = set.paths().first().cloned() else {
                    continue;
                };
                for &e in primary.edges() {
                    let failures = FailureSet::of_edge(e);
                    let Ok(opt) = restorer.restore(s, t, &failures) else {
                        continue;
                    };
                    row.events += 1;
                    match set.restore(&failures) {
                        Some(p) => {
                            stretch_sum += p.cost(graph, model).base as f64
                                / opt.backup_cost.base.max(1) as f64;
                        }
                        None => row.uncovered += 1,
                    }
                }
            }
            let covered = row.events - row.uncovered;
            row.mean_stretch = if covered == 0 {
                0.0
            } else {
                stretch_sum / covered as f64
            };
            row
        })
        .collect()
}

/// Result of the greedy-vs-optimal decomposition ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompositionAgreement {
    /// Restoration events compared.
    pub events: usize,
    /// Events where greedy used exactly as many segments as the optimal
    /// jump-graph search (expected: all of them).
    pub agreements: usize,
}

/// Compares segment counts of greedy and optimal decomposition for every
/// link of every sampled pair's base path.
pub fn decomposition_agreement<O: BasePathOracle>(
    oracle: &O,
    pairs: &[(NodeId, NodeId)],
) -> DecompositionAgreement {
    let graph = oracle.graph();
    let model = oracle.cost_model();
    let mut events = 0;
    let mut agreements = 0;
    for &(s, t) in pairs {
        let Some(base) = oracle.base_path(s, t) else {
            continue;
        };
        for &e in base.edges() {
            let failures = FailureSet::of_edge(e);
            let view = failures.view(graph);
            let Some(backup) = shortest_path(&view, model, s, t) else {
                continue;
            };
            let Some(optimal) = optimal_decompose(oracle, s, t, &failures) else {
                continue;
            };
            events += 1;
            if greedy_decompose(oracle, &backup).len() == optimal.len() {
                agreements += 1;
            }
        }
    }
    DecompositionAgreement { events, agreements }
}

/// Topological protection limits of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionCoverage {
    /// Total links.
    pub links: usize,
    /// Links that are bridges (their failure is unrestorable for some
    /// pair, no matter the scheme).
    pub bridges: usize,
    /// Total routers.
    pub routers: usize,
    /// Articulation points (their failure is unrestorable for some pair).
    pub articulation_points: usize,
}

/// Computes how much of a topology is protectable at all.
pub fn protection_coverage(graph: &rbpc_graph::Graph) -> ProtectionCoverage {
    let cuts = cut_elements(graph);
    ProtectionCoverage {
        links: graph.edge_count(),
        bridges: cuts.bridges.len(),
        routers: graph.node_count(),
        articulation_points: cuts.articulation_points.len(),
    }
}

/// Renders all four ablations as one report.
pub fn render(
    footprint: &ProvisioningFootprint,
    ksp: &[KspRow],
    agreement: &DecompositionAgreement,
    coverage: &ProtectionCoverage,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Base-set deployment footprint (ILM entries):");
    let _ = writeln!(
        out,
        "  per-pair LSPs = {}, per-pair + PHP = {}, merged sink trees = {} ({}x smaller)\n",
        footprint.per_pair,
        footprint.per_pair_php,
        footprint.merged,
        footprint.per_pair / footprint.merged.max(1),
    );
    let _ = writeln!(
        out,
        "k-shortest-paths baseline vs RBPC (single link failures):"
    );
    out.push_str(&format_table(
        &[
            "j",
            "events",
            "uncovered",
            "mean cost stretch",
            "ILM entries",
        ],
        &ksp.iter()
            .map(|r| {
                vec![
                    r.j.to_string(),
                    r.events.to_string(),
                    r.uncovered.to_string(),
                    format!("{:.3}", r.mean_stretch),
                    r.ilm_entries.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    let _ = writeln!(
        out,
        "  (RBPC: 0 uncovered, stretch 1.000 by construction)\n"
    );
    let _ = writeln!(
        out,
        "Greedy vs optimal decomposition: {} / {} events agree",
        agreement.agreements, agreement.events
    );
    let _ = writeln!(
        out,
        "Topological protection limits: {} / {} links are bridges, {} / {} routers are articulation points",
        coverage.bridges, coverage.links, coverage.articulation_points, coverage.routers
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_pairs;
    use rbpc_core::DenseBasePaths;
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::{gnm_connected, isp_topology, IspParams};

    fn small_oracle() -> DenseBasePaths {
        let g = isp_topology(
            IspParams {
                pops: 6,
                core_routers: 5,
                ..IspParams::default()
            },
            2,
        )
        .graph;
        DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 2))
    }

    #[test]
    fn merged_beats_php_beats_pairs() {
        let oracle = small_oracle();
        let f = provisioning_footprint(&oracle);
        assert!(f.merged < f.per_pair_php);
        assert!(f.per_pair_php < f.per_pair);
        let n = oracle.graph().node_count();
        assert_eq!(f.merged, n * n);
    }

    /// The three deployments' ILM counts, pinned: any change to how the
    /// data plane allocates or stores labels must leave them as they are.
    #[test]
    fn footprint_is_pinned() {
        let f = provisioning_footprint(&small_oracle());
        assert_eq!(
            (f.per_pair, f.per_pair_php, f.merged),
            (6_894, 5_254, 1_681)
        );
    }

    #[test]
    fn ksp_rows_behave() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 20, 1);
        let rows = ksp_comparison(&oracle, &pairs, &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        // More pre-provisioned paths -> more state, fewer uncovered events.
        assert!(rows[2].ilm_entries > rows[0].ilm_entries);
        assert!(rows[2].uncovered <= rows[0].uncovered);
        // j = 1 is "no backup at all": every event is uncovered.
        assert_eq!(rows[0].uncovered, rows[0].events);
        // Survivors can never beat the min-cost restoration.
        assert!(rows[2].mean_stretch >= 1.0 - 1e-12 || rows[2].events == rows[2].uncovered);
    }

    #[test]
    fn greedy_agrees_with_optimal_everywhere() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 15, 3);
        let a = decomposition_agreement(&oracle, &pairs);
        assert!(a.events > 0);
        assert_eq!(a.agreements, a.events);
    }

    #[test]
    fn coverage_counts_cut_elements() {
        let g = gnm_connected(10, 9, 3, 0); // a tree: everything is a cut
        let c = protection_coverage(&g);
        assert_eq!(c.bridges, 9);
        assert!(c.articulation_points > 0);
        let isp = isp_topology(IspParams::default(), 1).graph;
        let c2 = protection_coverage(&isp);
        assert_eq!(c2.bridges, 0, "default ISP is 2-edge-connected");
    }

    #[test]
    fn renders() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 8, 1);
        let out = render(
            &provisioning_footprint(&oracle),
            &ksp_comparison(&oracle, &pairs, &[2]),
            &decomposition_agreement(&oracle, &pairs),
            &protection_coverage(oracle.graph()),
        );
        assert!(out.contains("merged sink trees"));
        assert!(out.contains("k-shortest-paths"));
    }
}
