//! Integration tests for the extension systems: merged provisioning, the
//! hybrid scheme, the restoration-latency simulation, Corollary 4's
//! expanded base set, and the KSP baseline — all exercised together on
//! ISP-like topologies.

use mpls_rbpc::core::baseline::KspBackupSet;
use mpls_rbpc::core::{
    expanded_decompose, hybrid_restore, BasePathOracle, DenseBasePaths, ProvisionedDomain, Restorer,
};
use mpls_rbpc::graph::{cut_elements, CostModel, FailureSet, Metric};
use mpls_rbpc::sim::{outage, outage_summary, LatencyModel, Scheme};
use mpls_rbpc::topo::{isp_topology, IspParams};

fn isp() -> mpls_rbpc::graph::Graph {
    isp_with_intra_pop_weight(IspParams::default().intra_pop_weight)
}

fn isp_with_intra_pop_weight(intra_pop_weight: u32) -> mpls_rbpc::graph::Graph {
    isp_topology(
        IspParams {
            pops: 10,
            core_routers: 8,
            intra_pop_weight,
            ..IspParams::default()
        },
        11,
    )
    .graph
}

fn oracle() -> DenseBasePaths {
    DenseBasePaths::build(isp(), CostModel::new(Metric::Weighted, 11))
}

/// Merged provisioning and per-pair provisioning forward identically and
/// restore identically — only the ILM footprint differs.
///
/// Each sampled route loses its first link, then its first and last
/// links together. On the plain ISP map every link is its endpoints'
/// base path, so no restoration needs a raw edge; the second map makes
/// the intra-PoP links cost more than the detour through the core (kept
/// as backup links, they are no base path), so restorations over them
/// carry raw-edge segments and the merged domain must establish and
/// forward over one-hop LSPs.
#[test]
fn merged_and_pair_domains_agree() {
    let mut raw_edge_restorations = 0;
    for intra_pop_weight in [IspParams::default().intra_pop_weight, 12] {
        let o = DenseBasePaths::build(
            isp_with_intra_pop_weight(intra_pop_weight),
            CostModel::new(Metric::Weighted, 11),
        );
        let g = o.graph().clone();
        let restorer = Restorer::new(&o);
        let mut pair_dom = ProvisionedDomain::new(&o);
        pair_dom.provision_all_pairs(&o).unwrap();
        let mut merged_dom = ProvisionedDomain::new(&o);
        merged_dom.provision_merged(&o).unwrap();

        assert!(merged_dom.net().total_ilm_entries() < pair_dom.net().total_ilm_entries());

        let mut checked = 0;
        for s in g.nodes().step_by(13) {
            for t in g.nodes().step_by(7) {
                if s == t {
                    continue;
                }
                // Identical base forwarding.
                let none = FailureSet::new();
                let a = pair_dom.forward(s, t, &none).unwrap();
                let b = merged_dom.forward(s, t, &none).unwrap();
                assert_eq!(a.route(), b.route());
                // Identical restoration behavior after one and two link
                // failures.
                let base = o.base_path(s, t).unwrap();
                let links = base.edges();
                let (Some(&first), Some(&last)) = (links.first(), links.last()) else {
                    continue;
                };
                for failures in [
                    FailureSet::of_edge(first),
                    FailureSet::of_edges([first, last]),
                ] {
                    let Ok(r) = restorer.restore(s, t, &failures) else {
                        continue;
                    };
                    pair_dom.apply_source_restoration(&r).unwrap();
                    merged_dom.apply_source_restoration_merged(&r).unwrap();
                    let a = pair_dom.forward(s, t, &failures).unwrap();
                    let b = merged_dom.forward(s, t, &failures).unwrap();
                    assert_eq!(a.route(), r.backup.nodes());
                    assert_eq!(b.route(), r.backup.nodes());
                    if r.concatenation.raw_edge_count() > 0 {
                        raw_edge_restorations += 1;
                    }
                    checked += 1;
                }
            }
        }
        assert!(
            checked >= 20,
            "intra-PoP weight {intra_pop_weight}: only {checked} restorations checked"
        );
    }
    assert!(
        raw_edge_restorations > 0,
        "no checked restoration crossed a raw edge"
    );
}

/// The hybrid scheme on the ISP: phase 1 is instant and correct, phase 2
/// is optimal, and the interim stretch is modest (Figure 10's story).
#[test]
fn hybrid_on_isp_has_modest_interim_stretch() {
    let o = oracle();
    let restorer = Restorer::new(&o);
    let g = o.graph().clone();
    let mut events = 0;
    let mut stretch_sum = 0.0;
    for s in g.nodes().step_by(11) {
        for t in g.nodes().step_by(5) {
            if s == t {
                continue;
            }
            let Some(base) = o.base_path(s, t) else {
                continue;
            };
            if base.hop_count() < 2 {
                continue;
            }
            let failed = base.edges()[base.hop_count() / 2];
            let failures = FailureSet::of_edge(failed);
            let Ok(h) = hybrid_restore(&o, &restorer, failed, &failures, s, t) else {
                continue;
            };
            events += 1;
            stretch_sum += h.interim_stretch();
            assert!(h.interim_stretch() >= 1.0 - 1e-12);
        }
    }
    assert!(events >= 20);
    let mean = stretch_sum / events as f64;
    assert!(mean < 1.3, "mean interim stretch {mean}");
}

/// Latency ordering holds network-wide, and local restoration is an order
/// of magnitude faster than re-establishment.
#[test]
fn latency_ordering_on_isp() {
    let o = oracle();
    let pairs: Vec<_> = o
        .graph()
        .nodes()
        .step_by(9)
        .flat_map(|s| o.graph().nodes().step_by(17).map(move |t| (s, t)))
        .filter(|(s, t)| s != t)
        .collect();
    let model = LatencyModel::default();
    let local = outage_summary(&o, &model, &pairs, Scheme::LocalEdgeBypass);
    let source = outage_summary(&o, &model, &pairs, Scheme::SourceRbpc);
    let re = outage_summary(&o, &model, &pairs, Scheme::Reestablish);
    assert!(local.mean_us <= source.mean_us);
    assert!(source.mean_us < re.mean_us);
    assert!(re.mean_us > 3.0 * local.mean_us);
    // Per-event sanity on one concrete failure.
    let (s, t) = pairs
        .iter()
        .copied()
        .find(|&(s, t)| {
            o.base_path(s, t)
                .map(|p| p.hop_count() >= 3)
                .unwrap_or(false)
        })
        .expect("a long pair exists");
    let base = o.base_path(s, t).unwrap();
    let e = base.edges()[1];
    let l = outage(&o, &model, s, t, e, Scheme::LocalEndRoute).unwrap();
    let r = outage(&o, &model, s, t, e, Scheme::Reestablish).unwrap();
    assert!(l.restored_at_us < r.restored_at_us);
    assert!(l.packets_lost(10_000) < r.packets_lost(10_000));
}

/// Corollary 4 on the ISP: the expanded base set never needs more pieces
/// than the plain set, and stays within k + 1 for single failures.
#[test]
fn expanded_set_on_isp() {
    let o = oracle();
    let g = o.graph().clone();
    let model = *o.cost_model();
    let mut events = 0;
    for s in g.nodes().step_by(15) {
        for t in g.nodes().step_by(8) {
            if s == t {
                continue;
            }
            let Some(base) = o.base_path(s, t) else {
                continue;
            };
            for &e in base.edges() {
                let failures = FailureSet::of_edge(e);
                let view = failures.view(&g);
                let Some(backup) = mpls_rbpc::graph::shortest_path(&view, &model, s, t) else {
                    continue;
                };
                let exp = expanded_decompose(&o, &backup);
                assert!(exp.len() <= 2, "k=1 must give <= 2 expanded pieces");
                events += 1;
            }
        }
    }
    assert!(events >= 30);
}

/// KSP coverage grows with j but never reaches RBPC's 100% cheaply, and
/// the ISP has no topologically-unprotectable elements.
#[test]
fn ksp_coverage_and_protection_limits() {
    let o = oracle();
    let g = o.graph().clone();
    let cuts = cut_elements(&g);
    assert!(cuts.bridges.is_empty());
    let restorer = Restorer::new(&o);
    let mut uncovered_j2 = 0;
    let mut events = 0;
    for t in g.nodes().step_by(6) {
        let s = mpls_rbpc::graph::NodeId::new(0);
        if s == t {
            continue;
        }
        let set = KspBackupSet::precompute(&o, s, t, 2);
        let Some(primary) = set.paths().first().cloned() else {
            continue;
        };
        for &e in primary.edges() {
            let failures = FailureSet::of_edge(e);
            events += 1;
            // RBPC always restores (no bridges in this topology).
            restorer.restore(s, t, &failures).unwrap();
            if set.restore(&failures).is_none() {
                uncovered_j2 += 1;
            }
        }
    }
    assert!(events > 10);
    assert!(
        uncovered_j2 > 0,
        "two pre-provisioned paths cannot cover every link failure"
    );
}
