//! End-to-end integration: every restoration computed by the core crate is
//! validated by actually forwarding packets through the simulated MPLS
//! data plane, on ISP-like topologies.

use mpls_rbpc::core::{
    edge_bypass, end_route, BasePathOracle, DenseBasePaths, ProvisionedDomain, Restorer,
};
use mpls_rbpc::graph::{CostModel, FailureSet, Metric, NodeId};
use mpls_rbpc::mpls::ForwardError;
use mpls_rbpc::topo::{gnm_connected, isp_topology, IspParams};

fn small_isp() -> mpls_rbpc::graph::Graph {
    // A scaled-down ISP (fast to provision all pairs in a test).
    isp_topology(
        IspParams {
            pops: 8,
            core_routers: 6,
            core_chords: 4,
            ..IspParams::default()
        },
        5,
    )
    .graph
}

/// Provision all pairs and verify base forwarding matches the oracle for
/// every ordered pair.
#[test]
fn full_provisioning_forwards_all_pairs() {
    let g = small_isp();
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 5));
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();
    let none = FailureSet::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t {
                continue;
            }
            let trace = dom.forward(s, t, &none).unwrap();
            assert_eq!(trace.route(), oracle.base_path(s, t).unwrap().nodes());
        }
    }
}

/// For every link of the network: fail it, apply the failover plan, and
/// verify every affected sampled route delivers along its backup.
#[test]
fn every_link_failure_is_restorable_by_fec_rewrites() {
    let g = small_isp();
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 5));
    let restorer = Restorer::new(&oracle);
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();

    let pairs: Vec<_> = g
        .nodes()
        .flat_map(|s| g.nodes().map(move |t| (s, t)))
        .filter(|(s, t)| s != t)
        .collect();

    for link in g.edge_ids() {
        let plan = restorer.failover_plan(link, pairs.iter().copied());
        let failures = FailureSet::of_edge(link);
        // Apply every update; sample-verify a handful by forwarding.
        for (i, update) in plan.updates.iter().enumerate() {
            dom.apply_source_restoration(&update.restoration).unwrap();
            if i % 17 == 0 {
                let trace = dom.forward(update.source, update.dest, &failures).unwrap();
                assert_eq!(trace.route(), update.restoration.backup.nodes());
                assert!(!trace.links().contains(&link));
            }
        }
        // Unrestorable pairs must really be disconnected.
        for &(s, t) in &plan.unrestorable {
            let view = failures.view(&g);
            assert!(mpls_rbpc::graph::shortest_path(&view, oracle.cost_model(), s, t).is_none());
        }
        // Restore original FEC entries for the next link's round.
        for update in &plan.updates {
            let lsp = dom.lsp_for_pair(update.source, update.dest).unwrap();
            dom.net_mut()
                .set_fec_via_lsps(update.source, update.dest, &[lsp])
                .unwrap();
        }
    }
}

/// Local RBPC (both variants) on a batch of failures: splice, forward,
/// reverse on recovery.
#[test]
fn local_splices_deliver_and_reverse() {
    let g = small_isp();
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 5));
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();

    let mut tested = 0;
    'outer: for s in g.nodes().step_by(7) {
        for t in g.nodes().step_by(5) {
            if s == t {
                continue;
            }
            let Some(base) = oracle.base_path(s, t) else {
                continue;
            };
            if base.hop_count() < 3 {
                continue;
            }
            let failed = base.edges()[1];
            let failures = FailureSet::of_edge(failed);
            let lsp = dom.lsp_for_pair(s, t).unwrap();

            for variant in 0..2 {
                let lr = if variant == 0 {
                    edge_bypass(&oracle, &base, failed, &failures)
                } else {
                    end_route(&oracle, &base, failed, &failures)
                };
                let Ok(lr) = lr else { continue };
                let old = dom.apply_local_restoration(lsp, &lr).unwrap();
                let trace = dom.forward(s, t, &failures).unwrap();
                assert_eq!(trace.route(), lr.end_to_end.nodes());
                assert!(!trace.links().contains(&failed));
                // Link recovers: reverse the splice.
                let label = dom.net().lsp(lsp).unwrap().label_at(lr.r1).unwrap();
                dom.net_mut().install_ilm_entry(lr.r1, label, old).unwrap();
                let trace = dom.forward(s, t, &FailureSet::new()).unwrap();
                assert_eq!(trace.route(), base.nodes());
            }
            tested += 1;
            if tested > 30 {
                break 'outer;
            }
        }
    }
    assert!(tested >= 10, "exercised only {tested} LSPs");
}

/// Two simultaneous failures: source RBPC still restores, with label
/// stacks bounded by Theorem 3 (k = 2 → at most 3 paths + 2 edges).
#[test]
fn double_failure_restoration_end_to_end() {
    let g = small_isp();
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 5));
    let restorer = Restorer::new(&oracle);
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();

    let mut verified = 0;
    for s in g.nodes().step_by(11) {
        for t in g.nodes().step_by(13) {
            if s == t {
                continue;
            }
            let Some(base) = oracle.base_path(s, t) else {
                continue;
            };
            if base.hop_count() < 2 {
                continue;
            }
            let mut failures = FailureSet::of_edge(base.edges()[0]);
            failures.fail_edge(base.edges()[base.hop_count() - 1]);
            let Ok(r) = restorer.restore(s, t, &failures) else {
                continue;
            };
            assert!(r.concatenation.len() <= 5);
            assert!(r.concatenation.raw_edge_count() <= 2);
            dom.apply_source_restoration(&r).unwrap();
            let trace = dom.forward(s, t, &failures).unwrap();
            assert_eq!(trace.route(), r.backup.nodes());
            assert!(trace.max_stack_depth() <= 5);
            verified += 1;
        }
    }
    assert!(verified >= 5, "verified only {verified} double failures");
}

/// Router failure: restoration avoids the dead router and the packet
/// delivers around it.
#[test]
fn router_failure_end_to_end() {
    let g = small_isp();
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 5));
    let restorer = Restorer::new(&oracle);
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();

    let mut verified = 0;
    for s in g.nodes().step_by(9) {
        for t in g.nodes().step_by(7) {
            if s == t {
                continue;
            }
            let Some(base) = oracle.base_path(s, t) else {
                continue;
            };
            if base.hop_count() < 2 {
                continue;
            }
            let dead = base.nodes()[1];
            let failures = FailureSet::of_nodes([dead.index()]);
            let Ok(r) = restorer.restore(s, t, &failures) else {
                continue;
            };
            assert!(!r.backup.contains_node(dead));
            dom.apply_source_restoration(&r).unwrap();
            let trace = dom.forward(s, t, &failures).unwrap();
            assert_eq!(trace.route(), r.backup.nodes());
            verified += 1;
        }
    }
    assert!(verified >= 5, "verified only {verified} router failures");
}

/// The data plane is honest: a broken LSP black-holes with a precise error
/// until some scheme fixes the tables.
#[test]
fn unrestored_failures_black_hole() {
    let g = gnm_connected(15, 30, 6, 8);
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 8));
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();
    let (s, t) = (NodeId::new(0), NodeId::new(14));
    let base = oracle.base_path(s, t).unwrap();
    let failures = FailureSet::of_edge(base.edges()[0]);
    match dom.forward(s, t, &failures).unwrap_err() {
        ForwardError::DeadLink { router, link } => {
            assert_eq!(router, base.nodes()[0]);
            assert_eq!(link, base.edges()[0]);
        }
        other => panic!("expected DeadLink, got {other}"),
    }
}

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for x in xs {
            self.word(x);
            n += 1;
        }
        self.word(n);
    }
}

/// Folds every LSP's label vector, every ILM table size and the signaling
/// counters.
fn fold_tables(h: &mut Fnv, dom: &ProvisionedDomain) {
    let net = dom.net();
    for (id, rec) in net.lsps() {
        h.word(id.index() as u64);
        h.words(
            rec.path()
                .nodes()
                .iter()
                .map(|&v| rec.label_at(v).map_or(u64::MAX, |l| u64::from(l.value()))),
        );
    }
    h.words(net.ilm_sizes().into_iter().map(|s| s as u64));
    let s = net.stats();
    h.words([
        s.messages,
        s.ilm_writes,
        s.fec_writes,
        s.lsps_established,
        s.lsps_torn_down,
    ]);
}

/// Folds `s`'s FEC stack for `t` and the route a packet takes under
/// `failures`.
fn fold_probe(h: &mut Fnv, dom: &ProvisionedDomain, s: NodeId, t: NodeId, failures: &FailureSet) {
    let fec = dom.net().router(s).unwrap().fec(t).unwrap();
    h.words(fec.labels.iter().map(|l| u64::from(l.value())));
    let trace = dom.forward(s, t, failures).unwrap();
    h.words(trace.route().iter().map(|v| v.index() as u64));
}

/// The data plane, bit for bit: all-pairs provisioning on the paper-sized
/// ISP map, then every restoration and revert of one fixed multi-link
/// event. Label values, table sizes, signaling counts, FEC stacks and
/// forwarded routes all feed one digest, so any change to how labels are
/// allocated, stored or pushed shows here.
#[test]
fn data_plane_digest_is_pinned() {
    let g = isp_topology(IspParams::default(), 1).graph;
    let oracle = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Weighted, 1));
    let restorer = Restorer::new(&oracle);
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();
    let mut h = Fnv::new();
    fold_tables(&mut h, &dom);

    let mut failures = FailureSet::new();
    for e in [0usize, 7, 40, 101, 163] {
        failures.fail_edge(mpls_rbpc::graph::EdgeId::new(e));
    }
    let mut rewritten = Vec::new();
    for s in g.nodes() {
        for t in g.nodes() {
            let Some(base) = oracle.base_path(s, t) else {
                continue;
            };
            if !base.edges().iter().any(|&e| failures.edge_failed(e)) {
                continue;
            }
            match restorer.restore(s, t, &failures) {
                Ok(r) => {
                    dom.apply_source_restoration(&r).unwrap();
                    fold_probe(&mut h, &dom, s, t, &failures);
                    rewritten.push((s, t));
                }
                Err(_) => h.word(u64::MAX),
            }
        }
    }
    assert!(
        rewritten.len() > 100,
        "event broke {} LSPs",
        rewritten.len()
    );
    let none = FailureSet::new();
    for &(s, t) in &rewritten {
        let lsp = dom.lsp_for_pair(s, t).unwrap();
        dom.net_mut().set_fec_via_lsps(s, t, &[lsp]).unwrap();
        fold_probe(&mut h, &dom, s, t, &none);
    }
    fold_tables(&mut h, &dom);
    assert_eq!(
        (h.0, dom.net().total_ilm_entries(), rewritten.len()),
        (0xaddb_04ae_b5b2_80e3, 189_144, 2_618),
        "data-plane digest moved"
    );
}
