//! Property-based tests for the MPLS simulator: LSP lifecycle invariants,
//! forwarding correctness, and sink-tree equivalence — over random
//! topologies and random paths.

// Requires the external `proptest` crate: compiled only with `--features proptest`
// (offline builds ship without it).
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use rbpc_graph::{shortest_path, shortest_path_tree, CostModel, FailureSet, Metric, NodeId};
use rbpc_mpls::{ForwardError, MplsNetwork};
use rbpc_topo::gnm_connected;

fn model(seed: u64) -> CostModel {
    CostModel::new(Metric::Weighted, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Establish + teardown leaves the ILM exactly as before, for any
    /// random batch of LSPs (with or without PHP).
    #[test]
    fn establish_teardown_is_clean(
        n in 5usize..20,
        seed in 0u64..2000,
        targets in proptest::collection::vec((0usize..1000, 0usize..1000, prop::bool::ANY), 1..8),
    ) {
        let g = gnm_connected(n, 2 * n, 9, seed);
        let m = model(seed);
        let mut net = MplsNetwork::new(g.clone());
        let mut ids = Vec::new();
        for (s, t, php) in targets {
            let (s, t) = (NodeId::new(s % n), NodeId::new(t % n));
            if s == t {
                continue;
            }
            let path = shortest_path(&g, &m, s, t).unwrap();
            if path.is_trivial() {
                continue;
            }
            let id = if php {
                net.establish_lsp_php(path.clone()).unwrap()
            } else {
                net.establish_lsp(path.clone()).unwrap()
            };
            // Entry count matches the LSP shape.
            let expect = if php { path.hop_count() } else { path.hop_count() + 1 };
            prop_assert_eq!(net.lsp(id).unwrap().path(), &path);
            let _ = expect;
            ids.push(id);
        }
        for id in &ids {
            net.teardown_lsp(*id).unwrap();
        }
        prop_assert_eq!(net.total_ilm_entries(), 0);
        let stats = net.stats();
        prop_assert_eq!(stats.lsps_established, ids.len() as u64);
        prop_assert_eq!(stats.lsps_torn_down, ids.len() as u64);
    }

    /// A provisioned LSP forwards exactly along its path, and label ops
    /// equal the path length plus the final pop (without PHP).
    #[test]
    fn forwarding_follows_the_lsp(
        n in 5usize..18,
        seed in 0u64..2000,
        php in prop::bool::ANY,
    ) {
        let g = gnm_connected(n, 2 * n, 7, seed);
        let m = model(seed);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let path = shortest_path(&g, &m, s, t).unwrap();
        if path.is_trivial() {
            return Ok(());
        }
        let mut net = MplsNetwork::new(g);
        let id = if php {
            net.establish_lsp_php(path.clone()).unwrap()
        } else {
            net.establish_lsp(path.clone()).unwrap()
        };
        net.set_fec_via_lsps(s, t, &[id]).unwrap();
        let trace = net.forward(s, t).unwrap();
        prop_assert_eq!(trace.route(), path.nodes());
        prop_assert_eq!(trace.links(), path.edges());
        let expected_ops = if php { path.hop_count() } else { path.hop_count() + 1 };
        prop_assert_eq!(trace.label_ops() as usize, expected_ops);
        prop_assert_eq!(trace.max_stack_depth(), 1);
    }

    /// Any failed edge on the LSP makes forwarding fail with DeadLink at
    /// exactly the upstream router.
    #[test]
    fn dead_links_are_reported_precisely(
        n in 5usize..18,
        seed in 0u64..2000,
        which in 0usize..100,
    ) {
        let g = gnm_connected(n, 2 * n, 7, seed);
        let m = model(seed);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let path = shortest_path(&g, &m, s, t).unwrap();
        if path.is_trivial() {
            return Ok(());
        }
        let mut net = MplsNetwork::new(g);
        let id = net.establish_lsp(path.clone()).unwrap();
        net.set_fec_via_lsps(s, t, &[id]).unwrap();
        let idx = which % path.hop_count();
        let failures = FailureSet::of_edge(path.edges()[idx]);
        match net.forward_with_failures(s, t, &failures) {
            Err(ForwardError::DeadLink { router, link }) => {
                prop_assert_eq!(router, path.nodes()[idx]);
                prop_assert_eq!(link, path.edges()[idx]);
            }
            other => prop_assert!(false, "expected DeadLink, got {other:?}"),
        }
    }

    /// A sink tree built from a shortest-path tree delivers from every
    /// router along the canonical path (same routes as per-pair LSPs).
    #[test]
    fn sink_tree_matches_canonical_paths(
        n in 5usize..16,
        seed in 0u64..2000,
        dest in 0usize..1000,
    ) {
        let g = gnm_connected(n, 2 * n, 6, seed);
        let m = model(seed);
        let dest = NodeId::new(dest % n);
        let spt = shortest_path_tree(&g, &m, dest);
        let next_hop: Vec<_> = (0..n)
            .map(|r| spt.parent_edge(NodeId::new(r)))
            .collect();
        let mut net = MplsNetwork::new(g.clone());
        let id = net.establish_sink_tree(dest, next_hop).unwrap();
        let tree = net.sink_tree(id).unwrap().clone();
        prop_assert_eq!(net.total_ilm_entries(), tree.router_count());
        for s in 0..n {
            let s = NodeId::new(s);
            if s == dest {
                continue;
            }
            let label = tree.label_at(s).unwrap();
            net.set_fec_raw(s, dest, vec![label]).unwrap();
            let trace = net.forward(s, dest).unwrap();
            let canonical = shortest_path(&g, &m, s, dest).unwrap();
            prop_assert_eq!(trace.route(), canonical.nodes(), "from {}", s);
        }
    }

    /// Concatenating two LSPs via the FEC stack visits both paths in
    /// order, with stack depth 2.
    #[test]
    fn concatenation_traverses_both_lsps(
        n in 6usize..16,
        seed in 0u64..2000,
        mid in 0usize..1000,
    ) {
        let g = gnm_connected(n, 2 * n, 6, seed);
        let m = model(seed);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let mid = NodeId::new(1 + mid % (n - 2));
        if mid == s || mid == t {
            return Ok(());
        }
        let p1 = shortest_path(&g, &m, s, mid).unwrap();
        let p2 = shortest_path(&g, &m, mid, t).unwrap();
        if p1.is_trivial() || p2.is_trivial() {
            return Ok(());
        }
        let mut net = MplsNetwork::new(g);
        let l1 = net.establish_lsp(p1.clone()).unwrap();
        let l2 = net.establish_lsp(p2.clone()).unwrap();
        net.set_fec_via_lsps(s, t, &[l1, l2]).unwrap();
        let trace = net.forward(s, t).unwrap();
        let expected = p1.concat(&p2).unwrap();
        prop_assert_eq!(trace.route(), expected.nodes());
        prop_assert_eq!(trace.max_stack_depth(), 2);
    }
}
