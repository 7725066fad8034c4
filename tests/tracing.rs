//! Cross-crate tracing test: inject a multi-link failure, restore every
//! affected LSP, and check that the collected spans reassemble into one
//! well-formed trace per restoration — correctly nested, spanning at least
//! four categories — and that the Chrome export parses and round-trips.
//!
//! A second test checks that the restore and table-write spans carry the
//! outcome of what they timed.
//!
//! The span collector is process-global, so the tests take a lock (this
//! file is its own test binary, isolated from other integration tests).

#![cfg(feature = "obs")]

use mpls_rbpc::core::{end_route, BasePathOracle, DenseBasePaths, ProvisionedDomain, Restorer};
use mpls_rbpc::graph::{CostModel, FailureSet, Metric, NodeId};
use mpls_rbpc::obs::json::JsonValue;
use mpls_rbpc::obs::{self, json, TraceTree, Value};
use mpls_rbpc::sim::{outage_under, LatencyModel, Scheme};
use mpls_rbpc::topo::gnm_connected;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests that use the process-global span collector.
fn collector_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn multi_failure_traces_are_wellformed() {
    let _serial = collector_lock();
    let graph = gnm_connected(40, 110, 9, 11);
    let oracle = DenseBasePaths::build(graph.clone(), CostModel::new(Metric::Weighted, 11));
    let pairs = mpls_rbpc::eval::sample_pairs(&graph, 30, 11);

    // Fail the middle link of the first two distinct sampled LSPs.
    let mut failures = FailureSet::new();
    for &(s, t) in &pairs {
        if failures.failed_edge_count() >= 2 {
            break;
        }
        let path = oracle.base_path(s, t).expect("connected by construction");
        failures.fail_edge(path.edges()[path.hop_count() / 2]);
    }
    assert_eq!(failures.failed_edge_count(), 2);

    let affected: Vec<(NodeId, NodeId, _)> = pairs
        .iter()
        .copied()
        .filter_map(|(s, t)| {
            let path = oracle.base_path(s, t)?;
            let hit = path
                .edges()
                .iter()
                .copied()
                .find(|&e| failures.edge_failed(e))?;
            Some((s, t, hit))
        })
        .collect();
    assert!(
        affected.len() >= 2,
        "scenario must break several LSPs, got {}",
        affected.len()
    );

    let model = LatencyModel::default();
    obs::start_tracing();
    let mut restored = 0usize;
    for &(s, t, hit) in &affected {
        if outage_under(&oracle, &model, s, t, hit, &failures, Scheme::Hybrid).is_ok() {
            restored += 1;
        }
    }
    let spans = obs::stop_tracing();
    assert!(
        restored >= 2,
        "expected several restorations, got {restored}"
    );

    // One parent trace per restored LSP; every span belongs to exactly one.
    let trees = TraceTree::build(&spans);
    assert_eq!(trees.len(), restored, "one trace per restoration");
    assert_eq!(
        trees.iter().map(TraceTree::span_count).sum::<usize>(),
        spans.len(),
        "every span appears in exactly one tree"
    );
    for tree in &trees {
        let root = &tree.root.record;
        assert_eq!(root.name, "outage");
        assert_eq!(root.cat, "restore");
        assert!(root.parent.is_none());
        assert_eq!(root.attr("scheme"), Some(&Value::Str("hybrid".into())));
        assert_eq!(root.attr("k_failures"), Some(&Value::U64(2)));
        assert!(root.attr("restored_at_us").is_some());
        assert!(!tree.root.children.is_empty());

        // Nesting is consistent: children share the trace, reference their
        // parent, and fit inside its wall-clock window.
        fn check(node: &mpls_rbpc::obs::TraceNode) {
            for child in &node.children {
                assert_eq!(child.record.trace, node.record.trace);
                assert_eq!(child.record.parent, Some(node.record.span));
                assert!(child.record.start_ns >= node.record.start_ns);
                assert!(
                    child.record.start_ns + child.record.dur_ns
                        <= node.record.start_ns + node.record.dur_ns + 1_000,
                    "child must end within its parent (1us slack)"
                );
                check(child);
            }
        }
        check(&tree.root);

        // Each restoration's trace spans at least four categories.
        let mut cats: Vec<&str> = Vec::new();
        fn collect<'a>(node: &'a mpls_rbpc::obs::TraceNode, cats: &mut Vec<&'a str>) {
            if !cats.contains(&node.record.cat) {
                cats.push(node.record.cat);
            }
            for child in &node.children {
                collect(child, cats);
            }
        }
        collect(&tree.root, &mut cats);
        assert!(
            cats.len() >= 4,
            "trace {} has categories {cats:?}",
            tree.trace.value()
        );
        for expected in ["restore", "flood", "lookup"] {
            assert!(cats.contains(&expected), "missing {expected} in {cats:?}");
        }
        assert!(
            cats.contains(&"splice") || cats.contains(&"rewrite"),
            "restoration must rewrite tables: {cats:?}"
        );
    }

    // The Chrome export is valid JSON and survives a round trip.
    let exported = obs::chrome_trace_json(&spans);
    let parsed = json::parse(&exported).expect("valid trace_event JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .count();
    let metadata = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .count();
    assert_eq!(complete, spans.len());
    assert_eq!(metadata, trees.len(), "one named row per trace");
    let reprinted = parsed.to_string();
    assert_eq!(json::parse(&reprinted).unwrap(), parsed);
}

#[test]
fn restore_and_table_spans_carry_their_outcome() {
    let _serial = collector_lock();
    let graph = gnm_connected(30, 80, 9, 5);
    let oracle = DenseBasePaths::build(graph.clone(), CostModel::new(Metric::Weighted, 5));
    let restorer = Restorer::new(&oracle);
    let (s, t) = (NodeId::new(0), NodeId::new(29));
    let base = oracle.base_path(s, t).expect("connected");
    assert!(base.hop_count() >= 3);
    let failed = base.edges()[1];
    let failures = FailureSet::of_edge(failed);

    obs::start_tracing();
    // Provisioning rewrites FECs through the LSP chain (pair LSPs) and
    // through raw labels (the merged set); the local detour splices.
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_all_pairs(&oracle).unwrap();
    dom.provision_merged(&oracle).unwrap();
    let r = restorer.restore(s, t, &failures).expect("restorable");
    dom.apply_source_restoration(&r).unwrap();
    let lr = end_route(&oracle, &base, failed, &failures).expect("a local detour");
    dom.apply_local_restoration(dom.lsp_for_pair(s, t).unwrap(), &lr)
        .unwrap();
    let err = restorer.restore(s, t, &FailureSet::of_nodes([s.index()]));
    let spans = obs::stop_tracing();

    let roots: Vec<_> = spans
        .iter()
        .filter(|sp| sp.name == "restore.source")
        .collect();
    let affected = roots
        .iter()
        .find(|sp| sp.attr("affected") == Some(&Value::Bool(true)))
        .expect("the affected restore's root span");
    let depth = Value::from(r.concatenation.len());
    assert_eq!(affected.attr("stack_depth"), Some(&depth));
    let raw = Value::from(r.concatenation.raw_edge_count());
    assert_eq!(affected.attr("raw_edges"), Some(&raw));
    let error = Value::Str(err.unwrap_err().to_string());
    assert!(roots.iter().any(|sp| sp.attr("error") == Some(&error)));

    let mut writes = [0usize; 3];
    for span in &spans {
        let (slot, target) = match span.name {
            "mpls.fec_rewrite" => (usize::from(span.attr("lsps").is_none()), "dest"),
            "mpls.ilm_splice" => (2, "label"),
            _ => continue,
        };
        writes[slot] += 1;
        for key in ["router", "stack_depth", target] {
            assert!(span.attr(key).is_some(), "{key} missing: {span:?}");
        }
    }
    assert!(
        writes.iter().all(|&n| n > 0),
        "chain rewrites, raw rewrites and splices: {writes:?}"
    );
}
