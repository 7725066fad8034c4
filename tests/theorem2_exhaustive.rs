//! Exhaustive small-graph check of Theorems 1–2: every edge-failure set
//! with k ≤ 2, every ordered pair, on a few connected graphs of at most
//! 10 nodes, with unit weights and with random weights 1..=20.
//!
//! Each restoration must stay within Theorem 2's bound (k + 1 base paths
//! plus k raw edges, contiguous) and concatenate to exactly the canonical
//! shortest path over the failed view. The random-weight sweep must reach
//! the raw-edge arm, and the decomposition's trace span must say where.

use mpls_rbpc::core::{DenseBasePaths, Restorer, SegmentKind};
use mpls_rbpc::graph::{shortest_path, CostModel, EdgeId, FailureSet, Graph, Metric, NodeId};
use mpls_rbpc::obs::{self, Value};
use mpls_rbpc::topo::gnm_connected;

/// `(nodes, edges, seed)` of the swept graphs.
const GRAPHS: [(usize, usize, u64); 6] = [
    (6, 9, 1),
    (7, 12, 2),
    (8, 13, 3),
    (9, 16, 4),
    (10, 15, 5),
    (10, 20, 6),
];

/// Every edge-failure set of the graph with at most two edges.
fn failure_sets(g: &Graph) -> Vec<(usize, FailureSet)> {
    let m = g.edge_count();
    let mut sets = vec![(0, FailureSet::new())];
    for a in 0..m {
        sets.push((1, FailureSet::of_edge(EdgeId::new(a))));
        for b in a + 1..m {
            sets.push((2, FailureSet::of_edges([EdgeId::new(a), EdgeId::new(b)])));
        }
    }
    sets
}

/// Sweeps one graph; returns the first `(s, t, failures)` whose
/// restoration used a raw edge.
fn sweep(g: &Graph, model: CostModel) -> Option<(NodeId, NodeId, FailureSet)> {
    let oracle = DenseBasePaths::build(g.clone(), model);
    let restorer = Restorer::new(&oracle);
    let mut raw = None;
    for (k, failures) in failure_sets(g) {
        let view = failures.view(g);
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let want = shortest_path(&view, &model, s, t);
                let Ok(r) = restorer.restore(s, t, &failures) else {
                    assert_eq!(want, None, "{s}->{t} under {failures:?}: restore failed");
                    continue;
                };
                let c = &r.concatenation;
                if let Err(e) = c.validate_bounds(k) {
                    panic!("{s}->{t} under {failures:?}: {e}");
                }
                assert_eq!(c.full_path(), want, "{s}->{t} under {failures:?}");
                if raw.is_none() && c.raw_edge_count() > 0 {
                    raw = Some((s, t, failures.clone()));
                }
            }
        }
    }
    raw
}

/// One test, so that no sweep on another thread adds its spans to the
/// traced restore's: the span collector is process-global.
#[test]
fn every_double_failure_on_small_graphs() {
    let mut raw = None;
    for (n, m, seed) in GRAPHS {
        sweep(
            &gnm_connected(n, m, 1, seed),
            CostModel::new(Metric::Unweighted, seed),
        );
        let g = gnm_connected(n, m, 20, seed);
        let model = CostModel::new(Metric::Weighted, seed);
        raw = raw.or(sweep(&g, model).map(|hit| (g, model, hit)));
    }
    let (g, model, (s, t, failures)) = raw.expect("random weights must need a raw edge");

    // Under tracing, the decomposition span names each raw edge's
    // position on the restoration path.
    let oracle = DenseBasePaths::build(g, model);
    obs::start_tracing();
    let r = Restorer::new(&oracle)
        .restore(s, t, &failures)
        .expect("restored in the sweep");
    let spans = obs::stop_tracing();
    let (mut at, mut raw_at) = (0, Vec::new());
    for seg in r.concatenation.segments() {
        if seg.kind == SegmentKind::RawEdge {
            raw_at.push(Value::from(at));
        }
        at += seg.path.hop_count();
    }
    assert!(!raw_at.is_empty());
    if cfg!(feature = "obs") {
        let greedy = spans
            .iter()
            .find(|sp| sp.name == "decompose.greedy")
            .expect("the decomposition span");
        let traced: Vec<Value> = greedy
            .attrs
            .iter()
            .filter(|(key, _)| *key == "raw_edge_at")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(traced, raw_at);
    } else {
        assert!(spans.is_empty());
    }
}
