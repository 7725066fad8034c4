//! Full paper-scale smoke runs, `#[ignore]`d by default (minutes of CPU).
//!
//! Run with: `cargo test --release --test paper_scale -- --ignored`

use mpls_rbpc::eval::{
    sample_pairs, standard_suite, table1, table2_block, table3, EvalScale, FailureClass,
};

#[test]
#[ignore = "paper-scale run: generates the 40 377-node Internet topology"]
fn paper_scale_table1_matches_exactly() {
    let suite = standard_suite(EvalScale::Paper, 1);
    let rows = table1(&suite);
    assert_eq!(rows[1].nodes, 40_377);
    assert_eq!(rows[1].links, 101_659);
    assert_eq!(rows[2].nodes, 4_746);
    assert_eq!(rows[2].links, 9_878);
}

#[test]
#[ignore = "paper-scale run: one-link Table 2 block on the full Internet graph"]
fn paper_scale_internet_one_link_block() {
    let suite = standard_suite(EvalScale::Paper, 1);
    let case = &suite[2];
    let oracle = case.oracle(1);
    let pairs = sample_pairs(&case.graph, case.samples, 1);
    let row = table2_block(&case.name, &oracle, FailureClass::OneLink, &pairs, 8);
    assert!(row.events > 0);
    // The paper's Internet row: avg PC length 2.00, length s.f. 1.08.
    assert!(
        (1.9..=2.2).contains(&row.avg_pc_length),
        "{}",
        row.avg_pc_length
    );
    assert!((1.0..=1.25).contains(&row.length_sf), "{}", row.length_sf);
}

#[test]
#[ignore = "paper-scale run: Table 3 over all 101 659 Internet links"]
fn paper_scale_internet_bypasses() {
    let suite = standard_suite(EvalScale::Paper, 1);
    let case = &suite[2];
    let h = table3(&case.name, &case.graph, case.metric, 1, 8);
    assert_eq!(h.total, 101_659);
    // Majority of links bypassable within 3 hops, as in the paper.
    assert!(h.fraction_at_most(3) > 0.5, "{}", h.fraction_at_most(3));
}

/// Reduced, non-ignored variant of the Internet one-link block: the same
/// pipeline (suite → oracle → sampled pairs → Table 2 block) on a
/// quarter-scale power-law graph, so release CI exercises the paper-scale
/// code path on every run. Debug builds skip it — unoptimized Dijkstra
/// over thousands of nodes takes minutes.
#[cfg(not(debug_assertions))]
#[test]
fn reduced_internet_one_link_block() {
    use mpls_rbpc::core::BasePathStore;
    use mpls_rbpc::eval::NetworkCase;
    use mpls_rbpc::graph::Metric;

    let case = NetworkCase {
        name: "Internet (reduced)".into(),
        graph: mpls_rbpc::topo::internet_like_scaled(10_000, 1),
        metric: Metric::Unweighted,
        samples: 40,
    };
    let oracle = case.oracle_threads(1, 2);
    // Above the default budget: a bounded store, not an all-resident one.
    assert_eq!(oracle.max_resident_trees(), Some(512));
    let pairs = sample_pairs(&case.graph, case.samples, 1);
    let row = table2_block(&case.name, &oracle, FailureClass::OneLink, &pairs, 2);
    assert!(row.events > 0);
    // The paper's qualitative claim holds already at this scale: two base
    // paths per restoration on average, small length stretch.
    assert!(
        (1.8..=2.4).contains(&row.avg_pc_length),
        "{}",
        row.avg_pc_length
    );
    assert!((1.0..=1.3).contains(&row.length_sf), "{}", row.length_sf);
}
