//! Determinism property test for the batched multi-source SPT kernel:
//! on every suite topology family, [`CsrGraph::full_tree_batch`] must be
//! **bit-identical** to the scalar per-source loop
//! ([`CsrGraph::full_tree_masked`]) — same perturbed distances, same
//! parents — across failure masks (none, edges, edges + a node), batch
//! sizes {1, 7, 64}, *one reused scratch across all of them*, and thread
//! counts {1, 2, 8} through
//! [`par_all_sources_csr`] (whose workers run the batch kernel). Unit
//! weights take the batch kernel's unit-weight sweep; every weighted
//! family, the large-weight one included, takes its scalar loop. Every
//! configuration must count zero exact ties: padded costs make shortest
//! paths unique, so a tie would make a tree depend on settle order.
//! Both kernels' trees derive the base distance from the perturbed one,
//! so it is checked independently: for every reached node it must equal
//! the base cost summed edge by edge along the node's tree path.
//!
//! `scripts/check.sh` runs this suite in release mode, where
//! `debug_assert!` compiles out — the assertions here are the ones that
//! must hold in the binaries users actually run.

use mpls_rbpc::graph::{
    par_all_sources_csr, CostModel, CsrGraph, DetRng, DijkstraScratch, EdgeId, FailureMask,
    FailureSet, Graph, Metric, NodeId, SptBatchScratch,
};
use mpls_rbpc::topo::{
    gnm_connected, internet_like_scaled, isp_topology, waxman, IspParams, WaxmanParams,
};

const BATCH_SIZES: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 3] = [1, 2, 8];

/// `k` sources spread over the node range (deduplicated by spread).
fn sample_sources(n: usize, k: usize) -> Vec<NodeId> {
    (0..k.min(n))
        .map(|i| NodeId::new(i * n / k.min(n)))
        .collect()
}

/// A random failure set: a few edges plus (optionally) one node,
/// mirroring the paper's single-failure scenarios.
fn random_failures(graph: &Graph, rng: &mut DetRng, fail_node: bool) -> FailureSet {
    let mut set = FailureSet::new();
    let m = graph.edge_count();
    for _ in 0..5 {
        set.fail_edge(EdgeId::new(rng.gen_range(0..m)));
    }
    if fail_node && graph.node_count() > 2 {
        set.fail_node(NodeId::new(1 + rng.gen_range(0..graph.node_count() - 1)));
    }
    set
}

/// The core property: for every mask × batch size × thread count, the
/// batched kernel reproduces the scalar trees bit for bit, through one
/// scratch reused across every configuration.
fn assert_batch_matches_scalar(name: &str, graph: &Graph, metric: Metric, seed: u64) {
    let model = CostModel::new(metric, seed);
    let csr = CsrGraph::new(graph, &model);
    let n = csr.node_count();
    let mut scalar = DijkstraScratch::new(n);
    // One scratch across masks, batch sizes, and families-of-sources:
    // epoch reuse is part of the property under test.
    let mut batch = SptBatchScratch::new(0);

    let mut rng = DetRng::seed_from_u64(seed ^ 0xBA7C4);
    let masks: Vec<Option<FailureMask>> = vec![
        None,
        Some(FailureMask::from_set(
            &csr,
            &random_failures(graph, &mut rng, false),
        )),
        Some(FailureMask::from_set(
            &csr,
            &random_failures(graph, &mut rng, true),
        )),
    ];

    for (mi, mask) in masks.iter().enumerate() {
        for &k in &BATCH_SIZES {
            let sources = sample_sources(n, k);
            let want: Vec<_> = sources
                .iter()
                .map(|&s| csr.full_tree_masked(s, mask.as_ref(), &mut scalar))
                .collect();
            let got = csr.full_tree_batch(&sources, mask.as_ref(), &mut batch);
            assert_eq!(
                got, want,
                "{name}: batch diverged (mask {mi}, batch {k}, seed {seed})"
            );
            for (tree, &s) in got.iter().zip(&sources) {
                assert_eq!(
                    csr.validate_tree(tree, mask.as_ref()),
                    Ok(()),
                    "{name}: tree invariants at source {s:?} (mask {mi}, seed {seed})"
                );
                for v in (0..n).map(NodeId::new).filter(|&v| tree.reachable(v)) {
                    let path = tree.path_to(v).expect("a reached node has a tree path");
                    assert_eq!(
                        tree.base_dist(v),
                        Some(path.cost(graph, &model).base),
                        "{name}: base distance of {v:?} from {s:?} is not its path's \
                         edge-by-edge base cost (mask {mi}, seed {seed})"
                    );
                }
            }
            assert_eq!(
                batch.ties_total(),
                0,
                "{name}: exact tie (mask {mi}, batch {k}, seed {seed})"
            );

            // The parallel engine's workers run the same kernel.
            for threads in THREADS {
                let (trees, stats) = par_all_sources_csr(&csr, mask.as_ref(), &sources, threads);
                assert_eq!(
                    trees, want,
                    "{name}: parallel batch diverged ({threads} threads, mask {mi}, seed {seed})"
                );
                assert_eq!(
                    stats.total_ties(),
                    0,
                    "{name}: exact tie ({threads} threads, mask {mi}, batch {k}, seed {seed})"
                );
            }
        }
    }
}

#[test]
fn isp_family_matches_scalar() {
    let graph = isp_topology(IspParams::default(), 31).graph;
    assert_batch_matches_scalar("isp", &graph, Metric::Weighted, 1);
    assert_batch_matches_scalar("isp", &graph, Metric::Unweighted, 2);
}

#[test]
fn gnm_family_matches_scalar() {
    let graph = gnm_connected(400, 1_100, 20, 32);
    assert_batch_matches_scalar("gnm_400", &graph, Metric::Weighted, 4);
}

#[test]
fn powerlaw_family_matches_scalar() {
    // Unit weights: pins the level-synchronous two-queue discipline.
    let graph = internet_like_scaled(1_000, 33);
    assert_batch_matches_scalar("powerlaw_1000", &graph, Metric::Weighted, 5);
    assert_batch_matches_scalar("powerlaw_1000", &graph, Metric::Unweighted, 6);
}

#[test]
fn waxman_family_matches_scalar() {
    // Distance weights in 1..=100: a weighted batch, so the scalar loop.
    let graph = waxman(WaxmanParams::default(), 34);
    assert_batch_matches_scalar("waxman_300", &graph, Metric::Weighted, 7);
}

#[test]
fn heavy_weight_family_pins_heap_discipline() {
    // Base weights far past the level queue's 1 024-level window: the
    // batch runs the scalar loop, and a single relaxation can land in
    // its spill list.
    let mut graph = Graph::new(500);
    let mut rng = DetRng::seed_from_u64(35);
    while graph.edge_count() < 1_500 {
        let a = rng.gen_range(0..500usize);
        let b = rng.gen_range(0..500usize);
        if a != b {
            graph
                .add_edge(a, b, 1 + rng.gen_range(0..1_000_000u32))
                .expect("valid random edge");
        }
    }
    assert_batch_matches_scalar("heavy_500", &graph, Metric::Weighted, 8);
}
