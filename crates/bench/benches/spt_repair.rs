//! Micro-bench: incremental SPT repair (the scalar reference
//! `rbpc_graph::repair_after_failures` and the CSR kernel) vs a full
//! Dijkstra rebuild after a single edge failure.
//!
//! The failed edge is a tree edge whose detached subtree has the *median*
//! size among all tree edges, so the repair workload is neither a leaf
//! (trivially cheap) nor a root-adjacent cut (rebuild-sized).
//!
//! * `full_tree` — Dijkstra from scratch over the failed view (baseline).
//! * `repair_single_edge` — repair of a pre-cloned tree; the clone happens
//!   in the untimed batch setup, so this is the pure algorithmic cost the
//!   bench gate holds ≥ 5× faster than `full_tree` on `powerlaw_5000`.
//! * `clone_repair` — clone + repair in the timed routine with the
//!   scalar reference over the `Vec<Vec>` graph, which the base-path
//!   stores ran per `with_spt_under` call before the CSR kernel.
//! * `csr_repair` — the same failure through the CSR kernel
//!   ([`CsrGraph::repair_tree`]: clone + repair over precomputed weights
//!   and a failure bitmask), the full-tree path the stores run now; the
//!   bench gate holds it ≥ 1.5× faster than `clone_repair` on
//!   `powerlaw_5000`.
//! * `repair_path_large` (`powerlaw_5000`) — the shape of one
//!   restoration: [`CsrGraph::repair_path`] under the cut at the 99th
//!   percentile of subtree size (32 nodes on this map), toward the
//!   detached node at the region's median depth, so the search settles
//!   part of the region and stops once the target settles. The arena's
//!   run is ended in untimed set-up, so every call repairs afresh.
//!   Reported, not gated.
//! * `repair_path_1k` (`powerlaw_5000`) — the same search in the tree of
//!   the first source that has a subtree of at least 1 000 nodes (source
//!   1; source 0 is a hub), under the cut above the smallest such subtree
//!   (1 334 nodes), the region size of a fresh repair on a 4 000-node map
//!   with every tree resident. Reported, not gated.
//! * `event_paths` (`isp_200`, `gnm_1000`) — one failure event's
//!   restorations from one source: the base-path store's `path_under` to
//!   every target the failure detaches, in index order. The failed edge
//!   is the tree edge at the 90th percentile of subtree size (5 and 9
//!   targets), since the median one detaches a single node. The first
//!   call repairs until its target settles and the others resume that
//!   repair. An untimed full repair through the store before each
//!   iteration ends the run its arena holds, so each iteration starts a
//!   fresh repair instead of resuming the last.

use rbpc_bench::{criterion_group, criterion_main, BatchSize, Criterion};
use rbpc_core::{BasePathOracle, BasePaths};
use rbpc_graph::{
    repair_after_failures, shortest_path_tree, CostModel, CsrGraph, EdgeId, FailureSet, Metric,
    NodeId, RepairArena, ShortestPathTree,
};
use rbpc_topo::{gnm_connected, internet_like_scaled};
use std::cell::RefCell;
use std::hint::black_box;

/// The tree edges of `tree` with the node below each, ordered by
/// subtree size.
fn subtrees_by_size(tree: &ShortestPathTree) -> Vec<(usize, EdgeId, NodeId)> {
    let mut sized: Vec<(usize, EdgeId, NodeId)> = (0..tree.node_count())
        .filter_map(|i| {
            let v = NodeId::new(i);
            let e = tree.parent_edge(v)?;
            Some((tree.subtree(v).len(), e, v))
        })
        .collect();
    sized.sort_unstable();
    sized
}

/// Picks the tree edge whose subtree size is the median over all tree
/// edges of `tree` — a representative single-link failure.
fn median_subtree_edge(tree: &ShortestPathTree) -> EdgeId {
    let sized = subtrees_by_size(tree);
    sized[sized.len() / 2].1
}

fn bench_spt_repair(c: &mut Criterion) {
    let isp = rbpc_bench::isp_graph();
    let random = gnm_connected(1_000, 3_000, 20, rbpc_bench::SEED);
    let power = internet_like_scaled(5_000, rbpc_bench::SEED);
    let model = CostModel::new(Metric::Weighted, rbpc_bench::SEED);

    let mut g = c.benchmark_group("spt_repair");
    for (name, graph) in [
        ("isp_200", &isp),
        ("gnm_1000", &random),
        ("powerlaw_5000", &power),
    ] {
        let source = NodeId::new(0);
        let base = shortest_path_tree(graph, &model, source);
        let failed = median_subtree_edge(&base);
        let failures = FailureSet::of_edge(failed);
        let view = failures.view(graph);

        g.bench_function(format!("{name}/full_tree"), |b| {
            b.iter(|| shortest_path_tree(black_box(&view), &model, source))
        });
        g.bench_function(format!("{name}/repair_single_edge"), |b| {
            b.iter_batched(
                || base.clone(),
                |mut tree| {
                    repair_after_failures(&mut tree, black_box(&view), &model, &[failed]);
                    tree
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(format!("{name}/clone_repair"), |b| {
            b.iter(|| {
                let mut tree = base.clone();
                repair_after_failures(&mut tree, black_box(&view), &model, &[failed]);
                tree
            })
        });
        let csr = CsrGraph::new(graph, &model);
        let mut arena = RefCell::new(RepairArena::default());
        g.bench_function(format!("{name}/csr_repair"), |b| {
            b.iter(|| {
                csr.repair_tree(&base, black_box(&failures), arena.get_mut())
                    .0
            })
        });
        let sized = subtrees_by_size(&base);
        if name == "powerlaw_5000" {
            // The median cut detaches about one node; a restoration's
            // repair searches a larger region toward one target. The
            // smallest subtree of 1 000 nodes or more is the size of a
            // fresh repair on a 4 000-node map with every tree resident;
            // source 0 is a hub whose subtrees stay below 600 nodes, so
            // that row repairs the tree of the first source that has one.
            let (resident, resident_cut) = (1..graph.node_count())
                .find_map(|s| {
                    let tree = shortest_path_tree(graph, &model, NodeId::new(s));
                    let cut = *subtrees_by_size(&tree)
                        .iter()
                        .find(|&&(size, _, _)| size >= 1_000)?;
                    Some((tree, cut))
                })
                .expect("a subtree of 1 000 nodes");
            for (row, base, (_, cut, below)) in [
                ("repair_path_large", &base, sized[sized.len() * 99 / 100]),
                ("repair_path_1k", &resident, resident_cut),
            ] {
                let failures = FailureSet::of_edge(cut);
                let mut region = base.subtree(below);
                region.sort_by_key(|&v| (base.path_to(v).map_or(0, |p| p.edges().len()), v));
                let target = region[region.len() / 2];
                let clear = FailureSet::new();
                g.bench_function(format!("{name}/{row}"), |b| {
                    b.iter_batched(
                        // A run under no failures (an empty region) ends
                        // the one the timed call would resume.
                        || csr.repair_path(base, &clear, target, &mut arena.borrow_mut()),
                        |_| {
                            csr.repair_path(
                                base,
                                black_box(&failures),
                                target,
                                &mut arena.borrow_mut(),
                            )
                            .0
                        },
                        BatchSize::PerIteration,
                    )
                });
            }
            continue;
        }
        // The median cut detaches a single node; an event that breaks
        // many LSPs cuts at the 90th percentile of subtree size.
        let (_, cut, below) = sized[sized.len() * 9 / 10];
        let failures = FailureSet::of_edge(cut);
        let mut targets = base.subtree(below);
        targets.sort_unstable();
        let store = BasePaths::build(graph.clone(), model);
        g.bench_function(format!("{name}/event_paths"), |b| {
            b.iter_batched(
                || store.with_spt_under(source, &failures, |_| ()),
                |()| {
                    targets
                        .iter()
                        .filter_map(|&t| store.path_under(source, t, black_box(&failures)))
                        .count()
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spt_repair);
criterion_main!(benches);
