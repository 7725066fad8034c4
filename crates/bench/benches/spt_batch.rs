//! Micro-bench: the batched multi-source SPT kernel against the scalar
//! per-source loop — same topologies, same source lists, so bench-gate
//! can assert the unit-weight sweep's speedup directly on two families
//! (`spt_batch/powerlaw_5000/*` and `spt_batch/gnm_1000/*`, both
//! unit-weight graphs). The weighted `isp_200` row runs the scalar loop
//! in both columns: a weighted batch runs it per source.
//!
//! Each row provisions the same 32-source batch: `scalar` loops
//! [`CsrGraph::full_tree`] with a reused [`DijkstraScratch`] (the exact
//! shape the provisioning sweep had before the batch kernel), `batched`
//! runs [`CsrGraph::full_tree_batch`] with a reused [`SptBatchScratch`].
//! Trees are bit-identical either way (asserted once per family before
//! timing); on the unit-weight rows only the frontier and memory layout
//! differ.

use rbpc_bench::{criterion_group, criterion_main, Criterion};
use rbpc_graph::{CostModel, CsrGraph, DijkstraScratch, Metric, NodeId, SptBatchScratch};
use rbpc_topo::{gnm_connected, internet_like_scaled};
use std::hint::black_box;

/// Sources per batch: one default shard of the sharded store.
const BATCH: usize = 32;

fn bench_spt_batch(c: &mut Criterion) {
    let isp = rbpc_bench::isp_graph();
    let power = internet_like_scaled(5_000, rbpc_bench::SEED);
    // Unit weights, so its `batched` column runs the unit sweep.
    let random = gnm_connected(1_000, 3_000, 1, rbpc_bench::SEED);
    let model = CostModel::new(Metric::Weighted, rbpc_bench::SEED);

    let mut g = c.benchmark_group("spt_batch");
    // The gate's speedup rules divide this group's min_ns row pairs; min
    // over a larger sample count filters one-sided scheduler noise, so
    // the ratio converges to the true kernel speedup.
    g.sample_size(40);
    for (name, graph) in [
        ("isp_200", &isp),
        ("powerlaw_5000", &power),
        ("gnm_1000", &random),
    ] {
        let csr = CsrGraph::new(graph, &model);
        let n = csr.node_count();
        let sources: Vec<NodeId> = (0..BATCH).map(|i| NodeId::new(i * n / BATCH)).collect();

        // The two paths must agree exactly before we time them.
        let mut scalar = DijkstraScratch::new(n);
        let mut batch = SptBatchScratch::new(n);
        let want: Vec<_> = sources
            .iter()
            .map(|&s| csr.full_tree(s, &mut scalar))
            .collect();
        assert_eq!(csr.full_tree_batch(&sources, None, &mut batch), want);

        g.bench_function(format!("{name}/scalar"), |b| {
            b.iter(|| {
                for &s in &sources {
                    black_box(black_box(&csr).full_tree(s, &mut scalar));
                }
            })
        });
        g.bench_function(format!("{name}/batched"), |b| {
            b.iter(|| black_box(&csr).full_tree_batch(black_box(&sources), None, &mut batch))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spt_batch);
criterion_main!(benches);
