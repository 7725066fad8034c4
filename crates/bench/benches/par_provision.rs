//! Micro-bench: the parallel provisioning engine — all-resident store
//! builds and raw all-sources SPT batches at 1 vs 8 threads.
//!
//! The isp_200 rows sit *below* [`rbpc_graph::PAR_SERIAL_CUTOFF`], so
//! both thread counts take the inline path and should read ~equal — they
//! document that the cutoff removed the old threads_8 regression. The
//! gnm_1000 rows sit *exactly at* the cutoff (1 000 nodes engages the
//! chunk-stealing pool), pinning the boundary at a mid size. The
//! powerlaw_5000 rows are the graphs parallelism is *for*: on an 8-core
//! runner bench-gate asserts their `threads_8` beats `threads_1` by ≥2×
//! (the rule is skipped on smaller boxes), and the `sharded/` rows
//! assert the same for whole-map provisioning through the implicit
//! bounded store ([`ShardedBasePaths::prefetch`] over every source).

use rbpc_bench::{criterion_group, criterion_main, Criterion};
use rbpc_core::{BasePathStore, DenseBasePaths, ShardedBasePaths};
use rbpc_graph::{par_all_sources_csr, CostModel, CsrGraph, Metric, NodeId};
use rbpc_topo::{gnm_connected, internet_like_scaled};
use std::hint::black_box;

fn bench_par_provision(c: &mut Criterion) {
    let isp = rbpc_bench::isp_graph();
    let model = CostModel::new(Metric::Weighted, rbpc_bench::SEED);
    let csr = CsrGraph::new(&isp, &model);
    let sources: Vec<NodeId> = (0..isp.node_count()).map(NodeId::new).collect();

    let mut g = c.benchmark_group("par_provision");
    for threads in [1usize, 8] {
        g.bench_function(format!("isp_200/threads_{threads}"), |b| {
            b.iter(|| DenseBasePaths::build_with_threads(black_box(isp.clone()), model, threads))
        });
        g.bench_function(format!("isp_200/all_sources/threads_{threads}"), |b| {
            b.iter(|| par_all_sources_csr(black_box(&csr), None, &sources, threads))
        });
    }

    // Exactly at the serial cutoff: 1 000 nodes engages the parallel
    // chunk-stealing path, so these rows watch the boundary itself.
    let gnm = gnm_connected(1_000, 2_600, 12, rbpc_bench::SEED);
    let gnm_csr = CsrGraph::new(&gnm, &model);
    let gnm_sources: Vec<NodeId> = (0..64).map(|i| NodeId::new(i * 15)).collect();
    for threads in [1usize, 8] {
        g.bench_function(format!("gnm_1000/all_sources/threads_{threads}"), |b| {
            b.iter(|| par_all_sources_csr(black_box(&gnm_csr), None, &gnm_sources, threads))
        });
    }

    // Above the serial cutoff: 64 sources over the 5000-node power-law
    // graph, the scale where the fan-out actually pays.
    let power = internet_like_scaled(5_000, rbpc_bench::SEED);
    let power_csr = CsrGraph::new(&power, &model);
    let power_sources: Vec<NodeId> = (0..64).map(|i| NodeId::new(i * 78)).collect();
    for threads in [1usize, 8] {
        g.bench_function(format!("powerlaw_5000/threads_{threads}"), |b| {
            b.iter(|| par_all_sources_csr(black_box(&power_csr), None, &power_sources, threads))
        });
    }

    // Whole-map provisioning through the implicit sharded store: 128
    // consecutive sources of the 5000-node graph prefetched shard by
    // shard (4 batch builds) under a budget that holds them all —
    // provisioning throughput, not eviction.
    let shard_sources: Vec<NodeId> = (0..128).map(NodeId::new).collect();
    for threads in [1usize, 8] {
        g.bench_function(format!("sharded/powerlaw_5000/threads_{threads}"), |b| {
            b.iter(|| {
                let store = ShardedBasePaths::with_budget(
                    black_box(power.clone()),
                    model,
                    512,
                    32,
                    threads,
                );
                store.prefetch(&shard_sources)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_par_provision);
criterion_main!(benches);
