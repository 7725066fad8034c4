//! Ablation: ILM footprint and wall-clock of the three base-set
//! provisioning strategies — per-pair LSPs, per-pair with penultimate-hop
//! popping, and merged per-destination sink trees (§2's LSP merging).

use rbpc_bench::{criterion_group, criterion_main, Criterion};
use rbpc_core::{BasePathOracle, DenseBasePaths, ProvisionedDomain};
use rbpc_graph::{CostModel, Metric, NodeId};
use rbpc_topo::{isp_topology, IspParams};
use std::hint::black_box;

fn small_isp_oracle() -> DenseBasePaths {
    // Scaled-down ISP so all-pairs provisioning stays benchable.
    let g = isp_topology(
        IspParams {
            pops: 10,
            core_routers: 8,
            ..IspParams::default()
        },
        rbpc_bench::SEED,
    )
    .graph;
    DenseBasePaths::build(g, CostModel::new(Metric::Weighted, rbpc_bench::SEED))
}

fn bench_provisioning(c: &mut Criterion) {
    let oracle = small_isp_oracle();
    let n = oracle.graph().node_count();

    // Print the footprint ablation once.
    let mut pairs = ProvisionedDomain::new(&oracle);
    pairs.provision_all_pairs(&oracle).unwrap();
    let mut merged = ProvisionedDomain::new(&oracle);
    merged.provision_merged(&oracle).unwrap();
    let mut php = ProvisionedDomain::new(&oracle);
    {
        // PHP variant: establish per-pair LSPs with penultimate-hop popping.
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                if let Some(p) = oracle.base_path(NodeId::new(s), NodeId::new(t)) {
                    php.net_mut().establish_lsp_php(p).unwrap();
                }
            }
        }
    }
    println!(
        "\nILM entries over {n} routers: per-pair = {}, per-pair+PHP = {}, merged sink trees = {}",
        pairs.net().total_ilm_entries(),
        php.net().total_ilm_entries(),
        merged.net().total_ilm_entries(),
    );

    let mut g = c.benchmark_group("provisioning");
    g.sample_size(10);
    g.bench_function("all_pairs", |b| {
        b.iter(|| {
            let mut dom = ProvisionedDomain::new(&oracle);
            dom.provision_all_pairs(black_box(&oracle)).unwrap();
            dom.net().total_ilm_entries()
        })
    });
    g.bench_function("merged_sink_trees", |b| {
        b.iter(|| {
            let mut dom = ProvisionedDomain::new(&oracle);
            dom.provision_merged(black_box(&oracle)).unwrap();
            dom.net().total_ilm_entries()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_provisioning);
criterion_main!(benches);
