//! The headline comparison: restoring a link failure by **RBPC** (one FEC
//! rewrite per affected source; local variant: one ILM splice) versus
//! **tearing down and re-establishing** every affected LSP — measured both
//! as wall-clock over the simulated MPLS control plane and as signaling
//! message counts.

use rbpc_bench::{criterion_group, criterion_main, Criterion};
use rbpc_core::baseline::{rbpc_local_cost, rbpc_source_cost, reestablish_cost};
use rbpc_core::{BasePathOracle, ProvisionedDomain, Restorer};
use rbpc_graph::NodeId;
use std::hint::black_box;

fn bench_restoration(c: &mut Criterion) {
    let oracle = rbpc_bench::isp_oracle();
    let graph = oracle.graph().clone();
    let restorer = Restorer::new(&oracle);
    let pairs = rbpc_bench::pairs(&graph, 150);

    // The busiest link among the sampled pairs.
    let mut usage = vec![0usize; graph.edge_count()];
    for &(s, t) in &pairs {
        if let Some(p) = oracle.base_path(s, t) {
            for &e in p.edges() {
                usage[e.index()] += 1;
            }
        }
    }
    let busiest = rbpc_graph::EdgeId::new(
        usage
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .map(|(i, _)| i)
            .unwrap(),
    );
    let plan = restorer.failover_plan(busiest, pairs.iter().copied());
    assert!(!plan.updates.is_empty());

    // Signaling-cost comparison, printed once.
    let rbpc = rbpc_source_cost(&plan);
    let local = rbpc_local_cost(&plan);
    let re = reestablish_cost(&plan);
    println!(
        "\nfailing {busiest}: {} affected routes\n  source RBPC:   {:>6} msgs {:>6} writes\n  local RBPC:    {:>6} msgs {:>6} writes\n  re-establish:  {:>6} msgs {:>6} writes",
        plan.updates.len(),
        rbpc.messages,
        rbpc.table_writes(),
        local.messages,
        local.table_writes(),
        re.messages,
        re.table_writes(),
    );

    let mut g = c.benchmark_group("restoration_vs_reestablish");
    g.sample_size(10);

    // RBPC: apply every FEC rewrite of the plan to a provisioned domain.
    g.bench_function("rbpc_apply_fec_rewrites", |b| {
        let mut dom = ProvisionedDomain::new(&oracle);
        for &(s, t) in &pairs {
            dom.provision_pair(&oracle, s, t).unwrap();
        }
        b.iter(|| {
            for update in &plan.updates {
                dom.apply_source_restoration(black_box(&update.restoration))
                    .unwrap();
            }
        })
    });

    // Re-establishment: tear down and re-signal every affected LSP.
    g.bench_function("teardown_and_reestablish", |b| {
        b.iter_batched(
            || {
                let mut dom = ProvisionedDomain::new(&oracle);
                let mut lsps = Vec::new();
                for update in &plan.updates {
                    let id = dom
                        .provision_pair(&oracle, update.source, update.dest)
                        .unwrap()
                        .unwrap();
                    lsps.push((id, update));
                }
                (dom, lsps)
            },
            |(mut dom, lsps)| {
                for (id, update) in lsps {
                    dom.net_mut().teardown_lsp(id).unwrap();
                    let new = dom
                        .net_mut()
                        .establish_lsp(update.restoration.backup.clone())
                        .unwrap();
                    dom.net_mut()
                        .set_fec_via_lsps(update.source, update.dest, &[new])
                        .unwrap();
                }
            },
            rbpc_bench::BatchSize::LargeInput,
        )
    });

    // Planning cost itself (what a router would precompute per link).
    g.bench_function("plan_computation", |b| {
        b.iter(|| restorer.failover_plan(black_box(busiest), pairs.iter().copied()))
    });
    g.finish();
    let _ = NodeId::new(0);
}

criterion_group!(benches, bench_restoration);
criterion_main!(benches);
