//! Bench: regenerate Table 2 (source-router RBPC statistics), one
//! benchmark per failure class on the weighted ISP, plus the power-law
//! one-link block.

use rbpc_bench::{criterion_group, criterion_main, Criterion};
use rbpc_eval::{standard_suite, table2_block, EvalScale, FailureClass};
use std::hint::black_box;

fn bench_table2(c: &mut Criterion) {
    let suite = standard_suite(EvalScale::Quick, rbpc_bench::SEED);
    let isp = &suite[0];
    let oracle = isp.oracle(rbpc_bench::SEED);
    let pairs = rbpc_bench::pairs(&isp.graph, 40);

    // Emit the artifact once (all four classes on the ISP).
    let rows: Vec<_> = FailureClass::all()
        .into_iter()
        .map(|class| table2_block(&isp.name, &oracle, class, &pairs, 4))
        .collect();
    println!("\n{}", rbpc_eval::table2::render(&rows));

    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    for class in FailureClass::all() {
        g.bench_function(format!("isp_weighted/{class:?}"), |b| {
            b.iter(|| table2_block(&isp.name, &oracle, black_box(class), black_box(&pairs), 4))
        });
    }
    // Large-graph block through the bounded store.
    let asg = &suite[3];
    let bounded = asg.oracle(rbpc_bench::SEED);
    let as_pairs = rbpc_bench::pairs(&asg.graph, asg.samples);
    g.bench_function("as_graph/OneLink_bounded_store", |b| {
        b.iter(|| {
            table2_block(
                &asg.name,
                &bounded,
                FailureClass::OneLink,
                black_box(&as_pairs),
                4,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
