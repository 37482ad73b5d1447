//! Criterion benchmark behind the Table 1 complexity check: single-pair
//! query latency as ε shrinks — the measured curve should scale like
//! `O(1/ε)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sling_bench::{params_for, sample_pairs, sling_config};
use sling_core::{QueryWorkspace, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};

fn bench_eps_scaling(c: &mut Criterion) {
    let spec = by_name("as-sim").unwrap();
    let graph = spec.build();
    let pairs = sample_pairs(graph.num_nodes(), 256, 7);

    let mut group = c.benchmark_group("table1/pair_query_vs_eps");
    group.sample_size(20);
    for eps in [0.2, 0.1, 0.05, 0.025] {
        let params = params_for(Tier::Small, Some(eps));
        let index =
            SharedEngine::from(SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap());
        let mut ws = QueryWorkspace::new();
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, _| {
            b.iter(|| {
                let (u, v) = pairs[cursor % pairs.len()];
                cursor += 1;
                std::hint::black_box(index.single_pair_with(&graph, &mut ws, u, v).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eps_scaling);
criterion_main!(benches);
