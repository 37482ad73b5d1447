//! Criterion micro-benchmark behind Figure 1: single-pair query latency
//! of SLING (Algorithm 3) vs the Linearize and MC baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use sling_baselines::linearize::Linearize;
use sling_baselines::monte_carlo::McIndex;
use sling_bench::{params_for, sample_pairs, sling_config, C};
use sling_core::{QueryWorkspace, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};

fn bench_single_pair(c: &mut Criterion) {
    let spec = by_name("grqc-sim").unwrap();
    let graph = spec.build();
    let params = params_for(Tier::Small, Some(0.05));
    let sling = SharedEngine::from(SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap());
    let lin = Linearize::build(&graph, &params.lin);
    let mc = McIndex::build(&graph, C, 1000, params.mc_truncation, 42);
    let pairs = sample_pairs(graph.num_nodes(), 256, 7);

    let mut group = c.benchmark_group("single_pair/grqc-sim");
    group.sample_size(20);
    let mut ws = QueryWorkspace::new();
    let mut cursor = 0usize;
    group.bench_function("sling_alg3", |b| {
        b.iter(|| {
            let (u, v) = pairs[cursor % pairs.len()];
            cursor += 1;
            std::hint::black_box(sling.single_pair_with(&graph, &mut ws, u, v).unwrap())
        })
    });
    let mut cursor = 0usize;
    group.bench_function("mc", |b| {
        b.iter(|| {
            let (u, v) = pairs[cursor % pairs.len()];
            cursor += 1;
            std::hint::black_box(mc.single_pair(u, v))
        })
    });
    let mut cursor = 0usize;
    group.bench_function("linearize", |b| {
        b.iter(|| {
            let (u, v) = pairs[cursor % pairs.len()];
            cursor += 1;
            std::hint::black_box(lin.single_pair(&graph, u, v))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_pair);
criterion_main!(benches);
