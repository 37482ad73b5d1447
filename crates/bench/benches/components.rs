//! Component-level micro-benchmarks and ablations:
//!
//! * √c-walk sampling throughput;
//! * Algorithm 1 vs Algorithm 4 correction-factor estimation (the §5.1
//!   ablation — the adaptive estimator should win by a wide margin);
//! * Algorithm 2 local-update traversal;
//! * space reduction on vs off at query time (the §5.2 ablation);
//! * accuracy enhancement on vs off at query time (the §5.3 ablation).

use criterion::{criterion_group, criterion_main, Criterion};
use sling_bench::{params_for, sample_pairs, sling_config, C};
use sling_core::correction::estimate_dk;
use sling_core::local_update::collect_from;
use sling_core::walk::{task_rng, WalkEngine};
use sling_core::{QueryWorkspace, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};
use sling_graph::NodeId;

fn bench_components(c: &mut Criterion) {
    let spec = by_name("as-sim").unwrap();
    let graph = spec.build();
    let engine = WalkEngine::new(&graph, C);

    let mut group = c.benchmark_group("components");
    group.sample_size(20);

    group.bench_function("sqrt_c_walk_sample", |b| {
        let mut rng = task_rng(1, 1);
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 1) % graph.num_nodes() as u32;
            std::hint::black_box(engine.sample_walk(&mut rng, NodeId(v)).len())
        })
    });

    group.bench_function("dk_algorithm1_fixed", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 1) % graph.num_nodes() as u32;
            let mut rng = task_rng(2, k as u64);
            std::hint::black_box(
                estimate_dk(&graph, &engine, &mut rng, NodeId(k), C, 0.02, 1e-4, false).d,
            )
        })
    });

    group.bench_function("dk_algorithm4_adaptive", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 1) % graph.num_nodes() as u32;
            let mut rng = task_rng(2, k as u64);
            std::hint::black_box(
                estimate_dk(&graph, &engine, &mut rng, NodeId(k), C, 0.02, 1e-4, true).d,
            )
        })
    });

    group.bench_function("local_update_traversal", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 1) % graph.num_nodes() as u32;
            std::hint::black_box(collect_from(&graph, C.sqrt(), 0.003, NodeId(k)).len())
        })
    });

    // Query-time ablations: space reduction and enhancement.
    let params = params_for(Tier::Small, Some(0.05));
    let pairs = sample_pairs(graph.num_nodes(), 256, 9);
    let base = sling_config(&params, 42);
    for (label, cfg) in [
        ("query_plain", base.clone().with_space_reduction(false)),
        ("query_space_reduced", base.clone()),
        ("query_enhanced", base.clone().with_enhancement(true)),
    ] {
        let index = SharedEngine::from(SlingIndex::build(&graph, &cfg).unwrap());
        let mut ws = QueryWorkspace::new();
        let mut cursor = 0usize;
        group.bench_function(label, |b| {
            b.iter(|| {
                let (u, v) = pairs[cursor % pairs.len()];
                cursor += 1;
                std::hint::black_box(index.single_pair_with(&graph, &mut ws, u, v).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
