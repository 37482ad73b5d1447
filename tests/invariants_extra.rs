//! Additional cross-crate invariant tests: non-default decay factors,
//! self-loops, dangling-heavy topologies, and the Observation 1 size
//! bound on the materialized index.

use sling_simrank::baselines::power_simrank;
use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::{barabasi_albert, star_graph};
use sling_simrank::graph::{DiGraph, GraphBuilder, NodeId};

fn assert_within_eps(g: &DiGraph, c: f64, config: &SlingConfig) {
    let truth = power_simrank(g, c, 80);
    let idx = SharedEngine::from(SlingIndex::build(g, config).unwrap());
    for u in g.nodes() {
        let row = idx.single_source(g, u).unwrap();
        for v in g.nodes() {
            let err = (row[v.index()] - truth.get(u.index(), v.index())).abs();
            assert!(err <= config.epsilon, "c={c}: err {err} at ({u:?},{v:?})");
        }
    }
}

#[test]
fn decay_factor_0_8_still_respects_theorem_1() {
    // The paper's other common setting, c = 0.8. Walks are longer
    // (expected length 1/(1-√0.8) ≈ 9.5) and θ must shrink; the
    // guarantee must be unaffected.
    let c = 0.8;
    let g = barabasi_albert(60, 2, 41).unwrap();
    let config = SlingConfig::from_epsilon(c, 0.1).with_seed(4);
    config.validate().unwrap();
    assert_within_eps(&g, c, &config);
}

#[test]
fn decay_factor_0_3_small_c() {
    let c = 0.3;
    let g = barabasi_albert(60, 2, 43).unwrap();
    let config = SlingConfig::from_epsilon(c, 0.08).with_seed(6);
    assert_within_eps(&g, c, &config);
}

#[test]
fn self_loops_are_supported_when_kept() {
    // A self-loop makes a node its own in-neighbor: √c-walks can stand
    // still, and s(u, v) of Eq. (1) changes accordingly. The whole
    // pipeline (power method included) must agree under that semantics.
    let mut b = GraphBuilder::new().keep_self_loops(true);
    b.extend_edges([(0, 0), (0, 1), (1, 2), (2, 0), (2, 1), (1, 1)]);
    let g = b.build().unwrap();
    assert!(g.has_edge(NodeId(0), NodeId(0)));
    let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(8);
    assert_within_eps(&g, 0.6, &config);
}

#[test]
fn star_of_stars_dangling_cascade() {
    // Hub 0 receives edges from q sub-hubs; each sub-hub receives edges
    // from its own leaves. Most of the graph is dangling; walks die in
    // two steps. SimRank between sub-hubs: their in-neighbor sets are
    // disjoint leaf sets (all dangling), so s = 0; SLING must agree.
    let q = 4u32;
    let leaves = 3u32;
    let mut b = GraphBuilder::new();
    for h in 1..=q {
        b.add_edge(h, 0u32);
        for l in 0..leaves {
            b.add_edge(q + 1 + (h - 1) * leaves + l, h);
        }
    }
    let g = b.build().unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(2);
    let idx = SharedEngine::from(SlingIndex::build(&g, &config).unwrap());
    assert_eq!(idx.single_pair(&g, NodeId(1), NodeId(2)).unwrap(), 0.0);
    assert_within_eps(&g, 0.6, &config);
}

#[test]
fn observation1_bounds_stored_entries_per_node() {
    // |H(v)| ≤ Σ_ℓ (√c)^ℓ / θ = 1/(θ(1-√c)) for every node.
    let g = barabasi_albert(400, 3, 13).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.05)
        .with_seed(3)
        .with_space_reduction(false);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let bound = (1.0 / (config.theta * (1.0 - 0.6f64.sqrt()))).ceil() as usize;
    for v in g.nodes() {
        let len = idx.stored_entries(v).count();
        assert!(len <= bound, "|H({v:?})| = {len} > bound {bound}");
    }
    // And the per-level bound: entries at step ℓ are ≤ (√c)^ℓ/θ.
    let sc = 0.6f64.sqrt();
    for v in g.nodes().take(50) {
        let mut per_level = std::collections::HashMap::new();
        for e in idx.stored_entries(v) {
            *per_level.entry(e.step).or_insert(0usize) += 1;
        }
        for (&l, &count) in &per_level {
            let cap = (sc.powi(l as i32) / config.theta).floor() as usize;
            assert!(count <= cap.max(1), "level {l}: {count} > {cap}");
        }
    }
}

#[test]
fn index_size_scales_inversely_with_eps() {
    // The O(n/ε) space claim, measured: halving ε should increase the
    // number of stored entries (and never shrink it).
    let g = barabasi_albert(300, 3, 19).unwrap();
    let mut sizes = Vec::new();
    for eps in [0.2, 0.1, 0.05] {
        let config = SlingConfig::from_epsilon(0.6, eps)
            .with_seed(5)
            .with_space_reduction(false);
        let idx = SlingIndex::build(&g, &config).unwrap();
        sizes.push(idx.stats().entries_stored);
    }
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
}

#[test]
fn disconnected_components_never_mix() {
    // Two disjoint cliques with NO bridge: cross-component SimRank is 0
    // and H-sets never reference the other component.
    let k = 4u32;
    let mut b = GraphBuilder::new().symmetric(true);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v);
            b.add_edge(u + k, v + k);
        }
    }
    let g = b.build().unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1).with_seed(1);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let engine = SharedEngine::from(idx.clone());
    for u in 0..k {
        for v in k..2 * k {
            assert_eq!(engine.single_pair(&g, NodeId(u), NodeId(v)).unwrap(), 0.0);
        }
        for e in idx.stored_entries(NodeId(u)) {
            assert!(e.node.0 < k, "H({u}) references other component");
        }
    }
}

#[test]
fn star_hub_correction_factor_exact_cases_survive_build() {
    let g = star_graph(9);
    let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(7);
    let idx = SlingIndex::build(&g, &config).unwrap();
    // Leaves are dangling: d = 1 exactly. Hub: µ = 0, d = 1 - c/8.
    for leaf in 1..9 {
        assert_eq!(idx.correction_factor(NodeId(leaf)), 1.0);
    }
    assert!((idx.correction_factor(NodeId(0)) - (1.0 - 0.6 / 8.0)).abs() <= config.eps_d + 1e-9);
}
