//! Property-based tests (proptest) over randomly generated graphs:
//! the paper's invariants must hold on *every* graph, not just the zoo.

use proptest::prelude::*;
use sling_simrank::baselines::power_simrank;
use sling_simrank::core::reference::exact_hp_to_target;
use sling_simrank::core::{QueryWorkspace, SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::{DiGraph, GraphBuilder, NodeId};

const C: f64 = 0.6;

/// Strategy: arbitrary directed graphs with 2..=14 nodes and up to 40
/// candidate edges (dedup'd, self-loops dropped by the builder).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..=14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..40).prop_map(move |edges| {
            let mut b = GraphBuilder::with_nodes(n);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Theorem 1: every single-pair estimate is within eps of truth.
    #[test]
    fn estimates_within_eps(g in arb_graph(), seed in 0u64..1000) {
        let eps = 0.1;
        let config = SlingConfig::from_epsilon(C, eps)
            .with_seed(seed)
            .with_exact_diagonal(false);
        let idx = SharedEngine::from(SlingIndex::build(&g, &config).unwrap());
        let truth = power_simrank(&g, C, 60);
        let mut ws = QueryWorkspace::new();
        for u in g.nodes() {
            for v in g.nodes() {
                let est = idx.single_pair_with(&g, &mut ws, u, v).unwrap();
                let t = truth.get(u.index(), v.index());
                prop_assert!((est - t).abs() <= eps,
                    "({u:?},{v:?}): est {est} truth {t}");
            }
        }
    }

    /// Estimates are symmetric and within [0, 1].
    #[test]
    fn estimates_symmetric_and_bounded(g in arb_graph(), seed in 0u64..1000) {
        let config = SlingConfig::from_epsilon(C, 0.1).with_seed(seed);
        let idx = SharedEngine::from(SlingIndex::build(&g, &config).unwrap());
        let mut ws = QueryWorkspace::new();
        for u in g.nodes() {
            for v in g.nodes() {
                let a = idx.single_pair_with(&g, &mut ws, u, v).unwrap();
                let b = idx.single_pair_with(&g, &mut ws, v, u).unwrap();
                prop_assert!((a - b).abs() < 1e-12);
                prop_assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    /// Correction factors live in [1-c, 1] (Eq. 14 feasible range).
    #[test]
    fn correction_factors_in_range(g in arb_graph(), seed in 0u64..1000) {
        let config = SlingConfig::from_epsilon(C, 0.1).with_seed(seed);
        let idx = SlingIndex::build(&g, &config).unwrap();
        for &d in idx.correction_factors() {
            prop_assert!((1.0 - C - 1e-12..=1.0 + 1e-12).contains(&d), "d = {d}");
        }
    }

    /// Lemma 7 / Observation 1: stored HP entries underestimate the true
    /// hitting probabilities and exceed theta.
    #[test]
    fn stored_entries_underestimate_and_exceed_theta(g in arb_graph(), seed in 0u64..1000) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(false);
        let idx = SlingIndex::build(&g, &config).unwrap();
        for v in g.nodes() {
            for e in idx.stored_entries(v) {
                prop_assert!(e.value > config.theta);
                let exact = exact_hp_to_target(&g, C, e.node, e.step);
                let h = exact[e.step as usize][v.index()];
                prop_assert!(e.value <= h + 1e-12,
                    "h̃ {} > h {h} at ({v:?}, step {}, {:?})", e.value, e.step, e.node);
            }
        }
    }

    /// Algorithm 6 and Algorithm 3 agree within the Lemma 12 slack.
    #[test]
    fn single_source_consistent_with_pairs(g in arb_graph(), seed in 0u64..1000) {
        let config = SlingConfig::from_epsilon(C, 0.1).with_seed(seed);
        let idx = SharedEngine::from(SlingIndex::build(&g, &config).unwrap());
        let mut ws = QueryWorkspace::new();
        let sc = C.sqrt();
        let slack = 2.0 * sc * config.theta / ((1.0 - sc) * (1.0 - C)) + 1e-9;
        for u in g.nodes() {
            let a6 = idx.single_source(&g, u).unwrap();
            let a3: Vec<f64> = g
                .nodes()
                .map(|v| idx.single_pair_with(&g, &mut ws, u, v).unwrap())
                .collect();
            for v in g.nodes() {
                prop_assert!((a6[v.index()] - a3[v.index()]).abs() <= slack);
            }
        }
    }

    /// Serialization round-trips bit-for-bit on arbitrary graphs.
    #[test]
    fn format_round_trip(g in arb_graph(), seed in 0u64..1000) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_enhancement(seed % 2 == 0);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes();
        let back = SlingIndex::from_bytes(&g, &bytes).unwrap();
        prop_assert_eq!(bytes, back.to_bytes());
    }

    /// Graph builder invariants under arbitrary edge soups.
    #[test]
    fn graph_builder_invariants(n in 1usize..20,
                                edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)) {
        let mut b = GraphBuilder::with_nodes(n);
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build().unwrap();
        prop_assert!(g.validate());
        // No self loops, no duplicates, degree sums match m.
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(in_sum, g.num_edges());
        prop_assert_eq!(out_sum, g.num_edges());
        for (u, v) in g.edges() {
            prop_assert_ne!(u, v);
        }
    }

    /// SimRank ground truth itself is symmetric, bounded, and 1 on the
    /// diagonal — a sanity property of the oracle the other tests use.
    #[test]
    fn power_method_invariants(g in arb_graph()) {
        let s = power_simrank(&g, C, 40);
        for u in g.nodes() {
            prop_assert!((s.get(u.index(), u.index()) - 1.0).abs() < 1e-12);
            for v in g.nodes() {
                prop_assert!((s.get(u.index(), v.index()) - s.get(v.index(), u.index())).abs() < 1e-12);
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s.get(u.index(), v.index())));
            }
        }
    }
}

/// Regression guard: an empty graph (isolated nodes only) must build and
/// answer queries without panicking.
#[test]
fn isolated_nodes_only() {
    let g = GraphBuilder::with_nodes(5).build().unwrap();
    let idx =
        SharedEngine::from(SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1)).unwrap());
    assert_eq!(idx.single_pair(&g, NodeId(0), NodeId(1)).unwrap(), 0.0);
    assert_eq!(idx.single_pair(&g, NodeId(2), NodeId(2)).unwrap(), 1.0);
    let row = idx.single_source(&g, NodeId(3)).unwrap();
    assert_eq!(row, vec![0.0, 0.0, 0.0, 1.0, 0.0]);
}
