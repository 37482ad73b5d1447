//! Cross-crate integration tests: SLING (every optimization combination)
//! against the power-method ground truth, on a zoo of graph shapes.

use sling_simrank::baselines::power_simrank;
use sling_simrank::core::{QueryWorkspace, SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::{
    barabasi_albert, complete_graph, cycle_graph, erdos_renyi_directed, rmat, star_graph,
    two_cliques_bridge, RmatConfig,
};
use sling_simrank::graph::DiGraph;

const C: f64 = 0.6;

fn zoo() -> Vec<(&'static str, DiGraph)> {
    vec![
        ("cycle", cycle_graph(12)),
        ("star", star_graph(10)),
        ("complete", complete_graph(6)),
        ("two_cliques", two_cliques_bridge(5)),
        ("ba", barabasi_albert(120, 2, 3).unwrap()),
        ("er", erdos_renyi_directed(80, 240, 4).unwrap()),
        ("rmat", rmat(7, 400, RmatConfig::default(), 5).unwrap()),
    ]
}

fn check_graph(name: &str, g: &DiGraph, config: &SlingConfig) {
    let eps = config.epsilon;
    let truth = power_simrank(g, C, 60);
    let idx = SharedEngine::from(SlingIndex::build(g, config).unwrap());
    let mut ws = QueryWorkspace::new();
    let mut worst_pair = 0.0f64;
    for u in g.nodes() {
        // Single-source (Algorithm 6) and single-pair (Algorithm 3) both
        // within eps of ground truth.
        let row = idx.single_source(g, u).unwrap();
        for v in g.nodes() {
            let t = truth.get(u.index(), v.index());
            let sp = idx.single_pair_with(g, &mut ws, u, v).unwrap();
            let ss = row[v.index()];
            worst_pair = worst_pair.max((sp - t).abs());
            assert!(
                (sp - t).abs() <= eps,
                "{name}: single-pair err {} at ({u:?},{v:?})",
                (sp - t).abs()
            );
            assert!(
                (ss - t).abs() <= eps,
                "{name}: single-source err {} at ({u:?},{v:?})",
                (ss - t).abs()
            );
        }
    }
    // The observed error is usually far below the bound; just record it.
    assert!(worst_pair <= eps);
}

#[test]
fn within_eps_with_default_optimizations() {
    let config = SlingConfig::from_epsilon(C, 0.05).with_seed(11);
    for (name, g) in zoo() {
        check_graph(name, &g, &config);
    }
}

#[test]
fn within_eps_with_all_optimizations_on() {
    let config = SlingConfig::from_epsilon(C, 0.05)
        .with_seed(12)
        .with_enhancement(true);
    for (name, g) in zoo() {
        check_graph(name, &g, &config);
    }
}

#[test]
fn within_eps_with_all_optimizations_off() {
    let config = SlingConfig::from_epsilon(C, 0.05)
        .with_seed(13)
        .with_space_reduction(false)
        .with_adaptive_dk(false)
        .with_exact_diagonal(false);
    for (name, g) in zoo() {
        check_graph(name, &g, &config);
    }
}

#[test]
fn tighter_epsilon_tightens_observed_error() {
    let g = two_cliques_bridge(5);
    let truth = power_simrank(&g, C, 60);
    let mut errors = Vec::new();
    for eps in [0.2, 0.05] {
        let idx = SharedEngine::from(
            SlingIndex::build(
                &g,
                &SlingConfig::from_epsilon(C, eps)
                    .with_seed(7)
                    .with_exact_diagonal(false),
            )
            .unwrap(),
        );
        let mut worst = 0.0f64;
        for u in g.nodes() {
            let row = idx.single_source(&g, u).unwrap();
            for v in g.nodes() {
                worst = worst.max((row[v.index()] - truth.get(u.index(), v.index())).abs());
            }
        }
        errors.push(worst);
    }
    assert!(
        errors[1] <= errors[0] + 1e-9,
        "eps=0.05 worst error {} should not exceed eps=0.2 worst {}",
        errors[1],
        errors[0]
    );
}

#[test]
fn correction_factor_error_respects_eps_d_bound() {
    use sling_simrank::core::reference::{exact_dk, exact_simrank};
    let g = barabasi_albert(80, 2, 9).unwrap();
    let config = SlingConfig::from_epsilon(C, 0.05).with_seed(21);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let truth = exact_simrank(&g, C, 60);
    let dk = exact_dk(&g, C, &truth);
    for (k, (&est, &exact)) in idx.correction_factors().iter().zip(&dk).enumerate() {
        assert!(
            (est - exact).abs() <= config.eps_d + 1e-9,
            "node {k}: |{est} - {exact}| > eps_d"
        );
    }
}
