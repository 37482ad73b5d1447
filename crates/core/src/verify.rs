//! Empirical verification of the Theorem-1 guarantee.
//!
//! The index promises `|s̃(u,v) − s(u,v)| ≤ ε` for every pair with
//! probability `1 − δ`. This module lets a deployment *check* that claim
//! on its own graph:
//!
//! * [`audit_exact`] — compare every pair against the power-method ground
//!   truth (Lemma 1 iteration count). `O(n²)` memory; for the same small
//!   graphs the paper's Figures 5–7 use.
//! * [`audit_sampled`] — for large graphs: spot-check random pairs
//!   against high-precision Monte-Carlo √c-walk estimates (Lemma 3). The
//!   MC reference itself carries `ε_mc` error, so only deviations beyond
//!   `ε + ε_mc` count as violations.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::index::QueryWorkspace;
use crate::reference::exact_simrank;
use crate::store::{HpStore, SharedEngine};
use crate::walk::WalkEngine;

/// Outcome of an error audit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorAudit {
    /// The ε the index was built for.
    pub epsilon: f64,
    /// Largest observed absolute error.
    pub max_error: f64,
    /// Mean absolute error over checked pairs.
    pub mean_error: f64,
    /// Pairs whose error exceeded the allowed budget.
    pub violations: usize,
    /// Pairs checked.
    pub pairs_checked: usize,
}

impl ErrorAudit {
    /// Whether the audit observed no violation.
    pub fn passed(&self) -> bool {
        self.violations == 0
    }
}

impl std::fmt::Display for ErrorAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit: {} pairs, max err {:.5}, mean err {:.6}, eps {:.4}, {} violations",
            self.pairs_checked, self.max_error, self.mean_error, self.epsilon, self.violations
        )
    }
}

/// Audit every pair against the power-method ground truth (50 iterations:
/// residual `< c^50/(1-c) ≈ 10^-11` for `c = 0.6`, negligible next to ε).
/// Any backend can be audited; a store read error aborts the audit.
///
/// ```
/// use sling_core::verify::audit_exact;
/// use sling_core::{SharedEngine, SlingConfig, SlingIndex};
/// use sling_graph::generators::complete_graph;
///
/// let g = complete_graph(5);
/// let index = SlingIndex::build(&g, &SlingConfig::from_epsilon(0.6, 0.05)).unwrap();
/// let audit = audit_exact(&SharedEngine::from(index), &g).unwrap();
/// assert!(audit.passed(), "{audit}");
/// ```
pub fn audit_exact<S: HpStore>(
    engine: &SharedEngine<S>,
    graph: &DiGraph,
) -> Result<ErrorAudit, SlingError> {
    let c = engine.config().c;
    let eps = engine.config().epsilon;
    let truth = exact_simrank(graph, c, 50);
    let mut ws = QueryWorkspace::new();
    let mut max_error: f64 = 0.0;
    let mut total = 0.0;
    let mut violations = 0;
    let mut checked = 0;
    for u in graph.nodes() {
        for v in graph.nodes() {
            let got = engine.single_pair_with(graph, &mut ws, u, v)?;
            let err = (got - truth[u.index()][v.index()]).abs();
            max_error = max_error.max(err);
            total += err;
            checked += 1;
            if err > eps {
                violations += 1;
            }
        }
    }
    Ok(ErrorAudit {
        epsilon: eps,
        max_error,
        mean_error: if checked == 0 {
            0.0
        } else {
            total / checked as f64
        },
        violations,
        pairs_checked: checked,
    })
}

/// Audit `pairs` random pairs against Monte-Carlo references built from
/// `mc_pairs` √c-walk pairs each. Deviations beyond `ε + ε_mc` count as
/// violations, where `ε_mc = sqrt(3 ln(2/δ_mc) / mc_pairs)` is the
/// Chernoff half-width at `δ_mc = 10⁻⁴` per reference.
pub fn audit_sampled<S: HpStore>(
    engine: &SharedEngine<S>,
    graph: &DiGraph,
    pairs: usize,
    mc_pairs: u32,
    seed: u64,
) -> Result<ErrorAudit, SlingError> {
    let c = engine.config().c;
    let eps = engine.config().epsilon;
    let eps_mc = (3.0 * (2.0f64 / 1e-4).ln() / mc_pairs as f64).sqrt();
    let walks = WalkEngine::new(graph, c);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ws = QueryWorkspace::new();
    let n = graph.num_nodes() as u32;
    let mut max_error: f64 = 0.0;
    let mut total = 0.0;
    let mut violations = 0;
    for _ in 0..pairs {
        let u = NodeId(rng.random_range(0..n));
        let v = NodeId(rng.random_range(0..n));
        if u == v {
            continue;
        }
        let reference = walks.estimate_simrank(&mut rng, u, v, mc_pairs);
        let got = engine.single_pair_with(graph, &mut ws, u, v)?;
        let err = (got - reference).abs();
        max_error = max_error.max(err);
        total += err;
        if err > eps + eps_mc {
            violations += 1;
        }
    }
    Ok(ErrorAudit {
        epsilon: eps,
        max_error,
        mean_error: if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        },
        violations,
        pairs_checked: pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CompressOptions;
    use crate::config::SlingConfig;
    use crate::index::SlingIndex;
    use sling_graph::generators::{barabasi_albert, complete_graph, two_cliques_bridge};

    const C: f64 = 0.6;

    #[test]
    fn exact_audit_passes_on_small_graphs() {
        for g in [two_cliques_bridge(4), complete_graph(5)] {
            let idx = SlingIndex::build(
                &g,
                &SlingConfig::from_epsilon(C, 0.05)
                    .with_seed(9)
                    .with_exact_diagonal(false),
            )
            .unwrap();
            let audit = audit_exact(&SharedEngine::from(idx), &g).unwrap();
            assert!(audit.passed(), "{audit}");
            assert!(audit.max_error <= 0.05);
            assert!(audit.mean_error <= audit.max_error);
            assert_eq!(audit.pairs_checked, g.num_nodes() * g.num_nodes());
        }
    }

    #[test]
    fn sampled_audit_passes_on_larger_graph() {
        let g = barabasi_albert(400, 3, 7).unwrap();
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.05).with_seed(3)).unwrap();
        let audit = audit_sampled(&SharedEngine::from(idx), &g, 100, 20_000, 123).unwrap();
        assert!(audit.passed(), "{audit}");
        assert!(audit.pairs_checked == 100);
    }

    #[test]
    fn audit_accounting_is_coherent() {
        let g = two_cliques_bridge(3);
        let idx = SlingIndex::build(
            &g,
            &SlingConfig::from_epsilon(C, 0.1)
                .with_seed(1)
                .with_exact_diagonal(false),
        )
        .unwrap();
        let audit = audit_exact(&SharedEngine::from(idx), &g).unwrap();
        assert_eq!(audit.epsilon, 0.1);
        assert!(audit.max_error >= audit.mean_error);
        let text = audit.to_string();
        assert!(text.contains("violations"), "{text}");
    }

    /// The audit runs on any backend: a quantized `SLNGIDX3` file served
    /// `mmap-compressed` still meets the ε guarantee on every pair.
    #[test]
    fn exact_audit_passes_on_quantized_v3_mmap_compressed() {
        let g = barabasi_albert(60, 3, 11).unwrap();
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.05).with_seed(5)).unwrap();
        let path = std::env::temp_dir().join(format!("sling_audit_q3_{}.slng", std::process::id()));
        let opts = CompressOptions {
            block_entries: 64,
            quantize_values: true,
        };
        idx.save_v3(&path, &opts).unwrap();
        let engine = SharedEngine::open_mmap_compressed(&g, &path).unwrap();
        assert!(!engine.store().values_exact(), "fixture is not quantized");
        let audit = audit_exact(&engine, &g).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(audit.violations, 0, "{audit}");
        assert_eq!(audit.pairs_checked, g.num_nodes() * g.num_nodes());
    }
}
