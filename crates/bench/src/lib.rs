//! Shared harness utilities for the `repro` binary and the criterion
//! benches: per-tier experiment parameters, method constructors, timing
//! and sampling helpers, and all-pairs matrix builders.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sling_baselines::linearize::{Linearize, LinearizeConfig};
use sling_baselines::monte_carlo::{theory_truncation, McIndex};
use sling_baselines::DenseMatrix;
use sling_core::single_source::SingleSourceWorkspace;
use sling_core::{QueryWorkspace, SlingConfig, SlingIndex};
use sling_graph::datasets::{DatasetSpec, Tier};
use sling_graph::{DiGraph, NodeId};

/// Decay factor used by every experiment (paper §7.1).
pub const C: f64 = 0.6;

/// Per-tier experiment parameters.
///
/// The Small tier uses the paper's exact setting (ε = 0.025). Larger
/// tiers relax ε so the full harness finishes on a laptop; Theorem 1
/// still holds at the stated ε for every run.
#[derive(Clone, Debug)]
pub struct TierParams {
    /// SLING accuracy target.
    pub eps: f64,
    /// Monte Carlo walks per node for the timing experiments. The paper
    /// sizes MC for the same ε as SLING, which makes its index and query
    /// cost large — we use a capped-but-large count that preserves the
    /// ordering (MC slowest / biggest) at laptop scale.
    pub mc_walks: usize,
    /// Monte Carlo walks per node for the all-pairs accuracy experiments
    /// (Figures 5-7), where an n² × walks scan must stay feasible.
    pub mc_walks_accuracy: usize,
    /// Monte Carlo truncation depth.
    pub mc_truncation: usize,
    /// Run the MC baseline at all (paper omits it beyond the four
    /// smallest datasets: its index exceeded their 64 GB).
    pub run_mc: bool,
    /// Linearization parameters.
    pub lin: LinearizeConfig,
}

/// Parameters for a dataset's tier, with an optional ε override.
pub fn params_for(tier: Tier, eps_override: Option<f64>) -> TierParams {
    let eps = eps_override.unwrap_or(match tier {
        Tier::Small => 0.025,
        Tier::Medium => 0.1,
        Tier::Large => 0.2,
    });
    TierParams {
        eps,
        mc_walks: 5000,
        mc_walks_accuracy: 500,
        mc_truncation: theory_truncation(C, eps),
        run_mc: tier == Tier::Small,
        lin: LinearizeConfig::paper_defaults(C),
    }
}

/// Wall-clock a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// SLING config for a tier (paper defaults + deterministic per-run seed).
pub fn sling_config(params: &TierParams, seed: u64) -> SlingConfig {
    SlingConfig::from_epsilon(C, params.eps).with_seed(seed)
}

/// `count` random node pairs, deterministic in `seed`.
pub fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                NodeId(rng.random_range(0..n as u32)),
                NodeId(rng.random_range(0..n as u32)),
            )
        })
        .collect()
}

/// `count` random source nodes, deterministic in `seed`.
pub fn sample_nodes(n: usize, count: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| NodeId(rng.random_range(0..n as u32)))
        .collect()
}

/// Average per-query seconds of SLING single-pair queries (Algorithm 3).
pub fn bench_sling_single_pair(
    index: &SlingIndex,
    graph: &DiGraph,
    pairs: &[(NodeId, NodeId)],
) -> f64 {
    let mut ws = QueryWorkspace::new();
    let (_, secs) = time(|| {
        let mut acc = 0.0;
        for &(u, v) in pairs {
            acc += index.single_pair_with(graph, &mut ws, u, v);
        }
        std::hint::black_box(acc)
    });
    secs / pairs.len() as f64
}

/// Average per-query seconds of SLING single-source queries (Algorithm 6).
pub fn bench_sling_single_source(index: &SlingIndex, graph: &DiGraph, sources: &[NodeId]) -> f64 {
    let mut ws = SingleSourceWorkspace::new();
    let mut out = Vec::new();
    let (_, secs) = time(|| {
        let mut acc = 0.0;
        for &u in sources {
            index.single_source_with(graph, &mut ws, u, &mut out);
            acc += out[0];
        }
        std::hint::black_box(acc)
    });
    secs / sources.len() as f64
}

/// All-pairs SLING score matrix via Algorithm 6 per source row.
pub fn all_pairs_sling(index: &SlingIndex, graph: &DiGraph) -> DenseMatrix {
    let n = graph.num_nodes();
    let mut m = DenseMatrix::zeros(n);
    let mut ws = SingleSourceWorkspace::new();
    let mut row = Vec::new();
    for u in graph.nodes() {
        index.single_source_with(graph, &mut ws, u, &mut row);
        m.row_mut(u.index()).copy_from_slice(&row);
    }
    m
}

/// All-pairs linearization matrix via its single-source query per row.
pub fn all_pairs_linearize(lin: &Linearize, graph: &DiGraph) -> DenseMatrix {
    let n = graph.num_nodes();
    let mut m = DenseMatrix::zeros(n);
    for u in graph.nodes() {
        let row = lin.single_source(graph, u);
        m.row_mut(u.index()).copy_from_slice(&row);
    }
    m
}

/// All-pairs Monte Carlo matrix.
pub fn all_pairs_mc(mc: &McIndex, graph: &DiGraph) -> DenseMatrix {
    let n = graph.num_nodes();
    let mut m = DenseMatrix::zeros(n);
    for u in graph.nodes() {
        let row = mc.single_source(u);
        m.row_mut(u.index()).copy_from_slice(&row);
    }
    m
}

/// `q`-th quantile (`0 ≤ q ≤ 1`) of an **ascending-sorted** sample, by
/// the nearest-rank method (`q = 0.5` → median, `q = 0.99` → p99).
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency percentile summary of one workload run, in microseconds —
/// the shape `sling bench-query`, `sling bench-serve`, and the server's
/// `STATS` report all share.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples observed.
    pub count: usize,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
}

impl LatencySummary {
    /// Summarize raw per-request latencies (microseconds, any order).
    pub fn from_latencies_us(mut samples: Vec<f64>) -> LatencySummary {
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        LatencySummary {
            count: samples.len(),
            p50_us: percentile(&samples, 0.50),
            p99_us: percentile(&samples, 0.99),
            p999_us: percentile(&samples, 0.999),
        }
    }
}

/// Human-friendly time formatting for harness tables.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.2}s", secs)
    }
}

/// Human-friendly byte counts.
pub fn fmt_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KB {
        format!("{bytes}B")
    } else if b < KB * KB {
        format!("{:.1}KB", b / KB)
    } else if b < KB * KB * KB {
        format!("{:.1}MB", b / (KB * KB))
    } else {
        format!("{:.2}GB", b / (KB * KB * KB))
    }
}

/// Datasets for a run: all up to `tier`, or one named dataset.
pub fn datasets_for_run(tier: Tier, only: Option<&str>) -> Vec<&'static DatasetSpec> {
    match only {
        Some(name) => sling_graph::datasets::by_name(name)
            .map(|d| vec![d])
            .unwrap_or_default(),
        None => sling_graph::datasets::up_to_tier(tier).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::two_cliques_bridge;

    #[test]
    fn tier_params_defaults_and_override() {
        let small = params_for(Tier::Small, None);
        assert!((small.eps - 0.025).abs() < 1e-12);
        assert!(small.run_mc);
        let medium = params_for(Tier::Medium, None);
        assert!(medium.eps > small.eps);
        assert!(!medium.run_mc);
        let forced = params_for(Tier::Medium, Some(0.025));
        assert!((forced.eps - 0.025).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let pairs = sample_pairs(100, 50, 7);
        assert_eq!(pairs, sample_pairs(100, 50, 7));
        assert!(pairs.iter().all(|&(u, v)| u.0 < 100 && v.0 < 100));
        let nodes = sample_nodes(10, 20, 3);
        assert!(nodes.iter().all(|&v| v.0 < 10));
    }

    #[test]
    fn all_pairs_matrices_agree_with_direct_queries() {
        let g = two_cliques_bridge(4);
        let params = params_for(Tier::Small, Some(0.1));
        let idx = SlingIndex::build(&g, &sling_config(&params, 1)).unwrap();
        let m = all_pairs_sling(&idx, &g);
        for u in g.nodes() {
            let row = idx.single_source(&g, u);
            for v in g.nodes() {
                assert_eq!(m.get(u.index(), v.index()), row[v.index()]);
            }
        }
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.5), 500.0);
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&sorted, 0.999), 999.0);
        assert_eq!(percentile(&sorted, 1.0), 1000.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let summary = LatencySummary::from_latencies_us(vec![3.0, 1.0, 2.0]);
        assert_eq!(summary.count, 3);
        assert_eq!(summary.p50_us, 2.0);
        assert_eq!(summary.p999_us, 3.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(50e-9), "50.0ns");
        assert_eq!(fmt_secs(0.002), "2.00ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert!(fmt_bytes(3 << 20).contains("MB"));
    }

    #[test]
    fn datasets_for_run_filters() {
        assert_eq!(datasets_for_run(Tier::Small, None).len(), 4);
        let one = datasets_for_run(Tier::Large, Some("grqc-sim"));
        assert_eq!(one.len(), 1);
        assert!(datasets_for_run(Tier::Large, Some("nope")).is_empty());
    }
}
