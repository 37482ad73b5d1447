//! Degree-distribution summaries.
//!
//! The dataset report (`repro table3`) and the CLI's `stats` subcommand
//! print these to show that the synthetic Table-3 analogues reproduce the
//! degree-distribution *family* of the datasets they stand in for
//! (heavy-tailed for the web/social graphs, near-Poisson for the AS-style
//! topologies). The substitution itself is described in the
//! [`crate::datasets`] module docs.

use crate::digraph::DiGraph;
use crate::node::NodeId;

/// Which adjacency a distribution summarizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegreeKind {
    /// In-degrees `|I(v)|`.
    In,
    /// Out-degrees.
    Out,
}

/// Summary of one degree distribution.
#[derive(Clone, Debug)]
pub struct DegreeDistribution {
    /// Which adjacency was summarized.
    pub kind: DegreeKind,
    /// Sorted degree sequence (ascending).
    degrees: Vec<usize>,
}

impl DegreeDistribution {
    /// Compute the distribution in `O(n log n)`.
    pub fn compute(g: &DiGraph, kind: DegreeKind) -> Self {
        let mut degrees: Vec<usize> = (0..g.num_nodes())
            .map(|i| {
                let v = NodeId::from_index(i);
                match kind {
                    DegreeKind::In => g.in_degree(v),
                    DegreeKind::Out => g.out_degree(v),
                }
            })
            .collect();
        degrees.sort_unstable();
        DegreeDistribution { kind, degrees }
    }

    /// Number of nodes summarized.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// Whether the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Mean degree (0 for an empty graph).
    pub fn mean(&self) -> f64 {
        if self.degrees.is_empty() {
            return 0.0;
        }
        self.degrees.iter().sum::<usize>() as f64 / self.degrees.len() as f64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> usize {
        if self.degrees.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.degrees.len() as f64).ceil() as usize).max(1) - 1;
        self.degrees[rank.min(self.degrees.len() - 1)]
    }

    /// Median degree.
    pub fn median(&self) -> usize {
        self.quantile(0.5)
    }

    /// Largest degree.
    pub fn max(&self) -> usize {
        self.degrees.last().copied().unwrap_or(0)
    }

    /// Gini coefficient of the degree sequence — 0 for perfectly uniform
    /// degrees, approaching 1 for extreme concentration. Heavy-tailed
    /// (power-law-like) graphs land well above ER graphs of the same
    /// density, which is how the dataset suite's family claims are checked.
    pub fn gini(&self) -> f64 {
        let n = self.degrees.len();
        let total: usize = self.degrees.iter().sum();
        if n == 0 || total == 0 {
            return 0.0;
        }
        // With the sequence sorted ascending:
        // G = (2 * Σ_i i*x_i) / (n * Σ x_i) - (n + 1) / n, i is 1-based.
        let weighted: f64 = self
            .degrees
            .iter()
            .enumerate()
            .map(|(i, &x)| (i + 1) as f64 * x as f64)
            .sum();
        (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
    }

    /// Histogram as `(degree, count)` pairs for each distinct degree,
    /// ascending.
    pub fn histogram(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for &d in &self.degrees {
            match out.last_mut() {
                Some((deg, cnt)) if *deg == d => *cnt += 1,
                _ => out.push((d, 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi_directed, star_graph};

    #[test]
    fn star_in_distribution() {
        // star_graph(5) is an in-star: leaves 1..4 each point at hub 0.
        let g = star_graph(5);
        let d = DegreeDistribution::compute(&g, DegreeKind::In);
        assert_eq!(d.len(), 5);
        assert_eq!(d.max(), 4);
        assert_eq!(d.median(), 0);
        assert!((d.mean() - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(d.histogram(), vec![(0, 4), (4, 1)]);
    }

    #[test]
    fn quantiles_nearest_rank() {
        // Out-degrees of the in-star: hub 0, each leaf 1 => sorted [0,1,1,1,1].
        let g = star_graph(5);
        let d = DegreeDistribution::compute(&g, DegreeKind::Out);
        assert_eq!(d.quantile(0.0), 0);
        assert_eq!(d.quantile(0.2), 0);
        assert_eq!(d.quantile(0.8), 1);
        assert_eq!(d.quantile(1.0), 1);
    }

    #[test]
    fn gini_zero_for_uniform() {
        let g = crate::generators::cycle_graph(10);
        let d = DegreeDistribution::compute(&g, DegreeKind::In);
        assert!(d.gini().abs() < 1e-12);
    }

    #[test]
    fn gini_detects_heavy_tail() {
        // Preferential attachment should concentrate in-degree far more
        // than a uniform random graph of similar density.
        let ba = barabasi_albert(2000, 4, 11).unwrap();
        let er = erdos_renyi_directed(2000, ba.num_edges(), 11).unwrap();
        let g_ba = DegreeDistribution::compute(&ba, DegreeKind::In).gini();
        let g_er = DegreeDistribution::compute(&er, DegreeKind::In).gini();
        assert!(
            g_ba > g_er + 0.1,
            "BA gini {g_ba:.3} not clearly above ER gini {g_er:.3}"
        );
    }

    #[test]
    fn empty_graph_is_all_zeros() {
        let g = DiGraph::from_edges(0, Vec::<(u32, u32)>::new());
        let d = DegreeDistribution::compute(&g, DegreeKind::In);
        assert!(d.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.max(), 0);
        assert_eq!(d.gini(), 0.0);
        assert!(d.histogram().is_empty());
    }
}
