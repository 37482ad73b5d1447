//! SimRank++ (Antonellis et al., PVLDB 2008), surveyed in §8.
//!
//! SimRank++ extends SimRank with an *evidence factor* that counters a
//! known artifact: plain SimRank can score pairs with a single shared
//! in-neighbor higher than pairs with many, because averaging dilutes
//! each term. The evidence of a pair grows with the number of common
//! in-neighbors:
//!
//! ```text
//! evidence(u, v) = Σ_{i=1}^{|I(u) ∩ I(v)|} 2^{-i}  =  1 − 2^{-|I(u) ∩ I(v)|}
//! ```
//!
//! and the SimRank++ score is `evidence(u, v) · s(u, v)`. (The full
//! SimRank++ also reweights edges of *weighted* click graphs; this
//! workspace's graphs are unweighted, matching the SLING paper's model,
//! so the evidence factor is the applicable part.)

use sling_graph::{DiGraph, NodeId};

use crate::matrix::DenseMatrix;
use crate::power::power_simrank;

/// `|I(u) ∩ I(v)|` by sorted-merge over the (sorted) in-neighbor lists.
pub fn common_in_neighbors(graph: &DiGraph, u: NodeId, v: NodeId) -> usize {
    let (a, b) = (graph.in_neighbors(u), graph.in_neighbors(v));
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// The evidence factor `1 − 2^{-|I(u) ∩ I(v)|}` (0 when the pair shares
/// no in-neighbor, approaching 1 geometrically).
pub fn evidence(graph: &DiGraph, u: NodeId, v: NodeId) -> f64 {
    let common = common_in_neighbors(graph, u, v);
    if common >= 64 {
        return 1.0;
    }
    1.0 - 0.5f64.powi(common as i32)
}

/// All-pairs SimRank++ scores: `evidence ⊙ SimRank`, with the diagonal
/// kept at 1 (a node is fully similar to itself regardless of evidence).
pub fn simrank_pp(graph: &DiGraph, c: f64, iterations: usize) -> DenseMatrix {
    let n = graph.num_nodes();
    let mut s = power_simrank(graph, c, iterations);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let e = evidence(graph, NodeId::from_index(i), NodeId::from_index(j));
            s.set(i, j, e * s.get(i, j));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::{complete_graph, cycle_graph};
    use sling_graph::GraphBuilder;

    const C: f64 = 0.6;

    /// Two "query" nodes pointing at overlapping "ad" nodes, the classic
    /// SimRank++ motivating shape: ads 2,3 are both clicked from query 0
    /// and query 1; ad 4 only from query 1.
    fn click_graph() -> DiGraph {
        let mut b = GraphBuilder::with_nodes(5);
        for (u, v) in [(0u32, 2u32), (0, 3), (1, 2), (1, 3), (1, 4)] {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn common_neighbor_counting() {
        let g = click_graph();
        // I(2) = {0,1}, I(3) = {0,1}, I(4) = {1}.
        assert_eq!(common_in_neighbors(&g, NodeId(2), NodeId(3)), 2);
        assert_eq!(common_in_neighbors(&g, NodeId(2), NodeId(4)), 1);
        assert_eq!(common_in_neighbors(&g, NodeId(0), NodeId(1)), 0);
    }

    #[test]
    fn evidence_values() {
        let g = click_graph();
        assert_eq!(evidence(&g, NodeId(2), NodeId(3)), 0.75);
        assert_eq!(evidence(&g, NodeId(2), NodeId(4)), 0.5);
        assert_eq!(evidence(&g, NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn evidence_saturates() {
        let g = complete_graph(70);
        // 68 common in-neighbors (everyone but the two nodes themselves).
        assert_eq!(evidence(&g, NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn more_shared_evidence_never_hurts_ranking() {
        // The motivating SimRank++ property: with equal SimRank, the pair
        // with more common in-neighbors must rank at least as high.
        let g = click_graph();
        let pp = simrank_pp(&g, C, 20);
        let plain = power_simrank(&g, C, 20);
        // Plain SimRank already distinguishes these, but SimRank++ must
        // amplify the 2-witness pair relative to the 1-witness pair.
        let ratio_pp = pp.get(2, 3) / pp.get(2, 4);
        let ratio_plain = plain.get(2, 3) / plain.get(2, 4);
        assert!(ratio_pp >= ratio_plain, "{ratio_pp} < {ratio_plain}");
    }

    #[test]
    fn diagonal_unchanged_and_bounded() {
        let g = click_graph();
        let pp = simrank_pp(&g, C, 15);
        for i in 0..5 {
            assert_eq!(pp.get(i, i), 1.0);
            for j in 0..5 {
                assert!((0.0..=1.0).contains(&pp.get(i, j)));
                assert!((pp.get(i, j) - pp.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_evidence_zeroes_score() {
        // On a directed cycle no two distinct nodes share an in-neighbor.
        let g = cycle_graph(5);
        let pp = simrank_pp(&g, C, 10);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(pp.get(i, j), 0.0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Weighted SimRank++ (the full Antonellis et al. model)
// ---------------------------------------------------------------------------

use sling_graph::WDiGraph;

/// Spread of a node: `e^{-Var({w(x, i) : x ∈ I(i)})}` — 1 when all edges
/// into `i` carry the same weight, decaying as the weights disagree.
/// SimRank++ uses it to damp similarity transported through neighbors
/// whose edge weights are erratic (noisy click counts).
pub fn spread(wg: &WDiGraph, i: sling_graph::NodeId) -> f64 {
    let weights = wg.in_edges(i).1;
    if weights.len() <= 1 {
        return 1.0;
    }
    let n = weights.len() as f64;
    let mean = weights.iter().sum::<f64>() / n;
    let var = weights
        .iter()
        .map(|&w| (w - mean) * (w - mean))
        .sum::<f64>()
        / n;
    (-var).exp()
}

/// All-pairs weighted SimRank++:
///
/// ```text
/// s(a, b) = evidence(a, b) · c · Σ_{i ∈ I(a)} Σ_{j ∈ I(b)} W(a, i) W(b, j) s(i, j)
/// W(a, i) = spread(i) · w(i, a) / Σ_{i' ∈ I(a)} w(i', a)
/// ```
///
/// by dense power iteration with the diagonal pinned to 1 (the evidence
/// factor is applied once after convergence, as in the original paper).
/// With unit weights every spread is 1 and `W(a, i) = 1/|I(a)|`, so this
/// reduces exactly to [`simrank_pp`].
pub fn weighted_simrank_pp(wg: &WDiGraph, c: f64, iterations: usize) -> DenseMatrix {
    assert!(c > 0.0 && c < 1.0, "decay factor must lie in (0,1)");
    let n = wg.num_nodes();
    // Precompute W(a, i) per in-edge of a.
    let spreads: Vec<f64> = (0..n).map(|i| spread(wg, NodeId::from_index(i))).collect();
    let factors: Vec<Vec<f64>> = (0..n)
        .map(|a| {
            let node = NodeId::from_index(a);
            let (sources, weights) = wg.in_edges(node);
            let total: f64 = weights.iter().sum();
            sources
                .iter()
                .zip(weights)
                .map(|(&i, &w)| spreads[i.index()] * w / total)
                .collect()
        })
        .collect();

    let mut s = DenseMatrix::identity(n);
    let mut next = DenseMatrix::zeros(n);
    for _ in 0..iterations {
        for a in 0..n {
            let (ia, fa) = (wg.in_edges(NodeId::from_index(a)).0, &factors[a]);
            for b in 0..n {
                if a == b {
                    next.set(a, b, 1.0);
                    continue;
                }
                let (ib, fb) = (wg.in_edges(NodeId::from_index(b)).0, &factors[b]);
                let mut sum = 0.0;
                for (x, &i) in ia.iter().enumerate() {
                    let wa = fa[x];
                    if wa == 0.0 {
                        continue;
                    }
                    for (y, &j) in ib.iter().enumerate() {
                        sum += wa * fb[y] * s.get(i.index(), j.index());
                    }
                }
                next.set(a, b, c * sum);
            }
        }
        std::mem::swap(&mut s, &mut next);
    }
    // Evidence factor over the unweighted structure.
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let e = evidence_weighted_structure(wg, NodeId::from_index(a), NodeId::from_index(b));
            s.set(a, b, e * s.get(a, b));
        }
    }
    s
}

/// `1 − 2^{-|I(u) ∩ I(v)|}` over a weighted graph's structure.
fn evidence_weighted_structure(wg: &WDiGraph, u: NodeId, v: NodeId) -> f64 {
    let (a, b) = (wg.in_edges(u).0, wg.in_edges(v).0);
    let (mut i, mut j, mut common) = (0, 0, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    if common >= 64 {
        1.0
    } else {
        1.0 - 0.5f64.powi(common as i32)
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;
    use sling_graph::generators::barabasi_albert;
    use sling_graph::{NodeId, WGraphBuilder};

    const C: f64 = 0.6;

    #[test]
    fn unit_weights_reduce_to_unweighted_simrank_pp() {
        let g = barabasi_albert(30, 2, 4).unwrap();
        let wg = WDiGraph::from_digraph(&g);
        let weighted = weighted_simrank_pp(&wg, C, 15);
        let plain = simrank_pp(&g, C, 15);
        for i in 0..30 {
            for j in 0..30 {
                assert!(
                    (weighted.get(i, j) - plain.get(i, j)).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    weighted.get(i, j),
                    plain.get(i, j)
                );
            }
        }
    }

    #[test]
    fn spread_values() {
        let mut b = WGraphBuilder::with_nodes(3);
        b.add_edge(0u32, 2u32, 1.0);
        b.add_edge(1u32, 2u32, 3.0);
        let wg = b.build().unwrap();
        // Weights {1, 3}: mean 2, population variance 1 => spread e^{-1}.
        assert!((spread(&wg, NodeId(2)) - (-1.0f64).exp()).abs() < 1e-12);
        // Single in-edge or none: spread 1.
        assert_eq!(spread(&wg, NodeId(0)), 1.0);
    }

    #[test]
    fn erratic_weights_damp_similarity() {
        // a, b share in-neighbor x; x's own in-weights are either uniform
        // or erratic. Uniform must yield the higher s(a, b).
        let build = |w1: f64, w2: f64| {
            let mut b = WGraphBuilder::with_nodes(5);
            b.add_edge(0u32, 3u32, 1.0); // x -> a
            b.add_edge(0u32, 4u32, 1.0); // x -> b
            b.add_edge(1u32, 0u32, w1); // y -> x
            b.add_edge(2u32, 0u32, w2); // z -> x
            b.build().unwrap()
        };
        let uniform = weighted_simrank_pp(&build(1.0, 1.0), C, 10);
        let erratic = weighted_simrank_pp(&build(0.1, 1.9), C, 10);
        assert!(
            uniform.get(3, 4) > erratic.get(3, 4),
            "uniform {} vs erratic {}",
            uniform.get(3, 4),
            erratic.get(3, 4)
        );
        // Both remain symmetric and in range.
        for m in [&uniform, &erratic] {
            for i in 0..5 {
                for j in 0..5 {
                    assert!((0.0..=1.0).contains(&m.get(i, j)));
                    assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn weight_magnitude_shifts_ranking() {
        // b clicks i heavily, c clicks i lightly; similarity to a (who
        // also clicks i) should favor the heavier co-clicker after
        // normalization. Give each rater a second, private in-edge so the
        // normalized weight of the shared neighbor differs.
        let mut builder = WGraphBuilder::with_nodes(6);
        builder.add_edge(0u32, 1u32, 1.0); // i -> a
        builder.add_edge(0u32, 2u32, 9.0); // i -> b (strong)
        builder.add_edge(0u32, 3u32, 1.0); // i -> c (weak)
        builder.add_edge(4u32, 2u32, 1.0); // noise -> b
        builder.add_edge(5u32, 3u32, 9.0); // noise -> c
        let wg = builder.build().unwrap();
        let s = weighted_simrank_pp(&wg, C, 10);
        assert!(
            s.get(1, 2) > s.get(1, 3),
            "heavy co-click {} should beat light {}",
            s.get(1, 2),
            s.get(1, 3)
        );
    }
}
