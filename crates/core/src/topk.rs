//! Top-k single-source SimRank queries.
//!
//! The paper's §8 surveys top-k SimRank queries as a major related query
//! type; the SLING index supports them directly. The engine
//! ([`crate::SharedEngine`]) provides two query strategies on top of
//! Algorithm 6:
//!
//! * [`crate::SharedEngine::top_k`] — run the single-source propagation, then
//!   feed a bounded min-heap straight from the nodes it touched: no dense
//!   score vector is written or scanned, so selection costs
//!   `O(t log k)` for `t` touched nodes instead of `O(n log k)`.
//! * [`crate::SharedEngine::top_k_approx`] — an early-terminating variant. The
//!   step-ℓ term of Eq. (13) contributes at most `c^ℓ` to *any* pair's
//!   score (each hitting-probability row sums to `(√c)^ℓ` and `d_k ≤ 1`),
//!   so once the steps still unprocessed can contribute at most `slack`,
//!   propagation stops. Every returned score is then within `slack` of the
//!   full Algorithm-6 estimate, and since deep steps are the expensive
//!   ones to propagate, the saving is real on graphs with long HP tails.
//!
//! [`select_top_k`] runs the same heap over a dense score vector for
//! callers that already hold one.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::single_source::{accumulate, single_source_with_cutoff, SingleSourceWorkspace};
use crate::store::{EngineRef, HpStore};

/// A `(score, node)` pair ordered by descending score with ascending
/// node-id tie-breaking — "greater" means "ranks higher".
#[derive(Clone, Copy, Debug, PartialEq)]
struct Ranked {
    score: f64,
    node: u32,
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // Scores are finite (clamped to [0, 1] by the query paths).
        self.score
            .partial_cmp(&other.score)
            .expect("SimRank scores are finite")
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The `k` best positive-score candidates offered so far, in a min-heap
/// whose root is the worst one kept (`O(log k)` eviction). [`Ranked`] is
/// a total order over distinct nodes, so the kept set does not depend on
/// the order candidates arrive in.
struct TopK {
    heap: BinaryHeap<Reverse<Ranked>>,
    k: usize,
}

impl TopK {
    /// Sized by `min(k, candidates)`: a `k` from the wire never sizes
    /// the allocation.
    fn new(k: usize, candidates: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(k.min(candidates)),
            k,
        }
    }

    #[inline]
    fn offer(&mut self, node: usize, score: f64) {
        if score <= 0.0 {
            return;
        }
        let cand = Ranked {
            score,
            node: node as u32,
        };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(cand));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cand > worst.0 {
                *worst = Reverse(cand);
            }
        }
    }

    /// Descending score, ascending node id on ties.
    fn into_sorted(self) -> Vec<(NodeId, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse(r)| (NodeId(r.node), r.score))
            .collect()
    }
}

/// Select the `k` best `(node, score)` pairs from a dense score vector,
/// excluding `exclude` and zero scores, in `O(n log k)`. Public so
/// external harnesses (the CLI's `bench-query`, the criterion benches)
/// can compose it with the buffer-reusing single-source APIs.
pub fn select_top_k(scores: &[f64], exclude: Option<NodeId>, k: usize) -> Vec<(NodeId, f64)> {
    let mut top = TopK::new(k, scores.len());
    for (i, &score) in scores.iter().enumerate() {
        if Some(NodeId::from_index(i)) != exclude {
            top.offer(i, score);
        }
    }
    top.into_sorted()
}

/// Top-k over any storage backend (see [`crate::SharedEngine::top_k`]): the
/// Algorithm 6 driver with step runs `ℓ ≥ cutoff` skipped, then the heap
/// fed from the touched set in ascending node order. The diagonal is
/// excluded, so the exact-diagonal setting cannot change the answer.
pub(crate) fn top_k_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    k: usize,
    cutoff: Option<u16>,
) -> Result<Vec<(NodeId, f64)>, SlingError> {
    accumulate(e, graph, ws, u, cutoff, false)?;
    let mut top = TopK::new(k, ws.dense.touched_bound());
    ws.dense.drain_acc(|x, score| {
        if x != u.index() {
            top.offer(x, score);
        }
    });
    Ok(top.into_sorted())
}

/// The first step run early termination may drop: the smallest ℓ with
/// `c^ℓ/(1-c) ≤ slack`, so it goes along with everything deeper. `None`
/// (no cutoff) when `slack ≤ 0`.
pub(crate) fn slack_cutoff(c: f64, slack: f64) -> Option<u16> {
    if slack <= 0.0 {
        return None;
    }
    // c^ℓ ≤ slack (1-c)  ⇔  ℓ ≥ log(slack (1-c)) / log(c).
    let bound = (slack * (1.0 - c)).ln() / c.ln();
    if bound <= 0.0 {
        Some(0)
    } else {
        Some(bound.ceil() as u16)
    }
}

/// Early-terminating Algorithm 6 over any storage backend (see
/// [`crate::SharedEngine::single_source_truncated`]): maps `slack` to a step
/// cutoff, then runs the shared streaming driver
/// ([`single_source_with_cutoff`]).
pub(crate) fn single_source_truncated_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    slack: f64,
    out: &mut Vec<f64>,
) -> Result<f64, SlingError> {
    let cutoff = slack_cutoff(e.config.c, slack);
    single_source_with_cutoff(e, graph, ws, u, cutoff, false, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::hp::HpArena;
    use crate::index::SlingIndex;
    use crate::store::SharedEngine;
    use sling_graph::generators::{barabasi_albert, complete_graph, two_cliques_bridge};

    const C: f64 = 0.6;

    fn build(g: &DiGraph, eps: f64) -> SharedEngine<HpArena> {
        SharedEngine::from(
            SlingIndex::build(g, &SlingConfig::from_epsilon(C, eps).with_seed(17)).unwrap(),
        )
    }

    #[test]
    fn select_top_k_basic() {
        let scores = vec![0.1, 0.5, 0.0, 0.5, 0.3];
        let top = select_top_k(&scores, None, 3);
        // Ties broken by ascending node id.
        assert_eq!(
            top,
            vec![(NodeId(1), 0.5), (NodeId(3), 0.5), (NodeId(4), 0.3)]
        );
    }

    #[test]
    fn select_top_k_excludes_and_clips() {
        let scores = vec![0.9, 0.2];
        assert_eq!(
            select_top_k(&scores, Some(NodeId(0)), 5),
            vec![(NodeId(1), 0.2)]
        );
        assert!(select_top_k(&scores, None, 0).is_empty());
    }

    #[test]
    fn heap_matches_sort_based_top_k() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        let idx = build(&g, 0.1);
        for u in [NodeId(0), NodeId(7), NodeId(123)] {
            let mut ranked: Vec<(NodeId, f64)> = idx
                .single_source(&g, u)
                .unwrap()
                .into_iter()
                .enumerate()
                .filter(|&(i, s)| i != u.index() && s > 0.0)
                .map(|(i, s)| (NodeId::from_index(i), s))
                .collect();
            ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            for k in [1, 5, 50] {
                let sorted = &ranked[..k.min(ranked.len())];
                let heaped = idx.top_k(&g, u, k).unwrap();
                assert_eq!(sorted, heaped, "u = {u:?}, k = {k}");
            }
        }
    }

    #[test]
    fn approx_with_zero_slack_is_exact() {
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        for u in g.nodes() {
            assert_eq!(
                idx.top_k_approx(&g, u, 4, 0.0).unwrap(),
                idx.top_k(&g, u, 4).unwrap()
            );
        }
    }

    #[test]
    fn approx_scores_within_slack() {
        let g = barabasi_albert(200, 3, 9).unwrap();
        let idx = build(&g, 0.1);
        let slack = 0.02;
        for u in [NodeId(1), NodeId(50), NodeId(150)] {
            let full = idx.single_source(&g, u).unwrap();
            let mut ws = SingleSourceWorkspace::new();
            let mut truncated = Vec::new();
            let residual = idx
                .single_source_truncated(&g, &mut ws, u, slack, &mut truncated)
                .unwrap();
            assert!(residual <= slack + 1e-12);
            for v in g.nodes() {
                let diff = full[v.index()] - truncated[v.index()];
                assert!(
                    (-1e-12..=slack + 1e-12).contains(&diff),
                    "({u:?},{v:?}): full {} vs truncated {}",
                    full[v.index()],
                    truncated[v.index()]
                );
            }
        }
    }

    #[test]
    fn huge_slack_keeps_only_step_zero() {
        // slack ≥ c/(1-c) allows dropping every step except ℓ = 0; the
        // diagonal survives because step 0 always has h(0)(u,u) = 1.
        let g = complete_graph(4);
        let idx = build(&g, 0.1);
        let top = idx
            .top_k_approx(&g, NodeId(0), 3, C / (1.0 - C) + 0.01)
            .unwrap();
        // With only step 0 processed, off-diagonal scores vanish.
        assert!(top.iter().all(|&(_, s)| s >= 0.0));
        let mut ws = SingleSourceWorkspace::new();
        let mut scores = Vec::new();
        let residual = idx
            .single_source_truncated(&g, &mut ws, NodeId(0), C / (1.0 - C) + 0.01, &mut scores)
            .unwrap();
        assert!(residual > 0.0);
        assert_eq!(scores[0], 1.0);
    }

    #[test]
    fn truncated_respects_exact_diagonal_flag() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.1);
        let mut ws = SingleSourceWorkspace::new();
        let mut scores = Vec::new();
        idx.single_source_truncated(&g, &mut ws, NodeId(2), 0.01, &mut scores)
            .unwrap();
        assert_eq!(scores[2], 1.0);
    }

    #[test]
    fn workspace_clean_after_truncated_query() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.05);
        let mut ws = SingleSourceWorkspace::new();
        let mut a = Vec::new();
        idx.single_source_truncated(&g, &mut ws, NodeId(0), 0.05, &mut a)
            .unwrap();
        let mut b = Vec::new();
        idx.single_source_truncated(&g, &mut ws, NodeId(0), 0.05, &mut b)
            .unwrap();
        assert_eq!(a, b);
    }
}
