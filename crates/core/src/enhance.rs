//! §5.3 accuracy enhancement: marked hitting probabilities expanded one
//! extra step at query time.
//!
//! After the index is built, each node `v` marks up to `1/√ε` of its
//! stored entries `h̃⁽ℓ⁾(v, v_j)` — the largest ones whose hit node has at
//! most `1/√ε` in-neighbors. When a query touches `H(v)`, every marked
//! entry is expanded along Eq. (16): each in-neighbor `v_k` of `v_j`
//! receives a contribution `√c · h̃⁽ℓ⁾(v, v_j) / |I(v_j)|` toward
//! `h̃⁽ℓ⁺¹⁾(v, v_k)` — but only for keys *not already present* in the
//! effective entry list, so every effective value still underestimates the
//! true hitting probability and the Lemma 8 error analysis continues to
//! hold (the extra entries strictly reduce the one-sided truncation
//! error). The expansion inspects at most `(1/√ε)² = 1/ε` edges, keeping
//! single-pair queries `O(1/ε)`.

use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::error::SlingError;
use crate::hp::{HpArena, HpEntry};
use crate::index::{Buf, QueryWorkspace};
use crate::store::{EngineRef, HpStore};

/// Per-node lists of marked entry positions (local offsets into the
/// node's stored run in the [`HpArena`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MarkArena {
    pub(crate) offsets: Vec<u64>,
    pub(crate) local: Vec<u32>,
}

impl MarkArena {
    /// No marks for any of `n` nodes (enhancement disabled).
    pub fn empty(n: usize) -> Self {
        MarkArena {
            offsets: vec![0; n + 1],
            local: Vec::new(),
        }
    }

    /// Structural check against the arena the local offsets index into:
    /// offsets monotone and in bounds, node counts matching, and every
    /// local index inside its node's stored run. Used by the
    /// binary-format decoder.
    pub fn validate(&self, hp: &HpArena) -> bool {
        self.validate_runs(&hp.offsets)
    }

    /// [`MarkArena::validate`] against a bare HP offset table — what the
    /// out-of-core backends have before (never) decoding the payload.
    pub fn validate_runs(&self, hp_offsets: &[u64]) -> bool {
        if self.offsets.len() != hp_offsets.len() {
            return false;
        }
        if self.offsets.first() != Some(&0)
            || *self.offsets.last().unwrap_or(&0) as usize != self.local.len()
        {
            return false;
        }
        if self
            .offsets
            .windows(2)
            .any(|w| w[0] > w[1] || w[1] as usize > self.local.len())
        {
            return false;
        }
        for i in 0..self.offsets.len().saturating_sub(1) {
            let run = hp_offsets[i + 1] - hp_offsets[i];
            let marks = &self.local[self.offsets[i] as usize..self.offsets[i + 1] as usize];
            if marks.iter().any(|&l| l as u64 >= run) {
                return false;
            }
        }
        true
    }

    /// Select marks per §5.3: for each node, among stored entries whose
    /// hit node has in-degree ≤ `1/√ε`, the `⌊1/√ε⌋` largest by value.
    pub fn compute(graph: &DiGraph, config: &SlingConfig, hp: &HpArena) -> Self {
        let n = graph.num_nodes();
        let cap = (1.0 / config.epsilon.sqrt()).floor().max(1.0) as usize;
        let max_deg = cap;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut local = Vec::new();
        offsets.push(0u64);
        let mut candidates: Vec<(f64, u32)> = Vec::new();
        for v in graph.nodes() {
            candidates.clear();
            let range = hp.range(v);
            for (li, gi) in range.clone().enumerate() {
                let hit = NodeId(hp.nodes[gi]);
                let deg = graph.in_degree(hit);
                if deg > 0 && deg <= max_deg {
                    candidates.push((hp.values[gi], li as u32));
                }
            }
            if candidates.len() > cap {
                candidates.select_nth_unstable_by(cap - 1, |a, b| {
                    b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))
                });
                candidates.truncate(cap);
            }
            let start = local.len();
            local.extend(candidates.iter().map(|&(_, li)| li));
            local[start..].sort_unstable();
            offsets.push(local.len() as u64);
        }
        MarkArena { offsets, local }
    }

    /// Marked local offsets of `v` (ascending).
    pub fn marks_of(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.local[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total marks across all nodes.
    pub fn total_marks(&self) -> usize {
        self.local.len()
    }

    /// Whether no node has marks.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// Approximate resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.local.len() * 4
    }
}

/// Expand the marked entries of `v` into the effective entry buffer
/// (`which`) of `ws`. Called by the generic effective-entry
/// materialization after the stored (+ two-hop) list has been sorted.
/// Generic over the storage backend: marks address entries by global
/// index through [`HpStore::entry_at`].
pub(crate) fn expand_marked<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    v: NodeId,
    ws: &mut QueryWorkspace,
    which: Buf,
) -> Result<(), SlingError> {
    let marks = e.marks.marks_of(v);
    if marks.is_empty() {
        return Ok(());
    }
    let mut buf = match which {
        Buf::A => std::mem::take(&mut ws.buf_a),
        Buf::B => std::mem::take(&mut ws.buf_b),
    };
    let range = e.store.range(v);
    let sqrt_c = e.config.sqrt_c();
    let reduced = e.reduced[v.index()];
    ws.extras.clear();
    for &li in marks {
        let gi = range.start + li as usize;
        let entry = match e.store.entry_at(gi) {
            Ok(entry) => entry,
            Err(err) => {
                put_back(ws, which, buf);
                return Err(err);
            }
        };
        let (step, hit, value) = (entry.step, entry.node, entry.value);
        // A corrupt backend can hand back step = u16::MAX; skip rather
        // than overflow.
        let Some(target_step) = step.checked_add(1) else {
            continue;
        };
        // When v is reduced, steps 1-2 of the effective list are exact;
        // expanding into them could overshoot the true probability.
        if reduced && (target_step == 1 || target_step == 2) {
            continue;
        }
        let inn = graph.in_neighbors(hit);
        if inn.is_empty() {
            continue;
        }
        let contrib = sqrt_c * value / inn.len() as f64;
        for &vk in inn {
            ws.extras.push(HpEntry::new(target_step, vk, contrib));
        }
    }
    if ws.extras.is_empty() {
        put_back(ws, which, buf);
        return Ok(());
    }
    ws.extras.sort_unstable_by_key(|x| x.key());

    // Merge: keys already present in the effective list win untouched;
    // contributions to a fresh key accumulate.
    ws.merged.clear();
    let (mut i, mut bi) = (0usize, 0usize);
    while i < ws.extras.len() {
        let key = ws.extras[i].key();
        let mut acc = 0.0;
        let group_start = i;
        while i < ws.extras.len() && ws.extras[i].key() == key {
            acc += ws.extras[i].value;
            i += 1;
        }
        let _ = group_start;
        while bi < buf.len() && buf[bi].key() < key {
            ws.merged.push(buf[bi]);
            bi += 1;
        }
        if bi < buf.len() && buf[bi].key() == key {
            continue; // stored/exact entry present: skip the expansion
        }
        ws.merged.push(HpEntry::new(key.0, key.1, acc));
    }
    ws.merged.extend_from_slice(&buf[bi..]);
    buf.clear();
    buf.extend_from_slice(&ws.merged);
    put_back(ws, which, buf);
    Ok(())
}

fn put_back(ws: &mut QueryWorkspace, which: Buf, buf: Vec<HpEntry>) {
    match which {
        Buf::A => ws.buf_a = buf,
        Buf::B => ws.buf_b = buf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::index::SlingIndex;
    use crate::reference::exact_hp_to_target;
    use crate::store::SharedEngine;
    use sling_graph::generators::two_cliques_bridge;

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(0.6, 0.05)
            .with_seed(5)
            .with_enhancement(true)
    }

    #[test]
    fn marks_respect_caps() {
        let g = two_cliques_bridge(6);
        let config = cfg();
        let idx = SlingIndex::build(&g, &config).unwrap();
        let cap = (1.0 / config.epsilon.sqrt()).floor() as usize;
        for v in g.nodes() {
            let marks = idx.marks.marks_of(v);
            assert!(marks.len() <= cap);
            // Ascending local offsets, all within the node's run.
            assert!(marks.windows(2).all(|w| w[0] < w[1]));
            let len = idx.hp.len_of(v);
            assert!(marks.iter().all(|&li| (li as usize) < len));
            // Every marked hit node obeys the degree cap.
            let range = idx.hp.range(v);
            for &li in marks {
                let hit = NodeId(idx.hp.nodes[range.start + li as usize]);
                assert!(g.in_degree(hit) <= cap);
            }
        }
    }

    #[test]
    fn expansion_never_overestimates_true_hp() {
        let g = two_cliques_bridge(5);
        let config = cfg();
        let engine = SharedEngine::from(SlingIndex::build(&g, &config).unwrap());
        let mut ws = QueryWorkspace::new();
        for v in g.nodes() {
            crate::index::effective_entries_into(engine.engine_ref(), &g, v, &mut ws, Buf::A)
                .unwrap();
            assert!(ws.buf_a.windows(2).all(|w| w[0].key() < w[1].key()));
            for e in &ws.buf_a {
                let exact = exact_hp_to_target(&g, config.c, e.node, e.step);
                let h = exact[e.step as usize][v.index()];
                assert!(
                    e.value <= h + 1e-9,
                    "effective h̃({},{:?})={} exceeds exact {h} for v={v:?}",
                    e.step,
                    e.node,
                    e.value
                );
            }
        }
    }

    #[test]
    fn enhancement_never_shrinks_effective_lists() {
        let g = two_cliques_bridge(5);
        let plain =
            SharedEngine::from(SlingIndex::build(&g, &cfg().with_enhancement(false)).unwrap());
        let enhanced = SharedEngine::from(SlingIndex::build(&g, &cfg()).unwrap());
        let mut ws = QueryWorkspace::new();
        for v in g.nodes() {
            crate::index::effective_entries_into(enhanced.engine_ref(), &g, v, &mut ws, Buf::A)
                .unwrap();
            let with = ws.buf_a.len();
            crate::index::effective_entries_into(plain.engine_ref(), &g, v, &mut ws, Buf::A)
                .unwrap();
            let without = ws.buf_a.len();
            assert!(with >= without);
        }
    }

    #[test]
    fn enhancement_recovers_a_pruned_entry() {
        // Engineered graph: hub z (node 0) with 20 in-neighbors y_i
        // (nodes 1..=20), each y_i fed by a private chain node w_i
        // (nodes 21..=40). Then h(1)(z, y_i) = √c/20 ≈ 0.0387 and
        // h(2)(z, w_i) = c/20 = 0.03. With θ = 0.032 Algorithm 2 prunes
        // every step-2 entry of H(z), but (1, y_i) is marked (|I(y_i)| = 1)
        // and its expansion regenerates exactly h̃(2)(z, w_i) = 0.03.
        let mut b = sling_graph::GraphBuilder::with_nodes(41);
        for i in 1..=20u32 {
            b.add_edge(i, 0u32); // y_i -> z
            b.add_edge(20 + i, i); // w_i -> y_i
        }
        let g = b.build().unwrap();
        let config = SlingConfig::from_epsilon(0.6, 0.62)
            .with_error_split(0.02, 0.032)
            .with_seed(8)
            .with_space_reduction(false)
            .with_enhancement(true);
        config.validate().unwrap();
        let idx = SlingIndex::build(&g, &config).unwrap();
        let z = NodeId(0);
        // Stored H(z) has no step-2 entries (pruned)...
        assert!(idx.stored_entries(z).all(|e| e.step != 2));
        // ...but the effective list contains an expanded one.
        let mut ws = QueryWorkspace::new();
        crate::index::effective_entries_into(
            SharedEngine::from(idx).engine_ref(),
            &g,
            z,
            &mut ws,
            Buf::A,
        )
        .unwrap();
        let expanded: Vec<_> = ws.buf_a.iter().filter(|e| e.step == 2).collect();
        assert!(!expanded.is_empty(), "expansion should add a step-2 entry");
        for e in &expanded {
            assert!((e.value - 0.6 / 20.0).abs() < 1e-12, "value {}", e.value);
            assert!(e.node.0 >= 21, "expanded node should be a w_i");
        }
    }

    #[test]
    fn empty_arena_is_inert() {
        let marks = MarkArena::empty(4);
        assert!(marks.is_empty());
        assert_eq!(marks.total_marks(), 0);
        assert_eq!(marks.marks_of(NodeId(2)), &[] as &[u32]);
    }
}
