//! Algorithm 6 — single-source SimRank queries.
//!
//! Instead of running Algorithm 3 once per node (`O(n/ε)` but with a poor
//! constant) or pre-materializing inverted HP lists (doubling the index),
//! Algorithm 6 rebuilds the needed inverted lists *on the fly*: for each
//! step ℓ present in `H*(v_i)`, it seeds temporary scores
//! `ρ⁽⁰⁾(v_k) = h̃⁽ℓ⁾(v_i, v_k) · d̃_k` and propagates them ℓ steps
//! forward along out-edges (the same recurrence Algorithm 2 uses),
//! pruning scores `≤ (√c)ℓ · θ`. After ℓ rounds, `ρ⁽ℓ⁾(v_j)` is exactly
//! the step-ℓ term of Eq. (13) for the pair `(v_i, v_j)`, so summing over
//! ℓ yields every `s̃(v_i, ·)` in `O(m log² 1/ε)` total (Lemma 12).

use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::index::{
    effective_entries_into, resolve_restored, resolve_stream_source, Buf, QueryWorkspace,
    RestoredList, SlingIndex,
};
use crate::obs::{self, KernelCounters};
use crate::store::{
    with_source, EngineRef, EntryAccess, EntryRun, HpStore, RestoreKind, RunSource,
};

/// Reusable buffers for Algorithm 6. One per querying thread.
///
/// Split into the dense propagation state ([`DenseScores`]) and the
/// entry-list scratch ([`QueryWorkspace`]) so the streaming kernel can
/// borrow the entry run (which may live in `query.buf_a`) while mutating
/// the propagation buffers — disjoint fields, disjoint borrows. Between
/// queries the three `O(n)` score arrays of `DenseScores` are all
/// zero, so every query costs only what it touches.
#[derive(Debug, Default)]
pub struct SingleSourceWorkspace {
    pub(crate) dense: DenseScores,
    pub(crate) query: QueryWorkspace,
}

impl SingleSourceWorkspace {
    /// Fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the retained capacity of the growable scratch buffers (see
    /// [`QueryWorkspace::trim_excess`]). The three `O(n)` score arrays
    /// and their frontier bitsets are kept — they are sized by the
    /// graph, not by the largest query seen — but the entry buffers
    /// shrink back to the retention threshold after a hub-sized query.
    pub fn trim_excess(&mut self) {
        self.query.trim_excess();
    }

    /// Enable or disable per-stage query tracing (see
    /// [`QueryWorkspace::set_trace_enabled`]).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.query.set_trace_enabled(enabled);
    }

    /// Whether per-stage tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.query.trace_enabled()
    }

    /// Drain the stage breakdown accumulated since the last call.
    pub fn take_trace(&mut self) -> crate::obs::StageNanos {
        self.query.take_trace()
    }
}

/// Upper bound on the degrees covered by the reciprocal table in
/// [`DenseScores`]: 8 KiB of graph-independent constants.
const INV_DEGREE_TABLE: usize = 1024;

/// Frontier membership for one dense score array: a bitset with a
/// touched-word watermark range. Marking is branchless (`or` + two
/// predictable range updates) — no per-edge compare-and-push — and
/// iteration recovers members in **ascending node order** by scanning
/// `bits[lo..=hi]` and peeling set bits, so the frontier walk is
/// deterministic regardless of the order contributions arrived in.
#[derive(Debug)]
struct Frontier {
    bits: Vec<u64>,
    /// First/last word index holding a set bit; `lo > hi` means empty.
    lo: usize,
    hi: usize,
}

impl Default for Frontier {
    fn default() -> Self {
        Self {
            bits: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl Frontier {
    fn ensure(&mut self, words: usize) {
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Mark node index `i` as touched. Idempotent, so callers scatter
    /// unconditionally instead of testing the score slot first.
    #[inline(always)]
    fn set(&mut self, i: usize) {
        let w = i >> 6;
        self.bits[w] |= 1u64 << (i & 63);
        if w < self.lo {
            self.lo = w;
        }
        if w > self.hi {
            self.hi = w;
        }
    }

    #[inline]
    fn clear_marks(&mut self) {
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Visit every member in ascending node order, emptying the
    /// frontier.
    #[inline(always)]
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        if self.lo <= self.hi {
            for wi in self.lo..=self.hi {
                let mut w = self.bits[wi];
                if w == 0 {
                    continue;
                }
                self.bits[wi] = 0;
                while w != 0 {
                    f((wi << 6) | w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
        }
        self.clear_marks();
    }

    /// Add every member of `other` to this frontier (`other` is left
    /// as it is).
    fn absorb(&mut self, other: &Frontier) {
        if other.lo > other.hi {
            return;
        }
        for wi in other.lo..=other.hi {
            self.bits[wi] |= other.bits[wi];
        }
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }
}

/// Dense forward-propagation state of Algorithm 6.
///
/// `cur`/`next` hold one step run's temporary scores `ρ`; `acc` sums
/// the drained runs of the whole query, and `front_acc` records which of
/// its slots any run touched — the only nodes whose score can be
/// nonzero. Invariant between queries: all three arrays are all-zero
/// and the [`Frontier`] bitsets empty (each query resets exactly the
/// entries it touched), so repeated queries cost no `O(n)` clears beyond
/// the first allocation.
#[derive(Debug, Default)]
pub(crate) struct DenseScores {
    pub(crate) cur: Vec<f64>,
    pub(crate) next: Vec<f64>,
    pub(crate) acc: Vec<f64>,
    front_cur: Frontier,
    front_next: Frontier,
    front_acc: Frontier,
    /// `inv_deg[d] = 1/d` for small `d` — graph-independent, so it can
    /// never go stale across graphs. Turns the per-edge division of the
    /// propagation inner loop into a multiply-accumulate.
    inv_deg: Vec<f64>,
}

impl DenseScores {
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.cur.len() < n {
            self.cur.resize(n, 0.0);
            self.next.resize(n, 0.0);
            self.acc.resize(n, 0.0);
        }
        let words = n.div_ceil(64);
        self.front_cur.ensure(words);
        self.front_next.ensure(words);
        self.front_acc.ensure(words);
        if self.inv_deg.is_empty() {
            self.inv_deg = (0..INV_DEGREE_TABLE)
                .map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
                .collect();
        }
    }

    /// Add `val` to the step-0 temporary score of node index `k`.
    #[inline]
    pub(crate) fn seed(&mut self, k: usize, val: f64) {
        self.cur[k] += val;
        self.front_cur.set(k);
    }

    /// `1 / |I(y)|` — a table load for the small degrees that dominate
    /// real graphs, one division otherwise. Replacing the per-edge
    /// division shifts each contribution by at most one ulp relative to
    /// dividing directly; every backend and every query path shares this
    /// code, so cross-backend bit-equality is unaffected.
    #[inline(always)]
    fn inv_in_degree(&self, graph: &DiGraph, y: NodeId) -> f64 {
        let deg = graph.in_degree(y);
        if deg < self.inv_deg.len() {
            self.inv_deg[deg]
        } else {
            1.0 / deg as f64
        }
    }

    /// Run `rounds` forward-propagation rounds of Algorithm 6's inner
    /// loop: scores `≤ threshold` are pruned; a survivor `x` distributes
    /// `√c · ρ(x) / |I(y)|` to each out-neighbor `y`. The per-survivor
    /// scale `√c · ρ(x)` is hoisted and the division is a reciprocal
    /// multiply; the frontier walks in ascending node order via the
    /// [`Frontier`] bitsets.
    pub(crate) fn propagate(&mut self, graph: &DiGraph, sqrt_c: f64, threshold: f64, rounds: u16) {
        let mut swept = 0u64;
        for _ in 0..rounds {
            let (lo, hi) = (self.front_cur.lo, self.front_cur.hi);
            if lo > hi {
                break; // empty frontier: remaining rounds are no-ops
            }
            swept += (hi - lo + 1) as u64;
            self.front_cur.clear_marks();
            for wi in lo..=hi {
                let mut w = self.front_cur.bits[wi];
                if w == 0 {
                    continue;
                }
                self.front_cur.bits[wi] = 0;
                while w != 0 {
                    let x = (wi << 6) | w.trailing_zeros() as usize;
                    w &= w - 1;
                    let val = self.cur[x];
                    self.cur[x] = 0.0;
                    if val <= threshold {
                        continue;
                    }
                    let scale = sqrt_c * val;
                    for &y in graph.out_neighbors(NodeId(x as u32)) {
                        let inc = scale * self.inv_in_degree(graph, y);
                        self.next[y.index()] += inc;
                        self.front_next.set(y.index());
                    }
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.front_cur, &mut self.front_next);
        }
        KernelCounters::bump_by(&obs::KERNEL.frontier_words, swept);
    }

    /// Add the surviving temporary scores into `acc`, mark their nodes
    /// in `front_acc`, and restore the all-zero invariant of `cur`.
    pub(crate) fn drain_into_acc(&mut self) {
        let Self {
            cur,
            acc,
            front_cur,
            front_acc,
            ..
        } = self;
        front_acc.absorb(front_cur);
        front_cur.drain(|x| {
            acc[x] += cur[x];
            cur[x] = 0.0;
        });
    }

    /// Hand every accumulated score to `f` in ascending node order,
    /// clamped to `[0, 1]`, zeroing its slot: the one way a query's
    /// answer leaves `acc`. Nodes outside the touched set score exactly
    /// 0, so ascending touched order is a dense scan restricted to the
    /// only entries that can be nonzero.
    #[inline]
    pub(crate) fn drain_acc(&mut self, mut f: impl FnMut(usize, f64)) {
        let Self { acc, front_acc, .. } = self;
        front_acc.drain(|x| {
            f(x, acc[x].clamp(0.0, 1.0));
            acc[x] = 0.0;
        });
    }

    /// Upper bound on the nodes [`DenseScores::drain_acc`] will visit:
    /// 64 per word in the touched range.
    pub(crate) fn touched_bound(&self) -> usize {
        let Frontier { lo, hi, .. } = self.front_acc;
        if lo > hi {
            0
        } else {
            ((hi - lo + 1) * 64).min(self.acc.len())
        }
    }
}

/// Algorithm 6 over any storage backend, **streaming**: `H*(u)` is read
/// once — directly from backend-owned storage when no §5.2/§5.3 rewrite
/// applies — then the forward propagation runs entirely on the in-memory
/// graph and correction factors. Allocation-free after workspace warm-up.
pub(crate) fn single_source_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    out: &mut Vec<f64>,
) -> Result<(), SlingError> {
    single_source_with_cutoff(e, graph, ws, u, None, false, out).map(|_| ())
}

/// Algorithm 6 through the **materializing reference path**: the
/// effective entry list is always copied into the workspace first (the
/// pre-streaming kernel). Kept callable so benchmarks can measure the
/// zero-copy gap and tests can assert bit-equality with the streaming
/// kernel.
pub(crate) fn single_source_materialized_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    out: &mut Vec<f64>,
) -> Result<(), SlingError> {
    single_source_with_cutoff(e, graph, ws, u, None, true, out).map(|_| ())
}

/// Algorithm 6 as a dense score vector: run [`accumulate`], then
/// scatter the touched scores into `out` (length `n`, zero elsewhere)
/// and set the exact diagonal. Returns the residual bound
/// `c^cutoff / (1-c)` when the cutoff truncated the run sequence, else 0.
pub(crate) fn single_source_with_cutoff<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    cutoff: Option<u16>,
    materialize: bool,
    out: &mut Vec<f64>,
) -> Result<f64, SlingError> {
    let truncated = accumulate(e, graph, ws, u, cutoff, materialize)?;
    out.clear();
    out.resize(e.num_nodes(), 0.0);
    ws.dense.drain_acc(|x, score| out[x] = score);
    if e.config.exact_diagonal {
        out[u.index()] = 1.0;
    }
    Ok(match cutoff {
        Some(cut) if truncated => e.config.c.powi(cut as i32) / (1.0 - e.config.c),
        _ => 0.0,
    })
}

/// The shared Algorithm 6 driver: seed and propagate `H*(u)`'s step runs
/// in ascending step order into the workspace accumulator, skipping runs
/// `ℓ ≥ cutoff` (no restriction when `cutoff` is `None`). `materialize`
/// forces the copying reference path. Returns whether the cutoff
/// truncated the run sequence. The caller must consume the answer with
/// [`DenseScores::drain_acc`], which restores the all-zero invariant;
/// on error nothing was accumulated.
pub(crate) fn accumulate<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    cutoff: Option<u16>,
    materialize: bool,
) -> Result<bool, SlingError> {
    ws.dense.ensure(e.num_nodes());
    let kind = e.restore_kind(u);
    let t_restore = ws.query.trace.timer();
    let resolved = if materialize {
        // Reference path: plain workspace materialization, no cache.
        effective_entries_into(e, graph, u, &mut ws.query, Buf::A)?;
        Some(RestoredList::Workspace)
    } else if kind == RestoreKind::Full
        || (kind == RestoreKind::TwoHopOnly && e.restore_cache.is_some())
    {
        // Same policy as the pair kernel: with a RestoreCache attached,
        // reduced sources serve the cached full list (warm = zero
        // backend traffic); only cache-less engines stream two-segment.
        Some(resolve_restored(e, graph, u, &mut ws.query, Buf::A)?)
    } else {
        None
    };
    ws.query.trace.add_restore(t_restore);
    // Disjoint-field split: the entry run may borrow `query.buf_a`
    // (restored heads/lists, disk scratch) and `query.stored` (tail
    // scratch) while `dense` mutates freely.
    let SingleSourceWorkspace { dense, query } = ws;
    let QueryWorkspace {
        buf_a,
        stored,
        two_hop,
        ..
    } = query;
    let t_fetch = query.trace.timer();
    let source = match resolved {
        Some(RestoredList::Workspace) => RunSource::Whole(EntryAccess::Slice(buf_a)),
        Some(RestoredList::Shared(list)) => RunSource::Shared(list),
        None => resolve_stream_source(e, graph, u, kind, buf_a, stored, two_hop)?,
    };
    query.trace.add_entry_fetch(t_fetch);
    let t_propagate = query.trace.timer();
    let truncated = with_source!(&source, |run| seed_step_runs(e, graph, dense, run, cutoff));
    drop(source);
    query.trace.add_propagate(t_propagate);
    Ok(truncated)
}

/// Consume `H*(u)` per step run: seed `ρ⁽⁰⁾(v_k) = h̃⁽ℓ⁾(u, v_k) · d̃_k`
/// from the run's node/value columns (entries have distinct nodes within
/// a step run), propagate ℓ rounds with the scaled-down pruning
/// threshold, and add `ρ⁽ℓ⁾` into the accumulator, restoring the
/// all-zero invariant of the temporaries. Returns whether a cutoff
/// truncated the run sequence.
fn seed_step_runs<S: HpStore, R: EntryRun>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    dense: &mut DenseScores,
    run: R,
    cutoff: Option<u16>,
) -> bool {
    let sqrt_c = e.config.sqrt_c();
    let theta = e.config.theta;
    let len = run.len();
    let mut lo = 0usize;
    while lo < len {
        let step = run.key(lo).0;
        let mut hi = lo + 1;
        while hi < len && run.key(hi).0 == step {
            hi += 1;
        }
        if let Some(cut) = cutoff {
            if step >= cut {
                return true;
            }
        }
        for i in lo..hi {
            let k = run.key(i).1 as usize;
            dense.seed(k, run.value(i) * e.d[k]);
        }
        let threshold = sqrt_c.powi(step as i32) * theta;
        dense.propagate(graph, sqrt_c, threshold, step);
        dense.drain_into_acc();
        lo = hi;
    }
    false
}

impl SlingIndex {
    /// Single-source query from `u` (Algorithm 6): returns `s̃(u, v)` for
    /// every node `v`. Allocates a workspace; prefer
    /// [`SlingIndex::single_source_with`] in loops.
    pub fn single_source(&self, graph: &DiGraph, u: NodeId) -> Vec<f64> {
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        self.single_source_with(graph, &mut ws, u, &mut out);
        out
    }

    /// Single-source query into a caller-provided output vector.
    pub fn single_source_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes, "wrong graph for index");
        single_source_core(self.engine_ref(), graph, ws, u, out)
            .expect("in-memory HP store cannot fail");
    }

    /// Baseline single-source strategy: Algorithm 3 once per node —
    /// `O(n/ε)` asymptotically, but slower in practice than Algorithm 6
    /// (the paper's Figure 2 comparison).
    pub fn single_source_via_pairs(&self, graph: &DiGraph, u: NodeId) -> Vec<f64> {
        let mut ws = QueryWorkspace::new();
        graph
            .nodes()
            .map(|v| self.single_pair_with(graph, &mut ws, u, v))
            .collect()
    }

    /// Range-checked single-source query.
    pub fn try_single_source(&self, graph: &DiGraph, u: NodeId) -> Result<Vec<f64>, SlingError> {
        if u.index() >= self.num_nodes {
            return Err(SlingError::NodeOutOfRange {
                node: u.0,
                n: self.num_nodes as u32,
            });
        }
        Ok(self.single_source(graph, u))
    }

    /// Top-k most similar nodes to `u` (excluding `u` itself), ordered by
    /// descending score with node-id tie-breaking. Built on Algorithm 6.
    pub fn top_k(&self, graph: &DiGraph, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let scores = self.single_source(graph, u);
        let mut ranked: Vec<(NodeId, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(i, &s)| i != u.index() && s > 0.0)
            .map(|(i, &s)| (NodeId::from_index(i), s))
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::reference::exact_simrank;
    use sling_graph::generators::{complete_graph, cycle_graph, star_graph, two_cliques_bridge};
    use sling_graph::DiGraph;

    const C: f64 = 0.6;

    fn build(g: &DiGraph, eps: f64) -> SlingIndex {
        SlingIndex::build(g, &SlingConfig::from_epsilon(C, eps).with_seed(31)).unwrap()
    }

    #[test]
    fn single_source_within_eps_of_truth() {
        let eps = 0.05;
        for g in [
            cycle_graph(8),
            star_graph(6),
            complete_graph(5),
            two_cliques_bridge(4),
        ] {
            let idx = build(&g, eps);
            let truth = exact_simrank(&g, C, 60);
            for u in g.nodes() {
                let scores = idx.single_source(&g, u);
                for v in g.nodes() {
                    let err = (scores[v.index()] - truth[u.index()][v.index()]).abs();
                    assert!(err <= eps, "({u:?},{v:?}): err {err}");
                }
            }
        }
    }

    #[test]
    fn algorithm6_consistent_with_pairwise_algorithm3() {
        // Both estimators share d̃ and H̃; Algorithm 6 additionally prunes
        // with the scaled threshold, so they agree within the extra
        // truncation budget 2√c·θ/((1-√c)(1-c)).
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        let sc = C.sqrt();
        let slack = 2.0 * sc * idx.config().theta / ((1.0 - sc) * (1.0 - C)) + 1e-9;
        for u in g.nodes() {
            let a6 = idx.single_source(&g, u);
            let a3 = idx.single_source_via_pairs(&g, u);
            for v in g.nodes() {
                let diff = (a6[v.index()] - a3[v.index()]).abs();
                assert!(diff <= slack, "({u:?},{v:?}): diff {diff} > {slack}");
            }
        }
    }

    #[test]
    fn workspace_reuse_keeps_buffers_clean() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.05);
        let mut ws = SingleSourceWorkspace::new();
        let all_zero = |ws: &SingleSourceWorkspace| {
            let d = &ws.dense;
            [&d.cur, &d.next, &d.acc]
                .iter()
                .all(|v| v.iter().all(|&x| x.to_bits() == 0))
        };
        let mut first = Vec::new();
        idx.single_source_with(&g, &mut ws, NodeId(0), &mut first);
        // Buffers must be zeroed after a query, whichever consumer
        // drained the accumulator...
        assert!(all_zero(&ws), "dirty after SOURCE");
        let top =
            crate::topk::top_k_core(idx.engine_ref(), &g, &mut ws, NodeId(5), 3, None).unwrap();
        assert_eq!(top, idx.top_k_heap(&g, NodeId(5), 3));
        assert!(all_zero(&ws), "dirty after TOPK");
        // ...so the same query repeated gives identical results.
        let mut second = Vec::new();
        idx.single_source_with(&g, &mut ws, NodeId(0), &mut second);
        assert_eq!(first, second);
        // And a different query is unaffected by the first.
        let mut direct = Vec::new();
        idx.single_source_with(
            &g,
            &mut SingleSourceWorkspace::new(),
            NodeId(3),
            &mut direct,
        );
        let mut reused = Vec::new();
        idx.single_source_with(&g, &mut ws, NodeId(3), &mut reused);
        assert_eq!(direct, reused);
    }

    /// Algorithm 6's streaming seed path must be bit-identical to the
    /// materializing reference kernel across the §5.2 × §5.3 matrix
    /// under both restore policies: the bare-index path (no
    /// RestoreCache) seeds from a two-segment §5.2 view, the engine
    /// path from cached full lists (second pass hits the cache).
    #[test]
    fn two_segment_single_source_matches_materialized_across_restore_matrix() {
        use sling_graph::generators::barabasi_albert;
        let g = barabasi_albert(300, 3, 11).unwrap();
        for (sr, enh) in [(true, false), (true, true)] {
            let config = SlingConfig::from_epsilon(C, 0.1)
                .with_seed(9)
                .with_space_reduction(sr)
                .with_enhancement(enh);
            let idx = SlingIndex::build(&g, &config).unwrap();
            assert!(idx.stats.reduced_nodes > 0);
            let engine = crate::SharedEngine::from(idx.clone());
            let mut ws = SingleSourceWorkspace::new();
            let mut ws2 = SingleSourceWorkspace::new();
            let (mut streamed, mut materialized) = (Vec::new(), Vec::new());
            for _pass in 0..2 {
                for u in [0u32, 1, 13, 144, 299] {
                    engine
                        .single_source_with(&g, &mut ws, NodeId(u), &mut streamed)
                        .unwrap();
                    engine
                        .single_source_materialized_with(&g, &mut ws2, NodeId(u), &mut materialized)
                        .unwrap();
                    for v in 0..streamed.len() {
                        assert_eq!(
                            streamed[v].to_bits(),
                            materialized[v].to_bits(),
                            "sr={sr} enh={enh} s({u},{v})"
                        );
                    }
                    // Bare index: no RestoreCache, so a reduced source
                    // seeds from the two-segment streaming view.
                    let bare = idx.single_source(&g, NodeId(u));
                    for v in 0..bare.len() {
                        assert_eq!(
                            bare[v].to_bits(),
                            materialized[v].to_bits(),
                            "sr={sr} enh={enh} two-segment s({u},{v})"
                        );
                    }
                }
            }
        }
    }

    /// Algorithm 6 written densely: every round scans all `n` scores,
    /// every step run adds all `n` of them into the answer, and the clamp
    /// runs over the whole vector. Same floating-point operations in the
    /// same order as the kernel, so the answers must be bit-equal.
    fn dense_oracle(idx: &SlingIndex, g: &DiGraph, u: NodeId) -> Vec<f64> {
        let n = g.num_nodes();
        let config = idx.config();
        let sqrt_c = config.sqrt_c();
        let mut ws = QueryWorkspace::new();
        effective_entries_into(idx.engine_ref(), g, u, &mut ws, Buf::A).unwrap();
        let mut out = vec![0.0; n];
        for run in ws.buf_a.chunk_by(|a, b| a.step == b.step) {
            let step = run[0].step;
            let mut cur = vec![0.0; n];
            for x in run {
                cur[x.node.index()] += x.value * idx.d[x.node.index()];
            }
            let threshold = sqrt_c.powi(step as i32) * config.theta;
            for _ in 0..step {
                let mut next = vec![0.0; n];
                for (x, &val) in cur.iter().enumerate() {
                    if val <= threshold {
                        continue;
                    }
                    let scale = sqrt_c * val;
                    for &y in g.out_neighbors(NodeId::from_index(x)) {
                        next[y.index()] += scale * (1.0 / g.in_degree(y) as f64);
                    }
                }
                cur = next;
            }
            for (o, c) in out.iter_mut().zip(&cur) {
                *o += c;
            }
        }
        for s in out.iter_mut() {
            *s = s.clamp(0.0, 1.0);
        }
        if config.exact_diagonal {
            out[u.index()] = 1.0;
        }
        out
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (v, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: node {v}: {a} vs {b}");
        }
    }

    /// SOURCE, TOPK and the per-source threshold join read the sparse
    /// accumulator; on one reused workspace their answers must be
    /// bit-equal to the dense oracle, to `select_top_k` over it, and to a
    /// dense scan of each SOURCE row. Small graphs touch nearly every
    /// node, so the frontier's word-range edges only show at scale: run
    /// in release (`cargo test -p sling-core --release --lib
    /// single_source::tests::sparse_accumulator_matches_dense_oracle_at_scale
    /// -- --ignored --exact`).
    #[test]
    #[ignore = "release-scale: BA(20000,4), a few seconds in release"]
    fn sparse_accumulator_matches_dense_oracle_at_scale() {
        use crate::join::JoinStrategy;
        use crate::topk::{select_top_k, top_k_core};
        use sling_graph::generators::barabasi_albert;
        let g = barabasi_albert(20_000, 4, 5).unwrap();
        let n = g.num_nodes();
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1).with_seed(3)).unwrap();
        let engine = crate::SharedEngine::from(idx.clone());
        // Both ends of the id range, both sides of word boundaries, and
        // a stride through the middle.
        let mut sources: Vec<u32> = vec![0, 1, 63, 64, 65, 127, 128, 19_967, 19_968, 19_999];
        sources.extend((0..320u32).map(|i| (i * 6_151 + 17) % n as u32));
        let mut ws = SingleSourceWorkspace::new();
        let (mut row, mut empty) = (Vec::new(), Vec::new());
        let mut touched_min = n;
        for &s in &sources {
            let u = NodeId(s);
            let oracle = dense_oracle(&idx, &g, u);
            touched_min = touched_min.min(oracle.iter().filter(|&&x| x > 0.0).count());
            engine.single_source_with(&g, &mut ws, u, &mut row).unwrap();
            assert_bits_eq(&row, &oracle, &format!("engine SOURCE {s}"));
            idx.single_source_with(&g, &mut ws, u, &mut row);
            assert_bits_eq(&row, &oracle, &format!("index SOURCE {s}"));
            for k in [1, 10, n + 1] {
                let want = select_top_k(&oracle, Some(u), k);
                let got = engine.top_k_with(&g, &mut ws, &mut empty, u, k).unwrap();
                assert_eq!(got, want, "engine TOPK {s} k={k}");
                assert!(empty.is_empty());
                let got = top_k_core(idx.engine_ref(), &g, &mut ws, u, k, None).unwrap();
                assert_eq!(got, want, "index TOPK {s} k={k}");
            }
        }
        assert!(
            touched_min * 4 < n,
            "fixture too dense to exercise the touched set: min {touched_min} of {n}"
        );
        // The join reads every row from the touched set; the oracle scans
        // every SOURCE row densely.
        let tau = 0.05;
        let mut want = Vec::new();
        for u in g.nodes() {
            engine.single_source_with(&g, &mut ws, u, &mut row).unwrap();
            for (v, &s) in row.iter().enumerate().skip(u.index() + 1) {
                if s >= tau {
                    want.push((u, NodeId::from_index(v), s.to_bits()));
                }
            }
        }
        want.sort_unstable_by(|a, b| {
            f64::from_bits(b.2)
                .partial_cmp(&f64::from_bits(a.2))
                .unwrap()
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        let got: Vec<_> = engine
            .threshold_join(&g, tau, JoinStrategy::PerSource)
            .unwrap()
            .into_iter()
            .map(|p| (p.u, p.v, p.score.to_bits()))
            .collect();
        assert!(!got.is_empty());
        assert_eq!(got, want, "threshold join");
    }

    #[test]
    fn diagonal_and_range_handling() {
        let g = star_graph(5);
        let idx = build(&g, 0.1);
        let scores = idx.single_source(&g, NodeId(0));
        assert_eq!(scores[0], 1.0);
        assert!(idx.try_single_source(&g, NodeId(99)).is_err());
    }

    #[test]
    fn top_k_orders_by_similarity() {
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        // Node 1 lives in clique {0..4}; its top matches must come from
        // the same clique.
        let top = idx.top_k(&g, NodeId(1), 3);
        assert_eq!(top.len(), 3);
        for (v, s) in &top {
            assert!(v.0 < 5, "cross-clique node {v:?} in top-3");
            assert!(*s > 0.0);
        }
        // Scores descending.
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn cycle_single_source_is_indicator() {
        let g = cycle_graph(7);
        let idx = build(&g, 0.05);
        let scores = idx.single_source(&g, NodeId(3));
        for v in g.nodes() {
            let expect = if v == NodeId(3) { 1.0 } else { 0.0 };
            assert_eq!(scores[v.index()], expect);
        }
    }
}
