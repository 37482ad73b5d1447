//! Incremental index maintenance under edge updates.
//!
//! The paper lists dynamic graphs as future work (§9); related work (reference 29
//! in its bibliography) studies SimRank on link-evolving graphs. This
//! module provides a production-style wrapper, [`DynamicSling`], that
//! keeps a SLING index usable while the graph mutates:
//!
//! * Edge insertions/deletions and node additions are applied to a
//!   mutable adjacency overlay immediately; the index itself is *not*
//!   touched.
//! * Every update taints the region of the graph whose query results it
//!   can move by more than the index's ε budget. A reverse √c-walk from
//!   `x` only visits nodes reachable from `x` along in-edges, and stored
//!   hitting probabilities are cut off below `θ` after
//!   `L = ⌈log_{√c} θ⌉` steps, so an update of `I(v)` can only affect
//!   `H(x)` for nodes `x` within `L` *out*-hops of `v`. (Correction
//!   factors `d_k` read one extra hop, hence the `L + 1` taint horizon.)
//!   Scores of untainted pairs move by at most `O(c^L) ≤ O(θ) ≪ ε`, so
//!   serving them from the stale index preserves the ε guarantee.
//! * Tainted queries are resolved per a [`StalePolicy`]: rebuild the
//!   index, fall back to on-the-fly Monte-Carlo √c-walk estimation on the
//!   *current* graph (Lemma 3 + the Chernoff bound give ε/δ guarantees
//!   without any index), or knowingly serve the stale answer.
//! * When the update log grows past [`DynamicConfig::rebuild_fraction`]
//!   of the edge count, the wrapper rebuilds eagerly — the classic
//!   amortization argument: a rebuild costs `O(m/ε + n log(n/δ)/ε²)`, so
//!   charging it to `Ω(m)` updates keeps amortized update cost
//!   near-constant.

use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::error::SlingError;
use crate::hp::HpArena;
use crate::index::SlingIndex;
use crate::store::SharedEngine;
use crate::walk::{task_rng, WalkEngine};

/// What to do when a query touches the tainted region of the graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StalePolicy {
    /// Rebuild the index before answering (always fresh, bursty latency).
    Rebuild,
    /// Answer single-pair queries with on-the-fly Monte-Carlo √c-walk
    /// estimation on the current graph (failure probability `delta` per
    /// query); single-source queries still rebuild, since `n` independent
    /// MC estimations would dwarf a rebuild.
    MonteCarloFallback {
        /// Per-query failure probability for the Chernoff sample bound.
        delta: f64,
    },
    /// Serve the stale index answer (no guarantee inside the tainted
    /// region; cheapest).
    ServeStale,
}

/// Configuration for [`DynamicSling`].
#[derive(Clone, Debug)]
pub struct DynamicConfig {
    /// Index parameters (ε, θ, seeds, ...).
    pub config: SlingConfig,
    /// Policy for queries that hit the tainted region.
    pub policy: StalePolicy,
    /// Eager rebuild threshold: rebuild when
    /// `pending_updates > rebuild_fraction · m`. Set to `f64::INFINITY`
    /// to rebuild only on demand.
    pub rebuild_fraction: f64,
}

impl DynamicConfig {
    /// Default dynamic setup around the given index configuration:
    /// Monte-Carlo fallback with `δ = 10⁻⁴`, rebuild at 10% churn.
    pub fn new(config: SlingConfig) -> Self {
        DynamicConfig {
            config,
            policy: StalePolicy::MonteCarloFallback { delta: 1e-4 },
            rebuild_fraction: 0.1,
        }
    }
}

/// A SLING index that stays queryable while its graph evolves.
///
/// ```
/// use sling_core::dynamic::{DynamicConfig, DynamicSling};
/// use sling_core::SlingConfig;
/// use sling_graph::generators::cycle_graph;
/// use sling_graph::NodeId;
///
/// let g = cycle_graph(6);
/// let cfg = DynamicConfig::new(SlingConfig::from_epsilon(0.6, 0.1));
/// let mut index = DynamicSling::new(&g, cfg).unwrap();
/// index.insert_edge(NodeId(0), NodeId(3)).unwrap();
/// let s = index.single_pair(NodeId(1), NodeId(4)).unwrap();
/// assert!((0.0..=1.0).contains(&s));
/// ```
#[derive(Debug)]
pub struct DynamicSling {
    cfg: DynamicConfig,
    /// Sorted adjacency overlay (the *current* graph).
    out_adj: Vec<Vec<NodeId>>,
    in_adj: Vec<Vec<NodeId>>,
    num_edges: usize,
    /// Engine over the index, and the snapshot the index was built from.
    engine: SharedEngine<HpArena>,
    snapshot: DiGraph,
    /// Materialized current graph, invalidated by updates.
    current: Option<DiGraph>,
    /// Nodes whose in-adjacency changed since the snapshot.
    dirty: Vec<NodeId>,
    /// Lazily computed taint bitmap (nodes whose queries may be stale).
    tainted: Option<Vec<bool>>,
    updates_since_build: usize,
    query_counter: u64,
}

fn sorted_insert(list: &mut Vec<NodeId>, v: NodeId) -> bool {
    match list.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            list.insert(pos, v);
            true
        }
    }
}

fn sorted_remove(list: &mut Vec<NodeId>, v: NodeId) -> bool {
    match list.binary_search(&v) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl DynamicSling {
    /// Build the initial index over `graph`.
    pub fn new(graph: &DiGraph, cfg: DynamicConfig) -> Result<Self, SlingError> {
        let engine = SharedEngine::from(SlingIndex::build(graph, &cfg.config)?);
        let out_adj: Vec<Vec<NodeId>> = graph
            .nodes()
            .map(|v| graph.out_neighbors(v).to_vec())
            .collect();
        let in_adj: Vec<Vec<NodeId>> = graph
            .nodes()
            .map(|v| graph.in_neighbors(v).to_vec())
            .collect();
        Ok(DynamicSling {
            num_edges: graph.num_edges(),
            out_adj,
            in_adj,
            engine,
            snapshot: graph.clone(),
            current: None,
            dirty: Vec::new(),
            tainted: None,
            updates_since_build: 0,
            cfg,
            query_counter: 0,
        })
    }

    /// Current number of nodes (including ones added since the last
    /// rebuild).
    pub fn num_nodes(&self) -> usize {
        self.out_adj.len()
    }

    /// Current number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Updates applied since the index was last (re)built.
    pub fn pending_updates(&self) -> usize {
        self.updates_since_build
    }

    /// The index parameters.
    pub fn config(&self) -> &SlingConfig {
        &self.cfg.config
    }

    /// Taint horizon `L + 1` where `L = ⌈log_{√c} θ⌉` (see module docs).
    fn horizon(&self) -> u32 {
        let l = self.cfg.config.theta.ln() / self.cfg.config.sqrt_c().ln();
        l.ceil().max(0.0) as u32 + 1
    }

    fn check_node(&self, v: NodeId) -> Result<(), SlingError> {
        if v.index() >= self.num_nodes() {
            return Err(SlingError::NodeOutOfRange {
                node: v.0,
                n: self.num_nodes() as u32,
            });
        }
        Ok(())
    }

    /// Add an isolated node; returns its id. The new node is tainted
    /// until the next rebuild (the snapshot index has never seen it).
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.out_adj.len());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.current = None;
        self.tainted = None;
        id
    }

    /// Insert the directed edge `u -> v`. Returns `Ok(false)` if the edge
    /// already exists or is a self-loop (SimRank's model excludes them).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, SlingError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v || !sorted_insert(&mut self.out_adj[u.index()], v) {
            return Ok(false);
        }
        sorted_insert(&mut self.in_adj[v.index()], u);
        self.num_edges += 1;
        self.note_update(v);
        Ok(true)
    }

    /// Remove the directed edge `u -> v`. Returns `Ok(false)` if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, SlingError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !sorted_remove(&mut self.out_adj[u.index()], v) {
            return Ok(false);
        }
        sorted_remove(&mut self.in_adj[v.index()], u);
        self.num_edges -= 1;
        self.note_update(v);
        Ok(true)
    }

    fn note_update(&mut self, changed_in: NodeId) {
        self.dirty.push(changed_in);
        self.current = None;
        self.tainted = None;
        self.updates_since_build += 1;
        if (self.updates_since_build as f64)
            > self.cfg.rebuild_fraction * self.snapshot.num_edges().max(1) as f64
        {
            self.rebuild().expect("rebuild after churn threshold");
        }
    }

    /// Materialize (and cache) the current graph.
    pub fn current_graph(&mut self) -> &DiGraph {
        if self.current.is_none() {
            let n = self.out_adj.len();
            let edges = self
                .out_adj
                .iter()
                .enumerate()
                .flat_map(|(u, vs)| vs.iter().map(move |v| (u as u32, v.0)))
                .collect::<Vec<_>>();
            self.current = Some(DiGraph::from_edges(n, edges));
        }
        self.current.as_ref().expect("just materialized")
    }

    /// Rebuild the index from the current graph, clearing all staleness.
    /// The new engine starts with its own restore state, so nothing
    /// restored from the old graph survives.
    pub fn rebuild(&mut self) -> Result<(), SlingError> {
        self.engine = SharedEngine::from(self.rebuild_index()?);
        Ok(())
    }

    /// Build a fresh index over the current graph and make that graph the
    /// snapshot; the caller must install the index as the engine.
    fn rebuild_index(&mut self) -> Result<SlingIndex, SlingError> {
        self.current_graph();
        let graph = self.current.clone().expect("materialized above");
        let index = SlingIndex::build(&graph, &self.cfg.config)?;
        self.snapshot = graph;
        self.dirty.clear();
        self.tainted = None;
        self.updates_since_build = 0;
        Ok(index)
    }

    /// Rebuild from the current graph and **publish the result into a
    /// generation store** instead of only replacing the engine in place:
    /// the fresh index plus a snapshot of the graph it was built from
    /// become a new `gen-NNNN` directory, which is then verified and
    /// atomically promoted to `CURRENT`. A serving process watching the
    /// store (`sling serve --index-root <root> --watch`, or the `RELOAD`
    /// verb) hot-swaps onto it without dropping a request — the
    /// zero-downtime path for dynamic workloads, where this wrapper owns
    /// the mutations and the server owns the traffic.
    ///
    /// The local index is rebuilt too (this wrapper keeps answering its
    /// own queries), and all staleness is cleared exactly as in
    /// [`DynamicSling::rebuild`]. Returns the promoted generation id.
    pub fn rebuild_into(
        &mut self,
        store: &crate::lifecycle::GenerationStore,
    ) -> Result<crate::lifecycle::GenId, SlingError> {
        let index = self.rebuild_index()?;
        let published = store.publish_index(&index, Some(&self.snapshot));
        // Install the engine before reporting a publish error: the
        // snapshot has already moved to the new graph.
        self.engine = SharedEngine::from(index);
        let gen = published?;
        store.promote(gen)?;
        Ok(gen)
    }

    /// Compute (and cache) the taint bitmap: nodes within `horizon`
    /// out-hops of any dirty node on the current graph, plus nodes the
    /// snapshot has never seen.
    fn taint_map(&mut self) -> &[bool] {
        if self.tainted.is_none() {
            let n = self.out_adj.len();
            let horizon = self.horizon();
            let mut tainted = vec![false; n];
            for i in self.snapshot.num_nodes()..n {
                tainted[i] = true;
            }
            let mut frontier: Vec<NodeId> = Vec::new();
            for &d in &self.dirty {
                if !tainted[d.index()] {
                    tainted[d.index()] = true;
                    frontier.push(d);
                }
            }
            for _ in 0..horizon {
                if frontier.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                for &x in &frontier {
                    for &y in &self.out_adj[x.index()] {
                        if !tainted[y.index()] {
                            tainted[y.index()] = true;
                            next.push(y);
                        }
                    }
                }
                frontier = next;
            }
            self.tainted = Some(tainted);
        }
        self.tainted.as_deref().expect("just computed")
    }

    /// Whether queries involving `v` may currently be stale.
    pub fn is_tainted(&mut self, v: NodeId) -> bool {
        v.index() >= self.snapshot.num_nodes() || self.taint_map()[v.index()]
    }

    /// Chernoff sample count for a two-sided additive `ε` bound with
    /// failure probability `delta` on a `[0, 1]` Bernoulli mean.
    fn mc_pairs(eps: f64, delta: f64) -> u32 {
        let n = (2.0 / 3.0 * eps + 2.0) / (eps * eps) * (2.0 / delta).ln();
        n.ceil() as u32
    }

    /// Single-pair query with freshness handling per the configured
    /// policy. Self-pairs return 1 exactly.
    pub fn single_pair(&mut self, u: NodeId, v: NodeId) -> Result<f64, SlingError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Ok(1.0);
        }
        let fresh = !self.is_tainted(u) && !self.is_tainted(v);
        if fresh {
            return self.engine.single_pair(&self.snapshot, u, v);
        }
        match self.cfg.policy {
            StalePolicy::Rebuild => {
                self.rebuild()?;
                self.engine.single_pair(&self.snapshot, u, v)
            }
            StalePolicy::MonteCarloFallback { delta } => {
                let eps = self.cfg.config.epsilon;
                let c = self.cfg.config.c;
                let seed = self.cfg.config.seed;
                self.query_counter += 1;
                let counter = self.query_counter;
                let pairs = Self::mc_pairs(eps, delta);
                let graph = self.current_graph();
                let engine = WalkEngine::new(graph, c);
                let mut rng = task_rng(seed ^ 0xD15C0, counter);
                Ok(engine.estimate_simrank(&mut rng, u, v, pairs))
            }
            StalePolicy::ServeStale => {
                if u.index() < self.snapshot.num_nodes() && v.index() < self.snapshot.num_nodes() {
                    self.engine.single_pair(&self.snapshot, u, v)
                } else {
                    // The stale index predates these nodes entirely; zero
                    // is the only consistent stale answer.
                    Ok(0.0)
                }
            }
        }
    }

    /// Single-source query. If any node is tainted the index rebuilds
    /// first (unless the policy is [`StalePolicy::ServeStale`]); per-node
    /// Monte-Carlo fallback is never worth it for `n` outputs.
    pub fn single_source(&mut self, u: NodeId) -> Result<Vec<f64>, SlingError> {
        self.check_node(u)?;
        let any_taint =
            self.updates_since_build > 0 || self.snapshot.num_nodes() != self.out_adj.len();
        if any_taint && self.cfg.policy != StalePolicy::ServeStale {
            self.rebuild()?;
        }
        if u.index() >= self.snapshot.num_nodes() {
            // ServeStale with a node the snapshot never saw.
            let mut out = vec![0.0; self.num_nodes()];
            out[u.index()] = 1.0;
            return Ok(out);
        }
        let mut out = self.engine.single_source(&self.snapshot, u)?;
        out.resize(self.num_nodes(), 0.0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::{barabasi_albert, cycle_graph, two_cliques_bridge};

    const C: f64 = 0.6;

    fn cfg(eps: f64) -> DynamicConfig {
        DynamicConfig::new(SlingConfig::from_epsilon(C, eps).with_seed(7))
    }

    fn fresh_engine(dyn_idx: &mut DynamicSling) -> (SharedEngine<HpArena>, DiGraph) {
        let g = dyn_idx.current_graph().clone();
        let idx = SlingIndex::build(&g, dyn_idx.config()).unwrap();
        (SharedEngine::from(idx), g)
    }

    #[test]
    fn insert_and_remove_maintain_adjacency() {
        let g = cycle_graph(5);
        let mut d = DynamicSling::new(&g, cfg(0.1)).unwrap();
        assert_eq!(d.num_edges(), 5);
        assert!(d.insert_edge(NodeId(0), NodeId(2)).unwrap());
        assert!(!d.insert_edge(NodeId(0), NodeId(2)).unwrap(), "duplicate");
        assert!(!d.insert_edge(NodeId(3), NodeId(3)).unwrap(), "self-loop");
        assert_eq!(d.num_edges(), 6);
        assert!(d.remove_edge(NodeId(0), NodeId(2)).unwrap());
        assert!(!d.remove_edge(NodeId(0), NodeId(2)).unwrap(), "absent");
        assert_eq!(d.num_edges(), 5);
        assert!(d.insert_edge(NodeId(0), NodeId(9)).is_err());
    }

    #[test]
    fn untainted_queries_served_from_stale_index_without_rebuild() {
        // Two disjoint 4-cycles (0..4 and 4..8): an update inside the
        // second component cannot taint the first, so queries there keep
        // being served from the existing index even under Rebuild policy.
        let mut edges: Vec<(u32, u32)> = (0..4).map(|i| (i, (i + 1) % 4)).collect();
        edges.extend((0..4).map(|i| (4 + i, 4 + (i + 1) % 4)));
        let g = DiGraph::from_edges(8, edges);
        let mut c = cfg(0.1);
        c.policy = StalePolicy::Rebuild;
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        let before = d.single_pair(NodeId(0), NodeId(2)).unwrap();
        d.insert_edge(NodeId(4), NodeId(6)).unwrap();
        assert!(!d.is_tainted(NodeId(0)));
        assert!(!d.is_tainted(NodeId(2)));
        assert!(d.is_tainted(NodeId(6)));
        assert_eq!(d.single_pair(NodeId(0), NodeId(2)).unwrap(), before);
        assert_eq!(d.pending_updates(), 1, "no rebuild for untainted pair");
    }

    #[test]
    fn taint_is_bounded_by_out_reachability() {
        // Directed path 0 -> 1 -> 2 -> 3: updating I(1) (edge 0->1 removed)
        // taints 1 and its out-reach {2, 3}, but never node 0.
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut c = cfg(0.1);
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        d.remove_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(!d.is_tainted(NodeId(0)));
        assert!(d.is_tainted(NodeId(1)));
        assert!(d.is_tainted(NodeId(2)));
        assert!(d.is_tainted(NodeId(3)));
    }

    #[test]
    fn rebuild_policy_matches_fresh_build() {
        let g = barabasi_albert(60, 2, 9).unwrap();
        let mut cfg = cfg(0.05);
        cfg.policy = StalePolicy::Rebuild;
        cfg.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, cfg).unwrap();
        d.insert_edge(NodeId(0), NodeId(50)).unwrap();
        d.insert_edge(NodeId(50), NodeId(13)).unwrap();
        d.remove_edge(NodeId(1), NodeId(0)).ok();
        let (fresh, fg) = fresh_engine(&mut d);
        // Tainted query triggers rebuild with the same seed => identical.
        let got = d.single_pair(NodeId(0), NodeId(50)).unwrap();
        let want = fresh.single_pair(&fg, NodeId(0), NodeId(50)).unwrap();
        assert_eq!(got, want);
        assert_eq!(d.pending_updates(), 0, "rebuild cleared the log");
    }

    #[test]
    fn mc_fallback_is_within_eps_of_truth() {
        let eps = 0.05;
        let g = two_cliques_bridge(4);
        let mut c = cfg(eps);
        c.policy = StalePolicy::MonteCarloFallback { delta: 1e-6 };
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        // Densify the first clique's pattern a little.
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        let truth = crate::reference::exact_simrank(d.current_graph(), C, 60);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 3)] {
            let got = d.single_pair(NodeId(u), NodeId(v)).unwrap();
            let want = truth[u as usize][v as usize];
            assert!(
                (got - want).abs() <= eps,
                "({u},{v}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn churn_threshold_triggers_auto_rebuild() {
        let g = cycle_graph(10);
        let mut c = cfg(0.1);
        c.rebuild_fraction = 0.2; // 10 edges * 0.2 = 2 updates allowed
        let mut d = DynamicSling::new(&g, c).unwrap();
        d.insert_edge(NodeId(0), NodeId(5)).unwrap();
        d.insert_edge(NodeId(1), NodeId(6)).unwrap();
        assert!(d.pending_updates() > 0);
        d.insert_edge(NodeId(2), NodeId(7)).unwrap(); // crosses 20% churn
        assert_eq!(d.pending_updates(), 0, "auto-rebuild fired");
        // And the rebuilt index answers on the new topology.
        let (fresh, fg) = fresh_engine(&mut d);
        assert_eq!(
            d.single_pair(NodeId(0), NodeId(1)).unwrap(),
            fresh.single_pair(&fg, NodeId(0), NodeId(1)).unwrap()
        );
    }

    #[test]
    fn added_nodes_are_queryable_after_linking() {
        let g = cycle_graph(4);
        let mut c = cfg(0.1);
        c.policy = StalePolicy::Rebuild;
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        let new = d.add_node();
        assert_eq!(new, NodeId(4));
        assert!(d.is_tainted(new));
        d.insert_edge(NodeId(0), new).unwrap();
        d.insert_edge(NodeId(1), new).unwrap();
        let s = d.single_pair(new, NodeId(2)).unwrap();
        assert!((0.0..=1.0).contains(&s));
        // After the rebuild the new node is first-class.
        assert!(!d.is_tainted(new));
        let ss = d.single_source(new).unwrap();
        assert_eq!(ss.len(), 5);
        assert_eq!(ss[4], 1.0);
    }

    #[test]
    fn rebuild_into_publishes_and_promotes_a_generation() {
        let g = barabasi_albert(60, 2, 9).unwrap();
        let mut c = cfg(0.1);
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        let root = std::env::temp_dir().join(format!("sling_dynamic_gen_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = crate::lifecycle::GenerationStore::open(&root).unwrap();

        d.insert_edge(NodeId(0), NodeId(50)).unwrap();
        let gen = d.rebuild_into(&store).unwrap();
        assert_eq!(store.current().unwrap(), Some(gen));
        assert_eq!(d.pending_updates(), 0, "rebuild cleared the log");

        // The promoted generation is self-contained: its graph snapshot
        // plus index answer bit-identically to the wrapper.
        let snap = store.load_graph(gen).unwrap().expect("graph co-located");
        let served = SharedEngine::from(SlingIndex::load(&snap, store.index_path(gen)).unwrap());
        assert_eq!(
            served.single_pair(&snap, NodeId(0), NodeId(50)).unwrap(),
            d.single_pair(NodeId(0), NodeId(50)).unwrap()
        );

        // A second churn cycle publishes the next generation.
        d.insert_edge(NodeId(1), NodeId(40)).unwrap();
        let gen2 = d.rebuild_into(&store).unwrap();
        assert!(gen2 > gen);
        assert_eq!(store.current().unwrap(), Some(gen2));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn serve_stale_answers_without_rebuilding() {
        let g = two_cliques_bridge(4);
        let mut c = cfg(0.1);
        c.policy = StalePolicy::ServeStale;
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        let before = d.single_pair(NodeId(0), NodeId(1)).unwrap();
        d.insert_edge(NodeId(0), NodeId(5)).unwrap();
        assert_eq!(d.single_pair(NodeId(0), NodeId(1)).unwrap(), before);
        assert!(d.pending_updates() > 0, "no rebuild happened");
        let new = d.add_node();
        assert_eq!(d.single_pair(new, NodeId(0)).unwrap(), 0.0);
        let ss = d.single_source(new).unwrap();
        assert_eq!(ss[new.index()], 1.0);
    }

    #[test]
    fn single_source_rebuilds_when_stale() {
        let g = barabasi_albert(40, 2, 4).unwrap();
        let mut c = cfg(0.1);
        c.policy = StalePolicy::Rebuild;
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        d.insert_edge(NodeId(0), NodeId(30)).unwrap();
        let (fresh, fg) = fresh_engine(&mut d);
        let got = d.single_source(NodeId(0)).unwrap();
        let want = fresh.single_source(&fg, NodeId(0)).unwrap();
        assert_eq!(got, want);
    }

    /// Pair and source answers on §5.2-reduced hubs warm the engine's
    /// restore cache; after an edge insert and a rebuild, every answer
    /// must come from the new graph, bit for bit, with no restored list
    /// of the old graph served.
    #[test]
    fn rebuild_drops_the_restore_cache() {
        let g = barabasi_albert(300, 3, 21).unwrap();
        let mut c = cfg(0.1);
        c.policy = StalePolicy::ServeStale;
        c.rebuild_fraction = f64::INFINITY;
        let mut d = DynamicSling::new(&g, c).unwrap();
        assert_eq!(
            d.engine.restore_policy(),
            crate::store::RestorePolicy::Cache
        );
        let mut hubs: Vec<NodeId> = g
            .nodes()
            .filter(|&v| d.engine.engine_ref().reduced[v.index()])
            .collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
        hubs.truncate(4);
        assert!(hubs.len() == 4, "fixture has too few reduced nodes");
        let probe: Vec<(NodeId, NodeId)> = hubs
            .iter()
            .flat_map(|&a| hubs.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .collect();
        for &(a, b) in &probe {
            d.single_pair(a, b).unwrap();
        }
        for &h in &hubs {
            d.single_source(h).unwrap();
        }
        // Reverse-link the two biggest hubs' in-neighbourhoods: both
        // hubs' steps 1-2 change, so a stale restored list would differ.
        let (h0, h1) = (hubs[0], hubs[1]);
        let extra = g
            .in_neighbors(h1)
            .iter()
            .copied()
            .find(|&x| x != h0 && !g.in_neighbors(h0).contains(&x))
            .expect("a new in-neighbour for the top hub");
        assert!(d.insert_edge(extra, h0).unwrap());
        d.rebuild().unwrap();
        let (fresh, fg) = fresh_engine(&mut d);
        for &(a, b) in &probe {
            assert_eq!(
                d.single_pair(a, b).unwrap().to_bits(),
                fresh.single_pair(&fg, a, b).unwrap().to_bits(),
                "pair ({a:?},{b:?})"
            );
        }
        for &h in &hubs {
            let got = d.single_source(h).unwrap();
            let want = fresh.single_source(&fg, h).unwrap();
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "source {h:?}"
            );
        }
    }
}
