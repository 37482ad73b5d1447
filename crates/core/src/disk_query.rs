//! Buffer pool in front of the disk-resident HP store.
//!
//! §5.4 notes SLING "can efficiently process queries even when its index
//! structure does not fit in the main memory": each query touches `O(1/ε)`
//! entries, i.e. a constant number of positioned reads.
//! [`BufferedDiskStore`] is the production piece that mode wants — an LRU
//! buffer of decoded per-node entry lists in front of
//! [`DiskHpStore`], bounded by a total entry budget (the analogue of a
//! database buffer pool, with per-node granularity because `H(v)` is the
//! store's natural page).
//!
//! The buffer implements [`HpStore`], so *every* query algorithm —
//! Algorithm 3 single-pair, Algorithm 6 single-source, top-k, joins,
//! batches — runs against it through the shared generic query core in
//! [`crate::store`]; this module contains no query logic of its own.
//! (Earlier revisions duplicated the Algorithm 6 propagation and the
//! merge-intersection here; that code now lives once, in
//! [`crate::single_source`] / [`crate::single_pair`].)
//!
//! The buffer is format-agnostic: it caches *decoded* per-node lists, so
//! it fronts a raw `SLNGIDX1` store and a block-compressed `SLNGIDX2`
//! one identically — over v2 a miss costs one positioned read per
//! covering block and a decode of just the list's entries (small
//! payloads keep their blocks decoded instead), a hit costs neither IO
//! nor decode.

use parking_lot::Mutex;
use sling_graph::{DiGraph, NodeId};

use crate::cache::{node_hash, Admission, AtomicCacheStats, CacheStats, FrequencySketch, LruList};
use crate::error::SlingError;
use crate::hp::HpEntry;
use crate::obs::{self, KernelCounters};
use crate::out_of_core::DiskHpStore;
use crate::single_source::SingleSourceWorkspace;
use crate::store::{HpStore, QueryEngine};

impl DiskHpStore {
    /// Single-source query (Algorithm 6) against disk-resident entries:
    /// one entry-list read for `H(u)`, then in-memory propagation.
    /// Allocates fresh workspaces; hot loops should use
    /// [`DiskHpStore::single_source_with`].
    pub fn single_source(&self, graph: &DiGraph, u: NodeId) -> Result<Vec<f64>, SlingError> {
        self.query_engine().single_source(graph, u)
    }

    /// Single-source query reusing caller-provided workspaces — the
    /// allocation-free path, matching the in-memory
    /// [`crate::SlingIndex::single_source_with`].
    pub fn single_source_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) -> Result<(), SlingError> {
        self.query_engine().single_source_with(graph, ws, u, out)
    }
}

/// Buffer-pool statistics of a [`BufferedDiskStore`] — the same
/// [`CacheStats`] shape every other cache in the tree reports, counted
/// by the shared [`AtomicCacheStats`] (exact under concurrent batch
/// workers) instead of plain u64 fields, and mirrored into the
/// process-wide [`obs::KERNEL`] counters so buffered-disk hit rates
/// show up in `STATS`/`METRICS` like every other cache.
pub type BufferStats = CacheStats;

/// Mutable buffer state, behind a mutex so the store can be shared by
/// the generic (`&self`) query core and across batch-query threads.
/// Admission, touch, and eviction all go through the intrusive-list
/// [`LruList`] shared with the result caches — `O(1)` per operation, so
/// the bookkeeping under the lock stays cheap at any buffer size.
struct BufferState {
    cached_entries: usize,
    lists: LruList<u32, Vec<HpEntry>>,
    /// Node-keyed frequency sketch advising eviction under
    /// [`Admission::TinyLfu`]; a defaulted sketch (the LRU policy) is a
    /// no-op. Lives under the same lock as the lists.
    sketch: FrequencySketch,
}

/// LRU buffer of decoded `H(v)` lists in front of a [`DiskHpStore`].
///
/// Bounded by *entries*, not node count, because `|H(v)|` varies by
/// orders of magnitude between hub and leaf nodes. Single oversized lists
/// larger than the whole budget are still admitted alone (scan-resistant
/// enough for the SimRank workload, where reuse is node-driven). Caches
/// the *stored* runs; the §5.2 two-hop splice and §5.3 expansion happen
/// in the generic query layer on top.
pub struct BufferedDiskStore<'s> {
    store: &'s DiskHpStore,
    budget_entries: usize,
    /// Lock-free counters, shared shape with every other cache (see
    /// [`BufferStats`]); bumped outside the state lock.
    stats: AtomicCacheStats,
    state: Mutex<BufferState>,
}

impl<'s> BufferedDiskStore<'s> {
    /// Buffer at most `budget_entries` decoded entries (≥ 1) under
    /// plain LRU eviction.
    pub fn new(store: &'s DiskHpStore, budget_entries: usize) -> Self {
        Self::with_admission(store, budget_entries, Admission::Lru)
    }

    /// [`BufferedDiskStore::new`] with an explicit [`Admission`]
    /// policy. [`Admission::TinyLfu`] keeps one-touch scans (cold batch
    /// sweeps) from churning the buffered hub lists.
    pub fn with_admission(
        store: &'s DiskHpStore,
        budget_entries: usize,
        admission: Admission,
    ) -> Self {
        let budget_entries = budget_entries.max(1);
        BufferedDiskStore {
            store,
            budget_entries,
            stats: AtomicCacheStats::new(),
            state: Mutex::new(BufferState {
                cached_entries: 0,
                lists: LruList::new(),
                sketch: match admission {
                    Admission::Lru => FrequencySketch::default(),
                    // Budget is in entries; lists average tens of
                    // entries, so track ~1/16th as many distinct nodes.
                    Admission::TinyLfu => {
                        FrequencySketch::with_capacity((budget_entries / 16).max(16))
                    }
                },
            }),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        self.stats.snapshot()
    }

    /// Decoded entries currently buffered.
    pub fn buffered_entries(&self) -> usize {
        self.state.lock().cached_entries
    }

    /// Query engine over the buffered store, sharing the underlying
    /// store's metadata.
    pub fn query_engine(&self) -> QueryEngine<'_, &BufferedDiskStore<'s>> {
        QueryEngine::from_parts(
            self,
            std::borrow::Cow::Borrowed(&self.store.config),
            std::borrow::Cow::Borrowed(&self.store.d),
            std::borrow::Cow::Borrowed(&self.store.reduced),
            std::borrow::Cow::Borrowed(&self.store.marks),
            self.store.stats(),
        )
    }

    /// Serve `H(v)` from the buffer, reading through on a miss. The
    /// positioned reads happen with the lock *released* so concurrent
    /// batch-query workers only serialize on the (cheap) bookkeeping,
    /// not on each other's IO; two threads missing the same node both
    /// read, and the second one finds the list already admitted.
    fn load_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        {
            let mut state = self.state.lock();
            state.sketch.increment(node_hash(v.0));
            if let Some(list) = state.lists.get(&v.0) {
                out.clear();
                out.extend_from_slice(list);
                drop(state);
                self.stats.record_hit();
                KernelCounters::bump(&obs::KERNEL.buffered_disk_hits);
                return Ok(());
            }
        }
        self.stats.record_miss();
        KernelCounters::bump(&obs::KERNEL.buffered_disk_misses);
        self.store.read_entries(v, out)?;
        // Clone for admission *before* taking the lock: the allocation +
        // memcpy of a hub-sized list must not serialize other workers
        // that only need the O(1) bookkeeping.
        let list = out.clone();
        let mut state = self.state.lock();
        if state.lists.get(&v.0).is_some() {
            // A racing worker admitted it while we read; keep theirs
            // (`out` already holds our identical copy).
            return Ok(());
        }
        // Evict least-recently-used lists until the new one fits.
        // Under TinyLFU admission the candidate node must strictly
        // out-earn the LRU victim in sketched frequency, or the insert
        // is refused and the resident lists survive.
        let mut evicted = 0u64;
        while state.cached_entries + out.len() > self.budget_entries {
            if state.sketch.is_enabled() {
                if let Some((&victim, _)) = state.lists.peek_lru() {
                    if state.sketch.estimate(node_hash(v.0))
                        <= state.sketch.estimate(node_hash(victim))
                    {
                        // `out` already holds the answer; any victims
                        // evicted before this one pushed back still
                        // count.
                        drop(state);
                        self.stats.record_evictions(evicted);
                        KernelCounters::bump_by(&obs::KERNEL.buffered_disk_evictions, evicted);
                        return Ok(());
                    }
                }
            }
            let Some((_, old)) = state.lists.pop_lru() else {
                break;
            };
            state.cached_entries -= old.len();
            evicted += 1;
        }
        state.cached_entries += list.len();
        state.lists.insert(v.0, list);
        drop(state);
        self.stats.record_evictions(evicted);
        KernelCounters::bump_by(&obs::KERNEL.buffered_disk_evictions, evicted);
        Ok(())
    }

    /// Buffered single-pair query; identical results to
    /// [`DiskHpStore::single_pair`].
    pub fn single_pair(&self, graph: &DiGraph, u: NodeId, v: NodeId) -> Result<f64, SlingError> {
        self.query_engine().single_pair(graph, u, v)
    }

    /// Buffered single-source query; identical results to
    /// [`DiskHpStore::single_source`].
    pub fn single_source(&self, graph: &DiGraph, u: NodeId) -> Result<Vec<f64>, SlingError> {
        self.query_engine().single_source(graph, u)
    }
}

impl HpStore for BufferedDiskStore<'_> {
    fn num_nodes(&self) -> usize {
        HpStore::num_nodes(self.store)
    }

    fn total_entries(&self) -> usize {
        self.store.total_entries()
    }

    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.store.range(v)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        self.load_into(v, out)
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        self.store.entry_at(i)
    }

    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        self.store.contains_key(v, step, node)
    }

    fn prefetch(&self, v: NodeId) {
        // Advisory pass-through: a buffered hit doesn't need the pages,
        // but peeking the buffer would take the lock — dearer than the
        // best-effort fadvise hint itself.
        self.store.prefetch_entries(v);
    }

    fn resident_bytes(&self) -> usize {
        let state = self.state.lock();
        self.store.resident_bytes() + state.cached_entries * std::mem::size_of::<HpEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::index::SlingIndex;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};
    use std::path::PathBuf;

    const C: f64 = 0.6;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sling_disk_query_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("hp.bin")
    }

    fn setup(tag: &str) -> (DiGraph, SlingIndex, DiskHpStore) {
        let g = barabasi_albert(150, 3, 7).unwrap();
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1).with_seed(5)).unwrap();
        let store = DiskHpStore::create(&idx, tmp(tag)).unwrap();
        (g, idx, store)
    }

    #[test]
    fn disk_single_source_matches_in_memory() {
        let (g, idx, store) = setup("ss");
        for u in [NodeId(0), NodeId(42), NodeId(149)] {
            let got = store.single_source(&g, u).unwrap();
            let want = idx.single_source(&g, u);
            // The disk store serves the same persisted entries the index
            // holds in memory, through the same generic query core —
            // results are bit-identical.
            assert_eq!(got, want, "single-source from {u:?} diverged");
        }
        assert!(store.single_source(&g, NodeId(9999)).is_err());
    }

    #[test]
    fn disk_single_source_with_reuses_workspace() {
        let (g, _idx, store) = setup("ss_ws");
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        store
            .single_source_with(&g, &mut ws, NodeId(3), &mut out)
            .unwrap();
        let first = out.clone();
        store
            .single_source_with(&g, &mut ws, NodeId(3), &mut out)
            .unwrap();
        assert_eq!(first, out, "workspace reuse changed the answer");
    }

    #[test]
    fn buffered_store_matches_unbuffered() {
        let (g, _idx, store) = setup("buffered");
        let buf = BufferedDiskStore::new(&store, 100_000);
        for (u, v) in [(0u32, 1u32), (5, 80), (42, 42), (149, 0)] {
            let got = buf.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            let want = store.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            assert_eq!(got, want, "({u},{v})");
        }
        // Algorithm 6 agrees too.
        let got = buf.single_source(&g, NodeId(7)).unwrap();
        let want = store.single_source(&g, NodeId(7)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn buffered_store_over_compressed_file_matches_raw() {
        let (g, idx, store) = setup("buffered_v2");
        let v2 = DiskHpStore::create_compressed(
            &idx,
            tmp("buffered_v2_blocks"),
            &crate::codec::CompressOptions {
                block_entries: 32,
                quantize_values: false,
            },
        )
        .unwrap();
        let buf = BufferedDiskStore::new(&v2, 100_000);
        for (u, v) in [(0u32, 1u32), (5, 80), (42, 42), (149, 0), (5, 80)] {
            assert_eq!(
                buf.single_pair(&g, NodeId(u), NodeId(v)).unwrap(),
                store.single_pair(&g, NodeId(u), NodeId(v)).unwrap(),
                "({u},{v})"
            );
        }
        assert_eq!(
            buf.single_source(&g, NodeId(7)).unwrap(),
            store.single_source(&g, NodeId(7)).unwrap()
        );
        assert!(buf.stats().hits > 0);
    }

    #[test]
    fn buffer_hits_on_repeated_nodes() {
        let (g, _idx, store) = setup("hits");
        let buf = BufferedDiskStore::new(&store, 100_000);
        buf.single_pair(&g, NodeId(3), NodeId(4)).unwrap(); // 2 misses
        buf.single_pair(&g, NodeId(3), NodeId(5)).unwrap(); // 1 hit, 1 miss
        buf.single_pair(&g, NodeId(4), NodeId(5)).unwrap(); // 2 hits
        let s = buf.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        let (g, _idx, store) = setup("tiny");
        let buf = BufferedDiskStore::new(&store, 1);
        let mut reference = Vec::new();
        for (u, v) in [(0u32, 1u32), (2, 3), (0, 1), (4, 5)] {
            let got = buf.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            reference.push((u, v, got));
        }
        assert!(buf.stats().evictions > 0, "budget of 1 entry must evict");
        for (u, v, want) in reference {
            let again = store.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            assert_eq!(again, want, "({u},{v})");
        }
    }

    #[test]
    fn tinylfu_buffer_keeps_hot_node_through_cold_scan() {
        let (_g, _idx, store) = setup("tinylfu");
        let hot = NodeId(0);
        let mut out = Vec::new();
        store.read_entries(hot, &mut out).unwrap();
        // Budget fits the hot hub plus a little churn room.
        let budget = out.len() * 2;
        let run = |buf: &BufferedDiskStore| {
            let mut out = Vec::new();
            for _ in 0..10 {
                buf.load_into(hot, &mut out).unwrap();
            }
            // One-touch cold scan over every other node.
            for v in 1..150u32 {
                buf.load_into(NodeId(v), &mut out).unwrap();
            }
            let before = buf.stats().hits;
            buf.load_into(hot, &mut out).unwrap();
            buf.stats().hits > before // was the hub still resident?
        };
        let lru = BufferedDiskStore::new(&store, budget);
        let tiny = BufferedDiskStore::with_admission(&store, budget, Admission::TinyLfu);
        assert!(!run(&lru), "LRU should have evicted the hub in the scan");
        assert!(run(&tiny), "TinyLFU evicted the frequently-used hub");
    }

    #[test]
    fn truncated_file_surfaces_io_error() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1).with_seed(5)).unwrap();
        let path = tmp("trunc");
        let store = DiskHpStore::create(&idx, &path).unwrap();
        // Chop the file behind the store's back.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len / 2).unwrap();
        // Some node's entries now fall past EOF.
        let mut failed = false;
        for v in g.nodes() {
            if store.single_pair(&g, v, NodeId(0)).is_err() {
                failed = true;
            }
        }
        assert!(failed, "no query noticed the truncated entry file");
    }
}
