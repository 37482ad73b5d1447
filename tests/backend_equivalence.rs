//! Cross-backend equivalence: every query API must return identical
//! scores whether the index is served from memory, from a zero-copy mmap,
//! from a compressed mmap, or from the disk store — and through the
//! cache-less `SlingIndex` convenience API — including with §5.2 space
//! reduction and §5.3 accuracy enhancement enabled. Plus hardening
//! properties for the mmap path: metadata-only open, and no panic on
//! mutated bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use sling_simrank::core::codec::CompressOptions;
use sling_simrank::core::join::{JoinPair, JoinStrategy};
use sling_simrank::core::single_source::SingleSourceWorkspace;
use sling_simrank::core::topk::select_top_k;
use sling_simrank::core::{
    HpStore, QueryWorkspace, SharedEngine, SlingConfig, SlingError, SlingIndex,
};
use sling_simrank::graph::generators::{barabasi_albert, erdos_renyi_directed, star_graph};
use sling_simrank::graph::{DiGraph, NodeId};

const C: f64 = 0.6;

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_backend_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}.slng",
        FILE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Assert the streaming kernels (borrow-from-backend entry access,
/// galloping merge, restore-cache memoization) answer **bit-identically**
/// to the materializing reference path on one backend, for every query
/// type. Two rounds, so the second runs against a warm restore cache.
fn assert_streaming_matches_materialized<S: HpStore + Sync>(
    label: &str,
    engine: &SharedEngine<S>,
    g: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    sources: &[NodeId],
) {
    let mut ws = QueryWorkspace::new();
    let mut ws_ref = QueryWorkspace::new();
    let mut ssw = SingleSourceWorkspace::new();
    let mut ssw_ref = SingleSourceWorkspace::new();
    let (mut scores, mut scores_ref) = (Vec::new(), Vec::new());
    for round in 0..2 {
        for &(u, v) in pairs {
            let streamed = engine.single_pair_with(g, &mut ws, u, v).unwrap();
            let reference = engine
                .single_pair_materialized_with(g, &mut ws_ref, u, v)
                .unwrap();
            assert_eq!(
                streamed.to_bits(),
                reference.to_bits(),
                "{label} round {round}: single_pair({u:?},{v:?}) {streamed} vs {reference}"
            );
        }
        for &u in sources {
            engine
                .single_source_with(g, &mut ssw, u, &mut scores)
                .unwrap();
            engine
                .single_source_materialized_with(g, &mut ssw_ref, u, &mut scores_ref)
                .unwrap();
            assert_eq!(
                &scores, &scores_ref,
                "{label} round {round}: single_source({u:?})"
            );
            // Top-k and the zero-slack truncated variant build on the
            // same streamed vector.
            let top = engine.top_k(g, u, 5).unwrap();
            assert_eq!(&top, &select_top_k(&scores_ref, Some(u), 5));
            let mut truncated = Vec::new();
            let residual = engine
                .single_source_truncated(g, &mut ssw, u, 0.0, &mut truncated)
                .unwrap();
            assert_eq!(residual, 0.0);
            assert_eq!(&truncated, &scores_ref);
        }
    }
    // Batches route through the same streaming cores.
    let batch = engine.batch_single_pair(g, pairs, 3).unwrap();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let reference = engine
            .single_pair_materialized_with(g, &mut ws_ref, u, v)
            .unwrap();
        assert_eq!(batch[i].to_bits(), reference.to_bits());
    }
}

/// Strategy: random graphs from the two generator families the paper's
/// datasets resemble.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (0usize..2, 20usize..=60, 2usize..5, 0u64..1000).prop_map(|(kind, n, k, seed)| {
        if kind == 0 {
            erdos_renyi_directed(n, n * k, seed).unwrap()
        } else {
            barabasi_albert(n, k, seed).unwrap()
        }
    })
}

/// Slack of the truncated single-source row: large enough that
/// Algorithm 6 actually skips step runs on the test graphs.
const TRUNCATION_SLACK: f64 = 0.01;

/// Every query API's answers on one fixed query set: one row of the
/// equivalence matrix.
#[derive(Debug, PartialEq)]
struct Answers {
    pairs: Vec<f64>,
    sources: Vec<Vec<f64>>,
    top_k: Vec<Vec<(NodeId, f64)>>,
    truncated: Vec<(f64, Vec<f64>)>,
    joins: Vec<Vec<(NodeId, NodeId, f64)>>,
    batch: Vec<f64>,
}

const JOIN_STRATEGIES: [JoinStrategy; 2] = [JoinStrategy::PerSource, JoinStrategy::InvertedLists];

fn join_row(pairs: Vec<JoinPair>) -> Vec<(NodeId, NodeId, f64)> {
    pairs.into_iter().map(|p| (p.u, p.v, p.score)).collect()
}

fn engine_answers<S: HpStore + Sync>(
    engine: &SharedEngine<S>,
    g: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    sources: &[NodeId],
) -> Answers {
    let mut ssw = SingleSourceWorkspace::new();
    Answers {
        pairs: pairs
            .iter()
            .map(|&(u, v)| engine.single_pair(g, u, v).unwrap())
            .collect(),
        sources: sources
            .iter()
            .map(|&u| engine.single_source(g, u).unwrap())
            .collect(),
        top_k: sources
            .iter()
            .map(|&u| engine.top_k(g, u, 5).unwrap())
            .collect(),
        truncated: sources
            .iter()
            .map(|&u| {
                let mut out = Vec::new();
                let residual = engine
                    .single_source_truncated(g, &mut ssw, u, TRUNCATION_SLACK, &mut out)
                    .unwrap();
                (residual, out)
            })
            .collect(),
        joins: JOIN_STRATEGIES
            .iter()
            .map(|&s| join_row(engine.threshold_join(g, 0.05, s).unwrap()))
            .collect(),
        batch: engine.batch_single_pair(g, pairs, 3).unwrap(),
    }
}

/// The cache-less row: the `SlingIndex` convenience API carries no
/// `RestoreCache`, so §5.2-reduced nodes stream the two-segment view
/// where every engine resolves a cached full list.
fn index_answers(
    idx: &SlingIndex,
    g: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    sources: &[NodeId],
) -> Answers {
    let mut ssw = SingleSourceWorkspace::new();
    Answers {
        pairs: pairs
            .iter()
            .map(|&(u, v)| idx.single_pair(g, u, v))
            .collect(),
        sources: sources.iter().map(|&u| idx.single_source(g, u)).collect(),
        top_k: sources.iter().map(|&u| idx.top_k_heap(g, u, 5)).collect(),
        truncated: sources
            .iter()
            .map(|&u| {
                let mut out = Vec::new();
                let residual =
                    idx.single_source_truncated(g, &mut ssw, u, TRUNCATION_SLACK, &mut out);
                (residual, out)
            })
            .collect(),
        joins: JOIN_STRATEGIES
            .iter()
            .map(|&s| join_row(idx.threshold_join(g, 0.05, s).unwrap()))
            .collect(),
        batch: idx.batch_single_pair(g, pairs, 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Single-pair, single-source, top-k, truncated single-source, join,
    /// and batch answers are bit-identical across the engines over mem /
    /// mmap / disk — plus the lossless compressed-mmap and
    /// compressed-disk backends serving `SLNGIDX2` and `SLNGIDX3`
    /// conversions of the same index — and the cache-less `SlingIndex`
    /// API, on random graphs across the §5.2/§5.3 feature matrix. Every
    /// engine carries a `RestoreCache`; the cache-less row is what pins
    /// the two-segment streaming restore against the cached full lists.
    /// Per engine, the streaming kernels are also pinned against the
    /// materializing reference path, warm and cold.
    #[test]
    fn all_query_apis_agree_across_backends(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
        enhance in proptest::bool::ANY,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction)
            .with_enhancement(enhance);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let path = tmpfile("eq");
        idx.save(&path).unwrap();
        let v2_path = tmpfile("eq_v2");
        // Tiny blocks so entry runs straddle block boundaries.
        let opts = CompressOptions { block_entries: 32, quantize_values: false };
        idx.save_v2(&v2_path, &opts).unwrap();
        let v3_path = tmpfile("eq_v3");
        idx.save_v3(&v3_path, &opts).unwrap();

        let engines = [
            ("mem", SharedEngine::from(idx.clone()).into_dyn()),
            ("mmap", SharedEngine::open_mmap(&g, &path).unwrap().into_dyn()),
            (
                "mmap-compressed",
                SharedEngine::open_mmap_compressed(&g, &v2_path).unwrap().into_dyn(),
            ),
            (
                "mmap-compressed-v3",
                SharedEngine::open_mmap_compressed(&g, &v3_path).unwrap().into_dyn(),
            ),
            ("disk", SharedEngine::open_disk(&g, &path).unwrap().into_dyn()),
            ("disk-v2", SharedEngine::open_disk(&g, &v2_path).unwrap().into_dyn()),
            ("disk-v3", SharedEngine::open_disk(&g, &v3_path).unwrap().into_dyn()),
        ];

        let n = g.num_nodes() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..24u32)
            .map(|i| (NodeId((i * 7) % n), NodeId((i * 13 + 1) % n)))
            .collect();
        let sources = [NodeId(0), NodeId(n / 2), NodeId(n - 1)];

        let want = index_answers(&idx, &g, &pairs, &sources);
        for (label, engine) in &engines {
            let got = engine_answers(engine, &g, &pairs, &sources);
            prop_assert_eq!(&got, &want, "{} vs the cache-less SlingIndex row", label);
        }

        // Streaming kernels vs the materializing reference path, per
        // backend × query type, across the same §5.2/§5.3 feature
        // matrix — with hub-skewed pairs appended so the galloping merge
        // branch is exercised too.
        let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
        let mut skewed = pairs.clone();
        skewed.extend((0..8u32).map(|i| (hub, NodeId((i * 5 + 1) % n))));
        for (label, engine) in &engines {
            assert_streaming_matches_materialized(label, engine, &g, &skewed, &sources);
        }

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&v2_path).ok();
        std::fs::remove_file(&v3_path).ok();
    }
}

/// Hub-versus-leaf pairs on a graph with no §5.2 reduction: the hub's
/// *stored* run dwarfs the leaves', so the streaming kernels take the
/// zero-copy borrow path and the merge takes the galloping branch — and
/// both must still be bit-identical to the materializing linear-merge
/// reference on every backend.
#[test]
fn skewed_stored_lists_stream_and_gallop_bit_identically() {
    // Directed star (spokes → center): the center's stored run holds an
    // entry per spoke while each spoke stores only its step-0 self
    // entry — maximal length skew, with §5.2 reduction off so the
    // streaming kernels take the zero-copy borrow path on the long run.
    let g = star_graph(400);
    let config = SlingConfig::from_epsilon(C, 0.05)
        .with_seed(23)
        .with_space_reduction(false);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let hub = NodeId(0);
    let hub_len = idx.stored_entries(hub).count();
    let leaf = NodeId(7);
    let leaf_len = idx.stored_entries(leaf).count();
    assert!(
        hub_len >= 8 * leaf_len.max(1),
        "fixture not skewed enough for galloping: hub {hub_len} vs leaf {leaf_len}"
    );
    let path = tmpfile("skew");
    idx.save(&path).unwrap();
    let v2_path = tmpfile("skew_v2");
    idx.save_v2(&v2_path, &CompressOptions::default()).unwrap();

    let pairs: Vec<(NodeId, NodeId)> = g
        .nodes()
        .skip(1)
        .take(64)
        .flat_map(|v| [(hub, v), (v, hub)])
        .collect();
    let sources = [hub, leaf];
    let mem = SharedEngine::from(idx);
    assert_streaming_matches_materialized("mem", &mem, &g, &pairs, &sources);
    let mmap = SharedEngine::open_mmap(&g, &path).unwrap();
    assert_streaming_matches_materialized("mmap", &mmap, &g, &pairs, &sources);
    let compressed = SharedEngine::open_mmap_compressed(&g, &v2_path).unwrap();
    assert_streaming_matches_materialized("compressed", &compressed, &g, &pairs, &sources);
    let disk = SharedEngine::open_disk(&g, &path).unwrap();
    assert_streaming_matches_materialized("disk", &disk, &g, &pairs, &sources);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&v2_path).ok();
}

/// Directed star: the center's entry run against a spoke's is the most
/// extreme length skew a graph can produce; the dispatch must stay
/// bit-identical there too.
#[test]
fn star_graph_extreme_skew_is_bit_identical() {
    let g = star_graph(400);
    let config = SlingConfig::from_epsilon(C, 0.05).with_seed(3);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let pairs: Vec<(NodeId, NodeId)> = (1..40u32).map(|i| (NodeId(0), NodeId(i))).collect();
    let mem = SharedEngine::from(idx);
    assert_streaming_matches_materialized("star-mem", &mem, &g, &pairs, &[NodeId(0), NodeId(7)]);
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (v, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: node {v}: {a} vs {b}");
    }
}

/// TOPK and the per-source threshold join read Algorithm 6's touched
/// set instead of a dense score vector. On every backend, under both
/// restore policies (engine with a `RestoreCache`, bare `SlingIndex`
/// without) and with the exact diagonal on and off, each answer must
/// equal `select_top_k` or a dense scan over the same engine's SOURCE
/// row, bit for bit. SOURCE, TOPK, truncated and join calls interleave
/// on one `SingleSourceWorkspace`, and every SOURCE row on it must
/// equal a fresh workspace's: an accumulator left dirty by one query
/// fails the next.
#[test]
fn sparse_topk_and_join_match_dense_scans_on_one_workspace() {
    const SLACK: f64 = 0.05;
    const TAU: f64 = 0.05;
    let g = barabasi_albert(300, 3, 17).unwrap();
    let n = g.num_nodes();
    let sources: Vec<NodeId> = [0, 1, 63, 64, 150, 255, 256, n as u32 - 1]
        .into_iter()
        .map(NodeId)
        .collect();
    let ks = [0, 1, 10, n + 7];
    for exact_diagonal in [true, false] {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(5)
            .with_exact_diagonal(exact_diagonal);
        let idx = SlingIndex::build(&g, &config).unwrap();
        assert!(idx.stats().reduced_nodes > 0, "fixture has no §5.2 nodes");
        let path = tmpfile("sparse");
        idx.save(&path).unwrap();
        let v2_path = tmpfile("sparse_v2");
        let opts = CompressOptions {
            block_entries: 32,
            quantize_values: false,
        };
        idx.save_v2(&v2_path, &opts).unwrap();
        let engines = [
            ("mem", SharedEngine::from(idx.clone()).into_dyn()),
            (
                "mmap",
                SharedEngine::open_mmap(&g, &path).unwrap().into_dyn(),
            ),
            (
                "mmap-compressed",
                SharedEngine::open_mmap_compressed(&g, &v2_path)
                    .unwrap()
                    .into_dyn(),
            ),
            (
                "disk",
                SharedEngine::open_disk(&g, &path).unwrap().into_dyn(),
            ),
        ];
        for (label, engine) in &engines {
            let what =
                |verb: &str, u: NodeId| format!("{label} diag={exact_diagonal} {verb} {u:?}");
            let mut ws = SingleSourceWorkspace::new();
            let (mut row, mut left_empty, mut truncated) = (Vec::new(), Vec::new(), Vec::new());
            for &u in &sources {
                let dense = engine.single_source(&g, u).unwrap();
                if exact_diagonal {
                    assert_eq!(dense[u.index()], 1.0);
                }
                engine.single_source_with(&g, &mut ws, u, &mut row).unwrap();
                assert_bits_eq(&row, &dense, &what("SOURCE", u));
                for k in ks {
                    let top = engine
                        .top_k_with(&g, &mut ws, &mut left_empty, u, k)
                        .unwrap();
                    assert_eq!(
                        top,
                        select_top_k(&dense, Some(u), k),
                        "{} k={k}",
                        what("TOPK", u)
                    );
                    assert!(left_empty.is_empty());
                    assert_eq!(
                        idx.top_k_heap(&g, u, k),
                        top,
                        "{} k={k}",
                        what("bare TOPK", u)
                    );
                }
                let residual = engine
                    .single_source_truncated(&g, &mut ws, u, SLACK, &mut truncated)
                    .unwrap();
                assert!(residual > 0.0);
                let mut fresh = Vec::new();
                engine
                    .single_source_truncated(
                        &g,
                        &mut SingleSourceWorkspace::new(),
                        u,
                        SLACK,
                        &mut fresh,
                    )
                    .unwrap();
                assert_bits_eq(&truncated, &fresh, &what("truncated", u));
                for k in ks {
                    assert_eq!(
                        idx.top_k_approx(&g, u, k, SLACK),
                        select_top_k(&truncated, Some(u), k),
                        "{} k={k}",
                        what("approx TOPK", u)
                    );
                }
                idx.single_source_with(&g, &mut ws, u, &mut row);
                assert_bits_eq(&row, &dense, &what("bare SOURCE", u));
                idx.single_source_truncated(&g, &mut ws, u, SLACK, &mut row);
                assert_bits_eq(&row, &truncated, &what("bare truncated", u));
            }
            let mut scanned = Vec::new();
            for u in g.nodes() {
                engine.single_source_with(&g, &mut ws, u, &mut row).unwrap();
                for (v, &s) in row.iter().enumerate().skip(u.index() + 1) {
                    if s >= TAU {
                        scanned.push((u, NodeId::from_index(v), s));
                    }
                }
            }
            let mut joined = join_row(
                engine
                    .threshold_join(&g, TAU, JoinStrategy::PerSource)
                    .unwrap(),
            );
            assert!(!joined.is_empty(), "{label}: empty join");
            let key = |p: &(NodeId, NodeId, f64)| (p.0, p.1, p.2.to_bits());
            joined.sort_unstable_by_key(key);
            scanned.sort_unstable_by_key(key);
            assert_eq!(joined, scanned, "{label} diag={exact_diagonal}: join");
            let mut bare = join_row(
                idx.threshold_join(&g, TAU, JoinStrategy::PerSource)
                    .unwrap(),
            );
            bare.sort_unstable_by_key(key);
            assert_eq!(bare, scanned, "bare diag={exact_diagonal}: join");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&v2_path).ok();
    }
}

/// Shared corpus for the mutation property: one valid persisted index.
fn mutation_corpus() -> &'static (DiGraph, Vec<u8>) {
    static CORPUS: OnceLock<(DiGraph, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = barabasi_albert(40, 2, 9).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(4)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes();
        (g, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Bit-flip any byte of a persisted index: the mmap open either
    /// surfaces a `SlingError` or yields an engine whose answers are
    /// still finite probabilities. Nothing panics.
    #[test]
    fn mmap_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = mutation_corpus();
        let mut corrupt = bytes.clone();
        let pos = flip % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        let path = tmpfile("mut");
        std::fs::write(&path, &corrupt).unwrap();

        match SharedEngine::open_mmap(g, &path) {
            Err(e) => {
                // Must be a structured error, never a panic; exercise the
                // Display path too.
                let _ = e.to_string();
            }
            Ok(engine) => {
                for u in [NodeId(0), NodeId(17), NodeId(39)] {
                    match engine.single_source(g, u) {
                        Ok(scores) => {
                            prop_assert!(
                                scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)),
                                "non-probability score after byte {pos} bit {bit}"
                            );
                        }
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                    // Ranking paths must not panic on corrupt stores
                    // either.
                    let _ = engine.top_k(g, u, 4);
                    let _ = engine.single_pair(g, u, NodeId(1));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of the file is rejected at open.
    #[test]
    fn mmap_truncation_always_rejected(cut_seed in 0usize..1 << 20) {
        let (g, bytes) = mutation_corpus();
        let cut = cut_seed % bytes.len(); // strictly shorter than full
        let path = tmpfile("trunc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = SharedEngine::open_mmap(g, &path);
        prop_assert!(err.is_err(), "cut at {cut} accepted");
        std::fs::remove_file(&path).ok();
    }
}

/// The mmap open must be metadata-only: corrupting the entry payload is
/// invisible to `open` (proving no full-file decode happens) while the
/// eager decoder rejects the same bytes; and the resident footprint of
/// the mapped engine stays at the `O(n)` metadata level.
#[test]
fn mmap_open_does_not_decode_the_payload() {
    let g = barabasi_albert(300, 3, 21).unwrap();
    let config = SlingConfig::from_epsilon(C, 0.05).with_seed(7);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let mut bytes = idx.to_bytes();
    let len = bytes.len();
    // Poison the last HP value with NaN: eager decode must reject, the
    // metadata-only mmap open must not notice.
    bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    assert!(matches!(
        SlingIndex::from_bytes(&g, &bytes),
        Err(SlingError::CorruptIndex(_))
    ));
    let path = tmpfile("payload");
    std::fs::write(&path, &bytes).unwrap();
    let engine = SharedEngine::open_mmap(&g, &path).unwrap();

    // No HpArena materialization: the engine's heap footprint is the
    // O(n) metadata, far below the in-memory index which holds the
    // O(n/eps) entry payload.
    assert!(
        engine.resident_bytes() * 2 < idx.resident_bytes(),
        "mmap engine resident {} vs in-memory {}",
        engine.resident_bytes(),
        idx.resident_bytes()
    );

    // Queries that touch the poisoned entry surface an error rather than
    // a NaN score or a panic.
    let mut saw_error = false;
    for v in g.nodes() {
        match engine.single_pair(&g, NodeId(0), v) {
            Ok(s) => assert!(s.is_finite() && (0.0..=1.0).contains(&s)),
            Err(SlingError::CorruptIndex(_)) => saw_error = true,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(saw_error, "the poisoned entry was never read");
    std::fs::remove_file(&path).ok();
}
