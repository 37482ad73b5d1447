//! Codec and `SLNGIDX2` round-trip properties: v1 ↔ v2 conversion is
//! lossless, per-block encode/decode survives adversarial run shapes
//! (max-delta ids, single-entry runs, owner boundaries), the range
//! decoder agrees with the whole-block decoder bit for bit, and mutated
//! or truncated v2/v3 images are rejected or answered sanely — mirroring
//! the v1 corruption properties in `backend_equivalence.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use sling_simrank::core::codec::block::{
    decode_block, decode_block_range, decode_block_with_dict, encode_block, run_starts,
    DecodedBlock,
};
use sling_simrank::core::codec::{encode_payload, encode_payload_v3, CompressOptions};
use sling_simrank::core::store::{CompressedMmapArena, HpStore};
use sling_simrank::core::{
    inspect_bytes, FormatVersion, HpEntry, SharedEngine, SlingConfig, SlingIndex,
};
use sling_simrank::graph::generators::{barabasi_albert, erdos_renyi_directed};
use sling_simrank::graph::{DiGraph, NodeId};

const C: f64 = 0.6;

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_codec_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}.slng",
        FILE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (0usize..2, 20usize..=60, 2usize..5, 0u64..1000).prop_map(|(kind, n, k, seed)| {
        if kind == 0 {
            erdos_renyi_directed(n, n * k, seed).unwrap()
        } else {
            barabasi_albert(n, k, seed).unwrap()
        }
    })
}

/// An arbitrary well-formed block: a list of runs, each with a step, an
/// owner delta (so adjacent runs may share steps across owners), and a
/// strictly increasing node set that may include ids near `u32::MAX`.
#[allow(clippy::type_complexity)]
fn arb_block() -> impl Strategy<Value = (Vec<u16>, Vec<u32>, Vec<f64>, Vec<u32>)> {
    vec(
        (
            0u16..40,            // step
            proptest::bool::ANY, // new owner?
            1usize..10,          // run length
            0u32..1 << 30,       // first node
            0u32..3,             // value family selector
        ),
        1..30,
    )
    .prop_map(|runs| {
        let mut steps = Vec::new();
        let mut nodes = Vec::new();
        let mut values = Vec::new();
        let mut owners = Vec::new();
        let mut owner = 0u32;
        let mut last_step_of_owner: i32 = -1;
        for (step, new_owner, len, first, family) in runs {
            if new_owner || i32::from(step) <= last_step_of_owner {
                // Keep (owner, step) keys legal: steps ascend per owner.
                owner += 1;
            }
            last_step_of_owner = i32::from(step);
            // Strictly increasing nodes, with an occasional jump to the
            // top of the id space to exercise max-delta varints.
            let mut node = first;
            for j in 0..len {
                if j + 1 == len && family == 2 {
                    node = node.max(u32::MAX - 1);
                }
                steps.push(step);
                nodes.push(node);
                values.push(match family {
                    0 => 0.5,                       // repeated: dict fodder
                    1 => 1.0 / (node as f64 + 3.0), // distinct full-mantissa
                    _ => 1.0,                       // exactly representable
                });
                owners.push(owner);
                node = node.saturating_add(1 + (node % 7)).max(node + 1);
            }
        }
        (steps, nodes, values, owners)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Any well-formed block round-trips bit-exactly through the
    /// lossless encoder, and within quantization error through the lossy
    /// one.
    #[test]
    fn arbitrary_blocks_round_trip((steps, nodes, values, owners) in arb_block()) {
        let starts = run_starts(&owners, &steps);
        for quantize in [false, true] {
            let mut bytes = Vec::new();
            encode_block(&steps, &nodes, &values, &starts, quantize, &mut bytes);
            let mut block = DecodedBlock::default();
            decode_block(&bytes, steps.len(), &mut block).unwrap();
            prop_assert_eq!(&block.steps, &steps);
            prop_assert_eq!(&block.nodes, &nodes);
            if quantize {
                for (a, b) in values.iter().zip(&block.values) {
                    prop_assert!((a - b).abs() <= 0.5 / (u32::MAX as f64));
                }
            } else {
                for (a, b) in values.iter().zip(&block.values) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Mutating any single byte of an encoded block makes decode either
    /// error or produce a same-length column set — never panic, never a
    /// silent length change.
    #[test]
    fn mutated_blocks_never_panic(
        (steps, nodes, values, owners) in arb_block(),
        flip in 0usize..1 << 16,
        bit in 0u8..8,
    ) {
        let starts = run_starts(&owners, &steps);
        let mut bytes = Vec::new();
        encode_block(&steps, &nodes, &values, &starts, false, &mut bytes);
        let pos = flip % bytes.len();
        bytes[pos] ^= 1 << bit;
        let mut block = DecodedBlock::default();
        if decode_block(&bytes, steps.len(), &mut block).is_ok() {
            prop_assert_eq!(block.steps.len(), steps.len());
            prop_assert_eq!(block.nodes.len(), steps.len());
            prop_assert_eq!(block.values.len(), steps.len());
        }
    }

    /// v1 → v2 → decode and v2 → v1 → decode both reproduce the index
    /// bit-for-bit across the §5.2/§5.3 feature matrix and across block
    /// sizes that force runs to straddle block boundaries.
    #[test]
    fn v1_v2_conversion_is_lossless(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
        enhance in proptest::bool::ANY,
        block_entries in 1usize..200,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction)
            .with_enhancement(enhance);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let opts = CompressOptions { block_entries, quantize_values: false };

        // v1 bytes -> decode -> v2 bytes -> decode -> v1 bytes: the
        // serialized images (which capture every index component,
        // bit-for-bit) must be identical.
        let v1 = idx.to_bytes();
        let from_v1 = SlingIndex::decode(&v1).unwrap();
        let v2 = from_v1.to_bytes_v2(&opts);
        let from_v2 = SlingIndex::from_bytes(&g, &v2).unwrap();
        prop_assert_eq!(&v1, &from_v2.to_bytes(), "v1 -> v2 -> v1 changed bytes");

        // The inspect surface agrees with the real sizes.
        let info = inspect_bytes(&v2).unwrap();
        prop_assert_eq!(info.version, FormatVersion::V2);
        prop_assert_eq!(info.total_bytes, v2.len());
        prop_assert_eq!(info.entries, idx.stats().entries_stored);
        prop_assert!(info.values_exact);
    }

    /// v1 → v3 → v1 reproduces the index bit-for-bit across the same
    /// feature/block-size matrix — the `SLNGIDX3` mirror of the v2
    /// property, exercising the global value dictionary and the varint
    /// block directory.
    #[test]
    fn v1_v3_conversion_is_lossless(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
        enhance in proptest::bool::ANY,
        block_entries in 1usize..200,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction)
            .with_enhancement(enhance);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let opts = CompressOptions { block_entries, quantize_values: false };

        let v1 = idx.to_bytes();
        let from_v1 = SlingIndex::decode(&v1).unwrap();
        let v3 = from_v1.to_bytes_v3(&opts);
        let from_v3 = SlingIndex::from_bytes(&g, &v3).unwrap();
        prop_assert_eq!(&v1, &from_v3.to_bytes(), "v1 -> v3 -> v1 changed bytes");

        let info = inspect_bytes(&v3).unwrap();
        prop_assert_eq!(info.version, FormatVersion::V3);
        prop_assert_eq!(info.total_bytes, v3.len());
        prop_assert_eq!(info.entries, idx.stats().entries_stored);
        prop_assert!(info.values_exact);
        // v3 counts its aux sections (global dict + varint directory)
        // inside the payload, honestly.
        prop_assert!(info.payload_bytes >= info.directory_bytes + info.global_dict_bytes);
    }
}

/// A compacted payload in memory: the concatenated blocks, their byte
/// directory, and the v3 global dictionary (`None` for v2).
struct Payload {
    bytes: Vec<u8>,
    block_offsets: Vec<u64>,
    block_entries: usize,
    global_dict: Option<Vec<f64>>,
}

/// The entry columns of `idx` and its per-node offset table.
fn columns(idx: &SlingIndex) -> (Vec<u16>, Vec<u32>, Vec<f64>, Vec<u64>) {
    let (mut steps, mut nodes, mut values, mut offsets) = (vec![], vec![], vec![], vec![0u64]);
    for v in 0..idx.num_nodes() {
        for e in idx.stored_entries(NodeId(v as u32)) {
            steps.push(e.step);
            nodes.push(e.node.0);
            values.push(e.value);
        }
        offsets.push(steps.len() as u64);
    }
    (steps, nodes, values, offsets)
}

/// Check that every node's run, and every single entry, range-decodes
/// bit-identically to the same entries of the whole-block decode.
fn check_ranges_match_whole_blocks(p: &Payload, offsets: &[u64]) {
    let total = *offsets.last().unwrap() as usize;
    let num_blocks = p.block_offsets.len() - 1;
    let be = p.block_entries;
    let raw = |b: usize| &p.bytes[p.block_offsets[b] as usize..p.block_offsets[b + 1] as usize];
    let expected = |b: usize| be.min(total - b * be);
    let mut whole: Vec<HpEntry> = Vec::with_capacity(total);
    let mut block = DecodedBlock::default();
    for b in 0..num_blocks {
        match &p.global_dict {
            Some(dict) => decode_block_with_dict(raw(b), expected(b), dict, &mut block).unwrap(),
            None => decode_block(raw(b), expected(b), &mut block).unwrap(),
        }
        for i in 0..block.len() {
            whole.push(HpEntry::new(
                block.steps[i],
                NodeId(block.nodes[i]),
                block.values[i],
            ));
        }
    }
    prop_assert_eq!(whole.len(), total);
    let dict = p.global_dict.as_deref();
    // Global entries `lo..hi`, one range decode per block they touch.
    let range_decode = |lo: usize, hi: usize| {
        let mut out = Vec::new();
        for b in lo / be..=(hi - 1) / be {
            let (a, z) = (
                lo.max(b * be) - b * be,
                hi.min(b * be + expected(b)) - b * be,
            );
            decode_block_range(raw(b), expected(b), dict, a..z, &mut out).unwrap();
        }
        out
    };
    let bits = |es: &[HpEntry]| -> Vec<(u16, u32, u64)> {
        es.iter()
            .map(|e| (e.step, e.node.0, e.value.to_bits()))
            .collect()
    };
    for w in offsets.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        if lo < hi {
            prop_assert_eq!(
                bits(&range_decode(lo, hi)),
                bits(&whole[lo..hi]),
                "run {}..{}",
                lo,
                hi
            );
        }
    }
    for i in 0..total {
        prop_assert_eq!(
            bits(&range_decode(i, i + 1)),
            bits(&whole[i..i + 1]),
            "entry {}",
            i
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The range decoder the compressed backends serve runs through is
    /// bit-identical to the whole-block decoder, for every node's run
    /// (straddling runs decode each block's part) and every single
    /// entry, across block sizes and all four payload kinds: v2 and v3,
    /// lossless and quantized.
    #[test]
    fn range_decode_matches_whole_block_decode(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let (steps, nodes, values, offsets) = columns(&idx);
        for block_entries in [8usize, 64, 1024] {
            for quantize_values in [false, true] {
                let opts = CompressOptions { block_entries, quantize_values };
                let v2 = encode_payload(&steps, &nodes, &values, &offsets, &opts);
                check_ranges_match_whole_blocks(
                    &Payload {
                        bytes: v2.bytes,
                        block_offsets: v2.block_offsets,
                        block_entries: v2.block_entries,
                        global_dict: None,
                    },
                    &offsets,
                );
                let v3 = encode_payload_v3(&steps, &nodes, &values, &offsets, &opts);
                check_ranges_match_whole_blocks(
                    &Payload {
                        bytes: v3.bytes,
                        block_offsets: v3.block_offsets,
                        block_entries: v3.block_entries,
                        global_dict: Some(v3.global_dict),
                    },
                    &offsets,
                );
            }
        }
    }
}

/// Bit-flip bit `bit` of byte `flip % len` of a compressed image: the
/// compressed mmap open either surfaces a `SlingError` or yields an
/// engine whose answers are still finite probabilities, and the eager
/// decoder errors or yields a valid index. Nothing panics.
fn assert_mutated_image_sane(g: &DiGraph, bytes: &[u8], tag: &str, flip: usize, bit: u8) {
    let mut corrupt = bytes.to_vec();
    let pos = flip % corrupt.len();
    corrupt[pos] ^= 1 << bit;
    let path = tmpfile(tag);
    std::fs::write(&path, &corrupt).unwrap();

    match SharedEngine::open_mmap_compressed(g, &path) {
        Err(e) => {
            let _ = e.to_string();
        }
        Ok(engine) => {
            for u in [NodeId(0), NodeId(17), NodeId(39)] {
                match engine.single_source(g, u) {
                    Ok(scores) => {
                        prop_assert!(
                            scores
                                .iter()
                                .all(|s| s.is_finite() && (0.0..=1.0).contains(s)),
                            "non-probability score after byte {pos} bit {bit}"
                        );
                    }
                    Err(e) => {
                        let _ = e.to_string();
                    }
                }
                let _ = engine.top_k(g, u, 4);
                let _ = engine.single_pair(g, u, NodeId(1));
            }
        }
    }
    // The eager decoder must hold the same line: error or a fully
    // valid index, never a panic.
    match SlingIndex::from_bytes(g, &corrupt) {
        Ok(idx) => prop_assert!(idx.stats().entries_stored < 1 << 30),
        Err(e) => {
            let _ = e.to_string();
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The mutation corpus compacted with 8-entry blocks: more blocks than
/// the compressed backends keep decoded, so their reads take the range
/// decoder. `v3` picks the format.
fn small_block_corpus(v3: bool) -> &'static (DiGraph, Vec<u8>) {
    static CORPORA: [OnceLock<(DiGraph, Vec<u8>)>; 2] = [OnceLock::new(), OnceLock::new()];
    CORPORA[v3 as usize].get_or_init(|| {
        let (g, _) = mutation_corpus();
        let idx = SlingIndex::from_bytes(g, &mutation_corpus().1).unwrap();
        let opts = CompressOptions {
            block_entries: 8,
            quantize_values: false,
        };
        let bytes = if v3 {
            idx.to_bytes_v3(&opts)
        } else {
            idx.to_bytes_v2(&opts)
        };
        let path = tmpfile("small_blocks");
        std::fs::write(&path, &bytes).unwrap();
        let blocks = CompressedMmapArena::open(&path).unwrap().num_blocks();
        std::fs::remove_file(&path).ok();
        assert!(
            blocks > 64,
            "{blocks} blocks: the corpus would stay resident"
        );
        (g.clone(), bytes)
    })
}

/// Read every run, every entry and some keys of a (possibly corrupt)
/// blocked store: each read either errors or returns only validated
/// entries — the right count, node ids `< n`, probability values.
fn assert_reads_error_or_validate<S: HpStore>(store: &S, what: &str) {
    let n = store.num_nodes();
    let valid = |e: &HpEntry| {
        (e.node.0 as usize) < n && e.value.is_finite() && (0.0..=1.0 + 1e-9).contains(&e.value)
    };
    let mut out = Vec::new();
    for v in 0..n as u32 {
        let range = store.range(NodeId(v));
        if let Ok(()) = store.entries_into(NodeId(v), &mut out) {
            prop_assert_eq!(out.len(), range.len(), "{} run of {}", what, v);
            prop_assert!(out.iter().all(valid), "{what}: invalid entry in run of {v}");
        }
        let mut scratch = Vec::new();
        if let Ok(access) = store.entries_ref(NodeId(v), &mut scratch) {
            prop_assert!(
                (0..access.len()).all(|i| valid(&access.get(i))),
                "{what}: ref {v}"
            );
        }
        let _ = store.contains_key(NodeId(v), 1, NodeId(0));
    }
    for i in 0..store.total_entries() {
        if let Ok(e) = store.entry_at(i) {
            prop_assert!(valid(&e), "{what}: entry {i}");
        }
    }
}

/// Shared corpus for the v2 mutation properties: one valid compressed
/// index (small blocks so the directory is non-trivial).
fn mutation_corpus() -> &'static (DiGraph, Vec<u8>) {
    static CORPUS: OnceLock<(DiGraph, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = barabasi_albert(40, 2, 9).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(4)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes_v2(&CompressOptions {
            block_entries: 32,
            quantize_values: false,
        });
        (g, bytes)
    })
}

/// v3 mirror of [`mutation_corpus`]: small blocks make the varint byte
/// directory, the global value dictionary, and the per-block value
/// planes all non-trivial targets for single-byte corruption.
fn mutation_corpus_v3() -> &'static (DiGraph, Vec<u8>) {
    static CORPUS: OnceLock<(DiGraph, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = barabasi_albert(40, 2, 9).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(4)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes_v3(&CompressOptions {
            block_entries: 32,
            quantize_values: false,
        });
        (g, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Bit-flip any byte of a compressed index: the compressed mmap open
    /// either surfaces a `SlingError` or yields an engine whose answers
    /// are still finite probabilities. Nothing panics — the v2 mirror of
    /// the v1 property in `backend_equivalence.rs`.
    #[test]
    fn v2_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = mutation_corpus();
        assert_mutated_image_sane(g, bytes, "mut", flip, bit);
    }

    /// Any truncation of a v2 file is rejected at open.
    #[test]
    fn v2_truncation_always_rejected(cut_seed in 0usize..1 << 20) {
        let (g, bytes) = mutation_corpus();
        let cut = cut_seed % bytes.len(); // strictly shorter than full
        let path = tmpfile("trunc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            SharedEngine::open_mmap_compressed(g, &path).is_err(),
            "cut at {cut} accepted"
        );
        prop_assert!(SlingIndex::from_bytes(g, &bytes[..cut]).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Bit-flip any byte of a `SLNGIDX3` image — value planes, the
    /// shared global dictionary, and the varint offset directory
    /// included: open errors or the engine keeps answering finite
    /// probabilities; nothing panics.
    #[test]
    fn v3_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = mutation_corpus_v3();
        assert_mutated_image_sane(g, bytes, "mut3", flip, bit);
    }

    /// The v3 mutation property again on the 8-entry-block corpus, so
    /// the engine reads through the range decoder rather than the
    /// resident decoded blocks.
    #[test]
    fn v3_small_block_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = small_block_corpus(true);
        assert_mutated_image_sane(g, bytes, "mut3s", flip, bit);
    }

    /// Range reads of a mutated v2/v3 image through both blocked
    /// backends (mmap-compressed and disk) either error or return only
    /// validated entries; nothing panics.
    #[test]
    fn range_reads_of_mutated_images_error_or_validate(
        flip in 0usize..1 << 20,
        bit in 0u8..8,
        v3 in proptest::bool::ANY,
    ) {
        let (g, bytes) = small_block_corpus(v3);
        let mut corrupt = bytes.clone();
        let pos = flip % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        let path = tmpfile("mutr");
        std::fs::write(&path, &corrupt).unwrap();
        if let Ok(arena) = CompressedMmapArena::open(&path) {
            assert_reads_error_or_validate(&arena, "mmap-compressed");
        }
        if let Ok(disk) = SharedEngine::open_disk(g, &path) {
            assert_reads_error_or_validate(disk.store(), "disk");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of a v3 file is rejected at open.
    #[test]
    fn v3_truncation_always_rejected(cut_seed in 0usize..1 << 20) {
        let (g, bytes) = mutation_corpus_v3();
        let cut = cut_seed % bytes.len();
        let path = tmpfile("trunc3");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            SharedEngine::open_mmap_compressed(g, &path).is_err(),
            "cut at {cut} accepted"
        );
        prop_assert!(SlingIndex::from_bytes(g, &bytes[..cut]).is_err());
        std::fs::remove_file(&path).ok();
    }
}

/// Empty runs cannot be encoded (the encoder breaks runs so every run
/// holds ≥ 1 entry) and are rejected on decode; nodes with empty `H(v)`
/// simply contribute no entries to any block.
#[test]
fn empty_entry_sets_round_trip() {
    // A star graph gives many nodes tiny or empty stored sets under
    // space reduction.
    let mut edges = Vec::new();
    for i in 1..30u32 {
        edges.push((0u32, i));
    }
    let g = DiGraph::from_edges(30, edges.iter().copied());
    let config = SlingConfig::from_epsilon(C, 0.1)
        .with_seed(3)
        .with_space_reduction(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    for block_entries in [1usize, 4, 1024] {
        let opts = CompressOptions {
            block_entries,
            quantize_values: false,
        };
        let back = SlingIndex::from_bytes(&g, &idx.to_bytes_v2(&opts)).unwrap();
        assert_eq!(
            idx.to_bytes(),
            back.to_bytes(),
            "block_entries = {block_entries}"
        );
    }
}

/// The compression claims the ROADMAP makes, pinned: on a preferential-
/// attachment fixture the v2 lossless payload shrinks meaningfully, the
/// v3 lossless payload (global value dictionary) shrinks below it, and
/// quantization shrinks further still. (The ≤ 60% lossless CI gate runs
/// on the larger BA(2000, 4) fixture, where value repetition is higher;
/// this 600-node fixture lands a few points above it.)
#[test]
fn fixture_compression_ratios_hold() {
    let g = barabasi_albert(600, 4, 7).unwrap();
    let config = SlingConfig::from_epsilon(C, 0.1).with_seed(3);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let raw = inspect_bytes(&idx.to_bytes()).unwrap();
    let lossless = inspect_bytes(&idx.to_bytes_v2(&CompressOptions::default())).unwrap();
    let quantized = inspect_bytes(&idx.to_bytes_v2(&CompressOptions {
        quantize_values: true,
        ..CompressOptions::default()
    }))
    .unwrap();
    assert_eq!(raw.payload_bytes, raw.raw_payload_bytes);
    assert!(
        (lossless.compression_ratio()) <= 0.75,
        "v2 lossless ratio regressed: {}",
        lossless.compression_ratio()
    );
    assert!(
        (quantized.compression_ratio()) <= 0.60,
        "quantized ratio above the CI gate: {}",
        quantized.compression_ratio()
    );
    let v3_lossless = inspect_bytes(&idx.to_bytes_v3(&CompressOptions::default())).unwrap();
    let v3_quantized = inspect_bytes(&idx.to_bytes_v3(&CompressOptions {
        quantize_values: true,
        ..CompressOptions::default()
    }))
    .unwrap();
    assert!(
        (v3_lossless.compression_ratio()) <= 0.65,
        "v3 lossless ratio regressed: {}",
        v3_lossless.compression_ratio()
    );
    assert!(
        v3_lossless.compression_ratio() < lossless.compression_ratio(),
        "v3 lossless did not beat v2: {} vs {}",
        v3_lossless.compression_ratio(),
        lossless.compression_ratio()
    );
    assert!(
        v3_quantized.compression_ratio() < v3_lossless.compression_ratio(),
        "v3 quantized {} not below lossless {}",
        v3_quantized.compression_ratio(),
        v3_lossless.compression_ratio()
    );
}
