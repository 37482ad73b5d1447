//! Independently decodable entry blocks — the unit of the `SLNGIDX2`
//! payload.
//!
//! The global entry array (sorted by `(owner, step, node)`) is cut into
//! fixed-size blocks of [`DEFAULT_BLOCK_ENTRIES`] entries (the last may
//! be short). Each block is self-contained: decoding needs only the
//! block's bytes and its expected entry count, never a neighbouring
//! block — which is what lets the mmap and disk backends decode exactly
//! the blocks a query touches.
//!
//! ## Block layout
//!
//! ```text
//! num_entries  varint                (== expected count, validated)
//! num_runs     varint
//! runs:        num_runs × (step varint, len varint ≥ 1), Σ len == num_entries
//! nodes:       per run: first node absolute varint, then (delta − 1) varints
//! value_tag    u8                    (see crate::codec::value)
//! values:      codec-specific payload, num_entries values
//! ```
//!
//! A *run* is a maximal span of entries sharing one `(owner, step)` key —
//! node ids are strictly increasing inside it, so consecutive deltas are
//! ≥ 1 and `delta − 1` packs the common +1 case into a zero byte. The
//! encoder breaks runs at owner boundaries (two owners may store the same
//! step) and at block boundaries (independence), which is why run
//! boundaries are an encoder input rather than derived from the step
//! column.
//!
//! Two decoders read a block. [`decode_block`] decodes it whole and
//! validates everything: counts against the directory, run-length sums,
//! node-id overflow, value-section length, and that the block's bytes are
//! consumed exactly. [`decode_block_range`] decodes only entries
//! `lo..hi`: it checks the same framing (counts, run directory, section
//! boundaries, exact length) on every call and fully decodes the
//! requested entries, but only counts the varints of the others. Any
//! violation is [`SlingError::CorruptIndex`]; no input may panic.

use std::ops::Range;

use sling_graph::NodeId;

use crate::codec::value::{
    codec_for_tag, decode_values_global, decode_values_range, encode_values_lossless,
    encode_values_quantized, encode_values_v3, GlobalDict, TAG_GLOBAL_DICT,
};
use crate::codec::varint;
use crate::error::SlingError;
use crate::hp::HpEntry;

/// Default entries per block: big enough that the per-block dictionary
/// and directory overhead amortize. A query reads an `O(1/ε)` run (about
/// 20 entries on BA(100000,4) at ε = 0.1), far less than a block, so the
/// compressed backends serve runs through [`decode_block_range`] rather
/// than decoding whole blocks.
pub const DEFAULT_BLOCK_ENTRIES: usize = 1024;

/// Hard ceiling on entries per block, bounding what a corrupt directory
/// can make a decoder allocate.
pub const MAX_BLOCK_ENTRIES: usize = 1 << 20;

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(what.into())
}

/// Lane width of the chunked validation sweeps ([`max_node`],
/// [`values_all_probabilities`] and the raw-section sweep in
/// `crate::store::validate_raw_le`): the folds process this many
/// independent accumulators per stripe so the compiler can keep them in
/// vector registers, with a scalar tail for the remainder.
pub(crate) const SWEEP_LANES: usize = 8;

/// Upper probability bound the validators accept: the exact tolerance of
/// `crate::store::check_value`, shared so the wide sweeps and the
/// per-entry rescans can never disagree on what passes.
pub(crate) const MAX_PROBABILITY: f64 = 1.0 + 1e-9;

/// Maximum node id in a decoded node column — a lane-parallel max fold.
/// Callers compare the result against `n` once and only a failing column
/// pays a per-entry rescan to name the offending entry.
pub(crate) fn max_node(nodes: &[u32]) -> u32 {
    let mut lanes = [0u32; SWEEP_LANES];
    let mut chunks = nodes.chunks_exact(SWEEP_LANES);
    for stripe in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(stripe) {
            *m = (*m).max(v);
        }
    }
    let mut max = lanes.into_iter().max().unwrap_or(0);
    for &v in chunks.remainder() {
        max = max.max(v);
    }
    max
}

/// Whether every value is a finite probability in
/// `0.0..=`[`MAX_PROBABILITY`] — a lane-parallel boolean fold.
///
/// The per-lane predicate `(v >= 0.0) & (v <= MAX_PROBABILITY)` is
/// exactly `v.is_finite() && (0.0..=MAX_PROBABILITY).contains(&v)`:
/// NaN fails both comparisons and ±∞ fails one, so the explicit
/// finiteness test is redundant and the fold stays two branchless
/// compares per lane.
// The two non-short-circuit compares are the point; `contains` is `&&`.
#[allow(clippy::manual_range_contains)]
pub(crate) fn values_all_probabilities(values: &[f64]) -> bool {
    let mut lanes = [true; SWEEP_LANES];
    let mut chunks = values.chunks_exact(SWEEP_LANES);
    for stripe in &mut chunks {
        for (ok, &v) in lanes.iter_mut().zip(stripe) {
            *ok &= (v >= 0.0) & (v <= MAX_PROBABILITY);
        }
    }
    let mut all = lanes.into_iter().all(|ok| ok);
    for &v in chunks.remainder() {
        all &= (v >= 0.0) & (v <= MAX_PROBABILITY);
    }
    all
}

/// One decoded block: the three entry columns, parallel and
/// `num_entries` long. Reused across decodes (buffers are cleared, not
/// reallocated) and kept by the compressed backends' resident block
/// tables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecodedBlock {
    pub steps: Vec<u16>,
    pub nodes: Vec<u32>,
    pub values: Vec<f64>,
}

impl DecodedBlock {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    fn clear(&mut self) {
        self.steps.clear();
        self.nodes.clear();
        self.values.clear();
    }
}

/// Value-section encoding mode of [`encode_block_with`].
#[derive(Clone, Copy)]
pub enum ValueMode<'a> {
    /// v2 lossless: the smaller of raw/per-block-dictionary.
    Lossless,
    /// Lossy fixed-point `u32` (flagged file-wide).
    Quantized,
    /// v3 lossless: cross-block [`GlobalDict`] with split-plane escapes,
    /// falling back to raw/per-block-dictionary per block by exact cost.
    Global(&'a GlobalDict),
}

/// Encode one block. `run_starts` lists the local indices (ascending,
/// starting with 0) where a new `(owner, step)` run begins; the columns
/// must be equally long and non-empty.
///
/// `quantize_values` selects the lossy fixed-point value codec; the
/// default lossless path picks the smaller of raw/dictionary per block.
/// (The v3 encoder calls [`encode_block_with`] directly.)
pub fn encode_block(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    run_starts: &[usize],
    quantize_values: bool,
    out: &mut Vec<u8>,
) {
    let mode = if quantize_values {
        ValueMode::Quantized
    } else {
        ValueMode::Lossless
    };
    encode_block_with(steps, nodes, values, run_starts, mode, out)
}

/// Encode one block with an explicit value-section mode (see
/// [`ValueMode`]); the step/node column encodings are identical across
/// modes and format generations.
pub fn encode_block_with(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    run_starts: &[usize],
    mode: ValueMode<'_>,
    out: &mut Vec<u8>,
) {
    let count = steps.len();
    debug_assert!(count > 0, "empty blocks are never written");
    debug_assert_eq!(nodes.len(), count);
    debug_assert_eq!(values.len(), count);
    debug_assert_eq!(run_starts.first(), Some(&0));

    varint::write_u64(out, count as u64);
    varint::write_u64(out, run_starts.len() as u64);

    // Run directory: (step, length) per run.
    for (i, &start) in run_starts.iter().enumerate() {
        let end = run_starts.get(i + 1).copied().unwrap_or(count);
        debug_assert!(start < end, "empty run at {start}");
        varint::write_u64(out, steps[start] as u64);
        varint::write_u64(out, (end - start) as u64);
    }

    // Node column: absolute first id per run, then gap − 1 deltas.
    for (i, &start) in run_starts.iter().enumerate() {
        let end = run_starts.get(i + 1).copied().unwrap_or(count);
        varint::write_u64(out, nodes[start] as u64);
        for j in start + 1..end {
            debug_assert!(nodes[j] > nodes[j - 1], "run not strictly increasing");
            varint::write_u64(out, (nodes[j] - nodes[j - 1] - 1) as u64);
        }
    }

    // Value column, behind its codec tag.
    match mode {
        ValueMode::Quantized => encode_values_quantized(values, out),
        ValueMode::Lossless => encode_values_lossless(values, out),
        ValueMode::Global(dict) => encode_values_v3(values, dict, out),
    }
}

/// Decode one block into `out` (cleared first), validating it holds
/// exactly `expected_entries` entries and consumes `bytes` exactly.
/// v1/v2 context: a [`TAG_GLOBAL_DICT`] value section is rejected.
pub fn decode_block(
    bytes: &[u8],
    expected_entries: usize,
    out: &mut DecodedBlock,
) -> Result<(), SlingError> {
    decode_block_ctx(bytes, expected_entries, None, out)
}

/// Decode one block of an `SLNGIDX3` payload: like [`decode_block`],
/// additionally resolving [`TAG_GLOBAL_DICT`] value sections against the
/// file's resident global dictionary.
pub fn decode_block_with_dict(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: &[f64],
    out: &mut DecodedBlock,
) -> Result<(), SlingError> {
    decode_block_ctx(bytes, expected_entries, Some(global_dict), out)
}

fn decode_block_ctx(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: Option<&[f64]>,
    out: &mut DecodedBlock,
) -> Result<(), SlingError> {
    out.clear();
    let mut buf = bytes;
    let (count, num_runs) = read_header(&mut buf, expected_entries)?;

    // Run directory.
    let mut run_lens = Vec::with_capacity(num_runs);
    out.steps.reserve(count);
    let mut total = 0usize;
    for _ in 0..num_runs {
        let (step, len) = read_run(&mut buf)?;
        if len == 0 {
            return Err(corrupt("zero-length run"));
        }
        total += len;
        if total > count {
            return Err(corrupt("run lengths exceed the block entry count"));
        }
        for _ in 0..len {
            out.steps.push(step);
        }
        run_lens.push(len);
    }
    if total != count {
        return Err(corrupt(format!(
            "run lengths cover {total} of {count} entries"
        )));
    }

    // Node column.
    out.nodes.reserve(count);
    for &len in &run_lens {
        let mut node = varint::read_u32(&mut buf)?;
        out.nodes.push(node);
        for _ in 1..len {
            let gap = varint::read_u32(&mut buf)? as u64;
            let next = node as u64 + gap + 1;
            node = u32::try_from(next)
                .map_err(|_| corrupt(format!("node delta overflows u32 ({next})")))?;
            out.nodes.push(node);
        }
    }

    // Value column.
    if buf.is_empty() {
        return Err(corrupt("block truncated before the value section"));
    }
    let tag = buf[0];
    buf = &buf[1..];
    match (tag, global_dict) {
        (TAG_GLOBAL_DICT, Some(dict)) => {
            decode_values_global(&mut buf, count, dict, &mut out.values)?
        }
        (TAG_GLOBAL_DICT, None) => {
            return Err(corrupt(
                "global-dictionary value section outside an SLNGIDX3 payload",
            ));
        }
        _ => codec_for_tag(tag)?.decode(&mut buf, count, &mut out.values)?,
    }

    if !buf.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the block payload",
            buf.len()
        )));
    }
    Ok(())
}

/// Read and check a block's entry count (against the directory's
/// `expected_entries`) and run count; returns both.
fn read_header(buf: &mut &[u8], expected_entries: usize) -> Result<(usize, usize), SlingError> {
    if expected_entries == 0 || expected_entries > MAX_BLOCK_ENTRIES {
        return Err(corrupt(format!(
            "block directory expects {expected_entries} entries (valid: 1..={MAX_BLOCK_ENTRIES})"
        )));
    }
    let count = varint::read_u32(buf)? as usize;
    if count != expected_entries {
        return Err(corrupt(format!(
            "block holds {count} entries, directory says {expected_entries}"
        )));
    }
    let num_runs = varint::read_u32(buf)? as usize;
    if num_runs == 0 || num_runs > count {
        return Err(corrupt(format!(
            "block of {count} entries claims {num_runs} runs"
        )));
    }
    Ok((count, num_runs))
}

/// Read one run-directory entry `(step, len)`. Both fields are almost
/// always one-byte varints, read here without the general decoder.
#[inline(always)]
fn read_run(buf: &mut &[u8]) -> Result<(u16, usize), SlingError> {
    if let &[step, len, ref rest @ ..] = *buf {
        if (step | len) < 0x80 {
            *buf = rest;
            return Ok((step as u16, len as usize));
        }
    }
    Ok((varint::read_u16(buf)?, varint::read_u32(buf)? as usize))
}

/// Decode entries `entries` (local indices) of one block, appending them
/// to `out` in order (nothing is appended on error). `global_dict` is
/// the `SLNGIDX3` dictionary (`None` outside a v3 payload, where a
/// [`TAG_GLOBAL_DICT`] section is rejected).
///
/// The block's framing is checked exactly as [`decode_block`] checks it:
/// the entry count against `expected_entries`, the run directory in full
/// (no empty runs, lengths summing to the count), every section boundary,
/// and that the block's bytes are consumed exactly. The requested
/// entries are decoded with every per-entry check: node-id overflow,
/// dictionary indices and hi-plane indices in range. The varints of the
/// other entries are only counted, a word at a time
/// (`varint::skip_varints`), so a corrupt value among them is not
/// detected; bounds that depend on the index (node `< n`, values that
/// are probabilities) are the caller's to check. On a block
/// [`decode_block`] accepts, the result is bit-identical to the same
/// range of its output.
pub fn decode_block_range(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: Option<&[f64]>,
    entries: Range<usize>,
    out: &mut Vec<HpEntry>,
) -> Result<(), SlingError> {
    let base = out.len();
    let decoded = decode_range_into(bytes, expected_entries, global_dict, entries, out);
    if decoded.is_err() {
        out.truncate(base);
    }
    decoded
}

fn decode_range_into(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: Option<&[f64]>,
    entries: Range<usize>,
    out: &mut Vec<HpEntry>,
) -> Result<(), SlingError> {
    let (lo, hi) = (entries.start, entries.end);
    let mut buf = bytes;
    let (count, num_runs) = read_header(&mut buf, expected_entries)?;
    if lo >= hi || hi > count {
        return Err(corrupt(format!(
            "entry range {lo}..{hi} outside a block of {count} entries"
        )));
    }

    // Run directory, parsed in full; remember where the run holding
    // entry `lo` starts, in the directory and in the entry order.
    let mut first_run: Option<(&[u8], usize)> = None;
    let mut total = 0usize;
    for _ in 0..num_runs {
        let at = buf;
        let (_, len) = read_run(&mut buf)?;
        if len == 0 {
            return Err(corrupt("zero-length run"));
        }
        if first_run.is_none() && total + len > lo {
            first_run = Some((at, total));
        }
        total += len;
        if total > count {
            return Err(corrupt("run lengths exceed the block entry count"));
        }
    }
    if total != count {
        return Err(corrupt(format!(
            "run lengths cover {total} of {count} entries"
        )));
    }
    let (mut runs, mut i) = first_run.ok_or_else(|| corrupt("no run holds the range"))?;

    // Node column: skip the runs before `lo`'s, decode from its first
    // (absolute) id through `hi`, skip the rest.
    varint::skip_varints(&mut buf, i)?;
    let base = out.len();
    out.reserve(hi - lo);
    while i < hi {
        let (step, len) = read_run(&mut runs)?;
        let end = (i + len).min(hi);
        let mut node = varint::read_u32(&mut buf)?;
        loop {
            if i >= lo {
                out.push(HpEntry::new(step, NodeId(node), 0.0));
            }
            i += 1;
            if i == end {
                break;
            }
            let next = node as u64 + varint::read_u32(&mut buf)? as u64 + 1;
            node = u32::try_from(next)
                .map_err(|_| corrupt(format!("node delta overflows u32 ({next})")))?;
        }
    }
    varint::skip_varints(&mut buf, count - hi)?;

    // Value column.
    decode_values_range(&mut buf, count, lo, global_dict, &mut out[base..])?;
    if !buf.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the block payload",
            buf.len()
        )));
    }
    Ok(())
}

/// Per-section byte sizes of one encoded block, as reported by
/// [`block_section_sizes`] for `sling inspect` attribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockSections {
    /// Entry/run counts plus the run directory.
    pub header_bytes: usize,
    /// Delta-coded node column.
    pub node_bytes: usize,
    /// Codec tag of the value section (see `crate::codec::value`).
    pub value_tag: u8,
    /// Value section, including its tag byte.
    pub value_bytes: usize,
}

/// Measure where a block's bytes go, section by section, without
/// materializing its columns. Framing (counts, run shapes, varint
/// truncation) is validated; node-id ranges and value payloads are not —
/// callers wanting full validation decode the block instead.
pub fn block_section_sizes(
    bytes: &[u8],
    expected_entries: usize,
) -> Result<BlockSections, SlingError> {
    let mut buf = bytes;
    let (count, num_runs) = read_header(&mut buf, expected_entries)?;
    let mut run_lens = Vec::with_capacity(num_runs);
    let mut total = 0usize;
    for _ in 0..num_runs {
        let (_, len) = read_run(&mut buf)?;
        if len == 0 {
            return Err(corrupt("zero-length run"));
        }
        total += len;
        if total > count {
            return Err(corrupt("run lengths exceed the block entry count"));
        }
        run_lens.push(len);
    }
    if total != count {
        return Err(corrupt(format!(
            "run lengths cover {total} of {count} entries"
        )));
    }
    let header_bytes = bytes.len() - buf.len();

    // Node column: per run one absolute id plus len − 1 deltas.
    for &len in &run_lens {
        for _ in 0..len {
            varint::read_u64(&mut buf)?;
        }
    }
    let node_bytes = bytes.len() - buf.len() - header_bytes;

    if buf.is_empty() {
        return Err(corrupt("block truncated before the value section"));
    }
    Ok(BlockSections {
        header_bytes,
        node_bytes,
        value_tag: buf[0],
        value_bytes: buf.len(),
    })
}

/// Compute the local run-start indices for a block slice, given the
/// owner of each entry. `owners` and `steps` are the block's columns; a
/// run breaks when either changes (and implicitly at the block start).
pub fn run_starts(owners: &[u32], steps: &[u16]) -> Vec<usize> {
    let mut starts = Vec::new();
    for i in 0..steps.len() {
        if i == 0 || owners[i] != owners[i - 1] || steps[i] != steps[i - 1] {
            starts.push(i);
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sub-range of `bytes` decoded by [`decode_block_range`]
    /// equals the same range of the whole-block decode, bit for bit.
    fn assert_ranges_match(bytes: &[u8], dict: Option<&[f64]>, block: &DecodedBlock) {
        let count = block.len();
        for lo in 0..count {
            for hi in lo + 1..=count {
                let mut out = vec![HpEntry::new(9, NodeId(9), 9.0)];
                decode_block_range(bytes, count, dict, lo..hi, &mut out).unwrap();
                assert_eq!(out.len(), 1 + hi - lo);
                for (k, e) in out[1..].iter().enumerate() {
                    assert_eq!(e.step, block.steps[lo + k], "{lo}..{hi}");
                    assert_eq!(e.node.0, block.nodes[lo + k], "{lo}..{hi}");
                    assert_eq!(e.value.to_bits(), block.values[lo + k].to_bits());
                }
            }
        }
    }

    fn round_trip(steps: &[u16], nodes: &[u32], values: &[f64], owners: &[u32], quantize: bool) {
        let starts = run_starts(owners, steps);
        let mut bytes = Vec::new();
        encode_block(steps, nodes, values, &starts, quantize, &mut bytes);
        let mut block = DecodedBlock::default();
        decode_block(&bytes, steps.len(), &mut block).unwrap();
        assert_ranges_match(&bytes, None, &block);
        // The same columns through the v3 global dictionary.
        let dict = GlobalDict::build(values);
        let mut v3 = Vec::new();
        encode_block_with(
            steps,
            nodes,
            values,
            &starts,
            ValueMode::Global(&dict),
            &mut v3,
        );
        let mut v3_block = DecodedBlock::default();
        decode_block_with_dict(&v3, steps.len(), dict.values(), &mut v3_block).unwrap();
        assert_ranges_match(&v3, Some(dict.values()), &v3_block);
        assert_eq!(block.steps, steps);
        assert_eq!(block.nodes, nodes);
        if quantize {
            for (a, b) in values.iter().zip(&block.values) {
                assert!((a - b).abs() <= 0.5 / (u32::MAX as f64));
            }
        } else {
            assert_eq!(
                block.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn round_trips_multi_owner_multi_step_blocks() {
        // Owner 3: step 0 {3}, step 1 {0, 1, 9}; owner 4: step 1 {2, 7}.
        let owners = [3u32, 3, 3, 3, 4, 4];
        let steps = [0u16, 1, 1, 1, 1, 1];
        let nodes = [3u32, 0, 1, 9, 2, 7];
        let values = [1.0, 0.5, 0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0];
        round_trip(&steps, &nodes, &values, &owners, false);
        round_trip(&steps, &nodes, &values, &owners, true);
    }

    #[test]
    fn adjacent_owners_with_equal_steps_stay_separate_runs() {
        let owners = [1u32, 1, 2, 2];
        let steps = [1u16, 1, 1, 1];
        let starts = run_starts(&owners, &steps);
        assert_eq!(starts, vec![0, 2]);
        // Node ids may go *backwards* across the owner boundary; the
        // absolute restart per run makes that legal.
        let nodes = [5u32, 9, 2, 3];
        let values = [0.1, 0.2, 0.3, 0.4];
        round_trip(&steps, &nodes, &values, &owners, false);
    }

    #[test]
    fn max_delta_ids_round_trip() {
        let owners = [0u32, 0, 0];
        let steps = [2u16, 2, 2];
        let nodes = [0u32, 1, u32::MAX];
        let values = [0.5, 0.25, 0.125];
        round_trip(&steps, &nodes, &values, &owners, false);
    }

    #[test]
    fn single_entry_block() {
        round_trip(&[7], &[42], &[0.125], &[9], false);
    }

    #[test]
    fn rejects_count_mismatch_and_zero_expectation() {
        let mut bytes = Vec::new();
        encode_block(&[0, 0], &[1, 2], &[0.5, 0.5], &[0], false, &mut bytes);
        let mut block = DecodedBlock::default();
        assert!(decode_block(&bytes, 3, &mut block).is_err());
        assert!(decode_block(&bytes, 0, &mut block).is_err());
        assert!(decode_block(&bytes, MAX_BLOCK_ENTRIES + 1, &mut block).is_err());
        assert!(decode_block(&bytes, 2, &mut block).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        let mut bytes = Vec::new();
        encode_block(&[0, 1], &[4, 4], &[1.0, 0.5], &[0, 1], false, &mut bytes);
        let mut block = DecodedBlock::default();
        decode_block(&bytes, 2, &mut block).unwrap();
        // Every truncation errors.
        for cut in 0..bytes.len() {
            assert!(
                decode_block(&bytes[..cut], 2, &mut block).is_err(),
                "cut {cut} accepted"
            );
        }
        // Trailing garbage errors.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_block(&extended, 2, &mut block).is_err());
    }

    #[test]
    fn rejects_node_overflow() {
        // One run of two entries whose delta pushes past u32::MAX.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2); // entries
        varint::write_u64(&mut bytes, 1); // runs
        varint::write_u64(&mut bytes, 0); // step
        varint::write_u64(&mut bytes, 2); // run len
        varint::write_u64(&mut bytes, u32::MAX as u64); // first node
        varint::write_u64(&mut bytes, 0); // delta-1 = 0 -> node u32::MAX + 1
        bytes.push(super::super::value::TAG_RAW_F64);
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        let mut block = DecodedBlock::default();
        let err = decode_block(&bytes, 2, &mut block).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn range_decode_covers_every_value_tag() {
        use crate::codec::value::{TAG_DICT_F64, TAG_FIXED_U32, TAG_RAW_F64};
        // Two owners, three runs; hot values shared, cold ones distinct.
        let owners = [0u32, 0, 0, 0, 1, 1, 1, 1];
        let steps = [0u16, 1, 1, 1, 1, 1, 3, 3];
        let nodes = [0u32, 2, 3, 9, 1, 4, 0, 7];
        let hot = [1.0, 0.25, 0.25, 0.25, 0.25, 1.0, 0.125, 0.125];
        let cold: Vec<f64> = (0..8).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let mixed = [1.0, 0.25, 0.3, 0.25, 0.7, 1.0, 0.125, 0.9];
        let starts = run_starts(&owners, &steps);
        let mut seen = Vec::new();
        let shared = GlobalDict::build(&[hot.as_slice(), hot.as_slice()].concat());
        for (values, mode) in [
            (&hot[..], ValueMode::Lossless),
            (&cold[..], ValueMode::Lossless),
            (&hot[..], ValueMode::Quantized),
            (&hot[..], ValueMode::Global(&shared)),
            (&mixed[..], ValueMode::Global(&shared)),
        ] {
            let mut bytes = Vec::new();
            encode_block_with(&steps, &nodes, values, &starts, mode, &mut bytes);
            let mut block = DecodedBlock::default();
            decode_block_with_dict(&bytes, 8, shared.values(), &mut block).unwrap();
            assert_ranges_match(&bytes, Some(shared.values()), &block);
            let sections = block_section_sizes(&bytes, 8).unwrap();
            seen.push(sections.value_tag);
        }
        for tag in [TAG_DICT_F64, TAG_RAW_F64, TAG_FIXED_U32, TAG_GLOBAL_DICT] {
            assert!(seen.contains(&tag), "tag {tag} not exercised: {seen:?}");
        }
    }

    #[test]
    fn range_decode_checks_framing_outside_the_range() {
        let mut bytes = Vec::new();
        encode_block(
            &[0, 1, 1],
            &[4, 1, 2],
            &[1.0, 0.5, 0.5],
            &[0, 1],
            false,
            &mut bytes,
        );
        let mut out = Vec::new();
        decode_block_range(&bytes, 3, None, 0..1, &mut out).unwrap();
        // Truncation anywhere, trailing bytes, a wrong count or an empty
        // or out-of-block range all fail, whatever range is asked for.
        for cut in 0..bytes.len() {
            assert!(decode_block_range(&bytes[..cut], 3, None, 0..1, &mut out).is_err());
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_block_range(&extended, 3, None, 0..1, &mut out).is_err());
        assert!(decode_block_range(&bytes, 4, None, 0..1, &mut out).is_err());
        assert!(decode_block_range(&bytes, 3, None, 1..1, &mut out).is_err());
        assert!(decode_block_range(&bytes, 3, None, 2..4, &mut out).is_err());
        assert_eq!(out.len(), 1, "a failed range decode appended entries");
    }

    #[test]
    fn rejects_bad_run_shapes() {
        let mut block = DecodedBlock::default();
        // Zero runs for a non-empty block.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 0);
        assert!(decode_block(&bytes, 1, &mut block).is_err());
        // Zero-length run.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 0); // step
        varint::write_u64(&mut bytes, 0); // len 0
        assert!(decode_block(&bytes, 1, &mut block).is_err());
        // Run lengths overshooting the count.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2);
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 0);
        varint::write_u64(&mut bytes, 5);
        assert!(decode_block(&bytes, 2, &mut block).is_err());
    }
}
