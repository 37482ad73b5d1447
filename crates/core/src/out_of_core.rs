//! §5.4 — out-of-core index construction and disk-resident querying.
//!
//! Construction: Algorithm 2's triples are streamed through the
//! [`ExternalSorter`] with a
//! caller-bounded memory buffer, then the globally sorted stream is
//! assembled directly into the packed arena — at no point does the
//! unsorted triple set reside in memory. Only the `O(n)` correction
//! factors and the final arena are memory-resident, mirroring the paper's
//! description (Figure 10 sweeps the buffer size).
//!
//! Querying: [`DiskHpStore`] keeps the HP entries in a file and only the
//! `O(n)` offsets in memory; the engine that opens it
//! ([`crate::SharedEngine::open_disk`]) holds the correction factors and
//! reduction bitmap.
//! A single-pair query reads the two `O(1/ε)`-sized entry runs with
//! positioned reads — the constant-IO regime described in §5.4.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Buf;
use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::correction::estimate_dk;
use crate::enhance::MarkArena;
use crate::error::SlingError;
use crate::external_sort::ExternalSorter;
use crate::format::{DecodedMeta, PayloadGeometry};
use crate::hp::{HpArena, HpEntry};
use crate::index::{BuildStats, SlingIndex};
use crate::local_update::reverse_hp_all;
use crate::obs::{self, KernelCounters};
use crate::store::{BlockBytes, BlockedPayload, HpStore};
use crate::walk::{task_rng, WalkEngine};

/// Options for the out-of-core builder.
#[derive(Clone, Debug)]
pub struct OutOfCoreConfig {
    /// Memory budget for the triple sort buffer, in bytes.
    pub buffer_bytes: usize,
    /// Directory for temporary run files.
    pub temp_dir: PathBuf,
}

impl OutOfCoreConfig {
    /// Budget of `buffer_bytes` with run files under the system temp dir.
    pub fn with_buffer(buffer_bytes: usize) -> Self {
        OutOfCoreConfig {
            buffer_bytes,
            temp_dir: std::env::temp_dir().join(format!("sling-ooc-{}", std::process::id())),
        }
    }
}

/// Build a [`SlingIndex`] with the external-sort pipeline. Produces an
/// index identical to [`SlingIndex::build`] for the same config/seed.
pub fn build_out_of_core(
    graph: &DiGraph,
    config: &SlingConfig,
    occ: &OutOfCoreConfig,
) -> Result<SlingIndex, SlingError> {
    config.validate()?;
    let n = graph.num_nodes();
    let engine = WalkEngine::new(graph, config.c);
    let delta_d = config.delta_d(n);

    let mut dk_samples = 0u64;
    let mut d = Vec::with_capacity(n);
    for k in graph.nodes() {
        let mut rng = task_rng(config.seed, k.0 as u64);
        let est = estimate_dk(
            graph,
            &engine,
            &mut rng,
            k,
            config.c,
            config.eps_d,
            delta_d,
            config.adaptive_dk,
        );
        dk_samples += est.samples;
        d.push(est.d);
    }

    let mut sorter = ExternalSorter::new(&occ.temp_dir, occ.buffer_bytes)?;
    let mut push_err: Option<io::Error> = None;
    reverse_hp_all(graph, config.sqrt_c(), config.theta, &mut |t| {
        if push_err.is_none() {
            if let Err(e) = sorter.push(t) {
                push_err = Some(e);
            }
        }
    });
    if let Some(e) = push_err {
        return Err(e.into());
    }

    // §5.2 reduction decisions (same rule as the in-memory assembler).
    let eta_budget = config.gamma / config.theta;
    let mut reduced = vec![false; n];
    let mut reduced_nodes = 0usize;
    if config.space_reduction {
        for v in graph.nodes() {
            if (graph.two_hop_in_cost(v) as f64) <= eta_budget {
                reduced[v.index()] = true;
                reduced_nodes += 1;
            }
        }
    }

    // Stream the sorted triples straight into the arena.
    let mut entries_before = 0usize;
    let mut stream_err: Option<io::Error> = None;
    let hp = {
        let reduced = &reduced;
        let iter = sorter
            .into_sorted_iter()?
            .filter_map(|r| match r {
                Ok(t) => Some(t),
                Err(e) => {
                    stream_err = Some(e);
                    None
                }
            })
            .inspect(|_| entries_before += 1)
            .filter(|t| !(reduced[t.owner.index()] && (t.step == 1 || t.step == 2)))
            .map(|t| (t.owner.0, HpEntry::new(t.step, t.target, t.value)));
        HpArena::from_sorted_entries(n, iter)
    };
    if let Some(e) = stream_err {
        return Err(e.into());
    }
    std::fs::remove_dir_all(&occ.temp_dir).ok();

    let marks = if config.enhance_accuracy {
        MarkArena::compute(graph, config, &hp)
    } else {
        MarkArena::empty(n)
    };
    let stats = BuildStats {
        dk_samples,
        entries_before_reduction: entries_before,
        entries_stored: hp.total_entries(),
        reduced_nodes,
        marked_entries: marks.total_marks(),
    };
    Ok(SlingIndex {
        config: config.clone(),
        num_nodes: n,
        num_edges: graph.num_edges(),
        d,
        hp,
        reduced,
        marks,
        stats,
    })
}

/// Disk-resident HP store over a persisted index file — either the raw
/// `SLNGIDX1` layout or the block-compressed `SLNGIDX2`/`SLNGIDX3` one:
/// the entry payload stays on disk; only the `O(n)` offset table (plus,
/// for a blocked file, the block directory) is memory-resident. Open it
/// with [`crate::SharedEngine::open_disk`], which keeps the query-side
/// metadata beside it.
///
/// For a v1 file each entry-list read costs three positioned reads (one
/// per payload section); for a v2/v3 file it costs one positioned read
/// per covering block, the constant-IO regime described in §5.4. Blocks
/// are read through the block reader it shares with the compressed mmap
/// arena, so it keeps the same validation contract as
/// [`crate::store::CompressedMmapArena`]: each decoded block's framing
/// (counts, run directory, section boundaries, exact length) and every
/// returned entry (node `< n`, dictionary and hi-plane indices, value a
/// probability) are checked; a small payload is decoded block by block
/// once and kept, a larger one is range-decoded run by run. Repeated
/// reads are left to the operating system's page cache.
pub struct DiskHpStore {
    file: File,
    offsets: Vec<u64>,
    num_nodes: usize,
    entries: usize,
    payload: DiskPayload,
}

/// Where the on-disk entry payload lives and how to read it.
enum DiskPayload {
    /// `SLNGIDX1`: three raw fixed-width sections, addressed per entry.
    Raw {
        steps_base: u64,
        nodes_base: u64,
        values_base: u64,
    },
    /// `SLNGIDX2`/`SLNGIDX3`: the shared block reader over blocks read
    /// with one `pread` each from `blocks_base` on.
    Blocked {
        blocks_base: u64,
        blocks: BlockedPayload,
    },
}

/// Positioned block reads from a blocked index file (fault-injectable
/// like every disk read).
struct DiskBlocks<'a> {
    file: &'a File,
    blocks_base: u64,
}

impl BlockBytes for DiskBlocks<'_> {
    fn block_bytes<'a>(
        &'a self,
        lo: u64,
        hi: u64,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], SlingError> {
        buf.clear();
        buf.resize((hi - lo) as usize, 0);
        let fault = crate::faults::check_io(crate::faults::point::DISK_READ)?;
        self.file.read_exact_at(buf, self.blocks_base + lo)?;
        if fault == Some(crate::faults::FaultAction::Corrupt) {
            crate::faults::corrupt_buffer(buf);
        }
        Ok(buf)
    }
}

impl DiskHpStore {
    /// Open `path` and validate its structure, decoding the `O(n)`
    /// metadata only — never the entry payload. Returns the store plus
    /// the decoded query-side metadata.
    pub(crate) fn open_with_meta(
        path: impl AsRef<Path>,
    ) -> Result<(Self, DecodedMeta), SlingError> {
        let file = File::open(path.as_ref())?;
        // Parse the metadata prefix through a short-lived mapping; the
        // store itself keeps only the plain file handle for positioned
        // reads.
        let mut meta = {
            // SAFETY: mapping dropped before this function returns; reads
            // during decode are bound-checked against the mapped length.
            let map = unsafe { memmap2::Mmap::map(&file) }?;
            crate::format::decode_meta(&map)?
        };
        let payload = match &mut meta.payload {
            &mut PayloadGeometry::Raw {
                steps_base,
                nodes_base,
                values_base,
            } => DiskPayload::Raw {
                steps_base: steps_base as u64,
                nodes_base: nodes_base as u64,
                values_base: values_base as u64,
            },
            PayloadGeometry::Blocked(geo) => DiskPayload::Blocked {
                blocks_base: geo.blocks_base as u64,
                blocks: BlockedPayload::new(
                    meta.num_nodes,
                    meta.entries,
                    geo.block_entries,
                    std::mem::take(&mut geo.block_offsets),
                    std::mem::take(&mut geo.global_dict),
                ),
            },
        };
        let store = DiskHpStore {
            file,
            offsets: std::mem::take(&mut meta.hp_offsets),
            num_nodes: meta.num_nodes,
            entries: meta.entries,
            payload,
        };
        Ok((store, meta))
    }

    /// Positioned-read byte source of a blocked payload.
    fn disk_blocks(&self, blocks_base: u64) -> DiskBlocks<'_> {
        DiskBlocks {
            file: &self.file,
            blocks_base,
        }
    }

    /// Decode one bound-checked entry: three positioned reads (v1) or
    /// one block read decoding just that entry (v2/v3).
    fn read_entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        let (steps_base, nodes_base, values_base) = match &self.payload {
            DiskPayload::Blocked {
                blocks_base,
                blocks,
            } => return blocks.entry_at(&self.disk_blocks(*blocks_base), i),
            DiskPayload::Raw {
                steps_base,
                nodes_base,
                values_base,
            } => (*steps_base, *nodes_base, *values_base),
        };
        if i >= self.entries {
            return Err(SlingError::CorruptIndex(format!(
                "disk entry index {i} past the {} stored entries",
                self.entries
            )));
        }
        KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, 14);
        let fault = crate::faults::check_io(crate::faults::point::DISK_READ)?;
        let mut step_raw = [0u8; 2];
        self.file
            .read_exact_at(&mut step_raw, steps_base + i as u64 * 2)?;
        let mut node_raw = [0u8; 4];
        self.file
            .read_exact_at(&mut node_raw, nodes_base + i as u64 * 4)?;
        let mut value_raw = [0u8; 8];
        self.file
            .read_exact_at(&mut value_raw, values_base + i as u64 * 8)?;
        if fault == Some(crate::faults::FaultAction::Corrupt) {
            crate::faults::corrupt_buffer(&mut value_raw);
        }
        let node = u32::from_le_bytes(node_raw);
        if node as usize >= self.num_nodes {
            return Err(SlingError::CorruptIndex(format!(
                "disk entry {i} references node {node} past n = {}",
                self.num_nodes
            )));
        }
        let value = f64::from_bits(u64::from_le_bytes(value_raw));
        crate::store::check_value(i, value)?;
        Ok(HpEntry::new(
            u16::from_le_bytes(step_raw),
            NodeId(node),
            value,
        ))
    }

    /// Read `H(v)`: three positioned section reads (v1), or one
    /// positioned read per covering block (v2/v3).
    pub(crate) fn read_entries(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        let (steps_base, nodes_base, values_base) = match &self.payload {
            DiskPayload::Blocked {
                blocks_base,
                blocks,
            } => {
                let range = crate::store::checked_range(self, v)?;
                return blocks.entries_into(&self.disk_blocks(*blocks_base), range, out);
            }
            DiskPayload::Raw {
                steps_base,
                nodes_base,
                values_base,
            } => (*steps_base, *nodes_base, *values_base),
        };
        out.clear();
        let i = v.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let count = hi - lo;
        if count == 0 {
            return Ok(());
        }
        KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, count as u64 * 14);
        let fault = crate::faults::check_io(crate::faults::point::DISK_READ)?;
        let mut steps_raw = vec![0u8; count * 2];
        self.file
            .read_exact_at(&mut steps_raw, steps_base + lo as u64 * 2)?;
        let mut nodes_raw = vec![0u8; count * 4];
        self.file
            .read_exact_at(&mut nodes_raw, nodes_base + lo as u64 * 4)?;
        let mut values_raw = vec![0u8; count * 8];
        self.file
            .read_exact_at(&mut values_raw, values_base + lo as u64 * 8)?;
        if fault == Some(crate::faults::FaultAction::Corrupt) {
            crate::faults::corrupt_buffer(&mut values_raw);
        }
        let (mut s, mut nn, mut vv) = (
            steps_raw.as_slice(),
            nodes_raw.as_slice(),
            values_raw.as_slice(),
        );
        for j in 0..count {
            let step = s.get_u16_le();
            let node = nn.get_u32_le();
            let value = vv.get_f64_le();
            if node as usize >= self.num_nodes {
                return Err(SlingError::CorruptIndex(format!(
                    "disk entry {} references node {node} past n = {}",
                    lo + j,
                    self.num_nodes
                )));
            }
            crate::store::check_value(lo + j, value)?;
            out.push(HpEntry::new(step, NodeId(node), value));
        }
        Ok(())
    }

    /// `posix_fadvise(WILLNEED)` the byte ranges holding `H(v)` — the
    /// three section ranges of a v1 payload, or the encoded bytes of the
    /// covering v2 blocks — so a cold query's positioned reads hit
    /// read-ahead pages instead of paying one synchronous disk round-trip
    /// per `pread`. Advisory only: failures and out-of-range ids are
    /// ignored, and correctness never depends on it (a no-op off Linux).
    pub fn prefetch_entries(&self, v: NodeId) {
        if v.index() >= self.num_nodes {
            return;
        }
        let (lo, hi) = (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        );
        if lo >= hi || hi > self.entries {
            return;
        }
        let count = (hi - lo) as u64;
        match &self.payload {
            DiskPayload::Raw {
                steps_base,
                nodes_base,
                values_base,
            } => {
                for (base, width) in [(*steps_base, 2u64), (*nodes_base, 4), (*values_base, 8)] {
                    fadvise_willneed(&self.file, base + lo as u64 * width, count * width);
                }
            }
            DiskPayload::Blocked {
                blocks_base,
                blocks,
            } => {
                if let Some((start, end)) = blocks.byte_span(&(lo..hi)) {
                    fadvise_willneed(&self.file, blocks_base + start, end - start);
                }
            }
        }
    }
}

/// Advisory readahead hint for a positioned-read file range (the
/// `pread` analogue of the mmap backends' `madvise(WILLNEED)`). Errors
/// are deliberately dropped — the hint is best-effort.
#[cfg(target_os = "linux")]
fn fadvise_willneed(file: &File, offset: u64, len: u64) {
    use std::os::unix::io::AsRawFd;
    const POSIX_FADV_WILLNEED: i32 = 3;
    extern "C" {
        fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
    }
    if len == 0 || offset > i64::MAX as u64 || len > i64::MAX as u64 {
        return;
    }
    // SAFETY: plain syscall on a live fd; advisory, no memory is touched.
    let _ = unsafe {
        posix_fadvise(
            file.as_raw_fd(),
            offset as i64,
            len as i64,
            POSIX_FADV_WILLNEED,
        )
    };
}

#[cfg(not(target_os = "linux"))]
fn fadvise_willneed(_file: &File, _offset: u64, _len: u64) {}

impl HpStore for DiskHpStore {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn total_entries(&self) -> usize {
        self.entries
    }

    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        self.read_entries(v, out)
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        self.read_entry_at(i)
    }

    // contains_key: trait default (binary search through entry_at).

    /// The handle, the offset table and the block reader's directory
    /// and resident blocks; the payload itself stays on disk.
    fn resident_bytes(&self) -> usize {
        let payload = match &self.payload {
            DiskPayload::Raw { .. } => 0,
            DiskPayload::Blocked { blocks, .. } => blocks.resident_bytes(),
        };
        std::mem::size_of::<Self>() + self.offsets.len() * 8 + payload
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
    }

    /// Blocked runs go through the shared reader: a run inside one
    /// resident block is borrowed in place, any other run is decoded
    /// into `scratch`. v1 payloads materialize into `scratch` via
    /// positioned reads.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<crate::store::EntryAccess<'s>, SlingError> {
        if let DiskPayload::Blocked {
            blocks_base,
            blocks,
        } = &self.payload
        {
            let range = crate::store::checked_range(self, v)?;
            return blocks.entries_ref(&self.disk_blocks(*blocks_base), range, scratch);
        }
        self.read_entries(v, scratch)?;
        Ok(crate::store::EntryAccess::Slice(scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CompressOptions;
    use crate::SharedEngine;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(0.6, 0.1).with_seed(11)
    }

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("sling_ooc_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn out_of_core_build_matches_in_memory_build() {
        let g = barabasi_albert(200, 3, 5).unwrap();
        let config = cfg();
        let mem = SlingIndex::build(&g, &config).unwrap();
        // Tiny buffer forces many runs; result must still be identical.
        let occ = OutOfCoreConfig {
            buffer_bytes: 4 * 1024,
            temp_dir: tmp("small_buf"),
        };
        let disk = build_out_of_core(&g, &config, &occ).unwrap();
        assert_eq!(mem.d, disk.d);
        assert_eq!(mem.hp, disk.hp);
        assert_eq!(mem.reduced, disk.reduced);
        assert_eq!(
            mem.stats().entries_before_reduction,
            disk.stats().entries_before_reduction
        );
    }

    #[test]
    fn large_buffer_single_run_also_matches() {
        let g = two_cliques_bridge(5);
        let config = cfg();
        let mem = SlingIndex::build(&g, &config).unwrap();
        let occ = OutOfCoreConfig {
            buffer_bytes: 64 << 20,
            temp_dir: tmp("big_buf"),
        };
        let disk = build_out_of_core(&g, &config, &occ).unwrap();
        assert_eq!(mem.hp, disk.hp);
    }

    #[test]
    fn disk_store_answers_like_the_index() {
        let g = barabasi_albert(150, 2, 9).unwrap();
        let config = cfg();
        let idx = SlingIndex::build(&g, &config).unwrap();
        let dir = tmp("store");
        idx.save(dir.join("hp.bin")).unwrap();
        let engine = SharedEngine::open_disk(&g, dir.join("hp.bin")).unwrap();
        let mem = SharedEngine::from(idx.clone());
        for (u, v) in [(0u32, 1u32), (3, 77), (149, 10), (5, 5)] {
            let a = mem.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            let b = engine.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            assert!((a - b).abs() < 1e-12, "({u},{v}): memory {a} vs disk {b}");
        }
        assert!(engine.resident_bytes() < idx.resident_bytes());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_disk_store_is_bit_identical_to_raw() {
        let g = barabasi_albert(150, 2, 9).unwrap();
        let config = cfg();
        let idx = SlingIndex::build(&g, &config).unwrap();
        let dir = tmp("store_v2");
        idx.save(dir.join("v1.bin")).unwrap();
        // Small blocks so entry lists straddle block boundaries.
        let opts = CompressOptions {
            block_entries: 32,
            quantize_values: false,
        };
        idx.save_v2(dir.join("v2.bin"), &opts).unwrap();
        assert!(
            std::fs::metadata(dir.join("v2.bin")).unwrap().len()
                < std::fs::metadata(dir.join("v1.bin")).unwrap().len()
        );
        let raw = SharedEngine::open_disk(&g, dir.join("v1.bin")).unwrap();
        let v2 = SharedEngine::open_disk(&g, dir.join("v2.bin")).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in g.nodes() {
            raw.store().read_entries(v, &mut a).unwrap();
            v2.store().read_entries(v, &mut b).unwrap();
            assert_eq!(a, b, "H({v:?}) differs between raw and blocked disk");
        }
        for i in (0..raw.store().total_entries()).step_by(11) {
            assert_eq!(
                raw.store().entry_at(i).unwrap(),
                v2.store().entry_at(i).unwrap()
            );
        }
        for (u, w) in [(0u32, 1u32), (3, 77), (149, 10), (5, 5)] {
            assert_eq!(
                raw.single_pair(&g, NodeId(u), NodeId(w)).unwrap(),
                v2.single_pair(&g, NodeId(u), NodeId(w)).unwrap(),
                "({u},{w})"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disk_store_surfaces_truncation() {
        let g = barabasi_albert(120, 3, 2).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let dir = tmp("trunc");
        let v1 = dir.join("v1.bin");
        idx.save(&v1).unwrap();
        let v2 = dir.join("v2.bin");
        idx.save_v2(&v2, &CompressOptions::default()).unwrap();
        for path in [v1, v2] {
            let engine = SharedEngine::open_disk(&g, &path).unwrap();
            // Chop the payload behind the store's back.
            let len = std::fs::metadata(&path).unwrap().len();
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(len - len / 8).unwrap();
            let failed = g
                .nodes()
                .any(|v| engine.single_pair(&g, v, NodeId(0)).is_err());
            assert!(failed, "no query noticed the truncated {path:?}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disk_store_checks_node_range() {
        let g = two_cliques_bridge(3);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let dir = tmp("range");
        idx.save(dir.join("hp.bin")).unwrap();
        let engine = SharedEngine::open_disk(&g, dir.join("hp.bin")).unwrap();
        assert!(engine.single_pair(&g, NodeId(0), NodeId(100)).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
