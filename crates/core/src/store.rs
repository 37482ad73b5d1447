//! The storage-backend layer: [`HpStore`] and the [`SharedEngine`]
//! query engine.
//!
//! §5.4 of the paper observes that SLING "can efficiently process queries
//! even when its index structure does not fit in the main memory": every
//! query touches `O(1/ε)` hitting-probability entries, i.e. a constant
//! number of positioned reads. This module turns that observation into a
//! DBMS-style layering. The query algorithms (Algorithms 3, 5, 6 and the
//! §5.2/§5.3 effective-entry materialization) are written once, generic
//! over an [`HpStore`] — the read interface to the packed per-node HP
//! sets — and four backends implement it:
//!
//! * [`crate::hp::HpArena`] — the in-memory parallel-array arena;
//! * [`MmapHpArena`] — a **zero-copy memory-mapped view** of a persisted
//!   `SLNGIDX1` index file: opening validates the header and the offset
//!   table but never decodes the entry payload, so open cost is
//!   independent of index size and queries read entries straight out of
//!   the page cache;
//! * [`CompressedMmapArena`] — the same over a block-compressed
//!   `SLNGIDX2`/`SLNGIDX3` file;
//! * [`crate::out_of_core::DiskHpStore`] — explicit positioned reads
//!   (any format) with only `O(n)` offsets resident.
//!
//! [`SharedEngine`] bundles a store with the query-side metadata (config,
//! correction factors, §5.2 reduction bitmap, §5.3 marks) and exposes the
//! full query API — single-pair, single-source, top-k, joins, batches —
//! with identical scores across backends: same entries, same merge order,
//! same floating-point arithmetic. It is the only query front end, and
//! it chooses how to restore §5.2/§5.3 lists once, from its index
//! ([`RestorePolicy`]).

use std::ops::Range;
use std::path::Path;

use memmap2::{Advice, Mmap};
use sling_graph::{DiGraph, NodeId};

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::cache::LruList;
use crate::codec::block::{
    max_node, values_all_probabilities, DecodedBlock, MAX_PROBABILITY, SWEEP_LANES,
};
use crate::codec::{decode_block, decode_block_range, decode_block_with_dict, expected_block_len};
use crate::config::SlingConfig;
use crate::enhance::MarkArena;
use crate::error::SlingError;
use crate::format::{decode_meta, DecodedMeta, PayloadGeometry};
use crate::hp::{HpArena, HpEntry};
use crate::index::{BuildStats, QueryWorkspace, SlingIndex};
use crate::join::{threshold_join_core, JoinPair, JoinStrategy};
use crate::obs::{self, KernelCounters};
use crate::out_of_core::DiskHpStore;
use crate::single_pair::single_pair_core;
use crate::single_source::{single_source_core, SingleSourceWorkspace};
use crate::topk::{single_source_truncated_core, slack_cutoff, top_k_core};

/// Read interface to a packed hitting-probability store.
///
/// Entry indices are *global*: node `v`'s run occupies `range(v)` of a
/// conceptual array of `total_entries()` entries sorted by
/// `(owner, step, node)`. Backends that read from untrusted bytes (mmap,
/// disk) must bound-check every decoded entry (`node < num_nodes`), so
/// the fallible methods return [`SlingError`] rather than panicking on a
/// corrupt or truncated file.
pub trait HpStore {
    /// Number of nodes covered by the store.
    fn num_nodes(&self) -> usize;

    /// Total entries across all nodes.
    fn total_entries(&self) -> usize;

    /// Global entry-index range of `H(v)`.
    fn range(&self, v: NodeId) -> Range<usize>;

    /// Materialize `H(v)` into `out` (cleared first), in `(step, node)`
    /// order.
    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError>;

    /// Random access by global entry index (used by §5.3 mark expansion).
    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError>;

    /// Whether `H(v)` stores the exact `(step, node)` key. The default
    /// binary-searches the sorted run through [`HpStore::entry_at`];
    /// backends with direct array access may override.
    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        let range = checked_range(self, v)?;
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = self.entry_at(mid)?;
            match e.key().cmp(&(step, node)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Heap-resident bytes of the store itself (excludes file-backed or
    /// page-cache pages, which is the point of the out-of-core backends).
    fn resident_bytes(&self) -> usize;

    /// Advise the backend that `H(v)` is about to be read, so out-of-core
    /// backends can stage the entry bytes *before* the scan loop instead
    /// of paying one major fault (or one positioned read) per payload
    /// section at decode time. Purely advisory — correctness never
    /// depends on it — and a no-op for memory-resident backends. Server
    /// workers call this for a query's endpoints before querying.
    fn prefetch(&self, _v: NodeId) {}

    /// Borrow `H(v)` from the backend **without copying** when the
    /// backend already holds the run in a directly consumable layout.
    ///
    /// `scratch` is a caller-owned buffer the backend *may* materialize
    /// into (positioned disk reads, runs straddling block boundaries);
    /// backends with resident or mapped storage return a borrowed (or
    /// refcount-shared) [`EntryAccess`] and leave `scratch` untouched.
    /// Every returned view is fully validated (node bounds, value
    /// range), exactly like [`HpStore::entries_into`] — the streaming
    /// query kernels index the correction factors with the decoded node
    /// ids, so a corrupt file must surface here as [`SlingError`], never
    /// as a panic downstream.
    ///
    /// The default materializes through [`HpStore::entries_into`].
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        self.entries_into(v, scratch)?;
        Ok(EntryAccess::Slice(scratch))
    }
}

/// Zero-copy view of one node's stored entry run `H(v)`, borrowed from
/// an [`HpStore`] backend via [`HpStore::entries_ref`].
///
/// The variants mirror how each backend physically holds its entries, so
/// the query kernels consume backend-owned data in place instead of
/// copying every list into [`crate::QueryWorkspace`] buffers first:
///
/// * [`EntryAccess::Columns`] — structure-of-arrays column slices (the
///   in-memory [`HpArena`]); the seed/merge loops read the contiguous
///   `steps`/`nodes`/`values` columns directly.
/// * [`EntryAccess::RawLe`] — raw little-endian section bytes straight
///   out of an `SLNGIDX1` mapping ([`MmapHpArena`]); entries are decoded
///   on the fly with unaligned loads, after one cheap validation sweep.
/// * [`EntryAccess::Block`] — one resident decoded block covering the
///   whole run ([`CompressedMmapArena`], blocked
///   [`crate::out_of_core::DiskHpStore`], when the payload is small
///   enough to keep decoded): borrowed, no per-entry copy.
/// * [`EntryAccess::Slice`] — entries the backend materialized into the
///   caller's scratch buffer (positioned v1 disk reads, buffer-pool
///   copies, range-decoded compressed runs, multi-block runs, and the
///   §5.2/§5.3 restored lists).
///
/// All variants are sorted by `(step, node)` and pre-validated, so
/// consumers may index the correction-factor array with the node ids.
pub enum EntryAccess<'a> {
    /// Borrowed structure-of-arrays columns, all the same length.
    Columns {
        /// Walk steps, ascending.
        steps: &'a [u16],
        /// Hit node ids, ascending within a step.
        nodes: &'a [u32],
        /// Hitting probabilities.
        values: &'a [f64],
    },
    /// Raw little-endian `SLNGIDX1` section bytes (`2 | 4 | 8` bytes per
    /// entry respectively); pre-validated.
    RawLe {
        /// `u16` steps, little-endian.
        steps: &'a [u8],
        /// `u32` node ids, little-endian.
        nodes: &'a [u8],
        /// `f64` values, little-endian bit patterns.
        values: &'a [u8],
    },
    /// Sub-range `lo..hi` of one decoded (and validated) payload block.
    Block {
        /// The decoded block, borrowed from the backend's resident table.
        block: &'a DecodedBlock,
        /// First entry of the run within the block.
        lo: usize,
        /// One past the last entry of the run within the block.
        hi: usize,
    },
    /// Entries materialized into a buffer (typically the caller's
    /// scratch).
    Slice(&'a [HpEntry]),
}

impl EntryAccess<'_> {
    /// Number of entries in the run.
    pub fn len(&self) -> usize {
        match self {
            EntryAccess::Columns { steps, .. } => steps.len(),
            EntryAccess::RawLe { steps, .. } => steps.len() / 2,
            EntryAccess::Block { lo, hi, .. } => hi - lo,
            EntryAccess::Slice(s) => s.len(),
        }
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode entry `i` (for tests and diagnostics; the kernels use the
    /// monomorphized `EntryRun` views instead).
    pub fn get(&self, i: usize) -> HpEntry {
        match self {
            EntryAccess::Columns {
                steps,
                nodes,
                values,
            } => HpEntry::new(steps[i], NodeId(nodes[i]), values[i]),
            EntryAccess::RawLe {
                steps,
                nodes,
                values,
            } => HpEntry::new(
                u16::from_le_bytes([steps[i * 2], steps[i * 2 + 1]]),
                NodeId(u32::from_le_bytes(
                    nodes[i * 4..i * 4 + 4].try_into().unwrap(),
                )),
                f64::from_le_bytes(values[i * 8..i * 8 + 8].try_into().unwrap()),
            ),
            EntryAccess::Block { block, lo, .. } => HpEntry::new(
                block.steps[lo + i],
                NodeId(block.nodes[lo + i]),
                block.values[lo + i],
            ),
            EntryAccess::Slice(s) => s[i],
        }
    }
}

/// Uniform random access to a sorted entry run — the monomorphization
/// surface of the streaming kernels. Three concrete shapes exist
/// (columns, raw little-endian bytes, `&[HpEntry]`); [`with_run!`]
/// dispatches an [`EntryAccess`] to a shape-specific instantiation so
/// the merge/seed inner loops carry no per-entry branching.
pub(crate) trait EntryRun: Copy {
    /// Entries in the run.
    fn len(&self) -> usize;
    /// `(step, node)` sort key of entry `i`.
    fn key(&self, i: usize) -> (u16, u32);
    /// Value of entry `i`.
    fn value(&self, i: usize) -> f64;
}

/// Structure-of-arrays column view (arena and decoded blocks).
#[derive(Clone, Copy)]
pub(crate) struct ColumnsRun<'a> {
    pub steps: &'a [u16],
    pub nodes: &'a [u32],
    pub values: &'a [f64],
}

impl EntryRun for ColumnsRun<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.steps.len()
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        (self.steps[i], self.nodes[i])
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        self.values[i]
    }
}

/// Raw little-endian `SLNGIDX1` section view (zero-copy mmap); decodes
/// one fixed-width field per accessor call with unaligned loads.
#[derive(Clone, Copy)]
pub(crate) struct RawLeRun<'a> {
    pub steps: &'a [u8],
    pub nodes: &'a [u8],
    pub values: &'a [u8],
}

impl EntryRun for RawLeRun<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.steps.len() / 2
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        let step = u16::from_le_bytes([self.steps[i * 2], self.steps[i * 2 + 1]]);
        let node = u32::from_le_bytes(self.nodes[i * 4..i * 4 + 4].try_into().unwrap());
        (step, node)
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.values[i * 8..i * 8 + 8].try_into().unwrap())
    }
}

impl EntryRun for &[HpEntry] {
    #[inline(always)]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        (self[i].step, self[i].node.0)
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        self[i].value
    }
}

/// Two-segment view of a §5.2-restored effective list: a copied `steps
/// ≤ 2` head (the stored step-0 prefix plus the exact Algorithm-5
/// steps 1–2) logically concatenated with the `steps ≥ 3` tail of the
/// node's stored run, consumed **in place** from backend storage.
///
/// A reduced node stores no step-1/2 entries, so its stored run is the
/// step-0 prefix (`..split`) followed immediately by the steps ≥ 3 tail
/// (`split..`) — and because the head covers exactly steps ≤ 2, the
/// concatenation stays sorted by `(step, node)`. The view therefore
/// enumerates precisely the entries the materializing restore would
/// build, in the same order, without ever copying the tail.
#[derive(Clone, Copy)]
pub(crate) struct TwoSegRun<'a, R: EntryRun> {
    /// Copied steps ≤ 2 head: stored step-0 entries + exact steps 1–2.
    pub head: &'a [HpEntry],
    /// The node's full stored run, borrowed from the backend.
    pub stored: R,
    /// First stored index past the step-0 prefix (start of the tail).
    pub split: usize,
}

impl<R: EntryRun> EntryRun for TwoSegRun<'_, R> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.head.len() + (self.stored.len() - self.split)
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        if i < self.head.len() {
            let e = &self.head[i];
            (e.step, e.node.0)
        } else {
            self.stored.key(i - self.head.len() + self.split)
        }
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        if i < self.head.len() {
            self.head[i].value
        } else {
            self.stored.value(i - self.head.len() + self.split)
        }
    }
}

/// Dispatch an `&EntryAccess` to a concrete [`EntryRun`] shape and run
/// `$body` with `$run` bound to it — the variant match happens once per
/// run, never per entry.
macro_rules! with_run {
    ($access:expr, |$run:ident| $body:expr) => {
        match $access {
            $crate::store::EntryAccess::Columns {
                steps,
                nodes,
                values,
            } => {
                let $run = $crate::store::ColumnsRun {
                    steps: *steps,
                    nodes: *nodes,
                    values: *values,
                };
                $body
            }
            $crate::store::EntryAccess::RawLe {
                steps,
                nodes,
                values,
            } => {
                let $run = $crate::store::RawLeRun {
                    steps: *steps,
                    nodes: *nodes,
                    values: *values,
                };
                $body
            }
            $crate::store::EntryAccess::Block { block, lo, hi } => {
                let $run = $crate::store::ColumnsRun {
                    steps: &block.steps[*lo..*hi],
                    nodes: &block.nodes[*lo..*hi],
                    values: &block.values[*lo..*hi],
                };
                $body
            }
            $crate::store::EntryAccess::Slice(s) => {
                let $run: &[$crate::hp::HpEntry] = s;
                $body
            }
        }
    };
}
pub(crate) use with_run;

/// A resolved per-node entry source for the streaming kernels: either
/// the backend's run consumed in place, a two-segment §5.2 view (copied
/// head + in-place tail), or a fully materialized list. Produced by
/// [`crate::index::resolve_stream_source`] / the §5.3 restore and
/// dispatched by [`with_source!`] — the query-time generalization of
/// [`EntryAccess`] that folds the restore decision into the type.
pub(crate) enum RunSource<'s> {
    /// The backend access *is* the effective list (no restore needed, or
    /// a list already materialized into a caller-owned buffer).
    Whole(EntryAccess<'s>),
    /// Two-segment view: `head` (steps ≤ 2, built into a caller buffer)
    /// over `stored`'s steps ≥ 3 tail starting at `split`.
    Seg {
        head: &'s [HpEntry],
        stored: EntryAccess<'s>,
        split: usize,
    },
    /// Fully materialized list shared from the [`RestoreCache`].
    Shared(Arc<Vec<HpEntry>>),
}

/// Dispatch an `&RunSource` to a concrete [`EntryRun`] and run `$body`
/// with `$run` bound to it. `Whole`/`Shared` degenerate to the plain
/// [`with_run!`] shapes; `Seg` wraps the stored run in a [`TwoSegRun`],
/// so the head/tail branch is the only per-entry cost the two-segment
/// restore adds.
macro_rules! with_source {
    ($source:expr, |$run:ident| $body:expr) => {
        match $source {
            $crate::store::RunSource::Whole(access) => {
                $crate::store::with_run!(access, |$run| $body)
            }
            $crate::store::RunSource::Shared(list) => {
                let $run: &[$crate::hp::HpEntry] = &list[..];
                $body
            }
            $crate::store::RunSource::Seg {
                head,
                stored,
                split,
            } => {
                $crate::store::with_run!(stored, |seg_tail| {
                    let $run = $crate::store::TwoSegRun {
                        head: *head,
                        stored: seg_tail,
                        split: *split,
                    };
                    $body
                })
            }
        }
    };
}
pub(crate) use with_source;

/// `range(v)` with the structural sanity the untrusted backends need
/// before trusting it: well-ordered and inside the entry array. A store
/// whose offset table mutates underneath it (a file overwritten after
/// open) must surface that as an error, not an out-of-bounds access.
pub(crate) fn checked_range<S: HpStore + ?Sized>(
    store: &S,
    v: NodeId,
) -> Result<Range<usize>, SlingError> {
    let range = store.range(v);
    if range.start > range.end || range.end > store.total_entries() {
        return Err(SlingError::CorruptIndex(format!(
            "entry range {range:?} of {v:?} exceeds the store ({} entries)",
            store.total_entries()
        )));
    }
    Ok(range)
}

impl HpStore for HpArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        HpArena::num_nodes(self)
    }

    #[inline]
    fn total_entries(&self) -> usize {
        HpArena::total_entries(self)
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        HpArena::range(self, v)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        self.fill(v, out);
        Ok(())
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        Ok(HpEntry::new(
            self.steps[i],
            NodeId(self.nodes[i]),
            self.values[i],
        ))
    }

    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        Ok(HpArena::contains_key(self, v, step, node))
    }

    fn resident_bytes(&self) -> usize {
        HpArena::resident_bytes(self)
    }

    /// True zero-copy: the arena *is* the structure-of-arrays layout the
    /// kernels consume, so borrowing `H(v)` is three slice operations.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        _scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        let r = HpArena::range(self, v);
        Ok(EntryAccess::Columns {
            steps: &self.steps[r.clone()],
            nodes: &self.nodes[r.clone()],
            values: &self.values[r],
        })
    }
}

/// Reject payload values that cannot be hitting probabilities. The
/// out-of-core backends decode entries from untrusted bytes at query
/// time; letting a non-finite value through would poison downstream
/// score sorts (which rightly assume finite scores) with a panic instead
/// of an error.
pub(crate) fn check_value(i: usize, value: f64) -> Result<(), SlingError> {
    if !value.is_finite() || !(0.0..=MAX_PROBABILITY).contains(&value) {
        return Err(SlingError::CorruptIndex(format!(
            "entry {i} holds a non-probability HP value {value}"
        )));
    }
    Ok(())
}

impl<S: HpStore + ?Sized> HpStore for &S {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn total_entries(&self) -> usize {
        (**self).total_entries()
    }

    fn range(&self, v: NodeId) -> Range<usize> {
        (**self).range(v)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        (**self).entries_into(v, out)
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        (**self).entry_at(i)
    }

    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        (**self).contains_key(v, step, node)
    }

    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }

    fn prefetch(&self, v: NodeId) {
        (**self).prefetch(v)
    }

    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        (**self).entries_ref(v, scratch)
    }
}

impl<S: HpStore + ?Sized> HpStore for Box<S> {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn total_entries(&self) -> usize {
        (**self).total_entries()
    }

    fn range(&self, v: NodeId) -> Range<usize> {
        (**self).range(v)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        (**self).entries_into(v, out)
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        (**self).entry_at(i)
    }

    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        (**self).contains_key(v, step, node)
    }

    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }

    fn prefetch(&self, v: NodeId) {
        (**self).prefetch(v)
    }

    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        (**self).entries_ref(v, scratch)
    }
}

/// Borrowed view of everything a query needs: the store plus the
/// query-side metadata. `Copy`, so the generic algorithm cores pass it by
/// value. Internal glue between [`SlingIndex`], [`SharedEngine`], and the
/// per-module algorithm implementations.
pub(crate) struct EngineRef<'a, S: HpStore> {
    pub store: &'a S,
    pub config: &'a SlingConfig,
    pub d: &'a [f64],
    pub reduced: &'a [bool],
    pub marks: &'a MarkArena,
    /// Engine-owned memo of restored effective lists (`None` for the
    /// bare [`SlingIndex`] convenience API).
    pub restore_cache: Option<&'a RestoreCache>,
}

impl<S: HpStore> Clone for EngineRef<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: HpStore> Copy for EngineRef<'_, S> {}

impl<S: HpStore> EngineRef<'_, S> {
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.reduced.len()
    }

    pub fn check_node(&self, v: NodeId) -> Result<(), SlingError> {
        if v.index() >= self.num_nodes() {
            return Err(SlingError::NodeOutOfRange {
                node: v.0,
                n: self.num_nodes() as u32,
            });
        }
        Ok(())
    }

    /// Classify how much of `v`'s entry list a query must rewrite.
    /// Decided entirely at build time (the reduction bitmap and the mark
    /// offsets are index artifacts), so this is two O(1) loads; for
    /// [`RestoreKind::None`] — the common case on large graphs — the
    /// streaming kernels consume the backend's entries in place and skip
    /// the [`crate::QueryWorkspace`] copy entirely.
    ///
    /// The
    /// distinction is what the §5.3 mark expansion can touch: a marked
    /// entry at step ℓ spawns corrections at step ℓ+1, i.e. *anywhere*
    /// in the list, so marked nodes need the full materializing restore
    /// ([`RestoreKind::Full`]). The §5.2 reduction only *removes* steps
    /// 1–2 at build time, so an unmarked reduced node needs nothing but
    /// a recomputed steps ≤ 2 head spliced in front of its untouched
    /// steps ≥ 3 tail ([`RestoreKind::TwoHopOnly`]) — the two-segment
    /// streaming view, used by engines under [`RestorePolicy::Stream`].
    /// Engines under [`RestorePolicy::Cache`] resolve both restoring
    /// kinds to full lists instead (every cache entry is a full
    /// effective list): a warm hub is then one lookup and a contiguous
    /// merge with zero backend traffic. Which policy an engine runs is
    /// decided once, from its index, by [`restore_policy`].
    #[inline]
    pub fn restore_kind(&self, v: NodeId) -> RestoreKind {
        if self.config.enhance_accuracy
            && !self.marks.is_empty()
            && !self.marks.marks_of(v).is_empty()
        {
            RestoreKind::Full
        } else if self.reduced[v.index()] {
            RestoreKind::TwoHopOnly
        } else {
            RestoreKind::None
        }
    }
}

/// How much of a node's stored entry list a query must rewrite before
/// consuming it, decided per node from build-time artifacts (the §5.2
/// reduction bitmap and the §5.3 mark offsets). How the rewrite is done
/// for the restoring kinds depends on the engine's [`RestorePolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreKind {
    /// The stored run is the effective list — stream it in place.
    None,
    /// §5.2-reduced, unmarked: recompute the steps ≤ 2 head exactly and
    /// stream the stored steps ≥ 3 tail in place (two-segment view), or
    /// serve the cached full list under [`RestorePolicy::Cache`].
    TwoHopOnly,
    /// §5.3-marked: mark expansion may rewrite arbitrary steps, so the
    /// whole effective list is materialized.
    Full,
}

/// Zero-copy memory-mapped view of a persisted `SLNGIDX1` index file.
///
/// `open` maps the file and validates the header, metadata, and offset
/// table — it never decodes the entry payload, so the cost is independent
/// of the number of stored entries and no `HpArena` is materialized.
/// Entries are decoded on demand, one `(step, node, value)` at a time,
/// straight from the mapping; repeated queries hit the page cache. Every
/// decoded entry is bound-checked so a file corrupted *after* open still
/// surfaces as [`SlingError::CorruptIndex`], never a panic.
pub struct MmapHpArena {
    map: Mmap,
    num_nodes: usize,
    entries: usize,
    /// Byte offset of the `(n + 1)`-entry `u64` HP offset table.
    offsets_base: usize,
    steps_base: usize,
    nodes_base: usize,
    values_base: usize,
}

impl MmapHpArena {
    /// Map `path` and validate its structure (header + offset table
    /// only). Returns the arena plus the decoded query-side metadata.
    pub(crate) fn open_with_meta(
        path: impl AsRef<Path>,
    ) -> Result<(MmapHpArena, crate::format::DecodedMeta), SlingError> {
        let file = std::fs::File::open(path)?;
        // SAFETY: the standard memmap contract — the caller must not
        // truncate the index file while the arena is alive. Concurrent
        // *content* corruption is tolerated: reads are bound-checked and
        // decode errors surface as SlingError.
        let map = unsafe { Mmap::map(&file) }?;
        let meta = decode_meta(&map)?;
        let &PayloadGeometry::Raw {
            steps_base,
            nodes_base,
            values_base,
        } = &meta.payload
        else {
            return Err(SlingError::CorruptIndex(
                "SLNGIDX2 index: open it with the mmap-compressed backend \
                 (CompressedMmapArena), or convert with `sling compact`"
                    .to_string(),
            ));
        };
        let arena = MmapHpArena {
            num_nodes: meta.num_nodes,
            entries: meta.entries,
            offsets_base: meta.offsets_base,
            steps_base,
            nodes_base,
            values_base,
            map,
        };
        Ok((arena, meta))
    }

    /// Map and validate `path` without retaining the metadata. Prefer
    /// [`SharedEngine::open_mmap`], which keeps the correction factors and
    /// reduction bitmap needed to answer queries.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapHpArena, SlingError> {
        Ok(Self::open_with_meta(path)?.0)
    }

    #[inline]
    fn read_u64(&self, at: usize) -> u64 {
        // In bounds by construction: decode_meta validated that every
        // section lies inside the mapping.
        u64::from_le_bytes(self.map[at..at + 8].try_into().unwrap())
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        self.read_u64(self.offsets_base + i * 8) as usize
    }

    /// Decode entry `i`, bound-checking the node id against `n`.
    #[inline]
    fn decode_entry(&self, i: usize) -> Result<HpEntry, SlingError> {
        // Hard bound, not a debug_assert: the offset table lives in the
        // mapping and can mutate after open, and an index past `entries`
        // must surface as CorruptIndex rather than a slice panic.
        if i >= self.entries {
            return Err(SlingError::CorruptIndex(format!(
                "mmap entry index {i} past the {} stored entries",
                self.entries
            )));
        }
        let step = u16::from_le_bytes(
            self.map[self.steps_base + i * 2..self.steps_base + i * 2 + 2]
                .try_into()
                .unwrap(),
        );
        let node = u32::from_le_bytes(
            self.map[self.nodes_base + i * 4..self.nodes_base + i * 4 + 4]
                .try_into()
                .unwrap(),
        );
        if node as usize >= self.num_nodes {
            return Err(SlingError::CorruptIndex(format!(
                "mmap entry {i} references node {node} past n = {}",
                self.num_nodes
            )));
        }
        let value = f64::from_bits(self.read_u64(self.values_base + i * 8));
        check_value(i, value)?;
        Ok(HpEntry::new(step, NodeId(node), value))
    }

    /// Bytes of the underlying mapping (for space reports).
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }

    /// `madvise(WILLNEED)` the byte ranges holding `H(v)`'s three payload
    /// sections, so a cold query faults its entries in with batched
    /// readahead instead of one major fault per section. Advisory only:
    /// alignment is handled inside the mapping and failures (or a range
    /// the offset table has corrupted) are ignored — the bound-checked
    /// decode path still governs correctness.
    pub fn prefetch_entries(&self, v: NodeId) {
        if v.index() >= self.num_nodes {
            return;
        }
        let range = self.range(v);
        if range.start > range.end || range.end > self.entries || range.is_empty() {
            return;
        }
        let count = range.len();
        for (base, width) in [
            (self.steps_base, 2usize),
            (self.nodes_base, 4),
            (self.values_base, 8),
        ] {
            let _ =
                self.map
                    .advise_range(Advice::WillNeed, base + range.start * width, count * width);
        }
    }
}

impl HpStore for MmapHpArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.entries
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        let i = v.index();
        self.offset(i)..self.offset(i + 1)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        out.clear();
        let range = checked_range(self, v)?;
        // Same fault point as `entries_ref`: both are "read and validate
        // one run from the mapping" sites, so a chaos schedule covers a
        // query regardless of which accessor its restore path takes.
        match crate::faults::check(crate::faults::point::MMAP_VALIDATE) {
            None => {}
            Some(crate::faults::FaultAction::Error) => {
                return Err(SlingError::Io(crate::faults::injected_error(
                    crate::faults::point::MMAP_VALIDATE,
                )))
            }
            Some(crate::faults::FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(_) => {
                return Err(SlingError::CorruptIndex(format!(
                    "injected corruption at {} (node {})",
                    crate::faults::point::MMAP_VALIDATE,
                    v.index()
                )))
            }
        }
        out.reserve(range.len());
        for i in range {
            out.push(self.decode_entry(i)?);
        }
        Ok(())
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        self.decode_entry(i)
    }

    /// The entry payload lives in the page cache, not on this struct's
    /// heap: only the handle itself counts.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
    }

    /// Zero-copy borrow straight out of the mapping: the three section
    /// slices holding `H(v)` plus one branch-light validation sweep
    /// (node bounds, value range) — no per-entry decode-and-push, no
    /// buffer write. The sweep keeps the corrupt-file contract of
    /// `MmapHpArena::decode_entry`: a file mutilated after open
    /// surfaces as [`SlingError::CorruptIndex`], never a panic or an
    /// out-of-bounds correction-factor read in the kernels.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        _scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        let range = checked_range(self, v)?;
        // In bounds: decode_meta validated every section against the
        // mapping for `entries` entries, and range.end <= entries.
        let steps = &self.map[self.steps_base + range.start * 2..self.steps_base + range.end * 2];
        let nodes = &self.map[self.nodes_base + range.start * 4..self.nodes_base + range.end * 4];
        let values =
            &self.map[self.values_base + range.start * 8..self.values_base + range.end * 8];
        // Fault point: the mapping itself is immutable and shared, so
        // `Corrupt`/`ShortRead` here synthesize the CorruptIndex the
        // sweep would raise on a mutilated file, instead of flipping
        // bytes in place.
        match crate::faults::check(crate::faults::point::MMAP_VALIDATE) {
            None => {}
            Some(crate::faults::FaultAction::Error) => {
                return Err(SlingError::Io(crate::faults::injected_error(
                    crate::faults::point::MMAP_VALIDATE,
                )))
            }
            Some(crate::faults::FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(_) => {
                return Err(SlingError::CorruptIndex(format!(
                    "injected corruption at {} (node {})",
                    crate::faults::point::MMAP_VALIDATE,
                    v.index()
                )))
            }
        }
        validate_raw_le(nodes, values, range.start, self.num_nodes)?;
        Ok(EntryAccess::RawLe {
            steps,
            nodes,
            values,
        })
    }
}

/// Validate the raw little-endian node/value sections of one entry run:
/// every node id below `n`, every value a finite probability. The hot
/// sweep is two branchless *lane-striped* folds over the contiguous
/// sections — [`SWEEP_LANES`] independent accumulators per stripe so the
/// compiler can vectorize the u32 max and the f64 range compares, plus a
/// scalar tail. Only a failing run pays a second pass to name the
/// offending entry (matching the per-entry decode errors).
// `(v >= 0.0) & (v <= MAX)` is two non-short-circuit lane compares on
// purpose; `RangeInclusive::contains` would reintroduce `&&`.
#[allow(clippy::manual_range_contains)]
pub(crate) fn validate_raw_le(
    nodes: &[u8],
    values: &[u8],
    base: usize,
    n: usize,
) -> Result<(), SlingError> {
    // Node sweep: lane-parallel max over the u32 column, one bound
    // compare at the end.
    let mut node_lanes = [0u32; SWEEP_LANES];
    let mut node_chunks = nodes.chunks_exact(4 * SWEEP_LANES);
    for stripe in &mut node_chunks {
        for (m, c) in node_lanes.iter_mut().zip(stripe.chunks_exact(4)) {
            *m = (*m).max(u32::from_le_bytes(c.try_into().unwrap()));
        }
    }
    let mut max_node = node_lanes.into_iter().max().unwrap_or(0);
    for c in node_chunks.remainder().chunks_exact(4) {
        max_node = max_node.max(u32::from_le_bytes(c.try_into().unwrap()));
    }
    if max_node as usize >= n {
        for (i, c) in nodes.chunks_exact(4).enumerate() {
            let node = u32::from_le_bytes(c.try_into().unwrap());
            if node as usize >= n {
                return Err(SlingError::CorruptIndex(format!(
                    "mmap entry {} references node {node} past n = {n}",
                    base + i
                )));
            }
        }
    }
    // Value sweep: lane-parallel range fold. The two compares are
    // equivalent to `check_value`'s predicate — NaN fails both, ±∞ fails
    // one — see `codec::block::values_all_probabilities`.
    let mut ok_lanes = [true; SWEEP_LANES];
    let mut value_chunks = values.chunks_exact(8 * SWEEP_LANES);
    for stripe in &mut value_chunks {
        for (ok, c) in ok_lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let value = f64::from_le_bytes(c.try_into().unwrap());
            *ok &= (value >= 0.0) & (value <= MAX_PROBABILITY);
        }
    }
    let mut all_ok = ok_lanes.into_iter().all(|ok| ok);
    for c in value_chunks.remainder().chunks_exact(8) {
        let value = f64::from_le_bytes(c.try_into().unwrap());
        all_ok &= (value >= 0.0) & (value <= MAX_PROBABILITY);
    }
    if !all_ok {
        for (i, c) in values.chunks_exact(8).enumerate() {
            check_value(base + i, f64::from_le_bytes(c.try_into().unwrap()))?;
        }
    }
    Ok(())
}

/// Cache of **restored effective entry lists** for §5.2-reduced and
/// §5.3-marked nodes.
///
/// A reduced node's effective list is rebuilt on every query — the exact
/// two-hop recomputation costs up to `γ/θ` edge operations, which
/// dominates hub queries on power-law graphs (the hub's restored list is
/// orders of magnitude bigger than its stored run). But the restored
/// list is **immutable** for a given index + graph, so the engines
/// memoize it: a sharded, entry-budgeted LRU of `Arc`-shared lists, one
/// independently locked `LruList` per shard. A hit turns a
/// hub restore into a refcount bump, and the streaming kernels then
/// borrow the cached list exactly like a backend-owned run. Misses
/// compute outside the lock; results are bit-identical by construction
/// (the cached list *is* the computed list).
pub(crate) struct RestoreCache {
    shards: Box<[Mutex<RestoreShard>]>,
    per_shard_entries: usize,
}

#[derive(Default)]
struct RestoreShard {
    lists: LruList<u32, Arc<Vec<HpEntry>>>,
    entries: usize,
}

impl RestoreCache {
    /// Shard count (power of two).
    const SHARDS: usize = 8;

    /// Default total entry budget: ~64K entries ≈ 1.5 MiB of restored
    /// lists per engine — enough for the hot hubs of a skewed workload,
    /// bounded for long-lived servers.
    const DEFAULT_TOTAL_ENTRIES: usize = 1 << 16;

    pub(crate) fn new() -> Self {
        RestoreCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::default()).collect(),
            per_shard_entries: (Self::DEFAULT_TOTAL_ENTRIES / Self::SHARDS).max(1),
        }
    }

    #[inline]
    fn shard(&self, v: NodeId) -> &Mutex<RestoreShard> {
        &self.shards[(v.0 as usize) & (Self::SHARDS - 1)]
    }

    /// Cached restored list of `v`, if resident.
    pub(crate) fn get(&self, v: NodeId) -> Option<Arc<Vec<HpEntry>>> {
        let hit = self.shard(v).lock().lists.get(&v.0).map(Arc::clone);
        match hit.is_some() {
            true => KernelCounters::bump(&obs::KERNEL.restore_cache_hits),
            false => KernelCounters::bump(&obs::KERNEL.restore_cache_misses),
        }
        hit
    }

    /// Admit a restored list, evicting LRU lists until it fits the
    /// shard's entry budget (an oversized list is admitted alone — reuse
    /// is node-driven).
    pub(crate) fn insert(&self, v: NodeId, list: Arc<Vec<HpEntry>>) {
        let mut shard = self.shard(v).lock();
        if shard.lists.get(&v.0).is_some() {
            // A racing worker restored it first; keep theirs.
            return;
        }
        while shard.entries + list.len() > self.per_shard_entries {
            let Some((_, old)) = shard.lists.pop_lru() else {
                break;
            };
            shard.entries -= old.len();
        }
        shard.entries += list.len();
        shard.lists.insert(v.0, list);
    }

    /// Estimated heap bytes of the cached lists.
    pub(crate) fn resident_bytes(&self) -> usize {
        let entries: usize = self.shards.iter().map(|s| s.lock().entries).sum();
        entries * std::mem::size_of::<HpEntry>()
    }
}

/// Payload blocks a compressed backend keeps decoded: when the whole
/// payload has at most this many blocks, every block is decoded once, on
/// first touch, and served from memory for the life of the store (at the
/// default 1024-entry geometry that is ≤ 64K entries, ≈ 1 MiB of
/// columns). Larger payloads are read run by run through
/// [`decode_block_range`] instead: on BA(100000,4) at ε = 0.1 the
/// payload has 1,899 blocks and a run averages 19 entries, so a cache of
/// 64 decoded blocks missed on over 90% of reads and every miss decoded
/// 1024 entries to return 19.
pub(crate) const RESIDENT_BLOCKS: usize = 64;

/// Where a compressed backend's encoded block bytes come from: borrowed
/// from a mapping, or read into the caller's `buf`.
pub(crate) trait BlockBytes {
    /// Payload bytes `lo..hi`, as offsets from the first block.
    fn block_bytes<'a>(
        &'a self,
        lo: u64,
        hi: u64,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], SlingError>;
}

/// The block reader of the compressed backends ([`CompressedMmapArena`]
/// and the blocked [`crate::out_of_core::DiskHpStore`]): payload
/// geometry, the resident v3 value dictionary, and the **single**
/// validation path every read goes through — if it ever forked, the
/// backends' bit-equivalence guarantee could silently diverge.
///
/// How runs are read is decided once, at open, from the geometry:
///
/// * **Resident** (`num_blocks ≤` [`RESIDENT_BLOCKS`]): each block is
///   decoded whole on first touch, validated, and kept in a per-block
///   [`OnceLock`]. Nothing is ever evicted; runs inside one block are
///   borrowed in place as [`EntryAccess::Block`].
/// * **Range** (larger payloads): every read decodes just the entries it
///   needs through [`decode_block_range`], straight into the caller's
///   buffer; a run that straddles blocks decodes each block's part.
///
/// Validation contract, in both modes:
///
/// * The block's framing is checked on every decode: entry count against
///   the directory, run-length sums, section boundaries, and the exact
///   block length with no trailing bytes. (Resident blocks are decoded,
///   and so checked, once.)
/// * Every returned entry is checked: node `< n`, dictionary code and
///   hi-plane index in range, value a probability.
/// * No input panics; every violation is [`SlingError::CorruptIndex`].
///
/// Whole-payload decodes ([`SlingIndex::decode`], `compact`, `verify`)
/// use the whole-block decoder, not this reader.
pub(crate) struct BlockedPayload {
    num_nodes: usize,
    entries: usize,
    block_entries: usize,
    /// Validated block directory (resident, so it cannot be corrupted
    /// under us after open).
    block_offsets: Vec<u64>,
    /// The resident v3 global value dictionary (`None` for v2 files).
    global_dict: Option<Vec<f64>>,
    /// Decode-once block table; `Some` exactly in resident mode.
    resident: Option<Box<[OnceLock<DecodedBlock>]>>,
}

impl BlockedPayload {
    pub(crate) fn new(
        num_nodes: usize,
        entries: usize,
        block_entries: usize,
        block_offsets: Vec<u64>,
        global_dict: Option<Vec<f64>>,
    ) -> Self {
        let num_blocks = block_offsets.len().saturating_sub(1);
        let resident = (num_blocks <= RESIDENT_BLOCKS)
            .then(|| (0..num_blocks).map(|_| OnceLock::new()).collect());
        BlockedPayload {
            num_nodes,
            entries,
            block_entries,
            block_offsets,
            global_dict,
            resident,
        }
    }

    /// Number of payload blocks.
    pub(crate) fn num_blocks(&self) -> usize {
        self.block_offsets.len().saturating_sub(1)
    }

    /// Payload byte span (offsets from the first block) of the blocks
    /// holding global entry range `range`; `None` when it is empty or
    /// out of range.
    pub(crate) fn byte_span(&self, range: &Range<usize>) -> Option<(u64, u64)> {
        if range.is_empty() || range.end > self.entries {
            return None;
        }
        let be = self.block_entries;
        let (b0, b1) = (range.start / be, (range.end - 1) / be);
        if b1 >= self.num_blocks() {
            return None;
        }
        Some((self.block_offsets[b0], self.block_offsets[b1 + 1]))
    }

    /// Heap bytes: the block directory, the v3 dictionary and the
    /// decoded resident blocks (14 bytes per decoded entry).
    pub(crate) fn resident_bytes(&self) -> usize {
        let decoded: usize = self.resident.as_deref().map_or(0, |table| {
            table
                .iter()
                .filter_map(OnceLock::get)
                .map(|block| block.len() * 14 + std::mem::size_of::<DecodedBlock>())
                .sum()
        });
        self.block_offsets.len() * 8
            + self.global_dict.as_ref().map_or(0, |d| d.len() * 8)
            + decoded
    }

    /// Fill `out` (cleared first) with global entries `range`.
    pub(crate) fn entries_into(
        &self,
        src: &impl BlockBytes,
        range: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<(), SlingError> {
        out.clear();
        if range.is_empty() {
            return Ok(());
        }
        out.reserve(range.len());
        self.read_into(src, range, out)
    }

    /// Global entry `i`. In range mode this decodes the one entry, not
    /// its block (§5.3 mark expansion and the default
    /// [`HpStore::contains_key`] binary search probe entry by entry).
    pub(crate) fn entry_at(&self, src: &impl BlockBytes, i: usize) -> Result<HpEntry, SlingError> {
        if i >= self.entries {
            return Err(SlingError::CorruptIndex(format!(
                "compressed entry index {i} past the {} stored entries",
                self.entries
            )));
        }
        let mut one = Vec::with_capacity(1);
        self.read_into(src, i..i + 1, &mut one)?;
        one.pop()
            .ok_or_else(|| SlingError::CorruptIndex(format!("entry {i} decoded to nothing")))
    }

    /// Entries `range` as an [`EntryAccess`]: a borrowed resident block
    /// when the run lies inside one, else materialized into `scratch`.
    pub(crate) fn entries_ref<'s>(
        &'s self,
        src: &impl BlockBytes,
        range: Range<usize>,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        if range.is_empty() {
            return Ok(EntryAccess::Slice(&[]));
        }
        let be = self.block_entries;
        let (b0, b1) = (range.start / be, (range.end - 1) / be);
        if let (Some(table), true) = (self.resident.as_deref(), b0 == b1) {
            let block = self.resident_block(table, src, b0)?;
            let (lo, hi) = (range.start - b0 * be, range.end - b0 * be);
            // The whole-block decode pinned the entry count to the
            // directory, so the run always fits; guard anyway so a logic
            // slip cannot become a slice panic.
            if hi <= block.len() {
                return Ok(EntryAccess::Block { block, lo, hi });
            }
        }
        self.entries_into(src, range, scratch)?;
        Ok(EntryAccess::Slice(scratch))
    }

    /// Append global entries `range` (non-empty) to `out`, block by
    /// block.
    fn read_into(
        &self,
        src: &impl BlockBytes,
        range: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<(), SlingError> {
        let be = self.block_entries;
        let mut buf = Vec::new();
        for b in range.start / be..=(range.end - 1) / be {
            let expected = expected_block_len(b, self.num_blocks(), be, self.entries)?;
            let (lo, hi) = (
                range.start.max(b * be) - b * be,
                range.end.min(b * be + expected) - b * be,
            );
            match self.resident.as_deref() {
                Some(table) => {
                    let block = self.resident_block(table, src, b)?;
                    for i in lo..hi {
                        out.push(HpEntry::new(
                            block.steps[i],
                            NodeId(block.nodes[i]),
                            block.values[i],
                        ));
                    }
                }
                None => {
                    let raw = src.block_bytes(
                        self.block_offsets[b],
                        self.block_offsets[b + 1],
                        &mut buf,
                    )?;
                    self.decode_range_validated(raw, b, expected, lo..hi, out)?;
                }
            }
        }
        Ok(())
    }

    /// Block `b` of the resident table, decoded and validated on first
    /// touch. Racing first touches decode redundantly; one result wins.
    fn resident_block<'s>(
        &self,
        table: &'s [OnceLock<DecodedBlock>],
        src: &impl BlockBytes,
        b: usize,
    ) -> Result<&'s DecodedBlock, SlingError> {
        let expected = expected_block_len(b, self.num_blocks(), self.block_entries, self.entries)?;
        if let Some(block) = table[b].get() {
            return Ok(block);
        }
        let mut buf = Vec::new();
        let raw = src.block_bytes(self.block_offsets[b], self.block_offsets[b + 1], &mut buf)?;
        let block = self.decode_whole_validated(raw, b, expected)?;
        Ok(table[b].get_or_init(|| block))
    }

    /// Decode and fully validate one whole block.
    fn decode_whole_validated(
        &self,
        raw: &[u8],
        b: usize,
        expected: usize,
    ) -> Result<DecodedBlock, SlingError> {
        KernelCounters::bump(&obs::KERNEL.block_decodes);
        KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, raw.len() as u64);
        let mut block = DecodedBlock::default();
        match self.global_dict.as_deref() {
            Some(dict) => decode_block_with_dict(raw, expected, dict, &mut block)?,
            None => decode_block(raw, expected, &mut block)?,
        }
        // Two lane-striped column folds; only a failing block pays the
        // per-entry rescan that names the entry.
        let base = b * self.block_entries;
        if max_node(&block.nodes) as usize >= self.num_nodes {
            for (i, &node) in block.nodes.iter().enumerate() {
                self.check_node(base + i, node)?;
            }
        }
        if !values_all_probabilities(&block.values) {
            for (i, &value) in block.values.iter().enumerate() {
                check_value(base + i, value)?;
            }
        }
        Ok(block)
    }

    /// Range-decode local entries `local` of block `b` onto `out` and
    /// validate each returned entry.
    fn decode_range_validated(
        &self,
        raw: &[u8],
        b: usize,
        expected: usize,
        local: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<(), SlingError> {
        KernelCounters::bump(&obs::KERNEL.run_decodes);
        KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, raw.len() as u64);
        let first = out.len();
        let base = b * self.block_entries + local.start;
        decode_block_range(raw, expected, self.global_dict.as_deref(), local, out)?;
        for (i, e) in out[first..].iter().enumerate() {
            self.check_node(base + i, e.node.0)?;
            check_value(base + i, e.value)?;
        }
        Ok(())
    }

    #[inline]
    fn check_node(&self, i: usize, node: u32) -> Result<(), SlingError> {
        if node as usize >= self.num_nodes {
            return Err(SlingError::CorruptIndex(format!(
                "block entry {i} references node {node} past n = {}",
                self.num_nodes
            )));
        }
        Ok(())
    }
}

/// Zero-copy memory-mapped view of a block-compressed `SLNGIDX2` or
/// `SLNGIDX3` index file.
///
/// The compressed sibling of [`MmapHpArena`]: `open` maps the file and
/// validates the header, offset table, and block directory — never the
/// payload — so open cost is independent of the number of stored
/// entries. Queries read blocks straight from the page cache through the
/// block reader it shares with the blocked disk store: a payload of at
/// most 64 blocks is decoded block by block once and then
/// served from memory; a larger one is range-decoded run by run. Either
/// way every read obeys the reader's validation contract: the framing of
/// each decoded block is checked (counts, run directory, section
/// boundaries, exact length), every returned entry is checked (node
/// `< n`, dictionary and hi-plane indices, value a probability), and a
/// file corrupted *after* open still surfaces as
/// [`SlingError::CorruptIndex`], never a panic.
///
/// In lossless mode (the default for `sling compact`) queries return
/// scores **bit-identical** to every other backend serving the same
/// index; quantized files answer with ≤ 2⁻³³ value error and report
/// [`CompressedMmapArena::values_exact`]` == false`.
pub struct CompressedMmapArena {
    map: Mmap,
    /// Byte offset of the `(n + 1)`-entry `u64` HP offset table.
    offsets_base: usize,
    /// Byte offset of the first block.
    blocks_base: usize,
    values_exact: bool,
    blocks: BlockedPayload,
}

impl CompressedMmapArena {
    /// Map `path` and validate its structure (header + offset table +
    /// block directory only). Returns the arena plus the decoded
    /// query-side metadata.
    pub(crate) fn open_with_meta(
        path: impl AsRef<Path>,
    ) -> Result<(CompressedMmapArena, crate::format::DecodedMeta), SlingError> {
        let file = std::fs::File::open(path)?;
        // SAFETY: the standard memmap contract — the caller must not
        // truncate the index file while the arena is alive. Concurrent
        // *content* corruption is tolerated: block decodes are fully
        // validated and errors surface as SlingError.
        let map = unsafe { Mmap::map(&file) }?;
        let mut meta = decode_meta(&map)?;
        let PayloadGeometry::Blocked(geo) = &mut meta.payload else {
            return Err(SlingError::CorruptIndex(
                "SLNGIDX1 index: open it with the plain mmap backend, or convert \
                 with `sling compact`"
                    .to_string(),
            ));
        };
        let arena = CompressedMmapArena {
            offsets_base: meta.offsets_base,
            blocks_base: geo.blocks_base,
            values_exact: geo.values_exact,
            blocks: BlockedPayload::new(
                meta.num_nodes,
                meta.entries,
                geo.block_entries,
                std::mem::take(&mut geo.block_offsets),
                std::mem::take(&mut geo.global_dict),
            ),
            map,
        };
        Ok((arena, meta))
    }

    /// Map and validate `path` without retaining the metadata. Prefer
    /// [`SharedEngine::open_mmap_compressed`], which keeps the
    /// correction factors and reduction bitmap needed to answer queries.
    pub fn open(path: impl AsRef<Path>) -> Result<CompressedMmapArena, SlingError> {
        Ok(Self::open_with_meta(path)?.0)
    }

    /// Whether decoded values are bit-identical to the index that was
    /// compacted (false for quantized files).
    pub fn values_exact(&self) -> bool {
        self.values_exact
    }

    /// Number of payload blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.num_blocks()
    }

    /// Bytes of the underlying mapping (for space reports).
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        u64::from_le_bytes(
            self.map[self.offsets_base + i * 8..self.offsets_base + i * 8 + 8]
                .try_into()
                .unwrap(),
        ) as usize
    }

    /// `madvise(WILLNEED)` the encoded byte range of the blocks holding
    /// `H(v)`, so a cold query faults its pages in with batched
    /// readahead. Advisory only; failures and out-of-range ids are
    /// ignored.
    pub fn prefetch_entries(&self, v: NodeId) {
        if v.index() >= self.blocks.num_nodes {
            return;
        }
        if let Some((lo, hi)) = self.blocks.byte_span(&self.range(v)) {
            let _ = self.map.advise_range(
                Advice::WillNeed,
                self.blocks_base + lo as usize,
                (hi - lo) as usize,
            );
        }
    }
}

impl BlockBytes for CompressedMmapArena {
    fn block_bytes<'a>(
        &'a self,
        lo: u64,
        hi: u64,
        _buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], SlingError> {
        // In bounds by construction (decode_meta validated the resident
        // directory against the mapping length); checked regardless.
        let (lo, hi) = (
            self.blocks_base + lo as usize,
            self.blocks_base + hi as usize,
        );
        self.map.get(lo..hi).ok_or_else(|| {
            SlingError::CorruptIndex(format!("block bytes {lo}..{hi} escape the mapping"))
        })
    }
}

impl HpStore for CompressedMmapArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.blocks.num_nodes
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.blocks.entries
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        let i = v.index();
        self.offset(i)..self.offset(i + 1)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        let range = checked_range(self, v)?;
        self.blocks.entries_into(self, range, out)
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        self.blocks.entry_at(self, i)
    }

    /// The encoded payload lives in the page cache; resident heap is the
    /// block directory, the v3 dictionary and any resident decoded
    /// blocks.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.blocks.resident_bytes()
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
    }

    /// Resident payloads serve a run inside one block as a borrowed
    /// sub-range of the decoded block, skipping the per-entry copy;
    /// range-decoded runs and runs straddling blocks materialize into
    /// `scratch`.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        let range = checked_range(self, v)?;
        self.blocks.entries_ref(self, range, scratch)
    }
}

/// The query engine, and the only query front end: a storage backend
/// plus all query-side metadata (correction factors, §5.2 reduction
/// bitmap, §5.3 marks) held **by value**, and — when its
/// [`RestorePolicy`] is `Cache` — a cache of restored §5.2/§5.3
/// effective lists. Both constructors pick the policy from the index
/// ([`SharedEngine::restore_policy`] reports it; nothing overrides it).
/// The cache lives and dies with the engine: the index is immutable, so
/// a cached list never goes stale, and a generation swap or a rebuild
/// replaces the whole engine, cache included.
///
/// Every backend opens into one: an in-memory [`SlingIndex`] converts
/// with `From`, and [`SharedEngine::open_mmap`],
/// [`SharedEngine::open_mmap_compressed`] and [`SharedEngine::open_disk`]
/// open a persisted file without decoding its entry payload. Callers that
/// pick the backend at run time erase it with [`SharedEngine::into_dyn`].
/// The engine is `Send + Sync` whenever the store is (every backend is)
/// and queries take `&self`, so a long-lived process opens an index once,
/// wraps the engine in an [`std::sync::Arc`], and queries it from every
/// worker thread. Queries return `Result` because the out-of-core
/// backends can fail mid-read; all backends return **identical** scores
/// for the same persisted index.
///
/// Workers keep their own [`QueryWorkspace`]/[`SingleSourceWorkspace`],
/// so the hot path shares only immutable state — no locks.
pub struct SharedEngine<S: HpStore> {
    store: S,
    config: SlingConfig,
    d: Vec<f64>,
    reduced: Vec<bool>,
    marks: MarkArena,
    stats: BuildStats,
    /// `Some` under [`RestorePolicy::Cache`], `None` under
    /// [`RestorePolicy::Stream`]; see [`restore_policy`].
    restore: Option<RestoreCache>,
}

/// How a [`SharedEngine`] serves the nodes whose effective lists a query
/// must rebuild (§5.2-reduced or §5.3-marked, see
/// [`RestoreKind`]). Chosen once, from the index, when the engine is
/// constructed (see [`SharedEngine::restore_policy`]); there is no
/// option to override it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestorePolicy {
    /// Memoize full restored lists in the engine's LRU restore cache: a
    /// warm node is one lookup and a contiguous merge with no backend
    /// traffic.
    Cache,
    /// Memoize nothing: a reduced node streams a two-segment view (its
    /// recomputed steps ≤ 2 head, then its stored steps ≥ 3 tail read in
    /// place), and a marked node is rebuilt into the workspace.
    Stream,
}

impl RestorePolicy {
    /// Wire spelling, as STATS reports it: `cache` or `stream`.
    pub fn as_str(self) -> &'static str {
        match self {
            RestorePolicy::Cache => "cache",
            RestorePolicy::Stream => "stream",
        }
    }
}

/// The one place a [`SharedEngine`]'s restore policy is decided, from a
/// quantity of the index alone: the stored entries of every restoring
/// node, summed from the offset table every backend keeps resident. If
/// they fit the restore cache's entry budget, every restored list can
/// stay cached at once, so the engine caches; otherwise the LRU would
/// churn (a 0.3% hit rate on BA(100000,4), where they are 29× the
/// budget) and every miss would copy a whole list for one use, so the
/// engine streams. At ε = 0.1, BA(2000,4) holds 0.78× the budget and
/// caches, BA(100000,4) streams.
fn restore_policy<S: HpStore>(
    store: &S,
    config: &SlingConfig,
    reduced: &[bool],
    marks: &MarkArena,
) -> RestorePolicy {
    let marked =
        |v: NodeId| config.enhance_accuracy && !marks.is_empty() && !marks.marks_of(v).is_empty();
    let mut restoring_entries = 0usize;
    for (i, &is_reduced) in reduced.iter().enumerate() {
        let v = NodeId::from_index(i);
        if is_reduced || marked(v) {
            restoring_entries += store.range(v).len();
            if restoring_entries > RestoreCache::DEFAULT_TOTAL_ENTRIES {
                return RestorePolicy::Stream;
            }
        }
    }
    RestorePolicy::Cache
}

impl<S: HpStore> std::fmt::Debug for SharedEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEngine")
            .field("num_nodes", &self.num_nodes())
            .field("restore_policy", &self.restore_policy())
            .finish_non_exhaustive()
    }
}

impl SharedEngine<MmapHpArena> {
    /// Open a persisted index as an owned zero-copy mmap engine, verifying
    /// it matches `graph`. Open cost is header + offset-table validation
    /// plus the `O(n)` query-side metadata — the entry payload stays in
    /// the page cache and is decoded on demand, bound-checked.
    pub fn open_mmap(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<MmapHpArena>, SlingError> {
        let (arena, meta) = MmapHpArena::open_with_meta(path)?;
        SharedEngine::from_meta(graph, arena, meta)
    }
}

impl SharedEngine<CompressedMmapArena> {
    /// Open a block-compressed `SLNGIDX2`/`SLNGIDX3` index as an owned
    /// mmap engine, verifying it matches `graph`. Open cost is header,
    /// offset-table, and block-directory validation plus the `O(n)`
    /// query-side metadata; blocks are decoded on demand (see
    /// [`CompressedMmapArena`]). A lossless file answers bit-identically
    /// to every other backend.
    pub fn open_mmap_compressed(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<CompressedMmapArena>, SlingError> {
        let (arena, meta) = CompressedMmapArena::open_with_meta(path)?;
        SharedEngine::from_meta(graph, arena, meta)
    }
}

impl SharedEngine<DiskHpStore> {
    /// Open a persisted index of any format as an owned disk engine,
    /// verifying it matches `graph`. Only the `O(n)` offsets and
    /// query-side metadata become resident; entries are fetched with
    /// positioned reads (see [`DiskHpStore`]), which keep `&self`
    /// queries thread-safe.
    pub fn open_disk(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<DiskHpStore>, SlingError> {
        let (store, meta) = DiskHpStore::open_with_meta(path)?;
        SharedEngine::from_meta(graph, store, meta)
    }
}

impl From<SlingIndex> for SharedEngine<HpArena> {
    /// Consume an in-memory index into an owned engine over its arena.
    fn from(index: SlingIndex) -> Self {
        SharedEngine::with_policy(
            index.hp,
            index.config,
            index.d,
            index.reduced,
            index.marks,
            index.stats,
        )
    }
}

impl<S: HpStore + Send + Sync + 'static> SharedEngine<S> {
    /// Erase the backend type, for callers that choose the backend at
    /// run time.
    pub fn into_dyn(self) -> SharedEngine<Box<dyn HpStore + Send + Sync>> {
        SharedEngine {
            store: Box::new(self.store),
            config: self.config,
            d: self.d,
            reduced: self.reduced,
            marks: self.marks,
            stats: self.stats,
            restore: self.restore,
        }
    }
}

impl<S: HpStore> SharedEngine<S> {
    /// Pair a freshly opened store with the metadata decoded beside it,
    /// rejecting an index built for another graph.
    fn from_meta(graph: &DiGraph, store: S, meta: DecodedMeta) -> Result<Self, SlingError> {
        if meta.num_nodes != graph.num_nodes() || meta.num_edges != graph.num_edges() {
            return Err(SlingError::GraphMismatch {
                expected_nodes: meta.num_nodes,
                found_nodes: graph.num_nodes(),
            });
        }
        Ok(SharedEngine::with_policy(
            store,
            meta.config,
            meta.d,
            meta.reduced,
            meta.marks,
            meta.stats,
        ))
    }

    /// Assemble an engine under the policy [`restore_policy`] picks.
    /// Both public constructors (`From<SlingIndex>` and the file
    /// openers) end here.
    fn with_policy(
        store: S,
        config: SlingConfig,
        d: Vec<f64>,
        reduced: Vec<bool>,
        marks: MarkArena,
        stats: BuildStats,
    ) -> Self {
        let policy = restore_policy(&store, &config, &reduced, &marks);
        let engine = SharedEngine {
            store,
            config,
            d,
            reduced,
            marks,
            stats,
            restore: None,
        };
        engine.forcing_policy(policy)
    }

    /// Attach a fresh restore cache under [`RestorePolicy::Cache`], none
    /// under `Stream`. Outside [`SharedEngine::with_policy`] only tests
    /// call it, to pin both policies against each other on one fixture.
    pub(crate) fn forcing_policy(mut self, policy: RestorePolicy) -> Self {
        self.restore = (policy == RestorePolicy::Cache).then(RestoreCache::new);
        self
    }

    pub(crate) fn engine_ref(&self) -> EngineRef<'_, S> {
        EngineRef {
            store: &self.store,
            config: &self.config,
            d: &self.d,
            reduced: &self.reduced,
            marks: &self.marks,
            restore_cache: self.restore.as_ref(),
        }
    }

    /// The restore policy this engine chose from its index when it was
    /// constructed: [`RestorePolicy::Cache`] when the stored entries of
    /// every §5.2-reduced or §5.3-marked node fit the restore cache's
    /// 65,536-entry budget, [`RestorePolicy::Stream`] otherwise. STATS
    /// reports it as `restore=cache|stream`.
    pub fn restore_policy(&self) -> RestorePolicy {
        match self.restore {
            Some(_) => RestorePolicy::Cache,
            None => RestorePolicy::Stream,
        }
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SlingConfig {
        &self.config
    }

    /// Build statistics recorded in the index.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Number of nodes of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.reduced.len()
    }

    /// Heap-resident bytes: store + query-side metadata. For the
    /// out-of-core backends this is `O(n)` — the entry payload stays in
    /// the page cache or on disk.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
            + self.d.len() * 8
            + self.reduced.len()
            + self.marks.resident_bytes()
            + self
                .restore
                .as_ref()
                .map_or(0, RestoreCache::resident_bytes)
    }

    fn check_pair(&self, u: NodeId, v: NodeId) -> Result<(), SlingError> {
        let e = self.engine_ref();
        e.check_node(u)?;
        e.check_node(v)
    }

    /// Single-pair SimRank estimate `s̃(u, v)` (Algorithm 3).
    pub fn single_pair(&self, graph: &DiGraph, u: NodeId, v: NodeId) -> Result<f64, SlingError> {
        let mut ws = QueryWorkspace::new();
        self.single_pair_with(graph, &mut ws, u, v)
    }

    /// Single-pair query reusing caller-provided buffers — the server
    /// workers' hot path.
    pub fn single_pair_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        v: NodeId,
    ) -> Result<f64, SlingError> {
        self.check_pair(u, v)?;
        single_pair_core(self.engine_ref(), graph, ws, u, v)
    }

    /// Single-pair query through the **materializing reference path**:
    /// both effective entry lists copied into the workspace, linear
    /// merge — the pre-streaming kernel. Bit-identical to
    /// [`SharedEngine::single_pair_with`] on every backend; kept public
    /// so `sling bench-query` can measure the zero-copy/galloping gap and
    /// the equivalence suite can assert it.
    pub fn single_pair_materialized_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        v: NodeId,
    ) -> Result<f64, SlingError> {
        self.check_pair(u, v)?;
        crate::single_pair::single_pair_materialized_core(self.engine_ref(), graph, ws, u, v)
    }

    /// Single-source query from `u` (Algorithm 6).
    pub fn single_source(&self, graph: &DiGraph, u: NodeId) -> Result<Vec<f64>, SlingError> {
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        self.single_source_with(graph, &mut ws, u, &mut out)?;
        Ok(out)
    }

    /// Single-source query into caller-provided buffers; allocation-free
    /// after warm-up on every backend.
    pub fn single_source_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) -> Result<(), SlingError> {
        self.engine_ref().check_node(u)?;
        single_source_core(self.engine_ref(), graph, ws, u, out)
    }

    /// Single-source query through the **materializing reference path**
    /// (see [`SharedEngine::single_pair_materialized_with`]).
    pub fn single_source_materialized_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) -> Result<(), SlingError> {
        self.engine_ref().check_node(u)?;
        crate::single_source::single_source_materialized_core(self.engine_ref(), graph, ws, u, out)
    }

    /// Algorithm 6 with early termination: skip step runs whose maximum
    /// possible remaining contribution (`Σ_{ℓ' ≥ ℓ} c^ℓ' = c^ℓ/(1-c)`)
    /// is at most `slack`. Returns the residual bound that was dropped
    /// (0.0 when every stored step was processed).
    pub fn single_source_truncated(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        slack: f64,
        out: &mut Vec<f64>,
    ) -> Result<f64, SlingError> {
        self.engine_ref().check_node(u)?;
        single_source_truncated_core(self.engine_ref(), graph, ws, u, slack, out)
    }

    /// Top-k most similar nodes to `u` (excluding `u`), ordered by
    /// descending score with node-id tie-breaking, selected with a
    /// bounded heap fed from the nodes Algorithm 6 touched.
    ///
    /// ```
    /// use sling_core::{SharedEngine, SlingConfig, SlingIndex};
    /// use sling_graph::generators::two_cliques_bridge;
    ///
    /// let g = two_cliques_bridge(5);
    /// let index = SlingIndex::build(&g, &SlingConfig::from_epsilon(0.6, 0.05)).unwrap();
    /// let engine = SharedEngine::from(index);
    /// let top = engine.top_k(&g, 0u32.into(), 3).unwrap();
    /// assert_eq!(top.len(), 3);
    /// assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    /// ```
    pub fn top_k(
        &self,
        graph: &DiGraph,
        u: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, SlingError> {
        let mut ws = SingleSourceWorkspace::new();
        let mut scores = Vec::new();
        self.top_k_with(graph, &mut ws, &mut scores, u, k)
    }

    /// Top-k reusing the caller's workspace. The heap is fed straight
    /// from the nodes Algorithm 6 touched, so no dense score vector is
    /// built: `scores` is left empty.
    pub fn top_k_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        scores: &mut Vec<f64>,
        u: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, SlingError> {
        self.engine_ref().check_node(u)?;
        scores.clear();
        top_k_core(self.engine_ref(), graph, ws, u, k, None)
    }

    /// Early-terminating top-k: stops propagating Algorithm 6's step runs
    /// once the unprocessed steps can add at most `slack` to any score.
    ///
    /// Each returned score `s` underestimates the full Algorithm-6 result
    /// by at most `slack`, so with the index's ε guarantee the total error
    /// versus true SimRank is at most `ε + slack`. With `slack = 0.0` this
    /// is exactly [`SharedEngine::top_k`].
    pub fn top_k_approx(
        &self,
        graph: &DiGraph,
        u: NodeId,
        k: usize,
        slack: f64,
    ) -> Result<Vec<(NodeId, f64)>, SlingError> {
        self.engine_ref().check_node(u)?;
        let mut ws = SingleSourceWorkspace::new();
        let cutoff = slack_cutoff(self.config.c, slack);
        top_k_core(self.engine_ref(), graph, &mut ws, u, k, cutoff)
    }

    /// All unordered pairs `{u, v}` (`u ≠ v`) with `s̃(u, v) ≥ tau`,
    /// ordered by descending score (ties: ascending `(u, v)`).
    ///
    /// `tau` must be positive: a zero threshold would ask for all `n(n-1)/2`
    /// pairs, which is never the intent of a similarity join.
    ///
    /// ```
    /// use sling_core::join::JoinStrategy;
    /// use sling_core::{SharedEngine, SlingConfig, SlingIndex};
    /// use sling_graph::generators::two_cliques_bridge;
    ///
    /// let g = two_cliques_bridge(4);
    /// let index = SlingIndex::build(&g, &SlingConfig::from_epsilon(0.6, 0.05)).unwrap();
    /// let engine = SharedEngine::from(index);
    /// let pairs = engine.threshold_join(&g, 0.1, JoinStrategy::PerSource).unwrap();
    /// assert!(pairs.iter().all(|p| p.score >= 0.1 && p.u < p.v));
    /// ```
    pub fn threshold_join(
        &self,
        graph: &DiGraph,
        tau: f64,
        strategy: JoinStrategy,
    ) -> Result<Vec<JoinPair>, SlingError> {
        threshold_join_core(self.engine_ref(), graph, tau, strategy)
    }

    /// The `k` unordered pairs with the largest scores (self-pairs
    /// excluded, matching the paper's top-k evaluation protocol), ordered
    /// by descending score.
    ///
    /// `prune` is a score threshold below which pairs can be discarded
    /// early; pass the smallest score still of interest (e.g. the paper's
    /// Figure 7 protocol only ranks pairs with non-negligible scores) or
    /// a tiny positive value for an exact global top-k over nonzero pairs.
    pub fn top_k_join(
        &self,
        graph: &DiGraph,
        k: usize,
        prune: f64,
        strategy: JoinStrategy,
    ) -> Result<Vec<JoinPair>, SlingError> {
        let mut pairs = self.threshold_join(graph, prune.max(f64::MIN_POSITIVE), strategy)?;
        pairs.truncate(k);
        Ok(pairs)
    }
}

impl<S: HpStore + Sync> SharedEngine<S> {
    /// Evaluate a batch of single-pair queries on `threads` workers
    /// (results positionally aligned with `pairs`).
    pub fn batch_single_pair(
        &self,
        graph: &DiGraph,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Result<Vec<f64>, SlingError> {
        for &(u, v) in pairs {
            self.check_pair(u, v)?;
        }
        crate::batch::batch_single_pair_core(self.engine_ref(), graph, pairs, threads)
    }

    /// Evaluate single-source queries from every node in `sources` on
    /// `threads` workers.
    pub fn batch_single_source(
        &self,
        graph: &DiGraph,
        sources: &[NodeId],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, SlingError> {
        for &u in sources {
            self.engine_ref().check_node(u)?;
        }
        crate::batch::batch_single_source_core(self.engine_ref(), graph, sources, threads)
    }
}

impl SlingIndex {
    /// Consume the index into an owned, `Arc`-shareable engine over its
    /// in-memory arena (see [`SharedEngine`]).
    pub fn into_shared_engine(self) -> SharedEngine<HpArena> {
        SharedEngine::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};
    use std::path::PathBuf;

    const C: f64 = 0.6;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sling_store_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("index.slng")
    }

    /// The in-memory engine forced onto the streaming restore policy:
    /// the policy-independent reference the other backends and the
    /// caching engine must match bit for bit.
    fn streaming(idx: &SlingIndex) -> SharedEngine<HpArena> {
        SharedEngine::from(idx.clone()).forcing_policy(RestorePolicy::Stream)
    }

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(C, 0.1)
            .with_seed(13)
            .with_enhancement(true)
    }

    #[test]
    fn arena_and_mmap_stores_agree_entrywise() {
        let g = barabasi_albert(120, 3, 5).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("entrywise");
        idx.save(&path).unwrap();
        let mmap = MmapHpArena::open(&path).unwrap();
        assert_eq!(HpStore::num_nodes(&idx.hp), mmap.num_nodes);
        assert_eq!(
            HpStore::total_entries(&idx.hp),
            HpStore::total_entries(&mmap)
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in g.nodes() {
            assert_eq!(HpStore::range(&idx.hp, v), HpStore::range(&mmap, v));
            idx.hp.entries_into(v, &mut a).unwrap();
            mmap.entries_into(v, &mut b).unwrap();
            assert_eq!(a, b, "H({v:?}) differs between arena and mmap");
            for e in &a {
                assert!(mmap.contains_key(v, e.step, e.node).unwrap());
            }
            assert!(!mmap.contains_key(v, u16::MAX, NodeId(0)).unwrap());
        }
        for i in 0..HpStore::total_entries(&mmap) {
            assert_eq!(idx.hp.entry_at(i).unwrap(), mmap.entry_at(i).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_open_is_metadata_only() {
        let g = barabasi_albert(200, 3, 7).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("o1open");
        let mut bytes = idx.to_bytes();
        // Corrupt the *entry payload* (last 8 bytes = final HP value) with
        // a NaN. A full decode rejects this file; a metadata-only open
        // must accept it — proving open never scans the payload.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SlingIndex::from_bytes(&g, &bytes),
            Err(SlingError::CorruptIndex(_))
        ));
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        // And the handle holds O(n) metadata, not the O(n/eps) payload.
        assert!(engine.resident_bytes() < idx.resident_bytes());
        assert!(
            HpStore::resident_bytes(engine.store()) < 256,
            "mmap store must not materialize entries"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_from_index_matches_index_queries() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let engine = SharedEngine::from(idx.clone());
        for u in g.nodes() {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                reference.single_source(&g, u).unwrap()
            );
            for v in g.nodes() {
                assert_eq!(
                    engine.single_pair(&g, u, v).unwrap(),
                    reference.single_pair(&g, u, v).unwrap()
                );
            }
        }
        assert!(engine.single_pair(&g, NodeId(0), NodeId(99)).is_err());
        assert!(engine.single_source(&g, NodeId(99)).is_err());
    }

    #[test]
    fn mmap_engine_matches_in_memory_exactly() {
        let g = barabasi_albert(150, 2, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let path = tmp("exact");
        idx.save(&path).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        for u in [NodeId(0), NodeId(17), NodeId(149)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                reference.single_source(&g, u).unwrap()
            );
            assert_eq!(
                engine.top_k(&g, u, 7).unwrap(),
                reference.top_k(&g, u, 7).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// `k` arrives from the wire unchecked: it must bound the answer,
    /// never size an allocation or overflow `k + 1`.
    #[test]
    fn top_k_with_huge_k_returns_every_ranked_node() {
        let g = barabasi_albert(150, 2, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let engine = SharedEngine::from(idx.clone());
        let n = g.num_nodes();
        for u in [NodeId(0), NodeId(149)] {
            let all = engine.top_k(&g, u, n).unwrap();
            assert!(!all.is_empty() && all.len() < n);
            for k in [1usize << 40, usize::MAX] {
                assert_eq!(engine.top_k(&g, u, k).unwrap(), all, "k = {k}");
                assert_eq!(reference.top_k(&g, u, k).unwrap(), all, "k = {k}");
                assert_eq!(
                    crate::topk::select_top_k(&reference.single_source(&g, u).unwrap(), Some(u), k),
                    all
                );
            }
        }
    }

    #[test]
    fn batch_queries_reject_out_of_range_nodes() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let engine = SharedEngine::from(idx);
        assert!(matches!(
            engine.batch_single_pair(&g, &[(NodeId(0), NodeId(9999))], 1),
            Err(SlingError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            engine.batch_single_source(&g, &[NodeId(1), NodeId(9999)], 2),
            Err(SlingError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn mmap_rejects_wrong_graph() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("wronggraph");
        idx.save(&path).unwrap();
        let other = two_cliques_bridge(5);
        assert!(matches!(
            SharedEngine::open_mmap(&other, &path),
            Err(SlingError::GraphMismatch { .. })
        ));
        assert!(matches!(
            SharedEngine::open_disk(&other, &path),
            Err(SlingError::GraphMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_engine_matches_index_and_is_arc_shareable() {
        let g = barabasi_albert(120, 3, 19).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let path = tmp("shared");
        idx.save(&path).unwrap();
        let shared = std::sync::Arc::new(SharedEngine::open_mmap(&g, &path).unwrap());
        assert_eq!(shared.num_nodes(), g.num_nodes());
        assert_eq!(shared.stats().entries_stored, idx.stats().entries_stored);
        // The engine and the index agree bit-for-bit — from multiple
        // threads sharing one Arc.
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let shared = std::sync::Arc::clone(&shared);
                let (g, reference) = (&g, &reference);
                s.spawn(move || {
                    let mut ws = QueryWorkspace::new();
                    for i in 0..30u32 {
                        let (u, v) = (NodeId((t * 31 + i) % 120), NodeId((i * 7 + 1) % 120));
                        let want = reference.single_pair(g, u, v).unwrap();
                        assert_eq!(shared.single_pair_with(g, &mut ws, u, v).unwrap(), want);
                    }
                    let u = NodeId(t % 120);
                    assert_eq!(
                        shared.single_source(g, u).unwrap(),
                        reference.single_source(g, u).unwrap()
                    );
                    assert_eq!(
                        shared.top_k(g, u, 5).unwrap(),
                        reference.top_k(g, u, 5).unwrap()
                    );
                });
            }
        });
        // Batches go through the same shared-engine API.
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(5), NodeId(80))];
        assert_eq!(
            shared.batch_single_pair(&g, &pairs, 2).unwrap(),
            reference.batch_single_pair(&g, &pairs, 1).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefetch_is_advisory_and_harmless_everywhere() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let path = tmp("prefetch");
        idx.save(&path).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        for v in g.nodes() {
            // Mmap override and the in-memory default no-op.
            engine.store().prefetch(v);
            HpStore::prefetch(&idx.hp, v);
        }
        // Out-of-range ids must not panic (advisory path, no checks owed).
        engine.store().prefetch(NodeId(10_000));
        // Results unchanged after prefetching.
        assert_eq!(
            engine.single_pair(&g, NodeId(0), NodeId(1)).unwrap(),
            reference.single_pair(&g, NodeId(0), NodeId(1)).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_mmap_agrees_entrywise_and_bitwise() {
        let g = barabasi_albert(140, 3, 23).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let path = tmp("compressed");
        // Tiny blocks so runs straddle block boundaries.
        let opts = crate::codec::CompressOptions {
            block_entries: 16,
            quantize_values: false,
        };
        idx.save_v2(&path, &opts).unwrap();
        let engine = SharedEngine::open_mmap_compressed(&g, &path).unwrap();
        assert!(engine.store().values_exact());
        assert_eq!(
            engine.store().num_blocks(),
            idx.hp.total_entries().div_ceil(16)
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in g.nodes() {
            assert_eq!(
                HpStore::range(&idx.hp, v),
                HpStore::range(engine.store(), v)
            );
            idx.hp.entries_into(v, &mut a).unwrap();
            engine.store().entries_into(v, &mut b).unwrap();
            assert_eq!(a, b, "H({v:?}) differs between arena and compressed mmap");
        }
        for i in (0..idx.hp.total_entries()).step_by(7) {
            assert_eq!(
                idx.hp.entry_at(i).unwrap(),
                engine.store().entry_at(i).unwrap()
            );
        }
        // Full query surface, bit-identical.
        for u in [NodeId(0), NodeId(71), NodeId(139)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                reference.single_source(&g, u).unwrap()
            );
            assert_eq!(
                engine.top_k(&g, u, 6).unwrap(),
                reference.top_k(&g, u, 6).unwrap()
            );
        }
        // O(n) resident: directory + decoded blocks, far below the arena.
        assert!(engine.store().resident_bytes() < idx.hp.resident_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_mmap_quantized_is_close_and_flagged() {
        let g = barabasi_albert(120, 3, 5).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let path = tmp("quantized");
        let opts = crate::codec::CompressOptions {
            quantize_values: true,
            ..Default::default()
        };
        idx.save_v2(&path, &opts).unwrap();
        let engine = SharedEngine::open_mmap_compressed(&g, &path).unwrap();
        assert!(!engine.store().values_exact());
        for (u, v) in [(0u32, 1u32), (5, 80), (119, 3)] {
            let want = reference.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            let got = engine.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            // Quantization error is orders of magnitude below eps.
            assert!((want - got).abs() < 1e-7, "({u},{v}): {want} vs {got}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backends_refuse_the_other_generation() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v1_path = tmp("gen_v1");
        let v2_path = tmp("gen_v2");
        idx.save(&v1_path).unwrap();
        idx.save_v2(&v2_path, &crate::codec::CompressOptions::default())
            .unwrap();
        // Plain mmap on a v2 file: structured error naming the fix.
        let Err(err) = MmapHpArena::open(&v2_path) else {
            panic!("plain mmap opened a v2 file");
        };
        assert!(err.to_string().contains("mmap-compressed"), "{err}");
        // Compressed arena on a v1 file: structured error too.
        let Err(err) = CompressedMmapArena::open(&v1_path) else {
            panic!("compressed arena opened a v1 file");
        };
        assert!(err.to_string().contains("compact"), "{err}");
        // But the eager loader reads both.
        assert!(SlingIndex::load(&g, &v1_path).is_ok());
        assert!(SlingIndex::load(&g, &v2_path).is_ok());
        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }

    #[test]
    fn compressed_mmap_concurrent_queries_agree_in_both_read_modes() {
        let g = barabasi_albert(100, 3, 11).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        // Default blocks keep the payload resident; 4-entry blocks push
        // it past RESIDENT_BLOCKS onto the range decoder.
        for block_entries in [crate::codec::DEFAULT_BLOCK_ENTRIES, 4] {
            let path = tmp(&format!("concurrent_compressed_{block_entries}"));
            let opts = crate::codec::CompressOptions {
                block_entries,
                quantize_values: false,
            };
            idx.save_v2(&path, &opts).unwrap();
            let engine =
                std::sync::Arc::new(SharedEngine::open_mmap_compressed(&g, &path).unwrap());
            std::thread::scope(|s| {
                for t in 0..4u32 {
                    let engine = std::sync::Arc::clone(&engine);
                    let (g, reference) = (&g, &reference);
                    s.spawn(move || {
                        let mut ws = QueryWorkspace::new();
                        for i in 0..40u32 {
                            let (u, v) = (NodeId((t * 17 + i) % 100), NodeId((i * 3 + 1) % 100));
                            assert_eq!(
                                engine.single_pair_with(g, &mut ws, u, v).unwrap(),
                                reference.single_pair(g, u, v).unwrap()
                            );
                        }
                    });
                }
            });
            // Prefetch stays advisory and harmless.
            engine.store().prefetch(NodeId(3));
            engine.store().prefetch(NodeId(99_999));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn compressed_read_mode_follows_the_payload_geometry() {
        let g = barabasi_albert(140, 3, 23).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let open = |block_entries: usize| {
            let path = tmp(&format!("mode_{block_entries}"));
            let opts = crate::codec::CompressOptions {
                block_entries,
                quantize_values: false,
            };
            idx.save_v3(&path, &opts).unwrap();
            let arena = CompressedMmapArena::open(&path).unwrap();
            std::fs::remove_file(&path).ok();
            arena
        };
        let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        let mut scratch = Vec::new();
        let mut want = Vec::new();

        // Past RESIDENT_BLOCKS: every read is a range decode, served
        // through the caller's scratch, never a borrowed block.
        let ranged = open(4);
        assert!(ranged.num_blocks() > RESIDENT_BLOCKS);
        let before = count(&obs::KERNEL.run_decodes);
        let mut reads = 0u64;
        for v in g.nodes() {
            idx.hp.entries_into(v, &mut want).unwrap();
            let access = ranged.entries_ref(v, &mut scratch).unwrap();
            assert!(matches!(access, EntryAccess::Slice(_)));
            assert_eq!(
                (0..access.len()).map(|i| access.get(i)).collect::<Vec<_>>(),
                want
            );
            reads += u64::from(!want.is_empty());
        }
        // Counters are process-global (other tests read concurrently), so
        // only a lower bound holds: at least one range decode per run.
        assert!(count(&obs::KERNEL.run_decodes) - before >= reads);
        for i in 0..idx.hp.total_entries() {
            assert_eq!(ranged.entry_at(i).unwrap(), idx.hp.entry_at(i).unwrap());
        }

        // At or below it: blocks are decoded once and borrowed in place.
        let resident = open(crate::codec::DEFAULT_BLOCK_ENTRIES);
        assert!(resident.num_blocks() <= RESIDENT_BLOCKS);
        let mut borrowed = 0;
        for v in g.nodes() {
            idx.hp.entries_into(v, &mut want).unwrap();
            let access = resident.entries_ref(v, &mut scratch).unwrap();
            borrowed += usize::from(matches!(access, EntryAccess::Block { .. }));
            assert_eq!(
                (0..access.len()).map(|i| access.get(i)).collect::<Vec<_>>(),
                want
            );
        }
        assert!(borrowed > 0, "no run was borrowed from a resident block");
        assert!(resident.resident_bytes() > ranged.resident_bytes());
    }

    #[test]
    fn entries_ref_is_zero_copy_per_backend() {
        let g = barabasi_albert(160, 3, 9).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v1 = tmp("zc_v1");
        let v2 = tmp("zc_v2");
        idx.save(&v1).unwrap();
        // Blocks sized so typical runs fit inside one block while some
        // still straddle a boundary — both access shapes get exercised.
        idx.save_v2(
            &v2,
            &crate::codec::CompressOptions {
                block_entries: 512,
                quantize_values: false,
            },
        )
        .unwrap();
        let mmap = MmapHpArena::open(&v1).unwrap();
        let compressed = CompressedMmapArena::open(&v2).unwrap();
        let mut scratch = Vec::new();
        let mut expect = Vec::new();
        let (mut saw_block, mut saw_straddle) = (false, false);
        for v in g.nodes() {
            idx.hp.entries_into(v, &mut expect).unwrap();
            // Arena: structure-of-arrays columns, no scratch write.
            let access = idx.hp.entries_ref(v, &mut scratch).unwrap();
            assert!(matches!(access, EntryAccess::Columns { .. }));
            assert_eq!(access.len(), expect.len());
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&access.get(i), want);
            }
            // Mmap: raw little-endian section bytes, no scratch write.
            scratch.clear();
            let access = mmap.entries_ref(v, &mut scratch).unwrap();
            assert!(matches!(access, EntryAccess::RawLe { .. }));
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&access.get(i), want);
            }
            assert!(scratch.is_empty(), "mmap entries_ref wrote scratch");
            // Compressed: borrowed resident block for intra-block runs,
            // materialized slice for straddling ones — same entries.
            let access = compressed.entries_ref(v, &mut scratch).unwrap();
            match &access {
                EntryAccess::Block { .. } => saw_block = true,
                EntryAccess::Slice(_) => saw_straddle = true,
                other => panic!("unexpected access shape {}", other.len()),
            }
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&access.get(i), want);
            }
        }
        assert!(saw_block, "no run was served from a single block");
        assert!(saw_straddle, "no run straddled a block boundary");
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn mmap_entries_ref_validates_the_run() {
        let g = barabasi_albert(80, 3, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("zc_corrupt");
        let mut bytes = idx.to_bytes();
        // Poison the last HP value with a NaN: the zero-copy borrow of
        // the owning node's run must fail its validation sweep.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mmap = MmapHpArena::open(&path).unwrap();
        let mut scratch = Vec::new();
        let mut rejected = 0;
        for v in g.nodes() {
            if mmap.entries_ref(v, &mut scratch).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 1, "exactly the poisoned run must be rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_reads_reject_a_poisoned_value() {
        let g = barabasi_albert(80, 3, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = crate::codec::CompressOptions {
            block_entries: 4,
            quantize_values: false,
        };
        let clean = idx.to_bytes_v2(&opts);
        // An entry whose value bit pattern occurs once in the file: its
        // raw or dictionary slot, which a NaN then poisons.
        let find = |bits: u64| {
            let pat = bits.to_le_bytes();
            let hits: Vec<usize> = (0..clean.len() - 7)
                .filter(|&p| clean[p..p + 8] == pat)
                .collect();
            (hits.len() == 1).then(|| hits[0])
        };
        let (i, at) = (0..idx.hp.total_entries())
            .rev()
            .find_map(|i| find(idx.hp.values[i].to_bits()).map(|at| (i, at)))
            .expect("some value is stored once");
        let mut bytes = clean.clone();
        bytes[at..at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let path = tmp("range_poison");
        std::fs::write(&path, &bytes).unwrap();
        let arena = CompressedMmapArena::open(&path).unwrap();
        assert!(
            arena.num_blocks() > RESIDENT_BLOCKS,
            "reads must range-decode"
        );
        assert!(
            arena.entry_at(i).is_err(),
            "poisoned entry {i} was returned"
        );
        let owner = g
            .nodes()
            .find(|&v| HpStore::range(&idx.hp, v).contains(&i))
            .unwrap();
        let mut out = Vec::new();
        assert!(arena.entries_into(owner, &mut out).is_err());
        assert!(arena.entries_ref(owner, &mut out).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Stored entries of every restoring node, as [`restore_policy`]
    /// sums them.
    fn restoring_entries(idx: &SlingIndex) -> usize {
        (0..idx.num_nodes())
            .map(NodeId::from_index)
            .filter(|&v| idx.is_reduced(v) || !idx.marks.marks_of(v).is_empty())
            .map(|v| idx.hp.range(v).len())
            .sum()
    }

    /// The policy comes from the index: BA(2000,4) at ε = 0.1 keeps its
    /// restoring lists inside the cache budget and caches; a graph twice
    /// that size holds more than the budget and streams. Every backend
    /// opened on the same file picks what the in-memory engine picks.
    #[test]
    fn restore_policy_follows_the_restoring_volume() {
        let build = |n: usize| {
            let g = barabasi_albert(n, 4, 7).unwrap();
            let config = SlingConfig::from_epsilon(C, 0.1)
                .with_seed(3)
                .with_threads(2);
            let idx = SlingIndex::build(&g, &config).unwrap();
            (g, idx)
        };
        let budget = RestoreCache::DEFAULT_TOTAL_ENTRIES;
        let (g, small) = build(2000);
        let volume = restoring_entries(&small);
        assert!(volume <= budget, "BA(2000,4) restores {volume} > {budget}");
        let path = tmp("policy");
        small.save(&path).unwrap();
        assert_eq!(
            SharedEngine::open_disk(&g, &path).unwrap().restore_policy(),
            RestorePolicy::Cache
        );
        let small = SharedEngine::from(small);
        assert_eq!(small.restore_policy(), RestorePolicy::Cache);
        assert!(small.restore.is_some());

        let (g, big) = build(4000);
        let volume = restoring_entries(&big);
        assert!(volume > budget, "BA(4000,4) restores {volume} <= {budget}");
        big.save(&path).unwrap();
        assert_eq!(
            SharedEngine::open_mmap(&g, &path).unwrap().restore_policy(),
            RestorePolicy::Stream
        );
        let big = SharedEngine::from(big);
        assert_eq!(big.restore_policy(), RestorePolicy::Stream);
        assert!(big.restore.is_none());
        assert_eq!(RestorePolicy::Stream.as_str(), "stream");
        assert_eq!(small.restore_policy().as_str(), "cache");
        std::fs::remove_file(&path).ok();
    }

    /// Every query answer on one fixture and engine: one row of the
    /// cross-policy matrix.
    #[derive(Debug, PartialEq)]
    struct Row {
        pairs: Vec<u64>,
        sources: Vec<Vec<u64>>,
        top_k: Vec<Vec<(NodeId, u64)>>,
        approx: Vec<Vec<(NodeId, u64)>>,
        truncated: Vec<(u64, Vec<u64>)>,
        joins: Vec<Vec<(NodeId, NodeId, u64)>>,
        batch: Vec<u64>,
        batch_sources: Vec<Vec<u64>>,
    }

    fn row<S: HpStore + Sync>(
        e: &SharedEngine<S>,
        g: &DiGraph,
        pairs: &[(NodeId, NodeId)],
        sources: &[NodeId],
    ) -> Row {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let ranked = |v: Vec<(NodeId, f64)>| {
            v.into_iter()
                .map(|(n, s)| (n, s.to_bits()))
                .collect::<Vec<_>>()
        };
        let joined = |v: Vec<JoinPair>| {
            v.into_iter()
                .map(|p| (p.u, p.v, p.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut ws = SingleSourceWorkspace::new();
        Row {
            pairs: pairs
                .iter()
                .map(|&(u, v)| e.single_pair(g, u, v).unwrap().to_bits())
                .collect(),
            sources: sources
                .iter()
                .map(|&u| bits(e.single_source(g, u).unwrap()))
                .collect(),
            top_k: sources
                .iter()
                .map(|&u| ranked(e.top_k(g, u, 7).unwrap()))
                .collect(),
            approx: sources
                .iter()
                .map(|&u| ranked(e.top_k_approx(g, u, 7, 0.02).unwrap()))
                .collect(),
            truncated: sources
                .iter()
                .map(|&u| {
                    let mut out = Vec::new();
                    let r = e
                        .single_source_truncated(g, &mut ws, u, 0.01, &mut out)
                        .unwrap();
                    (r.to_bits(), bits(out))
                })
                .collect(),
            joins: [JoinStrategy::PerSource, JoinStrategy::InvertedLists]
                .into_iter()
                .map(|st| joined(e.threshold_join(g, 0.05, st).unwrap()))
                .collect(),
            batch: bits(e.batch_single_pair(g, pairs, 3).unwrap()),
            batch_sources: e
                .batch_single_source(g, sources, 2)
                .unwrap()
                .into_iter()
                .map(bits)
                .collect(),
        }
    }

    /// Both restore policies, forced onto one fixture, on every backend
    /// (mem, mmap, mmap-compressed v2/v3, disk v1/v2/v3) and across the
    /// §5.2 × §5.3 matrix: every query type answers bit for bit what the
    /// in-memory streaming engine answers, and pair/source answers equal
    /// the materializing reference kernels (which restore through
    /// neither policy). Each row runs twice, so the caching rows are
    /// also checked warm.
    #[test]
    fn both_restore_policies_agree_on_every_backend() {
        let g = barabasi_albert(120, 3, 11).unwrap();
        let n = g.num_nodes() as u32;
        let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
        let mut pairs: Vec<(NodeId, NodeId)> = (0..24u32)
            .map(|i| (NodeId((i * 7) % n), NodeId((i * 13 + 1) % n)))
            .collect();
        pairs.extend((0..8u32).map(|i| (hub, NodeId(i * 13 + 2))));
        let sources = [NodeId(0), NodeId(1), hub, NodeId(n / 2), NodeId(n - 1)];
        let opts = crate::codec::CompressOptions {
            block_entries: 32,
            quantize_values: false,
        };
        for (sr, enh) in [(true, false), (true, true), (false, true)] {
            let config = SlingConfig::from_epsilon(C, 0.1)
                .with_seed(9)
                .with_space_reduction(sr)
                .with_enhancement(enh);
            let idx = SlingIndex::build(&g, &config).unwrap();
            let (v1, v2, v3) = (tmp("pol_v1"), tmp("pol_v2"), tmp("pol_v3"));
            idx.save(&v1).unwrap();
            idx.save_v2(&v2, &opts).unwrap();
            idx.save_v3(&v3, &opts).unwrap();
            let reference = streaming(&idx);
            let want = row(&reference, &g, &pairs, &sources);
            let mut ws = QueryWorkspace::new();
            let mut ssw = SingleSourceWorkspace::new();
            let mut out = Vec::new();
            for &(u, v) in &pairs {
                let m = reference
                    .single_pair_materialized_with(&g, &mut ws, u, v)
                    .unwrap();
                assert_eq!(
                    reference.single_pair(&g, u, v).unwrap().to_bits(),
                    m.to_bits(),
                    "sr={sr} enh={enh}: stream pair ({u:?},{v:?}) vs materialized"
                );
            }
            for (i, &u) in sources.iter().enumerate() {
                reference
                    .single_source_materialized_with(&g, &mut ssw, u, &mut out)
                    .unwrap();
                let m: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
                assert_eq!(want.sources[i], m, "sr={sr} enh={enh}: stream source {u:?}");
            }
            for policy in [RestorePolicy::Cache, RestorePolicy::Stream] {
                let engines = [
                    ("mem", SharedEngine::from(idx.clone()).into_dyn()),
                    ("mmap", SharedEngine::open_mmap(&g, &v1).unwrap().into_dyn()),
                    (
                        "mmap-compressed-v2",
                        SharedEngine::open_mmap_compressed(&g, &v2)
                            .unwrap()
                            .into_dyn(),
                    ),
                    (
                        "mmap-compressed-v3",
                        SharedEngine::open_mmap_compressed(&g, &v3)
                            .unwrap()
                            .into_dyn(),
                    ),
                    (
                        "disk-v1",
                        SharedEngine::open_disk(&g, &v1).unwrap().into_dyn(),
                    ),
                    (
                        "disk-v2",
                        SharedEngine::open_disk(&g, &v2).unwrap().into_dyn(),
                    ),
                    (
                        "disk-v3",
                        SharedEngine::open_disk(&g, &v3).unwrap().into_dyn(),
                    ),
                ];
                for (label, engine) in engines {
                    let engine = engine.forcing_policy(policy);
                    assert_eq!(engine.restore_policy(), policy);
                    let passes = if policy == RestorePolicy::Cache { 2 } else { 1 };
                    for pass in 0..passes {
                        assert_eq!(
                            row(&engine, &g, &pairs, &sources),
                            want,
                            "{label} {} sr={sr} enh={enh} pass {pass}",
                            policy.as_str()
                        );
                    }
                    if policy == RestorePolicy::Cache && (sr || enh) {
                        assert!(
                            engine.restore.as_ref().unwrap().resident_bytes() > 0,
                            "{label}: the caching row never cached a list"
                        );
                    }
                }
            }
            for p in [&v1, &v2, &v3] {
                std::fs::remove_file(p).ok();
            }
        }
    }

    #[test]
    fn restore_cache_serves_hot_nodes_bit_identically() {
        let g = barabasi_albert(150, 3, 31).unwrap();
        let config = cfg(); // enhancement on; space reduction on
        let idx = SlingIndex::build(&g, &config).unwrap();
        let reference = streaming(&idx);
        assert!(idx.stats().reduced_nodes > 0, "fixture must reduce nodes");
        let engine = SharedEngine::from(idx.clone());
        let mut ws = QueryWorkspace::new();
        // Repeated hub-style queries: the second round must hit the
        // restore cache (non-zero residency) and stay bit-identical to
        // the streaming engine.
        for _round in 0..2 {
            for v in 1..40u32 {
                let want = reference.single_pair(&g, NodeId(0), NodeId(v)).unwrap();
                let got = engine
                    .single_pair_with(&g, &mut ws, NodeId(0), NodeId(v))
                    .unwrap();
                assert_eq!(want.to_bits(), got.to_bits(), "pair (0,{v})");
            }
        }
        assert!(
            engine.restore.as_ref().unwrap().resident_bytes() > 0,
            "restored lists were never cached"
        );
        // Single-source through the same cache agrees too.
        for u in [NodeId(0), NodeId(75)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                reference.single_source(&g, u).unwrap()
            );
        }
    }

    #[test]
    fn restore_cache_eviction_respects_the_budget() {
        let cache = RestoreCache::new();
        let per_shard = cache.per_shard_entries;
        // Insert many same-shard lists, each 1/4 of the shard budget:
        // residency must never exceed the budget.
        let list_len = (per_shard / 4).max(1);
        for i in 0..32u32 {
            let node = NodeId(i * RestoreCache::SHARDS as u32); // same shard
            let list = Arc::new(vec![HpEntry::new(0, NodeId(0), 1.0); list_len]);
            cache.insert(node, list);
            let resident = cache.shards[0].lock().entries;
            assert!(resident <= per_shard, "{resident} > {per_shard}");
        }
        // The most recent insert is still resident.
        assert!(cache
            .get(NodeId(31 * RestoreCache::SHARDS as u32))
            .is_some());
        // An oversized list is admitted alone.
        let huge = Arc::new(vec![HpEntry::new(0, NodeId(0), 1.0); per_shard * 2]);
        cache.insert(NodeId(8), Arc::clone(&huge));
        assert!(cache.get(NodeId(8)).is_some());
    }

    #[test]
    fn disk_store_shared_engine_agrees() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let reference = streaming(&idx);
        let path = tmp("diskshared");
        idx.save(&path).unwrap();
        let engine = SharedEngine::open_disk(&g, &path).unwrap();
        for u in g.nodes() {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                reference.single_source(&g, u).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_engine_holds_its_metadata_once() {
        let g = barabasi_albert(200, 3, 7).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        assert!(idx.stats().marked_entries > 0, "fixture must carry marks");
        let path = tmp("diskmeta");
        idx.save(&path).unwrap();
        let mmap = SharedEngine::open_mmap(&g, &path).unwrap();
        let disk = SharedEngine::open_disk(&g, &path).unwrap();
        // Both engines count the same query-side metadata once; the disk
        // store adds only its (n + 1)-entry offset table to its handle.
        assert_eq!(
            disk.resident_bytes() - disk.store().resident_bytes(),
            mmap.resident_bytes() - mmap.store().resident_bytes()
        );
        assert_eq!(
            disk.store().resident_bytes(),
            std::mem::size_of::<DiskHpStore>() + (g.num_nodes() + 1) * 8
        );
        std::fs::remove_file(&path).ok();
    }
}
