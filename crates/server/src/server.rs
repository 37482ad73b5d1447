//! The server runtime: acceptor, per-worker epoll readiness loops, hot
//! generation reload, graceful shutdown, and per-worker statistics.
//!
//! Each worker owns one epoll instance (a [`polling::Poller`]) and a set
//! of nonblocking connections, handed to it round-robin by the acceptor.
//! A connection is a small state machine ([`Conn`]): bytes accumulate in
//! an incremental read buffer until a full newline-terminated request is
//! framed, every response produced in one readiness *turn* is coalesced
//! into a pending-write buffer and flushed with a single `write`, and a
//! partial write re-arms the connection for write readiness instead of
//! blocking the worker. Idle connections therefore cost one registration
//! each — no thread, no timeout probing — which is the regime skewed,
//! mostly-idle production traffic (SkyServer-shaped: bursty, hot-key
//! dominated, bot-heavy) actually presents.
//!
//! Scheduling is cooperative and fair: readiness events feed a
//! round-robin ready queue, a continuously pipelining connection yields
//! back to that queue after [`YIELD_AFTER`] requests, and a connection
//! owing more than [`OUT_HIGH_WATER`] pending response bytes stops being
//! read until the peer drains it (backpressure). Each worker keeps one
//! warm [`QueryWorkspace`] — the query hot path stays allocation-free
//! and lock-free. Shutdown is lost-wakeup-safe by construction: the
//! flag store is followed by an eventfd notify per worker, and the
//! eventfd stays readable until the worker drains it, so a worker
//! between its flag check and `epoll_wait` still wakes.
//!
//! ## Hot reload
//!
//! The engine lives in a [`ReloadableEngine`] — an epoch-tagged swap
//! slot holding one [`EngineGeneration`] (engine + graph + generation
//! name). Requests in flight keep the `Arc` of the generation they
//! started on; the next request a worker picks up observes the bumped
//! epoch with one atomic load and refetches. A swap also advances the
//! shared result cache's epoch *in the same critical section*, and every
//! insert is tagged with the epoch of the generation that computed it,
//! so a hit computed against a retired index can never be served (see
//! [`ShardedResultCache`]). Swaps are driven by the `RELOAD` protocol
//! verb or the periodic `CURRENT`-staleness watcher
//! ([`ServerConfig::watch_interval_ms`]), both of which consult the
//! [`ReloadableEngine`]'s generation opener (typically wired to a
//! [`sling_core::lifecycle::GenerationStore`]).

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};

use sling_core::faults::{self, FaultAction};
use sling_core::lifecycle::{warm_engine, GenId, GenerationStore};
use sling_core::obs::{
    register_process_metrics, Counter, Histogram, MetricsRegistry, SlowQueryLog, SlowQueryRecord,
    StageNanos,
};
use sling_core::single_source::SingleSourceWorkspace;
use sling_core::workload::trace::{encode_record, TraceKey, TraceOutcome, TraceVerb};
use sling_core::{
    Admission, CacheStats, HpStore, QueryWorkspace, ShardedResultCache, SharedEngine, SlingError,
};
use sling_graph::{DiGraph, NodeId};

use crate::float::write_f64;
use crate::latency::{merge_report, LatencyReport};
use crate::protocol::{write_scores, Request, MAX_LINE_BYTES};
use crate::recorder::{writer_loop, TraceRecorder, MAX_TRACE_BATCH};

/// How often the non-blocking acceptor re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Upper bound on an *idle* worker's `epoll_wait`, and the watcher's
/// sleep slice: even if a shutdown notify were somehow missed, every
/// thread re-checks the flag at least this often. The eventfd waker
/// makes the normal shutdown path immediate; this is the belt to that
/// suspender.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Consecutive unexpected `accept(2)` failures (e.g. fd exhaustion)
/// tolerated — with a poll-interval sleep between retries — before the
/// acceptor gives up and shuts the server down rather than zombifying.
const MAX_ACCEPT_ERRORS: u32 = 512;

/// Requests one connection may run in a single readiness turn before it
/// is re-queued behind the other ready connections. Amortizes dispatch
/// overhead for pipelining clients while bounding how long one busy
/// connection can monopolize a worker.
const YIELD_AFTER: u32 = 64;

/// Read-chunk size for draining a readable socket into a connection's
/// frame buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Most bytes one turn will read from a single connection before
/// yielding — bounds per-turn latency under a firehose client without
/// stalling large (up to [`MAX_LINE_BYTES`]) requests, which resume on
/// the next readiness event.
const TURN_READ_CAP: usize = 256 * 1024;

/// Pending-write high-water mark: a connection owing more than this many
/// unflushed response bytes stops being *read* (backpressure) and is
/// armed for write readiness only, so a client that never drains its
/// receive buffer cannot balloon server memory.
const OUT_HIGH_WATER: usize = 1 << 20;

/// How long shutdown keeps serving connections that still owe work
/// (buffered requests or unflushed responses) before force-closing.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Pause between drain passes during shutdown.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Slow-query ring capacity: enough recent offenders to characterize a
/// latency regression without unbounded retention.
const SLOW_LOG_CAPACITY: usize = 128;

/// Tuning knobs for [`serve`] / [`serve_reloadable`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; `0` means one per available core
    /// (thread-per-core).
    pub workers: usize,
    /// Total capacity of the shared single-pair result cache; `0`
    /// disables caching.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two); `0` picks
    /// [`ShardedResultCache::DEFAULT_SHARDS`].
    pub cache_shards: usize,
    /// Period of the `CURRENT`-staleness watcher in milliseconds; `0`
    /// disables it. Only meaningful for [`serve_reloadable`] with a
    /// generation opener — swaps can still be driven explicitly with the
    /// `RELOAD` verb either way.
    pub watch_interval_ms: u64,
    /// Maximum simultaneously open client connections; past the cap the
    /// acceptor answers `ERR busy` and closes the socket instead of
    /// queueing unboundedly. `0` means unlimited.
    pub max_connections: usize,
    /// Slow-query threshold in microseconds: requests at or above it are
    /// admitted to the ring-buffered slow-query log (`SLOWLOG` verb).
    /// `0` disables the log.
    pub slow_query_us: u64,
    /// Per-request deadline budget in microseconds, measured from when
    /// a request's first bytes reached the server. A query verb
    /// dispatched past its budget answers `ERR deadline` instead of
    /// computing a score nobody is waiting for. `0` disables deadlines.
    pub deadline_us: u64,
    /// Overload shedding by ready-queue depth: when this many
    /// connections are already waiting on the worker's ready queue, new
    /// query verbs answer `ERR overloaded` (fast-fail) instead of
    /// queueing behind them. `0` disables the depth trigger.
    pub shed_queue_depth: usize,
    /// Overload shedding by per-connection pending bytes: a query verb
    /// arriving while the connection already owes this many unserved
    /// input + unflushed output bytes answers `ERR overloaded`. `0`
    /// disables the byte trigger.
    pub shed_pending_bytes: usize,
    /// Runtime `CorruptIndex`/IO errors tolerated per generation before
    /// the [`ReloadableEngine`] quarantines it and auto-rolls back to
    /// the newest verified prior generation. `0` disables rollback.
    pub rollback_error_threshold: u64,
    /// Capture served traffic to this `SLNGTRACE` file (the CLI's
    /// `serve --record FILE`). Enables the recorder ring, the writer
    /// thread, and the `TRACE` wire verb; `None` disables all three.
    pub record_path: Option<PathBuf>,
    /// Keep every Nth request outcome in the capture (`0`/`1` = keep
    /// all) — head-room for servers too hot to trace in full.
    pub record_sample: u64,
    /// Admission policy of the shared result cache (and, via
    /// [`serve_reloadable`], anything keyed off it): plain LRU, or
    /// TinyLFU frequency-sketch admission that rejects one-touch
    /// inserts which would evict a hotter resident.
    pub cache_admission: Admission,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            cache_capacity: 1 << 18,
            cache_shards: 0,
            watch_interval_ms: 0,
            max_connections: 0,
            slow_query_us: 10_000,
            deadline_us: 0,
            shed_queue_depth: 0,
            shed_pending_bytes: 0,
            rollback_error_threshold: 8,
            record_path: None,
            record_sample: 1,
            cache_admission: Admission::Lru,
        }
    }
}

/// A bound accept socket: TCP or Unix-domain.
pub enum Listener {
    /// TCP listener (e.g. `127.0.0.1:0` for an ephemeral port).
    Tcp(TcpListener),
    /// Unix-domain listener; the socket file is removed when the server
    /// stops accepting.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind a TCP listener.
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener, replacing a stale socket file.
    ///
    /// Only an existing *socket* is removed (assumed stale from a prior
    /// run); any other file at the path is an error — a typo'd `--unix`
    /// must never delete data.
    pub fn bind_unix(path: impl AsRef<Path>) -> io::Result<Listener> {
        let path = path.as_ref().to_path_buf();
        match std::fs::symlink_metadata(&path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt as _;
                if meta.file_type().is_socket() {
                    std::fs::remove_file(&path)?;
                } else {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!("{} exists and is not a socket", path.display()),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }
}

/// One live index generation: the engine, the graph it serves, and the
/// generation's name (`gen-NNNN`, or `static` for pinned deployments).
/// Immutable once published into a [`ReloadableEngine`]; requests hold
/// an `Arc` to the generation they started on, so a swap never tears a
/// response.
pub struct EngineGeneration<S: HpStore> {
    engine: Arc<SharedEngine<S>>,
    graph: Arc<DiGraph>,
    name: String,
    /// Swap epoch assigned when this generation is published into the
    /// slot (0 for the initial generation); also the tag its computed
    /// scores carry in the shared result cache.
    epoch: u64,
    /// Runtime `CorruptIndex`/IO errors observed while serving this
    /// generation — the signal corrupt-generation rollback triggers on.
    runtime_errors: AtomicU64,
}

impl<S: HpStore> EngineGeneration<S> {
    /// Package an engine + graph as a generation named `name`.
    pub fn new(engine: Arc<SharedEngine<S>>, graph: Arc<DiGraph>, name: impl Into<String>) -> Self {
        EngineGeneration {
            engine,
            graph,
            name: name.into(),
            epoch: 0,
            runtime_errors: AtomicU64::new(0),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &SharedEngine<S> {
        &self.engine
    }

    /// The graph this generation was built from.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Generation name (`gen-NNNN` or `static`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Swap epoch of this generation (see [`ReloadableEngine`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runtime `CorruptIndex`/IO errors observed while serving this
    /// generation.
    pub fn runtime_errors(&self) -> u64 {
        self.runtime_errors.load(Ordering::Relaxed)
    }
}

/// Produces the next generation when the promoted one changes: given the
/// name of the generation currently being served, return `Ok(Some(..))`
/// with a fully opened (and warmed) successor, `Ok(None)` when nothing
/// newer is promoted. Runs on watcher or `RELOAD`-handling threads, so
/// it may block on IO.
pub type GenerationOpener<S> =
    Box<dyn Fn(&str) -> io::Result<Option<EngineGeneration<S>>> + Send + Sync>;

/// Produces the rollback target when a serving generation is
/// quarantined: given the quarantined generation's name and the full
/// quarantine set, open the newest verified *prior* generation that is
/// not itself quarantined. `Ok(None)` means there is nowhere to roll
/// back to (the old generation keeps serving, errors and all).
type RollbackOpener<S> =
    Box<dyn Fn(&str, &HashSet<String>) -> io::Result<Option<EngineGeneration<S>>> + Send + Sync>;

/// Epoch-tagged hot-swap slot for the serving engine.
///
/// Readers ([`ReloadableEngine::current`]) take an uncontended
/// `RwLock` read just long enough to clone the generation `Arc`; the
/// worker hot path avoids even that by caching the `Arc` and comparing
/// one relaxed-cost atomic epoch load per request. Swapping
/// ([`ReloadableEngine::try_reload`]) verifies-and-opens the new
/// generation *outside* any lock, then publishes it and advances the
/// shared result cache's epoch inside the write critical section — the
/// ordering that makes "a swap can never serve a hit computed against a
/// retired index" hold (see [`ShardedResultCache`]).
pub struct ReloadableEngine<S: HpStore> {
    slot: RwLock<Arc<EngineGeneration<S>>>,
    /// Epoch of the generation currently in `slot` (bumped on swap).
    epoch: AtomicU64,
    swaps: AtomicU64,
    last_swap_unix_ms: AtomicU64,
    /// Reload attempts whose opener failed (the old generation kept
    /// serving). Surfaced through `STATS` so a permanently failing
    /// promotion is diagnosable even under `--watch`.
    reload_failures: AtomicU64,
    opener: Option<GenerationOpener<S>>,
    /// Opens the newest verified prior generation on rollback (set by
    /// [`ReloadableEngine::watching_store`]; `None` for pinned slots,
    /// which have nowhere to roll back to).
    rollback_opener: Option<RollbackOpener<S>>,
    /// Generations quarantined after crossing the runtime-error
    /// threshold. A quarantined generation is refused by
    /// [`ReloadableEngine::try_reload`] until `RELOAD FORCE` lifts it.
    quarantined: Mutex<HashSet<String>>,
    /// Completed corrupt-generation rollbacks.
    rollbacks: AtomicU64,
    /// Serializes [`ReloadableEngine::try_reload`] so concurrent callers
    /// (watcher + `RELOAD`) cannot double-open one generation.
    reload_lock: Mutex<()>,
}

/// Snapshot of a [`ReloadableEngine`]'s swap state, surfaced through
/// `STATS` and [`ServerReport`].
#[derive(Clone, Debug)]
pub struct GenerationInfo {
    /// Name of the generation being served.
    pub generation: String,
    /// Current swap epoch (0 until the first swap).
    pub epoch: u64,
    /// Completed generation swaps.
    pub swaps: u64,
    /// Reload attempts that failed (old generation kept serving).
    pub reload_failures: u64,
    /// Unix timestamp (ms) of the last swap; 0 when none happened.
    pub last_swap_unix_ms: u64,
    /// Completed corrupt-generation rollbacks.
    pub rollbacks: u64,
    /// Generations currently quarantined (refused until `RELOAD FORCE`).
    pub quarantined: usize,
    /// Runtime `CorruptIndex`/IO errors charged to the serving
    /// generation.
    pub runtime_errors: u64,
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl<S: HpStore> ReloadableEngine<S> {
    /// A slot pinned to one generation forever — what [`serve`] wraps a
    /// plain engine in. `RELOAD` reports `swapped=false` and the watcher
    /// never starts.
    pub fn pinned(engine: Arc<SharedEngine<S>>, graph: Arc<DiGraph>) -> Self {
        Self::with_opener(EngineGeneration::new(engine, graph, "static"), None)
    }

    /// A slot starting at `initial` whose successors come from `opener`.
    pub fn new(initial: EngineGeneration<S>, opener: GenerationOpener<S>) -> Self {
        Self::with_opener(initial, Some(opener))
    }

    fn with_opener(initial: EngineGeneration<S>, opener: Option<GenerationOpener<S>>) -> Self {
        ReloadableEngine {
            epoch: AtomicU64::new(initial.epoch),
            slot: RwLock::new(Arc::new(initial)),
            swaps: AtomicU64::new(0),
            last_swap_unix_ms: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            opener,
            rollback_opener: None,
            quarantined: Mutex::new(HashSet::new()),
            rollbacks: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
        }
    }

    /// Watch a [`GenerationStore`]: open its promoted generation now
    /// (erroring when nothing is promoted) and reload whenever `CURRENT`
    /// moves. `open` maps a graph + index path to an engine — one line
    /// per storage backend. Each generation's graph comes from its
    /// co-located snapshot when present, else from `fallback_graph`
    /// (fingerprint-checked against the manifest either way), and each
    /// freshly opened engine is warmed from the store's hot-key log
    /// before it starts serving.
    pub fn watching_store<F>(
        store: GenerationStore,
        fallback_graph: Option<Arc<DiGraph>>,
        open: F,
    ) -> io::Result<ReloadableEngine<S>>
    where
        F: Fn(&DiGraph, &Path) -> Result<SharedEngine<S>, SlingError> + Send + Sync + 'static,
        S: 'static,
    {
        let current = store.current().map_err(io::Error::other)?.ok_or_else(|| {
            io::Error::other(format!(
                "{}: no promoted generation (run `sling promote` first)",
                store.root().display()
            ))
        })?;
        let initial = open_store_generation(&store, &fallback_graph, &open, current)?;
        // The store and the open closure feed both the forward opener
        // (promotion watching) and the rollback opener, so share them.
        let store = Arc::new(store);
        let fallback_graph = Arc::new(fallback_graph);
        let open = Arc::new(open);
        let opener: GenerationOpener<S> = {
            let (store, fallback_graph, open) = (
                Arc::clone(&store),
                Arc::clone(&fallback_graph),
                Arc::clone(&open),
            );
            Box::new(move |serving: &str| {
                let Some(promoted) = store.current().map_err(io::Error::other)? else {
                    return Ok(None); // pointer vanished: keep serving
                };
                if promoted.dir_name() == serving {
                    return Ok(None);
                }
                open_store_generation(&store, &fallback_graph, open.as_ref(), promoted).map(Some)
            })
        };
        // Rollback target: the newest generation strictly older than the
        // quarantined one that is not itself quarantined and passes full
        // payload verification — never trade one corrupt index for
        // another.
        let rollback: RollbackOpener<S> =
            Box::new(move |bad: &str, quarantined: &HashSet<String>| {
                let bad_id = GenId::parse(bad);
                let mut gens = store.list().map_err(io::Error::other)?;
                gens.sort_unstable();
                for gen in gens.into_iter().rev() {
                    if bad_id.is_some_and(|b| gen >= b) || quarantined.contains(&gen.dir_name()) {
                        continue;
                    }
                    if store.verify(gen).is_err() {
                        continue;
                    }
                    return open_store_generation(&store, &fallback_graph, open.as_ref(), gen)
                        .map(Some);
                }
                Ok(None)
            });
        let mut slot = Self::new(initial, opener);
        slot.rollback_opener = Some(rollback);
        Ok(slot)
    }

    /// The generation currently being served.
    pub fn current(&self) -> Arc<EngineGeneration<S>> {
        Arc::clone(&self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Epoch of the serving generation — one atomic load, so callers can
    /// cheaply detect a swap and refetch [`ReloadableEngine::current`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Swap-state snapshot for reporting.
    pub fn info(&self) -> GenerationInfo {
        let current = self.current();
        GenerationInfo {
            generation: current.name.clone(),
            epoch: self.epoch(),
            swaps: self.swaps.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            last_swap_unix_ms: self.last_swap_unix_ms.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            quarantined: self
                .quarantined
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
            runtime_errors: current.runtime_errors(),
        }
    }

    /// Publish `next` as the serving generation: bump the epoch, retag
    /// the shared result cache (when one is given) in the same critical
    /// section, and record swap accounting. In-flight requests finish on
    /// the generation `Arc` they hold; the old generation is dropped
    /// when its last request completes.
    pub fn swap(&self, next: EngineGeneration<S>, cache: Option<&ShardedResultCache>) {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let mut next = next;
        next.epoch = epoch;
        *slot = Arc::new(next);
        // Cache first, then the epoch the workers poll: a worker that
        // observes the new epoch must also observe the retagged cache.
        if let Some(cache) = cache {
            cache.set_epoch(epoch);
        }
        self.epoch.store(epoch, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.last_swap_unix_ms
            .store(unix_ms_now(), Ordering::Relaxed);
    }

    /// Consult the generation opener and swap if a newer generation is
    /// promoted. Returns whether a swap happened; `Ok(false)` for pinned
    /// slots. Serialized internally — concurrent callers (watcher +
    /// `RELOAD`) cannot double-open one generation.
    ///
    /// **Synchronous by design**: the open, verification, and warm-up
    /// run on the calling thread, so a `RELOAD` verb answers with the
    /// definitive outcome — at the cost of occupying that worker for
    /// the load duration. On small worker pools serving a large index,
    /// prefer the watcher ([`ServerConfig::watch_interval_ms`]), which
    /// performs the same load on its own thread while every worker
    /// keeps serving; workers then pick the new generation up with one
    /// atomic compare.
    pub fn try_reload(&self, cache: Option<&ShardedResultCache>) -> io::Result<bool> {
        self.try_reload_with(cache, false)
    }

    /// [`ReloadableEngine::try_reload`], optionally lifting the opened
    /// generation's quarantine first (`RELOAD FORCE`). Without `force`,
    /// a promoted-but-quarantined generation is refused — `Ok(false)`,
    /// the rolled-back-to generation keeps serving — so the watcher
    /// cannot re-promote an index that was quarantined at runtime.
    pub fn try_reload_with(
        &self,
        cache: Option<&ShardedResultCache>,
        force: bool,
    ) -> io::Result<bool> {
        let Some(opener) = &self.opener else {
            return Ok(false);
        };
        // The slot read is brief; the open runs outside the slot lock. A
        // racing second reload would re-open the same generation and
        // swap it in twice — harmless but wasteful, so serialize opens.
        let _serialized = self.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
        let serving = self.current().name.clone();
        match opener(&serving) {
            Ok(Some(next)) => {
                {
                    let mut quarantined =
                        self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
                    if force {
                        quarantined.remove(next.name());
                    } else if quarantined.contains(next.name()) {
                        return Ok(false);
                    }
                }
                self.swap(next, cache);
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Charge one runtime `CorruptIndex`/IO error to `gen`. Crossing
    /// `threshold` (exactly once per generation — the thread whose
    /// increment lands on the threshold wins) quarantines the
    /// generation and rolls back to the newest verified prior
    /// generation. Returns `true` when this call performed a rollback.
    pub fn note_runtime_error(
        &self,
        gen: &EngineGeneration<S>,
        threshold: u64,
        cache: Option<&ShardedResultCache>,
    ) -> bool {
        let count = gen.runtime_errors.fetch_add(1, Ordering::Relaxed) + 1;
        if threshold == 0 || count != threshold {
            return false;
        }
        match self.quarantine_and_rollback(&gen.name, cache) {
            Ok(rolled) => rolled,
            Err(e) => {
                eprintln!("sling-server: rollback from {} failed: {e}", gen.name);
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Quarantine generation `bad` and, when it is still the one being
    /// served and a verified prior generation exists, swap that prior
    /// generation in. Runs synchronously on the calling worker (like
    /// `RELOAD`); the quarantine is deliberately serving-side only —
    /// the on-disk `CURRENT` pointer is left untouched, and
    /// [`ReloadableEngine::try_reload`] refuses the quarantined name
    /// until `RELOAD FORCE`.
    fn quarantine_and_rollback(
        &self,
        bad: &str,
        cache: Option<&ShardedResultCache>,
    ) -> io::Result<bool> {
        let _serialized = self.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
        let quarantine_snapshot = {
            let mut quarantined = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
            quarantined.insert(bad.to_string());
            quarantined.clone()
        };
        if self.current().name != bad {
            // A swap already replaced the bad generation (watcher race);
            // the quarantine above still blocks its re-promotion.
            return Ok(false);
        }
        let Some(rollback) = &self.rollback_opener else {
            return Err(io::Error::other(format!(
                "{bad} quarantined but this slot has no rollback opener"
            )));
        };
        match rollback(bad, &quarantine_snapshot)? {
            Some(prior) => {
                eprintln!(
                    "sling-server: quarantined {bad} after runtime errors; rolling back to {}",
                    prior.name
                );
                self.swap(prior, cache);
                self.rollbacks.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            None => Err(io::Error::other(format!(
                "{bad} quarantined but no verified prior generation exists"
            ))),
        }
    }
}

/// Open, fingerprint-check, and warm one generation from a store.
fn open_store_generation<S, F>(
    store: &GenerationStore,
    fallback_graph: &Option<Arc<DiGraph>>,
    open: &F,
    gen: sling_core::lifecycle::GenId,
) -> io::Result<EngineGeneration<S>>
where
    S: HpStore,
    F: Fn(&DiGraph, &Path) -> Result<SharedEngine<S>, SlingError>,
{
    let manifest = store.manifest(gen).map_err(io::Error::other)?;
    let graph: Arc<DiGraph> = match store
        .load_graph_with(gen, &manifest)
        .map_err(io::Error::other)?
    {
        Some(snapshot) => Arc::new(snapshot),
        None => {
            let fallback = fallback_graph.clone().ok_or_else(|| {
                io::Error::other(format!(
                    "{gen} has no graph snapshot and no fallback graph was provided"
                ))
            })?;
            if fallback.num_nodes() != manifest.num_nodes
                || fallback.num_edges() != manifest.num_edges
            {
                return Err(io::Error::other(format!(
                    "{gen} was built for a graph with {} nodes / {} edges; the fallback \
                     graph has {} / {}",
                    manifest.num_nodes,
                    manifest.num_edges,
                    fallback.num_nodes(),
                    fallback.num_edges()
                )));
            }
            fallback
        }
    };
    let engine = open(&graph, &store.index_path(gen)).map_err(io::Error::other)?;
    // Prime the caches from the replayable hot-key log before the
    // generation takes traffic; warm-up failures must never block a
    // promotion, so the key list being empty or stale is fine.
    let hot = store.read_hot_keys();
    warm_engine(&engine, &graph, &hot);
    Ok(EngineGeneration::new(
        Arc::new(engine),
        graph,
        gen.dir_name(),
    ))
}

/// An accepted client socket, TCP or Unix-domain, in nonblocking mode.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// Per-connection state machine: a nonblocking socket, the incremental
/// frame buffer requests accumulate in, and the pending-write buffer
/// responses coalesce into. One readiness turn ([`serve_turn`]) flushes
/// what the last turn left behind, drains the socket, serves every
/// complete line it framed (up to [`YIELD_AFTER`]), and flushes all of
/// those responses with a single `write`.
struct Conn {
    stream: Stream,
    /// Bytes received but not yet consumed; a request line may arrive in
    /// arbitrarily many fragments across turns.
    inbuf: Vec<u8>,
    /// Coalesced responses not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written (partial-write resume point).
    outpos: usize,
    /// An over-long line is being skipped: bytes are dropped until its
    /// terminating newline, then parsing resyncs on the next request
    /// (the `ERR request line too long` answer was already queued).
    discarding: bool,
    /// `QUIT`/`SHUTDOWN` answered: close once `outbuf` drains.
    close_after_flush: bool,
    /// The peer half-closed its write side (read returned 0).
    eof: bool,
    /// Already queued on the worker's ready list (dedupe flag).
    in_ready: bool,
    /// When the oldest unserved bytes in `inbuf` arrived — the start of
    /// the per-request deadline budget. `None` while the buffer is
    /// empty; pipelined requests framed from one read share the stamp.
    read_at: Option<Instant>,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            discarding: false,
            close_after_flush: false,
            eof: false,
            in_ready: false,
            read_at: None,
        }
    }

    /// Unflushed response bytes this connection still owes its peer.
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// The epoll interest to re-arm with when this connection parks:
    /// readable unless closing or backpressured, writable while
    /// responses are pending.
    fn interest(&self, key: usize) -> Event {
        let pending = self.pending_out();
        Event {
            key,
            readable: !self.eof && !self.close_after_flush && pending < OUT_HIGH_WATER,
            writable: pending > 0,
        }
    }
}

/// One worker's shared face: its epoll instance (also the acceptor's
/// hand-off and shutdown waker) plus event-loop counters for `STATS`.
struct WorkerShared {
    poller: Poller,
    /// Connections accepted but not yet adopted by the worker; pushed by
    /// the acceptor (round-robin), drained after every `epoll_wait`.
    inbox: Mutex<Vec<Stream>>,
    /// Connections on this worker's ready list as of its last dispatch —
    /// the "not idle" gauge.
    active: AtomicU64,
    /// `epoll_wait` returns (including idle ticks and notifies).
    wakeups: AtomicU64,
    /// Readiness turns dispatched to connections.
    turns: AtomicU64,
}

/// Per-worker shards of the four kernel-stage histograms — one set per
/// worker so recording a stage breakdown touches only worker-private
/// cache lines; the registry merges shards on scrape.
struct StageShards {
    entry_fetch: Arc<Histogram>,
    restore: Arc<Histogram>,
    merge: Arc<Histogram>,
    propagate: Arc<Histogram>,
    /// Response encoding of the score-list verbs (`SOURCE`, `TOPK`,
    /// `BATCH`); `PAIR`'s one score costs about as much as the clock
    /// reads that would time it.
    encode: Arc<Histogram>,
}

/// Shared, non-generic server state: the per-worker event loops and the
/// counters the `STATS` command reports.
struct Control {
    shutdown: AtomicBool,
    /// The server's metrics registry (also carrying the process-wide
    /// kernel/lifecycle counters); rendered by the `METRICS` verb.
    metrics: Arc<MetricsRegistry>,
    /// Ring-buffered slow-query log, served by the `SLOWLOG` verb.
    slowlog: Arc<SlowQueryLog>,
    /// Per-worker shards of `sling_server_requests_total`; `STATS`
    /// reads the same handles, so the two expositions cannot diverge.
    served: Box<[Counter]>,
    /// Per-worker query-latency histograms (merged on `STATS`), so
    /// recording a latency is one relaxed add on worker-private state.
    latency: Box<[Arc<Histogram>]>,
    /// Per-worker kernel-stage histogram shards.
    stages: Box<[StageShards]>,
    cache: Option<ShardedResultCache>,
    /// [`ServerConfig::max_connections`] (0 = unlimited).
    max_connections: usize,
    /// Currently open client connections (accepted and not yet closed).
    open_connections: AtomicU64,
    /// Connections refused with `ERR busy` by the cap.
    rejected_connections: AtomicU64,
    /// [`ServerConfig::deadline_us`] as a duration (zero = off).
    deadline: Duration,
    /// [`ServerConfig::shed_queue_depth`] (0 = off).
    shed_queue_depth: usize,
    /// [`ServerConfig::shed_pending_bytes`] (0 = off).
    shed_pending_bytes: usize,
    /// [`ServerConfig::rollback_error_threshold`] (0 = off).
    rollback_error_threshold: u64,
    /// Query verbs answered `ERR overloaded` by the shed triggers.
    requests_shed: Counter,
    /// Query verbs answered `ERR deadline` past their budget.
    requests_deadline: Counter,
    /// Acceptor errors (transient skips and unexpected failures alike).
    accept_errors: AtomicU64,
    /// Traffic-trace recorder ([`ServerConfig::record_path`]); feeds
    /// the capture file and the `TRACE` wire verb.
    recorder: Option<Arc<TraceRecorder>>,
    workers: Box<[WorkerShared]>,
}

impl Control {
    fn initiate_shutdown(&self) {
        // Store the flag, then wake every worker. The eventfd behind
        // `notify` stays readable until the worker drains it inside
        // `wait`, so a worker between its flag check and `epoll_wait`
        // still observes the wakeup — no lost-wakeup window.
        self.shutdown.store(true, Ordering::SeqCst);
        for worker in self.workers.iter() {
            let _ = worker.poller.notify();
        }
    }

    fn total_served(&self) -> u64 {
        self.served.iter().map(|c| c.get()).sum()
    }

    /// Merged server-side latency report across worker shards.
    fn latency_report(&self) -> LatencyReport {
        merge_report(self.latency.iter().map(|h| h.as_ref()))
    }
}

/// Register the gauges and derived counters that read `Control`'s own
/// atomics (connection gauges, event-loop counters, cache stats). The
/// closures hold a `Weak` so the registry living inside `Control` does
/// not keep it alive in a reference cycle.
fn register_control_metrics(metrics: &MetricsRegistry, control: &Arc<Control>) {
    let c = Arc::downgrade(control);
    metrics.gauge_fn(
        "sling_server_open_connections",
        "client connections currently open",
        move || {
            c.upgrade()
                .map(|c| c.open_connections.load(Ordering::Relaxed) as f64)
                .unwrap_or(0.0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.gauge_fn(
        "sling_server_active_connections",
        "connections on worker ready queues (not idle)",
        move || {
            c.upgrade()
                .map(|c| {
                    c.workers
                        .iter()
                        .map(|w| w.active.load(Ordering::Relaxed))
                        .sum::<u64>() as f64
                })
                .unwrap_or(0.0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_server_rejected_connections_total",
        "connections refused with ERR busy by the connection cap",
        move || {
            c.upgrade()
                .map(|c| c.rejected_connections.load(Ordering::Relaxed))
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_accept_errors_total",
        "acceptor errors (transient and unexpected accept failures)",
        move || {
            c.upgrade()
                .map(|c| c.accept_errors.load(Ordering::Relaxed))
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_evloop_wakeups_total",
        "epoll_wait returns across workers (including idle ticks)",
        move || {
            c.upgrade()
                .map(|c| {
                    c.workers
                        .iter()
                        .map(|w| w.wakeups.load(Ordering::Relaxed))
                        .sum()
                })
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_evloop_turns_total",
        "readiness turns dispatched to connections across workers",
        move || {
            c.upgrade()
                .map(|c| {
                    c.workers
                        .iter()
                        .map(|w| w.turns.load(Ordering::Relaxed))
                        .sum()
                })
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_cache_hits_total",
        "shared result-cache hits",
        move || {
            c.upgrade()
                .and_then(|c| c.cache.as_ref().map(|cache| cache.stats().hits))
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_cache_misses_total",
        "shared result-cache misses",
        move || {
            c.upgrade()
                .and_then(|c| c.cache.as_ref().map(|cache| cache.stats().misses))
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_cache_evictions_total",
        "shared result-cache evictions",
        move || {
            c.upgrade()
                .and_then(|c| c.cache.as_ref().map(|cache| cache.stats().evictions))
                .unwrap_or(0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.gauge_fn(
        "sling_cache_entries",
        "entries resident in the shared result cache",
        move || {
            c.upgrade()
                .and_then(|c| c.cache.as_ref().map(|cache| cache.len() as f64))
                .unwrap_or(0.0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.gauge_fn(
        "sling_cache_capacity",
        "configured capacity of the shared result cache",
        move || {
            c.upgrade()
                .and_then(|c| c.cache.as_ref().map(|cache| cache.capacity() as f64))
                .unwrap_or(0.0)
        },
    );
    let c = Arc::downgrade(control);
    metrics.counter_fn(
        "sling_cache_admission_rejects_total",
        "result-cache inserts rejected by TinyLFU admission",
        move || {
            c.upgrade()
                .and_then(|c| c.cache.as_ref().map(|cache| cache.admission_rejects()))
                .unwrap_or(0)
        },
    );
}

/// Final accounting returned by [`ServerHandle::join`] /
/// [`ServerHandle::shutdown`].
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Queries served per worker (pair/source/top-k count 1, batches
    /// count their pair count).
    pub served_per_worker: Vec<u64>,
    /// Result-cache counters, when a cache was configured.
    pub cache: Option<CacheStats>,
    /// Server-side query-latency percentiles (merged across workers).
    pub latency: LatencyReport,
    /// Index generation being served at exit, swap count, and the
    /// last-swap timestamp.
    pub generation: GenerationInfo,
    /// Client connections still open at exit (0 after a full drain).
    pub open_connections: u64,
    /// Connections refused with `ERR busy` by
    /// [`ServerConfig::max_connections`].
    pub rejected_connections: u64,
    /// Per-worker event-loop wakeups (`epoll_wait` returns, including
    /// idle ticks).
    pub evloop_wakeups_per_worker: Vec<u64>,
    /// Per-worker readiness turns dispatched to connections.
    pub evloop_turns_per_worker: Vec<u64>,
}

impl ServerReport {
    /// Total queries served across all workers.
    pub fn total_served(&self) -> u64 {
        self.served_per_worker.iter().sum()
    }
}

/// Handle to a running server: its address, a shutdown lever, and the
/// worker/acceptor threads to join.
pub struct ServerHandle {
    addr: Option<SocketAddr>,
    control: Arc<Control>,
    threads: Vec<JoinHandle<()>>,
    /// Type-erased view of the reloadable slot's swap state (the slot
    /// itself is generic over the backend; the handle is not).
    generation_info: Arc<dyn Fn() -> GenerationInfo + Send + Sync>,
}

impl ServerHandle {
    /// Bound TCP address (`None` for Unix-socket servers) — what clients
    /// of a `127.0.0.1:0` test server connect to.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Swap-state snapshot of the serving generation (live; callable
    /// while the server runs).
    pub fn generation_info(&self) -> GenerationInfo {
        (self.generation_info)()
    }

    /// The server's metrics registry — render Prometheus text or JSON
    /// snapshots from another thread while the server runs (what the
    /// CLI's `--metrics-snapshot` exporter does).
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.control.metrics)
    }

    /// Block until the server exits (a client sends `SHUTDOWN`), then
    /// report final statistics.
    pub fn join(mut self) -> ServerReport {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        ServerReport {
            served_per_worker: self.control.served.iter().map(|c| c.get()).collect(),
            cache: self.control.cache.as_ref().map(|c| c.stats()),
            latency: self.control.latency_report(),
            generation: (self.generation_info)(),
            open_connections: self.control.open_connections.load(Ordering::Relaxed),
            rejected_connections: self.control.rejected_connections.load(Ordering::Relaxed),
            evloop_wakeups_per_worker: self
                .control
                .workers
                .iter()
                .map(|w| w.wakeups.load(Ordering::Relaxed))
                .collect(),
            evloop_turns_per_worker: self
                .control
                .workers
                .iter()
                .map(|w| w.turns.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Initiate shutdown from the owning process (equivalent to a client
    /// `SHUTDOWN`) and join.
    pub fn shutdown(self) -> ServerReport {
        self.control.initiate_shutdown();
        self.join()
    }
}

/// Start serving a pinned `engine` over `listener` (no hot reload; the
/// `RELOAD` verb reports `swapped=false`). See [`serve_reloadable`].
pub fn serve<S>(
    engine: Arc<SharedEngine<S>>,
    graph: Arc<DiGraph>,
    listener: Listener,
    config: ServerConfig,
) -> io::Result<ServerHandle>
where
    S: HpStore + Send + Sync + 'static,
{
    serve_reloadable(
        Arc::new(ReloadableEngine::pinned(engine, graph)),
        listener,
        config,
    )
}

/// Start serving the generation held by `reloadable` over `listener`.
///
/// Spawns `config.workers` worker threads (thread-per-core by default),
/// each owning its query workspaces, plus one acceptor thread — and,
/// when the slot has a generation opener and
/// [`ServerConfig::watch_interval_ms`] is nonzero, a watcher thread that
/// periodically checks for a newer promoted generation and hot-swaps it
/// under live traffic. The engine and graph are shared immutably; the
/// only shared mutable state is the connection queue, the sharded result
/// cache, and the swap slot. Returns immediately with a
/// [`ServerHandle`].
pub fn serve_reloadable<S>(
    reloadable: Arc<ReloadableEngine<S>>,
    listener: Listener,
    config: ServerConfig,
) -> io::Result<ServerHandle>
where
    S: HpStore + Send + Sync + 'static,
{
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.workers
    };
    let cache = (config.cache_capacity > 0).then(|| {
        let shards = if config.cache_shards == 0 {
            ShardedResultCache::DEFAULT_SHARDS
        } else {
            config.cache_shards
        };
        ShardedResultCache::with_admission(config.cache_capacity, shards, config.cache_admission)
    });
    let worker_shared = (0..workers)
        .map(|_| {
            Ok(WorkerShared {
                poller: Poller::new()?,
                inbox: Mutex::new(Vec::new()),
                active: AtomicU64::new(0),
                wakeups: AtomicU64::new(0),
                turns: AtomicU64::new(0),
            })
        })
        .collect::<io::Result<Box<[WorkerShared]>>>()?;
    let metrics = Arc::new(MetricsRegistry::new());
    register_process_metrics(&metrics);
    let slowlog = Arc::new(SlowQueryLog::new(
        Duration::from_micros(config.slow_query_us),
        SLOW_LOG_CAPACITY,
    ));
    {
        let sl = Arc::clone(&slowlog);
        metrics.counter_fn(
            "sling_slow_queries_total",
            "queries at or above the slow-query threshold",
            move || sl.admitted(),
        );
    }
    let served = (0..workers)
        .map(|_| {
            metrics.counter(
                "sling_server_requests_total",
                "queries served (batch pairs counted individually)",
            )
        })
        .collect();
    let latency = (0..workers)
        .map(|_| {
            metrics.histogram(
                "sling_server_request_ns",
                "server-side request handling latency",
            )
        })
        .collect();
    let stages = (0..workers)
        .map(|_| StageShards {
            entry_fetch: metrics.histogram(
                "sling_query_stage_entry_fetch_ns",
                "per-query backend entry-run resolution time",
            ),
            restore: metrics.histogram(
                "sling_query_stage_restore_ns",
                "per-query restore (space-reduction recomputation) time",
            ),
            merge: metrics.histogram(
                "sling_query_stage_merge_ns",
                "per-query intersect-merge time",
            ),
            propagate: metrics.histogram(
                "sling_query_stage_propagate_ns",
                "per-query frontier propagation time",
            ),
            encode: metrics.histogram(
                "sling_request_phase_encode_ns",
                "score-list response encoding time (SOURCE, TOPK, BATCH)",
            ),
        })
        .collect();
    let requests_shed = metrics.counter(
        "sling_requests_shed_total",
        "query verbs answered ERR overloaded by the shed triggers",
    );
    let requests_deadline = metrics.counter(
        "sling_requests_deadline_total",
        "query verbs answered ERR deadline past their budget",
    );
    let recorder = config.record_path.as_ref().map(|_| {
        Arc::new(TraceRecorder::new(
            unix_ms_now() * 1000,
            config.record_sample,
        ))
    });
    let control = Arc::new(Control {
        shutdown: AtomicBool::new(false),
        metrics: Arc::clone(&metrics),
        slowlog,
        served,
        latency,
        stages,
        cache,
        max_connections: config.max_connections,
        open_connections: AtomicU64::new(0),
        rejected_connections: AtomicU64::new(0),
        deadline: Duration::from_micros(config.deadline_us),
        shed_queue_depth: config.shed_queue_depth,
        shed_pending_bytes: config.shed_pending_bytes,
        rollback_error_threshold: config.rollback_error_threshold,
        requests_shed,
        requests_deadline,
        accept_errors: AtomicU64::new(0),
        recorder: recorder.clone(),
        workers: worker_shared,
    });
    register_control_metrics(&metrics, &control);
    {
        let r = Arc::downgrade(&reloadable);
        metrics.gauge_fn(
            "sling_index_epoch",
            "swap epoch of the serving generation",
            move || r.upgrade().map(|r| r.epoch() as f64).unwrap_or(0.0),
        );
        let r = Arc::downgrade(&reloadable);
        metrics.counter_fn(
            "sling_index_swaps_total",
            "completed generation swaps",
            move || {
                r.upgrade()
                    .map(|r| r.swaps.load(Ordering::Relaxed))
                    .unwrap_or(0)
            },
        );
        let r = Arc::downgrade(&reloadable);
        metrics.counter_fn(
            "sling_index_reload_failures_total",
            "reload attempts whose opener failed",
            move || {
                r.upgrade()
                    .map(|r| r.reload_failures.load(Ordering::Relaxed))
                    .unwrap_or(0)
            },
        );
        let r = Arc::downgrade(&reloadable);
        metrics.counter_fn(
            "sling_rollbacks_total",
            "corrupt-generation rollbacks completed",
            move || {
                r.upgrade()
                    .map(|r| r.rollbacks.load(Ordering::Relaxed))
                    .unwrap_or(0)
            },
        );
    }
    let addr = listener.local_addr();
    let mut threads = Vec::with_capacity(workers + 2);
    for id in 0..workers {
        let control = Arc::clone(&control);
        let reloadable = Arc::clone(&reloadable);
        threads.push(
            std::thread::Builder::new()
                .name(format!("sling-worker-{id}"))
                .spawn(move || worker_loop(&reloadable, &control, id))?,
        );
    }
    let acceptor_control = Arc::clone(&control);
    threads.push(
        std::thread::Builder::new()
            .name("sling-acceptor".to_string())
            .spawn(move || accept_loop(listener, &acceptor_control))?,
    );
    if let (Some(rec), Some(path)) = (recorder, config.record_path.clone()) {
        let c = Arc::clone(&control);
        threads.push(
            std::thread::Builder::new()
                .name("sling-recorder".to_string())
                .spawn(move || {
                    writer_loop(&rec, &path, || c.shutdown.load(Ordering::SeqCst));
                })?,
        );
    }
    if config.watch_interval_ms > 0 && reloadable.opener.is_some() {
        let control = Arc::clone(&control);
        let watched = Arc::clone(&reloadable);
        let interval = Duration::from_millis(config.watch_interval_ms);
        threads.push(
            std::thread::Builder::new()
                .name("sling-watcher".to_string())
                .spawn(move || watch_loop(&watched, &control, interval))?,
        );
    }
    let info_source = Arc::clone(&reloadable);
    Ok(ServerHandle {
        addr,
        control,
        threads,
        generation_info: Arc::new(move || info_source.info()),
    })
}

/// Periodically re-check the promoted generation and hot-swap on change.
/// Sleeps in `SHUTDOWN_POLL` slices so `SHUTDOWN` is observed promptly; a
/// failing reload (a promotion racing its own publish, transient IO) is
/// retried at the next tick rather than taking the server down — the
/// old generation keeps serving, which is the whole point.
fn watch_loop<S: HpStore>(reloadable: &ReloadableEngine<S>, control: &Control, interval: Duration) {
    let mut since_check = Duration::ZERO;
    let mut failing = false;
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let slice = SHUTDOWN_POLL.min(interval);
        std::thread::sleep(slice);
        since_check += slice;
        if since_check >= interval {
            since_check = Duration::ZERO;
            match reloadable.try_reload(control.cache.as_ref()) {
                Ok(_) => failing = false,
                Err(e) => {
                    // One stderr line per failure streak (not per tick):
                    // a corrupt promotion under --watch must be visible
                    // somewhere, and STATS carries the running count.
                    if !failing {
                        eprintln!("sling-server: generation reload failed: {e}");
                    }
                    failing = true;
                }
            }
        }
    }
}

/// Accept connections until shutdown; non-blocking with a short poll so
/// the flag is observed promptly, since `accept(2)` has no portable
/// cancellation.
///
/// Accepted sockets are switched to nonblocking mode and distributed
/// round-robin across the worker inboxes; each hand-off is followed by a
/// `notify` so the target worker adopts the connection on its next
/// wakeup. Past [`ServerConfig::max_connections`] the acceptor answers
/// `ERR busy` and closes instead (the acceptor is the only incrementer
/// of the open-connection gauge, so the cap cannot be raced past).
///
/// Error policy: every accept failure — transient per-connection skips
/// (aborted handshakes, resets) and unexpected errors alike — counts
/// into `sling_accept_errors_total`, so a reset storm or fd exhaustion
/// is visible on a dashboard instead of silently eaten. Unexpected
/// errors (e.g. `EMFILE`) are retried under a jittered exponential
/// backoff — doubling from [`ACCEPT_POLL`] up to ~128× with a
/// deterministic xorshift jitter, so a fleet of servers hitting the
/// same fault does not retry in lockstep. If the listener stays broken
/// for [`MAX_ACCEPT_ERRORS`] consecutive attempts, the acceptor
/// initiates a full shutdown — a server nobody can connect to must
/// terminate, not linger as a zombie that `SHUTDOWN` can no longer
/// reach.
fn accept_loop(listener: Listener, control: &Control) {
    let _ = match &listener {
        Listener::Tcp(l) => l.set_nonblocking(true),
        Listener::Unix(l, _) => l.set_nonblocking(true),
    };
    let mut consecutive_errors = 0u32;
    let mut next_worker = 0usize;
    // Deterministic jitter stream for the error backoff (seeded from
    // the listener fd so two servers in one process still diverge).
    let mut jitter_rng: u64 = 0x9e37_79b9 ^ {
        let fd = match &listener {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        };
        fd as u64
    };
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let accepted: io::Result<Stream> = match faults::check_io(faults::point::SERVER_ACCEPT) {
            // An injected accept fault leaves the pending connection in
            // the backlog — a later retry accepts it, like a real
            // transient failure.
            Err(e) => Err(e),
            Ok(_) => match &listener {
                Listener::Tcp(l) => l.accept().map(|(stream, _)| {
                    let _ = stream.set_nodelay(true);
                    Stream::Tcp(stream)
                }),
                Listener::Unix(l, _) => l.accept().map(|(stream, _)| Stream::Unix(stream)),
            },
        };
        match accepted {
            Ok(mut stream) => {
                consecutive_errors = 0;
                if control.max_connections > 0
                    && control.open_connections.load(Ordering::Relaxed)
                        >= control.max_connections as u64
                {
                    // Over the cap: say why, then close. The socket is
                    // still blocking and its send buffer empty, so this
                    // cannot stall the acceptor.
                    control.rejected_connections.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.write_all(b"ERR busy\n");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                control.open_connections.fetch_add(1, Ordering::Relaxed);
                let shared = &control.workers[next_worker];
                next_worker = (next_worker + 1) % control.workers.len();
                shared
                    .inbox
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(stream);
                let _ = shared.poller.notify();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                consecutive_errors = 0;
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                ) =>
            {
                // Transient per-connection failure: skip the connection
                // but make the event observable.
                control.accept_errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                control.accept_errors.fetch_add(1, Ordering::Relaxed);
                consecutive_errors += 1;
                if consecutive_errors >= MAX_ACCEPT_ERRORS {
                    control.initiate_shutdown();
                    break;
                }
                std::thread::sleep(accept_backoff(consecutive_errors, &mut jitter_rng));
            }
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

/// Jittered exponential backoff for acceptor errors: [`ACCEPT_POLL`]
/// doubled per consecutive error (capped at 128×, ~256ms), multiplied
/// by a uniform factor in [0.5, 1.5) from the xorshift stream.
fn accept_backoff(consecutive_errors: u32, rng: &mut u64) -> Duration {
    let mut x = *rng | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    let scale = 1u32 << consecutive_errors.min(7);
    let base_us = ACCEPT_POLL.as_micros() as u64 * scale as u64;
    // Uniform jitter in [0.5, 1.5): half to one-and-a-half times base.
    let jittered = base_us / 2 + (x % base_us.max(1));
    Duration::from_micros(jittered)
}

/// Per-worker reusable buffers: workspaces warm up once, then the hot
/// path is allocation-free for pair queries. The worker also caches the
/// generation `Arc` it is serving, refreshed with one atomic epoch
/// compare per request ([`WorkerCtx::generation`]).
struct WorkerCtx<S: HpStore> {
    ws: QueryWorkspace,
    ss: SingleSourceWorkspace,
    scores: Vec<f64>,
    batch: Vec<f64>,
    response: Vec<u8>,
    /// The generation currently being served, held only while the
    /// worker is actively serving (`None` while parked on the queue, so
    /// an idle worker never pins a retired generation's engine in
    /// memory across a swap).
    gen: Option<Arc<EngineGeneration<S>>>,
}

impl<S: HpStore> WorkerCtx<S> {
    /// The serving generation, refetched from the swap slot only when
    /// the epoch moved — one `Acquire` load on the hot path. In-flight
    /// requests keep whatever generation they started with; this is
    /// where the *next* request picks up a promoted one.
    fn generation(&mut self, reloadable: &ReloadableEngine<S>) -> Arc<EngineGeneration<S>> {
        let epoch = reloadable.epoch();
        match &self.gen {
            Some(gen) if gen.epoch == epoch => Arc::clone(gen),
            _ => {
                let gen = reloadable.current();
                self.gen = Some(Arc::clone(&gen));
                gen
            }
        }
    }
}

/// The readiness loop: one epoll instance, a slab of connections, and a
/// round-robin ready queue.
///
/// Each pass waits for events (blocking up to [`SHUTDOWN_POLL`] when
/// idle, non-blocking while the ready queue holds work), adopts newly
/// accepted connections from the inbox, marks event keys ready, and
/// dispatches one [`serve_turn`] to every ready connection. A
/// connection with more framed requests after its turn goes to the back
/// of the queue ([`YIELD_AFTER`] fairness); one that consumed its
/// readiness re-arms its oneshot epoll interest and parks costing
/// nothing until the next event.
fn worker_loop<S: HpStore>(reloadable: &ReloadableEngine<S>, control: &Control, worker: usize) {
    let shared = &control.workers[worker];
    let mut ctx = WorkerCtx {
        ws: QueryWorkspace::new(),
        ss: SingleSourceWorkspace::new(),
        scores: Vec::new(),
        batch: Vec::new(),
        response: Vec::new(),
        gen: None,
    };
    // Serving always traces: the stage histograms and slow-query log
    // need per-request breakdowns, and the cost is a handful of clock
    // reads per query.
    ctx.ws.set_trace_enabled(true);
    ctx.ss.set_trace_enabled(true);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut events = Events::new();
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if ready.is_empty() {
            // Going idle: release the generation (a parked worker must
            // not keep a retired engine — potentially the whole previous
            // index — alive across a swap) and hub-sized query scratch.
            // Capacity checks only, so idle ticks stay cheap.
            ctx.gen = None;
            ctx.ws.trim_excess();
            ctx.ss.trim_excess();
        }
        let timeout = if ready.is_empty() {
            SHUTDOWN_POLL
        } else {
            Duration::ZERO
        };
        if shared.poller.wait(&mut events, Some(timeout)).is_err() {
            // epoll_wait failing (beyond EINTR, which the stub absorbs)
            // means a programming error; pace the retry so a persistent
            // failure cannot busy-spin the core.
            std::thread::sleep(ACCEPT_POLL);
            continue;
        }
        shared.wakeups.fetch_add(1, Ordering::Relaxed);
        adopt_inbox(control, shared, &mut conns, &mut free);
        for ev in events.iter() {
            if let Some(Some(conn)) = conns.get_mut(ev.key) {
                if !conn.in_ready {
                    conn.in_ready = true;
                    ready.push_back(ev.key);
                }
            }
        }
        shared.active.store(ready.len() as u64, Ordering::Relaxed);
        // One dispatch round over the queue as it stands now; re-queued
        // connections run again only after the next event poll, keeping
        // accept hand-offs and fresh events interleaved with busy
        // pipeliners.
        for _ in 0..ready.len() {
            let Some(key) = ready.pop_front() else {
                break;
            };
            let Some(mut conn) = conns[key].take() else {
                continue;
            };
            conn.in_ready = false;
            shared.turns.fetch_add(1, Ordering::Relaxed);
            match serve_turn(reloadable, control, worker, &mut conn, &mut ctx) {
                Turn::Close => {
                    close_conn(control, shared, conn);
                    free.push(key);
                }
                Turn::MoreWork => {
                    conn.in_ready = true;
                    conns[key] = Some(conn);
                    ready.push_back(key);
                }
                Turn::Wait => {
                    let interest = conn.interest(key);
                    if shared.poller.modify(&conn.stream, interest).is_err() {
                        close_conn(control, shared, conn);
                        free.push(key);
                    } else {
                        conns[key] = Some(conn);
                    }
                }
            }
            if control.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        shared.active.store(ready.len() as u64, Ordering::Relaxed);
    }
    drain_worker(reloadable, control, shared, worker, &mut conns, &mut ctx);
    shared.active.store(0, Ordering::Relaxed);
}

/// Adopt connections the acceptor handed over: register each with this
/// worker's poller under a slab key, armed for read readiness.
fn adopt_inbox(
    control: &Control,
    shared: &WorkerShared,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
) {
    for stream in std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(|e| e.into_inner())) {
        let key = free.pop().unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        let conn = Conn::new(stream);
        match shared.poller.add(&conn.stream, Event::readable(key)) {
            Ok(()) => conns[key] = Some(conn),
            Err(_) => {
                // Registration failed (fd pressure): drop the socket.
                free.push(key);
                control.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Deregister (before the fd closes, so a recycled fd cannot deliver a
/// stale key), account, and drop one connection.
fn close_conn(control: &Control, shared: &WorkerShared, conn: Conn) {
    let _ = shared.poller.delete(&conn.stream);
    control.open_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Shutdown drain: keep serving connections that still owe work —
/// buffered requests or unflushed responses — and close the rest, for at
/// most [`DRAIN_GRACE`]. Mirrors the old blocking loop's semantics:
/// in-flight requests are answered, idle connections are dropped.
fn drain_worker<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    shared: &WorkerShared,
    worker: usize,
    conns: &mut [Option<Conn>],
    ctx: &mut WorkerCtx<S>,
) {
    let deadline = Instant::now() + DRAIN_GRACE;
    let mut events = Events::new();
    loop {
        // Hand-offs that raced the shutdown flag: never served, just
        // un-account and drop them.
        for stream in std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(|e| e.into_inner())) {
            drop(stream);
            control.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
        let mut live = 0usize;
        for slot in conns.iter_mut() {
            let Some(mut conn) = slot.take() else {
                continue;
            };
            match serve_turn(reloadable, control, worker, &mut conn, ctx) {
                Turn::Close => close_conn(control, shared, conn),
                Turn::MoreWork => {
                    live += 1;
                    *slot = Some(conn);
                }
                Turn::Wait => {
                    if conn.pending_out() == 0 {
                        // Nothing owed: an idle (or mid-line) connection
                        // is dropped during drain.
                        close_conn(control, shared, conn);
                    } else {
                        live += 1;
                        *slot = Some(conn);
                    }
                }
            }
        }
        if live == 0 || Instant::now() >= deadline {
            break;
        }
        let _ = shared.poller.wait(&mut events, Some(DRAIN_POLL));
    }
    for slot in conns.iter_mut() {
        if let Some(conn) = slot.take() {
            close_conn(control, shared, conn);
        }
    }
    for stream in std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(|e| e.into_inner())) {
        drop(stream);
        control.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the request dispatcher asks the connection loop to do after a
/// response.
enum Action {
    Continue,
    Close,
    Shutdown,
}

/// Outcome of one readiness turn on a connection.
enum Turn {
    /// Close and drop the connection (EOF drained, QUIT/SHUTDOWN
    /// flushed, or broken socket).
    Close,
    /// More complete requests are already framed: go to the back of the
    /// ready queue, no epoll round-trip needed.
    MoreWork,
    /// Readiness consumed: re-arm interest and park until the next
    /// event.
    Wait,
}

/// Position of the first newline, scanning only the unparsed suffix.
fn find_newline(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

/// Write as much pending response data as the socket accepts; only a
/// genuinely broken socket is an error (`WouldBlock` leaves the rest
/// for the next write-readiness event).
fn flush_pending(conn: &mut Conn) -> io::Result<()> {
    // Fault point: one check per flush pass that has bytes to write.
    // `Error` breaks the socket (connection closes, client reconnects);
    // `Delay` models a write stall; `ShortRead` caps this pass to one
    // byte, exercising the partial-write resume path.
    let write_fault = if conn.pending_out() == 0 {
        None
    } else {
        match faults::check(faults::point::SERVER_WRITE) {
            Some(FaultAction::Error) => {
                return Err(faults::injected_error(faults::point::SERVER_WRITE))
            }
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            other => other,
        }
    };
    while conn.outpos < conn.outbuf.len() {
        let limit = if write_fault == Some(FaultAction::ShortRead) {
            (conn.outpos + 1).min(conn.outbuf.len())
        } else {
            conn.outbuf.len()
        };
        match conn.stream.write(&conn.outbuf[conn.outpos..limit]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.outpos += n;
                if write_fault == Some(FaultAction::ShortRead) {
                    break; // leave the rest for the next readiness turn
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
        // A burst (large BATCH fan-out, backpressured peer) must not pin
        // its high-water allocation on a long-lived connection forever.
        if conn.outbuf.capacity() > 2 * OUT_HIGH_WATER {
            conn.outbuf.shrink_to(READ_CHUNK);
        }
    } else if conn.outpos >= READ_CHUNK {
        // Partially flushed: drop the sent prefix so repeated partial
        // writes cannot creep the buffer.
        conn.outbuf.drain(..conn.outpos);
        conn.outpos = 0;
    }
    Ok(())
}

/// One readiness turn on one connection: flush what the last turn left
/// behind, drain the socket into the frame buffer, serve every complete
/// request line framed so far (up to [`YIELD_AFTER`]), and flush all of
/// those responses with a single coalesced `write`.
///
/// Framing is byte-exact regardless of fragmentation: a request
/// delivered byte-at-a-time accumulates across turns and parses
/// identically to one delivered whole. An over-long line (>
/// [`MAX_LINE_BYTES`]) answers `ERR request line too long` once and
/// switches to discard mode until its terminating newline, so the
/// *next* request on the connection parses cleanly — one bad line never
/// desyncs the stream or tears down the session.
fn serve_turn<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    worker: usize,
    conn: &mut Conn,
    ctx: &mut WorkerCtx<S>,
) -> Turn {
    if flush_pending(conn).is_err() {
        return Turn::Close;
    }
    // Read first — unless backpressured: a peer that owes us a drain
    // gets no more requests buffered on its behalf.
    if conn.pending_out() < OUT_HIGH_WATER && !conn.eof {
        // Fault point: one check per turn. `Error` breaks the socket
        // (the client sees a reset and reconnects), `Delay` models a
        // stalled read, `ShortRead` truncates this turn's first read to
        // one byte (framing must resume byte-exactly).
        let read_fault = match faults::check(faults::point::SERVER_READ) {
            Some(FaultAction::Error) => return Turn::Close,
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            other => other,
        };
        let mut turn_read = 0usize;
        let mut chunk = [0u8; READ_CHUNK];
        while turn_read < TURN_READ_CAP {
            let window = if read_fault == Some(FaultAction::ShortRead) && turn_read == 0 {
                1
            } else {
                READ_CHUNK
            };
            match conn.stream.read(&mut chunk[..window]) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.read_at.is_none() {
                        conn.read_at = Some(Instant::now());
                    }
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    turn_read += n;
                    if n < window {
                        break; // drained the socket
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Turn::Close,
            }
        }
    }
    // Serve the complete lines framed so far.
    let mut consumed = 0usize;
    let mut served_this_turn = 0u32;
    let mut shutdown_now = false;
    loop {
        if conn.discarding {
            // Skip the tail of an over-long line; its error response was
            // queued when discard mode started.
            match find_newline(&conn.inbuf[consumed..]) {
                Some(nl) => {
                    consumed += nl + 1;
                    conn.discarding = false;
                }
                None => {
                    consumed = conn.inbuf.len();
                    break;
                }
            }
            continue;
        }
        if served_this_turn >= YIELD_AFTER
            || conn.close_after_flush
            || conn.pending_out() >= OUT_HIGH_WATER
        {
            break;
        }
        let rest_len = conn.inbuf.len() - consumed;
        let Some(nl) = find_newline(&conn.inbuf[consumed..]) else {
            if rest_len > MAX_LINE_BYTES {
                // The line already exceeds the cap with no newline in
                // sight: answer once, then discard until it ends.
                conn.outbuf
                    .extend_from_slice(b"ERR request line too long\n");
                conn.discarding = true;
                consumed = conn.inbuf.len();
            }
            break;
        };
        ctx.response.clear();
        let action = if nl > MAX_LINE_BYTES {
            ctx.response.extend_from_slice(b"ERR request line too long");
            Action::Continue
        } else {
            let line = &conn.inbuf[consumed..consumed + nl];
            match std::str::from_utf8(line) {
                Err(_) => {
                    ctx.response
                        .extend_from_slice(b"ERR request is not valid UTF-8");
                    Action::Continue
                }
                Ok(text) => match Request::parse(text.trim_end_matches(['\n', '\r'])) {
                    Err(msg) => {
                        let _ = write!(ctx.response, "ERR {msg}");
                        Action::Continue
                    }
                    Ok(req) => match admission_error(control, worker, conn, &req) {
                        Some(msg) => {
                            record_admission_outcome(reloadable, control, &req, msg);
                            ctx.response.extend_from_slice(msg.as_bytes());
                            Action::Continue
                        }
                        None => handle_request(reloadable, control, worker, req, ctx),
                    },
                },
            }
        };
        consumed += nl + 1;
        served_this_turn += 1;
        // Coalesce: every response of this turn accumulates here and is
        // flushed below with one write.
        conn.outbuf.extend_from_slice(&ctx.response);
        conn.outbuf.push(b'\n');
        match action {
            Action::Continue => {}
            Action::Close => conn.close_after_flush = true,
            Action::Shutdown => {
                conn.close_after_flush = true;
                shutdown_now = true;
            }
        }
    }
    if consumed > 0 {
        conn.inbuf.drain(..consumed);
    }
    if conn.inbuf.is_empty() {
        // Buffer fully consumed: the next bytes to arrive start a fresh
        // deadline budget.
        conn.read_at = None;
        if conn.inbuf.capacity() > TURN_READ_CAP {
            conn.inbuf.shrink_to(READ_CHUNK);
        }
    }
    if shutdown_now {
        control.initiate_shutdown();
    }
    if flush_pending(conn).is_err() {
        return Turn::Close;
    }
    let pending = conn.pending_out();
    if pending == 0 && (conn.close_after_flush || conn.eof) {
        return Turn::Close;
    }
    let has_line = !conn.discarding && find_newline(&conn.inbuf).is_some();
    if has_line && !conn.close_after_flush && pending < OUT_HIGH_WATER {
        return Turn::MoreWork;
    }
    Turn::Wait
}

/// Canonicalize and score one symmetric pair, through the shared cache
/// when one is configured (the cached path prefetches internally, on
/// misses only — a hit never touches the store, so advising it would
/// waste syscalls on the hottest path). Both the `PAIR` and `BATCH`
/// handlers route here so the two cannot diverge. Cache inserts are
/// tagged with the generation's epoch (captured before computing), so a
/// swap landing mid-query can never get a retired-generation score
/// admitted as fresh.
fn score_pair<S: HpStore>(
    gen: &EngineGeneration<S>,
    control: &Control,
    ws: &mut QueryWorkspace,
    u: u32,
    v: u32,
) -> Result<f64, SlingError> {
    let (a, b) = (NodeId(u.min(v)), NodeId(u.max(v)));
    match &control.cache {
        Some(cache) => gen
            .engine
            .single_pair_cached_tagged(&gen.graph, ws, cache, a, b, gen.epoch),
        None => {
            gen.engine.store().prefetch(a);
            if a != b {
                gen.engine.store().prefetch(b);
            }
            gen.engine.single_pair_with(&gen.graph, ws, a, b)
        }
    }
}

/// `true` for the verbs the deadline/shed admission gate applies to.
/// Admin verbs (PING/STATS/METRICS/SLOWLOG/RELOAD/QUIT/SHUTDOWN) always
/// pass: an operator must be able to inspect — and stop — an overloaded
/// server.
fn is_query_verb(req: &Request) -> bool {
    matches!(
        req,
        Request::Pair { .. }
            | Request::Source { .. }
            | Request::TopK { .. }
            | Request::Batch { .. }
    )
}

/// Fast-fail admission control, checked before a query verb touches the
/// engine. Shedding (`ERR overloaded`) fires when the worker's ready
/// queue or this connection's pending bytes cross their high-water
/// marks; the deadline (`ERR deadline`) fires when the request's bytes
/// have already waited longer than the budget. Both answers are
/// retryable by contract (see the crate-level error taxonomy) — the
/// client backs off and re-sends, which is cheaper for everyone than
/// queue collapse.
fn admission_error(
    control: &Control,
    worker: usize,
    conn: &Conn,
    req: &Request,
) -> Option<&'static str> {
    if !is_query_verb(req) {
        return None;
    }
    let depth = control.workers[worker].active.load(Ordering::Relaxed) as usize;
    let pending = conn.pending_out() + conn.inbuf.len();
    if (control.shed_queue_depth > 0 && depth >= control.shed_queue_depth)
        || (control.shed_pending_bytes > 0 && pending >= control.shed_pending_bytes)
    {
        control.requests_shed.inc();
        return Some("ERR overloaded");
    }
    if !control.deadline.is_zero() {
        if let Some(at) = conn.read_at {
            if at.elapsed() > control.deadline {
                control.requests_deadline.inc();
                return Some("ERR deadline");
            }
        }
    }
    None
}

/// The trace verb for the `&'static str` labels `observe_query` and the
/// slow-query log already carry.
fn trace_verb(verb: &'static str) -> TraceVerb {
    match verb {
        "SOURCE" => TraceVerb::Source,
        "TOPK" => TraceVerb::TopK,
        "BATCH" => TraceVerb::Batch,
        _ => TraceVerb::Pair,
    }
}

/// Record requests rejected by the admission gate into the traffic
/// trace (a batch records one line per pair, mirroring served batches),
/// so a capture shows *offered* load, not just served load — the whole
/// point of replaying an overload incident.
fn record_admission_outcome<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    req: &Request,
    answer: &str,
) {
    let Some(rec) = &control.recorder else { return };
    let outcome = if answer == "ERR deadline" {
        TraceOutcome::Deadline
    } else {
        TraceOutcome::Shed
    };
    let epoch = reloadable.epoch();
    match req {
        Request::Pair { u, v } => rec.push(
            TraceVerb::Pair,
            TraceKey::Pair(*u, *v),
            outcome,
            Duration::ZERO,
            epoch,
        ),
        Request::Source { u } => rec.push(
            TraceVerb::Source,
            TraceKey::Node(*u),
            outcome,
            Duration::ZERO,
            epoch,
        ),
        Request::TopK { u, k } => rec.push(
            TraceVerb::TopK,
            TraceKey::NodeK(*u, (*k).min(u32::MAX as usize) as u32),
            outcome,
            Duration::ZERO,
            epoch,
        ),
        Request::Batch { pairs } => {
            for &(u, v) in pairs {
                rec.push(
                    TraceVerb::Batch,
                    TraceKey::Pair(u, v),
                    outcome,
                    Duration::ZERO,
                    epoch,
                );
            }
        }
        _ => {}
    }
}

/// Answer a failed query and charge storage-layer errors
/// (`CorruptIndex`/IO — the signatures of an index rotting *after*
/// promotion) to the generation that produced them; crossing the
/// configured threshold quarantines the generation and rolls back (see
/// [`ReloadableEngine::note_runtime_error`]). The failure is also
/// recorded into the traffic trace with outcome `err`.
#[allow(clippy::too_many_arguments)]
fn write_query_error<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    gen: &EngineGeneration<S>,
    out: &mut Vec<u8>,
    err: SlingError,
    verb: &'static str,
    tkey: TraceKey,
    elapsed: Duration,
) {
    if matches!(err, SlingError::CorruptIndex(_) | SlingError::Io(_)) {
        reloadable.note_runtime_error(
            gen,
            control.rollback_error_threshold,
            control.cache.as_ref(),
        );
    }
    if let Some(rec) = &control.recorder {
        rec.push(
            trace_verb(verb),
            tkey,
            TraceOutcome::Err,
            elapsed,
            gen.epoch,
        );
    }
    let _ = write!(out, "ERR {err}");
}

/// Record one served query everywhere it is observed: the merged
/// latency histogram, the per-stage kernel histograms (zero stages are
/// skipped, so each stage family's `_count` counts the queries that
/// actually exercised it), the traffic-trace recorder when one is
/// running, and — at or above the threshold — the slow-query log. The
/// slowlog key is built lazily so the fast path never allocates.
fn observe_query<S: HpStore>(
    control: &Control,
    worker: usize,
    gen: &EngineGeneration<S>,
    verb: &'static str,
    tkey: TraceKey,
    elapsed: Duration,
    stages: StageNanos,
    key: impl FnOnce() -> String,
) {
    if let Some(rec) = &control.recorder {
        rec.push(trace_verb(verb), tkey, TraceOutcome::Ok, elapsed, gen.epoch);
    }
    control.latency[worker].record(elapsed);
    let shard = &control.stages[worker];
    for (hist, ns) in [
        (&shard.entry_fetch, stages.entry_fetch),
        (&shard.restore, stages.restore),
        (&shard.merge, stages.merge),
        (&shard.propagate, stages.propagate),
    ] {
        if ns > 0 {
            hist.record_ns(ns);
        }
    }
    let threshold = control.slowlog.threshold();
    if !threshold.is_zero() && elapsed >= threshold {
        control.slowlog.record(SlowQueryRecord {
            verb,
            key: key(),
            generation: gen.name.clone(),
            epoch: gen.epoch,
            total: elapsed,
            stages,
        });
    }
}

/// Frame a multi-line payload for the one-line protocol: `OK <bytes>`
/// followed by exactly that many payload bytes. The connection loop
/// appends the response's final `\n`, so the payload's trailing newline
/// is emitted by it — `<bytes>` always counts a newline-terminated
/// payload.
fn write_framed(out: &mut Vec<u8>, payload: &str) {
    let body = payload.strip_suffix('\n').unwrap_or(payload);
    let _ = write!(out, "OK {}", body.len() + 1);
    out.push(b'\n');
    out.extend_from_slice(body.as_bytes());
}

fn handle_request<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    worker: usize,
    req: Request,
    ctx: &mut WorkerCtx<S>,
) -> Action {
    // Refresh the cached generation if a swap landed (one atomic
    // compare); the Arc clone keeps this request on one consistent
    // generation even if another swap lands mid-request.
    let gen = ctx.generation(reloadable);
    let out = &mut ctx.response;
    match req {
        Request::Ping => out.extend_from_slice(b"OK pong"),
        Request::Quit => {
            out.extend_from_slice(b"OK bye");
            return Action::Close;
        }
        Request::Shutdown => {
            out.extend_from_slice(b"OK shutting-down");
            return Action::Shutdown;
        }
        Request::Reload { force } => {
            match reloadable.try_reload_with(control.cache.as_ref(), force) {
                Ok(swapped) => {
                    let info = reloadable.info();
                    let _ = write!(
                        out,
                        "OK generation={} epoch={} swapped={swapped}",
                        info.generation, info.epoch
                    );
                }
                Err(e) => {
                    let _ = write!(out, "ERR reload failed: {e}");
                }
            }
        }
        Request::Stats => {
            let _ = write!(
                out,
                "OK workers={} served={}",
                control.served.len(),
                control.total_served()
            );
            let info = reloadable.info();
            let _ = write!(
                out,
                " index_generation={} index_epoch={} swaps={} reload_failures={} \
                 last_swap_unix_ms={} rollbacks={} quarantined={} runtime_errors={}",
                info.generation,
                info.epoch,
                info.swaps,
                info.reload_failures,
                info.last_swap_unix_ms,
                info.rollbacks,
                info.quarantined,
                info.runtime_errors
            );
            let _ = write!(
                out,
                " shed={} deadline_exceeded={}",
                control.requests_shed.get(),
                control.requests_deadline.get()
            );
            match &control.recorder {
                None => out.extend_from_slice(b" trace=off"),
                Some(rec) => {
                    let (records, dropped, bytes) = rec.counters();
                    let _ = write!(
                        out,
                        " trace=on trace_records={records} trace_dropped={dropped} \
                         trace_bytes={bytes}"
                    );
                }
            }
            let lat = control.latency_report();
            let _ = write!(
                out,
                " latency_count={} latency_p50_us={:.1} latency_p99_us={:.1} \
                 latency_p999_us={:.1}",
                lat.count, lat.p50_us, lat.p99_us, lat.p999_us
            );
            out.extend_from_slice(b" per_worker=");
            for (i, c) in control.served.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                let _ = write!(out, "{}", c.get());
            }
            let open = control.open_connections.load(Ordering::Relaxed);
            let active: u64 = control
                .workers
                .iter()
                .map(|w| w.active.load(Ordering::Relaxed))
                .sum();
            let _ = write!(
                out,
                " open_connections={} idle_connections={} rejected_connections={}",
                open,
                open.saturating_sub(active),
                control.rejected_connections.load(Ordering::Relaxed)
            );
            out.extend_from_slice(b" evloop_wakeups=");
            for (i, w) in control.workers.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                let _ = write!(out, "{}", w.wakeups.load(Ordering::Relaxed));
            }
            out.extend_from_slice(b" evloop_turns=");
            for (i, w) in control.workers.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                let _ = write!(out, "{}", w.turns.load(Ordering::Relaxed));
            }
            match &control.cache {
                None => out.extend_from_slice(b" cache=off"),
                Some(cache) => {
                    let s = cache.stats();
                    let _ = write!(
                        out,
                        " cache=on cache_entries={} cache_capacity={} cache_shards={} \
                         cache_hits={} cache_misses={} cache_evictions={} cache_hit_rate={:.4} \
                         cache_admission={} cache_admission_rejects={}",
                        cache.len(),
                        cache.capacity(),
                        cache.num_shards(),
                        s.hits,
                        s.misses,
                        s.evictions,
                        s.hit_rate(),
                        cache.admission().as_str(),
                        cache.admission_rejects()
                    );
                }
            }
            let _ = write!(out, " resident_bytes={}", gen.engine.resident_bytes());
        }
        Request::Metrics => {
            write_framed(out, &control.metrics.render_prometheus());
        }
        Request::Slowlog => {
            let mut payload = String::new();
            for rec in control.slowlog.snapshot() {
                let _ = writeln!(payload, "{rec}");
            }
            write_framed(out, &payload);
        }
        Request::Trace { from, max } => match &control.recorder {
            None => out.extend_from_slice(b"ERR trace recording is not enabled (serve --record)"),
            Some(rec) => {
                let chunk = rec.read_from(from, max.min(MAX_TRACE_BATCH));
                let mut payload = format!(
                    "base_us={} next_seq={} dropped={}\n",
                    chunk.base_us, chunk.next_seq, chunk.dropped
                );
                for (seq, r) in &chunk.records {
                    let _ = write!(payload, "{seq} ");
                    // Absolute timestamps (delta from 0): wire lines are
                    // independently parseable, so a poller can dedup by
                    // sequence without threading a running clock.
                    encode_record(r, 0, &mut payload);
                }
                write_framed(out, &payload);
            }
        },
        Request::Pair { u, v } => {
            control.served[worker].inc();
            let t0 = std::time::Instant::now();
            match score_pair(&gen, control, &mut ctx.ws, u, v) {
                Ok(s) => {
                    let stages = ctx.ws.take_trace();
                    observe_query(
                        control,
                        worker,
                        &gen,
                        "PAIR",
                        TraceKey::Pair(u, v),
                        t0.elapsed(),
                        stages,
                        || format!("{u},{v}"),
                    );
                    out.extend_from_slice(b"OK ");
                    write_f64(out, s);
                }
                Err(e) => write_query_error(
                    reloadable,
                    control,
                    &gen,
                    out,
                    e,
                    "PAIR",
                    TraceKey::Pair(u, v),
                    t0.elapsed(),
                ),
            }
        }
        Request::Source { u } => {
            control.served[worker].inc();
            gen.engine.store().prefetch(NodeId(u));
            let t0 = std::time::Instant::now();
            match gen
                .engine
                .single_source_with(&gen.graph, &mut ctx.ss, NodeId(u), &mut ctx.scores)
            {
                Ok(()) => {
                    let stages = ctx.ss.take_trace();
                    observe_query(
                        control,
                        worker,
                        &gen,
                        "SOURCE",
                        TraceKey::Node(u),
                        t0.elapsed(),
                        stages,
                        || u.to_string(),
                    );
                    let t_encode = std::time::Instant::now();
                    out.extend_from_slice(b"OK ");
                    write_scores(out, &ctx.scores);
                    control.stages[worker].encode.record(t_encode.elapsed());
                }
                Err(e) => write_query_error(
                    reloadable,
                    control,
                    &gen,
                    out,
                    e,
                    "SOURCE",
                    TraceKey::Node(u),
                    t0.elapsed(),
                ),
            }
        }
        Request::TopK { u, k } => {
            control.served[worker].inc();
            gen.engine.store().prefetch(NodeId(u));
            let t0 = std::time::Instant::now();
            match gen
                .engine
                .top_k_with(&gen.graph, &mut ctx.ss, &mut ctx.scores, NodeId(u), k)
            {
                Ok(top) => {
                    let stages = ctx.ss.take_trace();
                    observe_query(
                        control,
                        worker,
                        &gen,
                        "TOPK",
                        TraceKey::NodeK(u, k.min(u32::MAX as usize) as u32),
                        t0.elapsed(),
                        stages,
                        || format!("{u}:{k}"),
                    );
                    let t_encode = std::time::Instant::now();
                    let _ = write!(out, "OK {}", top.len());
                    for (node, score) in top {
                        let _ = write!(out, " {}:", node.0);
                        write_f64(out, score);
                    }
                    control.stages[worker].encode.record(t_encode.elapsed());
                }
                Err(e) => write_query_error(
                    reloadable,
                    control,
                    &gen,
                    out,
                    e,
                    "TOPK",
                    TraceKey::NodeK(u, k.min(u32::MAX as usize) as u32),
                    t0.elapsed(),
                ),
            }
        }
        Request::Batch { pairs } => {
            control.served[worker].add(pairs.len() as u64);
            ctx.batch.clear();
            for &(u, v) in &pairs {
                let t0 = std::time::Instant::now();
                match score_pair(&gen, control, &mut ctx.ws, u, v) {
                    Ok(s) => {
                        let stages = ctx.ws.take_trace();
                        observe_query(
                            control,
                            worker,
                            &gen,
                            "BATCH",
                            TraceKey::Pair(u, v),
                            t0.elapsed(),
                            stages,
                            || format!("{u},{v}"),
                        );
                        ctx.batch.push(s);
                    }
                    Err(e) => {
                        write_query_error(
                            reloadable,
                            control,
                            &gen,
                            out,
                            e,
                            "BATCH",
                            TraceKey::Pair(u, v),
                            t0.elapsed(),
                        );
                        return Action::Continue;
                    }
                }
            }
            let t_encode = std::time::Instant::now();
            out.extend_from_slice(b"OK ");
            write_scores(out, &ctx.batch);
            control.stages[worker].encode.record(t_encode.elapsed());
        }
    }
    Action::Continue
}
