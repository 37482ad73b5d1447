//! In-process kernel workloads: one thread runs the query mix in a
//! closed loop against a `SharedEngine`, with no result cache.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sling_baselines::power::{iterations_for_error, power_simrank};
use sling_core::obs::{StageNanos, KERNEL};
use sling_core::single_source::SingleSourceWorkspace;
use sling_core::{HpStore, QueryWorkspace, SharedEngine, SlingError, SlingIndex};
use sling_graph::{DiGraph, NodeId};

use crate::calib::{self, Calibration};
use crate::fixture::{self, Phases, RunDir, EPS};
use crate::ops::{self, stream, sub_seed, Op, TOPK_K};
use crate::report::Report;
use crate::stats::{hash_words, verb_samples, Samples};
use crate::trace::Tracer;
use crate::{protocol_parse_ns, Args, Tally, WARMUP};

pub struct KernelSpec {
    pub name: &'static str,
    pub nodes: usize,
    /// Serve a lossless v3 file through `mmap-compressed` instead of the
    /// `mem` engine.
    pub compressed: bool,
    /// Length of the cyclic operation list.
    pub op_len: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Check answers against power-method ground truth.
    pub truth: bool,
    /// Run every thread on one CPU, so the build is serial.
    pub one_cpu: bool,
}

/// Operations per block in traced runs; blocks alternate between traced
/// and untraced so both see the same cache state.
const TRACE_BLOCK: u64 = 256;

/// Throughput is the median over slices of this length, so that the
/// slices in which the hypervisor descheduled the thread do not set it.
pub const SLICE: Duration = Duration::from_millis(100);

/// Power-method error target of the ground truth (far below `EPS`).
const TRUTH_EPS: f64 = 1e-4;

/// Answers checked against the `mem` engine on the compressed backend.
const SPOT_PAIRS: usize = 4096;
const SPOT_LONG: usize = 64;

pub fn run(
    spec: &KernelSpec,
    args: &Args,
    report: &mut Report,
    cal: &mut Calibration,
) -> Result<Tally, String> {
    if spec.one_cpu {
        let cpu = crate::host::pin_to_one_cpu()?;
        report
            .notes
            .push(format!("pinned: every thread of this run on cpu {cpu}"));
    }
    let dir = RunDir::create(spec.name).map_err(|e| e.to_string())?;
    if spec.compressed {
        run_with(spec, args, report, cal, &dir, |g, _, v3| {
            SharedEngine::open_mmap_compressed(g, v3)
        })
    } else {
        run_with(spec, args, report, cal, &dir, |g, v1, _| {
            SlingIndex::load(g, v1).map(SlingIndex::into_shared_engine)
        })
    }
}

fn run_with<S: HpStore>(
    spec: &KernelSpec,
    args: &Args,
    report: &mut Report,
    cal: &mut Calibration,
    dir: &RunDir,
    open: impl Fn(&DiGraph, &Path, &Path) -> Result<SharedEngine<S>, SlingError>,
) -> Result<Tally, String> {
    for _ in 0..calib::WARM_UNITS {
        cal.sample();
    }
    let mut tr = Tracer::new();
    let mut phases = Phases::default();
    let (v1, v3) = (dir.path("index.slng"), dir.path("index.slng3"));
    let served = if spec.compressed { &v3 } else { &v1 };
    let mut ready = None;
    for _ in 0..spec.setup_reps {
        drop(ready.take()); // release the previous repetition first
        let root = tr.open("setup");
        let t0 = Instant::now();
        let g = fixture::gen_graph(&mut tr, root, &mut phases, spec.nodes, fixture::GRAPH_SEED)?;
        let idx = fixture::build(
            &mut tr,
            root,
            &mut phases,
            &g,
            sub_seed(args.seed, stream::BUILD),
        )?;
        let stats = idx.stats();
        fixture::save_v1(&mut tr, root, &mut phases, &idx, &v1)?;
        drop(idx);
        if spec.compressed {
            fixture::compact_v3(&mut tr, root, &mut phases, &v1, &v3)?;
        }
        let (engine, s) = tr.phase("store.open", root, || open(&g, &v1, &v3));
        phases.add("store.open_s", s);
        let engine = engine.map_err(|e| format!("open {}: {e}", served.display()))?;
        phases.add("setup_s", t0.elapsed().as_secs_f64());
        tr.close(root);
        ready = Some((g, stats, engine));
    }
    let (g, stats, engine) = ready.ok_or("no set-up ran")?;
    let (line, index_bytes) = fixture::describe(spec.name, &g, served)?;
    report.notes.push(line);

    let ops = ops::kernel_mix(sub_seed(args.seed, stream::OPS), &g, spec.op_len);
    let mut lp = Loop::new(&engine, &g, &ops);
    lp.run_for(WARMUP, None, false, &mut tr);
    let k0 = KernelSnapshot::take();
    let window_ops = lp.run_for(
        Duration::from_secs(args.seconds),
        Some(cal),
        args.trace,
        &mut tr,
    );
    let k1 = KernelSnapshot::take();
    let rss = crate::host::rss_peak_mib();

    // End-to-end metrics (from the untraced blocks in traced runs).
    let mut tally = Tally::default();
    for (verb, name) in ops::VERBS.iter().enumerate() {
        let s = lp.lat[0][verb].summary();
        crate::set_latency(report, name, &s);
    }
    report.set("setup_s", phases.median("setup_s"));
    report.set("ops_per_s", crate::stats::median(&lp.slice_rates));
    report.set("index_bytes", index_bytes as f64);
    report.set("rss_peak_mb", rss);
    tally.attempted = lp.attempted;
    tally.fail(lp.errors, "query errors");
    tally.fail(
        lp.mismatches,
        "an operation answered differently on a later pass",
    );

    // Correctness against ground truth or the mem engine.
    let mut max_err = 0.0f64;
    if spec.truth {
        let truth = power_simrank(&g, fixture::C, iterations_for_error(fixture::C, TRUTH_EPS));
        let mut over = 0;
        for (op, ans) in ops.iter().zip(&lp.answers) {
            if let (Op::Pair(u, v), Some(bits)) = (op, ans) {
                let err = (f64::from_bits(*bits) - truth.get(*u as usize, *v as usize)).abs();
                max_err = max_err.max(err);
                over += u64::from(err > EPS);
            }
        }
        tally.fail(
            over,
            "pair answers farther than epsilon from the power-method truth",
        );
    }
    if spec.compressed {
        let reference = SlingIndex::load(&g, &v1)
            .map_err(|e| format!("load reference {}: {e}", v1.display()))?
            .into_shared_engine();
        let mut check = Loop::new(&reference, &g, &ops);
        let mut budget = [SPOT_PAIRS, SPOT_LONG, SPOT_LONG];
        let mut differ = 0;
        for (i, op) in ops.iter().enumerate() {
            let Some(want) = lp.answers[i] else { continue };
            if budget[op.verb()] == 0 {
                continue;
            }
            budget[op.verb()] -= 1;
            differ += u64::from(check.answer(op).ok() != Some(want));
        }
        tally.fail(differ, "mmap-compressed answers differ from the mem engine");
    }

    // Per-layer metrics.
    crate::set_phase_metrics(report, &phases);
    crate::set_build_stats(report, &stats);
    let info = sling_core::inspect_file(served).map_err(|e| format!("inspect: {e}"))?;
    report.set("format.payload_bytes", info.payload_bytes as f64);
    let d = k1.since(&k0);
    let per_op = |x: u64| x as f64 / window_ops.max(1) as f64;
    report.set(
        "store.restore_hit_rate",
        ratio(d.restore_hits, d.restore_hits + d.restore_misses),
    );
    report.set("store.block_decodes_per_op", per_op(d.block_decodes));
    report.set("store.bytes_read_per_op", per_op(d.bytes_read));
    report.set("store.resident_bytes", engine.resident_bytes() as f64);
    report.set("pair.gallop_frac", ratio(d.gallop, d.gallop + d.linear));
    let long_ops = lp.window_verbs[1] + lp.window_verbs[2];
    report.set(
        "source.frontier_words_per_op",
        d.frontier_words as f64 / long_ops.max(1) as f64,
    );
    let [pair, source, topk] = &lp.acc;
    report.set("pair.span_ns", pair.mean(pair.span_ns));
    report.set("pair.entry_fetch_ns", pair.mean(pair.stages.entry_fetch));
    report.set("pair.restore_ns", pair.mean(pair.stages.restore));
    report.set("pair.merge_ns", pair.mean(pair.stages.merge));
    report.set(
        "pair.restore_frac",
        ratio(pair.stages.restore, pair.span_ns),
    );
    report.set("kernel.pair_self_ns", pair.mean(pair.self_ns()));
    report.set("source.span_ns", source.mean(source.span_ns));
    report.set("source.restore_ns", source.mean(source.stages.restore));
    report.set("source.propagate_ns", source.mean(source.stages.propagate));
    report.set("kernel.source_self_ns", source.mean(source.self_ns()));
    report.set("topk.span_ns", topk.mean(topk.span_ns));
    report.set("topk.propagate_ns", topk.mean(topk.stages.propagate));
    report.set("topk.select_ns", topk.mean(topk.self_ns()));
    report.set("protocol.parse_ns", protocol_parse_ns(&ops));
    if args.trace {
        let traced = lp.lat[1][0].summary().p50_us;
        let untraced = report.get("pair_p50_us").unwrap_or(0.0);
        report.set("obs.trace_overhead_frac", traced / untraced - 1.0);
    }
    report.set("max_abs_err", max_err);
    report.set(
        "ops_failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    if args.trace {
        crate::write_spans(&tr, spec.name, args.seed)?;
    }
    Ok(tally)
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Traced per-verb totals.
#[derive(Default)]
struct VerbAcc {
    ops: u64,
    span_ns: u64,
    stages: StageNanos,
}

impl VerbAcc {
    fn mean(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }

    /// Call span not covered by the kernel's own stage timers.
    fn self_ns(&self) -> u64 {
        self.span_ns.saturating_sub(self.stages.total())
    }
}

/// Deltas of the process-wide kernel counters over the timed window.
#[derive(Default)]
pub struct KernelSnapshot {
    pub restore_hits: u64,
    pub restore_misses: u64,
    pub block_decodes: u64,
    pub bytes_read: u64,
    pub gallop: u64,
    pub linear: u64,
    pub frontier_words: u64,
}

impl KernelSnapshot {
    pub fn take() -> KernelSnapshot {
        let r = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        KernelSnapshot {
            restore_hits: r(&KERNEL.restore_cache_hits),
            restore_misses: r(&KERNEL.restore_cache_misses),
            block_decodes: r(&KERNEL.block_decodes),
            bytes_read: r(&KERNEL.backend_bytes_read),
            gallop: r(&KERNEL.merge_gallop),
            linear: r(&KERNEL.merge_linear),
            frontier_words: r(&KERNEL.frontier_words),
        }
    }

    pub fn since(&self, before: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            restore_hits: self.restore_hits - before.restore_hits,
            restore_misses: self.restore_misses - before.restore_misses,
            block_decodes: self.block_decodes - before.block_decodes,
            bytes_read: self.bytes_read - before.bytes_read,
            gallop: self.gallop - before.gallop,
            linear: self.linear - before.linear,
            frontier_words: self.frontier_words - before.frontier_words,
        }
    }
}

/// The closed loop over a cyclic operation list.
struct Loop<'a, S: HpStore> {
    engine: &'a SharedEngine<S>,
    g: &'a DiGraph,
    ops: &'a [Op],
    ws: QueryWorkspace,
    ss: SingleSourceWorkspace,
    scores: Vec<f64>,
    pos: usize,
    /// Answer fingerprint of each list position, from its first run.
    answers: Vec<Option<u64>>,
    /// Latency samples in ns, by `[traced][verb]`.
    lat: [[Samples; 3]; 2],
    acc: [VerbAcc; 3],
    window_verbs: [u64; 3],
    /// Completion rate of each full [`SLICE`] of the timed window.
    slice_rates: Vec<f64>,
    attempted: u64,
    errors: u64,
    mismatches: u64,
}

impl<'a, S: HpStore> Loop<'a, S> {
    fn new(engine: &'a SharedEngine<S>, g: &'a DiGraph, ops: &'a [Op]) -> Self {
        Loop {
            engine,
            g,
            ops,
            ws: QueryWorkspace::new(),
            ss: SingleSourceWorkspace::new(),
            scores: Vec::new(),
            pos: 0,
            answers: vec![None; ops.len()],
            lat: verb_samples(),
            acc: Default::default(),
            window_verbs: [0; 3],
            slice_rates: Vec::new(),
            attempted: 0,
            errors: 0,
            mismatches: 0,
        }
    }

    /// One operation's answer fingerprint: the score's bits for PAIR, a
    /// hash of every score's bits for SOURCE and TOPK.
    fn answer(&mut self, op: &Op) -> Result<u64, SlingError> {
        match *op {
            Op::Pair(u, v) => self
                .engine
                .single_pair_with(self.g, &mut self.ws, NodeId(u), NodeId(v))
                .map(f64::to_bits),
            Op::Source(u) => {
                self.engine.single_source_with(
                    self.g,
                    &mut self.ss,
                    NodeId(u),
                    &mut self.scores,
                )?;
                Ok(hash_words(self.scores.iter().map(|s| s.to_bits())))
            }
            Op::TopK(u) => {
                let top = self.engine.top_k_with(
                    self.g,
                    &mut self.ss,
                    &mut self.scores,
                    NodeId(u),
                    TOPK_K,
                )?;
                Ok(hash_words(
                    top.iter().flat_map(|(n, s)| [n.0 as u64, s.to_bits()]),
                ))
            }
        }
    }

    /// Run operations until `dur` has passed. A timed run (`cal` given)
    /// keeps latency samples and times one calibration unit between
    /// slices; with `trace` every other block of operations is traced.
    /// Returns the operations run.
    fn run_for(
        &mut self,
        dur: Duration,
        mut cal: Option<&mut Calibration>,
        trace: bool,
        tr: &mut Tracer,
    ) -> u64 {
        let timed = cal.is_some();
        let start = Instant::now();
        let mut slice_start = start;
        let mut slice_ops = 0u64;
        let mut done = 0u64;
        let mut traced = false;
        loop {
            if trace && done.is_multiple_of(TRACE_BLOCK) {
                traced = (done / TRACE_BLOCK) % 2 == 1;
                self.ws.set_trace_enabled(traced);
                self.ss.set_trace_enabled(traced);
            }
            let i = self.pos;
            let op = self.ops[i];
            let t0 = Instant::now();
            let ans = self.answer(&op);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            self.pos = (i + 1) % self.ops.len();
            self.attempted += 1;
            done += 1;
            let verb = op.verb();
            if timed {
                self.lat[usize::from(traced)][verb].push(ns);
                self.window_verbs[verb] += 1;
            }
            match ans {
                Ok(a) => match self.answers[i] {
                    None => self.answers[i] = Some(a),
                    Some(first) => self.mismatches += u64::from(first != a),
                },
                Err(_) => self.errors += 1,
            }
            if traced {
                let stages = if verb == 0 {
                    self.ws.take_trace()
                } else {
                    self.ss.take_trace()
                };
                let acc = &mut self.acc[verb];
                acc.ops += 1;
                acc.span_ns += ns;
                acc.stages.add(&stages);
                let detail = format!(
                    "\"entry_fetch_ns\": {}, \"restore_ns\": {}, \"merge_ns\": {}, \
                     \"propagate_ns\": {}",
                    stages.entry_fetch, stages.restore, stages.merge, stages.propagate
                );
                tr.record(ops::VERBS[verb], i as u64, None, t0, t1, Some(detail));
            }
            slice_ops += 1;
            if let (Some(cal), true) = (cal.as_deref_mut(), t1 - slice_start >= SLICE) {
                let secs = (t1 - slice_start).as_secs_f64();
                self.slice_rates.push(slice_ops as f64 / secs);
                cal.sample();
                (slice_start, slice_ops) = (Instant::now(), 0);
            }
            if t1 - start >= dur {
                return done;
            }
        }
    }
}
