//! Live-server workloads: an in-process `sling_server` on a Unix socket,
//! driven by an open-loop Poisson schedule from one generator thread
//! that multiplexes two pipelined nonblocking connections.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sling_core::index::BuildStats;
use sling_core::lifecycle::{GenId, GenerationStore};
use sling_core::{SharedEngine, SlingIndex};
use sling_graph::{DiGraph, NodeId};
use sling_server::{
    serve, serve_reloadable, Client, Listener, ReloadableEngine, ServerConfig, ServerHandle,
};

use crate::calib::{self, Calibration};
use crate::fixture::{self, Phases, RunDir};
use crate::kernel::KernelSnapshot;
use crate::ops::{self, stream, sub_seed, Op, Rng, TOPK_K};
use crate::report::Report;
use crate::stats::{hash_bytes, median, nearest_rank, summarize, verb_samples, Samples};
use crate::trace::Tracer;
use crate::{protocol_parse_ns, Args, Tally, WARMUP};

pub struct ServeSpec {
    pub name: &'static str,
    pub nodes: usize,
    /// Serve two generations through `serve_reloadable` and swap between
    /// them during the window.
    pub reload: bool,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Ladder step rates as multiples of `rate`; empty for no ladder.
    pub ladder: &'static [f64],
    /// Shares of the window spent at the fixed rate and on the ladder;
    /// the closed loop takes the rest.
    pub fixed_share: f64,
    pub ladder_share: f64,
    pub setup_reps: usize,
}

/// Latency limit on pair p90 for a ladder step to hold. The limit is on
/// p90, not p99: on hosts whose vCPUs the hypervisor deschedules for
/// milliseconds, a half-second step's p99 lands in those stalls at any
/// rate, so a p99 limit would measure the host, not the server.
const SLO_NS: u64 = 1_000_000;

/// Median generator lateness beyond which the generator, not the
/// server, set the pace, and the run is rejected.
const MAX_GEN_LAG_P50_NS: u64 = 200_000;

/// How long the generator waits for responses after the last send.
const DRAIN: Duration = Duration::from_secs(5);

/// Pause between the open-loop schedule and the closed loop, for the
/// backlog of the last ladder step to drain.
const DRAIN_PAUSE: Duration = Duration::from_millis(200);

/// Length of the closed loop's cyclic operation list.
const CLOSED_LEN: usize = 1 << 16;

/// Interval between promote + RELOAD rounds on the reload workload.
const RELOAD_EVERY: Duration = Duration::from_millis(500);

/// Window after each swap whose cache hit rate is reported.
const AFTER_SWAP: Duration = Duration::from_millis(250);

/// PING round trips of the transport probe.
const PINGS: usize = 2000;

/// Pipelined connections of the generator.
const CONNS: usize = 2;

/// One server ready to take load, plus what the checks need.
struct Ready {
    graph: Arc<DiGraph>,
    handle: ServerHandle,
    sock: PathBuf,
    served: PathBuf,
    /// Index files whose answers are acceptable (both generations on the
    /// reload workload).
    references: Vec<PathBuf>,
    store: Option<(GenerationStore, [GenId; 2])>,
    stats: BuildStats,
}

fn setup(
    spec: &ServeSpec,
    args: &Args,
    dir: &RunDir,
    rep: usize,
    tr: &mut Tracer,
    phases: &mut Phases,
) -> Result<Ready, String> {
    let root = tr.open("setup");
    let t0 = Instant::now();
    let g = fixture::gen_graph(tr, root, phases, spec.nodes, fixture::GRAPH_SEED)?;
    let graph = Arc::new(g);
    let idx = fixture::build(tr, root, phases, &graph, sub_seed(args.seed, stream::BUILD))?;
    let stats = idx.stats();
    let sock = dir.path(&format!("s{rep}.sock"));
    let listener =
        Listener::bind_unix(&sock).map_err(|e| format!("bind {}: {e}", sock.display()))?;
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let ready = if spec.reload {
        let idx_b = fixture::build(
            tr,
            root,
            phases,
            &graph,
            sub_seed(args.seed, stream::BUILD_B),
        )?;
        let store = GenerationStore::open(dir.path(&format!("store{rep}")))
            .map_err(|e| format!("open generation store: {e}"))?;
        let mut publish = |idx: &SlingIndex| {
            let (id, s) = tr.phase("lifecycle.publish", root, || store.publish_index(idx, None));
            phases.add("lifecycle.publish_s", s);
            id.map_err(|e| format!("publish: {e}"))
        };
        let ids = [publish(&idx)?, publish(&idx_b)?];
        let (r, s) = tr.phase("lifecycle.promote", root, || store.promote(ids[0]));
        phases.add("lifecycle.promote_s", s);
        r.map_err(|e| format!("promote: {e}"))?;
        let (reloadable, s) = tr.phase("store.open", root, || {
            ReloadableEngine::watching_store(store.clone(), Some(Arc::clone(&graph)), |g, p| {
                SharedEngine::open_mmap(g, p)
            })
        });
        phases.add("store.open_s", s);
        let reloadable = reloadable.map_err(|e| format!("open generation: {e}"))?;
        let (handle, s) = tr.phase("server.start", root, || {
            serve_reloadable(Arc::new(reloadable), listener, config)
        });
        phases.add("server.start_s", s);
        Ready {
            handle: handle.map_err(|e| format!("serve: {e}"))?,
            served: store.index_path(ids[0]),
            references: ids.iter().map(|&id| store.index_path(id)).collect(),
            store: Some((store, ids)),
            stats,
            graph,
            sock,
        }
    } else {
        let v1 = dir.path(&format!("index{rep}.slng"));
        fixture::save_v1(tr, root, phases, &idx, &v1)?;
        let (engine, s) = tr.phase("store.open", root, || SharedEngine::open_mmap(&graph, &v1));
        phases.add("store.open_s", s);
        let engine = engine.map_err(|e| format!("open {}: {e}", v1.display()))?;
        let (handle, s) = tr.phase("server.start", root, || {
            serve(Arc::new(engine), Arc::clone(&graph), listener, config)
        });
        phases.add("server.start_s", s);
        Ready {
            handle: handle.map_err(|e| format!("serve: {e}"))?,
            references: vec![v1.clone()],
            served: v1,
            store: None,
            stats,
            graph,
            sock,
        }
    };
    drop(idx);
    let (ping, s) = tr.phase("server.ready", root, || {
        Client::connect_unix(&ready.sock).and_then(|mut c| c.ping())
    });
    phases.add("server.ready_s", s);
    ping.map_err(|e| format!("server not ready: {e}"))?;
    phases.add("setup_s", t0.elapsed().as_secs_f64());
    tr.close(root);
    Ok(ready)
}

/// A phase of the arrival schedule.
#[derive(Clone, Copy)]
struct Phase {
    start_ns: u64,
    end_ns: u64,
    /// Offered rate, requests per second.
    rate: f64,
    /// Index range of the requests scheduled in this phase.
    first: usize,
    end: usize,
}

/// Per-request record of the generator.
struct Requests {
    sched_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    recv_ns: Vec<u64>,
    /// PAIR: the score's bits; SOURCE/TOPK: a hash of the response line.
    answer: Vec<u64>,
    err: Vec<bool>,
    /// Outstanding requests when each phase started and ended.
    backlog_start: Vec<i64>,
    backlog_end: Vec<i64>,
}

const NOT_YET: u64 = u64::MAX;

impl Requests {
    fn latency_ns(&self, i: usize) -> Option<u64> {
        (self.recv_ns[i] != NOT_YET).then(|| self.recv_ns[i] - self.sched_ns[i])
    }
}

/// Control-connection observations taken during the window.
#[derive(Default)]
struct Control {
    stats_start: HashMap<String, String>,
    stats_end: HashMap<String, String>,
    /// After the last reload round.
    stats_last: HashMap<String, String>,
    kernel_start: KernelSnapshot,
    kernel_end: KernelSnapshot,
    reload_s: Vec<f64>,
    promote_s: Vec<f64>,
    reloads_failed: u64,
    hit_rate_after_swap: Vec<f64>,
}

pub fn run(
    spec: &ServeSpec,
    args: &Args,
    report: &mut Report,
    cal: &mut Calibration,
) -> Result<Tally, String> {
    // Generator and server share one CPU: on hosts whose vCPUs are
    // descheduled by the hypervisor, cross-CPU wake-ups made served
    // latency vary by orders of magnitude between runs (README.md).
    let cpu = crate::host::pin_to_one_cpu()?;
    report
        .notes
        .push(format!("pinned: every thread of this run on cpu {cpu}"));
    for _ in 0..calib::WARM_UNITS {
        cal.sample();
    }
    let dir = RunDir::create(spec.name).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new();
    let mut phases = Phases::default();
    let mut ready: Option<Ready> = None;
    for rep in 0..spec.setup_reps {
        if let Some(prev) = ready.take() {
            prev.handle.shutdown();
        }
        ready = Some(setup(spec, args, &dir, rep, &mut tr, &mut phases)?);
    }
    let ready = ready.ok_or("no set-up ran")?;
    let (line, index_bytes) = fixture::describe(spec.name, &ready.graph, &ready.served)?;
    report.notes.push(line);

    // The timeline: open-loop warm-up and fixed phase at `rate`, the
    // ladder steps, a pause for the backlog to drain, then the closed loop.
    let window_ns = args.seconds * 1_000_000_000;
    let share = |f: f64| (window_ns as f64 * f) as u64;
    let mut plan = vec![
        (WARMUP.as_nanos() as u64, spec.rate),
        (share(spec.fixed_share), spec.rate),
    ];
    let step_ns = share(spec.ladder_share) / spec.ladder.len().max(1) as u64;
    plan.extend(spec.ladder.iter().map(|m| (step_ns, spec.rate * m)));
    let mut rng = Rng::new(sub_seed(args.seed, stream::ARRIVALS));
    let mut sched = Vec::new();
    let mut phase_list = Vec::new();
    let mut t = 0;
    for (dur, rate) in plan {
        let first = sched.len();
        ops::poisson_arrivals(&mut rng, rate, t, t + dur, &mut sched);
        phase_list.push(Phase {
            start_ns: t,
            end_ns: t + dur,
            rate,
            first,
            end: sched.len(),
        });
        t += dur;
    }
    let n = ready.graph.num_nodes() as u32;
    let ops = ops::serve_mix(sub_seed(args.seed, stream::OPS), n, sched.len());
    let closed_ops = ops::serve_mix(sub_seed(args.seed, stream::CLOSED_OPS), n, CLOSED_LEN);
    let fixed = phase_list[1];
    let closed_start = t + DRAIN_PAUSE.as_nanos() as u64;
    let closed_end = closed_start + share(1.0 - spec.fixed_share - spec.ladder_share);

    let origin = Instant::now();
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    let (open, closed, control) = std::thread::scope(|scope| {
        let ctl = scope.spawn(|| control(spec, args, &ready, origin, fixed, closed_end));
        let open = generate(&ready.sock, &ops, sched, &phase_list, origin);
        let closed = open.as_ref().map_err(Clone::clone).and_then(|_| {
            closed_loop(
                &ready.sock,
                &closed_ops,
                at(closed_start),
                at(closed_end),
                args.trace,
                &mut tr,
                cal,
            )
        });
        let ctl = ctl
            .join()
            .map_err(|_| "control thread panicked".to_string());
        (open, closed, ctl)
    });
    let (open, mut closed, control) = (open?, closed?, control??);
    let rss = crate::host::rss_peak_mib();
    let ping_p50 = ping_probe(&ready.sock)?;

    // End-to-end metrics from the closed loop (its untraced half in
    // traced runs).
    let mut tally = Tally::default();
    for (verb, name) in ops::VERBS.iter().enumerate() {
        let s = closed.lat[0][verb].summary();
        crate::set_latency(report, name, &s);
    }
    report.set("setup_s", phases.median("setup_s"));
    report.set("ops_per_s", median(&closed.slice_rates));
    report.set("index_bytes", index_bytes as f64);
    report.set("rss_peak_mb", rss);

    // Accounting and correctness over every request sent.
    let sent: Vec<usize> = (0..open.sched_ns.len())
        .filter(|&i| open.sent_ns[i] != NOT_YET)
        .collect();
    tally.attempted = sent.len() as u64 + closed.attempted;
    let errors = sent.iter().filter(|&&i| open.err[i]).count() as u64;
    let timeouts = sent.iter().filter(|&&i| open.recv_ns[i] == NOT_YET).count() as u64;
    tally.fail(errors + closed.errors, "ERR replies");
    tally.fail(timeouts, "requests unanswered after the drain");
    let mut distinct: Vec<Op> = sent.iter().map(|&i| ops[i]).collect();
    distinct.extend_from_slice(&closed_ops);
    let refs = reference_answers(&ready, distinct)?;
    let accepted = |op: &Op, fp: u64| refs.iter().any(|r| r.get(op) == Some(&fp));
    let wrong = sent
        .iter()
        .filter(|&&i| open.recv_ns[i] != NOT_YET && !open.err[i])
        .filter(|&&i| !accepted(&ops[i], open.answer[i]))
        .count()
        + closed
            .answers
            .iter()
            .zip(&closed_ops)
            .flat_map(|(fps, op)| fps.iter().flatten().map(move |&fp| (op, fp)))
            .filter(|&(op, fp)| !accepted(op, fp))
            .count()
        + closed.surplus as usize;
    tally.fail(
        wrong as u64,
        "served answers differ from the mem engine of every generation",
    );
    let fixed_range = fixed.first..fixed.end;
    let mut lag: Vec<u64> = fixed_range
        .clone()
        .map(|i| open.sent_ns[i] - open.sched_ns[i])
        .collect();
    let lag = summarize(&mut lag);
    if lag.p50_us * 1e3 > MAX_GEN_LAG_P50_NS as f64 {
        tally.invalid(format!(
            "generator ran {:.0} us late at the median; the schedule was not kept",
            lag.p50_us
        ));
    }
    if spec.reload {
        let swaps = stat(&control.stats_last, "swaps") - stat(&control.stats_start, "swaps");
        let scheduled = control.reload_s.len() as f64 + control.reloads_failed as f64;
        tally.fail(control.reloads_failed, "RELOAD did not swap");
        if swaps != scheduled {
            tally.invalid(format!("{swaps} swaps for {scheduled} scheduled reloads"));
        }
    }

    // Per-layer metrics.
    let mut open_pair: Vec<u64> = fixed_range
        .filter(|&i| ops[i].verb() == 0)
        .filter_map(|i| open.latency_ns(i))
        .collect();
    let open_pair = summarize(&mut open_pair);
    report.notes.push(format!(
        "open loop at {:.0}/s: pair n={} p50={:.3}us p{:.2}={:.3}us",
        spec.rate, open_pair.count, open_pair.p50_us, open_pair.tail_pct, open_pair.tail_us
    ));
    report.set("open.pair_p50_us", open_pair.p50_us);
    report.set("open.pair_p99_us", open_pair.tail_us);
    crate::set_phase_metrics(report, &phases);
    crate::set_build_stats(report, &ready.stats);
    let info = sling_core::inspect_file(&ready.served).map_err(|e| format!("inspect: {e}"))?;
    report.set("format.payload_bytes", info.payload_bytes as f64);
    let (s0, s1) = (&control.stats_start, &control.stats_end);
    let delta = |k: &str| stat(s1, k) - stat(s0, k);
    let served = delta("served").max(1.0);
    let d = control.kernel_end.since(&control.kernel_start);
    report.set(
        "store.restore_hit_rate",
        crate::kernel::ratio(d.restore_hits, d.restore_hits + d.restore_misses),
    );
    report.set(
        "store.block_decodes_per_op",
        d.block_decodes as f64 / served,
    );
    report.set("store.bytes_read_per_op", d.bytes_read as f64 / served);
    report.set("store.resident_bytes", stat(s1, "resident_bytes"));
    report.set(
        "pair.gallop_frac",
        crate::kernel::ratio(d.gallop, d.gallop + d.linear),
    );
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    report.set("cache.hit_rate", hits / (hits + misses).max(1.0));
    report.set("cache.evictions", delta("cache_evictions"));
    report.set("cache.admission_rejects", delta("cache_admission_rejects"));
    report.set(
        "cache.hit_rate_after_swap",
        mean(&control.hit_rate_after_swap),
    );
    report.set("protocol.parse_ns", protocol_parse_ns(&ops));
    let dispatch_p50 = stat(s1, "latency_p50_us");
    report.set("server.dispatch_p50_us", dispatch_p50);
    report.set("server.dispatch_p99_us", stat(s1, "latency_p99_us"));
    report.set(
        "server.unattributed_p50_us",
        open_pair.p50_us - dispatch_p50,
    );
    report.set("evloop.turns_per_req", delta("evloop_turns") / served);
    report.set("evloop.wakeups_per_req", delta("evloop_wakeups") / served);
    report.set("server.shed", delta("shed"));
    report.set("server.deadline_exceeded", delta("deadline_exceeded"));
    report.set("client.ping_rtt_p50_us", ping_p50);
    report.set("client.gen_lag_p99_us", lag.tail_us);
    for &s in &control.promote_s {
        phases.add("lifecycle.promote_s", s);
    }
    report.set("lifecycle.promote_s", phases.median("lifecycle.promote_s"));
    report.set(
        "lifecycle.swaps",
        stat(&control.stats_last, "swaps") - stat(s0, "swaps"),
    );
    if args.trace {
        let traced = closed.lat[1][0].summary().p50_us;
        let untraced = report.get("pair_p50_us").unwrap_or(0.0);
        report.set("obs.trace_overhead_frac", traced / untraced - 1.0);
    }
    if !spec.ladder.is_empty() {
        let max_rate = ladder_max_rate(&open, &ops, &phase_list, report);
        report.set("max_rate_qps", max_rate);
    }
    if spec.reload {
        report.set("reload_s", median(&control.reload_s));
    }
    report.set(
        "ops_failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    if args.trace {
        crate::write_spans(&tr, spec.name, args.seed)?;
    }
    ready.handle.shutdown();
    Ok(tally)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Parse a `STATS` payload into its `key=value` fields.
fn parse_stats(line: &str) -> HashMap<String, String> {
    line.split_ascii_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A numeric STATS field; per-worker lists (`a,b`) are summed.
fn stat(stats: &HashMap<String, String>, key: &str) -> f64 {
    stats.get(key).map_or(0.0, |v| {
        v.split(',').filter_map(|x| x.parse::<f64>().ok()).sum()
    })
}

/// The control connection: STATS and kernel-counter snapshots at the
/// fixed phase's edges and, on the reload workload, promote + RELOAD
/// rounds at a fixed interval from the fixed phase to the closed loop's
/// end.
fn control(
    spec: &ServeSpec,
    args: &Args,
    ready: &Ready,
    origin: Instant,
    fixed: Phase,
    end_ns: u64,
) -> Result<Control, String> {
    let mut client =
        Client::connect_unix(&ready.sock).map_err(|e| format!("control connect: {e}"))?;
    let stats = |c: &mut Client| -> Result<HashMap<String, String>, String> {
        c.stats_line()
            .map(|l| parse_stats(&l))
            .map_err(|e| format!("STATS: {e}"))
    };
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    let mut out = Control::default();
    sleep_until(at(fixed.start_ns));
    out.kernel_start = KernelSnapshot::take();
    out.stats_start = stats(&mut client)?;
    let every = RELOAD_EVERY.as_nanos() as u64;
    let after_swap = AFTER_SWAP.as_nanos() as u64;
    let mut next = fixed.start_ns + every / 2;
    let mut target = 1;
    let mut end_taken = false;
    loop {
        let round = (spec.reload && next + after_swap <= end_ns)
            .then_some(())
            .and(ready.store.as_ref());
        if !end_taken && (round.is_none() || next >= fixed.end_ns) {
            sleep_until(at(fixed.end_ns));
            out.kernel_end = KernelSnapshot::take();
            out.stats_end = stats(&mut client)?;
            end_taken = true;
            continue;
        }
        let Some((store, ids)) = round else { break };
        sleep_until(at(next));
        let t0 = Instant::now();
        store
            .promote(ids[target])
            .map_err(|e| format!("promote: {e}"))?;
        out.promote_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let (_, swapped) = client.reload().map_err(|e| format!("RELOAD: {e}"))?;
        let rtt = t0.elapsed().as_secs_f64();
        if swapped {
            out.reload_s.push(rtt);
        } else {
            out.reloads_failed += 1;
        }
        if args.trace {
            let before = stats(&mut client)?;
            std::thread::sleep(AFTER_SWAP);
            let after = stats(&mut client)?;
            let d = |k: &str| stat(&after, k) - stat(&before, k);
            let (h, m) = (d("cache_hits"), d("cache_misses"));
            out.hit_rate_after_swap.push(h / (h + m).max(1.0));
        }
        target = 1 - target;
        next += every;
    }
    out.stats_last = stats(&mut client)?;
    Ok(out)
}

/// One pipelined nonblocking connection of the generator.
struct Wire {
    stream: UnixStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<usize>,
}

impl Wire {
    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// Read what is available; true if anything arrived.
    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<bool> {
        let mut got = false;
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Run the whole schedule open-loop: each request is written when due,
/// whatever is still outstanding, and timed from its scheduled send.
fn generate(
    sock: &Path,
    ops: &[Op],
    sched_ns: Vec<u64>,
    phases: &[Phase],
    origin: Instant,
) -> Result<Requests, String> {
    let n = sched_ns.len();
    let mut wires = (0..CONNS)
        .map(|_| {
            let stream = UnixStream::connect(sock)?;
            stream.set_nonblocking(true)?;
            Ok(Wire {
                stream,
                out: Vec::new(),
                written: 0,
                inbuf: Vec::new(),
                inflight: VecDeque::new(),
            })
        })
        .collect::<io::Result<Vec<Wire>>>()
        .map_err(|e| format!("generator connect: {e}"))?;
    let mut r = Requests {
        sched_ns,
        sent_ns: vec![NOT_YET; n],
        recv_ns: vec![NOT_YET; n],
        answer: vec![0; n],
        err: vec![false; n],
        backlog_start: vec![0; phases.len()],
        backlog_end: vec![0; phases.len()],
    };
    let last = r.sched_ns.last().copied().unwrap_or(0);
    let deadline = last + DRAIN.as_nanos() as u64;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut outstanding = 0usize;
    let mut started = 0;
    let mut ended = 0;
    // Ladder steps start at phase 2; a failing step stops the ladder.
    let mut stop_at = n;
    let now_ns = || origin.elapsed().as_nanos() as u64;
    loop {
        let now = now_ns();
        while started < phases.len() && now >= phases[started].start_ns {
            r.backlog_start[started] = outstanding as i64;
            started += 1;
        }
        while ended < phases.len() && now >= phases[ended].end_ns {
            r.backlog_end[ended] = outstanding as i64;
            if ended >= 2 && !step_holds(&r, ops, &phases[ended], ended, now) {
                stop_at = stop_at.min(phases[ended].end);
            }
            ended += 1;
        }
        while next < stop_at && r.sched_ns[next] <= now {
            let w = &mut wires[next % CONNS];
            ops[next].write_line(&mut w.out);
            w.inflight.push_back(next);
            r.sent_ns[next] = now;
            outstanding += 1;
            next += 1;
        }
        for w in wires.iter_mut() {
            w.flush().map_err(|e| format!("send: {e}"))?;
            if !w.fill(&mut chunk).map_err(|e| format!("receive: {e}"))? {
                continue;
            }
            let recv = now_ns();
            let mut start = 0;
            while let Some(nl) = w.inbuf[start..].iter().position(|&b| b == b'\n') {
                let line = &w.inbuf[start..start + nl];
                let i = w.inflight.pop_front().ok_or("response without a request")?;
                r.recv_ns[i] = recv;
                outstanding -= 1;
                match fingerprint(line, ops[i]) {
                    Some(fp) => r.answer[i] = fp,
                    None => r.err[i] = true,
                }
                start += nl + 1;
            }
            w.inbuf.drain(..start);
        }
        std::thread::yield_now();
        if (next >= stop_at && outstanding == 0) || now > deadline {
            while ended < phases.len() {
                r.backlog_end[ended] = outstanding as i64;
                ended += 1;
            }
            return Ok(r);
        }
    }
}

/// Answer fingerprint of one response line: the score's bits for PAIR,
/// a hash of the whole line for SOURCE and TOPK; `None` for an error.
fn fingerprint(line: &[u8], op: Op) -> Option<u64> {
    let payload = line.strip_prefix(b"OK ")?;
    match op {
        Op::Pair(..) => std::str::from_utf8(payload)
            .ok()?
            .parse::<f64>()
            .ok()
            .map(f64::to_bits),
        _ => Some(hash_bytes(line)),
    }
}

/// Results of the closed loop.
struct Closed {
    /// Latency samples in ns, by `[traced][verb]`.
    lat: [[Samples; 3]; 2],
    /// Completion rate of each full slice.
    slice_rates: Vec<f64>,
    /// The distinct answer fingerprints seen at each list position (two
    /// generations at most can answer on the reload workload).
    answers: Vec<[Option<u64>; 2]>,
    /// Answers beyond two distinct ones at a position: wrong for certain.
    surplus: u64,
    attempted: u64,
    errors: u64,
}

/// One request at a time on one connection from `start` to `end`: the
/// latency a single waiting caller sees.
fn closed_loop(
    sock: &Path,
    ops: &[Op],
    start: Instant,
    end: Instant,
    trace: bool,
    tr: &mut Tracer,
    cal: &mut Calibration,
) -> Result<Closed, String> {
    let stream = UnixStream::connect(sock).map_err(|e| format!("closed-loop connect: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("closed-loop connect: {e}"))?;
    let mut w = Wire {
        stream,
        out: Vec::new(),
        written: 0,
        inbuf: Vec::new(),
        inflight: VecDeque::new(),
    };
    let mut chunk = vec![0u8; 64 * 1024];
    let mut c = Closed {
        lat: verb_samples(),
        slice_rates: Vec::new(),
        answers: vec![[None; 2]; ops.len()],
        surplus: 0,
        attempted: 0,
        errors: 0,
    };
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let (mut slice_start, mut slice_ops) = (Instant::now(), 0u64);
    let mut pos = 0;
    while Instant::now() < end {
        let op = ops[pos];
        let t0 = Instant::now();
        op.write_line(&mut w.out);
        let nl = loop {
            w.flush().map_err(|e| format!("send: {e}"))?;
            w.fill(&mut chunk).map_err(|e| format!("receive: {e}"))?;
            if let Some(nl) = w.inbuf.iter().position(|&b| b == b'\n') {
                break nl;
            }
            std::thread::yield_now();
        };
        let t1 = Instant::now();
        match fingerprint(&w.inbuf[..nl], op) {
            None => c.errors += 1,
            Some(fp) => match c.answers[pos] {
                [Some(a), _] | [_, Some(a)] if a == fp => {}
                [None, _] => c.answers[pos][0] = Some(fp),
                [_, None] => c.answers[pos][1] = Some(fp),
                _ => c.surplus += 1,
            },
        }
        w.inbuf.drain(..=nl);
        let traced = trace && c.attempted % 2 == 1;
        c.lat[usize::from(traced)][op.verb()].push((t1 - t0).as_nanos() as u64);
        if traced {
            tr.record(ops::VERBS[op.verb()], c.attempted, None, t0, t1, None);
        }
        c.attempted += 1;
        slice_ops += 1;
        if t1 - slice_start >= crate::kernel::SLICE {
            c.slice_rates
                .push(slice_ops as f64 / (t1 - slice_start).as_secs_f64());
            cal.sample();
            (slice_start, slice_ops) = (Instant::now(), 0);
        }
        pos = (pos + 1) % ops.len();
    }
    Ok(c)
}

/// Whether ladder step `idx` kept pair p90 within the limit with no
/// growing backlog, judged at `now` (requests still in flight count as
/// late once they are older than the limit).
fn step_holds(r: &Requests, ops: &[Op], step: &Phase, idx: usize, now: u64) -> bool {
    let mut pairs = 0usize;
    let mut late = 0usize;
    for (i, op) in ops.iter().enumerate().take(step.end).skip(step.first) {
        if op.verb() != 0 || r.sent_ns[i] == NOT_YET {
            continue;
        }
        pairs += 1;
        let lat = r.latency_ns(i).unwrap_or(now.saturating_sub(r.sched_ns[i]));
        late += usize::from(lat > SLO_NS);
    }
    let growth = r.backlog_end[idx] - r.backlog_start[idx];
    let allowed = ((step.end - step.first) / 100).max(16) as i64;
    pairs > 0 && late * 10 <= pairs && growth <= allowed
}

/// Achieved completion rate of the highest ladder step that held; each
/// step is also listed in the report's notes.
fn ladder_max_rate(r: &Requests, ops: &[Op], phases: &[Phase], report: &mut Report) -> f64 {
    let mut best = 0.0;
    for (idx, step) in phases.iter().enumerate().skip(2) {
        let done = (step.first..step.end)
            .filter(|&i| r.recv_ns[i] != NOT_YET)
            .count();
        if done == 0 {
            break; // the ladder stopped before this step
        }
        let achieved = done as f64 / (step.end_ns - step.start_ns) as f64 * 1e9;
        let mut pair: Vec<u64> = (step.first..step.end)
            .filter(|&i| ops[i].verb() == 0)
            .filter_map(|i| r.latency_ns(i))
            .collect();
        let p = summarize(&mut pair);
        let holds = step_holds(r, ops, step, idx, u64::MAX);
        report.notes.push(format!(
            "ladder: offered={:.0}/s achieved={achieved:.0}/s pair n={} p90={:.1}us p{:.1}={:.1}us \
             backlog_growth={} {}",
            step.rate,
            p.count,
            nearest_rank(&pair, 0.9) as f64 / 1e3,
            p.tail_pct,
            p.tail_us,
            r.backlog_end[idx] - r.backlog_start[idx],
            if holds { "holds" } else { "fails" }
        ));
        if !holds {
            break;
        }
        best = achieved;
    }
    best
}

/// Closed-loop PING round trips: transport plus event loop, with no
/// cache or kernel work. Returns the median in µs.
fn ping_probe(sock: &Path) -> Result<f64, String> {
    let mut c = Client::connect_unix(sock).map_err(|e| format!("ping connect: {e}"))?;
    let mut ns = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        c.ping().map_err(|e| format!("PING: {e}"))?;
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(summarize(&mut ns).p50_us)
}

/// Expected answer fingerprint of each operation, per acceptable
/// generation, computed on the `mem` engine.
fn reference_answers(
    ready: &Ready,
    mut distinct: Vec<Op>,
) -> Result<Vec<HashMap<Op, u64>>, String> {
    let g = &*ready.graph;
    distinct.sort_unstable_by_key(|op| match *op {
        Op::Pair(u, v) => (0, u, v),
        Op::Source(u) => (1, u, 0),
        Op::TopK(u) => (2, u, 0),
    });
    distinct.dedup();
    ready
        .references
        .iter()
        .map(|path| {
            let engine = SlingIndex::load(g, path)
                .map_err(|e| format!("load reference {}: {e}", path.display()))?
                .into_shared_engine();
            let mut line = String::new();
            distinct
                .iter()
                .map(|&op| {
                    line.clear();
                    let fp = match op {
                        Op::Pair(u, v) => engine
                            .single_pair(g, NodeId(u.min(v)), NodeId(u.max(v)))
                            .map(f64::to_bits),
                        Op::Source(u) => engine.single_source(g, NodeId(u)).map(|scores| {
                            let _ = write!(line, "OK {}", scores.len());
                            for s in scores {
                                let _ = write!(line, " {s}");
                            }
                            hash_bytes(line.as_bytes())
                        }),
                        Op::TopK(u) => engine.top_k(g, NodeId(u), TOPK_K).map(|top| {
                            let _ = write!(line, "OK {}", top.len());
                            for (node, s) in top {
                                let _ = write!(line, " {}:{s}", node.0);
                            }
                            hash_bytes(line.as_bytes())
                        }),
                    };
                    fp.map(|fp| (op, fp))
                        .map_err(|e| format!("reference {op:?}: {e}"))
                })
                .collect()
        })
        .collect()
}
