//! End-to-end and per-layer benchmark of the SLING workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--reps R]
//! ```
//!
//! One run measures one workload in this fresh process and prints the
//! host record, the fixture, every metric by name with its unit, and as
//! its last line one JSON object `{correct, attempted, failed, metrics}`.
//! `--workload all` runs every workload `--reps` times, each in its own
//! child process, rotating the workload order between repetitions. Any
//! failed operation or correctness check makes the exit code non-zero.
//! README.md in this directory defines the workloads and metrics.

mod calib;
mod fixture;
mod host;
mod kernel;
mod ops;
mod report;
mod serve;
mod stats;
mod trace;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sling_core::index::BuildStats;
use sling_server::protocol::Request;

use fixture::Phases;
use kernel::KernelSpec;
use report::Report;
use serve::ServeSpec;
use stats::Summary;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "kernel-ba2k",
    "kernel-ba100k-v3",
    "serve-zipf",
    "serve-reload",
];

/// Untimed warm-up before every timed window.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Small-fixture set-ups are repeated and `setup_s` is their median; the
/// large fixture's build takes most of a run, so it is set up once.
const SETUP_REPS_SMALL: usize = 5;

const KERNEL_BA2K: KernelSpec = KernelSpec {
    name: "kernel-ba2k",
    nodes: 2000,
    compressed: false,
    op_len: 1 << 15,
    setup_reps: SETUP_REPS_SMALL,
    truth: true,
    // A 0.2 s build on two vCPUs is dominated by cross-vCPU wake-ups,
    // and its time varied by half between runs; serial, it holds.
    one_cpu: true,
};

const KERNEL_BA100K_V3: KernelSpec = KernelSpec {
    name: "kernel-ba100k-v3",
    nodes: 100_000,
    compressed: true,
    op_len: 1 << 13,
    setup_reps: 1,
    truth: false,
    one_cpu: false,
};

/// Offered rate of `serve-zipf`'s fixed phase, near half of what one
/// worker sustains on the sizing host (README.md).
const SERVE_RATE: f64 = 20_000.0;

const SERVE_ZIPF: ServeSpec = ServeSpec {
    name: "serve-zipf",
    nodes: 2000,
    reload: false,
    rate: SERVE_RATE,
    ladder: &[1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0],
    fixed_share: 0.4,
    ladder_share: 0.3,
    setup_reps: SETUP_REPS_SMALL,
};

const SERVE_RELOAD: ServeSpec = ServeSpec {
    name: "serve-reload",
    nodes: 2000,
    reload: true,
    rate: SERVE_RATE / 2.0,
    ladder: &[],
    fixed_share: 0.5,
    ladder_share: 0.0,
    setup_reps: SETUP_REPS_SMALL,
};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    reps: usize,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            reps: 1,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number {v:?}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = num(&value)?,
                "--seconds" => args.seconds = num(&value)?.max(1),
                "--trace" => args.trace = num(&value)? != 0,
                "--reps" => args.reps = num(&value)?.max(1) as usize,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// Operations attempted and failed, and why a run is not correct.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count `n` failed operations.
    pub fn fail(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed += n;
            self.problems.push(format!("{n} operations failed: {what}"));
        }
    }

    /// Reject the run's measurement without blaming an operation.
    pub fn invalid(&mut self, why: String) {
        self.problems.push(why);
    }
}

/// Record `<verb>_p50_us` and `<verb>_p99_us`, with the sample count and
/// the percentile the tail stands for in the notes.
pub fn set_latency(report: &mut Report, verb: &str, s: &Summary) {
    let (p50, p99) = match verb {
        "pair" => ("pair_p50_us", "pair_p99_us"),
        "source" => ("source_p50_us", "source_p99_us"),
        _ => ("topk_p50_us", "topk_p99_us"),
    };
    report.set(p50, s.p50_us);
    report.set(p99, s.tail_us);
    report.notes.push(format!(
        "latency: {verb} n={} p50={:.3}us p{:.2}={:.3}us",
        s.count, s.p50_us, s.tail_pct, s.tail_us
    ));
}

/// Median set-up phase times.
pub fn set_phase_metrics(report: &mut Report, phases: &Phases) {
    for name in [
        "graph.gen_s",
        "build.s",
        "format.save_s",
        "format.compact_s",
        "store.open_s",
        "lifecycle.publish_s",
        "lifecycle.promote_s",
    ] {
        report.set(name, phases.median(name));
    }
}

pub fn set_build_stats(report: &mut Report, stats: &BuildStats) {
    report.set("build.entries_stored", stats.entries_stored as f64);
    report.set("build.reduced_nodes", stats.reduced_nodes as f64);
    report.set("build.dk_samples", stats.dk_samples as f64);
}

/// Mean `Request::parse` time over the workload's own request lines.
pub fn protocol_parse_ns(ops: &[ops::Op]) -> f64 {
    let lines = ops::request_lines(&ops[..ops.len().min(20_000)]);
    let t0 = Instant::now();
    let mut parsed = 0u64;
    while t0.elapsed() < Duration::from_millis(20) {
        for line in &lines {
            let _ = black_box(Request::parse(black_box(line)));
        }
        parsed += lines.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / parsed.max(1) as f64
}

/// Write a traced run's spans next to the other run output.
pub fn write_spans(tr: &trace::Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path =
        std::path::Path::new(".bench_out").join(format!("spans-{workload}-seed{seed}.jsonl"));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(())
}

fn run_one(args: &Args) -> ExitCode {
    println!("{}", host::describe(args.seed));
    let mut report = Report::default();
    for (name, _) in report::PER_LAYER {
        // A layer the workload does not exercise reads 0.
        report.set(name, 0.0);
    }
    let mut cal = calib::Calibration::new();
    let result = match args.workload.as_str() {
        "kernel-ba2k" => kernel::run(&KERNEL_BA2K, args, &mut report, &mut cal),
        "kernel-ba100k-v3" => kernel::run(&KERNEL_BA100K_V3, args, &mut report, &mut cal),
        "serve-zipf" => serve::run(&SERVE_ZIPF, args, &mut report, &mut cal),
        _ => serve::run(&SERVE_RELOAD, args, &mut report, &mut cal),
    };
    let tally = match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let factor = cal.factor();
    report.notes.push(format!(
        "calibration: {} units, reference speed / this run's speed = {factor:.4}; times below \
         are in reference-host units (divide by the factor for raw times)",
        cal.units()
    ));
    report.normalize(factor);
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "metrics ({}):",
        if args.trace {
            "traced run"
        } else {
            "untraced run"
        }
    );
    print!("{}", report.table());
    for p in &tally.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = tally.problems.is_empty();
    match report.result_line(correct, tally.attempted, tally.failed, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload `reps` times, each in a fresh child process, with the
/// workload order rotated between repetitions.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for rep in 0..args.reps {
        for k in 0..WORKLOADS.len() {
            let workload = WORKLOADS[(rep + k) % WORKLOADS.len()];
            let seed = args.seed + rep as u64;
            println!("== {workload} seed={seed} rep={rep}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
                 [--reps R]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
