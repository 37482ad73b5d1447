//! Host and provenance record printed with every result, and the
//! process's peak resident set.

use std::path::Path;
use std::process::Command;

/// Worker threads the benchmark may keep busy.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and the threads it spawns afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the CPU cache at `level` (largest unified or data cache).
fn cache_size(level: &str) -> String {
    let root = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(root) else {
        return "unknown".to_string();
    };
    let read = |p: &Path, f: &str| std::fs::read_to_string(p.join(f)).unwrap_or_default();
    entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| read(p, "level").trim() == level && read(p, "type").trim() != "Instruction")
        .map(|p| read(&p, "size").trim().to_string())
        .next()
        .unwrap_or_else(|| "unknown".to_string())
}

fn last_level_cache() -> String {
    ["4", "3", "2"]
        .iter()
        .map(|l| cache_size(l))
        .find(|s| s != "unknown")
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit and dirty flag of the working directory when it is the top of
/// a git checkout; `unknown` otherwise (the benchmark also runs from
/// exported source trees).
fn git_state() -> (String, String) {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .map_or("unknown", |s| if s.is_empty() { "false" } else { "true" });
            (commit, dirty.to_string())
        }
        None => ("unknown".to_string(), "unknown".to_string()),
    }
}

/// One `host: key=value ..` line.
pub fn describe(seed: u64) -> String {
    let (commit, dirty) = git_state();
    format!(
        "host: nproc={} cpu=\"{}\" l2={} llc={} rustc=\"{}\" commit={} dirty={} profile={} seed={}",
        nproc(),
        cpu_model(),
        cache_size("2"),
        last_level_cache(),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit,
        dirty,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        seed
    )
}
