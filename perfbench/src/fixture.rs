//! Set-up phases shared by the workloads, each timed as a span around
//! one call into its layer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sling_core::{CompressOptions, SlingConfig, SlingIndex};
use sling_graph::generators::barabasi_albert;
use sling_graph::DiGraph;

use crate::host::nproc;
use crate::stats::median;
use crate::trace::Tracer;

/// SimRank decay factor.
pub const C: f64 = 0.6;
/// Error bound of every index: answers must be within it of the truth.
pub const EPS: f64 = 0.1;
/// Barabási–Albert attachment degree of both fixtures.
pub const BA_K: usize = 4;

/// Generator seed of both fixture graphs. The graphs are pinned so that
/// runs with different workload seeds measure the same fixture; the
/// workload seed drives build seeds, operation lists and arrivals.
pub const GRAPH_SEED: u64 = 2016;

/// Seconds spent in each named set-up phase, one entry per repetition.
#[derive(Default)]
pub struct Phases(BTreeMap<&'static str, Vec<f64>>);

impl Phases {
    pub fn add(&mut self, name: &'static str, secs: f64) {
        self.0.entry(name).or_default().push(secs);
    }

    /// Median of a phase over its occurrences; 0 if it never ran.
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(workload: &str) -> std::io::Result<RunDir> {
        let dir = Path::new(".bench_out").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn config(build_seed: u64) -> SlingConfig {
    SlingConfig::from_epsilon(C, EPS)
        .with_seed(build_seed)
        .with_threads(nproc())
}

pub fn gen_graph(
    tr: &mut Tracer,
    parent: Option<usize>,
    phases: &mut Phases,
    n: usize,
    seed: u64,
) -> Result<DiGraph, String> {
    let (g, s) = tr.phase("graph.gen", parent, || barabasi_albert(n, BA_K, seed));
    phases.add("graph.gen_s", s);
    g.map_err(|e| format!("generate BA({n},{BA_K}): {e}"))
}

pub fn build(
    tr: &mut Tracer,
    parent: Option<usize>,
    phases: &mut Phases,
    g: &DiGraph,
    build_seed: u64,
) -> Result<SlingIndex, String> {
    let (idx, s) = tr.phase("build", parent, || {
        SlingIndex::build(g, &config(build_seed))
    });
    phases.add("build.s", s);
    idx.map_err(|e| format!("build: {e}"))
}

pub fn save_v1(
    tr: &mut Tracer,
    parent: Option<usize>,
    phases: &mut Phases,
    idx: &SlingIndex,
    path: &Path,
) -> Result<(), String> {
    let (r, s) = tr.phase("format.save", parent, || idx.save(path));
    phases.add("format.save_s", s);
    r.map_err(|e| format!("save {}: {e}", path.display()))
}

/// Rewrite a v1 file as a lossless v3 file, as `sling compact` does.
pub fn compact_v3(
    tr: &mut Tracer,
    parent: Option<usize>,
    phases: &mut Phases,
    v1: &Path,
    v3: &Path,
) -> Result<(), String> {
    let (r, s) = tr.phase("format.compact", parent, || -> Result<(), String> {
        let bytes = std::fs::read(v1).map_err(|e| e.to_string())?;
        let idx = SlingIndex::decode(&bytes).map_err(|e| e.to_string())?;
        std::fs::write(v3, idx.to_bytes_v3(&CompressOptions::default())).map_err(|e| e.to_string())
    });
    phases.add("format.compact_s", s);
    r.map_err(|e| format!("compact {}: {e}", v1.display()))
}

/// `n`, `m` and the index size of a fixture, for the provenance line.
pub fn describe(name: &str, g: &DiGraph, index: &Path) -> Result<(String, u64), String> {
    let bytes = std::fs::metadata(index)
        .map_err(|e| format!("{}: {e}", index.display()))?
        .len();
    let line = format!(
        "fixture: {name} n={} m={} index_bytes={bytes}",
        g.num_nodes(),
        g.num_edges()
    );
    Ok((line, bytes))
}
