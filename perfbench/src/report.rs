//! Metric vocabulary and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names declared in the
//! repository's `BENCHMARK.json`, with their units; a test keeps the two
//! in step. README.md in this directory defines every name.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics of untraced runs: every workload emits every one, never zero.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pair_p50_us", "us"),
    ("source_p50_us", "us"),
    ("topk_p50_us", "us"),
    ("ops_per_s", "op/s"),
    ("index_bytes", "B"),
    ("rss_peak_mb", "MiB"),
];

/// Metrics of traced runs. A layer a workload does not use reads 0. The
/// first five and the last four are end-to-end quantities that are not
/// gated: tails and open-loop latency are set by hypervisor steal on
/// shared hosts, and the last four exist on one workload each
/// (README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.speed_factor", "x"),
    ("pair_p99_us", "us"),
    ("source_p99_us", "us"),
    ("topk_p99_us", "us"),
    ("open.pair_p50_us", "us"),
    ("open.pair_p99_us", "us"),
    ("graph.gen_s", "s"),
    ("build.s", "s"),
    ("build.entries_stored", "count"),
    ("build.reduced_nodes", "count"),
    ("build.dk_samples", "count"),
    ("format.save_s", "s"),
    ("format.compact_s", "s"),
    ("format.payload_bytes", "B"),
    ("store.open_s", "s"),
    ("store.restore_hit_rate", "frac"),
    ("store.block_decodes_per_op", "count/op"),
    ("store.bytes_read_per_op", "B/op"),
    ("store.resident_bytes", "B"),
    ("pair.span_ns", "ns"),
    ("pair.entry_fetch_ns", "ns"),
    ("pair.restore_ns", "ns"),
    ("pair.merge_ns", "ns"),
    ("pair.restore_frac", "frac"),
    ("pair.gallop_frac", "frac"),
    ("kernel.pair_self_ns", "ns"),
    ("source.span_ns", "ns"),
    ("source.restore_ns", "ns"),
    ("source.propagate_ns", "ns"),
    ("source.frontier_words_per_op", "count/op"),
    ("kernel.source_self_ns", "ns"),
    ("topk.span_ns", "ns"),
    ("topk.propagate_ns", "ns"),
    ("topk.select_ns", "ns"),
    ("cache.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("cache.admission_rejects", "count"),
    ("cache.hit_rate_after_swap", "frac"),
    ("protocol.parse_ns", "ns"),
    ("server.dispatch_p50_us", "us"),
    ("server.dispatch_p99_us", "us"),
    ("server.unattributed_p50_us", "us"),
    ("evloop.turns_per_req", "count/req"),
    ("evloop.wakeups_per_req", "count/req"),
    ("server.shed", "count"),
    ("server.deadline_exceeded", "count"),
    ("client.ping_rtt_p50_us", "us"),
    ("client.gen_lag_p99_us", "us"),
    ("lifecycle.publish_s", "s"),
    ("lifecycle.promote_s", "s"),
    ("lifecycle.swaps", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("max_rate_qps", "req/s"),
    ("reload_s", "s"),
    ("max_abs_err", "score"),
    ("ops_failed_frac", "frac"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Measured values by name, plus free-form notes printed before the
/// result line.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric; the name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// Express every time in reference-host seconds and every rate in
    /// reference-host operations per second (see `calib`).
    pub fn normalize(&mut self, factor: f64) {
        for (name, v) in self.values.iter_mut() {
            match unit_of(name) {
                Some("s" | "us" | "ns") => *v *= factor,
                Some("op/s" | "req/s") => *v /= factor,
                _ => {}
            }
        }
        self.set("host.speed_factor", factor);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Human-readable listing of every recorded metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "  {name:<32} {v:>16.4} {unit}");
            }
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, where the metrics are the end-to-end set for untraced
    /// runs and the per-layer set for traced ones. A declared metric the
    /// workload did not record is an error.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        traced: bool,
    ) -> Result<String, String> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{metrics}}}}}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// `"name": "<value>"` strings of one top-level array of BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array ends")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\""))?;
                    let rest = &obj[at + f.len() + 2..];
                    let open = rest.find('"')? + 1;
                    let close = open + rest[open..].find('"')?;
                    Some(rest[open..close].to_string())
                };
                (field("name").expect("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_emitted_name_is_valid_and_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = declared(&json, key);
            let ours: Vec<(String, Option<String>)> = ours
                .iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(ours, theirs, "{key} differs from BENCHMARK.json");
            assert!(ours.iter().all(|(n, _)| valid_name(n)));
        }
        let workloads: Vec<String> = declared(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|p| p.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn result_line_requires_every_metric_of_its_set() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(true, 10, 0, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.result_line(true, 10, 0, true).is_err());
    }
}
