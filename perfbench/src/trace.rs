//! Outside-in spans: the benchmark times its own calls into each layer.
//!
//! Set-up phases are always timed (they feed `setup_s`). Per-operation
//! spans are recorded only in traced runs, kept in memory up to a cap,
//! and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Per-operation spans kept for the written trace; later ones are
/// counted but not stored.
const SPAN_CAP: usize = 50_000;

pub struct Span {
    pub name: &'static str,
    /// Operation or request id shared by the spans of one operation
    /// (0 for set-up phases).
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Per-stage breakdown reported by the layer, when it has one.
    pub detail: Option<String>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        detail: Option<String>,
    ) -> Option<usize> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            detail,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Time `f` as a span and return its result with the elapsed seconds.
    pub fn phase<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.record(name, 0, parent, t0, t1, None);
        (r, (t1 - t0).as_secs_f64())
    }

    /// Start a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let now = Instant::now();
        self.record(name, 0, None, now, now, None)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        let end = self.ns(Instant::now());
        if let Some(span) = idx.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end;
        }
    }

    /// Self time of every span: its duration minus the union of its
    /// direct children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                children[p].push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Write every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}",
                s.name,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self_ns[i]
            )?;
            if let Some(d) = &s.detail {
                write!(out, ", {d}")?;
            }
            writeln!(out, "}}")?;
        }
        writeln!(out, "{{\"dropped_spans\": {}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ms| o + Duration::from_millis(ms);
        let p = t.record("setup", 0, None, at(0), at(100), None);
        t.record("a", 0, p, at(10), at(40), None);
        t.record("b", 0, p, at(30), at(50), None);
        t.record("c", 0, p, at(90), at(120), None);
        assert_eq!(t.self_times()[p.unwrap()], 50_000_000);
    }
}
