//! The benchmark's own span recorder for the layered replay: one span around
//! every call into a layer's public functions, kept in memory and written once
//! when the workload ends. (Spans *inside* the crates are `pvc_core::obs`'s
//! business; the replay only brackets the calls it makes itself.)

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call: which layer, when, caused by which span, for which op.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// An in-memory span log. Single-threaded: the replay drives one operation at
/// a time from the main thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Run `f` as the root span of operation `op`: every span inside carries
    /// the operation's identifier.
    pub fn op<R>(&mut self, op: usize, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.op = op;
        self.scope("op", f)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name in seconds: a span's duration minus the part of
    /// it its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::new();
        spans.op(7, |s| {
            s.scope("outer", |s| {
                s.scope("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                });
            });
        });
        assert_eq!(spans.len(), 3);
        let own = spans.self_seconds();
        assert!(own["inner"] >= 0.004);
        // `outer` and `op` did nothing but call their child.
        assert!(own["outer"] < 0.002, "outer self time {}", own["outer"]);
        assert!(own["op"] < 0.002);
        assert!(spans.spans.iter().all(|s| s.op == 7));
        assert_eq!(spans.spans[2].parent, Some(1));
    }
}
