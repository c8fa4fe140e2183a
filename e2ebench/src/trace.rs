//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the
//! library's public functions (no instrumentation inside the library).
//! Each span carries a name `<layer>.<call>`, its start and end relative
//! to the tracer's origin, the span that caused it, and the op id of the
//! workload operation it belongs to. A layer's self time is its span's
//! duration minus the durations of the spans whose parent it is.
//!
//! Some layers only run inside a larger library call (the graph rebuild
//! and the per-query engines inside `QuerySession::apply_batch`, for
//! instance). The workloads re-drive the same input through those
//! layers' public functions after the timed call and record the
//! re-driven spans as children of the call they stand in for, so the
//! parent's self time is what remains once those layers are accounted.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `graph.with_triples`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin (`start` while open).
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The workload operation this span belongs to.
    pub op: u64,
}

/// Summed durations of every span of one name, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Sum of the spans' durations.
    pub total_s: f64,
    /// Sum of the spans' self times: duration minus the durations of
    /// the spans whose parent they are. Not clamped at zero: a re-driven
    /// child may run longer than the call it stands in for, and only the
    /// sum over many spans is meaningful.
    pub self_s: f64,
    /// Number of spans.
    pub count: usize,
}

/// Span recorder. When disabled, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off (the traced run alternates traced and
    /// untraced operations to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op: self.op,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanTotals> {
        let secs = |s: &Span| (s.end - s.start).as_secs_f64();
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += secs(s);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_time) {
            let e = out.entry(s.name).or_default();
            e.total_s += secs(s);
            e.self_s += secs(s) - children;
            e.count += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"op\": {}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let parent = t.open("session.apply_batch", None);
        std::thread::sleep(Duration::from_millis(2));
        t.close(parent);
        // A re-driven child recorded after its parent closed still
        // counts against the parent's self time.
        t.span("graph.with_triples", parent, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let by = t.by_name();
        let parent = by["session.apply_batch"];
        let child = by["graph.with_triples"];
        assert_eq!(parent.count, 1);
        assert_eq!(parent.self_s, parent.total_s - child.total_s);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("query.parse", None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}
