//! The benchmark's own span recorder: spans around the calls it makes into
//! each layer, kept in memory and written out when the run ends.
//!
//! A span has a name (`layer.call`), a start and an end in nanoseconds
//! since the recorder was created, the index of its parent span and an op
//! id shared by every span of one benchmark op. Recording is off in
//! untraced runs: `begin` is then one branch and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans beyond this many are counted but not stored, which bounds the
/// recorder's memory on long traced runs.
const MAX_SPANS: usize = 4_000_000;

/// Sentinel id returned by `begin` when nothing was recorded.
pub const NO_SPAN: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    op: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
    work: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
            work: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (spans already open still close).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_SPAN;
        }
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes a span opened by `begin`; spans close innermost first.
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Records a finished span that started at `started` and ends now,
    /// without nesting (for requests that overlap on one thread).
    pub fn record(&mut self, name: &'static str, op: u64, started: Instant) {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return;
        }
        let end_ns = self.now_ns();
        let start_ns = started.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: NO_SPAN,
            op,
        });
    }

    /// Adds units of work (tasks, dependences) done under a span name, so
    /// per-task costs are measured where the work happens.
    pub fn add_work(&mut self, name: &'static str, units: u64) {
        if self.on {
            *self.work.entry(name).or_insert(0) += units;
        }
    }

    /// Units of work recorded under a name.
    pub fn work(&self, name: &str) -> u64 {
        self.work.get(name).copied().unwrap_or(0)
    }

    /// Total span nanoseconds per unit of work under the same name.
    pub fn ns_per_unit(&self, name: &str, work: &str) -> f64 {
        self.total_ns(name) / self.work(work).max(1) as f64
    }

    /// Mean duration of the spans with this name, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Durations in nanoseconds of every recorded span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total nanoseconds spent in spans with this name.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Per span name: (count, total ns, self ns). A span's self time is its
    /// duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(kids);
        }
        by_name
    }

    /// Self time summed per layer (the span name up to its first `.`).
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut layers = BTreeMap::new();
        for (name, (_, _, self_ns)) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *layers.entry(layer).or_insert(0) += self_ns;
        }
        layers
    }

    /// Spans counted but not stored because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a.outer", 1);
        let inner = t.begin("b.inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let st = t.self_times();
        let (n, total, self_ns) = st["a.outer"];
        assert_eq!(n, 1);
        assert!(self_ns < total);
        assert!(st["b.inner"].1 >= 2_000_000);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a.x", 0);
        t.end(id);
        assert!(t.self_times().is_empty());
    }
}
