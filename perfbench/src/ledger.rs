//! The per-layer cost ledger: the benchmark's own spans (name, layer,
//! start, end, parent) around calls into the workspace's public functions.
//!
//! Spans are kept in memory and written once, at the end of a traced run,
//! as a Chrome trace. A layer's self time is the time of its spans minus
//! their child spans. Time the grid's own profiler attributes to event
//! kinds inside a span is charged to those kinds' layers as *inner* time,
//! so an event-loop span keeps only the calendar and loop overhead.
//!
//! A disabled ledger (the untraced runs) records nothing: every call is a
//! branch on a flag.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (`usize::MAX` when the ledger is disabled).
pub type SpanId = usize;

const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start: f64,
    end: f64,
    parent: Option<SpanId>,
    /// A measurement the workload itself would not make (e.g. re-timing a
    /// decode on the file just resumed from). Probes are reported per
    /// layer but are not part of the workload's wall time.
    probe: bool,
    /// Time inside this span charged to other layers without a span of
    /// their own (the grid profiler's per-event-kind buckets).
    inner: Vec<(&'static str, f64)>,
}

/// Span recorder plus layer accounting.
#[derive(Debug)]
pub struct Ledger {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Ledger {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn open_span(&mut self, name: &'static str, layer: &'static str, probe: bool) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            probe,
            inner: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Open a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        self.open_span(name, layer, false)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Run `f` inside a probe span (see [`Span::probe`]).
    pub fn probe<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open_span(name, layer, true);
        let out = f();
        self.end(id);
        out
    }

    /// Charge `seconds` inside span `id` to `layer`.
    pub fn attribute(&mut self, id: SpanId, layer: &'static str, seconds: f64) {
        if self.enabled && seconds > 0.0 {
            self.spans[id].inner.push((layer, seconds));
        }
    }

    fn duration(&self, id: SpanId) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Self seconds per layer over every closed span.
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_time[p] += self.duration(i);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let inner: f64 = s.inner.iter().map(|(_, t)| t).sum();
            *out.entry(s.layer).or_default() += (self.duration(i) - child_time[i] - inner).max(0.0);
            for &(layer, t) in &s.inner {
                *out.entry(layer).or_default() += t;
            }
        }
        out
    }

    /// Seconds covered by top-level, non-probe spans opened at or after
    /// `since` (seconds from the ledger's origin).
    pub fn covered_seconds(&self, since: f64) -> f64 {
        (0..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.parent.is_none() && !s.probe && s.start >= since
            })
            .map(|i| self.duration(i))
            .sum()
    }

    /// Seconds since the ledger's origin (for [`Ledger::covered_seconds`]).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The spans as Chrome trace-event JSON (`about://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let inner: Vec<String> = s
                .inner
                .iter()
                .map(|(layer, t)| format!("\"{layer}\":{t}"))
                .collect();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"probe\":{},\"inner_seconds\":{{{}}}}}}}",
                s.name,
                s.layer,
                s.start * 1e6,
                self.duration(i) * 1e6,
                s.probe,
                inner.join(",")
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }

    /// Write [`Ledger::chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {}
    }

    #[test]
    fn self_time_subtracts_children_and_inner_time() {
        let mut l = Ledger::new(true);
        let outer = l.begin("outer", "a");
        spin(0.004);
        l.time("child", "b", || spin(0.004));
        l.attribute(outer, "c", 0.002);
        l.end(outer);
        let layers = l.layer_seconds();
        let total = l.covered_seconds(0.0);
        assert!((layers["a"] + layers["b"] + layers["c"] - total).abs() < 1e-9);
        assert!(layers["b"] >= 0.004);
        assert_eq!(layers["c"], 0.002);
        let trace = l.chrome_trace();
        let doc: serde::Value = serde_json::from_str(&trace).expect("trace is JSON");
        assert!(doc.as_map().is_some());
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut l = Ledger::new(false);
        let id = l.begin("x", "a");
        l.attribute(id, "b", 1.0);
        l.end(id);
        assert!(l.layer_seconds().is_empty());
        assert_eq!(l.chrome_trace(), "{\"traceEvents\":[]}");
    }
}
