//! Deterministic structured telemetry: an event bus and a metrics registry.
//!
//! The paper's production grid was held together by continuous monitoring
//! (scheduler providers feeding an MDS database); this module provides the
//! simulation-side equivalent as reusable primitives. Everything here is
//! **deterministic by construction**:
//!
//! * records are stamped with [`SimTime`] passed in by the caller — no
//!   wall-clock is ever read, so replaying a seeded scenario produces
//!   bit-identical telemetry;
//! * no randomness is consumed and no simulation events are scheduled —
//!   instrumentation can never perturb the run it observes;
//! * every aggregate uses ordered containers (`BTreeMap`, `Vec`) so
//!   serialized snapshots are byte-stable across runs.
//!
//! The pieces:
//!
//! * [`EventBus`] — a ring-buffered log of structured, sim-time-stamped
//!   [`Event`]s with exact per-kind counts (the ring bounds memory, the
//!   counts never truncate);
//! * [`MetricsRegistry`] — named [counters](MetricsRegistry::add),
//!   [gauges](MetricsRegistry::set_gauge), and fixed-bucket
//!   [`Histogram`]s;
//! * bucket presets ([`latency_buckets_seconds`],
//!   [`staleness_buckets_seconds`]) shared by the grid instrumentation so
//!   artifacts are comparable across experiments.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A typed value attached to an event field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer (counts, ids, microsecond timestamps).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (seconds, rates, scores).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (names, reject reasons).
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $cast:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}

impl_field_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Event {
    /// Monotone sequence number (order of emission, stable under replay).
    pub seq: u64,
    /// Simulation time of the happening.
    pub time: SimTime,
    /// Event kind in dotted taxonomy form (e.g. `"job.dispatch"`,
    /// `"recovery.blacklist"`). The segment before the first dot is the
    /// emitting component.
    pub kind: String,
    /// Typed payload, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} #{} {}]", self.time, self.seq, self.kind)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Ring-buffered structured event log with exact per-kind counts.
///
/// The ring keeps the most recent `capacity` events for inspection; the
/// per-kind counters and the emitted/dropped totals are exact over the whole
/// run regardless of ring evictions.
///
/// The serde form is the full checkpoint state (distinct from
/// [`EventBus::snapshot`], which is the *observer* view): capacity and the
/// ring itself are preserved so a restored bus continues evicting exactly
/// where the original would.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventBus {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    counts: BTreeMap<String, u64>,
    recent: VecDeque<Event>,
}

impl EventBus {
    /// A bus retaining at most `capacity` recent events.
    pub fn new(capacity: usize) -> EventBus {
        EventBus {
            capacity,
            next_seq: 0,
            dropped: 0,
            counts: BTreeMap::new(),
            recent: VecDeque::new(),
        }
    }

    /// Emit one event. `fields` are cloned into the record.
    pub fn emit(&mut self, time: SimTime, kind: &str, fields: &[(&str, FieldValue)]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        *self.counts.entry(kind.to_string()).or_insert(0) += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.recent.len() == self.capacity {
            self.recent.pop_front();
            self.dropped += 1;
        }
        self.recent.push_back(Event {
            seq,
            time,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Total events emitted over the bus's lifetime.
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from (or never stored in) the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &Event> {
        self.recent.iter()
    }

    /// Exact lifetime count per event kind.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Lifetime count of one kind (0 if never emitted).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Serializable view: totals, per-kind counts, and the retained ring.
    pub fn snapshot(&self) -> EventBusSnapshot {
        EventBusSnapshot {
            emitted: self.emitted(),
            dropped: self.dropped(),
            counts: self.counts.clone(),
            recent: self.recent.iter().cloned().collect(),
        }
    }
}

/// Serializable view of an [`EventBus`] at one instant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventBusSnapshot {
    /// Total events emitted.
    pub emitted: u64,
    /// Events no longer retained in the ring.
    pub dropped: u64,
    /// Exact lifetime count per event kind.
    pub counts: BTreeMap<String, u64>,
    /// The retained ring, oldest first.
    pub recent: Vec<Event>,
}

/// A fixed-bucket histogram.
///
/// Buckets are defined by ascending upper bounds: observation `x` lands in
/// the first bucket whose bound satisfies `x <= bound`, or in the implicit
/// overflow bucket past the last bound. Bounds are fixed at construction so
/// two runs (or two resources) always bucket identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Histogram {
    /// Histogram with the given ascending, finite upper bounds.
    ///
    /// # Panics
    /// Panics on empty, non-finite, or non-ascending bounds.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the bucket holding the target rank. Returns
    /// `None` if empty. The estimate is deterministic and monotone in `q`;
    /// observations in the overflow bucket interpolate between the last
    /// bound and the recorded maximum (the histogram keeps exact min/max,
    /// so the extremes are never invented).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= target && c > 0 {
                let frac = ((target - cumulative as f64) / c as f64).clamp(0.0, 1.0);
                let lo = if i == 0 {
                    self.min.expect("non-empty")
                } else {
                    self.bounds[i - 1]
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max.expect("non-empty")).max(lo)
                } else {
                    self.max.expect("non-empty").max(lo)
                };
                return Some(lo + (hi - lo) * frac);
            }
            cumulative = next;
        }
        self.max
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Shared bucket preset for job latencies, in seconds: one minute up to a
/// week, roughly log-spaced. Used for queue/dispatch/run/turnaround
/// decompositions so every experiment's artifact buckets identically.
pub fn latency_buckets_seconds() -> Vec<f64> {
    vec![
        60.0,
        300.0,
        900.0,
        3_600.0,
        4.0 * 3_600.0,
        12.0 * 3_600.0,
        86_400.0,
        3.0 * 86_400.0,
        7.0 * 86_400.0,
    ]
}

/// Shared bucket preset for monitoring staleness (inter-report gaps), in
/// seconds: from one report interval up to hours of silence.
pub fn staleness_buckets_seconds() -> Vec<f64> {
    vec![120.0, 150.0, 300.0, 600.0, 1_800.0, 3_600.0, 6.0 * 3_600.0]
}

/// Named counters, gauges, and fixed-bucket histograms.
///
/// All maps are ordered, so serializing a registry yields byte-stable JSON
/// under replay.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add 1 to counter `name` (created at 0 on first use).
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Add `n` to counter `name` (created at 0 on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record `x` into histogram `name`, creating it with `bounds` on first
    /// use. Later calls ignore `bounds` (the first registration wins), so
    /// buckets stay fixed for the registry's lifetime.
    pub fn observe(&mut self, name: &str, bounds: &[f64], x: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(x);
    }

    /// Histogram `name`, if any observation created it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, ordered by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, ordered by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, ordered by name.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_counts_are_exact_despite_ring_eviction() {
        let mut bus = EventBus::new(2);
        for i in 0..5u64 {
            bus.emit(SimTime::from_secs(i), "job.dispatch", &[("job", i.into())]);
        }
        bus.emit(SimTime::from_secs(9), "job.complete", &[]);
        assert_eq!(bus.emitted(), 6);
        assert_eq!(bus.dropped(), 4);
        assert_eq!(bus.count("job.dispatch"), 5);
        assert_eq!(bus.count("job.complete"), 1);
        let recent: Vec<&str> = bus.recent().map(|e| e.kind.as_str()).collect();
        assert_eq!(recent, vec!["job.dispatch", "job.complete"]);
        // Sequence numbers survive eviction.
        assert_eq!(bus.recent().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn zero_capacity_bus_still_counts() {
        let mut bus = EventBus::new(0);
        bus.emit(SimTime::ZERO, "x", &[]);
        assert_eq!(bus.emitted(), 1);
        assert_eq!(bus.dropped(), 1);
        assert_eq!(bus.count("x"), 1);
        assert_eq!(bus.recent().count(), 0);
    }

    #[test]
    fn event_display() {
        let mut bus = EventBus::new(4);
        bus.emit(
            SimTime::from_secs(1),
            "recovery.backoff",
            &[("job", 7u64.into()), ("delay_s", 30.0.into())],
        );
        let ev = bus.recent().next().unwrap();
        assert_eq!(
            ev.to_string(),
            "[1.000s #0 recovery.backoff] job=7 delay_s=30"
        );
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        h.observe(10.0); // first bucket: x <= bound
        h.observe(10.5); // second bucket
        h.observe(100.0); // second bucket
        h.observe(1e6); // overflow
        assert_eq!(h.bucket_counts(), &[1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(10.0));
        assert_eq!(h.max(), Some(1e6));
        assert!((h.sum() - (10.0 + 10.5 + 100.0 + 1e6)).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.95), None);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[10.0, 100.0, 1000.0]);
        for _ in 0..90 {
            h.observe(5.0);
        }
        for _ in 0..10 {
            h.observe(500.0);
        }
        // p50 lands in the first bucket, p95 in the third.
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 10.0, "{p50}");
        let p95 = h.quantile(0.95).unwrap();
        assert!((100.0..=500.0).contains(&p95), "{p95}");
        // Monotone in q; extremes come from the exact min/max.
        assert!(h.quantile(0.1).unwrap() <= h.quantile(0.9).unwrap());
        assert_eq!(h.quantile(1.0), Some(500.0));
        // One observation: every quantile is that observation's bucket.
        let mut single = Histogram::new(&[10.0]);
        single.observe(3.0);
        let q = single.quantile(0.95).unwrap();
        assert!((3.0..=10.0).contains(&q), "{q}");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn bad_bounds_rejected() {
        let _ = Histogram::new(&[5.0, 5.0]);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.incr("jobs.completed");
        m.add("jobs.completed", 2);
        m.set_gauge("queue.depth", 4.0);
        m.observe("turnaround", &[10.0, 100.0], 42.0);
        m.observe("turnaround", &[999.0], 5.0); // bounds ignored after creation
        assert_eq!(m.counter("jobs.completed"), 3);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("queue.depth"), Some(4.0));
        let h = m.histogram("turnaround").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.bounds(), &[10.0, 100.0]);
    }

    #[test]
    fn registry_serialization_is_ordered_and_stable() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.incr("z.last");
            m.incr("a.first");
            m.set_gauge("mid", 1.5);
            m.observe("h", &latency_buckets_seconds(), 120.0);
            serde_json::to_string(&m).unwrap()
        };
        let a = build();
        assert_eq!(a, build());
        // BTreeMap ordering: "a.first" serialized before "z.last".
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i32), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(1.5f64), FieldValue::F64(1.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }

    #[test]
    fn bus_and_registry_serde_roundtrip_byte_stable() {
        let mut bus = EventBus::new(2);
        for i in 0..4u64 {
            bus.emit(
                SimTime::from_secs(i),
                "job.dispatch",
                &[
                    ("job", i.into()),
                    ("ok", true.into()),
                    ("who", "lrm".into()),
                ],
            );
        }
        let json = serde_json::to_string(&bus).unwrap();
        let mut back: EventBus = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.emitted(), bus.emitted());
        assert_eq!(back.dropped(), bus.dropped());
        // The restored ring keeps evicting at the original capacity.
        back.emit(SimTime::from_secs(9), "x", &[]);
        assert_eq!(back.recent().count(), 2);
        assert_eq!(back.emitted(), 5);

        let mut m = MetricsRegistry::new();
        m.incr("a");
        m.set_gauge("g", 2.5);
        m.observe("h", &latency_buckets_seconds(), 120.0);
        let json = serde_json::to_string(&m).unwrap();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.counter("a"), 1);
        assert_eq!(back.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn bus_snapshot_roundtrips_to_json() {
        let mut bus = EventBus::new(8);
        bus.emit(
            SimTime::from_secs(3),
            "mds.report",
            &[("resource", 1u64.into())],
        );
        let snap = bus.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("mds.report"));
        assert_eq!(snap.emitted, 1);
    }
}
