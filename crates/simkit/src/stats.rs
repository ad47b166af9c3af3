//! Statistics collectors for simulation output.
//!
//! * [`Tally`] — streaming mean/variance/min/max (Welford), O(1) memory.
//! * [`TimeWeighted`] — time-average of a piecewise-constant signal (queue
//!   lengths, busy processors).

use crate::time::SimTime;
use serde::{Deserialize, JsonWriter, Serialize, Value};

/// Streaming mean/variance/extremes via Welford's algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// Hand-written serde: an empty tally holds `min = +inf` / `max = -inf`, and
// JSON has no encoding for non-finite floats (the writer would emit `null`,
// which does not deserialize back into an `f64`). Finite values keep the
// plain float encoding; the infinities become the sentinel strings
// `"inf"` / `"-inf"` so a fresh tally survives a snapshot round-trip.
fn write_extreme(x: f64, out: &mut JsonWriter) {
    if x.is_finite() {
        out.f64(x);
    } else if x > 0.0 {
        out.str("inf");
    } else {
        out.str("-inf");
    }
}

fn extreme_from_value(value: &Value) -> Result<f64, serde::Error> {
    match value {
        Value::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Value::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        other => f64::from_value(other),
    }
}

impl Serialize for Tally {
    fn serialize(&self, out: &mut JsonWriter) {
        out.map(|map| {
            map.entry("n", &self.n);
            map.entry("mean", &self.mean);
            map.entry("m2", &self.m2);
            map.entry_with("min", |out| write_extreme(self.min, out));
            map.entry_with("max", |out| write_extreme(self.max, out));
        });
    }
}

impl Deserialize for Tally {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Tally"))?;
        let min = fields
            .iter()
            .find(|(k, _)| k == "min")
            .map(|(_, v)| extreme_from_value(v))
            .transpose()?
            .unwrap_or(f64::INFINITY);
        let max = fields
            .iter()
            .find(|(k, _)| k == "max")
            .map(|(_, v)| extreme_from_value(v))
            .transpose()?
            .unwrap_or(f64::NEG_INFINITY);
        Ok(Tally {
            n: serde::field(fields, "n")?,
            mean: serde::field(fields, "mean")?,
            m2: serde::field(fields, "m2")?,
            min,
            max,
        })
    }
}

impl Tally {
    /// Empty tally.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another tally into this one (parallel reduction).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-average of a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the collector
/// integrates `value × elapsed-time` between updates.
///
/// # Timestamp semantics
///
/// * **Zero-duration updates** — several `set` calls at the same instant
///   are legal: each contributes zero to the integral and the last value
///   wins (the signal is right-continuous).
/// * **Out-of-order timestamps** — updates are *clamped*, not rejected: an
///   update earlier than the last one contributes zero elapsed time and the
///   internal clock never moves backwards. In a correctly ordered
///   discrete-event simulation this cannot happen; clamping means a stray
///   caller can at worst lose the (non-causal) interval, never corrupt the
///   integral with a negative contribution. Each clamp is *counted*
///   ([`TimeWeighted::clamped`], serialized with the collector), so a
///   misbehaving caller shows up in snapshots instead of silently losing
///   intervals.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimeWeighted {
    value: f64,
    last_update: SimTime,
    start: SimTime,
    integral: f64,
    max: f64,
    /// Out-of-order updates clamped to zero elapsed time.
    #[serde(default)]
    clamped: u64,
}

impl TimeWeighted {
    /// Start tracking at `start` with the given initial value.
    pub fn new(start: SimTime, initial: f64) -> Self {
        Self {
            value: initial,
            last_update: start,
            start,
            integral: 0.0,
            max: initial,
            clamped: 0,
        }
    }

    /// Record a change of the signal to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
        self.max = self.max.max(value);
    }

    /// Add `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current instantaneous value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Highest value observed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// How many updates arrived with an out-of-order timestamp and were
    /// clamped to zero elapsed time. Always 0 for a correctly ordered
    /// caller; anything else marks the collector's integral as lossy.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Time-averaged value over `[start, now]`.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let total = now.saturating_since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.value;
        }
        let pending = now.saturating_since(self.last_update).as_secs_f64() * self.value;
        (self.integral + pending) / total
    }

    fn advance(&mut self, now: SimTime) {
        // Out-of-order `now` is clamped: saturating elapsed time (zero for
        // non-causal updates) and a monotone last_update. See the type-level
        // docs for the full timestamp semantics.
        if now < self.last_update {
            self.clamped += 1;
        }
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        self.integral += dt * self.value;
        self.last_update = now.max(self.last_update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn tally_mean_var() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // population var is 4.0; sample var = 32/7
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
        assert_eq!(t.count(), 8);
        assert!((t.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn tally_empty_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn tally_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn tally_single_observation() {
        let mut t = Tally::new();
        t.record(3.5);
        assert_eq!(t.count(), 1);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.variance(), 0.0, "n = 1 has no sample variance");
        assert_eq!(t.std_dev(), 0.0);
        assert_eq!(t.min(), Some(3.5));
        assert_eq!(t.max(), Some(3.5));
        assert_eq!(t.sum(), 3.5);
    }

    #[test]
    fn tally_merge_with_empty_is_identity() {
        let mut a = Tally::new();
        a.record(1.0);
        a.record(2.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Tally::new());
        assert_eq!((a.count(), a.mean(), a.variance()), before);
        let mut empty = Tally::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), a.mean());
    }

    #[test]
    fn tally_serde_roundtrip_including_empty() {
        // Empty tally: the ±inf extremes must survive JSON (as sentinels).
        let empty = Tally::new();
        let json = serde_json::to_string(&empty).unwrap();
        let back: Tally = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), None);
        assert_eq!(back.max(), None);
        // A recorded observation still lands as the new min/max.
        let mut resumed = back;
        resumed.record(4.0);
        assert_eq!(resumed.min(), Some(4.0));
        assert_eq!(resumed.max(), Some(4.0));

        // Non-empty tally: exact bit-level state round-trips.
        let mut t = Tally::new();
        for x in [2.0, 4.0, 7.5] {
            t.record(x);
        }
        let json = serde_json::to_string(&t).unwrap();
        let back: Tally = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.count(), t.count());
        assert_eq!(back.mean().to_bits(), t.mean().to_bits());
        assert_eq!(back.variance().to_bits(), t.variance().to_bits());
        assert_eq!(back.min(), t.min());
        assert_eq!(back.max(), t.max());
    }

    #[test]
    fn time_weighted_zero_duration_updates() {
        let t0 = SimTime::from_secs(10);
        let mut tw = TimeWeighted::new(t0, 1.0);
        // Two updates at the same instant: zero elapsed time each, last
        // value wins, max still observes the transient.
        tw.set(t0, 9.0);
        tw.set(t0, 2.0);
        assert_eq!(tw.value(), 2.0);
        assert_eq!(tw.max(), 9.0);
        // With no elapsed time at all, the average degenerates to the
        // current value.
        assert_eq!(tw.time_average(t0), 2.0);
        // Only the final value integrates forward.
        let later = t0 + SimDuration::from_secs(10);
        assert!((tw.time_average(later) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_out_of_order_updates_are_clamped() {
        let t0 = SimTime::ZERO;
        let mut tw = TimeWeighted::new(t0, 0.0);
        tw.set(t0 + SimDuration::from_secs(10), 5.0);
        // A non-causal update strictly earlier than the last one: clamped to
        // zero elapsed time (no negative contribution), value still applied.
        tw.set(t0 + SimDuration::from_secs(5), 7.0);
        assert_eq!(tw.value(), 7.0);
        let now = t0 + SimDuration::from_secs(20);
        // [0,10): 0.0; [10,20): 7.0 — the out-of-order 5.0→7.0 switch
        // happened "at" t=10 as far as the integral is concerned.
        assert!((tw.time_average(now) - (10.0 * 7.0) / 20.0).abs() < 1e-12);
        // The misbehaviour is counted, not silent; a same-instant update is
        // legal (zero duration) and does not count as a clamp.
        assert_eq!(tw.clamped(), 1);
        tw.set(t0 + SimDuration::from_secs(10), 1.0);
        assert_eq!(tw.clamped(), 1);
        // The count rides serde so snapshots expose it.
        let json = serde_json::to_string(&tw).unwrap();
        assert!(json.contains("\"clamped\":1"), "{json}");
        let back: TimeWeighted = serde_json::from_str(&json).unwrap();
        assert_eq!(back.clamped(), 1);
    }

    #[test]
    fn time_weighted_average() {
        let t0 = SimTime::ZERO;
        let mut tw = TimeWeighted::new(t0, 0.0);
        tw.set(t0 + SimDuration::from_secs(10), 5.0); // 0 for 10s
        tw.set(t0 + SimDuration::from_secs(20), 1.0); // 5 for 10s
        let now = t0 + SimDuration::from_secs(30); // 1 for 10s
        let avg = tw.time_average(now);
        assert!((avg - (0.0 * 10.0 + 5.0 * 10.0 + 1.0 * 10.0) / 30.0).abs() < 1e-9);
        assert_eq!(tw.max(), 5.0);
        assert_eq!(tw.value(), 1.0);
    }

    #[test]
    fn time_weighted_add() {
        let t0 = SimTime::ZERO;
        let mut tw = TimeWeighted::new(t0, 2.0);
        tw.add(t0 + SimDuration::from_secs(5), 3.0);
        assert_eq!(tw.value(), 5.0);
    }
}
