//! The pending-event queue.
//!
//! A *calendar queue* (Brown 1988): pending events are spread over a ring of
//! time buckets, each bucket covering one `width`-microsecond window per
//! "year" (= `buckets × width`). Schedule hashes the event straight into its
//! bucket; pop scans forward from the current window. The ring is resized
//! (doubled/halved, width re-derived from the live event span) whenever the
//! population crosses deterministic thresholds, which keeps the average
//! bucket occupancy — and therefore both operations — O(1) amortized, where
//! the previous single binary heap paid O(log n) per event against the whole
//! population.
//!
//! Each bucket is itself a small binary heap keyed by `(SimTime, sequence)`,
//! where `sequence` is a monotonically increasing counter. The counter makes
//! the pop order of simultaneous events equal to their scheduling order
//! (FIFO), which is what keeps two runs of the same model bit-identical:
//! simultaneous events always share a bucket (same time ⇒ same window), so
//! the per-bucket heap order *is* the global order.
//!
//! Cancellation is supported by token: [`Calendar::schedule_cancellable`]
//! returns an [`EventHandle`]; cancelled entries are dropped lazily at pop
//! time, so cancel is O(1). Unlike the old heap, the cancelled set no longer
//! grows without bound: once it crosses `COMPACT_MIN` *and* covers at
//! least half the stored entries, the buckets are swept and the set cleared
//! (deterministically — the trigger depends only on queue state, so two
//! identical runs, or a run and its snapshot-restored twin, compact at the
//! same instants).

use crate::time::SimTime;
use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Token identifying a cancellable scheduled event.
///
/// A handle is just the entry's sequence number, so it survives a snapshot
/// as a bare integer and stays valid against the restored calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EventHandle(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Smallest number of buckets the ring ever shrinks to.
const MIN_BUCKETS: usize = 4;
/// Cancelled-set size below which compaction is never attempted (sweeping a
/// handful of tombstones is not worth touching every bucket).
const COMPACT_MIN: usize = 1024;

/// Priority queue of future events, earliest first, FIFO among ties.
pub struct Calendar<E> {
    /// The bucket ring. Window *w* (covering `[w·width, (w+1)·width)` µs)
    /// maps to bucket `w % buckets.len()`; a bucket holds every pending
    /// entry whose window is congruent to it, across all years.
    buckets: Vec<BinaryHeap<Entry<E>>>,
    /// Window width in microseconds (≥ 1).
    width: u64,
    /// The window the pop cursor is currently scanning. No live entry sits
    /// in an earlier window: pop only advances the cursor through windows it
    /// proved empty, and schedule rewinds it when inserting earlier work.
    cursor: u64,
    /// Entries stored across all buckets, including cancelled-in-place ones.
    stored: usize,
    next_seq: u64,
    cancelled: HashSet<u64>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            width: 1_000_000, // 1 simulated second until the first resize
            cursor: 0,
            stored: 0,
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }

    /// The window index of instant `t` under the current width.
    fn window_of(&self, t: SimTime) -> u64 {
        t.as_micros() / self.width
    }

    fn bucket_of(&self, t: SimTime) -> usize {
        (self.window_of(t) % self.buckets.len() as u64) as usize
    }

    fn push_entry(&mut self, entry: Entry<E>) {
        let w = self.window_of(entry.time);
        if w < self.cursor {
            // Earlier work arrived behind the cursor: rewind so pop rescans
            // from its window (entries are never silently skipped).
            self.cursor = w;
        }
        let b = (w % self.buckets.len() as u64) as usize;
        self.buckets[b].push(entry);
        self.stored += 1;
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(Entry {
            time: at,
            seq,
            event,
        });
        if self.stored > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Schedule `event` at `at` and return a handle that can cancel it later.
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(Entry {
            time: at,
            seq,
            event,
        });
        if self.stored > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Idempotent; cancelling an already
    /// delivered event has no effect (the handle is simply stale).
    ///
    /// Once the cancelled set crosses `COMPACT_MIN` and covers at least
    /// half the stored entries, the buckets are swept in place and the set
    /// cleared, so neither tombstoned entries nor stale handles accumulate
    /// for the life of a long simulation.
    pub fn cancel(&mut self, handle: EventHandle) {
        self.cancelled.insert(handle.0);
        if self.cancelled.len() >= COMPACT_MIN && self.cancelled.len() * 2 >= self.stored {
            self.compact();
        }
    }

    /// Drop every cancelled entry (and every stale cancellation token — a
    /// sequence number that no longer matches a stored entry can never match
    /// again, since sequence numbers are never reused).
    fn compact(&mut self) {
        let mut stored = 0;
        for bucket in &mut self.buckets {
            if bucket.iter().any(|e| self.cancelled.contains(&e.seq)) {
                let kept: Vec<Entry<E>> = std::mem::take(bucket)
                    .into_iter()
                    .filter(|e| !self.cancelled.contains(&e.seq))
                    .collect();
                *bucket = kept.into();
            }
            stored += bucket.len();
        }
        self.stored = stored;
        self.cancelled.clear();
        if self.stored < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize((self.buckets.len() / 2).max(MIN_BUCKETS));
        }
    }

    /// Rebuild the ring with `n` buckets and a width derived from the live
    /// span, then point the cursor at the earliest entry. Deterministic: the
    /// new layout is a pure function of the stored entries and `n`.
    fn resize(&mut self, n: usize) {
        let entries: Vec<Entry<E>> = self
            .buckets
            .iter_mut()
            .flat_map(|b| std::mem::take(b).into_vec())
            .collect();
        self.buckets = (0..n).map(|_| BinaryHeap::new()).collect();
        self.stored = 0;
        if entries.is_empty() {
            self.cursor = 0;
            return;
        }
        let min_t = entries.iter().map(|e| e.time.as_micros()).min().unwrap();
        let max_t = entries.iter().map(|e| e.time.as_micros()).max().unwrap();
        // Aim for ~one live entry per window: width ≈ span / population.
        // A degenerate span (all ties) gets width 1 — ties share a window by
        // definition, so the scan still finds them immediately.
        self.width = ((max_t - min_t) / entries.len() as u64).max(1);
        self.cursor = min_t / self.width;
        for e in entries {
            let b = self.bucket_of(e.time);
            self.buckets[b].push(e);
            self.stored += 1;
        }
    }

    /// Exclusive upper bound (µs) of window `w`, saturating at the far end
    /// of simulated time.
    fn window_end(&self, w: u64) -> u64 {
        w.saturating_add(1).saturating_mul(self.width)
    }

    /// Reap cancelled entries off the top of bucket `b`; afterwards its peek
    /// (if any) is live.
    fn reap_bucket_head(&mut self, b: usize) {
        while let Some(head) = self.buckets[b].peek() {
            if self.cancelled.remove(&head.seq) {
                self.buckets[b].pop();
                self.stored -= 1;
            } else {
                break;
            }
        }
    }

    /// Find the bucket holding the earliest live entry, advancing the
    /// cursor. Returns `None` when no live entries remain.
    fn find_min_bucket(&mut self) -> Option<usize> {
        if self.stored == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        // Scan at most one full year of windows from the cursor. Each
        // window's bucket min tells whether the window holds anything: a
        // window maps to exactly one bucket, and a bucket min later than the
        // window end means every entry of that bucket lives in a later year.
        for _ in 0..n {
            let b = (self.cursor % n) as usize;
            self.reap_bucket_head(b);
            if let Some(head) = self.buckets[b].peek() {
                if head.time.as_micros() < self.window_end(self.cursor) {
                    return Some(b);
                }
            }
            if self.stored == 0 {
                return None;
            }
            self.cursor += 1;
        }
        // Nothing within a year of the cursor: direct search over bucket
        // minima (rare — only when the next event is far in the future).
        let mut best: Option<(SimTime, u64, usize)> = None;
        for b in 0..self.buckets.len() {
            self.reap_bucket_head(b);
            if let Some(head) = self.buckets[b].peek() {
                let key = (head.time, head.seq, b);
                if best.is_none_or(|cur| (key.0, key.1) < (cur.0, cur.1)) {
                    best = Some(key);
                }
            }
        }
        let (t, _, b) = best?;
        self.cursor = self.window_of(t);
        Some(b)
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let b = self.find_min_bucket()?;
        let entry = self.buckets[b].pop().expect("min bucket is non-empty");
        self.stored -= 1;
        if self.stored < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize((self.buckets.len() / 2).max(MIN_BUCKETS));
        }
        Some((entry.time, entry.event))
    }

    /// Time of the earliest pending (non-cancelled) event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let b = self.find_min_bucket()?;
        self.buckets[b].peek().map(|e| e.time)
    }

    /// Approximate number of live entries (cancelled-but-unreaped entries and
    /// stale cancellations can make this an estimate; exactness returns once
    /// the queue head is reaped).
    pub fn len(&self) -> usize {
        self.stored.saturating_sub(self.cancelled.len())
    }

    /// True iff no live events remain.
    pub fn is_empty(&self) -> bool {
        if self.stored > self.cancelled.len() {
            return false;
        }
        self.buckets
            .iter()
            .flat_map(|b| b.iter())
            .all(|e| self.cancelled.contains(&e.seq))
    }
}

// Snapshot form: entries sorted by `(time, seq)` plus the sequence counter
// and the sorted cancellation set — the same encoding the binary-heap
// calendar used, so bucket layout (a performance detail) never leaks into
// snapshots. Sorting makes the rendering independent of the internal array
// layout, so snapshot → restore → snapshot is byte-stable; replaying `seq`
// verbatim keeps outstanding [`EventHandle`]s from before the snapshot valid
// after restore.
impl<E: Serialize> Serialize for Calendar<E> {
    fn to_value(&self) -> Value {
        let mut live: Vec<&Entry<E>> = self.buckets.iter().flat_map(|b| b.iter()).collect();
        live.sort_by_key(|e| (e.time, e.seq));
        let entries = Value::Seq(
            live.iter()
                .map(|e| {
                    Value::Map(vec![
                        ("time".to_string(), e.time.to_value()),
                        ("seq".to_string(), e.seq.to_value()),
                        ("event".to_string(), e.event.to_value()),
                    ])
                })
                .collect(),
        );
        let mut cancelled: Vec<u64> = self.cancelled.iter().copied().collect();
        cancelled.sort_unstable();
        Value::Map(vec![
            ("entries".to_string(), entries),
            ("next_seq".to_string(), self.next_seq.to_value()),
            ("cancelled".to_string(), cancelled.to_value()),
        ])
    }
}

impl<E: Deserialize> Deserialize for Calendar<E> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Calendar"))?;
        let raw_entries: Vec<Value> = serde::field(fields, "entries")?;
        let mut cal = Calendar::new();
        for raw in &raw_entries {
            let entry = raw
                .as_map()
                .ok_or_else(|| serde::Error::custom("expected map for calendar entry"))?;
            cal.push_entry(Entry {
                time: serde::field(entry, "time")?,
                seq: serde::field(entry, "seq")?,
                event: serde::field(entry, "event")?,
            });
        }
        // One deterministic re-bucketing sized to the restored population.
        // Pop order is layout-independent (always the global `(time, seq)`
        // min), so a restored calendar replays the exact event stream of the
        // original even though the original grew its ring incrementally.
        let mut n = MIN_BUCKETS;
        while cal.stored > 2 * n {
            n *= 2;
        }
        cal.resize(n);
        let cancelled: Vec<u64> = serde::field(fields, "cancelled")?;
        cal.next_seq = serde::field(fields, "next_seq")?;
        cal.cancelled = cancelled.into_iter().collect();
        Ok(cal)
    }
}

impl<E> std::fmt::Debug for Calendar<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calendar")
            .field("pending", &self.stored)
            .field("cancelled", &self.cancelled.len())
            .field("buckets", &self.buckets.len())
            .field("width_us", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_equal_times() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            cal.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop(), Some((t, i)));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn earliest_first() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), "c");
        cal.schedule(SimTime::from_secs(1), "a");
        cal.schedule(SimTime::from_secs(2), "b");
        assert_eq!(cal.pop().unwrap().1, "a");
        assert_eq!(cal.pop().unwrap().1, "b");
        assert_eq!(cal.pop().unwrap().1, "c");
    }

    #[test]
    fn cancellation_skips_event() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), "keep1");
        let h = cal.schedule_cancellable(SimTime::from_secs(2), "drop");
        cal.schedule(SimTime::from_secs(3), "keep2");
        cal.cancel(h);
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.pop().unwrap().1, "keep1");
        assert_eq!(cal.pop().unwrap().1, "keep2");
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn cancel_is_idempotent_and_stale_safe() {
        let mut cal = Calendar::new();
        let h = cal.schedule_cancellable(SimTime::from_secs(1), 1);
        assert_eq!(cal.pop(), Some((SimTime::from_secs(1), 1)));
        cal.cancel(h); // stale: already delivered
        cal.schedule(SimTime::from_secs(2), 2);
        // The stale cancellation must not swallow an unrelated event.
        assert_eq!(cal.pop(), Some((SimTime::from_secs(2), 2)));
    }

    #[test]
    fn serde_roundtrip_preserves_order_handles_and_bytes() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), 30u32);
        cal.schedule(SimTime::from_secs(1), 10);
        let h = cal.schedule_cancellable(SimTime::from_secs(2), 20);
        cal.schedule(SimTime::from_secs(1), 11); // FIFO tie with event 10
        cal.cancel(h);

        let json = serde_json::to_string(&cal).unwrap();
        let mut back: Calendar<u32> = serde_json::from_str(&json).unwrap();
        // Snapshot → restore → snapshot is byte-stable.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // Restored calendar pops in the original order, honouring both the
        // FIFO tie-break and the cancellation.
        assert_eq!(back.pop().unwrap().1, 10);
        assert_eq!(back.pop().unwrap().1, 11);
        assert_eq!(back.pop().unwrap().1, 30);
        assert_eq!(back.pop(), None);

        // New events scheduled after restore continue the sequence counter,
        // so they sort after (not interleaved with) pre-snapshot ties.
        let mut cal2: Calendar<u32> =
            serde_json::from_str(&serde_json::to_string(&cal).unwrap()).unwrap();
        cal2.schedule(SimTime::from_secs(1), 99);
        assert_eq!(cal2.pop().unwrap().1, 10);
        assert_eq!(cal2.pop().unwrap().1, 11);
        assert_eq!(cal2.pop().unwrap().1, 99);
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut cal = Calendar::new();
        let h = cal.schedule_cancellable(SimTime::from_secs(1), 1);
        cal.schedule(SimTime::from_secs(5), 2);
        cal.cancel(h);
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(5)));
        assert!(!cal.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        // Pops interleaved with schedules behind and ahead of the cursor:
        // the cursor must rewind for earlier work and never skip anything.
        let mut cal = Calendar::new();
        for i in 0..50u64 {
            cal.schedule(SimTime::from_secs(100 + i), i);
        }
        assert_eq!(cal.pop().unwrap().1, 0);
        assert_eq!(cal.pop().unwrap().1, 1);
        // Now schedule *earlier* than everything still queued.
        cal.schedule(SimTime::from_secs(1), 999);
        assert_eq!(cal.pop(), Some((SimTime::from_secs(1), 999)));
        // And far later than the ring's current year.
        cal.schedule(SimTime::from_days(365), 1000);
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = cal.pop() {
            assert!(t >= last, "pop order must be non-decreasing");
            last = t;
            seen += 1;
        }
        assert_eq!(seen, 49);
        assert_eq!(last, SimTime::from_days(365));
    }

    #[test]
    fn far_future_events_found_after_sparse_gap() {
        // A single event years past the cursor exercises the direct-search
        // fallback (the windowed scan gives up after one ring revolution).
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), "soon");
        cal.schedule(SimTime::from_days(10_000), "far");
        assert_eq!(cal.pop().unwrap().1, "soon");
        assert_eq!(cal.peek_time(), Some(SimTime::from_days(10_000)));
        assert_eq!(cal.pop().unwrap().1, "far");
        assert_eq!(cal.pop(), None);
    }

    /// Regression for the unbounded-growth bug: cancelling more than half of
    /// a large queue must sweep the tombstones out of the buckets instead of
    /// carrying them (and their cancellation tokens) forever.
    #[test]
    fn compaction_reclaims_cancelled_entries_and_stale_tokens() {
        let mut cal = Calendar::new();
        let mut handles = Vec::new();
        for i in 0..3000u64 {
            handles.push(cal.schedule_cancellable(SimTime::from_secs(10 + i), i));
        }
        // A stale token from a delivered event must also be swept.
        let first = cal.pop().unwrap();
        assert_eq!(first.1, 0);
        cal.cancel(handles[0]); // stale
        for h in &handles[1..2000] {
            cal.cancel(*h);
        }
        // The threshold (≥ COMPACT_MIN cancelled and ≥ half the stored
        // entries) was crossed mid-stream: tombstones were swept, so neither
        // the storage nor the cancelled set carries all 2000 cancellations.
        assert!(
            cal.cancelled.len() < COMPACT_MIN,
            "cancelled set swept (still {} tokens)",
            cal.cancelled.len()
        );
        assert!(
            cal.stored < 2000,
            "tombstoned entries reclaimed (still storing {})",
            cal.stored
        );
        assert_eq!(cal.len(), 1000);
        // Everything that survives pops in order, nothing cancelled leaks.
        let mut expect = 2000u64;
        while let Some((_, v)) = cal.pop() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, 3000);
    }

    /// The compaction trigger is a pure function of queue state, so a
    /// snapshot taken mid-stream restores to the same encoding it came from.
    #[test]
    fn compaction_keeps_snapshots_byte_stable() {
        let mut cal = Calendar::new();
        let mut handles = Vec::new();
        for i in 0..2000u64 {
            handles.push(cal.schedule_cancellable(SimTime::from_secs(i), i));
        }
        for h in &handles[..1100] {
            cal.cancel(*h);
        }
        let json = serde_json::to_string(&cal).unwrap();
        let back: Calendar<u64> = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // The cancelled list in the snapshot is sorted (deterministic).
        let v = cal.to_value();
        let fields = v.as_map().unwrap();
        let nums: Vec<u64> = serde::field(fields, "cancelled").unwrap();
        let mut sorted = nums.clone();
        sorted.sort_unstable();
        assert_eq!(nums, sorted);
    }

    /// Differential test against a reference model: random interleavings of
    /// schedule/cancel/pop must pop the exact sequence a sorted list would.
    #[test]
    fn matches_reference_model_under_random_workload() {
        // Deterministic xorshift so the test needs no external RNG.
        let mut s: u64 = 0x9E3779B97F4A7C15;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut cal: Calendar<u64> = Calendar::new();
        // Reference: sorted-by-(time, seq) vec + cancelled set.
        let mut model: Vec<(SimTime, u64)> = Vec::new();
        let mut model_cancelled: HashSet<u64> = HashSet::new();
        let mut handles: Vec<(EventHandle, u64)> = Vec::new();
        let mut clock = SimTime::ZERO;
        for step in 0..20_000u64 {
            match rand() % 10 {
                // 60%: schedule at a random future offset (often tied).
                0..=5 => {
                    let at = clock + crate::SimDuration::from_micros(rand() % 5_000_000);
                    let h = cal.schedule_cancellable(at, step);
                    model.push((at, step));
                    handles.push((h, step));
                }
                // 20%: cancel a random outstanding handle.
                6..=7 => {
                    if !handles.is_empty() {
                        let i = (rand() % handles.len() as u64) as usize;
                        let (h, seq) = handles.swap_remove(i);
                        cal.cancel(h);
                        model_cancelled.insert(seq);
                    }
                }
                // 20%: pop and compare against the model's minimum.
                _ => {
                    model.retain(|(_, v)| !model_cancelled.contains(v));
                    let got = cal.pop();
                    if model.is_empty() {
                        assert_eq!(got, None);
                    } else {
                        let mi = model
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(t, v))| (t, v))
                            .map(|(i, _)| i)
                            .unwrap();
                        let (t, v) = model.remove(mi);
                        assert_eq!(got, Some((t, v)), "step {step}");
                        handles.retain(|(_, seq)| *seq != v);
                        clock = t;
                    }
                }
            }
        }
        // Drain both to the end.
        model.retain(|(_, v)| !model_cancelled.contains(v));
        model.sort_by_key(|&(t, v)| (t, v));
        for (t, v) in model {
            assert_eq!(cal.pop(), Some((t, v)));
        }
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
    }
}
