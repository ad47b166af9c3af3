//! The pending-event queue.
//!
//! One binary heap keyed by `(SimTime, sequence)`, where `sequence` is a
//! monotonically increasing counter. The counter makes the pop order of
//! simultaneous events equal to their scheduling order (FIFO), which is what
//! keeps two runs of the same model bit-identical. Schedule and pop are
//! O(log n).
//!
//! Cancellation is supported by token: [`Calendar::schedule_cancellable`]
//! returns an [`EventHandle`]; cancel is O(1) and leaves the entry in the
//! heap as a tombstone. Tombstones are reaped only at the heap head, by
//! [`Calendar::pop`] and [`Calendar::peek_time`], so *when* one disappears
//! depends on the set of stored entries alone, never on how they are laid
//! out in memory: a calendar restored from a snapshot reaps at the same
//! instants as the one it was taken from and keeps writing the same bytes.
//! Tombstones that never reach the head (far-future timeouts cancelled long
//! before they fire) are swept by compaction: once the cancelled set holds
//! at least `COMPACT_MIN` tokens *and* covers at least half the stored
//! entries, every cancelled entry is dropped and the set cleared. The
//! trigger depends only on queue state, so two identical runs, or a run and
//! its snapshot-restored twin, compact at the same instants.

use crate::time::SimTime;
use serde::{Deserialize, JsonWriter, Serialize, Value};
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

/// Cancelled-set size below which compaction is never attempted (sweeping a
/// handful of tombstones is not worth touching every entry).
const COMPACT_MIN: usize = 1024;

/// Priority queue of future events, earliest first, FIFO among ties.
pub struct Calendar<E> {
    /// Every stored entry, including cancelled-in-place tombstones.
    heap: BinaryHeap<Entry<E>>,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }

    fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        seq
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.push(at, event);
    }

    /// Schedule `event` at `at` and return a handle that can cancel it later.
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> EventHandle {
        EventHandle(self.push(at, event))
    }

    /// Cancel a previously scheduled event. Idempotent; cancelling an already
    /// delivered event has no effect (the handle is simply stale).
    ///
    /// Once the cancelled set crosses `COMPACT_MIN` and covers at least
    /// half the stored entries, every cancelled entry is swept from the heap
    /// and the set cleared, stale tokens included (sequence numbers are
    /// never reused, so a token without an entry can never match again).
    pub fn cancel(&mut self, handle: EventHandle) {
        self.cancelled.insert(handle.0);
        if self.cancelled.len() >= COMPACT_MIN && self.cancelled.len() * 2 >= self.heap.len() {
            let cancelled = &self.cancelled;
            self.heap.retain(|e| !cancelled.contains(&e.seq));
            self.cancelled.clear();
        }
    }

    /// Reap cancelled entries off the heap head; afterwards its peek (if
    /// any) is live.
    fn reap_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            if !self.cancelled.remove(&head.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.reap_head();
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest pending (non-cancelled) event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.reap_head();
        self.heap.peek().map(|e| e.time)
    }

    /// Approximate number of live entries (cancelled-but-unreaped entries and
    /// stale cancellations can make this an estimate; exactness returns once
    /// the queue head is reaped).
    pub fn len(&self) -> usize {
        self.heap.len().saturating_sub(self.cancelled.len())
    }

    /// True iff no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.len() <= self.cancelled.len()
            && self.heap.iter().all(|e| self.cancelled.contains(&e.seq))
    }
}

// Snapshot form: entries sorted by `(time, seq)` plus the sequence counter
// and the sorted cancellation set. Sorting makes the rendering independent
// of the heap's internal array layout, so snapshot → restore → snapshot is
// byte-stable; replaying `seq` verbatim keeps outstanding [`EventHandle`]s
// from before the snapshot valid after restore. Tombstones and tokens are
// kept on both sides, so a restored calendar holds exactly the entries of
// the live one and reaps them at the same pops.
impl<E: Serialize> Serialize for Calendar<E> {
    fn serialize(&self, out: &mut JsonWriter) {
        let mut stored: Vec<&Entry<E>> = self.heap.iter().collect();
        stored.sort_by_key(|e| (e.time, e.seq));
        let mut cancelled: Vec<u64> = self.cancelled.iter().copied().collect();
        cancelled.sort_unstable();
        out.map(|map| {
            map.entry_with("entries", |out| {
                out.seq(|entries| {
                    for e in stored {
                        entries.element_with(|out| {
                            out.map(|entry| {
                                entry.entry("time", &e.time);
                                entry.entry("seq", &e.seq);
                                entry.entry("event", &e.event);
                            })
                        });
                    }
                })
            });
            map.entry("next_seq", &self.next_seq);
            map.entry("cancelled", &cancelled);
        });
    }
}

impl<E: Deserialize> Deserialize for Calendar<E> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Calendar"))?;
        let raw_entries: Vec<Value> = serde::field(fields, "entries")?;
        let entries = raw_entries
            .iter()
            .map(|raw| {
                let entry = raw
                    .as_map()
                    .ok_or_else(|| serde::Error::custom("expected map for calendar entry"))?;
                Ok(Entry {
                    time: serde::field(entry, "time")?,
                    seq: serde::field(entry, "seq")?,
                    event: serde::field(entry, "event")?,
                })
            })
            .collect::<Result<Vec<_>, serde::Error>>()?;
        let cancelled: Vec<u64> = serde::field(fields, "cancelled")?;
        Ok(Calendar {
            heap: entries.into(),
            next_seq: serde::field(fields, "next_seq")?,
            cancelled: cancelled.into_iter().collect(),
        })
    }
}

impl<E> std::fmt::Debug for Calendar<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calendar")
            .field("pending", &self.heap.len())
            .field("cancelled", &self.cancelled.len())
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
        // Pops interleaved with schedules behind and ahead of the queued
        // work: earlier work pops first and nothing is ever skipped.
        let mut cal = Calendar::new();
        for i in 0..50u64 {
            cal.schedule(SimTime::from_secs(100 + i), i);
        }
        assert_eq!(cal.pop().unwrap().1, 0);
        assert_eq!(cal.pop().unwrap().1, 1);
        // Now schedule *earlier* than everything still queued.
        cal.schedule(SimTime::from_secs(1), 999);
        assert_eq!(cal.pop(), Some((SimTime::from_secs(1), 999)));
        // And far later than everything else.
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
        // A single event decades past the rest is still found, by peek and
        // by pop.
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), "soon");
        cal.schedule(SimTime::from_days(10_000), "far");
        assert_eq!(cal.pop().unwrap().1, "soon");
        assert_eq!(cal.peek_time(), Some(SimTime::from_days(10_000)));
        assert_eq!(cal.pop().unwrap().1, "far");
        assert_eq!(cal.pop(), None);
    }

    /// A tombstone that has not reached the head stays stored until it does,
    /// on the live calendar and on a twin restored from its snapshot alike,
    /// so both keep writing the same bytes.
    #[test]
    fn restored_calendar_snapshots_like_the_live_one() {
        let (a, x, b) = (1u32, 2, 3);
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_micros(500_000), a);
        let hx = cal.schedule_cancellable(SimTime::from_micros(5_500_000), x);
        cal.schedule(SimTime::from_micros(2_500_000), b);
        cal.cancel(hx);
        assert_eq!(cal.pop().unwrap().1, a);
        let json = serde_json::to_string(&cal).unwrap();
        let mut twin: Calendar<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(cal.pop().unwrap().1, b);
        assert_eq!(twin.pop().unwrap().1, b);
        assert_eq!(
            serde_json::to_string(&twin).unwrap(),
            serde_json::to_string(&cal).unwrap()
        );
    }

    /// Regression for the unbounded-growth bug: cancelling more than half of
    /// a large queue must sweep the tombstones out of the heap instead of
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
            cal.heap.len() < 2000,
            "tombstoned entries reclaimed (still storing {})",
            cal.heap.len()
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
        let v = serde_json::to_value(&cal).unwrap();
        let fields = v.as_map().unwrap();
        let nums: Vec<u64> = serde::field(fields, "cancelled").unwrap();
        let mut sorted = nums.clone();
        sorted.sort_unstable();
        assert_eq!(nums, sorted);
    }

    /// Differential test against a reference model: random interleavings of
    /// schedule/cancel/pop must pop the exact sequence a sorted list would.
    /// Every 1,000 steps a twin is restored from the live calendar's
    /// snapshot and driven in lockstep with it: the two must pop the same
    /// events and keep writing the same snapshot bytes.
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
        let snapshot = |c: &Calendar<u64>| serde_json::to_string(c).unwrap();
        let mut twin: Option<Calendar<u64>> = None;
        let mut clock = SimTime::ZERO;
        for step in 0..20_000u64 {
            if step > 0 && step % 1000 == 0 {
                twin = Some(serde_json::from_str(&snapshot(&cal)).unwrap());
            }
            match rand() % 10 {
                // 60%: schedule at a random future offset (often tied).
                0..=5 => {
                    let at = clock + crate::SimDuration::from_micros(rand() % 5_000_000);
                    let h = cal.schedule_cancellable(at, step);
                    if let Some(twin) = twin.as_mut() {
                        assert_eq!(twin.schedule_cancellable(at, step), h);
                    }
                    model.push((at, step));
                    handles.push((h, step));
                }
                // 20%: cancel a random outstanding handle.
                6..=7 => {
                    if !handles.is_empty() {
                        let i = (rand() % handles.len() as u64) as usize;
                        let (h, seq) = handles.swap_remove(i);
                        cal.cancel(h);
                        if let Some(twin) = twin.as_mut() {
                            twin.cancel(h);
                        }
                        model_cancelled.insert(seq);
                    }
                }
                // 20%: pop and compare against the model's minimum.
                _ => {
                    model.retain(|(_, v)| !model_cancelled.contains(v));
                    let got = cal.pop();
                    if let Some(twin) = twin.as_mut() {
                        assert_eq!(twin.pop(), got, "twin pop, step {step}");
                    }
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
            // Bytes every 100 steps, the last one just before the twin is
            // replaced: encoding both calendars every step costs minutes.
            if let Some(twin) = twin.as_ref().filter(|_| step % 100 == 99) {
                assert_eq!(snapshot(twin), snapshot(&cal), "twin bytes, step {step}");
            }
        }
        // Drain all three to the end.
        let mut twin = twin.expect("a twin was restored");
        model.retain(|(_, v)| !model_cancelled.contains(v));
        model.sort_by_key(|&(t, v)| (t, v));
        for (t, v) in model {
            assert_eq!(cal.pop(), Some((t, v)));
            assert_eq!(twin.pop(), Some((t, v)));
        }
        assert_eq!(cal.pop(), None);
        assert_eq!(twin.pop(), None);
        assert!(cal.is_empty());
        assert_eq!(snapshot(&twin), snapshot(&cal));
    }
}
