//! `simkit` — a small, deterministic discrete-event simulation kernel.
//!
//! The grid experiments in this workspace replay months of wall-clock time
//! (volunteer churn, batch queues, workunit deadlines) in milliseconds, so the
//! kernel is built for *determinism first*: integer simulation time, a stable
//! FIFO tie-break in the event calendar, and a forkable counter-based RNG so
//! that adding a new random stream never perturbs existing ones.
//!
//! The pieces:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulation time.
//! * [`Calendar`] — the pending-event queue (one binary heap with a
//!   monotonic sequence number for stable ordering of simultaneous events,
//!   O(log n) schedule/pop and O(1) cancellation).
//! * [`IdMap`] — dense id-keyed storage for hot host/job state (array-indexed
//!   lookups, ascending iteration, id-sorted-pairs snapshot encoding).
//! * [`Simulation`] and the [`World`] trait — the driver loop.
//! * [`SimRng`] — deterministic, forkable randomness.
//! * [`FaultScript`] — pre-computed fault timelines for deterministic
//!   chaos/robustness experiments.
//! * [`stats`] — Welford tallies and time-weighted averages.
//! * [`telemetry`] — deterministic structured telemetry: a sim-time-stamped
//!   event bus and a metrics registry (counters, gauges, fixed-bucket
//!   histograms) whose serialized snapshots are byte-stable under replay.
//! * [`timeseries`] — fixed-interval windowed series (counter rates, gauge
//!   samples, sliding-window ratios, histogram quantiles) derived from a
//!   metrics registry at deterministic sim-time boundaries.
//! * [`spans`] — causal trace spans (bounded, parent-linked intervals per
//!   track) with Chrome-trace-format export.
//! * [`profile`] — a self-profiler attributing *host* wall-clock to
//!   per-event-kind buckets (events/sec reporting for benches).
//!
//! # Example
//!
//! ```
//! use simkit::{Calendar, SimDuration, SimTime, Simulation, World};
//!
//! struct Ping { count: u32 }
//! impl World for Ping {
//!     type Event = &'static str;
//!     fn handle(&mut self, now: SimTime, _ev: &'static str, cal: &mut Calendar<&'static str>) {
//!         self.count += 1;
//!         if self.count < 3 {
//!             cal.schedule(now + SimDuration::from_secs(1), "ping");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 });
//! sim.calendar_mut().schedule(SimTime::ZERO, "ping");
//! sim.run_to_completion();
//! assert_eq!(sim.world().count, 3);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

#![warn(missing_docs)]

pub mod calendar;
pub mod faults;
pub mod profile;
pub mod rng;
pub mod slab;
pub mod snapshot;
pub mod spans;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod timeseries;

pub use calendar::Calendar;
pub use faults::FaultScript;
pub use rng::SimRng;
pub use slab::IdMap;
pub use snapshot::{Snapshot, SnapshotError, MIN_SNAPSHOT_VERSION, SNAPSHOT_VERSION};
pub use time::{SimDuration, SimTime};

/// A simulation model: owns all mutable state and reacts to events.
///
/// The kernel stays out of the model's way: it delivers each event together
/// with the current time and a mutable handle to the calendar so the model can
/// schedule follow-up events.
pub trait World {
    /// The event type circulated through the calendar.
    type Event;

    /// Handle one event at simulation time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, calendar: &mut Calendar<Self::Event>);
}

/// The driver: a [`World`] plus its [`Calendar`] and the current clock.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    calendar: Calendar<W::Event>,
    now: SimTime,
    processed: u64,
}

impl<W: World> Simulation<W> {
    /// Create a simulation at time zero with an empty calendar.
    pub fn new(world: W) -> Self {
        Self {
            world,
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulation time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the model.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Immutable access to the calendar (e.g. to serialize pending events).
    pub fn calendar(&self) -> &Calendar<W::Event> {
        &self.calendar
    }

    /// Mutable access to the calendar (e.g. to seed initial events).
    pub fn calendar_mut(&mut self) -> &mut Calendar<W::Event> {
        &mut self.calendar
    }

    /// Reassemble a simulation from checkpointed parts: the restored world,
    /// its pending calendar, and the clock/counter of the original run.
    /// Unlike [`Simulation::new`], no bootstrap happens — the caller is
    /// expected to resume exactly where the snapshot left off.
    pub fn from_parts(
        world: W,
        calendar: Calendar<W::Event>,
        now: SimTime,
        processed: u64,
    ) -> Self {
        Self {
            world,
            calendar,
            now,
            processed,
        }
    }

    /// Take the simulation apart into what [`Simulation::from_parts`]
    /// reassembles: the world, its pending calendar, the clock and the
    /// processed-event count. Lets a caller run the same state under a
    /// wrapping [`World`] and put it back.
    pub fn into_parts(self) -> (W, Calendar<W::Event>, SimTime, u64) {
        (self.world, self.calendar, self.now, self.processed)
    }

    /// Process a single event. Returns `false` if the calendar was empty.
    ///
    /// # Panics
    /// Panics if an event is scheduled in the past (a model bug: causality
    /// violation), since silently reordering would corrupt statistics.
    pub fn step(&mut self) -> bool {
        match self.calendar.pop() {
            Some((t, ev)) => {
                assert!(
                    t >= self.now,
                    "event scheduled in the past: {t:?} < {:?}",
                    self.now
                );
                self.now = t;
                self.processed += 1;
                self.world.handle(t, ev, &mut self.calendar);
                true
            }
            None => false,
        }
    }

    /// Run until the calendar drains.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run until the calendar drains or the next event is strictly after
    /// `deadline`. The clock is left at the last processed event (it does not
    /// jump to `deadline`). Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(t) = self.calendar.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collect {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Collect {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, _cal: &mut Calendar<u32>) {
            self.seen.push((now, ev));
        }
    }

    #[test]
    fn events_delivered_in_time_order_with_fifo_ties() {
        let mut sim = Simulation::new(Collect { seen: vec![] });
        let t1 = SimTime::from_secs(10);
        let t0 = SimTime::from_secs(5);
        sim.calendar_mut().schedule(t1, 1);
        sim.calendar_mut().schedule(t0, 2);
        sim.calendar_mut().schedule(t1, 3); // same time as event 1: FIFO
        sim.run_to_completion();
        assert_eq!(sim.world().seen, vec![(t0, 2), (t1, 1), (t1, 3)]);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn run_until_stops_before_later_events() {
        let mut sim = Simulation::new(Collect { seen: vec![] });
        sim.calendar_mut().schedule(SimTime::from_secs(1), 1);
        sim.calendar_mut().schedule(SimTime::from_secs(100), 2);
        let n = sim.run_until(SimTime::from_secs(50));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.calendar_mut().len(), 1);
    }

    #[test]
    fn empty_calendar_step_is_false() {
        let mut sim = Simulation::new(Collect { seen: vec![] });
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }
}
