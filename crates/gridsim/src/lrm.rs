//! Local resource managers: slot-based execution with a FIFO queue.
//!
//! PBS and SGE clusters are *stable*: a dispatched job runs to completion.
//! Condor pools are cycle-scavenged and *unstable*: each running job is
//! exposed to an exponential interruption hazard ("interference from human
//! users or other computational processes", paper §VI.A). An interrupted
//! job loses its progress unless the application checkpoints, and after too
//! many local evictions it is bounced back to the grid level for
//! rescheduling.

use crate::grid::GridEvent;
use crate::job::{FinishedRun, JobId, JobSpec};
use crate::mds::ResourceState;
use crate::resource::ResourceSpec;
use serde::{Deserialize, Serialize};
use simkit::calendar::EventHandle;
use simkit::{Calendar, SimDuration, SimRng, SimTime};
use std::collections::{HashMap, VecDeque};

/// A job executing in a slot.
///
/// An execution is split into *segments* by mid-run speed changes (straggler
/// faults): [`LrmSim::set_speed_factor`] folds the current segment's progress
/// into these fields and restarts the clock, so `started`,
/// `remaining_at_start`, and `overhead_left` always describe the segment in
/// progress, while `banked_cpu` accumulates wall-clock CPU from earlier
/// segments of the same execution.
#[derive(Debug, Serialize, Deserialize)]
struct Running {
    job: JobId,
    started: SimTime,
    /// Reference-seconds of compute still owed when this segment started
    /// (checkpointable jobs resume from where they left off).
    remaining_at_start: f64,
    /// Staging overhead seconds still unserved when this segment started.
    overhead_left: f64,
    /// CPU-seconds burned in earlier segments of this execution.
    banked_cpu: f64,
    done: EventHandle,
    interrupt: Option<EventHandle>,
    /// Dispatch generation — guards against stale events.
    generation: u64,
    /// Slots this execution occupies (gang-scheduled MPI jobs span several).
    width: usize,
}

/// Occupancy of one execution slot.
#[derive(Debug, Serialize, Deserialize)]
enum Slot {
    /// Available.
    Free,
    /// Hosts the primary record of an execution.
    Primary(Running),
    /// Occupied by a gang-scheduled job whose primary record lives in
    /// another slot.
    Member {
        /// Index of the primary slot.
        primary: usize,
    },
}

impl Slot {
    fn is_free(&self) -> bool {
        matches!(self, Slot::Free)
    }
}

/// Outcome the grid world must act on after an LRM state change.
#[derive(Debug, PartialEq)]
pub enum LrmOutcome {
    /// Nothing for the grid to do.
    None,
    /// Job finished; grid should record completion. The run's CPU is the
    /// final execution's, its waste and attempts cover the evictions here.
    Completed(JobId, FinishedRun),
    /// Job was evicted too many times locally; grid should reschedule it
    /// elsewhere.
    BouncedToGrid {
        /// The evicted job.
        job: JobId,
        /// CPU-seconds wasted across local attempts (progress lost).
        wasted_cpu_seconds: f64,
        /// Reference-seconds of compute still owed. Equals the full job size
        /// unless the job checkpoints, in which case a checkpoint-aware grid
        /// scheduler can resume elsewhere from this point.
        remaining: f64,
    },
}

/// A simulated Condor/PBS/SGE resource.
///
/// In a snapshot the local queue keeps its FIFO order (it is live dispatch
/// order, not a set). Slot records carry their `done`/`interrupt`
/// [`EventHandle`]s verbatim — they stay valid because the grid calendar
/// is snapshotted with its handle space intact.
#[derive(Debug, Serialize, Deserialize)]
pub struct LrmSim {
    spec: ResourceSpec,
    queue: VecDeque<JobId>,
    slots: Vec<Slot>,
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    jobs: HashMap<JobId, JobState>,
    online: bool,
    next_generation: u64,
    max_local_retries: u32,
    /// Multiplier on the configured speed (1.0 normally; < 1.0 while a
    /// straggler fault degrades the resource).
    speed_factor: f64,
    rng: SimRng,
}

#[derive(Debug, Serialize, Deserialize)]
struct JobState {
    spec: JobSpec,
    /// Reference-seconds still owed (reduced by checkpointed progress).
    remaining: f64,
    evictions: u32,
    wasted: f64,
    /// Extra staging seconds to serve before compute begins.
    overhead_seconds: f64,
}

impl LrmSim {
    /// Create an LRM for `spec`.
    pub fn new(spec: ResourceSpec, max_local_retries: u32, rng: SimRng) -> LrmSim {
        let slots = (0..spec.slots).map(|_| Slot::Free).collect();
        LrmSim {
            spec,
            queue: VecDeque::new(),
            slots,
            jobs: HashMap::new(),
            online: true,
            next_generation: 0,
            max_local_retries,
            speed_factor: 1.0,
            rng,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &ResourceSpec {
        &self.spec
    }

    /// Whether the resource is currently up.
    pub fn online(&self) -> bool {
        self.online
    }

    /// Dynamic state for the MDS provider.
    pub fn state(&self) -> ResourceState {
        ResourceState {
            free_slots: self.slots.iter().filter(|s| s.is_free()).count(),
            total_slots: self.slots.len(),
            queued_jobs: self.queue.len(),
        }
    }

    /// Jobs currently queued or running here.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Current effective compute speed (configured speed × straggler factor).
    pub fn effective_speed(&self) -> f64 {
        self.spec.speed * self.speed_factor
    }

    /// Current straggler factor (1.0 = nominal).
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Accept a job from the grid level and try to start it.
    pub fn enqueue(
        &mut self,
        job: JobSpec,
        overhead_seconds: f64,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) {
        let remaining = job.true_reference_seconds;
        self.enqueue_resumed(job, remaining, overhead_seconds, now, resource_index, cal);
    }

    /// Accept a job that already made checkpointed progress elsewhere: only
    /// `remaining_ref_seconds` of reference compute are still owed.
    pub fn enqueue_resumed(
        &mut self,
        job: JobSpec,
        remaining_ref_seconds: f64,
        overhead_seconds: f64,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) {
        let id = job.id;
        let remaining = remaining_ref_seconds.clamp(0.0, job.true_reference_seconds);
        self.jobs.insert(
            id,
            JobState {
                remaining,
                spec: job,
                evictions: 0,
                wasted: 0.0,
                overhead_seconds,
            },
        );
        self.queue.push_back(id);
        self.fill_slots(now, resource_index, cal);
    }

    /// Start queued jobs on free slots. Strict FIFO: a gang-scheduled MPI
    /// job at the head of the queue waits for enough simultaneous free
    /// slots, and nothing behind it jumps ahead (no backfill — the simplest
    /// starvation-free policy, and what a stock PBS FIFO queue does).
    fn fill_slots(&mut self, now: SimTime, resource_index: usize, cal: &mut Calendar<GridEvent>) {
        if !self.online {
            return;
        }
        while let Some(&job_id) = self.queue.front() {
            let width = self.jobs[&job_id].spec.slots_required.max(1);
            let free: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_free())
                .map(|(i, _)| i)
                .take(width)
                .collect();
            if free.len() < width {
                break; // head of queue waits for its gang
            }
            self.queue.pop_front();
            let state = self.jobs.get(&job_id).expect("queued job has state");
            let compute = state.remaining / (self.spec.speed * self.speed_factor);
            let duration = SimDuration::from_secs_f64(state.overhead_seconds + compute);
            let generation = self.next_generation;
            self.next_generation += 1;
            let slot = free[0];
            let done = cal.schedule_cancellable(
                now + duration,
                GridEvent::LrmJobDone {
                    resource: resource_index,
                    slot,
                    generation,
                },
            );
            let interrupt = self.spec.mean_hours_between_interruptions.map(|mean| {
                let wait = SimDuration::from_secs_f64(self.rng.exponential(mean * 3600.0));
                cal.schedule_cancellable(
                    now + wait,
                    GridEvent::LrmInterrupt {
                        resource: resource_index,
                        slot,
                        generation,
                    },
                )
            });
            self.slots[slot] = Slot::Primary(Running {
                job: job_id,
                started: now,
                remaining_at_start: self.jobs[&job_id].remaining,
                overhead_left: self.jobs[&job_id].overhead_seconds,
                banked_cpu: 0.0,
                done,
                interrupt,
                generation,
                width,
            });
            for &m in &free[1..] {
                self.slots[m] = Slot::Member { primary: slot };
            }
        }
    }

    /// Free the primary slot and any gang members attached to it, returning
    /// the running record.
    fn vacate(&mut self, primary: usize) -> Running {
        let running = match std::mem::replace(&mut self.slots[primary], Slot::Free) {
            Slot::Primary(r) => r,
            other => panic!("vacate called on non-primary slot: {other:?}"),
        };
        for s in self.slots.iter_mut() {
            if matches!(s, Slot::Member { primary: p } if *p == primary) {
                *s = Slot::Free;
            }
        }
        running
    }

    /// Handle a completion event. Returns what the grid should record.
    pub fn on_job_done(
        &mut self,
        slot: usize,
        generation: u64,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) -> LrmOutcome {
        let matches = matches!(&self.slots[slot], Slot::Primary(r) if r.generation == generation);
        if !matches {
            return LrmOutcome::None; // stale event (job was evicted)
        }
        let running = self.vacate(slot);
        let state = self
            .jobs
            .remove(&running.job)
            .expect("running job has state");
        if let Some(h) = running.interrupt {
            cal.cancel(h);
        }
        // MPI jobs burn CPU on every slot of the gang; earlier segments of a
        // speed-changed execution are already banked.
        let cpu = running.banked_cpu
            + now.saturating_since(running.started).as_secs_f64() * running.width as f64;
        self.fill_slots(now, resource_index, cal);
        LrmOutcome::Completed(
            running.job,
            FinishedRun {
                started: running.started,
                cpu_seconds: cpu,
                wasted_cpu_seconds: state.wasted,
                attempts: state.evictions + 1,
                reissues: 0,
                corrupt: false,
                validation: None,
            },
        )
    }

    /// Handle an interruption (owner reclaimed the machine, local process
    /// killed the job, …).
    pub fn on_interrupt(
        &mut self,
        slot: usize,
        generation: u64,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) -> LrmOutcome {
        let matches = matches!(&self.slots[slot], Slot::Primary(r) if r.generation == generation);
        if !matches {
            return LrmOutcome::None;
        }
        let running = self.vacate(slot);
        cal.cancel(running.done);
        let elapsed = now.saturating_since(running.started).as_secs_f64();
        let effective_speed = self.spec.speed * self.speed_factor;
        let state = self
            .jobs
            .get_mut(&running.job)
            .expect("running job has state");
        state.evictions += 1;
        if state.spec.checkpointable {
            // Progress survives (the BOINC-GARLI checkpointing feature);
            // only the staging overhead — across every segment of this
            // execution — is repaid.
            let overhead_served = running.overhead_left.min(elapsed);
            let progressed = (elapsed - overhead_served).max(0.0) * effective_speed;
            state.remaining = (running.remaining_at_start - progressed).max(0.0);
            let overhead_spent = (state.overhead_seconds - running.overhead_left) + overhead_served;
            state.wasted += overhead_spent * running.width as f64;
        } else {
            // All progress lost, on every slot of the gang, including
            // earlier segments of a speed-changed execution.
            state.wasted += running.banked_cpu + elapsed * running.width as f64;
        }
        let outcome = if state.evictions >= self.max_local_retries {
            let state = self.jobs.remove(&running.job).expect("present");
            LrmOutcome::BouncedToGrid {
                job: running.job,
                wasted_cpu_seconds: state.wasted,
                remaining: state.remaining,
            }
        } else {
            self.queue.push_back(running.job);
            LrmOutcome::None
        };
        self.fill_slots(now, resource_index, cal);
        outcome
    }

    /// Change the straggler factor mid-run. Every execution in progress is
    /// re-timed: the current segment's progress (at the old speed) is folded
    /// into the running record, its completion event is rescheduled for the
    /// new effective speed, and its CPU so far is banked so completion and
    /// eviction accounting stay exact across the change.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite factor.
    pub fn set_speed_factor(
        &mut self,
        factor: f64,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid speed factor {factor}"
        );
        if factor == self.speed_factor {
            return;
        }
        let old_effective = self.spec.speed * self.speed_factor;
        self.speed_factor = factor;
        let new_effective = self.spec.speed * factor;
        for slot in 0..self.slots.len() {
            let Slot::Primary(running) = &mut self.slots[slot] else {
                continue;
            };
            let elapsed = now.saturating_since(running.started).as_secs_f64();
            let overhead_served = running.overhead_left.min(elapsed);
            let progressed = (elapsed - overhead_served).max(0.0) * old_effective;
            running.banked_cpu += elapsed * running.width as f64;
            running.remaining_at_start = (running.remaining_at_start - progressed).max(0.0);
            running.overhead_left -= overhead_served;
            running.started = now;
            cal.cancel(running.done);
            let duration = SimDuration::from_secs_f64(
                running.overhead_left + running.remaining_at_start / new_effective,
            );
            running.done = cal.schedule_cancellable(
                now + duration,
                GridEvent::LrmJobDone {
                    resource: resource_index,
                    slot,
                    generation: running.generation,
                },
            );
        }
    }

    /// Take the whole resource down (outage): every running job is evicted
    /// as by interruption, and the resource stops reporting to MDS. Returns
    /// grid-visible outcomes (bounced jobs). Idempotent: a second call while
    /// already offline is a no-op.
    pub fn go_offline(
        &mut self,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) -> Vec<LrmOutcome> {
        if !self.online {
            return Vec::new();
        }
        self.online = false;
        let mut outcomes = Vec::new();
        for slot in 0..self.slots.len() {
            if let Slot::Primary(r) = &self.slots[slot] {
                let generation = r.generation;
                let out = self.on_interrupt(slot, generation, now, resource_index, cal);
                if out != LrmOutcome::None {
                    outcomes.push(out);
                }
            }
        }
        outcomes
    }

    /// Bring the resource back up. Idempotent: a no-op when already online.
    pub fn go_online(
        &mut self,
        now: SimTime,
        resource_index: usize,
        cal: &mut Calendar<GridEvent>,
    ) {
        if self.online {
            return;
        }
        self.online = true;
        self.fill_slots(now, resource_index, cal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn cal() -> Calendar<GridEvent> {
        Calendar::new()
    }

    fn stable_lrm(slots: usize, speed: f64) -> LrmSim {
        LrmSim::new(
            ResourceSpec::cluster("c", ResourceKind::PbsCluster, slots, speed),
            5,
            SimRng::new(1),
        )
    }

    fn unstable_lrm(slots: usize, mean_hours: f64, retries: u32) -> LrmSim {
        LrmSim::new(
            ResourceSpec::condor_pool("p", slots, 1.0, mean_hours),
            retries,
            SimRng::new(2),
        )
    }

    #[test]
    fn jobs_start_immediately_on_free_slots() {
        let mut lrm = stable_lrm(2, 2.0);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 100.0), 0.0, SimTime::ZERO, 0, &mut c);
        lrm.enqueue(JobSpec::simple(2, 100.0), 0.0, SimTime::ZERO, 0, &mut c);
        lrm.enqueue(JobSpec::simple(3, 100.0), 0.0, SimTime::ZERO, 0, &mut c);
        let s = lrm.state();
        assert_eq!(s.free_slots, 0);
        assert_eq!(s.queued_jobs, 1);
        // Two completion events scheduled at t = 100/2 = 50s.
        assert_eq!(c.peek_time(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn completion_frees_slot_and_starts_next() {
        let mut lrm = stable_lrm(1, 1.0);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 60.0), 0.0, SimTime::ZERO, 0, &mut c);
        lrm.enqueue(JobSpec::simple(2, 60.0), 0.0, SimTime::ZERO, 0, &mut c);
        let (t, ev) = c.pop().unwrap();
        let GridEvent::LrmJobDone {
            slot, generation, ..
        } = ev
        else {
            panic!("expected done event")
        };
        let out = lrm.on_job_done(slot, generation, t, 0, &mut c);
        assert_eq!(
            out,
            LrmOutcome::Completed(
                JobId(1),
                FinishedRun {
                    started: SimTime::ZERO,
                    cpu_seconds: 60.0,
                    wasted_cpu_seconds: 0.0,
                    attempts: 1,
                    reissues: 0,
                    corrupt: false,
                    validation: None,
                }
            )
        );
        assert_eq!(lrm.state().queued_jobs, 0);
        assert_eq!(lrm.state().free_slots, 0); // job 2 started
    }

    #[test]
    fn overhead_delays_completion() {
        let mut lrm = stable_lrm(1, 1.0);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 60.0), 30.0, SimTime::ZERO, 0, &mut c);
        assert_eq!(c.peek_time(), Some(SimTime::from_secs(90)));
    }

    #[test]
    fn interruption_requeues_and_wastes_cpu() {
        let mut lrm = unstable_lrm(1, 1.0, 5);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 7200.0), 0.0, SimTime::ZERO, 0, &mut c);
        // Find the interrupt event (there is one done + one interrupt).
        let mut interrupt = None;
        while let Some((t, ev)) = c.pop() {
            if let GridEvent::LrmInterrupt {
                slot, generation, ..
            } = ev
            {
                interrupt = Some((t, slot, generation));
                break;
            }
        }
        let (t, slot, generation) = interrupt.expect("unstable LRM schedules interrupts");
        let out = lrm.on_interrupt(slot, generation, t, 0, &mut c);
        assert_eq!(out, LrmOutcome::None); // requeued locally
                                           // Job restarted from scratch (not checkpointable): full remaining.
        assert_eq!(lrm.active_jobs(), 1);
    }

    #[test]
    fn eviction_limit_bounces_job_to_grid() {
        let mut lrm = unstable_lrm(1, 0.5, 2);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 100_000.0), 0.0, SimTime::ZERO, 0, &mut c);
        let mut bounced = false;
        let mut wasted = 0.0;
        for _ in 0..200 {
            let Some((t, ev)) = c.pop() else { break };
            match ev {
                GridEvent::LrmInterrupt {
                    slot, generation, ..
                } => {
                    match lrm.on_interrupt(slot, generation, t, 0, &mut c) {
                        LrmOutcome::BouncedToGrid {
                            job,
                            wasted_cpu_seconds,
                            remaining,
                        } => {
                            assert_eq!(job, JobId(1));
                            // Not checkpointable: the full job is still owed.
                            assert_eq!(remaining, 100_000.0);
                            bounced = true;
                            wasted = wasted_cpu_seconds;
                            break;
                        }
                        LrmOutcome::None => {}
                        other => panic!("unexpected {other:?}"),
                    }
                }
                GridEvent::LrmJobDone { .. } => panic!("100k-second job cannot finish"),
                _ => {}
            }
        }
        assert!(bounced, "job should bounce after 2 evictions");
        assert!(wasted > 0.0, "evictions waste CPU");
        assert_eq!(lrm.active_jobs(), 0);
    }

    #[test]
    fn checkpointable_jobs_keep_progress() {
        let mut lrm = unstable_lrm(1, 2.0, 100);
        let mut c = cal();
        let mut job = JobSpec::simple(1, 50_000.0);
        job.checkpointable = true;
        lrm.enqueue(job, 0.0, SimTime::ZERO, 0, &mut c);
        // Run the event stream until completion; checkpointing guarantees
        // forward progress despite interruptions.
        let mut completed = false;
        for _ in 0..10_000 {
            let Some((t, ev)) = c.pop() else { break };
            match ev {
                GridEvent::LrmJobDone {
                    slot, generation, ..
                } => {
                    if let LrmOutcome::Completed(job, _) =
                        lrm.on_job_done(slot, generation, t, 0, &mut c)
                    {
                        assert_eq!(job, JobId(1));
                        completed = true;
                        break;
                    }
                }
                GridEvent::LrmInterrupt {
                    slot, generation, ..
                } => {
                    let out = lrm.on_interrupt(slot, generation, t, 0, &mut c);
                    assert_eq!(
                        out,
                        LrmOutcome::None,
                        "checkpointable job never bounces here"
                    );
                }
                _ => {}
            }
        }
        assert!(completed, "checkpointable job must eventually finish");
    }

    #[test]
    fn stale_events_ignored() {
        let mut lrm = stable_lrm(1, 1.0);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 10.0), 0.0, SimTime::ZERO, 0, &mut c);
        // A done event with the wrong generation is stale.
        let out = lrm.on_job_done(0, 999, SimTime::from_secs(5), 0, &mut c);
        assert_eq!(out, LrmOutcome::None);
    }

    #[test]
    fn resumed_job_only_runs_remaining_work() {
        let mut lrm = stable_lrm(1, 2.0);
        let mut c = cal();
        let mut job = JobSpec::simple(1, 1000.0);
        job.checkpointable = true;
        // 400 of 1000 reference-seconds already done elsewhere: at speed 2.0
        // plus 10 s overhead the job finishes at 600/2 + 10 = 310 s.
        lrm.enqueue_resumed(job, 600.0, 10.0, SimTime::ZERO, 0, &mut c);
        assert_eq!(c.peek_time(), Some(SimTime::from_secs(310)));
    }

    #[test]
    fn straggler_factor_reschedules_running_jobs() {
        let mut lrm = stable_lrm(1, 1.0);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 1000.0), 0.0, SimTime::ZERO, 0, &mut c);
        assert_eq!(c.peek_time(), Some(SimTime::from_secs(1000)));
        // At t = 200 (800 ref-s left) the resource slows to ¼ speed: the
        // remainder takes 3200 s, so completion moves to t = 3400.
        lrm.set_speed_factor(0.25, SimTime::from_secs(200), 0, &mut c);
        assert_eq!(c.peek_time(), Some(SimTime::from_secs(3400)));
        let (t, ev) = c.pop().unwrap();
        let GridEvent::LrmJobDone {
            slot, generation, ..
        } = ev
        else {
            panic!("done event")
        };
        match lrm.on_job_done(slot, generation, t, 0, &mut c) {
            LrmOutcome::Completed(_, run) => {
                // CPU is wall-clock: 200 s banked + 3200 s at reduced speed.
                assert!((run.cpu_seconds - 3400.0).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Restoring the factor with nothing running is harmless.
        lrm.set_speed_factor(1.0, t, 0, &mut c);
        assert_eq!(lrm.effective_speed(), 1.0);
    }

    #[test]
    fn straggler_checkpoint_eviction_keeps_slow_segment_progress() {
        let mut lrm = unstable_lrm(1, 1000.0, 1); // interrupts effectively never fire on their own
        let mut c = cal();
        let mut job = JobSpec::simple(1, 1000.0);
        job.checkpointable = true;
        lrm.enqueue(job, 0.0, SimTime::ZERO, 0, &mut c);
        lrm.set_speed_factor(0.5, SimTime::from_secs(100), 0, &mut c);
        // Evict at t = 300: 100 ref-s at speed 1.0 plus 200 s at 0.5 = 200
        // ref-s done, so 800 remain; with max_local_retries = 1 it bounces.
        let Slot::Primary(r) = &lrm.slots[0] else {
            panic!("running")
        };
        let generation = r.generation;
        let out = lrm.on_interrupt(0, generation, SimTime::from_secs(300), 0, &mut c);
        match out {
            LrmOutcome::BouncedToGrid { remaining, .. } => {
                assert!((remaining - 800.0).abs() < 1e-6, "remaining = {remaining}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn offline_evicts_everything() {
        let mut lrm = stable_lrm(2, 1.0);
        let mut c = cal();
        lrm.enqueue(JobSpec::simple(1, 100.0), 0.0, SimTime::ZERO, 0, &mut c);
        lrm.enqueue(JobSpec::simple(2, 100.0), 0.0, SimTime::ZERO, 0, &mut c);
        let _ = lrm.go_offline(SimTime::from_secs(10), 0, &mut c);
        assert!(!lrm.online());
        assert_eq!(lrm.state().free_slots, 2);
        // Jobs were requeued locally (eviction count 1 < retries).
        assert_eq!(lrm.state().queued_jobs, 2);
        // A second offline (overlapping scripted fault + natural outage) is
        // a no-op: no double eviction.
        assert!(lrm.go_offline(SimTime::from_secs(15), 0, &mut c).is_empty());
        assert_eq!(lrm.state().queued_jobs, 2);
        // Going online restarts them; a redundant go_online is harmless.
        lrm.go_online(SimTime::from_secs(20), 0, &mut c);
        lrm.go_online(SimTime::from_secs(21), 0, &mut c);
        assert_eq!(lrm.state().free_slots, 0);
    }
}

#[cfg(test)]
mod mpi_tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn cluster(slots: usize) -> LrmSim {
        LrmSim::new(
            ResourceSpec::cluster("c", ResourceKind::PbsCluster, slots, 1.0),
            5,
            SimRng::new(3),
        )
    }

    #[test]
    fn mpi_job_occupies_its_gang() {
        let mut lrm = cluster(8);
        let mut cal = Calendar::new();
        let job = JobSpec::simple(1, 600.0).mpi(4);
        lrm.enqueue(job, 0.0, SimTime::ZERO, 0, &mut cal);
        assert_eq!(lrm.state().free_slots, 4, "gang of 4 holds 4 slots");
        // Completion frees the whole gang.
        let (t, ev) = cal.pop().unwrap();
        if let GridEvent::LrmJobDone {
            slot, generation, ..
        } = ev
        {
            let out = lrm.on_job_done(slot, generation, t, 0, &mut cal);
            match out {
                LrmOutcome::Completed(_, run) => {
                    // 600 s on 4 slots = 2400 CPU-seconds.
                    assert!((run.cpu_seconds - 2400.0).abs() < 1e-6);
                }
                other => panic!("unexpected {other:?}"),
            }
        } else {
            panic!("expected completion event");
        }
        assert_eq!(lrm.state().free_slots, 8);
    }

    #[test]
    fn gang_waits_for_enough_slots_fifo() {
        let mut lrm = cluster(4);
        let mut cal = Calendar::new();
        // Three serial jobs take 3 slots; the 3-wide MPI job must wait (only
        // 1 free), and the serial job behind it must NOT backfill.
        for i in 0..3 {
            lrm.enqueue(JobSpec::simple(i, 100.0), 0.0, SimTime::ZERO, 0, &mut cal);
        }
        lrm.enqueue(
            JobSpec::simple(10, 100.0).mpi(3),
            0.0,
            SimTime::ZERO,
            0,
            &mut cal,
        );
        lrm.enqueue(JobSpec::simple(11, 100.0), 0.0, SimTime::ZERO, 0, &mut cal);
        let s = lrm.state();
        assert_eq!(
            s.free_slots, 1,
            "serial jobs run; MPI head blocks the queue"
        );
        assert_eq!(s.queued_jobs, 2);
        // Finish the three serial jobs; the MPI job then launches with its
        // full gang and the trailing serial job uses the leftover slot.
        for _ in 0..3 {
            let (t, ev) = cal.pop().unwrap();
            if let GridEvent::LrmJobDone {
                slot, generation, ..
            } = ev
            {
                let _ = lrm.on_job_done(slot, generation, t, 0, &mut cal);
            }
        }
        let s = lrm.state();
        assert_eq!(s.queued_jobs, 0);
        assert_eq!(s.free_slots, 0, "3-wide gang + 1 serial fill the cluster");
    }

    #[test]
    fn interrupted_gang_frees_all_members() {
        let mut lrm = LrmSim::new(
            ResourceSpec {
                mpi_capable: true,
                ..ResourceSpec::condor_pool("p", 6, 1.0, 1.0)
            },
            100,
            SimRng::new(4),
        );
        let mut cal = Calendar::new();
        lrm.enqueue(
            JobSpec::simple(1, 50_000.0).mpi(4),
            0.0,
            SimTime::ZERO,
            0,
            &mut cal,
        );
        assert_eq!(lrm.state().free_slots, 2);
        // Find and fire the interrupt.
        loop {
            let (t, ev) = cal.pop().expect("interrupt scheduled");
            if let GridEvent::LrmInterrupt {
                slot, generation, ..
            } = ev
            {
                let _ = lrm.on_interrupt(slot, generation, t, 0, &mut cal);
                break;
            }
        }
        // The job was requeued and immediately restarted (slots free again),
        // so exactly 2 slots remain free and the waste covers 4 slots.
        assert_eq!(lrm.state().free_slots, 2);
        assert_eq!(lrm.active_jobs(), 1);
    }
}
