//! The BOINC volunteer pool: client churn, work distribution, deadlines,
//! reissue, and redundancy.
//!
//! Volunteer hosts are not dedicated: they toggle between available and
//! unavailable (owner using the machine, machine off), occasionally abandon
//! a task for good, and vary widely in speed. The server therefore attaches
//! a *deadline* to every assignment and reissues work whose results do not
//! arrive in time — "workunit deadlines … are needed on a volunteer
//! computing platform to periodically reissue work if results are not
//! received in a timely manner" (paper §VI.A). Runtime estimates let those
//! deadlines be set programmatically instead of by hand.

use crate::churn::ChurnModel;
use crate::data::{DataGridState, StageIn};
use crate::grid::GridEvent;
use crate::job::{FinishedRun, JobId, JobSpec, Terminal};
use crate::mds::ResourceState;
use quorum::{Completion, QuorumEngine, ValidationConfig, ValidationSnapshot, Verdict};
use serde::{Deserialize, Serialize, Value};
use simkit::calendar::EventHandle;
use simkit::{Calendar, IdMap, SimDuration, SimRng, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// How workunit deadlines are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeadlinePolicy {
    /// One fixed deadline for every workunit — the manual pre-ML practice
    /// ("we have had to fill in this value manually for each batch").
    Fixed(SimDuration),
    /// Deadline = `slack × estimated reference seconds`, clamped below by
    /// `min` — requires the job to carry a runtime estimate; falls back to
    /// `fallback` when it does not.
    EstimateScaled {
        /// Multiplier on the estimate (headroom for slow/intermittent hosts).
        slack: f64,
        /// Minimum deadline.
        min: SimDuration,
        /// Deadline used when a job has no estimate.
        fallback: SimDuration,
    },
}

impl DeadlinePolicy {
    /// The deadline for `job` under this policy.
    pub fn deadline_for(&self, job: &JobSpec) -> SimDuration {
        match *self {
            DeadlinePolicy::Fixed(d) => d,
            DeadlinePolicy::EstimateScaled {
                slack,
                min,
                fallback,
            } => match job.estimated_reference_seconds {
                // Guard against poisoned estimates (NaN, ±inf, zero,
                // negative) and against `est * slack` overflowing to
                // infinity: `SimDuration::from_secs_f64` asserts finite
                // non-negative input, so an unchecked estimate from a
                // mis-trained predictor would panic the server loop.
                Some(est)
                    if est.is_finite()
                        && est > 0.0
                        && (est * slack).is_finite()
                        && est * slack >= 0.0 =>
                {
                    let d = SimDuration::from_secs_f64(est * slack);
                    if d < min {
                        min
                    } else {
                        d
                    }
                }
                _ => fallback,
            },
        }
    }
}

/// Volunteer-pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoincConfig {
    /// Number of attached hosts.
    pub num_clients: usize,
    /// Log-normal (μ, σ) of client speed factors.
    pub speed_mu_sigma: (f64, f64),
    /// Mean length of an availability burst, hours.
    pub mean_on_hours: f64,
    /// Mean length of an unavailability gap, hours.
    pub mean_off_hours: f64,
    /// Probability that an off-transition abandons the running task forever
    /// (host detaches, disk wiped, …).
    pub abandon_probability: f64,
    /// Deadline policy.
    pub deadline: DeadlinePolicy,
    /// Results required to complete a workunit (redundant computing;
    /// 1 = no redundancy).
    pub quorum: usize,
    /// Scheduler-RPC turnaround: delay between becoming idle and receiving
    /// the next task. Every idle host that asks in one work fetch shares
    /// one [`GridEvent::BoincAssign`] at the end of this delay.
    pub work_fetch_delay: SimDuration,
}

impl Default for BoincConfig {
    fn default() -> Self {
        BoincConfig {
            num_clients: 200,
            speed_mu_sigma: (0.0, 0.4), // median 1.0, long tail of fast/slow hosts
            mean_on_hours: 10.0,
            mean_off_hours: 14.0,
            abandon_probability: 0.05,
            deadline: DeadlinePolicy::Fixed(SimDuration::from_days(7)),
            quorum: 1,
            work_fetch_delay: SimDuration::from_secs(60),
        }
    }
}

/// A [`BoincConfig`] availability parameter failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoincConfigError {
    /// `mean_on_hours` must be finite and positive.
    NonPositiveOnHours(f64),
    /// `mean_off_hours` must be finite and positive.
    NonPositiveOffHours(f64),
}

impl std::fmt::Display for BoincConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BoincConfigError::NonPositiveOnHours(v) => {
                write!(f, "mean_on_hours must be finite and > 0, got {v}")
            }
            BoincConfigError::NonPositiveOffHours(v) => {
                write!(f, "mean_off_hours must be finite and > 0, got {v}")
            }
        }
    }
}

impl std::error::Error for BoincConfigError {}

impl BoincConfig {
    /// Reject zero, negative, or non-finite availability burst/gap means.
    /// Left unchecked, a poisoned mean reaches `SimRng::exponential`
    /// (which asserts) only at the first flip — deep inside the event
    /// loop instead of at configuration time (the same failure mode the
    /// [`DeadlinePolicy::EstimateScaled`] guard closes for estimates).
    pub fn validate(&self) -> Result<(), BoincConfigError> {
        if !self.mean_on_hours.is_finite() || self.mean_on_hours <= 0.0 {
            return Err(BoincConfigError::NonPositiveOnHours(self.mean_on_hours));
        }
        if !self.mean_off_hours.is_finite() || self.mean_off_hours <= 0.0 {
            return Err(BoincConfigError::NonPositiveOffHours(self.mean_off_hours));
        }
        Ok(())
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Client {
    speed: f64,
    available: bool,
    task: Option<ClientTask>,
    /// Set while a work-request event is pending for this client.
    fetching: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct ClientTask {
    wu: JobId,
    assignment: u64,
    remaining_ref_seconds: f64,
    resumed_at: SimTime,
    done: Option<EventHandle>,
    /// CPU seconds burned so far on this assignment.
    cpu_spent: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Workunit {
    spec: JobSpec,
    results_received: usize,
    completed: bool,
    reissues: u32,
    first_started: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum AssignmentStatus {
    Outstanding,
    Returned,
    Abandoned,
}

#[derive(Debug, Serialize, Deserialize)]
struct Assignment {
    wu: JobId,
    /// The host this copy ran on (reputation bookkeeping on timeout).
    client: usize,
    status: AssignmentStatus,
}

/// Validation state carried by the pool when `GridConfig::validation` is
/// set: the quorum engine plus a per-workunit ledger of CPU-seconds banked
/// per returned result (arrival order), so useful vs. wasted compute can be
/// split along the engine's valid/invalid verdict at completion.
#[derive(Debug, Serialize, Deserialize)]
struct ValidationState {
    engine: QuorumEngine,
    /// Keyed by `JobId` (dense, so an [`IdMap`]), which encodes as id-sorted
    /// `[id, cpus]` pairs.
    cpu_by_result: IdMap<Vec<f64>>,
}

/// The simulated BOINC project (server + volunteer hosts).
///
/// Snapshot form: the work queue keeps its FIFO order (escalation copies
/// push_front, so order is semantic), while the workunit, assignment, and
/// useful-CPU maps are [`IdMap`]s, encoded as id-sorted pairs. Client task
/// records carry their `done` [`EventHandle`]s verbatim; they stay valid
/// because the grid calendar snapshots its handle space intact. The
/// feeder index is derived and skipped: the hand-written `Deserialize`
/// rebuilds it from the client and workunit tables.
#[derive(Debug, Serialize)]
pub struct BoincSim {
    config: BoincConfig,
    clients: Vec<Client>,
    queue: VecDeque<JobId>,
    workunits: IdMap<Workunit>,
    assignments: IdMap<Assignment>,
    next_assignment: u64,
    /// CPU-seconds wasted on late, redundant, or abandoned results.
    pub wasted_cpu_seconds: f64,
    /// Useful CPU-seconds banked per completed workunit.
    useful_by_wu: IdMap<f64>,
    /// Probability that a returned result is garbage (a scripted fault;
    /// 0.0 in normal operation).
    corruption_rate: f64,
    /// Corrupt results caught by redundant validation (quorum ≥ 2).
    corrupt_caught: u32,
    /// Corrupt results silently accepted (quorum = 1).
    corrupt_accepted: u32,
    /// Probability that an otherwise-honest host returns a wrong score
    /// (transient fault injection; only meaningful with validation on).
    erroneous_rate: f64,
    /// Hosts that *always* return wrong scores (malicious-host injection).
    malicious: Vec<bool>,
    /// The result-validation subsystem (`GridConfig::validation`).
    validation: Option<ValidationState>,
    rng: SimRng,
    /// Realistic availability (`GridConfig::churn`); `None` keeps the flat
    /// exponential flips. The key exists only when the model is enabled,
    /// keeping churn-off snapshots byte-identical to the pre-churn format.
    #[serde(skip_serializing_if = "Option::is_none")]
    churn: Option<ChurnModel>,
    // --- Feeder index: derived state, never serialized (rebuilt on restore
    // and therefore invisible to snapshot byte-identity comparisons). ---
    /// Clients that are available, untasked, and not mid-RPC — exactly the
    /// set the matchmaker hands work to. Ordered ascending, so work goes to
    /// low-index hosts first.
    #[serde(skip)]
    idle: BTreeSet<usize>,
    /// Clients with `available && task.is_none()` (the MDS "free slots"
    /// signal; unlike `idle` it includes clients mid-RPC).
    #[serde(skip)]
    free_clients: usize,
    /// Clients currently holding a task.
    #[serde(skip)]
    active: usize,
    /// Workunits not yet completed.
    #[serde(skip)]
    unfinished: usize,
    /// Sum of `reissues` across all workunits.
    #[serde(skip)]
    reissues_total: u32,
    /// Sum of `reissues` across completed workunits (reissue counts never
    /// change after completion, so `total - completed` is the pending sum).
    #[serde(skip)]
    reissues_completed: u32,
}

impl BoincSim {
    /// Build the pool and schedule every client's first availability flip
    /// and (for initially-available clients) first work request.
    pub fn new(config: BoincConfig, rng: SimRng, cal: &mut Calendar<GridEvent>) -> BoincSim {
        BoincSim::with_churn(config, rng, None, cal)
    }

    /// [`BoincSim::new`], with availability optionally driven by a realistic
    /// [`ChurnModel`] instead of the flat exponential flips. Speed factors
    /// are drawn from the pool RNG either way (same draw order), so the two
    /// modes share host speed distributions for a given seed.
    pub fn with_churn(
        config: BoincConfig,
        mut rng: SimRng,
        mut churn: Option<ChurnModel>,
        cal: &mut Calendar<GridEvent>,
    ) -> BoincSim {
        if let Err(e) = config.validate() {
            panic!("invalid BoincConfig: {e}");
        }
        let mut clients = Vec::with_capacity(config.num_clients);
        for i in 0..config.num_clients {
            let speed = rng.lognormal(config.speed_mu_sigma.0, config.speed_mu_sigma.1);
            let (available, wait) = match &mut churn {
                Some(model) => model.initial_state(i),
                None => {
                    // Stationary start: available with probability on/(on+off).
                    let p_on =
                        config.mean_on_hours / (config.mean_on_hours + config.mean_off_hours);
                    let available = rng.chance(p_on);
                    let flip_mean = if available {
                        config.mean_on_hours
                    } else {
                        config.mean_off_hours
                    };
                    let wait = SimDuration::from_secs_f64(rng.exponential(flip_mean * 3600.0));
                    (available, wait)
                }
            };
            cal.schedule(SimTime::ZERO + wait, GridEvent::BoincFlip { client: i });
            clients.push(Client {
                speed,
                available,
                task: None,
                fetching: false,
            });
        }
        let mut sim = BoincSim {
            config,
            clients,
            queue: VecDeque::new(),
            workunits: IdMap::new(),
            assignments: IdMap::new(),
            next_assignment: 0,
            wasted_cpu_seconds: 0.0,
            useful_by_wu: IdMap::new(),
            corruption_rate: 0.0,
            corrupt_caught: 0,
            corrupt_accepted: 0,
            erroneous_rate: 0.0,
            malicious: Vec::new(),
            validation: None,
            rng,
            churn,
            idle: BTreeSet::new(),
            free_clients: 0,
            active: 0,
            unfinished: 0,
            reissues_total: 0,
            reissues_completed: 0,
        };
        sim.rebuild_derived();
        sim
    }

    /// Recompute every derived structure (idle index, counters) from the
    /// authoritative client/workunit state. Called after construction and
    /// after snapshot restore — derived state is never serialized, so the
    /// encoding is identical to the pre-index format.
    fn rebuild_derived(&mut self) {
        (self.idle, self.free_clients, self.active) = self.scan_clients();
        (
            self.unfinished,
            self.reissues_total,
            self.reissues_completed,
        ) = self.scan_workunits();
    }

    /// The idle set and the free/active client counters, recomputed from
    /// the client table.
    fn scan_clients(&self) -> (BTreeSet<usize>, usize, usize) {
        let mut idle = BTreeSet::new();
        let (mut free, mut active) = (0, 0);
        for (i, c) in self.clients.iter().enumerate() {
            if c.available && c.task.is_none() {
                free += 1;
                if !c.fetching {
                    idle.insert(i);
                }
            }
            if c.task.is_some() {
                active += 1;
            }
        }
        (idle, free, active)
    }

    /// `(unfinished, reissues_total, reissues_completed)`, recomputed from
    /// the workunit table.
    fn scan_workunits(&self) -> (usize, u32, u32) {
        let (mut unfinished, mut reissues, mut reissues_completed) = (0, 0, 0);
        for w in self.workunits.values() {
            reissues += w.reissues;
            if w.completed {
                reissues_completed += w.reissues;
            } else {
                unfinished += 1;
            }
        }
        (unfinished, reissues, reissues_completed)
    }

    /// Panic unless the incrementally maintained idle set and counters
    /// equal a from-scratch rebuild.
    #[cfg(test)]
    pub(crate) fn assert_derived_state_matches_rebuild(&self) {
        assert_eq!(
            self.scan_clients(),
            (self.idle.clone(), self.free_clients, self.active),
            "idle set or free/active counters drifted from the client table"
        );
        assert_eq!(
            self.scan_workunits(),
            (
                self.unfinished,
                self.reissues_total,
                self.reissues_completed
            ),
            "workunit counters drifted from the workunit table"
        );
    }

    /// Re-derive one client's membership in the idle index and the
    /// free/active counters after its state changed. `was` is
    /// [`BoincSim::client_probe`] taken before the mutation.
    fn sync_client(&mut self, i: usize, was: (bool, bool)) {
        let c = &self.clients[i];
        let now_free = c.available && c.task.is_none();
        let now_active = c.task.is_some();
        match (was.0, now_free) {
            (false, true) => self.free_clients += 1,
            (true, false) => self.free_clients -= 1,
            _ => {}
        }
        match (was.1, now_active) {
            (false, true) => self.active += 1,
            (true, false) => self.active -= 1,
            _ => {}
        }
        if now_free && !c.fetching {
            self.idle.insert(i);
        } else {
            self.idle.remove(&i);
        }
    }

    /// `(available && untasked, tasked)` for a client — the inputs the
    /// derived counters are keyed on.
    fn client_probe(&self, i: usize) -> (bool, bool) {
        let c = &self.clients[i];
        (c.available && c.task.is_none(), c.task.is_some())
    }

    /// Turn on result validation. `rng` must be a dedicated fork (the
    /// engine draws spot checks and score jitter from it), so enabling
    /// validation leaves the pool's own RNG stream untouched.
    pub fn enable_validation(&mut self, config: ValidationConfig, rng: SimRng) {
        let mut engine = QuorumEngine::new(config, rng);
        engine.ensure_hosts(self.config.num_clients);
        self.validation = Some(ValidationState {
            engine,
            cpu_by_result: IdMap::new(),
        });
    }

    /// The quorum engine's aggregate accounting, when validation is on.
    pub fn validation_snapshot(&self) -> Option<ValidationSnapshot> {
        self.validation.as_ref().map(|v| v.engine.snapshot())
    }

    /// True iff `host` is currently reputation-blacklisted.
    pub fn host_blacklisted(&self, host: usize) -> bool {
        self.validation
            .as_ref()
            .is_some_and(|v| v.engine.is_blacklisted(host))
    }

    /// Set the probability that an honest host's result carries a wrong
    /// score (fault injection; clamped to `[0, 1]`, `0.0` disables). Only
    /// observable with validation enabled.
    pub fn set_erroneous_rate(&mut self, rate: f64) {
        self.erroneous_rate = rate.clamp(0.0, 1.0);
    }

    /// Mark a deterministic `fraction` of hosts as malicious (every result
    /// they return is wrong). Selection hash-spreads over client indices —
    /// `assign_work` favours low indices, so taking the first *k* hosts
    /// would grossly overweight the injected fraction in practice.
    pub fn set_malicious_fraction(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        self.malicious = (0..self.config.num_clients)
            .map(|i| {
                let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEFE_C8ED;
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                ((h >> 11) as f64 / (1u64 << 53) as f64) < fraction
            })
            .collect();
    }

    /// Set the probability that a returned result is garbage (fault
    /// injection; clamped to `[0, 1]`, `0.0` disables).
    pub fn set_corruption_rate(&mut self, rate: f64) {
        self.corruption_rate = rate.clamp(0.0, 1.0);
    }

    /// Corrupt results caught by redundant validation so far.
    pub fn corrupt_caught(&self) -> u32 {
        self.corrupt_caught
    }

    /// Corrupt results silently accepted (quorum = 1) so far.
    pub fn corrupt_accepted(&self) -> u32 {
        self.corrupt_accepted
    }

    /// The pool configuration.
    pub fn config(&self) -> &BoincConfig {
        &self.config
    }

    /// Median client speed (used for calibration when the grid is built):
    /// the upper middle of the sorted speeds.
    pub fn median_speed(&self) -> f64 {
        let mut speeds: Vec<f64> = self.clients.iter().map(|c| c.speed).collect();
        speeds.sort_by(|a, b| a.partial_cmp(b).expect("speeds are finite"));
        speeds[speeds.len() / 2]
    }

    /// Dynamic state for the MDS provider: available idle hosts are "free
    /// slots". O(1) — served from the feeder counters.
    pub fn state(&self) -> ResourceState {
        ResourceState {
            free_slots: self.free_clients,
            total_slots: self.clients.len(),
            queued_jobs: self.queue.len(),
        }
    }

    /// Workunits not yet completed.
    pub fn unfinished_workunits(&self) -> usize {
        self.unfinished
    }

    /// Clients currently holding an assigned task (actively computing).
    /// Unlike `state().free_slots`, this does not conflate offline hosts
    /// with busy ones — it is the utilisation signal telemetry wants.
    pub fn active_clients(&self) -> usize {
        self.active
    }

    /// Total reissues across all workunits so far.
    pub fn total_reissues(&self) -> u32 {
        self.reissues_total
    }

    /// Reissues attributable to workunits that have *not* completed yet.
    /// Completed workunits' reissues are already folded into their grid-level
    /// job records, so a report summing per-record reissues must add only
    /// this remainder (not [`BoincSim::total_reissues`]) to avoid counting
    /// them twice.
    pub fn pending_reissues(&self) -> u32 {
        self.reissues_total - self.reissues_completed
    }

    /// Accept a job from the grid: create the workunit and queue the
    /// initial copies — `quorum` of them on the legacy path, or however
    /// many the validation engine's replication policy dictates.
    pub fn enqueue(&mut self, job: JobSpec, now: SimTime, cal: &mut Calendar<GridEvent>) {
        let id = job.id;
        let prev = self.workunits.insert(
            id.0,
            Workunit {
                spec: job,
                results_received: 0,
                completed: false,
                reissues: 0,
                first_started: None,
            },
        );
        debug_assert!(prev.is_none(), "duplicate workunit id");
        self.unfinished += 1;
        let copies = match &mut self.validation {
            Some(v) => v.engine.register(id.0),
            None => self.config.quorum,
        };
        for _ in 0..copies {
            self.queue.push_back(id);
        }
        self.assign_work(now, cal);
    }

    /// Hand queued copies to available idle clients (after the scheduler
    /// RPC delay).
    ///
    /// Walks the feeder's idle set — cost proportional to the number of
    /// idle hosts, not the pool size — in ascending client order.
    /// Reputation-blacklisted hosts stay in the set (their status is
    /// threshold-derived and can change) and are skipped per call. The
    /// rest leave the set together as one herd: a single
    /// [`GridEvent::BoincAssign`] `work_fetch_delay` from now, whose
    /// members the grid hands to [`BoincSim::on_assign`] in this order
    /// with nothing else running between them.
    fn assign_work(&mut self, now: SimTime, cal: &mut Calendar<GridEvent>) {
        if self.queue.is_empty() || self.idle.is_empty() {
            return;
        }
        let mut herd: Vec<usize> = self.idle.iter().copied().collect();
        if let Some(v) = &self.validation {
            herd.retain(|&i| !v.engine.is_blacklisted(i));
        }
        if herd.is_empty() {
            return;
        }
        for &i in &herd {
            debug_assert!(
                {
                    let c = &self.clients[i];
                    c.available && c.task.is_none() && !c.fetching
                },
                "idle index out of sync for client {i}"
            );
            self.clients[i].fetching = true;
            self.idle.remove(&i);
        }
        cal.schedule(
            now + self.config.work_fetch_delay,
            GridEvent::BoincAssign { clients: herd },
        );
    }

    /// Deliver a task to a client that completed its scheduler RPC.
    ///
    /// When the grid runs a data plane, the client first downloads the
    /// workunit's inputs (against its own cache and the shared server→client
    /// link): computation starts — and the completion event fires — only
    /// after the download, and the server extends the reported deadline by
    /// the same amount, sizing the work request so transfer time does not
    /// silently eat the compute budget. Returns the staged download (with
    /// the workunit's job id) when one happened, for telemetry.
    pub fn on_assign(
        &mut self,
        client: usize,
        data: Option<&mut DataGridState>,
        now: SimTime,
        cal: &mut Calendar<GridEvent>,
    ) -> Option<(JobId, StageIn)> {
        let was = self.client_probe(client);
        self.clients[client].fetching = false;
        if !self.clients[client].available || self.clients[client].task.is_some() {
            self.sync_client(client, was);
            return None; // went away or got work meanwhile
        }
        if self.host_blacklisted(client) {
            self.sync_client(client, was); // back to idle (skipped per call)
            return None; // blacklisted between RPC and delivery
        }
        // Pop queue copies until one belongs to a live workunit (copies of
        // already-completed workunits are moot).
        let wu_id = loop {
            let Some(id) = self.queue.pop_front() else {
                self.sync_client(client, was); // back to idle: no work left
                return None;
            };
            let live = self.workunits.get(id.0).is_some_and(|w| !w.completed);
            if live {
                break id;
            }
        };
        let wu = self
            .workunits
            .get_mut(wu_id.0)
            .expect("queued workunit exists");
        let assignment = self.next_assignment;
        self.next_assignment += 1;
        self.assignments.insert(
            assignment,
            Assignment {
                wu: wu_id,
                client,
                status: AssignmentStatus::Outstanding,
            },
        );
        if wu.first_started.is_none() {
            wu.first_started = Some(now);
        }
        // Adaptive replication reacts to who this copy landed on: the first
        // assignment to an untrusted (or spot-checked) host escalates the
        // workunit to its full quorum, and the extra copies join the queue.
        let mut escalated = false;
        if let Some(v) = &mut self.validation {
            let extra = v.engine.on_assign(wu_id.0, client);
            if extra > 0 {
                // Quorum-motivated copies jump the queue: closing an open
                // quorum beats starting fresh work, and in a big batch the
                // partner copy would otherwise sit behind every
                // still-unassigned workunit, stalling the completions that
                // reputations (and the adaptive shortcut) are built from.
                for _ in 0..extra {
                    self.queue.push_front(wu_id);
                }
                escalated = true;
            }
        }
        let wu = self
            .workunits
            .get_mut(wu_id.0)
            .expect("queued workunit exists");
        let deadline = self.config.deadline.deadline_for(&wu.spec);
        let stage = data.map(|d| d.boinc_stage_in(client, &wu.spec, now.as_secs_f64()));
        let download = SimDuration::from_secs_f64(stage.as_ref().map_or(0.0, |s| s.seconds));
        cal.schedule(
            now + deadline + download,
            GridEvent::BoincDeadline { assignment },
        );
        let remaining = wu.spec.true_reference_seconds;
        let speed = self.clients[client].speed;
        let done = cal.schedule_cancellable(
            now + download + SimDuration::from_secs_f64(remaining / speed),
            GridEvent::BoincClientDone { client, assignment },
        );
        self.clients[client].task = Some(ClientTask {
            wu: wu_id,
            assignment,
            remaining_ref_seconds: remaining,
            // Compute starts after the download; a flip during the download
            // window charges no CPU (`saturating_since` clamps to zero).
            resumed_at: now + download,
            done: Some(done),
            cpu_spent: 0.0,
        });
        self.sync_client(client, was);
        if escalated {
            // Hand the freshly-queued quorum copies to other idle hosts.
            self.assign_work(now, cal);
        }
        stage.map(|s| (wu_id, s))
    }

    /// A client finished computing its task and uploads the result.
    /// Returns the workunit's job and terminal when the result settled it.
    pub fn on_client_done(
        &mut self,
        client: usize,
        assignment: u64,
        now: SimTime,
        cal: &mut Calendar<GridEvent>,
    ) -> Option<(JobId, Terminal)> {
        let was = self.client_probe(client);
        let task = self.clients[client].task.take()?;
        if task.assignment != assignment {
            self.clients[client].task = Some(task);
            return None; // stale
        }
        self.sync_client(client, was); // now idle: back in the feeder index
        let cpu = task.cpu_spent + now.saturating_since(task.resumed_at).as_secs_f64();
        let a = self
            .assignments
            .get_mut(assignment)
            .expect("assignment exists");
        a.status = AssignmentStatus::Returned;
        // Drawn only under an active corruption fault, so runs without one
        // replay the exact RNG stream they always did.
        let corrupt = self.corruption_rate > 0.0 && self.rng.chance(self.corruption_rate);
        if self.validation.is_some() {
            let outcome = self.on_validated_result(client, task.wu, cpu, corrupt);
            self.assign_work(now, cal);
            return outcome;
        }
        let wu = self.workunits.get_mut(task.wu.0).expect("workunit exists");
        let outcome = if wu.completed {
            // Late or redundant beyond quorum: wasted volunteer time.
            self.wasted_cpu_seconds += cpu;
            None
        } else if corrupt && self.config.quorum >= 2 {
            // Redundant validation rejects the result: it does not count
            // toward quorum, its CPU is waste, and the server reissues a
            // replacement copy.
            self.corrupt_caught += 1;
            self.wasted_cpu_seconds += cpu;
            wu.reissues += 1;
            self.reissues_total += 1;
            self.queue.push_back(task.wu);
            None
        } else {
            if corrupt {
                // No redundancy: nothing to validate against, the garbage
                // result is accepted as-is.
                self.corrupt_accepted += 1;
            }
            wu.results_received += 1;
            match self.useful_by_wu.get_mut(task.wu.0) {
                Some(v) => *v += cpu,
                None => {
                    self.useful_by_wu.insert(task.wu.0, cpu);
                }
            }
            if wu.results_received >= self.config.quorum {
                let useful = *self.useful_by_wu.get(task.wu.0).expect("cpu banked above");
                self.complete(task.wu, useful, corrupt, None)
            } else {
                None
            }
        };
        // The now-idle client asks for more work.
        self.assign_work(now, cal);
        outcome
    }

    /// Route a returned result through the quorum engine: synthesize its
    /// likelihood score (honest or bad depending on the host and active
    /// faults), bank its CPU against the workunit, and act on the verdict.
    fn on_validated_result(
        &mut self,
        client: usize,
        wu_id: JobId,
        cpu: f64,
        corrupt: bool,
    ) -> Option<(JobId, Terminal)> {
        let bad = corrupt
            || self.malicious.get(client).copied().unwrap_or(false)
            || (self.erroneous_rate > 0.0 && self.rng.chance(self.erroneous_rate));
        let v = self.validation.as_mut().expect("validation enabled");
        let wu = self.workunits.get_mut(wu_id.0).expect("workunit exists");
        if wu.completed {
            // Late or redundant beyond the decided quorum: wasted time.
            self.wasted_cpu_seconds += cpu;
            return None;
        }
        wu.results_received += 1;
        match v.cpu_by_result.get_mut(wu_id.0) {
            Some(cpus) => cpus.push(cpu),
            None => {
                v.cpu_by_result.insert(wu_id.0, vec![cpu]);
            }
        }
        let score = v.engine.score_for(wu_id.0, !bad);
        match v.engine.on_result(wu_id.0, client, score) {
            Verdict::Pending { issue } => {
                if issue > 0 {
                    wu.reissues += issue as u32;
                    self.reissues_total += issue as u32;
                    // Tiebreaker copies jump the queue like escalation
                    // copies do: the workunit already has results waiting
                    // on them.
                    for _ in 0..issue {
                        self.queue.push_front(wu_id);
                    }
                }
                None
            }
            Verdict::Completed(c) => {
                let cpus = v.cpu_by_result.remove(wu_id.0).unwrap_or_default();
                let useful: f64 = c
                    .valid
                    .iter()
                    .map(|&i| cpus.get(i).copied().unwrap_or(0.0))
                    .sum();
                let wasted: f64 = c
                    .invalid
                    .iter()
                    .map(|&i| cpus.get(i).copied().unwrap_or(0.0))
                    .sum();
                self.wasted_cpu_seconds += wasted;
                // Honest scores always land within tolerance of each other,
                // so an invalid result is necessarily a bad one: caught.
                self.corrupt_caught += c.invalid.len() as u32;
                if c.canonical_bad {
                    self.corrupt_accepted += 1;
                }
                self.complete(wu_id, useful, c.canonical_bad, Some(c))
            }
            Verdict::Failed => self.fail(wu_id),
        }
    }

    /// The one step that settles a workunit: it leaves the unfinished
    /// count, and its reissues, final from now on, join the settled sum.
    fn retire(&mut self, wu_id: JobId) -> &Workunit {
        let wu = self.workunits.get_mut(wu_id.0).expect("workunit exists");
        wu.completed = true;
        self.unfinished -= 1;
        self.reissues_completed += wu.reissues;
        wu
    }

    /// Settle a workunit whose accepted results took `cpu_seconds`. The
    /// grid's dispatch already counted the one attempt.
    fn complete(
        &mut self,
        wu_id: JobId,
        cpu_seconds: f64,
        corrupt: bool,
        validation: Option<Completion>,
    ) -> Option<(JobId, Terminal)> {
        let wu = self.retire(wu_id);
        let run = FinishedRun {
            started: wu.first_started.expect("started before completing"),
            cpu_seconds,
            wasted_cpu_seconds: 0.0,
            attempts: 1,
            reissues: wu.reissues,
            corrupt,
            validation,
        };
        Some((wu_id, Terminal::Completed(run)))
    }

    /// Settle a workunit the quorum engine gave up on: every result banked
    /// against it was wasted, and its job becomes a dead letter.
    fn fail(&mut self, wu_id: JobId) -> Option<(JobId, Terminal)> {
        self.retire(wu_id);
        let v = self.validation.as_mut().expect("validation enabled");
        let cpus = v.cpu_by_result.remove(wu_id.0).unwrap_or_default();
        self.wasted_cpu_seconds += cpus.iter().sum::<f64>();
        Some((wu_id, Terminal::ValidationFailed))
    }

    /// A deadline fired for an assignment. If its result never arrived
    /// (still outstanding, or silently abandoned — the server cannot tell
    /// the difference), reissue the workunit. Under validation the quorum
    /// engine decides: the timeout dents the host's reputation, and a
    /// workunit whose replica budget is exhausted fails outright.
    ///
    /// Returns the assignment's job (assignments are never removed, so
    /// only an unknown id names none), the copies queued in response, and
    /// the job's terminal when its workunit failed.
    pub fn on_deadline(
        &mut self,
        assignment: u64,
        now: SimTime,
        cal: &mut Calendar<GridEvent>,
    ) -> (Option<JobId>, u32, Option<(JobId, Terminal)>) {
        let Some(a) = self.assignments.get(assignment) else {
            return (None, 0, None);
        };
        let (wu_id, host) = (a.wu, a.client);
        let wu = self.workunits.get_mut(wu_id.0).expect("workunit exists");
        if a.status == AssignmentStatus::Returned || wu.completed {
            return (Some(wu_id), 0, None);
        }
        if let Some(v) = &mut self.validation {
            let decision = v.engine.on_timeout(wu_id.0, host);
            if decision.failed {
                return (Some(wu_id), 0, self.fail(wu_id));
            }
            if !decision.reissue {
                return (Some(wu_id), 0, None);
            }
        }
        wu.reissues += 1;
        self.reissues_total += 1;
        self.queue.push_back(wu_id);
        self.assign_work(now, cal);
        (Some(wu_id), 1, None)
    }

    /// A client's availability flips. When a churn model drives the pool,
    /// returns what the flip did, for churn telemetry.
    pub fn on_flip(
        &mut self,
        client: usize,
        now: SimTime,
        cal: &mut Calendar<GridEvent>,
    ) -> Option<FlipInfo> {
        let was = self.client_probe(client);
        let going_off = self.clients[client].available;
        if going_off {
            // Suspend (or abandon) the running task.
            let abandon = self.rng.chance(self.config.abandon_probability);
            let speed = self.clients[client].speed;
            if let Some(task) = &mut self.clients[client].task {
                let elapsed = now.saturating_since(task.resumed_at).as_secs_f64();
                task.cpu_spent += elapsed;
                task.remaining_ref_seconds =
                    (task.remaining_ref_seconds - elapsed * speed).max(0.0);
                if let Some(h) = task.done.take() {
                    cal.cancel(h);
                }
            }
            if abandon {
                if let Some(task) = self.clients[client].task.take() {
                    self.wasted_cpu_seconds += task.cpu_spent;
                    if let Some(a) = self.assignments.get_mut(task.assignment) {
                        a.status = AssignmentStatus::Abandoned;
                        // The deadline event will reissue the workunit.
                    }
                }
            }
            self.clients[client].available = false;
            self.sync_client(client, was);
        } else {
            self.clients[client].available = true;
            // Resume a suspended task or fetch work.
            let speed = self.clients[client].speed;
            let mut resumed = false;
            if let Some(task) = &mut self.clients[client].task {
                task.resumed_at = now;
                let client_idx = client;
                let h = cal.schedule_cancellable(
                    now + SimDuration::from_secs_f64(task.remaining_ref_seconds / speed),
                    GridEvent::BoincClientDone {
                        client: client_idx,
                        assignment: task.assignment,
                    },
                );
                task.done = Some(h);
                resumed = true;
            }
            self.sync_client(client, was);
            if !resumed {
                self.assign_work(now, cal);
            }
        }
        // Schedule the next flip.
        let available = self.clients[client].available;
        match &mut self.churn {
            Some(model) => {
                // No wait is a permanent detach: the host never flips again.
                // Any task it holds is already suspended/abandoned above;
                // the workunit deadline will reissue it.
                let wait = model.next_wait(client, now, available);
                if let Some(wait) = wait {
                    cal.schedule(now + wait, GridEvent::BoincFlip { client });
                }
                let died = wait.is_none();
                Some(FlipInfo { available, died })
            }
            None => {
                let mean = if available {
                    self.config.mean_on_hours
                } else {
                    self.config.mean_off_hours
                };
                let wait = SimDuration::from_secs_f64(self.rng.exponential(mean * 3600.0));
                cal.schedule(now + wait, GridEvent::BoincFlip { client });
                None
            }
        }
    }

    /// The churn model's counters, when enabled:
    /// `(flips, deaths, outage_truncations)`.
    pub fn churn_counters(&self) -> Option<(u64, u64, u64)> {
        self.churn
            .as_ref()
            .map(|m| (m.flips, m.deaths, m.outage_truncations))
    }
}

/// What one availability flip did (consumed by churn telemetry).
#[derive(Debug, Clone, Copy)]
pub struct FlipInfo {
    /// The client's availability after the flip.
    pub available: bool,
    /// The client permanently detached (no further flips scheduled).
    pub died: bool,
}

// Hand-written so restore can rebuild the skipped feeder index.
impl Deserialize for BoincSim {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for BoincSim"))?;
        let mut sim = BoincSim {
            config: serde::field(fields, "config")?,
            clients: serde::field(fields, "clients")?,
            queue: serde::field(fields, "queue")?,
            workunits: serde::field(fields, "workunits")?,
            assignments: serde::field(fields, "assignments")?,
            next_assignment: serde::field(fields, "next_assignment")?,
            wasted_cpu_seconds: serde::field(fields, "wasted_cpu_seconds")?,
            useful_by_wu: serde::field(fields, "useful_by_wu")?,
            corruption_rate: serde::field(fields, "corruption_rate")?,
            corrupt_caught: serde::field(fields, "corrupt_caught")?,
            corrupt_accepted: serde::field(fields, "corrupt_accepted")?,
            erroneous_rate: serde::field(fields, "erroneous_rate")?,
            malicious: serde::field(fields, "malicious")?,
            validation: serde::field(fields, "validation")?,
            rng: serde::field(fields, "rng")?,
            // Absent in pre-churn (and churn-off) snapshots.
            churn: serde::field_or(fields, "churn", || None)?,
            idle: BTreeSet::new(),
            free_clients: 0,
            active: 0,
            unfinished: 0,
            reissues_total: 0,
            reissues_completed: 0,
        };
        sim.rebuild_derived();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always_on_config(n: usize) -> BoincConfig {
        BoincConfig {
            num_clients: n,
            speed_mu_sigma: (0.0, 1e-9), // all speed ~1.0
            mean_on_hours: 1e6,          // effectively never flips
            mean_off_hours: 1e-6,
            abandon_probability: 0.0,
            deadline: DeadlinePolicy::Fixed(SimDuration::from_days(7)),
            quorum: 1,
            work_fetch_delay: SimDuration::from_secs(10),
        }
    }

    /// Poisoned availability means are rejected at configuration time
    /// with a typed error, not deep inside the event loop when the first
    /// flip reaches `SimRng::exponential` (the `EstimateScaled` deadline
    /// guard pattern).
    #[test]
    fn config_validate_rejects_bad_availability_means() {
        assert_eq!(BoincConfig::default().validate(), Ok(()));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let on = BoincConfig {
                mean_on_hours: bad,
                ..BoincConfig::default()
            };
            match on.validate() {
                Err(BoincConfigError::NonPositiveOnHours(v)) => {
                    assert!(v.is_nan() == bad.is_nan() && (v.is_nan() || v == bad));
                }
                other => panic!("mean_on_hours={bad} gave {other:?}"),
            }
            let off = BoincConfig {
                mean_off_hours: bad,
                ..BoincConfig::default()
            };
            match off.validate() {
                Err(BoincConfigError::NonPositiveOffHours(v)) => {
                    assert!(v.is_nan() == bad.is_nan() && (v.is_nan() || v == bad));
                }
                other => panic!("mean_off_hours={bad} gave {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid BoincConfig")]
    fn constructing_a_pool_with_bad_means_panics() {
        let config = BoincConfig {
            mean_off_hours: 0.0,
            ..BoincConfig::default()
        };
        let mut cal = Calendar::new();
        let _ = BoincSim::new(config, SimRng::new(1), &mut cal);
    }

    /// Drive the pool's own events until quiet or `max` steps, collecting
    /// the terminals it hands the grid.
    fn drain(
        boinc: &mut BoincSim,
        cal: &mut Calendar<GridEvent>,
        max: usize,
    ) -> Vec<(JobId, Terminal)> {
        drain_with(boinc, cal, max, None)
    }

    /// [`drain`], downloading inputs through `data` when given.
    fn drain_with(
        boinc: &mut BoincSim,
        cal: &mut Calendar<GridEvent>,
        max: usize,
        mut data: Option<&mut DataGridState>,
    ) -> Vec<(JobId, Terminal)> {
        let mut outcomes = Vec::new();
        for _ in 0..max {
            let Some((t, ev)) = cal.pop() else { break };
            match ev {
                GridEvent::BoincAssign { clients } => {
                    for client in clients {
                        boinc.on_assign(client, data.as_deref_mut(), t, cal);
                    }
                }
                GridEvent::BoincClientDone { client, assignment } => {
                    outcomes.extend(boinc.on_client_done(client, assignment, t, cal));
                }
                GridEvent::BoincDeadline { assignment } => {
                    outcomes.extend(boinc.on_deadline(assignment, t, cal).2);
                }
                GridEvent::BoincFlip { client } => {
                    boinc.on_flip(client, t, cal);
                }
                _ => {}
            }
        }
        outcomes
    }

    /// The finished-run record of a completed terminal.
    fn run(outcome: &(JobId, Terminal)) -> Option<&FinishedRun> {
        match &outcome.1 {
            Terminal::Completed(run) => Some(run),
            _ => None,
        }
    }

    #[test]
    fn workunit_completes_on_reliable_pool() {
        let mut cal = Calendar::new();
        let mut boinc = BoincSim::new(always_on_config(4), SimRng::new(3), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 3600.0), SimTime::ZERO, &mut cal);
        let outcomes = drain(&mut boinc, &mut cal, 1000);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].0, JobId(1));
        let run = run(&outcomes[0]).expect("completed");
        assert!((run.cpu_seconds - 3600.0).abs() < 10.0);
        assert_eq!(run.reissues, 0);
        assert_eq!(boinc.unfinished_workunits(), 0);
    }

    #[test]
    fn quorum_two_needs_two_results() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(4);
        config.quorum = 2;
        let mut boinc = BoincSim::new(config, SimRng::new(4), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 600.0), SimTime::ZERO, &mut cal);
        let outcomes = drain(&mut boinc, &mut cal, 1000);
        assert_eq!(outcomes.len(), 1);
        // Two copies of 600 s.
        let run = run(&outcomes[0]).expect("completed");
        assert!((run.cpu_seconds - 1200.0).abs() < 10.0);
    }

    #[test]
    fn abandoned_task_reissued_after_deadline() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(3);
        config.mean_on_hours = 0.5; // flips often
        config.mean_off_hours = 0.1;
        config.abandon_probability = 1.0; // every off-flip abandons
        config.deadline = DeadlinePolicy::Fixed(SimDuration::from_hours(2));
        let mut boinc = BoincSim::new(config, SimRng::new(5), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 20_000.0), SimTime::ZERO, &mut cal);
        let outcomes = drain(&mut boinc, &mut cal, 100_000);
        // With certain abandonment the job may or may not complete within
        // the step budget, but reissues must be happening and waste accrues.
        assert!(boinc.total_reissues() > 0, "deadline must trigger reissues");
        assert!(boinc.wasted_cpu_seconds > 0.0);
        let _ = outcomes;
    }

    #[test]
    fn suspended_task_resumes_with_progress() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(1);
        config.abandon_probability = 0.0;
        let mut boinc = BoincSim::new(config, SimRng::new(6), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 7200.0), SimTime::ZERO, &mut cal);
        // Let the assignment happen.
        let (t, ev) = cal.pop().unwrap();
        assert!(matches!(ev, GridEvent::BoincAssign { .. }));
        boinc.on_assign(0, None, t, &mut cal);
        // Suspend at t+1h, resume at t+2h.
        let t1 = t + SimDuration::from_hours(1);
        boinc.on_flip(0, t1, &mut cal); // off
        let t2 = t + SimDuration::from_hours(2);
        boinc.on_flip(0, t2, &mut cal); // on again
                                        // Drain: completion should come ~1h after resume (half done already)
        let outcomes = drain(&mut boinc, &mut cal, 1000);
        let done = outcomes.iter().find_map(run);
        let cpu = done.expect("workunit completes after resume").cpu_seconds;
        assert!(
            (cpu - 7200.0).abs() < 20.0,
            "progress preserved, cpu = {cpu}"
        );
    }

    #[test]
    fn corruption_caught_by_quorum_two() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(4);
        config.quorum = 2;
        let mut boinc = BoincSim::new(config, SimRng::new(8), &mut cal);
        boinc.set_corruption_rate(1.0); // every result is garbage
        boinc.enqueue(JobSpec::simple(1, 600.0), SimTime::ZERO, &mut cal);
        let outcomes = drain(&mut boinc, &mut cal, 500);
        // With certain corruption under validation, nothing ever completes;
        // every result is caught and reissued.
        assert!(outcomes.is_empty());
        assert!(boinc.corrupt_caught() >= 2);
        assert_eq!(boinc.corrupt_accepted(), 0);
        assert!(boinc.wasted_cpu_seconds > 0.0);
        assert_eq!(boinc.unfinished_workunits(), 1);
        // End the fault window: replacement copies now complete cleanly.
        boinc.set_corruption_rate(0.0);
        let outcomes = drain(&mut boinc, &mut cal, 2000);
        let completed = outcomes
            .iter()
            .any(|o| o.0 == JobId(1) && run(o).is_some_and(|r| !r.corrupt));
        assert!(
            completed,
            "workunit completes validly after the fault clears"
        );
    }

    #[test]
    fn corruption_accepted_without_redundancy() {
        let mut cal = Calendar::new();
        let config = always_on_config(2); // quorum 1
        let mut boinc = BoincSim::new(config, SimRng::new(9), &mut cal);
        boinc.set_corruption_rate(1.0);
        boinc.enqueue(JobSpec::simple(1, 600.0), SimTime::ZERO, &mut cal);
        let outcomes = drain(&mut boinc, &mut cal, 500);
        match outcomes.as_slice() {
            [(job, Terminal::Completed(run))] => {
                assert_eq!(*job, JobId(1));
                assert!(run.corrupt, "quorum 1 cannot catch corruption");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(boinc.corrupt_accepted(), 1);
        assert_eq!(boinc.corrupt_caught(), 0);
    }

    #[test]
    fn pending_reissues_excludes_completed_workunits() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(3);
        config.mean_on_hours = 0.5;
        config.mean_off_hours = 0.1;
        config.abandon_probability = 1.0;
        config.deadline = DeadlinePolicy::Fixed(SimDuration::from_hours(2));
        let mut boinc = BoincSim::new(config, SimRng::new(10), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 20_000.0), SimTime::ZERO, &mut cal);
        let _ = drain(&mut boinc, &mut cal, 50_000);
        assert!(boinc.total_reissues() > 0);
        if boinc.unfinished_workunits() == 0 {
            assert_eq!(boinc.pending_reissues(), 0);
        } else {
            assert_eq!(boinc.pending_reissues(), boinc.total_reissues());
        }
    }

    /// Deliver the next work-fetch herd (skipping earlier events) and
    /// return when it arrived.
    fn deliver_herd(boinc: &mut BoincSim, cal: &mut Calendar<GridEvent>) -> SimTime {
        loop {
            let (t, ev) = cal.pop().expect("a herd is due");
            if let GridEvent::BoincAssign { clients } = ev {
                for client in clients {
                    boinc.on_assign(client, None, t, cal);
                }
                return t;
            }
        }
    }

    #[test]
    fn deadline_on_a_missing_result_names_the_job_and_queues_one_copy() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(2);
        config.abandon_probability = 1.0; // every off-flip abandons
        let mut boinc = BoincSim::new(config, SimRng::new(14), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 20_000.0), SimTime::ZERO, &mut cal);
        let t = deliver_herd(&mut boinc, &mut cal); // assignment 0 on client 0
        let late = t + SimDuration::from_hours(1);
        let outstanding = boinc.on_deadline(0, late, &mut cal);
        assert_eq!(outstanding, (Some(JobId(1)), 1, None));
        let t = deliver_herd(&mut boinc, &mut cal); // the copy on client 1
        boinc.on_flip(1, t, &mut cal); // client 1 abandons it
        let status = boinc.assignments.get(1).map(|a| a.status);
        assert_eq!(status, Some(AssignmentStatus::Abandoned));
        let abandoned = boinc.on_deadline(1, t + SimDuration::from_hours(1), &mut cal);
        assert_eq!(abandoned, (Some(JobId(1)), 1, None));
        assert_eq!(boinc.total_reissues(), 2);
        // An assignment the pool never made names no job.
        assert_eq!(boinc.on_deadline(99, late, &mut cal), (None, 0, None));
    }

    #[test]
    fn deadline_after_the_result_names_the_job_and_queues_nothing() {
        let mut cal = Calendar::new();
        let mut boinc = BoincSim::new(always_on_config(2), SimRng::new(15), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 600.0), SimTime::ZERO, &mut cal);
        let t = deliver_herd(&mut boinc, &mut cal);
        let settled = boinc.on_client_done(0, 0, t + SimDuration::from_secs(600), &mut cal);
        assert!(matches!(settled, Some((JobId(1), Terminal::Completed(_)))));
        let returned = boinc.on_deadline(0, t + SimDuration::from_days(7), &mut cal);
        assert_eq!(returned, (Some(JobId(1)), 0, None));
        assert_eq!(boinc.total_reissues(), 0);
    }

    #[test]
    fn deadline_on_a_settled_workunit_queues_and_settles_nothing() {
        let mut cal = Calendar::new();
        let mut config = always_on_config(2);
        config.deadline = DeadlinePolicy::Fixed(SimDuration::from_hours(1));
        let mut boinc = BoincSim::new(config, SimRng::new(16), &mut cal);
        boinc.enqueue(JobSpec::simple(1, 20_000.0), SimTime::ZERO, &mut cal);
        let first = deliver_herd(&mut boinc, &mut cal); // assignment 0 on client 0
        let late = first + SimDuration::from_hours(1);
        assert_eq!(boinc.on_deadline(0, late, &mut cal).1, 1);
        let second = deliver_herd(&mut boinc, &mut cal); // assignment 1 on client 1
                                                         // Client 0's late result still settles the workunit.
        let done = first + SimDuration::from_secs(20_000);
        let settled = boinc.on_client_done(0, 0, done, &mut cal);
        assert!(matches!(settled, Some((JobId(1), Terminal::Completed(_)))));
        let copy = boinc.on_deadline(1, second + SimDuration::from_hours(1), &mut cal);
        assert_eq!(copy, (Some(JobId(1)), 0, None));
        assert_eq!(boinc.total_reissues(), 1);
    }

    #[test]
    fn flips_report_only_under_a_churn_model() {
        let mut cal = Calendar::new();
        let config = always_on_config(2);
        let mut flat = BoincSim::new(config, SimRng::new(17), &mut cal);
        assert!(flat.on_flip(0, SimTime::ZERO, &mut cal).is_none());
        let churn = ChurnModel::new(
            crate::ChurnConfig::realistic(),
            config.mean_on_hours,
            config.mean_off_hours,
            config.num_clients,
            SimRng::new(18),
        );
        let mut churned = BoincSim::with_churn(config, SimRng::new(17), Some(churn), &mut cal);
        let before = churned.clients[0].available;
        let info = churned.on_flip(0, SimTime::ZERO, &mut cal);
        assert_eq!(info.map(|i| i.available), Some(!before));
    }

    #[test]
    fn deadline_policies() {
        let fixed = DeadlinePolicy::Fixed(SimDuration::from_days(7));
        let scaled = DeadlinePolicy::EstimateScaled {
            slack: 3.0,
            min: SimDuration::from_hours(1),
            fallback: SimDuration::from_days(7),
        };
        let with_est = JobSpec::simple(1, 100.0).with_estimate(7200.0);
        let without = JobSpec::simple(2, 100.0);
        assert_eq!(fixed.deadline_for(&with_est), SimDuration::from_days(7));
        assert_eq!(
            scaled.deadline_for(&with_est),
            SimDuration::from_secs(21_600)
        );
        assert_eq!(scaled.deadline_for(&without), SimDuration::from_days(7));
        // Clamped to min.
        let tiny = JobSpec::simple(3, 1.0).with_estimate(10.0);
        assert_eq!(scaled.deadline_for(&tiny), SimDuration::from_hours(1));
    }

    #[test]
    fn estimate_scaled_guards_poisoned_estimates() {
        // A mis-trained predictor can emit NaN, ±inf, zero, or negative
        // estimates; `SimDuration::from_secs_f64` panics on any of them, so
        // the policy must fall back instead of taking down the server loop.
        let fallback = SimDuration::from_days(7);
        let scaled = DeadlinePolicy::EstimateScaled {
            slack: 3.0,
            min: SimDuration::from_hours(1),
            fallback,
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -100.0, 0.0] {
            let job = JobSpec::simple(1, 100.0).with_estimate(bad);
            assert_eq!(scaled.deadline_for(&job), fallback, "estimate {bad}");
        }
        // A finite estimate whose scaled product overflows must also fall
        // back rather than panic.
        let huge = JobSpec::simple(2, 100.0).with_estimate(f64::MAX);
        assert_eq!(scaled.deadline_for(&huge), fallback);
    }

    #[test]
    fn reissue_with_data_plane_charges_download_once_per_assignment() {
        use crate::data::{DataConfig, DataGridState};
        use crate::resource::{ResourceKind, ResourceSpec};
        use datagrid::ObjectRef;

        // A job too long for its deadline: the first assignment times out,
        // the reissued copy lands on the second client, and each of the two
        // assignments must pay the input download exactly once.
        let mut cal = Calendar::new();
        let mut config = always_on_config(2);
        config.deadline = DeadlinePolicy::Fixed(SimDuration::from_hours(1));
        let mut boinc = BoincSim::new(config, SimRng::new(11), &mut cal);
        let pool_spec = ResourceSpec {
            name: "boinc-pool".into(),
            kind: ResourceKind::BoincPool,
            slots: 2,
            speed: 1.0,
            memory_per_slot: 1 << 30,
            platforms: vec![],
            mpi_capable: false,
            software: vec![],
            stable: false,
            mean_hours_between_interruptions: None,
            outages: None,
            site: None,
        };
        let mut data = DataGridState::new(DataConfig::default(), &[pool_spec], Some(0));
        let size = 2_000_000u64;
        let job = JobSpec::simple(1, 20_000.0).with_input(ObjectRef::named("wu", size));
        data.register_job(&job);
        boinc.enqueue(job, SimTime::ZERO, &mut cal);
        let outcomes = drain_with(&mut boinc, &mut cal, 10_000, Some(&mut data));
        assert!(
            outcomes.iter().any(|o| run(o).is_some()),
            "workunit completes on the slow-but-steady first client"
        );
        assert!(boinc.total_reissues() >= 1, "deadline must have fired");
        let report = data.report();
        // Two assignments (original + one that actually got delivered after
        // reissue), two distinct volunteer caches: exactly one charged
        // download each — never zero, never double-charged.
        assert_eq!(report.stage_ins, 2, "{report:?}");
        assert_eq!(report.bytes_moved, 2 * size, "{report:?}");
    }

    #[test]
    fn validated_pool_completes_with_full_quorum() {
        use quorum::ReplicationPolicy;

        let mut cal = Calendar::new();
        let config = always_on_config(4);
        let mut boinc = BoincSim::new(config, SimRng::new(12), &mut cal);
        boinc.enable_validation(
            ValidationConfig {
                min_quorum: 2,
                policy: ReplicationPolicy::Always,
                ..ValidationConfig::default()
            },
            SimRng::new(77),
        );
        boinc.enqueue(JobSpec::simple(1, 600.0), SimTime::ZERO, &mut cal);
        let outcomes = drain(&mut boinc, &mut cal, 1000);
        let run = match outcomes.as_slice() {
            [outcome] => run(outcome).expect("completed"),
            other => panic!("unexpected {other:?}"),
        };
        assert!((run.cpu_seconds - 1200.0).abs() < 10.0);
        assert!(!run.corrupt);
        let c = run.validation.as_ref().expect("validation record");
        assert_eq!(c.valid.len(), 2);
        assert!(c.invalid.is_empty());
        let snap = boinc.validation_snapshot().expect("validation on");
        assert_eq!(snap.workunits, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.replicas_issued, 2);
    }

    #[test]
    fn malicious_results_rejected_and_reputation_blacklists() {
        use quorum::{ReplicationPolicy, TrustPolicy};

        let mut cal = Calendar::new();
        let config = always_on_config(6);
        let mut boinc = BoincSim::new(config, SimRng::new(13), &mut cal);
        boinc.enable_validation(
            ValidationConfig {
                min_quorum: 2,
                policy: ReplicationPolicy::Always,
                trust: TrustPolicy {
                    blacklist_min_results: 3,
                    blacklist_error_rate: 0.5,
                    ..TrustPolicy::default()
                },
                ..ValidationConfig::default()
            },
            SimRng::new(78),
        );
        // Force one specific host bad via the malicious mask.
        boinc.set_malicious_fraction(0.0);
        boinc.malicious = vec![true, false, false, false, false, false];
        for i in 0..8 {
            boinc.enqueue(JobSpec::simple(i, 600.0), SimTime::ZERO, &mut cal);
        }
        let outcomes = drain(&mut boinc, &mut cal, 20_000);
        let completed = outcomes.iter().filter(|o| run(o).is_some()).count();
        let failed = outcomes
            .iter()
            .filter(|o| o.1 == Terminal::ValidationFailed)
            .count();
        // Every workunit terminates: the honest majority validates it, or
        // the cheater burns its replica budget and it fails loudly —
        // nothing hangs, and nothing wrong is ever accepted.
        assert_eq!(completed + failed, 8, "{outcomes:?}");
        assert!(completed >= 6, "honest majority validates almost all work");
        assert!(outcomes.iter().filter_map(run).all(|r| !r.corrupt));
        let snap = boinc.validation_snapshot().expect("validation on");
        assert_eq!(snap.bad_accepted, 0);
        assert!(snap.invalid_results > 0, "{snap:?}");
        assert!(
            boinc.host_blacklisted(0),
            "persistent cheater must lose matchmaking access: {snap:?}"
        );
    }

    #[test]
    fn state_reflects_busy_clients() {
        let mut cal = Calendar::new();
        let mut boinc = BoincSim::new(always_on_config(3), SimRng::new(7), &mut cal);
        assert_eq!(boinc.state().free_slots, 3);
        boinc.enqueue(JobSpec::simple(1, 10_000.0), SimTime::ZERO, &mut cal);
        // Process the assignment RPC.
        let (t, ev) = cal.pop().unwrap();
        if let GridEvent::BoincAssign { clients } = ev {
            for client in clients {
                boinc.on_assign(client, None, t, &mut cal);
            }
        }
        assert_eq!(boinc.state().free_slots, 2);
        assert_eq!(boinc.state().total_slots, 3);
    }
}
