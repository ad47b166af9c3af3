//! The grid world: meta-scheduler + LRMs + BOINC pool + MDS, wired into one
//! discrete-event simulation.
//!
//! Flow of a job (paper §IV–§V): it arrives at the grid level, waits for a
//! scheduling pass, is matched and ranked against the resources currently
//! *reporting* to MDS, is translated by the resource's scheduler adapter,
//! queues locally, executes (surviving or not surviving interruptions and
//! deadlines), and finally reports completion back to the grid, which keeps
//! full per-job accounting.

use crate::adapter;
use crate::boinc::{BoincConfig, BoincSim};
use crate::data::{DataConfig, DataGridState, DataReport};
use crate::fault::FaultAction;
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, Terminal};
use crate::lrm::{LrmOutcome, LrmSim};
use crate::mds::Mds;
use crate::recovery::RecoveryPolicy;
use crate::resource::{ResourceId, ResourceKind, ResourceSpec};
use crate::scheduler::{self, ResourceView, SchedulerPolicy};
use crate::speed::{benchmark_machines, speed_from_benchmarks};
use crate::stability::{ResourceHealth, StabilityTracker};
use crate::telemetry::{GridFact, GridTelemetry, TelemetryConfig, TelemetrySnapshot};
use serde::{Deserialize, JsonWriter, Serialize, Value};
use simkit::{Calendar, FaultScript, SimDuration, SimRng, SimTime, Simulation, World};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Events circulating through the grid simulation.
#[derive(Debug, Serialize, Deserialize)]
pub enum GridEvent {
    /// A job arrives at the meta-scheduler.
    Submit(Box<JobSpec>),
    /// Periodic grid-level scheduling pass.
    ScheduleTick,
    /// Periodic MDS provider report for one resource.
    ProviderReport {
        /// Resource index.
        resource: usize,
    },
    /// An LRM execution finished.
    LrmJobDone {
        /// Resource index.
        resource: usize,
        /// Slot index.
        slot: usize,
        /// Dispatch generation (stale-event guard).
        generation: u64,
    },
    /// An LRM execution was interrupted.
    LrmInterrupt {
        /// Resource index.
        resource: usize,
        /// Slot index.
        slot: usize,
        /// Dispatch generation.
        generation: u64,
    },
    /// A whole resource goes down.
    OutageStart {
        /// Resource index.
        resource: usize,
    },
    /// A downed resource comes back.
    OutageEnd {
        /// Resource index.
        resource: usize,
    },
    /// A volunteer host toggles availability.
    BoincFlip {
        /// Client index.
        client: usize,
    },
    /// A herd of volunteer hosts completes its scheduler RPC: one event per
    /// [`BoincSim`] work fetch, handing each member work in order.
    BoincAssign {
        /// Client indices, in the order the feeder walked its idle set.
        clients: Vec<usize>,
    },
    /// A volunteer host finished its task.
    BoincClientDone {
        /// Client index.
        client: usize,
        /// Assignment id (stale-event guard).
        assignment: u64,
    },
    /// A workunit assignment's deadline passed.
    BoincDeadline {
        /// Assignment id.
        assignment: u64,
    },
    /// A scripted fault (see [`crate::fault`]) fires.
    Fault(FaultAction),
    /// A bounced job's backoff delay elapsed; release it back to the
    /// pending queue (recovery policy only).
    RetryRelease {
        /// The job to requeue.
        job: JobId,
    },
    /// A tenant-attributed submission arriving at the multi-tenant
    /// submission layer (tenancy only). Runs admission control before any
    /// grid state is created; rejected jobs never become records.
    TenantSubmit {
        /// The submitting tenant's id ([`tenancy::TenantId`] raw value).
        tenant: u64,
        /// The job being submitted.
        job: Box<JobSpec>,
    },
}

impl GridEvent {
    /// Stable event-kind label, the bucket key for the self-profiler.
    pub fn label(&self) -> &'static str {
        match self {
            GridEvent::Submit(_) => "submit",
            GridEvent::ScheduleTick => "schedule_tick",
            GridEvent::ProviderReport { .. } => "provider_report",
            GridEvent::LrmJobDone { .. } => "lrm_job_done",
            GridEvent::LrmInterrupt { .. } => "lrm_interrupt",
            GridEvent::OutageStart { .. } => "outage_start",
            GridEvent::OutageEnd { .. } => "outage_end",
            GridEvent::BoincFlip { .. } => "boinc_flip",
            GridEvent::BoincAssign { .. } => "boinc_assign",
            GridEvent::BoincClientDone { .. } => "boinc_client_done",
            GridEvent::BoincDeadline { .. } => "boinc_deadline",
            GridEvent::Fault(_) => "fault",
            GridEvent::RetryRelease { .. } => "retry_release",
            GridEvent::TenantSubmit { .. } => "tenant_submit",
        }
    }
}

/// Grid-wide configuration, read once by [`Grid::new`]: each subsystem
/// keeps its own settings from then on. The periodic machinery is fixed
/// ([`SCHEDULE_INTERVAL`], [`MDS_REPORT_INTERVAL`], [`crate::mds::LIFETIME`]).
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// The service-grid resources (Condor/PBS/SGE). A `BoincPool` spec here
    /// is ignored — configure the pool via `boinc` instead.
    pub resources: Vec<ResourceSpec>,
    /// The volunteer pool, if any.
    pub boinc: Option<BoincConfig>,
    /// Scheduling policy.
    pub policy: SchedulerPolicy,
    /// Per-dispatch staging overhead (input upload, binary staging) added
    /// to every LRM execution.
    pub dispatch_overhead: SimDuration,
    /// Local evictions before a job bounces back to the grid level.
    pub max_local_retries: u32,
    /// Grid-level recovery policy (backoff, blacklist, dead-letter,
    /// checkpoint carry-over). `None` keeps the legacy behaviour: bounced
    /// jobs requeue immediately, restart from scratch, never return to a
    /// resource they failed on, and retry forever.
    pub recovery: Option<RecoveryPolicy>,
    /// Telemetry (structured events, metrics, lifecycle spans, utilisation
    /// timelines). `None` (the default) runs with zero observability
    /// overhead and — by construction — identical behaviour: telemetry
    /// never consumes randomness or schedules events.
    pub telemetry: Option<TelemetryConfig>,
    /// Data plane (content-addressed staging, bandwidth-modeled transfers,
    /// site/volunteer caches, optional data-aware scheduling). `None` (the
    /// default) keeps the original model where inputs are free; like
    /// telemetry, the plane consumes no randomness and schedules no events,
    /// so jobs without inputs behave identically either way.
    pub data: Option<DataConfig>,
    /// Result validation for the volunteer pool (quorum engine, host
    /// reputation, adaptive replication — see the `quorum` crate). `None`
    /// (the default) keeps the legacy counting quorum; the engine draws
    /// from its own forked RNG stream, so an inert configuration (full
    /// quorum matching `BoincConfig::quorum`, no blacklist) replays the
    /// exact event sequence of a validation-free run.
    pub validation: Option<quorum::ValidationConfig>,
    /// Multi-tenant submission layer (accounts, quotas, fair-share
    /// arbitration, credit — see the `tenancy` crate). `None` (the
    /// default) keeps the single-tenant path: plain submissions bypass
    /// the tenant book entirely, and the book itself consumes no
    /// randomness and schedules no events, so a tenancy-free grid behaves
    /// exactly as one built before the crate existed.
    pub tenancy: Option<tenancy::TenancyConfig>,
    /// DAG-structured campaigns (stage barriers, critical-path slack fed
    /// into dispatch priority — see the `flow` crate). `None` (the
    /// default) keeps the flat-batch path: the workflow book consumes no
    /// randomness and schedules no events, so a flow-free grid behaves
    /// exactly as one built before the crate existed.
    pub flow: Option<flow::FlowConfig>,
    /// Realistic volunteer availability (lifetime decay, diurnal/weekly
    /// rhythms, correlated site outages, trace replay — see
    /// [`crate::churn`]). Requires `boinc`. `None` (the default) keeps
    /// the flat exponential on/off flips, byte-identical to before.
    pub churn: Option<crate::churn::ChurnConfig>,
    /// Master seed.
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            resources: Vec::new(),
            boinc: None,
            policy: SchedulerPolicy::default(),
            dispatch_overhead: SimDuration::from_secs(30),
            max_local_retries: 5,
            recovery: None,
            telemetry: None,
            data: None,
            validation: None,
            tenancy: None,
            flow: None,
            churn: None,
            seed: 0,
        }
    }
}

/// Interval between grid-level scheduling passes.
pub const SCHEDULE_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Interval between MDS provider reports, well inside the entry lifetime.
pub const MDS_REPORT_INTERVAL: SimDuration = SimDuration::from_secs(120);

/// The two grid settings the world reads after [`Grid::new`]. A snapshot
/// before v5 stored the whole [`GridConfig`] here, which decodes as this
/// (unknown keys are ignored) once [`refuse_retired_settings`] checked it.
#[derive(Serialize, Deserialize)]
struct WorldConfig {
    policy: SchedulerPolicy,
    dispatch_overhead: SimDuration,
}

/// The simulation model.
///
/// In a snapshot, hash-keyed maps are id-sorted `[key, value]` pairs so
/// snapshot → restore → snapshot is byte-stable; `pending` keeps its live
/// FIFO order because queue position is semantic. Each subsystem below is
/// present iff [`GridConfig`] switched it on, and keeps its own settings.
#[derive(Serialize, Deserialize)]
pub struct GridWorld {
    config: WorldConfig,
    /// All resources (service-grid first, then the BOINC pool if present).
    resources: Vec<ResourceSpec>,
    lrms: Vec<Option<LrmSim>>,
    boinc: Option<BoincSim>,
    boinc_index: Option<usize>,
    measured_speeds: Vec<f64>,
    mds: Mds,
    pending: VecDeque<JobId>,
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    records: HashMap<JobId, JobRecord>,
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    failed_on: HashMap<JobId, BTreeSet<usize>>,
    /// Per-resource flag: provider reports silently dropped (MDS partition)
    /// while the resource keeps computing.
    partitioned: Vec<bool>,
    /// Online resource-health tracking, holding the recovery policy.
    stability: Option<StabilityTracker>,
    /// Checkpointed progress carried across grid-level bounces:
    /// job → (reference-seconds still owed, resource that computed it).
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    carry: HashMap<JobId, (f64, usize)>,
    /// Grid-level bounce count per live job (recovery policy only).
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    grid_retries: HashMap<JobId, u32>,
    /// Jobs permanently failed under the recovery policy's retry budget.
    dead_lettered: usize,
    completed: usize,
    dispatches: u64,
    /// Telemetry sink.
    telemetry: Option<GridTelemetry>,
    /// Data plane.
    data: Option<DataGridState>,
    rng: SimRng,
    /// Tenant book (admission, fair-share, credit). The key is written
    /// only when tenancy is on, so a snapshot written before the subsystem
    /// existed restores as "no tenant state" (`Grid::enable_tenancy` can
    /// start a fresh book on top).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    tenancy: Option<tenancy::TenantBook>,
    /// Workflow book (DAG campaigns, stage barriers, slack hints). Same key
    /// contract as `tenancy` (snapshot v3's only new key); the book's own
    /// deserializer rebuilds slack tables and job-range lookups.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    flow: Option<flow::FlowBook>,
    /// Host-side self-profiler (wall-clock per event kind). Pure observer:
    /// excluded from snapshots and never consulted by the simulation, so a
    /// restored grid simply restarts profiling from zero.
    #[serde(skip)]
    profiler: Option<simkit::profile::Profiler>,
}

impl GridWorld {
    /// True iff every submitted job reached a terminal state (completed or
    /// dead-lettered).
    pub fn all_done(&self) -> bool {
        self.completed + self.dead_lettered == self.records.len()
    }

    /// Jobs whose `Submit` event has been delivered so far.
    pub fn jobs_submitted(&self) -> usize {
        self.records.len()
    }

    /// The tenant book, when the grid runs with [`GridConfig::tenancy`]
    /// (for inspection: quotas, usage, credit).
    pub fn tenant_book(&self) -> Option<&tenancy::TenantBook> {
        self.tenancy.as_ref()
    }

    /// Measured (calibrated) speed of each resource.
    pub fn measured_speeds(&self) -> &[f64] {
        &self.measured_speeds
    }

    /// The telemetry sink, if the grid was configured with one.
    pub fn telemetry(&self) -> Option<&GridTelemetry> {
        self.telemetry.as_ref()
    }

    /// State one transition to the observer, when one is attached.
    fn note(&mut self, now: SimTime, fact: GridFact) {
        if let Some(t) = self.telemetry.as_mut() {
            t.observe(now, fact);
        }
    }

    fn provider_report(&mut self, resource: usize, now: SimTime) {
        if self.partitioned.get(resource).copied().unwrap_or(false) {
            // Silent partition: the provider keeps computing but its report
            // never reaches MDS, so the entry ages out and §V.A's offline
            // rule diverts new work elsewhere.
            return;
        }
        let state = if Some(resource) == self.boinc_index {
            self.boinc.as_ref().map(|b| b.state())
        } else {
            self.lrms[resource]
                .as_ref()
                .filter(|l| l.online())
                .map(|l| l.state())
        };
        if let Some(state) = state {
            self.mds.report(ResourceId(resource), state, now);
        }
    }

    fn schedule_pass(&mut self, now: SimTime, cal: &mut Calendar<GridEvent>) {
        if self.pending.is_empty() {
            return;
        }
        // Snapshot views of everything MDS currently considers online,
        // dropping blacklisted resources and downgrading suspect ones to
        // unstable (the §V stability score fed online instead of from
        // static configuration). The table is indexed by resource id with
        // `None` for offline/blacklisted entries, so the post-dispatch load
        // update is a direct array access.
        let mut views: Vec<Option<ResourceView>> = Vec::with_capacity(self.resources.len());
        for (i, spec) in self.resources.iter().enumerate() {
            let mut entry = None;
            if let Some(state) = self.mds.get(ResourceId(i), now) {
                let mut view =
                    ResourceView::new(ResourceId(i), spec, state, self.measured_speeds[i]);
                let blacklisted = match self.stability.as_ref().map(|t| t.health(i, now)) {
                    Some(ResourceHealth::Blacklisted) => true,
                    Some(ResourceHealth::Suspect) => {
                        view.stable = false;
                        false
                    }
                    _ => false,
                };
                if !blacklisted {
                    entry = Some(view);
                }
            }
            views.push(entry);
        }
        let now_s = now.as_secs_f64();
        let policy = self.config.policy;
        let mut still_pending = VecDeque::new();
        while let Some(job_id) = self.pending.pop_front() {
            let spec = &self.records[&job_id].spec;
            let excluded = self.failed_on.get(&job_id);
            // Data-aware scheduling fills each candidate's stage-in estimate
            // before the filters run; blind mode leaves it `None`, which is
            // the paper's original ranking.
            let aware_data = self.data.as_ref().filter(|d| d.aware());
            let candidates = views
                .iter_mut()
                .flatten()
                .filter(|v| excluded.is_none_or(|ex| !ex.contains(&v.id.0)))
                .map(|v| {
                    if let Some(d) = aware_data {
                        v.stage_in_seconds = Some(d.estimate_stage_in(v.id.0, spec, now_s));
                    }
                    &*v
                });
            let decision = scheduler::decide(spec, candidates, &policy);
            self.note(now, GridFact::Decided(job_id, &decision));
            match decision.chosen {
                Some(ResourceId(r)) => {
                    let spec = self.records[&job_id].spec.clone();
                    self.dispatch(spec, r, now, cal);
                    // Update the view's load so one pass doesn't dump every
                    // job on the same resource.
                    if let Some(v) = views[r].as_mut() {
                        if v.state.free_slots > 0 {
                            v.state.free_slots -= 1;
                        } else {
                            v.state.queued_jobs += 1;
                        }
                    }
                }
                None => still_pending.push_back(job_id),
            }
        }
        self.pending = still_pending;
    }

    fn dispatch(
        &mut self,
        job: JobSpec,
        resource: usize,
        now: SimTime,
        cal: &mut Calendar<GridEvent>,
    ) {
        // Every dispatch passes through the scheduler adapter, as in the
        // real system.
        let _submission = adapter::translate(&job, &self.resources[resource]);
        self.dispatches += 1;
        let record = self.records.get_mut(&job.id).expect("record exists");
        record.attempts += 1;
        if Some(resource) == self.boinc_index {
            self.note(now, GridFact::Dispatched(job.id, resource, false, true));
            // Checkpointed progress cannot ride into a BOINC workunit: the
            // volunteer client starts from scratch.
            self.write_off_carry(job.id);
            self.boinc
                .as_mut()
                .expect("boinc pool present")
                .enqueue(job, now, cal);
            return;
        }
        // Checkpoint-aware rescheduling: resume from the carried
        // reference-seconds instead of restarting from scratch.
        let carried = self.carry.get(&job.id).map(|&(remaining, _)| remaining);
        let resumed = carried.is_some();
        self.note(now, GridFact::Dispatched(job.id, resource, resumed, false));
        let mut overhead = self.config.dispatch_overhead.as_secs_f64();
        // Stage the inputs to the site at dispatch time: the transfer delay
        // rides the existing per-dispatch overhead, holding the slot while
        // bytes move (as real stage-in does).
        if let Some(d) = self.data.as_mut() {
            let stage = d.stage_in(resource, &job, now.as_secs_f64());
            self.note(now, GridFact::StagedIn(job.id, resource, &stage));
            overhead += stage.seconds;
        }
        let lrm = self.lrms[resource].as_mut().expect("lrm present");
        match carried {
            Some(remaining) => lrm.enqueue_resumed(job, remaining, overhead, now, resource, cal),
            None => lrm.enqueue(job, overhead, now, resource, cal),
        }
    }

    /// The grid's one entry: turn `job` into a record. Plain submissions,
    /// tenant submissions the book accepted and released workflow stages
    /// all come through here; the caller decides whether the job joins the
    /// pending queue now or waits for fair-share release.
    fn admit(&mut self, job: JobSpec, now: SimTime) {
        let id = job.id;
        assert!(
            !self.records.contains_key(&id),
            "duplicate job id {id:?} submitted"
        );
        if let Some(d) = self.data.as_mut() {
            d.register_job(&job);
        }
        self.records.insert(id, JobRecord::new(job, now));
        self.note(now, GridFact::Admitted(id));
    }

    /// Handle a tenant-attributed submission: run admission control and
    /// admit the job if the book accepts it (admitted or queued). A
    /// rejected job never becomes a record — [`Grid::workload_settled`]
    /// accounts for it via the book's rejection total instead.
    fn tenant_submit(&mut self, tenant: u64, job: JobSpec, now: SimTime) {
        let book = self
            .tenancy
            .as_mut()
            .expect("TenantSubmit events require GridConfig::tenancy");
        let cost = job
            .estimated_reference_seconds
            .unwrap_or(job.true_reference_seconds);
        let tenant = tenancy::TenantId(tenant);
        let outcome = book.submit(tenant, job.id.0, cost, now);
        self.note(now, GridFact::TenantAdmission(job.id, tenant, &outcome));
        if outcome.accepted() {
            self.admit(job, now);
        }
    }

    /// The tick's backlog step, run before every scheduling pass. Tenancy's
    /// fair-share arbitration moves released jobs from the tenant book into
    /// the pending queue, refilling only up to `total_slots ×
    /// BACKLOG_FACTOR` so over-quota work keeps competing in the book
    /// rather than in FIFO order. Then DAG-aware flow reorders the queue by
    /// stage slack so critical-path stages dispatch first; the sort is
    /// stable, so FIFO order still breaks ties, and jobs outside any
    /// campaign sort last (infinite slack). Without tenancy or DAG-aware
    /// flow the queue is untouched.
    fn refill_backlog(&mut self, now: SimTime) {
        if let Some(book) = self.tenancy.as_mut() {
            let total_slots: usize = self.resources.iter().map(|r| r.slots).sum();
            let target = ((total_slots as f64) * tenancy::BACKLOG_FACTOR).ceil() as usize;
            let budget = target.saturating_sub(self.pending.len());
            if budget > 0 {
                for r in book.release(now, budget) {
                    self.pending.push_back(JobId(r.job));
                    self.note(now, GridFact::TenantReleased(&r));
                }
            }
        }
        if let Some(book) = self.flow.as_ref().filter(|b| b.dag_aware()) {
            self.pending.make_contiguous().sort_by(|a, b| {
                let sa = book.slack_of(a.0).unwrap_or(f64::INFINITY);
                let sb = book.slack_of(b.0).unwrap_or(f64::INFINITY);
                sa.total_cmp(&sb)
            });
        }
    }

    /// The grid's one exit: make `job`'s record terminal, as reported by
    /// `resource` (an LRM, or the volunteer pool). Every subsystem
    /// hears of it here, in a fixed order: the record and the grid's
    /// counters, recovery state, write-off of checkpointed progress a dead
    /// letter still carried, telemetry, the tenant book's CPU charge and
    /// credit, and last the workflow barrier, which may release (and
    /// admit) the next stage.
    fn settle(&mut self, job: JobId, resource: usize, terminal: Terminal, now: SimTime) {
        let record = self.records.get_mut(&job).expect("record exists");
        assert!(
            record.outcome == JobOutcome::Unfinished,
            "job {job:?} reached a second terminal state"
        );
        let (cpu_seconds, corrupt) = match &terminal {
            Terminal::Completed(run) => {
                record.outcome = JobOutcome::Completed;
                record.started = Some(run.started);
                record.finished = Some(now);
                record.completed_by = Some(self.resources[resource].name.clone());
                if run.corrupt {
                    // Accepted-but-garbage result (quorum 1 or a bad result
                    // slipping past trust): the CPU bought nothing.
                    record.corrupt_result = true;
                    record.wasted_cpu_seconds += run.cpu_seconds;
                } else {
                    record.useful_cpu_seconds += run.cpu_seconds;
                }
                record.wasted_cpu_seconds += run.wasted_cpu_seconds;
                record.attempts += run.attempts.saturating_sub(1); // dispatch counted once
                record.reissues += run.reissues;
                self.completed += 1;
                (run.cpu_seconds, run.corrupt)
            }
            Terminal::RetryBudgetSpent | Terminal::ValidationFailed => {
                record.outcome = JobOutcome::DeadLettered;
                self.dead_lettered += 1;
                (0.0, false)
            }
        };
        let dead = record.outcome == JobOutcome::DeadLettered;
        self.grid_retries.remove(&job);
        self.failed_on.remove(&job);
        // A completion consumed its carried progress; a dead letter wastes it.
        if dead {
            self.write_off_carry(job);
        } else {
            self.carry.remove(&job);
        }
        // BOINC-style credit: CPU charged at result time, credit granted
        // only when the result validated clean. Dead-lettered work still
        // burned CPU: its waste is charged, with no credit.
        let charge = if dead {
            self.records[&job].wasted_cpu_seconds
        } else {
            cpu_seconds
        };
        let credited = !dead && !corrupt;
        self.note(now, GridFact::Settled(job, resource, &terminal));
        if let Some(book) = self.tenancy.as_mut() {
            if let Some((tenant, credit)) = book.on_terminal(job.0, charge, credited, now) {
                self.note(now, GridFact::TenantCredited(job, tenant, credit, credited));
            }
        }
        // Failed terminals (dead letters, corrupt acceptances) still satisfy
        // stage barriers — a lost bootstrap replicate degrades the consensus
        // rather than hanging the campaign — but count as stage failures.
        let Some(book) = self.flow.as_mut() else {
            return;
        };
        let progress = book.on_terminal(job.0, dead || corrupt, now);
        let Some(campaign) = progress.campaign else {
            return;
        };
        if let Some(stage) = progress.stage_completed {
            self.note(now, GridFact::StageCompleted(campaign, stage));
        }
        for r in &progress.released {
            self.materialize_stage(campaign, r, now);
        }
        if let Some(done) = &progress.campaign_completed {
            self.note(now, GridFact::CampaignCompleted(done));
        }
    }

    /// Drop `job`'s carried checkpoint, booking the reference-seconds it had
    /// computed as waste at the speed of the resource that computed them.
    fn write_off_carry(&mut self, job: JobId) {
        if let Some((remaining, origin)) = self.carry.remove(&job) {
            let record = self.records.get_mut(&job).expect("record exists");
            let discarded_ref = (record.spec.true_reference_seconds - remaining).max(0.0);
            record.wasted_cpu_seconds += discarded_ref / self.measured_speeds[origin].max(1e-9);
        }
    }

    /// Turn one released stage into grid state: an admitted, pending job
    /// per fan-out slot. Stage jobs carry the spec's reference seconds and
    /// (when present) the scheduler estimate, so deadline policies and
    /// data-aware ranking see them like any other job.
    fn materialize_stage(&mut self, campaign: usize, r: &flow::ReleasedStage, now: SimTime) {
        for id in r.first_job..r.first_job + r.fanout {
            let mut spec = JobSpec::simple(id, r.job_seconds);
            if let Some(est) = r.estimate_seconds {
                spec = spec.with_estimate(est);
            }
            self.admit(spec, now);
            self.pending.push_back(JobId(id));
        }
        self.note(now, GridFact::StageReleased(campaign, r));
    }

    fn apply_lrm_outcome(
        &mut self,
        resource: usize,
        outcome: LrmOutcome,
        now: SimTime,
        cal: &mut Calendar<GridEvent>,
    ) {
        match outcome {
            LrmOutcome::None => {}
            LrmOutcome::Completed(job, run) => {
                if let Some(tracker) = &mut self.stability {
                    tracker.record_success(resource);
                }
                self.settle(job, resource, Terminal::Completed(run), now);
            }
            LrmOutcome::BouncedToGrid {
                job,
                wasted_cpu_seconds,
                remaining,
            } => {
                self.note(now, GridFact::Bounced(job, resource, wasted_cpu_seconds));
                let record = self.records.get_mut(&job).expect("record exists");
                record.wasted_cpu_seconds += wasted_cpu_seconds;
                record.reissues += 1;
                let checkpointable = record.spec.checkpointable;
                let true_ref = record.spec.true_reference_seconds;
                let speed = self.measured_speeds[resource].max(1e-9);
                match self.stability.as_mut() {
                    None => {
                        // Legacy behaviour: requeue immediately, restart from
                        // scratch (any checkpointed progress is discarded —
                        // charged as waste at the resource's calibrated
                        // speed), and never retry the failed resource.
                        let discarded_ref = (true_ref - remaining).max(0.0);
                        if discarded_ref > 0.0 {
                            record.wasted_cpu_seconds += discarded_ref / speed;
                        }
                        self.failed_on.entry(job).or_default().insert(resource);
                        self.pending.push_back(job);
                    }
                    Some(tracker) => {
                        let policy = tracker.policy;
                        if tracker.record_failure(resource, now) {
                            self.note(now, GridFact::Blacklisted(resource));
                        }
                        let retries = {
                            let r = self.grid_retries.entry(job).or_insert(0);
                            *r += 1;
                            *r
                        };
                        if checkpointable {
                            self.carry.insert(job, (remaining, resource));
                        }
                        if retries > policy.max_grid_retries {
                            // Dead-letter: surface the job to the user
                            // instead of requeueing forever.
                            self.settle(job, resource, Terminal::RetryBudgetSpent, now);
                        } else {
                            // Give the failed resource another chance after
                            // the backoff: blacklisting handles genuinely
                            // sick resources, so permanent exclusion is
                            // counter-productive.
                            self.failed_on.remove(&job);
                            let delay = policy.backoff_delay(retries, &mut self.rng);
                            self.note(now, GridFact::BackedOff(job, retries, delay));
                            cal.schedule(now + delay, GridEvent::RetryRelease { job });
                        }
                    }
                }
            }
        }
    }

    /// Apply one scripted fault action at `now`. A resource's own outage
    /// process (`OutageStart`/`OutageEnd`) goes through the same arms.
    fn apply_fault(&mut self, action: FaultAction, now: SimTime, cal: &mut Calendar<GridEvent>) {
        match action {
            FaultAction::Down { resource } => {
                if resource < self.resources.len() {
                    // An outage colds the site cache: staged inputs die with
                    // the head node, so post-recovery dispatches re-pay the
                    // transfer.
                    let dropped = self
                        .data
                        .as_mut()
                        .and_then(|d| d.invalidate_resource(resource));
                    self.note(now, GridFact::ResourceDown(resource, dropped));
                }
                let outcomes = match self.lrms.get_mut(resource) {
                    Some(Some(lrm)) => lrm.go_offline(now, resource, cal),
                    _ => Vec::new(),
                };
                for o in outcomes {
                    self.apply_lrm_outcome(resource, o, now, cal);
                }
            }
            FaultAction::Up { resource } => {
                if resource < self.resources.len() {
                    self.note(now, GridFact::ResourceUp(resource));
                }
                if let Some(Some(lrm)) = self.lrms.get_mut(resource) {
                    lrm.go_online(now, resource, cal);
                }
            }
            FaultAction::PartitionStart { resource } | FaultAction::PartitionEnd { resource } => {
                let started = matches!(action, FaultAction::PartitionStart { .. });
                // One flag per resource, so only a real resource is noted.
                if let Some(p) = self.partitioned.get_mut(resource) {
                    *p = started;
                    self.note(now, GridFact::Partitioned(resource, started));
                }
            }
            FaultAction::SetSpeedFactor { resource, factor } => {
                if let Some(Some(lrm)) = self.lrms.get_mut(resource) {
                    lrm.set_speed_factor(factor, now, resource, cal);
                }
            }
            FaultAction::BoincCorruption { rate } => {
                if let Some(b) = self.boinc.as_mut() {
                    b.set_corruption_rate(rate);
                }
            }
            FaultAction::BoincErroneousResults { rate } => {
                if let Some(b) = self.boinc.as_mut() {
                    b.set_erroneous_rate(rate);
                }
            }
            FaultAction::BoincMaliciousHosts { fraction } => {
                if let Some(b) = self.boinc.as_mut() {
                    b.set_malicious_fraction(fraction);
                }
            }
        }
    }

    /// Hand the observer this event's end state: busy slots per resource
    /// (an offline resource counts as zero) and the pending-queue depth.
    /// No-op when telemetry is off.
    fn refresh_observer(&mut self, now: SimTime) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        let busy = (0..self.resources.len()).map(|i| {
            if Some(i) == self.boinc_index {
                // `state()` counts offline volunteers as non-free; only
                // clients actually holding a task are busy.
                self.boinc.as_ref().map_or(0, |b| b.active_clients())
            } else {
                match self.lrms[i].as_ref() {
                    Some(l) if l.online() => {
                        let s = l.state();
                        s.total_slots - s.free_slots
                    }
                    _ => 0,
                }
            }
        });
        t.refresh(now, busy, self.pending.len());
    }
}

impl World for GridWorld {
    type Event = GridEvent;

    fn handle(&mut self, now: SimTime, event: GridEvent, cal: &mut Calendar<GridEvent>) {
        // Close any time-series windows due before this event mutates
        // state: a window's points then cover exactly the updates that
        // happened inside it, and SLO rules fire at boundary sim-time.
        if let Some(t) = self.telemetry.as_mut() {
            t.advance_windows(now);
        }
        let profiled = self.profiler.as_ref().map(|_| {
            // Label first: `handle` consumes the event.
            (event.label(), std::time::Instant::now())
        });
        match event {
            GridEvent::Submit(job) => {
                let id = job.id;
                self.admit(*job, now);
                self.pending.push_back(id);
            }
            GridEvent::TenantSubmit { tenant, job } => {
                self.tenant_submit(tenant, *job, now);
            }
            GridEvent::ScheduleTick => {
                self.refill_backlog(now);
                self.schedule_pass(now, cal);
                cal.schedule(now + SCHEDULE_INTERVAL, GridEvent::ScheduleTick);
            }
            GridEvent::ProviderReport { resource } => {
                self.provider_report(resource, now);
                cal.schedule(
                    now + MDS_REPORT_INTERVAL,
                    GridEvent::ProviderReport { resource },
                );
            }
            GridEvent::LrmJobDone {
                resource,
                slot,
                generation,
            } => {
                let outcome = self.lrms[resource]
                    .as_mut()
                    .expect("lrm present")
                    .on_job_done(slot, generation, now, resource, cal);
                self.apply_lrm_outcome(resource, outcome, now, cal);
            }
            GridEvent::LrmInterrupt {
                resource,
                slot,
                generation,
            } => {
                let outcome = self.lrms[resource]
                    .as_mut()
                    .expect("lrm present")
                    .on_interrupt(slot, generation, now, resource, cal);
                self.apply_lrm_outcome(resource, outcome, now, cal);
            }
            GridEvent::OutageStart { resource } => {
                self.apply_fault(FaultAction::Down { resource }, now, cal);
                // Reschedule the repair only for resources that actually
                // carry an outage process; injected or stray events must not
                // panic and must not start a phantom MTBF/MTTR cycle.
                if let Some((_, mttr)) = self.resources.get(resource).and_then(|spec| spec.outages)
                {
                    let repair = SimDuration::from_secs_f64(self.rng.exponential(mttr * 3600.0));
                    cal.schedule(now + repair, GridEvent::OutageEnd { resource });
                }
            }
            GridEvent::OutageEnd { resource } => {
                self.apply_fault(FaultAction::Up { resource }, now, cal);
                if let Some((mtbf, _)) = self.resources.get(resource).and_then(|spec| spec.outages)
                {
                    let up = SimDuration::from_secs_f64(self.rng.exponential(mtbf * 3600.0));
                    cal.schedule(now + up, GridEvent::OutageStart { resource });
                }
            }
            GridEvent::BoincFlip { client } => {
                let flip = self
                    .boinc
                    .as_mut()
                    .and_then(|b| b.on_flip(client, now, cal));
                if let Some(flip) = flip {
                    self.note(now, GridFact::HostFlipped(client, &flip));
                }
            }
            GridEvent::BoincAssign { clients } => {
                for client in clients {
                    let data = self.data.as_mut();
                    let staged = self
                        .boinc
                        .as_mut()
                        .and_then(|b| b.on_assign(client, data, now, cal));
                    if let Some((job, stage)) = staged {
                        let pool = self.boinc_index.expect("boinc pool present");
                        self.note(now, GridFact::StagedIn(job, pool, &stage));
                    }
                }
            }
            GridEvent::BoincClientDone { client, assignment } => {
                if let Some(b) = self.boinc.as_mut() {
                    if let Some((job, terminal)) = b.on_client_done(client, assignment, now, cal) {
                        let pool = self.boinc_index.expect("boinc pool present");
                        self.settle(job, pool, terminal, now);
                    }
                }
            }
            GridEvent::BoincDeadline { assignment } => {
                if let Some(b) = self.boinc.as_mut() {
                    let (job, reissued, settled) = b.on_deadline(assignment, now, cal);
                    self.note(now, GridFact::DeadlineFired(assignment, reissued, job));
                    if let Some((job, terminal)) = settled {
                        let pool = self.boinc_index.expect("boinc pool present");
                        self.settle(job, pool, terminal, now);
                    }
                }
            }
            GridEvent::Fault(action) => {
                self.apply_fault(action, now, cal);
            }
            GridEvent::RetryRelease { job } => {
                // Only requeue jobs still alive: the job may have completed
                // on another resource (or been dead-lettered) while waiting
                // out the backoff.
                if self
                    .records
                    .get(&job)
                    .is_some_and(|r| r.outcome == JobOutcome::Unfinished)
                {
                    self.pending.push_back(job);
                }
            }
        }
        // Utilisation timelines are piecewise-constant between events, so
        // refreshing once per handled event captures every transition.
        self.refresh_observer(now);
        if let (Some(p), Some((label, started))) = (self.profiler.as_mut(), profiled) {
            p.record(label, started.elapsed());
        }
    }
}

/// Per-tenant rows carried in reports and telemetry snapshots: top
/// spenders only, totals always cover every tenant (the bound keeps a
/// million-account book from bloating every status page and checkpoint).
const TENANT_TOP_ROWS: usize = 10;

/// Per-campaign rows carried in reports and telemetry snapshots (same
/// bound and rationale as [`TENANT_TOP_ROWS`]).
const FLOW_TOP_ROWS: usize = 10;

/// Aggregate results of a grid run. The `flow` key is written only when
/// the subsystem is on, so flow-free report JSON keeps the pre-flow format.
#[derive(Debug, Clone, Serialize)]
pub struct GridReport {
    /// Jobs submitted.
    pub total_jobs: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs permanently failed under the recovery policy's retry budget.
    pub dead_lettered: usize,
    /// Jobs still pending/running at report time.
    pub unfinished: usize,
    /// Completed jobs whose accepted result was corrupt (BOINC quorum 1).
    pub corrupt_completions: usize,
    /// Times the stability tracker blacklisted a resource.
    pub blacklist_events: u32,
    /// First submit → last completion, if anything completed.
    pub makespan_seconds: Option<f64>,
    /// Mean turnaround of completed jobs, seconds.
    pub mean_turnaround_seconds: f64,
    /// CPU-seconds that produced accepted results.
    pub useful_cpu_seconds: f64,
    /// CPU-seconds burned with nothing to show (evictions, late results,
    /// abandoned tasks).
    pub wasted_cpu_seconds: f64,
    /// Workunit reissues + grid-level bounces.
    pub total_reissues: u32,
    /// Execution attempts across all jobs.
    pub total_attempts: u32,
    /// Dispatches through scheduler adapters.
    pub dispatches: u64,
    /// Completions per resource name.
    pub completed_by: BTreeMap<String, usize>,
    /// Data-plane accounting (`None` when the grid runs without
    /// [`GridConfig::data`]).
    pub data: Option<DataReport>,
    /// Result-validation accounting (`None` when the grid runs without
    /// [`GridConfig::validation`]).
    pub validation: Option<quorum::ValidationSnapshot>,
    /// Tenant accounting (`None` when the grid runs without
    /// [`GridConfig::tenancy`]).
    pub tenancy: Option<tenancy::TenancySnapshot>,
    /// Workflow accounting (`None` when the grid runs without
    /// [`GridConfig::flow`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub flow: Option<flow::FlowSnapshot>,
    /// Per-job records, sorted by job id.
    pub records: Vec<JobRecord>,
}

/// The public driver around the simulation.
pub struct Grid {
    sim: Simulation<GridWorld>,
    submissions_expected: usize,
}

impl Grid {
    /// Build a grid, calibrate resource speeds, and start the periodic
    /// machinery (scheduler ticks, provider reports, outages, volunteer
    /// churn).
    pub fn new(config: GridConfig) -> Grid {
        let seed = config.seed;
        let rng = SimRng::new(seed);
        let mut resources: Vec<ResourceSpec> = config
            .resources
            .iter()
            .filter(|r| r.kind != ResourceKind::BoincPool)
            .cloned()
            .collect();
        let mut cal_seed = Calendar::new();

        // Service-grid LRMs.
        let mut lrms: Vec<Option<LrmSim>> = Vec::new();
        let mut measured_speeds = Vec::new();
        for (i, spec) in resources.iter().enumerate() {
            // Calibration: benchmark a sample of the resource's machines
            // (paper §V.A).
            let sample = spec.slots.clamp(1, 16);
            let mut brng = rng.fork_idx("bench", i as u64);
            let runs = benchmark_machines(&vec![spec.speed; sample], 0.03, &mut brng);
            measured_speeds.push(speed_from_benchmarks(&runs));
            lrms.push(Some(LrmSim::new(
                spec.clone(),
                config.max_local_retries,
                rng.fork_idx("lrm", i as u64),
            )));
        }

        // BOINC pool.
        assert!(
            config.churn.is_none() || config.boinc.is_some(),
            "GridConfig::churn requires a BOINC volunteer pool"
        );
        let mut boinc = None;
        let mut boinc_index = None;
        if let Some(bc) = config.boinc {
            let idx = resources.len();
            // The churn model gets its own fork (like validation): enabling
            // realistic availability must not perturb any other stream.
            let churn = config.churn.clone().map(|cc| {
                crate::churn::ChurnModel::new(
                    cc,
                    bc.mean_on_hours,
                    bc.mean_off_hours,
                    bc.num_clients,
                    rng.fork("churn"),
                )
            });
            let mut pool = BoincSim::with_churn(bc, rng.fork("boinc"), churn, &mut cal_seed);
            // The engine gets its own fork: enabling validation must not
            // perturb the pool's (or anything else's) RNG stream.
            if let Some(vc) = config.validation {
                pool.enable_validation(vc, rng.fork("validation"));
            }
            // The pool advertises itself as one big unstable resource.
            let speed = pool.median_speed();
            let spec = ResourceSpec {
                name: "boinc-pool".into(),
                kind: ResourceKind::BoincPool,
                slots: bc.num_clients,
                speed,
                memory_per_slot: 2 * 1024 * 1024 * 1024,
                platforms: crate::platform::Platform::ALL_COMMON.to_vec(),
                mpi_capable: false,
                software: vec![],
                stable: false,
                mean_hours_between_interruptions: Some(bc.mean_on_hours),
                outages: None,
                site: None,
            };
            measured_speeds.push(speed);
            resources.push(spec);
            lrms.push(None);
            boinc_index = Some(idx);
            boinc = Some(pool);
        }

        let world = GridWorld {
            config: WorldConfig {
                policy: config.policy,
                dispatch_overhead: config.dispatch_overhead,
            },
            mds: Mds::default(),
            partitioned: vec![false; resources.len()],
            telemetry: config
                .telemetry
                .map(|tc| GridTelemetry::new(tc, &resources)),
            data: config
                .data
                .map(|dc| DataGridState::new(dc, &resources, boinc_index)),
            stability: config
                .recovery
                .map(|policy| StabilityTracker::new(resources.len(), policy)),
            tenancy: config.tenancy.map(|_| tenancy::TenantBook::default()),
            flow: config.flow.map(flow::FlowBook::new),
            resources,
            lrms,
            boinc,
            boinc_index,
            measured_speeds,
            pending: VecDeque::new(),
            records: HashMap::new(),
            failed_on: HashMap::new(),
            carry: HashMap::new(),
            grid_retries: HashMap::new(),
            dead_lettered: 0,
            completed: 0,
            dispatches: 0,
            rng: rng.fork("world"),
            profiler: None,
        };

        let mut sim = Simulation::new(world);
        // Transfer the BOINC bootstrap events.
        while let Some((t, ev)) = cal_seed.pop() {
            sim.calendar_mut().schedule(t, ev);
        }
        // Kick off periodic machinery.
        sim.calendar_mut()
            .schedule(SimTime::ZERO, GridEvent::ScheduleTick);
        for i in 0..sim.world().resources.len() {
            sim.calendar_mut()
                .schedule(SimTime::ZERO, GridEvent::ProviderReport { resource: i });
        }
        // Outage processes.
        let mut outage_events = Vec::new();
        {
            let world = sim.world();
            let mut orng = SimRng::new(seed ^ 0xDEAD);
            for (i, spec) in world.resources.iter().enumerate() {
                if let Some((mtbf, _)) = spec.outages {
                    let wait = SimDuration::from_secs_f64(orng.exponential(mtbf * 3600.0));
                    outage_events
                        .push((SimTime::ZERO + wait, GridEvent::OutageStart { resource: i }));
                }
            }
        }
        for (t, ev) in outage_events {
            sim.calendar_mut().schedule(t, ev);
        }
        Grid {
            sim,
            submissions_expected: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The world (for inspection).
    pub fn world(&self) -> &GridWorld {
        self.sim.world()
    }

    /// Full telemetry export at the current instant (`None` when the grid
    /// was built without [`GridConfig::telemetry`]).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let world = self.sim.world();
        world.telemetry.as_ref().map(|t| {
            t.snapshot(
                self.sim.now(),
                &world.mds,
                world.data.as_ref(),
                world.boinc.as_ref().and_then(|b| b.validation_snapshot()),
                world.tenancy.as_ref().map(|b| b.snapshot(TENANT_TOP_ROWS)),
                world
                    .flow
                    .as_ref()
                    .map(|b| b.snapshot(self.sim.now(), FLOW_TOP_ROWS)),
            )
        })
    }

    /// Turn on the host-side self-profiler: subsequent events are timed
    /// (wall clock) into per-event-kind buckets. A pure observer — it never
    /// affects simulation state and is not part of snapshots.
    pub fn enable_profiling(&mut self) {
        self.sim.world_mut().profiler = Some(simkit::profile::Profiler::new());
    }

    /// The profiler's report so far (`None` until
    /// [`Grid::enable_profiling`]).
    pub fn profile_report(&self) -> Option<simkit::profile::ProfileReport> {
        self.sim.world().profiler.as_ref().map(|p| p.report())
    }

    /// Chrome-trace-format export of the causal span log, or `None` when
    /// the grid runs without [`crate::TelemetryConfig::trace_capacity`].
    pub fn chrome_trace(&self) -> Option<String> {
        let world = self.sim.world();
        world
            .telemetry
            .as_ref()
            .and_then(|t| t.chrome_trace(self.sim.now()))
    }

    /// SLO alerts fired since the last drain (for notification fan-out).
    pub fn drain_fired_alerts(&mut self) -> Vec<crate::slo::Alert> {
        self.sim
            .world_mut()
            .telemetry
            .as_mut()
            .map(|t| t.drain_fired_alerts())
            .unwrap_or_default()
    }

    /// Set an externally owned telemetry gauge (e.g. the service loop's
    /// `service.snapshot_age_seconds`). No-op without telemetry.
    pub fn set_telemetry_gauge(&mut self, name: &str, value: f64) {
        if let Some(t) = self.sim.world_mut().telemetry.as_mut() {
            t.set_gauge(name, value);
        }
    }

    /// Submit jobs at the current simulation time.
    pub fn submit(&mut self, jobs: impl IntoIterator<Item = JobSpec>) {
        let now = self.sim.now();
        for job in jobs {
            self.submissions_expected += 1;
            self.sim
                .calendar_mut()
                .schedule(now, GridEvent::Submit(Box::new(job)));
        }
    }

    /// Submit one job at a future time.
    pub fn submit_at(&mut self, job: JobSpec, at: SimTime) {
        self.submissions_expected += 1;
        self.sim
            .calendar_mut()
            .schedule(at, GridEvent::Submit(Box::new(job)));
    }

    /// Register a tenant with the multi-tenant submission layer. Panics
    /// when the grid runs without [`GridConfig::tenancy`].
    pub fn register_tenant(&mut self, spec: tenancy::TenantSpec) -> tenancy::TenantId {
        self.sim
            .world_mut()
            .tenancy
            .as_mut()
            .expect("register_tenant requires GridConfig::tenancy")
            .register(spec)
    }

    /// Turn tenancy on for a grid that runs without it — typically one
    /// restored from a snapshot written before the subsystem existed.
    /// Tenant books start fresh (no retroactive accounting for work
    /// already in the grid). No-op when tenancy is already on: live
    /// ledgers are never clobbered by a reconfiguration.
    pub fn enable_tenancy(&mut self, _: tenancy::TenancyConfig) {
        self.sim
            .world_mut()
            .tenancy
            .get_or_insert_with(tenancy::TenantBook::default);
    }

    /// Submit jobs on behalf of a tenant at the current simulation time.
    /// Admission control decides whether each is admitted, queued, or
    /// rejected; rejected jobs count toward the submission ledger but
    /// never become grid state.
    pub fn submit_for(
        &mut self,
        tenant: tenancy::TenantId,
        jobs: impl IntoIterator<Item = JobSpec>,
    ) {
        let now = self.sim.now();
        for job in jobs {
            self.submit_for_at(tenant, job, now);
        }
    }

    /// Submit one job on behalf of a tenant at a future time.
    pub fn submit_for_at(&mut self, tenant: tenancy::TenantId, job: JobSpec, at: SimTime) {
        self.submissions_expected += 1;
        self.sim.calendar_mut().schedule(
            at,
            GridEvent::TenantSubmit {
                tenant: tenant.0,
                job: Box::new(job),
            },
        );
    }

    /// Tenant accounting at the current instant (`None` when the grid
    /// runs without [`GridConfig::tenancy`]). `max_rows` bounds the
    /// per-tenant rows (top spenders first); the totals always cover
    /// every tenant.
    pub fn tenancy_snapshot(&self, max_rows: usize) -> Option<tenancy::TenancySnapshot> {
        self.sim
            .world()
            .tenancy
            .as_ref()
            .map(|b| b.snapshot(max_rows))
    }

    /// Inject a scripted fault timeline (see [`crate::fault`]). Call before
    /// running: entries scheduled in the past panic when stepped.
    pub fn inject_faults(&mut self, script: FaultScript<FaultAction>) {
        for (t, action) in script.into_entries() {
            self.sim
                .calendar_mut()
                .schedule(t, GridEvent::Fault(action));
        }
    }

    /// Jobs promised via [`Grid::submit`]/[`Grid::submit_at`] (including
    /// submissions whose `Submit` event has not yet been delivered).
    pub fn submissions_expected(&self) -> usize {
        self.submissions_expected
    }

    /// Process exactly one pending event. Returns `false` when the calendar
    /// is empty. This is the finest-grained stepping primitive — the crash
    /// harness uses it to checkpoint between two specific events.
    pub fn step(&mut self) -> bool {
        self.sim.step()
    }

    /// Total events processed since construction (or since the checkpoint
    /// this grid was restored from, which carries the counter forward).
    /// Unlike [`Grid::enable_profiling`] this costs nothing per event, so
    /// throughput benches can derive events/sec without observer overhead.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Advance the clock, processing every event with timestamp ≤ `until`
    /// and nothing after. Unlike [`Grid::run_until_done`] this never stops
    /// early when the workload drains, which makes it the stepping
    /// primitive for service mode (periodic auto-snapshots) and the
    /// checkpoint harness. Returns the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.sim.run_until(until)
    }

    /// True once every submission has settled: delivered and terminal
    /// (completed or dead-lettered), or refused by tenancy admission.
    /// Records fill in as `Submit` events arrive, and refused tenant
    /// submissions never become records, so they count against the
    /// expectation through the tenant book instead.
    pub fn workload_settled(&self) -> bool {
        let world = self.sim.world();
        let rejected = world
            .tenancy
            .as_ref()
            .map_or(0, |b| b.rejected_total() as usize);
        world.records.len() + rejected == self.submissions_expected && world.all_done()
    }

    /// Run until every submission settles ([`Grid::workload_settled`]) or
    /// the clock passes `deadline`. Returns the final report.
    pub fn run_until_done(&mut self, deadline: SimTime) -> GridReport {
        while self
            .sim
            .calendar_mut()
            .peek_time()
            .is_some_and(|t| t <= deadline)
        {
            self.sim.step();
            if self.workload_settled() {
                break;
            }
        }
        self.report()
    }

    /// Build the aggregate report at the current instant.
    pub fn report(&self) -> GridReport {
        let world = self.sim.world();
        let mut records: Vec<JobRecord> = world.records.values().cloned().collect();
        records.sort_by_key(|r| r.spec.id);
        let completed: Vec<&JobRecord> = records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .collect();
        let first_submit = records.iter().map(|r| r.submitted).min();
        let last_finish = completed.iter().filter_map(|r| r.finished).max();
        let makespan_seconds = match (first_submit, last_finish) {
            (Some(s), Some(f)) => Some(f.saturating_since(s).as_secs_f64()),
            _ => None,
        };
        let mean_turnaround_seconds = if completed.is_empty() {
            0.0
        } else {
            completed
                .iter()
                .filter_map(|r| r.turnaround())
                .map(|d| d.as_secs_f64())
                .sum::<f64>()
                / completed.len() as f64
        };
        let boinc_waste = world.boinc.as_ref().map_or(0.0, |b| b.wasted_cpu_seconds);
        // Reissues of completed workunits are already folded into the
        // per-job records, so only count the in-flight (pending) ones here —
        // summing `total_reissues()` on top would double-count.
        let boinc_reissues = world.boinc.as_ref().map_or(0, |b| b.pending_reissues());
        let mut completed_by = BTreeMap::new();
        for r in &completed {
            if let Some(name) = &r.completed_by {
                *completed_by.entry(name.clone()).or_insert(0) += 1;
            }
        }
        GridReport {
            total_jobs: records.len(),
            completed: completed.len(),
            dead_lettered: world.dead_lettered,
            unfinished: records.len() - completed.len() - world.dead_lettered,
            corrupt_completions: completed.iter().filter(|r| r.corrupt_result).count(),
            blacklist_events: world.stability.as_ref().map_or(0, |t| t.blacklist_events()),
            makespan_seconds,
            mean_turnaround_seconds,
            useful_cpu_seconds: records.iter().map(|r| r.useful_cpu_seconds).sum(),
            wasted_cpu_seconds: records.iter().map(|r| r.wasted_cpu_seconds).sum::<f64>()
                + boinc_waste,
            total_reissues: records.iter().map(|r| r.reissues).sum::<u32>() + boinc_reissues,
            total_attempts: records.iter().map(|r| r.attempts).sum(),
            dispatches: world.dispatches,
            completed_by,
            data: world.data.as_ref().map(DataGridState::report),
            validation: world.boinc.as_ref().and_then(|b| b.validation_snapshot()),
            tenancy: world.tenancy.as_ref().map(|b| b.snapshot(TENANT_TOP_ROWS)),
            flow: world
                .flow
                .as_ref()
                .map(|b| b.snapshot(self.sim.now(), FLOW_TOP_ROWS)),
            records,
        }
    }

    /// Submit a DAG campaign at the current simulation time. The
    /// campaign's jobs occupy the contiguous id range starting at
    /// `first_job` (one id per fan-out job, stages in declaration order);
    /// the caller allocates disjoint ranges across campaigns and plain
    /// submissions. Root stages release immediately; every later stage
    /// releases when its dependency barriers drain. All of the campaign's
    /// jobs (released or not) count toward [`Grid::run_until_done`]'s
    /// submission ledger, so a run ends only when the whole DAG settled
    /// or the deadline passed.
    ///
    /// # Panics
    /// Panics when the grid runs without [`GridConfig::flow`] or the job
    /// range overlaps an existing campaign.
    pub fn submit_dag(
        &mut self,
        first_job: u64,
        spec: flow::DagSpec,
    ) -> Result<(), flow::FlowError> {
        let now = self.sim.now();
        let total = spec.total_jobs();
        let world = self.sim.world_mut();
        let book = world
            .flow
            .as_mut()
            .expect("submit_dag requires GridConfig::flow");
        let released = book.submit(spec, first_job, now)?;
        let campaign = book.campaigns() - 1;
        self.submissions_expected += total as usize;
        for r in &released {
            self.sim.world_mut().materialize_stage(campaign, r, now);
        }
        Ok(())
    }

    /// Workflow accounting at the current instant (`None` when the grid
    /// runs without [`GridConfig::flow`]). `max_rows` bounds the
    /// per-campaign rows.
    pub fn flow_snapshot(&self, max_rows: usize) -> Option<flow::FlowSnapshot> {
        self.sim
            .world()
            .flow
            .as_ref()
            .map(|b| b.snapshot(self.sim.now(), max_rows))
    }
}

// Whole-grid checkpoint: everything `run_until_done` depends on rides along —
// the clock, the processed-event count, every pending calendar entry, the
// full world (queues, RNG streams, caches, reputations), and the submission
// ledger — so a restored grid replays bit-identically to an uninterrupted
// run from the same seed.
impl Serialize for Grid {
    fn serialize(&self, out: &mut JsonWriter) {
        out.map(|map| {
            map.entry("now", &self.sim.now());
            map.entry("processed", &self.sim.processed());
            map.entry("calendar", self.sim.calendar());
            map.entry("world", self.sim.world());
            map.entry("submissions_expected", &self.submissions_expected);
        });
    }
}

impl Deserialize for Grid {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Grid"))?;
        let world: GridWorld = serde::field_with(fields, "world", |raw| {
            refuse_retired_settings(raw)?;
            GridWorld::from_value(raw)
        })?;
        // Every queued id is dereferenced on the next scheduling pass, so a
        // dangling one must fail the restore, not the tick after it.
        let records = &world.records;
        if let Some(id) = world.pending.iter().find(|id| !records.contains_key(id)) {
            let msg = format!("pending job {id:?} has no record");
            return Err(serde::Error::custom(msg));
        }
        let calendar: Calendar<GridEvent> = serde::field_with(fields, "calendar", |raw| {
            match per_host_assigns_as_herds(raw) {
                Some(upgraded) => Calendar::from_value(&upgraded),
                None => Calendar::from_value(raw),
            }
        })?;
        let now: SimTime = serde::field(fields, "now")?;
        let processed: u64 = serde::field(fields, "processed")?;
        Ok(Grid {
            sim: Simulation::from_parts(world, calendar, now, processed),
            submissions_expected: serde::field(fields, "submissions_expected")?,
        })
    }
}

/// The value under `key` when `map` is a map that has one.
fn field<'a>(map: &'a Value, key: &str) -> Option<&'a Value> {
    map.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Snapshot versions before 5 stored settings this build runs at fixed
/// values. Refuses a world in which a copy the v4 build read holds any
/// other value, rather than resume it with the constant swapped in: the
/// tick intervals in the world's `config`, the MDS entry lifetime, the
/// data plane's `invalidate_on_outage`, and the tenant book's backlog,
/// credit and fair-share settings. The rest of the world's `GridConfig`
/// copy was never read after construction, so it is ignored. A v5 world
/// has none of these keys: each check is one lookup that finds nothing.
fn refuse_retired_settings(world: &Value) -> Result<(), serde::Error> {
    use tenancy::fairshare::{BOOST_AFTER, HALF_LIFE, URGENT_WINDOW};
    fn fixed<T>(map: Option<&Value>, key: &str, value: T) -> Result<(), serde::Error>
    where
        T: Deserialize + PartialEq + std::fmt::Debug,
    {
        let held = map.and_then(|m| field(m, key)).map(T::from_value);
        match held.transpose()? {
            Some(held) if held != value => Err(serde::Error::custom(format!(
                "snapshot holds `{key}` = {held:?}, a setting this build runs fixed at {value:?}"
            ))),
            _ => Ok(()),
        }
    }
    let config = field(world, "config");
    fixed(config, "schedule_interval", SCHEDULE_INTERVAL)?;
    fixed(config, "mds_report_interval", MDS_REPORT_INTERVAL)?;
    fixed(field(world, "mds"), "lifetime", crate::mds::LIFETIME)?;
    let data = field(world, "data").and_then(|d| field(d, "config"));
    fixed(data, "invalidate_on_outage", true)?;
    let book = field(world, "tenancy");
    fixed(book, "backlog_factor", tenancy::BACKLOG_FACTOR)?;
    fixed(book, "credit_per_cpu_hour", tenancy::CREDIT_PER_CPU_HOUR)?;
    let fair_share = book.and_then(|b| field(b, "fair_share"));
    fixed(fair_share, "half_life", HALF_LIFE)?;
    fixed(fair_share, "boost_after", BOOST_AFTER)?;
    fixed(fair_share, "urgent_window", URGENT_WINDOW)?;
    Ok(())
}

/// Snapshot versions before 4 queued one `{"BoincAssign":{"client":i}}`
/// per host instead of one herd per work fetch. Returns the calendar with
/// each such entry rewritten as the one-member herd
/// `{"BoincAssign":{"clients":[i]}}`, which [`GridWorld`] handles exactly
/// as the per-host event, or `None` when there is nothing to rewrite
/// (every v4 and later calendar), so a current snapshot restores without
/// a copy.
fn per_host_assigns_as_herds(calendar: &Value) -> Option<Value> {
    fn per_host_client(entry: &Value) -> Option<&Value> {
        match field(entry, "event")?.as_map()? {
            [(variant, body)] if variant == "BoincAssign" => field(body, "client"),
            _ => None,
        }
    }
    let entries = field(calendar, "entries")?.as_seq()?;
    if !entries.iter().any(|e| per_host_client(e).is_some()) {
        return None;
    }
    let entries = entries
        .iter()
        .map(|entry| {
            let (Some(client), Some(fields)) = (per_host_client(entry), entry.as_map()) else {
                return entry.clone();
            };
            let herd = Value::Map(vec![(
                "BoincAssign".to_string(),
                Value::Map(vec![(
                    "clients".to_string(),
                    Value::Seq(vec![client.clone()]),
                )]),
            )]);
            let fields = fields.iter().map(|(k, v)| {
                let v = if k == "event" {
                    herd.clone()
                } else {
                    v.clone()
                };
                (k.clone(), v)
            });
            Value::Map(fields.collect())
        })
        .collect();
    let mut upgraded = calendar.as_map()?.to_vec();
    let (_, slot) = upgraded.iter_mut().find(|(k, _)| k == "entries")?;
    *slot = Value::Seq(entries);
    Some(Value::Map(upgraded))
}

/// Grids checkpoint through the versioned [`simkit::Snapshot`] envelope
/// (atomic writes, checksum verification, forward-compat version guard).
impl simkit::Snapshot for Grid {}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_cluster_config(slots: usize, speed: f64) -> GridConfig {
        GridConfig {
            resources: vec![ResourceSpec::cluster(
                "cluster",
                ResourceKind::PbsCluster,
                slots,
                speed,
            )],
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn tenant_submissions_complete_and_credit() {
        let mut config = one_cluster_config(4, 1.0);
        config.tenancy = Some(tenancy::TenancyConfig::default());
        let mut grid = Grid::new(config);
        let alice = grid.register_tenant(tenancy::TenantSpec::registered("alice", 1.0));
        let guest = grid.register_tenant(tenancy::TenantSpec::guest("g@example.org"));
        grid.submit_for(alice, (1..=4).map(|i| JobSpec::simple(i, 1800.0)));
        grid.submit_for(guest, [JobSpec::simple(100, 1800.0)]);
        let report = grid.run_until_done(SimTime::from_hours(24));
        assert_eq!(report.completed, 5);
        let snap = report.tenancy.expect("tenancy on");
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.rejected, 0);
        assert!(snap.credit > 0.0, "validated results must earn credit");
        let book = grid.world().tenant_book().unwrap();
        let (cpu, credit) = book.usage_of(alice).unwrap();
        assert!(cpu >= 4.0 * 1800.0, "alice's CPU charge missing: {cpu}");
        assert!(credit > 0.0);
    }

    #[test]
    fn rejected_tenant_jobs_do_not_block_run_until_done() {
        let mut config = one_cluster_config(2, 1.0);
        config.tenancy = Some(tenancy::TenancyConfig::default());
        let mut grid = Grid::new(config);
        let blocked = grid.register_tenant(
            tenancy::TenantSpec::registered("blocked", 1.0).with_quota(tenancy::Quota {
                max_in_flight: 0,
                max_queued: 0,
                max_cpu_hours: None,
            }),
        );
        let ok = grid.register_tenant(tenancy::TenantSpec::registered("ok", 1.0));
        grid.submit_for(blocked, (1..=3).map(|i| JobSpec::simple(i, 600.0)));
        grid.submit_for(ok, [JobSpec::simple(10, 600.0)]);
        // The run must terminate as soon as the admitted job finishes:
        // zero-quota rejections count toward the submission ledger even
        // though they never become records.
        let report = grid.run_until_done(SimTime::from_days(30));
        assert!(
            grid.now() < SimTime::from_hours(2),
            "run did not stop early"
        );
        assert_eq!(report.completed, 1);
        assert_eq!(report.total_jobs, 1);
        let snap = report.tenancy.expect("tenancy on");
        assert_eq!(snap.rejected, 3);
        assert_eq!(snap.rejections.zero_quota, 3);
    }

    #[test]
    fn single_job_completes_on_cluster() {
        let mut grid = Grid::new(one_cluster_config(4, 1.0));
        grid.submit([JobSpec::simple(1, 3600.0)]);
        let report = grid.run_until_done(SimTime::from_hours(24));
        assert_eq!(report.completed, 1);
        assert_eq!(report.unfinished, 0);
        let r = &report.records[0];
        assert_eq!(r.completed_by.as_deref(), Some("cluster"));
        // Runtime ≈ work/speed + dispatch overhead, plus up to one schedule
        // tick of wait.
        assert!(r.useful_cpu_seconds >= 3600.0);
        assert!(r.useful_cpu_seconds < 3700.0);
        assert_eq!(report.total_reissues, 0);
    }

    #[test]
    fn speed_scales_runtime() {
        let mut grid = Grid::new(one_cluster_config(1, 2.0));
        grid.submit([JobSpec::simple(1, 7200.0)]);
        let report = grid.run_until_done(SimTime::from_hours(24));
        let r = &report.records[0];
        // 7200 ref-seconds at speed 2.0 ≈ 3600s wall.
        assert!(
            (r.useful_cpu_seconds - 3630.0).abs() < 100.0,
            "{}",
            r.useful_cpu_seconds
        );
    }

    #[test]
    fn many_jobs_fill_all_slots() {
        let mut grid = Grid::new(one_cluster_config(8, 1.0));
        grid.submit((0..32).map(|i| JobSpec::simple(i, 1800.0)));
        let report = grid.run_until_done(SimTime::from_hours(24));
        assert_eq!(report.completed, 32);
        // 32 × 30 min on 8 slots ≈ 2 h + overheads; definitely under 3 h.
        assert!(report.makespan_seconds.unwrap() < 3.0 * 3600.0);
        assert!(report.makespan_seconds.unwrap() > 2.0 * 3600.0 - 600.0);
    }

    #[test]
    fn jobs_spread_across_resources() {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("a", ResourceKind::PbsCluster, 4, 1.0),
                ResourceSpec::cluster("b", ResourceKind::SgeCluster, 4, 1.0),
            ],
            seed: 8,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..16).map(|i| JobSpec::simple(i, 600.0)));
        let report = grid.run_until_done(SimTime::from_hours(12));
        assert_eq!(report.completed, 16);
        assert!(report.completed_by.contains_key("a"));
        assert!(report.completed_by.contains_key("b"));
    }

    #[test]
    fn unfinished_jobs_reported_at_deadline() {
        let mut grid = Grid::new(one_cluster_config(1, 1.0));
        grid.submit([JobSpec::simple(1, 100.0 * 3600.0)]);
        let report = grid.run_until_done(SimTime::from_hours(1));
        assert_eq!(report.completed, 0);
        assert_eq!(report.unfinished, 1);
    }

    #[test]
    fn boinc_only_grid_completes_jobs() {
        let config = GridConfig {
            resources: vec![],
            boinc: Some(BoincConfig {
                num_clients: 50,
                abandon_probability: 0.0,
                mean_on_hours: 1e5,
                mean_off_hours: 1e-5,
                ..Default::default()
            }),
            seed: 9,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..20).map(|i| JobSpec::simple(i, 1800.0).with_estimate(1800.0)));
        let report = grid.run_until_done(SimTime::from_days(3));
        assert_eq!(report.completed, 20, "{report:?}");
        assert!(report.completed_by.contains_key("boinc-pool"));
    }

    #[test]
    fn mpi_jobs_avoid_boinc() {
        let config = GridConfig {
            resources: vec![ResourceSpec::cluster("c", ResourceKind::PbsCluster, 2, 1.0)],
            boinc: Some(BoincConfig {
                num_clients: 100,
                ..Default::default()
            }),
            seed: 10,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut job = JobSpec::simple(1, 600.0);
        job.needs_mpi = true;
        grid.submit([job]);
        let report = grid.run_until_done(SimTime::from_days(1));
        assert_eq!(report.completed, 1);
        assert_eq!(report.records[0].completed_by.as_deref(), Some("c"));
    }

    #[test]
    fn memory_hungry_jobs_go_to_big_memory_cluster() {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("small", ResourceKind::PbsCluster, 8, 2.0),
                ResourceSpec::cluster("bigmem", ResourceKind::PbsCluster, 2, 1.0)
                    .with_memory(64 << 30),
            ],
            seed: 11,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut job = JobSpec::simple(1, 600.0);
        job.min_memory_bytes = 32 << 30;
        grid.submit([job]);
        let report = grid.run_until_done(SimTime::from_days(1));
        assert_eq!(report.records[0].completed_by.as_deref(), Some("bigmem"));
    }

    #[test]
    fn long_jobs_with_estimates_avoid_unstable_resources() {
        // One fast Condor pool (attractive to the ranker) + one small
        // cluster. A 50-hour job must go to the cluster when estimates are
        // on.
        let config = GridConfig {
            resources: vec![
                ResourceSpec::condor_pool("condor", 50, 2.0, 4.0),
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 2, 1.0),
            ],
            seed: 12,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let long = 50.0 * 3600.0;
        grid.submit([JobSpec::simple(1, long).with_estimate(long)]);
        let report = grid.run_until_done(SimTime::from_days(10));
        assert_eq!(report.completed, 1);
        assert_eq!(report.records[0].completed_by.as_deref(), Some("cluster"));
        assert_eq!(report.records[0].wasted_cpu_seconds, 0.0);
    }

    #[test]
    fn without_estimates_long_jobs_waste_cpu_on_condor() {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::condor_pool("condor", 50, 2.0, 4.0),
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 2, 1.0),
            ],
            policy: SchedulerPolicy {
                use_runtime_estimates: false,
                ..Default::default()
            },
            seed: 13,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let long = 50.0 * 3600.0;
        // No estimate: the naive scheduler sends it to the big fast pool.
        grid.submit([JobSpec::simple(1, long)]);
        let report = grid.run_until_done(SimTime::from_days(30));
        // It eventually completes (bounced to the cluster) but wastes CPU.
        assert!(report.wasted_cpu_seconds > 0.0, "{report:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut grid = Grid::new(one_cluster_config(4, 1.3));
            grid.submit((0..10).map(|i| JobSpec::simple(i, 900.0 + i as f64 * 100.0)));
            let r = grid.run_until_done(SimTime::from_days(1));
            (r.makespan_seconds, r.useful_cpu_seconds)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn calibrated_speeds_close_to_truth() {
        let grid = Grid::new(one_cluster_config(16, 2.5));
        let measured = grid.world().measured_speeds()[0];
        assert!((measured - 2.5).abs() < 0.2, "measured {measured}");
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_rejected() {
        let mut grid = Grid::new(one_cluster_config(1, 1.0));
        grid.submit([JobSpec::simple(1, 10.0), JobSpec::simple(1, 10.0)]);
        let _ = grid.run_until_done(SimTime::from_hours(1));
    }

    #[test]
    fn boinc_reissues_not_double_counted() {
        use crate::boinc::DeadlinePolicy;
        // Churny, abandoning volunteers force deadline reissues. Once every
        // workunit completes, those reissues are already folded into the
        // per-job records — the report must not add `total_reissues()` on
        // top (the old double-count).
        let config = GridConfig {
            resources: vec![],
            boinc: Some(BoincConfig {
                num_clients: 40,
                mean_on_hours: 2.0,
                mean_off_hours: 6.0,
                abandon_probability: 0.3,
                deadline: DeadlinePolicy::Fixed(SimDuration::from_hours(6)),
                ..Default::default()
            }),
            seed: 21,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..30).map(|i| JobSpec::simple(i, 3600.0).with_estimate(3600.0)));
        let report = grid.run_until_done(SimTime::from_days(60));
        assert_eq!(report.completed, 30, "{report:?}");
        let per_record: u32 = report.records.iter().map(|r| r.reissues).sum();
        assert!(per_record > 0, "scenario must actually reissue work");
        assert_eq!(report.total_reissues, per_record);
    }

    #[test]
    fn boinc_derived_state_matches_a_rebuild_after_every_event() {
        use crate::boinc::DeadlinePolicy;
        // Realistic churn flips hosts, abandoning volunteers and short
        // deadlines force reissues, and erroneous results make validation
        // replicate further. After every event the pool's incrementally
        // maintained idle set and counters must equal a from-scratch
        // rebuild from its client and workunit tables.
        let config = GridConfig {
            resources: vec![],
            boinc: Some(BoincConfig {
                num_clients: 40,
                abandon_probability: 0.2,
                deadline: DeadlinePolicy::Fixed(SimDuration::from_hours(6)),
                ..Default::default()
            }),
            validation: Some(quorum::ValidationConfig::default()),
            churn: Some(crate::ChurnConfig::realistic()),
            seed: 43,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.inject_faults(FaultScript::new().at(
            SimTime::ZERO,
            FaultAction::BoincErroneousResults { rate: 0.2 },
        ));
        grid.submit((0..40).map(|i| {
            let secs = 1800.0 + 300.0 * (i % 7) as f64;
            JobSpec::simple(i, secs).with_estimate(secs)
        }));
        let mut events = 0;
        while !grid.workload_settled() && grid.step() {
            events += 1;
            let boinc = grid.world().boinc.as_ref().expect("boinc pool present");
            boinc.assert_derived_state_matches_rebuild();
            assert!(events < 500_000, "workload never settled");
        }
        let report = grid.report();
        assert_eq!(report.completed, 40, "{report:?}");
        assert!(report.total_reissues > 0, "scenario must reissue work");
        let validation = report.validation.as_ref().expect("validation on");
        assert!(
            validation.invalid_results > 0,
            "scenario must disagree: {validation:?}"
        );
    }

    #[test]
    fn injected_outage_without_config_is_harmless() {
        // The cluster has no MTBF/MTTR process; stray outage events (e.g.
        // injected by a test harness) must neither panic nor spawn a
        // phantom repair cycle.
        let mut grid = Grid::new(one_cluster_config(2, 1.0));
        grid.sim.calendar_mut().schedule(
            SimTime::from_secs(10),
            GridEvent::OutageStart { resource: 0 },
        );
        grid.sim
            .calendar_mut()
            .schedule(SimTime::from_secs(20), GridEvent::OutageEnd { resource: 0 });
        grid.submit([JobSpec::simple(1, 1800.0)]);
        let report = grid.run_until_done(SimTime::from_hours(12));
        assert_eq!(report.completed, 1, "{report:?}");
    }

    #[test]
    fn retry_budget_dead_letters_hopeless_jobs() {
        // One hyper-flaky Condor pool and nowhere else to go: a long,
        // non-checkpointable job can never finish, so the recovery policy
        // must dead-letter it instead of bouncing forever.
        let config = GridConfig {
            resources: vec![ResourceSpec::condor_pool("flaky", 4, 1.0, 0.05)],
            max_local_retries: 1,
            recovery: Some(RecoveryPolicy {
                max_grid_retries: 3,
                backoff_base: SimDuration::from_secs(30),
                ..Default::default()
            }),
            seed: 23,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit([JobSpec::simple(1, 40.0 * 3600.0)]);
        let report = grid.run_until_done(SimTime::from_days(90));
        assert_eq!(report.dead_lettered, 1, "{report:?}");
        assert_eq!(report.completed, 0);
        assert_eq!(report.unfinished, 0);
        assert!(grid.world().all_done());
        assert_eq!(report.records[0].outcome, JobOutcome::DeadLettered);
        assert!(report.wasted_cpu_seconds > 0.0);
    }

    #[test]
    fn blacklist_diverts_work_to_healthy_resources() {
        // A fast but flapping cluster keeps evicting everything it runs;
        // the online stability tracker must blacklist it so the workload
        // drains on the slow, steady cluster instead.
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("fast-flappy", ResourceKind::PbsCluster, 16, 4.0),
                ResourceSpec::cluster("steady", ResourceKind::SgeCluster, 8, 1.0),
            ],
            recovery: Some(RecoveryPolicy {
                backoff_base: SimDuration::from_secs(30),
                ..Default::default()
            }),
            seed: 24,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.inject_faults(crate::fault::flapping(
            0,
            SimTime::from_secs(300),
            300,
            SimDuration::from_mins(5),
            SimDuration::from_mins(5),
        ));
        grid.submit((0..24).map(|i| JobSpec::simple(i, 2.0 * 3600.0)));
        let report = grid.run_until_done(SimTime::from_days(10));
        assert_eq!(report.completed, 24, "{report:?}");
        assert!(report.blacklist_events > 0, "{report:?}");
        assert!(
            report.completed_by.get("steady").copied().unwrap_or(0) >= 20,
            "{:?}",
            report.completed_by
        );
    }

    #[test]
    fn checkpoint_carry_beats_restart_from_scratch() {
        // Checkpointable jobs on an interruption-prone pool: the legacy
        // path discards checkpointed progress on every grid bounce, the
        // recovery path carries `remaining` to the next resource.
        let run = |recovery: Option<RecoveryPolicy>| {
            let config = GridConfig {
                resources: vec![
                    ResourceSpec::condor_pool("condor", 8, 2.0, 1.0),
                    ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 4, 1.0),
                ],
                policy: SchedulerPolicy {
                    use_runtime_estimates: false,
                    ..Default::default()
                },
                max_local_retries: 2,
                recovery,
                seed: 25,
                ..Default::default()
            };
            let mut grid = Grid::new(config);
            grid.submit((0..8).map(|i| {
                let mut j = JobSpec::simple(i, 10.0 * 3600.0);
                j.checkpointable = true;
                j
            }));
            grid.run_until_done(SimTime::from_days(30))
        };
        let legacy = run(None);
        let hardened = run(Some(RecoveryPolicy::default()));
        assert_eq!(legacy.completed, 8, "{legacy:?}");
        assert_eq!(
            hardened.completed + hardened.dead_lettered,
            8,
            "{hardened:?}"
        );
        assert!(
            hardened.wasted_cpu_seconds < legacy.wasted_cpu_seconds,
            "hardened {} vs legacy {}",
            hardened.wasted_cpu_seconds,
            legacy.wasted_cpu_seconds
        );
    }

    #[test]
    fn silent_partition_diverts_new_work_without_wasting_in_flight() {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("primary", ResourceKind::PbsCluster, 8, 4.0),
                ResourceSpec::cluster("backup", ResourceKind::SgeCluster, 8, 1.0),
            ],
            seed: 26,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.inject_faults(crate::fault::silent_partition(
            0,
            SimTime::from_secs(600),
            SimDuration::from_hours(6),
        ));
        // First wave lands on the fast primary before the partition.
        grid.submit((0..8).map(|i| JobSpec::simple(i, 2.0 * 3600.0)));
        // Second wave arrives once the primary's MDS entry has aged out.
        for i in 8..16 {
            grid.submit_at(JobSpec::simple(i, 1800.0), SimTime::from_hours(1));
        }
        let report = grid.run_until_done(SimTime::from_hours(24));
        assert_eq!(report.completed, 16, "{report:?}");
        // In-flight work finished untouched on the partitioned resource
        // (the load-balancing pass may have placed a straggler of the first
        // wave on backup); every post-partition job diverted; no waste.
        assert!(
            report.completed_by.get("primary").copied().unwrap_or(0) >= 7,
            "{:?}",
            report.completed_by
        );
        for r in report.records.iter().filter(|r| r.spec.id.0 >= 8) {
            assert_eq!(r.completed_by.as_deref(), Some("backup"), "{r:?}");
        }
        assert_eq!(report.wasted_cpu_seconds, 0.0);
    }

    #[test]
    fn telemetry_does_not_change_outcomes() {
        // The same seeded chaos scenario with and without telemetry must
        // produce identical results: telemetry reads no randomness and
        // schedules no events.
        let run = |telemetry: Option<TelemetryConfig>| {
            let config = GridConfig {
                resources: vec![
                    ResourceSpec::condor_pool("condor", 16, 1.5, 2.0),
                    ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 8, 1.0),
                ],
                recovery: Some(RecoveryPolicy::default()),
                telemetry,
                seed: 31,
                ..Default::default()
            };
            let mut grid = Grid::new(config);
            let mut rng = SimRng::new(77);
            grid.inject_faults(crate::fault::random_faults(
                &mut rng,
                &[0],
                SimDuration::from_hours(24),
                6,
            ));
            grid.submit((0..20).map(|i| {
                let mut j = JobSpec::simple(i, 4.0 * 3600.0);
                j.checkpointable = i % 2 == 0;
                j
            }));
            let r = grid.run_until_done(SimTime::from_days(20));
            (
                r.completed,
                r.dead_lettered,
                r.total_reissues,
                r.makespan_seconds.map(f64::to_bits),
                r.wasted_cpu_seconds.to_bits(),
                r.useful_cpu_seconds.to_bits(),
            )
        };
        assert_eq!(run(None), run(Some(TelemetryConfig::default())));
        // The full observability pack (time series, SLO rules, trace
        // spans) is equally invisible to outcomes.
        assert_eq!(
            run(None),
            run(Some(TelemetryConfig::observability(
                SimDuration::from_mins(5)
            )))
        );
    }

    #[test]
    fn observability_pack_produces_series_alerts_and_linked_spans() {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::condor_pool("condor", 16, 1.5, 2.0),
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 8, 1.0),
            ],
            recovery: Some(RecoveryPolicy::default()),
            telemetry: Some(TelemetryConfig::observability(SimDuration::from_mins(30))),
            seed: 31,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut rng = SimRng::new(77);
        grid.inject_faults(crate::fault::random_faults(
            &mut rng,
            &[0],
            SimDuration::from_hours(24),
            6,
        ));
        grid.submit((0..20).map(|i| {
            let mut j = JobSpec::simple(i, 4.0 * 3600.0);
            j.checkpointable = i % 2 == 0;
            j
        }));
        let _ = grid.run_until_done(SimTime::from_days(20));
        let snap = grid.telemetry_snapshot().unwrap();
        // Series collected points over the run.
        let ts = snap.timeseries.expect("timeseries configured");
        assert!(ts.windows_closed > 0);
        let depth = ts
            .series
            .iter()
            .find(|s| s.name == "queue_depth")
            .expect("queue_depth series");
        assert!(!depth.points.is_empty());
        // The span log recorded parent-linked lifecycle spans.
        let trace = snap.trace.expect("tracing configured");
        assert!(trace.recorded > 0);
        let spans = grid
            .world()
            .telemetry()
            .unwrap()
            .tracer()
            .expect("tracer on")
            .spans();
        let attempt = spans
            .iter()
            .find(|s| s.name == "attempt")
            .expect("attempt span");
        assert!(attempt.parent.is_some(), "attempts link to their cause");
        assert!(spans.iter().any(|s| s.name == "run"));
        // The Chrome export is well-formed JSON with a traceEvents array.
        let chrome = grid.chrome_trace().expect("tracing on");
        let v: serde::Value = serde_json::from_str(&chrome).unwrap();
        let events = serde::field::<serde::Value>(v.as_map().unwrap(), "traceEvents").unwrap();
        assert!(matches!(events, serde::Value::Seq(ref s) if !s.is_empty()));
        // Replaying the identical scenario replays identical telemetry,
        // series, alerts, and spans — byte for byte.
        let alerts_fired = snap.slo.expect("slo configured").fired_total;
        let _ = alerts_fired; // faults here may or may not breach; E16 pins a firing case
    }

    #[test]
    fn telemetry_tracks_lifecycle_and_utilisation() {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 4, 1.0).with_site("umd"),
            ],
            telemetry: Some(TelemetryConfig::default()),
            seed: 7,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..8).map(|i| JobSpec::simple(i, 1800.0)));
        let report = grid.run_until_done(SimTime::from_hours(24));
        assert_eq!(report.completed, 8);
        let snap = grid.telemetry_snapshot().expect("telemetry enabled");
        assert_eq!(snap.metrics.counter("job.submitted"), 8);
        assert_eq!(snap.metrics.counter("job.completed"), 8);
        assert_eq!(snap.metrics.counter("job.dispatches"), 8);
        assert_eq!(snap.jobs_in_flight, 0);
        let turnaround = snap.metrics.histogram("job.turnaround_seconds").unwrap();
        assert_eq!(turnaround.count(), 8);
        assert_eq!(snap.resources.len(), 1);
        assert_eq!(snap.resources[0].name, "cluster");
        assert!(snap.resources[0].mean_busy_slots > 0.0);
        assert_eq!(snap.sites.len(), 1);
        assert_eq!(snap.sites[0].site, "umd");
        // MDS view: the provider reported regularly and stayed online.
        assert_eq!(snap.mds.resources.len(), 1);
        assert!(snap.mds.resources[0].online);
        assert_eq!(snap.mds.resources[0].offline_episodes, 0);
        // Event totals match the counters.
        assert_eq!(snap.events.counts.get("job.submit"), Some(&8));
        assert_eq!(snap.events.counts.get("job.complete"), Some(&8));
    }

    #[test]
    fn telemetry_snapshot_json_is_replay_identical() {
        let run = || {
            let config = GridConfig {
                resources: vec![
                    ResourceSpec::condor_pool("condor", 8, 1.5, 2.0).with_site("umd"),
                    ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 4, 1.0)
                        .with_site("bowie"),
                ],
                recovery: Some(RecoveryPolicy::default()),
                telemetry: Some(TelemetryConfig::default()),
                seed: 41,
                ..Default::default()
            };
            let mut grid = Grid::new(config);
            grid.submit((0..12).map(|i| JobSpec::simple(i, 3600.0 * (1.0 + i as f64))));
            let _ = grid.run_until_done(SimTime::from_days(30));
            serde_json::to_string(&grid.telemetry_snapshot().unwrap()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recovery_and_faults_deterministic_given_seed() {
        let run = || {
            let config = GridConfig {
                resources: vec![
                    ResourceSpec::condor_pool("condor", 16, 1.5, 2.0),
                    ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 8, 1.0),
                ],
                recovery: Some(RecoveryPolicy::default()),
                seed: 27,
                ..Default::default()
            };
            let mut grid = Grid::new(config);
            let mut rng = SimRng::new(99);
            grid.inject_faults(crate::fault::random_faults(
                &mut rng,
                &[0],
                SimDuration::from_hours(24),
                6,
            ));
            grid.submit((0..20).map(|i| {
                let mut j = JobSpec::simple(i, 4.0 * 3600.0);
                j.checkpointable = i % 2 == 0;
                j
            }));
            let r = grid.run_until_done(SimTime::from_days(20));
            (
                r.completed,
                r.dead_lettered,
                r.total_reissues,
                r.makespan_seconds.map(f64::to_bits),
                r.wasted_cpu_seconds.to_bits(),
                r.useful_cpu_seconds.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn data_plane_without_inputs_does_not_change_outcomes() {
        // Enabling the data plane on jobs that carry no inputs must be
        // byte-identical to running without it: every stage-in is zero
        // bytes, zero seconds, and the BOINC download offsets are exactly
        // zero micros. Same seeded chaos scenario as the telemetry
        // inertness test, plus a volunteer pool to cover the download path.
        let run = |data: Option<DataConfig>| {
            let config = GridConfig {
                resources: vec![
                    ResourceSpec::condor_pool("condor", 16, 1.5, 2.0),
                    ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 8, 1.0),
                ],
                boinc: Some(BoincConfig {
                    num_clients: 30,
                    ..Default::default()
                }),
                recovery: Some(RecoveryPolicy::default()),
                data,
                seed: 31,
                ..Default::default()
            };
            let mut grid = Grid::new(config);
            let mut rng = SimRng::new(77);
            grid.inject_faults(crate::fault::random_faults(
                &mut rng,
                &[0],
                SimDuration::from_hours(24),
                6,
            ));
            grid.submit((0..20).map(|i| {
                let mut j = JobSpec::simple(i, 4.0 * 3600.0).with_estimate(4.2 * 3600.0);
                j.checkpointable = i % 2 == 0;
                j
            }));
            let r = grid.run_until_done(SimTime::from_days(20));
            (
                r.completed,
                r.dead_lettered,
                r.total_reissues,
                r.makespan_seconds.map(f64::to_bits),
                r.wasted_cpu_seconds.to_bits(),
                r.useful_cpu_seconds.to_bits(),
            )
        };
        assert_eq!(run(None), run(Some(DataConfig::default())));
    }

    #[test]
    fn staging_dedup_and_cache_hits_are_reported() {
        // Eight jobs share one alignment; the site cache absorbs all but
        // the first copy and the store dedups the repeated registrations.
        let alignment = datagrid::ObjectRef::named("alignment.phy", 64 << 20);
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 4, 1.0).with_site("umd"),
            ],
            telemetry: Some(TelemetryConfig::default()),
            data: Some(DataConfig::default()),
            seed: 7,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..8).map(|i| {
            JobSpec::simple(i, 1800.0)
                .with_input(alignment)
                .with_input(datagrid::ObjectRef::named(&format!("conf-{i}"), 1 << 20))
        }));
        let report = grid.run_until_done(SimTime::from_days(2));
        assert_eq!(report.completed, 8);
        let data = report.data.expect("data plane enabled");
        assert_eq!(data.stage_ins, 8);
        // Alignment: one cold miss, seven cache hits. Configs: eight misses.
        assert_eq!(data.cache_hits, 7);
        assert_eq!(data.cache_misses, 9);
        assert_eq!(data.bytes_moved, (64 << 20) + 8 * (1 << 20));
        assert_eq!(data.dedup_saved_bytes, 7 * (64 << 20));
        assert!(data.total_stage_in_seconds > 0.0);
        // The same accounting flows into telemetry.
        let snap = grid.telemetry_snapshot().expect("telemetry enabled");
        assert_eq!(snap.metrics.counter("data.stage_ins"), 8);
        assert_eq!(snap.metrics.counter("data.cache_hits"), 7);
        assert_eq!(snap.events.counts.get("data.stage_in"), Some(&8));
        let hist = snap
            .metrics
            .histogram("data.stage_in_seconds")
            .expect("stage-in histogram recorded");
        assert_eq!(hist.count(), 8);
        let dsnap = snap.data.expect("snapshot carries the data plane");
        assert_eq!(dsnap.store.dedup_hits, 7);
        assert!(dsnap.links.iter().any(|l| l.name == "site:umd"));
        assert!(dsnap.caches.iter().any(|c| c.name == "site:umd"));
    }

    /// A kitchen-sink grid: service clusters + flaky Condor + volunteer
    /// pool, recovery, telemetry, data plane, validation quorum, and a
    /// scripted fault storm — every snapshot-bearing subsystem is live.
    fn chaos_grid(seed: u64) -> Grid {
        let alignment = datagrid::ObjectRef::named("alignment.phy", 48 << 20);
        let config = GridConfig {
            resources: vec![
                ResourceSpec::condor_pool("condor", 12, 1.5, 2.0).with_site("umd"),
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 6, 1.0)
                    .with_site("bowie"),
            ],
            boinc: Some(BoincConfig {
                num_clients: 25,
                ..Default::default()
            }),
            recovery: Some(RecoveryPolicy::default()),
            telemetry: Some(TelemetryConfig::default()),
            data: Some(DataConfig::default()),
            validation: Some(quorum::ValidationConfig::default()),
            seed,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut rng = SimRng::new(seed ^ 0xC0FFEE);
        grid.inject_faults(crate::fault::random_faults(
            &mut rng,
            &[0, 1],
            SimDuration::from_hours(36),
            8,
        ));
        grid.submit((0..18).map(|i| {
            let mut j = JobSpec::simple(i, 3.0 * 3600.0).with_estimate(3.2 * 3600.0);
            j.checkpointable = i % 2 == 0;
            if i % 3 == 0 {
                j = j.with_input(alignment);
            }
            j
        }));
        grid
    }

    fn fingerprint(r: &GridReport) -> (usize, usize, u32, u32, Option<u64>, u64, u64, u64) {
        (
            r.completed,
            r.dead_lettered,
            r.total_reissues,
            r.total_attempts,
            r.makespan_seconds.map(f64::to_bits),
            r.mean_turnaround_seconds.to_bits(),
            r.useful_cpu_seconds.to_bits(),
            r.wasted_cpu_seconds.to_bits(),
        )
    }

    #[test]
    fn snapshot_roundtrip_is_byte_stable() {
        use simkit::Snapshot;
        let mut grid = chaos_grid(51);
        grid.run_until(SimTime::from_hours(5));
        let first = grid.to_snapshot();
        let restored = Grid::from_snapshot(&first).expect("snapshot restores");
        assert_eq!(
            restored.to_snapshot(),
            first,
            "snapshot→restore→snapshot drifted"
        );
    }

    #[test]
    fn restore_resumes_bit_identically() {
        use simkit::Snapshot;
        // Uninterrupted reference run.
        let mut baseline = chaos_grid(52);
        let reference = baseline.run_until_done(SimTime::from_days(30));
        // Interrupted run: checkpoint mid-flight, drop the grid, restore
        // from the serialized bytes, and finish.
        let mut grid = chaos_grid(52);
        grid.run_until(SimTime::from_hours(4));
        let bytes = grid.to_snapshot();
        drop(grid);
        let mut resumed = Grid::from_snapshot(&bytes).expect("snapshot restores");
        let report = resumed.run_until_done(SimTime::from_days(30));
        assert!(reference.completed + reference.dead_lettered == reference.total_jobs);
        assert_eq!(fingerprint(&report), fingerprint(&reference));
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "resumed report is not byte-identical to the uninterrupted run"
        );
    }

    #[test]
    fn restore_at_every_event_boundary_is_consistent() {
        use simkit::Snapshot;
        // Checkpoint at a handful of event boundaries (the DES analogue of
        // killing the process at adversarial instants) and check each
        // restored run converges to the same final report.
        let mut baseline = chaos_grid(53);
        let reference = baseline.run_until_done(SimTime::from_days(30));
        for steps in [1u64, 37, 203, 1009] {
            let mut grid = chaos_grid(53);
            for _ in 0..steps {
                if !grid.step() {
                    break;
                }
            }
            let bytes = grid.to_snapshot();
            drop(grid);
            let mut resumed = Grid::from_snapshot(&bytes).expect("snapshot restores");
            let report = resumed.run_until_done(SimTime::from_days(30));
            assert_eq!(
                fingerprint(&report),
                fingerprint(&reference),
                "divergence after restoring at event #{steps}"
            );
        }
    }

    #[test]
    fn snapshot_queueing_a_job_without_a_record_is_refused() {
        use simkit::{Snapshot, SnapshotError};
        fn entry<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
            let Value::Map(entries) = value else {
                panic!("expected a map around `{key}`");
            };
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("key present")
                .1
        }
        let mut grid = Grid::new(one_cluster_config(1, 1.0));
        grid.submit((1..=3).map(|i| JobSpec::simple(i, 3600.0)));
        grid.run_until(SimTime::from_secs(1));
        // A well-formed envelope (valid checksum) whose queue names job 99,
        // which was never submitted: the restore itself must refuse it
        // rather than hand back a grid whose next tick panics.
        let mut state = simkit::snapshot::decode_value(&grid.to_snapshot()).unwrap();
        let Value::Seq(pending) = entry(entry(&mut state, "world"), "pending") else {
            panic!("pending is a sequence");
        };
        pending.push(serde_json::to_value(&JobId(99)).unwrap());
        match Grid::from_snapshot(&simkit::snapshot::encode(&state)) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("no record"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a dangling pending id restored"),
        }
    }

    /// What the [`PerHost`] reference saw: herds of more than one member,
    /// and quorum escalations (copies issued on assignment) before a
    /// herd's last member.
    #[derive(Default)]
    struct Seen {
        split_herds: usize,
        mid_herd_escalations: usize,
    }

    /// Per-host handling, kept as the reference for the herd event: every
    /// member of a `BoincAssign` herd reaches [`GridWorld::handle`] as its
    /// own one-member event, so the per-event hooks (telemetry windows,
    /// utilisation, the queue-depth gauge) run once per member, as they
    /// did when each host had its own calendar entry.
    struct PerHost {
        world: GridWorld,
        seen: Seen,
    }

    impl World for PerHost {
        type Event = GridEvent;

        fn handle(&mut self, now: SimTime, event: GridEvent, cal: &mut Calendar<GridEvent>) {
            let GridEvent::BoincAssign { clients } = event else {
                return self.world.handle(now, event, cal);
            };
            let issued = |w: &GridWorld| {
                let pool = w.boinc.as_ref().and_then(BoincSim::validation_snapshot);
                pool.map_or(0, |v| v.replicas_issued)
            };
            let last = clients.len().saturating_sub(1);
            self.seen.split_herds += usize::from(last > 0);
            for (k, client) in clients.into_iter().enumerate() {
                let before = issued(&self.world);
                let event = GridEvent::BoincAssign {
                    clients: vec![client],
                };
                self.world.handle(now, event, cal);
                if k < last && issued(&self.world) > before {
                    self.seen.mid_herd_escalations += 1;
                }
            }
        }
    }

    /// [`Grid::run_until`] through the [`PerHost`] reference.
    fn run_per_host_until(grid: Grid, until: SimTime, seen: &mut Seen) -> Grid {
        let (world, calendar, now, processed) = grid.sim.into_parts();
        let reference = PerHost {
            world,
            seen: std::mem::take(seen),
        };
        let mut sim = Simulation::from_parts(reference, calendar, now, processed);
        sim.run_until(until);
        let (reference, calendar, now, processed) = sim.into_parts();
        *seen = reference.seen;
        Grid {
            sim: Simulation::from_parts(reference.world, calendar, now, processed),
            submissions_expected: grid.submissions_expected,
        }
    }

    /// A volunteer-heavy grid for the herd property: `clients` hosts beside
    /// a two-slot cluster at one site. Switches: realistic churn whose
    /// hosts die within days (else flat flips), validation with adaptive
    /// replication under cheating and flaky hosts (so hosts get
    /// blacklisted and escalations fire mid-herd), the data plane with job
    /// inputs, and telemetry with spans. Every run also carries a BOINC
    /// corruption window and a site outage. Half the jobs arrive at once,
    /// the rest over the first day.
    fn herd_grid(seed: u64, clients: usize, jobs: u64, flags: u64) -> Grid {
        let [churn, validation, data, telemetry] = [1, 2, 4, 8].map(|bit| flags & bit != 0);
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 2, 1.0).with_site("umd"),
            ],
            boinc: Some(BoincConfig {
                num_clients: clients,
                abandon_probability: 0.1,
                deadline: crate::boinc::DeadlinePolicy::Fixed(SimDuration::from_hours(12)),
                ..Default::default()
            }),
            churn: churn.then(|| crate::churn::ChurnConfig {
                lifetime_half_life_hours: Some(36.0),
                ..crate::churn::ChurnConfig::realistic()
            }),
            telemetry: telemetry
                .then(|| TelemetryConfig::observability(SimDuration::from_hours(2))),
            data: data.then(DataConfig::default),
            validation: validation.then(|| quorum::ValidationConfig {
                max_error_results: 2,
                max_total_results: 6,
                ..Default::default()
            }),
            seed,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut faults = crate::fault::boinc_corruption(
            0.2,
            SimTime::from_hours(2),
            SimDuration::from_hours(24),
        );
        faults.merge(crate::fault::site_outage(
            &[0],
            SimTime::from_hours(5),
            SimDuration::from_hours(3),
        ));
        if validation {
            faults.merge(crate::fault::erroneous_results(
                0.3,
                SimTime::from_hours(1),
                SimDuration::from_hours(48),
            ));
            faults.merge(crate::fault::malicious_hosts(0.25, SimTime::from_hours(3)));
        }
        grid.inject_faults(faults);
        let input = datagrid::ObjectRef::named("alignment.phy", 8 << 20);
        let mut rng = SimRng::new(seed ^ 0x4E4D);
        for i in 0..jobs {
            let mut job = JobSpec::simple(i, rng.range_f64(1800.0, 4.0 * 3600.0));
            if data && i % 2 == 0 {
                job = job.with_input(input);
            }
            let at = if i % 2 == 0 {
                SimTime::ZERO
            } else {
                SimTime::from_secs_f64(rng.range_f64(0.0, 86_400.0))
            };
            grid.submit_at(job, at);
        }
        grid
    }

    /// Everything a run can be observed through, as bytes: the report, the
    /// job records, the telemetry export and Chrome trace, and the whole
    /// grid snapshot (calendar and event count included; both sides
    /// schedule the same herds, only the handling differs).
    fn observed(grid: &Grid) -> [String; 5] {
        let report = grid.report();
        let trace = grid
            .world()
            .telemetry()
            .and_then(|t| t.chrome_trace(grid.now()));
        [
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&report.records).unwrap(),
            serde_json::to_string(&grid.telemetry_snapshot()).unwrap(),
            trace.unwrap_or_default(),
            serde_json::to_string(grid).unwrap(),
        ]
    }

    /// Run a herd grid and its per-host reference through the same cuts,
    /// asserting equal observations at each. Returns what the reference
    /// saw.
    fn assert_herds_match_per_host(seed: u64, clients: usize, jobs: u64, flags: u64) -> Seen {
        let mut herd = herd_grid(seed, clients, jobs, flags);
        let mut reference = herd_grid(seed, clients, jobs, flags);
        let mut seen = Seen::default();
        let first_cut = SimTime::from_hours(2 + seed % 30);
        for cut in [first_cut, SimTime::from_days(4)] {
            herd.run_until(cut);
            reference = run_per_host_until(reference, cut, &mut seen);
            let labels = ["report", "job records", "telemetry", "trace", "snapshot"];
            for ((label, a), b) in labels.iter().zip(observed(&herd)).zip(observed(&reference)) {
                assert!(
                    a == b,
                    "{label} differs at {cut:?} (seed {seed}, flags {flags:#b})"
                );
            }
        }
        seen
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// One `BoincAssign` per herd observes exactly like one per host.
        #[test]
        fn herd_events_match_the_per_host_reference(
            seed in 0u64..10_000,
            clients in 2usize..48,
            jobs in 8u64..60,
            flags in 0u64..16,
        ) {
            assert_herds_match_per_host(seed, clients, jobs, flags);
        }
    }

    /// The property's generator reaches what it is there to cover: split
    /// herds, escalations mid-herd, dying and blacklisted hosts, staged
    /// inputs and a trace.
    #[test]
    fn herd_reference_covers_churn_validation_and_data() {
        let (seed, clients, jobs, all_on) = (7, 24, 50, 0b1111);
        let seen = assert_herds_match_per_host(seed, clients, jobs, all_on);
        assert!(seen.split_herds > 0, "no multi-member herd");
        assert!(seen.mid_herd_escalations > 0, "no escalation mid-herd");
        let mut grid = herd_grid(seed, clients, jobs, all_on);
        grid.run_until(SimTime::from_days(4));
        let boinc = grid.world().boinc.as_ref().expect("pool");
        let (_, deaths, _) = boinc.churn_counters().expect("churn on");
        assert!(deaths > 0, "no host died");
        let validation = boinc.validation_snapshot().expect("validation on");
        assert!(validation.blacklisted_hosts > 0, "{validation:?}");
        let data = grid.report().data.expect("data plane on");
        assert!(data.stage_ins > 0, "{data:?}");
        let trace = grid
            .world()
            .telemetry()
            .and_then(|t| t.chrome_trace(grid.now()));
        assert!(
            trace.is_some_and(|t| t.contains("stage-in")),
            "no stage-in span"
        );
    }
}
