//! Grid-wide telemetry: structured events, metrics, job lifecycle spans,
//! and utilisation timelines, all stamped with *simulation* time.
//!
//! The real Lattice Project learned the hard way that a grid without
//! observability is undebuggable: "users need to be able to find out what is
//! happening to their jobs" and operators need to see which resource is
//! misbehaving before the queue backs up. This module gives the simulated
//! grid the same faculties without perturbing it:
//!
//! * **Determinism** — telemetry never reads a wall clock, never consumes
//!   simulation randomness, and never schedules calendar events. Enabling it
//!   cannot change a run's outcome, and replaying a seeded scenario yields a
//!   byte-identical [`TelemetrySnapshot`] serialization.
//! * **One fact stream** — the grid states each transition once, as a
//!   `GridFact`, and `GridTelemetry::observe` alone decides which bus
//!   events, metrics and trace spans it produces. The event taxonomy is
//!   the table in DESIGN.md §4.2, which maps every fact to its bus kinds
//!   and metrics. Recent events sit in a bounded ring
//!   ([`simkit::telemetry::EventBus`]); totals per kind are exact even
//!   after eviction.
//! * **Lifecycle spans** — per live job: submit → first/last dispatch →
//!   start → completion, folded into fixed-bucket latency histograms
//!   (queue wait, dispatch latency, run time, turnaround) on terminal
//!   outcome so memory stays bounded by jobs *in flight*.
//! * **Utilisation timelines** — busy slots per resource and per site via
//!   [`simkit::stats::TimeWeighted`] integration.

use crate::boinc::FlipInfo;
use crate::data::{DataGridState, DataSnapshot, StageIn};
use crate::job::{FinishedRun, JobId, Terminal};
use crate::mds::{Mds, MdsSnapshot};
use crate::resource::ResourceSpec;
use crate::scheduler::{Decision, RejectReason};
use crate::slo::{Alert, AlertTransition, SloConfig, SloEngine, SloSnapshot};
use serde::{Deserialize, Serialize};
use simkit::spans::{SpanId, SpanLog, SpanLogSummary};
use simkit::stats::TimeWeighted;
use simkit::telemetry::{
    latency_buckets_seconds, EventBus, EventBusSnapshot, FieldValue, MetricsRegistry,
};
use simkit::timeseries::{SeriesSet, SeriesSetConfig, TimeSeriesSnapshot};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use tenancy::{AdmissionOutcome, ReleasedJob, TenancySnapshot, TenantId};

/// Telemetry knobs on [`crate::grid::GridConfig`]. The grid runs with
/// telemetry *off* unless a config carries `Some(TelemetryConfig)`; the
/// streaming layers (time series, SLO alerts, trace spans) are further
/// opt-ins inside it, so the base event/metrics telemetry costs the same
/// as before this layer existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity of the structured event bus (evicted events
    /// still count toward per-kind totals).
    pub event_capacity: usize,
    /// Windowed time-series collection over the metrics registry,
    /// evaluated at fixed sim-time boundaries. `None` disables it.
    #[serde(default)]
    pub timeseries: Option<SeriesSetConfig>,
    /// Declarative SLO alert rules over the time series (requires
    /// `timeseries`; rules watching absent series simply never fire).
    #[serde(default)]
    pub slo: Option<SloConfig>,
    /// Causal trace-span log capacity (0 disables tracing). Evicted spans
    /// stay counted; the Chrome-trace export covers retained spans.
    #[serde(default)]
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            event_capacity: 1024,
            timeseries: None,
            slo: None,
            trace_capacity: 0,
        }
    }
}

impl TelemetryConfig {
    /// The full observability pack: default event bus, the standard
    /// six-series pack over `window`-long windows, the default SLO rules,
    /// and trace spans. One call gives an experiment everything E16 plots.
    pub fn observability(window: SimDuration) -> TelemetryConfig {
        TelemetryConfig {
            event_capacity: 1024,
            timeseries: Some(crate::slo::default_series(window)),
            slo: Some(SloConfig {
                rules: crate::slo::default_rules(),
                alert_capacity: 256,
            }),
            trace_capacity: 4096,
        }
    }
}

/// Histogram bounds for stage-in delays. Transfers complete in seconds to
/// minutes — far below the job-latency buckets, which start at one minute —
/// so the data plane gets its own, finer scale.
const STAGE_IN_BUCKETS: [f64; 7] = [1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0];

/// Histogram bounds for per-job credit grants (cobblestone scale: 100 per
/// CPU-hour, so jobs span a few credits to tens of thousands).
const CREDIT_BUCKETS: [f64; 7] = [1.0, 10.0, 50.0, 100.0, 500.0, 2000.0, 10_000.0];

/// Lifecycle span of one in-flight job.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct JobSpan {
    submitted: SimTime,
    first_dispatch: Option<SimTime>,
    last_dispatch: Option<SimTime>,
}

/// Causal-trace bookkeeping for one job: the root span covering the whole
/// grid lifetime, the currently open attempt span (if the job is on a
/// resource), and the span the *next* attempt should parent to — the last
/// attempt or reissue marker, which is how retry lineage chains.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct JobTrace {
    root: SpanId,
    #[serde(default)]
    open_attempt: Option<SpanId>,
    #[serde(default)]
    last_attempt: Option<SpanId>,
}

/// All telemetry state for one grid run.
///
/// In a snapshot the utilisation timelines (`TimeWeighted`) carry their own
/// integrals, so a restored telemetry continues the exact same time
/// averages. The `default` fields are absent from snapshots written before
/// the observability layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridTelemetry {
    bus: EventBus,
    metrics: MetricsRegistry,
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    spans: BTreeMap<JobId, JobSpan>,
    names: Vec<String>,
    sites: Vec<Option<String>>,
    slots: Vec<usize>,
    busy: Vec<f64>,
    util: Vec<TimeWeighted>,
    site_util: BTreeMap<String, TimeWeighted>,
    #[serde(default)]
    series: Option<SeriesSet>,
    #[serde(default)]
    slo: Option<SloEngine>,
    #[serde(default)]
    tracer: Option<SpanLog>,
    #[serde(default, with = "simkit::snapshot::sorted_pairs")]
    traces: BTreeMap<JobId, JobTrace>,
    #[serde(default)]
    pending_alerts: Vec<Alert>,
}

/// One transition of the grid, stated once by the grid and handed to
/// [`GridTelemetry::observe`]. Each variant's doc names its positions;
/// `resource` is a grid resource index.
pub(crate) enum GridFact<'a> {
    /// `(job)` entered the grid.
    Admitted(JobId),
    /// `(job, decision)`: the matchmaker ranked the job's candidates.
    Decided(JobId, &'a Decision),
    /// `(job, resource, resumed, workunit)`: the job went to a resource's
    /// adapter, resuming a carried checkpoint or becoming a BOINC workunit.
    Dispatched(JobId, usize, bool, bool),
    /// `(job, resource, stage)`: the job's inputs were staged to a site or
    /// a volunteer.
    StagedIn(JobId, usize, &'a StageIn),
    /// `(job, resource, wasted CPU seconds)`: local retries ran out and the
    /// job bounced back to the grid.
    Bounced(JobId, usize, f64),
    /// `(resource)`: the stability tracker newly blacklisted it.
    Blacklisted(usize),
    /// `(job, grid retries, delay)`: recovery delayed a bounced job's
    /// requeue.
    BackedOff(JobId, u32, SimDuration),
    /// `(job, resource, terminal)`: the job reached its terminal state, as
    /// reported by the resource.
    Settled(JobId, usize, &'a Terminal),
    /// `(assignment, copies queued, job)`: a workunit deadline fired; the
    /// job is `None` only for an assignment the pool never made.
    DeadlineFired(u64, u32, Option<JobId>),
    /// `(client, flip)`: a churn-driven volunteer flipped availability.
    HostFlipped(usize, &'a FlipInfo),
    /// `(resource, dropped bytes)`: the resource went down, colding its
    /// site cache when the data plane held inputs there.
    ResourceDown(usize, Option<u64>),
    /// `(resource)`: a downed resource came back.
    ResourceUp(usize),
    /// `(resource, started)`: a silent MDS partition started or ended.
    Partitioned(usize, bool),
    /// `(job, tenant, outcome)`: admission control's verdict on a tenant
    /// submission.
    TenantAdmission(JobId, TenantId, &'a AdmissionOutcome),
    /// `(released)`: fair-share released a queued tenant job into the
    /// grid backlog.
    TenantReleased(&'a ReleasedJob),
    /// `(job, tenant, credit, credited)`: a tenant job's terminal result
    /// was charged; the credit is granted only when `credited`.
    TenantCredited(JobId, TenantId, f64, bool),
    /// `(campaign, stage)`: a workflow stage's barriers cleared and its
    /// jobs entered the grid.
    StageReleased(usize, &'a flow::ReleasedStage),
    /// `(campaign, stage index)`: every job of the stage is terminal.
    StageCompleted(usize, usize),
    /// `(done)`: a campaign's last stage completed.
    CampaignCompleted(&'a flow::CampaignCompleted),
}

impl GridTelemetry {
    /// Build telemetry for the given resource set (service grid + BOINC
    /// pool, in grid index order), starting the utilisation clocks at zero.
    pub fn new(config: TelemetryConfig, resources: &[ResourceSpec]) -> GridTelemetry {
        let mut site_util = BTreeMap::new();
        for spec in resources {
            if let Some(site) = &spec.site {
                site_util
                    .entry(site.clone())
                    .or_insert_with(|| TimeWeighted::new(SimTime::ZERO, 0.0));
            }
        }
        GridTelemetry {
            bus: EventBus::new(config.event_capacity),
            metrics: MetricsRegistry::new(),
            spans: BTreeMap::new(),
            names: resources.iter().map(|r| r.name.clone()).collect(),
            sites: resources.iter().map(|r| r.site.clone()).collect(),
            slots: resources.iter().map(|r| r.slots).collect(),
            busy: vec![0.0; resources.len()],
            util: resources
                .iter()
                .map(|_| TimeWeighted::new(SimTime::ZERO, 0.0))
                .collect(),
            site_util,
            series: config.timeseries.clone().map(SeriesSet::new),
            slo: config.slo.clone().map(SloEngine::new),
            tracer: if config.trace_capacity > 0 {
                Some(SpanLog::new(config.trace_capacity))
            } else {
                None
            },
            traces: BTreeMap::new(),
            pending_alerts: Vec::new(),
        }
    }

    /// The structured event bus.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The windowed time-series collector, when configured.
    pub fn series(&self) -> Option<&SeriesSet> {
        self.series.as_ref()
    }

    /// The SLO alert engine, when configured.
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// The causal span log, when tracing is enabled.
    pub fn tracer(&self) -> Option<&SpanLog> {
        self.tracer.as_ref()
    }

    /// Set an externally owned gauge (e.g. the service loop's
    /// `service.snapshot_age_seconds`) so series and SLO rules can watch it.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.metrics.set_gauge(name, value);
    }

    /// Chrome-trace-format (`traceEvents`) export of the span log, or
    /// `None` when tracing is off. Open spans are clamped to `now`.
    pub fn chrome_trace(&self, now: SimTime) -> Option<String> {
        self.tracer.as_ref().map(|t| t.chrome_trace_json(now))
    }

    /// Alerts fired since the last drain (for notification fan-out; the
    /// bus and the engine's own log already have them).
    pub fn drain_fired_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.pending_alerts)
    }

    /// Close every time-series window boundary due at or before `now` and
    /// run the SLO rules at each one. Called by the grid *before* an event
    /// mutates state, so a window only ever sees updates that happened
    /// strictly inside it. Deterministic: boundaries depend on sim time
    /// alone, never on host timing.
    pub fn advance_windows(&mut self, now: SimTime) {
        let Some(series) = self.series.as_mut() else {
            return;
        };
        while let Some(boundary) = series.advance_one(now, &self.metrics) {
            let Some(slo) = self.slo.as_mut() else {
                continue;
            };
            for transition in slo.on_window(boundary, series) {
                match transition {
                    AlertTransition::Fired(a) => {
                        self.bus.emit(
                            boundary,
                            "slo.alert",
                            &[
                                ("rule", a.rule.as_str().into()),
                                ("series", a.series.as_str().into()),
                                ("value", a.value.into()),
                                ("threshold", a.threshold.into()),
                            ],
                        );
                        self.pending_alerts.push(a);
                    }
                    AlertTransition::Resolved(a) => {
                        self.bus.emit(
                            boundary,
                            "slo.resolve",
                            &[
                                ("rule", a.rule.as_str().into()),
                                ("series", a.series.as_str().into()),
                            ],
                        );
                    }
                }
            }
        }
    }

    /// Fold one grid fact into the event bus, the metrics and the span log.
    /// The grid states each transition once; what it produces is decided
    /// here alone (DESIGN.md §4.2 lists each fact's bus kinds and metrics).
    pub(crate) fn observe(&mut self, now: SimTime, fact: GridFact) {
        match fact {
            GridFact::Admitted(job) => {
                self.spans.insert(
                    job,
                    JobSpan {
                        submitted: now,
                        first_dispatch: None,
                        last_dispatch: None,
                    },
                );
                if let Some(tracer) = self.tracer.as_mut() {
                    let root = tracer.start(now, "job", "job", job.0, None);
                    self.traces.insert(
                        job,
                        JobTrace {
                            root,
                            open_attempt: None,
                            last_attempt: None,
                        },
                    );
                }
                self.metrics.incr("job.submitted");
                self.bus
                    .emit(now, "job.submit", &[("job", FieldValue::from(job.0))]);
            }
            GridFact::Decided(job, decision) => {
                self.metrics.incr("scheduler.decisions");
                for reason in RejectReason::ALL {
                    let n = decision.rejected(reason);
                    if n > 0 {
                        self.metrics
                            .add(&format!("scheduler.reject.{}", reason.label()), n as u64);
                    }
                }
                let chosen: FieldValue = match decision.chosen {
                    Some(id) => self.names[id.0].as_str().into(),
                    None => {
                        self.metrics.incr("scheduler.no_match");
                        "none".into()
                    }
                };
                let mut fields: Vec<(&str, FieldValue)> = vec![
                    ("job", job.0.into()),
                    ("chosen", chosen),
                    ("eligible", decision.eligible.into()),
                    ("candidates", decision.candidates.into()),
                ];
                // With data-aware scheduling, surface the stage-in term the
                // ranker saw for the winner.
                if let Some(s) = decision.stage_in_seconds {
                    fields.push(("stage_in_seconds", s.into()));
                }
                self.bus.emit(now, "scheduler.decision", &fields);
            }
            GridFact::Dispatched(job, resource, resumed, workunit) => {
                let resource = self.names[resource].as_str();
                if let Some(span) = self.spans.get_mut(&job) {
                    span.first_dispatch.get_or_insert(now);
                    span.last_dispatch = Some(now);
                }
                if let (Some(tracer), Some(trace)) =
                    (self.tracer.as_mut(), self.traces.get_mut(&job))
                {
                    // Each attempt parents to the previous attempt (or
                    // reissue marker) — the causal chain "retry N happened
                    // because attempt N-1 ended" — falling back to the root
                    // for the first attempt.
                    let parent = trace.last_attempt.unwrap_or(trace.root);
                    if let Some(open) = trace.open_attempt.take() {
                        tracer.end(open, now);
                    }
                    let attempt = tracer.start(now, "attempt", "attempt", job.0, Some(parent));
                    tracer.annotate(attempt, "resource", resource.into());
                    if resumed {
                        tracer.annotate(attempt, "resumed", true.into());
                    }
                    trace.open_attempt = Some(attempt);
                    trace.last_attempt = Some(attempt);
                }
                self.metrics.incr("job.dispatches");
                if resumed {
                    self.metrics.incr("job.dispatches.resumed");
                }
                self.bus.emit(
                    now,
                    "job.dispatch",
                    &[
                        ("job", job.0.into()),
                        ("resource", resource.into()),
                        ("resumed", resumed.into()),
                    ],
                );
                if workunit {
                    self.metrics.incr("boinc.workunits");
                    self.bus
                        .emit(now, "boinc.workunit", &[("job", job.0.into())]);
                }
            }
            GridFact::StagedIn(job, resource, stage) => {
                if let (Some(tracer), Some(trace)) =
                    (self.tracer.as_mut(), self.traces.get_mut(&job))
                {
                    let parent = trace
                        .open_attempt
                        .or(trace.last_attempt)
                        .unwrap_or(trace.root);
                    tracer.record(
                        now,
                        now + SimDuration::from_secs_f64(stage.seconds),
                        "stage-in",
                        "data",
                        job.0,
                        Some(parent),
                        &[
                            ("bytes", stage.bytes_moved.into()),
                            ("hits", stage.hits.into()),
                            ("misses", stage.misses.into()),
                        ],
                    );
                }
                self.metrics.incr("data.stage_ins");
                self.metrics.add("data.bytes_moved", stage.bytes_moved);
                self.metrics.add("data.cache_hits", stage.hits);
                self.metrics.add("data.cache_misses", stage.misses);
                self.metrics
                    .observe("data.stage_in_seconds", &STAGE_IN_BUCKETS, stage.seconds);
                self.bus.emit(
                    now,
                    "data.stage_in",
                    &[
                        ("job", job.0.into()),
                        ("resource", self.names[resource].as_str().into()),
                        ("seconds", stage.seconds.into()),
                        ("bytes", stage.bytes_moved.into()),
                        ("hits", stage.hits.into()),
                        ("misses", stage.misses.into()),
                    ],
                );
            }
            GridFact::Bounced(job, resource, wasted) => {
                if let (Some(tracer), Some(trace)) =
                    (self.tracer.as_mut(), self.traces.get_mut(&job))
                {
                    // End the attempt but keep it as `last_attempt`: the
                    // next dispatch parents to this failed attempt, forming
                    // the chain.
                    if let Some(open) = trace.open_attempt.take() {
                        tracer.annotate(open, "bounced", true.into());
                        tracer.end(open, now);
                    }
                }
                self.metrics.incr("job.bounces");
                self.bus.emit(
                    now,
                    "job.bounce",
                    &[
                        ("job", job.0.into()),
                        ("resource", self.names[resource].as_str().into()),
                        ("wasted_cpu_seconds", wasted.into()),
                    ],
                );
            }
            GridFact::Blacklisted(resource) => {
                self.metrics.incr("recovery.blacklists");
                self.bus.emit(
                    now,
                    "recovery.blacklist",
                    &[("resource", self.names[resource].as_str().into())],
                );
            }
            GridFact::BackedOff(job, retries, delay) => {
                if let (Some(tracer), Some(trace)) =
                    (self.tracer.as_mut(), self.traces.get_mut(&job))
                {
                    let parent = trace.last_attempt.unwrap_or(trace.root);
                    tracer.record(
                        now,
                        now + delay,
                        "backoff",
                        "recovery",
                        job.0,
                        Some(parent),
                        &[("retries", retries.into())],
                    );
                }
                self.metrics.incr("recovery.backoffs");
                self.bus.emit(
                    now,
                    "recovery.backoff",
                    &[
                        ("job", job.0.into()),
                        ("retries", retries.into()),
                        ("delay_seconds", delay.as_secs_f64().into()),
                    ],
                );
            }
            GridFact::Settled(job, resource, Terminal::Completed(run)) => {
                self.completed(now, job, resource, run)
            }
            GridFact::Settled(job, _, Terminal::RetryBudgetSpent) => self.dead_letter(now, job),
            GridFact::Settled(job, _, Terminal::ValidationFailed) => {
                self.metrics.incr("validation.failed");
                self.bus
                    .emit(now, "validation.failed", &[("job", job.0.into())]);
                self.dead_letter(now, job);
            }
            GridFact::DeadlineFired(assignment, reissued, job) => {
                // A deadline that queued no copy (its result already came
                // back, or the quorum engine declined) leaves the lineage
                // alone: a marker is only for a reissue.
                if let Some(job) = job.filter(|_| reissued > 0) {
                    if let (Some(tracer), Some(trace)) =
                        (self.tracer.as_mut(), self.traces.get_mut(&job))
                    {
                        // Zero-duration marker: the deadline miss is an
                        // instant, but the copies it spawned parent to it,
                        // so the trace reads "reissue because this deadline
                        // expired".
                        let parent = trace.last_attempt.unwrap_or(trace.root);
                        let marker = tracer.record(
                            now,
                            now,
                            "reissue",
                            "boinc",
                            job.0,
                            Some(parent),
                            &[
                                ("assignment", assignment.into()),
                                ("reissued", reissued.into()),
                            ],
                        );
                        trace.last_attempt = Some(marker);
                    }
                }
                self.metrics.incr("boinc.deadlines");
                self.metrics.add("boinc.reissues", u64::from(reissued));
                self.bus.emit(
                    now,
                    "boinc.deadline",
                    &[
                        ("assignment", assignment.into()),
                        ("reissued", reissued.into()),
                    ],
                );
            }
            GridFact::HostFlipped(client, flip) => {
                self.metrics.incr("churn.flips");
                if flip.available {
                    self.metrics.incr("churn.flips_on");
                } else {
                    self.metrics.incr("churn.flips_off");
                }
                if flip.died {
                    self.metrics.incr("churn.deaths");
                    self.bus
                        .emit(now, "churn.death", &[("client", (client as u64).into())]);
                }
            }
            GridFact::ResourceDown(resource, dropped) => {
                let resource = self.names[resource].as_str();
                if let Some(dropped) = dropped {
                    self.metrics.incr("data.cache_invalidations");
                    self.metrics.add("data.cache_invalidated_bytes", dropped);
                    self.bus.emit(
                        now,
                        "data.cache_invalidate",
                        &[
                            ("resource", resource.into()),
                            ("dropped_bytes", dropped.into()),
                        ],
                    );
                }
                self.metrics.incr("resource.outages");
                self.bus
                    .emit(now, "resource.down", &[("resource", resource.into())]);
            }
            GridFact::ResourceUp(resource) => {
                self.bus.emit(
                    now,
                    "resource.up",
                    &[("resource", self.names[resource].as_str().into())],
                );
            }
            GridFact::Partitioned(resource, started) => {
                if started {
                    self.metrics.incr("mds.partitions");
                }
                self.bus.emit(
                    now,
                    "mds.partition",
                    &[
                        ("resource", self.names[resource].as_str().into()),
                        ("started", started.into()),
                    ],
                );
            }
            GridFact::TenantAdmission(job, tenant, outcome) => {
                self.metrics.incr("tenancy.submitted");
                let (kind, reason) = match outcome {
                    AdmissionOutcome::Admitted => {
                        self.metrics.incr("tenancy.admitted");
                        ("tenancy.admit", None)
                    }
                    AdmissionOutcome::Queued { reason } => {
                        self.metrics.incr("tenancy.queued");
                        ("tenancy.queue", Some(reason.label()))
                    }
                    AdmissionOutcome::Rejected { reason } => {
                        self.metrics.incr("tenancy.rejected");
                        self.metrics
                            .incr(&format!("tenancy.rejected.{}", reason.label()));
                        ("tenancy.reject", Some(reason.label()))
                    }
                };
                let mut fields = vec![("job", job.0.into()), ("tenant", tenant.0.into())];
                fields.extend(reason.map(|r| ("reason", r.into())));
                self.bus.emit(now, kind, &fields);
            }
            GridFact::TenantReleased(released) => {
                self.metrics.incr("tenancy.released");
                self.metrics.observe(
                    "tenancy.queue_wait_seconds",
                    &latency_buckets_seconds(),
                    released.waited.as_secs_f64(),
                );
                self.bus.emit(
                    now,
                    "tenancy.release",
                    &[
                        ("job", released.job.into()),
                        ("tenant", released.tenant.0.into()),
                    ],
                );
            }
            GridFact::TenantCredited(job, tenant, credit, credited) => {
                if credited {
                    self.metrics.incr("tenancy.credited");
                    self.metrics
                        .observe("tenancy.credit_per_job", &CREDIT_BUCKETS, credit);
                } else {
                    self.metrics.incr("tenancy.uncredited");
                }
                self.bus.emit(
                    now,
                    "tenancy.credit",
                    &[
                        ("job", job.0.into()),
                        ("tenant", tenant.0.into()),
                        ("credit", credit.into()),
                    ],
                );
            }
            GridFact::StageReleased(campaign, stage) => {
                self.metrics.incr("flow.stages_released");
                self.metrics.add("flow.jobs_released", stage.fanout);
                self.bus.emit(
                    now,
                    "flow.stage_release",
                    &[
                        ("campaign", (campaign as u64).into()),
                        ("stage", stage.stage_name.as_str().into()),
                        ("kind", stage.kind_label.into()),
                        ("fanout", stage.fanout.into()),
                        ("slack_seconds", stage.slack_seconds.into()),
                    ],
                );
            }
            GridFact::StageCompleted(campaign, stage) => {
                self.metrics.incr("flow.stages_completed");
                self.bus.emit(
                    now,
                    "flow.stage_complete",
                    &[
                        ("campaign", (campaign as u64).into()),
                        ("stage", (stage as u64).into()),
                    ],
                );
            }
            GridFact::CampaignCompleted(done) => {
                self.metrics.incr("flow.campaigns_completed");
                if done.deadline_missed {
                    self.metrics.incr("flow.deadlines_missed");
                }
                self.metrics.observe(
                    "flow.campaign_makespan_seconds",
                    &latency_buckets_seconds(),
                    done.makespan_seconds,
                );
                self.bus.emit(
                    now,
                    "flow.campaign_complete",
                    &[
                        ("campaign", (done.campaign as u64).into()),
                        ("makespan_seconds", done.makespan_seconds.into()),
                        ("deadline_missed", u64::from(done.deadline_missed).into()),
                    ],
                );
            }
        }
    }

    /// A job completed on `resource`: record its run span, close its trace,
    /// fold its lifecycle span into the latency histograms and, under
    /// validation, record the enqueue→canonical-result quorum.
    fn completed(&mut self, now: SimTime, job: JobId, resource: usize, run: &FinishedRun) {
        let resource = self.names[resource].as_str();
        let trace = self.traces.remove(&job);
        if let (Some(tracer), Some(trace)) = (self.tracer.as_mut(), trace) {
            let parent = trace
                .open_attempt
                .or(trace.last_attempt)
                .unwrap_or(trace.root);
            tracer.record(
                run.started,
                now,
                "run",
                "run",
                job.0,
                Some(parent),
                &[
                    ("resource", resource.into()),
                    ("corrupt", run.corrupt.into()),
                ],
            );
            if let Some(open) = trace.open_attempt {
                tracer.end(open, now);
            }
            tracer.end(trace.root, now);
        }
        if let Some(span) = self.spans.remove(&job) {
            let buckets = latency_buckets_seconds();
            let since = |t: SimTime, from: SimTime| t.saturating_since(from).as_secs_f64();
            if let Some(fd) = span.first_dispatch {
                let wait = since(fd, span.submitted);
                self.metrics
                    .observe("job.queue_wait_seconds", &buckets, wait);
            }
            if let Some(ld) = span.last_dispatch {
                let latency = since(run.started, ld);
                self.metrics
                    .observe("job.dispatch_latency_seconds", &buckets, latency);
            }
            let ran = since(now, run.started);
            self.metrics.observe("job.run_seconds", &buckets, ran);
            let turnaround = since(now, span.submitted);
            self.metrics
                .observe("job.turnaround_seconds", &buckets, turnaround);
        }
        self.metrics.incr("job.completed");
        if run.corrupt {
            self.metrics.incr("job.completed.corrupt");
        }
        self.bus.emit(
            now,
            "job.complete",
            &[
                ("job", job.0.into()),
                ("resource", resource.into()),
                ("corrupt", run.corrupt.into()),
            ],
        );
        let Some(completion) = &run.validation else {
            return;
        };
        if let (Some(tracer), Some(trace)) = (self.tracer.as_mut(), trace) {
            tracer.record(
                run.started,
                now,
                "quorum",
                "validation",
                job.0,
                Some(trace.root),
                &[
                    ("results", (completion.results as u64).into()),
                    ("canonical_bad", completion.canonical_bad.into()),
                ],
            );
        }
        self.metrics.incr("validation.completed");
        self.metrics
            .add("validation.results", completion.results as u64);
        self.metrics
            .add("validation.valid_results", completion.valid.len() as u64);
        self.metrics.add(
            "validation.invalid_results",
            completion.invalid.len() as u64,
        );
        if completion.trusted_single {
            self.metrics.incr("validation.trusted_accepts");
        }
        if completion.spot_checked {
            self.metrics.incr("validation.spot_checks");
        }
        if completion.canonical_bad {
            self.metrics.incr("validation.bad_accepted");
        }
        self.metrics.observe(
            "validation.quorum_seconds",
            &latency_buckets_seconds(),
            now.saturating_since(run.started).as_secs_f64(),
        );
        self.bus.emit(
            now,
            "validation.complete",
            &[
                ("job", job.0.into()),
                ("results", (completion.results as u64).into()),
                ("valid", (completion.valid.len() as u64).into()),
                ("invalid", (completion.invalid.len() as u64).into()),
                ("trusted_single", completion.trusted_single.into()),
                ("spot_checked", completion.spot_checked.into()),
                ("canonical_bad", completion.canonical_bad.into()),
            ],
        );
    }

    /// A job failed for good: drop its lifecycle span and close its trace.
    fn dead_letter(&mut self, now: SimTime, job: JobId) {
        self.spans.remove(&job);
        if let Some(trace) = self.traces.remove(&job) {
            if let Some(tracer) = self.tracer.as_mut() {
                if let Some(open) = trace.open_attempt {
                    tracer.end(open, now);
                }
                tracer.annotate(trace.root, "dead_lettered", true.into());
                tracer.end(trace.root, now);
            }
        }
        self.metrics.incr("job.dead_lettered");
        self.bus
            .emit(now, "recovery.dead_letter", &[("job", job.0.into())]);
    }

    /// The grid's end-of-event readings: busy slots per resource, in grid
    /// index order, and the pending-queue depth.
    pub(crate) fn refresh(
        &mut self,
        now: SimTime,
        busy: impl Iterator<Item = usize>,
        queue_depth: usize,
    ) {
        for (resource, busy) in busy.enumerate() {
            self.set_busy(now, resource, busy);
        }
        self.metrics
            .set_gauge("grid.queue_depth", queue_depth as f64);
    }

    /// Update the busy-slot timeline of one resource (and its site rollup).
    /// Cheap when nothing changed.
    fn set_busy(&mut self, now: SimTime, resource: usize, busy: usize) {
        let b = busy as f64;
        if self.busy[resource] == b {
            return;
        }
        self.busy[resource] = b;
        self.util[resource].set(now, b);
        if let Some(site) = self.sites[resource].as_deref() {
            let sum: f64 = self
                .busy
                .iter()
                .zip(self.sites.iter())
                .filter(|(_, s)| s.as_deref() == Some(site))
                .map(|(v, _)| *v)
                .sum();
            if let Some(tw) = self.site_util.get_mut(site) {
                tw.set(now, sum);
            }
        }
    }

    /// Export everything, joined with the MDS monitoring view and (when the
    /// grid runs them) the data plane, validation, tenancy, and workflow
    /// layers, at `now`.
    pub fn snapshot(
        &self,
        now: SimTime,
        mds: &Mds,
        data: Option<&DataGridState>,
        validation: Option<quorum::ValidationSnapshot>,
        tenancy: Option<TenancySnapshot>,
        flow: Option<flow::FlowSnapshot>,
    ) -> TelemetrySnapshot {
        let resources: Vec<ResourceUtilisation> = (0..self.names.len())
            .map(|i| {
                let mean = self.util[i].time_average(now);
                ResourceUtilisation {
                    id: i,
                    name: self.names[i].clone(),
                    site: self.sites[i].clone(),
                    slots: self.slots[i],
                    busy_now: self.busy[i],
                    mean_busy_slots: mean,
                    peak_busy_slots: self.util[i].max(),
                    utilisation: mean / self.slots[i].max(1) as f64,
                }
            })
            .collect();
        let sites: Vec<SiteUtilisation> = self
            .site_util
            .iter()
            .map(|(site, tw)| {
                let slots: usize = self
                    .sites
                    .iter()
                    .zip(self.slots.iter())
                    .filter(|(s, _)| s.as_deref() == Some(site.as_str()))
                    .map(|(_, n)| *n)
                    .sum();
                let mean = tw.time_average(now);
                SiteUtilisation {
                    site: site.clone(),
                    slots,
                    mean_busy_slots: mean,
                    utilisation: mean / slots.max(1) as f64,
                }
            })
            .collect();
        TelemetrySnapshot {
            taken_at_micros: now.as_micros(),
            jobs_in_flight: self.spans.len(),
            metrics: self.metrics.clone(),
            resources,
            sites,
            mds: mds.snapshot(now),
            data: data.map(|d| d.snapshot(now.as_secs_f64())),
            validation,
            tenancy,
            flow,
            events: self.bus.snapshot(),
            timeseries: self.series.as_ref().map(|s| s.snapshot()),
            slo: self.slo.as_ref().map(|s| s.snapshot()),
            trace: self.tracer.as_ref().map(|t| t.summary()),
        }
    }
}

/// One resource's utilisation summary inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct ResourceUtilisation {
    /// Grid resource index.
    pub id: usize,
    /// Resource name.
    pub name: String,
    /// Site attribution, if configured.
    pub site: Option<String>,
    /// Total execution slots.
    pub slots: usize,
    /// Busy slots at snapshot time.
    pub busy_now: f64,
    /// Time-averaged busy slots since time zero.
    pub mean_busy_slots: f64,
    /// Highest busy-slot count observed.
    pub peak_busy_slots: f64,
    /// `mean_busy_slots / slots` (0..1).
    pub utilisation: f64,
}

/// Per-site utilisation rollup inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct SiteUtilisation {
    /// Site name.
    pub site: String,
    /// Total slots across the site's resources.
    pub slots: usize,
    /// Time-averaged busy slots across the site.
    pub mean_busy_slots: f64,
    /// `mean_busy_slots / slots` (0..1).
    pub utilisation: f64,
}

/// Full telemetry export of one grid run: metrics, utilisation, MDS
/// monitoring view, and recent structured events. Serializing this twice
/// for the same seeded scenario yields byte-identical JSON.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Simulation time of the snapshot, in microseconds.
    pub taken_at_micros: u64,
    /// Jobs submitted but not yet terminal.
    pub jobs_in_flight: usize,
    /// Counters, gauges, and histograms.
    pub metrics: MetricsRegistry,
    /// Per-resource utilisation, in grid index order.
    pub resources: Vec<ResourceUtilisation>,
    /// Per-site rollups, sorted by site name.
    pub sites: Vec<SiteUtilisation>,
    /// MDS monitoring view (freshness, offline episodes, staleness).
    pub mds: MdsSnapshot,
    /// Data-plane view (store, links, caches); `None` when the grid runs
    /// without [`crate::GridConfig::data`].
    pub data: Option<DataSnapshot>,
    /// Result-validation view (quorum accounting, host reputation totals);
    /// `None` when the grid runs without [`crate::GridConfig::validation`].
    pub validation: Option<quorum::ValidationSnapshot>,
    /// Multi-tenant view (accounts, quotas, credit, fairness); `None` when
    /// the grid runs without [`crate::GridConfig::tenancy`].
    pub tenancy: Option<TenancySnapshot>,
    /// Workflow view (campaigns, stage barriers, deadlines); `None` when
    /// the grid runs without [`crate::GridConfig::flow`].
    pub flow: Option<flow::FlowSnapshot>,
    /// Event totals and the recent-event ring.
    pub events: EventBusSnapshot,
    /// Windowed time series; `None` when streaming collection is off.
    pub timeseries: Option<TimeSeriesSnapshot>,
    /// SLO engine state (rules firing, alert log); `None` when off.
    pub slo: Option<SloSnapshot>,
    /// Span-log accounting; `None` when tracing is off.
    pub trace: Option<SpanLogSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{ResourceKind, ResourceSpec};

    fn completed(started: SimTime) -> Terminal {
        Terminal::Completed(FinishedRun {
            started,
            cpu_seconds: 0.0,
            wasted_cpu_seconds: 0.0,
            attempts: 1,
            reissues: 0,
            corrupt: false,
            validation: None,
        })
    }

    fn specs() -> Vec<ResourceSpec> {
        vec![
            ResourceSpec::cluster("a", ResourceKind::PbsCluster, 8, 1.0).with_site("umd"),
            ResourceSpec::cluster("b", ResourceKind::SgeCluster, 4, 1.0).with_site("umd"),
            ResourceSpec::condor_pool("c", 16, 1.0, 8.0),
        ]
    }

    #[test]
    fn span_folds_into_latency_histograms() {
        let mut t = GridTelemetry::new(TelemetryConfig::default(), &specs());
        let job = JobId(1);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs(60); // dispatch
        let t2 = SimTime::from_secs(90); // start
        let t3 = SimTime::from_secs(3690); // finish
        t.observe(t0, GridFact::Admitted(job));
        assert_eq!(t.spans.len(), 1);
        t.observe(t1, GridFact::Dispatched(job, 0, false, false));
        t.observe(t3, GridFact::Settled(job, 0, &completed(t2)));
        assert_eq!(t.spans.len(), 0);
        let m = t.metrics();
        assert_eq!(m.counter("job.submitted"), 1);
        assert_eq!(m.counter("job.dispatches"), 1);
        assert_eq!(m.counter("job.completed"), 1);
        let queue = m.histogram("job.queue_wait_seconds").unwrap();
        assert_eq!(queue.count(), 1);
        assert_eq!(queue.sum(), 60.0);
        let run = m.histogram("job.run_seconds").unwrap();
        assert_eq!(run.sum(), 3600.0);
        let turnaround = m.histogram("job.turnaround_seconds").unwrap();
        assert_eq!(turnaround.sum(), 3690.0);
        let dispatch = m.histogram("job.dispatch_latency_seconds").unwrap();
        assert_eq!(dispatch.sum(), 30.0);
    }

    #[test]
    fn utilisation_timelines_and_site_rollup() {
        let mut t = GridTelemetry::new(TelemetryConfig::default(), &specs());
        // Chronological updates (as the event loop produces them):
        // resource 0 busy 4 slots for the first hour then idle, resource 1
        // (same site) busy 2 slots for the whole two hours.
        t.set_busy(SimTime::ZERO, 0, 4);
        t.set_busy(SimTime::ZERO, 1, 2);
        t.set_busy(SimTime::from_hours(1), 0, 0);
        let snap = t.snapshot(
            SimTime::from_hours(2),
            &Mds::default(),
            None,
            None,
            None,
            None,
        );
        let a = &snap.resources[0];
        assert!((a.mean_busy_slots - 2.0).abs() < 1e-9);
        assert!((a.utilisation - 0.25).abs() < 1e-9);
        assert_eq!(a.peak_busy_slots, 4.0);
        assert_eq!(snap.sites.len(), 1);
        let umd = &snap.sites[0];
        assert_eq!(umd.site, "umd");
        assert_eq!(umd.slots, 12);
        // 6 busy for 1h + 2 busy for 1h = mean 4.
        assert!((umd.mean_busy_slots - 4.0).abs() < 1e-9, "{umd:?}");
    }

    #[test]
    fn dead_letter_drops_span_without_latency_observation() {
        let mut t = GridTelemetry::new(TelemetryConfig::default(), &specs());
        let job = JobId(7);
        t.observe(SimTime::ZERO, GridFact::Admitted(job));
        t.observe(
            SimTime::from_secs(60),
            GridFact::Dispatched(job, 2, false, false),
        );
        t.observe(SimTime::from_secs(120), GridFact::Bounced(job, 2, 55.0));
        let budget_spent = Terminal::RetryBudgetSpent;
        t.observe(
            SimTime::from_secs(120),
            GridFact::Settled(job, 2, &budget_spent),
        );
        assert_eq!(t.spans.len(), 0);
        assert_eq!(t.metrics().counter("job.dead_lettered"), 1);
        assert_eq!(t.metrics().counter("job.bounces"), 1);
        assert!(t.metrics().histogram("job.turnaround_seconds").is_none());
        assert_eq!(t.bus().count("recovery.dead_letter"), 1);
    }

    #[test]
    fn only_a_deadline_that_queued_a_copy_leaves_a_reissue_marker() {
        let traced = TelemetryConfig {
            trace_capacity: 16,
            ..TelemetryConfig::default()
        };
        let mut t = GridTelemetry::new(traced, &specs());
        let job = JobId(3);
        t.observe(SimTime::ZERO, GridFact::Admitted(job));
        t.observe(SimTime::ZERO, GridFact::Dispatched(job, 2, false, true));
        let spans = |t: &GridTelemetry| t.tracer().expect("tracing on").summary().recorded;
        let before = spans(&t);
        let quiet = GridFact::DeadlineFired(1, 0, Some(job));
        t.observe(SimTime::from_hours(1), quiet);
        assert_eq!(spans(&t), before, "a deadline that queued nothing");
        let reissue = GridFact::DeadlineFired(2, 1, Some(job));
        t.observe(SimTime::from_hours(2), reissue);
        assert_eq!(spans(&t), before + 1);
        // Both deadlines fired, so both count.
        assert_eq!(t.metrics().counter("boinc.deadlines"), 2);
        assert_eq!(t.bus().count("boinc.deadline"), 2);
    }

    #[test]
    fn completed_lrm_jobs_leave_no_trace_behind() {
        let traced = TelemetryConfig {
            trace_capacity: 256,
            ..TelemetryConfig::default()
        };
        let mut grid = crate::grid::Grid::new(crate::grid::GridConfig {
            resources: vec![ResourceSpec::cluster("a", ResourceKind::PbsCluster, 4, 1.0)],
            telemetry: Some(traced),
            ..Default::default()
        });
        grid.submit((0..12).map(|i| crate::job::JobSpec::simple(i, 1800.0)));
        let report = grid.run_until_done(SimTime::from_days(1));
        assert_eq!(report.completed, 12);
        let t = grid.world().telemetry().expect("telemetry on");
        assert!(t.tracer().expect("tracing on").summary().recorded > 0);
        assert!(
            t.traces.is_empty(),
            "{} trace entries outlived their jobs",
            t.traces.len()
        );
    }

    #[test]
    fn snapshot_serialization_is_replay_stable() {
        let run = || {
            let mut t = GridTelemetry::new(
                TelemetryConfig {
                    event_capacity: 4,
                    ..TelemetryConfig::default()
                },
                &specs(),
            );
            let mut mds = Mds::default();
            for i in 0..6u64 {
                let at = SimTime::from_secs(i * 30);
                t.observe(at, GridFact::Admitted(JobId(i)));
                let resource = (i % 3) as usize;
                t.observe(at, GridFact::Dispatched(JobId(i), resource, false, false));
                mds.report(
                    crate::resource::ResourceId((i % 3) as usize),
                    crate::mds::ResourceState {
                        free_slots: 1,
                        total_slots: 4,
                        queued_jobs: i as usize,
                    },
                    at,
                );
            }
            let done = completed(SimTime::from_secs(30));
            t.observe(
                SimTime::from_secs(500),
                GridFact::Settled(JobId(0), 0, &done),
            );
            serde_json::to_string(&t.snapshot(
                SimTime::from_secs(600),
                &mds,
                None,
                None,
                None,
                None,
            ))
            .unwrap()
        };
        let a = run();
        assert_eq!(a, run());
        // The ring held 4 of 13 events; totals must still be exact.
        assert!(a.contains("\"emitted\""));
    }
}
