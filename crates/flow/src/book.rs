//! The workflow runtime: live DAG campaigns, per-stage completion
//! barriers, and the slack table the dispatch path consults.
//!
//! A [`FlowBook`] is the grid-side ledger of every submitted DAG. Stages
//! whose dependencies are all complete are *released* (their jobs become
//! grid state); each terminal job result decrements its stage's barrier,
//! and a barrier reaching zero releases the dependent stages and — on the
//! last stage — completes the campaign against its deadline. Dead-lettered
//! jobs still satisfy barriers (tracked as failures) so a lost replicate
//! degrades a consensus rather than hanging the pipeline forever, exactly
//! like the production portal's "proceed with the replicates that came
//! back" behaviour.
//!
//! Derived state (job-range lookup table, per-stage slack, dependency
//! adjacency) is never serialized: restores rebuild it from the specs, so
//! snapshots stay byte-comparable however they were produced.

use crate::dag::{DagSpec, FlowError};
use serde::{Deserialize, Serialize, Value};
use simkit::SimTime;

/// Workflow knobs on the grid config. The subsystem is off unless the grid
/// carries `Some(FlowConfig)`; `dag_aware` further gates whether stage
/// slack reorders the dispatch backlog (off = "blind" scheduling, the E19
/// comparison arm).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Sort the dispatch backlog by stage slack (most critical first).
    pub dag_aware: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig { dag_aware: true }
    }
}

/// One live campaign inside the [`FlowBook`].
///
/// Snapshot form: specs, barriers, and counters only. The job-range
/// lookup, slack table, and dependency adjacency are derived, skipped, and
/// rebuilt by the hand-written `Deserialize`, so books restored from either
/// dispatch path stay byte-comparable.
#[derive(Debug, Clone, Serialize)]
struct Campaign {
    spec: DagSpec,
    first_job: u64,
    submitted_at: SimTime,
    /// Stage released into the grid (jobs exist as grid state).
    released: Vec<bool>,
    /// Jobs of the stage not yet terminal.
    remaining: Vec<u64>,
    /// Dead-lettered / validation-failed jobs per stage.
    failures: Vec<u64>,
    completed_at: Option<SimTime>,
    deadline_missed: bool,
    // Derived (rebuilt on restore, never serialized):
    /// `offsets[s]` = first job id of stage `s`; `offsets[stages.len()]` is
    /// one past the campaign's last job.
    #[serde(skip)]
    offsets: Vec<u64>,
    /// CPM slack per stage (seconds; negative = deadline already blown).
    #[serde(skip)]
    slack: Vec<f64>,
    /// Reverse dependency edges.
    #[serde(skip)]
    dependents: Vec<Vec<usize>>,
    /// Dependencies not yet complete, per stage.
    #[serde(skip)]
    deps_remaining: Vec<usize>,
}

impl Campaign {
    fn rebuild_derived(&mut self) -> Result<(), FlowError> {
        let analysis = self.spec.analyze()?;
        let n = self.spec.stages.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut next = self.first_job;
        for s in &self.spec.stages {
            offsets.push(next);
            next += s.fanout;
        }
        offsets.push(next);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.spec.stages.iter().enumerate() {
            for &d in &s.deps {
                dependents[d].push(i);
            }
        }
        self.deps_remaining = (0..n)
            .map(|i| {
                self.spec.stages[i]
                    .deps
                    .iter()
                    .filter(|&&d| !self.stage_complete(d))
                    .count()
            })
            .collect();
        self.offsets = offsets;
        self.slack = analysis.slack;
        self.dependents = dependents;
        Ok(())
    }

    fn stage_complete(&self, stage: usize) -> bool {
        self.released[stage] && self.remaining[stage] == 0
    }

    fn end_job(&self) -> u64 {
        *self.offsets.last().expect("offsets built")
    }

    fn stage_of(&self, job: u64) -> usize {
        debug_assert!(job >= self.first_job && job < self.end_job());
        // Stages are few (a pipeline, not a pool): linear walk is fine.
        (0..self.spec.stages.len())
            .find(|&s| job < self.offsets[s + 1])
            .expect("job inside campaign range")
    }

    fn release_info(&self, stage: usize) -> ReleasedStage {
        let s = &self.spec.stages[stage];
        ReleasedStage {
            stage,
            stage_name: s.name.clone(),
            kind_label: s.kind.label(),
            first_job: self.offsets[stage],
            fanout: s.fanout,
            job_seconds: s.job_seconds,
            estimate_seconds: s.estimate_seconds,
            slack_seconds: self.slack[stage],
        }
    }
}

/// A stage whose dependency barrier just cleared: the grid turns this into
/// `fanout` job submissions.
#[derive(Debug, Clone)]
pub struct ReleasedStage {
    /// Stage index within its campaign.
    pub stage: usize,
    /// Stage name.
    pub stage_name: String,
    /// Stable [`crate::StageKind`] label.
    pub kind_label: &'static str,
    /// First job id of the stage's contiguous range.
    pub first_job: u64,
    /// Number of jobs.
    pub fanout: u64,
    /// Reference CPU seconds per job.
    pub job_seconds: f64,
    /// Scheduler estimate per job, when the spec carries one.
    pub estimate_seconds: Option<f64>,
    /// CPM slack of the stage (the dispatch priority hint).
    pub slack_seconds: f64,
}

/// What one terminal job result changed: stages newly released, a stage
/// barrier that cleared, and/or a whole campaign completing.
#[derive(Debug, Clone, Default)]
pub struct FlowProgress {
    /// The campaign the job belonged to (`None`: not a flow job).
    pub campaign: Option<usize>,
    /// Stage whose barrier cleared with this result.
    pub stage_completed: Option<usize>,
    /// Stages released by that barrier clearing.
    pub released: Vec<ReleasedStage>,
    /// Set when the campaign's last stage completed.
    pub campaign_completed: Option<CampaignCompleted>,
}

/// Terminal summary of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCompleted {
    /// Campaign index in submission order.
    pub campaign: usize,
    /// Submission → last terminal result.
    pub makespan_seconds: f64,
    /// True when the campaign finished after its deadline.
    pub deadline_missed: bool,
}

/// The grid-side ledger of DAG campaigns.
#[derive(Debug, Clone, Serialize)]
pub struct FlowBook {
    config: FlowConfig,
    campaigns: Vec<Campaign>,
    stages_released: u64,
    stages_completed: u64,
    campaigns_completed: u64,
    deadlines_missed: u64,
    /// Derived: `(first_job, end_job, campaign)` sorted by `first_job`.
    #[serde(skip)]
    ranges: Vec<(u64, u64, usize)>,
}

impl FlowBook {
    /// An empty book.
    pub fn new(config: FlowConfig) -> FlowBook {
        FlowBook {
            config,
            campaigns: Vec::new(),
            stages_released: 0,
            stages_completed: 0,
            campaigns_completed: 0,
            deadlines_missed: 0,
            ranges: Vec::new(),
        }
    }

    /// Whether stage slack should reorder the dispatch backlog.
    pub fn dag_aware(&self) -> bool {
        self.config.dag_aware
    }

    /// Register a campaign whose jobs occupy the contiguous id range
    /// starting at `first_job`. Returns the root stages to release
    /// immediately (dependency-free stages).
    ///
    /// # Panics
    /// Panics if the job range overlaps an already-registered campaign
    /// (caller allocates disjoint ranges).
    pub fn submit(
        &mut self,
        spec: DagSpec,
        first_job: u64,
        now: SimTime,
    ) -> Result<Vec<ReleasedStage>, FlowError> {
        spec.analyze()?; // validate before any state changes
        let n = spec.stages.len();
        let mut campaign = Campaign {
            spec,
            first_job,
            submitted_at: now,
            released: vec![false; n],
            remaining: Vec::new(),
            failures: vec![0; n],
            completed_at: None,
            deadline_missed: false,
            offsets: Vec::new(),
            slack: Vec::new(),
            dependents: Vec::new(),
            deps_remaining: Vec::new(),
        };
        campaign.remaining = campaign.spec.stages.iter().map(|s| s.fanout).collect();
        campaign.rebuild_derived().expect("validated above");
        let end = campaign.end_job();
        assert!(
            !self
                .ranges
                .iter()
                .any(|&(lo, hi, _)| first_job < hi && lo < end),
            "campaign job range {first_job}..{end} overlaps an existing campaign"
        );
        let idx = self.campaigns.len();
        let mut released = Vec::new();
        for s in 0..n {
            if campaign.deps_remaining[s] == 0 {
                campaign.released[s] = true;
                released.push(campaign.release_info(s));
            }
        }
        self.stages_released += released.len() as u64;
        self.campaigns.push(campaign);
        self.ranges.push((first_job, end, idx));
        self.ranges.sort_unstable();
        Ok(released)
    }

    fn campaign_of(&self, job: u64) -> Option<usize> {
        let i = self.ranges.partition_point(|&(lo, _, _)| lo <= job);
        if i == 0 {
            return None;
        }
        let (lo, hi, idx) = self.ranges[i - 1];
        (job >= lo && job < hi).then_some(idx)
    }

    /// The dispatch priority hint: the CPM slack of the job's stage, or
    /// `None` when the job belongs to no campaign.
    pub fn slack_of(&self, job: u64) -> Option<f64> {
        let c = &self.campaigns[self.campaign_of(job)?];
        Some(c.slack[c.stage_of(job)])
    }

    /// A job reached a terminal state (completed, dead-lettered, or
    /// validation-failed). Decrements the stage barrier and cascades
    /// releases/completions.
    pub fn on_terminal(&mut self, job: u64, failed: bool, now: SimTime) -> FlowProgress {
        let Some(idx) = self.campaign_of(job) else {
            return FlowProgress::default();
        };
        let c = &mut self.campaigns[idx];
        let stage = c.stage_of(job);
        debug_assert!(c.released[stage], "terminal job from an unreleased stage");
        debug_assert!(c.remaining[stage] > 0, "stage barrier underflow");
        c.remaining[stage] -= 1;
        if failed {
            c.failures[stage] += 1;
        }
        let mut progress = FlowProgress {
            campaign: Some(idx),
            ..FlowProgress::default()
        };
        if !c.stage_complete(stage) {
            return progress;
        }
        progress.stage_completed = Some(stage);
        self.stages_completed += 1;
        let c = &mut self.campaigns[idx];
        for d in 0..c.dependents[stage].len() {
            let dep = c.dependents[stage][d];
            c.deps_remaining[dep] -= 1;
            if c.deps_remaining[dep] == 0 && !c.released[dep] {
                c.released[dep] = true;
                progress.released.push(c.release_info(dep));
            }
        }
        self.stages_released += progress.released.len() as u64;
        let c = &mut self.campaigns[idx];
        if (0..c.spec.stages.len()).all(|s| c.stage_complete(s)) {
            c.completed_at = Some(now);
            let makespan = now.saturating_since(c.submitted_at).as_secs_f64();
            let missed = c.spec.deadline_hours.is_some_and(|h| makespan > h * 3600.0);
            c.deadline_missed = missed;
            self.campaigns_completed += 1;
            if missed {
                self.deadlines_missed += 1;
            }
            progress.campaign_completed = Some(CampaignCompleted {
                campaign: idx,
                makespan_seconds: makespan,
                deadline_missed: missed,
            });
        }
        progress
    }

    /// Number of registered campaigns.
    pub fn campaigns(&self) -> usize {
        self.campaigns.len()
    }

    /// Campaigns whose every stage completed.
    pub fn campaigns_completed(&self) -> u64 {
        self.campaigns_completed
    }

    /// Completed campaigns that blew their deadline.
    pub fn deadlines_missed(&self) -> u64 {
        self.deadlines_missed
    }

    /// Export the book for telemetry, the portal page, and reports.
    /// `max_rows` bounds the per-campaign table (submission order).
    pub fn snapshot(&self, now: SimTime, max_rows: usize) -> FlowSnapshot {
        let rows: Vec<CampaignRow> = self
            .campaigns
            .iter()
            .take(max_rows)
            .map(|c| {
                let jobs = c.spec.total_jobs();
                let jobs_done: u64 = c
                    .spec
                    .stages
                    .iter()
                    .enumerate()
                    .filter(|&(s, _)| c.released[s])
                    .map(|(s, spec)| spec.fanout - c.remaining[s])
                    .sum();
                CampaignRow {
                    name: c.spec.name.clone(),
                    stages: c.spec.stages.len(),
                    stages_completed: (0..c.spec.stages.len())
                        .filter(|&s| c.stage_complete(s))
                        .count(),
                    jobs,
                    jobs_done,
                    failures: c.failures.iter().sum(),
                    critical_path_seconds: c
                        .spec
                        .analyze()
                        .map(|a| a.critical_path_seconds)
                        .unwrap_or(0.0),
                    deadline_hours: c.spec.deadline_hours,
                    makespan_seconds: c
                        .completed_at
                        .map(|t| t.saturating_since(c.submitted_at).as_secs_f64()),
                    deadline_missed: c.deadline_missed,
                }
            })
            .collect();
        let jobs_total: u64 = self.campaigns.iter().map(|c| c.spec.total_jobs()).sum();
        let jobs_done: u64 = self
            .campaigns
            .iter()
            .map(|c| {
                c.spec
                    .stages
                    .iter()
                    .enumerate()
                    .filter(|&(s, _)| c.released[s])
                    .map(|(s, spec)| spec.fanout - c.remaining[s])
                    .sum::<u64>()
            })
            .sum();
        FlowSnapshot {
            taken_at_micros: now.as_micros(),
            campaigns: self.campaigns.len(),
            campaigns_completed: self.campaigns_completed,
            deadlines_missed: self.deadlines_missed,
            stages_released: self.stages_released,
            stages_completed: self.stages_completed,
            jobs_total,
            jobs_done,
            failures: self
                .campaigns
                .iter()
                .map(|c| c.failures.iter().sum::<u64>())
                .sum(),
            rows,
            more: self.campaigns.len().saturating_sub(max_rows),
        }
    }
}

/// Workflow view embedded in `TelemetrySnapshot`-style exports and the
/// grid report. Byte-stable under seeded replay.
#[derive(Debug, Clone, Serialize)]
pub struct FlowSnapshot {
    /// Simulation time of the snapshot, in microseconds.
    pub taken_at_micros: u64,
    /// Registered campaigns.
    pub campaigns: usize,
    /// Campaigns whose every stage completed.
    pub campaigns_completed: u64,
    /// Completed campaigns that blew their deadline.
    pub deadlines_missed: u64,
    /// Stage barriers opened (roots + dependency releases).
    pub stages_released: u64,
    /// Stage barriers fully drained.
    pub stages_completed: u64,
    /// Jobs across all campaigns and stages (released or not).
    pub jobs_total: u64,
    /// Terminal jobs so far.
    pub jobs_done: u64,
    /// Terminal jobs that failed (dead-letter / validation failure).
    pub failures: u64,
    /// Bounded per-campaign table, in submission order.
    pub rows: Vec<CampaignRow>,
    /// Campaigns beyond the bounded table.
    pub more: usize,
}

/// One campaign's row in the bounded [`FlowSnapshot`] table.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignRow {
    /// Campaign name.
    pub name: String,
    /// Total stages.
    pub stages: usize,
    /// Stages whose barrier drained.
    pub stages_completed: usize,
    /// Total jobs across stages.
    pub jobs: u64,
    /// Terminal jobs so far.
    pub jobs_done: u64,
    /// Failed terminal jobs.
    pub failures: u64,
    /// CPM critical path (seconds).
    pub critical_path_seconds: f64,
    /// Deadline in hours, when set.
    pub deadline_hours: Option<f64>,
    /// Submission → completion, once complete.
    pub makespan_seconds: Option<f64>,
    /// True when the campaign completed past its deadline.
    pub deadline_missed: bool,
}

// Hand-written so restore can rebuild (and validate) the skipped tables.
impl Deserialize for Campaign {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Campaign"))?;
        let mut c = Campaign {
            spec: serde::field(fields, "spec")?,
            first_job: serde::field(fields, "first_job")?,
            submitted_at: serde::field(fields, "submitted_at")?,
            released: serde::field(fields, "released")?,
            remaining: serde::field(fields, "remaining")?,
            failures: serde::field(fields, "failures")?,
            completed_at: serde::field(fields, "completed_at")?,
            deadline_missed: serde::field(fields, "deadline_missed")?,
            offsets: Vec::new(),
            slack: Vec::new(),
            dependents: Vec::new(),
            deps_remaining: Vec::new(),
        };
        c.rebuild_derived()
            .map_err(|e| serde::Error::custom(format!("invalid campaign spec: {e}")))?;
        Ok(c)
    }
}

// Hand-written so restore can rebuild the skipped job-range lookup.
impl Deserialize for FlowBook {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for FlowBook"))?;
        let campaigns: Vec<Campaign> = serde::field(fields, "campaigns")?;
        let ranges = campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.first_job, c.end_job(), i))
            .collect::<Vec<_>>();
        let mut book = FlowBook {
            config: serde::field(fields, "config")?,
            campaigns,
            stages_released: serde::field(fields, "stages_released")?,
            stages_completed: serde::field(fields, "stages_completed")?,
            campaigns_completed: serde::field(fields, "campaigns_completed")?,
            deadlines_missed: serde::field(fields, "deadlines_missed")?,
            ranges,
        };
        book.ranges.sort_unstable();
        Ok(book)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{StageKind, StageSpec};

    fn pipeline() -> DagSpec {
        DagSpec::phylo_pipeline("p", 2, 4, 100.0, 400.0, 200.0, 50.0)
    }

    #[test]
    fn roots_release_immediately_and_barriers_cascade() {
        let mut book = FlowBook::new(FlowConfig::default());
        let released = book.submit(pipeline(), 10, SimTime::ZERO).unwrap();
        assert_eq!(released.len(), 1, "only the alignment root releases");
        assert_eq!(released[0].first_job, 10);
        assert_eq!(released[0].fanout, 1);
        // Alignment done → search (11..13) and bootstrap (13..17) release.
        let p = book.on_terminal(10, false, SimTime::from_secs(100));
        assert_eq!(p.stage_completed, Some(0));
        let names: Vec<&str> = p.released.iter().map(|r| r.stage_name.as_str()).collect();
        assert_eq!(names, ["search", "bootstrap"]);
        assert!(p.campaign_completed.is_none());
        // Drain search; consensus still waits on bootstrap.
        assert!(book
            .on_terminal(11, false, SimTime::from_secs(500))
            .released
            .is_empty());
        let p = book.on_terminal(12, false, SimTime::from_secs(510));
        assert_eq!(p.stage_completed, Some(1));
        assert!(p.released.is_empty(), "consensus barrier not clear yet");
        // Drain bootstrap (one replicate dead-letters: barrier still
        // clears, the failure is tracked).
        for job in 13..16 {
            book.on_terminal(job, false, SimTime::from_secs(600));
        }
        let p = book.on_terminal(16, true, SimTime::from_secs(700));
        assert_eq!(p.released.len(), 1);
        assert_eq!(p.released[0].stage_name, "consensus");
        // Consensus done → campaign completes.
        let p = book.on_terminal(17, false, SimTime::from_secs(800));
        let done = p.campaign_completed.expect("campaign completed");
        assert_eq!(done.makespan_seconds, 800.0);
        assert!(!done.deadline_missed);
        let snap = book.snapshot(SimTime::from_secs(800), 10);
        assert_eq!(snap.campaigns_completed, 1);
        assert_eq!(snap.failures, 1);
        assert_eq!(snap.jobs_done, 8);
        assert_eq!(snap.rows[0].makespan_seconds, Some(800.0));
    }

    #[test]
    fn deadline_miss_is_detected_at_completion() {
        let mut book = FlowBook::new(FlowConfig::default());
        let dag = DagSpec::new(
            "d",
            vec![StageSpec::root("only", StageKind::Custom, 1, 60.0)],
        )
        .with_deadline_hours(1.0);
        book.submit(dag, 0, SimTime::ZERO).unwrap();
        let p = book.on_terminal(0, false, SimTime::from_hours(2));
        assert!(p.campaign_completed.unwrap().deadline_missed);
        assert_eq!(book.deadlines_missed(), 1);
    }

    #[test]
    fn slack_lookup_maps_jobs_to_stages() {
        let mut book = FlowBook::new(FlowConfig::default());
        book.submit(pipeline(), 100, SimTime::ZERO).unwrap();
        // Critical spine (align/search/consensus) has zero slack; the
        // bootstrap stage has search-bootstrap slack 200s.
        assert_eq!(book.slack_of(100), Some(0.0));
        assert_eq!(book.slack_of(101), Some(0.0));
        assert_eq!(book.slack_of(103), Some(200.0));
        assert_eq!(book.slack_of(107), Some(0.0));
        assert_eq!(book.slack_of(99), None);
        assert_eq!(book.slack_of(108), None);
    }

    #[test]
    fn overlapping_ranges_panic() {
        let mut book = FlowBook::new(FlowConfig::default());
        book.submit(pipeline(), 0, SimTime::ZERO).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = book.submit(pipeline(), 7, SimTime::ZERO);
        }));
        assert!(r.is_err(), "overlap must be rejected loudly");
    }

    #[test]
    fn serde_round_trip_rebuilds_derived_state() {
        let mut book = FlowBook::new(FlowConfig { dag_aware: false });
        book.submit(pipeline(), 0, SimTime::ZERO).unwrap();
        book.submit(
            pipeline().with_deadline_hours(4.0),
            100,
            SimTime::from_secs(60),
        )
        .unwrap();
        book.on_terminal(0, false, SimTime::from_secs(120));
        book.on_terminal(100, false, SimTime::from_secs(180));
        book.on_terminal(1, false, SimTime::from_secs(400));
        let json = serde_json::to_string(&book).unwrap();
        let restored: FlowBook = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
        assert_eq!(restored.slack_of(3), book.slack_of(3));
        assert!(!restored.dag_aware());
        // The restored book continues identically.
        let mut a = book.clone();
        let mut b = restored;
        for job in [2u64, 3, 4, 5, 6] {
            let pa = a.on_terminal(job, job == 4, SimTime::from_secs(1000 + job));
            let pb = b.on_terminal(job, job == 4, SimTime::from_secs(1000 + job));
            assert_eq!(pa.stage_completed, pb.stage_completed);
            assert_eq!(pa.released.len(), pb.released.len());
        }
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
