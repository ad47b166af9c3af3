//! Grid-level job descriptions and completion records.
//!
//! A [`JobSpec`] is the generic description a user (or the portal) submits
//! at the grid level — the role RSL/JSDL documents play in Globus. It
//! carries the *requirements* (platforms, memory, MPI, software) the
//! matchmaker filters on, the *true* work content (hidden from the
//! scheduler — only execution reveals it), and optionally the a-priori
//! runtime estimate produced by the random-forest model. A [`Terminal`]
//! is how an executor reports a job's end back to the grid.

use crate::platform::Platform;
use datagrid::ObjectRef;
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime};

fn one_slot() -> usize {
    1
}

/// Unique job identifier within a grid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A grid-level job description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Platforms the application ships binaries for.
    pub platforms: Vec<Platform>,
    /// Minimum memory per node in bytes.
    pub min_memory_bytes: u64,
    /// Whether the job needs a tightly-coupled MPI environment.
    pub needs_mpi: bool,
    /// Execution slots the job occupies simultaneously (1 = serial; > 1 =
    /// a tightly-coupled MPI job gang-scheduled onto one cluster).
    #[serde(default = "one_slot")]
    pub slots_required: usize,
    /// Software dependencies (e.g. `"java"`) the resource must advertise.
    pub software_deps: Vec<String>,
    /// True compute content: runtime on the reference (speed 1.0) computer.
    /// The scheduler never reads this; the executing resource does.
    pub true_reference_seconds: f64,
    /// The a-priori runtime estimate (reference-computer seconds) from the
    /// random-forest model, if estimation is enabled.
    pub estimated_reference_seconds: Option<f64>,
    /// Whether the application checkpoints (the BOINC GARLI build does).
    pub checkpointable: bool,
    /// Content-addressed input objects (alignment, config) that must be
    /// staged to the executing resource before the job starts. Ignored
    /// unless the grid enables its data plane ([`crate::GridConfig::data`]).
    #[serde(default)]
    pub inputs: Vec<ObjectRef>,
}

impl JobSpec {
    /// A plain single-core Linux job of the given true size, with no
    /// estimate attached.
    pub fn simple(id: u64, true_reference_seconds: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            platforms: Platform::ALL_COMMON.to_vec(),
            min_memory_bytes: 256 * 1024 * 1024,
            needs_mpi: false,
            slots_required: 1,
            software_deps: Vec::new(),
            true_reference_seconds,
            estimated_reference_seconds: None,
            checkpointable: false,
            inputs: Vec::new(),
        }
    }

    /// Attach one content-addressed input object (builder style). Jobs
    /// sharing content — bootstrap replicates over one alignment — attach
    /// the *same* [`ObjectRef`], which is what makes dedup and cache hits
    /// possible downstream.
    pub fn with_input(mut self, input: ObjectRef) -> JobSpec {
        self.inputs.push(input);
        self
    }

    /// Attach a runtime estimate (builder style).
    pub fn with_estimate(mut self, estimated_reference_seconds: f64) -> JobSpec {
        self.estimated_reference_seconds = Some(estimated_reference_seconds);
        self
    }

    /// Make this a tightly-coupled MPI job spanning `slots` cores (builder
    /// style). Such jobs only match MPI-capable resources with enough
    /// slots, exactly as §IV describes ("tightly coupled jobs … can be
    /// sent to clusters with fast interconnects").
    pub fn mpi(mut self, slots: usize) -> JobSpec {
        assert!(slots >= 1, "need at least one slot");
        self.needs_mpi = true;
        self.slots_required = slots;
        self
    }

    /// The runtime the scheduler should assume on a resource of the given
    /// speed: the estimate when present, else `None` (no basis for
    /// stability decisions — the pre-ML situation).
    pub fn assumed_seconds_at(&self, speed: f64) -> Option<f64> {
        self.estimated_reference_seconds.map(|e| e / speed)
    }

    /// The actual runtime on a resource of the given speed.
    ///
    /// # Panics
    /// Panics on non-positive speed.
    pub fn actual_duration_at(&self, speed: f64) -> SimDuration {
        assert!(speed > 0.0 && speed.is_finite(), "invalid speed {speed}");
        SimDuration::from_secs_f64(self.true_reference_seconds / speed)
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Finished and returned results.
    Completed,
    /// Still queued or running when the simulation was cut off.
    Unfinished,
    /// Permanently failed: bounced back to the grid more often than the
    /// recovery policy's retry budget allows. Reported to the user instead
    /// of being requeued forever.
    DeadLettered,
}

/// What an executor reports about the run that finished a job: an LRM
/// fills the attempt and waste fields, the volunteer pool the reissue,
/// corruption and validation fields, and each leaves the others at their
/// neutral values.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedRun {
    /// When the counted execution began.
    pub started: SimTime,
    /// CPU-seconds of the accepted result: useful, or waste if corrupt.
    pub cpu_seconds: f64,
    /// CPU-seconds of earlier attempts lost on the same LRM.
    pub wasted_cpu_seconds: f64,
    /// Execution attempts on the resource, the dispatch's own included.
    pub attempts: u32,
    /// Workunit reissues in the volunteer pool.
    pub reissues: u32,
    /// The accepted result was garbage (quorum 1, or a bad result that
    /// slipped past trust).
    pub corrupt: bool,
    /// The quorum engine's completion record, when validation is on.
    pub validation: Option<quorum::Completion>,
}

/// How a job leaves the grid. Executors report the first and last
/// variants; the grid's recovery policy decides the second.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminal {
    /// A result came back from an LRM or the volunteer pool.
    Completed(FinishedRun),
    /// The recovery policy's retry budget is exhausted.
    RetryBudgetSpent,
    /// The quorum engine gave up on the workunit.
    ValidationFailed,
}

/// Accounting for one job across its grid lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job.
    pub spec: JobSpec,
    /// Outcome at report time.
    pub outcome: JobOutcome,
    /// When the job entered the grid.
    pub submitted: SimTime,
    /// When the final, successful execution started (if completed).
    pub started: Option<SimTime>,
    /// When results were accepted (if completed).
    pub finished: Option<SimTime>,
    /// Name of the resource that completed it.
    pub completed_by: Option<String>,
    /// CPU-seconds burned by executions that were interrupted, abandoned,
    /// or arrived after the deadline (pure waste).
    pub wasted_cpu_seconds: f64,
    /// CPU-seconds of the successful execution.
    pub useful_cpu_seconds: f64,
    /// Number of separate execution attempts (dispatches).
    pub attempts: u32,
    /// Times the job was re-issued after a deadline miss (BOINC) or lost
    /// resource.
    pub reissues: u32,
    /// True iff the accepted result was corrupt (possible only when BOINC
    /// redundancy is disabled, quorum = 1): the job counts as completed but
    /// its CPU is accounted as wasted, not useful.
    #[serde(default)]
    pub corrupt_result: bool,
}

impl JobRecord {
    /// Fresh record at submission.
    pub fn new(spec: JobSpec, submitted: SimTime) -> JobRecord {
        JobRecord {
            spec,
            outcome: JobOutcome::Unfinished,
            submitted,
            started: None,
            finished: None,
            completed_by: None,
            wasted_cpu_seconds: 0.0,
            useful_cpu_seconds: 0.0,
            attempts: 0,
            reissues: 0,
            corrupt_result: false,
        }
    }

    /// Turnaround (submit → finish) if completed.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.submitted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_durations() {
        let j = JobSpec::simple(1, 3600.0).with_estimate(4000.0);
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.actual_duration_at(2.0), SimDuration::from_secs(1800));
        assert_eq!(j.assumed_seconds_at(2.0), Some(2000.0));
        let no_est = JobSpec::simple(2, 100.0);
        assert_eq!(no_est.assumed_seconds_at(1.0), None);
    }

    #[test]
    #[should_panic(expected = "invalid speed")]
    fn bad_speed_rejected() {
        let _ = JobSpec::simple(1, 10.0).actual_duration_at(-1.0);
    }

    #[test]
    fn record_turnaround() {
        let mut r = JobRecord::new(JobSpec::simple(1, 10.0), SimTime::from_secs(100));
        assert_eq!(r.turnaround(), None);
        r.finished = Some(SimTime::from_secs(250));
        assert_eq!(r.turnaround(), Some(SimDuration::from_secs(150)));
    }

    #[test]
    fn serde_roundtrip() {
        let j = JobSpec::simple(7, 123.0);
        let s = serde_json::to_string(&j).unwrap();
        let back: JobSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(j, back);
    }
}
