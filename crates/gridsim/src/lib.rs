//! `gridsim` — a discrete-event simulation of The Lattice Project's resource
//! layer: service-grid local resource managers (Condor pools, PBS and SGE
//! clusters) and a BOINC volunteer desktop grid, federated behind an
//! MDS-style monitoring service and a grid-level meta-scheduler.
//!
//! The paper's production system ran on >5000 real cores at four
//! institutions plus 23 192 volunteer PCs; this crate reproduces the
//! *scheduling-relevant behaviour* of that stack in simulation (the
//! substitution is documented in DESIGN.md):
//!
//! * [`job`] — generic grid-level job descriptions (the role RSL/JSDL play
//!   in Globus) with platform, memory, MPI and software requirements;
//! * [`adapter`] — scheduler adapters translating the generic description
//!   into resource-specific submissions (Condor submit file, PBS script,
//!   BOINC workunit), as §IV describes;
//! * [`lrm`] — slot-based local resource managers: stable batch queues
//!   (PBS/SGE) and preemptable cycle-scavenged pools (Condor);
//! * [`boinc`] — a volunteer pool with client churn, work requests,
//!   workunit deadlines, timeout-driven reissue, and redundant validation;
//! * [`mds`] — the Monitoring and Discovery Service: periodic provider
//!   reports with short-lived entries and offline detection (§V);
//! * [`speed`] — reference-computer speed calibration (§V.A);
//! * [`scheduler`] — the grid-level algorithm: matchmaking filters, then
//!   ranking by load, speed, and stability (§V.A);
//! * [`grid`] — the event-driven world tying everything together, with
//!   per-job accounting (wait, runtime, wasted CPU, reissues);
//! * [`fault`] — scripted fault scenarios (site outages, silent MDS
//!   partitions, stragglers, flapping, BOINC result corruption) for
//!   deterministic chaos experiments;
//! * [`recovery`] — grid-level recovery policy: exponential backoff with
//!   jitter, failure-rate blacklisting, bounded retries with a dead-letter
//!   outcome, and checkpoint-aware rescheduling;
//! * [`stability`] — online per-resource health tracking feeding the §V
//!   stability score from observed failures instead of static config;
//! * [`telemetry`] — deterministic grid-wide observability: structured
//!   lifecycle events, a metrics registry, per-job latency decomposition,
//!   utilisation timelines, and an MDS-backed monitoring snapshot;
//! * [`slo`] — a declarative, deterministic alert-rule engine evaluated at
//!   time-series window boundaries in sim time, with hysteresis (fire
//!   once, resolve on recovery) over the standard observability pack;
//! * [`data`] — the optional data plane: a content-addressed object store,
//!   bandwidth-modeled links, per-site and per-volunteer LRU caches, and
//!   the stage-in estimates that make scheduling data-aware;
//! * result validation (the `quorum` crate, wired through
//!   [`grid::GridConfig::validation`]): a workunit replication state
//!   machine with tolerance-based fuzzy comparison of likelihood scores,
//!   per-host reputation, and adaptive replication with spot checks;
//! * the multi-tenant submission layer (the `tenancy` crate, wired
//!   through [`grid::GridConfig::tenancy`]): per-tenant quotas with typed
//!   admission control, deterministic fair-share arbitration ahead of the
//!   feeder, and BOINC-style credit granted at result validation;
//! * [`churn`] — realistic volunteer availability (host-lifetime decay,
//!   diurnal/weekly rhythms, correlated site-wide outages, deterministic
//!   trace replay), replacing the flat exponential flips when
//!   [`grid::GridConfig::churn`] is set;
//! * DAG-structured campaigns (the `flow` crate, wired through
//!   [`grid::GridConfig::flow`]): typed pipeline stages with dependency
//!   barriers whose critical-path slack feeds the dispatch priority path.

#![warn(missing_docs)]

pub mod adapter;
pub mod boinc;
pub mod churn;
pub mod data;
pub mod fault;
pub mod grid;
pub mod job;
pub mod lrm;
pub mod mds;
pub mod platform;
pub mod recovery;
pub mod resource;
pub mod scheduler;
pub mod slo;
pub mod speed;
pub mod stability;
pub mod telemetry;

pub use churn::{ChurnConfig, ChurnConfigError, ChurnModel, ChurnTrace, SiteOutageConfig};
pub use data::{DataConfig, DataGridState, DataPolicy, DataReport, DataSnapshot, StageIn};
pub use fault::FaultAction;
pub use grid::{Grid, GridConfig, GridReport};
pub use job::{JobId, JobOutcome, JobSpec};
pub use mds::MdsSnapshot;
pub use platform::{Arch, Os, Platform};
pub use recovery::RecoveryPolicy;
pub use resource::{ResourceId, ResourceKind, ResourceSpec};
pub use scheduler::SchedulerPolicy;
pub use slo::{Alert, AlertTransition, SloConfig, SloEngine, SloRule, SloSnapshot};
pub use stability::{ResourceHealth, StabilityTracker};
pub use telemetry::{GridTelemetry, TelemetryConfig, TelemetrySnapshot};

pub use quorum::{ReplicationPolicy, TrustPolicy, ValidationConfig, ValidationSnapshot};

pub use tenancy::{
    AdmissionOutcome, Quota, TenancyConfig, TenancySnapshot, TenantBook, TenantClass, TenantId,
    TenantSpec,
};

pub use flow::{
    CampaignRow, DagSpec, FlowBook, FlowConfig, FlowError, FlowSnapshot, StageKind, StageSpec,
};
