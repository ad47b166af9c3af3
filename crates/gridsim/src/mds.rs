//! The Monitoring and Discovery Service.
//!
//! Scheduler providers "collect information about the current state of a
//! resource — e.g., number of free CPU cores, total RAM, total disk space"
//! and publish it into an MDS database where entries are "valid for a short
//! lifetime, typically on the order of minutes" (paper §V). The scheduler
//! treats resources whose entries have expired as offline: "if we cease to
//! receive MDS information from a certain resource, we mark the resource as
//! offline and make sure no new jobs are scheduled there" (§V.A).

use crate::resource::ResourceId;
use serde::{Deserialize, Serialize};
use simkit::stats::Tally;
use simkit::telemetry::{staleness_buckets_seconds, Histogram};
use simkit::{SimDuration, SimTime};
use std::collections::HashMap;

/// One provider report: the dynamic slice of resource state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceState {
    /// Slots not currently bound to a job or owner.
    pub free_slots: usize,
    /// Total slots.
    pub total_slots: usize,
    /// Jobs waiting in the local queue.
    pub queued_jobs: usize,
}

impl ResourceState {
    /// Load proxy: queued plus busy work per slot.
    pub fn load(&self) -> f64 {
        let busy = self.total_slots - self.free_slots;
        (busy + self.queued_jobs) as f64 / self.total_slots.max(1) as f64
    }
}

/// Per-provider reporting history: how regularly a resource's information
/// provider has published, and how often its entry lapsed into "offline".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ProviderStats {
    reports: u64,
    last_report: Option<SimTime>,
    gap: Tally,
    offline_episodes: u64,
    offline_seconds: f64,
}

/// How long an entry stays valid after its report: the paper's "order of
/// minutes" (§V), 5 minutes.
pub const LIFETIME: SimDuration = SimDuration::from_mins(5);

/// The central aggregated MDS database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mds {
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    entries: HashMap<ResourceId, (ResourceState, SimTime)>,
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    stats: HashMap<ResourceId, ProviderStats>,
    staleness: Histogram,
}

/// An empty database whose entries expire after [`LIFETIME`].
impl Default for Mds {
    fn default() -> Mds {
        Mds {
            entries: HashMap::new(),
            stats: HashMap::new(),
            staleness: Histogram::new(&staleness_buckets_seconds()),
        }
    }
}

impl Mds {
    /// Ingest a provider report.
    pub fn report(&mut self, resource: ResourceId, state: ResourceState, now: SimTime) {
        let stats = self.stats.entry(resource).or_default();
        if let Some(last) = stats.last_report {
            let gap = now.saturating_since(last).as_secs_f64();
            stats.gap.record(gap);
            self.staleness.observe(gap);
            // A gap longer than the lifetime means the entry expired and the
            // scheduler saw the resource offline until this report arrived.
            let lifetime = LIFETIME.as_secs_f64();
            if gap > lifetime {
                stats.offline_episodes += 1;
                stats.offline_seconds += gap - lifetime;
            }
        }
        stats.reports += 1;
        stats.last_report = Some(now);
        self.entries.insert(resource, (state, now));
    }

    /// The state of `resource` if its entry is still live at `now`.
    pub fn get(&self, resource: ResourceId, now: SimTime) -> Option<ResourceState> {
        self.entries
            .get(&resource)
            .and_then(|&(state, at)| (now.saturating_since(at) <= LIFETIME).then_some(state))
    }

    /// True iff the resource's entry is missing or expired (the scheduler's
    /// offline test).
    pub fn is_offline(&self, resource: ResourceId, now: SimTime) -> bool {
        self.get(resource, now).is_none()
    }

    /// All resources with live entries at `now`.
    pub fn online(&self, now: SimTime) -> Vec<ResourceId> {
        let mut ids: Vec<ResourceId> = self
            .entries
            .iter()
            .filter(|(_, &(_, at))| now.saturating_since(at) <= LIFETIME)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Queryable monitoring snapshot: per-resource freshness, offline-episode
    /// accounting, and the grid-wide report-gap (staleness) histogram.
    pub fn snapshot(&self, now: SimTime) -> MdsSnapshot {
        let mut resources: Vec<MdsResourceStatus> = self
            .stats
            .iter()
            .map(|(&id, s)| {
                let age = s
                    .last_report
                    .map(|at| now.saturating_since(at).as_secs_f64());
                MdsResourceStatus {
                    id,
                    reports: s.reports,
                    age_seconds: age,
                    online: age.is_some_and(|a| a <= LIFETIME.as_secs_f64()),
                    mean_gap_seconds: (s.gap.count() > 0).then(|| s.gap.mean()),
                    max_gap_seconds: s.gap.max(),
                    offline_episodes: s.offline_episodes,
                    offline_seconds: s.offline_seconds,
                }
            })
            .collect();
        resources.sort_by_key(|r| r.id);
        MdsSnapshot {
            lifetime_seconds: LIFETIME.as_secs_f64(),
            detection_latency_seconds: LIFETIME.as_secs_f64(),
            resources,
            staleness: self.staleness.clone(),
        }
    }
}

/// One resource's monitoring status inside an [`MdsSnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct MdsResourceStatus {
    /// Resource id.
    pub id: ResourceId,
    /// Provider reports received over the run.
    pub reports: u64,
    /// Seconds since the last report (`None` if never reported).
    pub age_seconds: Option<f64>,
    /// True iff the entry is still within its lifetime.
    pub online: bool,
    /// Mean gap between consecutive reports, if at least two arrived.
    pub mean_gap_seconds: Option<f64>,
    /// Largest observed gap between consecutive reports.
    pub max_gap_seconds: Option<f64>,
    /// Number of times the entry expired before the next report arrived.
    pub offline_episodes: u64,
    /// Total seconds the entry spent expired across those episodes.
    pub offline_seconds: f64,
}

/// Queryable snapshot of the MDS database (telemetry export).
///
/// Offline detection is expiry-based, so the worst-case latency between a
/// resource dying and the scheduler noticing equals the entry lifetime;
/// `detection_latency_seconds` records that bound.
#[derive(Debug, Clone, Serialize)]
pub struct MdsSnapshot {
    /// Entry lifetime in seconds ([`LIFETIME`]).
    pub lifetime_seconds: f64,
    /// Worst-case offline-detection latency (== the entry lifetime).
    pub detection_latency_seconds: f64,
    /// Per-resource status, sorted by id.
    pub resources: Vec<MdsResourceStatus>,
    /// Histogram of gaps between consecutive provider reports, all resources.
    pub staleness: Histogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entries_visible() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 3,
            total_slots: 8,
            queued_jobs: 2,
        };
        mds.report(ResourceId(0), s, SimTime::from_secs(100));
        assert_eq!(mds.get(ResourceId(0), SimTime::from_secs(200)), Some(s));
        assert!(!mds.is_offline(ResourceId(0), SimTime::from_secs(200)));
    }

    #[test]
    fn stale_entries_mark_resource_offline() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 3,
            total_slots: 8,
            queued_jobs: 0,
        };
        mds.report(ResourceId(0), s, SimTime::ZERO);
        let later = SimTime::ZERO + SimDuration::from_mins(6);
        assert!(mds.is_offline(ResourceId(0), later));
        assert_eq!(mds.get(ResourceId(0), later), None);
        assert!(mds.online(later).is_empty());
    }

    #[test]
    fn reports_refresh_lifetime() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 1,
            total_slots: 2,
            queued_jobs: 0,
        };
        mds.report(ResourceId(1), s, SimTime::ZERO);
        mds.report(ResourceId(1), s, SimTime::from_secs(280));
        assert!(!mds.is_offline(ResourceId(1), SimTime::from_secs(500)));
    }

    #[test]
    fn unknown_resource_is_offline() {
        let mds = Mds::default();
        assert!(mds.is_offline(ResourceId(9), SimTime::ZERO));
    }

    #[test]
    fn load_metric() {
        let s = ResourceState {
            free_slots: 2,
            total_slots: 10,
            queued_jobs: 4,
        };
        // busy 8 + queued 4 over 10 slots
        assert!((s.load() - 1.2).abs() < 1e-12);
        let idle = ResourceState {
            free_slots: 10,
            total_slots: 10,
            queued_jobs: 0,
        };
        assert_eq!(idle.load(), 0.0);
    }

    #[test]
    fn snapshot_tracks_freshness_and_offline_episodes() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 1,
            total_slots: 4,
            queued_jobs: 0,
        };
        // Regular 120s cadence, then a 10-minute silence (one offline
        // episode of 10min - 5min = 300s), then recovery.
        mds.report(ResourceId(0), s, SimTime::ZERO);
        mds.report(ResourceId(0), s, SimTime::from_secs(120));
        mds.report(ResourceId(0), s, SimTime::from_secs(240));
        mds.report(ResourceId(0), s, SimTime::from_secs(240 + 600));
        let snap = mds.snapshot(SimTime::from_secs(900));
        assert_eq!(snap.lifetime_seconds, 300.0);
        assert_eq!(snap.detection_latency_seconds, 300.0);
        assert_eq!(snap.resources.len(), 1);
        let r = &snap.resources[0];
        assert_eq!(r.reports, 4);
        assert_eq!(r.offline_episodes, 1);
        assert!((r.offline_seconds - 300.0).abs() < 1e-9);
        assert_eq!(r.max_gap_seconds, Some(600.0));
        assert_eq!(r.age_seconds, Some(60.0));
        assert!(r.online);
        // Three gaps recorded: 120, 120, 600.
        assert_eq!(snap.staleness.count(), 3);
        assert!((snap.staleness.sum() - 840.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_marks_stale_resources_offline() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 0,
            total_slots: 2,
            queued_jobs: 0,
        };
        mds.report(ResourceId(3), s, SimTime::ZERO);
        let snap = mds.snapshot(SimTime::from_secs(3600));
        assert!(!snap.resources[0].online);
        assert_eq!(snap.resources[0].age_seconds, Some(3600.0));
        assert_eq!(snap.resources[0].mean_gap_seconds, None);
    }

    #[test]
    fn snapshot_resources_sorted_by_id() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 1,
            total_slots: 1,
            queued_jobs: 0,
        };
        mds.report(ResourceId(2), s, SimTime::ZERO);
        mds.report(ResourceId(0), s, SimTime::ZERO);
        mds.report(ResourceId(1), s, SimTime::ZERO);
        let ids: Vec<ResourceId> = mds
            .snapshot(SimTime::ZERO)
            .resources
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![ResourceId(0), ResourceId(1), ResourceId(2)]);
    }

    #[test]
    fn online_sorted() {
        let mut mds = Mds::default();
        let s = ResourceState {
            free_slots: 1,
            total_slots: 1,
            queued_jobs: 0,
        };
        mds.report(ResourceId(2), s, SimTime::ZERO);
        mds.report(ResourceId(0), s, SimTime::ZERO);
        assert_eq!(
            mds.online(SimTime::ZERO),
            vec![ResourceId(0), ResourceId(2)]
        );
    }
}
