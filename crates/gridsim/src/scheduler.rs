//! The grid-level scheduling algorithm (paper §V.A).
//!
//! Two stages, exactly as described:
//!
//! 1. **Matchmaking filters** — drop resources that are offline, lack a
//!    compatible platform, memory, MPI capability, or a software
//!    dependency; and (when runtime estimates are available) drop *unstable*
//!    resources for jobs whose speed-scaled estimate exceeds the n-hour
//!    cutoff (n = 10 in production).
//! 2. **Ranking** — among the survivors, balance load corrected for
//!    measured resource speed: pick the resource with the least expected
//!    contention per unit of effective throughput.

use crate::job::JobSpec;
use crate::mds::ResourceState;
use crate::platform::{compatible, Platform};
use crate::resource::{ResourceId, ResourceSpec};
use serde::{Deserialize, Serialize};
use simkit::SimDuration;

/// Tunable scheduler behaviour (the paper's production values are the
/// defaults; the ablation experiments flip the booleans).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerPolicy {
    /// Whether a-priori runtime estimates are used for stability routing
    /// (the paper's headline contribution; `false` reproduces the pre-ML
    /// system).
    pub use_runtime_estimates: bool,
    /// Jobs estimated longer than this (after speed scaling) do not go to
    /// unstable resources. Paper: n = 10 hours.
    pub unstable_cutoff: SimDuration,
    /// Whether ranking and the cutoff use measured resource speeds
    /// (`false` reproduces the paper's naive algorithm, which "does not take
    /// into account resource speed").
    pub use_speed_scaling: bool,
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy {
            use_runtime_estimates: true,
            unstable_cutoff: SimDuration::from_hours(10),
            use_speed_scaling: true,
        }
    }
}

/// Everything the scheduler knows about one online resource at decision
/// time: static spec + latest MDS state + calibrated speed.
#[derive(Debug, Clone)]
pub struct ResourceView {
    /// Resource id.
    pub id: ResourceId,
    /// Human-readable name.
    pub name: String,
    /// Platforms advertised.
    pub platforms: Vec<Platform>,
    /// Memory per slot.
    pub memory_per_slot: u64,
    /// MPI capability.
    pub mpi_capable: bool,
    /// Advertised software.
    pub software: Vec<String>,
    /// Stability classification.
    pub stable: bool,
    /// Calibrated speed factor (1.0 = reference computer).
    pub measured_speed: f64,
    /// Latest dynamic state from MDS.
    pub state: ResourceState,
    /// Estimated seconds to stage the job's inputs here, filled by the grid
    /// when data-aware scheduling ([`crate::DataPolicy::Aware`]) is enabled;
    /// `None` keeps the original data-blind behaviour.
    pub stage_in_seconds: Option<f64>,
}

impl ResourceView {
    /// Assemble a view from a spec, its latest MDS state, and the
    /// calibrated speed.
    pub fn new(
        id: ResourceId,
        spec: &ResourceSpec,
        state: ResourceState,
        measured_speed: f64,
    ) -> ResourceView {
        ResourceView {
            id,
            name: spec.name.clone(),
            platforms: spec.platforms.clone(),
            memory_per_slot: spec.memory_per_slot,
            mpi_capable: spec.mpi_capable,
            software: spec.software.clone(),
            stable: spec.stable,
            measured_speed,
            state,
            stage_in_seconds: None,
        }
    }
}

/// Why the matchmaker rejected a resource (for tracing and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No common platform.
    Platform,
    /// Not enough memory per slot.
    Memory,
    /// Job needs MPI, resource lacks it.
    Mpi,
    /// Missing software dependency.
    Software,
    /// Estimated runtime exceeds the unstable-resource cutoff.
    Stability,
}

impl RejectReason {
    /// Every reason, in the order [`matches()`] applies the filters.
    pub const ALL: [RejectReason; 5] = [
        RejectReason::Platform,
        RejectReason::Memory,
        RejectReason::Mpi,
        RejectReason::Software,
        RejectReason::Stability,
    ];

    /// Stable lowercase label, used as a metrics-key suffix
    /// (`scheduler.reject.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Platform => "platform",
            RejectReason::Memory => "memory",
            RejectReason::Mpi => "mpi",
            RejectReason::Software => "software",
            RejectReason::Stability => "stability",
        }
    }
}

/// Check all matchmaking filters for one resource. `Ok(())` = eligible.
pub fn matches(
    job: &JobSpec,
    view: &ResourceView,
    policy: &SchedulerPolicy,
) -> Result<(), RejectReason> {
    if !compatible(&job.platforms, &view.platforms) {
        return Err(RejectReason::Platform);
    }
    if job.min_memory_bytes > view.memory_per_slot {
        return Err(RejectReason::Memory);
    }
    if job.needs_mpi && !view.mpi_capable {
        return Err(RejectReason::Mpi);
    }
    if job.slots_required > 1 && (!view.mpi_capable || view.state.total_slots < job.slots_required)
    {
        return Err(RejectReason::Mpi);
    }
    if !job.software_deps.iter().all(|d| view.software.contains(d)) {
        return Err(RejectReason::Software);
    }
    if !view.stable && policy.use_runtime_estimates {
        let speed = if policy.use_speed_scaling {
            view.measured_speed
        } else {
            1.0
        };
        if let Some(secs) = job.assumed_seconds_at(speed) {
            // Data-aware scheduling: the slot is held from dispatch, so the
            // stage-in delay counts against the same stability budget.
            let total = secs + view.stage_in_seconds.unwrap_or(0.0);
            if total > policy.unstable_cutoff.as_secs_f64() {
                return Err(RejectReason::Stability);
            }
        }
        // No estimate available: the pre-ML system had no basis to refuse,
        // so the job is (optimistically) allowed through.
    }
    Ok(())
}

/// One hour of stage-in delay costs as much as one full unit of contention
/// in [`score`]; the divisor converts the estimate into score units.
const STAGE_IN_RANK_SECONDS: f64 = 3600.0;

/// Ranking score: expected contention per unit effective throughput; lower
/// is better. "The scheduler attempts to keep jobs from backing up on any
/// single resource", corrected for resource speed (§V.A). When the grid
/// runs data-aware ([`ResourceView::stage_in_seconds`] is filled), the
/// estimated stage-in delay is added so warm caches and fast links win ties
/// and slow cold paths lose them.
pub fn score(view: &ResourceView, policy: &SchedulerPolicy) -> f64 {
    let speed = if policy.use_speed_scaling {
        view.measured_speed
    } else {
        1.0
    };
    let busy = (view.state.total_slots - view.state.free_slots) as f64;
    let pending = busy + view.state.queued_jobs as f64;
    let contention = (pending + 1.0) / (view.state.total_slots.max(1) as f64 * speed);
    contention + view.stage_in_seconds.unwrap_or(0.0) / STAGE_IN_RANK_SECONDS
}

/// One scheduling decision: the winner plus a tally of what the
/// matchmaking filters did to the candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The winning resource, if any candidate was eligible.
    pub chosen: Option<ResourceId>,
    /// The winner's estimated stage-in seconds (`None` when the grid is
    /// data-blind or nothing was eligible).
    pub stage_in_seconds: Option<f64>,
    /// Candidates considered.
    pub candidates: usize,
    /// Candidates that passed every matchmaking filter.
    pub eligible: usize,
    /// Rejected candidates per filter, indexed by `RejectReason as usize`.
    pub rejects: [usize; RejectReason::ALL.len()],
}

impl Decision {
    /// Candidates the given filter rejected.
    pub fn rejected(&self, reason: RejectReason) -> usize {
        self.rejects[reason as usize]
    }
}

/// The scheduling decision (§V.A): run [`matches()`] on every candidate,
/// rank the survivors by [`score`], and break ties by higher speed, then
/// lower id. Ids are unique, so the order is total and the winner does not
/// depend on candidate order.
pub fn decide<'a>(
    job: &JobSpec,
    candidates: impl IntoIterator<Item = &'a ResourceView>,
    policy: &SchedulerPolicy,
) -> Decision {
    let mut decision = Decision {
        chosen: None,
        stage_in_seconds: None,
        candidates: 0,
        eligible: 0,
        rejects: [0; RejectReason::ALL.len()],
    };
    let mut best: Option<(f64, &ResourceView)> = None;
    for view in candidates {
        decision.candidates += 1;
        if let Err(reason) = matches(job, view, policy) {
            decision.rejects[reason as usize] += 1;
            continue;
        }
        decision.eligible += 1;
        let s = score(view, policy);
        let better = best.is_none_or(|(best_score, b)| {
            s.total_cmp(&best_score)
                .then(b.measured_speed.total_cmp(&view.measured_speed))
                .then(view.id.cmp(&b.id))
                .is_lt()
        });
        if better {
            best = Some((s, view));
        }
    }
    if let Some((_, winner)) = best {
        decision.chosen = Some(winner.id);
        decision.stage_in_seconds = winner.stage_in_seconds;
    }
    decision
}

/// The winner of [`decide`] over `views`.
pub fn choose_resource(
    job: &JobSpec,
    views: &[ResourceView],
    policy: &SchedulerPolicy,
) -> Option<ResourceId> {
    decide(job, views, policy).chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn idle_state(slots: usize) -> ResourceState {
        ResourceState {
            free_slots: slots,
            total_slots: slots,
            queued_jobs: 0,
        }
    }

    fn cluster_view(id: usize, slots: usize, speed: f64) -> ResourceView {
        let spec = ResourceSpec::cluster(&format!("c{id}"), ResourceKind::PbsCluster, slots, speed);
        ResourceView::new(ResourceId(id), &spec, idle_state(slots), speed)
    }

    fn condor_view(id: usize, slots: usize, speed: f64) -> ResourceView {
        let spec = ResourceSpec::condor_pool(&format!("p{id}"), slots, speed, 8.0);
        ResourceView::new(ResourceId(id), &spec, idle_state(slots), speed)
    }

    #[test]
    fn platform_filter() {
        let mut job = JobSpec::simple(1, 100.0);
        job.platforms = vec![Platform::MAC_PPC];
        let v = cluster_view(0, 8, 1.0); // Linux x64 only
        assert_eq!(
            matches(&job, &v, &SchedulerPolicy::default()),
            Err(RejectReason::Platform)
        );
    }

    #[test]
    fn memory_filter() {
        let mut job = JobSpec::simple(1, 100.0);
        job.min_memory_bytes = 64 << 30;
        let v = cluster_view(0, 8, 1.0);
        assert_eq!(
            matches(&job, &v, &SchedulerPolicy::default()),
            Err(RejectReason::Memory)
        );
    }

    #[test]
    fn mpi_and_software_filters() {
        let mut job = JobSpec::simple(1, 100.0);
        job.needs_mpi = true;
        let condor = condor_view(0, 8, 1.0);
        assert_eq!(
            matches(&job, &condor, &SchedulerPolicy::default()),
            Err(RejectReason::Mpi)
        );
        let mut job2 = JobSpec::simple(2, 100.0);
        job2.software_deps = vec!["java".into()];
        assert_eq!(
            matches(&job2, &condor, &SchedulerPolicy::default()),
            Err(RejectReason::Software)
        );
        let cluster = cluster_view(1, 8, 1.0);
        assert!(matches(&job2, &cluster, &SchedulerPolicy::default()).is_ok());
    }

    #[test]
    fn stability_cutoff_blocks_long_jobs_on_unstable_resources() {
        let policy = SchedulerPolicy::default(); // 10h cutoff
        let condor = condor_view(0, 8, 1.0);
        let long = JobSpec::simple(1, 100.0).with_estimate(11.0 * 3600.0);
        assert_eq!(
            matches(&long, &condor, &policy),
            Err(RejectReason::Stability)
        );
        let short = JobSpec::simple(2, 100.0).with_estimate(9.0 * 3600.0);
        assert!(matches(&short, &condor, &policy).is_ok());
        // Stable resources take anything.
        let cluster = cluster_view(1, 8, 1.0);
        assert!(matches(&long, &cluster, &policy).is_ok());
    }

    #[test]
    fn speed_scaling_affects_cutoff() {
        let policy = SchedulerPolicy::default();
        // 15 reference-hours on a speed-2.0 pool = 7.5h < 10h cutoff.
        let fast_condor = condor_view(0, 8, 2.0);
        let job = JobSpec::simple(1, 100.0).with_estimate(15.0 * 3600.0);
        assert!(matches(&job, &fast_condor, &policy).is_ok());
        // Without speed scaling the same job is rejected.
        let unscaled = SchedulerPolicy {
            use_speed_scaling: false,
            ..policy
        };
        assert_eq!(
            matches(&job, &fast_condor, &unscaled),
            Err(RejectReason::Stability)
        );
    }

    #[test]
    fn without_estimates_long_jobs_pass_the_stability_filter() {
        // The pre-ML ablation: no estimate, so nothing blocks a 100-hour job
        // from landing on a Condor pool.
        let policy = SchedulerPolicy {
            use_runtime_estimates: false,
            ..Default::default()
        };
        let condor = condor_view(0, 8, 1.0);
        let long = JobSpec::simple(1, 100.0 * 3600.0);
        assert!(matches(&long, &condor, &policy).is_ok());
    }

    #[test]
    fn ranking_prefers_idle_fast_resources() {
        let policy = SchedulerPolicy::default();
        let slow = cluster_view(0, 8, 0.5);
        let fast = cluster_view(1, 8, 2.0);
        let job = JobSpec::simple(1, 100.0).with_estimate(100.0);
        assert_eq!(
            choose_resource(&job, &[slow, fast], &policy),
            Some(ResourceId(1))
        );
    }

    #[test]
    fn ranking_spreads_away_from_loaded_resources() {
        let policy = SchedulerPolicy::default();
        let mut busy = cluster_view(0, 8, 1.0);
        busy.state = ResourceState {
            free_slots: 0,
            total_slots: 8,
            queued_jobs: 20,
        };
        let idle = cluster_view(1, 8, 1.0);
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(
            choose_resource(&job, &[busy, idle], &policy),
            Some(ResourceId(1))
        );
    }

    #[test]
    fn naive_ranking_ignores_speed() {
        let policy = SchedulerPolicy {
            use_speed_scaling: false,
            ..Default::default()
        };
        let slow = cluster_view(0, 8, 0.25);
        let fast = cluster_view(1, 8, 4.0);
        // Equal load and slots: naive scoring ties; tie-break still prefers
        // the faster one (id-stable), but give slow a tiny load edge and the
        // naive scheduler now picks the *slow* resource.
        let mut fast2 = fast.clone();
        fast2.state.queued_jobs = 1;
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(
            choose_resource(&job, &[slow.clone(), fast2.clone()], &policy),
            Some(ResourceId(0))
        );
        // With speed scaling on, the fast resource wins despite the queue.
        let smart = SchedulerPolicy::default();
        assert_eq!(
            choose_resource(&job, &[slow, fast2], &smart),
            Some(ResourceId(1))
        );
    }

    #[test]
    fn no_eligible_resource_returns_none() {
        let policy = SchedulerPolicy::default();
        let mut job = JobSpec::simple(1, 100.0);
        job.needs_mpi = true;
        let condor = condor_view(0, 8, 1.0);
        assert_eq!(choose_resource(&job, &[condor], &policy), None);
    }

    /// The decision's tally, recomputed view by view from [`matches`].
    fn assert_tally_matches_filters(decision: &Decision, job: &JobSpec, views: &[ResourceView]) {
        let policy = SchedulerPolicy::default();
        assert_eq!(decision.candidates, views.len());
        let verdicts: Vec<_> = views.iter().map(|v| matches(job, v, &policy)).collect();
        assert_eq!(
            decision.eligible,
            verdicts.iter().filter(|r| r.is_ok()).count()
        );
        for reason in RejectReason::ALL {
            assert_eq!(
                decision.rejected(reason),
                verdicts.iter().filter(|r| **r == Err(reason)).count(),
                "{} rejects",
                reason.label()
            );
        }
        assert_eq!(
            decision.eligible + decision.rejects.iter().sum::<usize>(),
            decision.candidates,
            "every candidate is eligible or rejected for one reason"
        );
        assert_eq!(decision.chosen.is_some(), decision.eligible > 0);
    }

    #[test]
    fn explained_decision_agrees_with_choose_resource() {
        // Exercise mixed eligibility: a loaded cluster, a fast cluster, an
        // unstable condor pool with a long job, and an MPI-incapable pool.
        let policy = SchedulerPolicy::default();
        let mut busy = cluster_view(0, 8, 1.0);
        busy.state = ResourceState {
            free_slots: 2,
            total_slots: 8,
            queued_jobs: 5,
        };
        let views = vec![
            busy,
            cluster_view(1, 8, 2.0),
            condor_view(2, 16, 1.0),
            condor_view(3, 4, 0.5),
        ];
        let jobs = vec![
            JobSpec::simple(1, 100.0).with_estimate(100.0),
            JobSpec::simple(2, 100.0).with_estimate(20.0 * 3600.0),
            JobSpec::simple(3, 100.0),
        ];
        for job in &jobs {
            let explained = decide(job, &views, &policy);
            assert_eq!(explained.chosen, choose_resource(job, &views, &policy));
            assert_tally_matches_filters(&explained, job, &views);
        }
        // The long-estimate job must show a Stability reject on the pools.
        let long = decide(&jobs[1], &views, &policy);
        assert_eq!(
            matches(&jobs[1], &views[2], &policy),
            Err(RejectReason::Stability)
        );
        assert_eq!(long.rejected(RejectReason::Stability), 2);
        assert_eq!(long.eligible, 2);
    }

    #[test]
    fn explained_decision_agrees_when_every_candidate_is_rejected() {
        // Regression: with zero survivors the decision must still agree
        // with the plain path (both None) and tally a concrete reject
        // reason for every candidate.
        let policy = SchedulerPolicy::default();
        let mut job = JobSpec::simple(1, 100.0);
        job.needs_mpi = true;
        job.software_deps = vec!["fortran-2003".into()];
        job.min_memory_bytes = 1 << 40;
        let views = vec![
            cluster_view(0, 8, 1.0),
            condor_view(1, 16, 1.0),
            condor_view(2, 4, 0.5),
        ];
        let explained = decide(&job, &views, &policy);
        assert_eq!(explained.chosen, None);
        assert_eq!(explained.chosen, choose_resource(&job, &views, &policy));
        assert_eq!(explained.eligible, 0);
        assert_eq!(explained.stage_in_seconds, None);
        assert_eq!(
            explained.rejects.iter().sum::<usize>(),
            views.len(),
            "rejected candidates carry a reason"
        );
        assert_tally_matches_filters(&explained, &job, &views);
    }

    #[test]
    fn software_and_mpi_rejections_are_reported_distinctly() {
        // A Condor pool fails an MPI job on Mpi and a java job on Software:
        // the two filters must not collapse into one reason.
        let policy = SchedulerPolicy::default();
        let condor = condor_view(0, 8, 1.0);
        let mut mpi_job = JobSpec::simple(1, 100.0);
        mpi_job.needs_mpi = true;
        let mut sw_job = JobSpec::simple(2, 100.0);
        sw_job.software_deps = vec!["java".into()];
        let views = vec![condor];
        let mpi_decision = decide(&mpi_job, &views, &policy);
        let sw_decision = decide(&sw_job, &views, &policy);
        assert_eq!(mpi_decision.rejected(RejectReason::Mpi), 1);
        assert_eq!(sw_decision.rejected(RejectReason::Software), 1);
        assert_ne!(mpi_decision.rejects, sw_decision.rejects);
        assert_ne!(RejectReason::Mpi.label(), RejectReason::Software.label());
    }

    #[test]
    fn stage_in_estimates_steer_ranking_when_present() {
        let policy = SchedulerPolicy::default();
        // Two identical idle clusters: ties break by id without data, but a
        // warm cache (zero stage-in) beats a cold one.
        let mut cold = cluster_view(0, 8, 1.0);
        let mut warm = cluster_view(1, 8, 1.0);
        let job = JobSpec::simple(1, 100.0);
        assert_eq!(
            choose_resource(&job, &[cold.clone(), warm.clone()], &policy),
            Some(ResourceId(0)),
            "data-blind: tie-break by lower id"
        );
        cold.stage_in_seconds = Some(600.0);
        warm.stage_in_seconds = Some(0.0);
        assert_eq!(
            choose_resource(&job, &[cold.clone(), warm.clone()], &policy),
            Some(ResourceId(1)),
            "data-aware: the warm cache wins"
        );
        let explained = decide(&job, &[cold.clone(), warm], &policy);
        assert_eq!(explained.chosen, Some(ResourceId(1)));
        assert_eq!(explained.stage_in_seconds, Some(0.0));
        let alone = decide(&job, &[cold], &policy);
        assert_eq!(alone.stage_in_seconds, Some(600.0));
    }

    #[test]
    fn tie_break_is_independent_of_candidate_order() {
        // Equal scores: the faster resource wins, then the lower id,
        // whichever order the candidates arrive in.
        let policy = SchedulerPolicy {
            use_speed_scaling: false,
            ..Default::default()
        };
        let views = vec![
            cluster_view(2, 8, 1.0),
            cluster_view(0, 8, 1.0),
            cluster_view(1, 8, 3.0),
        ];
        let mut reversed = views.clone();
        reversed.reverse();
        assert_eq!(
            decide(&JobSpec::simple(1, 100.0), &views, &policy).chosen,
            Some(ResourceId(1))
        );
        assert_eq!(
            decide(&JobSpec::simple(1, 100.0), &reversed, &policy).chosen,
            Some(ResourceId(1))
        );
        let slow_pair = &views[..2];
        assert_eq!(
            decide(&JobSpec::simple(1, 100.0), slow_pair, &policy).chosen,
            Some(ResourceId(0))
        );
    }

    #[test]
    fn stage_in_counts_against_the_stability_cutoff() {
        let policy = SchedulerPolicy::default(); // 10h cutoff
        let mut condor = condor_view(0, 8, 1.0);
        let job = JobSpec::simple(1, 100.0).with_estimate(9.5 * 3600.0);
        assert!(matches(&job, &condor, &policy).is_ok());
        // A one-hour stage-in pushes the 9.5h job past the 10h budget.
        condor.stage_in_seconds = Some(3600.0);
        assert_eq!(
            matches(&job, &condor, &policy),
            Err(RejectReason::Stability)
        );
        // Stable resources have no cutoff to exceed.
        let mut cluster = cluster_view(1, 8, 1.0);
        cluster.stage_in_seconds = Some(3600.0);
        assert!(matches(&job, &cluster, &policy).is_ok());
    }
}
