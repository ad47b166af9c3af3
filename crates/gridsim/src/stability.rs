//! Online resource-health tracking (failure-rate blacklist).
//!
//! The paper's §V scheduler ranks resources partly by a *stability* flag that
//! the seed code took from static configuration. This module computes it
//! online instead: every grid-level dispatch outcome (completion vs. bounce)
//! feeds a per-resource success/failure tally, and the observed failure rate
//! drives a three-state health classification:
//!
//! * **Healthy** — matched and ranked normally;
//! * **Suspect** — failure rate past the suspicion threshold: the resource
//!   stays in matchmaking but is advertised as unstable, so the §V.A
//!   stability filter keeps long jobs away from it;
//! * **Blacklisted** — failure rate past the hard threshold: removed from
//!   matchmaking for a cooldown period, after which its history is forgiven
//!   and it re-enters with a clean slate.
//!
//! Thresholds and cooldown come from [`RecoveryPolicy`].

use crate::recovery::RecoveryPolicy;
use serde::{Deserialize, Serialize};
use simkit::SimTime;

/// The scheduler-facing health classification of one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceHealth {
    /// Normal matchmaking.
    Healthy,
    /// Kept in matchmaking but advertised as unstable.
    Suspect,
    /// Removed from matchmaking until the cooldown expires.
    Blacklisted,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct HealthRecord {
    successes: u32,
    failures: u32,
    blacklisted_until: Option<SimTime>,
}

/// Per-resource success/failure tallies with blacklist state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityTracker {
    pub(crate) policy: RecoveryPolicy,
    records: Vec<HealthRecord>,
    blacklist_events: u32,
}

impl StabilityTracker {
    /// Tracker for `num_resources` resources under `policy`.
    pub fn new(num_resources: usize, policy: RecoveryPolicy) -> StabilityTracker {
        StabilityTracker {
            policy,
            records: vec![HealthRecord::default(); num_resources],
            blacklist_events: 0,
        }
    }

    /// Record a job completed by `resource`.
    pub fn record_success(&mut self, resource: usize) {
        if let Some(rec) = self.records.get_mut(resource) {
            rec.successes += 1;
        }
    }

    /// Record a job bounced back from `resource` at `now`. Returns `true`
    /// iff this observation newly blacklists the resource.
    pub fn record_failure(&mut self, resource: usize, now: SimTime) -> bool {
        let policy = self.policy;
        let Some(rec) = self.records.get_mut(resource) else {
            return false;
        };
        if rec.blacklisted_until.is_some_and(|until| until > now) {
            // Already out of matchmaking; stray failures from jobs evicted
            // in-flight neither extend the sentence nor taint the clean
            // slate waiting at the end of the cooldown.
            return false;
        }
        rec.failures += 1;
        let total = rec.successes + rec.failures;
        let rate = rec.failures as f64 / total as f64;
        if total >= policy.blacklist_min_events && rate >= policy.blacklist_failure_threshold {
            rec.blacklisted_until = Some(now + policy.blacklist_cooldown);
            // Clean slate when the cooldown ends.
            rec.successes = 0;
            rec.failures = 0;
            self.blacklist_events += 1;
            true
        } else {
            false
        }
    }

    /// Current health of `resource` at `now`.
    pub fn health(&self, resource: usize, now: SimTime) -> ResourceHealth {
        let Some(rec) = self.records.get(resource) else {
            return ResourceHealth::Healthy;
        };
        if rec.blacklisted_until.is_some_and(|until| until > now) {
            return ResourceHealth::Blacklisted;
        }
        let total = rec.successes + rec.failures;
        if total >= 2 {
            let rate = rec.failures as f64 / total as f64;
            if rate >= self.policy.suspect_failure_threshold {
                return ResourceHealth::Suspect;
            }
        }
        ResourceHealth::Healthy
    }

    /// Observed failure rate of `resource` since its last clean slate
    /// (`None` with no observations).
    pub fn failure_rate(&self, resource: usize) -> Option<f64> {
        let rec = self.records.get(resource)?;
        let total = rec.successes + rec.failures;
        (total > 0).then(|| rec.failures as f64 / total as f64)
    }

    /// Total number of blacklistings over the tracker's lifetime.
    pub fn blacklist_events(&self) -> u32 {
        self.blacklist_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            blacklist_failure_threshold: 0.5,
            blacklist_min_events: 4,
            blacklist_cooldown: SimDuration::from_hours(2),
            suspect_failure_threshold: 0.25,
            ..RecoveryPolicy::default()
        }
    }

    #[test]
    fn needs_min_events_before_blacklisting() {
        let mut tr = StabilityTracker::new(2, policy());
        let t = SimTime::from_secs(100);
        assert!(!tr.record_failure(0, t));
        assert!(!tr.record_failure(0, t));
        assert!(!tr.record_failure(0, t));
        // 4th observation, rate 1.0 ≥ 0.5: blacklisted.
        assert!(tr.record_failure(0, t));
        assert_eq!(tr.health(0, t), ResourceHealth::Blacklisted);
        assert_eq!(tr.health(1, t), ResourceHealth::Healthy);
        assert_eq!(tr.blacklist_events(), 1);
    }

    #[test]
    fn successes_keep_rate_below_threshold() {
        let mut tr = StabilityTracker::new(1, policy());
        let t = SimTime::from_secs(1);
        for _ in 0..9 {
            tr.record_success(0);
        }
        // 1 failure out of 10: healthy.
        assert!(!tr.record_failure(0, t));
        assert_eq!(tr.health(0, t), ResourceHealth::Healthy);
        assert_eq!(tr.failure_rate(0), Some(0.1));
    }

    #[test]
    fn suspect_band_between_thresholds() {
        let mut tr = StabilityTracker::new(1, policy());
        let t = SimTime::from_secs(1);
        tr.record_success(0);
        tr.record_success(0);
        tr.record_failure(0, t); // rate 1/3 ≈ 0.33: past suspect, short of blacklist
        assert_eq!(tr.health(0, t), ResourceHealth::Suspect);
    }

    #[test]
    fn cooldown_expires_with_clean_slate() {
        let mut tr = StabilityTracker::new(1, policy());
        let t = SimTime::from_secs(100);
        for _ in 0..4 {
            tr.record_failure(0, t);
        }
        assert_eq!(tr.health(0, t), ResourceHealth::Blacklisted);
        let later = t + SimDuration::from_hours(2);
        assert_eq!(tr.health(0, later), ResourceHealth::Healthy);
        assert_eq!(tr.failure_rate(0), None);
    }

    #[test]
    fn failures_while_blacklisted_do_not_extend() {
        let mut tr = StabilityTracker::new(1, policy());
        let t = SimTime::from_secs(100);
        for _ in 0..4 {
            tr.record_failure(0, t);
        }
        let mid = t + SimDuration::from_hours(1);
        assert!(!tr.record_failure(0, mid));
        assert_eq!(tr.blacklist_events(), 1);
        let after = t + SimDuration::from_hours(2);
        assert_ne!(tr.health(0, after), ResourceHealth::Blacklisted);
    }
}
