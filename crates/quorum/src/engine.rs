//! The workunit replication state machine.
//!
//! One [`QuorumEngine`] serves a whole volunteer pool: the caller registers
//! each workunit (learning how many initial copies to issue), notifies the
//! engine of assignments (adaptive replication reacts to the assigned
//! host's reputation), feeds returned result scores through
//! [`QuorumEngine::on_result`], and reports deadline misses through
//! [`QuorumEngine::on_timeout`]. Verdicts tell the caller to issue more
//! replicas, accept a canonical result, or give up on the workunit.

use crate::reputation::ReputationBook;
use crate::{ReplicationPolicy, ValidationConfig};
use serde::{Deserialize, Serialize};
use simkit::SimRng;
use std::collections::HashMap;

/// Deterministic "true" likelihood score of a workunit — the value every
/// honest host's result jitters around. A splitmix64 hash keeps scores
/// spread out and reproducible without any RNG state.
pub fn base_score(wu: u64) -> f64 {
    let mut h = wu ^ 0x51CE_B00C_9E37_79B9;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    -1000.0 - (h % 99_000) as f64 - ((h >> 32) & 0xFFFF) as f64 / 65_536.0
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ResultEntry {
    host: usize,
    score: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Terminal {
    Completed,
    Failed,
}

#[derive(Debug, Serialize, Deserialize)]
struct WuState {
    results: Vec<ResultEntry>,
    /// Copies ever issued (initial + escalations + timeout replacements).
    issued: usize,
    timeouts: usize,
    /// Agreeing results needed to complete (1 on the trusted path,
    /// `min_quorum` otherwise).
    required: usize,
    /// Whether the first assignment has fixed the replication level.
    adapted: bool,
    spot_checked: bool,
    /// Bad results synthesized so far (spreads their scores apart so
    /// erroneous hosts never accidentally corroborate each other).
    bad_count: usize,
    terminal: Option<Terminal>,
}

/// What the caller must do after a returned result.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Keep waiting; queue `issue` additional copies now.
    Pending {
        /// Replacement copies to queue.
        issue: usize,
    },
    /// A canonical result was selected; the workunit is done.
    Completed(Completion),
    /// The workunit exhausted its error or total-result budget.
    Failed,
}

/// A completed validation: the canonical result and the verdict on every
/// returned result (indices are arrival order, matching the caller's
/// banked-CPU ledger).
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Arrival index of the canonical result.
    pub canonical: usize,
    /// The canonical likelihood score.
    pub canonical_score: f64,
    /// Arrival indices inside the winning agreement group (credit granted).
    pub valid: Vec<usize>,
    /// Arrival indices outside the group (credit denied, reputation hit).
    pub invalid: Vec<usize>,
    /// Results returned in total.
    pub results: usize,
    /// True iff the result was accepted on host trust alone (quorum 1).
    pub trusted_single: bool,
    /// True iff this workunit was spot-check escalated to a full quorum.
    pub spot_checked: bool,
    /// True iff the canonical score is wrong (outside tolerance of the
    /// workunit's true score) — a bad result slipped through validation.
    pub canonical_bad: bool,
}

/// What the caller must do after a deadline miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutDecision {
    /// Queue one replacement copy.
    pub reissue: bool,
    /// The workunit failed permanently (budget exhausted, nothing
    /// outstanding).
    pub failed: bool,
}

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Stats {
    workunits: u64,
    completed: u64,
    failed: u64,
    results: u64,
    valid_results: u64,
    invalid_results: u64,
    timeouts: u64,
    replicas_issued: u64,
    spot_checks: u64,
    trusted_accepts: u64,
    bad_accepted: u64,
}

/// Aggregate validation accounting, exported into grid reports and
/// telemetry snapshots. Serializes byte-identically under seeded replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ValidationSnapshot {
    /// Workunits registered.
    pub workunits: u64,
    /// Workunits validated (canonical result chosen).
    pub completed: u64,
    /// Workunits that exhausted their error/total budget.
    pub failed: u64,
    /// Results returned.
    pub results: u64,
    /// Results that landed in a winning agreement group.
    pub valid_results: u64,
    /// Results judged invalid at completion or failure.
    pub invalid_results: u64,
    /// Deadline misses observed.
    pub timeouts: u64,
    /// Copies issued across all workunits.
    pub replicas_issued: u64,
    /// Trusted workunits escalated to a spot-check quorum.
    pub spot_checks: u64,
    /// Workunits accepted on a single trusted result.
    pub trusted_accepts: u64,
    /// Completions whose canonical result was actually wrong.
    pub bad_accepted: u64,
    /// Hosts currently above the trust threshold.
    pub trusted_hosts: u64,
    /// Hosts currently reputation-blacklisted.
    pub blacklisted_hosts: u64,
}

/// The result-validation engine: replication state machine + reputation.
///
/// The checkpoint form keeps the engine's RNG, so post-restore spot-check
/// draws continue the original stream.
#[derive(Debug, Serialize, Deserialize)]
pub struct QuorumEngine {
    config: ValidationConfig,
    book: ReputationBook,
    /// Keyed by `u64`, which JSON maps cannot carry: id-sorted pairs keep
    /// snapshot → restore → snapshot byte-stable.
    #[serde(with = "simkit::snapshot::sorted_pairs")]
    wus: HashMap<u64, WuState>,
    rng: SimRng,
    stats: Stats,
}

impl QuorumEngine {
    /// An engine under `config`. `rng` should be a dedicated fork: the
    /// engine draws from it for spot checks and honest-score jitter only,
    /// leaving the caller's streams untouched.
    pub fn new(config: ValidationConfig, rng: SimRng) -> QuorumEngine {
        assert!(config.min_quorum >= 1, "min_quorum must be at least 1");
        assert!(
            config.max_total_results >= config.min_quorum,
            "max_total_results must admit a full quorum"
        );
        assert!(
            config.tolerance > 0.0 && config.tolerance.is_finite(),
            "tolerance must be a positive finite score distance"
        );
        QuorumEngine {
            book: ReputationBook::new(0, config.trust),
            config,
            wus: HashMap::new(),
            rng,
            stats: Stats::default(),
        }
    }

    /// Pre-size the reputation table for a pool of `n` hosts.
    pub fn ensure_hosts(&mut self, n: usize) {
        self.book.ensure_hosts(n);
    }

    /// The active configuration.
    pub fn config(&self) -> &ValidationConfig {
        &self.config
    }

    /// The reputation table.
    pub fn book(&self) -> &ReputationBook {
        &self.book
    }

    /// True iff `host` has earned replication-1 trust.
    pub fn is_trusted(&self, host: usize) -> bool {
        self.book.is_trusted(host)
    }

    /// True iff `host` is reputation-blacklisted (no further assignments).
    pub fn is_blacklisted(&self, host: usize) -> bool {
        self.book.is_blacklisted(host)
    }

    /// Copies issued for `wu` so far.
    pub fn issued(&self, wu: u64) -> Option<usize> {
        self.wus.get(&wu).map(|s| s.issued)
    }

    /// Agreeing results `wu` currently needs to complete.
    pub fn required(&self, wu: u64) -> Option<usize> {
        self.wus.get(&wu).map(|s| s.required)
    }

    /// Register a new workunit; returns the number of initial copies to
    /// queue.
    pub fn register(&mut self, wu: u64) -> usize {
        let initial = match self.config.policy {
            ReplicationPolicy::Always => self.config.min_quorum,
            ReplicationPolicy::Adaptive { .. } => 1,
        }
        .min(self.config.max_total_results);
        self.wus.insert(
            wu,
            WuState {
                results: Vec::new(),
                issued: initial,
                timeouts: 0,
                required: self.config.min_quorum,
                adapted: false,
                spot_checked: false,
                bad_count: 0,
                terminal: None,
            },
        );
        self.stats.workunits += 1;
        self.stats.replicas_issued += initial as u64;
        initial
    }

    /// A copy of `wu` was assigned to `host`. Under adaptive replication
    /// the first assignment fixes the workunit's replication level from the
    /// host's reputation (trusted → quorum 1, minus spot checks); returns
    /// how many *additional* copies the caller must queue right now.
    pub fn on_assign(&mut self, wu: u64, host: usize) -> usize {
        let ReplicationPolicy::Adaptive {
            spot_check_probability,
        } = self.config.policy
        else {
            return 0;
        };
        let min_quorum = self.config.min_quorum;
        let max_total = self.config.max_total_results;
        if min_quorum <= 1 {
            return 0; // replication 1 is already the floor
        }
        let trusted = self.book.is_trusted(host);
        let Some(state) = self.wus.get_mut(&wu) else {
            return 0;
        };
        if state.terminal.is_some() {
            return 0;
        }
        let escalate = if !state.adapted {
            state.adapted = true;
            if trusted {
                // The spot-check draw is the engine's only scheduling-
                // relevant randomness; it comes from the engine's own fork.
                if self.rng.chance(spot_check_probability) {
                    state.spot_checked = true;
                    self.stats.spot_checks += 1;
                    true
                } else {
                    state.required = 1;
                    false
                }
            } else {
                true
            }
        } else {
            // A replacement copy (after a timeout) landing on an untrusted
            // host revokes the single-result shortcut.
            state.required == 1 && !trusted
        };
        if !escalate {
            return 0;
        }
        state.required = min_quorum;
        // Copies that can still contribute to a quorum: in-flight ones plus
        // results already returned (optimistically counted as agreeing —
        // `on_result` tops the pipeline back up if they turn out not to).
        let potential = state
            .issued
            .saturating_sub(state.timeouts)
            .max(state.results.len());
        let extra = min_quorum
            .saturating_sub(potential)
            .min(max_total.saturating_sub(state.issued));
        state.issued += extra;
        self.stats.replicas_issued += extra as u64;
        extra
    }

    /// Synthesize the likelihood score a host reports for `wu`. Honest
    /// results jitter within a quarter-tolerance of the true score (so the
    /// fuzzy comparison has real work to do); bad results land at least
    /// three tolerances away, each farther than the last (bad hosts fail
    /// independently — they do not corroborate each other).
    pub fn score_for(&mut self, wu: u64, honest: bool) -> f64 {
        let tol = self.config.tolerance;
        if honest {
            let jitter = self.rng.range_f64(-0.25 * tol, 0.25 * tol);
            base_score(wu) + jitter
        } else {
            let k = match self.wus.get_mut(&wu) {
                Some(s) => {
                    s.bad_count += 1;
                    s.bad_count - 1
                }
                None => 0,
            };
            base_score(wu) + tol * (3.0 + 3.0 * k as f64)
        }
    }

    /// A result for `wu` arrived from `host` with likelihood `score`.
    pub fn on_result(&mut self, wu: u64, host: usize, score: f64) -> Verdict {
        let tolerance = self.config.tolerance;
        let max_error = self.config.max_error_results;
        let max_total = self.config.max_total_results;
        let Some(state) = self.wus.get_mut(&wu) else {
            return Verdict::Pending { issue: 0 };
        };
        if state.terminal.is_some() {
            return Verdict::Pending { issue: 0 };
        }
        state.results.push(ResultEntry { host, score });
        self.stats.results += 1;

        // Canonical selection: the earliest result whose agreement group
        // (everything within `tolerance` of it) reaches the required
        // quorum wins. Arrival order makes the choice deterministic.
        let n = state.results.len();
        let group_of = |c: usize, results: &[ResultEntry]| -> Vec<usize> {
            (0..results.len())
                .filter(|&i| (results[i].score - results[c].score).abs() <= tolerance)
                .collect()
        };
        let mut winner: Option<(usize, Vec<usize>)> = None;
        let mut best_group = 0usize;
        for c in 0..n {
            let group = group_of(c, &state.results);
            best_group = best_group.max(group.len());
            if group.len() >= state.required {
                winner = Some((c, group));
                break;
            }
        }

        if let Some((canonical, valid)) = winner {
            state.terminal = Some(Terminal::Completed);
            let invalid: Vec<usize> = (0..n).filter(|i| !valid.contains(i)).collect();
            for &i in &valid {
                self.book.record_validated(state.results[i].host);
            }
            for &i in &invalid {
                self.book.record_invalid(state.results[i].host);
            }
            let canonical_score = state.results[canonical].score;
            let canonical_bad = (canonical_score - base_score(wu)).abs() > tolerance;
            self.stats.completed += 1;
            self.stats.valid_results += valid.len() as u64;
            self.stats.invalid_results += invalid.len() as u64;
            if state.required == 1 {
                self.stats.trusted_accepts += 1;
            }
            if canonical_bad {
                self.stats.bad_accepted += 1;
            }
            return Verdict::Completed(Completion {
                canonical,
                canonical_score,
                valid,
                invalid,
                results: n,
                trusted_single: state.required == 1,
                spot_checked: state.spot_checked,
                canonical_bad,
            });
        }

        // No consensus yet: enforce the error/total budgets, then top the
        // pipeline back up so (assuming future results agree with the
        // current leading group) the quorum can still be reached.
        let errors = n - best_group;
        if errors > max_error || n >= max_total {
            state.terminal = Some(Terminal::Failed);
            self.stats.failed += 1;
            self.punish_failed(wu);
            return Verdict::Failed;
        }
        let outstanding = state.issued.saturating_sub(n + state.timeouts);
        let needed = state.required.saturating_sub(best_group);
        let issue = needed
            .saturating_sub(outstanding)
            .min(max_total.saturating_sub(state.issued));
        if issue == 0 && outstanding == 0 {
            // Budget exhausted with nothing in flight: unreachable quorum.
            state.terminal = Some(Terminal::Failed);
            self.stats.failed += 1;
            self.punish_failed(wu);
            return Verdict::Failed;
        }
        state.issued += issue;
        self.stats.replicas_issued += issue as u64;
        Verdict::Pending { issue }
    }

    /// A workunit just failed: every result outside the leading agreement
    /// group is judged invalid for reputation purposes. The leading group
    /// itself stays unjudged — no quorum ever confirmed it, so those hosts
    /// earn neither credit nor penalty. Without this, a bad host that
    /// monopolizes one workunit's replacement copies burns it to failure
    /// without ever feeding the blacklist.
    fn punish_failed(&mut self, wu: u64) {
        let tolerance = self.config.tolerance;
        let Some(state) = self.wus.get(&wu) else {
            return;
        };
        let n = state.results.len();
        let mut leading: Vec<usize> = Vec::new();
        for c in 0..n {
            let group: Vec<usize> = (0..n)
                .filter(|&i| (state.results[i].score - state.results[c].score).abs() <= tolerance)
                .collect();
            if group.len() > leading.len() {
                leading = group;
            }
        }
        let hosts: Vec<usize> = (0..n)
            .filter(|i| !leading.contains(i))
            .map(|i| state.results[i].host)
            .collect();
        self.stats.invalid_results += hosts.len() as u64;
        for host in hosts {
            self.book.record_invalid(host);
        }
    }

    /// An assignment of `wu` to `host` missed its deadline without a
    /// result.
    pub fn on_timeout(&mut self, wu: u64, host: usize) -> TimeoutDecision {
        let max_total = self.config.max_total_results;
        let none = TimeoutDecision {
            reissue: false,
            failed: false,
        };
        let Some(state) = self.wus.get_mut(&wu) else {
            return none;
        };
        if state.terminal.is_some() {
            return none;
        }
        state.timeouts += 1;
        self.stats.timeouts += 1;
        self.book.record_timeout(host);
        if state.issued < max_total {
            state.issued += 1;
            self.stats.replicas_issued += 1;
            TimeoutDecision {
                reissue: true,
                failed: false,
            }
        } else if state
            .issued
            .saturating_sub(state.results.len() + state.timeouts)
            == 0
        {
            state.terminal = Some(Terminal::Failed);
            self.stats.failed += 1;
            self.punish_failed(wu);
            TimeoutDecision {
                reissue: false,
                failed: true,
            }
        } else {
            none
        }
    }

    /// Aggregate accounting at this instant.
    pub fn snapshot(&self) -> ValidationSnapshot {
        ValidationSnapshot {
            workunits: self.stats.workunits,
            completed: self.stats.completed,
            failed: self.stats.failed,
            results: self.stats.results,
            valid_results: self.stats.valid_results,
            invalid_results: self.stats.invalid_results,
            timeouts: self.stats.timeouts,
            replicas_issued: self.stats.replicas_issued,
            spot_checks: self.stats.spot_checks,
            trusted_accepts: self.stats.trusted_accepts,
            bad_accepted: self.stats.bad_accepted,
            trusted_hosts: self.book.trusted_count() as u64,
            blacklisted_hosts: self.book.blacklisted_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrustPolicy;

    fn always2() -> ValidationConfig {
        ValidationConfig {
            min_quorum: 2,
            policy: ReplicationPolicy::Always,
            ..ValidationConfig::default()
        }
    }

    fn adaptive(p: f64) -> ValidationConfig {
        ValidationConfig {
            min_quorum: 2,
            policy: ReplicationPolicy::Adaptive {
                spot_check_probability: p,
            },
            ..ValidationConfig::default()
        }
    }

    fn engine(config: ValidationConfig) -> QuorumEngine {
        QuorumEngine::new(config, SimRng::new(7))
    }

    /// Make `host` trusted by validating `n` singleton workunits through a
    /// full quorum with a partner host.
    fn earn_trust(e: &mut QuorumEngine, host: usize, partner: usize, n: u32) {
        for k in 0..n {
            let wu = 1_000_000 + u64::from(k);
            e.register(wu);
            let s1 = e.score_for(wu, true);
            let s2 = e.score_for(wu, true);
            assert!(matches!(e.on_result(wu, host, s1), Verdict::Pending { .. }));
            assert!(matches!(
                e.on_result(wu, partner, s2),
                Verdict::Completed(_)
            ));
        }
        assert!(e.is_trusted(host));
    }

    #[test]
    fn quorum_two_agreement_completes() {
        let mut e = engine(always2());
        assert_eq!(e.register(1), 2);
        let a = e.score_for(1, true);
        let b = e.score_for(1, true);
        assert!(matches!(
            e.on_result(1, 0, a),
            Verdict::Pending { issue: 0 }
        ));
        match e.on_result(1, 1, b) {
            Verdict::Completed(c) => {
                assert_eq!(c.valid, vec![0, 1]);
                assert!(c.invalid.is_empty());
                assert!(!c.canonical_bad);
                assert!(!c.trusted_single);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.book().stats(0).validated, 1);
        assert_eq!(e.snapshot().completed, 1);
    }

    #[test]
    fn disagreement_issues_tiebreaker_and_flags_invalid() {
        let mut e = engine(always2());
        e.register(1);
        let good = e.score_for(1, true);
        let bad = e.score_for(1, false);
        assert!(matches!(
            e.on_result(1, 0, bad),
            Verdict::Pending { issue: 0 }
        ));
        // Second result disagrees: both copies used, so one replacement.
        assert!(matches!(
            e.on_result(1, 1, good),
            Verdict::Pending { issue: 1 }
        ));
        let good2 = e.score_for(1, true);
        match e.on_result(1, 2, good2) {
            Verdict::Completed(c) => {
                assert_eq!(c.valid, vec![1, 2]);
                assert_eq!(c.invalid, vec![0]);
                assert!(!c.canonical_bad);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.book().stats(0).invalid, 1);
        assert_eq!(e.book().stats(1).validated, 1);
    }

    #[test]
    fn trusted_host_single_result_accepted() {
        let mut e = engine(adaptive(0.0));
        earn_trust(&mut e, 0, 1, 5);
        assert_eq!(e.register(42), 1, "adaptive issues one copy up front");
        assert_eq!(e.on_assign(42, 0), 0, "trusted: no escalation");
        assert_eq!(e.required(42), Some(1));
        let s = e.score_for(42, true);
        match e.on_result(42, 0, s) {
            Verdict::Completed(c) => {
                assert!(c.trusted_single);
                assert!(!c.spot_checked);
                assert!(!c.canonical_bad);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.snapshot().trusted_accepts, 1);
    }

    #[test]
    fn untrusted_first_assignment_escalates_to_full_quorum() {
        let mut e = engine(adaptive(0.0));
        e.register(42);
        assert_eq!(e.on_assign(42, 3), 1, "one extra copy for the quorum");
        assert_eq!(e.required(42), Some(2));
        assert_eq!(e.issued(42), Some(2));
    }

    #[test]
    fn spot_check_escalates_trusted_host() {
        let mut e = engine(adaptive(1.0)); // every trusted workunit spot-checked
        earn_trust(&mut e, 0, 1, 5);
        e.register(42);
        assert_eq!(e.on_assign(42, 0), 1, "spot check adds the quorum copy");
        assert_eq!(e.required(42), Some(2));
        let a = e.score_for(42, true);
        let b = e.score_for(42, true);
        assert!(matches!(
            e.on_result(42, 0, a),
            Verdict::Pending { issue: 0 }
        ));
        match e.on_result(42, 1, b) {
            Verdict::Completed(c) => {
                assert!(c.spot_checked);
                assert!(!c.trusted_single);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.snapshot().spot_checks, 1);
    }

    #[test]
    fn replacement_on_untrusted_host_revokes_single_shortcut() {
        let mut e = engine(adaptive(0.0));
        earn_trust(&mut e, 0, 1, 5);
        e.register(42);
        assert_eq!(e.on_assign(42, 0), 0);
        // The trusted host times out; the replacement lands on a stranger.
        let d = e.on_timeout(42, 0);
        assert!(d.reissue);
        assert_eq!(e.on_assign(42, 9), 1, "full quorum restored");
        assert_eq!(e.required(42), Some(2));
    }

    #[test]
    fn exhausted_total_budget_fails() {
        let cfg = ValidationConfig {
            min_quorum: 2,
            max_total_results: 3,
            max_error_results: 6,
            policy: ReplicationPolicy::Always,
            ..ValidationConfig::default()
        };
        let mut e = engine(cfg);
        e.register(1);
        let b1 = e.score_for(1, false);
        let b2 = e.score_for(1, false);
        let b3 = e.score_for(1, false);
        assert!(matches!(
            e.on_result(1, 0, b1),
            Verdict::Pending { issue: 0 }
        ));
        assert!(matches!(
            e.on_result(1, 1, b2),
            Verdict::Pending { issue: 1 }
        ));
        assert_eq!(e.on_result(1, 2, b3), Verdict::Failed);
        assert_eq!(e.snapshot().failed, 1);
    }

    #[test]
    fn error_budget_fails_workunit() {
        let cfg = ValidationConfig {
            min_quorum: 2,
            max_error_results: 1,
            max_total_results: 10,
            policy: ReplicationPolicy::Always,
            ..ValidationConfig::default()
        };
        let mut e = engine(cfg);
        e.register(1);
        let b1 = e.score_for(1, false);
        let b2 = e.score_for(1, false);
        let b3 = e.score_for(1, false);
        let _ = e.on_result(1, 0, b1);
        let _ = e.on_result(1, 1, b2);
        // Three mutually-disagreeing results: 2 outside the leading group.
        assert_eq!(e.on_result(1, 2, b3), Verdict::Failed);
    }

    #[test]
    fn timeouts_reissue_until_budget_then_fail() {
        let cfg = ValidationConfig {
            min_quorum: 2,
            max_total_results: 3,
            policy: ReplicationPolicy::Always,
            ..ValidationConfig::default()
        };
        let mut e = engine(cfg);
        e.register(1); // 2 issued
        let d = e.on_timeout(1, 0);
        assert!(d.reissue); // 3 issued
        let d = e.on_timeout(1, 1);
        assert!(!d.reissue);
        assert!(!d.failed, "one copy still outstanding");
        let d = e.on_timeout(1, 2);
        assert!(d.failed, "nothing outstanding, budget spent");
        assert_eq!(e.book().stats(0).timed_out, 1);
    }

    #[test]
    fn bad_single_result_from_trusted_host_is_accepted_and_counted() {
        let mut e = engine(adaptive(0.0));
        earn_trust(&mut e, 0, 1, 5);
        e.register(42);
        e.on_assign(42, 0);
        let s = e.score_for(42, false);
        match e.on_result(42, 0, s) {
            Verdict::Completed(c) => assert!(c.canonical_bad, "trust means no cross-check"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.snapshot().bad_accepted, 1);
    }

    #[test]
    fn reputation_blacklist_reachable_through_engine() {
        let cfg = ValidationConfig {
            trust: TrustPolicy {
                blacklist_min_results: 2,
                blacklist_error_rate: 0.5,
                ..TrustPolicy::default()
            },
            ..always2()
        };
        let mut e = engine(cfg);
        for wu in 0..2 {
            e.register(wu);
            let bad = e.score_for(wu, false);
            let g1 = e.score_for(wu, true);
            let g2 = e.score_for(wu, true);
            let _ = e.on_result(wu, 5, bad);
            let _ = e.on_result(wu, 0, g1);
            let _ = e.on_result(wu, 1, g2);
        }
        assert!(e.is_blacklisted(5));
        assert_eq!(e.snapshot().blacklisted_hosts, 1);
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let run = || {
            let mut e = engine(always2());
            e.ensure_hosts(4);
            e.register(1);
            let a = e.score_for(1, true);
            let b = e.score_for(1, true);
            let _ = e.on_result(1, 0, a);
            let _ = e.on_result(1, 1, b);
            serde_json::to_string(&e.snapshot()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn engine_serde_roundtrip_resumes_mid_quorum() {
        // Two engines, identical history; one is snapshotted mid-quorum
        // (first result in, waiting on the second) and restored.
        let drive = |e: &mut QuorumEngine| {
            e.ensure_hosts(4);
            e.register(1);
            let a = e.score_for(1, true);
            let _ = e.on_result(1, 0, a);
        };
        let mut original = engine(always2());
        drive(&mut original);
        let json = serde_json::to_string(&original).unwrap();
        let mut restored: QuorumEngine = serde_json::from_str(&json).unwrap();
        // Byte-stable re-serialization.
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
        // Both engines finish the quorum identically, including the
        // jitter drawn from the (restored) RNG stream.
        let s1 = original.score_for(1, true);
        let s2 = restored.score_for(1, true);
        assert_eq!(s1.to_bits(), s2.to_bits());
        let v1 = original.on_result(1, 1, s1);
        let v2 = restored.on_result(1, 1, s2);
        assert_eq!(v1, v2);
        assert!(matches!(v1, Verdict::Completed(_)));
        assert_eq!(
            serde_json::to_string(&original.snapshot()).unwrap(),
            serde_json::to_string(&restored.snapshot()).unwrap()
        );
    }

    #[test]
    fn base_scores_spread_and_reproduce() {
        assert_eq!(base_score(17), base_score(17));
        assert!((base_score(17) - base_score(18)).abs() > 1.0);
        assert!(base_score(17) < 0.0);
    }
}
