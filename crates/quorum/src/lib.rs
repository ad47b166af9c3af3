//! `quorum` — result validation and adaptive replication for the volunteer
//! pool.
//!
//! BOINC-style desktop grids run on untrusted hosts: results can be wrong
//! (overclocked hardware, broken math libraries) or malicious. The classic
//! defence is *redundant computing* — issue every workunit to several hosts
//! and accept a result only once a quorum of returned results agree — at
//! the price of multiplying the compute bill. This crate models the
//! server-side trust machinery that makes redundancy affordable:
//!
//! * a **workunit replication state machine** ([`QuorumEngine`]): minimum
//!   quorum, max-error / max-total bounds, canonical-result selection, and
//!   tolerance-based *fuzzy* comparison of GARLI likelihood scores (two
//!   honest hosts never agree bitwise — floating point, different
//!   platforms — so agreement means "within `tolerance` likelihood units");
//! * **per-host reputation** ([`ReputationBook`]): validated / invalid /
//!   timed-out tallies folded into an error-rate score;
//! * an **adaptive replication policy** ([`ReplicationPolicy::Adaptive`]):
//!   hosts above a trust threshold get replication 1 — their single result
//!   is accepted on reputation — except for a spot-check fraction of
//!   workunits (probability drawn from [`simkit::SimRng`]) that still runs
//!   the full quorum; untrusted hosts always pay full redundancy.
//!
//! Everything is deterministic: the engine owns one forked [`simkit::SimRng`] used
//! only for spot-check draws and honest-score jitter, so a seeded scenario
//! replays bit-for-bit. The crate knows nothing about grids or calendars —
//! `gridsim::boinc` drives it and reacts to its verdicts.

#![warn(missing_docs)]

mod engine;
mod reputation;

pub use engine::{Completion, QuorumEngine, TimeoutDecision, ValidationSnapshot, Verdict};
pub use reputation::{HostStats, ReputationBook};

use serde::{Deserialize, Serialize};

/// How many copies of a workunit to issue up front.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplicationPolicy {
    /// Every workunit runs the full quorum (`min_quorum` initial copies) —
    /// the safe, expensive baseline ("always-2" when `min_quorum` is 2).
    Always,
    /// One initial copy. If its first assignment lands on a trusted host
    /// the workunit completes with that single result — except with
    /// `spot_check_probability` it is escalated to the full quorum anyway,
    /// keeping trusted hosts honest. Untrusted first assignments escalate
    /// to the full quorum immediately.
    Adaptive {
        /// Probability that a trusted host's workunit is quorum-checked
        /// anyway (drawn from the engine's own [`simkit::SimRng`]).
        spot_check_probability: f64,
    },
}

/// When a host's record earns trust (replication 1) or loses matchmaking
/// access altogether (reputation blacklist).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrustPolicy {
    /// Validated results a host needs before it can be trusted.
    pub min_validated: u32,
    /// Maximum error rate (invalid + timed-out over total) a trusted host
    /// may carry.
    pub max_error_rate: f64,
    /// Error rate at which a host is blacklisted from further assignments
    /// (set above 1.0 to disable).
    pub blacklist_error_rate: f64,
    /// Minimum observations before the blacklist rate applies.
    pub blacklist_min_results: u32,
}

impl Default for TrustPolicy {
    fn default() -> Self {
        TrustPolicy {
            min_validated: 5,
            max_error_rate: 0.05,
            blacklist_error_rate: 0.5,
            blacklist_min_results: 5,
        }
    }
}

impl TrustPolicy {
    /// A trust policy whose blacklist never fires (error rates cannot
    /// exceed 1.0) — used by inertness tests that must not divert
    /// assignments.
    pub fn never_blacklist() -> TrustPolicy {
        TrustPolicy {
            blacklist_error_rate: 2.0,
            ..TrustPolicy::default()
        }
    }
}

/// Full validation configuration, carried on `GridConfig::validation`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationConfig {
    /// Results that must agree (within [`ValidationConfig::tolerance`]) for
    /// a canonical result to be chosen.
    pub min_quorum: usize,
    /// Give up on a workunit once this many returned results disagree with
    /// the leading agreement group.
    pub max_error_results: usize,
    /// Give up once this many copies have been issued in total (results,
    /// timeouts, and outstanding copies all count).
    pub max_total_results: usize,
    /// Two likelihood scores within this many log-likelihood units count as
    /// the same result (fuzzy comparison; bitwise equality is hopeless
    /// across heterogeneous volunteer hardware).
    pub tolerance: f64,
    /// Initial-replication policy.
    pub policy: ReplicationPolicy,
    /// Host trust thresholds.
    pub trust: TrustPolicy,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            min_quorum: 2,
            max_error_results: 6,
            max_total_results: 12,
            tolerance: 0.01,
            policy: ReplicationPolicy::Adaptive {
                spot_check_probability: 0.1,
            },
            trust: TrustPolicy::default(),
        }
    }
}

impl ValidationConfig {
    /// The always-full-quorum variant of this config (the redundancy
    /// baseline adaptive replication is measured against).
    pub fn always(mut self) -> ValidationConfig {
        self.policy = ReplicationPolicy::Always;
        self
    }
}
