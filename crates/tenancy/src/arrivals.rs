//! Seeded heavy-traffic arrival generation.
//!
//! The paper's portal served a steady trickle of real users; the tenancy
//! layer has to survive the other regime — millions of accounts, diurnal
//! load swings, and flash crowds after a conference demo. This module
//! turns those into a deterministic submission stream:
//!
//! * **Aggregate non-homogeneous Poisson** arrivals via thinning: draw
//!   candidate instants from a homogeneous process at the rate envelope
//!   `λmax` and accept each with probability `λ(t)/λmax`. One RNG stream,
//!   O(1) per candidate, exact for any bounded rate function.
//! * **Diurnal modulation**: `λ(t)` swings sinusoidally by ±60% over a
//!   24 h period, peaking mid-day.
//! * **Flash crowds**: a configurable number of 30-minute windows at
//!   seeded offsets multiply the rate eightfold (the "featured on the
//!   news" spike).
//! * **Long-tail attribution**: each accepted arrival is a one-shot guest
//!   with probability `guest_fraction`; otherwise it belongs to a
//!   registered user drawn from a bounded power law (exponent 1.1) over
//!   the population, so a tiny core submits most of the campaigns while
//!   the long tail appears once — matching the submission histograms
//!   reported for community grids. Guests get serial identities and
//!   always submit a single job; registered users submit batches of 1–50.
//!
//! The generator does not touch the grid: it yields [`Submission`] values
//! the driver replays through the tenancy layer (registering accounts
//! lazily — only users who actually show up get ledgers).

use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};

/// Who produced a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Submitter {
    /// Registered user `user` (an index into the simulated population,
    /// 0 = most active under the power law).
    Registered(u64),
    /// One-shot guest number `serial` (each guest appears exactly once).
    Guest(u64),
}

/// One arrival: a batch of jobs submitted by one identity at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submission {
    /// When the submission arrives.
    pub at: SimTime,
    /// Who submitted.
    pub submitter: Submitter,
    /// Number of jobs in the batch (guests always 1).
    pub jobs: u64,
}

/// Smallest registered-campaign batch size.
const JOBS_MIN: u64 = 1;
/// Largest registered-campaign batch size (inclusive).
const JOBS_MAX: u64 = 50;
/// Diurnal swing: the rate varies by `±DIURNAL_AMPLITUDE` sinusoidally
/// over each 24 h period.
const DIURNAL_AMPLITUDE: f64 = 0.6;
/// Rate multiplier inside a flash-crowd window.
const FLASH_MULTIPLIER: f64 = 8.0;
/// Length of each flash-crowd window.
const FLASH_DURATION: SimDuration = SimDuration::from_mins(30);
/// Power-law exponent for registered-user attribution (larger = heavier
/// head).
const ZIPF_EXPONENT: f64 = 1.1;

/// Tuning for the arrival stream. All rates are aggregate expectations;
/// the realized stream is seeded and exactly reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Simulated registered population size (ids `0..users`).
    pub users: u64,
    /// Probability an arrival is a one-shot guest instead of a
    /// registered user.
    pub guest_fraction: f64,
    /// Length of the generated stream.
    pub horizon: SimDuration,
    /// Mean submissions per registered user per simulated day (sets the
    /// base aggregate rate `users × this / 86400` per second).
    pub submissions_per_user_per_day: f64,
    /// Number of flash-crowd windows at seeded offsets in the horizon.
    pub flash_crowds: u64,
    /// Stream seed.
    pub seed: u64,
    /// Optional hard cap on generated submissions (the stream stops
    /// early once reached).
    #[serde(default)]
    pub max_submissions: Option<u64>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            users: 10_000,
            guest_fraction: 0.3,
            horizon: SimDuration::from_days(1),
            submissions_per_user_per_day: 0.1,
            flash_crowds: 2,
            seed: 42,
            max_submissions: None,
        }
    }
}

impl ArrivalConfig {
    /// Base aggregate arrival rate, per second.
    pub fn base_rate_per_sec(&self) -> f64 {
        self.users as f64 * self.submissions_per_user_per_day / 86_400.0
    }
}

/// The deterministic arrival stream for one [`ArrivalConfig`].
pub struct ArrivalGenerator {
    config: ArrivalConfig,
    /// Flash-crowd window starts (seeded, sorted).
    flash_starts: Vec<SimTime>,
    rng: SimRng,
    clock: f64,
    lambda_max: f64,
    guest_serial: u64,
    emitted: u64,
}

impl ArrivalGenerator {
    /// Build the stream (seeds flash-crowd placement and the thinning
    /// stream from `config.seed`).
    pub fn new(config: ArrivalConfig) -> ArrivalGenerator {
        assert!(config.users > 0, "population must be non-empty");
        assert!(
            (0.0..=1.0).contains(&config.guest_fraction),
            "guest_fraction must be in [0,1]"
        );
        let root = SimRng::new(config.seed).fork("arrivals");
        let mut placer = root.fork("flash");
        let horizon = config.horizon.as_secs_f64();
        let mut flash_starts: Vec<SimTime> = (0..config.flash_crowds)
            .map(|_| SimTime::from_secs_f64(placer.range_f64(0.0, horizon)))
            .collect();
        flash_starts.sort_unstable();
        let lambda_max = config.base_rate_per_sec() * (1.0 + DIURNAL_AMPLITUDE) * FLASH_MULTIPLIER;
        ArrivalGenerator {
            flash_starts,
            rng: root.fork("thinning"),
            clock: 0.0,
            lambda_max,
            guest_serial: 0,
            emitted: 0,
            config,
        }
    }

    /// The instantaneous aggregate rate `λ(t)`, per second.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let secs = t.as_secs_f64();
        let day_phase = secs / 86_400.0 * std::f64::consts::TAU;
        // Peak mid-day (phase shifted so t=0 is the overnight trough).
        let diurnal = 1.0 - DIURNAL_AMPLITUDE * day_phase.cos();
        let flash = if self.in_flash(t) {
            FLASH_MULTIPLIER
        } else {
            1.0
        };
        self.config.base_rate_per_sec() * diurnal * flash
    }

    fn in_flash(&self, t: SimTime) -> bool {
        // flash_starts is sorted; find the window that could contain t.
        let idx = self.flash_starts.partition_point(|&s| s <= t);
        idx > 0 && t.saturating_since(self.flash_starts[idx - 1]) < FLASH_DURATION
    }

    /// Next submission, or `None` when the horizon (or the cap) is
    /// reached. Instants are strictly within the horizon and
    /// non-decreasing.
    pub fn next_submission(&mut self) -> Option<Submission> {
        let horizon = self.config.horizon.as_secs_f64();
        if let Some(cap) = self.config.max_submissions {
            if self.emitted >= cap {
                return None;
            }
        }
        if self.lambda_max <= 0.0 {
            return None;
        }
        loop {
            self.clock += self.rng.exponential(1.0 / self.lambda_max);
            if self.clock >= horizon {
                return None;
            }
            let at = SimTime::from_secs_f64(self.clock);
            // Thinning: accept with probability λ(t)/λmax.
            if !self.rng.chance(self.rate_at(at) / self.lambda_max) {
                continue;
            }
            self.emitted += 1;
            let submission = if self.rng.chance(self.config.guest_fraction) {
                let serial = self.guest_serial;
                self.guest_serial += 1;
                Submission {
                    at,
                    submitter: Submitter::Guest(serial),
                    jobs: 1,
                }
            } else {
                Submission {
                    at,
                    submitter: Submitter::Registered(self.power_law_user()),
                    jobs: self.rng.range_u64(JOBS_MIN, JOBS_MAX + 1),
                }
            };
            return Some(submission);
        }
    }

    /// Materialize the whole stream (time-ordered).
    pub fn generate(mut self) -> Vec<Submission> {
        let mut out = Vec::new();
        while let Some(s) = self.next_submission() {
            out.push(s);
        }
        out
    }

    /// Draw a registered user id from a bounded continuous power law over
    /// `[1, users]`: the inverse CDF of `p(r) ∝ r^-ZIPF_EXPONENT`. Id 0 is
    /// the most active user. O(1) per draw — no per-user tables, which is
    /// what makes million-user populations free until a user actually
    /// submits.
    fn power_law_user(&mut self) -> u64 {
        let n = self.config.users as f64;
        let u = self.rng.f64();
        let one_minus = 1.0 - ZIPF_EXPONENT;
        let rank = (u * (n.powf(one_minus) - 1.0) + 1.0).powf(1.0 / one_minus);
        (rank.floor() as u64).clamp(1, self.config.users) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ArrivalConfig {
        ArrivalConfig {
            users: 1000,
            submissions_per_user_per_day: 2.0,
            horizon: SimDuration::from_hours(12),
            flash_crowds: 1,
            ..ArrivalConfig::default()
        }
    }

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let a = ArrivalGenerator::new(small_config()).generate();
        let b = ArrivalGenerator::new(small_config()).generate();
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "instants must be non-decreasing");
        }
        assert!(a
            .iter()
            .all(|s| { SimDuration::from_micros(s.at.as_micros()) < small_config().horizon }));
        let mut other = small_config();
        other.seed = 43;
        let c = ArrivalGenerator::new(other).generate();
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn guests_are_one_shot_serials() {
        let mut config = small_config();
        config.guest_fraction = 0.5;
        let stream = ArrivalGenerator::new(config).generate();
        let guests: Vec<u64> = stream
            .iter()
            .filter_map(|s| match s.submitter {
                Submitter::Guest(g) => Some(g),
                _ => None,
            })
            .collect();
        assert!(!guests.is_empty());
        // Serials count up from zero without reuse.
        for (i, g) in guests.iter().enumerate() {
            assert_eq!(*g, i as u64);
        }
        assert!(stream
            .iter()
            .filter(|s| matches!(s.submitter, Submitter::Guest(_)))
            .all(|s| s.jobs == 1));
    }

    #[test]
    fn power_law_concentrates_on_the_head() {
        let mut config = small_config();
        config.guest_fraction = 0.0;
        let stream = ArrivalGenerator::new(config).generate();
        let head = stream
            .iter()
            .filter(|s| matches!(s.submitter, Submitter::Registered(u) if u < 10))
            .count();
        let frac = head as f64 / stream.len() as f64;
        // 1% of the population should own far more than 1% of arrivals.
        assert!(frac > 0.2, "head fraction = {frac}");
    }

    #[test]
    fn flash_crowd_raises_the_rate() {
        let gen = ArrivalGenerator::new(small_config());
        let start = gen.flash_starts[0];
        let inside = gen.rate_at(start + SimDuration::from_mins(1));
        // Just after the window closes, the multiplier is gone.
        let after = gen.rate_at(start + SimDuration::from_hours(2));
        assert!(
            inside > after * 4.0,
            "flash window must multiply the rate: {inside} vs {after}"
        );
    }

    #[test]
    fn diurnal_trough_is_at_stream_start() {
        let mut config = small_config();
        config.flash_crowds = 0;
        let gen = ArrivalGenerator::new(config);
        let trough = gen.rate_at(SimTime::ZERO);
        let peak = gen.rate_at(SimTime::from_hours(12));
        assert!(peak > trough * 2.0, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn cap_limits_the_stream() {
        let mut config = small_config();
        config.max_submissions = Some(7);
        assert_eq!(ArrivalGenerator::new(config).generate().len(), 7);
    }
}
