//! Realistic volunteer-availability churn.
//!
//! The baseline volunteer pool flips each host between available and
//! unavailable with flat exponential burst/gap lengths — memoryless and
//! time-homogeneous, which real desktop grids are not. Measured volunteer
//! populations show three structures the flat model misses:
//!
//! 1. **Host-lifetime decay** — volunteers detach permanently; the attached
//!    population decays roughly exponentially (the `nodes_decay` curve in
//!    DHT churn studies). Modeled as a per-host death time drawn from an
//!    exponential whose mean is `half_life / ln 2`.
//! 2. **Diurnal and weekly rhythms** — machines are switched on in the day
//!    and off at night, and participation sags on weekends. Modeled as a
//!    time-of-day cosine on the effective burst/gap means, with a weekend
//!    multiplier (the simulation clock starts Monday 00:00).
//! 3. **Correlated site-wide outages** — lab-wide power cuts or campus
//!    network failures take whole cohorts of hosts down *together*.
//!    Modeled as per-site outage windows: an on-period that would cross an
//!    outage start is truncated (a burst of simultaneous flips), and a host
//!    whose gap ends inside a window stays down until the window closes.
//!
//! For replaying measured availability, [`ChurnTrace`] swaps the stochastic
//! process for a deterministic cyclic gap list: each host starts at a
//! seed-deterministic phase and walks the trace verbatim, so two runs with
//! the same seed replay byte-identical availability timelines.
//!
//! The model owns a dedicated RNG fork per host and per site, so enabling
//! it never perturbs the pool's own stream, and every draw is independent
//! of event interleaving.

use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};

/// Availability floor for the diurnal/weekend rhythm multiplier: however
/// deep the trough, hosts never become *infinitely* rare.
const RHYTHM_FLOOR: f64 = 0.05;

/// Minimum scheduled wait: the calendar refuses zero-length waits, and a
/// truncated on-period can otherwise collapse to exactly `now`.
const MIN_WAIT_SECONDS: f64 = 1e-6;

/// Configuration of the realistic-availability model
/// ([`crate::GridConfig::churn`]; `None` keeps the flat exponential flips).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Half-life of the attached population in hours: after this long,
    /// half the hosts have detached permanently. `None` disables decay.
    #[serde(default)]
    pub lifetime_half_life_hours: Option<f64>,
    /// Amplitude of the time-of-day cosine on availability (0 = flat,
    /// 0.5 = burst means swing ±50% around the configured value).
    pub diurnal_amplitude: f64,
    /// Hour of day (0–24) at which availability peaks.
    pub peak_hour: f64,
    /// Multiplier on availability during days 5–6 of each week
    /// (Saturday/Sunday with the clock starting Monday 00:00).
    pub weekend_factor: f64,
    /// Correlated site-wide outage process. `None` disables it.
    #[serde(default)]
    pub site_outages: Option<SiteOutageConfig>,
    /// Deterministic trace replay. When set, the stochastic process above
    /// is bypassed entirely (decay and outages included).
    #[serde(default)]
    pub trace: Option<ChurnTrace>,
}

/// Correlated site-wide outage bursts: hosts are striped across `sites`
/// cohorts, and each cohort shares one outage-window process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteOutageConfig {
    /// Number of volunteer cohorts (host `i` belongs to site `i % sites`).
    pub sites: usize,
    /// Mean gap between the end of one outage and the start of the next,
    /// hours.
    pub mean_interval_hours: f64,
    /// Mean outage length, hours.
    pub mean_duration_hours: f64,
}

/// A measured availability trace: alternating on/off gap lengths in hours,
/// starting with an on-gap, walked cyclically. Each host starts at a
/// seed-deterministic phase so the pool does not flip in lockstep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Alternating gap lengths in hours: even indices are on-gaps, odd
    /// indices off-gaps.
    pub gaps_hours: Vec<f64>,
}

/// A [`ChurnConfig`] field failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnConfigError {
    /// `lifetime_half_life_hours` must be finite and positive when set.
    BadHalfLife(f64),
    /// `diurnal_amplitude` must be finite and in `[0, 1)`.
    BadAmplitude(f64),
    /// `peak_hour` must be finite and in `[0, 24)`.
    BadPeakHour(f64),
    /// `weekend_factor` must be finite and positive.
    BadWeekendFactor(f64),
    /// `site_outages.sites` must be at least 1.
    NoSites,
    /// Site outage interval/duration means must be finite and positive.
    BadOutageMean(f64),
    /// A trace must contain at least one gap.
    EmptyTrace,
    /// Every trace gap must be finite and positive.
    BadTraceGap(f64),
}

impl std::fmt::Display for ChurnConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ChurnConfigError::BadHalfLife(v) => {
                write!(
                    f,
                    "lifetime_half_life_hours must be finite and > 0, got {v}"
                )
            }
            ChurnConfigError::BadAmplitude(v) => {
                write!(f, "diurnal_amplitude must be finite and in [0, 1), got {v}")
            }
            ChurnConfigError::BadPeakHour(v) => {
                write!(f, "peak_hour must be finite and in [0, 24), got {v}")
            }
            ChurnConfigError::BadWeekendFactor(v) => {
                write!(f, "weekend_factor must be finite and > 0, got {v}")
            }
            ChurnConfigError::NoSites => write!(f, "site_outages.sites must be at least 1"),
            ChurnConfigError::BadOutageMean(v) => {
                write!(f, "site outage means must be finite and > 0, got {v}")
            }
            ChurnConfigError::EmptyTrace => write!(f, "churn trace must contain at least one gap"),
            ChurnConfigError::BadTraceGap(v) => {
                write!(f, "churn trace gaps must be finite and > 0, got {v}")
            }
        }
    }
}

impl std::error::Error for ChurnConfigError {}

impl ChurnConfig {
    /// A plausible "measured volunteer population" preset: slow permanent
    /// attrition, a strong day/night cycle peaking mid-afternoon, a weekend
    /// sag, and occasional site-wide outages across four cohorts.
    pub fn realistic() -> ChurnConfig {
        ChurnConfig {
            lifetime_half_life_hours: Some(600.0),
            diurnal_amplitude: 0.45,
            peak_hour: 14.0,
            weekend_factor: 0.7,
            site_outages: Some(SiteOutageConfig {
                sites: 4,
                mean_interval_hours: 72.0,
                mean_duration_hours: 3.0,
            }),
            trace: None,
        }
    }

    /// Reject non-finite, out-of-range, or degenerate parameters before
    /// they reach an RNG draw (which would panic mid-simulation instead).
    pub fn validate(&self) -> Result<(), ChurnConfigError> {
        if let Some(h) = self.lifetime_half_life_hours {
            if !h.is_finite() || h <= 0.0 {
                return Err(ChurnConfigError::BadHalfLife(h));
            }
        }
        if !self.diurnal_amplitude.is_finite() || !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(ChurnConfigError::BadAmplitude(self.diurnal_amplitude));
        }
        if !self.peak_hour.is_finite() || !(0.0..24.0).contains(&self.peak_hour) {
            return Err(ChurnConfigError::BadPeakHour(self.peak_hour));
        }
        if !self.weekend_factor.is_finite() || self.weekend_factor <= 0.0 {
            return Err(ChurnConfigError::BadWeekendFactor(self.weekend_factor));
        }
        if let Some(s) = &self.site_outages {
            if s.sites == 0 {
                return Err(ChurnConfigError::NoSites);
            }
            for v in [s.mean_interval_hours, s.mean_duration_hours] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(ChurnConfigError::BadOutageMean(v));
                }
            }
        }
        if let Some(t) = &self.trace {
            if t.gaps_hours.is_empty() {
                return Err(ChurnConfigError::EmptyTrace);
            }
            for &g in &t.gaps_hours {
                if !g.is_finite() || g <= 0.0 {
                    return Err(ChurnConfigError::BadTraceGap(g));
                }
            }
        }
        Ok(())
    }
}

/// Per-host churn state. The RNG is a dedicated per-host fork, so a host's
/// availability timeline is independent of every other host and of event
/// interleaving.
#[derive(Debug, Serialize, Deserialize)]
struct HostChurn {
    rng: SimRng,
    site: usize,
    /// Permanent-detach time, when lifetime decay is on.
    death_at: Option<SimTime>,
    /// The host detached: no further flips are ever scheduled.
    dead: bool,
    /// Next trace index to consume (trace mode only).
    trace_pos: usize,
}

/// One cohort's outage-window process: the current (or next) window is
/// materialized lazily and advanced as simulation time passes it.
#[derive(Debug, Serialize, Deserialize)]
struct SiteChurn {
    rng: SimRng,
    window_start: SimTime,
    window_end: SimTime,
}

impl SiteChurn {
    /// The first outage window ending after `now`.
    fn window(&mut self, now: SimTime, cfg: &SiteOutageConfig) -> (SimTime, SimTime) {
        while self.window_end <= now {
            let gap = self.rng.exponential(cfg.mean_interval_hours * 3600.0);
            let len = self.rng.exponential(cfg.mean_duration_hours * 3600.0);
            self.window_start = self.window_end + SimDuration::from_secs_f64(gap);
            self.window_end = self.window_start + SimDuration::from_secs_f64(len);
        }
        (self.window_start, self.window_end)
    }
}

/// The realistic-availability generator the volunteer pool consults in
/// place of its flat exponential draws.
#[derive(Debug, Serialize, Deserialize)]
pub struct ChurnModel {
    config: ChurnConfig,
    /// Baseline burst/gap means inherited from [`crate::boinc::BoincConfig`]
    /// (the rhythm modulates these).
    mean_on_hours: f64,
    mean_off_hours: f64,
    hosts: Vec<HostChurn>,
    sites: Vec<SiteChurn>,
    /// Availability flips produced (scheduled waits handed out).
    pub flips: u64,
    /// Hosts permanently detached by lifetime decay.
    pub deaths: u64,
    /// On-periods truncated by a correlated site outage.
    pub outage_truncations: u64,
}

impl ChurnModel {
    /// Build the model for `num_hosts` volunteers. `rng` must be a
    /// dedicated fork; per-host and per-site streams are forked off it by
    /// index, so timelines are stable under any event interleaving.
    ///
    /// # Panics
    /// Panics if `config` fails [`ChurnConfig::validate`] or the baseline
    /// means are not finite and positive (callers validate first; see
    /// [`crate::boinc::BoincConfig::validate`]).
    pub fn new(
        config: ChurnConfig,
        mean_on_hours: f64,
        mean_off_hours: f64,
        num_hosts: usize,
        rng: SimRng,
    ) -> ChurnModel {
        if let Err(e) = config.validate() {
            panic!("invalid ChurnConfig: {e}");
        }
        assert!(
            mean_on_hours.is_finite()
                && mean_on_hours > 0.0
                && mean_off_hours.is_finite()
                && mean_off_hours > 0.0,
            "churn baseline means must be finite and positive"
        );
        let num_sites = config.site_outages.map_or(0, |s| s.sites);
        let trace_len = config.trace.as_ref().map(|t| t.gaps_hours.len());
        let hosts = (0..num_hosts)
            .map(|i| {
                let mut host_rng = rng.fork_idx("host", i as u64);
                let death_at = config.lifetime_half_life_hours.map(|half_life| {
                    // Exponential decay with the requested half-life:
                    // mean lifetime = half-life / ln 2.
                    let mean = half_life / std::f64::consts::LN_2 * 3600.0;
                    SimTime::ZERO + SimDuration::from_secs_f64(host_rng.exponential(mean))
                });
                let trace_pos = trace_len.map_or(0, |len| host_rng.index(len));
                HostChurn {
                    rng: host_rng,
                    site: if num_sites > 0 { i % num_sites } else { 0 },
                    death_at,
                    dead: false,
                    trace_pos,
                }
            })
            .collect();
        let sites = (0..num_sites)
            .map(|s| SiteChurn {
                rng: rng.fork_idx("site", s as u64),
                window_start: SimTime::ZERO,
                window_end: SimTime::ZERO,
            })
            .collect();
        ChurnModel {
            config,
            mean_on_hours,
            mean_off_hours,
            hosts,
            sites,
            flips: 0,
            deaths: 0,
            outage_truncations: 0,
        }
    }

    /// The diurnal/weekly availability multiplier at `now`, floored at
    /// [`RHYTHM_FLOOR`].
    fn rhythm(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        let hour = (secs / 3600.0) % 24.0;
        let day = ((secs / 86_400.0) as u64) % 7; // clock starts Monday 00:00
        let mut factor = 1.0
            + self.config.diurnal_amplitude
                * ((hour - self.config.peak_hour) * std::f64::consts::TAU / 24.0).cos();
        if day >= 5 {
            factor *= self.config.weekend_factor;
        }
        factor.max(RHYTHM_FLOOR)
    }

    /// Initial availability and first-flip wait for `host` at time zero.
    pub fn initial_state(&mut self, host: usize) -> (bool, SimDuration) {
        let available = if let Some(trace) = &self.config.trace {
            // Even trace positions are on-gaps.
            let _ = trace;
            self.hosts[host].trace_pos.is_multiple_of(2)
        } else {
            // Stationary start, weighted by the rhythm at time zero.
            let r = self.rhythm(SimTime::ZERO);
            let on = self.mean_on_hours * r;
            let off = self.mean_off_hours / r;
            self.hosts[host].rng.chance(on / (on + off))
        };
        let wait = self
            .wait_from(host, SimTime::ZERO, available)
            .expect("hosts cannot be dead at time zero");
        (available, wait)
    }

    /// The host just flipped to `available` at `now`: the wait until its
    /// next flip, or `None` when the host has permanently detached (no
    /// further flip is scheduled — the `nodes_decay` exit).
    pub fn next_wait(&mut self, host: usize, now: SimTime, available: bool) -> Option<SimDuration> {
        self.flips += 1;
        self.wait_from(host, now, available)
    }

    fn wait_from(&mut self, host: usize, now: SimTime, available: bool) -> Option<SimDuration> {
        if self.hosts[host].dead {
            return None;
        }
        // Permanent detach: a host that goes (or is) offline at/after its
        // death time never comes back.
        if !available {
            if let Some(death) = self.hosts[host].death_at {
                if death <= now {
                    self.hosts[host].dead = true;
                    self.deaths += 1;
                    return None;
                }
            }
        }
        let mut wait_secs = if let Some(trace) = &self.config.trace {
            let pos = self.hosts[host].trace_pos;
            let gap = trace.gaps_hours[pos % trace.gaps_hours.len()];
            self.hosts[host].trace_pos = (pos + 1) % (trace.gaps_hours.len() * 2);
            gap * 3600.0
        } else {
            let r = self.rhythm(now);
            let mean = if available {
                self.mean_on_hours * r
            } else {
                self.mean_off_hours / r
            };
            self.hosts[host].rng.exponential(mean * 3600.0)
        };
        if self.config.trace.is_none() {
            if available {
                // Truncate the on-period at a correlated site outage …
                if let Some(cfg) = self.config.site_outages {
                    let site = self.hosts[host].site;
                    let (start, _) = self.sites[site].window(now, &cfg);
                    let until = start.saturating_since(now).as_secs_f64();
                    if until < wait_secs {
                        wait_secs = until;
                        self.outage_truncations += 1;
                    }
                }
                // … and at the host's permanent detach time.
                if let Some(death) = self.hosts[host].death_at {
                    let until = death.saturating_since(now).as_secs_f64();
                    if until < wait_secs {
                        wait_secs = until;
                    }
                }
            } else if let Some(cfg) = self.config.site_outages {
                // A gap ending inside an outage window extends to its end.
                let site = self.hosts[host].site;
                let (start, end) = self.sites[site].window(now, &cfg);
                let back_at = now + SimDuration::from_secs_f64(wait_secs.max(MIN_WAIT_SECONDS));
                if back_at >= start && back_at < end {
                    wait_secs = end.saturating_since(now).as_secs_f64();
                }
            }
        }
        Some(SimDuration::from_secs_f64(wait_secs.max(MIN_WAIT_SECONDS)))
    }

    /// Hosts permanently detached so far.
    pub fn dead_hosts(&self) -> usize {
        self.hosts.iter().filter(|h| h.dead).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(config: ChurnConfig) -> ChurnModel {
        ChurnModel::new(config, 10.0, 14.0, 8, SimRng::new(42).fork("churn"))
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let ok = ChurnConfig::realistic();
        assert_eq!(ok.validate(), Ok(()));
        let cases: Vec<(ChurnConfig, ChurnConfigError)> = vec![
            (
                ChurnConfig {
                    lifetime_half_life_hours: Some(0.0),
                    ..ok.clone()
                },
                ChurnConfigError::BadHalfLife(0.0),
            ),
            (
                ChurnConfig {
                    diurnal_amplitude: 1.5,
                    ..ok.clone()
                },
                ChurnConfigError::BadAmplitude(1.5),
            ),
            (
                ChurnConfig {
                    peak_hour: 24.0,
                    ..ok.clone()
                },
                ChurnConfigError::BadPeakHour(24.0),
            ),
            (
                ChurnConfig {
                    weekend_factor: -1.0,
                    ..ok.clone()
                },
                ChurnConfigError::BadWeekendFactor(-1.0),
            ),
            (
                ChurnConfig {
                    site_outages: Some(SiteOutageConfig {
                        sites: 0,
                        mean_interval_hours: 1.0,
                        mean_duration_hours: 1.0,
                    }),
                    ..ok.clone()
                },
                ChurnConfigError::NoSites,
            ),
            (
                ChurnConfig {
                    trace: Some(ChurnTrace { gaps_hours: vec![] }),
                    ..ok.clone()
                },
                ChurnConfigError::EmptyTrace,
            ),
            (
                ChurnConfig {
                    trace: Some(ChurnTrace {
                        gaps_hours: vec![1.0, f64::NAN],
                    }),
                    ..ok.clone()
                },
                ChurnConfigError::BadTraceGap(f64::NAN),
            ),
        ];
        for (config, want) in cases {
            match (config.validate(), want) {
                (Err(ChurnConfigError::BadTraceGap(v)), ChurnConfigError::BadTraceGap(w)) => {
                    assert!(v.is_nan() && w.is_nan());
                }
                (got, want) => assert_eq!(got, Err(want)),
            }
        }
    }

    #[test]
    fn rhythm_peaks_at_peak_hour_and_sags_on_weekends() {
        let m = model(ChurnConfig {
            lifetime_half_life_hours: None,
            diurnal_amplitude: 0.5,
            peak_hour: 14.0,
            weekend_factor: 0.5,
            site_outages: None,
            trace: None,
        });
        let peak = m.rhythm(SimTime::from_hours(14));
        let trough = m.rhythm(SimTime::from_hours(2));
        assert!((peak - 1.5).abs() < 1e-9, "peak {peak}");
        assert!(trough < 0.6, "trough {trough}");
        // Saturday 14:00 (day 5) halves the peak.
        let weekend = m.rhythm(SimTime::from_hours(5 * 24 + 14));
        assert!((weekend - 0.75).abs() < 1e-9, "weekend {weekend}");
    }

    #[test]
    fn lifetime_decay_kills_hosts_permanently() {
        let mut m = ChurnModel::new(
            ChurnConfig {
                lifetime_half_life_hours: Some(1e-3), // die almost immediately
                diurnal_amplitude: 0.0,
                peak_hour: 0.0,
                weekend_factor: 1.0,
                site_outages: None,
                trace: None,
            },
            10.0,
            14.0,
            4,
            SimRng::new(7).fork("churn"),
        );
        // Walk each host's timeline: every one must die (return None) and
        // stay dead.
        for host in 0..4 {
            let (mut available, mut wait) = m.initial_state(host);
            let mut now = SimTime::ZERO + wait;
            let mut steps = 0;
            loop {
                available = !available;
                match m.next_wait(host, now, available) {
                    Some(w) => {
                        wait = w;
                        now += wait;
                    }
                    None => break,
                }
                steps += 1;
                assert!(steps < 10_000, "host {host} never died");
            }
            assert!(m.next_wait(host, now, false).is_none(), "death is final");
        }
        assert_eq!(m.dead_hosts(), 4);
        assert_eq!(m.deaths, 4);
    }

    #[test]
    fn trace_replay_is_deterministic_and_cyclic() {
        let trace = ChurnTrace {
            gaps_hours: vec![2.0, 1.0, 4.0, 3.0],
        };
        let config = ChurnConfig {
            lifetime_half_life_hours: None,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            weekend_factor: 1.0,
            site_outages: None,
            trace: Some(trace),
        };
        let mut a = model(config.clone());
        let mut b = model(config);
        for host in 0..8 {
            let (av_a, w_a) = a.initial_state(host);
            let (av_b, w_b) = b.initial_state(host);
            assert_eq!(av_a, av_b);
            assert_eq!(w_a, w_b);
            let mut now = SimTime::ZERO + w_a;
            let mut avail = av_a;
            for _ in 0..16 {
                avail = !avail;
                let wa = a.next_wait(host, now, avail).unwrap();
                let wb = b.next_wait(host, now, avail).unwrap();
                assert_eq!(wa, wb, "same seed must replay identically");
                // Every wait is exactly one of the trace gaps.
                let hours = wa.as_secs_f64() / 3600.0;
                assert!(
                    [2.0, 1.0, 4.0, 3.0]
                        .iter()
                        .any(|g| (g - hours).abs() < 1e-9),
                    "wait {hours}h is not a trace gap"
                );
                now += wa;
            }
        }
    }

    #[test]
    fn site_outage_truncates_on_periods() {
        let mut m = ChurnModel::new(
            ChurnConfig {
                lifetime_half_life_hours: None,
                diurnal_amplitude: 0.0,
                peak_hour: 0.0,
                weekend_factor: 1.0,
                site_outages: Some(SiteOutageConfig {
                    sites: 1,
                    mean_interval_hours: 0.5, // outages arrive constantly
                    mean_duration_hours: 2.0,
                }),
                trace: None,
            },
            1e6, // on-periods so long every one crosses an outage
            1.0,
            4,
            SimRng::new(11).fork("churn"),
        );
        for host in 0..4 {
            let _ = m.initial_state(host);
            m.next_wait(host, SimTime::from_hours(1), true);
        }
        assert!(
            m.outage_truncations > 0,
            "long on-periods must hit an outage window"
        );
    }

    #[test]
    fn serde_round_trips_mid_run() {
        let mut m = model(ChurnConfig::realistic());
        for host in 0..8 {
            let _ = m.initial_state(host);
        }
        let mut now = SimTime::ZERO;
        for step in 0..32 {
            now += SimDuration::from_hours(1);
            let _ = m.next_wait(step % 8, now, step % 2 == 0);
        }
        let json = serde_json::to_string(&m).unwrap();
        let mut restored: ChurnModel = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
        // Restored model continues identically.
        for step in 0..16u64 {
            now += SimDuration::from_hours(1);
            let host = (step % 8) as usize;
            assert_eq!(
                m.next_wait(host, now, step % 2 == 1),
                restored.next_wait(host, now, step % 2 == 1)
            );
        }
    }
}
