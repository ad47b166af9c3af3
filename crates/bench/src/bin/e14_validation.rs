//! E14 — result validation & adaptive replication on the volunteer pool.
//!
//! The paper's BOINC back end used redundant computing to keep volunteer
//! results trustworthy: every workunit replicated, results compared, a
//! quorum of agreeing results required. Fixed replication buys safety with
//! duplicate compute — every workunit costs ~2× CPU. This experiment
//! sweeps a bad-host fraction across two replication policies of the
//! `quorum` engine:
//!
//! * **always-2** — fixed quorum-2 replication for every workunit;
//! * **adaptive** — hosts that build a clean reputation get replication 1
//!   with a 10% spot-check probability; untrusted hosts still face the
//!   full quorum; invalid results and timeouts dent reputation, and
//!   persistent cheaters are blacklisted out of the matchmaker.
//!
//! Measured per arm: wasted duplicate compute (results returned beyond one
//! per validated workunit), bad-result acceptance, and completion latency.
//! The headline: adaptive must cut duplicate compute by >= 40% at
//! equal-or-lower bad-result acceptance. Every arm is executed twice and
//! its whole report, validation snapshot and per-job records included,
//! asserted byte-identical (`bench::report_fnv`) — seeded replay.

use bench::{env_f64, env_usize, fmt_secs, header, report_fnv, write_grid_metrics, write_json};
use gridsim::boinc::BoincConfig;
use gridsim::fault;
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::telemetry::TelemetryConfig;
use gridsim::{ReplicationPolicy, TrustPolicy, ValidationConfig};
use simkit::{SimRng, SimTime};

fn policy_config(adaptive: bool, spot: f64) -> ValidationConfig {
    ValidationConfig {
        min_quorum: 2,
        policy: if adaptive {
            ReplicationPolicy::Adaptive {
                spot_check_probability: spot,
            }
        } else {
            ReplicationPolicy::Always
        },
        // A short clean track record earns trust; both arms share the
        // same reputation rules so only the replication policy differs.
        trust: TrustPolicy {
            min_validated: 3,
            ..TrustPolicy::default()
        },
        ..ValidationConfig::default()
    }
}

fn base_config(seed: u64, clients: usize, validation: ValidationConfig) -> GridConfig {
    GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: clients,
            mean_on_hours: 8.0,
            mean_off_hours: 4.0,
            abandon_probability: 0.02,
            ..Default::default()
        }),
        validation: Some(validation),
        seed,
        ..Default::default()
    }
}

/// The fixed campaign: a stream of 20-40 reference-minute workunits (GARLI
/// replicates), long enough for reputations to form mid-campaign.
fn workload(n: usize, rng: &mut SimRng) -> Vec<JobSpec> {
    (0..n as u64)
        .map(|id| {
            let secs = rng.range_f64(1200.0, 2400.0);
            JobSpec::simple(id, secs).with_estimate(secs)
        })
        .collect()
}

/// One arm. The full [`GridReport`] is embedded verbatim in the JSON
/// artifact; display/assert values are derived from it.
#[derive(serde::Serialize)]
struct Row {
    policy: &'static str,
    bad_fraction: f64,
    report: GridReport,
}

impl Row {
    fn snap(&self) -> &gridsim::ValidationSnapshot {
        self.report.validation.as_ref().expect("validation enabled")
    }

    /// Results returned beyond one per validated workunit — the CPU the
    /// replication policy spent on cross-checking.
    fn duplicate_results(&self) -> u64 {
        self.snap().results.saturating_sub(self.snap().completed)
    }

    fn bad_accepted(&self) -> u64 {
        self.snap().bad_accepted
    }

    fn latency_hours(&self) -> f64 {
        self.report.mean_turnaround_seconds / 3600.0
    }
}

/// One arm's grid, run to the end; an observed run has telemetry and the
/// profiler on.
fn run_once(
    adaptive: bool,
    spot: f64,
    bad_fraction: f64,
    n_jobs: usize,
    clients: usize,
    seed: u64,
    observed: bool,
) -> Grid {
    let mut grid = Grid::new(GridConfig {
        telemetry: observed.then(TelemetryConfig::default),
        ..base_config(seed, clients, policy_config(adaptive, spot))
    });
    if observed {
        grid.enable_profiling();
    }
    if bad_fraction > 0.0 {
        grid.inject_faults(fault::malicious_hosts(bad_fraction, SimTime::ZERO));
    }
    let mut wrng = SimRng::new(seed ^ 0xE14);
    grid.submit(workload(n_jobs, &mut wrng));
    let report = grid.run_until_done(SimTime::from_days(90));
    assert_eq!(report.unfinished, 0, "campaign must terminate: {report:?}");
    grid
}

fn run(
    adaptive: bool,
    spot: f64,
    bad_fraction: f64,
    n_jobs: usize,
    clients: usize,
    seed: u64,
) -> Row {
    let report = run_once(adaptive, spot, bad_fraction, n_jobs, clients, seed, false).report();
    let replay = run_once(adaptive, spot, bad_fraction, n_jobs, clients, seed, false).report();
    assert_eq!(
        report_fnv(&report),
        report_fnv(&replay),
        "seeded replay must reproduce the whole report byte-identically \
         (adaptive={adaptive}, bad={bad_fraction})"
    );
    Row {
        policy: if adaptive { "adaptive" } else { "always-2" },
        bad_fraction,
        report,
    }
}

fn main() {
    let n_jobs = env_usize("LATTICE_E14_JOBS", 400);
    let clients = env_usize("LATTICE_E14_CLIENTS", 60);
    let spot = env_f64("LATTICE_E14_SPOT", 0.10);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;
    let fractions = [0.0, 0.10, 0.25];

    header(
        "E14 — result validation & adaptive replication (each arm replayed twice, bit-identical)",
    );
    println!(
        "campaign: {n_jobs} workunits on {clients} volunteers; policies: fixed quorum-2 vs \
         reputation-adaptive (trust after 3 clean results, {:.0}% spot checks)",
        spot * 100.0
    );
    println!(
        "\n{:<10} {:<9} {:>9} {:>10} {:>8} {:>7} {:>9} {:>9} {:>9} {:>10}",
        "policy",
        "bad-frac",
        "validated",
        "dup-results",
        "bad-acc",
        "dead",
        "trusted",
        "blacklist",
        "spot-chk",
        "latency"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &frac in &fractions {
        for adaptive in [false, true] {
            let row = run(adaptive, spot, frac, n_jobs, clients, seed);
            let s = row.snap();
            println!(
                "{:<10} {:<9} {:>6}/{:<3} {:>10} {:>8} {:>7} {:>9} {:>9} {:>9} {:>10}",
                row.policy,
                format!("{:.0}%", row.bad_fraction * 100.0),
                s.completed,
                s.workunits,
                row.duplicate_results(),
                row.bad_accepted(),
                row.report.dead_lettered,
                s.trusted_hosts,
                s.blacklisted_hosts,
                s.spot_checks,
                fmt_secs(row.latency_hours() * 3600.0)
            );
            rows.push(row);
        }
    }

    // Headline: at every bad-host fraction, adaptive replication must cut
    // duplicate compute by >= 40% without accepting more bad results than
    // fixed quorum-2.
    for pair in rows.chunks(2) {
        let (always, adaptive) = (&pair[0], &pair[1]);
        let cut = 1.0 - adaptive.duplicate_results() as f64 / always.duplicate_results() as f64;
        assert!(
            adaptive.bad_accepted() <= always.bad_accepted(),
            "bad={}: adaptive accepted more bad results ({} > {})",
            always.bad_fraction,
            adaptive.bad_accepted(),
            always.bad_accepted()
        );
        assert!(
            cut >= 0.40,
            "bad={}: adaptive cut duplicate compute only {:.0}% ({} vs {})",
            always.bad_fraction,
            cut * 100.0,
            adaptive.duplicate_results(),
            always.duplicate_results()
        );
        println!(
            "bad {:>3.0}%: duplicate results {} -> {} ({:.0}% cut), bad accepted {} -> {}, \
             latency {} -> {}",
            always.bad_fraction * 100.0,
            always.duplicate_results(),
            adaptive.duplicate_results(),
            cut * 100.0,
            always.bad_accepted(),
            adaptive.bad_accepted(),
            fmt_secs(always.latency_hours() * 3600.0),
            fmt_secs(adaptive.latency_hours() * 3600.0)
        );
    }

    // Observability arm: replay the hardest adaptive arm with telemetry
    // enabled. Outcomes must be untouched; the snapshot (validation.*
    // counters, quorum-latency histogram, per-workunit validation events)
    // becomes the experiment's metrics artifact.
    let hardest = rows.last().expect("rows populated");
    let grid = run_once(
        true,
        spot,
        hardest.bad_fraction,
        n_jobs,
        clients,
        seed,
        true,
    );
    assert_eq!(
        report_fnv(&grid.report()),
        report_fnv(&hardest.report),
        "telemetry must not change outcomes"
    );
    let snapshot = write_grid_metrics("e14_validation", &grid);
    assert!(snapshot.metrics.counter("validation.completed") > 0);
    println!("telemetry replay: outcomes identical with telemetry enabled");

    write_json("e14_validation", &rows);
}
