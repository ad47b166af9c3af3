//! E12 — deterministic fault injection + grid-level recovery policies.
//!
//! The paper's production grid survived campus outages, monitoring
//! partitions, degraded hosts, and garbage volunteer results through manual
//! operator intervention. This experiment replays those failure patterns as
//! scripted, seeded fault timelines (`gridsim::fault`) against the same
//! fixed campaign, with the grid-level recovery policy
//! (`gridsim::recovery`: exponential backoff + jitter, failure-rate
//! blacklisting, bounded retries with a dead-letter outcome, checkpoint
//! carry-over) switched ON and OFF.
//!
//! Every configuration is executed twice and its whole report, per-job
//! records included, asserted bit-identical (`bench::report_fnv`) — the
//! chaos campaign is replayable. Across scenarios, recovery ON must
//! dominate OFF: at least as many validly-completed jobs in every scenario
//! (strictly more in aggregate) and strictly less wasted CPU.

use bench::{
    checkpointable_campaign, env_usize, fault_grid, fmt_secs, header, report_fnv,
    write_grid_metrics, write_json, FLAKY_CONDOR, SITE_A,
};
use gridsim::boinc::BoincConfig;
use gridsim::fault::{self, FaultAction};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::recovery::RecoveryPolicy;
use gridsim::telemetry::TelemetryConfig;
use simkit::{FaultScript, SimDuration, SimRng, SimTime};

struct Scenario {
    name: &'static str,
    script: FaultScript<FaultAction>,
    /// The corruption scenario needs the volunteer pool attached.
    with_boinc: bool,
}

fn scenarios() -> Vec<Scenario> {
    let h = SimDuration::from_hours;
    // Two correlated site-wide outages: both site-a clusters drop together.
    let mut site = fault::site_outage(&SITE_A, SimTime::from_hours(4), h(8));
    site.merge(fault::site_outage(&SITE_A, SimTime::from_hours(20), h(6)));
    vec![
        Scenario {
            name: "site outage",
            script: site,
            with_boinc: false,
        },
        Scenario {
            name: "silent partition",
            script: fault::silent_partition(SITE_A[0], SimTime::from_hours(3), h(12)),
            with_boinc: false,
        },
        Scenario {
            name: "straggler",
            script: fault::straggler(FLAKY_CONDOR, SimTime::from_hours(2), 0.15, h(24)),
            with_boinc: false,
        },
        Scenario {
            name: "flapping",
            script: fault::flapping(
                FLAKY_CONDOR,
                SimTime::from_hours(2),
                40,
                SimDuration::from_mins(20),
                SimDuration::from_mins(40),
            ),
            with_boinc: false,
        },
        Scenario {
            name: "boinc corruption",
            script: fault::boinc_corruption(0.25, SimTime::ZERO, h(72)),
            with_boinc: true,
        },
    ]
}

/// One scenario arm. The full [`GridReport`] is embedded verbatim in the
/// JSON artifact (no hand-copied fields); display/assert values below are
/// derived from it.
#[derive(serde::Serialize)]
struct Row {
    scenario: String,
    recovery: bool,
    report: GridReport,
}

impl Row {
    fn valid_completed(&self) -> usize {
        self.report.completed - self.report.corrupt_completions
    }

    fn wasted_cpu_hours(&self) -> f64 {
        self.report.wasted_cpu_seconds / 3600.0
    }

    fn useful_cpu_hours(&self) -> f64 {
        self.report.useful_cpu_seconds / 3600.0
    }

    fn makespan_hours(&self) -> f64 {
        self.report.makespan_seconds.unwrap_or(0.0) / 3600.0
    }
}

/// One arm on the fault grid; the corruption arm runs quorum 2 with
/// recovery on and quorum 1 without. An observed run has telemetry and the
/// profiler on.
fn run_once(sc: &Scenario, recovery: bool, n_jobs: usize, seed: u64, observed: bool) -> Grid {
    let mut grid = Grid::new(GridConfig {
        boinc: sc.with_boinc.then(|| BoincConfig {
            quorum: if recovery { 2 } else { 1 },
            ..Default::default()
        }),
        recovery: recovery.then(RecoveryPolicy::default),
        telemetry: observed.then(TelemetryConfig::default),
        ..fault_grid(seed)
    });
    if observed {
        grid.enable_profiling();
    }
    grid.inject_faults(sc.script.clone());
    let mut wrng = SimRng::new(seed ^ 0xE12);
    grid.submit(checkpointable_campaign(&mut wrng, n_jobs));
    grid.run_until_done(SimTime::from_days(30));
    grid
}

fn run(sc: &Scenario, recovery: bool, n_jobs: usize, seed: u64) -> Row {
    let report = run_once(sc, recovery, n_jobs, seed, false).report();
    let replay = run_once(sc, recovery, n_jobs, seed, false).report();
    assert_eq!(
        report_fnv(&report),
        report_fnv(&replay),
        "chaos run must replay bit-identically ({}, recovery={recovery})",
        sc.name
    );
    Row {
        scenario: sc.name.to_string(),
        recovery,
        report,
    }
}

fn main() {
    let n_jobs = env_usize("LATTICE_E12_JOBS", 150);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    header("E12 — fault injection + recovery policies (each run replayed twice, bit-identical)");
    println!(
        "campaign: {n_jobs} checkpointable 2-6h jobs; policies: backoff+jitter, blacklist, \
         dead-letter, checkpoint carry; corruption arm: quorum 2 (on) vs 1 (off)"
    );
    println!(
        "\n{:<18} {:<9} {:>11} {:>8} {:>6} {:>9} {:>11} {:>11} {:>10}",
        "scenario",
        "recovery",
        "valid done",
        "corrupt",
        "dead",
        "reissues",
        "wasted CPU",
        "useful CPU",
        "makespan"
    );

    let mut rows: Vec<Row> = Vec::new();
    for sc in scenarios() {
        for recovery in [false, true] {
            let row = run(&sc, recovery, n_jobs, seed);
            println!(
                "{:<18} {:<9} {:>7}/{:<3} {:>8} {:>6} {:>9} {:>10.0}h {:>10.0}h {:>10}",
                row.scenario,
                if row.recovery { "ON" } else { "off" },
                row.valid_completed(),
                row.report.total_jobs,
                row.report.corrupt_completions,
                row.report.dead_lettered,
                row.report.total_reissues,
                row.wasted_cpu_hours(),
                row.useful_cpu_hours(),
                fmt_secs(row.makespan_hours() * 3600.0)
            );
            rows.push(row);
        }
    }

    // Dominance: every scenario — and the aggregate — must be a strict
    // Pareto improvement: never worse on valid completions, strictly better
    // on completions or waste. (The corruption scenario pays redundancy CPU
    // to buy back correctness, and a small LATTICE_E12_JOBS campaign may see
    // no corrupt result slip past quorum 1, tying the completion axis.)
    let mut agg_valid = (0usize, 0usize); // (off, on)
    let mut agg_waste = (0.0f64, 0.0f64);
    for pair in rows.chunks(2) {
        let (off, on) = (&pair[0], &pair[1]);
        assert!(
            on.valid_completed() >= off.valid_completed(),
            "{}: recovery ON completed less valid work ({} < {})",
            on.scenario,
            on.valid_completed(),
            off.valid_completed()
        );
        assert!(
            on.valid_completed() > off.valid_completed()
                || on.wasted_cpu_hours() < off.wasted_cpu_hours(),
            "{}: recovery ON is not a strict improvement (valid {} vs {}, waste {:.1}h vs {:.1}h)",
            on.scenario,
            on.valid_completed(),
            off.valid_completed(),
            on.wasted_cpu_hours(),
            off.wasted_cpu_hours()
        );
        agg_valid = (
            agg_valid.0 + off.valid_completed(),
            agg_valid.1 + on.valid_completed(),
        );
        agg_waste = (
            agg_waste.0 + off.wasted_cpu_hours(),
            agg_waste.1 + on.wasted_cpu_hours(),
        );
    }
    assert!(
        agg_valid.1 >= agg_valid.0,
        "aggregate valid completions must never regress"
    );
    assert!(
        agg_valid.1 > agg_valid.0 || agg_waste.1 < agg_waste.0,
        "aggregate must strictly improve on completions or waste"
    );
    println!(
        "\nrecovery ON dominates: valid completions {} -> {}, wasted CPU {:.0}h -> {:.0}h",
        agg_valid.0, agg_valid.1, agg_waste.0, agg_waste.1
    );

    // Observability arm: replay the first scenario's recovery-ON run with
    // telemetry enabled. Outcomes must be untouched; the snapshot becomes
    // the experiment's metrics artifact.
    let first = &scenarios()[0];
    let observed = run_once(first, true, n_jobs, seed, true);
    assert_eq!(
        report_fnv(&observed.report()),
        report_fnv(&rows[1].report),
        "telemetry must not change outcomes ({})",
        first.name
    );
    write_grid_metrics("e12_fault_tolerance", &observed);
    println!("telemetry replay: outcomes identical with telemetry enabled");

    write_json("e12_fault_tolerance", &rows);
}
