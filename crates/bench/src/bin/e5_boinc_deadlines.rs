//! E5 — §VI.A benefit (b): programmatic BOINC workunit deadlines from
//! runtime estimates.
//!
//! "We can programmatically specify reasonable workunit deadlines, which
//! are needed on a volunteer computing platform to periodically reissue
//! work if results are not received in a timely manner. To date, we have
//! had to fill in this value manually for each batch."
//!
//! We push a batch of mixed-size workunits through a churny volunteer pool
//! under (a) fixed manual deadlines of several lengths and (b)
//! estimate-scaled deadlines, and measure batch makespan, reissues, and
//! wasted volunteer CPU. Measured shape (the committed
//! `bench_results/e5_boinc_deadlines_output.txt`): the 1-day deadline
//! thrashes (reissue storms) and the 21-day one stalls the batch, but the
//! estimate-scaled deadlines do not dominate. Fixed 3 days has the best
//! makespan and fixed 7 days the least waste, and every estimate-scaled
//! arm leaves one long workunit without a result at the 90-day cutoff.

use bench::{env_f64, env_usize, fmt_secs, header, write_grid_metrics, write_json};
use gridsim::boinc::{BoincConfig, DeadlinePolicy};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::telemetry::TelemetryConfig;
use simkit::{SimDuration, SimRng, SimTime};

fn workload(n: usize, noise: f64, rng: &mut SimRng) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            // Heavy-tailed mix: ~10 min – ~100 h. No single fixed deadline
            // fits both ends — the situation that forced manual per-batch
            // deadlines in the paper.
            let true_secs = rng.lognormal(9.0, 1.3);
            let mut j = JobSpec::simple(i as u64, true_secs);
            j.checkpointable = true;
            j.with_estimate(true_secs * rng.lognormal(0.0, noise))
        })
        .collect()
}

/// One deadline-policy arm; the full [`GridReport`] is embedded verbatim in
/// the JSON artifact and display values are derived from it.
#[derive(serde::Serialize)]
struct Row {
    policy: String,
    report: GridReport,
}

/// One arm; an observed arm runs with telemetry and the profiler on and
/// writes the experiment's metrics artifact.
fn run(
    label: &str,
    deadline: DeadlinePolicy,
    n: usize,
    noise: f64,
    seed: u64,
    telemetry: bool,
) -> Row {
    let mut rng = SimRng::new(seed);
    let jobs = workload(n, noise, &mut rng);
    let config = GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: 300,
            mean_on_hours: 8.0,
            mean_off_hours: 16.0,
            abandon_probability: 0.08,
            deadline,
            ..Default::default()
        }),
        // This experiment isolates *deadline* behaviour: disable the
        // grid-level stability cutoff so every job reaches the pool (E4
        // studies the cutoff itself).
        policy: gridsim::scheduler::SchedulerPolicy {
            unstable_cutoff: simkit::SimDuration::from_hours(1_000_000),
            ..Default::default()
        },
        telemetry: telemetry.then(TelemetryConfig::default),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    if telemetry {
        grid.enable_profiling();
    }
    grid.submit(jobs);
    let report = grid.run_until_done(SimTime::from_days(90));
    if telemetry {
        write_grid_metrics("e5_boinc_deadlines", &grid);
    }
    Row {
        policy: label.to_string(),
        report,
    }
}

fn main() {
    let n = env_usize("LATTICE_WORKUNITS", 400);
    let noise = env_f64("LATTICE_EST_NOISE", 0.25);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    header("E5 — BOINC workunit deadlines: manual-fixed vs estimate-scaled");
    println!("{n} workunits (~10min-100h), 300 volunteers (8h on / 16h off, 8% abandon)\n");
    println!(
        "{:<30} {:>9} {:>11} {:>9} {:>12} {:>12}",
        "deadline policy", "completed", "makespan", "reissues", "wasted CPU", "useful CPU"
    );

    let mut rows = Vec::new();
    let fixed = [
        (
            "fixed 1d (too tight)",
            DeadlinePolicy::Fixed(SimDuration::from_days(1)),
        ),
        ("fixed 3d", DeadlinePolicy::Fixed(SimDuration::from_days(3))),
        (
            "fixed 7d (manual default)",
            DeadlinePolicy::Fixed(SimDuration::from_days(7)),
        ),
        (
            "fixed 21d (too loose)",
            DeadlinePolicy::Fixed(SimDuration::from_days(21)),
        ),
    ];
    for (label, policy) in fixed {
        let row = run(label, policy, n, noise, seed, false);
        print_row(&row);
        rows.push(row);
    }
    // The volunteer pool computes ~1/3 of wall-clock time (8h on / 16h off),
    // so a deadline needs roughly 3x the pure-compute estimate per unit of
    // slack; the sweep brackets that.
    for slack in [6.0, 12.0, 24.0] {
        let policy = DeadlinePolicy::EstimateScaled {
            slack,
            min: SimDuration::from_hours(6),
            fallback: SimDuration::from_days(7),
        };
        // The recommended slack runs with telemetry on and emits the
        // experiment's metrics artifact.
        let row = run(
            &format!("estimate × {slack} (RF-driven)"),
            policy,
            n,
            noise,
            seed,
            slack == 12.0,
        );
        print_row(&row);
        rows.push(row);
    }

    println!("\n(estimate-scaled deadlines adapt per workunit; §VI.A)");
    write_json("e5_boinc_deadlines", &rows);
}

fn print_row(row: &Row) {
    println!(
        "{:<30} {:>5}/{:<3} {:>11} {:>9} {:>11.0}h {:>11.0}h",
        row.policy,
        row.report.completed,
        row.report.total_jobs,
        fmt_secs(row.report.makespan_seconds.unwrap_or(f64::NAN)),
        row.report.total_reissues,
        row.report.wasted_cpu_seconds / 3600.0,
        row.report.useful_cpu_seconds / 3600.0
    );
}
