//! E7 — §II.B: "Our first grid computing system … completed a 15 CPU year
//! simulation study of phylogenetic bootstrap and posterior probability
//! values in just a few months."
//!
//! We replay a 15-CPU-year campaign (≈131 400 CPU-hours of embarrassingly
//! parallel jobs) on grids of growing size and report the makespan and the
//! parallel efficiency. The expected shape: makespan ∝ 1/slots until the
//! job-count granularity bites; a few hundred dedicated slots turn 15 years
//! into a few months, exactly the paper's anecdote.

use bench::{env_usize, fmt_secs, header, write_grid_metrics, write_json};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::telemetry::TelemetryConfig;
use simkit::{SimRng, SimTime};

/// One grid-size arm; the full [`GridReport`] is embedded verbatim in the
/// JSON artifact alongside the derived scaling figures.
#[derive(serde::Serialize)]
struct Row {
    slots: usize,
    speedup: f64,
    efficiency: f64,
    report: GridReport,
}

fn main() {
    let cpu_years = bench::env_f64("LATTICE_CPU_YEARS", 15.0);
    let job_hours = bench::env_f64("LATTICE_JOB_HOURS", 50.0);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    let total_hours = cpu_years * 365.25 * 24.0;
    let n_jobs = (total_hours / job_hours).round() as usize;

    header(&format!(
        "E7 — {cpu_years} CPU-years as {n_jobs} × {job_hours}h bootstrap jobs"
    ));
    println!(
        "{:>7} {:>10} {:>12} {:>10} {:>11}",
        "slots", "completed", "makespan", "speedup", "efficiency"
    );

    let mut rng = SimRng::new(seed);
    let sizes: Vec<f64> = (0..n_jobs)
        .map(|_| job_hours * 3600.0 * rng.lognormal(0.0, 0.15))
        .collect();
    let serial_seconds: f64 = sizes.iter().sum();

    let mut rows = Vec::new();
    for slots in [16usize, 64, 256, 1024, 4096] {
        // The few-hundred-slot arm (the paper's anecdote) runs observed and
        // writes the experiment's metrics artifact.
        let telemetry = slots == 256;
        let config = GridConfig {
            resources: vec![ResourceSpec::cluster(
                "grid",
                ResourceKind::PbsCluster,
                slots,
                1.0,
            )],
            telemetry: telemetry.then(TelemetryConfig::default),
            seed,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| JobSpec::simple(i as u64, s).with_estimate(s)),
        );
        let report = grid.run_until_done(SimTime::from_days(5000));
        if telemetry {
            write_grid_metrics("e7_cpu_years", &grid);
        }
        let makespan = report.makespan_seconds.unwrap();
        let speedup = serial_seconds / makespan;
        let row = Row {
            slots,
            speedup,
            efficiency: speedup / slots as f64,
            report,
        };
        println!(
            "{:>7} {:>10} {:>12} {:>9.0}x {:>10.1}%",
            row.slots,
            row.report.completed,
            fmt_secs(makespan),
            row.speedup,
            row.efficiency * 100.0
        );
        rows.push(row);
    }
    println!(
        "\nserial time: {} — the paper's \"few months\" corresponds to the few-hundred-slot rows",
        fmt_secs(serial_seconds)
    );
    write_json("e7_cpu_years", &rows);
}
