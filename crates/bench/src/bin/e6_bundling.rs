//! E6 — §VI.A benefit (c): replicate bundling for very short jobs.
//!
//! "If we find that someone has submitted jobs that are very short, e.g. a
//! few minutes, we can ratchet up the number of search replicates each
//! individual GARLI job will perform. Otherwise … the overhead of
//! submitting each one independently substantially and negatively impacts
//! performance gains from parallelization."
//!
//! We push 1000 two-minute replicates through a cluster with 30 s
//! per-dispatch overhead at several bundle sizes (1 = the naive system,
//! "auto" = the estimate-driven policy) and measure makespan and the
//! overhead fraction.

use bench::{env_usize, fmt_secs, header, write_grid_metrics, write_json};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::telemetry::TelemetryConfig;
use lattice::bundling::BundlingPolicy;
use simkit::{SimRng, SimTime};

/// One bundle-size arm; the full [`GridReport`] is embedded verbatim in the
/// JSON artifact alongside the derived bundling figures.
#[derive(serde::Serialize)]
struct Row {
    bundle_size: usize,
    grid_jobs: usize,
    overhead_fraction: f64,
    report: GridReport,
}

fn run(bundle: usize, n_replicates: usize, rep_secs: f64, seed: u64, telemetry: bool) -> Row {
    let overhead = 30.0;
    let mut rng = SimRng::new(seed);
    // Pack replicates into jobs of `bundle`.
    let mut jobs = Vec::new();
    let mut id = 0u64;
    let mut left = n_replicates;
    while left > 0 {
        let k = bundle.min(left);
        let true_secs: f64 = (0..k).map(|_| rep_secs * rng.lognormal(0.0, 0.2)).sum();
        jobs.push(JobSpec::simple(id, true_secs).with_estimate(rep_secs * k as f64));
        id += 1;
        left -= k;
    }
    let grid_jobs = jobs.len();
    let config = GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            64,
            1.0,
        )],
        dispatch_overhead: simkit::SimDuration::from_secs_f64(overhead),
        telemetry: telemetry.then(TelemetryConfig::default),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    grid.submit(jobs);
    let report = grid.run_until_done(SimTime::from_days(30));
    assert_eq!(report.completed, grid_jobs, "all bundles must finish");
    if telemetry {
        write_grid_metrics("e6_bundling", &grid);
    }
    let compute_cpu = report.useful_cpu_seconds - grid_jobs as f64 * overhead;
    Row {
        bundle_size: bundle,
        grid_jobs,
        overhead_fraction: grid_jobs as f64 * overhead
            / (grid_jobs as f64 * overhead + compute_cpu),
        report,
    }
}

fn main() {
    let n = env_usize("LATTICE_REPLICATES", 1000);
    let rep_secs = bench::env_f64("LATTICE_REPLICATE_SECS", 120.0);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    header("E6 — replicate bundling for short jobs");
    println!("{n} replicates of ~{rep_secs}s each; 30s dispatch overhead; 64-slot cluster\n");

    let policy = BundlingPolicy::default();
    let auto = policy.bundle_size(rep_secs);
    println!("estimate-driven bundle size (5% overhead target): {auto}\n");

    println!(
        "{:<14} {:>10} {:>11} {:>12} {:>10}",
        "bundle", "grid jobs", "makespan", "total CPU", "overhead"
    );
    let mut rows = Vec::new();
    for bundle in [1usize, 2, 4, auto, 16, 64] {
        // The auto (estimate-driven) arm writes the metrics artifact.
        let row = run(bundle, n, rep_secs, seed ^ bundle as u64, bundle == auto);
        let label = if bundle == auto {
            format!("{bundle} (auto)")
        } else {
            bundle.to_string()
        };
        println!(
            "{:<14} {:>10} {:>11} {:>11.1}h {:>9.1}%",
            label,
            row.grid_jobs,
            fmt_secs(row.report.makespan_seconds.unwrap_or(0.0)),
            row.report.useful_cpu_seconds / 3600.0,
            row.overhead_fraction * 100.0
        );
        rows.push(row);
    }
    println!("\n(unbundled short jobs pay ~20% overhead; the auto policy caps it at 5%)");
    write_json("e6_bundling", &rows);
}
