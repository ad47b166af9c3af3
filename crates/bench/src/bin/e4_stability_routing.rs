//! E4 — §V.A / §VI.A: stability-aware routing with a-priori runtime
//! estimates.
//!
//! "Having accurate GARLI runtimes in advance … prevents long-running jobs
//! from ending up on a resource where they do not have a chance of
//! completing." We submit a mixed workload (many short jobs + a tail of
//! multi-day jobs) to a grid with a big, fast-but-unstable Condor pool and
//! a small stable cluster, and compare four policies:
//!
//!   1. estimates ON,  speed scaling ON   (the paper's production system)
//!   2. estimates ON,  speed scaling OFF  (ablation: naive ranking)
//!   3. estimates OFF                     (the pre-ML system)
//!   4. estimates ON, cutoff sweep        (the n = 10 h threshold ablation)
//!
//! Expected shape: the estimator-on rows complete everything with near-zero
//! wasted CPU; the estimator-off row burns CPU on evicted long jobs.

use bench::{env_f64, env_usize, fmt_secs, header, write_grid_metrics, write_json};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::scheduler::SchedulerPolicy;
use gridsim::telemetry::TelemetryConfig;
use simkit::{SimDuration, SimRng, SimTime};

/// Build the mixed workload: short jobs (minutes–hours) + long tail (1–4
/// days). Estimates, when attached, carry RF-quality noise.
fn workload(
    n_short: usize,
    n_long: usize,
    with_estimates: bool,
    est_noise_sigma: f64,
    rng: &mut SimRng,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut id = 0;
    for _ in 0..n_short {
        let true_secs = rng.lognormal(8.0, 0.8); // median ~50 min
        let mut j = JobSpec::simple(id, true_secs);
        if with_estimates {
            j = j.with_estimate(true_secs * rng.lognormal(0.0, est_noise_sigma));
        }
        jobs.push(j);
        id += 1;
    }
    for _ in 0..n_long {
        let true_secs = rng.range_f64(24.0, 96.0) * 3600.0; // 1–4 days
        let mut j = JobSpec::simple(id, true_secs);
        if with_estimates {
            j = j.with_estimate(true_secs * rng.lognormal(0.0, est_noise_sigma));
        }
        jobs.push(j);
        id += 1;
    }
    jobs
}

fn grid_config(policy: SchedulerPolicy, seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![
            // Big, fast, unstable: the attractive trap.
            ResourceSpec::condor_pool("condor", 150, 1.5, 5.0),
            // Small, stable cluster: the only safe home for long jobs.
            ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 24, 1.0),
        ],
        policy,
        seed,
        ..Default::default()
    }
}

/// One policy arm; the full [`GridReport`] rides along verbatim in the JSON
/// artifact, and the display values below are derived from it.
#[derive(serde::Serialize)]
struct Row {
    policy: String,
    report: GridReport,
}

impl Row {
    fn long_completed(&self, n_short: usize) -> usize {
        self.report
            .records
            .iter()
            .filter(|r| {
                r.spec.id.0 >= n_short as u64 && r.outcome == gridsim::job::JobOutcome::Completed
            })
            .count()
    }

    fn wasted_cpu_hours(&self) -> f64 {
        self.report.wasted_cpu_seconds / 3600.0
    }

    fn useful_cpu_hours(&self) -> f64 {
        self.report.useful_cpu_seconds / 3600.0
    }

    fn makespan_secs(&self) -> f64 {
        self.report.makespan_seconds.unwrap_or(0.0)
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    label: &str,
    policy: SchedulerPolicy,
    with_estimates: bool,
    n_short: usize,
    n_long: usize,
    noise: f64,
    seed: u64,
    telemetry: bool,
) -> Row {
    let mut rng = SimRng::new(seed);
    let jobs = workload(n_short, n_long, with_estimates, noise, &mut rng);
    let mut config = grid_config(policy, seed);
    if telemetry {
        config.telemetry = Some(TelemetryConfig::default());
    }
    let mut grid = Grid::new(config);
    if telemetry {
        grid.enable_profiling();
    }
    grid.submit(jobs);
    let report = grid.run_until_done(SimTime::from_days(45));
    if telemetry {
        write_grid_metrics("e4_stability_routing", &grid);
    }
    Row {
        policy: label.to_string(),
        report,
    }
}

fn main() {
    let n_short = env_usize("LATTICE_SHORT_JOBS", 300);
    let n_long = env_usize("LATTICE_LONG_JOBS", 24);
    let noise = env_f64("LATTICE_EST_NOISE", 0.25);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    header("E4 — stability routing (big unstable Condor pool + small stable cluster)");
    println!(
        "workload: {n_short} short jobs + {n_long} long (1–4 day) jobs; estimate noise σ = {noise}"
    );
    println!(
        "\n{:<34} {:>9} {:>10} {:>12} {:>12} {:>11}",
        "policy", "completed", "long done", "wasted CPU", "useful CPU", "makespan"
    );

    let mut rows = Vec::new();
    let base = SchedulerPolicy::default();
    for (label, policy, with_est) in [
        // The production row runs with telemetry enabled and writes the
        // experiment's metrics artifact (telemetry never changes outcomes;
        // asserted in gridsim's tests and in E12).
        ("estimates ON, speed scaling ON", base, true),
        (
            "estimates ON, speed scaling OFF",
            SchedulerPolicy {
                use_speed_scaling: false,
                ..base
            },
            true,
        ),
        (
            "estimates OFF (pre-ML system)",
            SchedulerPolicy {
                use_runtime_estimates: false,
                ..base
            },
            false,
        ),
    ] {
        let telemetry = rows.is_empty();
        let row = run(
            label, policy, with_est, n_short, n_long, noise, seed, telemetry,
        );
        println!(
            "{:<34} {:>5}/{:<3} {:>10} {:>11.0}h {:>11.0}h {:>11}",
            row.policy,
            row.report.completed,
            row.report.total_jobs,
            row.long_completed(n_short),
            row.wasted_cpu_hours(),
            row.useful_cpu_hours(),
            fmt_secs(row.makespan_secs())
        );
        rows.push(row);
    }

    header("cutoff sweep (estimates ON): unstable-resource threshold n");
    println!(
        "{:<14} {:>9} {:>12} {:>12}",
        "cutoff", "completed", "wasted CPU", "makespan"
    );
    for hours in [2u64, 5, 10, 20, 40] {
        let policy = SchedulerPolicy {
            unstable_cutoff: SimDuration::from_hours(hours),
            ..base
        };
        let row = run(
            &format!("n = {hours}h"),
            policy,
            true,
            n_short,
            n_long,
            noise,
            seed ^ hours,
            false,
        );
        println!(
            "{:<14} {:>5}/{:<3} {:>11.0}h {:>11}",
            row.policy,
            row.report.completed,
            row.report.total_jobs,
            row.wasted_cpu_hours(),
            fmt_secs(row.makespan_secs())
        );
        rows.push(row);
    }

    write_json("e4_stability_routing", &rows);
}
