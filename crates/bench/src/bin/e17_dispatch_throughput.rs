//! E17 — dispatch-core throughput at paper scale.
//!
//! The paper's volunteer pool was 23,192 hosts. This experiment pushes the
//! dispatch core (the BOINC feeder's idle-host set + binary-heap event
//! calendar + slab-backed host/job state) along a host-count trajectory —
//! 1k / 10k / 23,192 / 100k volunteers with up to 1M workunits — and
//! records events/sec, dispatches/sec, and peak RSS per arm.
//!
//! The summary is committed at the workspace root as
//! `BENCH_e17_dispatch_throughput.json` so later PRs show their perf delta.
//! With `E17_GATE=1` the run fails loudly when any trajectory arm's
//! dispatches/sec regresses more than 20% against that committed baseline
//! (CI runs the 1k/10k/23,192 trajectory, without the 100k arm, with the
//! gate on). The gate counts work handed out, not events: how many events
//! a workunit costs is the calendar's business, and a change that
//! schedules fewer of them must not read as a regression. An arm whose run
//! takes under a second (the 1k arm runs in well under 0.1 s) is timed as
//! the median of five replays on fresh grids, so one scheduling hiccup
//! cannot move its rate by 20%; the replays must do identical work, and
//! the arm's memory is read after its first run.
//!
//! Knobs: `E17_MAX_HOSTS` caps the trajectory (default 100_000),
//! `E17_WU_PER_HOST` scales workunits per arm (default 10, so the 100k arm
//! carries 1M workunits), `E17_SEED`.

use bench::{env_usize, gate_baseline, header, write_baseline, write_json, write_metrics};
use gridsim::boinc::BoincConfig;
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use simkit::{SimRng, SimTime};
use std::time::Instant;

/// `VmHWM` (peak resident set, cumulative over the process) and `VmRSS`
/// (current resident set) in bytes, from `/proc/self/status`. Arms run in
/// ascending size order, so each arm's high-water mark is its own.
fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .unwrap_or(0)
    };
    (field("VmHWM"), field("VmRSS"))
}

/// Short, estimated workunits: they pass the 10h stability cutoff for the
/// (unstable) volunteer pool and keep the simulated horizon in hours.
fn workload(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            let secs = rng.range_f64(900.0, 3600.0);
            JobSpec::simple(i as u64, secs).with_estimate(secs)
        })
        .collect()
}

fn pool_config(hosts: usize, seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: hosts,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

#[derive(serde::Serialize)]
struct Arm {
    hosts: usize,
    workunits: usize,
    wall_seconds: f64,
    events: u64,
    events_per_sec: f64,
    /// Grid-level dispatches + BOINC reissues — every unit of work handed
    /// to a resource.
    dispatches: u64,
    dispatches_per_sec: f64,
    completed: usize,
    total_reissues: u32,
    /// Runs timed: 1, or [`REPLAYS`] for an arm shorter than
    /// [`SHORT_ARM_SECONDS`] (its wall time is then their median).
    timed_runs: usize,
    peak_rss_bytes: u64,
    current_rss_bytes: u64,
}

/// Arms whose single run is shorter than this many seconds are timed as
/// the median of [`REPLAYS`] runs.
const SHORT_ARM_SECONDS: f64 = 1.0;
/// Runs of a short arm.
const REPLAYS: usize = 5;

/// One run of an arm on a fresh grid: wall seconds, events, report, and
/// (peak, current) RSS with the grid still alive.
fn run_once(hosts: usize, workunits: usize, seed: u64) -> (f64, u64, GridReport, (u64, u64)) {
    let mut grid = Grid::new(pool_config(hosts, seed));
    grid.submit(workload(workunits, seed ^ 0xE17));
    let started = Instant::now();
    let report = grid.run_until_done(SimTime::from_days(120));
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    (wall, grid.events_processed(), report, rss_bytes())
}

fn run_arm(hosts: usize, workunits: usize, seed: u64) -> Arm {
    // Memory comes from the first run: replays raise the high-water mark.
    let (first_wall, events, report, (peak, current)) = run_once(hosts, workunits, seed);
    assert_eq!(
        report.completed, workunits,
        "{hosts}-host arm left {} workunits unfinished",
        report.unfinished
    );
    let mut walls = vec![first_wall];
    if first_wall < SHORT_ARM_SECONDS {
        for _ in 1..REPLAYS {
            let (wall, replay_events, replay, _) = run_once(hosts, workunits, seed);
            assert_eq!(
                (replay.completed, replay.total_reissues, replay_events),
                (report.completed, report.total_reissues, events),
                "{hosts}-host replay did different work (completions, reissues, events)"
            );
            walls.push(wall);
        }
    }
    walls.sort_by(f64::total_cmp);
    let wall = walls[walls.len() / 2];
    let dispatches = report.dispatches + report.total_reissues as u64;
    Arm {
        hosts,
        workunits,
        wall_seconds: wall,
        events,
        events_per_sec: events as f64 / wall,
        dispatches,
        dispatches_per_sec: dispatches as f64 / wall,
        completed: report.completed,
        total_reissues: report.total_reissues,
        timed_runs: walls.len(),
        peak_rss_bytes: peak,
        current_rss_bytes: current,
    }
}

#[derive(serde::Serialize)]
struct Summary {
    schema: &'static str,
    seed: u64,
    trajectory: Vec<Arm>,
}

fn print_arm(label: &str, a: &Arm) {
    println!(
        "{:<22} {:>8} {:>9} {:>9.2}s {:>12.0} {:>12.0} {:>9.0} MiB",
        label,
        a.hosts,
        a.workunits,
        a.wall_seconds,
        a.events_per_sec,
        a.dispatches_per_sec,
        a.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
}

/// Compare a fresh trajectory against the committed baseline; returns the
/// regression messages (empty = pass).
fn gate_regressions(baseline: &serde::Value, fresh: &[Arm]) -> Vec<String> {
    let fields = baseline.as_map().unwrap_or_default();
    let Ok(base): Result<Vec<serde::Value>, _> = serde::field(fields, "trajectory") else {
        return vec!["baseline has no trajectory".into()];
    };
    let mut failures = Vec::new();
    for old in &base {
        let Some(f) = old.as_map() else { continue };
        let (Ok(hosts), Ok(old_dps)): (Result<u64, _>, Result<f64, _>) = (
            serde::field(f, "hosts"),
            serde::field(f, "dispatches_per_sec"),
        ) else {
            continue;
        };
        if let Some(new) = fresh.iter().find(|a| a.hosts as u64 == hosts) {
            if new.dispatches_per_sec < 0.8 * old_dps {
                failures.push(format!(
                    "{hosts}-host arm regressed: {:.0} dispatches/sec vs baseline {:.0} (>20% drop)",
                    new.dispatches_per_sec, old_dps
                ));
            }
        }
    }
    failures
}

fn main() {
    let max_hosts = env_usize("E17_MAX_HOSTS", 100_000);
    let wu_per_host = env_usize("E17_WU_PER_HOST", 10);
    let seed = env_usize("E17_SEED", 2011) as u64;

    header("E17 — dispatch-core throughput: 1k → 100k volunteer hosts");
    println!(
        "{:<22} {:>8} {:>9} {:>10} {:>12} {:>12} {:>13}",
        "arm", "hosts", "wu", "wall", "events/s", "dispatch/s", "peak RSS"
    );

    // Ascending order: VmHWM is cumulative, so each arm sets its own peak.
    let mut trajectory = Vec::new();
    for hosts in [1_000usize, 10_000, 23_192, 100_000] {
        if hosts > max_hosts {
            println!("(skipping {hosts}-host arm: E17_MAX_HOSTS={max_hosts})");
            continue;
        }
        let arm = run_arm(hosts, hosts * wu_per_host, seed);
        print_arm("trajectory", &arm);
        trajectory.push(arm);
    }

    let summary = Summary {
        schema: "e17_dispatch_throughput/v1",
        seed,
        trajectory,
    };

    // Regression gate against the committed baseline (before overwriting).
    let name = "e17_dispatch_throughput";
    if gate_baseline(name, "E17_GATE", |base| {
        gate_regressions(base, &summary.trajectory)
    }) {
        println!("[gate] dispatches/sec within 20% of committed baseline");
    }
    write_baseline(name, &summary);
    write_json(name, &summary);
    write_metrics(name, &summary);
}
