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

use bench::{
    arm_regressions, env_usize, gate_baseline, header, throughput_drop, volunteer_pool,
    volunteer_workunits, write_baseline, write_json, write_metrics,
};
use gridsim::grid::{Grid, GridReport};
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
    let mut grid = Grid::new(volunteer_pool(hosts, seed));
    let mut rng = SimRng::new(seed ^ 0xE17);
    grid.submit(volunteer_workunits(&mut rng, 0, workunits as u64));
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
        arm_regressions(
            base,
            "trajectory",
            &summary.trajectory,
            |arm, old| serde::field(old, "hosts").ok() == Some(arm.hosts as u64),
            |arm, old| {
                Ok(throughput_drop(
                    &format!("{}-host arm", arm.hosts),
                    "dispatches/sec",
                    arm.dispatches_per_sec,
                    serde::field(old, "dispatches_per_sec")?,
                    0.20,
                ))
            },
        )
    }) {
        println!("[gate] dispatches/sec within 20% of committed baseline");
    }
    write_baseline(name, &summary);
    write_json(name, &summary);
    write_metrics(name, &summary);
}
