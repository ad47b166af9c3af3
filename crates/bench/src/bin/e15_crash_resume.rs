//! E15 — crash-resume chaos validation of whole-grid checkpoint/restore.
//!
//! The paper's multi-month campaigns (15 CPU years across ~23k volunteer
//! hosts) only work because every layer survives interruption. This
//! experiment validates the coordinator-side half of that story: the
//! versioned, checksummed whole-grid snapshot (`simkit::snapshot` +
//! `gridsim`'s serde layer) and the `lattice` service mode built on it.
//!
//! For each of the E12/E13/E14-style configurations (fault-storm recovery,
//! data-plane staging, volunteer-result validation), the harness:
//!
//! 1. runs an uninterrupted baseline (replayed twice, bit-identical);
//! 2. kills the simulation at four adversarial points — after a scheduling
//!    pass with work in flight, inside a scripted outage window, mid
//!    stage-in transfer, mid quorum — by snapshotting to disk and dropping
//!    the grid;
//! 3. restores from the file, asserts conservation invariants (no job
//!    resurrected, no job lost, terminal outcomes frozen), resumes, and
//!    asserts the final report is **byte-identical** to the baseline;
//! 4. runs a corrupted-snapshot arm through the service mode: the current
//!    snapshot file is torn in half and the service must recover from the
//!    previous good generation without panicking — and still converge to
//!    the baseline bytes.
//!
//! Snapshot write/load costs land in `BENCH_e15_crash_resume.json` at the
//! workspace root; the full per-kill table in
//! `bench_results/e15_crash_resume.json`; a telemetry snapshot of the
//! observed arm in `bench_results/e15_crash_resume_metrics.json`.

use bench::{
    checkpointable_campaign, env_usize, fault_grid, header, report_fnv, results_dir,
    write_baseline, write_grid_metrics, write_json, FLAKY_CONDOR, SITE_A,
};
use gridsim::boinc::BoincConfig;
use gridsim::data::ObjectRef;
use gridsim::fault::{self, FaultAction};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::{JobOutcome, JobSpec};
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::telemetry::TelemetryConfig;
use gridsim::{DataConfig, ValidationConfig};
use lattice::service::{GridService, ResumeOutcome, ServiceConfig};
use simkit::{FaultScript, SimDuration, SimRng, SimTime, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

const DEADLINE: SimTime = SimTime::from_days(30);

/// One experiment configuration: a grid builder plus named kill points.
struct Config {
    name: &'static str,
    /// Sim-times at which the process is "killed" (snapshot + drop), each
    /// named for the activity it lands in the middle of.
    kills: Vec<(&'static str, SimTime)>,
    build: Box<dyn Fn() -> Grid>,
}

/// E12-style: fault storm + recovery policy (backoff, blacklist,
/// checkpoint carry). A site-wide outage covers hours 4–12.
fn faults_config(n_jobs: usize, seed: u64, telemetry: bool) -> Grid {
    let mut grid = Grid::new(GridConfig {
        telemetry: telemetry.then(TelemetryConfig::default),
        ..fault_grid(seed)
    });
    let mut script: FaultScript<FaultAction> =
        fault::site_outage(&SITE_A, SimTime::from_hours(4), SimDuration::from_hours(8));
    script.merge(fault::flapping(
        FLAKY_CONDOR,
        SimTime::from_hours(2),
        40,
        SimDuration::from_mins(20),
        SimDuration::from_mins(40),
    ));
    grid.inject_faults(script);
    let mut wrng = SimRng::new(seed ^ 0xE15);
    grid.submit(checkpointable_campaign(&mut wrng, n_jobs));
    grid
}

/// E13-style: data plane on, replicates sharing per-submission alignments,
/// so stage-in transfers and caches are live when the kill lands.
fn data_config(n_jobs: usize, seed: u64) -> Grid {
    let config = GridConfig {
        resources: vec![
            ResourceSpec::cluster("umd", ResourceKind::PbsCluster, 16, 1.2).with_site("umd"),
            ResourceSpec::cluster("bowie", ResourceKind::SgeCluster, 8, 1.0).with_site("bowie"),
        ],
        data: Some(DataConfig::default()),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    let mut wrng = SimRng::new(seed ^ 0xDA7A);
    grid.submit((0..n_jobs as u64).map(|id| {
        let submission = id / 4;
        let aln = ObjectRef::named(&format!("analysis-{submission}/alignment"), 48 << 20);
        let secs = wrng.range_f64(0.5, 2.0) * 3600.0;
        JobSpec::simple(id, secs)
            .with_estimate(secs)
            .with_input(aln)
            .with_input(ObjectRef::named(&format!("conf-{id}"), 1 << 20))
    }));
    grid
}

/// E14-style: volunteer pool under adaptive quorum validation, so host
/// reputations and half-validated workunits are live when the kill lands.
fn validation_config(n_jobs: usize, seed: u64) -> Grid {
    let config = GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: 60,
            mean_on_hours: 8.0,
            mean_off_hours: 4.0,
            abandon_probability: 0.02,
            ..Default::default()
        }),
        validation: Some(ValidationConfig::default()),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    let mut wrng = SimRng::new(seed ^ 0x14);
    grid.submit((0..n_jobs as u64).map(|id| {
        let secs = wrng.range_f64(1200.0, 2400.0);
        JobSpec::simple(id, secs).with_estimate(secs)
    }));
    grid
}

fn configs(n_jobs: usize, seed: u64) -> Vec<Config> {
    vec![
        Config {
            name: "e12-faults",
            kills: vec![
                ("mid-dispatch", SimTime::from_secs(61)),
                ("mid-backoff", SimTime::from_secs(9000)),
                ("inside-outage", SimTime::from_hours(6)),
                ("late-campaign", SimTime::from_hours(16)),
            ],
            build: Box::new(move || faults_config(n_jobs, seed, false)),
        },
        Config {
            name: "e13-data",
            kills: vec![
                ("mid-dispatch", SimTime::from_secs(61)),
                ("mid-transfer", SimTime::from_secs(95)),
                ("warm-caches", SimTime::from_hours(1)),
                ("late-campaign", SimTime::from_hours(3)),
            ],
            build: Box::new(move || data_config(n_jobs, seed)),
        },
        Config {
            name: "e14-validation",
            kills: vec![
                ("first-assignments", SimTime::from_secs(120)),
                ("mid-quorum", SimTime::from_secs(1800)),
                ("reputations-forming", SimTime::from_hours(2)),
                ("late-campaign", SimTime::from_hours(6)),
            ],
            build: Box::new(move || validation_config(n_jobs, seed)),
        },
    ]
}

/// Per-job terminal outcomes at an instant (the conservation ledger).
fn terminal_outcomes(report: &GridReport) -> BTreeMap<u64, JobOutcome> {
    report
        .records
        .iter()
        .filter(|r| r.outcome != JobOutcome::Unfinished)
        .map(|r| (r.spec.id.0, r.outcome))
        .collect()
}

// Wall-clock write/load costs deliberately stay out of KillRow: every
// bench_results/e*.json artifact is bit-identical across runs (the
// determinism probe), so the noisy timings live only in the printed
// table and the BENCH_e15_crash_resume.json summary.
#[derive(serde::Serialize)]
struct KillRow {
    config: &'static str,
    kill_point: &'static str,
    kill_at_secs: f64,
    jobs_terminal_at_kill: usize,
    snapshot_bytes: usize,
    bit_identical: bool,
}

#[derive(serde::Serialize)]
struct BenchSummary {
    experiment: &'static str,
    jobs_per_config: usize,
    seed: u64,
    mean_snapshot_bytes: u64,
    mean_write_micros: u64,
    mean_load_micros: u64,
    max_write_micros: u64,
    max_load_micros: u64,
    kills: usize,
}

fn main() {
    let n_jobs = env_usize("LATTICE_E15_JOBS", 60);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;
    let snap_dir = results_dir().join("e15_snapshots");
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");

    header("E15 — crash-resume chaos: kill + restore must match the uninterrupted bytes");
    println!(
        "configs: e12-faults / e13-data / e14-validation, {n_jobs} jobs each; \
         4 adversarial kill points per config"
    );
    println!(
        "\n{:<16} {:<20} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "config", "kill point", "t(kill)", "snap KB", "write µs", "load µs", "identical"
    );

    let mut rows: Vec<KillRow> = Vec::new();
    let mut costs: Vec<(u64, u64)> = Vec::new();
    for config in configs(n_jobs, seed) {
        // Uninterrupted baseline, replayed twice: chaos must be replayable
        // before kill+restore equality means anything.
        let mut grid = (config.build)();
        let baseline = grid.run_until_done(DEADLINE);
        let mut replay_grid = (config.build)();
        let replay = replay_grid.run_until_done(DEADLINE);
        assert_eq!(
            report_fnv(&baseline),
            report_fnv(&replay),
            "{}: baseline must replay bit-identically",
            config.name
        );
        let baseline_json = serde_json::to_string(&baseline).expect("report serializes");
        drop(grid);
        drop(replay_grid);

        for &(point, at) in &config.kills {
            let mut victim = (config.build)();
            victim.run_until(at);
            let ledger_at_kill = terminal_outcomes(&victim.report());
            let jobs_at_kill = victim.world().jobs_submitted();

            // Kill: persist the envelope, then drop the process state.
            let path = snap_dir.join(format!("{}_{}.snap.json", config.name, point));
            let t0 = Instant::now();
            victim.write_snapshot(&path).expect("snapshot writes");
            let write_micros = t0.elapsed().as_micros() as u64;
            let snapshot_bytes = std::fs::metadata(&path).expect("snapshot exists").len() as usize;
            drop(victim);

            // Restore and check conservation before resuming: every job
            // known at the kill still exists, every terminal outcome is
            // frozen (nothing resurrected), nothing new invented.
            let t1 = Instant::now();
            let mut restored = Grid::read_snapshot(&path).expect("snapshot restores");
            let load_micros = t1.elapsed().as_micros() as u64;
            let restored_report = restored.report();
            assert_eq!(
                restored.world().jobs_submitted(),
                jobs_at_kill,
                "{}/{point}: restore changed the number of known jobs",
                config.name
            );
            let restored_ledger = terminal_outcomes(&restored_report);
            assert_eq!(
                restored_ledger, ledger_at_kill,
                "{}/{point}: restore resurrected or invented a terminal job",
                config.name
            );

            // Resume to completion: the final report must be byte-identical
            // to the uninterrupted baseline.
            let resumed = restored.run_until_done(DEADLINE);
            let resumed_json = serde_json::to_string(&resumed).expect("report serializes");
            // Terminal outcomes reached before the kill stay frozen through
            // the resumed run too.
            let final_ledger = terminal_outcomes(&resumed);
            for (job, outcome) in &ledger_at_kill {
                assert_eq!(
                    final_ledger.get(job),
                    Some(outcome),
                    "{}/{point}: job {job} changed terminal outcome after resume",
                    config.name
                );
            }
            let bit_identical = resumed_json == baseline_json;
            assert!(
                bit_identical,
                "{}/{point}: resumed output diverged from the uninterrupted run",
                config.name
            );

            println!(
                "{:<16} {:<20} {:>9.0}s {:>10} {:>10} {:>10} {:>9}",
                config.name,
                point,
                at.as_secs_f64(),
                snapshot_bytes / 1024,
                write_micros,
                load_micros,
                "yes"
            );
            rows.push(KillRow {
                config: config.name,
                kill_point: point,
                kill_at_secs: at.as_secs_f64(),
                jobs_terminal_at_kill: ledger_at_kill.len(),
                snapshot_bytes,
                bit_identical,
            });
            costs.push((write_micros, load_micros));
        }
    }

    // Corrupted-snapshot arm: service mode must fall back to the previous
    // good generation — no panic — and still converge to baseline bytes.
    {
        let mut baseline_grid = faults_config(n_jobs, seed, false);
        let baseline_json =
            serde_json::to_string(&baseline_grid.run_until_done(DEADLINE)).expect("serializes");
        let svc_path = snap_dir.join("service_grid.snap.json");
        let _ = std::fs::remove_file(&svc_path);
        let _ = std::fs::remove_file(snap_dir.join("service_grid.snap.json.prev"));
        let cfg = ServiceConfig::new(&svc_path).with_interval(SimDuration::from_mins(30));
        let mut svc = GridService::start(cfg.clone(), || faults_config(n_jobs, seed, false))
            .expect("service starts");
        svc.run_until(SimTime::from_hours(3)).expect("service runs");
        assert!(svc.snapshots_written() >= 2, "need a previous generation");
        drop(svc);
        // Tear the current snapshot in half (crash mid-disk-write).
        let text = std::fs::read_to_string(&svc_path).expect("snapshot readable");
        std::fs::write(&svc_path, &text[..text.len() / 2]).expect("corrupt snapshot");
        let mut svc =
            GridService::start(cfg, || panic!("fallback must restore")).expect("service recovers");
        assert_eq!(svc.resume_outcome(), ResumeOutcome::ResumedFromFallback);
        svc.run_until(DEADLINE).expect("service finishes");
        let report_json = serde_json::to_string(&svc.grid().report()).expect("serializes");
        assert_eq!(
            report_json, baseline_json,
            "fallback resume diverged from the uninterrupted run"
        );
        println!(
            "\ncorrupted-snapshot arm: current snapshot torn -> recovered from previous good \
             generation, output identical ({} auto-snapshots over the run)",
            svc.snapshots_written()
        );
    }

    // Observed arm: the e12-faults config with telemetry on, for the
    // metrics artifact (telemetry rides inside the snapshot too).
    {
        let mut grid = faults_config(n_jobs, seed, true);
        grid.run_until(SimTime::from_hours(6));
        let text = grid.to_snapshot();
        let mut restored = Grid::from_snapshot(&text).expect("observed snapshot restores");
        // The profiler is host-side and observer-only: it is NOT part of
        // the snapshot, so enabling it on the restored grid exercises the
        // documented re-arm-after-restore path.
        restored.enable_profiling();
        let _ = restored.run_until_done(DEADLINE);
        // Telemetry survived the snapshot round-trip, or this panics.
        write_grid_metrics("e15_crash_resume", &restored);
    }

    let kills = rows.len();
    let mean = |f: &dyn Fn(&(u64, u64)) -> u64| costs.iter().map(f).sum::<u64>() / kills as u64;
    let max = |f: &dyn Fn(&(u64, u64)) -> u64| costs.iter().map(f).max().unwrap_or(0);
    let summary = BenchSummary {
        experiment: "e15_crash_resume",
        jobs_per_config: n_jobs,
        seed,
        mean_snapshot_bytes: rows.iter().map(|r| r.snapshot_bytes as u64).sum::<u64>()
            / kills as u64,
        mean_write_micros: mean(&|c| c.0),
        mean_load_micros: mean(&|c| c.1),
        max_write_micros: max(&|c| c.0),
        max_load_micros: max(&|c| c.1),
        kills,
    };
    println!(
        "\nsnapshot costs over {kills} kills: mean {} KB, write {} µs (max {}), load {} µs (max {})",
        summary.mean_snapshot_bytes / 1024,
        summary.mean_write_micros,
        summary.max_write_micros,
        summary.mean_load_micros,
        summary.max_load_micros
    );
    write_baseline("e15_crash_resume", &summary);

    write_json("e15_crash_resume", &rows);
}
