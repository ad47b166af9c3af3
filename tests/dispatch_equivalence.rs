//! Restore-lockstep tests for the grid's one matchmaker. A live grid is
//! stepped to a drawn event boundary and checkpointed; a copy restored
//! from that snapshot then steps in lockstep with the live grid, and the
//! two are compared by their full snapshot encodings (world + calendar +
//! clock + event counter). Restore rebuilds every piece of derived state —
//! BOINC's idle-host set and free/active counters among it — from the
//! authoritative tables, so the two "paths" here are the live grid's
//! incrementally maintained state and a from-scratch rebuild of it; any
//! drift between them shows up as diverging bytes. Covered: plain mixed
//! workloads, data-aware stage-in ranking, E12-style random fault
//! timelines, both restore entry points, and random resource mixes.
//!
//! The file also pins the observed decision stream: a telemetry-on run
//! whose serialized state embeds the scheduler's per-filter reject tally,
//! the restore of a v3 snapshot whose calendar still queues one volunteer
//! work-fetch event per host, and the restore of a v4 snapshot that still
//! stores settings v5 fixed as constants.

use gridsim::boinc::BoincConfig;
use gridsim::data::{DataConfig, ObjectRef};
use gridsim::fault::{boinc_corruption, random_faults};
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::platform::Platform;
use gridsim::recovery::RecoveryPolicy;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::telemetry::TelemetryConfig;
use proptest::prelude::*;
use rand::RngCore;
use simkit::snapshot::{checksum as fnv1a, SnapshotError};
use simkit::{SimDuration, SimRng, SimTime, Snapshot};

/// A grid with every resource flavour: stable clusters (MPI, software),
/// a preemptable Condor pool, and a BOINC volunteer pool.
fn mixed_config(seed: u64) -> GridConfig {
    let mut sge = ResourceSpec::cluster("sge", ResourceKind::SgeCluster, 6, 0.9);
    sge.software = vec!["java".into(), "mpi".into(), "gromacs".into()];
    GridConfig {
        resources: vec![
            ResourceSpec::cluster("pbs", ResourceKind::PbsCluster, 8, 1.2),
            sge,
            ResourceSpec::condor_pool("condor", 16, 1.1, 6.0),
        ],
        boinc: Some(BoincConfig {
            num_clients: 25,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

/// A requirement-diverse workload: serial jobs, MPI gangs, software
/// dependencies (including one no resource advertises), restrictive
/// platform lists, and large-memory jobs.
fn mixed_workload(seed: u64, n: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed ^ 0xD15B);
    (0..n)
        .map(|id| {
            let secs = rng.range_f64(0.2, 4.0) * 3600.0;
            let mut job = JobSpec::simple(id, secs).with_estimate(secs * rng.range_f64(0.8, 1.2));
            match id % 7 {
                1 => job = job.mpi(4),
                2 => job.software_deps = vec!["gromacs".into()],
                3 => job.platforms = vec![Platform::LINUX_X64],
                4 => job.min_memory_bytes = 3 << 30,
                5 => job.software_deps = vec!["no-such-package".into()],
                6 => job.checkpointable = true,
                _ => {}
            }
            job
        })
        .collect()
}

/// Step `a` and `b` in lockstep, comparing full snapshot bytes every
/// `stride` events and at the end.
fn assert_lockstep_identical(a: &mut Grid, b: &mut Grid, stride: usize, max_events: usize) {
    for step in 0..max_events {
        let pa = a.step();
        let pb = b.step();
        assert_eq!(pa, pb, "calendars drained at different event counts");
        if !pa {
            break;
        }
        if step % stride == 0 {
            assert_eq!(a.now(), b.now(), "clocks diverged at step {step}");
            assert_eq!(
                a.to_snapshot(),
                b.to_snapshot(),
                "snapshot bytes diverged at step {step} (t = {:?})",
                a.now()
            );
        }
    }
    assert_eq!(a.to_snapshot(), b.to_snapshot(), "final snapshots diverged");
}

/// The event boundary at which a test checkpoints, drawn from its seed.
fn drawn_split(seed: u64) -> u64 {
    SimRng::new(seed ^ 0x5B117).range_u64(0, 5_000)
}

/// Step `live` to event `split` (or until its calendar drains), restore a
/// copy from its snapshot, and step both in lockstep (see
/// [`assert_lockstep_identical`]).
fn assert_restored_copy_tracks_live(live: &mut Grid, split: u64, stride: usize, max_events: usize) {
    for _ in 0..split {
        if !live.step() {
            break;
        }
    }
    let snap = live.to_snapshot();
    let mut restored = Grid::from_snapshot(&snap).expect("snapshot restores");
    assert_eq!(restored.to_snapshot(), snap, "restore must be byte-stable");
    assert_lockstep_identical(live, &mut restored, stride, max_events);
}

#[test]
fn live_and_restored_grids_are_byte_identical_in_lockstep() {
    let mut live = Grid::new(mixed_config(11));
    live.submit(mixed_workload(11, 35));
    assert_restored_copy_tracks_live(&mut live, drawn_split(11), 250, 50_000);
}

#[test]
fn paths_agree_with_data_aware_stage_in_ranking() {
    let config = GridConfig {
        data: Some(DataConfig::default()),
        ..mixed_config(23)
    };
    let jobs: Vec<JobSpec> = mixed_workload(23, 30)
        .into_iter()
        .map(|j| {
            let name = format!("aln-{}", j.id.0 % 5);
            j.with_input(ObjectRef::named(&name, 40 << 20))
        })
        .collect();
    let mut live = Grid::new(config);
    live.submit(jobs);
    assert_restored_copy_tracks_live(&mut live, drawn_split(23), 250, 50_000);
}

#[test]
fn paths_agree_under_fault_timelines_with_recovery() {
    let config = |seed| GridConfig {
        recovery: Some(RecoveryPolicy::default()),
        max_local_retries: 2,
        ..mixed_config(seed)
    };
    for seed in [3u64, 91, 4242] {
        let mut live = Grid::new(config(seed));
        // E12-style chaos: outages, silent MDS partitions, stragglers, …
        // against the service resources.
        let mut frng = SimRng::new(seed ^ 0xFA17);
        live.inject_faults(random_faults(
            &mut frng,
            &[0, 1, 2],
            SimDuration::from_hours(48),
            12,
        ));
        live.submit(mixed_workload(seed, 30));
        assert_restored_copy_tracks_live(&mut live, drawn_split(seed), 500, 200_000);
    }
}

#[test]
fn restored_snapshot_resumes_identically_on_either_path() {
    // Checkpoint mid-flight and restore through both entry points: the
    // checksummed snapshot envelope and plain serde. Each copy must
    // re-encode to the checkpoint's bytes, the two copies must replay
    // identical histories, and the envelope copy must track the live grid.
    let mut live = Grid::new(mixed_config(47));
    live.submit(mixed_workload(47, 35));
    for _ in 0..2_000 {
        assert!(live.step(), "workload drained before the checkpoint");
    }
    let snap = live.to_snapshot();
    let mut via_envelope = Grid::from_snapshot(&snap).expect("snapshot restores");
    let mut via_serde: Grid =
        serde_json::from_str(&serde_json::to_string(&live).unwrap()).expect("serde restores");
    // Derived state must not leak into snapshot bytes.
    assert_eq!(
        via_envelope.to_snapshot(),
        snap,
        "restore must be byte-stable"
    );
    assert_eq!(via_serde.to_snapshot(), snap, "restore must be byte-stable");
    assert_lockstep_identical(&mut via_envelope, &mut via_serde, 500, 200_000);
    let mut restored = Grid::from_snapshot(&snap).expect("snapshot restores");
    assert_lockstep_identical(&mut live, &mut restored, 500, 200_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random resource mixes, requirement-diverse workloads, and random
    /// fault timelines: a copy restored at a drawn event boundary must
    /// produce the live grid's decisions and a bit-identical event stream
    /// (proved via full snapshot bytes, which embed the calendar and every
    /// per-job record, including reject outcomes reflected in `failed_on`).
    #[test]
    fn random_mixes_and_faults_keep_paths_identical(
        seed in 0u64..10_000,
        n_jobs in 8u64..28,
        n_faults in 0usize..10,
        flags in 0u64..4,
    ) {
        let (with_boinc, with_recovery) = (flags & 1 != 0, flags & 2 != 0);
        let mut rng = SimRng::new(seed);
        let n_clusters = 1 + (rng.next_u64() % 3) as usize;
        let mut resources = Vec::new();
        for i in 0..n_clusters {
            let kind = if i % 2 == 0 { ResourceKind::PbsCluster } else { ResourceKind::SgeCluster };
            let mut spec = ResourceSpec::cluster(
                &format!("c{i}"),
                kind,
                2 + (rng.next_u64() % 12) as usize,
                rng.range_f64(0.6, 1.8),
            );
            if rng.next_u64().is_multiple_of(2) {
                spec.software.push("gromacs".into());
            }
            resources.push(spec);
        }
        resources.push(ResourceSpec::condor_pool(
            "pool",
            4 + (rng.next_u64() % 16) as usize,
            rng.range_f64(0.7, 1.5),
            rng.range_f64(3.0, 12.0),
        ));
        let fault_targets: Vec<usize> = (0..resources.len()).collect();
        let config = GridConfig {
            resources,
            boinc: with_boinc.then(|| BoincConfig {
                num_clients: 5 + (seed % 20) as usize,
                ..Default::default()
            }),
            recovery: with_recovery.then(RecoveryPolicy::default),
            seed,
            ..Default::default()
        };
        let mut live = Grid::new(config);
        if n_faults > 0 {
            let mut frng = SimRng::new(seed ^ 0xFA17);
            live.inject_faults(random_faults(
                &mut frng,
                &fault_targets,
                SimDuration::from_hours(36),
                n_faults,
            ));
        }
        live.submit(mixed_workload(seed, n_jobs));
        assert_restored_copy_tracks_live(&mut live, drawn_split(seed), 400, 150_000);
    }
}

/// [`mixed_workload`] plus the two job classes it lacks for a full reject
/// tally: long-estimate jobs (past the 10 h unstable cutoff, so the Condor
/// and volunteer pools refuse them on stability) and Mac-only jobs (which
/// the Linux clusters refuse on platform).
fn reject_diverse_workload(seed: u64) -> Vec<JobSpec> {
    let mut jobs = mixed_workload(seed, 35);
    jobs.extend((35..40).map(|id| JobSpec::simple(id, 12.0 * 3600.0).with_estimate(14.0 * 3600.0)));
    jobs.extend((40..45).map(|id| {
        let mut job = JobSpec::simple(id, 2.0 * 3600.0).with_estimate(2.0 * 3600.0);
        job.platforms = vec![Platform::MAC_X64];
        job
    }));
    jobs
}

#[test]
fn bare_grid_state_matches_its_pin() {
    // (mid-run state, report, final state) FNV-64 pins with every opt-in
    // subsystem off, so the serialized world carries the `null` encodings
    // of telemetry, data, stability and validation, no tenancy/flow/churn
    // keys, and `failed_on` sets that no recovery policy clears. The state
    // pins were recaptured when volunteer work fetches became one calendar
    // event per herd, which renumbers the calendar, and at snapshot v5.
    let mut grid = Grid::new(GridConfig {
        max_local_retries: 1,
        ..mixed_config(29)
    });
    let mut script = random_faults(
        &mut SimRng::new(29 ^ 0xFA17),
        &[0, 1, 2],
        SimDuration::from_hours(48),
        12,
    );
    script.merge(boinc_corruption(
        0.3,
        SimTime::from_hours(1),
        SimDuration::from_hours(24),
    ));
    grid.inject_faults(script);
    grid.submit(mixed_workload(29, 40));
    grid.run_until(SimTime::from_hours(6));
    let json = serde_json::to_string(&grid).unwrap();
    assert!(
        json.contains("\"failed_on\":[["),
        "no failed_on entry at the mid-run cut: the pin would not cover it"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0xca01_39ed_992d_9b51,
        "mid-run state drifted"
    );
    let report = grid.run_until_done(SimTime::from_days(30));
    let rep = fnv1a(serde_json::to_string(&report).unwrap().as_bytes());
    let fin = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(rep, 0x2b6c_56aa_e23d_e5ca, "report drifted");
    assert_eq!(fin, 0xd214_cf59_ec71_a147, "final state drifted");
    assert_eq!(
        (
            report.completed,
            report.unfinished,
            report.corrupt_completions
        ),
        (35, 5, 1)
    );
}

#[test]
fn observed_decision_stream_matches_its_pin() {
    // (mid-run state, report, final state) FNV-64 pins, captured with
    // telemetry on before matchmaking moved onto one decision function.
    // The two state pins were recaptured when volunteer work fetches
    // became one calendar event per herd, which renumbers the calendar,
    // and at snapshot v5.
    // The serialized grid embeds the telemetry registry's reject counters
    // and every `scheduler.decision` event's candidate and eligible
    // counts, so a wrong tally moves these hashes even when placement
    // does not.
    let mut grid = Grid::new(GridConfig {
        telemetry: Some(TelemetryConfig::default()),
        recovery: Some(RecoveryPolicy::default()),
        max_local_retries: 2,
        ..mixed_config(19)
    });
    let mut frng = SimRng::new(19 ^ 0xFA17);
    grid.inject_faults(random_faults(
        &mut frng,
        &[0, 1, 2],
        SimDuration::from_hours(48),
        12,
    ));
    grid.submit(reject_diverse_workload(19));
    grid.run_until(SimTime::from_hours(6));
    let mid = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(mid, 0xd6b8_079f_0e52_c2ea, "mid-run state drifted");
    let report = grid.run_until_done(SimTime::from_days(30));
    let rep = fnv1a(serde_json::to_string(&report).unwrap().as_bytes());
    let fin = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(rep, 0x33cb_a2a2_f205_5465, "report drifted");
    assert_eq!(fin, 0xc3c5_816b_8ef6_95c4, "final state drifted");
    // The unknown-package jobs never place; everything else completes.
    assert_eq!((report.completed, report.unfinished), (40, 5));
    let metrics = grid.world().telemetry().expect("telemetry on").metrics();
    for reason in ["platform", "memory", "mpi", "software", "stability"] {
        assert!(
            metrics.counter(&format!("scheduler.reject.{reason}")) > 0,
            "no {reason} reject recorded: the pin would not catch a wrong tally"
        );
    }
}

/// A v3 snapshot, written before volunteer work fetches became one
/// calendar event per herd: 24 volunteers with validation on, cut at
/// 7.75 h while two per-host `{"BoincAssign":{"client":i}}` entries were
/// pending.
const V3_PER_HOST_ASSIGNS: &str = include_str!("fixtures/v3_per_host_assigns.snap.json");

#[test]
fn v3_per_host_assigns_resume_to_their_pin() {
    assert!(V3_PER_HOST_ASSIGNS.starts_with("{\"version\":3,"));
    assert_eq!(
        V3_PER_HOST_ASSIGNS
            .matches("{\"BoincAssign\":{\"client\":")
            .count(),
        2
    );
    let resume = |text: &str| {
        let mut grid = Grid::from_snapshot(text).expect("snapshot restores");
        let report = grid.run_until_done(SimTime::from_days(30));
        assert_eq!(report.completed, 40);
        fnv1a(serde_json::to_string(&report).unwrap().as_bytes())
    };
    // The report FNV of this resume on the build that wrote the file.
    const PIN: u64 = 0x9490_a9c5_b909_c2bb;
    assert_eq!(resume(V3_PER_HOST_ASSIGNS), PIN, "v3 resume drifted");
    // Re-encoded, each per-host entry is a one-member herd.
    let v4 = Grid::from_snapshot(V3_PER_HOST_ASSIGNS)
        .unwrap()
        .to_snapshot();
    let stamp = format!("{{\"version\":{},", simkit::SNAPSHOT_VERSION);
    assert!(v4.starts_with(&stamp));
    assert_eq!(v4.matches("{\"BoincAssign\":{\"clients\":[").count(), 2);
    assert_eq!(resume(&v4), PIN, "re-encoded resume drifted");
}

/// A v4 snapshot, written before each grid setting was stored once: a
/// small grid with every subsystem on (recovery, traced telemetry, data
/// plane, validation, tenancy, flow, churn) under faults, cut at 6 h with
/// jobs in flight and the campaign's last stage still barred. Its world
/// still carries a whole `GridConfig` copy, and its MDS, data plane and
/// tenant book their own copies of settings v5 made constants.
const V4_EVERYTHING_ON: &str = include_str!("fixtures/v4_everything_on.snap.json");

/// Resume `text`, a copy of [`V4_EVERYTHING_ON`], to the end of its
/// workload and hash the report.
fn resume_v4(text: &str) -> u64 {
    let mut grid = Grid::from_snapshot(text).expect("snapshot restores");
    let report = grid.run_until_done(SimTime::from_days(30));
    assert_eq!(
        (report.total_jobs, report.completed, report.dead_lettered),
        (26, 24, 2)
    );
    fnv1a(serde_json::to_string(&report).unwrap().as_bytes())
}

/// The report FNV of the fixture's resume on the build that wrote it.
const V4_PIN: u64 = 0x7d7d_804e_d796_cd5c;

/// The FNV of the fixture restored and re-encoded, whole envelope
/// included, as the encoder that built a `Value` tree wrote it (80,588
/// bytes); the streaming encoder must write the same bytes.
const V4_REENCODED_PIN: u64 = 0xba50_09b4_7345_b4ce;

#[test]
fn v4_everything_on_resumes_to_its_pin() {
    assert!(V4_EVERYTHING_ON.starts_with("{\"version\":4,"));
    assert_eq!(resume_v4(V4_EVERYTHING_ON), V4_PIN, "v4 resume drifted");
    // Re-encoded, the copied settings are gone.
    let v5 = Grid::from_snapshot(V4_EVERYTHING_ON).unwrap().to_snapshot();
    let stamp = format!("{{\"version\":{},", simkit::SNAPSHOT_VERSION);
    assert!(v5.starts_with(&stamp));
    assert_eq!(
        fnv1a(v5.as_bytes()),
        V4_REENCODED_PIN,
        "re-encoding drifted"
    );
    for key in [
        "schedule_interval",
        "backlog_factor",
        "invalidate_on_outage",
    ] {
        assert!(!v5.contains(&format!("\"{key}\":")), "{key} still written");
    }
    assert_eq!(resume_v4(&v5), V4_PIN, "re-encoded resume drifted");
}

/// `text` with its envelope's checksum recomputed over its state bytes.
fn resealed(text: &str) -> String {
    let (head, state) = text.split_once(",\"checksum\":").unwrap();
    let (_, state) = state.split_once(",\"state\":").unwrap();
    let body = state.strip_suffix('}').unwrap();
    let sum = fnv1a(body.as_bytes());
    format!("{head},\"checksum\":{sum},\"state\":{body}}}")
}

#[test]
fn v4_with_a_retired_setting_changed_is_refused() {
    assert!(Grid::from_snapshot(&resealed(V4_EVERYTHING_ON)).is_ok());
    // Each held value edited alone. The last copy in the file is the one
    // the v4 build ran on; an earlier one sits in the world's copy of the
    // whole `GridConfig`, which that build never read after construction,
    // so editing it leaves the resume as it was.
    let edits = [
        ("schedule_interval", "60000000", "30000000", 1),
        ("lifetime", "300000000", "600000000", 1),
        ("invalidate_on_outage", "true", "false", 2),
        ("backlog_factor", "2.0", "3.0", 2),
    ];
    for (key, held, other, copies) in edits {
        let from = format!("\"{key}\":{held}");
        let at: Vec<usize> = V4_EVERYTHING_ON
            .match_indices(&from)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(at.len(), copies, "copies of {from} in the fixture");
        let edited = |i: usize| {
            let mut text = V4_EVERYTHING_ON.to_string();
            text.replace_range(i..i + from.len(), &format!("\"{key}\":{other}"));
            resealed(&text)
        };
        let (read, unread) = at.split_last().unwrap();
        match Grid::from_snapshot(&edited(*read)) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(key), "{msg}"),
            Err(e) => panic!("{key}: wrong error {e}"),
            Ok(_) => panic!("{key}: restored with the constant swapped in"),
        }
        for &i in unread {
            assert_eq!(resume_v4(&edited(i)), V4_PIN, "{key} in the config copy");
        }
    }
}
