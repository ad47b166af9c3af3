//! Workflow-subsystem integration tests.
//!
//! Two contracts anchor this file:
//!
//! 1. **Opt-out byte-inertness.** `flow: None` + `churn: None` must leave a
//!    mixed E12-style workload (Condor + PBS + BOINC + recovery + data +
//!    validation, faults injected) *bit-identical* to the pre-flow grid.
//!    The FNV-64 fingerprints below were captured on the commit before the
//!    workflow subsystem existed; the serialized mid-run state, final
//!    state, and report must still hash to exactly these values.
//! 2. **Mid-DAG restore.** A grid checkpointed halfway through a DAG
//!    campaign (stages still barred, churn model mid-timeline) must resume
//!    to a byte-identical future through both restore paths: plain serde
//!    and the checksummed snapshot envelope.

use gridsim::boinc::BoincConfig;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::{
    ChurnConfig, DagSpec, DataConfig, FlowConfig, Grid, GridConfig, JobSpec, RecoveryPolicy,
    TelemetryConfig, ValidationConfig,
};
use lattice::run_dag_campaign;
use simkit::{SimDuration, SimRng, SimTime, Snapshot};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The E12-style mixed workload: two cluster sites plus a volunteer pool,
/// site outages, staged inputs, redundant validation, checkpoint recovery.
fn mixed_grid(seed: u64, telemetry: bool) -> Grid {
    let alignment = gridsim::data::ObjectRef::named("alignment.phy", 48 << 20);
    let config = GridConfig {
        resources: vec![
            ResourceSpec::condor_pool("condor", 12, 1.5, 2.0).with_site("umd"),
            ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 6, 1.0).with_site("bowie"),
        ],
        boinc: Some(BoincConfig {
            num_clients: 25,
            ..Default::default()
        }),
        recovery: Some(RecoveryPolicy::default()),
        telemetry: telemetry.then(TelemetryConfig::default),
        data: Some(DataConfig::default()),
        validation: Some(ValidationConfig::default()),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    let mut rng = SimRng::new(seed ^ 0xC0FFEE);
    grid.inject_faults(gridsim::fault::random_faults(
        &mut rng,
        &[0, 1],
        SimDuration::from_hours(36),
        8,
    ));
    grid.submit((0..18).map(|i| {
        let mut j = JobSpec::simple(i, 3.0 * 3600.0).with_estimate(3.2 * 3600.0);
        j.checkpointable = i % 2 == 0;
        if i % 3 == 0 {
            j = j.with_input(alignment);
        }
        j
    }));
    grid
}

#[test]
fn opt_out_grid_is_byte_identical_to_pre_flow_code() {
    // (telemetry, mid-run state, report, final state) — captured before
    // `crates/flow` and `gridsim::churn` existed. The report hash is
    // telemetry-independent because `GridReport` never embeds telemetry
    // and the observed/unobserved dispatch paths are decision-identical.
    let pins = [
        (
            false,
            0xc66d_6089_d162_6ac8_u64,
            0x61f6_c13c_5f35_331c_u64,
            0x538c_3b0e_f517_f190_u64,
        ),
        (
            true,
            0xff97_6ae4_b684_8f9d,
            0x61f6_c13c_5f35_331c,
            0x2b71_767f_4fca_b156,
        ),
    ];
    for (telemetry, mid_pin, report_pin, final_pin) in pins {
        let mut grid = mixed_grid(77, telemetry);
        grid.run_until(SimTime::from_hours(6));
        let mid = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
        assert_eq!(
            mid, mid_pin,
            "mid-run state drifted (telemetry={telemetry}): the opt-out \
             path is supposed to be byte-inert"
        );
        let report = grid.run_until_done(SimTime::from_days(30));
        let rep = fnv1a(serde_json::to_string(&report).unwrap().as_bytes());
        let fin = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
        assert_eq!(rep, report_pin, "report drifted (telemetry={telemetry})");
        assert_eq!(
            fin, final_pin,
            "final state drifted (telemetry={telemetry})"
        );
        assert_eq!(report.completed, 18);
        assert_eq!(report.dead_lettered, 0);
        assert_eq!(report.total_reissues, 1);
        assert_eq!(report.total_attempts, 42);
    }
}

/// A flow + realistic-churn grid running one pipeline campaign over a
/// cluster and a volunteer pool.
fn dag_churn_grid(seed: u64) -> Grid {
    let config = GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            4,
            1.0,
        )],
        boinc: Some(BoincConfig {
            num_clients: 30,
            ..Default::default()
        }),
        validation: Some(ValidationConfig::default()),
        flow: Some(FlowConfig::default()),
        churn: Some(ChurnConfig::realistic()),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    let dag = DagSpec::phylo_pipeline("mid-dag", 2, 12, 1800.0, 14_400.0, 7200.0, 900.0)
        .with_deadline_hours(96.0);
    grid.submit_dag(1, dag).expect("valid pipeline");
    grid
}

#[test]
fn mid_dag_snapshot_restores_to_byte_identical_future_on_both_paths() {
    let horizon = SimTime::from_days(8);
    let mut original = dag_churn_grid(101);
    original.run_until(SimTime::from_hours(5));
    let checkpoint = serde_json::to_string(&original).unwrap();
    let envelope = original.to_snapshot();

    // The checkpoint must be genuinely mid-DAG: some stage still barred
    // behind unfinished dependencies (otherwise this test degrades into a
    // plain restart test).
    let snap = original.flow_snapshot(8).expect("flow enabled");
    assert!(
        (snap.stages_released as usize) < 4 * snap.campaigns,
        "checkpoint is not mid-DAG: all stages already released"
    );

    let base = original.run_until_done(horizon);
    let base_state = serde_json::to_string(&original).unwrap();

    // Plain serde restore.
    let mut via_serde: Grid = serde_json::from_str(&checkpoint).unwrap();
    let serde_report = via_serde.run_until_done(horizon);
    assert_eq!(
        serde_json::to_string(&serde_report).unwrap(),
        serde_json::to_string(&base).unwrap(),
        "restored (serde) future diverged from the uninterrupted run"
    );
    assert_eq!(serde_json::to_string(&via_serde).unwrap(), base_state);

    // Snapshot-envelope restore (versioned, checksummed).
    let mut via_envelope = Grid::from_snapshot(&envelope).expect("snapshot restores");
    let envelope_report = via_envelope.run_until_done(horizon);
    assert_eq!(
        serde_json::to_string(&envelope_report).unwrap(),
        serde_json::to_string(&base).unwrap(),
        "restored (snapshot envelope) future diverged from the uninterrupted run"
    );
    assert_eq!(serde_json::to_string(&via_envelope).unwrap(), base_state);

    // The campaign actually finished inside the horizon on all three.
    assert_eq!(base.flow.as_ref().unwrap().campaigns_completed, 1);
}

#[test]
fn dag_campaign_under_realistic_churn_completes_via_driver() {
    let config = GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            6,
            1.0,
        )],
        boinc: Some(BoincConfig {
            num_clients: 40,
            ..Default::default()
        }),
        churn: Some(ChurnConfig::realistic()),
        seed: 55,
        ..Default::default()
    };
    let dag = DagSpec::phylo_pipeline("tol-churn", 2, 10, 1200.0, 10_800.0, 5400.0, 600.0)
        .with_deadline_hours(72.0);
    let r = run_dag_campaign(config, &[dag], SimTime::from_days(6));
    assert_eq!(r.campaigns_completed, 1, "{:?}", r.outcomes);
    assert_eq!(r.deadlines_missed, 0);
    let o = &r.outcomes[0];
    assert_eq!(o.completed, o.jobs);
    assert!(o.makespan_seconds.unwrap() >= o.critical_path_seconds);
}

#[test]
fn dag_aware_scheduling_is_deterministic_per_seed() {
    // Same seed → byte-identical report; different seed → (almost surely)
    // a different realized timeline under stochastic churn.
    let run = |seed: u64| {
        let mut grid = dag_churn_grid(seed);
        let report = grid.run_until_done(SimTime::from_days(8));
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
