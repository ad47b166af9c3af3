//! Workflow-subsystem integration tests.
//!
//! Two contracts anchor this file:
//!
//! 1. **Opt-out byte-inertness.** `flow: None` + `churn: None` must leave a
//!    mixed E12-style workload (Condor + PBS + BOINC + recovery + data +
//!    validation, faults injected) *bit-identical* to the pre-flow grid.
//!    The report fingerprints below were captured on the commit before the
//!    workflow subsystem existed, and the report must still hash to
//!    exactly these values. The mid-run and final state fingerprints were
//!    recaptured at snapshot v5, which stores each grid setting once.
//! 2. **Mid-DAG restore.** A grid checkpointed halfway through a DAG
//!    campaign (stages still barred, churn model mid-timeline) must resume
//!    to a byte-identical future through both restore paths: plain serde
//!    and the checksummed snapshot envelope.
//! 3. **Everything-on pin.** Every opt-in subsystem at once (recovery,
//!    telemetry, data, validation, tenancy, flow, churn) under faults,
//!    pinned by FNV-64 and required to drive every way a job enters the
//!    grid and every way it reaches a terminal state.

use gridsim::boinc::BoincConfig;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::{
    ChurnConfig, DagSpec, DataConfig, FlowConfig, Grid, GridConfig, JobSpec, RecoveryPolicy,
    TelemetryConfig, TenancyConfig, TenantSpec, ValidationConfig,
};
use lattice::run_dag_campaign;
use simkit::snapshot::checksum as fnv1a;
use simkit::{SimDuration, SimRng, SimTime, Snapshot};

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
    // (telemetry, mid-run state, report, final state) — the report pins
    // captured before `crates/flow` and `gridsim::churn` existed, the state
    // pins recaptured at snapshot v5. The report hash is
    // telemetry-independent because `GridReport` never embeds telemetry
    // and the observed/unobserved dispatch paths are decision-identical.
    let pins = [
        (
            false,
            0xd6d5_38f9_bbc0_b05f_u64,
            0x61f6_c13c_5f35_331c_u64,
            0x81b8_a466_bf07_5fe7_u64,
        ),
        (
            true,
            0xf314_cabe_16d1_c4d5,
            0x61f6_c13c_5f35_331c,
            0xceb1_a61e_f73a_413a,
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

/// Every opt-in subsystem on at once: two cluster sites (the PBS one with
/// its own outage process) plus a realistically churning volunteer pool,
/// tight recovery and validation budgets so jobs dead-letter both ways, a
/// shared staged input, a registered lab and a guest who overfills their
/// admission queue, one DAG campaign, random site faults and a window of
/// erroneous volunteer results.
fn everything_on_grid(seed: u64) -> Grid {
    let alignment = gridsim::data::ObjectRef::named("alignment.phy", 32 << 20);
    let config = GridConfig {
        resources: vec![
            ResourceSpec::condor_pool("condor", 12, 1.5, 2.0).with_site("umd"),
            ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 6, 1.0)
                .with_site("bowie")
                .with_outages(48.0, 2.0),
        ],
        boinc: Some(BoincConfig {
            num_clients: 30,
            abandon_probability: 0.1,
            deadline: gridsim::boinc::DeadlinePolicy::Fixed(SimDuration::from_hours(12)),
            ..Default::default()
        }),
        churn: Some(ChurnConfig::realistic()),
        max_local_retries: 1,
        recovery: Some(RecoveryPolicy {
            max_grid_retries: 1,
            ..Default::default()
        }),
        telemetry: Some(TelemetryConfig::observability(SimDuration::from_hours(2))),
        data: Some(DataConfig::default()),
        validation: Some(ValidationConfig {
            max_error_results: 1,
            max_total_results: 3,
            ..Default::default()
        }),
        tenancy: Some(TenancyConfig::default()),
        flow: Some(FlowConfig::default()),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    let mut rng = SimRng::new(seed ^ 0xA11);
    let mut faults =
        gridsim::fault::random_faults(&mut rng, &[0, 1], SimDuration::from_hours(36), 8);
    faults.merge(gridsim::fault::erroneous_results(
        0.4,
        SimTime::from_hours(6),
        SimDuration::from_hours(36),
    ));
    grid.inject_faults(faults);
    grid.submit((0..18).map(|i| {
        let mut j = JobSpec::simple(i, 2.5 * 3600.0).with_estimate(2.7 * 3600.0);
        j.checkpointable = i % 2 == 0;
        if i % 3 == 0 {
            j = j.with_input(alignment);
        }
        j
    }));
    let lab = grid.register_tenant(TenantSpec::registered("lab", 2.0));
    let guest = grid.register_tenant(TenantSpec::guest("guest@example.org"));
    grid.submit_for(
        lab,
        (100..124).map(|i| JobSpec::simple(i, 2.0 * 3600.0).with_input(alignment)),
    );
    grid.submit_for(guest, (200..330).map(|i| JobSpec::simple(i, 3600.0)));
    let dag = DagSpec::phylo_pipeline("tol", 2, 8, 1800.0, 4.0 * 3600.0, 2.0 * 3600.0, 900.0)
        .with_deadline_hours(96.0);
    grid.submit_dag(1000, dag).expect("valid pipeline");
    grid
}

#[test]
fn everything_on_grid_matches_its_pin() {
    // (mid-run state, report, final state) — captured before job admission
    // and settlement each moved into one place in the grid; the state pins
    // were recaptured when volunteer work fetches became one calendar
    // event per herd, which renumbers the calendar, the final one again
    // when a deadline that queued no copy stopped leaving a `reissue`
    // marker in the span log (no deadline fires before the mid-run cut),
    // and both when a completed job's trace entry stopped outliving it and
    // again at snapshot v5.
    let mut grid = everything_on_grid(23);
    // The profiler only observes (it is not part of the snapshot), and its
    // per-event-kind counts show the outage process ran.
    grid.enable_profiling();
    grid.run_until(SimTime::from_hours(6));
    let mid = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(mid, 0xc9b5_8472_3440_a601, "mid-run state drifted");
    let report = grid.run_until_done(SimTime::from_days(30));
    let rep = fnv1a(serde_json::to_string(&report).unwrap().as_bytes());
    let fin = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(rep, 0xde14_bfca_6ec3_6990, "report drifted");
    assert_eq!(fin, 0x71e3_30aa_fc84_e323, "final state drifted");

    // Every way into and out of the grid fired, so the pin cannot pass
    // without exercising them.
    let m = grid.world().telemetry().expect("telemetry on").metrics();
    let tenancy = report.tenancy.as_ref().expect("tenancy on");
    let flow = report.flow.as_ref().expect("flow on");
    assert_eq!(
        (report.total_jobs, report.completed, report.dead_lettered),
        (154, 124, 30)
    );
    assert_eq!((tenancy.rejected, flow.campaigns_completed), (30, 1));
    for lrm in ["condor", "cluster"] {
        assert!(report.completed_by[lrm] > 0, "no {lrm} completion");
    }
    assert!(report.completed_by["boinc-pool"] > 0, "no BOINC completion");
    assert!(report.corrupt_completions > 0, "no corrupt completion");
    let validation_failed = m.counter("validation.failed");
    assert!(validation_failed > 0, "no validation failure");
    assert!(
        m.counter("job.dead_lettered") > validation_failed,
        "no retry-budget dead letter"
    );
    for path in ["tenancy.admitted", "tenancy.queued", "tenancy.rejected"] {
        assert!(m.counter(path) > 0, "no {path} submission");
    }
    // The root stage releases at submission; later ones only on settle.
    assert!(m.counter("flow.stages_released") > 1, "no stage release");
    // Every bus kind this grid can emit fired, so the state pins cover
    // every fact telemetry observes. `slo.resolve` is the one kind it
    // never reaches; `tests/observability.rs` pins a run that does.
    let bus = grid.world().telemetry().expect("telemetry on").bus();
    for kind in [
        "job.submit",
        "scheduler.decision",
        "job.dispatch",
        "boinc.workunit",
        "data.stage_in",
        "job.bounce",
        "recovery.blacklist",
        "recovery.backoff",
        "job.complete",
        "validation.complete",
        "validation.failed",
        "recovery.dead_letter",
        "boinc.deadline",
        "churn.death",
        "data.cache_invalidate",
        "resource.down",
        "resource.up",
        "mds.partition",
        "tenancy.admit",
        "tenancy.queue",
        "tenancy.reject",
        "tenancy.release",
        "tenancy.credit",
        "flow.stage_release",
        "flow.stage_complete",
        "flow.campaign_complete",
        "slo.alert",
    ] {
        assert!(bus.count(kind) > 0, "no {kind} event");
    }
    let profile = grid.profile_report().expect("profiling on");
    for kind in ["outage_start", "outage_end"] {
        assert!(
            profile.kinds.iter().any(|k| k.kind == kind && k.events > 0),
            "no {kind} event"
        );
    }
}
