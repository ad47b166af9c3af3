//! Workspace-level tenancy integration tests.
//!
//! Three properties the multi-tenant submission layer must hold at the
//! whole-grid level, beyond the `tenancy` crate's own unit/property tests:
//!
//! 1. **Inertness** — a grid with `tenancy: Some(..)` that only ever sees
//!    plain (tenant-less) submissions is *byte-identical* in lockstep to a
//!    `tenancy: None` grid, once the tenancy ledger itself is stripped from
//!    the snapshot. The admission layer must consume no randomness and
//!    perturb no scheduling decision when unused.
//! 2. **Restart safety** — a mid-flight checkpoint of a tenant grid
//!    round-trips bit-exactly and replays identically, and a *pre-tenancy*
//!    snapshot (no `tenancy` key at all) restores into a tenancy-enabled
//!    service with fresh books ([`Grid::enable_tenancy`]).
//! 3. **Quota edges** — exactly-full queues admit everything, the first
//!    job past the cap bounces, and an exhausted CPU budget cuts off
//!    later submissions, all observable through [`Grid::tenancy_snapshot`].

use gridsim::boinc::BoincConfig;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::resource::{ResourceKind, ResourceSpec};
use serde::{Serialize, Value};
use simkit::{SimRng, SimTime, Snapshot};
use tenancy::{Quota, TenancyConfig, TenantSpec};

/// An 8-slot cluster plus a Condor pool and a small BOINC pool, so tenant
/// jobs terminate through every credit path (LRM completion, BOINC
/// validation, dead-letter).
fn mixed_config(seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![
            ResourceSpec::cluster("pbs", ResourceKind::PbsCluster, 8, 1.2),
            ResourceSpec::condor_pool("condor", 8, 1.0, 6.0),
        ],
        boinc: Some(BoincConfig {
            num_clients: 15,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

fn tenant_config(seed: u64) -> GridConfig {
    GridConfig {
        tenancy: Some(TenancyConfig::default()),
        ..mixed_config(seed)
    }
}

/// Plain jobs with some requirement variety (ids `first..first + n`).
fn workload(seed: u64, first: u64, n: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed ^ 0x7E4A);
    (first..first + n)
        .map(|id| {
            let secs = rng.range_f64(0.2, 3.0) * 3600.0;
            let mut job = JobSpec::simple(id, secs).with_estimate(secs * rng.range_f64(0.9, 1.1));
            match id % 5 {
                1 => job.min_memory_bytes = 2 << 30,
                2 => job.checkpointable = true,
                _ => {}
            }
            job
        })
        .collect()
}

/// Remove every map entry named `tenancy` (the ledger in the world, and the
/// config knob) so tenancy-carrying and tenancy-free snapshots become
/// structurally comparable.
fn strip_tenancy(value: &Value) -> Value {
    match value {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .filter(|(k, _)| k != "tenancy")
                .map(|(k, v)| (k.clone(), strip_tenancy(v)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(strip_tenancy).collect()),
        other => other.clone(),
    }
}

fn world_has_tenancy_key(grid: &Grid) -> bool {
    let value = grid.to_value();
    let fields = value.as_map().expect("grid serializes to a map");
    let (_, world) = fields
        .iter()
        .find(|(k, _)| k == "world")
        .expect("world field");
    world
        .as_map()
        .expect("world serializes to a map")
        .iter()
        .any(|(k, _)| k == "tenancy")
}

/// Step two grids in lockstep, comparing snapshot bytes every `stride`
/// events and at the end (borrowed from `dispatch_equivalence.rs`).
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

/// Register three tenants and spread a mixed workload across them.
fn seed_tenant_traffic(grid: &mut Grid, seed: u64) {
    let lab_a = grid.register_tenant(TenantSpec::registered("lab-a", 1.0));
    let lab_b = grid.register_tenant(TenantSpec::registered("lab-b", 2.0));
    let guest = grid.register_tenant(TenantSpec::guest("guest@example.org"));
    grid.submit_for(lab_a, workload(seed, 1, 20));
    grid.submit_for(lab_b, workload(seed ^ 1, 100, 25));
    grid.submit_for(guest, workload(seed ^ 2, 200, 10));
    // A late wave so admission/release interleaves with in-flight work.
    for (i, job) in workload(seed ^ 3, 300, 8).into_iter().enumerate() {
        grid.submit_for_at(lab_a, job, SimTime::from_hours(1 + i as u64));
    }
}

#[test]
fn unused_tenancy_layer_is_inert() {
    let mut plain = Grid::new(mixed_config(31));
    let mut tenanted = Grid::new(tenant_config(31));
    assert!(!world_has_tenancy_key(&plain));
    assert!(world_has_tenancy_key(&tenanted));

    let jobs = workload(31, 1, 30);
    plain.submit(jobs.clone());
    tenanted.submit(jobs);
    for step in 0..30_000 {
        let pa = plain.step();
        let pb = tenanted.step();
        assert_eq!(pa, pb, "calendars diverged");
        if !pa {
            break;
        }
        if step % 500 == 0 {
            assert_eq!(plain.now(), tenanted.now(), "clocks diverged at {step}");
            assert_eq!(
                strip_tenancy(&plain.to_value()),
                strip_tenancy(&tenanted.to_value()),
                "tenancy-stripped state diverged at step {step}"
            );
        }
    }
    assert_eq!(
        strip_tenancy(&plain.to_value()),
        strip_tenancy(&tenanted.to_value()),
        "tenancy-stripped final state diverged"
    );
    // The idle ledger saw no traffic at all.
    let snap = tenanted.tenancy_snapshot(5).expect("tenancy enabled");
    assert_eq!(snap.submitted, 0);
    assert_eq!(snap.released, 0);
    assert_eq!(snap.rejected, 0);
}

#[test]
fn tenant_state_survives_midflight_snapshot_restore() {
    let mut original = Grid::new(tenant_config(57));
    seed_tenant_traffic(&mut original, 57);
    for _ in 0..3_000 {
        assert!(original.step(), "workload drained before the checkpoint");
    }
    let text = original.to_snapshot();
    let mut restored = Grid::from_snapshot(&text).expect("snapshot decodes");
    assert_eq!(restored.to_snapshot(), text, "restore is not bit-exact");
    assert_lockstep_identical(&mut original, &mut restored, 250, 20_000);
    // The run actually exercised the tenancy layer, not just empty books.
    let snap = restored.tenancy_snapshot(5).expect("tenancy survived");
    assert_eq!(snap.submitted, 63);
    assert!(snap.completed > 0, "no tenant job completed: {snap:?}");
    assert!(snap.cpu_hours > 0.0);
    assert!(snap.credit > 0.0, "no credit granted");
}

#[test]
fn pre_tenancy_snapshot_restores_into_tenant_service() {
    // A v2 snapshot written by a tenancy-free grid has no `tenancy` world
    // key; it must restore cleanly and accept tenancy being switched on.
    let mut old = Grid::new(mixed_config(71));
    old.submit(workload(71, 1, 12));
    for _ in 0..1_500 {
        assert!(old.step(), "workload drained before the checkpoint");
    }
    assert!(!world_has_tenancy_key(&old));
    let text = old.to_snapshot();

    let mut service = Grid::from_snapshot(&text).expect("snapshot decodes");
    assert!(service.tenancy_snapshot(5).is_none());
    service.enable_tenancy(TenancyConfig::default());
    let lab = service.register_tenant(TenantSpec::registered("late-lab", 1.0));
    // Enabling twice must not clobber the live book.
    service.enable_tenancy(TenancyConfig::default());
    assert!(
        service
            .world()
            .tenant_book()
            .unwrap()
            .quota_of(lab)
            .is_some(),
        "re-enable clobbered the registered tenant"
    );
    service.submit_for(lab, workload(72, 500, 6));

    let report = service.run_until_done(SimTime::from_days(4));
    assert_eq!(report.records.len(), 18, "plain + tenant jobs all tracked");
    assert!(
        report.records.iter().all(|r| r.finished.is_some()),
        "some job never reached a terminal state"
    );
    let (cpu, credit) = service
        .world()
        .tenant_book()
        .unwrap()
        .usage_of(lab)
        .expect("tenant registered");
    assert!(cpu > 0.0, "tenant CPU never charged");
    assert!(credit > 0.0, "tenant credit never granted");
    let snap = service.tenancy_snapshot(5).unwrap();
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.completed, 6);
}

fn quota_grid(seed: u64, quota: Quota) -> (Grid, tenancy::TenantId) {
    let mut config = GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            8,
            1.0,
        )],
        seed,
        ..Default::default()
    };
    config.tenancy = Some(TenancyConfig::default());
    let mut grid = Grid::new(config);
    let t = grid.register_tenant(TenantSpec::registered("edge", 1.0).with_quota(quota));
    (grid, t)
}

#[test]
fn quota_exactly_full_queue_admits_everything() {
    let quota = Quota {
        max_in_flight: 4,
        max_queued: 10,
        max_cpu_hours: None,
    };
    let (mut grid, t) = quota_grid(83, quota);
    // Exactly the queue cap, all at t=0: nothing may bounce.
    grid.submit_for(t, (1..=10).map(|i| JobSpec::simple(i, 1800.0)));
    let report = grid.run_until_done(SimTime::from_days(2));
    let snap = grid.tenancy_snapshot(5).unwrap();
    assert_eq!(snap.rejected, 0, "exact-fit burst was rejected: {snap:?}");
    assert_eq!(snap.completed, 10);
    assert_eq!(report.records.len(), 10);
}

#[test]
fn quota_overflow_bounces_exactly_the_excess() {
    let quota = Quota {
        max_in_flight: 4,
        max_queued: 10,
        max_cpu_hours: None,
    };
    let (mut grid, t) = quota_grid(83, quota);
    // Three past the cap, in one burst: exactly three queue-full bounces.
    grid.submit_for(t, (1..=13).map(|i| JobSpec::simple(i, 1800.0)));
    let report = grid.run_until_done(SimTime::from_days(2));
    let snap = grid.tenancy_snapshot(5).unwrap();
    assert_eq!(snap.rejections.queue_full, 3, "{snap:?}");
    assert_eq!(snap.rejected, 3);
    assert_eq!(snap.completed, 10);
    assert_eq!(report.records.len(), 10, "rejected jobs became grid state");
    // In-flight quota was honoured along the way.
    let (_, peak) = grid.world().tenant_book().unwrap().in_flight_of(t).unwrap();
    assert!(peak <= 4, "peak in-flight {peak} exceeded the quota");
}

#[test]
fn quota_cpu_budget_cuts_off_later_submissions() {
    let quota = Quota {
        max_in_flight: 4,
        max_queued: 100,
        max_cpu_hours: Some(2.0),
    };
    let (mut grid, t) = quota_grid(97, quota);
    // Four hours of work now (over the 2 h budget once charged)...
    grid.submit_for(t, (1..=4).map(|i| JobSpec::simple(i, 3600.0)));
    // ...then two more after the budget is spent: both must bounce.
    for i in 5..=6u64 {
        grid.submit_for_at(t, JobSpec::simple(i, 3600.0), SimTime::from_hours(3));
    }
    let report = grid.run_until_done(SimTime::from_days(2));
    let snap = grid.tenancy_snapshot(5).unwrap();
    assert_eq!(snap.rejections.cpu_budget, 2, "{snap:?}");
    assert_eq!(snap.completed, 4);
    assert_eq!(report.records.len(), 4);
}
