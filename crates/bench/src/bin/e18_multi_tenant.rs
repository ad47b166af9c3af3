//! E18 — the multi-tenant submission layer under heavy traffic.
//!
//! Three questions, one binary:
//!
//! * **Fairness** — three saturating campaigns at share weights 1/1/2 must
//!   split the pool's CPU 25/25/50 (each within 5 points), with a weighted
//!   Jain index near 1. Asserted, not just recorded.
//! * **Admission** — a guest dumping 150 jobs against the default guest
//!   quota must see exactly the overflow bounced and never exceed its
//!   queue cap. Asserted.
//! * **Scale** — a seeded heavy-traffic arrival stream (diurnal NHPP,
//!   flash crowds, power-law attribution over up to **1M registered
//!   accounts**) is replayed twice over the same grid: once through the
//!   tenancy layer, once as plain submissions on a tenancy-free grid.
//!   The events/sec ratio is the scheduler's overhead — asserted < 10%.
//!
//! The summary is committed at the workspace root as
//! `BENCH_e18_multi_tenant.json`. With `E18_GATE=1` the run also fails
//! loudly when any scale arm's tenant jobs per wall second regress more
//! than 50% against that committed baseline (CI runs the reduced 1k-user
//! arm with the gate on). Like E17's, the gate counts work, not events.
//!
//! Knobs: `E18_MAX_USERS` caps the population trajectory (default
//! 1_000_000), `E18_HOSTS` sizes the volunteer pool (default 2_000),
//! `E18_SUBMISSIONS` caps arrivals per scale arm (default 4_000),
//! `E18_SEED`; `E18_PROFILE=1` prints per-event-kind profiler reports for
//! both paths (`0` or unset runs unprofiled, and any other value panics).

use bench::{
    arm_regressions, env_switch, env_usize, gate_baseline, header, throughput_drop, volunteer_pool,
    volunteer_workunits, write_baseline, write_json, write_metrics,
};
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::resource::{ResourceKind, ResourceSpec};
use lattice::{run_multi_tenant, CampaignSpec};
use simkit::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;
use std::time::Instant;
use tenancy::{ArrivalConfig, ArrivalGenerator, Quota, Submission, Submitter, TenantSpec};

// ---------------------------------------------------------------- fairness

#[derive(serde::Serialize)]
struct FairnessArm {
    weights: Vec<f64>,
    cpu_shares: Vec<f64>,
    jain_weighted: f64,
    completed: u64,
}

/// Weights 1/1/2 on an 8-slot pool under saturating load: CPU must split
/// 25/25/50. Queues deep enough that no campaign drains inside the
/// measurement window (a drained queue stops competing).
fn fairness_arm() -> FairnessArm {
    let config = GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            8,
            1.0,
        )],
        tenancy: Some(tenancy::TenancyConfig::default()),
        seed: 2018,
        ..Default::default()
    };
    let campaigns = vec![
        CampaignSpec::lab("labA", 1.0, 120, 1800.0),
        CampaignSpec::lab("labB", 1.0, 120, 1800.0),
        CampaignSpec::lab("labC", 2.0, 240, 1800.0),
    ];
    let r = run_multi_tenant(config, &campaigns, SimTime::from_hours(18));
    let total: f64 = r.outcomes.iter().map(|o| o.cpu_seconds).sum();
    let shares: Vec<f64> = r.outcomes.iter().map(|o| o.cpu_seconds / total).collect();
    for (share, want) in shares.iter().zip([0.25, 0.25, 0.50]) {
        assert!(
            (share - want).abs() < 0.05,
            "fair-share violated: shares {shares:?}, wanted 25/25/50 within 5 points"
        );
    }
    assert!(r.jain_weighted > 0.95, "weighted Jain {}", r.jain_weighted);
    FairnessArm {
        weights: campaigns.iter().map(|c| c.weight).collect(),
        cpu_shares: shares,
        jain_weighted: r.jain_weighted,
        completed: r.outcomes.iter().map(|o| o.completed).sum(),
    }
}

// --------------------------------------------------------------- admission

#[derive(serde::Serialize)]
struct AdmissionArm {
    offered: u64,
    quota_max_queued: u64,
    admitted: u64,
    rejected: u64,
    peak_in_flight: u64,
    quota_max_in_flight: u64,
}

/// A guest floods 150 jobs against the default guest quota: exactly the
/// overflow bounces, and the in-flight cap is never pierced.
fn admission_arm() -> AdmissionArm {
    let quota = Quota::guest_default();
    let mut grid = Grid::new(GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            8,
            1.0,
        )],
        tenancy: Some(tenancy::TenancyConfig::default()),
        seed: 2019,
        ..Default::default()
    });
    let guest = grid.register_tenant(TenantSpec::guest("flood@example.org"));
    let offered = 150u64;
    grid.submit_for(guest, (1..=offered).map(|i| JobSpec::simple(i, 900.0)));
    grid.run_until_done(SimTime::from_days(3));
    let snap = grid.tenancy_snapshot(5).expect("tenancy enabled");
    let admitted = snap.submitted - snap.rejected;
    assert!(
        admitted <= quota.max_queued,
        "admitted {admitted} > guest queue quota {}",
        quota.max_queued
    );
    assert_eq!(
        snap.rejected,
        offered - quota.max_queued,
        "overflow must bounce exactly: {snap:?}"
    );
    let (_, peak) = grid
        .world()
        .tenant_book()
        .unwrap()
        .in_flight_of(guest)
        .unwrap();
    assert!(
        peak <= quota.max_in_flight,
        "peak in-flight {peak} pierced the quota {}",
        quota.max_in_flight
    );
    AdmissionArm {
        offered,
        quota_max_queued: quota.max_queued,
        admitted,
        rejected: snap.rejected,
        peak_in_flight: peak,
        quota_max_in_flight: quota.max_in_flight,
    }
}

// ------------------------------------------------------------------- scale

#[derive(serde::Serialize)]
struct ScaleArm {
    users: u64,
    hosts: usize,
    submissions: usize,
    jobs: u64,
    active_accounts: usize,
    guests: usize,
    /// Tenancy path: full admission → fair-share release → credit.
    tenant_wall_seconds: f64,
    tenant_events: u64,
    tenant_events_per_sec: f64,
    /// Same job stream, plain submissions, no tenancy layer at all.
    plain_wall_seconds: f64,
    plain_events: u64,
    plain_events_per_sec: f64,
    /// `1 − tenant/plain` events/sec (positive = tenancy is slower).
    overhead_fraction: f64,
    completed: u64,
    credit: f64,
}

fn arrival_stream(users: u64, cap: usize, seed: u64) -> Vec<Submission> {
    ArrivalGenerator::new(ArrivalConfig {
        users,
        max_submissions: Some(cap as u64),
        horizon: SimDuration::from_days(7),
        // Dense enough that even the 1k-user arm carries real measurement
        // mass (wall-clock ratios on tiny runs are all timer noise).
        submissions_per_user_per_day: 0.4,
        seed,
        ..ArrivalConfig::default()
    })
    .generate()
}

/// An effectively unbounded quota: the scale arms measure scheduler
/// mechanism cost, so admission must not drop work (the plain comparison
/// run has no admission layer to drop the same jobs).
fn unbounded() -> Quota {
    Quota {
        max_in_flight: 1 << 40,
        max_queued: 1 << 40,
        max_cpu_hours: None,
    }
}

/// Build one path's grid over `stream`. The tenancy path registers every
/// account lazily — only identities that actually submit get ledgers,
/// which is what makes a 1M-user population affordable; the plain path
/// submits the same instants and job runtimes with no tenancy layer.
/// Returns the grid and the number of distinct accounts touched.
fn build_grid(stream: &[Submission], hosts: usize, seed: u64, tenants: bool) -> (Grid, usize) {
    let mut grid = Grid::new(GridConfig {
        tenancy: tenants.then(tenancy::TenancyConfig::default),
        ..volunteer_pool(hosts, seed)
    });
    let mut accounts: HashMap<Submitter, tenancy::TenantId> = HashMap::new();
    let mut rng = SimRng::new(seed ^ 0xE18);
    let mut next_id = 0u64;
    for s in stream {
        let tid = tenants.then(|| {
            *accounts.entry(s.submitter).or_insert_with(|| {
                let spec = match s.submitter {
                    Submitter::Registered(u) => TenantSpec::registered(&format!("user-{u}"), 1.0),
                    Submitter::Guest(g) => TenantSpec::guest(&format!("guest-{g}@example.org")),
                };
                grid.register_tenant(spec.with_quota(unbounded()))
            })
        });
        for job in volunteer_workunits(&mut rng, next_id, s.jobs) {
            match tid {
                Some(tid) => grid.submit_for_at(tid, job, s.at),
                None => grid.submit_at(job, s.at),
            }
        }
        next_id += s.jobs;
    }
    (grid, accounts.len())
}

/// Replays are deterministic, so repeated attempts do identical work and
/// the fastest wall is the least-noisy measurement. Attempts interleave
/// tenant/plain so background-load swings hit both sides of the overhead
/// ratio equally.
const TIMING_ATTEMPTS: usize = 5;

fn run_scale_arm(users: u64, hosts: usize, cap: usize, seed: u64) -> ScaleArm {
    let stream = arrival_stream(users, cap, seed);
    let total_jobs: u64 = stream.iter().map(|s| s.jobs).sum();
    let guests = stream
        .iter()
        .filter(|s| matches!(s.submitter, Submitter::Guest(_)))
        .count();
    let profile = env_switch("E18_PROFILE");

    let mut active_accounts = 0;
    let mut tenant_wall = f64::INFINITY;
    let mut tenant_events = 0;
    let mut credit = 0.0;
    let mut completed = 0;
    let mut plain_wall = f64::INFINITY;
    let mut plain_events = 0;
    let mut paired_overheads = Vec::with_capacity(TIMING_ATTEMPTS);
    for _ in 0..TIMING_ATTEMPTS {
        let (mut grid, accounts) = build_grid(&stream, hosts, seed, true);
        if profile {
            grid.enable_profiling();
        }
        active_accounts = accounts;
        let started = Instant::now();
        let report = grid.run_until_done(SimTime::from_days(60));
        let attempt_tenant_wall = started.elapsed().as_secs_f64().max(1e-9);
        tenant_wall = tenant_wall.min(attempt_tenant_wall);
        tenant_events = grid.events_processed();
        let snap = grid.tenancy_snapshot(5).expect("tenancy enabled");
        assert_eq!(snap.rejected, 0, "unbounded quotas must admit everything");
        assert_eq!(
            report.completed as u64, total_jobs,
            "{users}-user arm left work unfinished"
        );
        credit = snap.credit;
        completed = report.completed as u64;
        if let Some(p) = grid.profile_report() {
            eprintln!("{}", serde_json::to_string_pretty(&p).unwrap());
        }

        let (mut plain, _) = build_grid(&stream, hosts, seed, false);
        if profile {
            plain.enable_profiling();
        }
        let started = Instant::now();
        let plain_report = plain.run_until_done(SimTime::from_days(60));
        let attempt_plain_wall = started.elapsed().as_secs_f64().max(1e-9);
        plain_wall = plain_wall.min(attempt_plain_wall);
        plain_events = plain.events_processed();
        assert_eq!(plain_report.completed as u64, total_jobs);
        if let Some(p) = plain.profile_report() {
            eprintln!("{}", serde_json::to_string_pretty(&p).unwrap());
        }

        // Paired ratio from back-to-back runs of this attempt: background
        // load hits both sides, so the ratio is far steadier than the
        // walls themselves.
        let attempt_tenant_eps = tenant_events as f64 / attempt_tenant_wall;
        let attempt_plain_eps = plain_events as f64 / attempt_plain_wall;
        paired_overheads.push(1.0 - attempt_tenant_eps / attempt_plain_eps);
    }
    paired_overheads.sort_by(f64::total_cmp);
    let overhead_fraction = paired_overheads[paired_overheads.len() / 2];

    let tenant_eps = tenant_events as f64 / tenant_wall;
    let plain_eps = plain_events as f64 / plain_wall;
    ScaleArm {
        users,
        hosts,
        submissions: stream.len(),
        jobs: total_jobs,
        active_accounts,
        guests,
        tenant_wall_seconds: tenant_wall,
        tenant_events,
        tenant_events_per_sec: tenant_eps,
        plain_wall_seconds: plain_wall,
        plain_events,
        plain_events_per_sec: plain_eps,
        overhead_fraction,
        completed,
        credit,
    }
}

// ----------------------------------------------------------------- summary

#[derive(serde::Serialize)]
struct Summary {
    schema: &'static str,
    seed: u64,
    fairness: FairnessArm,
    admission: AdmissionArm,
    scale: Vec<ScaleArm>,
}

fn main() {
    let max_users = env_usize("E18_MAX_USERS", 1_000_000) as u64;
    let hosts = env_usize("E18_HOSTS", 2_000);
    let cap = env_usize("E18_SUBMISSIONS", 4_000);
    let seed = env_usize("E18_SEED", 2018) as u64;

    header("E18 — multi-tenant submission layer under heavy traffic");

    let fairness = fairness_arm();
    println!(
        "fairness: weights {:?} → CPU shares {:?} (weighted Jain {:.3})",
        fairness.weights,
        fairness
            .cpu_shares
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect::<Vec<_>>(),
        fairness.jain_weighted
    );

    let admission = admission_arm();
    println!(
        "admission: {} offered vs guest quota {} → {} admitted, {} bounced, peak in-flight {}/{}",
        admission.offered,
        admission.quota_max_queued,
        admission.admitted,
        admission.rejected,
        admission.peak_in_flight,
        admission.quota_max_in_flight
    );

    println!(
        "\n{:<10} {:>8} {:>7} {:>7} {:>9} {:>13} {:>13} {:>9}",
        "users", "accounts", "subs", "jobs", "guests", "tenant ev/s", "plain ev/s", "overhead"
    );
    let mut scale = Vec::new();
    for users in [1_000u64, 100_000, 1_000_000] {
        if users > max_users {
            println!("(skipping {users}-user arm: E18_MAX_USERS={max_users})");
            continue;
        }
        let arm = run_scale_arm(users, hosts, cap, seed);
        println!(
            "{:<10} {:>8} {:>7} {:>7} {:>9} {:>13.0} {:>13.0} {:>8.1}%",
            arm.users,
            arm.active_accounts,
            arm.submissions,
            arm.jobs,
            arm.guests,
            arm.tenant_events_per_sec,
            arm.plain_events_per_sec,
            arm.overhead_fraction * 100.0
        );
        assert!(
            arm.overhead_fraction < 0.10,
            "tenancy scheduler overhead {:.1}% breaches the 10% budget at {} users",
            arm.overhead_fraction * 100.0,
            arm.users
        );
        scale.push(arm);
    }

    let summary = Summary {
        schema: "e18_multi_tenant/v1",
        seed,
        fairness,
        admission,
        scale,
    };

    // Regression gate against the committed baseline (before overwriting).
    let name = "e18_multi_tenant";
    // Wide threshold on purpose: absolute throughput swings ±25% with
    // machine load even at best-of-N walls, so this gate only catches
    // catastrophic regressions (an accidental quadratic path, not jitter).
    // The stable signal — tenant-vs-plain overhead from paired runs — has
    // its own hard 10% assert.
    if gate_baseline(name, "E18_GATE", |base| {
        arm_regressions(
            base,
            "scale",
            &summary.scale,
            |arm, old| serde::field(old, "users").ok() == Some(arm.users),
            |arm, old| {
                let jobs: u64 = serde::field(old, "jobs")?;
                let wall: f64 = serde::field(old, "tenant_wall_seconds")?;
                Ok(throughput_drop(
                    &format!("{}-user arm", arm.users),
                    "tenant jobs/sec",
                    arm.jobs as f64 / arm.tenant_wall_seconds,
                    jobs as f64 / wall,
                    0.50,
                ))
            },
        )
    }) {
        println!("[gate] tenant jobs/sec within 50% of committed baseline");
    }
    write_baseline(name, &summary);
    write_json(name, &summary);
    write_metrics(name, &summary);
}
