//! E19 — DAG-structured campaigns under volunteer churn: blind vs
//! slack-aware scheduling × synthetic vs realistic availability.
//!
//! A 2×2 grid of arms over one fixed campaign set (phylogenetic pipelines
//! with heterogeneous replicate counts and deadlines, run on a cluster +
//! volunteer pool with redundant validation):
//!
//! * **scheduling** — `blind` dispatches the released stage jobs FIFO;
//!   `dag_aware` sorts the pending queue by CPM slack (deadline-anchored,
//!   so a tight campaign's whole spine outranks a loose campaign's
//!   bootstrap replicates).
//! * **churn** — `synthetic` keeps the flat exponential on/off flips;
//!   `realistic` switches the pool to `gridsim::churn` (host-lifetime
//!   decay, diurnal/weekly rhythms, correlated site outages).
//!
//! Per arm: deadline-miss rate, mean/max campaign makespan, and wasted
//! replicate CPU. Asserted, not just recorded: under realistic churn the
//! DAG-aware scheduler must beat blind dispatch on both mean makespan and
//! deadline misses. A fifth byte-inertness arm replays the E12-style mixed
//! workload with `flow`/`churn` off and asserts the pre-subsystem report
//! fingerprint, proving the opt-out path unchanged.
//!
//! The summary is committed at the workspace root as
//! `BENCH_e19_dag_churn.json`. With `E19_GATE=1` the run fails loudly when
//! any matching arm's deadline misses exceed the committed baseline or its
//! mean makespan regresses more than 5% (the simulation is deterministic,
//! so the tolerance only absorbs cross-platform float noise).
//!
//! Knobs: `E19_CAMPAIGNS` (default 8), `E19_HOSTS` volunteer-pool size
//! (default 40), `E19_SEED` (default 2019).

use bench::{
    arm_regressions, env_usize, gate_baseline, header, report_fnv, write_baseline, write_json,
    write_metrics,
};
use gridsim::boinc::BoincConfig;
use gridsim::grid::GridConfig;
use gridsim::resource::{ResourceKind, ResourceSpec};
use gridsim::{ChurnConfig, DagSpec, FlowConfig, JobSpec, ValidationConfig};
use lattice::run_dag_campaign;
use simkit::{SimDuration, SimRng, SimTime};

/// The fixed campaign set: pipelines alternating tight (28 h) and loose
/// (96 h) deadlines, with replicate fan-outs that grow with the index so
/// the bootstrap bulk of early campaigns can bury later campaigns' critical
/// spines under FIFO dispatch.
fn campaign_set(n: usize) -> Vec<DagSpec> {
    (0..n)
        .map(|i| {
            let replicates = 12 + (i as u64 % 4) * 6; // 12, 18, 24, 30, ...
            let tight = i % 2 == 0;
            let deadline_hours = if tight { 28.0 } else { 96.0 };
            DagSpec::phylo_pipeline(
                &format!("campaign-{i:02}"),
                2,
                replicates,
                1800.0,       // align: 30 min
                6.0 * 3600.0, // search: 6 h (the critical spine)
                2.0 * 3600.0, // bootstrap replicate: 2 h
                900.0,        // consensus: 15 min
            )
            .with_deadline_hours(deadline_hours)
        })
        .collect()
}

fn grid_config(dag_aware: bool, realistic: bool, hosts: usize, seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            6,
            1.0,
        )],
        boinc: Some(BoincConfig {
            num_clients: hosts,
            ..Default::default()
        }),
        validation: Some(ValidationConfig::default()),
        flow: Some(FlowConfig { dag_aware }),
        churn: realistic.then(ChurnConfig::realistic),
        seed,
        ..Default::default()
    }
}

#[derive(serde::Serialize)]
struct Arm {
    scheduling: &'static str,
    churn: &'static str,
    campaigns: usize,
    jobs: u64,
    completed: u64,
    deadline_misses: u64,
    deadline_miss_rate: f64,
    mean_makespan_hours: f64,
    max_makespan_hours: f64,
    useful_cpu_hours: f64,
    wasted_cpu_hours: f64,
}

fn run_arm(dag_aware: bool, realistic: bool, n: usize, hosts: usize, seed: u64) -> Arm {
    let horizon = SimTime::from_days(10);
    let dags = campaign_set(n);
    let r = run_dag_campaign(
        grid_config(dag_aware, realistic, hosts, seed),
        &dags,
        horizon,
    );
    let makespans: Vec<f64> = r
        .outcomes
        .iter()
        .map(|o| o.makespan_seconds.unwrap_or_else(|| horizon.as_secs_f64()) / 3600.0)
        .collect();
    let with_deadline = r
        .outcomes
        .iter()
        .filter(|o| o.deadline_hours.is_some())
        .count()
        .max(1);
    Arm {
        scheduling: if dag_aware { "dag_aware" } else { "blind" },
        churn: if realistic { "realistic" } else { "synthetic" },
        campaigns: n,
        jobs: r.outcomes.iter().map(|o| o.jobs).sum(),
        completed: r.outcomes.iter().map(|o| o.completed).sum(),
        deadline_misses: r.deadlines_missed,
        deadline_miss_rate: r.deadlines_missed as f64 / with_deadline as f64,
        mean_makespan_hours: makespans.iter().sum::<f64>() / makespans.len() as f64,
        max_makespan_hours: makespans.iter().fold(0.0f64, |a, &b| a.max(b)),
        // Grid-level CPU accounting: volunteer-side waste (work abandoned
        // when a host churns away mid-execution, late results past the
        // BOINC deadline) is pooled on the BOINC model, not attributed to
        // job records, so the per-campaign sums would under-count it.
        useful_cpu_hours: r.grid.useful_cpu_seconds / 3600.0,
        wasted_cpu_hours: r.grid.wasted_cpu_seconds / 3600.0,
    }
}

// ----------------------------------------------------------- byte inertness

/// The opt-out fingerprint from `tests/flow.rs`: the E12-style mixed
/// workload's report hash, captured before `crates/flow` and
/// `gridsim::churn` existed. `flow: None` + `churn: None` must still
/// reproduce it exactly.
const OPT_OUT_REPORT_FNV: u64 = 0x61f6_c13c_5f35_331c;

#[derive(serde::Serialize)]
struct InertArm {
    report_fnv: String,
    pinned_fnv: String,
    byte_identical: bool,
}

fn byte_inertness_arm() -> InertArm {
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
        recovery: Some(gridsim::RecoveryPolicy::default()),
        data: Some(gridsim::DataConfig::default()),
        validation: Some(ValidationConfig::default()),
        seed: 77,
        ..Default::default()
    };
    let mut grid = gridsim::Grid::new(config);
    let mut rng = SimRng::new(77 ^ 0xC0FFEE);
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
    let report = grid.run_until_done(SimTime::from_days(30));
    let fnv = report_fnv(&report);
    assert_eq!(
        fnv, OPT_OUT_REPORT_FNV,
        "opt-out path is no longer byte-inert: report hash 0x{fnv:016x}"
    );
    InertArm {
        report_fnv: format!("0x{fnv:016x}"),
        pinned_fnv: format!("0x{OPT_OUT_REPORT_FNV:016x}"),
        byte_identical: true,
    }
}

// ----------------------------------------------------------------- summary

#[derive(serde::Serialize)]
struct Summary {
    schema: &'static str,
    seed: u64,
    hosts: usize,
    arms: Vec<Arm>,
    byte_inertness: InertArm,
}

/// The gate's verdict on one arm matched (on scheduling, churn and
/// campaigns) to the committed baseline's `old`: more deadline misses, or
/// a mean makespan more than 5% longer, is a regression.
fn arm_regressed(new: &Arm, old: &[(String, serde::Value)]) -> Result<Vec<String>, serde::Error> {
    let (old_misses, old_makespan): (u64, f64) = (
        serde::field(old, "deadline_misses")?,
        serde::field(old, "mean_makespan_hours")?,
    );
    let arm = format!("{}/{}", new.scheduling, new.churn);
    let mut failures = Vec::new();
    if new.deadline_misses > old_misses {
        failures.push(format!(
            "{arm}: {} deadline misses vs baseline {old_misses}",
            new.deadline_misses
        ));
    }
    if new.mean_makespan_hours > 1.05 * old_makespan {
        failures.push(format!(
            "{arm}: mean makespan {:.1}h vs baseline {:.1}h (>5% regression)",
            new.mean_makespan_hours, old_makespan
        ));
    }
    Ok(failures)
}

fn main() {
    let n = env_usize("E19_CAMPAIGNS", 8);
    let hosts = env_usize("E19_HOSTS", 40);
    let seed = env_usize("E19_SEED", 2019) as u64;

    header("E19 — DAG campaigns + volunteer churn: blind vs slack-aware dispatch");

    println!(
        "{:<10} {:<10} {:>6} {:>10} {:>7} {:>11} {:>11} {:>10} {:>10}",
        "sched",
        "churn",
        "jobs",
        "completed",
        "misses",
        "mean mk (h)",
        "max mk (h)",
        "useful (h)",
        "waste (h)"
    );
    let mut arms = Vec::new();
    for realistic in [false, true] {
        for dag_aware in [false, true] {
            let arm = run_arm(dag_aware, realistic, n, hosts, seed);
            println!(
                "{:<10} {:<10} {:>6} {:>10} {:>7} {:>11.1} {:>11.1} {:>10.1} {:>10.1}",
                arm.scheduling,
                arm.churn,
                arm.jobs,
                arm.completed,
                arm.deadline_misses,
                arm.mean_makespan_hours,
                arm.max_makespan_hours,
                arm.useful_cpu_hours,
                arm.wasted_cpu_hours
            );
            arms.push(arm);
        }
    }

    // The tentpole claim, asserted per churn regime: slack-aware dispatch
    // must beat blind FIFO on both mean makespan and deadline misses.
    for churn in ["synthetic", "realistic"] {
        let blind = arms
            .iter()
            .find(|a| a.scheduling == "blind" && a.churn == churn)
            .unwrap();
        let dag = arms
            .iter()
            .find(|a| a.scheduling == "dag_aware" && a.churn == churn)
            .unwrap();
        assert!(
            dag.mean_makespan_hours < blind.mean_makespan_hours,
            "{churn}: DAG-aware mean makespan {:.2}h does not beat blind {:.2}h",
            dag.mean_makespan_hours,
            blind.mean_makespan_hours
        );
        assert!(
            dag.deadline_misses <= blind.deadline_misses,
            "{churn}: DAG-aware misses {} exceed blind {}",
            dag.deadline_misses,
            blind.deadline_misses
        );
        println!(
            "[{churn}] dag-aware vs blind: mean makespan {:.1}h vs {:.1}h, misses {} vs {}",
            dag.mean_makespan_hours,
            blind.mean_makespan_hours,
            dag.deadline_misses,
            blind.deadline_misses
        );
    }

    let byte_inertness = byte_inertness_arm();
    println!(
        "byte-inertness: opt-out report fnv {} == pinned {}",
        byte_inertness.report_fnv, byte_inertness.pinned_fnv
    );

    let summary = Summary {
        schema: "e19_dag_churn/v1",
        seed,
        hosts,
        arms,
        byte_inertness,
    };

    // Regression gate against the committed baseline (before overwriting).
    let name = "e19_dag_churn";
    if gate_baseline(name, "E19_GATE", |base| {
        arm_regressions(
            base,
            "arms",
            &summary.arms,
            |arm, old| {
                serde::field::<String>(old, "scheduling").ok().as_deref() == Some(arm.scheduling)
                    && serde::field::<String>(old, "churn").ok().as_deref() == Some(arm.churn)
                    && serde::field(old, "campaigns").ok() == Some(arm.campaigns as u64)
            },
            arm_regressed,
        )
    }) {
        println!("[gate] misses and makespans within the committed baseline");
    }
    write_baseline(name, &summary);
    write_json(name, &summary);
    write_metrics(name, &summary);
}
