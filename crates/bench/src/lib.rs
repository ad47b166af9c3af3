//! Shared infrastructure for the experiment harness.
//!
//! Every table and figure of the paper has a binary in `src/bin` (see
//! DESIGN.md's per-experiment index); this library provides what they
//! share: a cached training corpus (executing 150 GARLI jobs once instead
//! of per-experiment), environment-variable knobs, table/JSON output
//! helpers, the whole-report hash behind every replay and observer check,
//! the telemetry-artifact writer, the baseline-gate walk, and the grids
//! and workloads several experiments run. Results land in `bench_results/`
//! at the workspace root.

use gridsim::boinc::BoincConfig;
use gridsim::{
    Grid, GridConfig, GridReport, JobSpec, RecoveryPolicy, ResourceKind, ResourceSpec,
    TelemetrySnapshot,
};
use lattice::training::{generate_training_jobs, Scale, TrainingJob};
use simkit::SimRng;
use std::path::PathBuf;

/// Read a numeric knob from the environment, or `default` when it is unset.
///
/// # Panics
/// Panics, naming the variable and its value, when it is set to something
/// that does not parse: `E17_MAX_HOSTS=10_000` must not quietly run the
/// default workload.
pub fn env_usize(name: &str, default: usize) -> usize {
    env_knob(name, default)
}

/// Read a float knob from the environment, or `default` when it is unset.
///
/// # Panics
/// Panics, naming the variable and its value, when it is set to something
/// that does not parse.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_knob(name, default)
}

/// Read an on/off switch (a regression gate, E18's profiler) from the
/// environment: unset or `0` is off, `1` is on.
///
/// # Panics
/// Panics, naming the variable and its value, on anything else, like an
/// unparsable knob: `E18_PROFILE=yes` must not quietly run unprofiled.
pub fn env_switch(name: &str) -> bool {
    let Some(raw) = std::env::var_os(name) else {
        return false;
    };
    match raw.to_str() {
        Some("0") => false,
        Some("1") => true,
        _ => panic!("{name}={raw:?} is not a valid switch (0 or 1)"),
    }
}

fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    raw.to_str()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            panic!(
                "{name}={raw:?} is not a valid {}",
                std::any::type_name::<T>()
            )
        })
}

/// The directory experiment outputs are written to.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir).expect("create bench_results");
    dir.canonicalize().expect("canonicalize bench_results")
}

/// Load the shared training corpus from cache, or execute it and cache.
///
/// The corpus is the stand-in for the paper's ~150 historical jobs; E1, E2,
/// E9 and E11 all analyze the same corpus, exactly as the paper analyzes
/// one training matrix.
pub fn load_or_generate_corpus(n: usize, scale: Scale, seed: u64) -> Vec<TrainingJob> {
    let tag = match scale {
        Scale::Full => "full",
        Scale::Compact => "compact",
    };
    let path = results_dir().join(format!("corpus_{tag}_{n}_{seed}.json"));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(jobs) = serde_json::from_str::<Vec<TrainingJob>>(&text) {
            if jobs.len() == n {
                eprintln!(
                    "[corpus] loaded {} cached jobs from {}",
                    jobs.len(),
                    path.display()
                );
                return jobs;
            }
        }
    }
    eprintln!("[corpus] executing {n} GARLI training jobs (scale: {tag}) …");
    let start = std::time::Instant::now();
    let jobs = generate_training_jobs(n, scale, seed);
    eprintln!("[corpus] done in {:.1}s", start.elapsed().as_secs_f64());
    if let Ok(text) = serde_json::to_string(&jobs) {
        let _ = std::fs::write(&path, text);
    }
    jobs
}

/// Write a named experiment result as JSON into `bench_results/`.
pub fn write_json(name: &str, value: &impl serde::Serialize) {
    let path = results_dir().join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, text).expect("write result");
    eprintln!("[out] {}", path.display());
}

/// The committed baseline `BENCH_<name>.json` at the workspace root.
fn baseline_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"))
}

/// Write an experiment's summary as its committed baseline
/// `BENCH_<name>.json` at the workspace root.
pub fn write_baseline(name: &str, summary: &impl serde::Serialize) {
    let path = baseline_path(name);
    let text = serde_json::to_string_pretty(summary).expect("summary serializes");
    std::fs::write(&path, text).expect("write BENCH summary");
    eprintln!("[out] {}", path.display());
}

/// The regression gate: when `env_var` is `1`, read the committed
/// `BENCH_<name>.json` (call this before [`write_baseline`] replaces it)
/// and run the experiment's own `check` over it. `check` returns one
/// message per regression; any message, or a missing or unreadable
/// baseline, is printed and exits the process with status 1. Returns true
/// iff the gate ran and passed.
///
/// # Panics
/// Panics, naming the variable and its value, when `env_var` is set to
/// anything but `0` or `1`: `E19_GATE=true` must not quietly skip the
/// gate.
pub fn gate_baseline(
    name: &str,
    env_var: &str,
    check: impl FnOnce(&serde::Value) -> Vec<String>,
) -> bool {
    if !env_switch(env_var) {
        return false;
    }
    let path = baseline_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "[gate] FAIL: no committed baseline at {}: {e}",
            path.display()
        );
        std::process::exit(1);
    });
    let failures = baseline_failures(&text, check);
    for f in &failures {
        eprintln!("[gate] REGRESSION: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    true
}

/// The walk behind each arm-by-arm regression gate: every arm of the
/// baseline's `key` array that `matches` an arm of this run goes to
/// `check` with that arm, which returns its regressions. A baseline arm
/// the run did not produce is skipped, so a reduced run gates the arms it
/// ran; but a walk that compared no arm fails, and so does a matched arm
/// `check` cannot read.
pub fn arm_regressions<A, R: IntoIterator<Item = String>>(
    baseline: &serde::Value,
    key: &str,
    fresh: &[A],
    matches: impl Fn(&A, &[(String, serde::Value)]) -> bool,
    check: impl Fn(&A, &[(String, serde::Value)]) -> Result<R, serde::Error>,
) -> Vec<String> {
    let fields = baseline.as_map().unwrap_or_default();
    let Ok(arms) = serde::field::<Vec<serde::Value>>(fields, key) else {
        return vec![format!("baseline has no `{key}` arms")];
    };
    let mut failures = Vec::new();
    let mut matched = 0;
    for old in arms.iter().filter_map(serde::Value::as_map) {
        let Some(new) = fresh.iter().find(|a| matches(a, old)) else {
            continue;
        };
        matched += 1;
        match check(new, old) {
            Ok(found) => failures.extend(found),
            Err(e) => failures.push(format!("baseline `{key}` arm unreadable: {e}")),
        }
    }
    if matched == 0 {
        failures.push("no baseline arm matched this run's shape".into());
    }
    failures
}

/// A throughput gate's verdict on one arm: a regression message when
/// `new` fell more than `bound` (a fraction) below the baseline's `old`.
pub fn throughput_drop(arm: &str, unit: &str, new: f64, old: f64, bound: f64) -> Option<String> {
    (new < (1.0 - bound) * old).then(|| {
        format!(
            "{arm} regressed: {new:.0} {unit} vs baseline {old:.0} (>{:.0}% drop)",
            bound * 100.0
        )
    })
}

/// The regressions `check` finds in a baseline's text.
fn baseline_failures(text: &str, check: impl FnOnce(&serde::Value) -> Vec<String>) -> Vec<String> {
    match serde_json::from_str::<serde::Value>(text) {
        Err(e) => vec![format!("baseline unreadable: {e}")],
        Ok(doc) if doc.as_map().is_none() => vec!["baseline is not a JSON object".into()],
        Ok(doc) => check(&doc),
    }
}

/// Schema version stamped into every `<exp>_metrics.json` artifact.
/// Bump when the envelope layout or the embedded telemetry snapshot's
/// field contract changes incompatibly, so downstream tooling comparing
/// metrics across commits can refuse mixed-schema reads.
///
/// History: v1 — `{schema_version, snapshot}` envelope introduced with the
/// observability layer (time series, SLO alerts, trace summaries inside
/// the snapshot).
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Write an experiment's telemetry/metrics artifact as
/// `bench_results/<name>_metrics.json` (the observability twin of the
/// experiment's result file). The value is wrapped in a versioned
/// envelope: `{"schema_version": N, "snapshot": {...}}`.
pub fn write_metrics(name: &str, value: &impl serde::Serialize) {
    write_json(&format!("{name}_metrics"), &metrics_envelope(value))
}

/// The `{schema_version, snapshot}` envelope [`write_metrics`] persists
/// (exposed so tests can pin its shape).
pub fn metrics_envelope(value: &impl serde::Serialize) -> serde::Value {
    serde::Value::Map(vec![
        (
            "schema_version".to_string(),
            serde::Value::U64(METRICS_SCHEMA_VERSION),
        ),
        ("snapshot".to_string(), value.to_value()),
    ])
}

/// Write the telemetry snapshot of `grid`, which ran with telemetry on, as
/// the experiment's metrics artifact ([`write_metrics`]), print the
/// `[profile]` line when profiling was on, and return the snapshot.
pub fn write_grid_metrics(name: &str, grid: &Grid) -> TelemetrySnapshot {
    let snapshot = grid.telemetry_snapshot().expect("telemetry enabled");
    write_metrics(name, &snapshot);
    if let Some(p) = grid.profile_report() {
        eprintln!("[profile] {}", p.one_line());
    }
    snapshot
}

/// The whole-report hash every replay and observer check compares:
/// `simkit::snapshot::checksum` (FNV-1a) over the report's JSON, per-job
/// records included.
pub fn report_fnv(report: &GridReport) -> u64 {
    let json = serde_json::to_string(report).expect("report serializes");
    simkit::snapshot::checksum(json.as_bytes())
}

/// E17's and E18's grid: `hosts` default volunteers and nothing else.
pub fn volunteer_pool(hosts: usize, seed: u64) -> GridConfig {
    GridConfig {
        boinc: Some(BoincConfig {
            num_clients: hosts,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

/// `n` estimated workunits of 15–60 reference minutes, ids from
/// `first_id`: they pass the 10 h stability cutoff for the (unstable)
/// volunteer pool and keep the simulated horizon in hours.
pub fn volunteer_workunits(rng: &mut SimRng, first_id: u64, n: u64) -> Vec<JobSpec> {
    (first_id..first_id + n)
        .map(|id| {
            let secs = rng.range_f64(900.0, 3600.0);
            JobSpec::simple(id, secs).with_estimate(secs)
        })
        .collect()
}

/// [`fault_grid`]'s two site-a clusters (PBS, SGE), which fail together.
pub const SITE_A: [usize; 2] = [1, 2];
/// [`fault_grid`]'s fast but flaky Condor pool.
pub const FLAKY_CONDOR: usize = 3;

/// E12's fault grid, which E15 and E16 replay: one steady cluster, two
/// site-a clusters that fail together and a fast but flaky Condor pool,
/// with one local retry and the grid-level recovery policy on.
pub fn fault_grid(seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![
            ResourceSpec::cluster("steady", ResourceKind::PbsCluster, 8, 1.0),
            ResourceSpec::cluster("site-a-1", ResourceKind::PbsCluster, 16, 1.2),
            ResourceSpec::cluster("site-a-2", ResourceKind::SgeCluster, 16, 1.0),
            ResourceSpec::condor_pool("flaky-condor", 48, 1.5, 6.0),
        ],
        max_local_retries: 1,
        recovery: Some(RecoveryPolicy::default()),
        seed,
        ..Default::default()
    }
}

/// E12's campaign: `n` checkpointable jobs of 2–6 reference hours with
/// mildly noisy (RF-quality) runtime estimates.
pub fn checkpointable_campaign(rng: &mut SimRng, n: usize) -> Vec<JobSpec> {
    (0..n as u64)
        .map(|id| {
            let true_secs = rng.range_f64(2.0, 6.0) * 3600.0;
            let mut job =
                JobSpec::simple(id, true_secs).with_estimate(true_secs * rng.lognormal(0.0, 0.2));
            job.checkpointable = true;
            job
        })
        .collect()
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format seconds as a compact human duration.
pub fn fmt_secs(s: f64) -> String {
    if s < 120.0 {
        format!("{s:.1}s")
    } else if s < 7200.0 {
        format!("{:.1}m", s / 60.0)
    } else if s < 172_800.0 {
        format!("{:.1}h", s / 3600.0)
    } else {
        format!("{:.1}d", s / 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_usize("LATTICE_NO_SUCH_VAR", 7), 7);
        assert_eq!(env_f64("LATTICE_NO_SUCH_VAR", 2.5), 2.5);
    }

    #[test]
    fn env_knobs_refuse_values_they_cannot_parse() {
        std::env::set_var("LATTICE_TEST_BAD_KNOB", "10_000");
        let readers: [fn(); 2] = [
            || {
                env_usize("LATTICE_TEST_BAD_KNOB", 7);
            },
            || {
                env_f64("LATTICE_TEST_BAD_KNOB", 2.5);
            },
        ];
        for read in readers {
            let panic = std::panic::catch_unwind(read).expect_err("unparsable knob");
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("LATTICE_TEST_BAD_KNOB=\"10_000\""), "{msg}");
        }
    }

    #[test]
    fn gate_switches_refuse_values_they_cannot_read() {
        assert!(!env_switch("LATTICE_NO_SUCH_GATE"));
        std::env::set_var("LATTICE_TEST_GATE_OFF", "0");
        assert!(!env_switch("LATTICE_TEST_GATE_OFF"));
        assert!(!gate_baseline(
            "no_such_bench",
            "LATTICE_TEST_GATE_OFF",
            |_| { panic!("an off gate must not read its baseline") }
        ));
        std::env::set_var("LATTICE_TEST_GATE_ON", "1");
        assert!(env_switch("LATTICE_TEST_GATE_ON"));
        for bad in ["true", "yes", "on", "2", " 1", ""] {
            std::env::set_var("LATTICE_TEST_GATE_BAD", bad);
            let panic = std::panic::catch_unwind(|| {
                gate_baseline("no_such_bench", "LATTICE_TEST_GATE_BAD", |_| Vec::new())
            })
            .expect_err(bad);
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains(&format!("LATTICE_TEST_GATE_BAD={bad:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn env_switch_refuses_values_it_cannot_read() {
        std::env::set_var("LATTICE_TEST_SWITCH_YES", "yes");
        let panic = std::panic::catch_unwind(|| env_switch("LATTICE_TEST_SWITCH_YES"))
            .expect_err("`yes` is not a switch value");
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("LATTICE_TEST_SWITCH_YES=\"yes\""), "{msg}");
    }

    /// Pins the metrics-artifact schema: the envelope keys, their order,
    /// and the version value. If this test fails you changed the artifact
    /// contract — bump [`METRICS_SCHEMA_VERSION`] and say so in its doc.
    #[test]
    fn metrics_envelope_schema_is_pinned() {
        let inner: std::collections::BTreeMap<String, u64> =
            [("jobs".to_string(), 3u64)].into_iter().collect();
        let json = serde_json::to_string(&metrics_envelope(&inner)).unwrap();
        assert_eq!(json, r#"{"schema_version":1,"snapshot":{"jobs":3}}"#);
        assert_eq!(METRICS_SCHEMA_VERSION, 1);
    }

    #[test]
    fn baseline_checks_see_only_well_formed_objects() {
        let arms = |doc: &serde::Value| {
            let fields = doc.as_map().unwrap_or_default();
            match serde::field::<Vec<u64>>(fields, "arms") {
                Ok(arms) if arms.iter().all(|&a| a < 10) => Vec::new(),
                Ok(_) => vec!["arm regressed".to_string()],
                Err(_) => vec!["baseline has no arms".to_string()],
            }
        };
        assert!(baseline_failures(r#"{"arms":[1,2]}"#, arms).is_empty());
        assert_eq!(
            baseline_failures(r#"{"arms":[12]}"#, arms),
            ["arm regressed"]
        );
        assert_eq!(baseline_failures("{}", arms), ["baseline has no arms"]);
        assert_eq!(
            baseline_failures("[1]", arms),
            ["baseline is not a JSON object"]
        );
        assert!(baseline_failures("{", arms)[0].starts_with("baseline unreadable"));
    }

    fn small_report() -> GridReport {
        let mut grid = Grid::new(fault_grid(7));
        grid.submit(checkpointable_campaign(&mut SimRng::new(7), 6));
        grid.run_until_done(simkit::SimTime::from_days(30))
    }

    #[test]
    fn report_fnv_hashes_the_whole_report_json() {
        let report = small_report();
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(
            report_fnv(&report),
            simkit::snapshot::checksum(json.as_bytes())
        );
    }

    /// A field tuple over the report's aggregates cannot see who ran one
    /// job; the whole-report hash does.
    #[test]
    fn report_fnv_sees_a_single_records_host() {
        let report = small_report();
        let mut moved = report.clone();
        let record = &mut moved.records[0];
        assert!(record.completed_by.is_some(), "{record:?}");
        record.completed_by = Some("elsewhere".into());
        assert_ne!(report_fnv(&report), report_fnv(&moved));
    }

    /// E17's gate: arms match on `hosts`, and dispatches/sec may fall 20%.
    fn e17_walk(baseline: &str, fresh: &[(u64, f64)]) -> Vec<String> {
        arm_regressions(
            &serde_json::from_str(baseline).unwrap(),
            "trajectory",
            fresh,
            |arm, old| serde::field(old, "hosts").ok() == Some(arm.0),
            |arm, old| {
                Ok(throughput_drop(
                    &format!("{}-host arm", arm.0),
                    "dispatches/sec",
                    arm.1,
                    serde::field(old, "dispatches_per_sec")?,
                    0.20,
                ))
            },
        )
    }

    const TWO_ARMS: &str = r#"{"trajectory":[
        {"hosts":1000,"dispatches_per_sec":100000.0},
        {"hosts":100000,"dispatches_per_sec":40000.0}]}"#;

    #[test]
    fn gate_walk_holds_e17s_bound() {
        assert!(e17_walk(TWO_ARMS, &[(1000, 81_000.0)]).is_empty());
        assert_eq!(
            e17_walk(TWO_ARMS, &[(1000, 79_000.0)]),
            ["1000-host arm regressed: 79000 dispatches/sec vs baseline 100000 (>20% drop)"]
        );
    }

    #[test]
    fn gate_walk_skips_unrun_arms_but_fails_on_nothing_compared() {
        // The 100k baseline arm did not run: skipped, not failed.
        assert!(e17_walk(TWO_ARMS, &[(1000, 100_000.0)]).is_empty());
        let nothing = ["no baseline arm matched this run's shape"];
        assert_eq!(e17_walk(TWO_ARMS, &[(500, 1e9)]), nothing);
        assert_eq!(e17_walk(TWO_ARMS, &[]), nothing);
        assert_eq!(
            e17_walk(r#"{"arms":[]}"#, &[(1000, 1e9)]),
            ["baseline has no `trajectory` arms"]
        );
        let unreadable = e17_walk(r#"{"trajectory":[{"hosts":1000}]}"#, &[(1000, 1e9)]);
        assert_eq!(unreadable.len(), 1);
        assert!(unreadable[0].starts_with("baseline `trajectory` arm unreadable"));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(30.0), "30.0s");
        assert_eq!(fmt_secs(600.0), "10.0m");
        assert_eq!(fmt_secs(7200.0), "2.0h");
        assert_eq!(fmt_secs(259_200.0), "3.0d");
    }
}
