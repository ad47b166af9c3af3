//! E16 — observability under fire: alert timelines, causal traces, and the
//! pure-observer guarantee.
//!
//! The paper's grid was operated by humans reading status pages and email;
//! this experiment demonstrates the reproduction's observability layer
//! doing that job deterministically. It replays the E12 fault campaign's
//! two nastiest ingredients at once — the correlated site-a outages *and*
//! a volunteer-pool corruption storm — against a fully instrumented grid:
//!
//! * **pure observer** — the instrumented run's whole report, per-job
//!   records included, must hash (`bench::report_fnv`) like that of an
//!   uninstrumented run of the same campaign. Time series, SLO
//!   evaluation, and trace spans ride on the event stream; they never
//!   schedule events or draw randomness.
//! * **alert timeline** — the default SLO rule pack
//!   (`gridsim::slo::default_rules`) must fire at least one alert, and the
//!   firing boundary must land where the fault script says the trouble is
//!   (the assertions below pin each fired rule to its causal window).
//! * **causal traces** — the span log exports Chrome trace-event JSON in
//!   which every BOINC reissue marker is parent-linked into its job's
//!   attempt chain (load `bench_results/e16_observability_trace.json` into
//!   `about://tracing` / Perfetto to see the lineage).
//! * **profiler** — `simkit::profile` reports host-side events/sec for the
//!   instrumented run; the throughput lands in `BENCH_e16_observability.json`
//!   at the workspace root.
//!
//! Knobs: `LATTICE_E16_JOBS` (default 150), `LATTICE_SEED` (default 2011).

use bench::{
    checkpointable_campaign, env_usize, fault_grid, header, report_fnv, write_baseline,
    write_grid_metrics, write_json, SITE_A,
};
use gridsim::boinc::BoincConfig;
use gridsim::fault::{self, FaultAction};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::slo::Alert;
use gridsim::telemetry::TelemetryConfig;
use simkit::{FaultScript, SimDuration, SimRng, SimTime};

/// First site-wide outage: both site-a clusters drop at t=4h for 8h.
const OUTAGE_START_H: u64 = 4;

/// The E12 grid plus the volunteer pool, replicated at quorum 2 because
/// the corruption storm is on.
fn base_config(seed: u64, telemetry: Option<TelemetryConfig>) -> GridConfig {
    GridConfig {
        boinc: Some(BoincConfig {
            quorum: 2,
            ..Default::default()
        }),
        validation: Some(gridsim::ValidationConfig::default()),
        telemetry,
        ..fault_grid(seed)
    }
}

/// The combined storm: E12's correlated site outages merged with its
/// volunteer corruption window.
fn storm() -> FaultScript<FaultAction> {
    let h = SimDuration::from_hours;
    let mut script = fault::site_outage(&SITE_A, SimTime::from_hours(OUTAGE_START_H), h(8));
    script.merge(fault::site_outage(&SITE_A, SimTime::from_hours(20), h(6)));
    script.merge(fault::boinc_corruption(0.25, SimTime::ZERO, h(72)));
    script
}

fn run_arm(n_jobs: usize, seed: u64, telemetry: Option<TelemetryConfig>) -> (Grid, GridReport) {
    let instrumented = telemetry.is_some();
    let mut grid = Grid::new(base_config(seed, telemetry));
    if instrumented {
        grid.enable_profiling();
    }
    grid.inject_faults(storm());
    let mut wrng = SimRng::new(seed ^ 0xE16);
    grid.submit(checkpointable_campaign(&mut wrng, n_jobs));
    let report = grid.run_until_done(SimTime::from_days(30));
    (grid, report)
}

/// One fired alert, flattened for the timeline table and the JSON artifact.
#[derive(serde::Serialize)]
struct TimelineRow {
    rule: String,
    series: String,
    fired_at_hours: f64,
    resolved_at_hours: Option<f64>,
    value: f64,
    threshold: f64,
}

impl TimelineRow {
    fn from_alert(a: &Alert) -> TimelineRow {
        TimelineRow {
            rule: a.rule.clone(),
            series: a.series.clone(),
            fired_at_hours: a.fired_at_micros as f64 / 3.6e9,
            resolved_at_hours: a.resolved_at_micros.map(|m| m as f64 / 3.6e9),
            value: a.value,
            threshold: a.threshold,
        }
    }
}

/// The headline summary committed at the workspace root.
#[derive(serde::Serialize)]
struct BenchSummary {
    experiment: &'static str,
    jobs: usize,
    seed: u64,
    alerts_fired: u64,
    alerts_resolved: u64,
    first_alert_hours: f64,
    spans_recorded: u64,
    spans_dropped: u64,
    reissue_spans_in_trace: usize,
    profile: simkit::profile::ProfileReport,
}

/// Parse the Chrome trace, index every event's span id, and return the
/// number of `reissue` markers — asserting each one records a queued copy
/// and that its parent id resolves to another event in the trace (the
/// attempt chain is never dangling).
fn check_trace_lineage(trace_json: &str) -> usize {
    let doc: serde::Value = serde_json::from_str(trace_json).expect("trace is valid JSON");
    let events = match serde::field::<serde::Value>(doc.as_map().unwrap(), "traceEvents") {
        Ok(serde::Value::Seq(events)) => events,
        other => panic!("traceEvents must be a sequence, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must contain events");
    let mut span_ids = std::collections::BTreeSet::new();
    let mut reissues: Vec<(u64, Option<u64>)> = Vec::new();
    for ev in &events {
        let map = ev.as_map().expect("trace event is an object");
        let name: String = serde::field(map, "name").expect("event has a name");
        let args = serde::field::<serde::Value>(map, "args").expect("event has args");
        let args = args.as_map().expect("args is an object");
        let span: u64 = serde::field(args, "span").expect("event carries its span id");
        span_ids.insert(span);
        let parent: Option<u64> = serde::field(args, "parent").ok();
        if name == "reissue" {
            let reissued: u64 = serde::field(args, "reissued").expect("marker counts its copies");
            assert!(reissued > 0, "reissue span {span} queued no copy");
            reissues.push((span, parent));
        }
    }
    for (span, parent) in &reissues {
        let parent = parent.unwrap_or_else(|| {
            panic!("reissue span {span} must be parent-linked into its attempt chain")
        });
        assert!(
            span_ids.contains(&parent),
            "reissue span {span}: parent {parent} not present in the trace"
        );
    }
    reissues.len()
}

fn main() {
    let n_jobs = env_usize("LATTICE_E16_JOBS", 150);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    header("E16 — observability under the E12 fault storm (site outages + volunteer corruption)");
    println!(
        "campaign: {n_jobs} checkpointable 2-6h jobs; site-a down 4h-12h and 20h-26h; \
         volunteer corruption 0-72h at p=0.25, quorum 2"
    );

    // Arm 1: uninstrumented baseline.
    let (_, baseline) = run_arm(n_jobs, seed, None);

    // Arm 2: the same campaign with the full observability pack — 30-minute
    // windows, the default SLO rule set, span tracing, and the profiler.
    let window = SimDuration::from_mins(30);
    let mut pack = TelemetryConfig::observability(window);
    // Keep the whole campaign's span history: the lineage check below
    // requires every reissue marker's parent to still be in the log.
    pack.trace_capacity = 1 << 16;
    // Campaign-tuned addition to the default pack: a bounce-rate series
    // plus a rule that pages when more than ~10 jobs/window are thrown
    // back into the queue — the signature of a site-wide outage.
    if let Some(ts) = pack.timeseries.as_mut() {
        ts.specs.push(simkit::timeseries::SeriesSpec {
            name: "bounce_rate".into(),
            kind: simkit::timeseries::SeriesKind::CounterRate {
                counter: "job.bounces".into(),
            },
        });
    }
    if let Some(slo) = pack.slo.as_mut() {
        slo.rules.push(gridsim::slo::SloRule::above(
            "bounce-storm",
            "bounce_rate",
            10.0 / window.as_secs_f64(),
            1,
        ));
    }
    let (grid, observed) = run_arm(n_jobs, seed, Some(pack));

    let (observed_fnv, baseline_fnv) = (report_fnv(&observed), report_fnv(&baseline));
    assert!(
        observed_fnv == baseline_fnv,
        "observability must be a pure observer: instrumented report hash 0x{observed_fnv:016x} \
         != baseline 0x{baseline_fnv:016x}"
    );
    println!(
        "\npure observer: instrumented run bit-identical to baseline \
         ({} completed, {} corrupt, {} reissues, makespan {:.1}h)",
        observed.completed,
        observed.corrupt_completions,
        observed.total_reissues,
        observed.makespan_seconds.unwrap_or(0.0) / 3600.0
    );

    // --- Series summary -------------------------------------------------
    let telemetry = grid.world().telemetry().expect("telemetry enabled");
    let series = telemetry.series().expect("series configured");
    header("time series (30-minute windows)");
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>12}",
        "series", "points", "min", "max", "last"
    );
    for spec in [
        "deadline_miss_rate",
        "queue_depth",
        "cache_hit_rate",
        "blacklists",
        "snapshot_age",
        "quorum_p95",
        "bounce_rate",
    ] {
        let points = series.points(spec).unwrap_or(&[]);
        let values: Vec<f64> = points.iter().map(|p| p.value).collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if values.is_empty() {
            println!("{spec:<20} {:>8} (no points)", 0);
        } else {
            println!(
                "{spec:<20} {:>8} {:>12.4} {:>12.4} {:>12.4}",
                values.len(),
                min,
                max,
                values.last().unwrap()
            );
        }
    }

    // --- Alert timeline ------------------------------------------------
    let slo = telemetry.slo().expect("slo engine configured");
    let timeline: Vec<TimelineRow> = slo.alerts().iter().map(TimelineRow::from_alert).collect();

    header("alert timeline (sim-time hours)");
    println!(
        "{:<24} {:<18} {:>9} {:>11} {:>12} {:>11}",
        "rule", "series", "fired", "resolved", "value", "threshold"
    );
    for row in &timeline {
        println!(
            "{:<24} {:<18} {:>8.1}h {:>10} {:>12.3} {:>11.3}",
            row.rule,
            row.series,
            row.fired_at_hours,
            row.resolved_at_hours
                .map(|h| format!("{h:.1}h"))
                .unwrap_or_else(|| "-".into()),
            row.value,
            row.threshold
        );
    }

    assert!(
        !timeline.is_empty(),
        "the storm must trip at least one SLO rule"
    );
    // Causality pin #1: the site outage starts at exactly 4h and instantly
    // bounces everything running on site-a's 32 slots, so the bounce-storm
    // rule must fire at the first window boundary inside the outage — and
    // resolve once the bounced work has been re-dispatched (hysteresis:
    // one alert, not one per breaching window).
    let bounce = timeline
        .iter()
        .find(|r| r.rule == "bounce-storm")
        .expect("the 4h site outage must trip bounce-storm");
    assert!(
        bounce.fired_at_hours > OUTAGE_START_H as f64
            && bounce.fired_at_hours <= OUTAGE_START_H as f64 + 1.0,
        "bounce-storm fired at {:.1}h; the outage bounces at exactly {OUTAGE_START_H}h",
        bounce.fired_at_hours
    );
    assert!(
        bounce.resolved_at_hours.is_some(),
        "bounce-storm must resolve once the bounced work is re-dispatched"
    );
    // Causality pin #2: corruption at p=0.25 forces quorum retries, so the
    // p95 quorum wait must climb past the 48h SLO while the 72h corruption
    // window is still (or has just stopped) doing damage.
    let quorum = timeline
        .iter()
        .find(|r| r.rule == "quorum-latency-p95")
        .expect("the corruption storm must trip quorum-latency-p95");
    assert!(
        quorum.fired_at_hours > 48.0 && quorum.fired_at_hours <= 80.0,
        "quorum-latency-p95 fired at {:.1}h, not attributable to the 0-72h corruption window",
        quorum.fired_at_hours
    );
    // The blacklist counter rule fires too (flaky-condor churn), proving
    // the default pack works unmodified alongside campaign-tuned rules.
    assert!(
        timeline.iter().any(|r| r.rule == "resource-blacklisted"),
        "repeated failures must trip resource-blacklisted"
    );
    // Every fired alert must land inside the simulated horizon.
    let makespan_h = observed.makespan_seconds.unwrap_or(0.0) / 3600.0;
    for row in &timeline {
        assert!(
            row.fired_at_hours <= makespan_h + 1.0,
            "{} fired at {:.1}h, beyond the campaign",
            row.rule,
            row.fired_at_hours
        );
    }
    let snapshot = write_grid_metrics("e16_observability", &grid);
    let slo_snap = snapshot.slo.clone().expect("slo snapshot present");
    println!(
        "\n{} fired, {} resolved, {} firing at end of campaign",
        slo_snap.fired_total, slo_snap.resolved_total, slo_snap.firing_now
    );

    // --- Causal trace ---------------------------------------------------
    let trace_json = grid.chrome_trace().expect("tracing enabled");
    let reissue_spans = check_trace_lineage(&trace_json);
    let trace_summary = snapshot.trace.expect("trace summary present");
    assert!(
        reissue_spans > 0,
        "quorum-2 volunteer corruption must produce parent-linked reissue spans"
    );
    println!(
        "trace: {} spans recorded ({} retained, {} dropped); {} reissue markers, \
         every one parent-linked into its attempt chain",
        trace_summary.recorded, trace_summary.retained, trace_summary.dropped, reissue_spans
    );
    let trace_path = bench::results_dir().join("e16_observability_trace.json");
    std::fs::write(&trace_path, &trace_json).expect("write chrome trace");
    eprintln!("[out] {}", trace_path.display());

    // --- Profiler -------------------------------------------------------
    let profile = grid.profile_report().expect("profiling enabled");
    println!("profile: {}", profile.one_line());
    assert!(profile.events > 0 && profile.events_per_sec > 0.0);

    // --- Artifacts ------------------------------------------------------
    let first_alert_hours = timeline
        .iter()
        .map(|r| r.fired_at_hours)
        .fold(f64::INFINITY, f64::min);
    let summary = BenchSummary {
        experiment: "e16_observability",
        jobs: n_jobs,
        seed,
        alerts_fired: slo_snap.fired_total,
        alerts_resolved: slo_snap.resolved_total,
        first_alert_hours,
        spans_recorded: trace_summary.recorded,
        spans_dropped: trace_summary.dropped,
        reissue_spans_in_trace: reissue_spans,
        profile,
    };
    write_baseline("e16_observability", &summary);

    write_json("e16_observability", &timeline);
}
