//! `volunteer-pool`: the paper's 23,192-host BOINC pool in the E17 shape.
//!
//! Eight short, estimated workunits per host (15–60 reference minutes) are
//! submitted at t=0 and run to completion through `Grid::new` /
//! `Grid::submit` / `Grid::run_until_done`. Telemetry and every opt-in
//! subsystem are off, so nearly all time goes to the dispatch core: the
//! calendar, the BOINC feeder and churn flips, the index/scheduler and
//! per-workunit records. Telemetry, snapshots and the likelihood kernel
//! are bypassed.
//!
//! One round is one fresh grid: set-up (build the grid and generate the
//! workunits) and then the timed submit → results. A run repeats the same
//! round, so every round must reproduce the first one's fingerprint.

use crate::gridwork;
use crate::ledger::Ledger;
use crate::measure::{median, percentile, proc_status_bytes, run_dir, since};
use crate::{Args, Outcome, TAIL};
use gridsim::boinc::BoincConfig;
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use simkit::{SimRng, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's volunteer pool size.
pub const HOSTS: usize = 23_192;
/// Workunits per host.
pub const WU_PER_HOST: usize = 8;
/// Set-up plus run seconds of one round on the reference host; sizes a run.
const ROUND_SECONDS: f64 = 3.2;

fn config(seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: HOSTS,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

/// Short, estimated workunits: they pass the 10 h stability cutoff for
/// the (unstable) volunteer pool and keep the horizon in hours.
fn inputs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed).fork("volunteer-pool");
    (0..HOSTS * WU_PER_HOST)
        .map(|i| {
            let secs = rng.range_f64(900.0, 3600.0);
            JobSpec::simple(i as u64, secs).with_estimate(secs)
        })
        .collect()
}

struct Round {
    setup_s: f64,
    run_s: f64,
    report: GridReport,
    events: u64,
    failures: Vec<String>,
    /// Run start, in ledger seconds (traced rounds).
    start_mark: f64,
}

fn round(seed: u64, ledger: &mut Ledger, events: &mut BTreeMap<String, u64>) -> Round {
    let t = Instant::now();
    let (mut grid, jobs) = ledger.time("Grid::new", "grid.build_s", || {
        (Grid::new(config(seed)), inputs(seed))
    });
    let setup_s = since(t);
    if ledger.enabled() {
        grid.enable_profiling();
    }

    let start_mark = ledger.now();
    let t = Instant::now();
    ledger.time("Grid::submit", "grid.submit_busy_s", || grid.submit(jobs));
    let run = ledger.begin("Grid::run_until_done", "calendar.busy_s");
    let report = grid.run_until_done(SimTime::from_days(120));
    ledger.end(run);
    let run_s = since(t);

    if ledger.enabled() {
        let profile = grid.profile_report().expect("profiling enabled");
        gridwork::attribute_profile(ledger, run, &profile, events);
        // `run_until_done` ends by building the report; time one more
        // build of the same report and charge it to the report layer.
        let t = Instant::now();
        drop(grid.report());
        ledger.attribute(run, "grid.report_s", since(t));
    }
    let mut failures = gridwork::conservation(&grid, &report, true);
    if report.completed != HOSTS * WU_PER_HOST {
        failures.push(format!("only {} workunits completed", report.completed));
    }
    Round {
        setup_s,
        run_s,
        events: grid.events_processed(),
        report,
        failures,
        start_mark,
    }
}

/// Run the workload (see the module docs).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // A traced run is one untraced round (the overhead baseline) and one
    // traced round on the same inputs.
    let rounds = if args.trace {
        2
    } else {
        ((args.seconds / ROUND_SECONDS).round() as usize).max(1)
    };
    let (mut setups, mut runs, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut ledger = Ledger::new(false);
    let mut events = BTreeMap::new();
    let mut first: Option<(u64, u64)> = None;
    let rss_before = proc_status_bytes("VmRSS");
    let mut rss_per_wu = 0.0;
    let mut traced_round = None;
    for i in 0..rounds {
        let traced = args.trace && i == 1;
        if traced {
            ledger = Ledger::new(true);
        }
        let mut r = round(args.seed, &mut ledger, &mut events);
        if i == 0 {
            rss_per_wu = proc_status_bytes("VmHWM").saturating_sub(rss_before) as f64
                / (HOSTS * WU_PER_HOST) as f64;
        }
        let fp = gridwork::fingerprint(&mut r.report);
        match first {
            None => first = Some((fp, r.events)),
            Some(f) if f != (fp, r.events) => r.failures.push(format!(
                "round {i} diverged: fingerprint/events {fp:016x}/{} vs {:016x}/{}",
                r.events, f.0, f.1
            )),
            Some(_) => {}
        }
        outcome.operation(&format!("round {i}"), std::mem::take(&mut r.failures));
        setups.push(r.setup_s);
        runs.push(r.run_s);
        rates.push(r.report.completed as f64 / r.run_s);
        if traced {
            traced_round = Some(r);
        } else if i + 1 == rounds || (args.trace && i == 0) {
            // Keep the counts of the last untraced round.
            outcome.count("calendar.events", r.events);
            outcome.count("grid.dispatches", r.report.dispatches);
            outcome.count("boinc.reissues", r.report.total_reissues as u64);
            outcome.count("grid.completed", r.report.completed as u64);
            outcome.count("grid.dead_lettered", r.report.dead_lettered as u64);
            outcome.fingerprint = fp;
        }
    }

    if let Some(r) = traced_round {
        gridwork::report_layers(&mut outcome, &ledger, &events);
        let rep = &r.report;
        outcome.set("calendar.events", r.events as f64);
        outcome.set("calendar.events_per_s", r.events as f64 / runs[0]);
        outcome.set("grid.dispatches", rep.dispatches as f64);
        outcome.set("boinc.reissues", rep.total_reissues as f64);
        outcome.set("grid.dead_lettered", rep.dead_lettered as f64);
        let cpu = rep.useful_cpu_seconds + rep.wasted_cpu_seconds;
        outcome.set(
            "boinc.useful_cpu_frac",
            rep.useful_cpu_seconds / cpu.max(1e-9),
        );
        outcome.set("grid.rss_bytes_per_wu", rss_per_wu);
        outcome.set("trace.overhead", r.run_s / runs[0]);
        outcome.set(
            "trace.unattributed_s",
            (r.run_s - ledger.covered_seconds(r.start_mark)).max(0.0),
        );
        let path = run_dir().join(format!("trace-volunteer-pool-seed{}.json", args.seed));
        ledger
            .write_chrome_trace(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        outcome.set("setup_s", median(&setups));
        outcome.set("wu_per_s", median(&rates));
        outcome.set("submit_p50_s", median(&runs));
        outcome.set("submit_tail_s", percentile(&runs, TAIL));
    }
    outcome.set("peak_rss_mb", crate::measure::peak_rss_mb());
    Ok(outcome)
}
