//! `service-grid`: the long-running service mode operators deploy.
//!
//! A `lattice::service::GridService` runs `lattice::system::standard_grid`
//! (the paper's 8 service-grid resources at four institutions) plus a
//! volunteer pool at quorum 2 with realistic churn, and every opt-in
//! subsystem on: recovery, validation, data, tenancy (registered and guest
//! tenants whose batches arrive over the first sim days), flow
//! (`DagSpec::phylo_pipeline` campaigns with deadlines) and the
//! observability pack. An E16-style fault storm (a site outage plus a
//! corruption window) runs underneath. The service runs for twelve
//! simulated days, auto-snapshots every simulated day, and crashes and
//! resumes from its latest snapshot file twice mid-run.
//!
//! The benchmark drives the service loop from outside, one public call at
//! a time — `Grid::run_until` to the next cut, the observability pump
//! (`service.snapshot_age_seconds` gauge and SLO alert paging), then
//! `GridService::snapshot_now` — which is the body of
//! `GridService::run_until`, so each part can be timed on its own.
//!
//! One round is one service session from a fresh start; a run repeats the
//! same session, so every round must reproduce the first one's fingerprint.

use crate::gridwork;
use crate::ledger::Ledger;
use crate::measure::{median, percentile, proc_status_bytes, run_dir, since, ScratchDir};
use crate::{Args, Outcome, TAIL};
use gridsim::boinc::{BoincConfig, DeadlinePolicy};
use gridsim::data::ObjectRef;
use gridsim::fault::{self, FaultAction};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::telemetry::TelemetryConfig;
use gridsim::{ChurnConfig, DagSpec, FlowConfig};
use lattice::service::{GridService, ResumeOutcome, ServiceConfig};
use portal::notify::{Outbox, SloAlert};
use simkit::{FaultScript, SimDuration, SimRng, SimTime, Snapshot};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use tenancy::{TenantId, TenantSpec};

/// Volunteer hosts beside the service grid.
pub const VOLUNTEERS: usize = 2_000;
/// Simulated time between auto-snapshots.
const SNAPSHOT_HOURS: u64 = 24;
/// Simulated length of a session. Every job settles within about eight
/// days (volunteer deadlines are two days); the service keeps running to
/// the horizon, so every session cuts the same number of snapshots.
const HORIZON_DAYS: u64 = 12;
/// The service crashes right after these auto-snapshots and resumes from
/// the file.
const CRASH_AFTER: [u64; 2] = [4, 8];
/// Set-up plus session seconds of one round on the reference host.
const ROUND_SECONDS: f64 = 2.6;
const OPERATOR: &str = "ops@example.org";
// Fixed input sizes: the seed draws durations, arrival times and estimate
// noise, so every seed offers the grid the same amount of work.
const LAB_BATCH: usize = 200;
const GUEST_BATCH: usize = 40;
const CAMPAIGN_REPLICATES: u64 = 120;

// `standard_grid` resource indices the fault storm targets: the umd site.
const UMD_PBS: usize = 0;
const UMD_SGE: usize = 1;
const UMD_CONDOR: usize = 4;

fn config(seed: u64, observability: bool) -> GridConfig {
    let mut c = lattice::system::standard_grid(seed);
    c.boinc = Some(BoincConfig {
        num_clients: VOLUNTEERS,
        quorum: 2,
        deadline: DeadlinePolicy::Fixed(SimDuration::from_days(2)),
        ..Default::default()
    });
    c.churn = Some(ChurnConfig::realistic());
    c.recovery = Some(gridsim::RecoveryPolicy::default());
    c.validation = Some(gridsim::ValidationConfig::default());
    c.data = Some(gridsim::DataConfig::default());
    c.tenancy = Some(gridsim::TenancyConfig::default());
    c.flow = Some(FlowConfig { dag_aware: true });
    c.telemetry = observability.then(|| TelemetryConfig::observability(SimDuration::from_hours(1)));
    c
}

/// The E16-style storm: the umd site drops twice, and a quarter of
/// volunteer results come back corrupt for the first two days.
fn storm() -> FaultScript<FaultAction> {
    let h = SimDuration::from_hours;
    let site = [UMD_PBS, UMD_SGE, UMD_CONDOR];
    let mut script = fault::site_outage(&site, SimTime::from_hours(6), h(10));
    script.merge(fault::site_outage(&site, SimTime::from_hours(40), h(6)));
    script.merge(fault::boinc_corruption(0.25, SimTime::ZERO, h(48)));
    script
}

/// One tenant and the batches it submits.
struct Tenant {
    spec: TenantSpec,
    batches: Vec<(SimTime, Vec<JobSpec>)>,
}

/// Everything a session submits, generated from the seed.
struct Inputs {
    tenants: Vec<Tenant>,
    campaigns: Vec<(u64, DagSpec)>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = SimRng::new(seed).fork("service-grid");
        let mut next_id = 0u64;
        let mut batch = |rng: &mut SimRng, n: usize, dataset: usize| {
            let input = ObjectRef::named(&format!("dataset-{dataset}"), 8 << 20);
            (0..n)
                .map(|_| {
                    let secs = rng.range_f64(0.5, 4.0) * 3600.0;
                    let mut job = JobSpec::simple(next_id, secs)
                        .with_estimate(secs * rng.lognormal(0.0, 0.2))
                        .with_input(input);
                    job.checkpointable = true;
                    next_id += 1;
                    job
                })
                .collect::<Vec<_>>()
        };
        let mut tenants = Vec::new();
        // Registered labs: steady batches over the first three days.
        for (lab, weight) in [("lab-a", 2.0), ("lab-b", 1.0), ("lab-c", 1.0)] {
            let mut batches = Vec::new();
            for b in 0..6 {
                let at = SimTime::from_secs_f64(rng.range_f64(0.0, 72.0) * 3600.0);
                batches.push((at, batch(&mut rng, LAB_BATCH, b % 4)));
            }
            tenants.push(Tenant {
                spec: TenantSpec::registered(lab, weight),
                batches,
            });
        }
        // Guests: small batches, one burst past the guest queue quota.
        for g in 0..3 {
            let mut batches = Vec::new();
            for _ in 0..2 {
                let at = SimTime::from_secs_f64(rng.range_f64(0.0, 48.0) * 3600.0);
                batches.push((at, batch(&mut rng, GUEST_BATCH, 4 + g)));
            }
            if g == 0 {
                batches.push((SimTime::from_hours(12), batch(&mut rng, 150, 4)));
            }
            tenants.push(Tenant {
                spec: TenantSpec::guest(&format!("guest-{g}@example.org")),
                batches,
            });
        }
        // DAG campaigns at t=0, alternating tight and loose deadlines.
        let campaigns = (0..6)
            .map(|i| {
                let spec = DagSpec::phylo_pipeline(
                    &format!("campaign-{i}"),
                    2,
                    CAMPAIGN_REPLICATES,
                    1800.0,
                    6.0 * 3600.0,
                    rng.range_f64(1.0, 3.0) * 3600.0,
                    900.0,
                )
                .with_deadline_hours(if i % 2 == 0 { 36.0 } else { 96.0 });
                let first = next_id;
                next_id += spec.total_jobs();
                (first, spec)
            })
            .collect();
        Inputs { tenants, campaigns }
    }
}

/// A fresh grid: built, tenants registered, faults injected.
fn build(seed: u64, observability: bool, inputs: &Inputs, ids: &mut Vec<TenantId>) -> Grid {
    let mut grid = Grid::new(config(seed, observability));
    for t in &inputs.tenants {
        ids.push(grid.register_tenant(t.spec.clone()));
    }
    grid.inject_faults(storm());
    grid
}

/// What `GridService::run_until` does between event-loop segments: refresh
/// the snapshot-age gauge and page the operator about fired SLO alerts.
fn pump(service: &mut GridService, outbox: &mut Outbox) {
    if let Some(age) = service.snapshot_age_micros() {
        service
            .grid_mut()
            .set_telemetry_gauge("service.snapshot_age_seconds", age as f64 / 1e6);
    }
    for a in service.grid_mut().drain_fired_alerts() {
        outbox.page(
            OPERATOR,
            &SloAlert {
                rule: a.rule.clone(),
                series: a.series.clone(),
                value: a.value,
                threshold: a.threshold,
                above: a.above,
                fired_at_seconds: a.fired_at_micros as f64 / 1e6,
            },
        );
    }
}

#[derive(Default)]
struct Round {
    setup_s: f64,
    session_s: f64,
    loop_s: f64,
    checkpoints: Vec<f64>,
    resumes: Vec<f64>,
    snapshot_bytes: u64,
    report: Option<GridReport>,
    events: u64,
    pages: u64,
    /// Seconds of traced-only probes inside `session_s`.
    probe_s: f64,
    failures: Vec<String>,
    start_mark: f64,
}

fn round(
    seed: u64,
    observability: bool,
    dir: &Path,
    ledger: &mut Ledger,
    events: &mut BTreeMap<String, u64>,
) -> Result<Round, String> {
    let mut r = Round::default();
    let _ = std::fs::remove_dir_all(dir);
    let svc_config = ServiceConfig::new(dir.join("grid.snap"))
        .with_interval(SimDuration::from_hours(SNAPSHOT_HOURS))
        .with_operator(OPERATOR);
    let interval = svc_config.snapshot_interval;
    let snap_err = |e: simkit::snapshot::SnapshotError| format!("snapshot: {e}");

    // Set-up: generate the inputs and start the service fresh.
    let t = Instant::now();
    let mut ids = Vec::new();
    let inputs = ledger.time("Inputs::generate", "grid.build_s", || {
        Inputs::generate(seed)
    });
    let mut service = ledger
        .time("GridService::start", "grid.build_s", || {
            GridService::start(svc_config.clone(), || {
                build(seed, observability, &inputs, &mut ids)
            })
        })
        .map_err(snap_err)?;
    r.setup_s = since(t);
    if service.resume_outcome() != ResumeOutcome::Fresh {
        r.failures.push("service did not start fresh".into());
    }
    if ledger.enabled() {
        service.grid_mut().enable_profiling();
    }

    // The session: submissions, then the service loop to the horizon.
    r.start_mark = ledger.now();
    let t = Instant::now();
    let mut outbox = Outbox::new();
    ledger.time("Grid::submit", "grid.submit_busy_s", || {
        let grid = service.grid_mut();
        for (tenant, id) in inputs.tenants.iter().zip(&ids) {
            for (at, jobs) in &tenant.batches {
                for job in jobs {
                    grid.submit_for_at(*id, job.clone(), *at);
                }
            }
        }
        for (first, spec) in &inputs.campaigns {
            grid.submit_dag(*first, spec.clone())
                .expect("campaign specs are valid");
        }
    });
    let horizon = SimTime::from_days(HORIZON_DAYS);
    let mut cuts = 0u64;
    loop {
        let next_cut =
            (service.last_snapshot_at().unwrap_or(service.grid().now()) + interval).min(horizon);
        let t_loop = Instant::now();
        let span = ledger.begin("Grid::run_until", "calendar.busy_s");
        service.grid_mut().run_until(next_cut);
        ledger.end(span);
        r.loop_s += since(t_loop);
        if ledger.enabled() {
            let profile = service.grid().profile_report().expect("profiling enabled");
            gridwork::attribute_profile(ledger, span, &profile, events);
            // A fresh profiler per segment: reports are cumulative.
            service.grid_mut().enable_profiling();
        }
        ledger.time("service.pump", "service.pump_s", || {
            pump(&mut service, &mut outbox)
        });

        let t_cut = Instant::now();
        let span = ledger.begin("GridService::snapshot_now", "snapshot.write_s");
        service.snapshot_now().map_err(snap_err)?;
        ledger.end(span);
        r.checkpoints.push(since(t_cut));
        if ledger.enabled() {
            // Split the pause: time one more encode of the same state and
            // charge that much of it to the encoder.
            let t_encode = Instant::now();
            let text = service.grid().to_snapshot();
            let encode_s = since(t_encode);
            ledger.attribute(span, "snapshot.encode_s", encode_s);
            r.probe_s += encode_s;
            r.snapshot_bytes += text.len() as u64;
        }
        cuts += 1;
        if next_cut >= horizon {
            break;
        }
        if CRASH_AFTER.contains(&cuts) {
            // Crash: drop the live service and restart from the file.
            drop(service);
            let t_resume = Instant::now();
            let span = ledger.begin("GridService::start(resume)", "resume_s");
            service = GridService::start(svc_config.clone(), || {
                panic!("a snapshot file exists; the service must resume from it")
            })
            .map_err(snap_err)?;
            ledger.end(span);
            r.resumes.push(since(t_resume));
            if service.resume_outcome() != ResumeOutcome::Resumed {
                r.failures.push(format!(
                    "resume after cut {cuts}: {:?}",
                    service.resume_outcome()
                ));
            }
            if ledger.enabled() {
                let t_probe = Instant::now();
                let path = dir.join("grid.snap");
                let text = ledger
                    .probe("read snapshot file", "snapshot.read_s", || {
                        std::fs::read_to_string(&path)
                    })
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let decoded = ledger.probe("Grid::from_snapshot", "snapshot.decode_s", || {
                    Grid::from_snapshot(&text)
                });
                drop(decoded.map_err(snap_err)?);
                r.probe_s += since(t_probe);
                service.grid_mut().enable_profiling();
            }
        }
    }
    let report = ledger.time("Grid::report", "grid.report_s", || service.grid().report());
    r.session_s = since(t) - r.probe_s;
    r.pages = outbox.emails().len() as u64;

    if ledger.enabled() && observability {
        ledger.probe("telemetry export", "telemetry.export_s", || {
            let snap = service.grid().telemetry_snapshot().expect("telemetry on");
            let trace = service.grid().chrome_trace().unwrap_or_default();
            let page =
                portal::status::render_text_with_snapshot(&snap, service.snapshot_age_micros());
            drop((trace, page));
        });
    }
    r.failures
        .extend(gridwork::conservation(service.grid(), &report, true));
    r.events = service.grid().events_processed();
    r.report = Some(report);
    let _ = std::fs::remove_dir_all(dir);
    Ok(r)
}

fn record_counts(outcome: &mut Outcome, r: &Round, report: &GridReport) {
    outcome.count("calendar.events", r.events);
    outcome.count("grid.dispatches", report.dispatches);
    outcome.count("grid.completed", report.completed as u64);
    outcome.count("grid.dead_lettered", report.dead_lettered as u64);
    outcome.count("boinc.reissues", report.total_reissues as u64);
    outcome.count("service.checkpoints", r.checkpoints.len() as u64);
    outcome.count("service.resumes", r.resumes.len() as u64);
    outcome.count("service.pages", r.pages);
    if let Some(t) = &report.tenancy {
        outcome.count("tenancy.rejected", t.rejected);
    }
    if let Some(f) = &report.flow {
        outcome.count("flow.deadline_misses", f.deadlines_missed);
    }
}

/// Run the workload (see the module docs).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let scratch = ScratchDir::new("service-grid").map_err(|e| format!("scratch dir: {e}"))?;
    // A traced run: an untraced round (overhead baseline), the traced
    // round, and an untraced round with the observability pack off (its
    // cost, and proof that it only observes).
    let plan: Vec<(bool, bool)> = if args.trace {
        vec![(false, true), (true, true), (false, false)]
    } else {
        let n = ((args.seconds / ROUND_SECONDS).round() as usize).max(1);
        vec![(false, true); n]
    };
    let (mut setups, mut sessions, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = BTreeMap::new();
    let mut first: Option<(u64, u64)> = None;
    let mut traced = None;
    let mut bare_loop_s = 0.0;
    let mut observed_loop_s = 0.0;
    let rss_before = proc_status_bytes("VmRSS");
    let mut rss_per_wu = 0.0;
    let mut ledger = Ledger::new(false);
    for (i, &(trace_this, observability)) in plan.iter().enumerate() {
        if trace_this {
            ledger = Ledger::new(true);
        }
        let dir = scratch.path().join(format!("round-{i}"));
        let mut r = if trace_this {
            round(args.seed, observability, &dir, &mut ledger, &mut events)?
        } else {
            round(
                args.seed,
                observability,
                &dir,
                &mut Ledger::new(false),
                &mut events,
            )?
        };
        let mut report = r.report.take().expect("round produced a report");
        if i == 0 {
            rss_per_wu = proc_status_bytes("VmHWM").saturating_sub(rss_before) as f64
                / report.total_jobs.max(1) as f64;
        }
        let fp = gridwork::fingerprint(&mut report);
        match first {
            None => first = Some((fp, r.events)),
            Some(f) if f != (fp, r.events) => r.failures.push(format!(
                "round {i} (observability {observability}) diverged: \
                 fingerprint/events {fp:016x}/{} vs {:016x}/{}",
                r.events, f.0, f.1
            )),
            Some(_) => {}
        }
        outcome.operation(&format!("round {i}"), std::mem::take(&mut r.failures));
        if !observability {
            bare_loop_s = r.loop_s;
        } else if !trace_this {
            observed_loop_s = r.loop_s;
            setups.push(r.setup_s);
            sessions.push(r.session_s);
            rates.push(report.completed as f64 / r.session_s);
            record_counts(&mut outcome, &r, &report);
            outcome.fingerprint = fp;
        }
        if trace_this {
            traced = Some((r, report));
        }
    }

    if let Some((r, report)) = traced {
        gridwork::report_layers(&mut outcome, &ledger, &events);
        outcome.set("calendar.events", r.events as f64);
        outcome.set("calendar.events_per_s", r.events as f64 / observed_loop_s);
        outcome.set("grid.dispatches", report.dispatches as f64);
        outcome.set("boinc.reissues", report.total_reissues as f64);
        outcome.set("grid.dead_lettered", report.dead_lettered as f64);
        let cpu = report.useful_cpu_seconds + report.wasted_cpu_seconds;
        outcome.set(
            "boinc.useful_cpu_frac",
            report.useful_cpu_seconds / cpu.max(1e-9),
        );
        outcome.set("grid.rss_bytes_per_wu", rss_per_wu);
        outcome.set("telemetry.cost_s", observed_loop_s - bare_loop_s);
        if let Some(t) = &report.tenancy {
            outcome.set("tenancy.rejected", t.rejected as f64);
        }
        if let Some(f) = &report.flow {
            outcome.set("flow.deadline_misses", f.deadlines_missed as f64);
        }
        if let Some(v) = &report.validation {
            outcome.set(
                "quorum.replicas_per_result",
                v.results as f64 / v.completed.max(1) as f64,
            );
        }
        if let Some(d) = &report.data {
            outcome.set(
                "data.cache_hit_rate",
                d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64,
            );
        }
        outcome.set("snapshot.bytes", r.snapshot_bytes as f64);
        outcome.set("checkpoint_s", median(&r.checkpoints));
        outcome.set("resume_s", median(&r.resumes));
        outcome.set("trace.overhead", r.session_s / sessions[0]);
        outcome.set(
            "trace.unattributed_s",
            (r.session_s - ledger.covered_seconds(r.start_mark)).max(0.0),
        );
        let path = run_dir().join(format!("trace-service-grid-seed{}.json", args.seed));
        ledger
            .write_chrome_trace(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        outcome.set("setup_s", median(&setups));
        outcome.set("wu_per_s", median(&rates));
        outcome.set("submit_p50_s", median(&sessions));
        outcome.set("submit_tail_s", percentile(&sessions, TAIL));
    }
    outcome.set("peak_rss_mb", crate::measure::peak_rss_mb());
    Ok(outcome)
}
