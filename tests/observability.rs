//! Cross-crate observability: the telemetry stack is deterministic, inert
//! (never changes simulation outcomes), and renderable by the portal.
//!
//! The acceptance bar for the telemetry layer: replaying the same seeded
//! scenario twice yields byte-identical `TelemetrySnapshot` JSON, and
//! enabling telemetry leaves every simulation outcome untouched.

use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use lattice::system::{observed_grid, standard_grid};
use simkit::{SimRng, SimTime};

/// A mixed workload over the standard 4-institution + BOINC layout.
fn workload(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed);
    (0..n as u64)
        .map(|id| {
            let true_secs = rng.lognormal(8.5, 1.0);
            let mut j =
                JobSpec::simple(id, true_secs).with_estimate(true_secs * rng.lognormal(0.0, 0.25));
            j.checkpointable = true;
            j
        })
        .collect()
}

fn run(config: GridConfig, n: usize, seed: u64) -> (GridReport, Option<String>) {
    let mut grid = Grid::new(config);
    grid.submit(workload(n, seed ^ 0x0B5));
    let report = grid.run_until_done(SimTime::from_days(14));
    let json = grid
        .telemetry_snapshot()
        .map(|s| serde_json::to_string(&s).expect("snapshot serializes"));
    (report, json)
}

fn outcome_fingerprint(r: &GridReport) -> (usize, usize, u32, u64, u64, Option<u64>) {
    (
        r.completed,
        r.dead_lettered,
        r.total_reissues,
        r.useful_cpu_seconds.to_bits(),
        r.wasted_cpu_seconds.to_bits(),
        r.makespan_seconds.map(f64::to_bits),
    )
}

#[test]
fn snapshot_json_is_byte_identical_across_replays() {
    let (_, a) = run(observed_grid(42), 60, 42);
    let (_, b) = run(observed_grid(42), 60, 42);
    let (a, b) = (a.expect("telemetry enabled"), b.expect("telemetry enabled"));
    assert_eq!(
        a, b,
        "replaying a seeded scenario must reproduce the snapshot byte for byte"
    );
}

#[test]
fn telemetry_never_changes_outcomes_on_the_standard_grid() {
    let (observed, snap) = run(observed_grid(7), 60, 7);
    let (plain, none) = run(standard_grid(7), 60, 7);
    assert!(snap.is_some() && none.is_none());
    assert_eq!(
        outcome_fingerprint(&observed),
        outcome_fingerprint(&plain),
        "telemetry must be a pure observer"
    );
    assert_eq!(observed.completed_by, plain.completed_by);
}

#[test]
fn portal_status_page_renders_the_standard_grid_deterministically() {
    let render = |seed: u64| {
        let mut grid = Grid::new(observed_grid(seed));
        grid.submit(workload(40, seed));
        let _ = grid.run_until_done(SimTime::from_days(14));
        let snap = grid.telemetry_snapshot().expect("telemetry enabled");
        (
            portal::status::render_text(&snap),
            portal::status::render_json(&snap),
        )
    };
    let (text_a, json_a) = render(11);
    let (text_b, json_b) = render(11);
    assert_eq!(text_a, text_b);
    assert_eq!(json_a, json_b);
    // The page names every institution of the standard layout.
    for site in ["umd", "bowie", "smithsonian", "coppin"] {
        assert!(text_a.contains(site), "status page missing site {site}");
    }
    assert!(
        text_a.contains("MDS"),
        "status page missing the MDS section"
    );
}

/// The full observability pack (windowed series, SLO engine, trace spans)
/// on the standard grid: replays are byte-identical down to the Chrome
/// trace export, the pack is still a pure observer, and the status page
/// renders the Alerts and Series sections.
#[test]
fn observability_pack_is_deterministic_inert_and_renderable() {
    use gridsim::telemetry::TelemetryConfig;
    use simkit::SimDuration;

    let seed = 19;
    let pack = || GridConfig {
        telemetry: Some(TelemetryConfig::observability(SimDuration::from_mins(30))),
        ..standard_grid(seed)
    };
    let run_pack = || {
        let mut grid = Grid::new(pack());
        grid.submit(workload(50, seed ^ 0x0B5));
        let report = grid.run_until_done(SimTime::from_days(14));
        let trace = grid.chrome_trace().expect("tracing enabled");
        let snap = grid.telemetry_snapshot().expect("telemetry enabled");
        let page = portal::status::render_text(&snap);
        let snap_json = serde_json::to_string(&snap).expect("snapshot serializes");
        (report, trace, snap_json, page)
    };

    let (report_a, trace_a, snap_a, page_a) = run_pack();
    let (_, trace_b, snap_b, page_b) = run_pack();
    assert_eq!(
        trace_a, trace_b,
        "chrome trace must replay byte-identically"
    );
    assert_eq!(snap_a, snap_b, "snapshot must replay byte-identically");
    assert_eq!(page_a, page_b, "status page must replay byte-identically");

    // Pure observer: outcomes match the bare standard grid.
    let (plain, _) = run(standard_grid(seed), 50, seed);
    assert_eq!(
        outcome_fingerprint(&report_a),
        outcome_fingerprint(&plain),
        "the full pack must still be a pure observer"
    );

    // The pack's sections render (alert counters appear even at 0 fired),
    // and the series actually accumulated windows.
    assert!(page_a.contains("Alerts:"), "status page missing Alerts");
    assert!(
        page_a.contains("Series (window"),
        "status page missing Series"
    );
    assert!(trace_a.contains("traceEvents"));
}

#[test]
fn campaign_pipeline_surfaces_the_snapshot() {
    use garli::config::GarliConfig;
    use lattice::pipeline::{run_campaign, CampaignOptions};
    use phylo::models::nucleotide;
    use phylo::models::SiteRates;
    use phylo::simulate::Simulator;
    use phylo::tree::Tree;
    use portal::notify::Outbox;
    use portal::submission::Submission;
    use portal::users::User;

    let mut rng = SimRng::new(301);
    let truth = Tree::random_topology(8, &mut rng);
    let model = nucleotide::jc69();
    let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 200, &mut rng);
    let mut config = GarliConfig::quick_nucleotide();
    config.genthresh_for_topo_term = 4;
    config.max_generations = 20;
    config.search_replicates = 12;

    let mut submission = Submission::new(1, User::guest("o11y@example.edu").unwrap(), config, aln);
    let mut outbox = Outbox::new();
    let options = CampaignOptions {
        grid: observed_grid(301),
        probe_replicates: 2,
        sim_deadline: SimTime::from_days(10),
        seed: 301,
        ..Default::default()
    };
    let result = run_campaign(&mut submission, None, &options, &mut outbox).expect("campaign runs");
    let snap = result
        .telemetry
        .expect("observed grid exposes the snapshot");
    assert_eq!(
        snap.metrics.counter("job.submitted"),
        result.report.total_jobs as u64
    );
    assert_eq!(
        snap.metrics.counter("job.completed"),
        result.report.completed as u64
    );
}

/// `slo.resolve` is the one bus kind the other pinned grids never emit. A
/// lone cluster is down while a backlog arrives, so the queue-backlog
/// alert fires, then resolves once the cluster is back and the queue
/// drains. (mid-run state, final state) FNV-64 pins of the serialized
/// grid, whose telemetry carries the event ring, the SLO engine and the
/// span log, captured before the grid's telemetry hooks became one fact
/// stream; the final one was recaptured when a completed job's trace
/// entry stopped outliving it (no job completes before the mid-run cut),
/// and both at snapshot v5. The report, the telemetry export at both cuts
/// and the Chrome trace hold the values of the build before either change.
#[test]
fn alert_resolution_stream_matches_its_pin() {
    use gridsim::resource::{ResourceKind, ResourceSpec};
    use gridsim::telemetry::TelemetryConfig;
    use simkit::snapshot::checksum as fnv1a;
    use simkit::SimDuration;

    let mut grid = Grid::new(GridConfig {
        resources: vec![ResourceSpec::cluster(
            "cluster",
            ResourceKind::PbsCluster,
            8,
            1.0,
        )],
        telemetry: Some(TelemetryConfig::observability(SimDuration::from_hours(1))),
        seed: 31,
        ..Default::default()
    });
    grid.inject_faults(gridsim::fault::site_outage(
        &[0],
        SimTime::ZERO,
        SimDuration::from_hours(4),
    ));
    for id in 0..40 {
        grid.submit_at(JobSpec::simple(id, 1800.0), SimTime::from_hours(1));
    }
    let count = |grid: &Grid, kind: &str| {
        let telemetry = grid.world().telemetry().expect("telemetry on");
        telemetry.bus().count(kind)
    };
    let export = |grid: &Grid| {
        let snapshot = grid.telemetry_snapshot().expect("telemetry on");
        fnv1a(serde_json::to_string(&snapshot).unwrap().as_bytes())
    };
    grid.run_until(SimTime::from_hours(3) + SimDuration::from_mins(30));
    let mid = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(mid, 0x8025_de79_db70_ea04, "mid-run state drifted");
    assert_eq!(
        export(&grid),
        0x4663_c07e_58cf_5643,
        "mid-run export drifted"
    );
    assert_eq!(count(&grid, "slo.alert"), 1, "the backlog alert fired");
    assert_eq!(count(&grid, "slo.resolve"), 0);
    let report = grid.run_until_done(SimTime::from_days(2));
    let rep = fnv1a(serde_json::to_string(&report).unwrap().as_bytes());
    let fin = fnv1a(serde_json::to_string(&grid).unwrap().as_bytes());
    assert_eq!(rep, 0xb909_50ca_95b7_3e64, "report drifted");
    assert_eq!(fin, 0xc011_c9de_bcf8_50e2, "final state drifted");
    assert_eq!(export(&grid), 0xd127_a3dc_890f_e9e1, "final export drifted");
    let trace = grid.chrome_trace().expect("tracing on");
    assert_eq!(
        fnv1a(trace.as_bytes()),
        0xba23_8dbb_5a24_85c2,
        "span log drifted"
    );
    assert_eq!(report.completed, 40);
    assert_eq!(count(&grid, "slo.resolve"), 1, "the backlog alert resolved");
}
