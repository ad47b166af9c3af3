//! E13 — data locality: content-addressed staging + data-aware scheduling.
//!
//! The production grid shipped real bytes with every workunit: an alignment
//! and a GARLI config travel from the portal to whichever resource runs the
//! replicate, and all replicates of one analysis share the *same* alignment.
//! This experiment models that data plane (`gridsim::data`: content-addressed
//! object store, bandwidth/latency links, per-site LRU caches) and compares
//! two scheduler policies over a sweep of cache sizes and link speeds:
//!
//! * **blind** — transfers delay dispatch but the ranker is the paper's
//!   original load/speed score, oblivious to where bytes already live;
//! * **aware** — the estimated stage-in time joins the ranking score and the
//!   stability cutoff, steering replicates toward sites whose caches already
//!   hold their alignment.
//!
//! Every configuration runs twice and its whole report must replay
//! bit-identically (`bench::report_fnv`). The
//! data-aware policy must beat the blind one on bytes moved or makespan in
//! the cache-constrained configurations, and an inertness arm asserts that
//! enabling the data plane for jobs that carry no inputs changes nothing.

use bench::{env_usize, fmt_secs, header, report_fnv, write_grid_metrics, write_json};
use gridsim::data::{LinkSpec, ObjectRef};
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::JobSpec;
use gridsim::mds::ResourceState;
use gridsim::resource::{ResourceId, ResourceKind, ResourceSpec};
use gridsim::scheduler::{decide, score, ResourceView, SchedulerPolicy};
use gridsim::telemetry::TelemetryConfig;
use gridsim::{DataConfig, DataPolicy};
use simkit::SimTime;

fn resources() -> Vec<ResourceSpec> {
    vec![
        ResourceSpec::cluster("east-pbs", ResourceKind::PbsCluster, 16, 1.0).with_site("east"),
        ResourceSpec::cluster("west-pbs", ResourceKind::PbsCluster, 16, 1.0).with_site("west"),
    ]
}

/// The campaign: `submissions` analyses of `replicates` bootstrap replicates
/// each, submitted interleaved (replicate 0 of every analysis, then
/// replicate 1, …) the way a busy portal actually interleaves users. All
/// replicates of one analysis reference the same alignment object.
fn workload(submissions: usize, replicates: usize, alignment_bytes: u64) -> Vec<JobSpec> {
    let alignments: Vec<ObjectRef> = (0..submissions)
        .map(|s| ObjectRef::named(&format!("analysis-{s}/alignment"), alignment_bytes))
        .collect();
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for _round in 0..replicates {
        for aln in &alignments {
            // Slight runtime spread so dispatch order is not fully degenerate.
            let secs = 5400.0 + (id % 7) as f64 * 120.0;
            jobs.push(
                JobSpec::simple(id, secs)
                    .with_estimate(secs)
                    .with_input(*aln),
            );
            id += 1;
        }
    }
    jobs
}

fn data_config(policy: DataPolicy, cache_bytes: u64, link: LinkSpec) -> DataConfig {
    DataConfig {
        policy,
        site_cache_bytes: cache_bytes,
        default_link: link,
    }
}

#[derive(serde::Serialize)]
struct Row {
    cache: String,
    link: String,
    policy: String,
    report: GridReport,
}

impl Row {
    fn bytes_moved(&self) -> u64 {
        self.report.data.map_or(0, |d| d.bytes_moved)
    }

    fn hit_rate(&self) -> f64 {
        let d = self.report.data.expect("data plane enabled");
        let looked = d.cache_hits + d.cache_misses;
        if looked == 0 {
            0.0
        } else {
            d.cache_hits as f64 / looked as f64
        }
    }

    fn makespan(&self) -> f64 {
        self.report.makespan_seconds.unwrap_or(f64::INFINITY)
    }
}

fn run_once(jobs: &[JobSpec], data: Option<DataConfig>, telemetry: bool, seed: u64) -> Grid {
    let config = GridConfig {
        resources: resources(),
        data,
        telemetry: telemetry.then(TelemetryConfig::default),
        seed,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    if telemetry {
        grid.enable_profiling();
    }
    grid.submit(jobs.to_vec());
    let _ = grid.run_until_done(SimTime::from_days(30));
    grid
}

fn run(jobs: &[JobSpec], data: DataConfig, seed: u64) -> GridReport {
    let report = run_once(jobs, Some(data.clone()), false, seed).report();
    let replay = run_once(jobs, Some(data), false, seed).report();
    assert_eq!(
        report_fnv(&report),
        report_fnv(&replay),
        "data-plane runs must replay bit-identically"
    );
    report
}

/// Show the explained decision directly: two otherwise-identical candidates,
/// one with the job's alignment already cached. The stage-in term is part
/// of each candidate's score, and the winner's term is what the telemetry
/// layer records.
fn explain_stage_in_term() {
    let specs = resources();
    let state = ResourceState {
        free_slots: 16,
        total_slots: 16,
        queued_jobs: 0,
    };
    let mut warm = ResourceView::new(ResourceId(0), &specs[0], state, 1.0);
    warm.stage_in_seconds = Some(0.0);
    let mut cold = ResourceView::new(ResourceId(1), &specs[1], state, 1.0);
    cold.stage_in_seconds = Some(512.0);
    let job = JobSpec::simple(0, 5400.0).with_estimate(5400.0);
    let policy = SchedulerPolicy::default();
    let views = [warm, cold];
    let decision = decide(&job, &views, &policy);
    println!("\nexplained decision (identical load/speed, warm vs cold cache):");
    for v in &views {
        println!(
            "  {:<10} stage-in {:>6.0}s  score {:.4}",
            v.name,
            v.stage_in_seconds.unwrap_or(f64::NAN),
            score(v, &policy)
        );
    }
    assert_eq!(decision.eligible, 2, "both candidates eligible");
    let chosen = decision.chosen.expect("both candidates eligible");
    assert_eq!(chosen, ResourceId(0), "warm cache must win the tie");
    assert_eq!(decision.stage_in_seconds, Some(0.0));
    println!("  chosen: {} (the warm site)", views[chosen.0].name);
}

fn main() {
    // An odd analysis count matters: with an even one the load tie-break
    // alternates sites in perfect lockstep with the interleaving, handing
    // even the blind policy accidental locality.
    let submissions = env_usize("LATTICE_E13_SUBMISSIONS", 5);
    let replicates = env_usize("LATTICE_E13_REPLICATES", 10);
    let alignment_mb = env_usize("LATTICE_E13_ALIGNMENT_MB", 512) as u64;
    let seed = env_usize("LATTICE_SEED", 2011) as u64;
    let alignment_bytes = alignment_mb << 20;

    header("E13 — data locality: staging + caches, blind vs data-aware scheduling");
    println!(
        "campaign: {submissions} analyses x {replicates} replicates, {alignment_mb} MB shared \
         alignment each; two equal 16-slot sites"
    );

    let jobs = workload(submissions, replicates, alignment_bytes);

    // Cache-constrained = holds three alignments per site (of `submissions`
    // in flight): the aware policy's per-site working set fits, the blind
    // policy's (every alignment visits both sites) thrashes. Ample = holds
    // every alignment comfortably.
    let caches = [
        ("3-aln", 3 * alignment_bytes + (64 << 20)),
        ("ample", (submissions as u64 + 2) * alignment_bytes),
    ];
    let links = [
        ("1 MB/s", LinkSpec::mbps(1.0, 1.0)),
        ("25 MB/s", LinkSpec::mbps(25.0, 0.5)),
    ];

    println!(
        "\n{:<8} {:<9} {:<7} {:>9} {:>10} {:>9} {:>10} {:>12}",
        "cache", "link", "policy", "completed", "makespan", "moved-GB", "hit-rate", "stage-in"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (cache_label, cache_bytes) in caches {
        for (link_label, link) in links {
            for policy in [DataPolicy::Blind, DataPolicy::Aware] {
                let report = run(&jobs, data_config(policy, cache_bytes, link), seed);
                let row = Row {
                    cache: cache_label.to_string(),
                    link: link_label.to_string(),
                    policy: format!("{policy:?}").to_lowercase(),
                    report,
                };
                let d = row.report.data.expect("data plane enabled");
                println!(
                    "{:<8} {:<9} {:<7} {:>5}/{:<3} {:>10} {:>9.2} {:>9.0}% {:>12}",
                    row.cache,
                    row.link,
                    row.policy,
                    row.report.completed,
                    row.report.total_jobs,
                    fmt_secs(row.makespan()),
                    row.bytes_moved() as f64 / (1u64 << 30) as f64,
                    row.hit_rate() * 100.0,
                    fmt_secs(d.total_stage_in_seconds)
                );
                rows.push(row);
            }
        }
    }

    // The headline claim: under cache pressure, knowing where bytes live
    // must pay. Require a strict win on bytes moved or makespan in every
    // cache-constrained configuration.
    let mut constrained_wins = 0;
    for pair in rows.chunks(2) {
        let (blind, aware) = (&pair[0], &pair[1]);
        assert_eq!(blind.policy, "blind");
        assert_eq!(aware.policy, "aware");
        assert_eq!(
            aware.report.completed, aware.report.total_jobs,
            "aware must finish the campaign ({}, {})",
            aware.cache, aware.link
        );
        if blind.cache == "3-aln"
            && (aware.bytes_moved() < blind.bytes_moved() || aware.makespan() < blind.makespan())
        {
            constrained_wins += 1;
        }
    }
    assert!(
        constrained_wins >= 1,
        "data-aware must beat blind on bytes moved or makespan in at least one \
         cache-constrained configuration"
    );
    println!(
        "\ndata-aware wins (bytes moved or makespan) in {constrained_wins}/2 cache-constrained \
         configurations"
    );

    // Inertness arm: the same grid with the data plane enabled but a
    // workload that carries no inputs must report exactly what a data-less
    // run does, apart from the report's data section.
    let bare: Vec<JobSpec> = jobs
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.inputs.clear();
            j
        })
        .collect();
    let without = run_once(&bare, None, false, seed).report();
    let with = GridReport {
        data: None,
        ..run_once(
            &bare,
            Some(data_config(DataPolicy::Aware, caches[0].1, links[0].1)),
            false,
            seed,
        )
        .report()
    };
    assert_eq!(
        report_fnv(&without),
        report_fnv(&with),
        "data plane must be inert for jobs without inputs"
    );
    println!("inertness: input-free campaign identical with and without the data plane");

    explain_stage_in_term();

    // Observability arm: replay the constrained/slow data-aware run with
    // telemetry on; outcomes must be untouched and the snapshot (stage-in
    // histogram, per-link utilisation, cache stats) becomes the metrics
    // artifact.
    let observed = run_once(
        &jobs,
        Some(data_config(DataPolicy::Aware, caches[0].1, links[0].1)),
        true,
        seed,
    );
    let obs_report = observed.report();
    assert_eq!(
        report_fnv(&obs_report),
        report_fnv(&rows[1].report),
        "telemetry must not change data-plane outcomes"
    );
    let snapshot = write_grid_metrics("e13_data_locality", &observed);
    assert_eq!(
        snapshot.metrics.counter("data.stage_ins"),
        obs_report.data.expect("data enabled").stage_ins
    );
    assert!(snapshot.data.is_some(), "snapshot carries the data plane");
    println!("telemetry replay: outcomes identical with telemetry enabled");

    write_json("e13_data_locality", &rows);
}
