//! E8 — §III.A/§III.B: a 2000-replicate portal submission, end to end.
//!
//! "What makes it uniquely powerful … is the ability to submit up to 2000
//! job replicates with a single submission. … the grid system breaks these
//! up into smaller batches and may schedule each of these batches to a
//! different grid computing resource."
//!
//! The full pipeline runs: form → validation mode → nine-predictor runtime
//! estimate → probe executions (real GARLI) → 2000 grid jobs across the
//! standard 4-institution + BOINC layout → per-resource batch distribution,
//! makespan, ETA accuracy, and the email trail.

use bench::{env_usize, fmt_secs, header, write_json, write_metrics};
use garli::config::GarliConfig;
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::system::observed_grid;
use lattice::training::Scale;
use phylo::models::nucleotide;
use phylo::models::SiteRates;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use portal::notify::Outbox;
use portal::submission::Submission;
use portal::users::User;
use simkit::{SimRng, SimTime};

fn main() {
    let replicates = env_usize("LATTICE_REPLICATES", 2000);
    let probes = env_usize("LATTICE_PROBES", 6);
    let training = env_usize("LATTICE_TRAINING_JOBS", 60);
    let seed = env_usize("LATTICE_SEED", 2011) as u64;

    header(&format!(
        "E8 — {replicates}-replicate bootstrap submission through the portal"
    ));

    // Train the runtime model (cached corpus).
    let corpus = bench::load_or_generate_corpus(training, Scale::Full, seed);
    let estimator = lattice::estimator::RuntimeEstimator::train(&corpus, 2000, seed ^ 5);

    // The user's dataset and form choices.
    let mut rng = SimRng::new(seed ^ 0xE8);
    let truth = Tree::random_topology(12, &mut rng);
    let model = nucleotide::hky85(2.0, [0.3, 0.2, 0.2, 0.3]);
    let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 400, &mut rng);
    let mut config = GarliConfig::default();
    config.rate_het = garli::config::RateHetKind::Gamma;
    config.num_rate_cats = 4;
    config.genthresh_for_topo_term = 20;
    config.max_generations = 200;
    config.bootstrap_replicates = replicates;

    let mut submission = Submission::new(
        1,
        User::guest("researcher@example.edu").unwrap(),
        config,
        aln,
    );
    let mut outbox = Outbox::new();

    // Our miniature engine executes a replicate in ~0.1–5 reference-seconds
    // where the paper's datasets ran for hours; the scale factor (see
    // CampaignOptions::runtime_scale and DESIGN.md) maps each measured
    // second to ~17 simulated minutes so the grid sees paper-scale jobs.
    let scale = bench::env_f64("LATTICE_RUNTIME_SCALE", 1000.0);
    // The observed grid is the standard layout with telemetry enabled, so
    // this end-to-end run also exercises the monitoring stack.
    let options = CampaignOptions {
        grid: observed_grid(seed),
        probe_replicates: probes,
        bundling: Some(lattice::bundling::BundlingPolicy::default()),
        sim_deadline: SimTime::from_days(30),
        seed,
        runtime_scale: scale,
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let result = run_campaign(&mut submission, Some(&estimator), &options, &mut outbox)
        .expect("campaign runs");
    eprintln!(
        "[e8] pipeline wall time: {:.1}s",
        start.elapsed().as_secs_f64()
    );

    println!(
        "validation: {} taxa, {} sites, {} patterns, {:.0} MiB/job",
        submission.validation().unwrap().num_taxa,
        submission.validation().unwrap().num_sites,
        submission.validation().unwrap().num_patterns,
        submission.validation().unwrap().memory_bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "runtime estimate: {} per replicate (probes measured {}; grid scale x{scale})",
        fmt_secs(result.predicted_seconds.unwrap() * scale),
        fmt_secs(result.probe_mean_seconds * scale)
    );
    println!(
        "bundling: {} replicates/job → {} grid jobs",
        result.bundle_size, result.grid_jobs
    );
    println!(
        "user ETA shown at submit time: {}",
        fmt_secs(result.eta_seconds)
    );
    let makespan = result.report.makespan_seconds.unwrap_or(f64::NAN);
    let mut turnarounds: Vec<f64> = result
        .report
        .records
        .iter()
        .filter_map(|r| r.turnaround())
        .map(|d| d.as_secs_f64())
        .collect();
    turnarounds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = turnarounds[turnarounds.len() / 2];
    let p95 = turnarounds[turnarounds.len() * 95 / 100];
    println!(
        "median job turnaround: {} (p95 {}); batch makespan {} — the tail \
         sits on intermittently-available volunteers (completed {}/{})",
        fmt_secs(med),
        fmt_secs(p95),
        fmt_secs(makespan),
        result.report.completed,
        result.report.total_jobs
    );
    println!(
        "CPU: {:.0}h useful, {:.0}h wasted, {} reissues",
        result.report.useful_cpu_seconds / 3600.0,
        result.report.wasted_cpu_seconds / 3600.0,
        result.report.total_reissues
    );

    header("batch distribution across resources (§III.B)");
    println!("{:<24} {:>10}", "resource", "jobs done");
    for (name, count) in &result.report.completed_by {
        println!("{name:<24} {count:>10}");
    }

    header("email trail");
    for email in outbox.emails().iter().take(8) {
        println!("  {}", email.subject);
    }

    header("grid status page (portal rendering of the telemetry snapshot)");
    let snapshot = result.telemetry.as_ref().expect("observed grid");
    print!("{}", portal::status::render_text(snapshot));
    write_metrics("e8_portal_2000", snapshot);

    // The artifact embeds the GridReport verbatim; campaign-level figures
    // the report cannot carry ride alongside it.
    #[derive(serde::Serialize)]
    struct Out {
        replicates: usize,
        grid_jobs: usize,
        bundle_size: usize,
        predicted_seconds: f64,
        probe_mean_seconds: f64,
        eta_seconds: f64,
        report: gridsim::grid::GridReport,
    }
    write_json(
        "e8_portal_2000",
        &Out {
            replicates,
            grid_jobs: result.grid_jobs,
            bundle_size: result.bundle_size,
            predicted_seconds: result.predicted_seconds.unwrap(),
            probe_mean_seconds: result.probe_mean_seconds,
            eta_seconds: result.eta_seconds,
            report: result.report.clone(),
        },
    );
}
