//! A Tree-of-Life-style bootstrap campaign: 500 bootstrap replicates
//! through the standard 4-institution + BOINC grid, with estimate-driven
//! replicate bundling — the workload the paper's introduction motivates
//! ("hundreds or thousands of bootstrap searches which assess confidence
//! in the best tree").
//!
//! Run with: `cargo run --release --example bootstrap_campaign`

use garli::config::{GarliConfig, RateHetKind};
use lattice::bundling::BundlingPolicy;
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::system::standard_grid;
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
    let replicates = 500;

    // The study dataset: 14 taxa, 500 sites, Γ-distributed rates.
    let mut rng = SimRng::new(2011);
    let truth = Tree::random_topology(14, &mut rng);
    let model = nucleotide::gtr([1.2, 2.8, 0.9, 1.1, 3.2, 1.0], [0.3, 0.2, 0.2, 0.3]);
    let alignment =
        Simulator::new(&model, SiteRates::gamma(4, 0.5)).simulate(&truth, 500, &mut rng);

    let config = GarliConfig {
        rate_het: RateHetKind::Gamma,
        num_rate_cats: 4,
        genthresh_for_topo_term: 15,
        max_generations: 150,
        bootstrap_replicates: replicates,
        ..GarliConfig::default()
    };

    println!("training the runtime model …");
    let corpus = lattice::training::generate_training_jobs(40, Scale::Compact, 31);
    let estimator = lattice::estimator::RuntimeEstimator::train(&corpus, 1000, 32);

    let user = User::registered("tol_lab", "lab@example.edu").unwrap();
    let mut submission = Submission::new(77, user, config, alignment);
    let mut outbox = Outbox::new();
    let options = CampaignOptions {
        grid: standard_grid(33),
        bundling: Some(BundlingPolicy::default()),
        probe_replicates: 5, // five real probes anchor the runtime model
        sim_deadline: SimTime::from_days(20),
        seed: 34,
        // Map each measured engine-second to ~1.4 simulated hours: the
        // campaign behaves like the paper-scale datasets we cannot afford
        // to execute 500 times (see CampaignOptions::runtime_scale).
        runtime_scale: 5000.0,
        ..Default::default()
    };

    println!("submitting {replicates} bootstrap replicates …");
    let result = run_campaign(&mut submission, Some(&estimator), &options, &mut outbox)
        .expect("campaign runs");

    println!("\n--- campaign report ---");
    println!(
        "estimate {:.1} simulated minutes/replicate; bundling {} replicates/job → {} grid jobs",
        result.predicted_seconds.unwrap() * 5000.0 / 60.0,
        result.bundle_size,
        result.grid_jobs
    );
    println!(
        "user-facing ETA: {:.1} simulated hours",
        result.eta_seconds / 3600.0
    );
    println!(
        "completed {}/{} jobs; makespan {:.1} simulated hours",
        result.report.completed,
        result.report.total_jobs,
        result.report.makespan_seconds.unwrap_or(f64::NAN) / 3600.0
    );
    println!(
        "CPU: {:.1}h useful, {:.1}h wasted, {} reissues",
        result.report.useful_cpu_seconds / 3600.0,
        result.report.wasted_cpu_seconds / 3600.0,
        result.report.total_reissues
    );
    println!("\nwork distribution:");
    for (resource, jobs) in &result.report.completed_by {
        let bar = "#".repeat((jobs * 40 / result.report.completed.max(1)).max(1));
        println!("  {resource:<22} {jobs:>5}  {bar}");
    }
    println!(
        "\nsubmission state: {:?} ({} of {} replicates accounted)",
        submission.status(),
        submission.completed_replicates(),
        submission.total_replicates()
    );
}
