//! Quickstart: one maximum-likelihood analysis through the whole Lattice
//! stack in ~a minute.
//!
//! Simulates a small nucleotide dataset, fills in the GARLI web form,
//! validates it, trains a small runtime model, runs the submission through
//! a simulated two-resource grid, and prints the recovered tree plus the
//! notification trail.
//!
//! Run with: `cargo run --release --example quickstart`

use gridsim::grid::GridConfig;
use gridsim::resource::{ResourceKind, ResourceSpec};
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::training::Scale;
use phylo::models::nucleotide;
use phylo::models::SiteRates;
use phylo::newick::to_newick;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use portal::appspec::garli_app_spec;
use portal::form::{validate_form, FormValues};
use portal::jobspec::config_from_form;
use portal::notify::Outbox;
use portal::submission::Submission;
use portal::users::User;
use simkit::SimRng;

fn main() {
    // --- 1. The researcher's data: a 10-taxon alignment with known truth.
    let mut rng = SimRng::new(42);
    let truth = Tree::random_topology(10, &mut rng);
    let model = nucleotide::hky85(2.0, [0.3, 0.2, 0.2, 0.3]);
    let alignment = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 600, &mut rng);
    println!(
        "dataset: {} taxa × {} sites",
        alignment.num_taxa(),
        alignment.num_sites()
    );

    // --- 2. Fill in the GARLI web form (Fig. 1 of the paper).
    let spec = garli_app_spec();
    let mut values = FormValues::new();
    values.insert("sequence_file".into(), "example.fasta".into());
    values.insert("email".into(), "researcher@example.edu".into());
    values.insert("datatype".into(), "nucleotide".into());
    values.insert("ratematrix".into(), "hky".into());
    values.insert("ratehetmodel".into(), "none".into());
    values.insert("numratecats".into(), "1".into());
    values.insert("searchreps".into(), "3".into());
    values.insert("genthreshfortopoterm".into(), "15".into());
    let form = validate_form(&spec, &values).expect("form validates");
    let mut config = config_from_form(&form, None).expect("config builds");
    config.max_generations = 150;
    println!(
        "form accepted: {} search replicates, {} model",
        config.search_replicates,
        config.rate_matrix.name()
    );

    // --- 3. Train a quick runtime model (the paper's random forest).
    println!("training runtime model on 30 executed jobs …");
    let corpus = lattice::training::generate_training_jobs(30, Scale::Compact, 7);
    let estimator = lattice::estimator::RuntimeEstimator::train(&corpus, 500, 8);

    // --- 4. Submit to a small grid: one cluster + one Condor pool.
    let grid = GridConfig {
        resources: vec![
            ResourceSpec::cluster("campus-cluster", ResourceKind::PbsCluster, 8, 1.2),
            ResourceSpec::condor_pool("campus-desktops", 20, 0.8, 8.0),
        ],
        seed: 9,
        ..Default::default()
    };
    let user = User::guest("researcher@example.edu").unwrap();
    let mut submission = Submission::new(1, user, config, alignment.clone());
    let mut outbox = Outbox::new();
    let options = CampaignOptions {
        grid,
        seed: 10,
        ..Default::default()
    };
    let result = run_campaign(&mut submission, Some(&estimator), &options, &mut outbox)
        .expect("campaign runs");

    // --- 5. Results.
    println!(
        "\npredicted {:.2}s/replicate; probes measured {:.2}s",
        result.predicted_seconds.unwrap(),
        result.probe_mean_seconds
    );
    println!(
        "grid: {} jobs completed in {:.1} simulated minutes",
        result.report.completed,
        result.report.makespan_seconds.unwrap() / 60.0
    );
    let archive = result.archive.expect("real run produces the archive");
    let best = &archive.file("best_tree.nwk").unwrap().contents;
    println!("\nbest tree: {best}");
    let names = alignment.taxon_names();
    let inferred = phylo::newick::parse_newick(best, &names).unwrap();
    println!(
        "Robinson–Foulds distance to the true tree: {} (0 = exact recovery)",
        inferred.robinson_foulds(&truth)
    );
    println!("true tree: {}", to_newick(&truth, &names));

    println!("\nemails sent:");
    for e in outbox.emails() {
        println!("  - {}", e.subject);
    }
}
