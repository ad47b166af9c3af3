//! Cross-crate integration: the full portal → pipeline → grid →
//! post-processing path, exercised exactly as a user would drive it.

use garli::config::GarliConfig;
use gridsim::grid::GridConfig;
use gridsim::resource::{ResourceKind, ResourceSpec};
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::training::{generate_training_jobs, Scale};
use phylo::models::nucleotide;
use phylo::models::SiteRates;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use portal::appspec::garli_app_spec;
use portal::form::{validate_form, FormValues};
use portal::jobspec::config_from_form;
use portal::notify::{EventKind, Outbox};
use portal::submission::{Submission, SubmissionStatus};
use portal::users::User;
use simkit::SimRng;

fn form_values() -> FormValues {
    let mut v = FormValues::new();
    v.insert("sequence_file".into(), "data.fasta".into());
    v.insert("email".into(), "it@example.org".into());
    v.insert("ratematrix".into(), "1rate".into());
    v.insert("statefrequencies".into(), "equal".into());
    v.insert("ratehetmodel".into(), "none".into());
    v.insert("numratecats".into(), "1".into());
    v.insert("searchreps".into(), "2".into());
    v.insert("genthreshfortopoterm".into(), "5".into());
    v
}

fn dataset(seed: u64) -> (phylo::alignment::Alignment, Tree) {
    let mut rng = SimRng::new(seed);
    let truth = Tree::random_topology(7, &mut rng);
    let model = nucleotide::jc69();
    let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 800, &mut rng);
    (aln, truth)
}

fn small_grid(seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![
            ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 4, 1.0),
            ResourceSpec::condor_pool("pool", 8, 1.0, 12.0),
        ],
        seed,
        ..Default::default()
    }
}

#[test]
fn form_to_archive() {
    // Web form → typed config.
    let form = validate_form(&garli_app_spec(), &form_values()).expect("form ok");
    let mut config = config_from_form(&form, None).expect("config ok");
    config.max_generations = 30;

    let (aln, truth) = dataset(301);
    let user = User::guest("it@example.org").unwrap();
    let mut submission = Submission::new(9, user, config, aln.clone());
    let mut outbox = Outbox::new();

    // Runtime model from executed jobs.
    let corpus = generate_training_jobs(15, Scale::Compact, 302);
    let estimator = lattice::estimator::RuntimeEstimator::train(&corpus, 50, 303);

    let options = CampaignOptions {
        grid: small_grid(304),
        seed: 305,
        ..Default::default()
    };
    let result = run_campaign(&mut submission, Some(&estimator), &options, &mut outbox).unwrap();

    // Grid completed both replicates.
    assert_eq!(result.report.completed, 2);
    assert_eq!(*submission.status(), SubmissionStatus::Complete);

    // The archive's best tree matches the strong simulated signal.
    let archive = result.archive.expect("real run has an archive");
    let names = aln.taxon_names();
    let best =
        phylo::newick::parse_newick(&archive.file("best_tree.nwk").unwrap().contents, &names)
            .unwrap();
    assert_eq!(
        best.robinson_foulds(&truth),
        0,
        "800 JC sites on 7 taxa is unambiguous"
    );

    // The user heard about every milestone.
    let kinds: Vec<EventKind> = outbox.emails().iter().map(|e| e.kind.clone()).collect();
    assert!(kinds.contains(&EventKind::Accepted));
    assert!(kinds.contains(&EventKind::Scheduled));
    assert!(kinds.contains(&EventKind::Complete));
}

#[test]
fn bootstrap_submission_produces_support_values() {
    let (aln, _) = dataset(311);
    let mut config = GarliConfig::quick_nucleotide();
    config.bootstrap_replicates = 4;
    config.genthresh_for_topo_term = 4;
    config.max_generations = 15;
    let user = User::registered("lab", "lab@example.org").unwrap();
    let mut submission = Submission::new(10, user, config, aln);
    let mut outbox = Outbox::new();
    let options = CampaignOptions {
        grid: small_grid(312),
        seed: 313,
        ..Default::default()
    };
    let result = run_campaign(&mut submission, None, &options, &mut outbox).unwrap();
    let archive = result.archive.expect("archive");
    let support = archive.file("bootstrap_support.csv").expect("support file");
    assert!(support.contents.lines().count() > 1);
}

#[test]
fn validation_failure_stops_before_the_grid() {
    let (aln, _) = dataset(321);
    let mut config = GarliConfig::quick_nucleotide();
    config.rate_het = garli::config::RateHetKind::Gamma;
    config.num_rate_cats = 99; // out of range
    let user = User::guest("x@y.org").unwrap();
    let mut submission = Submission::new(11, user, config, aln);
    let mut outbox = Outbox::new();
    let options = CampaignOptions {
        grid: small_grid(322),
        seed: 323,
        ..Default::default()
    };
    let err = run_campaign(&mut submission, None, &options, &mut outbox);
    assert!(err.is_err());
    assert!(matches!(submission.status(), SubmissionStatus::Failed(_)));
    assert!(outbox.emails().iter().any(|e| e.kind == EventKind::Failed));
}
