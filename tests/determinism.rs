//! Cross-crate determinism: the whole stack is reproducible from a seed.
//! Determinism is what makes the experiment harness's numbers meaningful.

use garli::config::GarliConfig;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::resource::{ResourceKind, ResourceSpec};
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::training::{generate_training_jobs, Scale};
use phylo::models::nucleotide;
use phylo::models::SiteRates;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use portal::notify::Outbox;
use portal::submission::Submission;
use portal::users::User;
use simkit::{SimRng, SimTime};

#[test]
fn training_corpus_is_reproducible() {
    let a = generate_training_jobs(8, Scale::Compact, 77);
    let b = generate_training_jobs(8, Scale::Compact, 77);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.runtime_seconds, y.runtime_seconds);
        assert_eq!(x.features, y.features);
        assert_eq!(x.generations, y.generations);
    }
}

#[test]
fn grid_simulation_is_reproducible_and_seed_sensitive() {
    let run = |seed: u64| {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("c", ResourceKind::PbsCluster, 8, 1.1),
                ResourceSpec::condor_pool("p", 20, 0.9, 6.0),
            ],
            seed,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..40).map(|i| JobSpec::simple(i, 3600.0).with_estimate(3600.0)));
        let r = grid.run_until_done(SimTime::from_days(10));
        (
            r.makespan_seconds,
            r.useful_cpu_seconds,
            r.wasted_cpu_seconds,
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(
        run(5),
        run(6),
        "different seeds must explore different histories"
    );
}

#[test]
fn full_campaign_is_reproducible() {
    let campaign = || {
        let mut rng = SimRng::new(88);
        let truth = Tree::random_topology(6, &mut rng);
        let model = nucleotide::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 200, &mut rng);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 4;
        config.max_generations = 20;
        config.search_replicates = 3;
        let mut submission = Submission::new(1, User::guest("d@x.org").unwrap(), config, aln);
        let mut outbox = Outbox::new();
        let options = CampaignOptions {
            grid: GridConfig {
                resources: vec![ResourceSpec::cluster("c", ResourceKind::PbsCluster, 4, 1.0)],
                seed: 89,
                ..Default::default()
            },
            seed: 90,
            ..Default::default()
        };
        let r = run_campaign(&mut submission, None, &options, &mut outbox).unwrap();
        (
            r.probe_mean_seconds,
            r.report.makespan_seconds,
            outbox.emails().len(),
            r.archive.map(|a| a.files.len()),
        )
    };
    assert_eq!(campaign(), campaign());
}

#[test]
fn rng_forks_are_order_independent() {
    // Forking by label/index must not depend on how much the parent stream
    // was consumed — the property campaign reproducibility rests on.
    let parent = SimRng::new(123);
    let mut consumed = SimRng::new(123);
    use rand::RngCore;
    for _ in 0..1000 {
        consumed.next_u64();
    }
    let mut a = parent.fork_idx("x", 9);
    let mut b = consumed.fork_idx("x", 9);
    assert_eq!(a.next_u64(), b.next_u64());
}
