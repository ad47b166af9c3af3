//! The result-validation subsystem end to end: config inertness
//! (byte-identity with the legacy volunteer pool), campaign-result
//! equivalence with zero bad hosts, and seeded replay of validation
//! telemetry.

use garli::config::GarliConfig;
use gridsim::boinc::BoincConfig;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::JobSpec;
use gridsim::{ReplicationPolicy, TelemetryConfig, TrustPolicy, ValidationConfig};
use lattice::pipeline::{run_campaign, CampaignOptions};
use phylo::models::nucleotide;
use phylo::models::SiteRates;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use portal::notify::Outbox;
use portal::submission::Submission;
use portal::users::User;
use simkit::{SimDuration, SimRng, SimTime};

/// A validation config tuned to replicate the legacy pool's behaviour
/// exactly: the quorum matches the pool's, replication is fixed (no
/// adaptive shortcut), budgets are effectively unbounded (every timeout
/// reissues, like the legacy deadline path), and reputation never
/// blacklists.
fn inert(quorum: usize) -> ValidationConfig {
    ValidationConfig {
        min_quorum: quorum,
        max_error_results: usize::MAX / 4,
        max_total_results: usize::MAX / 4,
        policy: ReplicationPolicy::Always,
        trust: TrustPolicy::never_blacklist(),
        ..ValidationConfig::default()
    }
}

/// Run a churny volunteer-only grid and fold everything observable —
/// per-job records included — into one comparison string.
fn volunteer_fingerprint(
    quorum: usize,
    corruption: bool,
    validation: Option<ValidationConfig>,
) -> String {
    let config = GridConfig {
        resources: vec![],
        boinc: Some(BoincConfig {
            num_clients: 60,
            quorum,
            ..Default::default()
        }),
        validation,
        seed: 71,
        ..Default::default()
    };
    let mut grid = Grid::new(config);
    if corruption {
        grid.inject_faults(gridsim::fault::boinc_corruption(
            0.15,
            SimTime::from_hours(2),
            SimDuration::from_hours(12),
        ));
    }
    grid.submit((0..40).map(|i| JobSpec::simple(i, 3600.0).with_estimate(3600.0)));
    let r = grid.run_until_done(SimTime::from_days(30));
    assert!(r.completed > 0, "{r:?}");
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}",
        r.makespan_seconds,
        r.useful_cpu_seconds,
        r.wasted_cpu_seconds,
        r.corrupt_completions,
        r.total_reissues,
        serde_json::to_string(&r.records).unwrap(),
    )
}

#[test]
fn inert_validation_config_is_byte_identical_to_none() {
    // Quorum 1 with a corruption window: the validation-free pool and the
    // inert engine must replay the exact same history, corrupt
    // acceptances and all.
    assert_eq!(
        volunteer_fingerprint(1, true, None),
        volunteer_fingerprint(1, true, Some(inert(1)))
    );
}

#[test]
fn inert_validation_config_matches_legacy_quorum_two() {
    // Redundant computing (quorum 2) on an honest pool: the engine's
    // fuzzy comparison accepts every honest pair, reproducing the legacy
    // counting quorum byte for byte.
    assert_eq!(
        volunteer_fingerprint(2, false, None),
        volunteer_fingerprint(2, false, Some(inert(2)))
    );
}

fn campaign_archive(
    validation: Option<ValidationConfig>,
) -> (
    Option<portal::postprocess::ResultsArchive>,
    f64,
    Option<gridsim::ValidationSnapshot>,
) {
    let mut rng = SimRng::new(88);
    let truth = Tree::random_topology(6, &mut rng);
    let model = nucleotide::jc69();
    let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 200, &mut rng);
    let mut config = GarliConfig::quick_nucleotide();
    config.genthresh_for_topo_term = 4;
    config.max_generations = 20;
    config.search_replicates = 3;
    let mut submission = Submission::new(1, User::guest("v@x.org").unwrap(), config, aln);
    let mut outbox = Outbox::new();
    let options = CampaignOptions {
        grid: GridConfig {
            resources: vec![],
            boinc: Some(BoincConfig {
                num_clients: 50,
                abandon_probability: 0.0,
                mean_on_hours: 1e5,
                mean_off_hours: 1e-5,
                ..Default::default()
            }),
            validation,
            seed: 89,
            ..Default::default()
        },
        seed: 90,
        ..Default::default()
    };
    let r = run_campaign(&mut submission, None, &options, &mut outbox).unwrap();
    (r.archive, r.probe_mean_seconds, r.report.validation)
}

#[test]
fn validated_campaign_preserves_trees_and_likelihoods() {
    // Full adaptive validation on an all-honest volunteer pool: replicas
    // and quorums change the grid's timeline, but the science — trees and
    // likelihood scores in the results archive — must not move.
    let (plain_archive, plain_probe, plain_snap) = campaign_archive(None);
    let (valid_archive, valid_probe, valid_snap) =
        campaign_archive(Some(ValidationConfig::default()));
    assert!(plain_snap.is_none());
    let snap = valid_snap.expect("validation accounting present");
    assert!(snap.completed > 0, "{snap:?}");
    assert_eq!(snap.bad_accepted, 0, "no bad hosts, nothing to accept");
    assert_eq!(snap.failed, 0, "{snap:?}");
    assert_eq!(plain_probe, valid_probe);
    assert_eq!(
        plain_archive.expect("plain archive"),
        valid_archive.expect("validated archive"),
        "trees and likelihoods unchanged by validation"
    );
}

#[test]
fn seeded_replay_reproduces_validation_telemetry() {
    let run = || {
        let config = GridConfig {
            resources: vec![],
            boinc: Some(BoincConfig {
                num_clients: 60,
                ..Default::default()
            }),
            telemetry: Some(TelemetryConfig::default()),
            validation: Some(ValidationConfig::default()),
            seed: 7,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..25).map(|i| JobSpec::simple(i, 3600.0).with_estimate(3600.0)));
        let _ = grid.run_until_done(SimTime::from_days(30));
        let snap = grid.telemetry_snapshot().expect("telemetry enabled");
        assert!(snap.metrics.counter("validation.completed") > 0);
        assert!(snap.validation.is_some());
        serde_json::to_string(&snap).unwrap()
    };
    assert_eq!(
        run(),
        run(),
        "validation telemetry replays byte-identically"
    );
}
