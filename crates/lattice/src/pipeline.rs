//! The end-to-end submission pipeline: portal submission → validation →
//! runtime estimation → (optional) replicate bundling → grid execution →
//! post-processing and notification.
//!
//! Two execution fidelities share one code path:
//!
//! * **Real execution** — every replicate runs through the `garli` engine
//!   (in parallel, via rayon); measured runtimes become the true job sizes
//!   in the grid simulation, and the results archive is assembled from the
//!   genuine search outputs.
//! * **Probe-and-sample** — for campaign-scale submissions (up to 2000
//!   replicates) a handful of *probe* replicates run for real and the
//!   remaining true runtimes are drawn from a log-normal fitted to the
//!   probes. The substitution (documented in DESIGN.md) preserves the
//!   grid-facing behaviour: runtime dispersion around an honest anchor.

use crate::bundling::BundlingPolicy;
use crate::estimator::RuntimeEstimator;
use crate::eta::{estimate_completion_seconds, CapacitySnapshot};
use crate::predictors::JobFeatures;
use garli::replicate::run_replicate;
use garli::search::SearchResult;
use gridsim::grid::{Grid, GridConfig, GridReport};
use gridsim::job::{JobId, JobSpec};
use portal::notify::Outbox;
use portal::postprocess::{build_archive, ResultsArchive};
use portal::submission::{Submission, SubmissionStatus};
use rayon::prelude::*;
use simkit::{SimRng, SimTime};

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The grid to run on.
    pub grid: GridConfig,
    /// Bundle short replicates into bigger jobs (`None` = one job per
    /// replicate).
    pub bundling: Option<BundlingPolicy>,
    /// Whether the application build checkpoints (the BOINC GARLI does).
    pub checkpointable: bool,
    /// Replicates to execute for real; the rest are probe-and-sampled.
    /// Use `usize::MAX` to execute everything.
    pub probe_replicates: usize,
    /// Simulation cutoff.
    pub sim_deadline: SimTime,
    /// Master seed for sampling and the grid.
    pub seed: u64,
    /// Multiplier applied to both true runtimes and estimates when building
    /// grid jobs. The engine's miniature datasets execute in seconds where
    /// the paper's production datasets ran for hours; scaling preserves the
    /// estimate-vs-truth error structure while letting campaign experiments
    /// exercise paper-scale grid dynamics (see DESIGN.md substitutions).
    pub runtime_scale: f64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            grid: GridConfig::default(),
            bundling: None,
            checkpointable: true,
            probe_replicates: usize::MAX,
            sim_deadline: SimTime::from_days(60),
            seed: 0,
            runtime_scale: 1.0,
        }
    }
}

/// The outcome of a campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Grid-level accounting.
    pub report: GridReport,
    /// The nine predictors of the submission.
    pub features: JobFeatures,
    /// Per-replicate runtime estimate (reference seconds), if estimation
    /// was enabled.
    pub predicted_seconds: Option<f64>,
    /// Mean of the probe replicates' measured runtimes.
    pub probe_mean_seconds: f64,
    /// The user-facing ETA computed before execution.
    pub eta_seconds: f64,
    /// Results archive (only when every replicate ran for real).
    pub archive: Option<ResultsArchive>,
    /// Number of grid jobs after bundling.
    pub grid_jobs: usize,
    /// Bundle size used (1 = unbundled).
    pub bundle_size: usize,
    /// End-of-run telemetry snapshot, when the grid config enabled
    /// telemetry (e.g. [`crate::system::observed_grid`]).
    pub telemetry: Option<gridsim::TelemetrySnapshot>,
}

/// Run a validated-or-fresh submission through the full pipeline.
///
/// Drives the submission state machine and the notification outbox
/// alongside the grid simulation. Without an `estimator` the jobs carry
/// no runtime estimate: the pre-ML system.
///
/// # Panics
/// Panics if the submission was already processed, or if probe execution
/// fails validation (impossible for submissions that passed validation).
pub fn run_campaign(
    submission: &mut Submission,
    estimator: Option<&RuntimeEstimator>,
    options: &CampaignOptions,
    outbox: &mut Outbox,
) -> Result<CampaignResult, portal::submission::StateError> {
    // 1. Validation mode (paper §III.A).
    if *submission.status() == SubmissionStatus::Created {
        submission.run_validation(outbox)?;
    }
    let report = submission.validation().expect("validated");
    let features = JobFeatures::extract(&submission.config, report);
    let n = submission.total_replicates();

    // 2. A-priori runtime estimate (paper §VI).
    let predicted_seconds = estimator.map(|e| e.predict_seconds(&features));

    // 3. Probe executions (real GARLI runs).
    let probes = options.probe_replicates.min(n).max(1);
    let root_rng = SimRng::new(options.seed);
    let probe_results: Vec<SearchResult> = (0..probes)
        .into_par_iter()
        .map(|i| {
            run_replicate(&submission.config, &submission.alignment, &root_rng, i)
                .expect("submission already validated")
        })
        .collect();
    let measured: Vec<f64> = probe_results
        .iter()
        .map(|r| r.reference_seconds())
        .collect();
    let probe_mean = measured.iter().sum::<f64>() / measured.len() as f64;

    // 4. True runtimes for the full replicate set.
    let mut true_runtimes = measured.clone();
    if n > probes {
        // Log-normal fit to the probes (cv floor keeps degenerate fits sane).
        let logs: Vec<f64> = measured.iter().map(|m| m.max(1e-9).ln()).collect();
        let mu = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = if logs.len() > 1 {
            logs.iter().map(|l| (l - mu) * (l - mu)).sum::<f64>() / (logs.len() - 1) as f64
        } else {
            0.01
        };
        let sigma = var.sqrt().max(0.05);
        let mut srng = root_rng.fork("runtime-sampling");
        for _ in probes..n {
            true_runtimes.push(srng.lognormal(mu, sigma));
        }
    }

    // 5. Bundling (paper §VI.A benefit 3) — only sensible with an estimate.
    // The policy sees the *scaled* per-replicate estimate (what the grid
    // will actually experience).
    let bundle_size = match (&options.bundling, predicted_seconds) {
        (Some(policy), Some(est)) => policy.bundle_size(est * options.runtime_scale),
        _ => 1,
    };
    // Every replicate of a submission executes against the *same* alignment
    // and GARLI config, so all its grid jobs reference the same two
    // content-addressed objects. When the grid runs a data plane this is
    // what lets the object store dedup the repeated shipments and the site
    // caches serve all but the first stage-in; without one the refs are
    // inert metadata.
    let alignment_bytes =
        (submission.alignment.num_taxa() * submission.alignment.num_sites()) as u64 + 4 * 1024;
    let alignment_ref = gridsim::data::ObjectRef::named(
        &format!("submission-{}/alignment", submission.id),
        alignment_bytes,
    );
    let config_ref = gridsim::data::ObjectRef::named(
        &format!("submission-{}/garli.conf", submission.id),
        8 * 1024,
    );
    let mut jobs = Vec::new();
    let mut idx = 0usize;
    let mut job_id = 0u64;
    while idx < n {
        let take = bundle_size.min(n - idx);
        let true_secs: f64 = true_runtimes[idx..idx + take].iter().sum();
        let mut job = JobSpec::simple(job_id, true_secs * options.runtime_scale)
            .with_input(alignment_ref)
            .with_input(config_ref);
        job.min_memory_bytes = report.memory_bytes;
        job.checkpointable = options.checkpointable;
        if let Some(est) = predicted_seconds {
            job = job.with_estimate(est * take as f64 * options.runtime_scale);
        }
        jobs.push(job);
        job_id += 1;
        idx += take;
    }
    let grid_jobs = jobs.len();

    // 6. ETA for the researcher (paper §VI.A benefit 4).
    let slots: usize = options
        .grid
        .resources
        .iter()
        .map(|r| r.slots)
        .sum::<usize>()
        + options.grid.boinc.map_or(0, |b| b.num_clients / 2);
    let mean_speed = if options.grid.resources.is_empty() {
        1.0
    } else {
        options.grid.resources.iter().map(|r| r.speed).sum::<f64>()
            / options.grid.resources.len() as f64
    };
    let eta_seconds = estimate_completion_seconds(
        grid_jobs,
        predicted_seconds.unwrap_or(probe_mean) * bundle_size as f64 * options.runtime_scale,
        CapacitySnapshot {
            slots: slots.max(1),
            mean_speed,
            overhead_seconds: options.grid.dispatch_overhead.as_secs_f64(),
        },
    );

    // 7. Grid execution.
    let mut grid = Grid::new(options.grid.clone());
    grid.submit(jobs);
    submission.mark_scheduled(outbox)?;
    let grid_report = grid.run_until_done(options.sim_deadline);
    let telemetry = grid.telemetry_snapshot();

    // 8. Submission bookkeeping: each completed grid job finishes its
    // bundled replicates; dead-lettered jobs are surfaced to the user —
    // the grid gave up on them, so silence would strand the submission.
    for record in &grid_report.records {
        match record.outcome {
            gridsim::job::JobOutcome::Completed => {
                let JobId(id) = record.spec.id;
                let start = id as usize * bundle_size;
                let members = bundle_size.min(n - start.min(n));
                for _ in 0..members {
                    submission.replicate_finished(outbox)?;
                }
            }
            gridsim::job::JobOutcome::DeadLettered => {
                outbox.notify(
                    submission.user.email(),
                    submission.id,
                    portal::notify::EventKind::DeadLettered,
                );
            }
            gridsim::job::JobOutcome::Unfinished => {}
        }
    }

    // 9. Post-processing: a real archive only when everything really ran.
    let archive = if probes >= n && *submission.status() == SubmissionStatus::PostProcessing {
        let names: Vec<String> = submission
            .alignment
            .taxon_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let archive = build_archive(&probe_results, &refs, submission.config.is_bootstrap());
        submission.mark_complete(outbox)?;
        Some(archive)
    } else {
        None
    };

    Ok(CampaignResult {
        report: grid_report,
        features,
        predicted_seconds,
        probe_mean_seconds: probe_mean,
        eta_seconds,
        archive,
        grid_jobs,
        bundle_size,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate_training_jobs, Scale};
    use garli::config::GarliConfig;
    use gridsim::resource::{ResourceKind, ResourceSpec};
    use phylo::models::nucleotide;
    use phylo::models::SiteRates;
    use phylo::simulate::Simulator;
    use phylo::tree::Tree;
    use portal::users::User;

    fn submission(reps: usize, bootstrap: bool) -> Submission {
        let mut rng = SimRng::new(211);
        let tree = Tree::random_topology(6, &mut rng);
        let model = nucleotide::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 200, &mut rng);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 5;
        config.max_generations = 25;
        if bootstrap {
            config.bootstrap_replicates = reps;
        } else {
            config.search_replicates = reps;
        }
        Submission::new(1, User::guest("u@x.org").unwrap(), config, aln)
    }

    fn small_grid(seed: u64) -> GridConfig {
        GridConfig {
            resources: vec![ResourceSpec::cluster(
                "cluster",
                ResourceKind::PbsCluster,
                8,
                1.0,
            )],
            seed,
            ..Default::default()
        }
    }

    fn estimator() -> RuntimeEstimator {
        let jobs = generate_training_jobs(25, Scale::Compact, 212);
        RuntimeEstimator::train(&jobs, 60, 213)
    }

    #[test]
    fn real_execution_produces_archive_and_completion() {
        let mut sub = submission(3, false);
        let mut outbox = Outbox::new();
        let est = estimator();
        let options = CampaignOptions {
            grid: small_grid(1),
            seed: 5,
            ..Default::default()
        };
        let result = run_campaign(&mut sub, Some(&est), &options, &mut outbox).unwrap();
        assert_eq!(result.report.completed, 3);
        assert_eq!(*sub.status(), SubmissionStatus::Complete);
        assert!(result.archive.is_some());
        assert!(result.predicted_seconds.unwrap() > 0.0);
        assert!(result.eta_seconds > 0.0);
        let kinds: Vec<_> = outbox.emails().iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.contains(&portal::notify::EventKind::Complete));
    }

    #[test]
    fn probe_and_sample_scales_without_archive() {
        let mut sub = submission(40, false);
        let mut outbox = Outbox::new();
        let est = estimator();
        let options = CampaignOptions {
            grid: small_grid(2),
            probe_replicates: 4,
            seed: 6,
            ..Default::default()
        };
        let result = run_campaign(&mut sub, Some(&est), &options, &mut outbox).unwrap();
        assert_eq!(result.report.total_jobs, 40);
        assert_eq!(result.report.completed, 40);
        assert!(
            result.archive.is_none(),
            "sampled campaigns have no real archive"
        );
        assert_eq!(*sub.status(), SubmissionStatus::PostProcessing);
    }

    #[test]
    fn bundling_reduces_grid_jobs() {
        let mut sub = submission(30, false);
        let mut outbox = Outbox::new();
        let est = estimator();
        let options = CampaignOptions {
            grid: small_grid(3),
            probe_replicates: 2,
            bundling: Some(BundlingPolicy {
                overhead_seconds: 30.0,
                max_overhead_fraction: 0.05,
                max_bundle: 10,
            }),
            seed: 7,
            ..Default::default()
        };
        let result = run_campaign(&mut sub, Some(&est), &options, &mut outbox).unwrap();
        assert!(
            result.bundle_size > 1,
            "compact jobs are short; should bundle"
        );
        assert!(result.grid_jobs < 30);
        assert_eq!(result.report.completed, result.grid_jobs);
        // All 30 replicates were accounted to the submission.
        assert_eq!(sub.completed_replicates(), 30);
    }

    #[test]
    fn without_estimator_jobs_carry_no_estimates() {
        let mut sub = submission(2, false);
        let mut outbox = Outbox::new();
        let options = CampaignOptions {
            grid: small_grid(4),
            seed: 8,
            ..Default::default()
        };
        let result = run_campaign(&mut sub, None, &options, &mut outbox).unwrap();
        assert_eq!(result.predicted_seconds, None);
        assert!(result
            .report
            .records
            .iter()
            .all(|r| r.spec.estimated_reference_seconds.is_none()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sub = submission(5, false);
            let mut outbox = Outbox::new();
            let est = estimator();
            let options = CampaignOptions {
                grid: small_grid(5),
                seed: 9,
                ..Default::default()
            };
            let r = run_campaign(&mut sub, Some(&est), &options, &mut outbox).unwrap();
            (r.report.makespan_seconds, r.probe_mean_seconds)
        };
        assert_eq!(run(), run());
    }
}
