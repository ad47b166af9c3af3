//! `portal-stream`: one researcher in a closed loop, submitting the next
//! GARLI job only after the previous one's results are back.
//!
//! Submissions come from `lattice::training::sample_job(Scale::Full, …)`:
//! nucleotide (8–64 taxa), amino-acid and codon studies with two search
//! replicates each. Each runs through `lattice::pipeline::run_campaign`
//! (validation → RF estimate → real replicates → small grid → archive),
//! then `OnlineEstimator::observe` rebuilds the forest at the paper's 10⁴
//! trees; the latency of a submission covers all of it. The initial forest
//! is trained from the tracked `bench_results/corpus_full_150_2011.json`,
//! which is only read.
//!
//! The stream is stratified so runs are comparable across seeds: every
//! block of twelve submissions holds one study from each of the twelve
//! library datasets (4-, 20- and 61-state models), in a seeded order, each
//! conditioned on its dataset's cost stratum (see [`in_stratum`]); the rest
//! of the configuration and the search randomness come from the seed.
//!
//! The traced run replays the same submissions by calling the pipeline's
//! layers directly, in `run_campaign`'s order, and checks that the replay
//! reproduces the pipeline's outcome bit for bit.

use crate::gridwork;
use crate::ledger::Ledger;
use crate::measure::{checkout_root, median, percentile, run_dir, since, Fnv};
use crate::{Args, Outcome, TAIL};
use garli::config::{GarliConfig, RateHetKind};
use garli::search::SearchResult;
use gridsim::data::ObjectRef;
use gridsim::grid::{Grid, GridConfig};
use gridsim::job::{JobOutcome, JobSpec};
use lattice::estimator::RuntimeEstimator;
use lattice::online::OnlineEstimator;
use lattice::pipeline::{run_campaign, CampaignOptions};
use lattice::predictors::JobFeatures;
use lattice::training::{dataset_library, sample_job, Scale, TrainingJob};
use phylo::alignment::Alignment;
use phylo::alphabet::DataType;
use phylo::models::SubstModel;
use phylo::patterns::PatternSet;
use portal::notify::Outbox;
use portal::postprocess::{build_archive, ResultsArchive};
use portal::submission::{Submission, SubmissionStatus};
use portal::users::User;
use rayon::prelude::*;
use simkit::SimRng;
use std::time::Instant;

/// Trees in the runtime forest (the paper's model size).
pub const TREES: usize = 10_000;
/// Search replicates per submission.
pub const REPLICATES: usize = 2;
/// Seconds one block of twelve submissions (one per library dataset)
/// takes on the reference host; sizes a run in whole blocks.
const BLOCK_SECONDS: f64 = 26.0;
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Likelihood evaluations per best tree when timing the kernel.
const KERNEL_EVALS: usize = 5;
const CORPUS: &str = "bench_results/corpus_full_150_2011.json";
/// Forest seed: the runtime model is system state built from the tracked
/// corpus, the same for every workload seed.
const FOREST_SEED: u64 = 2011;

fn load_corpus() -> Result<Vec<TrainingJob>, String> {
    let path = checkout_root().join(CORPUS);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Whether a sampled configuration falls in library dataset `target`'s
/// stratum. Submissions are conditioned on the settings that drive their
/// cost most, so every seed's block offers the same kind of work: rate
/// heterogeneity alternates along the library (discrete Γ with GARLI's
/// default four categories, or none) and the termination threshold lies in
/// the middle of its range.
fn in_stratum(target: usize, config: &GarliConfig) -> bool {
    let rate_het = if target.is_multiple_of(2) {
        RateHetKind::Gamma
    } else {
        RateHetKind::None
    };
    config.rate_het == rate_het
        && config.num_rate_cats == 4
        && (18..=22).contains(&config.genthresh_for_topo_term)
}

/// `n` submissions in blocks of one study per library dataset, each drawn
/// from `sample_job` conditioned on its dataset's stratum.
fn deck(seed: u64, n: usize) -> Vec<(GarliConfig, Alignment)> {
    let library = dataset_library(Scale::Full);
    let mut rng = SimRng::new(seed).fork("portal-stream");
    let mut order = Vec::new();
    while order.len() < n {
        let mut block: Vec<usize> = (0..library.len()).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(slot, target)| {
            let (data_type, aln) = &library[target];
            let mut draw = rng.fork_idx("submission", slot as u64);
            loop {
                let (mut config, alignment) = sample_job(Scale::Full, &mut draw);
                if config.data_type == *data_type
                    && alignment.num_taxa() == aln.num_taxa()
                    && alignment.num_sites() == aln.num_sites()
                    && in_stratum(target, &config)
                {
                    config.search_replicates = REPLICATES;
                    break (config, alignment);
                }
            }
        })
        .collect()
}

/// The small grid the pipeline runs each submission's replicates on: the
/// standard service-grid resources, no volunteer pool.
fn options(seed: u64, k: usize) -> CampaignOptions {
    CampaignOptions {
        grid: GridConfig {
            boinc: None,
            ..lattice::system::standard_grid(seed)
        },
        seed: seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..Default::default()
    }
}

fn user() -> User {
    User::guest("researcher@example.org").expect("valid address")
}

struct Setup {
    estimator: RuntimeEstimator,
    deck: Vec<(GarliConfig, Alignment)>,
}

fn setup(seed: u64, n: usize) -> Result<Setup, String> {
    let corpus = load_corpus()?;
    Ok(Setup {
        estimator: RuntimeEstimator::train(&corpus, TREES, FOREST_SEED),
        deck: deck(seed, n),
    })
}

/// Per-submission result the checks and fingerprint need.
struct Done {
    latency: f64,
    grid_jobs: u64,
    generations: u64,
    fingerprint: u64,
    failures: Vec<String>,
}

/// Check a finished submission and fingerprint its outcome (archive plus
/// the grid report).
fn finish(
    sub: &Submission,
    archive: Option<&ResultsArchive>,
    report: &mut gridsim::grid::GridReport,
    grid: Option<&Grid>,
) -> (u64, u64, Vec<String>) {
    let mut failures = Vec::new();
    if !matches!(
        sub.status(),
        SubmissionStatus::Complete | SubmissionStatus::PostProcessing
    ) {
        failures.push(format!("submission {} ended {:?}", sub.id, sub.status()));
    }
    if let Some(grid) = grid {
        failures.extend(gridwork::conservation(grid, report, true));
    } else if report.completed != report.total_jobs {
        failures.push(format!(
            "submission {}: {} of {} grid jobs completed",
            sub.id, report.completed, report.total_jobs
        ));
    }
    let mut h = Fnv(gridwork::fingerprint(report));
    let mut generations = 0;
    match archive {
        None => failures.push(format!("submission {} has no results archive", sub.id)),
        Some(a) => {
            for f in &a.files {
                h.write(f.name.as_bytes());
                h.write(f.contents.as_bytes());
            }
            let table = a.file("replicates.csv").map_or("", |f| f.contents.as_str());
            let rows: Vec<&str> = table.lines().skip(1).collect();
            if rows.len() != REPLICATES {
                failures.push(format!(
                    "submission {}: {} replicate rows",
                    sub.id,
                    rows.len()
                ));
            }
            for row in rows {
                let cols: Vec<&str> = row.split(',').collect();
                let lnl = cols.get(1).and_then(|c| c.parse::<f64>().ok());
                if !lnl.is_some_and(f64::is_finite) {
                    failures.push(format!(
                        "submission {}: bad log-likelihood in {row:?}",
                        sub.id
                    ));
                }
                generations += cols.get(2).and_then(|c| c.parse::<u64>().ok()).unwrap_or(0);
            }
        }
    }
    (h.0, generations, failures)
}

/// The closed loop through `run_campaign`.
fn pipeline_loop(seed: u64, s: &Setup, n: usize) -> Result<Vec<Done>, String> {
    let mut online = OnlineEstimator::new(s.estimator.clone(), TREES, FOREST_SEED);
    let mut outbox = Outbox::new();
    let mut out = Vec::new();
    for (k, (config, alignment)) in s.deck.iter().take(n).enumerate() {
        let t = Instant::now();
        let mut sub = Submission::new(k as u64, user(), config.clone(), alignment.clone());
        let mut result = run_campaign(
            &mut sub,
            Some(online.estimator()),
            &options(seed, k),
            &mut outbox,
        )
        .map_err(|e| format!("submission {k}: {e:?}"))?;
        let t_rebuild = Instant::now();
        online.observe(result.features, result.probe_mean_seconds);
        let latency = since(t);
        eprintln!(
            "submission {k}: {:?} {} taxa, {:?}: {latency:.3}s (rebuild {:.3}s)",
            config.data_type,
            alignment.num_taxa(),
            config.rate_het,
            since(t_rebuild)
        );
        let (fingerprint, generations, failures) =
            finish(&sub, result.archive.as_ref(), &mut result.report, None);
        out.push(Done {
            latency,
            grid_jobs: result.report.completed as u64,
            generations,
            fingerprint,
            failures,
        });
    }
    Ok(out)
}

/// Kernel metrics per data type, in [`type_index`] order.
const KERNEL_METRICS: [(&str, &str); 3] = [
    ("phylo.cells_per_s.nucleotide", "phylo.pmatrix_s.nucleotide"),
    ("phylo.cells_per_s.aminoacid", "phylo.pmatrix_s.aminoacid"),
    ("phylo.cells_per_s.codon", "phylo.pmatrix_s.codon"),
];

/// Per-data-type kernel accumulators.
#[derive(Default)]
struct Kernel {
    cells: [u64; 3],
    cells_s: [f64; 3],
    pmatrix_s: [f64; 3],
}

fn type_index(dt: DataType) -> usize {
    match dt {
        DataType::Nucleotide => 0,
        DataType::AminoAcid => 1,
        DataType::Codon => 2,
    }
}

/// Time `transition_matrix` over every branch × rate category, then
/// `evaluate_patterns` on the replicate's best tree, under its final model.
fn kernel_probe(config: &GarliConfig, alignment: &Alignment, r: &SearchResult, k: &mut Kernel) {
    let dt = type_index(config.data_type);
    let model = garli::model::build_model(config, &r.final_params, alignment);
    let rates = garli::model::build_rates(config, &r.final_params);
    let tree = &r.best_tree;
    let t = Instant::now();
    for node in (0..tree.num_nodes()).filter(|&n| n != tree.root()) {
        for &(rate, _) in rates.categories() {
            drop(model.transition_matrix(tree.branch_length(node) * rate));
        }
    }
    k.pmatrix_s[dt] += since(t);
    let patterns = PatternSet::compress(alignment);
    let t = Instant::now();
    for _ in 0..KERNEL_EVALS {
        k.cells[dt] += phylo::likelihood::evaluate_patterns(&patterns, &model, &rates, tree).work;
    }
    k.cells_s[dt] += since(t);
}

/// The traced replay: `run_campaign`'s steps as direct calls.
fn traced_loop(
    seed: u64,
    s: &Setup,
    n: usize,
    ledger: &mut Ledger,
    outcome: &mut Outcome,
) -> Result<Vec<Done>, String> {
    let mut online = OnlineEstimator::new(s.estimator.clone(), TREES, FOREST_SEED);
    let mut outbox = Outbox::new();
    let mut kernel = Kernel::default();
    let (mut cells, mut generations) = (0u64, 0u64);
    let mut out = Vec::new();
    let state_err = |e: portal::submission::StateError| format!("{e:?}");
    for (k, (config, alignment)) in s.deck.iter().take(n).enumerate() {
        let opts = options(seed, k);
        let t = Instant::now();
        let mut sub = Submission::new(k as u64, user(), config.clone(), alignment.clone());
        ledger
            .time("Submission::run_validation", "garli.validate_s", || {
                sub.run_validation(&mut outbox).map(|_| ())
            })
            .map_err(state_err)?;
        let report = sub.validation().expect("validated").clone();
        let features = JobFeatures::extract(&sub.config, &report);
        let predicted = ledger.time(
            "RuntimeEstimator::predict_seconds",
            "forest.predict_s",
            || online.estimator().predict_seconds(&features),
        );
        let root_rng = SimRng::new(opts.seed);
        let n_reps = sub.total_replicates();
        let results: Vec<SearchResult> =
            ledger.time("garli::run_replicate", "garli.search_s", || {
                (0..n_reps)
                    .into_par_iter()
                    .map(|i| {
                        garli::replicate::run_replicate(&sub.config, &sub.alignment, &root_rng, i)
                            .expect("validated submission")
                    })
                    .collect()
            });
        // The grid step exactly as `run_campaign` builds it: one job per
        // replicate, both inputs content-addressed, estimates attached.
        let alignment_ref = ObjectRef::named(
            &format!("submission-{}/alignment", sub.id),
            (sub.alignment.num_taxa() * sub.alignment.num_sites()) as u64 + 4 * 1024,
        );
        let config_ref = ObjectRef::named(&format!("submission-{}/garli.conf", sub.id), 8 * 1024);
        let jobs: Vec<JobSpec> = results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut job = JobSpec::simple(i as u64, r.reference_seconds() * opts.runtime_scale)
                    .with_input(alignment_ref)
                    .with_input(config_ref);
                job.min_memory_bytes = report.memory_bytes;
                job.checkpointable = opts.checkpointable;
                job.with_estimate(predicted * opts.runtime_scale)
            })
            .collect();
        let (grid, mut grid_report) = ledger
            .time("pipeline grid", "pipeline.grid_s", || {
                let mut grid = Grid::new(opts.grid.clone());
                grid.submit(jobs);
                sub.mark_scheduled(&mut outbox)?;
                let rep = grid.run_until_done(opts.sim_deadline);
                for _ in rep
                    .records
                    .iter()
                    .filter(|r| r.outcome == JobOutcome::Completed)
                {
                    sub.replicate_finished(&mut outbox)?;
                }
                Ok((grid, rep))
            })
            .map_err(state_err)?;
        let archive = ledger.time("build_archive", "portal.archive_s", || {
            let names: Vec<String> = sub
                .alignment
                .taxon_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            build_archive(&results, &refs, sub.config.is_bootstrap())
        });
        sub.mark_complete(&mut outbox).map_err(state_err)?;
        let probe_mean = results
            .iter()
            .map(SearchResult::reference_seconds)
            .sum::<f64>()
            / results.len() as f64;
        ledger.time("OnlineEstimator::observe", "forest.rebuild_s", || {
            online.observe(features, probe_mean)
        });
        let latency = since(t);

        // Kernel probes run after the latency is taken.
        for r in &results {
            kernel_probe(&sub.config, &sub.alignment, r, &mut kernel);
            cells += r.work.cells();
            generations += r.generations;
        }
        let (fingerprint, gens, failures) =
            finish(&sub, Some(&archive), &mut grid_report, Some(&grid));
        out.push(Done {
            latency,
            grid_jobs: grid_report.completed as u64,
            generations: gens,
            fingerprint,
            failures,
        });
    }
    for (i, &(cells_metric, pmatrix_metric)) in KERNEL_METRICS.iter().enumerate() {
        if kernel.cells_s[i] > 0.0 {
            outcome.set(cells_metric, kernel.cells[i] as f64 / kernel.cells_s[i]);
        }
        outcome.set(pmatrix_metric, kernel.pmatrix_s[i]);
    }
    outcome.set("phylo.cells", cells as f64);
    outcome.set("garli.generations", generations as f64);
    outcome.count("phylo.cells", cells);
    Ok(out)
}

/// Run the workload (see the module docs).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let blocks = ((args.seconds / BLOCK_SECONDS).round() as usize).max(1);
    let n = blocks * dataset_library(Scale::Full).len();
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so the peak holds one system.
        drop(s.take());
        let t = Instant::now();
        let built = setup(args.seed, n)?;
        setups.push(since(t));
        s = Some(built);
    }
    let s = s.expect("at least one set-up");

    // A traced run runs the stream twice: through `run_campaign` (the
    // overhead baseline) and layer by layer.
    let t = Instant::now();
    let done = pipeline_loop(args.seed, &s, n)?;
    let wall = since(t);
    let mut fp = Fnv::default();
    for (k, d) in done.iter().enumerate() {
        fp.write(&d.fingerprint.to_le_bytes());
        outcome.operation(&format!("submission {k}"), d.failures.clone());
    }
    outcome.fingerprint = fp.0;
    outcome.count("portal.submissions", done.len() as u64);
    outcome.count("grid.completed", done.iter().map(|d| d.grid_jobs).sum());
    outcome.count(
        "garli.generations",
        done.iter().map(|d| d.generations).sum(),
    );
    let latencies: Vec<f64> = done.iter().map(|d| d.latency).collect();

    if args.trace {
        let mut ledger = Ledger::new(true);
        let mark = ledger.now();
        let replay = traced_loop(args.seed, &s, n, &mut ledger, &mut outcome)?;
        for (k, (d, base)) in replay.iter().zip(&done).enumerate() {
            let mut failures = d.failures.clone();
            if d.fingerprint != base.fingerprint {
                failures.push(format!(
                    "traced replay diverged from run_campaign: {:016x} vs {:016x}",
                    d.fingerprint, base.fingerprint
                ));
            }
            outcome.operation(&format!("traced submission {k}"), failures);
        }
        for (layer, seconds) in ledger.layer_seconds() {
            outcome.set(layer, seconds);
        }
        let search_s = outcome
            .metrics
            .get("garli.search_s")
            .copied()
            .unwrap_or(0.0);
        let gens = outcome
            .metrics
            .get("garli.generations")
            .copied()
            .unwrap_or(0.0);
        outcome.set("garli_gens_per_s", gens / search_s.max(1e-9));
        let traced: f64 = replay.iter().map(|d| d.latency).sum();
        outcome.set("trace.overhead", traced / latencies.iter().sum::<f64>());
        outcome.set(
            "trace.unattributed_s",
            (traced - ledger.covered_seconds(mark)).max(0.0),
        );
        let path = run_dir().join(format!("trace-portal-stream-seed{}.json", args.seed));
        ledger
            .write_chrome_trace(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        outcome.set("setup_s", median(&setups));
        let jobs: u64 = done.iter().map(|d| d.grid_jobs).sum();
        outcome.set("wu_per_s", jobs as f64 / wall);
        outcome.set("submit_p50_s", median(&latencies));
        outcome.set("submit_tail_s", percentile(&latencies, TAIL));
    }
    outcome.set("peak_rss_mb", crate::measure::peak_rss_mb());
    Ok(outcome)
}
