//! Search and bootstrap replicates — the unit of grid parallelism.
//!
//! A portal submission expands into up to 2000 independent replicates, each
//! of which "is scheduled to run in parallel on a separate processor in our
//! grid system" (paper §III.A). Locally, `run_replicates` executes them with
//! rayon; on the simulated grid, each replicate becomes one job.

use crate::config::GarliConfig;
use crate::search::{Search, SearchResult};
use crate::validate::ValidationError;
use phylo::alignment::Alignment;
use phylo::bootstrap::bootstrap_alignment;
use rayon::prelude::*;
use simkit::SimRng;

/// Run one replicate (search or bootstrap) deterministically, identified by
/// its index within the submission.
///
/// Bootstrap submissions resample the alignment with a replicate-specific
/// stream before searching; plain submissions just use a replicate-specific
/// search stream.
pub fn run_replicate(
    config: &GarliConfig,
    alignment: &Alignment,
    root_rng: &SimRng,
    index: usize,
) -> Result<SearchResult, ValidationError> {
    let mut rng = root_rng.fork_idx("replicate", index as u64);
    if config.is_bootstrap() {
        let mut brng = root_rng.fork_idx("bootstrap", index as u64);
        let resampled = bootstrap_alignment(alignment, &mut brng);
        Search::new(config.clone(), &resampled).map(|s| s.run(&mut rng))
    } else {
        Search::new(config.clone(), alignment).map(|s| s.run(&mut rng))
    }
}

/// Run every replicate of a submission in parallel. The result order matches
/// replicate indices, and results are deterministic regardless of thread
/// scheduling (each replicate forks its own RNG stream).
pub fn run_replicates(
    config: &GarliConfig,
    alignment: &Alignment,
    root_rng: &SimRng,
) -> Result<Vec<SearchResult>, ValidationError> {
    // Validate once up front so errors surface before spawning work.
    crate::validate::validate(config, alignment)?;
    let n = config.total_replicates();
    (0..n)
        .into_par_iter()
        .map(|i| run_replicate(config, alignment, root_rng, i))
        .collect()
}

/// Summary of a completed replicate set: the best tree over all replicates
/// and (for bootstraps) the trees to feed into support computation.
#[derive(Debug, Clone)]
pub struct ReplicateSummary {
    /// Index of the best-scoring replicate.
    pub best_index: usize,
    /// Best log-likelihood across replicates.
    pub best_log_likelihood: f64,
    /// Total work across replicates.
    pub total_work_cells: u64,
}

/// Summarize a replicate set.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(results: &[SearchResult]) -> ReplicateSummary {
    assert!(!results.is_empty(), "no replicates to summarize");
    let best_index = results
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.best_log_likelihood
                .partial_cmp(&b.1.best_log_likelihood)
                .expect("lnl never NaN")
        })
        .map(|(i, _)| i)
        .unwrap();
    ReplicateSummary {
        best_index,
        best_log_likelihood: results[best_index].best_log_likelihood,
        total_work_cells: results.iter().map(|r| r.work.cells()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::models::nucleotide;
    use phylo::models::SiteRates;
    use phylo::simulate::Simulator;
    use phylo::tree::Tree;

    fn aln(seed: u64) -> Alignment {
        let mut rng = SimRng::new(seed);
        let truth = Tree::random_topology(6, &mut rng);
        let model = nucleotide::jc69();
        Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 300, &mut rng)
    }

    fn quick(reps: usize, bootstrap: bool) -> GarliConfig {
        let mut c = GarliConfig::quick_nucleotide();
        c.genthresh_for_topo_term = 5;
        c.max_generations = 30;
        if bootstrap {
            c.bootstrap_replicates = reps;
        } else {
            c.search_replicates = reps;
        }
        c
    }

    #[test]
    fn replicates_return_in_order_and_deterministically() {
        let a = aln(111);
        let root = SimRng::new(7);
        let r1 = run_replicates(&quick(4, false), &a, &root).unwrap();
        let r2 = run_replicates(&quick(4, false), &a, &root).unwrap();
        assert_eq!(r1.len(), 4);
        for (x, y) in r1.iter().zip(&r2) {
            assert_eq!(x.best_log_likelihood, y.best_log_likelihood);
            assert_eq!(x.work, y.work);
        }
    }

    #[test]
    fn replicates_differ_from_each_other() {
        let a = aln(112);
        let root = SimRng::new(8);
        let rs = run_replicates(&quick(3, false), &a, &root).unwrap();
        // Independent streams: the operator draws should not all coincide.
        let all_same = rs
            .windows(2)
            .all(|w| w[0].mutation_counts == w[1].mutation_counts);
        assert!(!all_same, "replicates look identical — RNG streams collide");
    }

    #[test]
    fn bootstrap_replicates_resample_data() {
        let a = aln(113);
        let root = SimRng::new(9);
        let rs = run_replicates(&quick(3, true), &a, &root).unwrap();
        assert_eq!(rs.len(), 3);
        // Bootstrap replicates score resampled data; likelihoods differ from
        // the original-data search with the same streams.
        let plain = run_replicate(&quick(1, false), &a, &root, 0).unwrap();
        assert!(rs
            .iter()
            .any(|r| r.best_log_likelihood != plain.best_log_likelihood));
    }

    #[test]
    fn summary_finds_best() {
        let a = aln(114);
        let root = SimRng::new(10);
        let rs = run_replicates(&quick(3, false), &a, &root).unwrap();
        let s = summarize(&rs);
        assert!(s.best_index < 3);
        for r in &rs {
            assert!(s.best_log_likelihood >= r.best_log_likelihood);
        }
        assert_eq!(
            s.total_work_cells,
            rs.iter().map(|r| r.work.cells()).sum::<u64>()
        );
    }

    #[test]
    fn invalid_config_fails_before_spawning() {
        let a = aln(115);
        let mut c = quick(3, false);
        c.num_rate_cats = 99;
        c.rate_het = crate::config::RateHetKind::Gamma;
        assert!(run_replicates(&c, &a, &SimRng::new(1)).is_err());
    }
}
