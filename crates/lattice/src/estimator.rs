//! The random-forest runtime estimator (paper §VI).
//!
//! Wraps a [`forest::RandomForest`] over the nine predictors: training,
//! prediction for incoming jobs, out-of-bag variance explained (the
//! paper's "approximately 93 %"), and the Fig. 2 permutation-importance
//! report. The production model used 10⁴ trees; that is the default here
//! too. What training 10⁴ trees on 150 jobs costs is measured in
//! EXPERIMENTS.md § Microbenchmarks.

use crate::predictors::JobFeatures;
use crate::training::TrainingJob;
use forest::dataset::Dataset;
use forest::importance::{importance, ImportanceReport};
use forest::rf::{ForestConfig, RandomForest};
use forest::Predictor;

/// A trained runtime model.
#[derive(Debug, Clone)]
pub struct RuntimeEstimator {
    forest: RandomForest,
    dataset: Dataset,
    seed: u64,
}

impl RuntimeEstimator {
    /// The paper's forest size.
    pub const PAPER_NUM_TREES: usize = 10_000;

    /// Train on executed jobs with the given forest size.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn train(jobs: &[TrainingJob], num_trees: usize, seed: u64) -> RuntimeEstimator {
        let dataset = crate::training::to_dataset(jobs);
        Self::train_on_dataset(dataset, num_trees, seed)
    }

    /// Train directly on a prepared dataset (used by the online updater).
    pub fn train_on_dataset(dataset: Dataset, num_trees: usize, seed: u64) -> RuntimeEstimator {
        assert!(!dataset.is_empty(), "empty training set");
        let config = ForestConfig {
            num_trees,
            ..Default::default()
        };
        let forest = RandomForest::fit(&dataset, &config, seed);
        RuntimeEstimator {
            forest,
            dataset,
            seed,
        }
    }

    /// Predicted runtime (reference-computer seconds) for a job, clamped to
    /// a small positive floor (ensemble averaging can otherwise emit zero
    /// or negative values near the data boundary).
    pub fn predict_seconds(&self, features: &JobFeatures) -> f64 {
        self.forest.predict(&features.to_row()).max(1e-3)
    }

    /// Out-of-bag R² — "percentage of variance explained".
    pub fn variance_explained(&self) -> f64 {
        self.forest.oob_r2(&self.dataset)
    }

    /// Out-of-bag MSE.
    pub fn oob_mse(&self) -> f64 {
        self.forest.oob_mse(&self.dataset)
    }

    /// The Fig. 2 report: permutation (%IncMSE) and node-purity importance
    /// for the nine predictors.
    pub fn importance(&self) -> ImportanceReport {
        importance(&self.forest, &self.dataset, self.seed ^ 0x1234)
    }

    /// The training data.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The underlying forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate_training_jobs, Scale};

    fn jobs() -> Vec<TrainingJob> {
        // Shared across tests; compact scale keeps this fast.
        generate_training_jobs(60, Scale::Compact, 191)
    }

    #[test]
    fn estimator_explains_variance_above_chance() {
        // Compact-scale jobs compress the runtime dynamic range (the test
        // corpus spans ~50x, not the ~10^4x of portal jobs), so OOB R² here
        // is far below the paper's 93% — E2 reproduces that number on the
        // Full-scale corpus. The unit test asserts genuine signal.
        let jobs = jobs();
        let est = RuntimeEstimator::train(&jobs, 300, 192);
        let r2 = est.variance_explained();
        assert!(r2 > 0.15, "OOB variance explained = {r2}");
    }

    #[test]
    fn predictions_separate_cheap_from_expensive_configurations() {
        // Controlled contrast: a no-heterogeneity nucleotide job vs an
        // 8-category job on the same data sizes. Whatever the noise from
        // adaptive termination, the forest must order these two correctly —
        // that ordering is exactly what stability routing relies on.
        let jobs = jobs();
        let est = RuntimeEstimator::train(&jobs, 300, 193);
        let cheap = crate::predictors::JobFeatures {
            num_taxa: 8,
            num_patterns: 100,
            data_type: phylo::alphabet::DataType::Nucleotide,
            rate_het: garli::config::RateHetKind::None,
            num_rate_cats: 1,
            rate_matrix: phylo::models::nucleotide::RateMatrix::Jc,
            state_frequencies: garli::config::StateFrequencies::Equal,
            invariant_sites: false,
            genthresh: 5,
        };
        let expensive = crate::predictors::JobFeatures {
            rate_het: garli::config::RateHetKind::Gamma,
            num_rate_cats: 8,
            genthresh: 11,
            ..cheap
        };
        let p_cheap = est.predict_seconds(&cheap);
        let p_exp = est.predict_seconds(&expensive);
        assert!(
            p_exp > p_cheap * 1.5,
            "8-category job ({p_exp:.1}s) must be predicted well above the \
             single-rate job ({p_cheap:.1}s)"
        );
    }

    #[test]
    fn importance_has_nine_rows() {
        let jobs = jobs();
        let est = RuntimeEstimator::train(&jobs, 200, 194);
        let rep = est.importance();
        assert_eq!(rep.names.len(), 9);
        assert_eq!(rep.percent_inc_mse.len(), 9);
    }

    #[test]
    fn prediction_floor() {
        let jobs = jobs();
        let est = RuntimeEstimator::train(&jobs, 50, 195);
        let f = jobs[0].features;
        assert!(est.predict_seconds(&f) >= 1e-3);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_rejected() {
        let _ = RuntimeEstimator::train(&[], 10, 0);
    }

    /// The forest trained on the tracked 150-job corpus, pinned: the FNV
    /// checksum of its serde JSON followed by the bits of its prediction
    /// for every training row. Any change to tree growing, bootstrap
    /// sampling or RNG use moves it.
    #[test]
    fn corpus_forest_matches_its_pin() {
        const PIN: u64 = 0xcfe8_39a7_8d6f_9540;
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench_results/corpus_full_150_2011.json"
        );
        let text = std::fs::read_to_string(path).expect("tracked corpus");
        let jobs: Vec<TrainingJob> = serde_json::from_str(&text).expect("corpus parses");
        let est = RuntimeEstimator::train(&jobs, 500, 2011);
        let mut bytes = serde_json::to_string(est.forest())
            .expect("forest serializes")
            .into_bytes();
        for row in est.dataset().rows() {
            bytes.extend_from_slice(&est.forest().predict(row).to_bits().to_le_bytes());
        }
        assert_eq!(simkit::snapshot::checksum(&bytes), PIN);
    }
}
