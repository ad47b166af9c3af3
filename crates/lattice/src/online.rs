//! Continuous model updating (paper §VI.E).
//!
//! "We simply fork off a single job replicate on our reference computer …
//! and add the observed runtime and values of the predictor variables to
//! the matrix we use to build the model. Then we simply rebuild the model,
//! which is immediately available for use with incoming jobs. In this
//! manner the model is continually improved."

use crate::estimator::RuntimeEstimator;
use crate::predictors::JobFeatures;

/// An estimator that retrains as reference-machine observations arrive.
#[derive(Debug)]
pub struct OnlineEstimator {
    estimator: RuntimeEstimator,
    num_trees: usize,
    seed: u64,
    observations: usize,
    /// (prediction made before observing, actual) pairs, for tracking how
    /// the model improves over time.
    prediction_log: Vec<(f64, f64)>,
}

impl OnlineEstimator {
    /// Start from an initial trained estimator.
    pub fn new(estimator: RuntimeEstimator, num_trees: usize, seed: u64) -> OnlineEstimator {
        OnlineEstimator {
            estimator,
            num_trees,
            seed,
            observations: 0,
            prediction_log: Vec::new(),
        }
    }

    /// Predict a job's runtime with the current model.
    pub fn predict_seconds(&self, features: &JobFeatures) -> f64 {
        self.estimator.predict_seconds(features)
    }

    /// The current underlying estimator.
    pub fn estimator(&self) -> &RuntimeEstimator {
        &self.estimator
    }

    /// Record a finished reference-computer replicate: log the pre-update
    /// prediction error, append the observation, and rebuild the model.
    pub fn observe(&mut self, features: JobFeatures, actual_seconds: f64) {
        let pre = self.predict_seconds(&features);
        self.prediction_log.push((pre, actual_seconds));
        // Append to the training matrix and rebuild.
        let mut ds = self.estimator.dataset().clone();
        ds.push(features.to_row(), actual_seconds);
        self.observations += 1;
        self.estimator = RuntimeEstimator::train_on_dataset(
            ds,
            self.num_trees,
            self.seed.wrapping_add(self.observations as u64),
        );
    }

    /// Observations ingested since construction.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// The (prediction, actual) log in arrival order.
    pub fn prediction_log(&self) -> &[(f64, f64)] {
        &self.prediction_log
    }

    /// Median absolute percentage error over a trailing window of the
    /// prediction log (`None` until anything is logged).
    pub fn trailing_error(&self, window: usize) -> Option<f64> {
        if self.prediction_log.is_empty() {
            return None;
        }
        let tail: Vec<(f64, f64)> = self
            .prediction_log
            .iter()
            .rev()
            .take(window)
            .cloned()
            .collect();
        let mut apes: Vec<f64> = tail
            .iter()
            .filter(|(_, a)| *a > 0.0)
            .map(|(p, a)| ((p - a) / a).abs())
            .collect();
        if apes.is_empty() {
            return None;
        }
        apes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(apes[apes.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate_training_jobs, run_training_job, Scale};

    #[test]
    fn observing_grows_the_training_set() {
        let initial = generate_training_jobs(20, Scale::Compact, 201);
        let est = RuntimeEstimator::train(&initial, 60, 202);
        let mut online = OnlineEstimator::new(est, 60, 203);
        assert_eq!(online.estimator().dataset().len(), 20);
        let new_job = run_training_job(Scale::Compact, 5001);
        online.observe(new_job.features, new_job.runtime_seconds);
        assert_eq!(online.estimator().dataset().len(), 21);
        assert_eq!(online.observations(), 1);
        assert_eq!(online.prediction_log().len(), 1);
    }

    #[test]
    fn error_shrinks_with_more_data_on_learnable_stream() {
        // The online mechanism itself, isolated from GARLI noise: stream
        // observations whose runtime is an exact function of the predictors
        // (runtime = 100·ncat + 2·patterns). A model that retrains on each
        // observation must drive its error down; one that didn't retrain
        // could not.
        use crate::predictors::JobFeatures;
        use garli::config::{RateHetKind, StateFrequencies};
        use phylo::alphabet::DataType;
        use phylo::models::nucleotide::RateMatrix;
        let mut rng = simkit::SimRng::new(204);
        let make = |rng: &mut simkit::SimRng| {
            let ncat = *rng.choose(&[1usize, 2, 4, 8]);
            let patterns = rng.range_u64(50, 500) as usize;
            let f = JobFeatures {
                num_taxa: rng.range_u64(5, 30) as usize,
                num_patterns: patterns,
                data_type: DataType::Nucleotide,
                rate_het: if ncat == 1 {
                    RateHetKind::None
                } else {
                    RateHetKind::Gamma
                },
                num_rate_cats: ncat,
                rate_matrix: RateMatrix::Jc,
                state_frequencies: StateFrequencies::Equal,
                invariant_sites: false,
                genthresh: 20,
            };
            let y = 100.0 * ncat as f64 + 2.0 * patterns as f64;
            (f, y)
        };
        // Tiny, unrepresentative seed set. Train the same 3-point model
        // twice: one copy stays frozen, the other learns online.
        let seed_points: Vec<(JobFeatures, f64)> = (0..3).map(|_| make(&mut rng)).collect();
        let build_seed_est = || {
            let mut seed_ds = crate::predictors::empty_dataset();
            for (f, y) in &seed_points {
                seed_ds.push(f.to_row(), *y);
            }
            RuntimeEstimator::train_on_dataset(seed_ds, 80, 205)
        };
        let frozen = build_seed_est();
        let mut online = OnlineEstimator::new(build_seed_est(), 80, 206);
        for _ in 0..120 {
            let (f, y) = make(&mut rng);
            online.observe(f, y);
        }
        // Evaluate both on a fresh stream: the retrained model must beat the
        // frozen seed model decisively.
        let median_ape = |est: &RuntimeEstimator, eval: &[(JobFeatures, f64)]| {
            let mut apes: Vec<f64> = eval
                .iter()
                .map(|(f, y)| ((est.predict_seconds(f) - y) / y).abs())
                .collect();
            apes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            apes[apes.len() / 2]
        };
        let eval: Vec<(JobFeatures, f64)> = (0..40).map(|_| make(&mut rng)).collect();
        let frozen_err = median_ape(&frozen, &eval);
        let online_err = median_ape(online.estimator(), &eval);
        assert!(
            online_err < frozen_err * 0.8,
            "model should improve with data: frozen {frozen_err:.3}, online {online_err:.3}"
        );
    }

    #[test]
    fn trailing_error_window() {
        let initial = generate_training_jobs(10, Scale::Compact, 207);
        let est = RuntimeEstimator::train(&initial, 40, 208);
        let mut online = OnlineEstimator::new(est, 40, 209);
        assert_eq!(online.trailing_error(5), None);
        let job = run_training_job(Scale::Compact, 7001);
        online.observe(job.features, job.runtime_seconds);
        assert!(online.trailing_error(5).is_some());
    }
}
