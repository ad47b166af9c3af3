//! The random forest: bagging + per-node feature subsampling + out-of-bag
//! error estimation.
//!
//! The paper's production model is "1 × 10⁴ individual trees constructed by
//! sub-sampling nine predictor variables at each node" (§VI.C). Trees grow
//! in parallel with rayon, from one `Table` laid out per forest, each
//! worker reusing its `Scratch` from tree to tree. What training that
//! many trees on 150 observations × 9 predictors costs is measured in
//! EXPERIMENTS.md § Microbenchmarks.

use crate::cart::{CartConfig, RegressionTree, Scratch, Table};
use crate::dataset::Dataset;
use crate::Predictor;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use simkit::SimRng;
use std::cell::RefCell;

thread_local! {
    /// The buffers every tree this thread grows reuses.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (paper: 10⁴).
    pub num_trees: usize,
    /// Features tried per node: `None` = regression default `max(p/3, 1)`.
    pub mtry: Option<usize>,
    /// R's regression `nodesize`: nodes smaller than this become leaves.
    pub min_samples_split: usize,
    /// Minimum observations per leaf.
    pub min_samples_leaf: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 500,
            mtry: None,
            min_samples_split: 5,
            min_samples_leaf: 1,
            max_depth: 64,
        }
    }
}

impl ForestConfig {
    /// The effective mtry for `p` features.
    pub fn effective_mtry(&self, p: usize) -> usize {
        self.mtry.unwrap_or((p / 3).max(1)).clamp(1, p)
    }
}

/// A fitted forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    /// `in_bag[t]` — per-row multiplicity of row i in tree t's bootstrap
    /// sample (0 = out of bag).
    in_bag: Vec<Vec<u16>>,
    config: ForestConfig,
    num_features: usize,
}

impl RandomForest {
    /// Train on `data` with `seed` controlling all randomness.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, config: &ForestConfig, seed: u64) -> RandomForest {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let n = data.len();
        let p = data.num_features();
        let cart = CartConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            min_samples_leaf: config.min_samples_leaf,
            mtry: Some(config.effective_mtry(p)),
        };
        let table = Table::new(data);
        let root = SimRng::new(seed);
        let results: Vec<(RegressionTree, Vec<u16>)> = (0..config.num_trees)
            .into_par_iter()
            .map(|t| {
                let mut rng = root.fork_idx("tree", t as u64);
                let mut counts = vec![0u16; n];
                SCRATCH.with_borrow_mut(|scratch| {
                    scratch.samples.clear();
                    scratch.samples.extend((0..n).map(|_| {
                        let i = rng.index(n);
                        counts[i] = counts[i].saturating_add(1);
                        i
                    }));
                    let tree = table.grow(cart, &mut rng, scratch);
                    (tree, counts)
                })
            })
            .collect();
        let (trees, in_bag) = results.into_iter().unzip();
        RandomForest {
            trees,
            in_bag,
            config: *config,
            num_features: p,
        }
    }

    /// The constituent trees.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// In-bag multiplicities (`[tree][row]`).
    pub fn in_bag(&self) -> &[Vec<u16>] {
        &self.in_bag
    }

    /// The training configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Number of features the forest was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Out-of-bag prediction per training row: the average over trees whose
    /// bootstrap sample excluded that row. `None` where every tree saw the
    /// row (only possible with very few trees).
    pub fn oob_predictions(&self, data: &Dataset) -> Vec<Option<f64>> {
        let n = data.len();
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0u32; n];
        for (tree, bag) in self.trees.iter().zip(&self.in_bag) {
            for i in 0..n {
                if bag[i] == 0 {
                    sums[i] += tree.predict(data.row(i));
                    counts[i] += 1;
                }
            }
        }
        (0..n)
            .map(|i| (counts[i] > 0).then(|| sums[i] / counts[i] as f64))
            .collect()
    }

    /// Out-of-bag mean squared error.
    pub fn oob_mse(&self, data: &Dataset) -> f64 {
        let preds = self.oob_predictions(data);
        let mut sum = 0.0;
        let mut n = 0usize;
        for (pred, &y) in preds.iter().zip(data.targets()) {
            if let Some(p) = pred {
                sum += (p - y) * (p - y);
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Out-of-bag R² — "percentage of variance explained", the statistic the
    /// paper reports as ≈93 % (§VI.D).
    pub fn oob_r2(&self, data: &Dataset) -> f64 {
        let mse = self.oob_mse(data);
        let mean = data.target_mean();
        let var = data
            .targets()
            .iter()
            .map(|y| (y - mean) * (y - mean))
            .sum::<f64>()
            / data.len() as f64;
        1.0 - mse / var
    }
}

impl Predictor for RandomForest {
    fn predict(&self, row: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(row)).sum();
        sum / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FeatureKind;

    /// Friedman-style nonlinear benchmark with deterministic noise.
    fn friedman(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut d = Dataset::new(
            (0..5)
                .map(|i| (format!("x{i}"), FeatureKind::Continuous))
                .collect(),
        );
        for _ in 0..n {
            let x: Vec<f64> = (0..5).map(|_| rng.f64()).collect();
            let y = 10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                + 20.0 * (x[2] - 0.5).powi(2)
                + 10.0 * x[3]
                + 5.0 * x[4]
                + rng.normal(0.0, 0.5);
            d.push(x, y);
        }
        d
    }

    #[test]
    fn learns_nonlinear_signal() {
        let train = friedman(400, 1);
        let test = friedman(100, 2);
        let f = RandomForest::fit(&train, &ForestConfig::default(), 3);
        let preds = f.predict_all(test.rows());
        let mse = crate::metrics::mse(&preds, test.targets());
        let var = {
            let m = test.target_mean();
            test.targets()
                .iter()
                .map(|y| (y - m) * (y - m))
                .sum::<f64>()
                / test.len() as f64
        };
        assert!(
            mse < var * 0.35,
            "forest MSE {mse} should be far below variance {var}"
        );
    }

    #[test]
    fn oob_r2_high_on_learnable_data() {
        let train = friedman(400, 4);
        let f = RandomForest::fit(&train, &ForestConfig::default(), 5);
        let r2 = f.oob_r2(&train);
        assert!(r2 > 0.7, "OOB R² = {r2}");
        assert!(r2 < 1.0);
    }

    #[test]
    fn oob_coverage_complete_with_enough_trees() {
        let train = friedman(100, 6);
        let f = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 100,
                ..Default::default()
            },
            7,
        );
        let preds = f.oob_predictions(&train);
        assert!(
            preds.iter().all(|p| p.is_some()),
            "every row should be OOB somewhere"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let train = friedman(150, 8);
        let a = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 30,
                ..Default::default()
            },
            9,
        );
        let b = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 30,
                ..Default::default()
            },
            9,
        );
        let row = train.row(0);
        assert_eq!(a.predict(row), b.predict(row));
        assert_eq!(a.oob_mse(&train), b.oob_mse(&train));
    }

    #[test]
    fn different_seeds_differ() {
        let train = friedman(150, 10);
        let a = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 30,
                ..Default::default()
            },
            11,
        );
        let b = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 30,
                ..Default::default()
            },
            12,
        );
        assert_ne!(a.predict(train.row(0)), b.predict(train.row(0)));
    }

    #[test]
    fn more_trees_do_not_overfit() {
        // Breiman's claim (c), tested: OOB error with many trees is no worse
        // than with few.
        let train = friedman(300, 13);
        let small = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 20,
                ..Default::default()
            },
            14,
        );
        let large = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 400,
                ..Default::default()
            },
            14,
        );
        assert!(large.oob_mse(&train) <= small.oob_mse(&train) * 1.05);
    }

    #[test]
    fn effective_mtry_defaults() {
        let c = ForestConfig::default();
        assert_eq!(c.effective_mtry(9), 3); // paper: nine predictors -> 3
        assert_eq!(c.effective_mtry(2), 1);
        let explicit = ForestConfig {
            mtry: Some(100),
            ..Default::default()
        };
        assert_eq!(explicit.effective_mtry(9), 9); // clamped to p
    }

    /// The paper stores the trained model ("as an R object") for reuse by
    /// the scheduler; our forests round-trip through serde the same way.
    #[test]
    fn serialized_forest_predicts_identically() {
        let train = friedman(100, 17);
        let f = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 25,
                ..Default::default()
            },
            18,
        );
        let json = serde_json::to_string(&f).unwrap();
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        for i in 0..10 {
            assert_eq!(f.predict(train.row(i)), back.predict(train.row(i)));
        }
        assert_eq!(f.oob_mse(&train), back.oob_mse(&train));
    }

    #[test]
    fn in_bag_counts_sum_to_n() {
        let train = friedman(80, 15);
        let f = RandomForest::fit(
            &train,
            &ForestConfig {
                num_trees: 10,
                ..Default::default()
            },
            16,
        );
        for bag in f.in_bag() {
            let total: u32 = bag.iter().map(|&c| c as u32).sum();
            assert_eq!(total as usize, train.len());
        }
    }
}
