//! Variable importance — the analysis behind the paper's Fig. 2.
//!
//! Two measures, as in R's `randomForest`:
//!
//! * **Permutation importance (%IncMSE)** — for each tree, compare its
//!   out-of-bag MSE before and after permuting one feature's values among
//!   the OOB rows; average the increase over trees and express it as a
//!   percentage of the baseline OOB MSE. Per §VI.C, variable importance was
//!   assessed by measuring the increase in error when partitioning data
//!   based on a variable; Fig. 2's x-axis is "percent increase in mean
//!   square error".
//! * **Node purity** — total SSE decrease contributed by each feature's
//!   splits, summed over all trees.

use crate::dataset::Dataset;
use crate::rf::RandomForest;
use crate::Predictor;
use simkit::SimRng;

/// Importance scores per feature, aligned with the dataset's columns.
#[derive(Debug, Clone)]
pub struct ImportanceReport {
    /// Feature names.
    pub names: Vec<String>,
    /// Raw permutation importance: percent increase in OOB MSE.
    pub percent_inc_mse: Vec<f64>,
    /// R's `%IncMSE` with `scale = TRUE` (the default, and what the paper's
    /// Fig. 2 plots despite the percent label): the mean per-tree MSE
    /// increase divided by its standard error across trees.
    pub scaled_inc_mse: Vec<f64>,
    /// Node-purity importance: total SSE decrease.
    pub node_purity: Vec<f64>,
}

impl ImportanceReport {
    /// Feature indices ranked by descending scaled %IncMSE (R's default
    /// ordering, hence Fig. 2's).
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.scaled_inc_mse.len()).collect();
        idx.sort_by(|&a, &b| {
            self.scaled_inc_mse[b]
                .partial_cmp(&self.scaled_inc_mse[a])
                .expect("importance never NaN")
        });
        idx
    }

    /// Render as aligned text rows (Fig. 2 as a table).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>16} {:>12} {:>14}\n",
            "predictor", "%IncMSE(scaled)", "raw %", "IncNodePurity"
        ));
        for &i in &self.ranking() {
            out.push_str(&format!(
                "{:<28} {:>16.1} {:>12.1} {:>14.1}\n",
                self.names[i], self.scaled_inc_mse[i], self.percent_inc_mse[i], self.node_purity[i]
            ));
        }
        out
    }
}

/// Compute both importance measures for a fitted forest.
///
/// Permutation uses a deterministic stream derived from `seed`.
pub fn importance(forest: &RandomForest, data: &Dataset, seed: u64) -> ImportanceReport {
    let p = data.num_features();
    let n = data.len();
    let root = SimRng::new(seed);

    // Node purity: sum across trees.
    let mut node_purity = vec![0.0f64; p];
    for tree in forest.trees() {
        for (j, &g) in tree.purity_decrease().iter().enumerate() {
            node_purity[j] += g;
        }
    }

    // Permutation importance, per tree over its OOB rows. Per-tree deltas
    // are kept so the R-style scaled statistic (mean / standard error) can
    // be computed alongside the raw percentage.
    let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); p];
    let mut baseline_total = 0.0f64;
    let mut trees_used = 0usize;
    for (t, (tree, bag)) in forest.trees().iter().zip(forest.in_bag()).enumerate() {
        let oob: Vec<usize> = (0..n).filter(|&i| bag[i] == 0).collect();
        if oob.len() < 2 {
            continue;
        }
        trees_used += 1;
        let base_mse: f64 = oob
            .iter()
            .map(|&i| {
                let e = tree.predict(data.row(i)) - data.target(i);
                e * e
            })
            .sum::<f64>()
            / oob.len() as f64;
        baseline_total += base_mse;
        for j in 0..p {
            let mut rng = root.fork_idx("perm", (t * p + j) as u64);
            // Permute feature j's values among the OOB rows.
            let mut values: Vec<f64> = oob.iter().map(|&i| data.row(i)[j]).collect();
            rng.shuffle(&mut values);
            let perm_mse: f64 = oob
                .iter()
                .zip(&values)
                .map(|(&i, &v)| {
                    let mut row = data.row(i).to_vec();
                    row[j] = v;
                    let e = tree.predict(&row) - data.target(i);
                    e * e
                })
                .sum::<f64>()
                / oob.len() as f64;
            deltas[j].push(perm_mse - base_mse);
        }
    }
    let baseline = if trees_used > 0 {
        baseline_total / trees_used as f64
    } else {
        f64::NAN
    };
    let mut percent_inc_mse = Vec::with_capacity(p);
    let mut scaled_inc_mse = Vec::with_capacity(p);
    for d in &deltas {
        if d.is_empty() || baseline <= 0.0 {
            percent_inc_mse.push(0.0);
            scaled_inc_mse.push(0.0);
            continue;
        }
        let nt = d.len() as f64;
        let mean = d.iter().sum::<f64>() / nt;
        percent_inc_mse.push(100.0 * mean / baseline);
        let var = d.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (nt - 1.0).max(1.0);
        let se = (var / nt).sqrt();
        scaled_inc_mse.push(if se > 0.0 { mean / se } else { 0.0 });
    }

    ImportanceReport {
        names: data.feature_names().to_vec(),
        percent_inc_mse,
        scaled_inc_mse,
        node_purity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FeatureKind;
    use crate::rf::ForestConfig;

    /// y depends strongly on x0, weakly on x1, not at all on x2.
    fn graded_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut d = Dataset::new(vec![
            ("strong".into(), FeatureKind::Continuous),
            ("weak".into(), FeatureKind::Continuous),
            ("noise".into(), FeatureKind::Continuous),
        ]);
        for _ in 0..n {
            let x: Vec<f64> = (0..3).map(|_| rng.f64()).collect();
            let y = 10.0 * x[0] + 1.0 * x[1] + rng.normal(0.0, 0.1);
            d.push(x, y);
        }
        d
    }

    #[test]
    fn permutation_importance_orders_features() {
        let d = graded_data(300, 21);
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                num_trees: 200,
                ..Default::default()
            },
            22,
        );
        let rep = importance(&f, &d, 23);
        assert_eq!(rep.ranking()[0], 0, "%IncMSE: {:?}", rep.percent_inc_mse);
        assert!(
            rep.percent_inc_mse[0] > 50.0,
            "strong feature should dominate"
        );
        // The weak and pure-noise features are both near zero; their mutual
        // order is within noise, but both must sit far below the signal.
        for j in [1, 2] {
            assert!(
                rep.percent_inc_mse[j] < rep.percent_inc_mse[0] / 10.0,
                "feature {j} should be near zero: {:?}",
                rep.percent_inc_mse
            );
        }
    }

    #[test]
    fn scaled_importance_tracks_raw_signal() {
        let d = graded_data(300, 36);
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                num_trees: 300,
                ..Default::default()
            },
            37,
        );
        let rep = importance(&f, &d, 38);
        // The strong feature's scaled score (mean/SE over 300 trees) must be
        // a large positive z-like value; the noise feature's must be small.
        assert!(rep.scaled_inc_mse[0] > 10.0, "{:?}", rep.scaled_inc_mse);
        assert!(rep.scaled_inc_mse[2] < rep.scaled_inc_mse[0] / 5.0);
        assert_eq!(rep.ranking()[0], 0);
    }

    #[test]
    fn node_purity_agrees_on_the_strong_feature() {
        let d = graded_data(300, 24);
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                num_trees: 100,
                ..Default::default()
            },
            25,
        );
        let rep = importance(&f, &d, 26);
        assert!(rep.node_purity[0] > rep.node_purity[1]);
        assert!(rep.node_purity[1] > rep.node_purity[2]);
    }

    #[test]
    fn categorical_importance_detected() {
        let mut rng = SimRng::new(27);
        let mut d = Dataset::new(vec![
            ("cat".into(), FeatureKind::Categorical { levels: 3 }),
            ("noise".into(), FeatureKind::Continuous),
        ]);
        for _ in 0..300 {
            let c = rng.index(3);
            let y = [0.0, 5.0, 20.0][c] + rng.normal(0.0, 0.2);
            d.push(vec![c as f64, rng.f64()], y);
        }
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                num_trees: 150,
                ..Default::default()
            },
            28,
        );
        let rep = importance(&f, &d, 29);
        assert!(rep.percent_inc_mse[0] > rep.percent_inc_mse[1] * 5.0);
    }

    #[test]
    fn importance_deterministic() {
        let d = graded_data(150, 30);
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                num_trees: 50,
                ..Default::default()
            },
            31,
        );
        let a = importance(&f, &d, 32);
        let b = importance(&f, &d, 32);
        assert_eq!(a.percent_inc_mse, b.percent_inc_mse);
    }

    #[test]
    fn table_renders_ranked() {
        let d = graded_data(150, 33);
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                num_trees: 50,
                ..Default::default()
            },
            34,
        );
        let rep = importance(&f, &d, 35);
        let table = rep.to_table();
        let strong_pos = table.find("strong").unwrap();
        let noise_pos = table.find("noise").unwrap();
        assert!(
            strong_pos < noise_pos,
            "table must list strongest first:\n{table}"
        );
    }
}
