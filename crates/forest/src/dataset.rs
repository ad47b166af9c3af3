//! Feature tables with mixed continuous and categorical covariates.
//!
//! Categorical features are stored as level codes in the same `f64` row as
//! the continuous ones (codes are exact small integers, so the encoding is
//! lossless); the [`FeatureKind`] vector tells the learners how to treat
//! each column. This mirrors R's `randomForest`, which the paper praises for
//! handling "categorical and continuous variables" without preprocessing.

use serde::{Deserialize, Serialize};

/// Most levels a categorical feature may have: a tree's split rule routes
/// levels by a `u64` bitmask.
pub(crate) const MAX_LEVELS: usize = 64;

/// What a feature column contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Ordered numeric values.
    Continuous,
    /// Unordered level codes `0..levels`.
    Categorical {
        /// Number of distinct levels.
        levels: usize,
    },
}

/// A regression training table: rows of features plus a target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    names: Vec<String>,
    kinds: Vec<FeatureKind>,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Empty table with the given schema.
    ///
    /// # Panics
    /// Panics if a categorical feature declares more than 64 levels, the
    /// width of a split rule's level mask.
    pub fn new(schema: Vec<(String, FeatureKind)>) -> Dataset {
        let (names, kinds): (Vec<String>, Vec<FeatureKind>) = schema.into_iter().unzip();
        for (name, kind) in names.iter().zip(&kinds) {
            if let FeatureKind::Categorical { levels } = kind {
                assert!(
                    *levels <= MAX_LEVELS,
                    "feature {name}: {levels} levels exceed the {MAX_LEVELS}-level split mask"
                );
            }
        }
        Dataset {
            names,
            kinds,
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Append one observation.
    ///
    /// # Panics
    /// Panics if the row width mismatches the schema, a value is non-finite,
    /// or a categorical code is outside its declared range.
    pub fn push(&mut self, row: Vec<f64>, target: f64) {
        assert_eq!(row.len(), self.kinds.len(), "row width mismatch");
        assert!(target.is_finite(), "non-finite target {target}");
        for (j, (&v, kind)) in row.iter().zip(&self.kinds).enumerate() {
            assert!(v.is_finite(), "non-finite feature {j}");
            if let FeatureKind::Categorical { levels } = kind {
                // `as usize` saturates, so a negative code would pass as 0.
                let code = v as usize;
                assert!(
                    v >= 0.0 && v.fract() == 0.0 && code < *levels,
                    "feature {j}: code {v} outside 0..{levels}"
                );
            }
        }
        self.rows.push(row);
        self.targets.push(target);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no observations.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.kinds.len()
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// Feature kinds.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// One row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// One target.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Mean of the targets (0 if empty).
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }

    /// A new dataset containing only the given row indices (with repetition
    /// allowed) — the bootstrap-sampling primitive.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            names: self.names.clone(),
            kinds: self.kinds.clone(),
            rows: indices.iter().map(|&i| self.rows[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }

    /// Split indices into `k` contiguous folds for cross-validation.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the number of rows.
    pub fn fold_indices(&self, k: usize) -> Vec<Vec<usize>> {
        assert!(k > 0 && k <= self.len(), "invalid fold count {k}");
        let mut folds = vec![Vec::new(); k];
        for i in 0..self.len() {
            folds[i % k].push(i);
        }
        folds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Vec<(String, FeatureKind)> {
        vec![
            ("x".into(), FeatureKind::Continuous),
            ("c".into(), FeatureKind::Categorical { levels: 3 }),
        ]
    }

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new(schema());
        d.push(vec![1.5, 2.0], 10.0);
        d.push(vec![2.5, 0.0], 20.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.row(1), &[2.5, 0.0]);
        assert_eq!(d.target(0), 10.0);
        assert_eq!(d.target_mean(), 15.0);
        assert_eq!(d.feature_names()[1], "c");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut d = Dataset::new(schema());
        d.push(vec![1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside 0..3")]
    fn invalid_category_rejected() {
        let mut d = Dataset::new(schema());
        d.push(vec![1.0, 3.0], 1.0);
    }

    /// A 70-level feature would let training group level 64 with level 0
    /// (`1u64 << 64` wraps) while prediction routes level 64 right.
    #[test]
    #[should_panic(expected = "70 levels exceed the 64-level split mask")]
    fn categorical_wider_than_split_mask_rejected() {
        let _ = Dataset::new(vec![("c".into(), FeatureKind::Categorical { levels: 70 })]);
    }

    /// `-1.0 as usize` saturates to 0, so without its own check a
    /// negative code would train as level 0.
    #[test]
    #[should_panic(expected = "code -1 outside 0..3")]
    fn negative_category_rejected() {
        let mut d = Dataset::new(schema());
        d.push(vec![1.0, -1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let mut d = Dataset::new(schema());
        d.push(vec![f64::NAN, 0.0], 1.0);
    }

    #[test]
    fn subset_with_repetition() {
        let mut d = Dataset::new(schema());
        d.push(vec![1.0, 0.0], 1.0);
        d.push(vec![2.0, 1.0], 2.0);
        let s = d.subset(&[1, 1, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.targets(), &[2.0, 2.0, 1.0]);
    }

    #[test]
    fn folds_partition_everything() {
        let mut d = Dataset::new(schema());
        for i in 0..10 {
            d.push(vec![i as f64, 0.0], i as f64);
        }
        let folds = d.fold_indices(3);
        let total: usize = folds.iter().map(|f| f.len()).sum();
        assert_eq!(total, 10);
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }
}
