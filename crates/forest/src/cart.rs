//! CART regression trees with exact least-squares splits.
//!
//! Numeric features split on thresholds found by a sorted prefix-sum scan;
//! categorical features order their levels by mean response and scan the
//! same way — the classic trick that finds the optimal two-way level
//! partition for L2 loss without enumerating 2^k subsets.
//!
//! A `Table` lays the training data out once per forest, and every tree
//! reads it: a column-major copy of the features and, for each value, its
//! dense rank within a continuous column (equal values share a rank, and
//! `-0.0` ties `0.0`, as `partial_cmp` has it) or its level code within a
//! categorical one.
//!
//! A tree grows in a `Scratch` that a worker reuses from one tree to the
//! next, so the split search allocates nothing per node or per tree. The
//! bootstrap rows live in one sample buffer, and each node owns a range
//! `samples[lo..hi]` of it. A numeric candidate orders the node's
//! `(x, y)` pairs by a stable counting sort over the ranks, which yields
//! the order of a stable comparison sort; a categorical candidate
//! aggregates into fixed 64-entry level tables. Only the winning rule
//! splits the range, by a stable in-place partition that reads the column
//! copy through the test [`SplitRule::goes_left`] applies. A finished tree
//! keeps its nodes at exactly their length. Every sum runs in a fixed
//! order, so a bootstrap sample and an RNG state always grow the same
//! tree, bit for bit.

use crate::dataset::{Dataset, FeatureKind, MAX_LEVELS};
use crate::Predictor;
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// Tree-growing hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum observations a node needs before a split is attempted —
    /// R `randomForest`'s regression `nodesize` (default 5). Children may
    /// be smaller (down to `min_samples_leaf`).
    pub min_samples_split: usize,
    /// Minimum observations in any leaf (R allows 1).
    pub min_samples_leaf: usize,
    /// Features examined per node: `None` = all (plain CART / bagging),
    /// `Some(m)` = a fresh random subset of `m` per node (random forest).
    pub mtry: Option<usize>,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            max_depth: 64,
            min_samples_split: 5,
            min_samples_leaf: 1,
            mtry: None,
        }
    }
}

/// How an internal node routes a row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SplitRule {
    /// Left iff `row[feature] <= threshold`.
    Numeric {
        /// Column index.
        feature: usize,
        /// Split threshold (midpoint between adjacent observed values).
        threshold: f64,
    },
    /// Left iff the level bit of `row[feature]` is set in `left_levels`.
    Categorical {
        /// Column index.
        feature: usize,
        /// Bitmask of level codes routed left.
        left_levels: u64,
    },
}

impl SplitRule {
    /// Which feature the rule reads.
    pub fn feature(&self) -> usize {
        match self {
            SplitRule::Numeric { feature, .. } | SplitRule::Categorical { feature, .. } => *feature,
        }
    }

    /// Route a row: true = left.
    pub fn goes_left(&self, row: &[f64]) -> bool {
        self.sends_left(row[self.feature()])
    }

    /// Route a value of the rule's feature: true = left.
    fn sends_left(&self, value: f64) -> bool {
        match *self {
            SplitRule::Numeric { threshold, .. } => value <= threshold,
            SplitRule::Categorical { left_levels, .. } => {
                let code = value as u64;
                code < 64 && (left_levels >> code) & 1 == 1
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Internal {
        rule: SplitRule,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    /// Total SSE decrease attributed to each feature (node-purity
    /// importance; summed over the forest by [`crate::importance`]).
    purity_decrease: Vec<f64>,
}

/// A training table laid out for growing trees; one serves every tree of
/// a forest.
pub(crate) struct Table<'a> {
    data: &'a Dataset,
    /// Column-major features: `columns[f * data.len() + i]` is row `i`'s
    /// feature `f`.
    columns: Vec<f64>,
    /// Laid out as `columns`: a continuous value's dense rank within its
    /// column, or a categorical value's level code.
    ranks: Vec<u32>,
    /// Most distinct values in any continuous column: the length of the
    /// counting sort's histogram.
    max_distinct: usize,
}

/// Buffers for growing one tree, reused from one tree to the next.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The rows to grow on (repeats allowed), filled by the caller; a node
    /// owns `samples[lo..hi]`.
    pub(crate) samples: Vec<usize>,
    /// Rows routed right, parked while a partition compacts the left ones.
    spill: Vec<usize>,
    /// Features tried at the current node.
    features: Vec<usize>,
    /// `(value, target)` pairs of the numeric feature being scored, in
    /// value order.
    pairs: Vec<(f64, f64)>,
    /// Counts per rank, then each rank's next slot in `pairs`; all zero
    /// between candidates.
    hist: Vec<usize>,
    /// The tree's nodes as they grow.
    nodes: Vec<Node>,
}

struct Builder<'a> {
    table: &'a Table<'a>,
    config: CartConfig,
    purity: Vec<f64>,
    s: &'a mut Scratch,
}

/// The best split found at a node.
struct Split {
    rule: SplitRule,
    gain: f64,
}

impl RegressionTree {
    /// Fit a tree on the rows of `data` indexed by `indices` (with
    /// repetitions allowed, as produced by bootstrap sampling).
    ///
    /// # Panics
    /// Panics if `indices` is empty.
    pub fn fit(data: &Dataset, indices: &[usize], config: CartConfig, rng: &mut SimRng) -> Self {
        assert!(!indices.is_empty(), "cannot fit on zero rows");
        let mut scratch = Scratch::default();
        scratch.samples.extend_from_slice(indices);
        Table::new(data).grow(config, rng, &mut scratch)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Per-feature SSE decrease accumulated during growing.
    pub fn purity_decrease(&self) -> &[f64] {
        &self.purity_decrease
    }
}

impl Predictor for RegressionTree {
    fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Internal { rule, left, right } => {
                    i = if rule.goes_left(row) { *left } else { *right };
                }
            }
        }
    }
}

impl<'a> Table<'a> {
    /// Lay out `data`: the column copy, then each column's ranks or codes.
    pub(crate) fn new(data: &'a Dataset) -> Self {
        let n = data.len();
        let mut columns = vec![0.0; n * data.num_features()];
        for (i, row) in data.rows().iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                columns[f * n + i] = v;
            }
        }
        let mut ranks = vec![0u32; columns.len()];
        let mut max_distinct = 0;
        let mut order = Vec::with_capacity(n);
        for (f, kind) in data.kinds().iter().enumerate() {
            let column = &columns[f * n..(f + 1) * n];
            let ranks = &mut ranks[f * n..(f + 1) * n];
            if let FeatureKind::Categorical { .. } = kind {
                for (code, &v) in ranks.iter_mut().zip(column) {
                    *code = v as u32;
                }
                continue;
            }
            order.clear();
            order.extend(0..n);
            order.sort_by(|&a, &b| column[a].partial_cmp(&column[b]).expect("finite features"));
            let mut rank = 0;
            for k in 1..n {
                if column[order[k]] != column[order[k - 1]] {
                    rank += 1;
                }
                ranks[order[k]] = rank;
            }
            max_distinct = max_distinct.max(rank as usize + 1);
        }
        Table {
            data,
            columns,
            ranks,
            max_distinct,
        }
    }

    fn column(&self, f: usize) -> &[f64] {
        let n = self.data.len();
        &self.columns[f * n..(f + 1) * n]
    }

    fn ranks(&self, f: usize) -> &[u32] {
        let n = self.data.len();
        &self.ranks[f * n..(f + 1) * n]
    }

    /// Grow a tree on the rows in `scratch.samples`, which must not be
    /// empty. Whatever the other buffers hold from an earlier tree, or an
    /// earlier table, is overwritten.
    pub(crate) fn grow(
        &self,
        config: CartConfig,
        rng: &mut SimRng,
        scratch: &mut Scratch,
    ) -> RegressionTree {
        let m = scratch.samples.len();
        scratch.pairs.resize(m, (0.0, 0.0));
        scratch.hist.clear();
        scratch.hist.resize(self.max_distinct, 0);
        scratch.nodes.clear();
        let mut b = Builder {
            table: self,
            config,
            purity: vec![0.0; self.data.num_features()],
            s: scratch,
        };
        b.grow(0, m, 0, rng);
        RegressionTree {
            nodes: b.s.nodes.to_vec(),
            purity_decrease: b.purity,
        }
    }
}

impl Builder<'_> {
    /// Grow the subtree for `samples[lo..hi]`, returning its node index.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize, rng: &mut SimRng) -> usize {
        let n = hi - lo;
        let split = if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || n < 2 * self.config.min_samples_leaf
        {
            None
        } else {
            self.best_split(lo, hi, rng).filter(|s| s.gain > 1e-12)
        };
        let Some(Split { rule, gain }) = split else {
            let targets = self.table.data.targets();
            let value = self.s.samples[lo..hi]
                .iter()
                .map(|&i| targets[i])
                .sum::<f64>()
                / n as f64;
            self.s.nodes.push(Node::Leaf { value });
            return self.s.nodes.len() - 1;
        };
        self.purity[rule.feature()] += gain;
        let mid = self.partition(lo, hi, &rule);
        // Reserve the slot, then grow children.
        let slot = self.s.nodes.len();
        self.s.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.grow(lo, mid, depth + 1, rng);
        let right = self.grow(mid, hi, depth + 1, rng);
        self.s.nodes[slot] = Node::Internal { rule, left, right };
        slot
    }

    /// Best split over the (possibly subsampled) feature set. The first
    /// feature in examination order wins a gain tie.
    fn best_split(&mut self, lo: usize, hi: usize, rng: &mut SimRng) -> Option<Split> {
        let data = self.table.data;
        let p = data.num_features();
        self.s.features.clear();
        self.s.features.extend(0..p);
        if let Some(m) = self.config.mtry.filter(|&m| m < p) {
            rng.shuffle(&mut self.s.features);
            self.s.features.truncate(m.max(1));
        }
        let targets = data.targets();
        let (mut s, mut s2) = (0.0, 0.0);
        for &i in &self.s.samples[lo..hi] {
            let y = targets[i];
            s += y;
            s2 += y * y;
        }
        let parent_sse = s2 - s * s / (hi - lo) as f64;
        let mut best: Option<Split> = None;
        for k in 0..self.s.features.len() {
            let f = self.s.features[k];
            let candidate = match data.kinds()[f] {
                FeatureKind::Continuous => self.numeric_split(lo, hi, f, parent_sse),
                FeatureKind::Categorical { levels } => {
                    self.categorical_split(lo, hi, f, levels, parent_sse)
                }
            };
            if let Some(c) = candidate {
                if best.as_ref().is_none_or(|b| c.gain > b.gain) {
                    best = Some(c);
                }
            }
        }
        best
    }

    fn numeric_split(&mut self, lo: usize, hi: usize, f: usize, parent_sse: f64) -> Option<Split> {
        let column = self.table.column(f);
        let ranks = self.table.ranks(f);
        let targets = self.table.data.targets();
        let Scratch {
            samples,
            pairs,
            hist,
            ..
        } = &mut *self.s;
        let samples = &samples[lo..hi];
        let (mut first, mut last) = (usize::MAX, 0);
        for &i in samples {
            let r = ranks[i] as usize;
            hist[r] += 1;
            first = first.min(r);
            last = last.max(r);
        }
        let hist = &mut hist[first..=last];
        if let [only] = hist {
            // One value throughout: nowhere to split.
            *only = 0;
            return None;
        }
        // A stable counting sort: equal values keep sample order, which
        // fixes the prefix sums' summation order.
        let mut next = 0;
        for slot in hist.iter_mut() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        let pairs = &mut pairs[..samples.len()];
        for &i in samples {
            let slot = &mut hist[ranks[i] as usize - first];
            pairs[*slot] = (column[i], targets[i]);
            *slot += 1;
        }
        hist.fill(0);
        let n = pairs.len();
        let total_s: f64 = pairs.iter().map(|p| p.1).sum();
        let total_s2: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
        let (mut ls, mut ls2) = (0.0, 0.0);
        let mut best_gain = 0.0;
        let mut best_thresh = None;
        for k in 0..n - 1 {
            ls += pairs[k].1;
            ls2 += pairs[k].1 * pairs[k].1;
            if pairs[k].0 == pairs[k + 1].0 {
                continue; // can't split between equal values
            }
            let nl = (k + 1) as f64;
            let nr = (n - k - 1) as f64;
            if (k + 1) < self.config.min_samples_leaf || (n - k - 1) < self.config.min_samples_leaf
            {
                continue;
            }
            let sse = (ls2 - ls * ls / nl) + ((total_s2 - ls2) - (total_s - ls).powi(2) / nr);
            let gain = parent_sse - sse;
            if gain > best_gain {
                best_gain = gain;
                best_thresh = Some(0.5 * (pairs[k].0 + pairs[k + 1].0));
            }
        }
        Some(Split {
            rule: SplitRule::Numeric {
                feature: f,
                threshold: best_thresh?,
            },
            gain: best_gain,
        })
    }

    fn categorical_split(
        &self,
        lo: usize,
        hi: usize,
        f: usize,
        levels: usize,
        parent_sse: f64,
    ) -> Option<Split> {
        // Per-level aggregates, accumulated in sample order.
        let codes = self.table.ranks(f);
        let targets = self.table.data.targets();
        let mut count = [0usize; MAX_LEVELS];
        let mut sum = [0.0f64; MAX_LEVELS];
        let mut sum2 = [0.0f64; MAX_LEVELS];
        for &i in &self.s.samples[lo..hi] {
            let c = codes[i] as usize;
            let y = targets[i];
            count[c] += 1;
            sum[c] += y;
            sum2[c] += y * y;
        }
        // Order present levels by mean response (stable, so equal means
        // keep level order); scan prefixes.
        let mut present = [0usize; MAX_LEVELS];
        let mut k = 0;
        for c in (0..levels).filter(|&c| count[c] > 0) {
            present[k] = c;
            k += 1;
        }
        let present = &mut present[..k];
        if present.len() < 2 {
            return None;
        }
        present.sort_by(|&a, &b| {
            (sum[a] / count[a] as f64)
                .partial_cmp(&(sum[b] / count[b] as f64))
                .expect("finite targets")
        });
        let total_n = hi - lo;
        let total_s: f64 = sum[..levels].iter().sum();
        let total_s2: f64 = sum2[..levels].iter().sum();
        let (mut ln, mut ls, mut ls2) = (0usize, 0.0, 0.0);
        let mut best_gain = 0.0;
        let mut best_mask = None;
        let mut mask: u64 = 0;
        for &c in &present[..present.len() - 1] {
            ln += count[c];
            ls += sum[c];
            ls2 += sum2[c];
            mask |= 1u64 << c;
            let rn = total_n - ln;
            if ln < self.config.min_samples_leaf || rn < self.config.min_samples_leaf {
                continue;
            }
            let sse = (ls2 - ls * ls / ln as f64)
                + ((total_s2 - ls2) - (total_s - ls).powi(2) / rn as f64);
            let gain = parent_sse - sse;
            if gain > best_gain {
                best_gain = gain;
                best_mask = Some(mask);
            }
        }
        Some(Split {
            rule: SplitRule::Categorical {
                feature: f,
                left_levels: best_mask?,
            },
            gain: best_gain,
        })
    }

    /// Stably partition `samples[lo..hi]` by `rule`, routing each row's
    /// value in the column copy through the test [`Predictor::predict`]
    /// uses: left rows first, then right rows, each side in its original
    /// order. Returns the boundary.
    fn partition(&mut self, lo: usize, hi: usize, rule: &SplitRule) -> usize {
        let column = self.table.column(rule.feature());
        let Scratch { samples, spill, .. } = &mut *self.s;
        spill.clear();
        let mut mid = lo;
        for k in lo..hi {
            let i = samples[k];
            if rule.sends_left(column[i]) {
                samples[mid] = i;
                mid += 1;
            } else {
                spill.push(i);
            }
        }
        samples[mid..hi].copy_from_slice(spill);
        mid
    }
}

/// The builder as it stood before the allocation-free split search: each
/// node owns an index `Vec`, and every candidate feature builds its
/// partition. Kept verbatim as the oracle for the differential test.
#[cfg(test)]
mod reference {
    use super::{CartConfig, Node, RegressionTree, SplitRule};
    use crate::dataset::{Dataset, FeatureKind};
    use simkit::SimRng;

    /// [`RegressionTree::fit`] on the reference builder.
    pub(super) fn fit(
        data: &Dataset,
        indices: &[usize],
        config: CartConfig,
        rng: &mut SimRng,
    ) -> RegressionTree {
        assert!(!indices.is_empty(), "cannot fit on zero rows");
        let mut b = Builder {
            data,
            config,
            nodes: Vec::new(),
            purity: vec![0.0; data.num_features()],
        };
        b.grow(indices.to_vec(), 0, rng);
        RegressionTree {
            nodes: b.nodes,
            purity_decrease: b.purity,
        }
    }

    struct Builder<'a> {
        data: &'a Dataset,
        config: CartConfig,
        nodes: Vec<Node>,
        purity: Vec<f64>,
    }

    /// Candidate split outcome.
    struct BestSplit {
        rule: SplitRule,
        gain: f64,
        left: Vec<usize>,
        right: Vec<usize>,
    }

    fn mean_of(data: &Dataset, idx: &[usize]) -> f64 {
        idx.iter().map(|&i| data.target(i)).sum::<f64>() / idx.len() as f64
    }

    fn sse_of(data: &Dataset, idx: &[usize]) -> f64 {
        let (mut s, mut s2) = (0.0, 0.0);
        for &i in idx {
            let y = data.target(i);
            s += y;
            s2 += y * y;
        }
        s2 - s * s / idx.len() as f64
    }

    impl Builder<'_> {
        /// Grow the subtree for `idx`, returning its node index.
        fn grow(&mut self, idx: Vec<usize>, depth: usize, rng: &mut SimRng) -> usize {
            let make_leaf = |b: &mut Builder, idx: &[usize]| {
                let value = mean_of(b.data, idx);
                b.nodes.push(Node::Leaf { value });
                b.nodes.len() - 1
            };
            if depth >= self.config.max_depth
                || idx.len() < self.config.min_samples_split
                || idx.len() < 2 * self.config.min_samples_leaf
            {
                return make_leaf(self, &idx);
            }
            match self.best_split(&idx, rng) {
                Some(best) if best.gain > 1e-12 => {
                    self.purity[best.rule.feature()] += best.gain;
                    // Reserve the slot, then grow children.
                    let slot = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                    let left = self.grow(best.left, depth + 1, rng);
                    let right = self.grow(best.right, depth + 1, rng);
                    self.nodes[slot] = Node::Internal {
                        rule: best.rule,
                        left,
                        right,
                    };
                    slot
                }
                _ => make_leaf(self, &idx),
            }
        }

        /// Best split over the (possibly subsampled) feature set.
        fn best_split(&self, idx: &[usize], rng: &mut SimRng) -> Option<BestSplit> {
            let p = self.data.num_features();
            let features: Vec<usize> = match self.config.mtry {
                Some(m) if m < p => {
                    let mut all: Vec<usize> = (0..p).collect();
                    rng.shuffle(&mut all);
                    all.truncate(m.max(1));
                    all
                }
                _ => (0..p).collect(),
            };
            let parent_sse = sse_of(self.data, idx);
            let mut best: Option<BestSplit> = None;
            for &f in &features {
                let candidate = match self.data.kinds()[f] {
                    FeatureKind::Continuous => self.best_numeric_split(idx, f, parent_sse),
                    FeatureKind::Categorical { .. } => {
                        self.best_categorical_split(idx, f, parent_sse)
                    }
                };
                if let Some(c) = candidate {
                    if best.as_ref().is_none_or(|b| c.gain > b.gain) {
                        best = Some(c);
                    }
                }
            }
            best
        }

        fn best_numeric_split(
            &self,
            idx: &[usize],
            f: usize,
            parent_sse: f64,
        ) -> Option<BestSplit> {
            let mut pairs: Vec<(f64, f64)> = idx
                .iter()
                .map(|&i| (self.data.row(i)[f], self.data.target(i)))
                .collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            let n = pairs.len();
            let total_s: f64 = pairs.iter().map(|p| p.1).sum();
            let total_s2: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
            let (mut ls, mut ls2) = (0.0, 0.0);
            let mut best_gain = 0.0;
            let mut best_thresh = None;
            for k in 0..n - 1 {
                ls += pairs[k].1;
                ls2 += pairs[k].1 * pairs[k].1;
                if pairs[k].0 == pairs[k + 1].0 {
                    continue; // can't split between equal values
                }
                let nl = (k + 1) as f64;
                let nr = (n - k - 1) as f64;
                if (k + 1) < self.config.min_samples_leaf
                    || (n - k - 1) < self.config.min_samples_leaf
                {
                    continue;
                }
                let sse = (ls2 - ls * ls / nl) + ((total_s2 - ls2) - (total_s - ls).powi(2) / nr);
                let gain = parent_sse - sse;
                if gain > best_gain {
                    best_gain = gain;
                    best_thresh = Some(0.5 * (pairs[k].0 + pairs[k + 1].0));
                }
            }
            let threshold = best_thresh?;
            let rule = SplitRule::Numeric {
                feature: f,
                threshold,
            };
            let (left, right) = partition(self.data, idx, &rule);
            Some(BestSplit {
                rule,
                gain: best_gain,
                left,
                right,
            })
        }

        fn best_categorical_split(
            &self,
            idx: &[usize],
            f: usize,
            parent_sse: f64,
        ) -> Option<BestSplit> {
            // Per-level aggregates.
            let levels = match self.data.kinds()[f] {
                FeatureKind::Categorical { levels } => levels,
                FeatureKind::Continuous => unreachable!(),
            };
            let mut count = vec![0usize; levels];
            let mut sum = vec![0.0f64; levels];
            let mut sum2 = vec![0.0f64; levels];
            for &i in idx {
                let c = self.data.row(i)[f] as usize;
                count[c] += 1;
                sum[c] += self.data.target(i);
                sum2[c] += self.data.target(i) * self.data.target(i);
            }
            // Order present levels by mean response; scan prefixes.
            let mut present: Vec<usize> = (0..levels).filter(|&c| count[c] > 0).collect();
            if present.len() < 2 {
                return None;
            }
            present.sort_by(|&a, &b| {
                (sum[a] / count[a] as f64)
                    .partial_cmp(&(sum[b] / count[b] as f64))
                    .expect("finite targets")
            });
            let total_n: usize = idx.len();
            let total_s: f64 = sum.iter().sum();
            let total_s2: f64 = sum2.iter().sum();
            let (mut ln, mut ls, mut ls2) = (0usize, 0.0, 0.0);
            let mut best_gain = 0.0;
            let mut best_mask = None;
            let mut mask: u64 = 0;
            for (pos, &c) in present.iter().enumerate().take(present.len() - 1) {
                ln += count[c];
                ls += sum[c];
                ls2 += sum2[c];
                mask |= 1u64 << c;
                let rn = total_n - ln;
                if ln < self.config.min_samples_leaf || rn < self.config.min_samples_leaf {
                    continue;
                }
                let sse = (ls2 - ls * ls / ln as f64)
                    + ((total_s2 - ls2) - (total_s - ls).powi(2) / rn as f64);
                let gain = parent_sse - sse;
                if gain > best_gain {
                    best_gain = gain;
                    best_mask = Some(mask);
                }
                let _ = pos;
            }
            let left_levels = best_mask?;
            let rule = SplitRule::Categorical {
                feature: f,
                left_levels,
            };
            let (left, right) = partition(self.data, idx, &rule);
            Some(BestSplit {
                rule,
                gain: best_gain,
                left,
                right,
            })
        }
    }

    fn partition(data: &Dataset, idx: &[usize], rule: &SplitRule) -> (Vec<usize>, Vec<usize>) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &i in idx {
            if rule.goes_left(data.row(i)) {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::{ForestConfig, RandomForest};
    use proptest::prelude::*;
    use rand::RngCore;

    fn step_data() -> Dataset {
        // y = 0 for x < 5, y = 10 for x >= 5: one perfect numeric split.
        let mut d = Dataset::new(vec![("x".into(), FeatureKind::Continuous)]);
        for i in 0..100 {
            let x = i as f64 / 10.0;
            d.push(vec![x], if x < 5.0 { 0.0 } else { 10.0 });
        }
        d
    }

    #[test]
    fn finds_step_function() {
        let d = step_data();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(1);
        let t = RegressionTree::fit(&d, &idx, CartConfig::default(), &mut rng);
        assert!((t.predict(&[2.0]) - 0.0).abs() < 1e-9);
        assert!((t.predict(&[8.0]) - 10.0).abs() < 1e-9);
        // Perfect split: the x feature owns all the purity gain.
        assert!(t.purity_decrease()[0] > 0.0);
    }

    #[test]
    fn respects_min_leaf() {
        let d = step_data();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(2);
        let config = CartConfig {
            min_samples_leaf: 60,
            ..Default::default()
        };
        let t = RegressionTree::fit(&d, &idx, config, &mut rng);
        // Can't make any split with both sides >= 60 of 100.
        assert_eq!(t.num_leaves(), 1);
        assert!((t.predict(&[2.0]) - 5.0).abs() < 1e-9); // grand mean
    }

    #[test]
    fn respects_min_split() {
        let d = step_data();
        let idx: Vec<usize> = (0..30).collect();
        let mut rng = SimRng::new(9);
        let config = CartConfig {
            min_samples_split: 31,
            ..Default::default()
        };
        let t = RegressionTree::fit(&d, &idx, config, &mut rng);
        assert_eq!(t.num_leaves(), 1, "node below nodesize must not split");
    }

    #[test]
    fn max_depth_zero_is_stump() {
        let d = step_data();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(3);
        let config = CartConfig {
            max_depth: 0,
            ..Default::default()
        };
        let t = RegressionTree::fit(&d, &idx, config, &mut rng);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn categorical_split_groups_levels() {
        // Levels {0, 2} -> y = 1; levels {1, 3} -> y = 9.
        let mut d = Dataset::new(vec![("c".into(), FeatureKind::Categorical { levels: 4 })]);
        for i in 0..200 {
            let c = (i % 4) as f64;
            let y = if i % 4 == 0 || i % 4 == 2 { 1.0 } else { 9.0 };
            d.push(vec![c], y);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(4);
        let t = RegressionTree::fit(&d, &idx, CartConfig::default(), &mut rng);
        assert!((t.predict(&[0.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[2.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[1.0]) - 9.0).abs() < 1e-9);
        assert!((t.predict(&[3.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_category_goes_right() {
        let rule = SplitRule::Categorical {
            feature: 0,
            left_levels: 0b011,
        };
        assert!(rule.goes_left(&[0.0]));
        assert!(rule.goes_left(&[1.0]));
        assert!(!rule.goes_left(&[5.0]));
    }

    #[test]
    fn interaction_of_two_features() {
        // y = 10·(x > 0.5) + 5·(c == 1): tree should get close.
        let mut d = Dataset::new(vec![
            ("x".into(), FeatureKind::Continuous),
            ("c".into(), FeatureKind::Categorical { levels: 2 }),
        ]);
        let mut rng = SimRng::new(5);
        for _ in 0..400 {
            let x = rng.f64();
            let c = rng.index(2) as f64;
            let y = 10.0 * (x > 0.5) as u8 as f64 + 5.0 * c;
            d.push(vec![x, c], y);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = RegressionTree::fit(&d, &idx, CartConfig::default(), &mut rng);
        assert!((t.predict(&[0.9, 1.0]) - 15.0).abs() < 1.0);
        assert!((t.predict(&[0.1, 0.0]) - 0.0).abs() < 1.0);
    }

    #[test]
    fn mtry_one_still_learns() {
        let d = step_data();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(6);
        let config = CartConfig {
            mtry: Some(1),
            ..Default::default()
        };
        let t = RegressionTree::fit(&d, &idx, config, &mut rng);
        assert!((t.predict(&[8.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let mut d = Dataset::new(vec![("x".into(), FeatureKind::Continuous)]);
        for i in 0..50 {
            d.push(vec![i as f64], 7.0);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(7);
        let t = RegressionTree::fit(&d, &idx, CartConfig::default(), &mut rng);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.predict(&[999.0]), 7.0);
    }

    /// A random mixed table aimed at the split search's edge cases:
    /// continuous columns drawing from a few values (heavy ties, with half
    /// of the zeros negative), categorical columns of 2–8 levels that may
    /// use only one of them, duplicated rows, and stretches of constant
    /// target that include both signed zeros.
    fn tangled_data(rng: &mut SimRng) -> Dataset {
        let p = 1 + rng.index(5);
        let kinds: Vec<FeatureKind> = (0..p)
            .map(|_| {
                if rng.chance(0.5) {
                    FeatureKind::Continuous
                } else {
                    FeatureKind::Categorical {
                        levels: 2 + rng.index(7),
                    }
                }
            })
            .collect();
        // Distinct values per column; 0 marks a column of real-valued draws.
        let pools: Vec<usize> = kinds
            .iter()
            .map(|kind| match kind {
                FeatureKind::Continuous if rng.chance(0.2) => 0,
                FeatureKind::Continuous => 1 + rng.index(8),
                FeatureKind::Categorical { levels } => 1 + rng.index(*levels),
            })
            .collect();
        let schema = kinds
            .iter()
            .enumerate()
            .map(|(j, &kind)| (format!("f{j}"), kind))
            .collect();
        let mut d = Dataset::new(schema);
        let mut y = 0.0;
        for r in 0..1 + rng.index(60) {
            if r > 0 && rng.chance(0.15) {
                let src = rng.index(r);
                d.push(d.row(src).to_vec(), d.target(src));
                continue;
            }
            let row = kinds
                .iter()
                .zip(&pools)
                .map(|(kind, &pool)| match kind {
                    FeatureKind::Continuous if pool == 0 => rng.normal(0.0, 1.0),
                    FeatureKind::Continuous => match rng.index(pool) as f64 * 0.5 - 1.0 {
                        0.0 if rng.chance(0.5) => -0.0,
                        x => x,
                    },
                    FeatureKind::Categorical { .. } => rng.index(pool) as f64,
                })
                .collect();
            if rng.chance(0.5) {
                y = match rng.index(4) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => rng.index(5) as f64 - 2.0,
                    _ => rng.normal(0.0, 10.0),
                };
            }
            d.push(row, y);
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The allocation-free builder grows the reference builder's tree
        /// bit for bit and leaves the RNG at the same point.
        #[test]
        fn builder_matches_reference(seed in 0u64..u64::MAX) {
            let mut rng = SimRng::new(seed);
            let data = tangled_data(&mut rng);
            let n = data.len();
            let p = data.num_features();
            let indices: Vec<usize> = (0..1 + rng.index(2 * n)).map(|_| rng.index(n)).collect();
            let config = CartConfig {
                max_depth: rng.index(11),
                min_samples_split: 2 + rng.index(5),
                min_samples_leaf: 1 + rng.index(3),
                mtry: rng.chance(0.7).then(|| 1 + rng.index(p)),
            };
            let mut fast_rng = rng.fork("fit");
            let mut oracle_rng = rng.fork("fit");
            let fast = RegressionTree::fit(&data, &indices, config, &mut fast_rng);
            let oracle = reference::fit(&data, &indices, config, &mut oracle_rng);
            prop_assert_eq!(&fast, &oracle);
            // `Debug` tells -0.0 from 0.0, which `PartialEq` does not.
            prop_assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
            prop_assert_eq!(fast_rng.next_u64(), oracle_rng.next_u64());
        }

        /// Every tree of a forest, grown from the forest's shared table on
        /// scratch its thread reused for earlier trees (and, for a
        /// one-tree forest, earlier tables), is the reference builder's
        /// tree for that tree's RNG stream and bootstrap draws.
        #[test]
        fn forest_trees_match_reference(seed in 0u64..u64::MAX) {
            let mut rng = SimRng::new(seed);
            let data = tangled_data(&mut rng);
            let n = data.len();
            let p = data.num_features();
            let config = ForestConfig {
                num_trees: 1 + rng.index(8),
                mtry: rng.chance(0.5).then(|| 1 + rng.index(p)),
                min_samples_split: 2 + rng.index(5),
                min_samples_leaf: 1 + rng.index(3),
                max_depth: rng.index(11),
            };
            let forest_seed = rng.next_u64();
            let forest = RandomForest::fit(&data, &config, forest_seed);
            let cart = CartConfig {
                max_depth: config.max_depth,
                min_samples_split: config.min_samples_split,
                min_samples_leaf: config.min_samples_leaf,
                mtry: Some(config.effective_mtry(p)),
            };
            let root = SimRng::new(forest_seed);
            prop_assert_eq!(forest.trees().len(), config.num_trees);
            for (t, (tree, bag)) in forest.trees().iter().zip(forest.in_bag()).enumerate() {
                let mut tree_rng = root.fork_idx("tree", t as u64);
                let indices: Vec<usize> = (0..n).map(|_| tree_rng.index(n)).collect();
                let mut counts = vec![0u16; n];
                for &i in &indices {
                    counts[i] += 1;
                }
                let oracle = reference::fit(&data, &indices, cart, &mut tree_rng);
                prop_assert_eq!(bag, &counts);
                prop_assert_eq!(format!("{tree:?}"), format!("{oracle:?}"));
            }
        }
    }
}
