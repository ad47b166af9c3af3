//! Nonparametric bootstrap support (Felsenstein 1985, the paper's third
//! reference).
//!
//! Bootstrap searches dominate the job mix on The Lattice Project: each
//! submission typically carries hundreds to thousands of pseudo-replicate
//! searches, each on a column-resampled alignment from
//! [`bootstrap_alignment`]. The replicate trees then give each split its
//! support ([`split_support`], [`support_on_tree`]).

use crate::alignment::Alignment;
use crate::tree::{Split, Tree};
use simkit::SimRng;
use std::collections::HashMap;

/// Resample alignment columns with replacement (same length).
pub fn bootstrap_alignment(alignment: &Alignment, rng: &mut SimRng) -> Alignment {
    let n = alignment.num_sites();
    let sites: Vec<usize> = (0..n).map(|_| rng.index(n)).collect();
    alignment.select_sites(&sites)
}

/// Fraction of `trees` containing each non-trivial split — bootstrap support
/// values for the clades of interest.
pub fn split_support(trees: &[Tree]) -> HashMap<Split, f64> {
    let mut counts: HashMap<Split, usize> = HashMap::new();
    for t in trees {
        for s in t.splits() {
            *counts.entry(s).or_default() += 1;
        }
    }
    let n = trees.len().max(1) as f64;
    counts.into_iter().map(|(s, c)| (s, c as f64 / n)).collect()
}

/// Support of the splits of `reference` among `replicates` (the numbers a
/// user reads off a published tree figure).
pub fn support_on_tree(reference: &Tree, replicates: &[Tree]) -> Vec<(Split, f64)> {
    let support = split_support(replicates);
    reference
        .splits()
        .into_iter()
        .map(|s| {
            let v = support.get(&s).copied().unwrap_or(0.0);
            (s, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::nucleotide;
    use crate::models::SiteRates;
    use crate::simulate::Simulator;

    #[test]
    fn bootstrap_alignment_preserves_shape() {
        let mut rng = SimRng::new(51);
        let model = nucleotide::jc69();
        let tree = Tree::random_topology(6, &mut rng);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 80, &mut rng);
        let b = bootstrap_alignment(&aln, &mut rng);
        assert_eq!(b.num_taxa(), aln.num_taxa());
        assert_eq!(b.num_sites(), aln.num_sites());
        assert_eq!(b.taxon_names(), aln.taxon_names());
    }

    #[test]
    fn split_support_counts_correctly() {
        let mut rng = SimRng::new(53);
        let t = Tree::random_topology(8, &mut rng);
        // All replicates identical: every split supported at 1.0.
        let reps = vec![t.clone(), t.clone(), t.clone()];
        let sup = split_support(&reps);
        assert_eq!(sup.len(), t.splits().len());
        assert!(sup.values().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn support_on_tree_handles_unsupported_splits() {
        let mut rng = SimRng::new(54);
        let a = Tree::random_topology(10, &mut rng);
        let b = Tree::random_topology(10, &mut rng);
        let rows = support_on_tree(&a, &[b]);
        assert_eq!(rows.len(), a.splits().len());
        for (_, v) in rows {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn bootstrap_support_high_for_strong_signal() {
        // Simulate lots of data on a tree: its splits should get near-full
        // support from NJ trees on bootstrap replicates.
        let mut rng = SimRng::new(55);
        let model = nucleotide::jc69();
        let truth = Tree::random_topology(6, &mut rng);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 2000, &mut rng);
        let reps: Vec<Tree> = (0..20)
            .map(|_| {
                let b = bootstrap_alignment(&aln, &mut rng);
                crate::distance::nj_tree(&b)
            })
            .collect();
        let rows = support_on_tree(&truth, &reps);
        let mean: f64 = rows.iter().map(|(_, v)| v).sum::<f64>() / rows.len() as f64;
        assert!(
            mean > 0.8,
            "mean support {mean} too low for 2000-site signal"
        );
    }
}
