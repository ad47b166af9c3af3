//! Site-pattern compression.
//!
//! Likelihood cost is linear in the number of *distinct* alignment columns,
//! not raw columns — GARLI exploits this heavily, and it is one of the things
//! that makes runtime hard to eyeball from raw data size (motivating the
//! paper's learned runtime model). [`PatternSet::compress`] collapses equal
//! columns into weighted patterns.

use crate::alignment::Alignment;
use crate::alphabet::State;
use std::collections::HashMap;

/// Compressed alignment columns: unique patterns plus multiplicities.
///
/// States are stored taxon-major — the states of one taxon across all
/// patterns are contiguous — because that is the order the likelihood
/// kernel reads a tip in.
#[derive(Debug, Clone)]
pub struct PatternSet {
    /// `states[taxon * num_patterns + p]` — the state of `taxon` in
    /// pattern `p`.
    states: Vec<State>,
    num_taxa: usize,
    /// Multiplicity of each pattern (sums to the alignment length).
    weights: Vec<f64>,
    /// For each original site, its pattern index.
    site_to_pattern: Vec<usize>,
}

impl PatternSet {
    /// Compress the columns of `alignment`.
    pub fn compress(alignment: &Alignment) -> PatternSet {
        let mut index: HashMap<Vec<State>, usize> = HashMap::new();
        let mut patterns = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut site_to_pattern = Vec::with_capacity(alignment.num_sites());
        for site in 0..alignment.num_sites() {
            let col = alignment.column(site);
            match index.get(&col) {
                Some(&p) => {
                    weights[p] += 1.0;
                    site_to_pattern.push(p);
                }
                None => {
                    let p = patterns.len();
                    index.insert(col.clone(), p);
                    patterns.push(col);
                    weights.push(1.0);
                    site_to_pattern.push(p);
                }
            }
        }
        drop(index); // its copy of every column goes before the table is built
        PatternSet {
            site_to_pattern,
            ..PatternSet::from_parts(patterns, weights)
        }
    }

    /// Build directly from explicit patterns (`patterns[p][taxon]`) and
    /// weights (used by tests and by bootstrap reweighting).
    pub fn from_parts(patterns: Vec<Vec<State>>, weights: Vec<f64>) -> PatternSet {
        assert_eq!(patterns.len(), weights.len());
        let num_taxa = patterns.first().map_or(0, Vec::len);
        let mut states = Vec::with_capacity(num_taxa * patterns.len());
        for taxon in 0..num_taxa {
            states.extend(patterns.iter().map(|col| col[taxon]));
        }
        PatternSet {
            states,
            num_taxa,
            weights,
            site_to_pattern: Vec::new(),
        }
    }

    /// Number of distinct patterns.
    pub fn num_patterns(&self) -> usize {
        self.weights.len()
    }

    /// Number of taxa per pattern.
    pub fn num_taxa(&self) -> usize {
        self.num_taxa
    }

    /// The state of `taxon` in pattern `p`.
    pub fn state(&self, p: usize, taxon: usize) -> State {
        self.taxon_states(taxon)[p]
    }

    /// The states of `taxon` in every pattern, in pattern order.
    pub(crate) fn taxon_states(&self, taxon: usize) -> &[State] {
        let npat = self.num_patterns();
        &self.states[taxon * npat..(taxon + 1) * npat]
    }

    /// Pattern multiplicities.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sum of weights (= original alignment length, unless reweighted).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Pattern index of each original site (empty if built from parts).
    pub fn site_to_pattern(&self) -> &[usize] {
        &self.site_to_pattern
    }

    /// A copy with new weights — the bootstrap trick: resampling columns
    /// only changes pattern multiplicities, never the pattern set.
    pub fn reweighted(&self, weights: Vec<f64>) -> PatternSet {
        assert_eq!(weights.len(), self.num_patterns());
        PatternSet {
            states: self.states.clone(),
            num_taxa: self.num_taxa,
            weights,
            site_to_pattern: self.site_to_pattern.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::DataType;
    use crate::sequence::Sequence;

    fn aln(rows: &[(&str, &str)]) -> Alignment {
        Alignment::new(
            rows.iter()
                .map(|(n, t)| Sequence::from_text(*n, DataType::Nucleotide, t).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn identical_columns_collapse() {
        let a = aln(&[("a", "AAGA"), ("b", "CCTC"), ("c", "GGAG")]);
        let p = PatternSet::compress(&a);
        // columns: (A,C,G) x2 at sites 0,1,3? site0=(A,C,G) site1=(A,C,G) site2=(G,T,A) site3=(A,C,G)
        assert_eq!(p.num_patterns(), 2);
        assert_eq!(p.total_weight(), 4.0);
        assert_eq!(p.weights(), &[3.0, 1.0]);
        assert_eq!(p.site_to_pattern(), &[0, 0, 1, 0]);
    }

    #[test]
    fn all_unique_columns() {
        let a = aln(&[("a", "ACGT"), ("b", "ACGT")]);
        let p = PatternSet::compress(&a);
        assert_eq!(p.num_patterns(), 4);
        assert!(p.weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn gap_columns_distinct_from_resolved() {
        let a = aln(&[("a", "A-"), ("b", "AA")]);
        let p = PatternSet::compress(&a);
        assert_eq!(p.num_patterns(), 2);
    }

    #[test]
    fn reweighting_preserves_patterns() {
        let a = aln(&[("a", "AAGA"), ("b", "CCTC"), ("c", "GGAG")]);
        let p = PatternSet::compress(&a);
        let q = p.reweighted(vec![1.0, 3.0]);
        assert_eq!(q.num_patterns(), p.num_patterns());
        assert_eq!(q.total_weight(), 4.0);
        assert_eq!(q.weights(), &[1.0, 3.0]);
    }

    #[test]
    fn taxon_states_follow_pattern_order() {
        let a = aln(&[("a", "AAGA"), ("b", "CCTC"), ("c", "GG-G")]);
        let p = PatternSet::compress(&a);
        assert_eq!(p.num_patterns(), 2);
        for taxon in 0..3 {
            let row = p.taxon_states(taxon);
            assert_eq!(row.len(), 2);
            for (pat, &st) in row.iter().enumerate() {
                assert_eq!(st, p.state(pat, taxon));
            }
        }
        assert_eq!(p.state(1, 2), a.state(2, 2));
        let parts = PatternSet::from_parts(vec![a.column(0), a.column(2)], vec![3.0, 1.0]);
        assert_eq!(parts.taxon_states(1), p.taxon_states(1));
    }

    #[test]
    fn num_taxa_matches() {
        let a = aln(&[("a", "AC"), ("b", "AC"), ("c", "AC"), ("d", "AC")]);
        let p = PatternSet::compress(&a);
        assert_eq!(p.num_taxa(), 4);
    }
}
