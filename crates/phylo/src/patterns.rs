//! Site-pattern compression.
//!
//! Likelihood cost is linear in the number of *distinct* alignment columns,
//! not raw columns — GARLI exploits this heavily, and it is one of the things
//! that makes runtime hard to eyeball from raw data size (motivating the
//! paper's learned runtime model). [`PatternSet::compress`] collapses equal
//! columns into weighted patterns.

use crate::alignment::Alignment;
use crate::alphabet::{DataType, State};
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
    /// Alphabet of the states (the kernel refuses a model of another).
    data_type: DataType,
    /// Multiplicity of each pattern (sums to the alignment length).
    weights: Vec<f64>,
}

impl PatternSet {
    /// Compress the columns of `alignment`.
    pub fn compress(alignment: &Alignment) -> PatternSet {
        let mut index: HashMap<Vec<State>, usize> = HashMap::new();
        let mut patterns = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for site in 0..alignment.num_sites() {
            let col = alignment.column(site);
            match index.get(&col) {
                Some(&p) => weights[p] += 1.0,
                None => {
                    index.insert(col.clone(), patterns.len());
                    patterns.push(col);
                    weights.push(1.0);
                }
            }
        }
        drop(index); // its copy of every column goes before the table is built
        PatternSet::from_parts(alignment.data_type(), patterns, weights)
    }

    /// Build directly from explicit patterns (`patterns[p][taxon]`) over
    /// `data_type` and their weights (used by tests).
    pub fn from_parts(
        data_type: DataType,
        patterns: Vec<Vec<State>>,
        weights: Vec<f64>,
    ) -> PatternSet {
        assert_eq!(patterns.len(), weights.len());
        let num_taxa = patterns.first().map_or(0, Vec::len);
        let mut states = Vec::with_capacity(num_taxa * patterns.len());
        for taxon in 0..num_taxa {
            states.extend(patterns.iter().map(|col| col[taxon]));
        }
        PatternSet {
            states,
            num_taxa,
            data_type,
            weights,
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

    /// Alphabet of the states.
    pub(crate) fn data_type(&self) -> DataType {
        self.data_type
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

    /// Sum of weights (the alignment length, for a compressed alignment).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
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
        let parts = PatternSet::from_parts(
            DataType::Nucleotide,
            vec![a.column(0), a.column(2)],
            vec![3.0, 1.0],
        );
        assert_eq!(parts.taxon_states(1), p.taxon_states(1));
        assert_eq!(p.data_type(), DataType::Nucleotide);
    }

    #[test]
    fn num_taxa_matches() {
        let a = aln(&[("a", "AC"), ("b", "AC"), ("c", "AC"), ("d", "AC")]);
        let p = PatternSet::compress(&a);
        assert_eq!(p.num_taxa(), 4);
    }
}
