//! The nine runtime predictors of Fig. 2.
//!
//! "We isolated all of the parameters that could possibly affect runtime,
//! and excluded those that we do not allow users to modify via the GARLI
//! web interface" (paper §VI.D). Two predictors are data-derived (taxon
//! count and unique site patterns — the quantities the likelihood kernel
//! actually scales with); the other seven come from the job configuration.

use forest::dataset::{Dataset, FeatureKind};
use garli::config::{GarliConfig, RateHetKind, StateFrequencies};
use garli::validate::ValidationReport;
use phylo::alphabet::DataType;
use phylo::models::nucleotide::RateMatrix;
use serde::{Deserialize, Serialize};

/// One job's predictor values, in schema order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobFeatures {
    /// Number of taxa.
    pub num_taxa: usize,
    /// Unique site patterns after compression.
    pub num_patterns: usize,
    /// Data type (nucleotide / amino acid / codon).
    pub data_type: DataType,
    /// Rate heterogeneity family.
    pub rate_het: RateHetKind,
    /// Number of discrete rate categories.
    pub num_rate_cats: usize,
    /// Nucleotide exchangeability structure.
    pub rate_matrix: RateMatrix,
    /// State-frequency treatment.
    pub state_frequencies: StateFrequencies,
    /// Whether invariant sites are modeled.
    pub invariant_sites: bool,
    /// Topology-termination threshold.
    pub genthresh: u64,
}

impl JobFeatures {
    /// Extract the predictors from a configuration and its validation
    /// report (which carries the data-derived quantities).
    pub fn extract(config: &GarliConfig, report: &ValidationReport) -> JobFeatures {
        JobFeatures {
            num_taxa: report.num_taxa,
            num_patterns: report.num_patterns,
            data_type: config.data_type,
            rate_het: config.rate_het,
            num_rate_cats: config.num_rate_cats,
            rate_matrix: config.rate_matrix,
            state_frequencies: config.state_frequencies,
            invariant_sites: config.invariant_sites,
            genthresh: config.genthresh_for_topo_term,
        }
    }

    /// Encode as a feature row matching [`predictor_schema`].
    pub fn to_row(&self) -> Vec<f64> {
        vec![
            self.num_taxa as f64,
            self.num_patterns as f64,
            data_type_code(self.data_type) as f64,
            rate_het_code(self.rate_het) as f64,
            self.num_rate_cats as f64,
            rate_matrix_code(self.rate_matrix) as f64,
            state_freq_code(self.state_frequencies) as f64,
            self.invariant_sites as u8 as f64,
            self.genthresh as f64,
        ]
    }
}

/// Categorical code of a data type.
pub fn data_type_code(dt: DataType) -> usize {
    match dt {
        DataType::Nucleotide => 0,
        DataType::AminoAcid => 1,
        DataType::Codon => 2,
    }
}

/// Categorical code of a rate-heterogeneity family.
pub fn rate_het_code(rh: RateHetKind) -> usize {
    match rh {
        RateHetKind::None => 0,
        RateHetKind::Gamma => 1,
        RateHetKind::GammaInv => 2,
    }
}

/// Categorical code of a nucleotide rate matrix.
pub fn rate_matrix_code(rm: RateMatrix) -> usize {
    match rm {
        RateMatrix::Jc => 0,
        RateMatrix::K80 => 1,
        RateMatrix::Hky85 => 2,
        RateMatrix::Gtr => 3,
    }
}

/// Categorical code of a state-frequency treatment.
pub fn state_freq_code(sf: StateFrequencies) -> usize {
    match sf {
        StateFrequencies::Equal => 0,
        StateFrequencies::Empirical => 1,
        StateFrequencies::Estimate => 2,
    }
}

/// Human-readable names of the nine predictors, in schema order (the
/// labels of Fig. 2).
pub const PREDICTOR_NAMES: [&str; 9] = [
    "number of taxa",
    "unique site patterns",
    "data type",
    "rate heterogeneity model",
    "number of rate categories",
    "rate matrix",
    "state frequencies",
    "invariant sites",
    "genthreshfortopoterm",
];

/// The forest schema for the nine predictors.
pub fn predictor_schema() -> Vec<(String, FeatureKind)> {
    vec![
        (PREDICTOR_NAMES[0].into(), FeatureKind::Continuous),
        (PREDICTOR_NAMES[1].into(), FeatureKind::Continuous),
        (
            PREDICTOR_NAMES[2].into(),
            FeatureKind::Categorical { levels: 3 },
        ),
        (
            PREDICTOR_NAMES[3].into(),
            FeatureKind::Categorical { levels: 3 },
        ),
        (PREDICTOR_NAMES[4].into(), FeatureKind::Continuous),
        (
            PREDICTOR_NAMES[5].into(),
            FeatureKind::Categorical { levels: 4 },
        ),
        (
            PREDICTOR_NAMES[6].into(),
            FeatureKind::Categorical { levels: 3 },
        ),
        (
            PREDICTOR_NAMES[7].into(),
            FeatureKind::Categorical { levels: 2 },
        ),
        (PREDICTOR_NAMES[8].into(), FeatureKind::Continuous),
    ]
}

/// An empty dataset with the nine-predictor schema.
pub fn empty_dataset() -> Dataset {
    Dataset::new(predictor_schema())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_nine_predictors() {
        let s = predictor_schema();
        assert_eq!(
            s.len(),
            9,
            "the paper's model uses nine predictor variables"
        );
    }

    #[test]
    fn row_matches_schema() {
        let f = JobFeatures {
            num_taxa: 20,
            num_patterns: 310,
            data_type: DataType::Codon,
            rate_het: RateHetKind::GammaInv,
            num_rate_cats: 4,
            rate_matrix: RateMatrix::Gtr,
            state_frequencies: StateFrequencies::Empirical,
            invariant_sites: true,
            genthresh: 100,
        };
        let row = f.to_row();
        assert_eq!(row.len(), 9);
        let mut ds = empty_dataset();
        ds.push(row, 123.0); // panics if any categorical code out of range
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn extraction_from_config_and_report() {
        let mut rng = simkit::SimRng::new(171);
        let tree = phylo::tree::Tree::random_topology(7, &mut rng);
        let model = phylo::models::nucleotide::jc69();
        let aln = phylo::simulate::Simulator::new(&model, phylo::models::SiteRates::uniform())
            .simulate(&tree, 250, &mut rng);
        let config = GarliConfig::quick_nucleotide();
        let report = garli::validate::validate(&config, &aln).unwrap();
        let f = JobFeatures::extract(&config, &report);
        assert_eq!(f.num_taxa, 7);
        assert_eq!(f.num_patterns, report.num_patterns);
        assert_eq!(f.data_type, DataType::Nucleotide);
    }

    #[test]
    fn codes_are_dense_and_distinct() {
        assert_eq!(
            (0..3).collect::<Vec<_>>(),
            DataType::ALL
                .iter()
                .map(|&d| data_type_code(d))
                .collect::<Vec<_>>()
        );
        let rm: Vec<usize> = RateMatrix::ALL
            .iter()
            .map(|&m| rate_matrix_code(m))
            .collect();
        assert_eq!(rm, vec![0, 1, 2, 3]);
        let sf: Vec<usize> = StateFrequencies::ALL
            .iter()
            .map(|&s| state_freq_code(s))
            .collect();
        assert_eq!(sf, vec![0, 1, 2]);
        let rh: Vec<usize> = RateHetKind::ALL.iter().map(|&r| rate_het_code(r)).collect();
        assert_eq!(rh, vec![0, 1, 2]);
    }
}
