//! GARLI validation mode.
//!
//! "Before any jobs are scheduled, the system uses a special GARLI validation
//! mode to ensure there are no problems with the data files and parameters
//! specified" (paper §III.A). This module is that dry run: it checks the
//! configuration against the data, estimates the memory footprint, and
//! returns either a report or a first error.

use crate::config::{GarliConfig, RateHetKind, StartingTree};
use crate::work::estimate_memory_bytes;
use phylo::alignment::Alignment;
use phylo::patterns::PatternSet;
use serde::{Deserialize, Serialize};

/// The portal's hard cap on replicates per submission (paper §III.A: "up to
/// 2000 job replicates with a single submission").
pub const MAX_REPLICATES: usize = 2000;

/// Why a submission failed validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValidationError {
    /// Alignment and configuration disagree on the data type.
    DataTypeMismatch {
        /// Type declared in the configuration.
        configured: String,
        /// Type of the uploaded alignment.
        found: String,
    },
    /// Too few taxa for a meaningful tree search.
    TooFewTaxa {
        /// Taxa found.
        found: usize,
    },
    /// `numratecats` out of range for the chosen heterogeneity family.
    InvalidRateCategories {
        /// Configured category count.
        ncat: usize,
        /// The family it conflicts with.
        rate_het: String,
    },
    /// Replicate count is zero or exceeds [`MAX_REPLICATES`].
    InvalidReplicates {
        /// Requested replicates.
        requested: usize,
    },
    /// Γ shape out of the supported range.
    InvalidAlpha {
        /// Configured shape.
        alpha: f64,
    },
    /// Proportion of invariant sites out of `[0, 0.95]`.
    InvalidPinv {
        /// Configured proportion.
        pinv: f64,
    },
    /// Population must hold at least two individuals.
    InvalidPopulationSize {
        /// Configured size.
        size: usize,
    },
    /// Termination threshold must be positive and below the generation cap.
    InvalidTermination {
        /// Configured threshold.
        genthresh: u64,
        /// Configured cap.
        max_generations: u64,
    },
    /// The supplied starting tree failed to parse or match the taxa.
    BadStartingTree {
        /// Parser message.
        message: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DataTypeMismatch { configured, found } => {
                write!(
                    f,
                    "configured data type {configured} but alignment is {found}"
                )
            }
            ValidationError::TooFewTaxa { found } => {
                write!(f, "need at least 4 taxa for a tree search, found {found}")
            }
            ValidationError::InvalidRateCategories { ncat, rate_het } => {
                write!(
                    f,
                    "numratecats = {ncat} invalid for ratehetmodel = {rate_het}"
                )
            }
            ValidationError::InvalidReplicates { requested } => {
                write!(
                    f,
                    "replicates must be in 1..={MAX_REPLICATES}, requested {requested}"
                )
            }
            ValidationError::InvalidAlpha { alpha } => {
                write!(f, "gamma shape alpha = {alpha} out of range (0.02..50)")
            }
            ValidationError::InvalidPinv { pinv } => {
                write!(f, "invariant proportion {pinv} out of range [0, 0.95]")
            }
            ValidationError::InvalidPopulationSize { size } => {
                write!(f, "population size {size} must be >= 2")
            }
            ValidationError::InvalidTermination {
                genthresh,
                max_generations,
            } => {
                write!(
                    f,
                    "genthreshfortopoterm {genthresh} must be positive and <= stopgen {max_generations}"
                )
            }
            ValidationError::BadStartingTree { message } => {
                write!(f, "starting tree rejected: {message}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A successful dry run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Taxa in the data.
    pub num_taxa: usize,
    /// Raw aligned characters.
    pub num_sites: usize,
    /// Distinct site patterns (the quantity that actually drives cost).
    pub num_patterns: usize,
    /// Effective rate categories the likelihood will mix over.
    pub num_rate_categories: usize,
    /// Estimated peak memory in bytes.
    pub memory_bytes: u64,
    /// Total replicate jobs the submission expands to.
    pub total_replicates: usize,
    /// Non-fatal observations (high missing data, saturated divergence…).
    pub warnings: Vec<String>,
}

/// Run validation mode on a configuration + alignment pair.
pub fn validate(
    config: &GarliConfig,
    alignment: &Alignment,
) -> Result<ValidationReport, ValidationError> {
    if alignment.data_type() != config.data_type {
        return Err(ValidationError::DataTypeMismatch {
            configured: config.data_type.name().to_string(),
            found: alignment.data_type().name().to_string(),
        });
    }
    if alignment.num_taxa() < 4 {
        return Err(ValidationError::TooFewTaxa {
            found: alignment.num_taxa(),
        });
    }
    match config.rate_het {
        // As in GARLI, `numratecats` is simply ignored when ratehetmodel is
        // none (the config default of 4 stays in the file) — the paper's
        // Fig. 2 relies on this: the recorded category count is
        // uninformative, so the on/off rate-het switch carries the signal.
        RateHetKind::None => {
            if !(1..=16).contains(&config.num_rate_cats) {
                return Err(ValidationError::InvalidRateCategories {
                    ncat: config.num_rate_cats,
                    rate_het: "none".into(),
                });
            }
        }
        _ => {
            if !(2..=16).contains(&config.num_rate_cats) {
                return Err(ValidationError::InvalidRateCategories {
                    ncat: config.num_rate_cats,
                    rate_het: config.rate_het.name().into(),
                });
            }
        }
    }
    let reps = config.total_replicates();
    if reps == 0 || reps > MAX_REPLICATES {
        return Err(ValidationError::InvalidReplicates { requested: reps });
    }
    if !(0.02..=50.0).contains(&config.alpha) {
        return Err(ValidationError::InvalidAlpha {
            alpha: config.alpha,
        });
    }
    if config.invariant_sites && !(0.0..=0.95).contains(&config.pinv) {
        return Err(ValidationError::InvalidPinv { pinv: config.pinv });
    }
    if config.population_size < 2 {
        return Err(ValidationError::InvalidPopulationSize {
            size: config.population_size,
        });
    }
    if config.genthresh_for_topo_term == 0
        || config.genthresh_for_topo_term > config.max_generations
    {
        return Err(ValidationError::InvalidTermination {
            genthresh: config.genthresh_for_topo_term,
            max_generations: config.max_generations,
        });
    }
    if let StartingTree::Newick(nwk) = &config.starting_tree {
        let names = alignment.taxon_names();
        phylo::newick::parse_newick(nwk, &names).map_err(|e| ValidationError::BadStartingTree {
            message: e.to_string(),
        })?;
    }

    let patterns = PatternSet::compress(alignment);
    let ncat = config.effective_rate_categories();
    let memory = estimate_memory_bytes(
        alignment.num_taxa(),
        patterns.num_patterns(),
        ncat,
        config.data_type.num_states(),
        config.population_size,
    );

    let mut warnings = Vec::new();
    let missing = alignment.missing_fraction();
    if missing > 0.5 {
        warnings.push(format!(
            "alignment is {:.0}% missing data; expect weak signal",
            missing * 100.0
        ));
    }
    if alignment.num_sites() < alignment.num_taxa() {
        warnings.push("fewer sites than taxa; tree is unlikely to be resolved".into());
    }
    if memory > 8 * 1024 * 1024 * 1024 {
        warnings.push(format!(
            "estimated memory {:.1} GiB restricts eligible resources",
            memory as f64 / (1u64 << 30) as f64
        ));
    }

    Ok(ValidationReport {
        num_taxa: alignment.num_taxa(),
        num_sites: alignment.num_sites(),
        num_patterns: patterns.num_patterns(),
        num_rate_categories: ncat,
        memory_bytes: memory,
        total_replicates: reps,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::alphabet::DataType;
    use phylo::sequence::Sequence;

    fn aln(n: usize, len: usize) -> Alignment {
        let mut rng = simkit::SimRng::new(71);
        let tree = phylo::tree::Tree::random_topology(n, &mut rng);
        let model = phylo::models::nucleotide::jc69();
        phylo::simulate::Simulator::new(&model, phylo::models::SiteRates::uniform())
            .simulate(&tree, len, &mut rng)
    }

    #[test]
    fn valid_submission_reports_patterns() {
        let config = GarliConfig::quick_nucleotide();
        let r = validate(&config, &aln(6, 200)).unwrap();
        assert_eq!(r.num_taxa, 6);
        assert_eq!(r.num_sites, 200);
        assert!(r.num_patterns <= 200 && r.num_patterns > 0);
        assert_eq!(r.num_rate_categories, 1);
    }

    #[test]
    fn data_type_mismatch_rejected() {
        let mut config = GarliConfig::quick_nucleotide();
        config.data_type = DataType::AminoAcid;
        let err = validate(&config, &aln(6, 100)).unwrap_err();
        assert!(matches!(err, ValidationError::DataTypeMismatch { .. }));
    }

    #[test]
    fn too_few_taxa_rejected() {
        let config = GarliConfig::quick_nucleotide();
        let small = Alignment::new(vec![
            Sequence::from_text("a", DataType::Nucleotide, "ACGT").unwrap(),
            Sequence::from_text("b", DataType::Nucleotide, "ACGT").unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            validate(&config, &small).unwrap_err(),
            ValidationError::TooFewTaxa { found: 2 }
        ));
    }

    #[test]
    fn rate_categories_consistency() {
        let mut config = GarliConfig::quick_nucleotide();
        config.num_rate_cats = 4; // ignored when rate_het = None, as in GARLI
        assert!(validate(&config, &aln(6, 100)).is_ok());
        config.num_rate_cats = 99; // out of range regardless
        assert!(matches!(
            validate(&config, &aln(6, 100)).unwrap_err(),
            ValidationError::InvalidRateCategories { .. }
        ));
        config.rate_het = RateHetKind::Gamma;
        config.num_rate_cats = 1; // too few for gamma
        assert!(matches!(
            validate(&config, &aln(6, 100)).unwrap_err(),
            ValidationError::InvalidRateCategories { .. }
        ));
    }

    #[test]
    fn replicate_cap_enforced() {
        let mut config = GarliConfig::quick_nucleotide();
        config.bootstrap_replicates = 2001;
        assert!(matches!(
            validate(&config, &aln(6, 100)).unwrap_err(),
            ValidationError::InvalidReplicates { requested: 2001 }
        ));
        config.bootstrap_replicates = 2000;
        assert!(validate(&config, &aln(6, 100)).is_ok());
    }

    #[test]
    fn bad_newick_rejected() {
        let mut config = GarliConfig::quick_nucleotide();
        config.starting_tree = StartingTree::Newick("(t0:1,(t1:1".into());
        assert!(matches!(
            validate(&config, &aln(6, 100)).unwrap_err(),
            ValidationError::BadStartingTree { .. }
        ));
    }

    #[test]
    fn good_newick_accepted() {
        let mut config = GarliConfig::quick_nucleotide();
        config.starting_tree = StartingTree::Newick("(t0:1,(t1:1,t2:1):1,t3:1);".into());
        assert!(validate(&config, &aln(4, 100)).is_ok());
    }

    #[test]
    fn termination_sanity() {
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 1000;
        config.max_generations = 100;
        assert!(matches!(
            validate(&config, &aln(6, 100)).unwrap_err(),
            ValidationError::InvalidTermination { .. }
        ));
    }

    #[test]
    fn sparse_data_warns() {
        let config = GarliConfig::quick_nucleotide();
        let r = validate(&config, &aln(20, 10)).unwrap();
        assert!(r
            .warnings
            .iter()
            .any(|w| w.contains("fewer sites than taxa")));
    }

    #[test]
    fn error_messages_render() {
        let e = ValidationError::InvalidReplicates { requested: 0 };
        assert!(e.to_string().contains("2000"));
    }
}
