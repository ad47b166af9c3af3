//! GARLI job configuration — the parameters exposed by the Lattice web form.
//!
//! The paper's runtime model (§VI.D) isolates "all of the parameters that
//! could possibly affect runtime" that users can set through the web
//! interface; together with the two data-derived quantities (taxon count and
//! unique site patterns) they form the nine predictors of Fig. 2. The
//! [`GarliConfig`] type is the superset: the nine predictors plus the search
//! bookkeeping (replicates, population size, caps) the grid needs.

use phylo::alphabet::DataType;
use phylo::models::nucleotide::RateMatrix;
use serde::{Deserialize, Serialize};

/// How equilibrium state frequencies are obtained (GARLI
/// `statefrequencies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StateFrequencies {
    /// All states equally frequent.
    Equal,
    /// Observed frequencies counted from the data.
    Empirical,
    /// Free parameters of the search (costs extra optimization work).
    Estimate,
}

impl StateFrequencies {
    /// Configuration-file style name.
    pub fn name(self) -> &'static str {
        match self {
            StateFrequencies::Equal => "equal",
            StateFrequencies::Empirical => "empirical",
            StateFrequencies::Estimate => "estimate",
        }
    }

    /// All values.
    pub const ALL: [StateFrequencies; 3] = [
        StateFrequencies::Equal,
        StateFrequencies::Empirical,
        StateFrequencies::Estimate,
    ];
}

/// Rate-heterogeneity family (GARLI `ratehetmodel`), with the category count
/// kept separate as in the GARLI configuration file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RateHetKind {
    /// One rate for all sites.
    None,
    /// Discrete Γ.
    Gamma,
    /// Discrete Γ plus invariant sites.
    GammaInv,
}

impl RateHetKind {
    /// Configuration-file style name.
    pub fn name(self) -> &'static str {
        match self {
            RateHetKind::None => "none",
            RateHetKind::Gamma => "gamma",
            RateHetKind::GammaInv => "invgamma",
        }
    }

    /// All values.
    pub const ALL: [RateHetKind; 3] =
        [RateHetKind::None, RateHetKind::Gamma, RateHetKind::GammaInv];
}

/// Where the starting topology comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StartingTree {
    /// Random addition-sequence topology.
    Random,
    /// Neighbor-joining on JC distances (fast, good).
    NeighborJoining,
    /// A user-supplied Newick string (the web form's optional upload).
    Newick(String),
}

/// One GARLI job description, as assembled by the web portal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GarliConfig {
    /// Character type of the uploaded data.
    pub data_type: DataType,
    /// Nucleotide exchangeability structure (ignored for amino-acid/codon
    /// data, which use their family's fixed structure).
    pub rate_matrix: RateMatrix,
    /// How state frequencies are obtained.
    pub state_frequencies: StateFrequencies,
    /// Rate-heterogeneity family.
    pub rate_het: RateHetKind,
    /// Number of discrete Γ categories (GARLI `numratecats`; meaningful only
    /// when `rate_het != None`).
    pub num_rate_cats: usize,
    /// Whether a proportion of invariant sites is modeled (folded into
    /// `rate_het = GammaInv` in the likelihood; kept as its own flag because
    /// the web form and Fig. 2 treat it as its own predictor).
    pub invariant_sites: bool,
    /// Initial Γ shape parameter.
    pub alpha: f64,
    /// Initial proportion of invariant sites (when modeled).
    pub pinv: f64,
    /// Initial transition/transversion ratio (nucleotide & codon models).
    pub kappa: f64,
    /// Initial dN/dS (codon models).
    pub omega: f64,
    /// Generations without topological improvement before terminating
    /// (GARLI `genthreshfortopoterm`).
    pub genthresh_for_topo_term: u64,
    /// Hard cap on generations (safety net; GARLI `stopgen`).
    pub max_generations: u64,
    /// Number of independent search replicates requested.
    pub search_replicates: usize,
    /// Number of bootstrap pseudo-replicates requested (0 = plain search).
    pub bootstrap_replicates: usize,
    /// Attachment points evaluated per taxon during stepwise addition
    /// (GARLI `attachmentspertaxon`; start-up cost knob).
    pub attachments_per_taxon: usize,
    /// GA population size (GARLI default 4).
    pub population_size: usize,
    /// Checkpoint every this many generations (BOINC build).
    pub checkpoint_interval: u64,
    /// Starting tree source.
    pub starting_tree: StartingTree,
}

impl Default for GarliConfig {
    /// GARLI-like defaults for a nucleotide analysis.
    fn default() -> Self {
        GarliConfig {
            data_type: DataType::Nucleotide,
            rate_matrix: RateMatrix::Gtr,
            state_frequencies: StateFrequencies::Empirical,
            rate_het: RateHetKind::Gamma,
            num_rate_cats: 4,
            invariant_sites: false,
            alpha: 0.5,
            pinv: 0.1,
            kappa: 2.0,
            omega: 0.5,
            genthresh_for_topo_term: 100,
            max_generations: 5_000,
            search_replicates: 1,
            bootstrap_replicates: 0,
            attachments_per_taxon: 50,
            population_size: 4,
            checkpoint_interval: 50,
            starting_tree: StartingTree::NeighborJoining,
        }
    }
}

impl GarliConfig {
    /// A small, fast configuration for tests and doc examples.
    pub fn quick_nucleotide() -> Self {
        GarliConfig {
            rate_matrix: RateMatrix::Jc,
            state_frequencies: StateFrequencies::Equal,
            rate_het: RateHetKind::None,
            num_rate_cats: 1,
            genthresh_for_topo_term: 20,
            max_generations: 200,
            ..Default::default()
        }
    }

    /// Effective number of rate categories the likelihood mixes over: the
    /// size of the mixture [`build_rates`](crate::model::build_rates) builds.
    pub fn effective_rate_categories(&self) -> usize {
        match self.rate_het {
            RateHetKind::None => 1,
            RateHetKind::Gamma => self.num_rate_cats,
            RateHetKind::GammaInv => self.num_rate_cats + 1,
        }
    }

    /// Total replicate jobs this submission expands to (bootstrap
    /// replicates each run `search_replicates` implicitly in GARLI; here the
    /// two are alternatives, matching the web form).
    pub fn total_replicates(&self) -> usize {
        if self.bootstrap_replicates > 0 {
            self.bootstrap_replicates
        } else {
            self.search_replicates
        }
    }

    /// True iff this is a bootstrap submission.
    pub fn is_bootstrap(&self) -> bool {
        self.bootstrap_replicates > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = GarliConfig::default();
        assert_eq!(c.effective_rate_categories(), 4);
        assert_eq!(c.total_replicates(), 1);
        assert!(!c.is_bootstrap());
    }

    #[test]
    fn effective_categories_by_family() {
        let mut c = GarliConfig {
            rate_het: RateHetKind::None,
            ..GarliConfig::default()
        };
        assert_eq!(c.effective_rate_categories(), 1);
        c.rate_het = RateHetKind::GammaInv;
        c.num_rate_cats = 6;
        assert_eq!(c.effective_rate_categories(), 7);
    }

    #[test]
    fn bootstrap_replicates_dominate() {
        let c = GarliConfig {
            search_replicates: 5,
            bootstrap_replicates: 100,
            ..GarliConfig::default()
        };
        assert!(c.is_bootstrap());
        assert_eq!(c.total_replicates(), 100);
    }

    #[test]
    fn serde_roundtrip() {
        let c = GarliConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: GarliConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StateFrequencies::Estimate.name(), "estimate");
        assert_eq!(RateHetKind::GammaInv.name(), "invgamma");
    }
}
