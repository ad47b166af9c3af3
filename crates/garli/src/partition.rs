//! Partitioned models — one of the AToL-driven GARLI extensions the paper
//! names (§II.C: "The program is being adapted to accommodate novel
//! analysis features of AToL projects by allowing more data types,
//! partitioned models, efficient analysis of incomplete data sets…").
//!
//! A partitioned analysis scores one shared topology (with shared branch
//! lengths) under *different* substitution models per data block — e.g. a
//! mitochondrial nucleotide block under GTR+Γ alongside a nuclear
//! amino-acid block. The joint log-likelihood is the sum over blocks, and
//! the search moves the shared topology while each block keeps its own
//! model.

use crate::config::GarliConfig;
use crate::model::{build_model, build_rates, ModelParams};
use crate::mutation::MutationWeights;
use crate::search::{run_from, seed, Scorer, SearchResult};
use crate::validate::{validate, ValidationError};
use crate::work::WorkAccount;
use phylo::alignment::Alignment;
use phylo::likelihood::{Evaluation, Workspace};
use phylo::models::{ReversibleModel, SiteRates};
use phylo::patterns::PatternSet;
use phylo::tree::Tree;
use simkit::SimRng;

/// One data block with its own model settings.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The block's aligned characters.
    pub alignment: Alignment,
    /// Its model configuration (search bookkeeping fields are ignored; the
    /// driving configuration comes from the partitioned search itself).
    pub config: GarliConfig,
}

/// Errors specific to assembling a partitioned analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Need at least one block.
    Empty,
    /// A block failed GARLI validation.
    InvalidBlock {
        /// Block index.
        index: usize,
        /// The underlying error.
        error: ValidationError,
    },
    /// Blocks disagree on the taxon set (names must match in order).
    TaxonMismatch {
        /// First offending block.
        index: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Empty => write!(f, "no partitions"),
            PartitionError::InvalidBlock { index, error } => {
                write!(f, "partition {index}: {error}")
            }
            PartitionError::TaxonMismatch { index } => {
                write!(f, "partition {index} has a different taxon set")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

#[derive(Debug)]
struct Block {
    patterns: PatternSet,
    model: ReversibleModel,
    rates: SiteRates,
}

/// A ready-to-evaluate partitioned analysis over a shared topology.
#[derive(Debug)]
pub struct PartitionedEngine {
    blocks: Vec<Block>,
    num_taxa: usize,
}

impl PartitionedEngine {
    /// Validate every block and bind the models.
    pub fn new(partitions: &[Partition]) -> Result<PartitionedEngine, PartitionError> {
        if partitions.is_empty() {
            return Err(PartitionError::Empty);
        }
        let reference_taxa: Vec<String> = partitions[0]
            .alignment
            .taxon_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut blocks = Vec::with_capacity(partitions.len());
        for (index, p) in partitions.iter().enumerate() {
            validate(&p.config, &p.alignment)
                .map_err(|error| PartitionError::InvalidBlock { index, error })?;
            if p.alignment.taxon_names() != reference_taxa {
                return Err(PartitionError::TaxonMismatch { index });
            }
            let params = ModelParams::from_config(&p.config);
            blocks.push(Block {
                patterns: PatternSet::compress(&p.alignment),
                model: build_model(&p.config, &params, &p.alignment),
                rates: build_rates(&p.config, &params),
            });
        }
        Ok(PartitionedEngine {
            blocks,
            num_taxa: reference_taxa.len(),
        })
    }

    /// Number of data blocks.
    pub fn num_partitions(&self) -> usize {
        self.blocks.len()
    }

    /// Number of shared taxa.
    pub fn num_taxa(&self) -> usize {
        self.num_taxa
    }

    /// Joint log-likelihood of `tree` (sum over blocks) plus total work, in
    /// fresh workspaces.
    pub fn evaluate(&self, tree: &Tree) -> (f64, u64) {
        let ev = self.scorer().joint(tree);
        (ev.log_likelihood, ev.work)
    }

    /// A GA search over the shared topology by [`Search`]'s generation loop
    /// (branch lengths shared across blocks; per-block models fixed at their
    /// configured values, as in a GARLI partitioned run with linked branch
    /// lengths, so model moves are off). `driver` sets the population size
    /// and the termination rule; the result's `final_params` are its
    /// starting values, which no block reads.
    ///
    /// [`Search`]: crate::search::Search
    pub fn search(
        &self,
        driver: &GarliConfig,
        starting_tree: Tree,
        rng: &mut SimRng,
    ) -> SearchResult {
        assert_eq!(starting_tree.num_taxa(), self.num_taxa, "taxon mismatch");
        let weights = MutationWeights {
            model: 0.0,
            ..MutationWeights::default()
        };
        let mut scorer = self.scorer();
        let mut work = WorkAccount::new();
        let state = seed(driver, &weights, starting_tree, rng, &mut scorer, &mut work);
        run_from(driver, &weights, state, rng, &mut scorer, |_| {}, |_| {})
    }

    /// A scorer with one fresh workspace per block.
    fn scorer(&self) -> BlockScorer<'_> {
        BlockScorer {
            blocks: &self.blocks,
            workspaces: self.blocks.iter().map(|_| Workspace::new()).collect(),
        }
    }
}

/// Scores the shared tree on every block, each in a workspace of its own
/// that a search keeps for its whole run.
struct BlockScorer<'a> {
    blocks: &'a [Block],
    workspaces: Vec<Workspace>,
}

impl BlockScorer<'_> {
    /// The sum of the blocks' evaluations of `tree`.
    fn joint(&mut self, tree: &Tree) -> Evaluation {
        let mut joint = Evaluation {
            log_likelihood: 0.0,
            work: 0,
        };
        for (b, ws) in self.blocks.iter().zip(&mut self.workspaces) {
            let ev = ws.evaluate(&b.patterns, &b.model, &b.rates, tree);
            joint.log_likelihood += ev.log_likelihood;
            joint.work += ev.work;
        }
        joint
    }
}

impl Scorer for BlockScorer<'_> {
    /// Every individual carries the driver's parameters; no block reads them.
    fn evaluate(&mut self, _params: &ModelParams, tree: &Tree) -> Evaluation {
        self.joint(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Termination;
    use phylo::alphabet::DataType;
    use phylo::likelihood::evaluate_patterns;
    use phylo::models::{aminoacid, nucleotide};
    use phylo::simulate::Simulator;

    /// Two blocks simulated on the SAME tree: a nucleotide block and an
    /// amino-acid block.
    fn two_block_data(seed: u64) -> (Vec<Partition>, Tree) {
        let mut rng = SimRng::new(seed);
        let truth = Tree::random_topology(6, &mut rng);
        let nuc = nucleotide::jc69();
        let aa = aminoacid::poisson();
        let aln_nuc = Simulator::new(&nuc, SiteRates::uniform()).simulate(&truth, 400, &mut rng);
        let aln_aa = Simulator::new(&aa, SiteRates::uniform()).simulate(&truth, 150, &mut rng);
        let mut c_nuc = GarliConfig::quick_nucleotide();
        c_nuc.genthresh_for_topo_term = 6;
        c_nuc.max_generations = 40;
        let mut c_aa = c_nuc.clone();
        c_aa.data_type = DataType::AminoAcid;
        let partitions = vec![
            Partition {
                alignment: aln_nuc,
                config: c_nuc,
            },
            Partition {
                alignment: aln_aa,
                config: c_aa,
            },
        ];
        (partitions, truth)
    }

    #[test]
    fn joint_likelihood_is_sum_of_blocks() {
        let (parts, truth) = two_block_data(501);
        let engine = PartitionedEngine::new(&parts).unwrap();
        assert_eq!(engine.num_partitions(), 2);
        let (joint, work) = engine.evaluate(&truth);
        // Compare against per-block engines.
        let single: f64 = parts
            .iter()
            .map(|p| {
                let params = ModelParams::from_config(&p.config);
                let model = build_model(&p.config, &params, &p.alignment);
                let rates = build_rates(&p.config, &params);
                let patterns = PatternSet::compress(&p.alignment);
                evaluate_patterns(&patterns, &model, &rates, &truth).log_likelihood
            })
            .sum();
        assert!((joint - single).abs() < 1e-9);
        assert!(work > 0);
    }

    #[test]
    fn partitioned_search_recovers_shared_topology() {
        let (parts, truth) = two_block_data(502);
        let engine = PartitionedEngine::new(&parts).unwrap();
        let mut rng = SimRng::new(503);
        let start = phylo::distance::nj_tree(&parts[0].alignment);
        let driver = parts[0].config.clone();
        let result = engine.search(&driver, start, &mut rng);
        assert_eq!(
            result.best_tree.robinson_foulds(&truth),
            0,
            "550 combined characters on 6 taxa is decisive"
        );
        assert!(result.work.cells() > 0);
    }

    /// Best log-likelihood bits, generations and work cells of the
    /// `two_block_data(502)` search, captured while the search still scored
    /// every block in a fresh workspace.
    #[test]
    fn partitioned_search_matches_its_pin() {
        let (parts, _) = two_block_data(502);
        let engine = PartitionedEngine::new(&parts).unwrap();
        let mut rng = SimRng::new(503);
        let start = phylo::distance::nj_tree(&parts[0].alignment);
        let result = engine.search(&parts[0].config, start, &mut rng);
        let got = (
            result.best_log_likelihood.to_bits(),
            result.generations,
            result.work.cells(),
        );
        assert_eq!(got, (13881712772472798632, 6, 3084576));
    }

    /// The shared loop's bookkeeping on a partitioned run: no model moves
    /// (block models are fixed, so the search turns that operator off), one
    /// mutation per offspring, and a stop by topology convergence.
    #[test]
    fn partitioned_search_counts_its_mutations() {
        let (parts, _) = two_block_data(502);
        let engine = PartitionedEngine::new(&parts).unwrap();
        let mut rng = SimRng::new(503);
        let start = phylo::distance::nj_tree(&parts[0].alignment);
        let driver = &parts[0].config;
        let result = engine.search(driver, start, &mut rng);
        assert_eq!(result.mutation_counts[3], 0, "no model moves");
        let offspring = result.generations * (driver.population_size as u64 - 1);
        assert_eq!(result.mutation_counts.iter().sum::<u64>(), offspring);
        assert_eq!(result.termination, Termination::TopologyConvergence);
    }

    #[test]
    fn mismatched_taxa_rejected() {
        let (mut parts, _) = two_block_data(504);
        // Break block 1's taxon set by regenerating with a different size.
        let mut rng = SimRng::new(505);
        let other = Tree::random_topology(7, &mut rng);
        let aa = aminoacid::poisson();
        parts[1].alignment =
            Simulator::new(&aa, SiteRates::uniform()).simulate(&other, 50, &mut rng);
        let err = PartitionedEngine::new(&parts).unwrap_err();
        assert_eq!(err, PartitionError::TaxonMismatch { index: 1 });
    }

    #[test]
    fn invalid_block_reported_with_index() {
        let (mut parts, _) = two_block_data(506);
        parts[1].config.num_rate_cats = 99;
        parts[1].config.rate_het = crate::config::RateHetKind::Gamma;
        let err = PartitionedEngine::new(&parts).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidBlock { index: 1, .. }));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            PartitionedEngine::new(&[]).unwrap_err(),
            PartitionError::Empty
        );
    }
}
