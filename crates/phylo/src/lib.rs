//! `phylo` — the phylogenetics substrate for the lattice-grid workspace.
//!
//! GARLI-style maximum-likelihood search needs a full numerical stack:
//! character alphabets (nucleotide, amino acid, codon), aligned sequence
//! data with site-pattern compression, unrooted binary tree topologies with
//! NNI/SPR edit operations, time-reversible substitution models (GTR family,
//! amino-acid, Goldman–Yang codon) with Γ-distributed among-site rate
//! heterogeneity and invariant sites, and Felsenstein-pruning likelihood
//! evaluation with numerical scaling.
//!
//! This crate provides all of it from scratch, plus the supporting cast:
//! Newick I/O, distance methods (neighbor joining for starting trees),
//! sequence simulation along a tree (used to fabricate realistic workloads),
//! and bootstrap resampling.
//!
//! # Quick taste
//!
//! ```
//! use phylo::simulate::Simulator;
//! use phylo::tree::Tree;
//! use phylo::models::{nucleotide, SiteRates};
//! use phylo::likelihood::evaluate_patterns;
//! use phylo::patterns::PatternSet;
//!
//! // Simulate a 6-taxon nucleotide alignment and score the true tree.
//! let mut rng = simkit::SimRng::new(7);
//! let tree = Tree::random_topology(6, &mut rng);
//! let model = nucleotide::jc69();
//! let rates = SiteRates::uniform();
//! let aln = Simulator::new(&model, rates.clone()).simulate(&tree, 200, &mut rng);
//! let patterns = PatternSet::compress(&aln);
//! let lnl = evaluate_patterns(&patterns, &model, &rates, &tree).log_likelihood;
//! assert!(lnl < 0.0 && lnl.is_finite());
//! ```

#![warn(missing_docs)]

pub mod alignment;
pub mod alphabet;
pub mod bootstrap;
pub mod consensus;
pub mod distance;
pub mod likelihood;
pub mod linalg;
pub mod models;
pub mod newick;
pub mod patterns;
pub mod sequence;
pub mod simulate;
pub mod tree;

pub use alignment::Alignment;
pub use alphabet::DataType;
pub use tree::Tree;
