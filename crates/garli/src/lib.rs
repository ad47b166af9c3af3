//! `garli` — a genetic-algorithm maximum-likelihood phylogenetic search
//! engine, modeled on GARLI (Genetic Algorithm for Rapid Likelihood
//! Inference; Zwickl 2006), the application served by The Lattice Project's
//! science portal.
//!
//! The engine evolves a small population of candidate solutions — tree
//! topology, branch lengths, and substitution-model parameters — under
//! mutation operators (NNI, SPR, branch-length rescaling, model-parameter
//! perturbation) with elitist selection, terminating when no
//! topology-improving mutation has been accepted for
//! `genthreshfortopoterm` generations (the GARLI termination rule, and one
//! of the paper's nine runtime predictors).
//!
//! What the grid cares about is faithfully reproduced:
//!
//! * **Cost structure.** Every likelihood evaluation counts deterministic
//!   *work units* (likelihood cells); wall time is work ÷ machine speed, so
//!   runtime varies with data size, data type, and rate-heterogeneity
//!   settings exactly as the paper's Fig. 2 predictors demand.
//! * **Checkpointing** ([`checkpoint`]) — the feature added for the BOINC
//!   build of GARLI.
//! * **Validation mode** ([`validate`]) — the pre-scheduling dry run the
//!   portal performs on every submission.
//! * **Progress reporting** ([`progress`]) — BOINC client progress-bar
//!   updates.
//! * **Replicates** ([`replicate`]) — search replicates and bootstrap
//!   pseudo-replicates, the unit of parallelism across the grid.
//!
//! # Example
//!
//! ```
//! use garli::config::GarliConfig;
//! use garli::search::Search;
//! use phylo::Tree;
//! use phylo::models::SiteRates;
//! use phylo::models::nucleotide;
//! use phylo::simulate::Simulator;
//!
//! let mut rng = simkit::SimRng::new(42);
//! let truth = Tree::random_topology(8, &mut rng);
//! let model = nucleotide::jc69();
//! let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 300, &mut rng);
//!
//! let config = GarliConfig::quick_nucleotide();
//! let result = Search::new(config, &aln).unwrap().run(&mut rng);
//! assert!(result.best_log_likelihood.is_finite());
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod individual;
pub mod model;
pub mod mutation;
pub mod partition;
pub mod progress;
pub mod replicate;
pub mod search;
pub mod validate;
pub mod work;

pub use config::GarliConfig;
pub use search::{Search, SearchResult};
