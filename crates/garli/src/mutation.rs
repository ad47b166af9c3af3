//! Mutation operators for the genetic algorithm.
//!
//! GARLI's operator mix: mostly local topology rearrangements (NNI), an
//! occasional drastic rearrangement (SPR), frequent branch-length
//! perturbations, and rare model-parameter moves (each model move forces an
//! eigendecomposition, so they are kept scarce).

use crate::config::{GarliConfig, RateHetKind, StateFrequencies};
use crate::individual::Individual;
use phylo::alphabet::DataType;
use phylo::models::nucleotide::RateMatrix;
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// What a mutation did (drives termination bookkeeping and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MutationKind {
    /// Nearest-neighbor interchange (local topology move).
    Nni,
    /// Subtree prune and regraft (global topology move).
    Spr,
    /// Multiplicative rescaling of one branch length.
    BranchLength,
    /// Perturbation of a model parameter (κ, ω, α, p-inv, GTR rate, or a
    /// free frequency).
    ModelParam,
}

impl MutationKind {
    /// True for topology-changing operators.
    pub fn is_topological(self) -> bool {
        matches!(self, MutationKind::Nni | MutationKind::Spr)
    }
}

/// Relative probabilities of the operator classes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MutationWeights {
    /// NNI weight.
    pub nni: f64,
    /// SPR weight.
    pub spr: f64,
    /// Branch-length weight.
    pub branch: f64,
    /// Model-parameter weight.
    pub model: f64,
}

impl Default for MutationWeights {
    fn default() -> Self {
        MutationWeights {
            nni: 0.45,
            spr: 0.05,
            branch: 0.40,
            model: 0.10,
        }
    }
}

/// Apply one random mutation to `individual`, returning what was done.
///
/// Degenerate situations fall back gracefully: trees too small for NNI/SPR
/// get a branch-length move; configurations with no free model parameters
/// never report `ModelParam`.
pub fn mutate(
    individual: &mut Individual,
    config: &GarliConfig,
    weights: &MutationWeights,
    rng: &mut SimRng,
) -> MutationKind {
    let has_free_model = has_free_model_params(config);
    let w = [
        weights.nni,
        weights.spr,
        weights.branch,
        if has_free_model { weights.model } else { 0.0 },
    ];
    match rng.weighted_index(&w) {
        0 => mutate_nni(individual, rng),
        1 => mutate_spr(individual, rng),
        2 => mutate_branch(individual, rng),
        _ => mutate_model(individual, config, rng),
    }
}

/// Whether any model parameter is free to move under this configuration.
pub fn has_free_model_params(config: &GarliConfig) -> bool {
    let rate_params = match config.data_type {
        DataType::Nucleotide => config.rate_matrix != RateMatrix::Jc,
        DataType::AminoAcid => false, // fixed empirical matrix
        DataType::Codon => true,      // κ and ω
    };
    rate_params
        || config.rate_het != RateHetKind::None
        || config.state_frequencies == StateFrequencies::Estimate
}

fn mutate_nni(individual: &mut Individual, rng: &mut SimRng) -> MutationKind {
    let edges = individual.tree.internal_edge_nodes();
    if edges.is_empty() {
        return mutate_branch(individual, rng);
    }
    let v = *rng.choose(&edges);
    individual.tree.nni(v, rng.index(2));
    individual.log_likelihood = f64::NEG_INFINITY;
    MutationKind::Nni
}

fn mutate_spr(individual: &mut Individual, rng: &mut SimRng) -> MutationKind {
    let nodes = individual.tree.edge_nodes();
    for _ in 0..10 {
        let prune = *rng.choose(&nodes);
        let graft = *rng.choose(&nodes);
        if individual.tree.spr(prune, graft) {
            individual.log_likelihood = f64::NEG_INFINITY;
            return MutationKind::Spr;
        }
    }
    // Dense small trees may reject every random SPR; degrade to NNI.
    mutate_nni(individual, rng)
}

fn mutate_branch(individual: &mut Individual, rng: &mut SimRng) -> MutationKind {
    let edges = individual.tree.edge_nodes();
    let e = *rng.choose(&edges);
    let factor = rng.lognormal(0.0, 0.3);
    let bl = (individual.tree.branch_length(e) * factor).clamp(1e-8, 10.0);
    individual.tree.set_branch_length(e, bl);
    individual.log_likelihood = f64::NEG_INFINITY;
    MutationKind::BranchLength
}

fn mutate_model(
    individual: &mut Individual,
    config: &GarliConfig,
    rng: &mut SimRng,
) -> MutationKind {
    // Collect the knobs this configuration exposes, then move one.
    #[derive(Clone, Copy)]
    enum Knob {
        Kappa,
        Omega,
        Alpha,
        Pinv,
        GtrRate(usize),
        Frequency,
    }
    let mut knobs: Vec<Knob> = Vec::new();
    match config.data_type {
        DataType::Nucleotide => match config.rate_matrix {
            RateMatrix::Jc => {}
            RateMatrix::K80 | RateMatrix::Hky85 => knobs.push(Knob::Kappa),
            RateMatrix::Gtr => knobs.extend((0..5).map(Knob::GtrRate)),
        },
        DataType::AminoAcid => {}
        DataType::Codon => {
            knobs.push(Knob::Kappa);
            knobs.push(Knob::Omega);
        }
    }
    match config.rate_het {
        RateHetKind::None => {}
        RateHetKind::Gamma => knobs.push(Knob::Alpha),
        RateHetKind::GammaInv => {
            knobs.push(Knob::Alpha);
            knobs.push(Knob::Pinv);
        }
    }
    if config.state_frequencies == StateFrequencies::Estimate {
        knobs.push(Knob::Frequency);
    }
    if knobs.is_empty() {
        return mutate_branch(individual, rng);
    }
    let factor = rng.lognormal(0.0, 0.2);
    let p = &mut individual.params;
    match *rng.choose(&knobs) {
        Knob::Kappa => p.kappa = (p.kappa * factor).clamp(0.1, 100.0),
        Knob::Omega => p.omega = (p.omega * factor).clamp(0.01, 10.0),
        Knob::Alpha => p.alpha = (p.alpha * factor).clamp(0.02, 50.0),
        Knob::Pinv => p.pinv = (p.pinv * factor).clamp(1e-4, 0.95),
        Knob::GtrRate(i) => {
            p.gtr_rates[i] = (p.gtr_rates[i] * factor).clamp(0.01, 100.0);
        }
        Knob::Frequency => {
            // Dirichlet-style nudge: perturb one frequency, renormalize.
            let ns = config.data_type.num_states();
            if p.free_frequencies.len() != ns {
                p.free_frequencies = vec![1.0 / ns as f64; ns];
            }
            let i = rng.index(ns);
            p.free_frequencies[i] = (p.free_frequencies[i] * factor).clamp(1e-4, 1.0);
            let total: f64 = p.free_frequencies.iter().sum();
            for f in &mut p.free_frequencies {
                *f /= total;
            }
        }
    }
    individual.log_likelihood = f64::NEG_INFINITY;
    MutationKind::ModelParam
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelParams;
    use phylo::tree::Tree;

    fn individual(n: usize, config: &GarliConfig) -> Individual {
        let mut i = Individual::new(Tree::caterpillar(n, 0.1), ModelParams::from_config(config));
        i.log_likelihood = -100.0;
        i
    }

    #[test]
    fn mutation_invalidates_score() {
        let config = GarliConfig::quick_nucleotide();
        let mut rng = SimRng::new(61);
        let mut ind = individual(8, &config);
        mutate(&mut ind, &config, &MutationWeights::default(), &mut rng);
        assert!(!ind.is_scored());
    }

    #[test]
    fn all_operator_kinds_occur() {
        let config = GarliConfig::default(); // GTR+Γ: model knobs exist
        let mut rng = SimRng::new(62);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let mut ind = individual(10, &config);
            seen.insert(mutate(
                &mut ind,
                &config,
                &MutationWeights::default(),
                &mut rng,
            ));
            ind.tree.check_invariants();
        }
        assert!(seen.contains(&MutationKind::Nni));
        assert!(seen.contains(&MutationKind::Spr));
        assert!(seen.contains(&MutationKind::BranchLength));
        assert!(seen.contains(&MutationKind::ModelParam));
    }

    #[test]
    fn jc_without_ratehet_has_no_model_moves() {
        let config = GarliConfig::quick_nucleotide(); // JC, no Γ, equal freqs
        assert!(!has_free_model_params(&config));
        let mut rng = SimRng::new(63);
        for _ in 0..200 {
            let mut ind = individual(8, &config);
            let kind = mutate(&mut ind, &config, &MutationWeights::default(), &mut rng);
            assert_ne!(kind, MutationKind::ModelParam);
        }
    }

    #[test]
    fn tiny_tree_degrades_to_branch_moves() {
        let config = GarliConfig::quick_nucleotide();
        let mut rng = SimRng::new(64);
        for _ in 0..50 {
            let mut ind = individual(3, &config);
            let kind = mutate(&mut ind, &config, &MutationWeights::default(), &mut rng);
            assert!(!kind.is_topological() || kind == MutationKind::Spr);
            ind.tree.check_invariants();
        }
    }

    #[test]
    fn model_mutation_keeps_parameters_in_bounds() {
        let config = GarliConfig {
            state_frequencies: StateFrequencies::Estimate,
            ..GarliConfig::default()
        };
        let mut rng = SimRng::new(65);
        let mut ind = individual(6, &config);
        for _ in 0..500 {
            mutate(
                &mut ind,
                &config,
                &MutationWeights {
                    model: 1.0,
                    nni: 0.0,
                    spr: 0.0,
                    branch: 0.0,
                },
                &mut rng,
            );
        }
        let p = &ind.params;
        assert!(p.alpha >= 0.02 && p.alpha <= 50.0);
        assert!(p.pinv <= 0.95);
        assert!(p.gtr_rates.iter().all(|&r| (0.01..=100.0).contains(&r)));
        if !p.free_frequencies.is_empty() {
            let s: f64 = p.free_frequencies.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn branch_lengths_stay_positive_and_bounded() {
        let config = GarliConfig::quick_nucleotide();
        let mut rng = SimRng::new(66);
        let mut ind = individual(6, &config);
        let weights = MutationWeights {
            branch: 1.0,
            nni: 0.0,
            spr: 0.0,
            model: 0.0,
        };
        for _ in 0..500 {
            mutate(&mut ind, &config, &weights, &mut rng);
        }
        for e in ind.tree.edge_nodes() {
            let bl = ind.tree.branch_length(e);
            assert!((1e-8..=10.0).contains(&bl));
        }
    }

    #[test]
    fn kind_classification() {
        assert!(MutationKind::Nni.is_topological());
        assert!(MutationKind::Spr.is_topological());
        assert!(!MutationKind::BranchLength.is_topological());
        assert!(!MutationKind::ModelParam.is_topological());
    }
}
