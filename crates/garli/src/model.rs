//! Model assembly: from a [`crate::config::GarliConfig`] plus
//! current parameter values to a concrete substitution model.
//!
//! The GA mutates [`ModelParams`] (κ, ω, α, p-inv, and free frequencies when
//! `statefrequencies = estimate`); [`build_model`] turns the current values
//! into a ready-to-evaluate [`AnyModel`]. Rebuilding involves an
//! eigendecomposition, which is why model mutations are deliberately rare in
//! the operator mix — exactly GARLI's trade-off.

use crate::config::{GarliConfig, StateFrequencies};
use phylo::alignment::Alignment;
use phylo::alphabet::DataType;
use phylo::linalg::Matrix;
use phylo::models::aminoacid::AaModel;
use phylo::models::codon::CodonModel;
use phylo::models::nucleotide::{NucModel, RateMatrix};
use phylo::models::{MemoBudget, SiteRates, SubstModel};
use serde::{Deserialize, Serialize};

/// The free model parameters a search can move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Transition/transversion ratio.
    pub kappa: f64,
    /// dN/dS (codon models only).
    pub omega: f64,
    /// Γ shape.
    pub alpha: f64,
    /// Proportion of invariant sites.
    pub pinv: f64,
    /// GTR exchangeabilities (AC, AG, AT, CG, CT, GT).
    pub gtr_rates: [f64; 6],
    /// State frequencies when estimated (empty = derive from config/data).
    pub free_frequencies: Vec<f64>,
}

impl ModelParams {
    /// Starting values from a configuration.
    pub fn from_config(config: &GarliConfig) -> ModelParams {
        ModelParams {
            kappa: config.kappa,
            omega: config.omega,
            alpha: config.alpha,
            pinv: if config.invariant_sites {
                config.pinv
            } else {
                0.0
            },
            gtr_rates: [1.0, config.kappa, 1.0, 1.0, config.kappa, 1.0],
            free_frequencies: Vec::new(),
        }
    }
}

/// A concrete model of any family, usable by the likelihood engine.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// 4-state nucleotide model.
    Nuc(NucModel),
    /// 20-state amino-acid model.
    Aa(AaModel),
    /// 61-state codon model.
    Codon(CodonModel),
}

impl AnyModel {
    /// Move the model's `P(t)` memo onto a budget shared with other models
    /// ([`phylo::models::ReversibleModel::share_memo`]).
    pub fn share_memo(&mut self, budget: &MemoBudget) {
        match self {
            AnyModel::Nuc(m) => m.share_memo(budget),
            AnyModel::Aa(m) => m.share_memo(budget),
            AnyModel::Codon(m) => m.share_memo(budget),
        }
    }
}

impl SubstModel for AnyModel {
    fn data_type(&self) -> DataType {
        match self {
            AnyModel::Nuc(m) => m.data_type(),
            AnyModel::Aa(m) => m.data_type(),
            AnyModel::Codon(m) => m.data_type(),
        }
    }
    fn frequencies(&self) -> &[f64] {
        match self {
            AnyModel::Nuc(m) => m.frequencies(),
            AnyModel::Aa(m) => m.frequencies(),
            AnyModel::Codon(m) => m.frequencies(),
        }
    }
    fn transition_matrix(&self, t: f64) -> Matrix {
        match self {
            AnyModel::Nuc(m) => m.transition_matrix(t),
            AnyModel::Aa(m) => m.transition_matrix(t),
            AnyModel::Codon(m) => m.transition_matrix(t),
        }
    }
    fn transition_matrix_into(&self, t: f64, out: &mut [f64]) {
        match self {
            AnyModel::Nuc(m) => m.transition_matrix_into(t, out),
            AnyModel::Aa(m) => m.transition_matrix_into(t, out),
            AnyModel::Codon(m) => m.transition_matrix_into(t, out),
        }
    }
    fn name(&self) -> &str {
        match self {
            AnyModel::Nuc(m) => m.name(),
            AnyModel::Aa(m) => m.name(),
            AnyModel::Codon(m) => m.name(),
        }
    }
}

/// Observed state frequencies with a +1 pseudocount per state (so zero
/// counts never zero out the likelihood).
pub fn empirical_frequencies(alignment: &Alignment) -> Vec<f64> {
    let ns = alignment.data_type().num_states();
    let mut counts = vec![1.0f64; ns];
    for s in alignment.sequences() {
        for st in s.states() {
            if let Some(i) = st.index() {
                counts[i] += 1.0;
            }
        }
    }
    let total: f64 = counts.iter().sum();
    counts.into_iter().map(|c| c / total).collect()
}

/// Assemble the concrete model for the current parameter values.
///
/// # Panics
/// Panics if `params.free_frequencies` is non-empty but the wrong length.
pub fn build_model(config: &GarliConfig, params: &ModelParams, alignment: &Alignment) -> AnyModel {
    let ns = config.data_type.num_states();
    let freqs: Vec<f64> = if !params.free_frequencies.is_empty() {
        assert_eq!(params.free_frequencies.len(), ns, "frequency vector length");
        params.free_frequencies.clone()
    } else {
        match config.state_frequencies {
            StateFrequencies::Equal => vec![1.0 / ns as f64; ns],
            StateFrequencies::Empirical | StateFrequencies::Estimate => {
                empirical_frequencies(alignment)
            }
        }
    };
    match config.data_type {
        DataType::Nucleotide => {
            let freqs4 = [freqs[0], freqs[1], freqs[2], freqs[3]];
            let m = match config.rate_matrix {
                RateMatrix::Jc => NucModel::jc69(),
                RateMatrix::K80 => NucModel::k80(params.kappa),
                RateMatrix::Hky85 => NucModel::hky85(params.kappa, freqs4),
                RateMatrix::Gtr => NucModel::gtr(params.gtr_rates, freqs4),
            };
            AnyModel::Nuc(m)
        }
        DataType::AminoAcid => {
            // Frequencies are baked into the fixed empirical matrix (as in
            // GARLI's empirical AA models); `Equal` selects Poisson.
            let m = match config.state_frequencies {
                StateFrequencies::Equal => AaModel::poisson(),
                _ => AaModel::empirical(),
            };
            AnyModel::Aa(m)
        }
        DataType::Codon => AnyModel::Codon(CodonModel::goldman_yang(params.kappa, params.omega)),
    }
}

/// The [`SiteRates`] mixture for the current parameter values (the GA moves
/// α and p-inv, so this is rebuilt alongside the model).
pub fn build_rates(config: &GarliConfig, params: &ModelParams) -> SiteRates {
    use crate::config::RateHetKind;
    match config.rate_het {
        RateHetKind::None => SiteRates::uniform(),
        RateHetKind::Gamma => SiteRates::gamma(config.num_rate_cats, params.alpha),
        RateHetKind::GammaInv => {
            SiteRates::gamma_inv(config.num_rate_cats, params.alpha, params.pinv.max(1e-6))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RateHetKind;
    use phylo::sequence::Sequence;

    fn nuc_aln() -> Alignment {
        Alignment::new(vec![
            Sequence::from_text("a", DataType::Nucleotide, "AAAAACGT").unwrap(),
            Sequence::from_text("b", DataType::Nucleotide, "AAAAACGA").unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn empirical_frequencies_biased_toward_a() {
        let f = empirical_frequencies(&nuc_aln());
        assert!(f[0] > f[1] && f[0] > f[2] && f[0] > f[3]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pseudocount_keeps_all_positive() {
        let aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Nucleotide, "AAAA").unwrap(),
            Sequence::from_text("b", DataType::Nucleotide, "AAAA").unwrap(),
        ])
        .unwrap();
        let f = empirical_frequencies(&aln);
        assert!(f.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn build_each_family() {
        let aln = nuc_aln();
        let mut c = GarliConfig::quick_nucleotide();
        let p = ModelParams::from_config(&c);
        assert!(matches!(build_model(&c, &p, &aln), AnyModel::Nuc(_)));
        c.data_type = DataType::AminoAcid;
        let aa_aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::AminoAcid, "ARND").unwrap(),
            Sequence::from_text("b", DataType::AminoAcid, "ARNE").unwrap(),
        ])
        .unwrap();
        assert!(matches!(build_model(&c, &p, &aa_aln), AnyModel::Aa(_)));
        c.data_type = DataType::Codon;
        let cod_aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Codon, "ATGGCT").unwrap(),
            Sequence::from_text("b", DataType::Codon, "ATGGCG").unwrap(),
        ])
        .unwrap();
        assert!(matches!(build_model(&c, &p, &cod_aln), AnyModel::Codon(_)));
    }

    #[test]
    fn estimated_frequencies_flow_through() {
        let aln = nuc_aln();
        let mut c = GarliConfig::quick_nucleotide();
        c.rate_matrix = RateMatrix::Hky85;
        c.state_frequencies = StateFrequencies::Estimate;
        let mut p = ModelParams::from_config(&c);
        p.free_frequencies = vec![0.4, 0.3, 0.2, 0.1];
        let m = build_model(&c, &p, &aln);
        assert_eq!(m.frequencies(), &[0.4, 0.3, 0.2, 0.1]);
    }

    #[test]
    fn rates_track_params() {
        let c = GarliConfig {
            rate_het: RateHetKind::Gamma,
            num_rate_cats: 4,
            ..GarliConfig::default()
        };
        let mut p = ModelParams::from_config(&c);
        p.alpha = 0.3;
        let r = build_rates(&c, &p);
        assert_eq!(r.num_categories(), 4);
        // Smaller alpha = more extreme spread than config default 0.5.
        p.alpha = 5.0;
        let r2 = build_rates(&c, &p);
        let spread = |x: &SiteRates| x.categories()[3].0 / x.categories()[0].0.max(1e-12);
        assert!(spread(&r) > spread(&r2));
    }
}
