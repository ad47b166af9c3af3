//! Model assembly: from a [`crate::config::GarliConfig`] plus
//! current parameter values to a concrete substitution model.
//!
//! The GA mutates [`ModelParams`] (κ, ω, α, p-inv, and free frequencies when
//! `statefrequencies = estimate`); [`build_model`] turns the current values
//! into a ready-to-evaluate [`ReversibleModel`]. Rebuilding involves an
//! eigendecomposition, which is why model mutations are deliberately rare in
//! the operator mix — exactly GARLI's trade-off.

use crate::config::{GarliConfig, StateFrequencies};
use phylo::alignment::Alignment;
use phylo::alphabet::DataType;
use phylo::models::nucleotide::RateMatrix;
use phylo::models::{aminoacid, codon, nucleotide, ReversibleModel, SiteRates};
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
/// Panics if `params.free_frequencies` is non-empty but not four long on
/// nucleotide data.
pub fn build_model(
    config: &GarliConfig,
    params: &ModelParams,
    alignment: &Alignment,
) -> ReversibleModel {
    match config.data_type {
        DataType::Nucleotide => {
            let freqs = if !params.free_frequencies.is_empty() {
                assert_eq!(params.free_frequencies.len(), 4, "frequency vector length");
                params.free_frequencies.clone()
            } else {
                match config.state_frequencies {
                    StateFrequencies::Equal => vec![0.25; 4],
                    StateFrequencies::Empirical | StateFrequencies::Estimate => {
                        empirical_frequencies(alignment)
                    }
                }
            };
            let freqs = [freqs[0], freqs[1], freqs[2], freqs[3]];
            match config.rate_matrix {
                RateMatrix::Jc => nucleotide::jc69(),
                RateMatrix::K80 => nucleotide::k80(params.kappa),
                RateMatrix::Hky85 => nucleotide::hky85(params.kappa, freqs),
                RateMatrix::Gtr => nucleotide::gtr(params.gtr_rates, freqs),
            }
        }
        // Frequencies are baked into the fixed empirical matrix (as in
        // GARLI's empirical AA models); `Equal` selects Poisson.
        DataType::AminoAcid => match config.state_frequencies {
            StateFrequencies::Equal => aminoacid::poisson(),
            _ => aminoacid::empirical(),
        },
        DataType::Codon => codon::goldman_yang(params.kappa, params.omega),
    }
}

/// The [`SiteRates`] mixture for the current parameter values (the GA moves
/// α and p-inv, so this is rebuilt alongside the model). This is the one
/// mapping from a rate-heterogeneity setting to a mixture; invgamma always
/// mixes `num_rate_cats + 1` categories, even at p-inv 0.
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
    use phylo::models::SubstModel;
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
        assert_eq!(build_model(&c, &p, &aln).data_type(), DataType::Nucleotide);
        c.data_type = DataType::AminoAcid;
        let aa_aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::AminoAcid, "ARND").unwrap(),
            Sequence::from_text("b", DataType::AminoAcid, "ARNE").unwrap(),
        ])
        .unwrap();
        assert_eq!(
            build_model(&c, &p, &aa_aln).data_type(),
            DataType::AminoAcid
        );
        c.data_type = DataType::Codon;
        let cod_aln = Alignment::new(vec![
            Sequence::from_text("a", DataType::Codon, "ATGGCT").unwrap(),
            Sequence::from_text("b", DataType::Codon, "ATGGCG").unwrap(),
        ])
        .unwrap();
        assert_eq!(build_model(&c, &p, &cod_aln).data_type(), DataType::Codon);
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

    /// A search scores the mixture validation reports: as many categories
    /// as `effective_rate_categories`, mean rate 1, for every family.
    #[test]
    fn build_rates_mixes_the_validated_category_count() {
        for rate_het in RateHetKind::ALL {
            for num_rate_cats in [2, 4, 16] {
                for pinv in [0.0, 0.2] {
                    let c = GarliConfig {
                        rate_het,
                        num_rate_cats,
                        invariant_sites: pinv > 0.0,
                        pinv,
                        ..GarliConfig::default()
                    };
                    let r = build_rates(&c, &ModelParams::from_config(&c));
                    let case = format!("{} × {num_rate_cats} at p-inv {pinv}", rate_het.name());
                    assert_eq!(r.num_categories(), c.effective_rate_categories(), "{case}");
                    assert!((r.mean_rate() - 1.0).abs() < 1e-9, "{case}");
                }
            }
        }
        let c = GarliConfig {
            rate_het: RateHetKind::GammaInv,
            invariant_sites: true,
            pinv: 0.2,
            ..GarliConfig::default()
        };
        let r = build_rates(&c, &ModelParams::from_config(&c));
        assert_eq!(r.num_categories(), 5);
        assert_eq!(r.categories()[0], (0.0, 0.2), "the invariant class");
    }
}
