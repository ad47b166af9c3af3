//! Model pins: FNV-64 of the bits of `frequencies()` and of
//! `transition_matrix(t)` at five branch lengths, for every model
//! `build_model` can build: each nucleotide rate matrix under equal,
//! empirical and estimated frequencies, both amino-acid models, and GY94 at
//! two (κ, ω). The values were captured before the per-family model types
//! were folded into one reversible model type. A changed bit in a frequency
//! vector, an eigensystem or an assembled `P(t)` moves the hash.

use garli::config::{GarliConfig, StateFrequencies};
use garli::model::{build_model, ModelParams};
use phylo::alignment::Alignment;
use phylo::alphabet::DataType;
use phylo::models::nucleotide::RateMatrix;
use phylo::models::SubstModel;
use phylo::sequence::Sequence;
use simkit::snapshot::checksum as fnv1a;

/// Zero, short, typical, long and saturating branches.
const BRANCH_LENGTHS: [f64; 5] = [0.0, 0.013, 0.1, 0.47, 2.5];

fn fingerprint(model: &impl SubstModel) -> u64 {
    let n = model.num_states();
    let mut bits: Vec<u64> = model.frequencies().iter().map(|f| f.to_bits()).collect();
    for t in BRANCH_LENGTHS {
        let p = model.transition_matrix(t);
        for i in 0..n {
            bits.extend((0..n).map(|j| p[(i, j)].to_bits()));
        }
    }
    let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn alignment(data_type: DataType, rows: &[&str]) -> Alignment {
    Alignment::new(
        rows.iter()
            .enumerate()
            .map(|(i, text)| Sequence::from_text(format!("t{i}"), data_type, text).unwrap())
            .collect(),
    )
    .unwrap()
}

/// Parameters away from their defaults, so κ and every GTR rate reach the
/// exchangeabilities.
fn params(config: &GarliConfig) -> ModelParams {
    ModelParams {
        kappa: 3.7,
        omega: 0.31,
        gtr_rates: [1.3, 4.1, 0.7, 1.2, 3.6, 1.0],
        ..ModelParams::from_config(config)
    }
}

#[test]
fn nucleotide_models_match_their_pins() {
    // A-rich, T-poor composition, so empirical frequencies are unequal.
    let aln = alignment(
        DataType::Nucleotide,
        &["AAGACATAGCAAGCAA", "AAGACGTAGCAAGCGA", "AGGACATAACAGGCAA"],
    );
    let mut got = Vec::new();
    for rate_matrix in RateMatrix::ALL {
        for state_frequencies in [
            StateFrequencies::Equal,
            StateFrequencies::Empirical,
            StateFrequencies::Estimate,
        ] {
            let config = GarliConfig {
                rate_matrix,
                state_frequencies,
                ..GarliConfig::default()
            };
            let mut p = params(&config);
            if state_frequencies == StateFrequencies::Estimate {
                p.free_frequencies = vec![0.36, 0.14, 0.22, 0.28];
            }
            got.push(fingerprint(&build_model(&config, &p, &aln)));
        }
    }
    // RateMatrix::ALL order (JC, K80, HKY85, GTR), each under equal,
    // empirical and estimated frequencies.
    assert_eq!(
        got,
        [
            1475843769274686310,
            1475843769274686310,
            1475843769274686310,
            10477628636490808662,
            10477628636490808662,
            10477628636490808662,
            10477628636490808662,
            9302724697625554154,
            4183721808151459102,
            13824070028002521716,
            1087224089053487971,
            6825306001634721079,
        ]
    );
}

#[test]
fn amino_acid_models_match_their_pins() {
    let aln = alignment(
        DataType::AminoAcid,
        &["ARNDCQEGHILKMFPSTWYVAAL", "ARNDCQEGHILKMFPSTWYVALL"],
    );
    let got: Vec<u64> = [StateFrequencies::Equal, StateFrequencies::Empirical]
        .into_iter()
        .map(|state_frequencies| {
            let config = GarliConfig {
                data_type: DataType::AminoAcid,
                state_frequencies,
                ..GarliConfig::default()
            };
            fingerprint(&build_model(&config, &params(&config), &aln))
        })
        .collect();
    // Poisson, then the empirical matrix.
    assert_eq!(got, [3968028430196858783, 8339657111604417089]);
}

#[test]
fn codon_models_match_their_pins() {
    let aln = alignment(DataType::Codon, &["ATGGCTAAAGCT", "ATGGCGAAAGCC"]);
    let config = GarliConfig {
        data_type: DataType::Codon,
        state_frequencies: StateFrequencies::Equal,
        ..GarliConfig::default()
    };
    let got: Vec<u64> = [(2.0, 0.5), (4.2, 0.15)]
        .into_iter()
        .map(|(kappa, omega)| {
            let p = ModelParams {
                kappa,
                omega,
                ..params(&config)
            };
            fingerprint(&build_model(&config, &p, &aln))
        })
        .collect();
    assert_eq!(got, [7557012811090705168, 13318337757294791343]);
}
