//! Codon substitution models (61 sense codons, universal code).
//!
//! A Goldman–Yang / Muse–Gaut style model: substitutions between codons that
//! differ at exactly one nucleotide position get rate
//!
//! ```text
//!   1          transversion, synonymous
//!   κ          transition,   synonymous
//!   ω          transversion, nonsynonymous
//!   κω         transition,   nonsynonymous
//! ```
//!
//! and all multi-position changes are instantaneous-rate zero. Codon models
//! are the most expensive family GARLI offers (61² transition entries per
//! rate category per branch) — the paper's data-type predictor captures
//! exactly this cost cliff.

use super::ReversibleModel;
use crate::alphabet::{codon_amino_acid, codon_triplet, DataType};
use crate::linalg::Matrix;

/// True iff nucleotides `a → b` is a transition (A↔G or C↔T).
fn is_transition(a: usize, b: usize) -> bool {
    matches!((a.min(b), a.max(b)), (0, 2) | (1, 3))
}

/// Goldman–Yang style model with transition/transversion ratio `kappa`,
/// nonsynonymous/synonymous ratio `omega`, and equal codon frequencies.
///
/// # Panics
/// Panics on non-positive parameters.
pub fn goldman_yang(kappa: f64, omega: f64) -> ReversibleModel {
    goldman_yang_freqs(kappa, omega, vec![1.0 / 61.0; 61])
}

/// Goldman–Yang with explicit codon frequencies.
///
/// # Panics
/// Panics on non-positive parameters or invalid frequencies.
pub fn goldman_yang_freqs(kappa: f64, omega: f64, freqs: Vec<f64>) -> ReversibleModel {
    assert!(kappa > 0.0 && kappa.is_finite(), "invalid kappa {kappa}");
    assert!(omega > 0.0 && omega.is_finite(), "invalid omega {omega}");
    let s = Matrix::from_fn(61, |i, j| {
        if i == j {
            return 0.0;
        }
        let (a1, b1, c1) = codon_triplet(i);
        let (a2, b2, c2) = codon_triplet(j);
        let diffs: Vec<(usize, usize)> = [(a1, a2), (b1, b2), (c1, c2)]
            .into_iter()
            .filter(|(x, y)| x != y)
            .collect();
        if diffs.len() != 1 {
            return 0.0; // multi-nucleotide change
        }
        let (x, y) = diffs[0];
        let mut rate = if is_transition(x, y) { kappa } else { 1.0 };
        if codon_amino_acid(i) != codon_amino_acid(j) {
            rate *= omega;
        }
        rate
    });
    ReversibleModel::new(DataType::Codon, &s, freqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::triplet_index;
    use crate::models::SubstModel;

    #[test]
    fn rows_sum_to_one() {
        let m = goldman_yang(2.0, 0.5);
        let p = m.transition_matrix(0.3);
        for i in 0..61 {
            let row: f64 = (0..61).map(|j| p[(i, j)]).sum();
            assert!((row - 1.0).abs() < 1e-8, "row {i} sums to {row}");
        }
    }

    #[test]
    fn identity_at_zero() {
        let m = goldman_yang(2.0, 0.5);
        let p = m.transition_matrix(0.0);
        for i in 0..61 {
            assert!((p[(i, i)] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn detailed_balance() {
        let m = goldman_yang(3.0, 0.2);
        let p = m.transition_matrix(0.5);
        let f = m.frequencies();
        for i in (0..61).step_by(7) {
            for j in (0..61).step_by(5) {
                assert!((f[i] * p[(i, j)] - f[j] * p[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn small_omega_suppresses_nonsynonymous_changes() {
        // With ω → small, single-step nonsynonymous substitutions become rare
        // relative to synonymous ones at small t.
        let purifying = goldman_yang(2.0, 0.01);
        let neutral = goldman_yang(2.0, 1.0);
        let t = 0.02;
        let pp = purifying.transition_matrix(t);
        let pn = neutral.transition_matrix(t);
        // CTT→CTC is synonymous (both Leu); CTT→CCT is nonsynonymous (Leu→Pro).
        let ctt = triplet_index(1, 3, 3).unwrap();
        let ctc = triplet_index(1, 3, 1).unwrap();
        let cct = triplet_index(1, 1, 3).unwrap();
        let ratio_pur = pp[(ctt, cct)] / pp[(ctt, ctc)];
        let ratio_neu = pn[(ctt, cct)] / pn[(ctt, ctc)];
        assert!(
            ratio_pur < ratio_neu * 0.1,
            "purifying {ratio_pur} vs neutral {ratio_neu}"
        );
    }

    #[test]
    fn kappa_boosts_transitions() {
        let m = goldman_yang(8.0, 1.0);
        let p = m.transition_matrix(0.02);
        // AAA→AAG: third-position A→G transition (both Lys, synonymous).
        // AAA→AAT: third-position A→T transversion (Lys→Asn, but with ω=1
        // the aa change costs nothing, isolating κ).
        let aaa = triplet_index(0, 0, 0).unwrap();
        let aag = triplet_index(0, 0, 2).unwrap();
        let aat = triplet_index(0, 0, 3).unwrap();
        assert!(p[(aaa, aag)] > 4.0 * p[(aaa, aat)]);
    }

    #[test]
    fn long_time_approaches_frequencies() {
        let m = goldman_yang(2.0, 0.5);
        let p = m.transition_matrix(200.0);
        let f = m.frequencies();
        for j in (0..61).step_by(9) {
            assert!((p[(0, j)] - f[j]).abs() < 1e-5);
        }
    }

    #[test]
    fn accessors() {
        let m = goldman_yang(2.5, 0.4);
        assert_eq!(m.data_type(), DataType::Codon);
        assert_eq!(m.num_states(), 61);
    }
}
