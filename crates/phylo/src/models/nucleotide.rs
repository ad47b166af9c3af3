//! Nucleotide substitution models (GTR family).
//!
//! All four classics are parameterizations of the general time-reversible
//! model over A, C, G, T: JC69 (equal everything), K80 (transition/
//! transversion ratio κ), HKY85 (κ plus unequal frequencies), and full GTR
//! (six exchangeabilities plus frequencies). GARLI's `ratematrix` setting
//! picks among these — a mid-tier runtime predictor in the paper's Fig. 2.

use super::ReversibleModel;
use crate::alphabet::DataType;
use crate::linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Which member of the GTR family a job uses (GARLI `ratematrix`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RateMatrix {
    /// Jukes–Cantor: one rate.
    Jc,
    /// Kimura 2-parameter: transitions vs transversions.
    K80,
    /// HKY85: K80 plus empirical base frequencies.
    Hky85,
    /// Full 6-rate general time-reversible.
    Gtr,
}

impl RateMatrix {
    /// Configuration-file style name.
    pub fn name(self) -> &'static str {
        match self {
            RateMatrix::Jc => "1rate",
            RateMatrix::K80 => "2rate",
            RateMatrix::Hky85 => "hky",
            RateMatrix::Gtr => "6rate",
        }
    }

    /// Number of free exchangeability parameters (for work accounting).
    pub fn free_parameters(self) -> usize {
        match self {
            RateMatrix::Jc => 0,
            RateMatrix::K80 | RateMatrix::Hky85 => 1,
            RateMatrix::Gtr => 5,
        }
    }

    /// All members.
    pub const ALL: [RateMatrix; 4] = [
        RateMatrix::Jc,
        RateMatrix::K80,
        RateMatrix::Hky85,
        RateMatrix::Gtr,
    ];
}

/// Jukes–Cantor 1969: equal rates, equal frequencies.
pub fn jc69() -> ReversibleModel {
    gtr([1.0; 6], [0.25; 4])
}

/// Kimura 1980: transition/transversion ratio `kappa`, equal frequencies.
///
/// # Panics
/// Panics on non-positive `kappa`.
pub fn k80(kappa: f64) -> ReversibleModel {
    hky85(kappa, [0.25; 4])
}

/// Hasegawa–Kishino–Yano 1985: `kappa` plus frequencies (A, C, G, T).
///
/// # Panics
/// Panics on invalid `kappa` or frequencies.
pub fn hky85(kappa: f64, freqs: [f64; 4]) -> ReversibleModel {
    assert!(kappa > 0.0 && kappa.is_finite(), "invalid kappa {kappa}");
    gtr([1.0, kappa, 1.0, 1.0, kappa, 1.0], freqs)
}

/// Full GTR: exchangeabilities `(AC, AG, AT, CG, CT, GT)` plus
/// frequencies (A, C, G, T). Indices: A=0, C=1, G=2, T=3; transitions are
/// A↔G and C↔T.
///
/// # Panics
/// Panics on invalid rates or frequencies.
pub fn gtr(rates: [f64; 6], freqs: [f64; 4]) -> ReversibleModel {
    assert!(
        rates.iter().all(|r| *r > 0.0 && r.is_finite()),
        "invalid GTR rates"
    );
    let [ac, ag, at, cg, ct, gt] = rates;
    let mut s = Matrix::zeros(4);
    let pairs = [
        (0, 1, ac),
        (0, 2, ag),
        (0, 3, at),
        (1, 2, cg),
        (1, 3, ct),
        (2, 3, gt),
    ];
    for (i, j, r) in pairs {
        s[(i, j)] = r;
        s[(j, i)] = r;
    }
    ReversibleModel::new(DataType::Nucleotide, &s, freqs.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SubstModel;

    /// Closed-form JC69: P_ii = 1/4 + 3/4 e^{-4t/3}, P_ij = 1/4 - 1/4 e^{-4t/3}.
    #[test]
    fn jc69_matches_closed_form() {
        let m = jc69();
        for &t in &[0.01, 0.1, 0.5, 1.0, 2.0] {
            let p = m.transition_matrix(t);
            let e = (-4.0 * t / 3.0f64).exp();
            let same = 0.25 + 0.75 * e;
            let diff = 0.25 - 0.25 * e;
            for i in 0..4 {
                for j in 0..4 {
                    let expect = if i == j { same } else { diff };
                    assert!(
                        (p[(i, j)] - expect).abs() < 1e-10,
                        "t={t} ({i},{j}): {} vs {expect}",
                        p[(i, j)]
                    );
                }
            }
        }
    }

    /// Closed-form K80 with κ: using rate-normalized Q, P for transitions and
    /// transversions has the classic two-exponential form.
    #[test]
    fn k80_transitions_exceed_transversions() {
        let m = k80(5.0);
        let p = m.transition_matrix(0.2);
        // A→G (transition) vs A→C (transversion)
        assert!(p[(0, 2)] > p[(0, 1)] * 2.0);
        // Symmetric under equal frequencies.
        assert!((p[(0, 2)] - p[(2, 0)]).abs() < 1e-12);
    }

    #[test]
    fn k80_kappa_one_is_jc() {
        let k = k80(1.0);
        let j = jc69();
        let pk = k.transition_matrix(0.3);
        let pj = j.transition_matrix(0.3);
        for i in 0..4 {
            for jx in 0..4 {
                assert!((pk[(i, jx)] - pj[(i, jx)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn hky_stationary_frequencies_preserved() {
        let freqs = [0.4, 0.1, 0.2, 0.3];
        let m = hky85(4.0, freqs);
        // πP(t) = π for all t (stationarity).
        let p = m.transition_matrix(0.7);
        for j in 0..4 {
            let pj: f64 = (0..4).map(|i| freqs[i] * p[(i, j)]).sum();
            assert!((pj - freqs[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn gtr_reduces_to_hky() {
        let freqs = [0.3, 0.2, 0.2, 0.3];
        let g = gtr([1.0, 4.0, 1.0, 1.0, 4.0, 1.0], freqs);
        let h = hky85(4.0, freqs);
        let pg = g.transition_matrix(0.4);
        let ph = h.transition_matrix(0.4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((pg[(i, j)] - ph[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rate_matrix_metadata() {
        assert_eq!(RateMatrix::Jc.free_parameters(), 0);
        assert_eq!(RateMatrix::Gtr.free_parameters(), 5);
        assert_eq!(RateMatrix::Hky85.name(), "hky");
    }

    #[test]
    #[should_panic(expected = "invalid kappa")]
    fn bad_kappa_rejected() {
        let _ = k80(0.0);
    }
}
