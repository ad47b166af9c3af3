//! Amino-acid substitution models (20 states).
//!
//! Two families:
//!
//! * [`poisson`] — the amino-acid analogue of JC69: all
//!   exchangeabilities equal. Has a closed form used by tests.
//! * [`empirical`] — a fixed empirical-*style* matrix. Real GARLI
//!   ships WAG/JTT estimated from curated protein databases we do not have;
//!   as documented in DESIGN.md we substitute a deterministic synthetic
//!   matrix with the same *statistical signature* (rates spanning ~3 orders
//!   of magnitude, biased toward biochemically similar pairs via a fixed
//!   similarity kernel, non-uniform frequencies). What the runtime
//!   experiments need — 20-state models are ~25× more work per likelihood
//!   cell than 4-state ones — is preserved exactly.

use super::ReversibleModel;
use crate::alphabet::DataType;
use crate::linalg::Matrix;

/// Equal exchangeabilities, equal frequencies (the 20-state "JC").
pub fn poisson() -> ReversibleModel {
    let s = Matrix::from_fn(20, |i, j| if i == j { 0.0 } else { 1.0 });
    ReversibleModel::new(DataType::AminoAcid, &s, vec![0.05; 20])
}

/// Fixed empirical-style matrix (deterministic WAG stand-in; see module
/// docs and DESIGN.md).
pub fn empirical() -> ReversibleModel {
    // Deterministic "similarity kernel": rate_ij = exp(3·cos(φ_i − φ_j))
    // with per-residue phases spread over the circle, scaled by a
    // deterministic per-pair jitter. Produces rates spanning ~e⁶ ≈ 400×,
    // like real empirical matrices.
    let phase = |i: usize| i as f64 * 2.0 * std::f64::consts::PI / 20.0 * 7.0; // stride 7 mixes neighbours
    let s = Matrix::from_fn(20, |i, j| {
        if i == j {
            0.0
        } else {
            let (a, b) = (i.min(j), i.max(j));
            let sim = (phase(a) - phase(b)).cos();
            let jitter = (((a * 31 + b * 17) % 97) as f64 / 97.0) * 0.8 + 0.6;
            (3.0 * sim).exp() * jitter
        }
    });
    // Non-uniform frequencies, normalized: freq_k ∝ 2 + sin(k).
    let raw: Vec<f64> = (0..20).map(|k| 2.0 + (k as f64).sin()).collect();
    let total: f64 = raw.iter().sum();
    let freqs: Vec<f64> = raw.into_iter().map(|f| f / total).collect();
    ReversibleModel::new(DataType::AminoAcid, &s, freqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SubstModel;

    /// Poisson closed form: P_ii = 1/20 + 19/20·e^{-20t/19},
    /// P_ij = 1/20 − 1/20·e^{-20t/19} (rate-normalized).
    #[test]
    fn poisson_matches_closed_form() {
        let m = poisson();
        for &t in &[0.05, 0.3, 1.0] {
            let p = m.transition_matrix(t);
            let e = (-20.0 * t / 19.0f64).exp();
            let same = 0.05 + 0.95 * e;
            let diff = 0.05 - 0.05 * e;
            for i in 0..20 {
                for j in 0..20 {
                    let expect = if i == j { same } else { diff };
                    assert!((p[(i, j)] - expect).abs() < 1e-9, "t={t} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn empirical_rows_sum_to_one() {
        let m = empirical();
        let p = m.transition_matrix(0.4);
        for i in 0..20 {
            let row: f64 = (0..20).map(|j| p[(i, j)]).sum();
            assert!((row - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn empirical_detailed_balance() {
        let m = empirical();
        let p = m.transition_matrix(0.2);
        let f = m.frequencies();
        for i in 0..20 {
            for j in 0..20 {
                assert!((f[i] * p[(i, j)] - f[j] * p[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empirical_rates_span_orders_of_magnitude() {
        // Indirect check: at small t the off-diagonal transition probabilities
        // inherit the rate spread.
        let m = empirical();
        let p = m.transition_matrix(0.01);
        let mut offs: Vec<f64> = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                if i != j {
                    offs.push(p[(i, j)]);
                }
            }
        }
        let max = offs.iter().cloned().fold(0.0f64, f64::max);
        let min = offs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 50.0, "spread only {}", max / min);
    }

    #[test]
    fn frequencies_form_distribution() {
        for m in [poisson(), empirical()] {
            let sum: f64 = m.frequencies().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(m.frequencies().iter().all(|&f| f > 0.0));
        }
    }
}
