//! Amino-acid substitution models (20 states).
//!
//! Two families:
//!
//! * [`AaModel::poisson`] — the amino-acid analogue of JC69: all
//!   exchangeabilities equal. Has a closed form used by tests.
//! * [`AaModel::empirical`] — a fixed empirical-*style* matrix. Real GARLI
//!   ships WAG/JTT estimated from curated protein databases we do not have;
//!   as documented in DESIGN.md we substitute a deterministic synthetic
//!   matrix with the same *statistical signature* (rates spanning ~3 orders
//!   of magnitude, biased toward biochemically similar pairs via a fixed
//!   similarity kernel, non-uniform frequencies). What the runtime
//!   experiments need — 20-state models are ~25× more work per likelihood
//!   cell than 4-state ones — is preserved exactly.

use super::{MemoBudget, ReversibleModel, SubstModel};
use crate::alphabet::DataType;
use crate::linalg::Matrix;

/// A concrete amino-acid model.
#[derive(Debug, Clone)]
pub struct AaModel {
    inner: ReversibleModel,
    name: &'static str,
}

impl AaModel {
    /// Equal exchangeabilities, equal frequencies (the 20-state "JC").
    pub fn poisson() -> AaModel {
        let s = Matrix::from_fn(20, |i, j| if i == j { 0.0 } else { 1.0 });
        AaModel {
            inner: ReversibleModel::new(DataType::AminoAcid, &s, vec![0.05; 20]),
            name: "Poisson",
        }
    }

    /// Fixed empirical-style matrix (deterministic WAG stand-in; see module
    /// docs and DESIGN.md).
    pub fn empirical() -> AaModel {
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
        AaModel {
            inner: ReversibleModel::new(DataType::AminoAcid, &s, freqs),
            name: "Empirical-20",
        }
    }

    /// Move the `P(t)` memo onto a shared budget
    /// ([`ReversibleModel::share_memo`]).
    pub fn share_memo(&mut self, budget: &MemoBudget) {
        self.inner.share_memo(budget);
    }
}

impl SubstModel for AaModel {
    fn data_type(&self) -> DataType {
        DataType::AminoAcid
    }
    fn frequencies(&self) -> &[f64] {
        self.inner.frequencies()
    }
    fn transition_matrix(&self, t: f64) -> Matrix {
        self.inner.transition_matrix(t)
    }
    fn transition_matrix_into(&self, t: f64, out: &mut [f64]) {
        self.inner.transition_matrix_into(t, out)
    }
    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poisson closed form: P_ii = 1/20 + 19/20·e^{-20t/19},
    /// P_ij = 1/20 − 1/20·e^{-20t/19} (rate-normalized).
    #[test]
    fn poisson_matches_closed_form() {
        let m = AaModel::poisson();
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
        let m = AaModel::empirical();
        let p = m.transition_matrix(0.4);
        for i in 0..20 {
            let row: f64 = (0..20).map(|j| p[(i, j)]).sum();
            assert!((row - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn empirical_detailed_balance() {
        let m = AaModel::empirical();
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
        let m = AaModel::empirical();
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
        for m in [AaModel::poisson(), AaModel::empirical()] {
            let sum: f64 = m.frequencies().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}", m.name());
            assert!(m.frequencies().iter().all(|&f| f > 0.0));
        }
    }
}
