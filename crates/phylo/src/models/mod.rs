//! Substitution models and among-site rate heterogeneity.
//!
//! All models here are time-reversible: a symmetric exchangeability matrix
//! `S` plus stationary frequencies `π` define the rate matrix
//! `Q_ij = S_ij π_j` (i ≠ j), normalized so the expected substitution rate at
//! stationarity is one per unit branch length. Every model is a
//! [`ReversibleModel`], which does the numerical work (symmetrization,
//! eigendecomposition, `P(t) = e^{Qt}` assembly); the submodules hold what
//! differs between the families and construct their models:
//!
//! * [`nucleotide`] — JC69, K80, HKY85, GTR (4 states)
//! * [`aminoacid`] — Poisson and a fixed empirical-style matrix (20 states)
//! * [`codon`] — Goldman–Yang style κ/ω model over 61 sense codons
//!
//! Rate heterogeneity across sites is modeled by [`SiteRates`]: a discrete
//! approximation of the Γ distribution (Yang 1994), optionally mixed with a
//! proportion of invariant sites. In the paper's runtime study, the rate
//! heterogeneity model is the *single most important* predictor of GARLI
//! runtime (Fig. 2: 89.7 % increase in MSE) — each Γ category multiplies the
//! likelihood work.

pub mod aminoacid;
pub mod codon;
pub mod nucleotide;
pub mod special;

use crate::alphabet::DataType;
use crate::linalg::{sym_eigen, Matrix, SymEigen};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A time-reversible substitution process over some alphabet.
///
/// [`ReversibleModel`] is its one implementor, and the likelihood kernel and
/// the simulator take that type; the trait names the methods they read.
pub trait SubstModel {
    /// Alphabet of the process.
    fn data_type(&self) -> DataType;

    /// Number of character states.
    fn num_states(&self) -> usize {
        self.data_type().num_states()
    }

    /// Stationary state frequencies (sum to 1).
    fn frequencies(&self) -> &[f64];

    /// Transition probability matrix `P(t) = e^{Qt}` for branch length `t`
    /// (expected substitutions per site).
    fn transition_matrix(&self, t: f64) -> Matrix;

    /// [`SubstModel::transition_matrix`] written row-major into `out`
    /// (`num_states²` entries): the form the likelihood kernel reads, with
    /// no allocation when the matrix is memoized.
    fn transition_matrix_into(&self, t: f64, out: &mut [f64]);
}

/// Matrices the `P(t)` memos sharing one [`MemoBudget`] hold together before
/// they are all cleared: 4,096 matrices, 122 MB at 61 codon states.
const MEMO_CAPACITY: usize = 4096;

/// One bounded `P(t)` memo shared by several models.
///
/// Entries are keyed by the owning model and the bits of `t`, so a model
/// only ever reads its own matrices; the capacity bounds all of them
/// together. Every model starts with a budget of its own;
/// [`ReversibleModel::share_memo`] moves it onto a shared one, as a search
/// does for the models of its live parameter sets. Dropping a model removes
/// its entries.
#[derive(Debug, Clone, Default)]
pub struct MemoBudget(Arc<Mutex<MemoPool>>);

#[derive(Debug, Default)]
struct MemoPool {
    next_id: u64,
    entries: HashMap<(u64, u64), Matrix>,
}

impl MemoBudget {
    /// A fresh id for a model joining this budget.
    fn join(&self) -> u64 {
        let mut pool = self.0.lock();
        pool.next_id += 1;
        pool.next_id
    }

    /// Drop every entry of model `id`.
    fn leave(&self, id: u64) {
        self.0.lock().entries.retain(|&(owner, _), _| owner != id);
    }

    /// Copy model `id`'s memoized `P(t)` into `out`; false if absent.
    fn copy_out(&self, id: u64, t_bits: u64, out: &mut [f64]) -> bool {
        match self.0.lock().entries.get(&(id, t_bits)) {
            Some(p) => {
                out.copy_from_slice(p.as_slice());
                true
            }
            None => false,
        }
    }

    fn insert(&self, id: u64, t_bits: u64, p: Matrix) {
        let mut pool = self.0.lock();
        if pool.entries.len() >= MEMO_CAPACITY {
            pool.entries.clear(); // bounded memory; searches revisit few lengths
        }
        pool.entries.insert((id, t_bits), p);
    }

    /// Matrices currently held across every model on this budget.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.lock().entries.len()
    }
}

/// A reversible substitution model of any family: diagonalize once,
/// exponentiate per branch. The [`nucleotide`], [`aminoacid`] and [`codon`]
/// constructors build one per family.
///
/// Transition matrices are memoized per branch length: a GA search changes
/// one branch per mutation, so almost every `P(t)` it asks for was already
/// computed — the same observation that motivates BEAGLE's caching of
/// likelihood intermediates (paper §II.A). The memo belongs to this model
/// (another model never reads its matrices), but its size bound is a
/// [`MemoBudget`] that a search shares among the models of all its live
/// parameter sets, so several models together hold no more than one model
/// may alone. It is thread-safe; a hit copies the matrix out, which is far
/// cheaper than re-assembling it from the eigensystem, especially at 61
/// codon states.
#[derive(Debug)]
pub struct ReversibleModel {
    data_type: DataType,
    freqs: Vec<f64>,
    eigen: SymEigen,
    sqrt_pi: Vec<f64>,
    inv_sqrt_pi: Vec<f64>,
    memo: MemoBudget,
    memo_id: u64,
}

impl Clone for ReversibleModel {
    /// A clone starts with an empty memo on a budget of its own.
    fn clone(&self) -> Self {
        let memo = MemoBudget::default();
        ReversibleModel {
            data_type: self.data_type,
            freqs: self.freqs.clone(),
            eigen: self.eigen.clone(),
            sqrt_pi: self.sqrt_pi.clone(),
            inv_sqrt_pi: self.inv_sqrt_pi.clone(),
            memo_id: memo.join(),
            memo,
        }
    }
}

impl Drop for ReversibleModel {
    fn drop(&mut self) {
        self.memo.leave(self.memo_id);
    }
}

impl ReversibleModel {
    /// Build from symmetric exchangeabilities `s` (only the off-diagonal is
    /// read) and stationary frequencies.
    ///
    /// # Panics
    /// Panics if dimensions disagree, frequencies are not a positive
    /// probability vector, or exchangeabilities are negative/asymmetric.
    pub fn new(data_type: DataType, s: &Matrix, freqs: Vec<f64>) -> ReversibleModel {
        let n = data_type.num_states();
        assert_eq!(s.n(), n, "exchangeability dimension mismatch");
        assert_eq!(freqs.len(), n, "frequency dimension mismatch");
        let total: f64 = freqs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "frequencies must sum to 1, got {total}"
        );
        assert!(
            freqs.iter().all(|&f| f > 0.0),
            "frequencies must be positive"
        );
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(s[(i, j)] >= 0.0, "negative exchangeability at ({i},{j})");
                assert!(
                    (s[(i, j)] - s[(j, i)]).abs() < 1e-9,
                    "exchangeabilities must be symmetric"
                );
            }
        }

        // Q_ij = s_ij π_j, diagonal = -Σ, then normalize mean rate to 1.
        let mut q = Matrix::zeros(n);
        for i in 0..n {
            let mut row = 0.0;
            for j in 0..n {
                if i != j {
                    q[(i, j)] = s[(i, j)] * freqs[j];
                    row += q[(i, j)];
                }
            }
            q[(i, i)] = -row;
        }
        let mu: f64 = (0..n).map(|i| -freqs[i] * q[(i, i)]).sum();
        assert!(mu > 0.0, "degenerate rate matrix (no substitutions)");

        // Symmetrize: B = D^{1/2} Q D^{-1/2} with D = diag(π).
        let sqrt_pi: Vec<f64> = freqs.iter().map(|f| f.sqrt()).collect();
        let inv_sqrt_pi: Vec<f64> = sqrt_pi.iter().map(|s| 1.0 / s).collect();
        let b = Matrix::from_fn(n, |i, j| sqrt_pi[i] * (q[(i, j)] / mu) * inv_sqrt_pi[j]);
        let eigen = sym_eigen(&b);

        let memo = MemoBudget::default();
        ReversibleModel {
            data_type,
            freqs,
            eigen,
            sqrt_pi,
            inv_sqrt_pi,
            memo_id: memo.join(),
            memo,
        }
    }

    /// Move this model's memo onto `budget` (emptying it), so its matrices
    /// count against the bound shared by every model on that budget.
    pub fn share_memo(&mut self, budget: &MemoBudget) {
        self.memo.leave(self.memo_id);
        self.memo = budget.clone();
        self.memo_id = budget.join();
    }

    /// Assemble `P(t)` from the eigensystem. Each entry sums
    /// `(v_ik · e^{λ_k t}) · v_jk` over ascending `k`; the bracketed factor
    /// `w_ik` does not depend on `j`, so it is formed once per `(i, k)`
    /// rather than once per entry, leaving every term's bits as they were.
    fn compute_transition_matrix(&self, t: f64) -> Matrix {
        let n = self.freqs.len();
        let v = &self.eigen.vectors;
        let exp_lam: Vec<f64> = self.eigen.values.iter().map(|l| (l * t).exp()).collect();
        let w = Matrix::from_fn(n, |i, k| v[(i, k)] * exp_lam[k]);
        let mut p = Matrix::zeros(n);
        for i in 0..n {
            let wi = w.row(i);
            for j in 0..n {
                let mut acc = 0.0;
                for (a, b) in wi.iter().zip(v.row(j)) {
                    acc += a * b;
                }
                let val = self.inv_sqrt_pi[i] * acc * self.sqrt_pi[j];
                // Numerical noise can push entries slightly outside [0,1].
                p[(i, j)] = val.clamp(0.0, 1.0);
            }
        }
        p
    }

    /// The assembly loop as first written, one `v_ik · e^{λ_k t} · v_jk`
    /// per term: the bit-for-bit reference for the hoisted form.
    #[cfg(test)]
    fn reference_transition_matrix(&self, t: f64) -> Matrix {
        let n = self.freqs.len();
        let v = &self.eigen.vectors;
        let exp_lam: Vec<f64> = self.eigen.values.iter().map(|l| (l * t).exp()).collect();
        let mut p = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += v[(i, k)] * exp_lam[k] * v[(j, k)];
                }
                let val = self.inv_sqrt_pi[i] * acc * self.sqrt_pi[j];
                p[(i, j)] = val.clamp(0.0, 1.0);
            }
        }
        p
    }
}

impl SubstModel for ReversibleModel {
    fn data_type(&self) -> DataType {
        self.data_type
    }

    fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// `P(t) = D^{-1/2} V e^{Λt} Vᵀ D^{1/2}`, entries clamped to `[0, 1]`,
    /// memoized per branch length.
    fn transition_matrix(&self, t: f64) -> Matrix {
        let mut p = Matrix::zeros(self.freqs.len());
        self.transition_matrix_into(t, p.as_mut_slice());
        p
    }

    /// Copies the memoized matrix out, or assembles and memoizes it.
    ///
    /// # Panics
    /// Panics if `t` is negative or not finite, or `out` is not `n²` long.
    fn transition_matrix_into(&self, t: f64, out: &mut [f64]) {
        assert!(t.is_finite() && t >= 0.0, "invalid branch length {t}");
        if self.memo.copy_out(self.memo_id, t.to_bits(), out) {
            return;
        }
        let p = self.compute_transition_matrix(t);
        out.copy_from_slice(p.as_slice());
        self.memo.insert(self.memo_id, t.to_bits(), p);
    }
}

// ---------------------------------------------------------------------------
// Rate heterogeneity
// ---------------------------------------------------------------------------

/// A discrete distribution of per-site rate multipliers with mean 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteRates {
    /// `(rate, probability)` pairs; probabilities sum to 1, mean rate is 1.
    categories: Vec<(f64, f64)>,
}

impl SiteRates {
    /// A single rate of 1 (no heterogeneity).
    pub fn uniform() -> SiteRates {
        SiteRates {
            categories: vec![(1.0, 1.0)],
        }
    }

    /// Yang (1994) equal-probability discrete Γ with `ncat` categories and
    /// shape `alpha`, mean normalized to exactly 1.
    ///
    /// # Panics
    /// Panics if `ncat == 0` or `alpha` is not finite-positive.
    pub fn gamma(ncat: usize, alpha: f64) -> SiteRates {
        assert!(ncat >= 1, "need at least one category");
        assert!(alpha.is_finite() && alpha > 0.0, "invalid alpha {alpha}");
        if ncat == 1 {
            return SiteRates::uniform();
        }
        // Category boundaries are quantiles of Gamma(shape=α, rate=α);
        // category means use the incomplete-gamma mean formula.
        let k = ncat as f64;
        let mut rates = Vec::with_capacity(ncat);
        let mut lo = 0.0; // boundary in standard Gamma(α, 1) space
        for i in 0..ncat {
            let hi = if i + 1 == ncat {
                f64::INFINITY
            } else {
                special::inv_gamma_p(alpha, (i + 1) as f64 / k)
            };
            let p_hi = if hi.is_infinite() {
                1.0
            } else {
                special::gamma_p(alpha + 1.0, hi)
            };
            let p_lo = if lo == 0.0 {
                0.0
            } else {
                special::gamma_p(alpha + 1.0, lo)
            };
            rates.push(k * (p_hi - p_lo));
            lo = hi;
        }
        // Exact renormalization of residual numerical error.
        let mean: f64 = rates.iter().sum::<f64>() / k;
        let categories = rates.into_iter().map(|r| (r / mean, 1.0 / k)).collect();
        SiteRates { categories }
    }

    /// Proportion `pinv` of invariant sites, remaining sites at a single
    /// rate scaled to keep the mean at 1.
    ///
    /// # Panics
    /// Panics unless `0 ≤ pinv < 1`.
    pub fn invariant(pinv: f64) -> SiteRates {
        assert!((0.0..1.0).contains(&pinv), "invalid pinv {pinv}");
        if pinv == 0.0 {
            return SiteRates::uniform();
        }
        SiteRates {
            categories: vec![(0.0, pinv), (1.0 / (1.0 - pinv), 1.0 - pinv)],
        }
    }

    /// Γ + invariant-sites mixture (GARLI `invgamma`).
    ///
    /// # Panics
    /// Panics on invalid `ncat`, `alpha`, or `pinv`.
    pub fn gamma_inv(ncat: usize, alpha: f64, pinv: f64) -> SiteRates {
        assert!((0.0..1.0).contains(&pinv), "invalid pinv {pinv}");
        if pinv == 0.0 {
            return SiteRates::gamma(ncat, alpha);
        }
        let g = SiteRates::gamma(ncat, alpha);
        let mut categories = vec![(0.0, pinv)];
        for (r, p) in g.categories {
            categories.push((r / (1.0 - pinv), p * (1.0 - pinv)));
        }
        SiteRates { categories }
    }

    /// The `(rate, probability)` categories.
    pub fn categories(&self) -> &[(f64, f64)] {
        &self.categories
    }

    /// Number of categories (likelihood work scales linearly in this).
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    /// Mean rate (should be 1 up to rounding).
    pub fn mean_rate(&self) -> f64 {
        self.categories.iter().map(|(r, p)| r * p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_matrix_rows_sum_to_one() {
        let m = nucleotide::jc69();
        for &t in &[0.0, 0.01, 0.1, 1.0, 10.0] {
            let p = m.transition_matrix(t);
            for i in 0..4 {
                let row: f64 = (0..4).map(|j| p[(i, j)]).sum();
                assert!((row - 1.0).abs() < 1e-9, "row {i} sums to {row} at t={t}");
            }
        }
    }

    #[test]
    fn p_zero_is_identity() {
        let m = nucleotide::hky85(3.0, [0.3, 0.2, 0.2, 0.3]);
        let p = m.transition_matrix(0.0);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((p[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn p_infinity_approaches_frequencies() {
        let freqs = [0.4, 0.3, 0.2, 0.1];
        let m = nucleotide::hky85(2.0, freqs);
        let p = m.transition_matrix(500.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((p[(i, j)] - freqs[j]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn detailed_balance_holds() {
        let freqs = [0.35, 0.15, 0.25, 0.25];
        let m = nucleotide::gtr([1.2, 2.5, 0.7, 1.1, 3.0, 1.0], freqs);
        let p = m.transition_matrix(0.3);
        for i in 0..4 {
            for j in 0..4 {
                let lhs = freqs[i] * p[(i, j)];
                let rhs = freqs[j] * p[(j, i)];
                assert!(
                    (lhs - rhs).abs() < 1e-9,
                    "π_i P_ij != π_j P_ji at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn branch_length_calibration() {
        // With rate normalized to 1, expected substitutions over t=0.1 is 0.1:
        // Σ_i π_i (1 - P_ii(t)) ≈ t for small t.
        let m = nucleotide::jc69();
        let t = 0.01;
        let p = m.transition_matrix(t);
        let sub: f64 = (0..4).map(|i| 0.25 * (1.0 - p[(i, i)])).sum();
        assert!((sub - t).abs() < t * 0.05, "subs = {sub}, expected ≈ {t}");
    }

    #[test]
    fn gamma_rates_mean_one_and_monotone() {
        for &alpha in &[0.1, 0.5, 1.0, 2.0, 10.0] {
            for &ncat in &[2usize, 4, 8] {
                let sr = SiteRates::gamma(ncat, alpha);
                assert_eq!(sr.num_categories(), ncat);
                assert!(
                    (sr.mean_rate() - 1.0).abs() < 1e-9,
                    "mean != 1 for α={alpha}"
                );
                let rates: Vec<f64> = sr.categories().iter().map(|c| c.0).collect();
                for w in rates.windows(2) {
                    assert!(w[0] < w[1], "rates must increase: {rates:?}");
                }
            }
        }
    }

    #[test]
    fn small_alpha_is_more_skewed() {
        let lo = SiteRates::gamma(4, 0.2);
        let hi = SiteRates::gamma(4, 5.0);
        let spread = |sr: &SiteRates| {
            let r: Vec<f64> = sr.categories().iter().map(|c| c.0).collect();
            r[3] / r[0].max(1e-12)
        };
        assert!(spread(&lo) > spread(&hi) * 10.0);
    }

    #[test]
    fn invariant_mixture_mean_one() {
        let sr = SiteRates::invariant(0.3);
        assert_eq!(sr.num_categories(), 2);
        assert!((sr.mean_rate() - 1.0).abs() < 1e-12);
        assert_eq!(sr.categories()[0], (0.0, 0.3));
    }

    #[test]
    fn gamma_inv_mixture() {
        let sr = SiteRates::gamma_inv(4, 0.5, 0.2);
        assert_eq!(sr.num_categories(), 5);
        assert!((sr.mean_rate() - 1.0).abs() < 1e-9);
        let total_p: f64 = sr.categories().iter().map(|c| c.1).sum();
        assert!((total_p - 1.0).abs() < 1e-12);
    }

    /// A random reversible model over `data_type`.
    fn random_reversible(data_type: DataType, rng: &mut simkit::SimRng) -> ReversibleModel {
        let n = data_type.num_states();
        let mut s = Matrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let r = rng.range_f64(0.05, 4.0);
                s[(i, j)] = r;
                s[(j, i)] = r;
            }
        }
        let f: Vec<f64> = (0..n).map(|_| rng.range_f64(0.2, 1.0)).collect();
        let total: f64 = f.iter().sum();
        ReversibleModel::new(data_type, &s, f.into_iter().map(|x| x / total).collect())
    }

    /// Hoisting `v_ik · e^{λ_k t}` out of the `j` loop leaves every entry
    /// of `P(t)` bit-identical, at 4, 20 and 61 states.
    #[test]
    fn hoisted_assembly_matches_reference_bits() {
        let mut rng = simkit::SimRng::new(61);
        for dt in DataType::ALL {
            let m = random_reversible(dt, &mut rng);
            for step in 0..300 {
                let t = match step {
                    0 => 0.0,
                    _ => rng.range_f64(0.0, 1.0).powi(3) * 8.0,
                };
                let got = m.compute_transition_matrix(t);
                let want = m.reference_transition_matrix(t);
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{dt} at t = {t}");
                }
            }
        }
    }

    #[test]
    fn memo_hits_return_the_computed_matrix() {
        let m = random_reversible(DataType::AminoAcid, &mut simkit::SimRng::new(3));
        let first = m.transition_matrix(0.37);
        let mut out = vec![0.0; 400];
        m.transition_matrix_into(0.37, &mut out);
        assert_eq!(first.as_slice(), &out[..]);
        assert_eq!(m.transition_matrix(0.37), m.compute_transition_matrix(0.37));
    }

    /// Models on one budget hold at most the cap between them, each reads
    /// only its own matrices, and a dropped model takes its entries along.
    #[test]
    fn shared_budget_bounds_all_models_together() {
        let mut rng = simkit::SimRng::new(4);
        let budget = MemoBudget::default();
        let mut a = random_reversible(DataType::Nucleotide, &mut rng);
        let mut b = random_reversible(DataType::Nucleotide, &mut rng);
        a.transition_matrix(0.5);
        a.share_memo(&budget);
        b.share_memo(&budget);
        assert_eq!(budget.len(), 0, "joining a budget starts an empty memo");
        // Same t, different models: two entries, each its own matrix.
        assert_eq!(a.transition_matrix(0.1), a.compute_transition_matrix(0.1));
        assert_eq!(b.transition_matrix(0.1), b.compute_transition_matrix(0.1));
        assert_ne!(a.transition_matrix(0.1), b.transition_matrix(0.1));
        assert_eq!(budget.len(), 2);
        for i in 0..3000 {
            a.transition_matrix(1.0 + i as f64);
            b.transition_matrix(1.0 + i as f64);
            assert!(budget.len() <= MEMO_CAPACITY);
        }
        let held = budget.len();
        drop(a);
        assert!(budget.len() < held && budget.len() <= held / 2 + 1);
        let before = budget.len();
        let c = b.clone();
        c.transition_matrix(0.25);
        assert_eq!(budget.len(), before, "a clone memoizes on its own budget");
    }

    #[test]
    fn single_category_gamma_is_uniform() {
        assert_eq!(SiteRates::gamma(1, 0.5), SiteRates::uniform());
    }
}
