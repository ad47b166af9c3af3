//! Special functions for the discrete-Γ rate machinery: log-gamma,
//! regularized incomplete gamma, and its inverse.
//!
//! Implementations follow the classic series/continued-fraction split
//! (Numerical Recipes style); accuracy ~1e-12 over the parameter ranges used
//! by rate heterogeneity (α ∈ [0.01, 100]).

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
/// Panics on `a ≤ 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x.is_infinite() {
        return 1.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Series representation, converges fast for x < a+1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction for Q(a,x) = 1 - P(a,x), converges fast for x ≥ a+1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Inverse of `P(a, ·)`: the `p`-quantile of the standard Gamma(a, 1)
/// distribution, found by bisection refined with Newton steps.
///
/// # Panics
/// Panics unless `0 < p < 1` and `a > 0`.
pub fn inv_gamma_p(a: f64, p: f64) -> f64 {
    assert!(a > 0.0, "inv_gamma_p requires a > 0");
    assert!(
        p > 0.0 && p < 1.0,
        "inv_gamma_p requires 0 < p < 1, got {p}"
    );
    // Bracket: expand upper bound until P(a, hi) >= p.
    let mut hi = a.max(1.0);
    while gamma_p(a, hi) < p {
        hi *= 2.0;
        if hi > 1e12 {
            return hi; // essentially the distribution's far tail
        }
    }
    // Bisect in log space: for small shape parameters the low quantiles are
    // astronomically small (x ≈ 1e-40 for a = 0.05, p = 0.01), far below any
    // absolute tolerance.
    let mut lo_ln = -800.0f64; // e^-800 underflows P to 0 for all a of interest
    let mut hi_ln = hi.ln();
    for _ in 0..200 {
        let mid_ln = 0.5 * (lo_ln + hi_ln);
        if gamma_p(a, mid_ln.exp()) < p {
            lo_ln = mid_ln;
        } else {
            hi_ln = mid_ln;
        }
        if hi_ln - lo_ln < 1e-13 {
            break;
        }
    }
    (0.5 * (lo_ln + hi_ln)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_exponential_case() {
        // a = 1: P(1, x) = 1 - e^{-x}.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_p_monotone_and_bounded() {
        for &a in &[0.1, 0.7, 2.0, 9.0] {
            let mut prev = 0.0;
            for i in 1..100 {
                let x = i as f64 * 0.3;
                let p = gamma_p(a, x);
                assert!((0.0..=1.0).contains(&p));
                assert!(p >= prev, "P must be nondecreasing");
                prev = p;
            }
        }
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert_eq!(gamma_p(2.0, f64::INFINITY), 1.0);
    }

    #[test]
    fn inverse_roundtrip() {
        for &a in &[0.05, 0.3, 1.0, 2.5, 20.0] {
            for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
                let x = inv_gamma_p(a, p);
                let back = gamma_p(a, x);
                assert!((back - p).abs() < 1e-9, "a={a} p={p}: got back {back}");
            }
        }
    }

    #[test]
    fn median_of_gamma1_is_ln2() {
        // P(1, x) = 1 - e^{-x} = 0.5 ⇒ x = ln 2.
        assert!((inv_gamma_p(1.0, 0.5) - std::f64::consts::LN_2).abs() < 1e-10);
    }
}
