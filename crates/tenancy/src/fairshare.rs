//! Fair-share arithmetic: exponentially decayed usage, weight-normalized
//! priorities, and the Jain fairness index.
//!
//! The scheduler follows the classic BOINC/maui recipe: each tenant carries
//! a CPU-seconds usage tally that decays with a fixed half-life, and
//! the next released job comes from the eligible tenant with the smallest
//! `decayed_usage / weight`. Heavy recent users sink in priority, idle
//! tenants float up, and a weight-2 tenant converges to twice the share of
//! a weight-1 tenant under saturating load.
//!
//! # The scaled representation
//!
//! Storing usage decayed-to-`now` would force an O(tenants) refresh per
//! scheduling pass — hopeless at a million accounts. Instead usage is kept
//! in a *scaled* form: a charge of `c` CPU-seconds at sim-time `t` adds
//! `c · 2^(t / half_life)`. The true decayed usage at time `t'` is then
//! `scaled · 2^(-t' / half_life)` — but the **relative order** of
//! `scaled / weight` across tenants never changes between charges, so the
//! priority index needs updating only when a tenant is actually charged.
//! One `exp2` per charge, zero per-tick maintenance, and the magnitudes
//! stay comfortably inside `f64` range for simulated horizons of years
//! (`2^(365 days / 24 h) ≈ 10^110`).
//!
//! # Determinism
//!
//! Everything here is pure `f64` arithmetic on simulation time — no wall
//! clock, no randomness — so a seeded scenario replays the same release
//! order bit for bit.

use simkit::{SimDuration, SimTime};

/// Half-life of the usage decay: after 24 h of sim time, past usage counts
/// half. Shares converge to weight ratios without punishing old use
/// forever.
pub const HALF_LIFE: SimDuration = SimDuration::from_hours(24);

/// Starvation guard: once a tenant's oldest queued job has waited 12 h,
/// the tenant jumps ahead of every priority-ordered peer (boosted tenants
/// drain oldest-head-first). Guarantees every queued job is eventually
/// released no matter how its tenant's share compares.
pub const BOOST_AFTER: SimDuration = SimDuration::from_hours(12);

/// Deadline horizon: a tenant whose campaign deadline is at most 24 h away
/// drains earliest-deadline-first, ahead of share order (but behind the
/// starvation guard). Far-future deadlines exert no pressure until they
/// enter the window, so a deadline a month out does not distort today's
/// shares.
pub const URGENT_WINDOW: SimDuration = SimDuration::from_hours(24);

/// The scale factor for a charge at `t`: `2^(t / half_life)`.
pub fn scale_at(t: SimTime) -> f64 {
    (t.as_secs_f64() / HALF_LIFE.as_secs_f64()).exp2()
}

/// Decay a scaled usage back to real CPU-seconds at `t`
/// (`scaled · 2^(-t / half_life)`); the inverse of [`scale_at`].
pub fn unscale_at(scaled: f64, t: SimTime) -> f64 {
    scaled * (-t.as_secs_f64() / HALF_LIFE.as_secs_f64()).exp2()
}

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 is perfectly fair; `1/n` is one tenant taking
/// everything. Feed it weight-normalized shares (`cpu_i / weight_i`) to
/// measure *weighted* fairness. Empty or all-zero inputs return 1.0 (a
/// grid that served nobody served everybody equally).
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sq_sum: f64 = allocations.iter().map(|x| x * x).sum();
    if sq_sum <= 0.0 {
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_round_trips() {
        let t = SimTime::from_hours(100);
        let scaled = 3600.0 * scale_at(t);
        let back = unscale_at(scaled, t);
        assert!((back - 3600.0).abs() < 1e-6, "{back}");
    }

    #[test]
    fn usage_halves_per_half_life() {
        let charged_at = SimTime::from_hours(0);
        let scaled = 1000.0 * scale_at(charged_at);
        let after_one = unscale_at(scaled, SimTime::from_hours(24));
        let after_two = unscale_at(scaled, SimTime::from_hours(48));
        assert!((after_one - 500.0).abs() < 1e-9, "{after_one}");
        assert!((after_two - 250.0).abs() < 1e-9, "{after_two}");
    }

    #[test]
    fn relative_order_is_time_invariant() {
        // Two charges at different times: whichever scaled value is larger
        // stays larger under any later observation instant.
        let a = 100.0 * scale_at(SimTime::from_hours(1));
        let b = 60.0 * scale_at(SimTime::from_hours(30));
        // b was charged much later, so despite the smaller raw value it
        // dominates once decay is accounted for.
        assert!(b > a);
        for h in [30, 50, 100] {
            let t = SimTime::from_hours(h);
            assert!(unscale_at(b, t) > unscale_at(a, t));
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything: 1/n.
        let skewed = jain_index(&[9.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12, "{skewed}");
        let mid = jain_index(&[4.0, 1.0]);
        assert!(mid > 0.5 && mid < 1.0, "{mid}");
    }
}
