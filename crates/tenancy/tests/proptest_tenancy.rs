//! Property tests over the tenant book's admission and fair-share
//! invariants.

use proptest::prelude::*;
use simkit::SimTime;
use tenancy::{Quota, TenantBook, TenantId, TenantSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Drive an arbitrary script of submissions, releases, and terminal
    /// results against tenants with arbitrary small quotas. Whatever the
    /// script:
    /// * no tenant's in-flight count (current or peak) ever exceeds its
    ///   `max_in_flight` quota;
    /// * no tenant's admission queue ever exceeds `max_queued`;
    /// * the book's global in-flight/queued totals match the sum over
    ///   tenants (counter consistency).
    #[test]
    fn admission_never_exceeds_quota(
        seed in 0u64..10_000,
        quotas in prop::collection::vec((0u64..5, 1u64..8), 1..5),
        script in prop::collection::vec((0u8..3, 0u64..5), 1..120),
    ) {
        let tenants: Vec<TenantSpec> = quotas
            .iter()
            .enumerate()
            .map(|(i, &(max_in_flight, max_queued))| {
                TenantSpec::registered(&format!("t{i}"), 1.0 + i as f64).with_quota(Quota {
                    max_in_flight,
                    max_queued,
                    max_cpu_hours: None,
                })
            })
            .collect();
        let n = tenants.len() as u64;
        let mut book = TenantBook::default();
        for spec in tenants {
            book.register(spec);
        }
        let mut in_flight: Vec<u64> = Vec::new();
        let mut next_job = 0u64;
        let mut clock = 0u64;
        for (op, pick) in script {
            clock += 1;
            let now = SimTime::from_secs(clock);
            match op {
                0 => {
                    let tenant = TenantId(pick % n);
                    let _ = book.submit(tenant, next_job, 100.0 + seed as f64, now);
                    next_job += 1;
                }
                1 => {
                    for r in book.release(now, 1 + (pick as usize % 4)) {
                        in_flight.push(r.job);
                    }
                }
                _ => {
                    if !in_flight.is_empty() {
                        let job = in_flight.swap_remove(pick as usize % in_flight.len());
                        let credited = pick % 2 == 0;
                        prop_assert!(book.on_terminal(job, 50.0, credited, now).is_some());
                    }
                }
            }
            let mut sum_in_flight = 0u64;
            let mut sum_queued = 0u64;
            let snap = book.snapshot(usize::MAX);
            for t in 0..n {
                let tid = TenantId(t);
                let quota = book.quota_of(tid).unwrap();
                let (current, peak) = book.in_flight_of(tid).unwrap();
                prop_assert!(
                    current <= quota.max_in_flight && peak <= quota.max_in_flight,
                    "tenant {t} over in-flight quota: {current}/{peak} > {}",
                    quota.max_in_flight
                );
                sum_in_flight += current;
                let row = snap.top.iter().find(|row| row.id == t).unwrap();
                prop_assert!(
                    row.queued <= quota.max_queued,
                    "tenant {t} over queue quota: {} > {}",
                    row.queued,
                    quota.max_queued
                );
                sum_queued += row.queued;
            }
            prop_assert_eq!(sum_in_flight, book.in_flight_total());
            prop_assert_eq!(sum_queued, book.queued_total());
        }
    }

    /// Registering tenants never disturbs existing weights, and the sum
    /// of weights visible through the book always equals the sum of the
    /// specs fed in — join/leave of other tenants cannot change a
    /// tenant's configured share.
    #[test]
    fn weights_are_preserved_under_join(
        initial in prop::collection::vec(1u32..100, 1..6),
        joins in prop::collection::vec(1u32..100, 0..6),
    ) {
        let specs: Vec<TenantSpec> = initial
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                TenantSpec::registered(&format!("t{i}"), w as f64).with_quota(Quota::unlimited())
            })
            .collect();
        let mut book = TenantBook::default();
        for spec in specs {
            book.register(spec);
        }
        let mut expected: Vec<f64> = initial.iter().map(|&w| w as f64).collect();
        for (k, &w) in joins.iter().enumerate() {
            let id = book.register(
                TenantSpec::guest(&format!("g{k}@x.org")).with_quota(Quota::unlimited()),
            );
            // Joining must not disturb anyone already registered.
            for (i, &want) in expected.iter().enumerate() {
                prop_assert_eq!(book.weight_of(TenantId(i as u64)).unwrap(), want);
            }
            prop_assert_eq!(book.weight_of(id).unwrap(), 1.0);
            expected.push(1.0);
            let _ = w;
        }
        let total: f64 = (0..expected.len())
            .map(|i| book.weight_of(TenantId(i as u64)).unwrap())
            .sum();
        let want: f64 = expected.iter().sum();
        prop_assert!((total - want).abs() < 1e-9, "weight sum drifted: {total} vs {want}");
    }
}
