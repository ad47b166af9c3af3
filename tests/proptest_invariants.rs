//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random topologies always satisfy the structural invariants, have the
    /// canonical node count, and n−3 non-trivial splits.
    #[test]
    fn random_trees_are_well_formed(n in 4usize..40, seed in 0u64..10_000) {
        let mut rng = simkit::SimRng::new(seed);
        let t = phylo::tree::Tree::random_topology(n, &mut rng);
        t.check_invariants();
        prop_assert_eq!(t.num_nodes(), 2 * n - 2);
        prop_assert_eq!(t.splits().len(), n - 3);
    }

    /// Newick serialization round-trips both topology and total length.
    #[test]
    fn newick_roundtrip(n in 4usize..25, seed in 0u64..10_000) {
        let mut rng = simkit::SimRng::new(seed);
        let t = phylo::tree::Tree::random_topology(n, &mut rng);
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let nwk = phylo::newick::to_newick(&t, &refs);
        let back = phylo::newick::parse_newick(&nwk, &refs).unwrap();
        prop_assert!(t.same_topology(&back));
        prop_assert!((t.tree_length() - back.tree_length()).abs() < 1e-9);
    }

    /// NNI moves preserve invariants and change RF distance by exactly 2.
    #[test]
    fn nni_changes_exactly_one_split(n in 5usize..25, seed in 0u64..10_000) {
        let mut rng = simkit::SimRng::new(seed);
        let t = phylo::tree::Tree::random_topology(n, &mut rng);
        let edges = t.internal_edge_nodes();
        prop_assume!(!edges.is_empty());
        let mut u = t.clone();
        let v = edges[rng.index(edges.len())];
        u.nni(v, rng.index(2));
        u.check_invariants();
        prop_assert_eq!(t.robinson_foulds(&u), 2);
    }

    /// SPR preserves the taxon set and invariants, whatever the move.
    #[test]
    fn spr_preserves_taxa(n in 5usize..20, seed in 0u64..10_000) {
        let mut rng = simkit::SimRng::new(seed);
        let mut t = phylo::tree::Tree::random_topology(n, &mut rng);
        let nodes = t.edge_nodes();
        let prune = nodes[rng.index(nodes.len())];
        let graft = nodes[rng.index(nodes.len())];
        let _ = t.spr(prune, graft);
        t.check_invariants();
        prop_assert_eq!(t.subtree_taxa(t.root()), (0..n).collect::<Vec<_>>());
    }

    /// RF distance is a pseudo-metric: symmetric, zero on self.
    #[test]
    fn rf_symmetric(n in 4usize..15, s1 in 0u64..3000, s2 in 0u64..3000) {
        let mut r1 = simkit::SimRng::new(s1);
        let mut r2 = simkit::SimRng::new(s2);
        let a = phylo::tree::Tree::random_topology(n, &mut r1);
        let b = phylo::tree::Tree::random_topology(n, &mut r2);
        prop_assert_eq!(a.robinson_foulds(&b), b.robinson_foulds(&a));
        prop_assert_eq!(a.robinson_foulds(&a), 0);
    }
}

// ---------------------------------------------------------------------------
// Models and rates
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Discrete-Γ site rates always have mean 1 and increasing categories.
    #[test]
    fn gamma_rates_mean_one(ncat in 2usize..12, alpha in 0.05f64..20.0) {
        let sr = phylo::models::SiteRates::gamma(ncat, alpha);
        prop_assert!((sr.mean_rate() - 1.0).abs() < 1e-6);
        let rates: Vec<f64> = sr.categories().iter().map(|c| c.0).collect();
        for w in rates.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Transition matrices are stochastic for arbitrary GTR parameters.
    #[test]
    fn gtr_rows_stochastic(
        r in prop::array::uniform6(0.1f64..5.0),
        t in 0.0f64..5.0,
    ) {
        let m = phylo::models::nucleotide::gtr(r, [0.25; 4]);
        use phylo::models::SubstModel;
        let p = m.transition_matrix(t);
        for i in 0..4 {
            let row: f64 = (0..4).map(|j| p[(i, j)]).sum();
            prop_assert!((row - 1.0).abs() < 1e-8);
            for j in 0..4 {
                prop_assert!((0.0..=1.0).contains(&p[(i, j)]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Portal batching & bundling
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batches exactly partition the replicate range.
    #[test]
    fn batches_partition(total in 1usize..5000, size in 1usize..300) {
        let batches = portal::batch::split_into_batches(total, size);
        let sum: usize = batches.iter().map(|b| b.len()).sum();
        prop_assert_eq!(sum, total);
        for w in batches.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        prop_assert!(batches.iter().all(|b| b.len() <= size && !b.is_empty()));
    }

    /// Capacity-weighted batching is exact and respects zero weights.
    #[test]
    fn capacity_batches_exact(total in 1usize..2000, w1 in 0.0f64..10.0, w2 in 0.1f64..10.0) {
        let parts = portal::batch::split_by_capacity(total, &[w1, w2]);
        let sum: usize = parts.iter().map(|(_, b)| b.len()).sum();
        prop_assert_eq!(sum, total);
    }

    /// Bundle sizes always satisfy the overhead target or hit the cap.
    #[test]
    fn bundling_meets_overhead_target(est in 0.5f64..50_000.0) {
        let policy = lattice::bundling::BundlingPolicy::default();
        let k = policy.bundle_size(est);
        prop_assert!(k >= 1 && k <= policy.max_bundle);
        if k < policy.max_bundle {
            prop_assert!(
                policy.overhead_fraction(k, est) <= policy.max_overhead_fraction + 1e-9
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Simulation kernel
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The calendar delivers any schedule in nondecreasing time order.
    #[test]
    fn calendar_orders_events(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cal = simkit::Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(simkit::SimTime::from_micros(t), i);
        }
        let mut last = simkit::SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = cal.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Welford tallies match naive statistics.
    #[test]
    fn tally_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut t = simkit::stats::Tally::new();
        for &x in &xs {
            t.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((t.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((t.variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    }
}

// ---------------------------------------------------------------------------
// Grid fault tolerance
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random outage scripts against a mixed checkpointable workload with
    /// recovery on: no job is lost or completed twice, and the wasted-CPU
    /// account only ever grows as the simulation advances.
    #[test]
    fn chaos_conserves_jobs_and_waste_is_monotone(
        seed in 0u64..5_000,
        fault_events in 1usize..12,
        n_jobs in 5usize..30,
    ) {
        use gridsim::grid::{Grid, GridConfig};
        use gridsim::job::{JobOutcome, JobSpec};
        use gridsim::resource::{ResourceKind, ResourceSpec};
        use simkit::{SimDuration, SimRng, SimTime};

        let config = GridConfig {
            resources: vec![
                // Fault-free harbour so the workload can always finish.
                ResourceSpec::cluster("safe", ResourceKind::PbsCluster, 6, 1.0),
                ResourceSpec::cluster("chaotic-a", ResourceKind::PbsCluster, 12, 1.5),
                ResourceSpec::condor_pool("chaotic-b", 16, 1.2, 10.0),
            ],
            max_local_retries: 1,
            recovery: Some(gridsim::RecoveryPolicy::default()),
            seed,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut frng = SimRng::new(seed ^ 0xFA11);
        grid.inject_faults(gridsim::fault::random_faults(
            &mut frng,
            &[1, 2],
            SimDuration::from_hours(24),
            fault_events,
        ));
        let mut wrng = SimRng::new(seed ^ 0x90B5);
        grid.submit((0..n_jobs as u64).map(|id| {
            let secs = wrng.range_f64(0.25, 4.0) * 3600.0;
            let mut job = JobSpec::simple(id, secs).with_estimate(secs);
            job.checkpointable = id % 2 == 0;
            job
        }));

        // Two-stage run: the mid-flight report must show a wasted-CPU value
        // the final report never undercuts (waste is never un-booked).
        let mid = grid.run_until_done(SimTime::from_hours(6));
        let fin = grid.run_until_done(SimTime::from_days(60));
        prop_assert!(
            fin.wasted_cpu_seconds >= mid.wasted_cpu_seconds - 1e-6,
            "waste shrank: {} -> {}", mid.wasted_cpu_seconds, fin.wasted_cpu_seconds
        );

        // Conservation: every job in exactly one terminal state, no dupes.
        prop_assert_eq!(fin.total_jobs, n_jobs);
        prop_assert_eq!(fin.completed + fin.dead_lettered, n_jobs);
        prop_assert_eq!(fin.unfinished, 0);
        let mut ids: Vec<u64> = fin.records.iter().map(|r| r.spec.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n_jobs, "duplicate job records");
        let terminal = fin
            .records
            .iter()
            .filter(|r| r.outcome != JobOutcome::Unfinished)
            .count();
        prop_assert_eq!(terminal, n_jobs);
    }
}

// ---------------------------------------------------------------------------
// Whole-grid snapshot/restore
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary seeded grid states — random fault storms, mixed
    /// checkpointable workloads, killed at an arbitrary mid-flight instant —
    /// snapshot → restore → snapshot is byte-stable, and restoring never
    /// resurrects a completed or dead-lettered job (nor loses or invents
    /// one).
    #[test]
    fn snapshot_restore_is_byte_stable_and_conserves_jobs(
        seed in 0u64..5_000,
        fault_events in 1usize..10,
        n_jobs in 5usize..25,
        kill_after_mins in 10u64..720,
    ) {
        use gridsim::grid::{Grid, GridConfig};
        use gridsim::job::{JobOutcome, JobSpec};
        use gridsim::resource::{ResourceKind, ResourceSpec};
        use simkit::{SimDuration, SimRng, SimTime, Snapshot};
        use std::collections::BTreeMap;

        let config = GridConfig {
            resources: vec![
                ResourceSpec::cluster("safe", ResourceKind::PbsCluster, 6, 1.0),
                ResourceSpec::condor_pool("chaotic", 16, 1.2, 10.0),
            ],
            max_local_retries: 1,
            recovery: Some(gridsim::RecoveryPolicy::default()),
            seed,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        let mut frng = SimRng::new(seed ^ 0xFA11);
        grid.inject_faults(gridsim::fault::random_faults(
            &mut frng,
            &[1],
            SimDuration::from_hours(12),
            fault_events,
        ));
        let mut wrng = SimRng::new(seed ^ 0x90B5);
        grid.submit((0..n_jobs as u64).map(|id| {
            let secs = wrng.range_f64(0.25, 3.0) * 3600.0;
            let mut job = JobSpec::simple(id, secs).with_estimate(secs);
            job.checkpointable = id % 2 == 0;
            job
        }));
        grid.run_until(SimTime::from_secs(kill_after_mins * 60));

        let terminal = |g: &Grid| -> BTreeMap<u64, JobOutcome> {
            g.report()
                .records
                .iter()
                .filter(|r| r.outcome != JobOutcome::Unfinished)
                .map(|r| (r.spec.id.0, r.outcome))
                .collect()
        };
        let ledger = terminal(&grid);
        let jobs_known = grid.world().jobs_submitted();

        // Byte-stability: the restored grid re-snapshots identically.
        let first = grid.to_snapshot();
        drop(grid);
        let restored = Grid::from_snapshot(&first).expect("snapshot restores");
        prop_assert_eq!(&restored.to_snapshot(), &first, "snapshot drifted on restore");

        // Conservation: the restored grid knows exactly the same jobs, and
        // every terminal outcome is frozen — completed stays completed,
        // dead-lettered stays dead-lettered, nothing resurrected.
        prop_assert_eq!(restored.world().jobs_submitted(), jobs_known);
        prop_assert_eq!(terminal(&restored), ledger.clone());

        // And resuming can only extend the terminal set, never revert it.
        let mut resumed = restored;
        let fin = resumed.run_until_done(SimTime::from_days(60));
        let final_ledger: BTreeMap<u64, JobOutcome> = fin
            .records
            .iter()
            .filter(|r| r.outcome != JobOutcome::Unfinished)
            .map(|r| (r.spec.id.0, r.outcome))
            .collect();
        for (job, outcome) in &ledger {
            prop_assert_eq!(
                final_ledger.get(job),
                Some(outcome),
                "job {} changed terminal outcome after resume", job
            );
        }
        prop_assert_eq!(fin.completed + fin.dead_lettered, n_jobs);
    }
}

// ---------------------------------------------------------------------------
// Speed calibration
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Noise-free calibration inverts exactly, for any machine speed.
    #[test]
    fn calibration_inverts_speed(speed in 0.05f64..20.0) {
        let mut rng = simkit::SimRng::new(1);
        let runs = gridsim::speed::benchmark_machines(&[speed; 4], 0.0, &mut rng);
        let measured = gridsim::speed::speed_from_benchmarks(&runs);
        prop_assert!((measured - speed).abs() < 1e-9 * speed);
    }
}
