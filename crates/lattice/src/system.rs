//! The Lattice Project facade: a trained system ready to take submissions.

use crate::estimator::RuntimeEstimator;
use crate::online::OnlineEstimator;
use crate::pipeline::{run_campaign, CampaignOptions, CampaignResult};
use crate::training::{generate_training_jobs, Scale};
use garli::config::GarliConfig;
use gridsim::boinc::BoincConfig;
use gridsim::grid::GridConfig;
use gridsim::resource::{ResourceKind, ResourceSpec};
use phylo::alignment::Alignment;
use portal::notify::Outbox;
use portal::submission::Submission;
use portal::users::User;

/// A ready-to-serve Lattice instance: trained runtime model + grid layout
/// + notification outbox.
pub struct LatticeSystem {
    estimator: OnlineEstimator,
    grid: GridConfig,
    outbox: Outbox,
    next_submission: u64,
}

/// The production-like resource layout: four institutions (clusters +
/// Condor pools, per paper §IV: "four Condor pools, four computing
/// clusters") plus the BOINC volunteer pool.
pub fn standard_grid(seed: u64) -> GridConfig {
    GridConfig {
        resources: vec![
            ResourceSpec::cluster("umd-pbs", ResourceKind::PbsCluster, 128, 1.2).with_site("umd"),
            ResourceSpec::cluster("umd-sge", ResourceKind::SgeCluster, 64, 1.0).with_site("umd"),
            ResourceSpec::cluster("bowie-pbs", ResourceKind::PbsCluster, 32, 0.8)
                .with_site("bowie"),
            ResourceSpec::cluster("smithsonian-sge", ResourceKind::SgeCluster, 48, 1.5)
                .with_memory(16 << 30)
                .with_site("smithsonian"),
            ResourceSpec::condor_pool("umd-condor", 120, 0.9, 8.0).with_site("umd"),
            ResourceSpec::condor_pool("coppin-condor", 40, 0.7, 6.0).with_site("coppin"),
            ResourceSpec::condor_pool("bowie-condor", 60, 0.8, 10.0).with_site("bowie"),
            ResourceSpec::condor_pool("smithsonian-condor", 50, 1.1, 12.0).with_site("smithsonian"),
        ],
        boinc: Some(BoincConfig::default()),
        seed,
        ..Default::default()
    }
}

/// The [`standard_grid`] with grid-wide telemetry enabled (structured
/// events, metrics, lifecycle spans, utilisation timelines — see
/// `gridsim::telemetry`). Telemetry is observation-only, so results match
/// [`standard_grid`] bit for bit.
pub fn observed_grid(seed: u64) -> GridConfig {
    GridConfig {
        telemetry: Some(gridsim::TelemetryConfig::default()),
        ..standard_grid(seed)
    }
}

/// The [`standard_grid`] with the data plane enabled: content-addressed
/// staging over per-site links, site and volunteer caches, and data-aware
/// scheduling (see `gridsim::data`). Campaign jobs already carry their
/// alignment/config [`gridsim::data::ObjectRef`]s, so this is the only
/// switch to flip.
pub fn data_aware_grid(seed: u64) -> GridConfig {
    GridConfig {
        data: Some(gridsim::DataConfig::default()),
        ..standard_grid(seed)
    }
}

/// The [`standard_grid`] with result validation enabled on the volunteer
/// pool: a quorum engine with tolerance-based fuzzy comparison of GARLI
/// likelihood scores, per-host reputation, and adaptive replication with
/// spot checks (see the `quorum` crate). With no bad hosts in play,
/// campaign results (trees, likelihoods) match [`standard_grid`]'s.
pub fn validated_grid(seed: u64) -> GridConfig {
    GridConfig {
        validation: Some(gridsim::ValidationConfig::default()),
        ..standard_grid(seed)
    }
}

/// The [`standard_grid`] with the multi-tenant submission layer enabled:
/// per-tenant quotas with typed admission control, deterministic
/// fair-share arbitration ahead of the feeder, and BOINC-style credit
/// (see the `tenancy` crate). Tenants are registered on the built
/// [`gridsim::Grid`] (`register_tenant`); plain `submit` calls still take
/// the single-tenant path unchanged.
pub fn multi_tenant_grid(seed: u64) -> GridConfig {
    GridConfig {
        tenancy: Some(gridsim::TenancyConfig::default()),
        ..standard_grid(seed)
    }
}

/// The [`standard_grid`] hardened with the default grid-level recovery
/// policy: exponential backoff with jitter, failure-rate blacklisting,
/// bounded retries with a dead-letter outcome, and checkpoint carry-over
/// (see `gridsim::recovery`).
pub fn hardened_grid(seed: u64) -> GridConfig {
    GridConfig {
        recovery: Some(gridsim::RecoveryPolicy::default()),
        ..standard_grid(seed)
    }
}

impl LatticeSystem {
    /// Bootstrap a system: generate-and-execute a training workload, fit
    /// the forest, and adopt the given grid layout.
    pub fn bootstrap(
        training_jobs: usize,
        scale: Scale,
        num_trees: usize,
        grid: GridConfig,
        seed: u64,
    ) -> LatticeSystem {
        let jobs = generate_training_jobs(training_jobs, scale, seed);
        let estimator = RuntimeEstimator::train(&jobs, num_trees, seed ^ 0xE57);
        LatticeSystem {
            estimator: OnlineEstimator::new(estimator, num_trees, seed ^ 0x0A11),
            grid,
            outbox: Outbox::new(),
            next_submission: 1,
        }
    }

    /// The current runtime model.
    pub fn estimator(&self) -> &RuntimeEstimator {
        self.estimator.estimator()
    }

    /// The online wrapper (observations & prediction log).
    pub fn online(&self) -> &OnlineEstimator {
        &self.estimator
    }

    /// The grid layout.
    pub fn grid_config(&self) -> &GridConfig {
        &self.grid
    }

    /// Outgoing notifications so far.
    pub fn outbox(&self) -> &Outbox {
        &self.outbox
    }

    /// Accept and run a submission end to end. Afterwards, the paper's
    /// §VI.E loop: the first probe replicate's measured runtime is fed back
    /// into the model ("we simply fork off a single job replicate on our
    /// reference computer … and rebuild the model").
    pub fn submit(
        &mut self,
        user: User,
        config: GarliConfig,
        alignment: Alignment,
        mut options: CampaignOptions,
    ) -> Result<CampaignResult, portal::submission::StateError> {
        let id = self.next_submission;
        self.next_submission += 1;
        options.grid = self.grid.clone();
        options.seed ^= id;
        let mut submission = Submission::new(id, user, config, alignment);
        let result = run_campaign(
            &mut submission,
            Some(self.estimator.estimator()),
            &options,
            &mut self.outbox,
        )?;
        // Online update from the reference-computer replicate.
        self.estimator
            .observe(result.features, result.probe_mean_seconds);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::models::nucleotide;
    use phylo::models::SiteRates;
    use phylo::simulate::Simulator;
    use phylo::tree::Tree;
    use simkit::SimRng;

    fn small_system() -> LatticeSystem {
        let grid = GridConfig {
            resources: vec![ResourceSpec::cluster(
                "c",
                ResourceKind::PbsCluster,
                16,
                1.0,
            )],
            seed: 21,
            ..Default::default()
        };
        LatticeSystem::bootstrap(20, Scale::Compact, 50, grid, 22)
    }

    fn quick_submission_parts() -> (GarliConfig, Alignment) {
        let mut rng = SimRng::new(223);
        let tree = Tree::random_topology(6, &mut rng);
        let model = nucleotide::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 150, &mut rng);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 4;
        config.max_generations = 20;
        config.search_replicates = 3;
        (config, aln)
    }

    #[test]
    fn system_processes_submissions_and_learns() {
        let mut sys = small_system();
        let before = sys.estimator().dataset().len();
        let (config, aln) = quick_submission_parts();
        let result = sys
            .submit(
                User::guest("u@x.org").unwrap(),
                config,
                aln,
                CampaignOptions::default(),
            )
            .unwrap();
        assert_eq!(result.report.completed, 3);
        assert_eq!(
            sys.estimator().dataset().len(),
            before + 1,
            "online observation added"
        );
        assert!(!sys.outbox().emails().is_empty());
    }

    #[test]
    fn standard_grid_shape() {
        let g = standard_grid(1);
        assert_eq!(g.resources.len(), 8);
        let clusters = g
            .resources
            .iter()
            .filter(|r| matches!(r.kind, ResourceKind::PbsCluster | ResourceKind::SgeCluster))
            .count();
        let condors = g
            .resources
            .iter()
            .filter(|r| r.kind == ResourceKind::CondorPool)
            .count();
        assert_eq!(clusters, 4, "four clusters, as in the paper");
        assert_eq!(condors, 4, "four Condor pools, as in the paper");
        assert!(g.boinc.is_some(), "plus the BOINC pool");
    }

    #[test]
    fn hardened_grid_adds_recovery_only() {
        let plain = standard_grid(3);
        let hard = hardened_grid(3);
        assert!(plain.recovery.is_none());
        assert_eq!(hard.recovery, Some(gridsim::RecoveryPolicy::default()));
        assert_eq!(hard.resources.len(), plain.resources.len());
        assert_eq!(hard.seed, plain.seed);
    }

    #[test]
    fn observed_grid_adds_telemetry_only() {
        let plain = standard_grid(5);
        let observed = observed_grid(5);
        assert!(plain.telemetry.is_none());
        assert_eq!(
            observed.telemetry,
            Some(gridsim::TelemetryConfig::default())
        );
        assert_eq!(observed.resources.len(), plain.resources.len());
        // Every standard resource carries a site for telemetry rollups.
        assert!(observed.resources.iter().all(|r| r.site.is_some()));
    }

    #[test]
    fn validated_grid_adds_validation_only() {
        let plain = standard_grid(7);
        let validated = validated_grid(7);
        assert!(plain.validation.is_none());
        assert_eq!(
            validated.validation,
            Some(gridsim::ValidationConfig::default())
        );
        assert_eq!(validated.resources.len(), plain.resources.len());
        assert_eq!(validated.boinc, plain.boinc);
        assert_eq!(validated.seed, plain.seed);
    }

    #[test]
    fn multi_tenant_grid_adds_tenancy_only() {
        let plain = standard_grid(9);
        let mt = multi_tenant_grid(9);
        assert!(plain.tenancy.is_none());
        assert!(mt.tenancy.is_some());
        assert_eq!(mt.resources.len(), plain.resources.len());
        assert_eq!(mt.boinc, plain.boinc);
        assert_eq!(mt.seed, plain.seed);
        assert!(mt.telemetry.is_none() && mt.recovery.is_none());
    }

    #[test]
    fn data_aware_grid_adds_data_plane_only() {
        let plain = standard_grid(6);
        let data = data_aware_grid(6);
        assert!(plain.data.is_none());
        assert_eq!(data.data, Some(gridsim::DataConfig::default()));
        assert_eq!(data.resources.len(), plain.resources.len());
        // Every standard resource carries a site, so each gets a site cache.
        assert!(data.resources.iter().all(|r| r.site.is_some()));
    }

    #[test]
    fn data_aware_system_stages_and_dedups_submission_inputs() {
        let grid = GridConfig {
            data: Some(gridsim::DataConfig::default()),
            telemetry: Some(gridsim::TelemetryConfig::default()),
            resources: vec![
                ResourceSpec::cluster("c", ResourceKind::PbsCluster, 16, 1.0).with_site("umd"),
            ],
            seed: 33,
            ..Default::default()
        };
        let mut sys = LatticeSystem::bootstrap(20, Scale::Compact, 50, grid, 34);
        let (config, aln) = quick_submission_parts();
        let result = sys
            .submit(
                User::guest("u@x.org").unwrap(),
                config,
                aln,
                CampaignOptions::default(),
            )
            .unwrap();
        assert_eq!(result.report.completed, 3);
        let data = result.report.data.expect("data plane enabled");
        assert_eq!(data.stage_ins, 3);
        // All three replicates share one alignment + one config: two cold
        // misses on the first dispatch, four cache hits after.
        assert_eq!(data.cache_misses, 2);
        assert_eq!(data.cache_hits, 4);
        assert_eq!(data.dedup_saved_bytes, 2 * data.unique_bytes);
        let snap = result.telemetry.expect("telemetry enabled");
        assert_eq!(snap.metrics.counter("data.stage_ins"), 3);
        assert!(snap.data.is_some());
    }

    #[test]
    fn hardened_system_processes_submissions() {
        let mut sys = LatticeSystem::bootstrap(20, Scale::Compact, 50, hardened_grid(31), 32);
        let (config, aln) = quick_submission_parts();
        let result = sys
            .submit(
                User::guest("u@x.org").unwrap(),
                config,
                aln,
                CampaignOptions::default(),
            )
            .unwrap();
        assert_eq!(result.report.completed, 3);
        assert_eq!(result.report.dead_lettered, 0);
    }

    #[test]
    fn submission_ids_increment() {
        let mut sys = small_system();
        let (config, aln) = quick_submission_parts();
        let _ = sys
            .submit(
                User::guest("a@x.org").unwrap(),
                config.clone(),
                aln.clone(),
                CampaignOptions::default(),
            )
            .unwrap();
        let _ = sys
            .submit(
                User::guest("b@x.org").unwrap(),
                config,
                aln,
                CampaignOptions::default(),
            )
            .unwrap();
        assert_eq!(sys.online().observations(), 2);
    }
}
