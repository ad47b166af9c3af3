//! Long-running service mode: drive a grid continuously under periodic
//! auto-snapshots, so a crashed or restarted service resumes from its last
//! good checkpoint instead of replaying the whole campaign.
//!
//! The durability story is layered on `simkit::snapshot`:
//!
//! * every auto-snapshot is written atomically (tmp + rename), so a crash
//!   mid-write can never destroy the previous file;
//! * before a new snapshot replaces the current one, the current file is
//!   rotated to `<path>.prev`, keeping one known-good generation behind;
//! * on startup, a corrupt or future-versioned current snapshot (torn write,
//!   bit rot, downgraded binary) falls back to `<path>.prev`; only if both
//!   are unusable does the service rebuild from scratch.
//!
//! Because grid snapshots restore bit-identically (see `gridsim::grid`),
//! a service that crashes and resumes produces exactly the bytes an
//! uninterrupted run would have.

use gridsim::grid::Grid;
use portal::notify::{Outbox, SloAlert};
use simkit::snapshot::SnapshotError;
use simkit::{SimDuration, SimTime, Snapshot};
use std::path::{Path, PathBuf};

/// Where and how often a [`GridService`] checkpoints itself.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Path of the current snapshot file. The previous good generation is
    /// kept alongside it at `<snapshot_path>.prev`.
    pub snapshot_path: PathBuf,
    /// Simulated time between auto-snapshots.
    pub snapshot_interval: SimDuration,
    /// Operator address paged (via [`portal::notify::Outbox`]) when the
    /// grid's SLO engine fires an alert. `None` leaves alerts on the bus
    /// and status page only.
    pub operator: Option<String>,
}

impl ServiceConfig {
    /// A config snapshotting to `path` every simulated hour.
    pub fn new(path: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            snapshot_path: path.into(),
            snapshot_interval: SimDuration::from_hours(1),
            operator: None,
        }
    }

    /// Override the auto-snapshot interval.
    pub fn with_interval(mut self, interval: SimDuration) -> ServiceConfig {
        self.snapshot_interval = interval;
        self
    }

    /// Page `operator` when SLO alerts fire.
    pub fn with_operator(mut self, operator: impl Into<String>) -> ServiceConfig {
        self.operator = Some(operator.into());
        self
    }

    fn fallback_path(&self) -> PathBuf {
        let mut name = self
            .snapshot_path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".prev");
        self.snapshot_path.with_file_name(name)
    }
}

/// How a [`GridService`] obtained its initial grid state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeOutcome {
    /// No usable snapshot existed; the grid was built fresh.
    Fresh,
    /// The current snapshot file restored cleanly.
    Resumed,
    /// The current snapshot was missing or corrupt; the previous good
    /// generation at `<path>.prev` restored instead.
    ResumedFromFallback,
}

/// A grid wrapped in crash-durable periodic checkpointing.
pub struct GridService {
    grid: Grid,
    config: ServiceConfig,
    outcome: ResumeOutcome,
    last_snapshot_at: Option<SimTime>,
    snapshots_written: u64,
    outbox: Outbox,
}

impl GridService {
    /// Start the service: restore from the newest usable snapshot, falling
    /// back to the previous generation when the current file is torn or
    /// version-incompatible, and only building a fresh grid (via `build`)
    /// when neither exists.
    pub fn start(
        config: ServiceConfig,
        build: impl FnOnce() -> Grid,
    ) -> Result<GridService, SnapshotError> {
        let (grid, outcome) = match Self::try_restore(&config.snapshot_path) {
            Some(grid) => (grid, ResumeOutcome::Resumed),
            None => match Self::try_restore(&config.fallback_path()) {
                Some(grid) => (grid, ResumeOutcome::ResumedFromFallback),
                None => (build(), ResumeOutcome::Fresh),
            },
        };
        let last_snapshot_at = match outcome {
            ResumeOutcome::Fresh => None,
            _ => Some(grid.now()),
        };
        Ok(GridService {
            grid,
            config,
            outcome,
            last_snapshot_at,
            snapshots_written: 0,
            outbox: Outbox::new(),
        })
    }

    fn try_restore(path: &Path) -> Option<Grid> {
        if !path.exists() {
            return None;
        }
        // Any decode failure — torn write, bit flip, future schema — means
        // "this generation is unusable", not "crash the service".
        Grid::read_snapshot(path).ok()
    }

    /// How the initial state was obtained.
    pub fn resume_outcome(&self) -> ResumeOutcome {
        self.outcome
    }

    /// Snapshots written by this service instance so far.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// Simulated time of the newest on-disk snapshot, if any was written or
    /// restored this run.
    pub fn last_snapshot_at(&self) -> Option<SimTime> {
        self.last_snapshot_at
    }

    /// Age of the newest snapshot relative to the grid clock, in
    /// microseconds (`None` before the first checkpoint).
    pub fn snapshot_age_micros(&self) -> Option<u64> {
        self.last_snapshot_at
            .map(|t| self.grid.now().saturating_since(t).as_micros())
    }

    /// The wrapped grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Mutable access to the wrapped grid (submissions, fault injection).
    pub fn grid_mut(&mut self) -> &mut Grid {
        &mut self.grid
    }

    /// Cut a snapshot right now: rotate the current file to `<path>.prev`,
    /// then write the new envelope atomically.
    pub fn snapshot_now(&mut self) -> Result<(), SnapshotError> {
        if let Some(dir) = self.config.snapshot_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        if self.config.snapshot_path.exists() {
            std::fs::rename(&self.config.snapshot_path, self.config.fallback_path())?;
        }
        self.grid.write_snapshot(&self.config.snapshot_path)?;
        self.last_snapshot_at = Some(self.grid.now());
        self.snapshots_written += 1;
        Ok(())
    }

    /// Operator pages queued by the SLO alert fan-out (see
    /// [`ServiceConfig::operator`]).
    pub fn outbox(&self) -> &Outbox {
        &self.outbox
    }

    /// Drain queued operator pages (what a mail transport would do).
    pub fn drain_notifications(&mut self) -> Vec<portal::notify::Email> {
        self.outbox.drain()
    }

    /// Fan newly fired SLO alerts out to the operator's outbox and refresh
    /// the `service.snapshot_age_seconds` gauge the `snapshot-stale` rule
    /// watches.
    fn pump_observability(&mut self) {
        if let Some(age) = self.snapshot_age_micros() {
            self.grid
                .set_telemetry_gauge("service.snapshot_age_seconds", age as f64 / 1e6);
        }
        let fired = self.grid.drain_fired_alerts();
        if let Some(op) = &self.config.operator {
            for a in &fired {
                self.outbox.page(
                    op,
                    &SloAlert {
                        rule: a.rule.clone(),
                        series: a.series.clone(),
                        value: a.value,
                        threshold: a.threshold,
                        above: a.above,
                        fired_at_seconds: a.fired_at_micros as f64 / 1e6,
                    },
                );
            }
        }
    }

    /// Advance the grid to `deadline` (or until every submitted job reaches
    /// a terminal state), cutting an auto-snapshot every
    /// [`ServiceConfig::snapshot_interval`] of simulated time and once more
    /// at the end. Returns the number of snapshots written by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<u64, SnapshotError> {
        let before = self.snapshots_written;
        loop {
            let next_cut = (self.last_snapshot_at.unwrap_or(self.grid.now())
                + self.config.snapshot_interval)
                .min(deadline);
            self.grid.run_until(next_cut);
            let done = self.grid.workload_settled();
            // Record the pre-snapshot age (the worst this cycle saw), then
            // checkpoint. The gauge persists into the next segment's
            // series windows, so a service checkpointing too rarely trips
            // the `snapshot-stale` rule deterministically.
            self.pump_observability();
            self.snapshot_now()?;
            if done || self.grid.now() >= deadline || next_cut >= deadline {
                break;
            }
        }
        Ok(self.snapshots_written - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::grid::GridConfig;
    use gridsim::job::JobSpec;
    use gridsim::recovery::RecoveryPolicy;
    use gridsim::resource::{ResourceKind, ResourceSpec};
    use gridsim::{TenancyConfig, TenantSpec};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lattice_service_test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An interruption-prone grid so the resumed run actually exercises
    /// recovery state (backoff timers, carry, retry counters).
    fn build_grid() -> Grid {
        let config = GridConfig {
            resources: vec![
                ResourceSpec::condor_pool("condor", 8, 1.5, 2.0),
                ResourceSpec::cluster("cluster", ResourceKind::PbsCluster, 4, 1.0),
            ],
            recovery: Some(RecoveryPolicy::default()),
            seed: 61,
            ..Default::default()
        };
        let mut grid = Grid::new(config);
        grid.submit((0..10).map(|i| {
            let mut j = JobSpec::simple(i, 2.0 * 3600.0);
            j.checkpointable = i % 2 == 0;
            j
        }));
        grid
    }

    fn report_json(grid: &Grid) -> String {
        serde_json::to_string(&grid.report()).unwrap()
    }

    #[test]
    fn fresh_start_without_snapshot() {
        let dir = test_dir("fresh");
        let svc =
            GridService::start(ServiceConfig::new(dir.join("grid.snap.json")), build_grid).unwrap();
        assert_eq!(svc.resume_outcome(), ResumeOutcome::Fresh);
        assert_eq!(svc.snapshots_written(), 0);
        assert!(svc.snapshot_age_micros().is_none());
    }

    #[test]
    fn service_restart_resumes_bit_identically() {
        let dir = test_dir("restart");
        let cfg = ServiceConfig::new(dir.join("grid.snap.json"))
            .with_interval(SimDuration::from_mins(30));

        let mut reference = build_grid();
        let _ = reference.run_until_done(SimTime::from_days(10));

        // Phase 1: run a few hours under auto-snapshots, then "crash".
        let mut svc = GridService::start(cfg.clone(), build_grid).unwrap();
        assert_eq!(svc.resume_outcome(), ResumeOutcome::Fresh);
        svc.run_until(SimTime::from_hours(3)).unwrap();
        assert!(svc.snapshots_written() >= 2, "{}", svc.snapshots_written());
        assert_eq!(svc.snapshot_age_micros(), Some(0));
        drop(svc);

        // Phase 2: a new process restores from disk — the builder must not
        // run — and finishes with exactly the uninterrupted run's bytes.
        let mut svc = GridService::start(cfg, || panic!("must restore from snapshot")).unwrap();
        assert_eq!(svc.resume_outcome(), ResumeOutcome::Resumed);
        svc.run_until(SimTime::from_days(10)).unwrap();
        assert!(svc.grid().world().all_done());
        assert_eq!(report_json(svc.grid()), report_json(&reference));
    }

    #[test]
    fn slo_alerts_page_the_operator_through_the_outbox() {
        use gridsim::telemetry::TelemetryConfig;
        use gridsim::{SloConfig, SloRule};
        use simkit::timeseries::{SeriesKind, SeriesSetConfig, SeriesSpec};

        let dir = test_dir("alerts");
        // A rule the run is guaranteed to breach: queue depth above -1.
        let telemetry = TelemetryConfig {
            timeseries: Some(SeriesSetConfig {
                window: SimDuration::from_mins(30),
                capacity: 64,
                specs: vec![SeriesSpec {
                    name: "queue_depth".into(),
                    kind: SeriesKind::Gauge {
                        gauge: "grid.queue_depth".into(),
                    },
                }],
            }),
            slo: Some(SloConfig {
                rules: vec![SloRule::above("always-on", "queue_depth", -1.0, 1)],
                alert_capacity: 8,
            }),
            ..TelemetryConfig::default()
        };
        let cfg = ServiceConfig::new(dir.join("grid.snap.json"))
            .with_interval(SimDuration::from_hours(1))
            .with_operator("ops@lattice.umd.edu");
        let mut svc = GridService::start(cfg, move || {
            let config = GridConfig {
                resources: vec![ResourceSpec::cluster(
                    "cluster",
                    ResourceKind::PbsCluster,
                    4,
                    1.0,
                )],
                telemetry: Some(telemetry),
                seed: 61,
                ..Default::default()
            };
            let mut grid = Grid::new(config);
            grid.submit((0..6).map(|i| JobSpec::simple(i, 3600.0)));
            grid
        })
        .unwrap();
        svc.run_until(SimTime::from_hours(4)).unwrap();
        let emails = svc.outbox().emails();
        assert_eq!(emails.len(), 1, "fires once, not per window: {emails:#?}");
        assert_eq!(emails[0].to, "ops@lattice.umd.edu");
        assert!(emails[0].subject.contains("ALERT: always-on"));
        assert!(matches!(
            emails[0].kind,
            portal::notify::EventKind::SloBreach { .. }
        ));
        // The snapshot-age gauge was published for the stale-checkpoint rule.
        let snap = svc.grid().telemetry_snapshot().unwrap();
        assert!(snap.metrics.gauge("service.snapshot_age_seconds").is_some());
        assert!(svc.drain_notifications().len() == 1 && svc.outbox().emails().is_empty());
    }

    #[test]
    fn corrupt_current_snapshot_falls_back_to_previous_good() {
        let dir = test_dir("fallback");
        let path = dir.join("grid.snap.json");
        let cfg = ServiceConfig::new(&path).with_interval(SimDuration::from_mins(20));

        let mut reference = build_grid();
        let _ = reference.run_until_done(SimTime::from_days(10));

        let mut svc = GridService::start(cfg.clone(), build_grid).unwrap();
        svc.run_until(SimTime::from_hours(2)).unwrap();
        assert!(svc.snapshots_written() >= 2, "need a .prev generation");
        drop(svc);

        // Tear the current snapshot in half, as a crash mid-disk-write (or
        // bit rot) would. The service must fall back to `<path>.prev`
        // rather than panic or rebuild from scratch.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let mut svc = GridService::start(cfg, || panic!("fallback must restore")).unwrap();
        assert_eq!(svc.resume_outcome(), ResumeOutcome::ResumedFromFallback);
        svc.run_until(SimTime::from_days(10)).unwrap();
        assert!(svc.grid().world().all_done());
        // The fallback generation is older but consistent, so the finished
        // run still matches the uninterrupted bytes.
        assert_eq!(report_json(svc.grid()), report_json(&reference));
    }

    #[test]
    fn service_stops_at_the_first_cut_after_tenancy_rejections() {
        // A guest offers 150 jobs against its 100-job queue quota: 50 bounce
        // at admission and never become grid records, yet the service must
        // still notice the workload settled and stop at the next cut
        // instead of snapshotting daily until the deadline.
        let dir = test_dir("rejections");
        let cfg =
            ServiceConfig::new(dir.join("grid.snap.json")).with_interval(SimDuration::from_days(1));
        let mut svc = GridService::start(cfg, || {
            let mut grid = Grid::new(GridConfig {
                resources: vec![ResourceSpec::cluster(
                    "cluster",
                    ResourceKind::PbsCluster,
                    8,
                    1.0,
                )],
                tenancy: Some(TenancyConfig::default()),
                seed: 29,
                ..Default::default()
            });
            let guest = grid.register_tenant(TenantSpec::guest("walk-in"));
            grid.submit_for(guest, (0..150).map(|i| JobSpec::simple(i, 1800.0)));
            grid
        })
        .unwrap();
        let written = svc.run_until(SimTime::from_days(30)).unwrap();
        let tenancy = svc.grid().tenancy_snapshot(5).expect("tenancy on");
        assert_eq!((tenancy.rejected, tenancy.completed), (50, 100));
        assert!(svc.grid().workload_settled());
        assert_eq!(
            written, 1,
            "the service kept cutting snapshots after the last job settled"
        );
        assert!(svc.grid().now() <= SimTime::from_days(1));
    }
}
