//! Data staging for the simulated grid.
//!
//! The Lattice Project moved real bytes: every GARLI workunit ships an
//! alignment and a config file from the portal to the executing resource,
//! and bootstrap replicates of one analysis share the *same* alignment. This
//! module models that data plane on top of [`datagrid`]:
//!
//! * a content-addressed [`ObjectStore`] so identical inputs (the shared
//!   alignment behind hundreds of bootstrap replicates) are deduplicated
//!   rather than re-shipped,
//! * one bandwidth/latency [`Link`] per site (portal → site head node) plus
//!   one for the BOINC server → volunteer path, serializing concurrent
//!   transfers in sim time,
//! * an LRU [`LruCache`] per site and per volunteer client, colded when the
//!   resource suffers an outage,
//! * the stage-in estimates the meta-scheduler folds into ranking when
//!   [`DataPolicy::Aware`] is selected.
//!
//! Everything here is deterministic and RNG-inert: staging consumes no
//! randomness and schedules no events of its own — stage-in delay rides the
//! existing dispatch-overhead path, so a run with `data: None` is
//! byte-identical to one that never linked this module.

use crate::job::JobSpec;
use crate::resource::ResourceSpec;
use datagrid::{Link, LruCache, ObjectStore};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// Re-exported so downstream crates (lattice, bench) can build job inputs
// and tune links without their own `datagrid` dependency edge.
pub use datagrid::{CacheStats, LinkSpec, ObjectId, ObjectRef, StoreStats};

/// How the meta-scheduler uses stage-in estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataPolicy {
    /// Model the data plane (transfers delay dispatch) but keep the paper's
    /// original load/speed ranking — the scheduler is blind to data cost.
    Blind,
    /// Fold the estimated stage-in time into candidate ranking and into the
    /// stable/unstable cutoff, preferring resources whose caches already
    /// hold the inputs.
    Aware,
}

/// Configuration for the optional data plane ([`crate::GridConfig::data`]).
/// The volunteer side is fixed: each client caches [`VOLUNTEER_CACHE_BYTES`]
/// behind the shared [`BOINC_LINK`], and an outage always colds the site
/// cache of the resource it hits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataConfig {
    /// Whether the scheduler ranks on stage-in cost.
    pub policy: DataPolicy,
    /// Capacity of each site head-node cache in bytes.
    pub site_cache_bytes: u64,
    /// Portal → site link, one per site (or per unattributed resource).
    pub default_link: LinkSpec,
}

impl Default for DataConfig {
    fn default() -> DataConfig {
        DataConfig {
            policy: DataPolicy::Aware,
            site_cache_bytes: 4 << 30,
            default_link: LinkSpec::mbps(25.0, 0.5),
        }
    }
}

/// Capacity of each BOINC volunteer's local cache in bytes: 256 MiB.
pub const VOLUNTEER_CACHE_BYTES: u64 = 256 << 20;

/// BOINC server → volunteer client link, shared by all volunteers: 10 MB/s
/// with a 1 s setup cost.
pub const BOINC_LINK: LinkSpec = LinkSpec {
    bandwidth_bytes_per_sec: 10e6,
    latency_seconds: 1.0,
};

/// What one stage-in actually cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StageIn {
    /// Seconds from request until the last missing byte arrived (0 when
    /// everything was cached).
    pub seconds: f64,
    /// Bytes actually moved over the link (misses only).
    pub bytes_moved: u64,
    /// Inputs found in the destination cache.
    pub hits: u64,
    /// Inputs that had to be transferred.
    pub misses: u64,
}

/// Aggregate data-plane accounting for [`crate::GridReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataReport {
    /// Completed stage-ins (service dispatches + volunteer downloads).
    pub stage_ins: u64,
    /// Total seconds jobs spent waiting on stage-in.
    pub total_stage_in_seconds: f64,
    /// Bytes moved over all links.
    pub bytes_moved: u64,
    /// Committed transfers over all links.
    pub transfers: u64,
    /// Cache hits across site and volunteer caches.
    pub cache_hits: u64,
    /// Cache misses across site and volunteer caches.
    pub cache_misses: u64,
    /// Cache evictions across site and volunteer caches.
    pub cache_evictions: u64,
    /// Bulk cache invalidations (outages).
    pub cache_invalidations: u64,
    /// Distinct bytes registered in the content-addressed store.
    pub unique_bytes: u64,
    /// Bytes that would have shipped without content addressing.
    pub ingested_bytes: u64,
    /// Bytes dedup saved at the store level.
    pub dedup_saved_bytes: u64,
}

/// Point-in-time status of one link, for telemetry snapshots.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkStatus {
    /// Link name (`site:<name>`, `res:<name>`, or `boinc`).
    pub name: String,
    /// Configured bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Configured per-transfer latency in seconds.
    pub latency_seconds: f64,
    /// Committed transfers.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes_moved: u64,
    /// Seconds spent occupied.
    pub busy_seconds: f64,
    /// Seconds transfers spent queued behind earlier ones.
    pub queued_seconds: f64,
    /// Occupied fraction of elapsed sim time, clamped to 1.
    pub utilisation: f64,
}

/// Point-in-time status of one cache, for telemetry snapshots.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheStatus {
    /// Cache name (matches the owning link's name; volunteers aggregate).
    pub name: String,
    /// Capacity in bytes (summed for the volunteer aggregate).
    pub capacity_bytes: u64,
    /// Resident bytes.
    pub occupancy_bytes: u64,
    /// Resident objects.
    pub resident_objects: u64,
    /// Lifetime counters.
    pub stats: CacheStats,
}

/// Data-plane section of [`crate::telemetry::TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DataSnapshot {
    /// Content-addressed store accounting.
    pub store: StoreStats,
    /// Per-link status, name-ordered.
    pub links: Vec<LinkStatus>,
    /// Per-site cache status plus one aggregate row for volunteer caches.
    pub caches: Vec<CacheStatus>,
}

/// Key of the shared BOINC server→client link and volunteer cache group.
const BOINC_KEY: &str = "boinc";

/// Live data-plane state owned by the grid world.
///
/// Resources sharing a `site` share one link and one head-node cache;
/// unattributed resources get a private `res:<name>` pair. Every such link
/// runs at the config's `default_link`. The BOINC pool resource maps to the
/// shared volunteer link and per-client caches instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataGridState {
    config: DataConfig,
    /// Resource index → link/cache key (`site:…`, `res:…`, or `boinc`).
    key_of: Vec<String>,
    links: BTreeMap<String, Link>,
    site_caches: BTreeMap<String, LruCache>,
    volunteer_caches: Vec<LruCache>,
    store: ObjectStore,
    stage_ins: u64,
    total_stage_in_seconds: f64,
}

impl DataGridState {
    /// Build the data plane for a set of resources. `boinc_index` is the
    /// position of the BOINC pseudo-resource, whose `slots` count sets the
    /// number of volunteer caches.
    pub fn new(
        config: DataConfig,
        resources: &[ResourceSpec],
        boinc_index: Option<usize>,
    ) -> DataGridState {
        let mut key_of = Vec::with_capacity(resources.len());
        let mut links = BTreeMap::new();
        let mut site_caches = BTreeMap::new();
        let mut volunteers = 0usize;
        for (i, spec) in resources.iter().enumerate() {
            if Some(i) == boinc_index {
                key_of.push(BOINC_KEY.to_string());
                links
                    .entry(BOINC_KEY.to_string())
                    .or_insert_with(|| Link::new(BOINC_LINK));
                volunteers = spec.slots;
                continue;
            }
            let key = match &spec.site {
                Some(site) => format!("site:{site}"),
                None => format!("res:{}", spec.name),
            };
            links
                .entry(key.clone())
                .or_insert_with(|| Link::new(config.default_link));
            site_caches
                .entry(key.clone())
                .or_insert_with(|| LruCache::new(config.site_cache_bytes));
            key_of.push(key);
        }
        let volunteer_caches = vec![LruCache::new(VOLUNTEER_CACHE_BYTES); volunteers];
        DataGridState {
            config,
            key_of,
            links,
            site_caches,
            volunteer_caches,
            store: ObjectStore::new(),
            stage_ins: 0,
            total_stage_in_seconds: 0.0,
        }
    }

    /// Whether the scheduler should rank on stage-in cost.
    pub fn aware(&self) -> bool {
        self.config.policy == DataPolicy::Aware
    }

    /// Register a job's inputs in the content-addressed store (dedup
    /// accounting happens here; repeated content registers once).
    pub fn register_job(&mut self, job: &JobSpec) {
        for obj in &job.inputs {
            self.store.register(*obj);
        }
    }

    /// Estimated seconds to stage `job`'s inputs onto `resource` if
    /// dispatched at `now_seconds`, without committing anything. Cache-aware
    /// for service resources; the BOINC pool assumes a cold volunteer (the
    /// server cannot know which client will request work).
    pub fn estimate_stage_in(&self, resource: usize, job: &JobSpec, now_seconds: f64) -> f64 {
        if job.inputs.is_empty() {
            return 0.0;
        }
        let key = &self.key_of[resource];
        let link = &self.links[key];
        let bytes = if key == BOINC_KEY {
            job.inputs.iter().map(|o| o.bytes).sum()
        } else {
            let cache = &self.site_caches[key];
            job.inputs
                .iter()
                .filter(|o| !cache.contains(o.id))
                .map(|o| o.bytes)
                .sum()
        };
        link.estimate_seconds(now_seconds, bytes)
    }

    /// Commit the stage-in of `job`'s inputs onto a *service* resource at
    /// dispatch time: count hits/misses against the site cache, move the
    /// missing bytes over the site link, and admit them to the cache.
    ///
    /// # Panics
    /// Panics if called for the BOINC pseudo-resource — volunteer downloads
    /// go through [`DataGridState::boinc_stage_in`] at assignment time.
    pub fn stage_in(&mut self, resource: usize, job: &JobSpec, now_seconds: f64) -> StageIn {
        let key = self.key_of[resource].clone();
        assert!(
            key != BOINC_KEY,
            "BOINC downloads are staged per client, not per dispatch"
        );
        let cache = self
            .site_caches
            .get_mut(&key)
            .expect("service resource has a site cache");
        let link = self.links.get_mut(&key).expect("resource has a link");
        Self::stage_through(
            cache,
            link,
            job,
            now_seconds,
            &mut self.stage_ins,
            &mut self.total_stage_in_seconds,
        )
    }

    /// Commit the download of `job`'s inputs to volunteer `client` at BOINC
    /// assignment time, against the client's own cache and the shared
    /// server→client link.
    pub fn boinc_stage_in(&mut self, client: usize, job: &JobSpec, now_seconds: f64) -> StageIn {
        let cache = &mut self.volunteer_caches[client];
        let link = self
            .links
            .get_mut(BOINC_KEY)
            .expect("boinc pool has a link");
        Self::stage_through(
            cache,
            link,
            job,
            now_seconds,
            &mut self.stage_ins,
            &mut self.total_stage_in_seconds,
        )
    }

    fn stage_through(
        cache: &mut LruCache,
        link: &mut Link,
        job: &JobSpec,
        now_seconds: f64,
        stage_ins: &mut u64,
        total_seconds: &mut f64,
    ) -> StageIn {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut missing_bytes = 0u64;
        for obj in &job.inputs {
            if cache.lookup(obj.id) {
                hits += 1;
            } else {
                misses += 1;
                missing_bytes += obj.bytes;
            }
        }
        let outcome = link.transfer(now_seconds, missing_bytes);
        for obj in &job.inputs {
            cache.insert(*obj);
        }
        *stage_ins += 1;
        *total_seconds += outcome.total_seconds;
        StageIn {
            seconds: outcome.total_seconds,
            bytes_moved: outcome.bytes,
            hits,
            misses,
        }
    }

    /// Cold the site cache backing `resource` (outage). Returns the dropped
    /// bytes, or `None` when the resource is the BOINC pool (volunteer
    /// churn is modeled per client elsewhere) or there is no cache.
    pub fn invalidate_resource(&mut self, resource: usize) -> Option<u64> {
        let key = &self.key_of[resource];
        if key == BOINC_KEY {
            return None;
        }
        self.site_caches.get_mut(key).map(LruCache::invalidate_all)
    }

    /// Aggregate accounting for the grid report.
    pub fn report(&self) -> DataReport {
        let mut bytes_moved = 0;
        let mut transfers = 0;
        for link in self.links.values() {
            bytes_moved += link.bytes_moved();
            transfers += link.transfers();
        }
        let mut hits = 0;
        let mut misses = 0;
        let mut evictions = 0;
        let mut invalidations = 0;
        for cache in self.site_caches.values().chain(&self.volunteer_caches) {
            let s = cache.stats();
            hits += s.hits;
            misses += s.misses;
            evictions += s.evictions;
            invalidations += s.invalidations;
        }
        let store = self.store.stats();
        DataReport {
            stage_ins: self.stage_ins,
            total_stage_in_seconds: self.total_stage_in_seconds,
            bytes_moved,
            transfers,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            cache_invalidations: invalidations,
            unique_bytes: store.unique_bytes,
            ingested_bytes: store.ingested_bytes,
            dedup_saved_bytes: store.dedup_saved_bytes(),
        }
    }

    /// Point-in-time snapshot for telemetry: per-link status plus per-site
    /// caches and one aggregate row for all volunteer caches.
    pub fn snapshot(&self, now_seconds: f64) -> DataSnapshot {
        let links = self
            .links
            .iter()
            .map(|(name, link)| LinkStatus {
                name: name.clone(),
                bandwidth_bytes_per_sec: link.spec().bandwidth_bytes_per_sec,
                latency_seconds: link.spec().latency_seconds,
                transfers: link.transfers(),
                bytes_moved: link.bytes_moved(),
                busy_seconds: link.busy_seconds(),
                queued_seconds: link.queued_seconds(),
                utilisation: link.utilisation(now_seconds),
            })
            .collect();
        let mut caches: Vec<CacheStatus> = self
            .site_caches
            .iter()
            .map(|(name, cache)| CacheStatus {
                name: name.clone(),
                capacity_bytes: cache.capacity_bytes(),
                occupancy_bytes: cache.occupancy_bytes(),
                resident_objects: cache.len() as u64,
                stats: cache.stats(),
            })
            .collect();
        if !self.volunteer_caches.is_empty() {
            let mut agg = CacheStatus {
                name: "boinc-volunteers".into(),
                capacity_bytes: 0,
                occupancy_bytes: 0,
                resident_objects: 0,
                stats: CacheStats::default(),
            };
            for cache in &self.volunteer_caches {
                agg.capacity_bytes += cache.capacity_bytes();
                agg.occupancy_bytes += cache.occupancy_bytes();
                agg.resident_objects += cache.len() as u64;
                let s = cache.stats();
                agg.stats.hits += s.hits;
                agg.stats.misses += s.misses;
                agg.stats.evictions += s.evictions;
                agg.stats.insertions += s.insertions;
                agg.stats.invalidations += s.invalidations;
            }
            caches.push(agg);
        }
        DataSnapshot {
            store: self.store.stats(),
            links,
            caches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{ResourceKind, ResourceSpec};
    use datagrid::ObjectRef;

    fn fixture() -> (DataGridState, Vec<ResourceSpec>) {
        let resources = vec![
            ResourceSpec::cluster("c1", ResourceKind::PbsCluster, 8, 1.0).with_site("umd"),
            ResourceSpec::cluster("c2", ResourceKind::SgeCluster, 8, 1.0).with_site("umd"),
            ResourceSpec::condor_pool("pool", 16, 0.8, 6.0),
            ResourceSpec {
                name: "boinc-pool".into(),
                kind: ResourceKind::BoincPool,
                slots: 3,
                speed: 1.0,
                memory_per_slot: 1 << 30,
                platforms: vec![],
                mpi_capable: false,
                software: vec![],
                stable: false,
                mean_hours_between_interruptions: None,
                outages: None,
                site: None,
            },
        ];
        let state = DataGridState::new(DataConfig::default(), &resources, Some(3));
        (state, resources)
    }

    fn job_with_input(id: u64, name: &str, bytes: u64) -> JobSpec {
        JobSpec::simple(id, 100.0).with_input(ObjectRef::named(name, bytes))
    }

    #[test]
    fn shared_site_shares_cache_and_link() {
        let (mut s, _) = fixture();
        let a = job_with_input(1, "align", 10_000_000);
        let b = job_with_input(2, "align", 10_000_000);
        s.register_job(&a);
        s.register_job(&b);
        let first = s.stage_in(0, &a, 0.0);
        assert_eq!(first.misses, 1);
        assert!(first.seconds > 0.0);
        // Same site, different resource: the shared cache already holds it.
        let second = s.stage_in(1, &b, 100.0);
        assert_eq!(second.hits, 1);
        assert_eq!(second.bytes_moved, 0);
        assert_eq!(second.seconds, 0.0);
        let r = s.report();
        assert_eq!(r.bytes_moved, 10_000_000);
        assert_eq!(r.dedup_saved_bytes, 10_000_000);
    }

    #[test]
    fn estimate_matches_commit_for_service_resources() {
        let (mut s, _) = fixture();
        let job = job_with_input(1, "data", 50_000_000);
        s.register_job(&job);
        let est = s.estimate_stage_in(2, &job, 5.0);
        let got = s.stage_in(2, &job, 5.0);
        assert!((est - got.seconds).abs() < 1e-9);
        // After commit the cache is warm: estimate drops to zero.
        assert_eq!(s.estimate_stage_in(2, &job, 6.0), 0.0);
    }

    #[test]
    fn outage_colds_the_site_cache() {
        let (mut s, _) = fixture();
        let job = job_with_input(1, "x", 1_000_000);
        s.register_job(&job);
        s.stage_in(0, &job, 0.0);
        assert_eq!(s.estimate_stage_in(0, &job, 1.0), 0.0);
        let dropped = s.invalidate_resource(0);
        assert_eq!(dropped, Some(1_000_000));
        assert!(s.estimate_stage_in(0, &job, 2.0) > 0.0);
    }

    #[test]
    fn boinc_estimates_cold_but_stages_per_client() {
        let (mut s, _) = fixture();
        let job = job_with_input(1, "wu", 2_000_000);
        s.register_job(&job);
        let cold = s.estimate_stage_in(3, &job, 0.0);
        assert!(cold > 0.0);
        let first = s.boinc_stage_in(0, &job, 0.0);
        assert_eq!(first.misses, 1);
        // Client 0 now has it cached; client 1 still pays.
        let again = s.boinc_stage_in(0, &job, 100.0);
        assert_eq!(again.hits, 1);
        assert_eq!(again.seconds, 0.0);
        let other = s.boinc_stage_in(1, &job, 100.0);
        assert_eq!(other.misses, 1);
        // The pool estimate stays worst-case cold regardless of caches.
        assert!((s.estimate_stage_in(3, &job, 200.0) - cold).abs() < 1e-9);
        // The pool itself has no site cache to invalidate.
        assert_eq!(s.invalidate_resource(3), None);
    }

    #[test]
    fn snapshot_lists_links_and_caches() {
        let (mut s, _) = fixture();
        let job = job_with_input(1, "a", 1_000_000);
        s.register_job(&job);
        s.stage_in(0, &job, 0.0);
        s.boinc_stage_in(2, &job, 0.0);
        let snap = s.snapshot(1000.0);
        let names: Vec<&str> = snap.links.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["boinc", "res:pool", "site:umd"]);
        let cache_names: Vec<&str> = snap.caches.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            cache_names,
            vec!["res:pool", "site:umd", "boinc-volunteers"]
        );
        assert_eq!(snap.store.unique_objects, 1);
        let umd = snap.caches.iter().find(|c| c.name == "site:umd").unwrap();
        assert_eq!(umd.occupancy_bytes, 1_000_000);
        let vols = snap
            .caches
            .iter()
            .find(|c| c.name == "boinc-volunteers")
            .unwrap();
        assert_eq!(vols.stats.misses, 1);
    }

    #[test]
    fn empty_inputs_are_free() {
        let (mut s, _) = fixture();
        let job = JobSpec::simple(9, 10.0);
        s.register_job(&job);
        assert_eq!(s.estimate_stage_in(0, &job, 0.0), 0.0);
        let got = s.stage_in(0, &job, 0.0);
        assert_eq!(got.seconds, 0.0);
        assert_eq!(got.bytes_moved, 0);
        assert_eq!(s.report().transfers, 0);
    }
}
