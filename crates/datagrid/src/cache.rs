//! Capacity-bounded LRU object caches with full accounting.

use crate::object::{ObjectId, ObjectRef};
use serde::{Deserialize, JsonWriter, Serialize, Value};
use std::collections::BTreeMap;

/// Lifetime counters for one [`LruCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the object resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
    /// Distinct insertions that became resident.
    pub insertions: u64,
    /// Bulk invalidations (outage colds the whole cache).
    pub invalidations: u64,
}

/// A least-recently-used object cache bounded by total bytes.
///
/// Residency is tracked per [`ObjectId`], so inserting the same content
/// twice refreshes recency without consuming additional capacity — the
/// content-addressed dedup guarantee extends into the cache layer. An
/// object larger than the whole cache is never admitted (it would evict
/// everything and still not fit).
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_bytes: u64,
    /// Resident objects: id → (size, recency tick).
    resident: BTreeMap<ObjectId, (u64, u64)>,
    occupancy_bytes: u64,
    tick: u64,
    stats: CacheStats,
}

impl LruCache {
    /// An empty cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> LruCache {
        LruCache {
            capacity_bytes,
            resident: BTreeMap::new(),
            occupancy_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently resident. Invariant: never exceeds the capacity.
    pub fn occupancy_bytes(&self) -> u64 {
        self.occupancy_bytes
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True iff nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up `id`, counting a hit or miss and refreshing recency on a hit.
    pub fn lookup(&mut self, id: ObjectId) -> bool {
        self.tick += 1;
        match self.resident.get_mut(&id) {
            Some(entry) => {
                entry.1 = self.tick;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether `id` is resident, without touching recency or counters.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.resident.contains_key(&id)
    }

    /// Make `obj` resident, evicting least-recently-used objects as needed.
    /// Re-inserting a resident object only refreshes its recency (dedup:
    /// occupancy is never double-counted). Objects larger than the capacity
    /// are not admitted.
    pub fn insert(&mut self, obj: ObjectRef) {
        self.tick += 1;
        if let Some(entry) = self.resident.get_mut(&obj.id) {
            entry.1 = self.tick;
            return;
        }
        if obj.bytes > self.capacity_bytes {
            return;
        }
        while self.occupancy_bytes + obj.bytes > self.capacity_bytes {
            let lru = self
                .resident
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(&id, _)| id)
                .expect("occupancy > 0 implies a resident object");
            let (size, _) = self.resident.remove(&lru).expect("lru entry exists");
            self.occupancy_bytes -= size;
            self.stats.evictions += 1;
        }
        self.resident.insert(obj.id, (obj.bytes, self.tick));
        self.occupancy_bytes += obj.bytes;
        self.stats.insertions += 1;
    }

    /// Drop everything (a resource outage colds the cache). Returns the
    /// bytes that were resident.
    pub fn invalidate_all(&mut self) -> u64 {
        let dropped = self.occupancy_bytes;
        self.resident.clear();
        self.occupancy_bytes = 0;
        self.stats.invalidations += 1;
        dropped
    }

    /// Resident ids ordered least- to most-recently used (for tests).
    pub fn lru_order(&self) -> Vec<ObjectId> {
        let mut entries: Vec<(u64, ObjectId)> = self
            .resident
            .iter()
            .map(|(&id, &(_, tick))| (tick, id))
            .collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, id)| id).collect()
    }
}

// Snapshot serde: the resident map is keyed by `ObjectId`, which JSON maps
// cannot express, so it is flattened to `[id, size, tick]` triples (already
// sorted — `BTreeMap` iteration order), keeping the rendering byte-stable.
impl Serialize for LruCache {
    fn serialize(&self, out: &mut JsonWriter) {
        out.map(|map| {
            map.entry("capacity_bytes", &self.capacity_bytes);
            map.entry_with("resident", |out| {
                out.seq(|resident| {
                    for (id, (size, tick)) in &self.resident {
                        resident.element(&(id, size, tick));
                    }
                })
            });
            map.entry("occupancy_bytes", &self.occupancy_bytes);
            map.entry("tick", &self.tick);
            map.entry("stats", &self.stats);
        });
    }
}

impl Deserialize for LruCache {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for LruCache"))?;
        let resident: Vec<(ObjectId, u64, u64)> = serde::field(fields, "resident")?;
        Ok(LruCache {
            capacity_bytes: serde::field(fields, "capacity_bytes")?,
            resident: resident
                .into_iter()
                .map(|(id, size, tick)| (id, (size, tick)))
                .collect(),
            occupancy_bytes: serde::field(fields, "occupancy_bytes")?,
            tick: serde::field(fields, "tick")?,
            stats: serde::field(fields, "stats")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj(n: u64, bytes: u64) -> ObjectRef {
        ObjectRef {
            id: ObjectId(n),
            bytes,
        }
    }

    #[test]
    fn hit_miss_and_eviction_flow() {
        let mut c = LruCache::new(100);
        assert!(!c.lookup(ObjectId(1)));
        c.insert(obj(1, 60));
        assert!(c.lookup(ObjectId(1)));
        c.insert(obj(2, 50)); // evicts 1 (only way to fit)
        assert!(!c.lookup(ObjectId(1)));
        assert!(c.lookup(ObjectId(2)));
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(c.occupancy_bytes(), 50);
    }

    #[test]
    fn recency_protects_hot_objects() {
        let mut c = LruCache::new(100);
        c.insert(obj(1, 40));
        c.insert(obj(2, 40));
        assert!(c.lookup(ObjectId(1))); // 1 is now hotter than 2
        c.insert(obj(3, 40)); // must evict 2, the LRU
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
        assert_eq!(c.lru_order(), vec![ObjectId(1), ObjectId(3)]);
    }

    #[test]
    fn oversized_objects_are_not_admitted() {
        let mut c = LruCache::new(10);
        c.insert(obj(1, 4));
        c.insert(obj(2, 11));
        assert!(!c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(1)), "existing residents survive");
        assert_eq!(c.occupancy_bytes(), 4);
    }

    #[test]
    fn invalidate_colds_the_cache() {
        let mut c = LruCache::new(100);
        c.insert(obj(1, 30));
        c.insert(obj(2, 30));
        assert_eq!(c.invalidate_all(), 60);
        assert!(c.is_empty());
        assert_eq!(c.occupancy_bytes(), 0);
        assert_eq!(c.stats().invalidations, 1);
        assert!(!c.lookup(ObjectId(1)));
    }

    #[test]
    fn serde_roundtrip_preserves_recency_and_stats() {
        let mut c = LruCache::new(100);
        c.insert(obj(1, 40));
        c.insert(obj(2, 40));
        c.lookup(ObjectId(1)); // 1 hotter than 2

        let json = serde_json::to_string(&c).unwrap();
        let mut back: LruCache = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.stats(), c.stats());
        assert_eq!(back.lru_order(), c.lru_order());
        // Eviction picks the same victim the original would.
        back.insert(obj(3, 40));
        assert!(back.contains(ObjectId(1)));
        assert!(!back.contains(ObjectId(2)));
    }

    #[test]
    fn reinsert_refreshes_recency_without_double_counting() {
        let mut c = LruCache::new(100);
        c.insert(obj(1, 40));
        c.insert(obj(2, 40));
        c.insert(obj(1, 40)); // dedup: refresh, no occupancy change
        assert_eq!(c.occupancy_bytes(), 80);
        assert_eq!(c.lru_order(), vec![ObjectId(2), ObjectId(1)]);
        c.insert(obj(3, 40)); // evicts 2, now the LRU
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any interleaving of lookups, (re)insertions, and
        /// invalidations: occupancy never exceeds capacity, occupancy always
        /// equals the sum of resident sizes (dedup never double-counts), and
        /// hits + misses equals the number of lookups issued.
        #[test]
        fn cache_invariants_hold(
            capacity in 1u64..5_000,
            ops in prop::collection::vec((0u64..30, 1u64..800, 0u8..10), 1..300),
        ) {
            let mut c = LruCache::new(capacity);
            let mut lookups = 0u64;
            for &(key, size, action) in &ops {
                // Sizes must be stable per id (content addressing): derive
                // the size from the key so repeats agree.
                let size = 1 + (size * (key + 1)) % 800;
                match action {
                    0..=4 => c.insert(obj(key, size)),
                    5..=8 => {
                        c.lookup(ObjectId(key));
                        lookups += 1;
                    }
                    _ => {
                        c.invalidate_all();
                    }
                }
                prop_assert!(c.occupancy_bytes() <= c.capacity_bytes());
                let resident_sum: u64 = c
                    .lru_order()
                    .iter()
                    .filter_map(|&id| c.resident.get(&id).map(|&(s, _)| s))
                    .sum();
                prop_assert_eq!(c.occupancy_bytes(), resident_sum);
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, lookups);
        }

        /// Eviction order is exactly LRU: filling a cold cache with unit
        /// objects and then inserting one more always evicts the oldest
        /// untouched object, and touched objects survive in touch order.
        #[test]
        fn eviction_follows_lru_order(
            n in 2usize..40,
            touched in prop::collection::vec(0usize..40, 0..10),
        ) {
            let mut c = LruCache::new(n as u64);
            for i in 0..n {
                c.insert(obj(i as u64, 1));
            }
            // Touch a subset; recency order becomes untouched-then-touched.
            let mut expected: Vec<u64> = (0..n as u64).collect();
            for &t in touched.iter().filter(|&&t| t < n) {
                c.lookup(ObjectId(t as u64));
                expected.retain(|&id| id != t as u64);
                expected.push(t as u64);
            }
            let order: Vec<u64> = c.lru_order().iter().map(|id| id.0).collect();
            prop_assert_eq!(&order, &expected);
            // One more unit insert evicts exactly the head of that order.
            c.insert(obj(1000, 1));
            prop_assert!(!c.contains(ObjectId(expected[0])));
            for &survivor in &expected[1..] {
                prop_assert!(c.contains(ObjectId(survivor)));
            }
        }

        /// Storing identical content repeatedly never double-counts
        /// occupancy, no matter how the repeats interleave.
        #[test]
        fn dedup_never_double_counts(
            keys in prop::collection::vec(0u64..5, 1..100),
        ) {
            let mut c = LruCache::new(10_000);
            let mut seen: Vec<u64> = Vec::new();
            for &k in &keys {
                c.insert(obj(k, 100));
                if !seen.contains(&k) {
                    seen.push(k);
                }
                prop_assert_eq!(c.len(), seen.len());
                prop_assert_eq!(c.occupancy_bytes(), 100 * seen.len() as u64);
            }
            prop_assert_eq!(c.stats().evictions, 0);
        }
    }
}
