//! Dense id-keyed storage for hot simulation state.
//!
//! The grid models key most of their mutable state by small monotonically
//! assigned integer ids — job ids, assignment ids, host indices. Storing that
//! state in a `HashMap<u64, T>` pays a hash + probe on every event-handler
//! lookup and forces a sort on every snapshot (encodings are id-sorted for
//! determinism). [`IdMap`] exploits the id shape instead: ids at or below the
//! high-water mark live in a dense `Vec` slot addressed directly by id, and
//! only out-of-range stragglers (ids far ahead of the dense frontier, e.g.
//! after a snapshot restore replays a sparse population) fall back to an
//! ordered map. Lookups on the hot path are an array index; iteration is
//! ascending by id with no sort, which is exactly the order the snapshot
//! encodings need.
//!
//! The invariant: every key in the sparse overflow is `>= dense.len()`.
//! Growing the dense region (on insert at the frontier) migrates any overflow
//! entries that the growth swallowed, so the map converges to fully dense
//! whenever ids are, in fact, dense.

use serde::{Deserialize, JsonWriter, Serialize, Value};
use std::collections::BTreeMap;

/// How far past the current dense frontier an inserted id may be while still
/// extending the dense region (padding the gap with empty slots) instead of
/// spilling to the ordered overflow map.
const DENSE_GROWTH_SLACK: u64 = 1024;

/// A map from `u64` ids to values, dense-array-backed for the common case of
/// small, mostly-contiguous ids.
#[derive(Debug, Clone)]
pub struct IdMap<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u64, T>,
    len: usize,
}

impl<T> Default for IdMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
            len: 0,
        }
    }

    /// An empty map with dense capacity for ids `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        m.dense.reserve(n);
        m
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value` under `id`, returning the previous value if any.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if (id as usize) < self.dense.len() {
            let old = self.dense[id as usize].replace(value);
            if old.is_none() {
                self.len += 1;
            }
            return old;
        }
        if id < self.dense.len() as u64 + DENSE_GROWTH_SLACK {
            // Extend the dense frontier up to and including `id`, then pull
            // in any overflow entries the new region now covers.
            let new_len = id as usize + 1;
            self.dense.resize_with(new_len, || None);
            let migrate: Vec<u64> = self
                .sparse
                .range(..new_len as u64)
                .map(|(k, _)| *k)
                .collect();
            for k in migrate {
                let v = self.sparse.remove(&k).expect("key just seen in range");
                self.dense[k as usize] = Some(v);
            }
            let old = self.dense[id as usize].replace(value);
            if old.is_none() {
                self.len += 1;
            }
            return old;
        }
        let old = self.sparse.insert(id, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Shared reference to the value under `id`.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        if (id as usize) < self.dense.len() {
            self.dense[id as usize].as_ref()
        } else {
            self.sparse.get(&id)
        }
    }

    /// Mutable reference to the value under `id`.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        if (id as usize) < self.dense.len() {
            self.dense[id as usize].as_mut()
        } else {
            self.sparse.get_mut(&id)
        }
    }

    /// True iff `id` has a value.
    #[inline]
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the value under `id`. The dense slot is kept (ids
    /// are never reused by the callers, so the hole is permanent and cheap).
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let old = if (id as usize) < self.dense.len() {
            self.dense[id as usize].take()
        } else {
            self.sparse.remove(&id)
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterate `(id, &value)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i as u64, v)))
            .chain(self.sparse.iter().map(|(k, v)| (*k, v)))
    }

    /// Iterate `(id, &mut value)` in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.dense
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|v| (i as u64, v)))
            .chain(self.sparse.iter_mut().map(|(k, v)| (*k, v)))
    }

    /// Iterate values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterate values mutably in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut().map(|(_, v)| v)
    }
}

impl<T> FromIterator<(u64, T)> for IdMap<T> {
    fn from_iter<I: IntoIterator<Item = (u64, T)>>(iter: I) -> Self {
        let mut m = Self::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

// Snapshot form: a sequence of `[id, value]` pairs in ascending id order —
// the same id-sorted-pairs shape the callers previously produced by sorting a
// `HashMap`'s entries, so swapping the container does not move snapshot bytes.
impl<T: Serialize> Serialize for IdMap<T> {
    fn serialize(&self, out: &mut JsonWriter) {
        out.seq(|pairs| {
            for pair in self.iter() {
                pairs.element(&pair);
            }
        });
    }
}

impl<T: Deserialize> Deserialize for IdMap<T> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let pairs: Vec<(u64, T)> = Vec::from_value(value)?;
        Ok(pairs.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = IdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(0, "a"), None);
        assert_eq!(m.insert(1, "b"), None);
        assert_eq!(m.insert(1, "b2"), Some("b"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&"b2"));
        assert_eq!(m.remove(0), Some("a"));
        assert_eq!(m.remove(0), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(1));
        assert!(!m.contains_key(0));
    }

    #[test]
    fn gap_within_slack_stays_dense() {
        let mut m = IdMap::new();
        m.insert(0, 0u32);
        m.insert(500, 500); // gap < DENSE_GROWTH_SLACK → dense slot
        assert!(m.sparse.is_empty());
        assert_eq!(m.dense.len(), 501);
        assert_eq!(m.get(500), Some(&500));
        assert_eq!(m.get(250), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn far_ids_spill_to_overflow_and_migrate_back() {
        let mut m = IdMap::new();
        m.insert(1_000_000, 1u32);
        assert_eq!(m.sparse.len(), 1, "far id goes to overflow");
        // Every sparse key stays at or beyond the dense frontier.
        assert!(m.sparse.keys().all(|&k| k >= m.dense.len() as u64));
        // Growing the dense region over it migrates the entry.
        m.insert(999_999, 2);
        for i in 0..1_000_000u64 {
            if i % 1000 == 0 {
                m.insert(i, i as u32);
            }
        }
        assert_eq!(m.get(1_000_000), Some(&1));
        assert!(m.sparse.keys().all(|&k| k >= m.dense.len() as u64));
        // Ascending iteration sees the migrated entry in order.
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn iteration_is_ascending_across_dense_and_sparse() {
        let mut m = IdMap::new();
        m.insert(3, 'c');
        m.insert(0, 'a');
        m.insert(9_999_999, 'z'); // overflow
        m.insert(1, 'b');
        let got: Vec<(u64, char)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (3, 'c'), (9_999_999, 'z')]);
        for v in m.values_mut() {
            *v = v.to_ascii_uppercase();
        }
        let vals: Vec<char> = m.values().copied().collect();
        assert_eq!(vals, vec!['A', 'B', 'C', 'Z']);
    }

    #[test]
    fn serde_matches_sorted_pairs_encoding() {
        let mut m: IdMap<u32> = IdMap::new();
        m.insert(2, 20);
        m.insert(0, 10);
        m.insert(5_000_000, 30); // one overflow entry
        let json = serde_json::to_string(&m).unwrap();
        // Same bytes as a plain sorted pair list.
        let pairs: Vec<(u64, u32)> = vec![(0, 10), (2, 20), (5_000_000, 30)];
        assert_eq!(json, serde_json::to_string(&pairs).unwrap());
        let back: IdMap<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.get(2), Some(&20));
        assert_eq!(back.len(), 3);
    }
}
