//! Versioned, checksummed snapshot envelopes for durable simulation state.
//!
//! A snapshot file is a single JSON object:
//!
//! ```json
//! {"version":1,"checksum":16556967904631265916,"state":{...}}
//! ```
//!
//! * `version` is read **before** anything else is interpreted, so a file
//!   written by a future schema fails with [`SnapshotError::UnknownVersion`]
//!   rather than a deserialization panic deep inside the state tree.
//! * `checksum` is FNV-1a (64-bit) over the `state` bytes exactly as
//!   written. [`decode`] checks it on those bytes *before* parsing them, so
//!   a torn or bit-flipped file is refused without the parser ever seeing
//!   it, and the state is parsed once.
//! * `state` is whatever the caller serialized.
//!
//! Because the checksum covers bytes, the bytes must be a deterministic
//! function of the state. Each layer's derive keeps fields in declaration
//! order; maps keyed by ids go through [`sorted_pairs`] so hash-map
//! iteration order never reaches the file; derived indexes are
//! `#[serde(skip)]` and rebuilt by their owner's hand-written
//! `Deserialize`. The few encodings that are genuinely custom (the RNG
//! stream position, ±∞ tally sentinels, the calendar's sorted entries,
//! [`crate::IdMap`]'s pairs) are hand-written beside their types.
//!
//! [`write_file`] is atomic (write to a sibling `.tmp`, then rename) so a
//! crash mid-write can never destroy the previous good snapshot, and
//! [`read_file`] surfaces torn or bit-flipped files as
//! [`SnapshotError::Corrupt`] or [`SnapshotError::ChecksumMismatch`]
//! instead of garbage state.
//!
//! The [`Snapshot`] trait packages the envelope round-trip for any
//! `Serialize + Deserialize` type; domain crates (`gridsim`, `garli`) opt in
//! with an empty impl and gain `to_snapshot` / `from_snapshot` /
//! `write_snapshot` / `read_snapshot`.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;

/// Current snapshot schema version. Bump when the envelope layout or the
/// determinism contract of embedded state changes incompatibly.
///
/// History: v1 — original whole-grid checkpoint schema; v2 — observability
/// layer (time-series collector, span log, SLO engine state inside grid
/// telemetry; clamp counters on time-weighted stats); v3 — workflow/churn
/// layer (optional `flow` campaign book and `churn` availability model
/// keys, emitted only when the subsystems are configured); v4 — one
/// volunteer work-fetch event per herd (a pending `BoincAssign` carries
/// `clients: [..]` where v2 and v3 queued one `client` per host); v5 —
/// each grid setting stored once. v1 and unknown future versions decode
/// as [`SnapshotError::UnknownVersion`] rather than mis-restoring.
pub const SNAPSHOT_VERSION: u64 = 5;

/// Oldest schema version this build still restores. v3 only added
/// optional keys to v2, so a v2 file decodes with them absent. v4 changed
/// one calendar event (the grid rewrites a v2/v3 per-host `BoincAssign`
/// as a one-member herd); v5 dropped keys (the grid refuses an older file
/// whose dropped settings differ from the constants that replaced them).
pub const MIN_SNAPSHOT_VERSION: u64 = 2;

/// Why a snapshot could not be decoded or persisted.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file declares a schema version this build does not understand.
    UnknownVersion {
        /// Version found in the file.
        found: u64,
    },
    /// The checksum recorded in the envelope does not match the state body.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: u64,
        /// Checksum recomputed over the state body.
        actual: u64,
    },
    /// The file is not a well-formed envelope, or the state body does not
    /// deserialize into the requested type.
    Corrupt(String),
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnknownVersion { found } => write!(
                f,
                "snapshot version {found} is not supported (this build reads \
                 versions {MIN_SNAPSHOT_VERSION}..={SNAPSHOT_VERSION}); \
                 refusing to guess at the schema"
            ),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: envelope says {expected}, state \
                 body hashes to {actual} (file is torn or corrupted)"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit hash: the integrity check for snapshot state bodies, and
/// the label hash behind [`crate::SimRng::fork`].
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Render `state` into a versioned, checksummed envelope.
pub fn encode<T: Serialize + ?Sized>(state: &T) -> String {
    let body = serde_json::to_string(state).expect("serialization is infallible");
    let sum = checksum(body.as_bytes());
    format!("{{\"version\":{SNAPSHOT_VERSION},\"checksum\":{sum},\"state\":{body}}}")
}

/// Decode an envelope produced by [`encode`], verifying version and checksum
/// before touching the state body.
pub fn decode<T: Deserialize>(text: &str) -> Result<T, SnapshotError> {
    serde_json::from_str(verified_state(text)?).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

/// Like [`decode`], but stop at the verified state tree. Useful when the
/// concrete type is chosen after inspecting the state.
pub fn decode_value(text: &str) -> Result<Value, SnapshotError> {
    decode(text)
}

/// The `state` bytes of an envelope, once its version is supported and
/// its checksum matches them. Nothing is parsed: the envelope is the fixed
/// frame [`encode`] writes around the body.
fn verified_state(text: &str) -> Result<&str, SnapshotError> {
    let corrupt = |what: &str| SnapshotError::Corrupt(format!("bad {what} field"));
    let rest = text
        .strip_prefix("{\"version\":")
        .ok_or_else(|| corrupt("version"))?;
    let (version, rest) = rest
        .split_once(",\"checksum\":")
        .ok_or_else(|| corrupt("version"))?;
    // Version gates everything: an unknown schema must fail here, not as a
    // confusing missing-field error somewhere inside the state.
    let version: u64 = version.parse().map_err(|_| corrupt("version"))?;
    if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(SnapshotError::UnknownVersion { found: version });
    }
    let (expected, rest) = rest
        .split_once(",\"state\":")
        .ok_or_else(|| corrupt("checksum"))?;
    let expected: u64 = expected.parse().map_err(|_| corrupt("checksum"))?;
    let body = rest.strip_suffix('}').ok_or_else(|| corrupt("state"))?;
    let actual = checksum(body.as_bytes());
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// `#[serde(with = "simkit::snapshot::sorted_pairs")]`: a map keyed by ids
/// as a sequence of `[key, value]` pairs in ascending key order, so a
/// `HashMap`'s iteration order never reaches the snapshot bytes.
pub mod sorted_pairs {
    use serde::{Deserialize, Error, Serialize, Value};

    /// Encode any map (`HashMap`, `BTreeMap`, …) as key-sorted pairs.
    pub fn to_value<'a, M, K, V>(map: &'a M) -> Value
    where
        &'a M: IntoIterator<Item = (&'a K, &'a V)>,
        K: Ord + Serialize + 'a,
        V: Serialize + 'a,
    {
        let mut pairs: Vec<(&K, &V)> = map.into_iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Value::Seq(
            pairs
                .into_iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    /// Decode pairs written by [`to_value`] into any map.
    pub fn from_value<M, K, V>(value: &Value) -> Result<M, Error>
    where
        M: FromIterator<(K, V)>,
        K: Deserialize,
        V: Deserialize,
    {
        let pairs: Vec<(K, V)> = Vec::from_value(value)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Atomically write `state` as an envelope to `path`: the bytes land in a
/// sibling `.tmp` file first, then replace `path` in one rename, so a crash
/// mid-write leaves any previous snapshot intact.
pub fn write_file<T: Serialize + ?Sized>(path: &Path, state: &T) -> Result<(), SnapshotError> {
    let text = encode(state);
    let file_name = path
        .file_name()
        .ok_or_else(|| SnapshotError::Corrupt(format!("bad snapshot path {}", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, text.as_bytes())?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and decode an envelope written by [`write_file`].
pub fn read_file<T: Deserialize>(path: &Path) -> Result<T, SnapshotError> {
    let text = std::fs::read_to_string(path)?;
    decode(&text)
}

/// Envelope round-trip for a serializable type. Implement with an empty
/// `impl Snapshot for X {}` to gain versioned, checksummed persistence.
pub trait Snapshot: Serialize + Deserialize {
    /// Encode into a versioned, checksummed envelope string.
    fn to_snapshot(&self) -> String {
        encode(self)
    }

    /// Decode from an envelope string, verifying version and checksum first.
    fn from_snapshot(text: &str) -> Result<Self, SnapshotError> {
        decode(text)
    }

    /// Atomically persist to `path` (tmp + rename).
    fn write_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        write_file(path, self)
    }

    /// Load from a file written by [`Snapshot::write_snapshot`].
    fn read_snapshot(path: &Path) -> Result<Self, SnapshotError> {
        read_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> BTreeMap<String, u64> {
        [("a".to_string(), 1u64), ("b".to_string(), 2)]
            .into_iter()
            .collect()
    }

    #[test]
    fn roundtrip() {
        let text = encode(&sample());
        let back: BTreeMap<String, u64> = decode(&text).unwrap();
        assert_eq!(back, sample());
        // Envelope re-encodes byte-identically.
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn future_version_is_refused_before_state_is_read() {
        // State is deliberately garbage for the target type: the version
        // check must fire first, so the garbage is never interpreted.
        let text = r#"{"version":999,"checksum":0,"state":{"surprise":[1,2]}}"#;
        match decode::<BTreeMap<String, u64>>(text) {
            Err(SnapshotError::UnknownVersion { found: 999 }) => {}
            other => panic!("expected UnknownVersion, got {other:?}"),
        }
    }

    /// `encode(&sample())` stamped with an older schema `version`.
    fn stamped(version: u64) -> String {
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        encode(&sample()).replacen(&current, &format!("\"version\":{version}"), 1)
    }

    #[test]
    fn v2_files_still_decode() {
        // The envelope is the same in every supported version, so a v2 or
        // v3 envelope (older version stamp) must restore unchanged; each
        // domain type's restore upgrades what its own state changed.
        for version in MIN_SNAPSHOT_VERSION..SNAPSHOT_VERSION {
            let text = stamped(version);
            assert!(text.starts_with(&format!("{{\"version\":{version},")));
            let back: BTreeMap<String, u64> = decode(&text).unwrap();
            assert_eq!(back, sample());
        }
    }

    #[test]
    fn pre_window_version_is_refused() {
        let text = stamped(1);
        match decode::<BTreeMap<String, u64>>(&text) {
            Err(SnapshotError::UnknownVersion { found: 1 }) => {}
            other => panic!("expected UnknownVersion, got {other:?}"),
        }
    }

    #[test]
    fn missing_version_is_corrupt_not_panic() {
        let text = r#"{"checksum":0,"state":{}}"#;
        assert!(matches!(
            decode::<BTreeMap<String, u64>>(text),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn bit_flip_is_detected() {
        let text = encode(&sample());
        // Flip a digit inside the state body.
        let broken = text.replacen("\"a\":1", "\"a\":7", 1);
        assert_ne!(broken, text);
        assert!(matches!(
            decode::<BTreeMap<String, u64>>(&broken),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn atomic_file_roundtrip() {
        let dir = std::env::temp_dir().join("simkit_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap.json");
        write_file(&path, &sample()).unwrap();
        let back: BTreeMap<String, u64> = read_file(&path).unwrap();
        assert_eq!(back, sample());
        // The tmp file must not linger after a successful write.
        assert!(!path.with_file_name("state.snap.json.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_reports_corrupt() {
        let text = encode(&sample());
        let truncated = &text[..text.len() - 4];
        assert!(matches!(
            decode::<BTreeMap<String, u64>>(truncated),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn deeply_nested_state_is_corrupt_not_an_abort() {
        let deep = "[".repeat(100_000);
        assert!(matches!(
            decode_value(&deep),
            Err(SnapshotError::Corrupt(_))
        ));
        // Re-sealed with a valid checksum, the body reaches the parser,
        // which refuses the nesting instead of overflowing the stack.
        let sealed = format!(
            "{{\"version\":{SNAPSHOT_VERSION},\"checksum\":{},\"state\":{deep}}}",
            checksum(deep.as_bytes())
        );
        assert!(matches!(
            decode_value(&sealed),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn sorted_pairs_hide_hash_map_insertion_order() {
        use std::collections::HashMap;
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Table {
            #[serde(with = "super::sorted_pairs")]
            rows: HashMap<u64, String>,
        }
        let ids = [40u64, 3, 17, 99, 0, 64, 8];
        let forward: HashMap<u64, String> = ids.iter().map(|&i| (i, i.to_string())).collect();
        let mut backward = HashMap::with_capacity(1);
        for &i in ids.iter().rev() {
            backward.insert(i, i.to_string());
        }
        let a = serde_json::to_string(&Table { rows: forward }).unwrap();
        let b = serde_json::to_string(&Table { rows: backward }).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            r#"{"rows":[[0,"0"],[3,"3"],[8,"8"],[17,"17"],[40,"40"],[64,"64"],[99,"99"]]}"#
        );
        let back: Table = serde_json::from_str(&a).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), a);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Probe {
        label: String,
        ticks: u64,
    }

    impl Snapshot for Probe {}

    #[test]
    fn snapshot_trait_roundtrip() {
        let probe = Probe {
            label: "replicate-3".to_string(),
            ticks: 41,
        };
        let text = probe.to_snapshot();
        assert_eq!(Probe::from_snapshot(&text).unwrap(), probe);
    }
}
