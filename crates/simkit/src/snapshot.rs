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
//! * `checksum` is FNV-1a (64-bit) over the canonical JSON rendering of the
//!   `state` value. The workspace JSON writer is canonical (parse → render is
//!   the identity on its own output), so the checksum can be re-verified from
//!   the parsed tree without keeping the original byte offsets around.
//! * `state` is whatever the caller serialized.
//!
//! [`write_file`] is atomic (write to a sibling `.tmp`, then rename) so a
//! crash mid-write can never destroy the previous good snapshot, and
//! [`read_file`] surfaces torn or bit-flipped files as
//! [`SnapshotError::ChecksumMismatch`] instead of garbage state.
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
/// keys, emitted only when the subsystems are configured). v3 is a strict
/// superset of v2, so this build still reads v2 files; v1 and unknown
/// future versions decode as [`SnapshotError::UnknownVersion`] rather than
/// mis-restoring.
pub const SNAPSHOT_VERSION: u64 = 3;

/// Oldest schema version this build still restores. Every version in
/// `MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION` only ever *added* optional
/// keys, so older files within the range decode with the additions absent.
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
    let state = decode_value(text)?;
    T::from_value(&state).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

/// Like [`decode`], but stop at the verified state tree. Useful when the
/// concrete type is chosen after inspecting the state.
pub fn decode_value(text: &str) -> Result<Value, SnapshotError> {
    let root: Value =
        serde_json::from_str(text).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    let entries = root
        .as_map()
        .ok_or_else(|| SnapshotError::Corrupt("envelope is not a JSON object".into()))?;
    // Version gates everything: an unknown schema must fail here, not as a
    // confusing missing-field error somewhere inside the state.
    let version: u64 = serde::field(entries, "version")
        .map_err(|e| SnapshotError::Corrupt(format!("bad version field: {e}")))?;
    if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(SnapshotError::UnknownVersion { found: version });
    }
    let expected: u64 = serde::field(entries, "checksum")
        .map_err(|e| SnapshotError::Corrupt(format!("bad checksum field: {e}")))?;
    let state: Value = serde::field(entries, "state")
        .map_err(|e| SnapshotError::Corrupt(format!("bad state field: {e}")))?;
    let body = serde_json::to_string(&state).expect("serialization is infallible");
    let actual = checksum(body.as_bytes());
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(state)
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

    #[test]
    fn v2_files_still_decode() {
        // v3 only added optional keys, so a v2 envelope (same body layout,
        // older version stamp) must restore unchanged.
        let text = encode(&sample()).replacen("\"version\":3", "\"version\":2", 1);
        let back: BTreeMap<String, u64> = decode(&text).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn pre_window_version_is_refused() {
        let text = encode(&sample()).replacen("\"version\":3", "\"version\":1", 1);
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
