//! Small measurement helpers shared by the workloads: order statistics,
//! process memory, FNV fingerprints and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A `/proc/self/status` memory field (e.g. `VmHWM`, `VmRSS`) in bytes.
pub fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    proc_status_bytes("VmHWM") as f64 / 1e6
}

/// Streaming FNV-1a 64-bit hash (the same function `simkit::snapshot`
/// uses for its envelope checksum).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The checkout root: the parent of this package's directory.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package directory has a parent")
        .to_path_buf()
}

/// Where runs leave their Chrome traces and keep their scratch files.
pub fn run_dir() -> PathBuf {
    checkout_root().join(".perfbench_run")
}

/// A per-process scratch directory under [`run_dir`], removed on drop.
/// Snapshot files live here and nowhere else.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `.perfbench_run/tmp-<label>-<pid>` (emptied first).
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let dir = run_dir().join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 18.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn fnv_matches_snapshot_checksum() {
        let mut h = Fnv::default();
        h.write(b"lattice");
        assert_eq!(h.0, simkit::snapshot::checksum(b"lattice"));
    }
}
