//! Deterministic, forkable randomness.
//!
//! Every stochastic component of a simulation (each volunteer client, each
//! workload generator, each search replicate) gets its own [`SimRng`] forked
//! from a parent by a string label. Forking hashes the label into the parent
//! seed, so streams are independent of *iteration order* and of how many
//! other streams exist — adding a new component never perturbs existing ones.
//!
//! The generator is ChaCha8: cryptographic-quality statistical behaviour at a
//! throughput far beyond what an event-level simulation needs.

use crate::snapshot::checksum as fnv1a;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, JsonWriter, Serialize, Value};

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
    seed: u64,
}

// Snapshot form: the seed plus the ChaCha stream position `(counter, index)`.
// Restoring re-derives the key from the seed and fast-forwards to the exact
// word, so the restored stream continues bit-for-bit where it left off.
impl Serialize for SimRng {
    fn serialize(&self, out: &mut JsonWriter) {
        let (counter, index) = self.inner.stream_position();
        out.map(|map| {
            map.entry("seed", &self.seed);
            map.entry("counter", &counter);
            map.entry("index", &index);
        });
    }
}

impl Deserialize for SimRng {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for SimRng"))?;
        let mut rng = SimRng::new(serde::field(fields, "seed")?);
        let counter: u64 = serde::field(fields, "counter")?;
        let index: usize = serde::field(fields, "index")?;
        rng.inner.set_stream_position(counter, index);
        Ok(rng)
    }
}

impl SimRng {
    /// Root stream for a simulation run.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Deterministic: the same parent seed and label always produce the same
    /// child, regardless of how much the parent has been used.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(splitmix(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Derive an independent child stream identified by an index (e.g. the
    /// i-th volunteer client).
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        SimRng::new(splitmix(
            self.seed ^ fnv1a(label.as_bytes()) ^ splitmix(idx.wrapping_add(0x9E37_79B9)),
        ))
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        // Inverse-CDF; 1-u in (0,1] avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.f64(); // (0, 1]
        let u2: f64 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Log-normal parameterized by the *underlying* normal's mu and sigma.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Gamma(shape k, scale theta) via Marsaglia–Tsang (with Ahrens-style
    /// boost for k < 1).
    ///
    /// # Panics
    /// Panics unless both parameters are finite and positive.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(shape.is_finite() && shape > 0.0, "invalid shape: {shape}");
        assert!(scale.is_finite() && scale > 0.0, "invalid scale: {scale}");
        if shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k)
            let u = 1.0 - self.f64();
            return self.gamma(shape + 1.0, scale) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = 1.0 - self.f64();
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v * scale;
            }
        }
    }

    /// Sample from discrete weights (need not be normalized). Returns the
    /// chosen index.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0 && total.is_finite(), "bad weight sum: {total}");
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1 // floating-point slack
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_is_label_deterministic_and_usage_independent() {
        let mut parent1 = SimRng::new(7);
        let parent2 = SimRng::new(7);
        // Burn some numbers on parent1: forks must not be affected.
        for _ in 0..10 {
            parent1.next_u64();
        }
        let mut c1 = parent1.fork("client");
        let mut c2 = parent2.fork("client");
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Different labels diverge.
        let mut d = parent2.fork("other");
        assert_ne!(c2.next_u64(), d.next_u64());
    }

    #[test]
    fn fork_idx_streams_differ() {
        let root = SimRng::new(1);
        let mut a = root.fork_idx("client", 0);
        let mut b = root.fork_idx("client", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    fn gamma_moments_close() {
        let mut rng = SimRng::new(4);
        let (shape, scale) = (2.5, 2.0);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gamma(shape, scale)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - shape * scale).abs() < 0.2, "mean = {mean}");
        assert!((var - shape * scale * scale).abs() < 1.0, "var = {var}");
    }

    #[test]
    fn gamma_small_shape_positive() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let x = rng.gamma(0.3, 1.0);
            assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(6);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        let total: u32 = counts.iter().sum();
        let p2 = counts[2] as f64 / total as f64;
        assert!((p2 - 0.7).abs() < 0.02, "p2 = {p2}");
        assert!(counts[0] > 0 && counts[1] > 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn lognormal_median_matches_mu() {
        let mut rng = SimRng::new(10);
        let n = 20_000;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.lognormal(1.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Median of lognormal(mu, sigma) is e^mu.
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median = {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn serde_roundtrip_resumes_stream_mid_buffer() {
        // Odd draw counts leave the generator mid-block — the interesting
        // restore case; 0 checks the never-refilled fresh state.
        for draws in [0usize, 7, 16, 33] {
            let mut a = SimRng::new(2011);
            for _ in 0..draws {
                a.next_u32();
            }
            let json = serde_json::to_string(&a).unwrap();
            let mut b: SimRng = serde_json::from_str(&json).unwrap();
            assert_eq!(b.seed(), a.seed());
            // Byte-stable re-serialization.
            assert_eq!(serde_json::to_string(&b).unwrap(), json);
            for _ in 0..40 {
                assert_eq!(a.next_u64(), b.next_u64(), "diverged after {draws} draws");
            }
            // Forks from the restored stream match forks from the original.
            assert_eq!(a.fork("child").next_u64(), b.fork("child").next_u64());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
