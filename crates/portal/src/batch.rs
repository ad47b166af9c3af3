//! Batch splitting.
//!
//! "When a portal user submits a large number of jobs, the grid system
//! breaks these up into smaller batches and may schedule each of these
//! batches to a different grid computing resource" (paper §III.B).

use serde::{Deserialize, Serialize};

/// A contiguous range of replicate indices destined for one resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Batch index within the submission.
    pub index: usize,
    /// First replicate (inclusive).
    pub start: usize,
    /// One past the last replicate.
    pub end: usize,
}

impl Batch {
    /// Number of replicates in the batch.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True iff empty (never produced by [`split_into_batches`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split `total` replicates into batches of at most `batch_size`.
///
/// # Panics
/// Panics if `batch_size == 0`.
pub fn split_into_batches(total: usize, batch_size: usize) -> Vec<Batch> {
    assert!(batch_size > 0, "batch size must be positive");
    let mut batches = Vec::new();
    let mut start = 0;
    while start < total {
        let end = (start + batch_size).min(total);
        batches.push(Batch {
            index: batches.len(),
            start,
            end,
        });
        start = end;
    }
    batches
}

/// Split `total` replicates into batches proportional to per-resource
/// capacity weights (at least one replicate per positive-weight resource
/// while replicates remain). Returns `(weight_index, Batch)` pairs.
///
/// # Panics
/// Panics if `weights` is empty or sums to zero.
pub fn split_by_capacity(total: usize, weights: &[f64]) -> Vec<(usize, Batch)> {
    assert!(!weights.is_empty(), "no resources to batch over");
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "capacity weights sum to zero");
    // Largest-remainder apportionment for determinism and exactness.
    let shares: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut remainders: Vec<(usize, f64)> = shares
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s - s.floor()))
        .collect();
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for k in 0..(total - assigned) {
        counts[remainders[k % remainders.len()].0] += 1;
    }
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            out.push((
                i,
                Batch {
                    index: out.len(),
                    start,
                    end: start + c,
                },
            ));
            start += c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let b = split_into_batches(100, 25);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|x| x.len() == 25));
        assert_eq!(b[3].end, 100);
    }

    #[test]
    fn ragged_tail() {
        let b = split_into_batches(10, 4);
        assert_eq!(b.iter().map(Batch::len).collect::<Vec<_>>(), vec![4, 4, 2]);
    }

    #[test]
    fn covers_all_replicates_without_overlap() {
        let b = split_into_batches(2000, 64);
        let mut covered = vec![false; 2000];
        for batch in &b {
            for (offset, slot) in covered[batch.start..batch.end].iter_mut().enumerate() {
                assert!(!*slot, "overlap at {}", batch.start + offset);
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn single_small_submission() {
        let b = split_into_batches(1, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].len(), 1);
    }

    #[test]
    fn zero_total_gives_no_batches() {
        assert!(split_into_batches(0, 10).is_empty());
    }

    #[test]
    fn capacity_split_proportional_and_exact() {
        let parts = split_by_capacity(100, &[3.0, 1.0]);
        let total: usize = parts.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 100);
        assert_eq!(parts[0].1.len(), 75);
        assert_eq!(parts[1].1.len(), 25);
    }

    #[test]
    fn capacity_split_handles_remainders() {
        let parts = split_by_capacity(10, &[1.0, 1.0, 1.0]);
        let sizes: Vec<usize> = parts.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn zero_weight_resources_get_nothing() {
        let parts = split_by_capacity(10, &[0.0, 5.0]);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 1);
        assert_eq!(parts[0].1.len(), 10);
    }
}
