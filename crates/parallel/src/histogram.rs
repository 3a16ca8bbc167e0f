//! Parallel histograms.
//!
//! A partitioning pass of the paper's stable radix sort (§3.3) starts by
//! "computing the histogram over the number of items that belong to each
//! partition". The parallel shape is the classic one: per-worker local
//! histograms merged at the end, avoiding atomic contention on the bins.

use crate::grid::{Grid, SlotWriter};

/// Histogram of `keys` into `num_bins` bins. Keys `>= num_bins` are counted
/// into the last bin (callers that need strictness should validate first).
pub fn histogram(grid: &Grid, keys: &[u32], num_bins: usize) -> Vec<u64> {
    let mut bins = vec![0u64; num_bins.max(1)];
    for local in local_histograms(grid, keys.len(), num_bins, &|i| keys[i]) {
        for (b, c) in bins.iter_mut().zip(local) {
            *b += c;
        }
    }
    bins
}

/// Per-worker local histograms in worker order, the building block the
/// stable radix-sort scatter needs (it must know where each *worker's* run
/// of each digit starts, not just the digit totals).
pub fn local_histograms<F>(grid: &Grid, n: usize, num_bins: usize, key_of: &F) -> Vec<Vec<u64>>
where
    F: Fn(usize) -> u32 + Sync,
{
    let num_bins = num_bins.max(1);
    grid.map_partitioned(n, |_, range| {
        let mut bins = vec![0u64; num_bins];
        for i in range {
            let k = (key_of(i) as usize).min(num_bins - 1);
            bins[k] += 1;
        }
        bins
    })
}

/// [`local_histograms`] that also records each index's (clamped) key into
/// `digits`, so a scatter pass over the same keys reads the stored digit
/// instead of re-evaluating `key_of` — the radix sort computes each key's
/// digit exactly once per pass. Requires `num_bins <= 65536` (a radix
/// digit always fits `u16`).
pub fn local_histograms_digits<F>(
    grid: &Grid,
    n: usize,
    num_bins: usize,
    key_of: &F,
    digits: &mut [u16],
) -> Vec<Vec<u64>>
where
    F: Fn(usize) -> u32 + Sync,
{
    let num_bins = num_bins.clamp(1, 1 << 16);
    assert_eq!(digits.len(), n, "one digit slot per item");
    let dw = SlotWriter::new(digits);
    grid.map_partitioned(n, |_, range| {
        let mut bins = vec![0u64; num_bins];
        for i in range {
            let k = (key_of(i) as usize).min(num_bins - 1);
            bins[k] += 1;
            // SAFETY: `map_partitioned` hands each worker a disjoint range
            // of `0..n`, and `digits.len() == n` was asserted above.
            unsafe { dw.write(i, k as u16) };
        }
        bins
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_sequential() {
        let keys: Vec<u32> = (0..10_000).map(|i| (i * 31 % 257) as u32 % 16).collect();
        for workers in [1, 2, 5] {
            let grid = Grid::new(workers);
            let bins = histogram(&grid, &keys, 16);
            let mut want = vec![0u64; 16];
            for &k in &keys {
                want[k as usize] += 1;
            }
            assert_eq!(bins, want);
            assert_eq!(bins.iter().sum::<u64>(), keys.len() as u64);
        }
    }

    #[test]
    fn out_of_range_keys_clamp() {
        let grid = Grid::new(2);
        let keys = vec![0, 1, 99, 1000];
        let bins = histogram(&grid, &keys, 4);
        assert_eq!(bins, vec![1, 1, 0, 2]);
    }

    #[test]
    fn local_histograms_sum_to_global() {
        let keys: Vec<u32> = (0..999).map(|i| (i % 7) as u32).collect();
        let grid = Grid::new(4);
        let locals = local_histograms(&grid, keys.len(), 7, &|i| keys[i]);
        let global = histogram(&grid, &keys, 7);
        let mut sum = vec![0u64; 7];
        for l in &locals {
            for (s, c) in sum.iter_mut().zip(l) {
                *s += c;
            }
        }
        assert_eq!(sum, global);
    }

    #[test]
    fn empty_input() {
        let grid = Grid::new(3);
        assert_eq!(histogram(&grid, &[], 8), vec![0u64; 8]);
    }
}
