//! Parallel reductions.
//!
//! Used by the column-count inference capability (paper §4.3): a reduction
//! over per-chunk minimum/maximum column counts yields the inferred column
//! count, and a reduction over per-field minimal numeric types yields a
//! column's inferred type.

use crate::grid::Grid;
use crate::scan::ScanOp;

/// Reduce `items` under `op`, returning the identity for empty input.
pub fn reduce<O: ScanOp>(grid: &Grid, items: &[O::Item], op: &O) -> O::Item {
    map_reduce(grid, items.len(), op, |i| items[i].clone())
}

/// Map each index to a value and reduce the results under `op` without
/// materialising the mapped vector.
pub fn map_reduce<O, F>(grid: &Grid, n: usize, op: &O, f: F) -> O::Item
where
    O: ScanOp,
    F: Fn(usize) -> O::Item + Sync,
{
    // Each worker folds its contiguous range; the partials combine left
    // to right in worker order, so `op` need not commute.
    grid.map_partitioned(n, |_, range| {
        Some(range.fold(op.identity(), |acc, i| op.combine(&acc, &f(i))))
    })
    .into_iter()
    .flatten()
    .fold(op.identity(), |acc, p| op.combine(&acc, &p))
}

/// Minimum over `u8` with `u8::MAX` as identity; used for type inference.
#[derive(Debug, Default, Clone, Copy)]
pub struct MinU8Op;

impl ScanOp for MinU8Op {
    type Item = u8;
    fn identity(&self) -> u8 {
        u8::MAX
    }
    fn combine(&self, a: &u8, b: &u8) -> u8 {
        (*a).min(*b)
    }
}

/// Maximum over `u8` with `0` as identity; used for type inference.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxU8Op;

impl ScanOp for MaxU8Op {
    type Item = u8;
    fn identity(&self) -> u8 {
        0
    }
    fn combine(&self, a: &u8, b: &u8) -> u8 {
        (*a).max(*b)
    }
}

/// (min, max) pair over `u32` used for column-count inference. The identity
/// is the empty interval `(u32::MAX, 0)`, matching the paper's "extra bit"
/// marking chunks that saw no record delimiter.
#[derive(Debug, Default, Clone, Copy)]
pub struct MinMaxU32Op;

impl ScanOp for MinMaxU32Op {
    type Item = (u32, u32);
    fn identity(&self) -> (u32, u32) {
        (u32::MAX, 0)
    }
    fn combine(&self, a: &(u32, u32), b: &(u32, u32)) -> (u32, u32) {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::AddOp;

    #[test]
    fn reduce_sums() {
        let grid = Grid::new(3);
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(reduce(&grid, &xs, &AddOp), 500500);
        assert_eq!(reduce(&grid, &[], &AddOp), 0);
    }

    #[test]
    fn map_reduce_matches_reduce() {
        let grid = Grid::new(4);
        let xs: Vec<u64> = (0..317).map(|i| i * i % 91).collect();
        let direct = reduce(&grid, &xs, &AddOp);
        let mapped = map_reduce(&grid, xs.len(), &AddOp, |i| xs[i]);
        assert_eq!(direct, mapped);
    }

    #[test]
    fn min_max_ops() {
        let grid = Grid::new(2);
        let xs = vec![9u8, 3, 7, 1, 8];
        assert_eq!(reduce(&grid, &xs, &MinU8Op), 1);
        assert_eq!(reduce(&grid, &xs, &MaxU8Op), 9);
        // Empty interval identity behaves.
        let pairs = vec![(3u32, 5u32), (2, 2), (u32::MAX, 0)];
        assert_eq!(reduce(&grid, &pairs, &MinMaxU32Op), (2, 5));
    }
}
