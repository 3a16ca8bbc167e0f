//! Run-length encoding.
//!
//! Paper §3.3: "To generate the index, the algorithm performs a run-length
//! encoding on the symbols' record-tags, which yields each field's record
//! and its number of symbols." A run starts at every head, an index whose
//! value differs from its predecessor's. Each worker walks its contiguous
//! range once and appends the heads it finds to its own buffers; the
//! buffers join in worker order. A head is judged against the previous
//! item even across a worker boundary, so a run that continues into the
//! next worker's range has no head there and merges at the join.

use crate::grid::Grid;

/// The result of run-length encoding a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLengths<T> {
    /// The value of each run, in input order.
    pub values: Vec<T>,
    /// The length of each run (parallel to `values`).
    pub lengths: Vec<u64>,
    /// The starting input offset of each run (parallel to `values`).
    pub offsets: Vec<u64>,
}

/// Run-length encode `items` in parallel.
pub fn run_length_encode<T>(grid: &Grid, items: &[T]) -> RunLengths<T>
where
    T: Clone + Eq + Send + Sync,
{
    let n = items.len();
    let (values, offsets): (Vec<Vec<T>>, Vec<Vec<u64>>) = grid
        .map_partitioned(n, |_, range| {
            let (mut values, mut offsets) = (Vec::new(), Vec::new());
            for i in range {
                grid.check_abort(i);
                if i == 0 || items[i] != items[i - 1] {
                    values.push(items[i].clone());
                    offsets.push(i as u64);
                }
            }
            (values, offsets)
        })
        .into_iter()
        .unzip();
    let (values, offsets) = (values.concat(), offsets.concat());

    // Each run ends where the next starts; the last ends with the input.
    let ends = offsets.iter().skip(1).copied().chain([n as u64]);
    let lengths = offsets.iter().zip(ends).map(|(s, e)| e - s).collect();

    RunLengths {
        values,
        lengths,
        offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn rle_seq<T: Clone + Eq>(items: &[T]) -> (Vec<T>, Vec<u64>, Vec<u64>) {
        let mut values = Vec::new();
        let mut lengths: Vec<u64> = Vec::new();
        let mut offsets = Vec::new();
        for (i, x) in items.iter().enumerate() {
            if values.last() != Some(x) || i == 0 {
                // Start a new run even when the value repeats across what a
                // caller considers a boundary — for plain RLE only equality
                // matters, so this is just "value changed or first element".
                if i == 0 || items[i - 1] != *x {
                    values.push(x.clone());
                    lengths.push(1);
                    offsets.push(i as u64);
                    continue;
                }
            }
            *lengths.last_mut().unwrap() += 1;
        }
        (values, lengths, offsets)
    }

    #[test]
    fn encodes_runs() {
        let grid = Grid::new(3);
        let xs = vec![0u32, 0, 0, 1, 1, 2, 0, 0];
        let r = run_length_encode(&grid, &xs);
        assert_eq!(r.values, vec![0, 1, 2, 0]);
        assert_eq!(r.lengths, vec![3, 2, 1, 2]);
        assert_eq!(r.offsets, vec![0, 3, 5, 6]);
    }

    #[test]
    fn empty_and_single() {
        let grid = Grid::new(2);
        let r = run_length_encode::<u32>(&grid, &[]);
        assert!(r.values.is_empty());
        let r = run_length_encode(&grid, &[7u32]);
        assert_eq!(r.values, vec![7]);
        assert_eq!(r.lengths, vec![1]);
    }

    #[test]
    fn matches_sequential() {
        let mut rng = SplitMix64::new(0x41e);
        // The last input is one constant run spanning every worker, so the
        // join must carry it through whole middle workers.
        for case in 0..65 {
            let (xs, workers) = if case == 64 {
                (vec![3u32; 400], 4)
            } else {
                let len = rng.next_below(400) as usize;
                let xs = rng.vec(len, |r| r.next_below(5) as u32);
                (xs, rng.next_range(1, 5) as usize)
            };
            let len = xs.len();
            let grid = Grid::new(workers);
            let got = run_length_encode(&grid, &xs);
            let (v, l, o) = rle_seq(&xs);
            assert_eq!(got.values, v, "case {case} len {len} workers {workers}");
            assert_eq!(got.lengths, l, "case {case} len {len} workers {workers}");
            assert_eq!(got.offsets, o, "case {case} len {len} workers {workers}");
        }
    }

    #[test]
    fn lengths_sum_to_input() {
        let mut rng = SplitMix64::new(0x41f);
        for _ in 0..32 {
            let len = rng.next_below(300) as usize;
            let xs = rng.vec(len, |r| r.next_below(3) as u32);
            let grid = Grid::new(4);
            let r = run_length_encode(&grid, &xs);
            assert_eq!(r.lengths.iter().sum::<u64>() as usize, xs.len());
        }
    }
}
