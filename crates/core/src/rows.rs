//! Row skipping (paper §4.3).
//!
//! "It is worth noting that rows are different from records, as some
//! records may span multiple rows. Since ignoring rows may interfere with
//! the assignment of symbols to columns and records, ParPaRaw has to
//! ensure that rows are ignored early on. Hence, ParPaRaw ignores a set of
//! rows by performing an initial pass over the input, pruning symbols of
//! ignored rows."
//!
//! A *row* is bounded by raw newline bytes, independent of any quoting
//! context — that is exactly why skipping must happen **before** parsing:
//! removing a row can close or open an enclosure for everything after it.
//! The prepass is data-parallel and walks the input twice: each worker
//! counts the newlines in its contiguous range, a running sum over those
//! per-worker counts gives each range its first row index, and each
//! worker then appends the bytes of its kept rows to its own buffer. The
//! buffers join in worker order.

use crate::chunks::{chunk_ranges, num_chunks};
use parparaw_parallel::{KernelExecutor, LaunchError};

/// The pruned input plus accounting.
#[derive(Debug)]
pub struct PrunedRows {
    /// The input with all bytes of the skipped rows removed (including
    /// their terminating newlines).
    pub bytes: Vec<u8>,
    /// Number of rows seen in the original input.
    pub total_rows: u64,
    /// Number of rows removed.
    pub skipped_rows: u64,
}

/// Remove the rows whose 0-based indexes appear in `skip` (must be
/// sorted). Rows are newline-bounded; the final unterminated row counts.
/// Runs as one instrumented `parse/prune-rows` launch.
pub fn prune_rows(
    exec: &KernelExecutor,
    input: &[u8],
    chunk_size: usize,
    skip: &[u64],
) -> Result<PrunedRows, LaunchError> {
    debug_assert!(skip.windows(2).all(|w| w[0] < w[1]), "skip must be sorted");
    let n = input.len();
    let n_chunks = num_chunks(n, chunk_size);
    let ranges: Vec<std::ops::Range<usize>> = chunk_ranges(n, chunk_size).collect();

    exec.launch("parse/prune-rows", n_chunks, |grid, counters| {
        // Newlines per worker range → each range's first row index.
        let counts: Vec<u64> = grid.map_partitioned(n_chunks, |_, chunks| {
            chunks
                .map(|c| {
                    grid.check_abort(c);
                    input[ranges[c].clone()]
                        .iter()
                        .filter(|&&b| b == b'\n')
                        .count() as u64
                })
                .sum()
        });
        let mut first_rows = Vec::with_capacity(counts.len());
        let mut total_newlines = 0u64;
        for count in counts {
            first_rows.push(total_newlines);
            total_newlines += count;
        }
        let total_rows = total_newlines + u64::from(n > 0 && input.last() != Some(&b'\n'));

        let is_skipped = |row: u64| skip.binary_search(&row).is_ok();

        // Append the kept bytes of each worker's range.
        let bytes = grid
            .map_partitioned(n_chunks, |w, chunks| {
                let mut row = first_rows[w];
                let mut kept = Vec::new();
                for c in chunks {
                    grid.check_abort(c);
                    for &b in &input[ranges[c].clone()] {
                        if !is_skipped(row) {
                            kept.push(b);
                        }
                        if b == b'\n' {
                            row += 1;
                        }
                    }
                }
                kept
            })
            .concat();

        let skipped_rows = skip.iter().filter(|&&r| r < total_rows).count() as u64;
        counters.kernel_launches = 2;
        counters.bytes_read = n as u64 * 2;
        counters.bytes_written = bytes.len() as u64;
        counters.parallel_ops = n as u64 * 2;

        PrunedRows {
            bytes,
            total_rows,
            skipped_rows,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use parparaw_parallel::Grid;

    fn prune(input: &[u8], skip: &[u64]) -> PrunedRows {
        prune_rows(&KernelExecutor::new(Grid::new(3)), input, 5, skip).unwrap()
    }

    #[test]
    fn removes_whole_rows() {
        let out = prune(b"row0\nrow1\nrow2\nrow3\n", &[1, 3]);
        assert_eq!(out.bytes, b"row0\nrow2\n");
        assert_eq!(out.total_rows, 4);
        assert_eq!(out.skipped_rows, 2);
    }

    #[test]
    fn rows_differ_from_records() {
        // A record spanning two rows via a quoted newline: skipping row 1
        // removes the *second half* of the record — by design, rows are
        // raw-newline bounded (the paper's point about pruning early).
        let input = b"a,\"x\ny\",b\nend\n";
        let out = prune(input, &[1]);
        assert_eq!(out.bytes, b"a,\"x\nend\n");
        assert_eq!(out.total_rows, 3);
    }

    #[test]
    fn unterminated_final_row() {
        let out = prune(b"a\nb", &[1]);
        assert_eq!(out.bytes, b"a\n");
        assert_eq!(out.total_rows, 2);
        let out = prune(b"a\nb", &[0]);
        assert_eq!(out.bytes, b"b");
    }

    #[test]
    fn empty_and_out_of_range() {
        let out = prune(b"", &[0, 5]);
        assert!(out.bytes.is_empty());
        assert_eq!(out.total_rows, 0);
        assert_eq!(out.skipped_rows, 0);
        let out = prune(b"a\nb\n", &[7]);
        assert_eq!(out.bytes, b"a\nb\n");
        assert_eq!(out.skipped_rows, 0);
    }

    #[test]
    fn deterministic_across_chunkings_and_workers() {
        let input = b"header\n1,2,3\n# comment row\n4,5,6\n7,8,9";
        let reference =
            prune_rows(&KernelExecutor::new(Grid::new(1)), input, 100, &[0, 2]).unwrap();
        for cs in [1usize, 3, 7, 64] {
            for workers in [1usize, 4] {
                let out = prune_rows(&KernelExecutor::new(Grid::new(workers)), input, cs, &[0, 2])
                    .unwrap();
                assert_eq!(out.bytes, reference.bytes, "cs={cs} w={workers}");
                assert_eq!(out.total_rows, reference.total_rows);
            }
        }
        assert_eq!(reference.bytes, b"1,2,3\n4,5,6\n7,8,9");
    }
}
