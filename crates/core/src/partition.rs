//! Partitioning symbols by column (paper §3.3).
//!
//! Two kernels produce each column's *concatenated symbol string* (CSS):
//!
//! * **run scatter** (default) — the tag phase's per-field runs fully
//!   determine every symbol's destination: a per-column histogram over
//!   run lengths plus an exclusive prefix scan yields the CSS offsets,
//!   then whole fields move with one `copy_from_slice` each. One O(n)
//!   pass of contiguous memcpy that moves only CSS bytes and the column-
//!   grouped runs; convert builds each column's index from those runs.
//! * **radix sort** — the paper's original formulation. It expands the
//!   runs into the paper's per-symbol arrays inside its own launch (column
//!   keys, plus record tags or delimiter flags by mode), then runs a
//!   stable LSD radix sort on the keys: `passes × n × (key + payload)`
//!   bytes of sorted traffic. Kept as [`crate::options::PartitionKernel`]
//!   oracle for equivalence tests, and as the kernel whose mode-dependent
//!   traffic Figure 11 ranks.
//!
//! Stability of the run scatter comes from the same *(column-major,
//! worker-minor)* scan ordering the radix scatter uses: worker `w`'s runs
//! of column `c` land directly after worker `w-1`'s runs of the same
//! column, so fields keep their input order within each column.

use crate::options::{PartitionKernel, TaggingMode};
use crate::tagging::{FieldRun, Tagged, RUN_BYTES};
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan::{exclusive_scan_seq, AddOp};
use parparaw_parallel::{histogram, radix, KernelExecutor, LaunchError};

/// A column's field runs after partitioning: grouped by column, input
/// order within each column, `start` rebased to the column's CSS.
#[derive(Debug)]
pub struct ColumnRuns {
    /// All columns' runs, concatenated in column order.
    pub runs: Vec<FieldRun>,
    /// Range of column `c`'s runs (`runs[col_starts[c]..col_starts[c+1]]`);
    /// length `num_columns + 1`.
    pub col_starts: Vec<u64>,
}

/// Column-partitioned symbol data.
#[derive(Debug)]
pub struct Partitioned {
    /// Symbols grouped by column (CSS of column `c` =
    /// `symbols[col_starts[c]..col_starts[c+1]]`).
    pub symbols: Vec<u8>,
    /// Record tag per symbol, parallel to `symbols` (radix kernel in
    /// record-tagged mode only; empty otherwise).
    pub rec_tags: Vec<u32>,
    /// Delimiter flags, parallel to `symbols` (radix kernel in
    /// vector-delimited mode only; `None` otherwise).
    pub delim_flags: Option<Vec<bool>>,
    /// Start offset of each column's CSS; length `num_columns + 1`.
    pub col_starts: Vec<u64>,
    /// Column-grouped field runs (run-scatter kernel only; `None` from
    /// the radix fallback, which sends convert down the per-byte index
    /// scans instead).
    pub runs: Option<ColumnRuns>,
}

/// Partition the tagged symbols into per-column CSSs as one instrumented
/// `partition` launch, using the default run-scatter kernel.
///
/// The consumed tag buffers go back to the executor's arena (so the next
/// pipeline run's `tag` launch reuses them) and the output arrays come
/// from it (labels `partition/symbols`, `partition/runs`; the radix kernel
/// also takes `partition/keys` and `partition/rec-tags`). The pipeline
/// puts those outputs back once the convert phase has consumed the CSSs,
/// closing the reuse cycle across streaming runs.
pub fn partition_by_column(
    exec: &KernelExecutor,
    tagged: Tagged,
    num_columns: usize,
) -> Result<Partitioned, LaunchError> {
    partition_by_column_with(exec, tagged, num_columns, PartitionKernel::RunScatter)
}

/// [`partition_by_column`] with an explicit kernel choice.
pub fn partition_by_column_with(
    exec: &KernelExecutor,
    tagged: Tagged,
    num_columns: usize,
    kernel: PartitionKernel,
) -> Result<Partitioned, LaunchError> {
    match kernel {
        PartitionKernel::RunScatter => partition_run_scatter(exec, tagged, num_columns),
        PartitionKernel::RadixSort => partition_radix_sort(exec, tagged, num_columns),
    }
}

/// The run-scatter kernel: (1) per-worker histograms over the field runs
/// counting runs and symbols per column, (2) column-major/worker-minor
/// exclusive prefix scans over both (reusing the radix sort's stability
/// shape), (3) a scatter pass moving each run's symbols with one memcpy.
fn partition_run_scatter(
    exec: &KernelExecutor,
    tagged: Tagged,
    num_columns: usize,
) -> Result<Partitioned, LaunchError> {
    let n = tagged.symbols.len();
    let num_columns = num_columns.max(1);
    let num_runs = tagged.runs.len();

    // The job only borrows the tagged buffers, so an attempt that times
    // out or fails part-way retries in place instead of forcing the
    // caller to relaunch the partition.
    let out = exec.launch("partition", n, |grid, counters| {
        let arena = exec.arena();
        let in_runs = &tagged.runs;

        // (1) Per-worker local histograms over the runs: run count and
        // symbol count per column.
        let locals: Vec<(Vec<u64>, Vec<u64>)> = grid.map_partitioned(num_runs, |_, range| {
            let mut run_hist = vec![0u64; num_columns];
            let mut sym_hist = vec![0u64; num_columns];
            for i in range {
                grid.check_abort(i);
                let r = &in_runs[i];
                run_hist[r.col as usize] += 1;
                sym_hist[r.col as usize] += r.len;
            }
            (run_hist, sym_hist)
        });
        let num_workers = locals.len();

        // (2) Exclusive prefix sums in column-major, worker-minor order:
        // per-(worker, column) write cursors for both the symbol and the
        // run output, plus the per-column CSS offsets.
        let mut sym_cursors: Vec<Vec<u64>> = vec![vec![0u64; num_columns]; num_workers];
        let mut run_cursors: Vec<Vec<u64>> = vec![vec![0u64; num_columns]; num_workers];
        let mut col_starts = Vec::with_capacity(num_columns + 1);
        let mut col_run_starts = Vec::with_capacity(num_columns + 1);
        let mut sym_running = 0u64;
        let mut run_running = 0u64;
        for c in 0..num_columns {
            col_starts.push(sym_running);
            col_run_starts.push(run_running);
            for w in 0..num_workers {
                sym_cursors[w][c] = sym_running;
                run_cursors[w][c] = run_running;
                sym_running += locals[w].1[c];
                run_running += locals[w].0[c];
            }
        }
        col_starts.push(sym_running);
        col_run_starts.push(run_running);
        debug_assert_eq!(sym_running as usize, n, "runs must cover every symbol");
        debug_assert_eq!(run_running as usize, num_runs);

        // (3) Stable scatter: each worker walks its contiguous run range
        // in order, moving whole fields with one memcpy each.
        let mut symbols = arena.take_u8("partition/symbols");
        symbols.resize(n, 0);
        let mut out_runs = arena.take_vec::<FieldRun>("partition/runs");
        out_runs.resize(num_runs, FieldRun::default());
        {
            let sym_w = SlotWriter::new(&mut symbols);
            let run_w = SlotWriter::new(&mut out_runs);
            let in_syms = &tagged.symbols[..];
            let col_starts = &col_starts[..];
            grid.run_partitioned(num_runs, |w, range| {
                let mut sym_cur = sym_cursors[w].clone();
                let mut run_cur = run_cursors[w].clone();
                for i in range {
                    grid.check_abort(i);
                    let r = in_runs[i];
                    let c = r.col as usize;
                    let (src, len) = (r.start as usize, r.len as usize);
                    let dst = sym_cur[c] as usize;
                    sym_cur[c] += r.len;
                    // SAFETY: the column-major, worker-minor cursors give
                    // every (worker, column) pair a disjoint slot range
                    // sized by its histogram, within `n` symbols and
                    // `num_runs` runs.
                    unsafe {
                        sym_w.write_slice(dst, &in_syms[src..src + len]);
                        run_w.write(
                            run_cur[c] as usize,
                            FieldRun {
                                start: dst as u64 - col_starts[c],
                                ..r
                            },
                        );
                    }
                    run_cur[c] += 1;
                }
            });
        }

        // Work counters — everything the kernel actually touches,
        // including the histogram and prefix-scan work. Per symbol: the
        // CSS byte both ways. Per run: the run metadata through the
        // histogram and scatter passes. The scans are serial.
        let scan_cells = (num_workers * num_columns) as u64 * 2 + (num_columns + 1) as u64 * 2;
        counters.kernel_launches = 2; // histogram + scatter
        counters.bytes_read = n as u64 + 2 * num_runs as u64 * RUN_BYTES;
        counters.bytes_written = n as u64 + num_runs as u64 * RUN_BYTES + scan_cells * 8;
        counters.parallel_ops = 2 * num_runs as u64 + n as u64;
        counters.serial_ops = scan_cells;

        Partitioned {
            symbols,
            rec_tags: Vec::new(),
            delim_flags: None,
            col_starts,
            runs: Some(ColumnRuns {
                runs: out_runs,
                col_starts: col_run_starts,
            }),
        }
    })?;

    // Return the consumed tag buffers to the arena.
    let arena = exec.arena();
    arena.put_u8("tag/symbols", tagged.symbols);
    arena.put_vec("tag/runs", tagged.runs);
    Ok(out)
}

/// The paper's original stable LSD radix sort on per-symbol column tags.
///
/// The tag phase emits field runs only, so the launch first expands them
/// into the paper's per-symbol arrays (§3.3, §4.1): every symbol's column
/// key, plus its record tag (record-tagged mode) or a delimiter flag on
/// the last symbol of each closed run (vector-delimited mode).
fn partition_radix_sort(
    exec: &KernelExecutor,
    tagged: Tagged,
    num_columns: usize,
) -> Result<Partitioned, LaunchError> {
    let Tagged {
        symbols: in_syms,
        runs,
        mode,
        ..
    } = tagged;
    let n = in_syms.len();
    let num_runs = runs.len() as u64;
    let num_columns = num_columns.max(1);
    let max_key = (num_columns - 1) as u32;
    let digit_bits = 8u32;
    let passes = (32 - max_key.leading_zeros()).div_ceil(digit_bits).max(1);

    // `launch_once` because the sort consumes the tagged buffers; injected
    // faults (which fire before the job body runs) still retry.
    exec.launch_once("partition", n, |grid, counters| {
        let arena = exec.arena();
        // The runs tile the symbol array in order, so appending each run's
        // column once per symbol yields the per-symbol keys.
        let mut keys = arena.take_u32("partition/keys");
        for r in &runs {
            keys.resize(keys.len() + r.len as usize, r.col);
        }
        debug_assert_eq!(keys.len(), n, "runs must cover every symbol");

        // The histogram over column tags gives the CSS offsets (reusing the
        // sort's histogram, as the paper notes).
        let hist = histogram::histogram(grid, &keys, num_columns);
        let mut col_starts = exclusive_scan_seq(&hist, &AddOp);
        col_starts.push(n as u64);

        // Bytes of per-symbol payload beyond the symbol itself.
        let aux_bytes: u64;
        let (symbols, rec_tags, delim_flags) = match mode {
            TaggingMode::RecordTagged => {
                // Payload = (symbol, record tag).
                let mut values: Vec<(u8, u32)> = Vec::with_capacity(n);
                for r in &runs {
                    let span = r.start as usize..(r.start + r.len) as usize;
                    values.extend(in_syms[span].iter().map(|&b| (b, r.row)));
                }
                radix::sort_pairs_by_key_in(
                    grid,
                    arena,
                    &mut keys,
                    &mut values,
                    max_key,
                    digit_bits,
                );
                aux_bytes = 4;
                let mut symbols = arena.take_u8("partition/symbols");
                symbols.extend(values.iter().map(|v| v.0));
                let mut recs = arena.take_u32("partition/rec-tags");
                recs.extend(values.iter().map(|v| v.1));
                arena.put_u8("tag/symbols", in_syms);
                (symbols, recs, None)
            }
            TaggingMode::VectorDelimited => {
                // Payload = (symbol, flag); a closed run ends on its
                // delimiter.
                let mut values: Vec<(u8, bool)> = in_syms.iter().map(|&b| (b, false)).collect();
                for r in runs.iter().filter(|r| r.closed) {
                    values[(r.start + r.len - 1) as usize].1 = true;
                }
                radix::sort_pairs_by_key_in(
                    grid,
                    arena,
                    &mut keys,
                    &mut values,
                    max_key,
                    digit_bits,
                );
                aux_bytes = 1;
                let mut symbols = arena.take_u8("partition/symbols");
                symbols.extend(values.iter().map(|v| v.0));
                let flags: Vec<bool> = values.iter().map(|v| v.1).collect();
                arena.put_u8("tag/symbols", in_syms);
                (symbols, Vec::new(), Some(flags))
            }
            TaggingMode::InlineTerminated { .. } => {
                // Payload = symbol only.
                let mut values = in_syms;
                radix::sort_pairs_by_key_in(
                    grid,
                    arena,
                    &mut keys,
                    &mut values,
                    max_key,
                    digit_bits,
                );
                aux_bytes = 0;
                (values, Vec::new(), None)
            }
        };
        arena.put_u32("partition/keys", keys);
        arena.put_vec("tag/runs", runs);

        // The expansion reads the runs and writes every symbol's key and
        // payload; each sort pass then reads and writes (key + symbol +
        // payload) for every item, plus the column-tag histogram and the
        // (serial) offset scan.
        let n = n as u64;
        let mode_bytes = 4 + 1 + aux_bytes;
        counters.kernel_launches = 3 * passes + 2;
        counters.bytes_read = num_runs * RUN_BYTES + passes as u64 * n * mode_bytes + n * 4;
        counters.bytes_written =
            n * (4 + aux_bytes) + passes as u64 * n * mode_bytes + (num_columns + 1) as u64 * 8;
        counters.parallel_ops = num_runs + passes as u64 * n * 2 + n;
        counters.serial_ops = (num_columns + 1) as u64;

        Partitioned {
            symbols,
            rec_tags,
            delim_flags,
            col_starts,
            runs: None,
        }
    })
}

impl Partitioned {
    /// The CSS byte slice of column `c`.
    pub fn css(&self, c: usize) -> &[u8] {
        &self.symbols[self.col_starts[c] as usize..self.col_starts[c + 1] as usize]
    }

    /// The record tags of column `c` (record-tagged mode).
    pub fn css_rec_tags(&self, c: usize) -> &[u32] {
        if self.rec_tags.is_empty() {
            &[]
        } else {
            &self.rec_tags[self.col_starts[c] as usize..self.col_starts[c + 1] as usize]
        }
    }

    /// The delimiter flags of column `c` (vector-delimited mode).
    pub fn css_flags(&self, c: usize) -> Option<&[bool]> {
        self.delim_flags
            .as_ref()
            .map(|f| &f[self.col_starts[c] as usize..self.col_starts[c + 1] as usize])
    }

    /// The field runs of column `c` (run-scatter kernel only).
    pub fn col_runs(&self, c: usize) -> Option<&[FieldRun]> {
        self.runs
            .as_ref()
            .map(|r| &r.runs[r.col_starts[c] as usize..r.col_starts[c + 1] as usize])
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.col_starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::determine_contexts_with;
    use crate::css::{index_from_runs, index_inline, index_record_tagged, index_vector};
    use crate::meta::identify_columns_and_records;
    use crate::options::{ScanAlgorithm, TaggingMode};
    use crate::tagging::{tag_symbols, TagConfig};
    use parparaw_dfa::csv::rfc4180_paper;
    use parparaw_parallel::Grid;

    fn tag(input: &[u8], mode: TaggingMode, cols: usize) -> (KernelExecutor, Tagged) {
        let dfa = rfc4180_paper();
        let exec = KernelExecutor::new(Grid::new(3));
        let ctx = determine_contexts_with(&exec, &dfa, input, 7, ScanAlgorithm::Blocked).unwrap();
        let meta = identify_columns_and_records(&exec, &dfa, input, 7, &ctx.start_states).unwrap();
        let col_map: Vec<Option<u32>> = (0..cols as u32).map(Some).collect();
        let cfg = TagConfig {
            mode,
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 7, &meta, &cfg).unwrap();
        (exec, t)
    }

    /// Per column, the index convert builds from the scattered runs must
    /// equal the one the paper's per-byte scans build from the radix
    /// kernel's record tags, terminators or flags.
    fn assert_same_index(scatter: &Partitioned, radix: &Partitioned, mode: TaggingMode) {
        let grid = Grid::new(2);
        for c in 0..radix.num_columns() {
            let per_byte = match mode {
                TaggingMode::RecordTagged => index_record_tagged(&grid, radix.css_rec_tags(c)),
                TaggingMode::InlineTerminated { terminator } => {
                    index_inline(&grid, radix.css(c), terminator)
                }
                TaggingMode::VectorDelimited => index_vector(&grid, radix.css_flags(c).unwrap()),
            };
            let from_runs = index_from_runs(scatter.col_runs(c).unwrap());
            assert_eq!(from_runs, per_byte, "{} column {c}", mode.name());
        }
    }

    #[test]
    fn figure5_record_tagged_partitioning() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let (exec, t) = tag(input, TaggingMode::RecordTagged, 3);
        let radix =
            partition_by_column_with(&exec, t.clone(), 3, PartitionKernel::RadixSort).unwrap();
        let p = partition_by_column(&exec, t, 3).unwrap();
        // Paper Fig. 5: the three columns' CSSs.
        for q in [&p, &radix] {
            assert_eq!(q.css(0), b"19411938");
            assert_eq!(q.css(1), b"199.9919.99");
            assert_eq!(q.css(2), b"BookcaseFrame\n\"Ribba\", black");
            assert_eq!(q.num_columns(), 3);
        }
        // Record tags are stable within a column: one per symbol from the
        // paper's kernel, one per field run from the default one.
        assert_eq!(radix.css_rec_tags(0), &[0, 0, 0, 0, 1, 1, 1, 1]);
        let rows: Vec<(u32, u64)> = p
            .col_runs(0)
            .unwrap()
            .iter()
            .map(|r| (r.row, r.len))
            .collect();
        assert_eq!(rows, vec![(0, 4), (1, 4)]);
        assert!(p.rec_tags.is_empty());
    }

    #[test]
    fn figure6_inline_partitioning() {
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, t) = tag(input, TaggingMode::InlineTerminated { terminator: 0 }, 2);
        let p = partition_by_column(&exec, t, 2).unwrap();
        assert_eq!(p.css(0), b"0\x001\x002\x00");
        assert_eq!(p.css(1), b"Apples\0\0Pears\0");
        assert!(p.css_rec_tags(0).is_empty());
    }

    #[test]
    fn figure6_vector_partitioning() {
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, t) = tag(input, TaggingMode::VectorDelimited, 2);
        let radix =
            partition_by_column_with(&exec, t.clone(), 2, PartitionKernel::RadixSort).unwrap();
        let p = partition_by_column(&exec, t, 2).unwrap();
        assert_eq!(p.css(1), b"Apples\n\nPears\n");
        assert_eq!(radix.css(1), p.css(1));
        let flags = radix.css_flags(1).unwrap();
        let delim_positions: Vec<usize> = flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(delim_positions, vec![6, 7, 13]);
        // The default kernel's closed runs end on the same delimiters.
        let closed_ends: Vec<u64> = p
            .col_runs(1)
            .unwrap()
            .iter()
            .filter(|r| r.closed)
            .map(|r| r.start + r.len - 1)
            .collect();
        assert_eq!(closed_ends, vec![6, 7, 13]);
        assert!(p.delim_flags.is_none());
    }

    #[test]
    fn many_columns_take_multiple_radix_passes() {
        // 300 columns forces two 8-bit digits on the radix path; the
        // run-scatter path is digit-free but must agree byte for byte.
        let cols = 300usize;
        let row: String = (0..cols)
            .map(|c| format!("{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let input = format!("{row}\n{row}\n");
        let (exec, t) = tag(input.as_bytes(), TaggingMode::RecordTagged, cols);
        let radix =
            partition_by_column_with(&exec, t.clone(), cols, PartitionKernel::RadixSort).unwrap();
        let p = partition_by_column(&exec, t, cols).unwrap();
        assert_eq!(p.css(0), b"00");
        assert_eq!(p.css(299), b"299299");
        assert_eq!(p.css(42), b"4242");
        assert_eq!(p.symbols, radix.symbols);
        assert_eq!(p.col_starts, radix.col_starts);
        assert_same_index(&p, &radix, TaggingMode::RecordTagged);
    }

    #[test]
    fn empty_input_partitions() {
        let (exec, t) = tag(b"", TaggingMode::RecordTagged, 1);
        let p = partition_by_column(&exec, t, 1).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert!(p.css(0).is_empty());
    }

    #[test]
    fn run_scatter_matches_radix_across_modes() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let uniform = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        for (input, cols, mode) in [
            (&input[..], 3, TaggingMode::RecordTagged),
            (&uniform[..], 2, TaggingMode::RecordTagged),
            (
                &uniform[..],
                2,
                TaggingMode::InlineTerminated { terminator: 0 },
            ),
            (&uniform[..], 2, TaggingMode::VectorDelimited),
        ] {
            let (exec, t) = tag(input, mode, cols);
            let radix =
                partition_by_column_with(&exec, t.clone(), cols, PartitionKernel::RadixSort)
                    .unwrap();
            let scatter =
                partition_by_column_with(&exec, t, cols, PartitionKernel::RunScatter).unwrap();
            assert_eq!(scatter.symbols, radix.symbols, "{}", mode.name());
            assert_eq!(scatter.col_starts, radix.col_starts, "{}", mode.name());
            assert_same_index(&scatter, &radix, mode);
            assert!(scatter.rec_tags.is_empty() && scatter.delim_flags.is_none());
            assert!(radix.runs.is_none());
        }
    }

    #[test]
    fn scattered_runs_are_css_relative_and_ordered() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let (exec, t) = tag(input, TaggingMode::RecordTagged, 3);
        let p = partition_by_column(&exec, t, 3).unwrap();
        for c in 0..3 {
            let runs = p.col_runs(c).unwrap();
            let css_len = p.col_starts[c + 1] - p.col_starts[c];
            let mut cursor = 0u64;
            for r in runs {
                assert_eq!(r.col as usize, c);
                assert_eq!(r.start, cursor, "runs tile the CSS in order");
                cursor += r.len;
            }
            assert_eq!(cursor, css_len, "runs cover column {c}'s CSS");
        }
        // Rows are non-decreasing within a column (input order preserved).
        let rows: Vec<u32> = p.col_runs(1).unwrap().iter().map(|r| r.row).collect();
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
    }
}
