//! Tagging symbols with their record and column (paper §3.2 bottom, §4.1).
//!
//! Using the bitmap indexes and the resolved offsets, each chunk walks its
//! symbols and emits every *relevant* symbol into one compacted array,
//! described at field granularity by [`FieldRun`]s: every emitted symbol
//! extends the current `(column, row)` run or opens a new one. What is
//! emitted depends on the tagging mode (paper Fig. 6):
//!
//! * **record-tagged** — data symbols only;
//! * **inline-terminated** — data symbols plus a terminator byte in place
//!   of each field-ending delimiter;
//! * **vector-delimited** — data symbols plus the original delimiter byte.
//!
//! In the two delimiter-carrying modes a delimiter closes its run
//! ([`FieldRun::closed`]). The runs are the only tag format: the paper's
//! per-symbol column tags, record tags and delimiter flags are expanded
//! from them only inside the radix-sort partition kernel, which needs them
//! as sort keys and payloads.
//!
//! Tagging is also where record/column *skipping* happens (paper §4.3):
//! symbols of skipped records or unselected columns are marked irrelevant
//! and never emitted, and where per-record rejection (invalid transitions,
//! wrong column count) is recorded.
//!
//! The emission is allocation-free and parallel: a counting pass per chunk,
//! an exclusive prefix sum over the counts, then a second pass writing
//! straight into the global arrays — the standard GPU compaction shape.

use crate::chunks::{chunk_ranges, num_chunks};
use crate::diag::{DiagSink, RecordDiagnostic, RejectReason};
use crate::meta::MetaPass;
use crate::options::TaggingMode;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan;
use parparaw_parallel::{AtomicBitmap, Bitmap, KernelExecutor, LaunchError};
use std::sync::atomic::{AtomicBool, Ordering};

/// Static configuration for the tagging pass.
#[derive(Debug)]
pub struct TagConfig<'a> {
    /// Tagging mode.
    pub mode: TaggingMode,
    /// Raw column index → output column index; `None` drops the column.
    /// Raw columns `>= col_map.len()` are dropped (and optionally reject
    /// the record via `expected_columns`).
    pub col_map: &'a [Option<u32>],
    /// Sorted list of raw record indexes to skip.
    pub skip_records: &'a [u64],
    /// When set, records whose column count differs are rejected.
    pub expected_columns: Option<u32>,
    /// Number of output rows (raw records minus skipped).
    pub num_out_rows: u64,
    /// When set, every reject also records a [`RecordDiagnostic`]. The
    /// sink de-duplicates, so a retried launch does not double-report.
    pub diags: Option<&'a DiagSink>,
}

impl TagConfig<'_> {
    /// Output row of raw record `rec`, or `None` when skipped.
    #[inline]
    pub fn out_row(&self, rec: u64) -> Option<u64> {
        match self.skip_records.binary_search(&rec) {
            Ok(_) => None,
            Err(rank) => Some(rec - rank as u64),
        }
    }
}

/// One run of consecutive emitted symbols belonging to a single field.
///
/// The paper's §3.3 observation that column tags are constant across each
/// field's symbols means the tag phase can describe its output at field
/// granularity: every emitted symbol extends the current `(row, column)`
/// run or opens a new one. `start` indexes the *compacted* tagged symbol
/// array (not the raw input — control symbols such as enclosure quotes
/// are never emitted, so a field's raw bytes need not be contiguous).
/// A field split across chunk boundaries yields several adjacent runs
/// with the same row, merged back by [`crate::css::index_from_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FieldRun {
    /// Output column tag.
    pub col: u32,
    /// Output row.
    pub row: u32,
    /// Start offset into the tagged symbol array (global in [`Tagged`];
    /// CSS-relative after partitioning).
    pub start: u64,
    /// Number of symbols in the run.
    pub len: u64,
    /// True when the run's last symbol is the field's terminator or
    /// delimiter (inline/vector modes; the field's data excludes it).
    /// Record-tagged mode never emits delimiters, so always false there.
    pub closed: bool,
}

/// The tagging output: the compacted symbol stream and its field runs.
#[derive(Debug, Clone)]
pub struct Tagged {
    /// Relevant symbols, in input order (delimiters included in
    /// inline/vector modes, replaced by the terminator in inline mode).
    pub symbols: Vec<u8>,
    /// Always empty: tagging emits field runs only, and the radix-sort
    /// kernel expands per-symbol column tags from `runs`. The field stays
    /// because the staged benchmark pipeline reads it for its traffic
    /// count.
    pub col_tags: Vec<u32>,
    /// Always empty, for the same reason as `col_tags`: record tags are
    /// expanded from `runs` inside the radix-sort kernel.
    pub rec_tags: Vec<u32>,
    /// Always `None`, for the same reason as `col_tags`: delimiter flags
    /// are expanded from the `closed` runs inside the radix-sort kernel.
    pub delim_flags: Option<Vec<bool>>,
    /// Per-field runs over `symbols`, in input order, tiling it exactly.
    pub runs: Vec<FieldRun>,
    /// The tagging mode the runs were emitted under.
    pub mode: TaggingMode,
    /// Per-output-row rejection flags.
    pub rejected: Bitmap,
    /// True when inline mode found the terminator byte inside field data.
    pub terminator_clash: bool,
}

/// Destination writers for one chunk's emission: the symbol array, the
/// field-run array, and the chunk's base offsets into each.
type EmitSinks<'a> = (
    &'a SlotWriter<'a, u8>,
    &'a SlotWriter<'a, FieldRun>,
    usize,
    usize,
);

/// Run the two-pass tagging kernel as one instrumented `tag` launch.
///
/// The symbol and run arrays come from the executor's arena (labels
/// `tag/symbols`, `tag/runs`), so repeated runs on one executor — the
/// streaming path — reuse their allocations.
pub fn tag_symbols(
    exec: &KernelExecutor,
    input: &[u8],
    chunk_size: usize,
    meta: &MetaPass,
    cfg: &TagConfig<'_>,
) -> Result<Tagged, LaunchError> {
    let n = input.len();
    let n_chunks = num_chunks(n, chunk_size);
    let ranges: Vec<std::ops::Range<usize>> = chunk_ranges(n, chunk_size).collect();
    let include_delims = !matches!(cfg.mode, TaggingMode::RecordTagged);
    let terminator = match cfg.mode {
        TaggingMode::InlineTerminated { terminator } => Some(terminator),
        _ => None,
    };

    let rejected = AtomicBitmap::new(cfg.num_out_rows as usize);
    let clash = AtomicBool::new(false);

    // Shared chunk walker: every relevant symbol is written through the
    // sinks (pass B) or merely counted (pass A), and simultaneously
    // extends or opens the current field run. Returns the chunk's
    // (symbol, run) emission counts.
    let walk = |c: usize, emit: Option<EmitSinks<'_>>, mark: bool| -> (u64, u64) {
        let mut rec = meta.record_offsets[c];
        let mut col = meta.col_offsets[c];
        let mut count = 0u64;
        let mut cur_run: Option<FieldRun> = None;
        let mut runs_flushed = 0u64;
        // Emit one symbol of field (col, row): extend the current run, or
        // flush it and open a new one when the field changes or a
        // delimiter closed the run.
        let mut push = |byte: u8, col: u32, row: u32, is_delim: bool| {
            if let Some((sym, _, base, _)) = emit.as_ref() {
                unsafe { sym.write(*base + count as usize, byte) };
            }
            match &mut cur_run {
                Some(run) if run.col == col && run.row == row && !run.closed => {
                    run.len += 1;
                    run.closed = is_delim;
                }
                _ => {
                    flush_run(&mut cur_run, &mut runs_flushed, emit.as_ref());
                    cur_run = Some(FieldRun {
                        col,
                        row,
                        start: count,
                        len: 1,
                        closed: is_delim,
                    });
                }
            }
            count += 1;
        };
        for i in ranges[c].clone() {
            let b = input[i];
            let is_rec = meta.records.get(i);
            let is_fld = !is_rec && meta.fields.get(i);
            if mark && meta.rejects.get(i) {
                // A control-only trailing segment (say a stray \r after the
                // last newline) can carry reject bits without forming a
                // trailing record; there is no output row to attach them to.
                if let Some(r) = cfg.out_row(rec).filter(|&r| r < cfg.num_out_rows) {
                    rejected.set(r as usize);
                    if let Some(sink) = cfg.diags {
                        sink.push(RecordDiagnostic {
                            record: r,
                            column: map_col(cfg.col_map, col),
                            byte_offset: Some(i as u64),
                            reason: RejectReason::InvalidSyntax,
                        });
                    }
                }
            }
            if is_rec || is_fld {
                // The delimiter ends the field at (rec, col).
                if include_delims {
                    if let Some((r, oc)) = cfg.out_row(rec).zip(map_col(cfg.col_map, col)) {
                        push(terminator.unwrap_or(b), oc, r as u32, true);
                    }
                }
                if is_rec {
                    if mark {
                        if let (Some(expect), Some(r)) = (cfg.expected_columns, cfg.out_row(rec)) {
                            if col + 1 != expect {
                                rejected.set(r as usize);
                                if let Some(sink) = cfg.diags {
                                    sink.push(RecordDiagnostic {
                                        record: r,
                                        column: None,
                                        byte_offset: Some(i as u64),
                                        reason: RejectReason::ColumnCountMismatch {
                                            expected: expect,
                                            got: col + 1,
                                        },
                                    });
                                }
                            }
                        }
                    }
                    rec += 1;
                    col = 0;
                } else {
                    col += 1;
                }
            } else if meta.control.get(i) {
                // Syntax, not data: never emitted.
            } else {
                // Data symbol.
                if mark {
                    if let Some(t) = terminator {
                        if b == t {
                            clash.store(true, Ordering::Relaxed);
                        }
                    }
                }
                if let Some((r, oc)) = cfg.out_row(rec).zip(map_col(cfg.col_map, col)) {
                    push(b, oc, r as u32, false);
                }
            }
        }
        flush_run(&mut cur_run, &mut runs_flushed, emit.as_ref());
        (count, runs_flushed)
    };

    let (symbols, runs) = exec.launch("tag", n_chunks, |grid, counters| {
        // Pass A: count symbol and run emissions (and mark rejects /
        // clashes once).
        let counts: Vec<(u64, u64)> = grid.map_indexed(n_chunks, |c| walk(c, None, true));
        let sym_counts: Vec<u64> = counts.iter().map(|c| c.0).collect();
        let run_counts: Vec<u64> = counts.iter().map(|c| c.1).collect();
        let (offsets, total) = scan::exclusive_scan_total(grid, &sym_counts, &scan::AddOp);
        let (run_offsets, runs_total) = scan::exclusive_scan_total(grid, &run_counts, &scan::AddOp);
        let total = total as usize;
        let runs_total = runs_total as usize;

        // Pass B: emit into pre-sized arena-backed arrays.
        let arena = exec.arena();
        let mut symbols = arena.take_u8("tag/symbols");
        symbols.resize(total, 0);
        let mut runs = arena.take_vec::<FieldRun>("tag/runs");
        runs.resize(runs_total, FieldRun::default());
        {
            let sym_w = SlotWriter::new(&mut symbols);
            let run_w = SlotWriter::new(&mut runs);
            grid.run_partitioned(n_chunks, |_, range| {
                for c in range {
                    grid.check_abort(c);
                    let sinks = (&sym_w, &run_w, offsets[c] as usize, run_offsets[c] as usize);
                    walk(c, Some(sinks), false);
                }
            });
        }

        // Work counters: two passes over the input plus the emission
        // writes (one byte per symbol, and the field-run metadata).
        counters.kernel_launches = 2;
        counters.bytes_read = 2 * (n as u64 + n as u64 / 2); // input + bitmaps, twice
        counters.bytes_written = total as u64 + runs_total as u64 * RUN_BYTES;
        counters.parallel_ops = 2 * n as u64;

        (symbols, runs)
    })?;

    Ok(Tagged {
        symbols,
        col_tags: Vec::new(),
        rec_tags: Vec::new(),
        delim_flags: None,
        runs,
        mode: cfg.mode,
        rejected: rejected.into_bitmap(),
        terminator_clash: clash.load(Ordering::Relaxed),
    })
}

/// Cost-model size of one [`FieldRun`] (col + row + start + len + closed).
pub(crate) const RUN_BYTES: u64 = 25;

/// Write the pending run (if any) to the run sink, rebasing its
/// chunk-local start to the global tagged-array offset.
#[inline]
fn flush_run(cur: &mut Option<FieldRun>, flushed: &mut u64, emit: Option<&EmitSinks<'_>>) {
    if let Some(run) = cur.take() {
        if let Some((_, run_w, base, run_base)) = emit {
            let dst = *run_base + *flushed as usize;
            unsafe {
                run_w.write(
                    dst,
                    FieldRun {
                        start: *base as u64 + run.start,
                        ..run
                    },
                )
            };
        }
        *flushed += 1;
    }
}

#[inline]
fn map_col(col_map: &[Option<u32>], col: u32) -> Option<u32> {
    col_map.get(col as usize).copied().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::determine_contexts_with;
    use crate::meta::identify_columns_and_records;
    use crate::options::ScanAlgorithm;
    use parparaw_dfa::csv::rfc4180_paper;
    use parparaw_parallel::Grid;

    fn run_meta(input: &[u8], chunk_size: usize, workers: usize) -> (KernelExecutor, MetaPass) {
        let dfa = rfc4180_paper();
        let exec = KernelExecutor::new(Grid::new(workers));
        let ctx = determine_contexts_with(&exec, &dfa, input, chunk_size, ScanAlgorithm::Blocked)
            .unwrap();
        let meta = identify_columns_and_records(&exec, &dfa, input, chunk_size, &ctx.start_states)
            .unwrap();
        (exec, meta)
    }

    fn identity_map(n: usize) -> Vec<Option<u32>> {
        (0..n as u32).map(Some).collect()
    }

    /// The per-symbol `(column, row, delimiter)` tags the runs stand for,
    /// checking on the way that the runs tile the symbol array in order.
    fn symbol_tags(t: &Tagged) -> Vec<(u32, u32, bool)> {
        let mut tags = Vec::new();
        for r in &t.runs {
            assert_eq!(r.start, tags.len() as u64, "runs tile the symbols");
            tags.extend((1..=r.len).map(|i| (r.col, r.row, r.closed && i == r.len)));
        }
        assert_eq!(tags.len(), t.symbols.len());
        tags
    }

    #[test]
    fn record_tagged_matches_figure5() {
        // Fig. 4/5 input: tags per symbol for the Bookcase example.
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let (exec, meta) = run_meta(input, 10, 3);
        let col_map = identity_map(3);
        let cfg = TagConfig {
            mode: TaggingMode::RecordTagged,
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 10, &meta, &cfg).unwrap();
        // CSS content: all data symbols, no quotes/delims.
        let s: Vec<u8> = t.symbols.clone();
        assert_eq!(
            String::from_utf8_lossy(&s),
            "1941199.99Bookcase193819.99Frame\n\"Ribba\", black"
        );
        // First record's symbols: cols 0,0,0,0 then 1... and rows all 0.
        let tags = symbol_tags(&t);
        let cols: Vec<u32> = tags.iter().map(|tag| tag.0).collect();
        assert_eq!(&cols[..10], &[0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
        assert!(tags[..18].iter().all(|tag| tag.1 == 0));
        assert!(tags[18..].iter().all(|tag| tag.1 == 1));
        assert!(t.runs.iter().all(|r| !r.closed), "no delimiters emitted");
        assert!(!t.terminator_clash);
        assert_eq!(t.rejected.count_ones(), 0);
    }

    #[test]
    fn inline_terminated_matches_figure6() {
        // Paper Fig. 6: 0,"Apples"\n1,\n2,"Pears"\n
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, meta) = run_meta(input, 5, 2);
        let col_map = identity_map(2);
        let cfg = TagConfig {
            mode: TaggingMode::InlineTerminated { terminator: 0 },
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 5, &meta, &cfg).unwrap();
        // Column 1's portion (after partitioning) will be
        // Apples\0\0Pears\0; before partitioning symbols interleave, so
        // filter by tag here.
        let tags = symbol_tags(&t);
        let col = |c: u32| -> Vec<u8> {
            t.symbols
                .iter()
                .zip(&tags)
                .filter(|(_, tag)| tag.0 == c)
                .map(|(&b, _)| b)
                .collect()
        };
        assert_eq!(col(1), b"Apples\0\0Pears\0");
        assert_eq!(col(0), b"0\x001\x002\x00");
        // Exactly the terminators close their runs.
        assert!(t
            .symbols
            .iter()
            .zip(&tags)
            .all(|(&b, tag)| tag.2 == (b == 0)));
    }

    #[test]
    fn vector_delimited_keeps_original_bytes() {
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, meta) = run_meta(input, 7, 2);
        let col_map = identity_map(2);
        let cfg = TagConfig {
            mode: TaggingMode::VectorDelimited,
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 7, &meta, &cfg).unwrap();
        let col1: Vec<(u8, bool)> = t
            .symbols
            .iter()
            .zip(symbol_tags(&t))
            .filter(|(_, tag)| tag.0 == 1)
            .map(|(&b, tag)| (b, tag.2))
            .collect();
        // Paper Fig. 6: Apples??Pears? with flags on the delimiters.
        let bytes: Vec<u8> = col1.iter().map(|p| p.0).collect();
        assert_eq!(bytes, b"Apples\n\nPears\n");
        let flagged: Vec<bool> = col1.iter().map(|p| p.1).collect();
        assert_eq!(
            flagged,
            [
                false, false, false, false, false, false, true, true, false, false, false, false,
                false, true
            ]
        );
    }

    #[test]
    fn skipping_records_and_columns() {
        let input = b"a,b,c\nd,e,f\ng,h,i\n";
        let (exec, meta) = run_meta(input, 4, 2);
        // Keep only columns 0 and 2, skip record 1.
        let col_map = vec![Some(0), None, Some(1)];
        let cfg = TagConfig {
            mode: TaggingMode::RecordTagged,
            col_map: &col_map,
            skip_records: &[1],
            expected_columns: None,
            num_out_rows: meta.num_records - 1,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 4, &meta, &cfg).unwrap();
        assert_eq!(String::from_utf8_lossy(&t.symbols), "acgi");
        let runs: Vec<(u32, u32)> = t.runs.iter().map(|r| (r.col, r.row)).collect();
        assert_eq!(runs, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn column_count_validation_rejects() {
        let input = b"1,2\n3\n4,5\n";
        let (exec, meta) = run_meta(input, 3, 1);
        let col_map = identity_map(2);
        let cfg = TagConfig {
            mode: TaggingMode::RecordTagged,
            col_map: &col_map,
            skip_records: &[],
            expected_columns: Some(2),
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 3, &meta, &cfg).unwrap();
        assert!(!t.rejected.get(0));
        assert!(t.rejected.get(1), "record with 1 column must reject");
        assert!(!t.rejected.get(2));
    }

    #[test]
    fn terminator_clash_detected() {
        let input = b"a\x1fb,c\n";
        let (exec, meta) = run_meta(input, 3, 1);
        let col_map = identity_map(2);
        let cfg = TagConfig {
            mode: TaggingMode::InlineTerminated { terminator: 0x1F },
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 3, &meta, &cfg).unwrap();
        assert!(t.terminator_clash);
    }

    #[test]
    fn extra_columns_are_dropped() {
        let input = b"a,b,EXTRA\nc,d\n";
        let (exec, meta) = run_meta(input, 5, 2);
        let col_map = identity_map(2); // only 2 columns kept
        let cfg = TagConfig {
            mode: TaggingMode::RecordTagged,
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 5, &meta, &cfg).unwrap();
        assert_eq!(String::from_utf8_lossy(&t.symbols), "abcd");
    }

    #[test]
    fn deterministic_across_chunk_sizes_and_workers() {
        let input = b"x,\"y,\ny\",z\n1,\"2\",3\n,,\na,b,c";
        let col_map = identity_map(3);
        for mode in [
            TaggingMode::RecordTagged,
            TaggingMode::InlineTerminated { terminator: 0 },
            TaggingMode::VectorDelimited,
        ] {
            let tag = |chunk_size: usize, workers: usize| {
                let (exec, meta) = run_meta(input, chunk_size, workers);
                let cfg = TagConfig {
                    mode,
                    col_map: &col_map,
                    skip_records: &[],
                    expected_columns: None,
                    num_out_rows: meta.num_records,
                    diags: None,
                };
                let t = tag_symbols(&exec, input, chunk_size, &meta, &cfg).unwrap();
                // The tag launch writes one byte per symbol plus the runs.
                let launch = exec.drain_log().into_iter().find(|r| r.label == "tag");
                assert_eq!(
                    launch.unwrap().bytes_written,
                    t.symbols.len() as u64 + RUN_BYTES * t.runs.len() as u64,
                    "{}",
                    mode.name()
                );
                t
            };
            let reference = tag(6, 1);
            for chunk_size in [1usize, 3, 10, 31, 200] {
                for workers in [1usize, 4] {
                    let t = tag(chunk_size, workers);
                    let what = format!("{} cs={chunk_size} w={workers}", mode.name());
                    assert_eq!(t.symbols, reference.symbols, "{what}");
                    assert_eq!(symbol_tags(&t), symbol_tags(&reference), "{what}");
                }
            }
        }
    }
}
