//! Tagging symbols with their record and column (paper §3.2 bottom, §4.1).
//!
//! Using the bitmap indexes and the resolved offsets, the input is walked
//! once and every *relevant* symbol is emitted into one compacted array,
//! described at field granularity by [`FieldRun`]s: one run per emitted
//! field, whatever the chunk size or worker count. What is emitted depends
//! on the tagging mode (paper Fig. 6):
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
//! The walk goes one bitmap word at a time. Each worker seeds its record
//! and column from the offsets of its first chunk and carries them through
//! its contiguous chunk range. It visits only the positions set in one of
//! the four bitmaps (delimiters, control symbols, rejects) and copies the
//! data bytes between two such positions with one `extend_from_slice`, so
//! a plain data byte costs a share of a memcpy. The workers' buffers are
//! joined in input order; a field that straddles two workers' ranges merges
//! back into one run at the join. The GPU compaction shape (a counting
//! pass, a prefix sum over the counts, then a second pass scattering into
//! pre-sized arrays) would read every byte twice.

use crate::chunks::num_chunks;
use crate::diag::{DiagSink, RecordDiagnostic, RejectReason};
use crate::meta::MetaPass;
use crate::options::TaggingMode;
use parparaw_parallel::{AtomicBitmap, Bitmap, KernelExecutor, LaunchError};
use std::ops::Range;
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
/// granularity. `start` indexes the *compacted* tagged symbol array (not
/// the raw input — control symbols such as enclosure quotes are never
/// emitted, so a field's raw bytes need not be contiguous). Runs are
/// canonical: every emitted field has exactly one run, whatever the chunk
/// size or worker count, so within a column the rows strictly increase.
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
    /// Per-field runs over `symbols`, in input order, tiling it exactly;
    /// one run per emitted field.
    pub runs: Vec<FieldRun>,
    /// The tagging mode the runs were emitted under.
    pub mode: TaggingMode,
    /// Per-output-row rejection flags.
    pub rejected: Bitmap,
    /// True when inline mode found the terminator byte inside field data.
    pub terminator_clash: bool,
}

/// Run the word-wise tagging walk as one instrumented `tag` launch.
///
/// Each worker walks its contiguous chunk range once, appending symbols
/// and runs to its own arena buffers (labels `tag/symbols`, `tag/runs`,
/// so repeated runs on one executor — the streaming path — reuse their
/// allocations). The buffers are then joined in worker order, which is
/// input order; with one worker the join is a move.
pub fn tag_symbols(
    exec: &KernelExecutor,
    input: &[u8],
    chunk_size: usize,
    meta: &MetaPass,
    cfg: &TagConfig<'_>,
) -> Result<Tagged, LaunchError> {
    let n = input.len();
    let chunk_size = chunk_size.max(1);
    let n_chunks = num_chunks(n, chunk_size);
    let rejected = AtomicBitmap::new(cfg.num_out_rows as usize);
    let clash = AtomicBool::new(false);

    let (symbols, runs) = exec.launch("tag", n_chunks, |grid, counters| {
        let arena = exec.arena();
        let mut outs = grid
            .map_partitioned(n_chunks, |_, chunks| {
                let mut walk = Walk {
                    input,
                    meta,
                    cfg,
                    rejected: &rejected,
                    symbols: arena.take_u8("tag/symbols"),
                    runs: arena.take_vec::<FieldRun>("tag/runs"),
                    rec: 0,
                    col: 0,
                    row: None,
                    field: None,
                    clash: false,
                };
                if let Some(&rec) = meta.record_offsets.get(chunks.start) {
                    walk.seek(rec, meta.col_offsets[chunks.start]);
                }
                // Poll at every 256-chunk boundary, the cadence of a
                // per-chunk `check_abort`.
                let mut c = chunks.start;
                while c < chunks.end {
                    grid.check_abort(c);
                    let next = ((c | 0xFF) + 1).min(chunks.end);
                    walk.bytes(c * chunk_size..(next * chunk_size).min(n));
                    c = next;
                }
                if walk.clash {
                    clash.store(true, Ordering::Relaxed);
                }
                (walk.symbols, walk.runs)
            })
            .into_iter();
        // Join in worker order, rebasing each run onto the joined array. A
        // field cut by a worker boundary continues the previous worker's
        // last run.
        let (mut symbols, mut runs) = outs.next().unwrap_or_default();
        for (s, r) in outs {
            let base = symbols.len() as u64;
            let mut rest = &r[..];
            if let (Some(last), Some(first)) = (runs.last_mut(), r.first()) {
                if last.col == first.col && last.row == first.row && !last.closed {
                    last.len += first.len;
                    last.closed = first.closed;
                    rest = &r[1..];
                }
            }
            runs.extend(rest.iter().map(|run| FieldRun {
                start: base + run.start,
                ..*run
            }));
            symbols.extend_from_slice(&s);
            arena.put_u8("tag/symbols", s);
            arena.put_vec("tag/runs", r);
        }

        // Work counters: one pass over the input and its bitmaps plus the
        // emission writes (one byte per symbol, and the field-run
        // metadata). The join copy is a host artefact and is not charged.
        counters.bytes_read = n as u64 + n as u64 / 2; // input + bitmaps
        counters.bytes_written = symbols.len() as u64 + runs.len() as u64 * RUN_BYTES;
        counters.parallel_ops = n as u64;

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

/// One worker's walk: the field it stands in and its output buffers.
struct Walk<'a> {
    input: &'a [u8],
    meta: &'a MetaPass,
    cfg: &'a TagConfig<'a>,
    rejected: &'a AtomicBitmap,
    symbols: Vec<u8>,
    runs: Vec<FieldRun>,
    /// Raw record and column of the next byte.
    rec: u64,
    col: u32,
    /// Output row of `rec`; `None` when the record is skipped.
    row: Option<u64>,
    /// Output `(column, row)` of the current field; `None` when it is not
    /// emitted.
    field: Option<(u32, u32)>,
    /// Inline mode saw the terminator byte in field data.
    clash: bool,
}

impl Walk<'_> {
    /// Move to raw record `rec`, raw column `col`.
    fn seek(&mut self, rec: u64, col: u32) {
        self.rec = rec;
        self.row = self.cfg.out_row(rec);
        self.enter_column(col);
    }

    fn enter_column(&mut self, col: u32) {
        self.col = col;
        self.field = self
            .row
            .zip(map_col(self.cfg.col_map, col))
            .map(|(r, c)| (c, r as u32));
    }

    /// Walk `range` one bitmap word at a time: every position set in one
    /// of the bitmaps is handled on its own, and the data bytes between
    /// two of them go out as one span.
    fn bytes(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let m = self.meta;
        let (records, fields) = (m.records.words(), m.fields.words());
        let (control, rejects) = (m.control.words(), m.rejects.words());
        let (first, last) = (range.start >> 6, (range.end - 1) >> 6);
        // First byte not yet emitted or skipped.
        let mut pos = range.start;
        for w in first..=last {
            let mut mask = u64::MAX;
            if w == first {
                mask &= u64::MAX << (range.start & 63);
            }
            if w == last && range.end & 63 != 0 {
                mask &= (1u64 << (range.end & 63)) - 1;
            }
            let (r, f) = (records[w] & mask, fields[w] & mask);
            let (c, x) = (control[w] & mask, rejects[w] & mask);
            let mut special = r | f | c | x;
            while special != 0 {
                let bit = 1u64 << special.trailing_zeros();
                special &= special - 1;
                let i = (w << 6) + bit.trailing_zeros() as usize;
                self.data(pos..i);
                pos = i + 1;
                if x & bit != 0 {
                    self.reject(i);
                }
                if r & bit != 0 {
                    self.delimiter(i, true);
                } else if f & bit != 0 {
                    self.delimiter(i, false);
                } else if c & bit == 0 {
                    // A reject on a data byte: the byte stays in the span.
                    pos = i;
                }
            }
        }
        self.data(pos..range.end);
    }

    /// Emit a span of data bytes of the current field.
    fn data(&mut self, span: Range<usize>) {
        if span.is_empty() {
            return;
        }
        let bytes = &self.input[span];
        if let TaggingMode::InlineTerminated { terminator } = self.cfg.mode {
            self.clash |= bytes.contains(&terminator);
        }
        if let Some((col, row)) = self.field {
            self.push(bytes, col, row, false);
        }
    }

    /// The delimiter at `i` ends the current field; a record delimiter
    /// also validates the record's column count and ends the record.
    fn delimiter(&mut self, i: usize, ends_record: bool) {
        if let Some((col, row)) = self.field {
            match self.cfg.mode {
                TaggingMode::RecordTagged => {}
                TaggingMode::InlineTerminated { terminator } => {
                    self.push(&[terminator], col, row, true)
                }
                TaggingMode::VectorDelimited => {
                    let b = self.input[i];
                    self.push(&[b], col, row, true)
                }
            }
        }
        if !ends_record {
            self.enter_column(self.col + 1);
            return;
        }
        if let (Some(expect), Some(r)) = (self.cfg.expected_columns, self.row) {
            if self.col + 1 != expect {
                self.rejected.set(r as usize);
                if let Some(sink) = self.cfg.diags {
                    sink.push(RecordDiagnostic {
                        record: r,
                        column: None,
                        byte_offset: Some(i as u64),
                        reason: RejectReason::ColumnCountMismatch {
                            expected: expect,
                            got: self.col + 1,
                        },
                    });
                }
            }
        }
        self.seek(self.rec + 1, 0);
    }

    /// An invalid transition at `i` rejects the current record.
    fn reject(&mut self, i: usize) {
        // A control-only trailing segment (say a stray \r after the last
        // newline) can carry reject bits without forming a trailing
        // record; there is no output row to attach them to.
        let Some(r) = self.row.filter(|&r| r < self.cfg.num_out_rows) else {
            return;
        };
        self.rejected.set(r as usize);
        if let Some(sink) = self.cfg.diags {
            sink.push(RecordDiagnostic {
                record: r,
                column: map_col(self.cfg.col_map, self.col),
                byte_offset: Some(i as u64),
                reason: RejectReason::InvalidSyntax,
            });
        }
    }

    /// Append symbols of field `(col, row)`, extending its open run or
    /// opening a new one; `closed` marks the last symbol as its delimiter.
    fn push(&mut self, bytes: &[u8], col: u32, row: u32, closed: bool) {
        match self.runs.last_mut() {
            Some(run) if run.col == col && run.row == row && !run.closed => {
                run.len += bytes.len() as u64;
                run.closed = closed;
            }
            _ => self.runs.push(FieldRun {
                col,
                row,
                start: self.symbols.len() as u64,
                len: bytes.len() as u64,
                closed,
            }),
        }
        self.symbols.extend_from_slice(bytes);
    }
}

#[inline]
fn map_col(col_map: &[Option<u32>], col: u32) -> Option<u32> {
    col_map.get(col as usize).copied().flatten()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::chunk_ranges;
    use crate::context::determine_contexts_with;
    use crate::meta::identify_columns_and_records;
    use crate::options::ScanAlgorithm;
    use parparaw_dfa::csv::{rfc4180, rfc4180_paper, CsvDialect};
    use parparaw_dfa::{Dfa, DfaBuilder, Emit};
    use parparaw_parallel::{Grid, SplitMix64};
    use std::collections::HashSet;

    fn run_meta(input: &[u8], chunk_size: usize, workers: usize) -> (KernelExecutor, MetaPass) {
        let exec = KernelExecutor::new(Grid::new(workers));
        let meta = meta_on(&exec, &rfc4180_paper(), input, chunk_size);
        (exec, meta)
    }

    fn meta_on(exec: &KernelExecutor, dfa: &Dfa, input: &[u8], chunk_size: usize) -> MetaPass {
        let ctx =
            determine_contexts_with(exec, dfa, input, chunk_size, ScanAlgorithm::Blocked).unwrap();
        identify_columns_and_records(exec, dfa, input, chunk_size, &ctx.start_states).unwrap()
    }

    /// The reference walker: chunk by chunk from each chunk's own offsets,
    /// one byte at a time, every symbol looked up in the four bitmaps. Its
    /// runs split at chunk boundaries, so compare it through
    /// [`symbol_tags`].
    fn tag_bytewise(
        input: &[u8],
        chunk_size: usize,
        meta: &MetaPass,
        cfg: &TagConfig<'_>,
    ) -> Tagged {
        let include_delims = !matches!(cfg.mode, TaggingMode::RecordTagged);
        let terminator = match cfg.mode {
            TaggingMode::InlineTerminated { terminator } => Some(terminator),
            _ => None,
        };
        let mut rejected = Bitmap::new(cfg.num_out_rows as usize);
        let mut clash = false;
        let mut symbols = Vec::new();
        let mut runs: Vec<FieldRun> = Vec::new();
        for (c, range) in chunk_ranges(input.len(), chunk_size).enumerate() {
            let mut rec = meta.record_offsets[c];
            let mut col = meta.col_offsets[c];
            let first_run = runs.len();
            let mut push = |byte: u8, col: u32, row: u32, is_delim: bool| {
                match runs[first_run..].last_mut() {
                    Some(run) if run.col == col && run.row == row && !run.closed => {
                        run.len += 1;
                        run.closed = is_delim;
                    }
                    _ => runs.push(FieldRun {
                        col,
                        row,
                        start: symbols.len() as u64,
                        len: 1,
                        closed: is_delim,
                    }),
                }
                symbols.push(byte);
            };
            for i in range {
                let b = input[i];
                let is_rec = meta.records.get(i);
                let is_fld = !is_rec && meta.fields.get(i);
                if meta.rejects.get(i) {
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
                    if include_delims {
                        if let Some((r, oc)) = cfg.out_row(rec).zip(map_col(cfg.col_map, col)) {
                            push(terminator.unwrap_or(b), oc, r as u32, true);
                        }
                    }
                    if is_rec {
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
                        rec += 1;
                        col = 0;
                    } else {
                        col += 1;
                    }
                } else if !meta.control.get(i) {
                    clash |= terminator == Some(b);
                    if let Some((r, oc)) = cfg.out_row(rec).zip(map_col(cfg.col_map, col)) {
                        push(b, oc, r as u32, false);
                    }
                }
            }
        }
        Tagged {
            symbols,
            col_tags: Vec::new(),
            rec_tags: Vec::new(),
            delim_flags: None,
            runs,
            mode: cfg.mode,
            rejected,
            terminator_clash: clash,
        }
    }

    /// Asserts that `t` holds exactly one run per emitted `(col, row)`.
    fn assert_one_run_per_field(t: &Tagged, what: &str) {
        let fields: HashSet<(u32, u32)> = t.runs.iter().map(|r| (r.col, r.row)).collect();
        assert_eq!(fields.len(), t.runs.len(), "one run per field: {what}");
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
        // Records 1 and 2 span bytes 11..22. At chunk size 3, the third of
        // four workers walks bytes 15..21 only, so skipping them leaves
        // that worker's buffers empty.
        let idle = parparaw_parallel::grid::partition(num_chunks(input.len(), 3), 4)[2].clone();
        assert!(idle.start * 3 >= 11 && idle.end * 3 <= 22);
        for skip_records in [&[][..], &[1, 2][..]] {
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
                        skip_records,
                        expected_columns: None,
                        num_out_rows: meta.num_records - skip_records.len() as u64,
                        diags: None,
                    };
                    let t = tag_symbols(&exec, input, chunk_size, &meta, &cfg).unwrap();
                    // One walk over the input and its bitmaps, writing one
                    // byte per symbol plus the runs, at every worker count.
                    let log = exec.drain_log();
                    let launch = log.iter().find(|r| r.label == "tag").unwrap();
                    let n = input.len() as u64;
                    assert_eq!(launch.kernel_launches, 1);
                    assert_eq!(launch.bytes_read, n + n / 2);
                    assert_eq!(
                        launch.bytes_written,
                        t.symbols.len() as u64 + RUN_BYTES * t.runs.len() as u64,
                        "{}",
                        mode.name()
                    );
                    t
                };
                let reference = tag(6, 1);
                assert_one_run_per_field(&reference, mode.name());
                for chunk_size in [1usize, 3, 10, 31, 200] {
                    // Runs are canonical, so they compare raw across chunk
                    // sizes and workers alike.
                    let what = format!("{} cs={chunk_size} skip={skip_records:?}", mode.name());
                    for workers in 1..=4 {
                        let t = tag(chunk_size, workers);
                        assert_eq!(t.symbols, reference.symbols, "{what} w={workers}");
                        assert_eq!(t.runs, reference.runs, "{what} w={workers}");
                    }
                }
            }
        }
    }

    /// Random CSV-ish bytes: quoted fields, CRLF line ends, ragged
    /// records, stray quotes (invalid transitions), the inline terminator
    /// in data, and sometimes a stray `\r` or an invalid control-only
    /// segment after the last `\n`.
    fn random_input(rng: &mut SplitMix64) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..rng.next_range(0, 8) {
            for f in 0..rng.next_range(1, 5) {
                if f > 0 {
                    out.push(b',');
                }
                match rng.next_below(6) {
                    0 => {}
                    1 => {
                        out.push(b'"');
                        for _ in 0..rng.next_range(0, 12) {
                            out.push(*rng.choice(b"ab,\n\x1f"));
                            if rng.chance(0.1) {
                                out.extend_from_slice(b"\"\"");
                            }
                        }
                        out.push(b'"');
                    }
                    2 => out.extend_from_slice(b"a\"b"),
                    _ => {
                        for _ in 0..rng.next_range(1, 20) {
                            out.push(*rng.choice(b"abcdefgh \x1f"));
                        }
                    }
                }
            }
            out.extend_from_slice(if rng.chance(0.3) { b"\r\n" } else { b"\n" });
        }
        match rng.next_below(5) {
            0 => out.extend_from_slice(b"tail,x"),
            1 => out.push(b'\r'),
            // An invalid transition in a control-only tail: no trailing
            // record to attach the reject to.
            2 => out.extend_from_slice(b"\"\"x"),
            _ => {}
        }
        out
    }

    /// RFC 4180 made lenient: a quote inside an unquoted field, or data
    /// after a closing quote, stays data but flags the record. That puts
    /// reject bits on data bytes, which the built-in dialects never do
    /// (their invalid transitions are control symbols).
    fn lenient_csv() -> Dfa {
        let mut b = DfaBuilder::new();
        let [eor, enc, fld, eof, esc] = ["EOR", "ENC", "FLD", "EOF", "ESC"].map(|n| b.state(n));
        let (nl, q, d) = (b.group(b"\n"), b.group(b"\""), b.group(b","));
        let any = b.catch_all();
        for s in [eor, fld, eof, esc] {
            b.transition(s, nl, eor, Emit::RECORD_DELIM)
                .transition(s, d, eof, Emit::FIELD_DELIM);
        }
        for g in [nl, d, any] {
            b.transition(enc, g, enc, Emit::DATA);
        }
        b.transition(enc, q, esc, Emit::CONTROL)
            .transition(eor, q, enc, Emit::CONTROL)
            .transition(eof, q, enc, Emit::CONTROL)
            .transition(esc, q, enc, Emit::DATA)
            .transition(fld, q, fld, Emit::REJECT);
        for s in [eor, fld, eof] {
            b.transition(s, any, fld, Emit::DATA);
        }
        b.transition(esc, any, fld, Emit::REJECT);
        b.start(eor).accepting(&[eor, fld, eof, esc]);
        b.build().unwrap()
    }

    #[test]
    fn word_walk_matches_byte_walk_oracle() {
        let dfas = [
            lenient_csv(),
            rfc4180_paper(),
            rfc4180(&CsvDialect::default()),
            rfc4180(&CsvDialect {
                recover_invalid: true,
                ..CsvDialect::default()
            }),
        ];
        let execs: Vec<KernelExecutor> =
            (1..=4).map(|w| KernelExecutor::new(Grid::new(w))).collect();
        let mut rng = SplitMix64::new(0x7A66_ED5E);
        for case in 0..600 {
            let dfa = &dfas[case % dfas.len()];
            let input = random_input(&mut rng);
            let chunk_size = *rng.choice(&[1usize, 3, 7, 31, 63, 64, 65, 200]);
            let exec = rng.choice(&execs);
            let meta = meta_on(exec, dfa, &input, chunk_size);
            let raw_cols = meta.observed_columns.map_or(1, |(_, max)| max.max(1));
            let col_map: Vec<Option<u32>> = match rng.next_below(3) {
                0 => identity_map(raw_cols as usize),
                // Drop every other column.
                1 => (0..raw_cols)
                    .map(|c| (c % 2 == 0).then_some(c / 2))
                    .collect(),
                // Shorter than the records.
                _ => identity_map(rng.next_below(u64::from(raw_cols)) as usize),
            };
            let skip_records: Vec<u64> =
                (0..meta.num_records).filter(|_| rng.chance(0.25)).collect();
            let expected_columns = match rng.next_below(3) {
                0 => None,
                1 => Some(raw_cols),
                _ => Some(rng.next_range(1, 4) as u32),
            };
            let mode = *rng.choice(&[
                TaggingMode::RecordTagged,
                TaggingMode::InlineTerminated { terminator: 0x1F },
                TaggingMode::VectorDelimited,
            ]);
            let (got_sink, want_sink) = (DiagSink::new(1 << 16), DiagSink::new(1 << 16));
            let cfg = |diags| TagConfig {
                mode,
                col_map: &col_map,
                skip_records: &skip_records,
                expected_columns,
                num_out_rows: meta.num_records - skip_records.len() as u64,
                diags: Some(diags),
            };
            let got = tag_symbols(exec, &input, chunk_size, &meta, &cfg(&got_sink)).unwrap();
            let want = tag_bytewise(&input, chunk_size, &meta, &cfg(&want_sink));
            let what = format!(
                "case {case}: {:?} cs={chunk_size} w={} {} map={col_map:?} \
                 skip={skip_records:?} expect={expected_columns:?}",
                String::from_utf8_lossy(&input),
                exec.grid().workers(),
                mode.name(),
            );
            assert_eq!(got.symbols, want.symbols, "{what}");
            assert_eq!(symbol_tags(&got), symbol_tags(&want), "{what}");
            assert_one_run_per_field(&got, &what);
            assert_eq!(got.rejected, want.rejected, "{what}");
            assert_eq!(got.terminator_clash, want.terminator_clash, "{what}");
            assert_eq!(got_sink.into_sorted(), want_sink.into_sorted(), "{what}");
            exec.drain_log();
        }
    }
}
