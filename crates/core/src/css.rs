//! CSS index generation (paper §3.3, Fig. 5 / §4.1, Fig. 6).
//!
//! The *index* of a column's concatenated symbol string locates every
//! field: its starting offset within the CSS, its length, and the output
//! row it belongs to. The three tagging modes build it differently:
//!
//! * record-tagged — run-length encode the record tags; each run is one
//!   field, its value the row, its length the symbol count; an exclusive
//!   prefix sum over the lengths yields the offsets;
//! * inline-terminated — the positions of the terminator symbols delimit
//!   the fields (terminators excluded from the field ranges); field `k`
//!   belongs to row `k`;
//! * vector-delimited — identical, reading the auxiliary flag vector
//!   instead of the CSS bytes.
//!
//! Those per-byte scans serve the radix-sort partition kernel, the only
//! one that materialises record tags and flags. The default run-scatter
//! kernel hands convert each column's field runs, and every mode builds
//! its index from them with [`index_from_runs`].

use crate::tagging::FieldRun;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::rle::run_length_encode;
use parparaw_parallel::scan;
use parparaw_parallel::Grid;

/// Locations of a column's fields inside its CSS.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldIndex {
    /// Output row of each field.
    pub rows: Vec<u32>,
    /// Start offset of each field within the CSS.
    pub starts: Vec<u64>,
    /// End offset (exclusive) of each field within the CSS.
    pub ends: Vec<u64>,
}

impl FieldIndex {
    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.rows.len()
    }

    /// Byte range of field `k`.
    pub fn field_range(&self, k: usize) -> std::ops::Range<usize> {
        self.starts[k] as usize..self.ends[k] as usize
    }

    /// Length in bytes of field `k`.
    pub fn field_len(&self, k: usize) -> usize {
        (self.ends[k] - self.starts[k]) as usize
    }
}

/// Build the index directly from a column's field runs (the run-scatter
/// partition kernel's output) — no per-byte scan over the CSS at all.
///
/// Runs arrive in input order with CSS-relative, contiguous starts. A
/// field split across chunk boundaries shows up as adjacent runs with the
/// same row and touching offsets; those merge. A `closed` run ends with
/// the field's terminator/delimiter symbol, which the field range
/// excludes — exactly the semantics of [`index_inline`]/[`index_vector`].
/// Record-tagged runs are never closed, matching [`index_record_tagged`].
pub fn index_from_runs(runs: &[FieldRun]) -> FieldIndex {
    let mut rows: Vec<u32> = Vec::with_capacity(runs.len());
    let mut starts: Vec<u64> = Vec::with_capacity(runs.len());
    let mut ends: Vec<u64> = Vec::with_capacity(runs.len());
    for r in runs {
        let end = r.start + r.len - u64::from(r.closed);
        if let (Some(&last_row), Some(last_end)) = (rows.last(), ends.last_mut()) {
            if last_row == r.row && *last_end == r.start {
                // Continuation of a chunk-split field.
                *last_end = end;
                continue;
            }
        }
        rows.push(r.row);
        starts.push(r.start);
        ends.push(end);
    }
    FieldIndex { rows, starts, ends }
}

/// Build the index from record tags (record-tagged mode): a run-length
/// encoding of the tags followed by a prefix sum, as in paper Fig. 5.
pub fn index_record_tagged(grid: &Grid, rec_tags: &[u32]) -> FieldIndex {
    let rle = run_length_encode(grid, rec_tags);
    let n = rec_tags.len() as u64;
    let num = rle.values.len();
    let ends: Vec<u64> = (0..num)
        .map(|k| if k + 1 < num { rle.offsets[k + 1] } else { n })
        .collect();
    FieldIndex {
        rows: rle.values,
        starts: rle.offsets,
        ends,
    }
}

/// Build the index from terminator positions (inline-terminated mode).
///
/// The CSS is `field₀ bytes, TERM, field₁ bytes, TERM, …`; the field
/// ranges exclude the terminators. An unterminated tail (input not ending
/// in a record delimiter) becomes a final field.
pub fn index_inline(grid: &Grid, css: &[u8], terminator: u8) -> FieldIndex {
    index_from_marks(grid, css.len(), |i| css[i] == terminator)
}

/// Build the index from the auxiliary flag vector (vector-delimited mode).
pub fn index_vector(grid: &Grid, flags: &[bool]) -> FieldIndex {
    index_from_marks(grid, flags.len(), |i| flags[i])
}

fn index_from_marks<F>(grid: &Grid, n: usize, is_mark: F) -> FieldIndex
where
    F: Fn(usize) -> bool + Sync,
{
    // Locate the marks: count, scan, scatter — the same compaction shape
    // as everywhere else in the pipeline.
    let flags: Vec<u64> = grid.map_indexed(n, |i| u64::from(is_mark(i)));
    let (slots, num_marks) = scan::exclusive_scan_total(grid, &flags, &scan::AddOp);
    let num_marks = num_marks as usize;
    let mut marks = vec![0u64; num_marks];
    {
        let mw = SlotWriter::new(&mut marks);
        grid.run_partitioned(n, |_, range| {
            for i in range {
                grid.check_abort(i);
                if flags[i] == 1 {
                    unsafe { mw.write(slots[i] as usize, i as u64) };
                }
            }
        });
    }

    // Field k ends at marks[k]; it starts one past marks[k-1]. A tail
    // after the last mark (or a non-empty CSS with no marks) is a final
    // unterminated field.
    let trailing = n > 0 && (num_marks == 0 || (marks[num_marks - 1] as usize) < n - 1);
    let num_fields = num_marks + usize::from(trailing);

    let starts: Vec<u64> =
        grid.map_indexed(num_fields, |k| if k == 0 { 0 } else { marks[k - 1] + 1 });
    let ends: Vec<u64> =
        grid.map_indexed(
            num_fields,
            |k| {
                if k < num_marks {
                    marks[k]
                } else {
                    n as u64
                }
            },
        );

    FieldIndex {
        rows: (0..num_fields as u32).collect(),
        starts,
        ends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(3)
    }

    #[test]
    fn record_tagged_index_matches_figure5() {
        // Column 2 of Fig. 5: 8 symbols of record 0 (Bookcase) followed by
        // 22 symbols of record 1.
        let tags = [vec![0u32; 8], vec![1u32; 22]].concat();
        let idx = index_record_tagged(&grid(), &tags);
        assert_eq!(idx.rows, vec![0, 1]);
        assert_eq!(idx.field_range(0), 0..8);
        assert_eq!(idx.field_range(1), 8..30);
        assert_eq!(idx.field_len(1), 22);
    }

    #[test]
    fn record_tagged_skips_missing_records() {
        // Record 1 has no symbols in this column (empty field → absent
        // from the index; the conversion step fills the default).
        let tags = [vec![0u32; 6], vec![2u32; 5]].concat();
        let idx = index_record_tagged(&grid(), &tags);
        assert_eq!(idx.rows, vec![0, 2]);
        assert_eq!(idx.field_range(0), 0..6);
        assert_eq!(idx.field_range(1), 6..11);
    }

    #[test]
    fn inline_index_matches_figure6() {
        // Apples\0\0Pears\0 → fields "Apples", "", "Pears".
        let css = b"Apples\0\0Pears\0";
        let idx = index_inline(&grid(), css, 0);
        assert_eq!(idx.num_fields(), 3);
        assert_eq!(&css[idx.field_range(0)], b"Apples");
        assert_eq!(&css[idx.field_range(1)], b"");
        assert_eq!(&css[idx.field_range(2)], b"Pears");
        assert_eq!(idx.rows, vec![0, 1, 2]);
    }

    #[test]
    fn inline_unterminated_tail_is_a_field() {
        let css = b"ab\0cd";
        let idx = index_inline(&grid(), css, 0);
        assert_eq!(idx.num_fields(), 2);
        assert_eq!(&css[idx.field_range(0)], b"ab");
        assert_eq!(&css[idx.field_range(1)], b"cd");
        // All data, no terminator at all.
        let css = b"xyz";
        let idx = index_inline(&grid(), css, 0);
        assert_eq!(idx.num_fields(), 1);
        assert_eq!(&css[idx.field_range(0)], b"xyz");
    }

    #[test]
    fn vector_index_matches_figure6() {
        // Apples??Pears? with flags on the three delimiters.
        let flags = {
            let mut f = vec![false; 14];
            f[6] = true;
            f[7] = true;
            f[13] = true;
            f
        };
        let idx = index_vector(&grid(), &flags);
        assert_eq!(idx.num_fields(), 3);
        assert_eq!(idx.field_range(0), 0..6);
        assert_eq!(idx.field_range(1), 7..7);
        assert_eq!(idx.field_range(2), 8..13);
    }

    #[test]
    fn empty_css() {
        let idx = index_inline(&grid(), b"", 0);
        assert_eq!(idx.num_fields(), 0);
        let idx = index_record_tagged(&grid(), &[]);
        assert_eq!(idx.num_fields(), 0);
    }

    fn run(col: u32, row: u32, start: u64, len: u64, closed: bool) -> FieldRun {
        FieldRun {
            col,
            row,
            start,
            len,
            closed,
        }
    }

    #[test]
    fn runs_index_merges_chunk_split_fields() {
        // A record-tagged column whose second field was split across two
        // chunks: rows 0, 1, 1 with touching offsets.
        let runs = [
            run(2, 0, 0, 8, false),
            run(2, 1, 8, 10, false),
            run(2, 1, 18, 12, false),
        ];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 1]);
        assert_eq!(idx.field_range(0), 0..8);
        assert_eq!(idx.field_range(1), 8..30);
    }

    #[test]
    fn runs_index_excludes_closing_delimiter() {
        // Inline/vector-style runs: Apples\0 | \0 | Pears\0 — the closed
        // flag drops the terminator from each range, and the len-1 closed
        // run is an empty field.
        let runs = [
            run(1, 0, 0, 7, true),
            run(1, 1, 7, 1, true),
            run(1, 2, 8, 6, true),
        ];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 1, 2]);
        assert_eq!(idx.field_range(0), 0..6);
        assert_eq!(idx.field_range(1), 7..7);
        assert_eq!(idx.field_range(2), 8..13);
        // An unterminated tail keeps its full range.
        let idx = index_from_runs(&[run(0, 0, 0, 3, true), run(0, 1, 3, 2, false)]);
        assert_eq!(idx.field_range(1), 3..5);
        assert_eq!(index_from_runs(&[]).num_fields(), 0);
    }

    #[test]
    fn only_terminators() {
        // Three empty fields.
        let css = b"\0\0\0";
        let idx = index_inline(&grid(), css, 0);
        assert_eq!(idx.num_fields(), 3);
        for k in 0..3 {
            assert!(idx.field_range(k).is_empty());
        }
    }
}
