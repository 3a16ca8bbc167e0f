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
//! kernel hands convert each column's field runs, one per field, and every
//! mode builds its index from them with [`index_from_runs`]: one index
//! entry per run.

use crate::tagging::FieldRun;
use parparaw_parallel::rle::run_length_encode;
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
/// Runs arrive in input order with CSS-relative, contiguous starts, and
/// tagging emits exactly one run per field, so each run is one index
/// entry. A `closed` run ends with the field's terminator/delimiter
/// symbol, which the field range excludes — exactly the semantics of
/// [`index_inline`]/[`index_vector`]. Record-tagged runs are never closed,
/// matching [`index_record_tagged`].
pub fn index_from_runs(runs: &[FieldRun]) -> FieldIndex {
    debug_assert!(
        runs.windows(2).all(|w| w[0].row < w[1].row),
        "one run per field: rows strictly increase within a column"
    );
    FieldIndex {
        rows: runs.iter().map(|r| r.row).collect(),
        starts: runs.iter().map(|r| r.start).collect(),
        ends: runs
            .iter()
            .map(|r| r.start + r.len - u64::from(r.closed))
            .collect(),
    }
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
    // Locate the marks in one walk: each worker appends the marks of its
    // range, and the lists join in worker order.
    let marks: Vec<u64> = grid
        .map_partitioned(n, |_, range| {
            let mut marks = Vec::new();
            for i in range {
                grid.check_abort(i);
                if is_mark(i) {
                    marks.push(i as u64);
                }
            }
            marks
        })
        .concat();

    // Field k ends at marks[k]; it starts one past marks[k-1]. A tail
    // after the last mark (or a non-empty CSS with no marks) is a final
    // unterminated field.
    let trailing = n > 0 && marks.last() != Some(&(n as u64 - 1));
    let mut starts: Vec<u64> = std::iter::once(0)
        .chain(marks.iter().map(|m| m + 1))
        .collect();
    let mut ends = marks;
    if trailing {
        ends.push(n as u64);
    }
    let num_fields = ends.len();
    starts.truncate(num_fields);

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
    fn runs_index_is_one_entry_per_run() {
        // A record-tagged column: one run per field, rows 0 and 2 (row 1
        // has no symbols in this column).
        let runs = [run(2, 0, 0, 8, false), run(2, 2, 8, 22, false)];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 2]);
        assert_eq!(idx.field_range(0), 0..8);
        assert_eq!(idx.field_range(1), 8..30);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows strictly increase")]
    fn runs_index_rejects_a_split_field() {
        // Two runs of row 1 would be one field split in two.
        index_from_runs(&[run(2, 1, 0, 8, false), run(2, 1, 8, 10, false)]);
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
