//! Per-record diagnostics (paper §4.3's format-validation capabilities,
//! surfaced as data instead of anonymous reject bits).
//!
//! The tagging and conversion kernels mark malformed records in a reject
//! bitmap; this module turns those marks into bounded, human-readable
//! [`RecordDiagnostic`] values. Collection is capped (see
//! [`crate::options::ErrorPolicy::Permissive`]) so adversarial inputs
//! cannot balloon memory: past the cap only a counter advances.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a record (or one field of it) was rejected.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The DFA flagged the record as syntactically invalid (e.g. a stray
    /// quote or an unterminated quoted field).
    InvalidSyntax,
    /// The record's column count differs from the expected count.
    ColumnCountMismatch {
        /// Columns the table expects.
        expected: u32,
        /// Columns this record actually has.
        got: u32,
    },
    /// A field failed typed conversion (paper Fig. 5's reject flag).
    ConversionFailed {
        /// Name of the target data type.
        data_type: String,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::InvalidSyntax => write!(f, "invalid syntax"),
            RejectReason::ColumnCountMismatch { expected, got } => {
                write!(f, "expected {expected} columns, got {got}")
            }
            RejectReason::ConversionFailed { data_type } => {
                write!(f, "value does not convert to {data_type}")
            }
        }
    }
}

/// One malformed record (or field), with enough context to find it in the
/// raw input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDiagnostic {
    /// Zero-based output record index (after header/skip handling).
    pub record: u64,
    /// Column index, when the problem is attributable to one field.
    pub column: Option<u32>,
    /// Byte offset into the parsed input, when known.
    pub byte_offset: Option<u64>,
    /// Why the record was rejected.
    pub reason: RejectReason,
}

impl std::fmt::Display for RecordDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}", self.record)?;
        if let Some(col) = self.column {
            write!(f, ", column {col}")?;
        }
        if let Some(off) = self.byte_offset {
            write!(f, " (byte {off})")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// Bounded, thread-safe diagnostic collector shared by the parallel
/// kernels. Collection past the cap only counts.
#[derive(Debug)]
pub struct DiagSink {
    cap: usize,
    items: Mutex<Vec<RecordDiagnostic>>,
    dropped: AtomicU64,
}

impl DiagSink {
    /// A sink retaining at most `cap` diagnostics.
    pub fn new(cap: usize) -> Self {
        DiagSink {
            cap,
            items: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one diagnostic (counted but not stored once full).
    pub fn push(&self, d: RecordDiagnostic) {
        let mut items = match self.items.lock() {
            Ok(g) => g,
            // A panicking kernel is already being converted into a
            // LaunchError; losing one diagnostic is acceptable.
            Err(poisoned) => poisoned.into_inner(),
        };
        if items.len() < self.cap {
            items.push(d);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of diagnostics dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain into a deterministic order: sorted by (record, column,
    /// byte offset, reason) and de-duplicated, so a retried launch that
    /// re-marks the same records does not duplicate entries. Two reasons
    /// at one position (an invalid record delimiter that also ends a
    /// record with the wrong column count) stay two entries.
    pub fn into_sorted(self) -> Vec<RecordDiagnostic> {
        let mut items = self.items.into_inner().unwrap_or_else(|p| p.into_inner());
        items.sort_by(|a, b| {
            (a.record, a.column, a.byte_offset, &a.reason).cmp(&(
                b.record,
                b.column,
                b.byte_offset,
                &b.reason,
            ))
        });
        items.dedup();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(record: u64) -> RecordDiagnostic {
        RecordDiagnostic {
            record,
            column: None,
            byte_offset: None,
            reason: RejectReason::InvalidSyntax,
        }
    }

    #[test]
    fn cap_counts_overflow() {
        let sink = DiagSink::new(2);
        for r in 0..5 {
            sink.push(diag(r));
        }
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.into_sorted().len(), 2);
    }

    #[test]
    fn sorted_and_deduped() {
        let sink = DiagSink::new(16);
        sink.push(diag(3));
        sink.push(diag(1));
        sink.push(diag(3)); // duplicate from a retried launch
        sink.push(diag(2));
        // Another reason at record 3's position is not a duplicate.
        let miscount = RejectReason::ColumnCountMismatch {
            expected: 2,
            got: 1,
        };
        sink.push(RecordDiagnostic {
            reason: miscount.clone(),
            ..diag(3)
        });
        let out = sink.into_sorted();
        assert_eq!(
            out.iter().map(|d| d.record).collect::<Vec<_>>(),
            [1, 2, 3, 3]
        );
        assert_eq!(out[2].reason, RejectReason::InvalidSyntax);
        assert_eq!(out[3].reason, miscount);
    }

    #[test]
    fn displays() {
        let d = RecordDiagnostic {
            record: 7,
            column: Some(2),
            byte_offset: Some(120),
            reason: RejectReason::ColumnCountMismatch {
                expected: 4,
                got: 3,
            },
        };
        let s = d.to_string();
        assert!(s.contains("record 7"), "{s}");
        assert!(s.contains("column 2"), "{s}");
        assert!(s.contains("byte 120"), "{s}");
        assert!(s.contains("expected 4 columns, got 3"), "{s}");
        let c = RejectReason::ConversionFailed {
            data_type: "Int64".into(),
        };
        assert!(c.to_string().contains("Int64"));
    }
}
