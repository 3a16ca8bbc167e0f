//! End-to-end streaming (paper §4.4).
//!
//! Inputs that do not fit device memory (or arrive from the host) are
//! split into partitions. The incomplete record at the end of each
//! partition is carried over and prepended to the next one.
//!
//! One cursor, [`PartitionIter`], drives every streaming entry point:
//! [`Parser::parse_stream`] and [`Parser::parse_stream_resumable`] drain
//! it and concatenate the batches, [`Parser::partitions`] yields them one
//! by one. The carry is always the unconsumed tail of the previous cut,
//! so carry plus partition is one contiguous slice of the input and each
//! batch parses in place, with no copy.
//!
//! Every partition's **measured work** is recorded so the simulated
//! device can replay the Fig. 7 double-buffered transfer/parse/return
//! overlap over the PCIe link model ([`StreamedOutput::streaming_plan`];
//! the schedule itself lives in `parparaw_device`).

use crate::diag::RecordDiagnostic;
use crate::error::ParseError;
use crate::options::ErrorPolicy;
use crate::pipeline::{split_header, Parser};
use crate::timings::ParseOutput;
use parparaw_columnar::{Schema, Table};
use parparaw_device::streaming::PartitionCost;
use parparaw_device::{CostModel, PcieLink, StreamingPlan};
use parparaw_parallel::{Grid, KernelExecutor, LaunchMode};
use std::time::{Duration, Instant};

/// The partition-size degradation floor: under arena budget pressure the
/// stream halves its effective partition size, but never below
/// `min(initial_partition_size, PARTITION_FLOOR_BYTES)`.
const PARTITION_FLOOR_BYTES: usize = 4096;

/// Measurements for one streamed partition.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Raw bytes transferred for this partition (excluding the carry,
    /// which is copied device-side).
    pub input_bytes: u64,
    /// Bytes of the carry prepended from the previous partition.
    pub carry_bytes: u64,
    /// Columnar output bytes returned.
    pub output_bytes: u64,
    /// Wall-clock parse time on this host.
    pub parse_wall: Duration,
    /// Simulated on-device parse seconds (cost model over the partition's
    /// measured work profiles).
    pub parse_seconds_simulated: f64,
    /// Records produced by this partition.
    pub records: u64,
    /// Launch attempts beyond the first while parsing this partition.
    pub retries: u64,
    /// Launches that degraded to spawn-per-launch for this partition.
    pub degraded_launches: u64,
    /// Faults injected by a configured fault injector.
    pub injected_faults: u64,
    /// Whether this partition exhausted its launch retries and was
    /// re-parsed from scratch on a fresh spawn-per-launch executor.
    pub relaunched: bool,
    /// Launch attempts that were unwound by the deadline watchdog while
    /// parsing this partition.
    pub timeouts: u64,
    /// Whether arena budget pressure observed after this partition caused
    /// the stream to halve its effective partition size.
    pub budget_degraded: bool,
    /// The effective partition size in force after this partition (equal
    /// to the requested size until budget pressure degrades it).
    pub partition_size: usize,
}

/// The result of a streamed parse.
#[derive(Debug)]
pub struct StreamedOutput {
    /// The concatenated table across all partitions.
    pub table: Table,
    /// Per-partition measurements, in order.
    pub partitions: Vec<PartitionReport>,
    /// Total rejected records.
    pub rejected_records: u64,
    /// Per-record diagnostics across the stream, with record indices and
    /// byte offsets remapped to the whole input (each partition's cap is
    /// set by the error policy; overflow lands in
    /// [`StreamedOutput::dropped_diagnostics`]).
    pub diagnostics: Vec<RecordDiagnostic>,
    /// Diagnostics dropped at the per-partition cap.
    pub dropped_diagnostics: u64,
    /// End-to-end wall-clock time of the stream.
    pub wall: Duration,
}

impl StreamedOutput {
    /// Build the Fig. 7 schedule inputs for the device simulator.
    pub fn streaming_plan(&self, link: PcieLink) -> StreamingPlan {
        StreamingPlan {
            link,
            partitions: self
                .partitions
                .iter()
                .map(|p| PartitionCost {
                    input_bytes: p.input_bytes,
                    output_bytes: p.output_bytes,
                    carry_bytes: p.carry_bytes,
                    parse_seconds: p.parse_seconds_simulated,
                })
                .collect(),
        }
    }

    /// Convenience: simulated end-to-end seconds over the given link.
    pub fn simulated_end_to_end_seconds(&self, model: &CostModel, link: PcieLink) -> f64 {
        self.streaming_plan(link).simulate(model).total_seconds
    }

    /// Total launch retries across all partitions.
    pub fn total_retries(&self) -> u64 {
        self.partitions.iter().map(|p| p.retries).sum()
    }

    /// Total injected faults across all partitions.
    pub fn total_injected_faults(&self) -> u64 {
        self.partitions.iter().map(|p| p.injected_faults).sum()
    }

    /// Number of partitions that had to be re-parsed on a fresh
    /// spawn-per-launch executor after exhausting launch retries.
    pub fn relaunched_partitions(&self) -> u64 {
        self.partitions.iter().filter(|p| p.relaunched).count() as u64
    }

    /// Total launch attempts unwound by the deadline watchdog.
    pub fn total_timeouts(&self) -> u64 {
        self.partitions.iter().map(|p| p.timeouts).sum()
    }

    /// Number of partitions after which arena budget pressure halved the
    /// effective partition size.
    pub fn budget_degradations(&self) -> u64 {
        self.partitions.iter().filter(|p| p.budget_degraded).count() as u64
    }
}

/// The resume point of an interrupted stream: the last fully-emitted
/// partition boundary plus the stream-global offsets needed to keep row
/// indices and diagnostic byte offsets identical to an uninterrupted run.
///
/// A checkpoint only advances once the stream's schema is *fixed* — either
/// configured explicitly or frozen from the first partition that produced
/// rows. Before that point it stays at the stream start (replaying
/// zero-row, fully-carried partitions is free and guarantees the resumed
/// run infers the same schema an uninterrupted run would have).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Byte offset into the original input where the resumed run starts
    /// reading (the first byte not yet covered by an emitted partition —
    /// carry-over bytes are re-read from the input itself).
    pub resume_offset: u64,
    /// Rows emitted before this checkpoint; seeds the resumed run's
    /// stream-global record indices for diagnostics.
    pub rows_emitted: u64,
    /// Partitions emitted before this checkpoint (informational).
    pub partitions_emitted: u64,
    /// The effective partition size in force at the checkpoint, so budget
    /// degradations survive the restart.
    pub partition_size: usize,
    /// Whether the stream header was already consumed.
    pub header_done: bool,
    /// Column names captured from the header (when `header_done`).
    pub header_names: Option<Vec<String>>,
    /// The schema frozen from the first row-producing partition (`None`
    /// when the parser was configured with an explicit schema, which the
    /// resumed run re-reads from its own options).
    pub schema: Option<Schema>,
}

/// A stream that stopped early — cancellation, an exhausted launch
/// deadline, or a strict-policy memory-budget failure — carrying both the
/// work already completed and the [`Checkpoint`] to resume from.
///
/// Boxed in results (`Result<_, Box<StreamInterrupted>>`) because it owns
/// the completed partitions' table.
#[derive(Debug)]
pub struct StreamInterrupted {
    /// Why the stream stopped.
    pub error: ParseError,
    /// Everything emitted before the interruption (tables, reports,
    /// diagnostics — all stream-global, all final).
    pub completed: StreamedOutput,
    /// Where [`Parser::parse_stream_resumable`] should pick up.
    pub checkpoint: Checkpoint,
}

impl std::fmt::Display for StreamInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream interrupted after {} partition(s) ({} rows emitted): {}",
            self.completed.partitions.len(),
            self.checkpoint.rows_emitted,
            self.error
        )
    }
}

impl std::error::Error for StreamInterrupted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One-shot recovery parse on a fresh spawn-per-launch executor with *no*
/// fault injection — the stream's answer to a partition whose launches
/// exhausted their retries (e.g. a poisoned worker pool). Spawn-per-launch
/// cannot inherit corrupted pool state, so this isolates the fault to the
/// failed partition instead of aborting the stream.
fn relaunch_partition(
    parser: &Parser,
    work: &[u8],
    has_more: bool,
) -> Result<(ParseOutput, usize), ParseError> {
    let workers = parser.options().grid.workers();
    let mut recovery = KernelExecutor::new(Grid::with_mode(workers, LaunchMode::SpawnPerLaunch))
        .with_retry(parser.options().retry);
    // The caller's cancel token still applies during recovery (a recovery
    // parse must stay interruptible), but the deadline and the fault
    // injector do not: the fresh spawn-per-launch executor exists to give
    // the partition one clean, unharassed run.
    if let Some(token) = parser.options().cancel.clone() {
        recovery = recovery.with_cancel(token);
    }
    parser.parse_with(&recovery, work, has_more)
}

impl Parser {
    /// Parse `input` as a stream of `partition_size`-byte partitions with
    /// carry-over.
    ///
    /// When no schema is configured, the first partition is parsed with
    /// type inference and its inferred schema is fixed for the rest of the
    /// stream (a stream cannot retroactively re-type data it has already
    /// returned).
    pub fn parse_stream(
        &self,
        input: &[u8],
        partition_size: usize,
    ) -> Result<StreamedOutput, ParseError> {
        self.parse_stream_resumable(input, partition_size, None)
            .map_err(|i| i.error)
    }

    /// [`Parser::parse_stream`] with interruption and resume support.
    ///
    /// A stream stopped by a fired [`CancelToken`](parparaw_parallel::CancelToken),
    /// an exhausted launch deadline, a strict-policy memory-budget
    /// failure, or any other mid-stream error returns a boxed
    /// [`StreamInterrupted`] holding the partitions already emitted plus a
    /// [`Checkpoint`]. Calling this again with the *same input* and that
    /// checkpoint parses exactly the remainder: concatenating the
    /// completed and resumed tables (and diagnostics) is byte-identical to
    /// an uninterrupted run.
    ///
    /// When a [`memory_budget`](crate::options::ParserOptions::memory_budget)
    /// is configured, arena budget pressure halves the effective partition
    /// size (down to a floor of `min(partition_size, 4096)` bytes) instead
    /// of pooling past the cap; under
    /// [`ErrorPolicy::Strict`],
    /// pressure *at* the floor interrupts the stream with
    /// [`ParseError::MemoryBudgetExceeded`].
    pub fn parse_stream_resumable(
        &self,
        input: &[u8],
        partition_size: usize,
        resume: Option<Checkpoint>,
    ) -> Result<StreamedOutput, Box<StreamInterrupted>> {
        let t0 = Instant::now();
        let mut cursor = PartitionIter::new(self, input, partition_size, resume);
        let mut tables: Vec<Table> = Vec::new();
        let mut completed = StreamedOutput {
            table: Table::empty(),
            partitions: Vec::new(),
            rejected_records: 0,
            diagnostics: Vec::new(),
            dropped_diagnostics: 0,
            wall: Duration::ZERO,
        };
        let error = loop {
            if cursor.done {
                break None;
            }
            match cursor.next_batch() {
                Ok(batch) => {
                    tables.push(batch.table);
                    completed.partitions.push(batch.report);
                    completed.rejected_records += batch.rejected;
                    completed.diagnostics.extend(batch.diagnostics);
                    completed.dropped_diagnostics += batch.dropped_diagnostics;
                }
                Err(e) => break Some(e),
            }
        };

        // Assemble whatever was emitted — the full stream on success, the
        // completed prefix on interruption. Zero-row partitions (fully
        // carried over) may predate the schema freeze; they contribute
        // nothing, so drop them.
        let refs: Vec<&Table> = tables.iter().filter(|t| t.num_rows() > 0).collect();
        completed.table = if refs.is_empty() {
            tables.into_iter().next().unwrap_or_else(Table::empty)
        } else {
            Table::concat(&refs).expect("partitions share the fixed schema")
        };
        completed.wall = t0.elapsed();
        match error {
            None => Ok(completed),
            Some(error) => Err(Box::new(StreamInterrupted {
                error,
                completed,
                checkpoint: cursor.checkpoint,
            })),
        }
    }

    /// Iterate the input partition by partition (paper §4.4's pipeline as
    /// a consumer-driven iterator).
    pub fn partitions<'a>(&self, input: &'a [u8], partition_size: usize) -> PartitionIter<'a> {
        PartitionIter::new(self, input, partition_size, None)
    }
}

/// A pull-based streaming parse: yields one [`Table`] per partition,
/// carrying incomplete records across `next()` calls. This is the
/// integration-friendly shape for pipelines that process batches as they
/// arrive instead of materialising the whole output
/// ([`Parser::parse_stream`] does the latter).
pub struct PartitionIter<'a> {
    /// The stream's parser: header handling off (the cursor consumes the
    /// header once), schema fixed once known.
    parser: Parser,
    /// One executor for the whole stream: its worker pool and buffer arena
    /// persist across partitions, so steady-state streaming does near-zero
    /// allocation.
    exec: KernelExecutor,
    input: &'a [u8],
    /// The first input byte not consumed by an emitted batch.
    pos: usize,
    /// The end of the last cut; `input[pos..cut]` is the carry.
    cut: usize,
    /// The effective partition size, used by the next cut and halved
    /// under arena budget pressure.
    psize: usize,
    /// The lowest `psize` budget pressure may degrade to.
    floor: usize,
    /// The arena's cumulative pressure count after the last partition.
    last_pressure: u64,
    /// Rows emitted so far, for stream-global diagnostic indices.
    rows: u64,
    header_pending: bool,
    header_names: Option<Vec<String>>,
    /// Whether the caller configured the schema (a frozen one is instead
    /// recorded in the checkpoint).
    explicit_schema: bool,
    checkpoint: Checkpoint,
    done: bool,
}

/// One parsed partition, in stream-global coordinates.
struct Batch {
    table: Table,
    report: PartitionReport,
    diagnostics: Vec<RecordDiagnostic>,
    dropped_diagnostics: u64,
    rejected: u64,
}

impl<'a> PartitionIter<'a> {
    fn new(
        parser: &Parser,
        input: &'a [u8],
        partition_size: usize,
        resume: Option<Checkpoint>,
    ) -> Self {
        let initial_psize = partition_size.max(1);
        // A resumed run re-enters at the checkpoint's (possibly degraded)
        // size, offset, rows, header and frozen schema.
        let checkpoint = resume.unwrap_or(Checkpoint {
            resume_offset: 0,
            rows_emitted: 0,
            partitions_emitted: 0,
            partition_size: initial_psize,
            header_done: !parser.options().header,
            header_names: None,
            schema: None,
        });
        let mut opts = parser.options().clone();
        opts.header = false;
        let explicit_schema = opts.schema.is_some();
        if let Some(schema) = &checkpoint.schema {
            opts.schema = Some(schema.clone());
        }
        let exec = opts.build_executor();
        let last_pressure = exec.arena().pressure_events();
        let pos = (checkpoint.resume_offset as usize).min(input.len());
        let psize = checkpoint.partition_size.max(1);
        PartitionIter {
            parser: Parser::new(parser.dfa().clone(), opts),
            exec,
            input,
            pos,
            cut: pos,
            psize,
            floor: initial_psize.min(PARTITION_FLOOR_BYTES),
            last_pressure,
            rows: checkpoint.rows_emitted,
            header_pending: !checkpoint.header_done,
            header_names: checkpoint.header_names.clone(),
            explicit_schema,
            checkpoint,
            done: false,
        }
    }

    /// The column names captured from the stream header (populated after
    /// the first yielded batch when the parser was configured with
    /// `header = true`).
    pub fn header_names(&self) -> Option<&[String]> {
        self.header_names.as_deref()
    }

    /// Cut the next partition and parse the carry plus it in place. The
    /// stream is `done` once the last partition has been cut.
    fn next_batch(&mut self) -> Result<Batch, ParseError> {
        let input = self.input;
        loop {
            let carry_bytes = (self.cut - self.pos) as u64;
            let cut_from = self.cut;
            self.cut = self.cut.saturating_add(self.psize).min(input.len());
            self.done = self.cut == input.len();
            let has_more = !self.done;

            // The stream's header is consumed once, up front; every
            // partition then parses header-free.
            if self.header_pending {
                match split_header(self.parser.dfa(), &input[self.pos..self.cut], self.done) {
                    Some((names, data_at)) => {
                        self.header_names = Some(names);
                        self.pos += data_at;
                        self.header_pending = false;
                    }
                    None => continue,
                }
            }

            let work = &input[self.pos..self.cut];
            let tw = Instant::now();
            let mut relaunched = false;
            let (mut failed_retries, mut failed_injected, mut failed_timeouts) = (0u64, 0, 0);
            let (out, carry_len) = match self.parser.parse_with(&self.exec, work, has_more) {
                Ok(r) => r,
                // A fired CancelToken is a caller decision, not a fault:
                // interrupt immediately, no relaunch recovery.
                Err(ParseError::Launch(e)) if !e.is_cancelled() => {
                    // The failed run left its launch records (including
                    // the exhausted attempts) in the executor's log; keep
                    // their counts for this partition's report.
                    for r in self.exec.drain_log() {
                        failed_retries += u64::from(r.attempts.saturating_sub(1));
                        failed_injected += u64::from(r.injected_faults);
                        failed_timeouts += u64::from(r.timed_out_attempts);
                    }
                    relaunched = true;
                    relaunch_partition(&self.parser, work, has_more)?
                }
                Err(e) => return Err(e),
            };
            let parse_wall = tw.elapsed();

            // Freeze the inferred schema on the first partition with rows,
            // so later partitions stay type-compatible.
            if self.parser.options().schema.is_none() && out.stats.num_records > 0 {
                let mut opts = self.parser.options().clone();
                opts.schema = Some(out.table.schema().clone());
                self.parser = Parser::new(self.parser.dfa().clone(), opts);
            }

            // Arena budget pressure since the last partition means the
            // pool refused to hold this partition's buffers: halve the
            // effective partition size instead of allocating past the cap.
            // At the floor the budget is advisory under the permissive
            // policy and fatal under Strict.
            let pressure = self.exec.arena().pressure_events();
            let mut budget_degraded = false;
            if pressure > self.last_pressure {
                self.last_pressure = pressure;
                let o = self.parser.options();
                if self.psize > self.floor {
                    self.psize = (self.psize / 2).max(self.floor);
                    budget_degraded = true;
                } else if matches!(o.error_policy, ErrorPolicy::Strict) {
                    return Err(ParseError::MemoryBudgetExceeded {
                        budget_bytes: o.memory_budget.unwrap_or(0),
                        partition_size: self.psize,
                    });
                }
            }

            // Remap this partition's diagnostics into stream-global
            // coordinates before the local indices go stale.
            let (rows, offset) = (self.rows, self.pos as u64);
            let diagnostics = out
                .diagnostics
                .into_iter()
                .map(|mut d| {
                    d.record += rows;
                    if let Some(b) = &mut d.byte_offset {
                        *b += offset;
                    }
                    d
                })
                .collect();
            self.rows += out.stats.num_records;
            self.pos = self.cut - carry_len;

            // Advance the checkpoint only once the schema is fixed
            // (explicit, resumed, or frozen above): resuming before that
            // replays from the stream start so the resumed run infers the
            // same schema an uninterrupted run would.
            if let Some(schema) = &self.parser.options().schema {
                let c = &mut self.checkpoint;
                c.resume_offset = self.pos as u64;
                c.rows_emitted = self.rows;
                c.partitions_emitted += 1;
                c.partition_size = self.psize;
                c.header_done = true;
                if c.header_names.is_none() {
                    c.header_names = self.header_names.clone();
                }
                if c.schema.is_none() && !self.explicit_schema {
                    c.schema = Some(schema.clone());
                }
            }

            let table = match (&self.header_names, self.explicit_schema) {
                (Some(names), false) => out.table.renamed(names),
                _ => out.table,
            };
            return Ok(Batch {
                table,
                report: PartitionReport {
                    input_bytes: (self.cut - cut_from) as u64,
                    carry_bytes,
                    output_bytes: out.stats.output_bytes,
                    parse_wall,
                    parse_seconds_simulated: out.simulated.total_seconds,
                    records: out.stats.num_records,
                    retries: out.timings.retries + failed_retries,
                    degraded_launches: out.timings.degraded_launches,
                    injected_faults: out.timings.injected_faults + failed_injected,
                    relaunched,
                    timeouts: out.timings.timeouts + failed_timeouts,
                    budget_degraded,
                    partition_size: self.psize,
                },
                diagnostics,
                dropped_diagnostics: out.stats.dropped_diagnostics,
                rejected: out.stats.rejected_records,
            });
        }
    }
}

impl Iterator for PartitionIter<'_> {
    type Item = Result<Table, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            match self.next_batch() {
                // Fully carried over; pull more input.
                Ok(batch) if batch.table.num_rows() == 0 && !self.done => continue,
                Ok(batch) => return Some(Ok(batch.table)),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ParserOptions;
    use parparaw_columnar::{DataType, Field, Value};
    use parparaw_device::DeviceConfig;
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_parallel::Grid;

    fn parser(schema: Option<Schema>) -> Parser {
        Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(2),
                schema,
                ..ParserOptions::default()
            },
        )
    }

    fn make_input(rows: usize) -> Vec<u8> {
        let mut s = String::new();
        for i in 0..rows {
            s.push_str(&format!(
                "{},\"text {i}, with comma\",{}.5\n",
                i % 7,
                i % 100
            ));
        }
        s.into_bytes()
    }

    #[test]
    fn streamed_equals_monolithic() {
        let input = make_input(200);
        let p = parser(None);
        let mono = p.parse(&input).unwrap();
        for psize in [37usize, 100, 1000, 100_000] {
            let streamed = p.parse_stream(&input, psize).unwrap();
            assert_eq!(
                streamed.table.num_rows(),
                mono.table.num_rows(),
                "partition size {psize}"
            );
            assert_eq!(streamed.table, mono.table, "partition size {psize}");
        }
    }

    #[test]
    fn carry_over_spans_partitions() {
        // A quoted field crossing many partition boundaries.
        let input = b"a,\"long quoted value with, commas\nand newlines\",z\nb,c,d\n";
        let p = parser(None);
        let streamed = p.parse_stream(input, 8).unwrap();
        assert_eq!(streamed.table.num_rows(), 2);
        assert_eq!(
            streamed.table.value(0, 1),
            Value::Utf8("long quoted value with, commas\nand newlines".into())
        );
        // Early partitions contribute zero records; their bytes carried.
        assert!(streamed.partitions.iter().any(|r| r.records == 0));
        assert!(streamed.partitions.iter().any(|r| r.carry_bytes > 0));
    }

    #[test]
    fn schema_fixed_after_first_partition() {
        // First partition sees only integers; a later one has a float. The
        // stream's schema freezes on the first partition, so the float
        // row becomes a conversion reject (null), not a re-typed column.
        let input = b"1\n2\n3\n4\n5\n6\n7\n8\n2.5\n";
        let p = parser(None);
        let streamed = p.parse_stream(input, 8).unwrap();
        assert_eq!(streamed.table.schema().fields[0].data_type, DataType::Int8);
        let last = streamed.table.num_rows() - 1;
        assert_eq!(streamed.table.value(last, 0), Value::Null);
    }

    #[test]
    fn explicit_schema_streams_without_inference() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("text", DataType::Utf8),
            Field::new("v", DataType::Float64),
        ]);
        let input = make_input(50);
        let p = parser(Some(schema));
        let streamed = p.parse_stream(&input, 64).unwrap();
        assert_eq!(streamed.table.num_rows(), 50);
        assert_eq!(streamed.table.value(49, 0), Value::Int64(49 % 7));
    }

    #[test]
    fn empty_input_streams() {
        let p = parser(None);
        let s = p.parse_stream(b"", 64).unwrap();
        assert_eq!(s.table.num_rows(), 0);
    }

    #[test]
    fn cancelled_stream_resumes_byte_identical() {
        use parparaw_parallel::CancelToken;
        let input = make_input(200);
        let p = parser(None);
        let mono = p.parse(&input).unwrap();
        // Fire the token a few partitions into the stream (each partition
        // costs several launches), then resume without it.
        for nth in [12u64, 30, 55] {
            let mut o = p.options().clone();
            o.cancel = Some(CancelToken::after_launches(nth));
            let interrupted = Parser::new(p.dfa().clone(), o)
                .parse_stream_resumable(&input, 256, None)
                .unwrap_err();
            assert!(interrupted.error.is_cancelled(), "nth={nth}");
            let resumed = p
                .parse_stream_resumable(&input, 256, Some(interrupted.checkpoint.clone()))
                .unwrap();
            let parts: Vec<&Table> = [&interrupted.completed.table, &resumed.table]
                .into_iter()
                .filter(|t| t.num_rows() > 0)
                .collect();
            let combined = Table::concat(&parts).unwrap();
            assert_eq!(combined, mono.table, "nth={nth}");
        }
    }

    #[test]
    fn checkpoint_stays_at_start_until_schema_freezes() {
        use parparaw_parallel::CancelToken;
        // A quoted field spanning every early partition: partitions carry
        // fully over, no rows, no schema — the checkpoint must not move.
        let input = b"a,\"long quoted value with, commas\nand newlines\",z\nb,c,d\n";
        let p = parser(None);
        let mut o = p.options().clone();
        o.cancel = Some(CancelToken::after_launches(1));
        let interrupted = Parser::new(p.dfa().clone(), o)
            .parse_stream_resumable(input, 8, None)
            .unwrap_err();
        assert_eq!(interrupted.checkpoint.resume_offset, 0);
        assert_eq!(interrupted.checkpoint.rows_emitted, 0);
        assert!(interrupted.checkpoint.schema.is_none());
        assert_eq!(interrupted.completed.table.num_rows(), 0);
        let resumed = p
            .parse_stream_resumable(input, 8, Some(interrupted.checkpoint))
            .unwrap();
        assert_eq!(resumed.table, p.parse_stream(input, 8).unwrap().table);
    }

    #[test]
    fn resumed_diagnostics_stay_stream_global() {
        use parparaw_parallel::CancelToken;
        // A short record deep in the stream; interrupt before it, resume,
        // and the diagnostic must carry the stream-global record index.
        let mut s = String::new();
        for i in 0..60 {
            s.push_str(&format!("{i},{i},{i}\n"));
        }
        s.push_str("61,61\n");
        for i in 62..70 {
            s.push_str(&format!("{i},{i},{i}\n"));
        }
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        o.validate_column_count = true;
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        let mut cancelled = p.options().clone();
        cancelled.cancel = Some(CancelToken::after_launches(20));
        let interrupted = Parser::new(p.dfa().clone(), cancelled)
            .parse_stream_resumable(s.as_bytes(), 128, None)
            .unwrap_err();
        let resumed = p
            .parse_stream_resumable(s.as_bytes(), 128, Some(interrupted.checkpoint))
            .unwrap();
        let mut diags = interrupted.completed.diagnostics;
        diags.extend(resumed.diagnostics);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].record, 60, "record index must stay stream-global");
    }

    #[test]
    fn budget_pressure_degrades_partition_size_to_floor() {
        let input = make_input(4000);
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        // A budget far too small for 16 KiB partitions: the stream must
        // halve its way down to the 4 KiB floor instead of pooling past
        // the cap.
        o.memory_budget = Some(256);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        let streamed = p.parse_stream(&input, 16 * 1024).unwrap();
        assert_eq!(
            streamed.table,
            parser(None).parse(&input).unwrap().table,
            "degradation must not change output"
        );
        assert!(streamed.budget_degradations() >= 2);
        let last = streamed.partitions.last().unwrap();
        assert_eq!(last.partition_size, PARTITION_FLOOR_BYTES);
    }

    #[test]
    fn strict_budget_at_floor_interrupts_with_typed_error() {
        use crate::options::ErrorPolicy;
        let input = make_input(200);
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        }
        .error_policy(ErrorPolicy::Strict);
        o.memory_budget = Some(64);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        // partition_size == floor, so the first pressure event is fatal.
        let interrupted = p.parse_stream_resumable(&input, 512, None).unwrap_err();
        match interrupted.error {
            ParseError::MemoryBudgetExceeded {
                budget_bytes,
                partition_size,
            } => {
                assert_eq!(budget_bytes, 64);
                assert_eq!(partition_size, 512);
            }
            ref other => panic!("expected MemoryBudgetExceeded, got {other}"),
        }
        // The same stream under the default permissive policy completes.
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        o.memory_budget = Some(64);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        assert!(p.parse_stream(&input, 512).is_ok());
    }

    #[test]
    fn plan_feeds_device_simulation() {
        let input = make_input(300);
        let p = parser(None);
        let streamed = p.parse_stream(&input, 1024).unwrap();
        let model = CostModel::new(DeviceConfig::titan_x_pascal());
        let report = streamed
            .streaming_plan(PcieLink::pcie3_x16())
            .simulate(&model);
        assert!(report.total_seconds > 0.0);
        // Streaming must beat "transfer everything, then parse, then
        // return" for multi-partition inputs.
        let sum_stages: f64 = {
            let link = PcieLink::pcie3_x16();
            let transfer = link.h2d_seconds(input.len() as u64);
            let parse: f64 = streamed
                .partitions
                .iter()
                .map(|r| r.parse_seconds_simulated)
                .sum();
            let ret = link.d2h_seconds(streamed.table.buffer_bytes() as u64);
            transfer + parse + ret
        };
        assert!(report.total_seconds <= sum_stages + 1e-9);
    }
}

#[cfg(test)]
mod iter_tests {
    use super::*;
    use crate::options::ParserOptions;
    use parparaw_columnar::Value;
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_parallel::Grid;

    fn parser(header: bool) -> Parser {
        Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(2),
                header,
                ..ParserOptions::default()
            },
        )
    }

    #[test]
    fn batches_cover_all_records() {
        let input: Vec<u8> = (0..100)
            .map(|i| format!("{i},\"v,{i}\"\n"))
            .collect::<String>()
            .into_bytes();
        let p = parser(false);
        let mono = p.parse(&input).unwrap();
        let batches: Vec<Table> = p.partitions(&input, 64).collect::<Result<_, _>>().unwrap();
        assert!(batches.len() > 1);
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, mono.table.num_rows());
        // Concatenating the batches gives the monolithic table.
        let refs: Vec<&Table> = batches.iter().collect();
        assert_eq!(Table::concat(&refs).unwrap(), mono.table);
    }

    #[test]
    fn header_applies_to_every_batch() {
        let input = b"id,v\n1,10\n2,20\n3,30\n4,40\n";
        let p = parser(true);
        let batches: Vec<Table> = p.partitions(input, 8).collect::<Result<_, _>>().unwrap();
        for b in &batches {
            assert_eq!(b.schema().fields[0].name, "id");
        }
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 4);
        assert!(!batches.last().unwrap().value(0, 1).is_null());
    }

    #[test]
    fn empty_input_yields_one_empty_batch() {
        let p = parser(false);
        let batches: Vec<Table> = p.partitions(b"", 8).collect::<Result<_, _>>().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].num_rows(), 0);
    }

    #[test]
    fn errors_stop_the_iterator() {
        let p = Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(1),
                tagging: crate::options::TaggingMode::inline_default(),
                ..ParserOptions::default()
            },
        );
        // Inconsistent columns error under inline mode.
        let mut it = p.partitions(b"1,2\n3\n4,5\n", 1024);
        assert!(matches!(it.next(), Some(Err(_))));
        assert!(it.next().is_none());
    }

    #[test]
    fn quoted_field_across_many_batches() {
        let mut input = Vec::new();
        input.extend_from_slice(b"a,\"");
        input.extend(std::iter::repeat_n(b'x', 500));
        input.extend_from_slice(b"\",z\nb,c,d\n");
        let p = parser(false);
        let batches: Vec<Table> = p.partitions(&input, 32).collect::<Result<_, _>>().unwrap();
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 2);
        let first_batch_with_rows = batches.iter().find(|b| b.num_rows() > 0).unwrap();
        assert!(matches!(
            first_batch_with_rows.value(0, 1),
            Value::Utf8(ref s) if s.len() == 500
        ));
    }
}
