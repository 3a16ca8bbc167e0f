//! The traced run's pipeline: `Parser::parse` rebuilt from the public layer
//! functions of `parparaw-core`, with a span around each layer call.
//!
//! It covers the default options the workloads use (record-tagged mode,
//! run-scatter partition, permissive errors, no header, projection or
//! record skipping) and the fixed-schema streaming loop. The benchmark
//! reports its per-layer numbers only after checking that its table equals
//! the library's own entry call on the same input.

use parparaw_columnar::{Field, Schema, Table};
use parparaw_core::context::determine_contexts_fast;
use parparaw_core::convert::convert_column_with_diags;
use parparaw_core::css::index_from_runs;
use parparaw_core::diag::DiagSink;
use parparaw_core::infer::infer_column_type;
use parparaw_core::meta::identify_columns_and_records;
use parparaw_core::partition::partition_by_column_with;
use parparaw_core::tagging::{tag_symbols, FieldRun, TagConfig};
use parparaw_core::Parser;
use parparaw_parallel::{Bitmap, KernelExecutor};
use std::time::Instant;

/// The layers the traced run attributes time to, in pipeline order.
pub const LAYERS: [&str; 6] = [
    "context",
    "meta",
    "tagging",
    "partition",
    "convert",
    "infer",
];

/// One timed interval. Spans of one staged call share `call`.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub call: u32,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span recorder: spans nest through an explicit stack.
#[derive(Debug)]
pub struct Trace {
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    call: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            spans: Vec::new(),
            stack: Vec::new(),
            call: 0,
        }
    }

    /// Run `f` inside a span named `name`, a child of the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let idx = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            call: self.call,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// The id of the latest call.
    pub fn call(&self) -> u32 {
        self.call
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// durations of its direct children. Saturates at zero, so children
    /// that overrun their parent show up as a reconciliation failure.
    pub fn self_ns(&self) -> Vec<u128> {
        let mut own: Vec<u128> = self.spans.iter().map(span_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(span_ns(s));
            }
        }
        own
    }

    /// Per-layer times of call `call`: self time summed per layer name,
    /// the root's self time as `unattributed`, and the root's duration.
    pub fn breakdown(&self, call: u32) -> Breakdown {
        let own = self.self_ns();
        let mut b = Breakdown::default();
        let mut self_sum = 0u128;
        for (i, s) in self.spans.iter().enumerate() {
            if s.call != call {
                continue;
            }
            self_sum += own[i];
            match LAYERS.iter().position(|&l| l == s.name) {
                Some(l) => {
                    b.self_ms[l] += ns_to_ms(own[i]);
                    b.span_ms[l] += ns_to_ms(span_ns(s));
                }
                None => {
                    b.total_ms = ns_to_ms(span_ns(s));
                    b.unattributed_ms = ns_to_ms(own[i]);
                    b.root_ns = span_ns(s);
                }
            }
        }
        b.reconciled = self_sum == b.root_ns;
        b
    }
}

fn span_ns(s: &Span) -> u128 {
    s.end.duration_since(s.start).as_nanos()
}

fn ns_to_ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// One staged call's time split. `self_ms` and `span_ms` follow
/// [`LAYERS`]; a layer's span time includes its children (convert's
/// includes infer).
#[derive(Debug, Default)]
pub struct Breakdown {
    pub self_ms: [f64; 6],
    pub span_ms: [f64; 6],
    pub unattributed_ms: f64,
    pub total_ms: f64,
    root_ns: u128,
    /// Whether the layer self times plus `unattributed_ms` add up to the
    /// root span exactly (in nanoseconds).
    pub reconciled: bool,
}

/// Work counts of one staged call, read from what the layers return and
/// from the executor's launch log.
#[derive(Debug, Default)]
pub struct Counts {
    pub context_bytes_read: u64,
    pub records: u64,
    pub tag_symbols: u64,
    pub tag_bytes_written: u64,
    pub css_bytes: u64,
    pub partition_bytes_copied: u64,
    pub fields: u64,
    pub collaborative_fields: u64,
    pub conversion_rejects: u64,
    pub launches: u64,
    pub kernel_launches: u64,
    /// Launch labels in order, compared with `ParseOutput.profiles`.
    pub labels: Vec<String>,
}

/// Stage the workload's entry call: one whole-input parse, or, when
/// `partition` is set, the fixed-schema streaming loop with carry-over on
/// one executor. `exec` is reused when given (the arena probe); otherwise
/// a fresh executor is built inside the root span, as `Parser::parse`
/// does.
pub fn staged_call(
    trace: &mut Trace,
    parser: &Parser,
    exec: Option<&KernelExecutor>,
    input: &[u8],
    partition: Option<usize>,
) -> Result<(Table, Counts), String> {
    trace.call += 1;
    trace.span("call", |tr| {
        let fresh;
        let exec = match exec {
            Some(e) => e,
            None => {
                fresh = parser.options().build_executor();
                &fresh
            }
        };
        let mut counts = Counts::default();
        let table = match partition {
            None => staged_parse(tr, parser, exec, input, false, &mut counts)?.0,
            Some(size) => {
                if parser.options().schema.is_none() {
                    return Err("the staged stream covers fixed schemas only".into());
                }
                let mut tables = Vec::new();
                let mut carry: Vec<u8> = Vec::new();
                let mut pos = 0;
                loop {
                    let end = (pos + size.max(1)).min(input.len());
                    let last = end == input.len();
                    let mut work = std::mem::take(&mut carry);
                    work.extend_from_slice(&input[pos..end]);
                    pos = end;
                    let (table, carry_len) =
                        staged_parse(tr, parser, exec, &work, !last, &mut counts)?;
                    if table.num_rows() > 0 {
                        tables.push(table);
                    }
                    carry.extend_from_slice(&work[work.len() - carry_len..]);
                    if last {
                        break;
                    }
                }
                let refs: Vec<&Table> = tables.iter().collect();
                if refs.is_empty() {
                    Table::empty()
                } else {
                    Table::concat(&refs)?
                }
            }
        };
        Ok((table, counts))
    })
}

/// One pass of the default pipeline over `input`. With `drop_trailing`
/// the record not closed by a delimiter is left out and its byte length
/// returned as carry, as a streaming partition does.
fn staged_parse(
    tr: &mut Trace,
    parser: &Parser,
    exec: &KernelExecutor,
    input: &[u8],
    drop_trailing: bool,
    counts: &mut Counts,
) -> Result<(Table, usize), String> {
    let o = parser.options();
    let dfa = parser.dfa();
    let cs = o.chunk_size;
    let _ = exec.drain_log();
    exec.arena().reset_stats();

    let ctx = tr.span("context", |_| {
        determine_contexts_fast(exec, dfa, input, cs, o.scan_algorithm, None)
    });
    let ctx = ctx.map_err(|e| e.to_string())?;
    let meta = tr.span("meta", |_| {
        identify_columns_and_records(exec, dfa, input, cs, &ctx.start_states)
    });
    let meta = meta.map_err(|e| e.to_string())?;

    let observed = if drop_trailing {
        meta.observed_columns_closed
    } else {
        meta.observed_columns
    };
    let num_cols = match &o.schema {
        Some(s) => s.num_columns(),
        None => observed.map_or(1, |(_, max)| max.max(1) as usize),
    };
    let col_map: Vec<Option<u32>> = (0..num_cols as u32).map(Some).collect();
    let mut skip = Vec::new();
    let mut carry_len = 0;
    if drop_trailing {
        carry_len = input.len() - meta.records.last_set_bit().map_or(0, |i| i + 1);
        if meta.has_trailing_record {
            skip.push(meta.num_records - 1);
        }
    }
    let num_rows = meta.num_records - skip.len() as u64;

    let sink = DiagSink::new(o.error_policy.diagnostic_cap());
    let cfg = TagConfig {
        mode: o.tagging,
        col_map: &col_map,
        skip_records: &skip,
        expected_columns: None,
        num_out_rows: num_rows,
        diags: Some(&sink),
    };
    let tagged = tr.span("tagging", |_| tag_symbols(exec, input, cs, &meta, &cfg));
    let mut tagged = tagged.map_err(|e| e.to_string())?;
    let rejected = std::mem::replace(&mut tagged.rejected, Bitmap::new(0));
    let run_bytes = std::mem::size_of::<FieldRun>() as u64;
    counts.records += meta.num_records;
    counts.tag_symbols += tagged.symbols.len() as u64;
    counts.tag_bytes_written += tagged.symbols.len() as u64
        + 4 * (tagged.col_tags.len() + tagged.rec_tags.len()) as u64
        + tagged.delim_flags.as_ref().map_or(0, |f| f.len() as u64)
        + run_bytes * tagged.runs.len() as u64;

    let kernel = o.partition_kernel;
    let part = tr.span("partition", |_| {
        partition_by_column_with(exec, tagged, num_cols, kernel)
    });
    let part = part.map_err(|e| e.to_string())?;
    counts.css_bytes += part.symbols.len() as u64;
    counts.partition_bytes_copied += part.symbols.len() as u64
        + 4 * part.rec_tags.len() as u64
        + part
            .runs
            .as_ref()
            .map_or(0, |r| run_bytes * r.runs.len() as u64);

    let threshold = o.effective_collaboration_threshold();
    let mut fields = Vec::with_capacity(num_cols);
    let mut columns = Vec::with_capacity(num_cols);
    for c in 0..num_cols {
        let css = part.css(c);
        let runs = part
            .col_runs(c)
            .ok_or("the staged pipeline expects the run-scatter partition")?;
        let (field, out) = tr
            .span("convert", |tr| {
                let index = exec.launch("convert/index", css.len(), |_, k| {
                    k.kernel_launches = 1;
                    index_from_runs(runs)
                })?;
                // The column-type step: inference without a schema, a schema
                // lookup with one.
                let field = tr.span("infer", |_| match &o.schema {
                    Some(s) => Ok(s.fields[c].clone()),
                    None => exec
                        .launch("convert/infer", css.len(), |grid, k| {
                            k.kernel_launches = 2;
                            infer_column_type(grid, css, &index)
                        })
                        .map(|dtype| Field::new(&format!("c{c}"), dtype)),
                })?;
                let out = exec.launch("convert/column", css.len(), |grid, k| {
                    let out = convert_column_with_diags(
                        grid,
                        css,
                        &index,
                        num_rows as usize,
                        field.data_type,
                        field.default.as_ref(),
                        &rejected,
                        threshold,
                        Some((&sink, c as u32)),
                    );
                    k.kernel_launches = out.profile.kernel_launches;
                    out
                })?;
                counts.fields += index.num_fields() as u64;
                Ok::<_, parparaw_parallel::LaunchError>((field, out))
            })
            .map_err(|e| e.to_string())?;
        counts.collaborative_fields += out.collaborative_fields;
        counts.conversion_rejects += out.reject_count;
        fields.push(field);
        columns.push(out.column);
    }

    let arena = exec.arena();
    arena.put_u8("partition/symbols", part.symbols);
    arena.put_u32("partition/rec-tags", part.rec_tags);
    if let Some(runs) = part.runs {
        arena.put_vec("partition/runs", runs.runs);
    }
    let table = Table::new(Schema::new(fields), columns)?;

    for r in exec.drain_log() {
        if r.label == "parse/pass1" || r.label == "scan/context" {
            counts.context_bytes_read += r.bytes_read;
        }
        counts.launches += 1;
        counts.kernel_launches += u64::from(r.kernel_launches);
        counts.labels.push(r.label);
    }
    Ok((table, carry_len))
}
