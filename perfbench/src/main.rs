//! ParPaRaw ingest benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload yelp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `BENCHMARK.json` lists `yelp` and `taxi`; `yelp_stream` runs by hand
//! only (see `README.md`, "Steadiness").
//!
//! Closed loop, one caller: one parse call in flight at a time, the next
//! issued when the previous returns, because ParPaRaw is a batch library.
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the staged pipeline of [`staged`] and reports per-layer metrics.
//! Every output is checked against `SequentialParser`, the oracle. The last
//! line of standard output is one JSON object; a wrong output makes the
//! process exit with code 1. See `README.md` for why each workload exists
//! and which metric each layer metric should move.

mod staged;

use parparaw_baselines::SequentialParser;
use parparaw_columnar::{Schema, Table};
use parparaw_core::{ParseError, Parser, ParserOptions};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::Grid;
use parparaw_workloads::{taxi, yelp};
use staged::{staged_call, Breakdown, Counts, Trace};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Input size of every workload.
const DEFAULT_BYTES: usize = 16 << 20;
/// `yelp_stream` cuts its input into this many partitions (1 MiB each at
/// the default size).
const STREAM_PARTITIONS: usize = 16;
/// Worker count of the `_w2` metrics: the host's two vCPUs.
const W2: usize = 2;
/// Set-up is timed this many times per run; the median is reported.
const SETUP_REPS: usize = 501;
/// `wall_ms_tail` is the highest percentile with this many samples above.
const TAIL_BEYOND: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Yelp,
    Taxi,
    YelpStream,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Yelp, Workload::Taxi, Workload::YelpStream];

    fn name(self) -> &'static str {
        match self {
            Workload::Yelp => "yelp",
            Workload::Taxi => "taxi",
            Workload::YelpStream => "yelp_stream",
        }
    }

    /// The evaluation datasets' seeds, used when `--seed` is absent.
    fn default_seed(self) -> u64 {
        match self {
            Workload::Taxi => 0x7A71,
            _ => 0xE11A5,
        }
    }

    fn input(self, bytes: usize, seed: u64) -> Vec<u8> {
        match self {
            Workload::Taxi => taxi::generate(bytes, seed),
            _ => yelp::generate(bytes, seed),
        }
    }

    /// Taxi runs without a schema, so its column types are inferred.
    fn schema(self) -> Option<Schema> {
        match self {
            Workload::Taxi => None,
            _ => Some(yelp::schema()),
        }
    }

    fn partition_size(self, bytes: usize) -> Option<usize> {
        (self == Workload::YelpStream).then_some(stream_partition(bytes))
    }
}

/// Partition size of streamed calls: 1 MiB at the default input size.
fn stream_partition(bytes: usize) -> usize {
    (bytes / STREAM_PARTITIONS).max(1)
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bytes: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (yelp, taxi, yelp_stream)")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        bytes: DEFAULT_BYTES,
    })
}

/// Everything a run builds before it parses a byte.
struct Setup {
    w1: Parser,
    w2: Parser,
    seq: SequentialParser,
}

impl Setup {
    /// Build the DFA, the parsers and the 2-worker pool (a 1-worker grid
    /// runs on the caller's thread and has no pool).
    fn build(workload: Workload) -> Setup {
        let dfa = rfc4180(&CsvDialect::default());
        let opts = |workers| ParserOptions {
            grid: Grid::new(workers),
            schema: workload.schema(),
            ..ParserOptions::default()
        };
        let w2 = Parser::new(dfa.clone(), opts(W2));
        w2.options().grid.run_partitioned(W2, |_, _| {});
        Setup {
            w1: Parser::new(dfa.clone(), opts(1)),
            w2,
            seq: SequentialParser::new(dfa, opts(1)),
        }
    }

    /// Time [`Setup::build`] `reps` times; return the last set-up and the
    /// median time in seconds.
    fn timed(workload: Workload, reps: usize) -> (Setup, f64) {
        let mut times = Vec::with_capacity(reps);
        let mut kept = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let setup = Setup::build(workload);
            times.push(t0.elapsed().as_secs_f64());
            kept = Some(setup);
        }
        (kept.expect("at least one repetition"), median(&mut times))
    }
}

/// What the benchmark reads from one entry call, besides its wall time.
struct EntryOut {
    table: Table,
    retries: u64,
    timeouts: u64,
    sim_ms: f64,
    labels: Vec<String>,
    stream: Option<StreamStats>,
}

struct StreamStats {
    overhead_ms: f64,
    parse_ms: f64,
    partitions: u64,
    carry_bytes: u64,
    relaunched: u64,
}

/// `Parser::parse` on the whole input, timed.
fn parse_call(parser: &Parser, input: &[u8]) -> (Duration, Result<EntryOut, ParseError>) {
    let t0 = Instant::now();
    let out = parser.parse(input);
    let wall = t0.elapsed();
    let out = out.map(|o| EntryOut {
        retries: o.timings.retries,
        timeouts: o.timings.timeouts,
        sim_ms: o.simulated.total_seconds * 1e3,
        labels: o.profiles.iter().map(|p| p.label.clone()).collect(),
        table: o.table,
        stream: None,
    });
    (wall, out)
}

/// `Parser::parse_stream` in `partition`-byte partitions, timed.
fn stream_call(
    parser: &Parser,
    input: &[u8],
    partition: usize,
) -> (Duration, Result<EntryOut, ParseError>) {
    let t0 = Instant::now();
    let out = parser.parse_stream(input, partition);
    let wall = t0.elapsed();
    let out = out.map(|o| {
        let parse: Duration = o.partitions.iter().map(|p| p.parse_wall).sum();
        EntryOut {
            retries: o.total_retries(),
            timeouts: o.total_timeouts(),
            sim_ms: o
                .partitions
                .iter()
                .map(|p| p.parse_seconds_simulated * 1e3)
                .sum(),
            labels: Vec::new(),
            stream: Some(StreamStats {
                overhead_ms: (wall.as_secs_f64() - parse.as_secs_f64()) * 1e3,
                parse_ms: parse.as_secs_f64() * 1e3,
                partitions: o.partitions.len() as u64,
                carry_bytes: o.partitions.iter().map(|p| p.carry_bytes).sum(),
                relaunched: o.relaunched_partitions(),
            }),
            table: o.table,
        }
    });
    (wall, out)
}

/// The workload's entry call.
fn entry(w: Workload, parser: &Parser, input: &[u8]) -> (Duration, Result<EntryOut, ParseError>) {
    match w.partition_size(input.len()) {
        None => parse_call(parser, input),
        Some(p) => stream_call(parser, input, p),
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A finished run: the result line's fields plus lines printed before it.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count one call; `ok` is false when it failed or its output differs
    /// from the oracle.
    fn record(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a ratio with an empty base reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples above
/// it: `(value, percentile, samples above)`. With too few samples it
/// falls back to the maximum, which has none above it.
fn tail(v: &mut [f64]) -> (f64, f64, usize) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0, 0);
    }
    let rank = n - TAIL_BEYOND;
    (v[rank - 1], 100.0 * rank as f64 / n as f64, TAIL_BEYOND)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reset the kernel's resident-set high-water mark to the current RSS.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// The three configurations the end-to-end loop interleaves.
#[derive(Clone, Copy)]
enum Config {
    W1,
    W2,
    Seq,
}

/// End-to-end run, tracing off.
fn run_end_to_end(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let mut o = Outcome::new();
    let (setup, setup_s) = Setup::timed(w, SETUP_REPS);
    let input = a.input();
    let io_err = |e: std::io::Error| format!("peak RSS: {e}");

    // Warm up at 1 worker, then hold the RSS window over one more 1-worker
    // call only: the oracle and 2-worker calls below would leave their own
    // allocations behind.
    let (_, warm) = entry(w, &setup.w1, &input);
    o.record("warm-up w1", warm.is_ok());
    drop(warm);
    reset_peak_rss().map_err(io_err)?;
    let (_, w1) = entry(w, &setup.w1, &input);
    let peak_rss = peak_rss_mb().map_err(io_err)?;

    let oracle = setup.seq.parse(&input).map_err(|e| e.to_string())?.table;
    let rows = oracle.num_rows();
    o.record(
        "w1 table equals the sequential oracle",
        w1.is_ok_and(|r| r.table == oracle),
    );
    let (_, w2) = entry(w, &setup.w2, &input);
    o.record(
        "w2 table equals the sequential oracle",
        w2.is_ok_and(|r| r.table == oracle),
    );

    // Interleave the configurations call by call so host drift hits all
    // alike. Each gets a fixed share of the measuring time: the next call
    // goes to the one furthest below its share. The 1-worker call's walls
    // also give the tail, and the 2-worker walls spread the most, so those
    // two get most of the time; the sequential call is the cheapest.
    let configs = [Config::W1, Config::W2, Config::Seq];
    let share = [0.4, 0.4, 0.2];
    let mut spent = [0.0f64; 3];
    let mut walls: [Vec<f64>; 3] = Default::default();
    let t0 = Instant::now();
    while spent.contains(&0.0) || t0.elapsed().as_secs_f64() < a.seconds {
        let next = (0..configs.len())
            .min_by(|&i, &j| (spent[i] / share[i]).total_cmp(&(spent[j] / share[j])))
            .expect("three configurations");
        let (wall, rows_out) = match configs[next] {
            Config::Seq => {
                let t = Instant::now();
                let out = setup.seq.parse(&input);
                (t.elapsed(), out.map(|r| r.table.num_rows()).ok())
            }
            config => {
                let parser = if matches!(config, Config::W1) {
                    &setup.w1
                } else {
                    &setup.w2
                };
                let (wall, out) = entry(w, parser, &input);
                (wall, out.map(|r| r.table.num_rows()).ok())
            }
        };
        spent[next] += wall.as_secs_f64();
        let ok = rows_out == Some(rows);
        o.record("timed call row count equals the oracle's", ok);
        if ok {
            walls[next].push(ms(wall));
        }
    }

    let [mut w1_ms, mut w2_ms, mut seq_ms] = walls;
    let input_mb = mb(input.len());
    let samples = w1_ms.len();
    let (tail_ms, tail_pct, beyond) = tail(&mut w1_ms);
    let throughput = input_mb / median(&mut w1_ms) * 1e3;
    let throughput_w2 = input_mb / median(&mut w2_ms) * 1e3;
    let seq_throughput = input_mb / median(&mut seq_ms) * 1e3;
    o.metric("throughput_mb_s", throughput, "MB/s");
    o.metric("wall_ms_tail", tail_ms, "ms");
    o.metric("throughput_w2_mb_s", throughput_w2, "MB/s");
    o.metric("seq_throughput_mb_s", seq_throughput, "MB/s");
    o.metric("peak_rss_mb", peak_rss, "MB");
    o.metric("setup_s", setup_s, "s");
    o.notes.push(format!(
        "wall_ms_tail is p{tail_pct:.1} of {samples} 1-worker walls ({beyond} samples above it)"
    ));
    o.notes.push(format!(
        "error_rate {} ({} of {} calls)",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    ));
    o.notes.push(format!(
        "speedup_vs_seq_w1 {:.4} speedup_vs_seq_w2 {:.4} (not gated)",
        throughput / seq_throughput,
        throughput_w2 / seq_throughput
    ));
    Ok(o)
}

/// One staged call's per-layer numbers.
struct LayerSample {
    times: Breakdown,
    counts: Counts,
}

fn staged(
    trace: &mut Trace,
    w: Workload,
    parser: &Parser,
    input: &[u8],
) -> Result<(Table, LayerSample), String> {
    let (table, counts) = staged_call(trace, parser, None, input, w.partition_size(input.len()))?;
    let times = trace.breakdown(trace.call());
    Ok((table, LayerSample { times, counts }))
}

/// Traced run: per-layer metrics from the staged pipeline, after checking
/// it reproduces the entry call's table.
fn run_traced(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let mut o = Outcome::new();
    let setup = Setup::build(w);
    let input = a.input();
    let psize = stream_partition(input.len());
    let mut trace = Trace::new();

    // Fidelity: the staged pipeline must give the entry call's table (and
    // the oracle's), and on whole-input parses launch the same kernels.
    let oracle = setup.seq.parse(&input).map_err(|e| e.to_string())?.table;
    let (_, first) = entry(w, &setup.w1, &input);
    let first = first.map_err(|e| e.to_string())?;
    o.record(
        "entry table equals the sequential oracle",
        first.table == oracle,
    );
    let (t1, s1) = staged(&mut trace, w, &setup.w1, &input)?;
    let (t2, s2) = staged(&mut trace, w, &setup.w2, &input)?;
    o.record("staged w1 table equals the entry table", t1 == first.table);
    o.record("staged w2 table equals the entry table", t2 == first.table);
    if first.stream.is_none() {
        o.record(
            "staged launches equal ParseOutput.profiles",
            s1.counts.labels == first.labels,
        );
    }
    o.record(
        "w1 layer times reconcile to the traced total",
        s1.times.reconciled,
    );
    o.record(
        "w2 layer times reconcile to the traced total",
        s2.times.reconciled,
    );
    drop((t1, t2));
    if !o.correct {
        return Ok(o);
    }

    // Arena reuse, read on a second staged call on one executor.
    let exec = setup.w1.options().build_executor();
    for _ in 0..2 {
        staged_call(
            &mut trace,
            &setup.w1,
            Some(&exec),
            &input,
            w.partition_size(input.len()),
        )?;
    }
    let (hits, misses) = exec.arena().stats();
    drop(exec);

    // Alternate traced 1- and 2-worker calls with untraced entry calls
    // (the trace-overhead base) and a streamed call (the streaming layer;
    // on yelp_stream the entry call is that call).
    let mut w1: Vec<LayerSample> = Vec::new();
    let mut w2: Vec<LayerSample> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut streams: Vec<StreamStats> = Vec::new();
    let (mut retries, mut timeouts) = (first.retries, first.timeouts);
    let sim_ms = first.sim_ms;
    drop(first);
    let steps = if w == Workload::YelpStream { 3 } else { 4 };
    let t0 = Instant::now();
    let mut round = 0;
    let mut last_w1_call = 0;
    while round == 0 || t0.elapsed().as_secs_f64() < a.seconds {
        for k in 0..steps {
            match (round + k) % steps {
                0 => {
                    let (t, s) = staged(&mut trace, w, &setup.w1, &input)?;
                    o.record("staged w1 row count", t.num_rows() == oracle.num_rows());
                    last_w1_call = trace.call();
                    w1.push(s);
                }
                1 => {
                    let (t, s) = staged(&mut trace, w, &setup.w2, &input)?;
                    o.record("staged w2 row count", t.num_rows() == oracle.num_rows());
                    w2.push(s);
                }
                2 => {
                    let (wall, out) = entry(w, &setup.w1, &input);
                    let out = out.map_err(|e| e.to_string())?;
                    o.record("entry row count", out.table.num_rows() == oracle.num_rows());
                    untraced_ms.push(ms(wall));
                    retries += out.retries;
                    timeouts += out.timeouts;
                    streams.extend(out.stream);
                }
                _ => {
                    let (_, out) = stream_call(&setup.w1, &input, psize);
                    let out = out.map_err(|e| e.to_string())?;
                    o.record(
                        "streamed row count",
                        out.table.num_rows() == oracle.num_rows(),
                    );
                    retries += out.retries;
                    timeouts += out.timeouts;
                    streams.extend(out.stream);
                }
            }
        }
        round += 1;
    }
    if w1.iter().chain(&w2).any(|s| !s.times.reconciled) {
        o.record("layer times reconcile to the traced total", false);
        return Ok(o);
    }

    let med = |v: &[LayerSample], f: &dyn Fn(&LayerSample) -> f64| {
        median(&mut v.iter().map(f).collect::<Vec<_>>())
    };
    let self_ms = |l: usize| med(&w1, &|s| s.times.self_ms[l]);
    let eff = |l: usize| {
        med(&w1, &|s| s.times.span_ms[l]) / (W2 as f64 * med(&w2, &|s| s.times.span_ms[l]))
    };
    let smed =
        |f: &dyn Fn(&StreamStats) -> f64| median(&mut streams.iter().map(f).collect::<Vec<_>>());
    let c = &w1.last().expect("one round ran").counts;
    let input_bytes = input.len() as f64;
    let traced_total = med(&w1, &|s| s.times.total_ms);
    let untraced = median(&mut untraced_ms);
    // Indexes into `staged::LAYERS`, in its order.
    let [ctx, meta, tag, part, conv, infer] = [0, 1, 2, 3, 4, 5];

    o.metric("context.self_ms", self_ms(ctx), "ms");
    o.metric("context.bytes_read", c.context_bytes_read as f64, "bytes");
    o.metric("context.efficiency_w2", eff(ctx), "ratio");
    o.metric("meta.self_ms", self_ms(meta), "ms");
    o.metric("meta.records", c.records as f64, "count");
    o.metric("meta.efficiency_w2", eff(meta), "ratio");
    o.metric("tagging.self_ms", self_ms(tag), "ms");
    o.metric("tagging.bytes_written", c.tag_bytes_written as f64, "bytes");
    o.metric(
        "tagging.symbols_per_input_byte",
        c.tag_symbols as f64 / input_bytes,
        "ratio",
    );
    o.metric("tagging.efficiency_w2", eff(tag), "ratio");
    o.metric("partition.self_ms", self_ms(part), "ms");
    o.metric(
        "partition.bytes_copied",
        c.partition_bytes_copied as f64,
        "bytes",
    );
    o.metric(
        "partition.copy_amplification",
        (c.tag_symbols + c.css_bytes) as f64 / input_bytes,
        "ratio",
    );
    o.metric("partition.efficiency_w2", eff(part), "ratio");
    o.metric("convert.self_ms", self_ms(conv), "ms");
    o.metric("convert.infer_ms", self_ms(infer), "ms");
    o.metric("convert.fields", c.fields as f64, "count");
    o.metric(
        "convert.collaborative_fields",
        c.collaborative_fields as f64,
        "count",
    );
    o.metric(
        "convert.conversion_rejects",
        c.conversion_rejects as f64,
        "count",
    );
    o.metric("convert.efficiency_w2", eff(conv), "ratio");
    o.metric("streaming.overhead_ms", smed(&|s| s.overhead_ms), "ms");
    o.metric("streaming.parse_ms", smed(&|s| s.parse_ms), "ms");
    o.metric(
        "streaming.partitions",
        smed(&|s| s.partitions as f64),
        "count",
    );
    o.metric(
        "streaming.carry_bytes",
        smed(&|s| s.carry_bytes as f64),
        "bytes",
    );
    o.metric(
        "streaming.relaunched",
        streams.iter().map(|s| s.relaunched).sum::<u64>() as f64,
        "count",
    );
    o.metric("parallel.launches", c.launches as f64, "count");
    o.metric(
        "parallel.kernel_launches",
        c.kernel_launches as f64,
        "count",
    );
    o.metric("parallel.retries", retries as f64, "count");
    o.metric("parallel.timeouts", timeouts as f64, "count");
    o.metric(
        "parallel.arena_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    );
    o.metric("traced_total_ms", traced_total, "ms");
    o.metric(
        "unattributed_ms",
        med(&w1, &|s| s.times.unattributed_ms),
        "ms",
    );
    o.metric(
        "trace_overhead_pct",
        (traced_total / untraced - 1.0) * 100.0,
        "%",
    );
    o.metric("device.sim_ms", sim_ms, "ms");
    o.notes.push(format!(
        "{} traced 1-worker calls, {} traced 2-worker calls, {} untraced entry calls, {} streamed calls",
        w1.len(),
        w2.len(),
        untraced_ms.len(),
        streams.len()
    ));

    // Write the last traced 1-worker call's spans out.
    let own = trace.self_ns();
    let origin = trace
        .spans
        .iter()
        .find(|s| s.call == last_w1_call)
        .map(|s| s.start);
    for (i, s) in trace
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.call == last_w1_call)
    {
        let at = |t: Instant| origin.map_or(0, |o0| t.duration_since(o0).as_micros());
        eprintln!(
            "span call={} id={i} parent={} name={} start_us={} end_us={} self_us={}",
            s.call,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            s.name,
            at(s.start),
            at(s.end),
            own[i] / 1000
        );
    }
    Ok(o)
}

impl Args {
    fn input(&self) -> Vec<u8> {
        self.workload.input(self.bytes, self.seed)
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    if a.trace {
        run_traced(a)
    } else {
        run_end_to_end(a)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = match run(&a) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} bytes {} workers 1 and {W2} (available parallelism {}), closed loop, one caller",
        a.workload.name(),
        a.seed,
        a.bytes,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in &o.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &o.notes {
        println!("{n}");
    }
    println!("{}", o.json());
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `key` in `BENCHMARK.json`.
    fn names_in(spec: &str, key: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{key}\"")).expect("key present");
        let list = &spec[start..];
        let list = &list[..list.find(']').expect("list closes")];
        list.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn every_named_metric_is_reported_at_a_tiny_size() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        // Every listed workload exists; `yelp_stream` runs by hand only.
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let listed = names_in(&spec, "workloads");
        assert!(
            listed.iter().all(|l| names.contains(&l.as_str())),
            "{listed:?}"
        );
        for workload in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload,
                    seed: workload.default_seed(),
                    seconds: 0.0,
                    trace,
                    bytes: 64 << 10,
                };
                let o = run(&a).expect("run completes");
                assert!(o.correct, "{workload:?} trace {trace}: {:?}", o.notes);
                assert!(o.attempted > 0);
                assert_eq!(o.failed, 0, "error_rate must be 0");
                let got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
                let want = names_in(&spec, if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(got, want, "{workload:?} trace {trace}");
                assert!(o.metrics.iter().all(|m| m.value.is_finite()));
                assert!(o.json().starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn a_differing_output_fails_the_run() {
        let mut o = Outcome::new();
        o.record("matches", true);
        o.record("differs", false);
        assert!(!o.correct);
        assert_eq!((o.attempted, o.failed), (2, 1));
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&mut v), (30.0, 75.0, 10));
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(tail(&mut few), (3.0, 100.0, 0));
    }
}
