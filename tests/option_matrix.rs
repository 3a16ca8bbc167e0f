//! Crossed-option oracle: a seeded sampler draws [`ParserOptions`] that
//! cross the tagging mode, column selection, record skipping, column-count
//! validation, error policy, collaboration threshold, chunk size and
//! worker count (plus an optional typed schema), and every sample must
//! agree with `SequentialParser`: the same table, the same rejected rows
//! and the same diagnostics.
//!
//! `PARPARAW_FUZZ_SEED` varies the seed (CI's fuzz-smoke job passes the
//! date); without it the seed is fixed. `header` and `skip_rows` are not
//! sampled, because the sequential oracle ignores both.

use parparaw::baselines::sequential::SequentialOutput;
use parparaw::baselines::SequentialParser;
use parparaw::parallel::SplitMix64;
use parparaw::prelude::*;

const SAMPLES: usize = 500;

fn seed() -> u64 {
    std::env::var("PARPARAW_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0F7_1055)
}

/// One field's bytes: numbers, words, empty, quoted text with embedded
/// delimiters, newlines and escaped quotes, long text (to cross the
/// collaboration thresholds), and, when `bad`, the inline terminator or a
/// stray quote (an invalid transition).
fn field(rng: &mut SplitMix64, bad: bool, out: &mut Vec<u8>) {
    match rng.next_below(32) {
        0..=7 => out.extend_from_slice(rng.next_below(100_000).to_string().as_bytes()),
        8..=11 => out.extend_from_slice(format!("{:.2}", rng.next_f64() * 1e3).as_bytes()),
        12 | 13 => {
            let words: [&[u8]; 2] = [b"true", b"false"];
            out.extend_from_slice(rng.choice::<&[u8]>(&words))
        }
        14..=16 => {}
        17..=20 => {
            out.push(b'"');
            for _ in 0..rng.next_range(0, 12) {
                let pieces: [&[u8]; 5] = [b"x", b",", b"\n", b"\"\"", b" "];
                out.extend_from_slice(rng.choice::<&[u8]>(&pieces));
            }
            out.push(b'"');
        }
        21 | 22 => {
            for _ in 0..rng.next_range(60, 400) {
                out.push(*rng.choice(b"abcdefgh "));
            }
        }
        23 if bad => out.extend_from_slice(b"a\x1fb"),
        24 if bad => out.extend_from_slice(b"a\"b"),
        _ => {
            for _ in 0..rng.next_range(1, 8) {
                out.push(*rng.choice(b"abcxyz"));
            }
        }
    }
}

/// Records of `cols` fields; ragged ones vary the count per record. CRLF
/// line ends, bad fields and an undelimited trailing record are mixed in.
fn input(rng: &mut SplitMix64) -> (Vec<u8>, usize) {
    let cols = rng.next_range(1, 6) as usize;
    let ragged = rng.chance(0.2);
    let crlf = rng.chance(0.2);
    let bad = rng.chance(0.4);
    let mut out = Vec::new();
    for r in 0..rng.next_range(0, 40) {
        let n = if ragged {
            rng.next_range(1, cols as u64 + 1) as usize
        } else {
            cols
        };
        for c in 0..n {
            if c > 0 {
                out.push(b',');
            }
            field(rng, bad, &mut out);
        }
        if r > 0 && rng.chance(0.03) {
            break; // undelimited trailing record
        }
        out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
    }
    (out, cols)
}

fn options(rng: &mut SplitMix64, grids: &[Grid], cols: usize) -> ParserOptions {
    let mut o = ParserOptions {
        grid: rng.choice(grids).clone(),
        tagging: *rng.choice(&[
            TaggingMode::RecordTagged,
            TaggingMode::inline_default(),
            TaggingMode::VectorDelimited,
        ]),
        ..ParserOptions::default()
    }
    .chunk_size(*rng.choice(&[1usize, 3, 7, 31, 64, 65, 200, 4096]));
    if rng.chance(0.3) {
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Boolean,
            DataType::Utf8,
        ];
        o.schema = Some(Schema::new(
            (0..cols)
                .map(|c| Field::new(&format!("f{c}"), *rng.choice(&types)))
                .collect(),
        ));
    }
    if rng.chance(0.4) {
        // Duplicate and (rarely) out-of-range indexes included.
        let n = rng.next_range(1, 4);
        let bound = cols as u64 + u64::from(rng.chance(0.1));
        o.selected_columns = Some((0..n).map(|_| rng.next_below(bound) as usize).collect());
    }
    if rng.chance(0.4) {
        o.skip_records = (0..rng.next_range(1, 6))
            .map(|_| rng.next_below(45))
            .collect();
    }
    o.validate_column_count = rng.chance(0.4);
    o.error_policy = match rng.next_below(4) {
        0 => ErrorPolicy::Strict,
        1 => ErrorPolicy::Permissive { max_diagnostics: 3 },
        _ => ErrorPolicy::Permissive {
            max_diagnostics: 1 << 20,
        },
    };
    o.collaboration_threshold = *rng.choice(&[None, Some(1), Some(64), Some(300), Some(1 << 20)]);
    o
}

/// Check one parse against the oracle, or its typed error against what
/// the oracle's input explains.
fn check(
    o: &ParserOptions,
    data: &[u8],
    got: Result<ParseOutput, ParseError>,
    want: &SequentialOutput,
) {
    let got = match got {
        Ok(got) => got,
        Err(ParseError::InconsistentColumns { min, max }) => {
            // Some record has fewer columns than the table.
            let cols = o.schema.as_ref().map_or(max, |s| s.num_columns() as u32);
            assert!(!matches!(o.tagging, TaggingMode::RecordTagged));
            assert!(min < cols, "{min} < {cols}");
            return;
        }
        Err(ParseError::TerminatorInData { terminator }) => {
            assert_eq!(o.tagging, TaggingMode::InlineTerminated { terminator });
            assert!(data.contains(&terminator));
            return;
        }
        Err(ParseError::MalformedRecord(d)) => {
            assert_eq!(o.error_policy, ErrorPolicy::Strict);
            assert!(want.diagnostics.contains(&d), "{d} is an oracle diagnostic");
            return;
        }
        Err(e) => panic!("unexpected error {e}"),
    };
    assert_eq!(got.table, want.table);
    assert_eq!(got.rejected, want.rejected);
    if matches!(o.error_policy, ErrorPolicy::Strict) {
        assert!(
            want.diagnostics.is_empty(),
            "Strict passes only clean input"
        );
    }
    let dropped = got.stats.dropped_diagnostics as usize;
    if dropped == 0 {
        assert_eq!(got.diagnostics, want.diagnostics);
    } else {
        // Past the cap, which diagnostics are kept depends on the order
        // in which workers push them; the count does not.
        assert_eq!(got.diagnostics.len() + dropped, want.diagnostics.len());
        assert!(got.diagnostics.iter().all(|d| want.diagnostics.contains(d)));
    }
}

#[test]
fn options_crossed_match_sequential() {
    let seed = seed();
    let mut rng = SplitMix64::new(seed);
    let grids: Vec<Grid> = (1..=4).map(Grid::new).collect();
    let dialects = [
        CsvDialect::default(),
        CsvDialect {
            recover_invalid: true,
            ..CsvDialect::default()
        },
    ];
    for sample in 0..SAMPLES {
        let (data, cols) = input(&mut rng);
        let o = options(&mut rng, &grids, cols);
        let dfa = rfc4180(rng.choice(&dialects));
        let what = format!(
            "seed {seed} sample {sample}: workers={} cs={} {} schema={:?} sel={:?} \
             skip={:?} validate={} policy={:?} collab={:?}\ninput {:?}",
            o.grid.workers(),
            o.chunk_size,
            o.tagging.name(),
            o.schema.as_ref().map(|s| s.num_columns()),
            o.selected_columns,
            o.skip_records,
            o.validate_column_count,
            o.error_policy,
            o.collaboration_threshold,
            String::from_utf8_lossy(&data),
        );
        let want = SequentialParser::new(dfa.clone(), o.clone()).parse(&data);
        let got = Parser::new(dfa, o.clone()).parse(&data);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match want {
            Ok(want) => check(&o, &data, got, &want),
            Err(e) => assert_eq!(got.err(), Some(e)),
        }));
        if let Err(payload) = run {
            eprintln!("{what}");
            std::panic::resume_unwind(payload);
        }
    }
}
