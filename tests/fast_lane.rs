//! Equivalence suite for the pass-1 fast lane and the word-wise pass 2.
//!
//! The fast lane (per-byte fused tables, convergence collapse to at most
//! three live lanes, optional byte-pair table) and the word-accumulated
//! bitmap writes are pure optimisations: for *any* DFA the builder can
//! produce and any byte input, they must be bit-identical to the step-wise
//! reference simulation. This suite pins that with randomly generated
//! automata and byte soups, not just the CSV machine the unit tests use.

use parparaw::core::context::{determine_contexts, determine_contexts_fast};
use parparaw::core::meta::identify_columns_and_records;
use parparaw::core::options::ScanAlgorithm;
use parparaw::dfa::csv::{rfc4180, CsvDialect};
use parparaw::dfa::{Dfa, DfaBuilder, Emit, PairTable};
use parparaw::parallel::{Bitmap, Grid, KernelExecutor, SplitMix64};

/// A random complete DFA: 2–8 states, 1–3 explicit symbol groups plus the
/// catch-all, every `(group, state)` pair wired to a random target with a
/// random emission. Nothing about the fast lane may depend on the machine
/// being CSV-shaped.
fn random_dfa(rng: &mut SplitMix64) -> Dfa {
    let mut b = DfaBuilder::new();
    let n_states = rng.next_range(2, 9) as usize;
    let states: Vec<_> = (0..n_states).map(|i| b.state(&format!("s{i}"))).collect();

    // Disjoint random byte sets per group (a byte may only match one).
    let mut bytes: Vec<u8> = (0..=255).collect();
    for i in 0..bytes.len() {
        let j = i + rng.next_below((bytes.len() - i) as u64) as usize;
        bytes.swap(i, j);
    }
    let n_groups = rng.next_range(1, 4) as usize;
    let mut groups = Vec::new();
    let mut pos = 0;
    for _ in 0..n_groups {
        let len = rng.next_range(1, 5) as usize;
        groups.push(b.group(&bytes[pos..pos + len]));
        pos += len;
    }
    groups.push(b.catch_all());

    b.start(states[rng.next_below(n_states as u64) as usize]);
    b.accepting(&states);
    for &g in &groups {
        for &s in &states {
            let to = states[rng.next_below(n_states as u64) as usize];
            let emit = Emit::from_bits(rng.next_below(16) as u8);
            b.transition(s, g, to, emit);
        }
    }
    b.build().expect("random DFA is complete")
}

/// Byte soup biased towards the DFA's declared symbols so transitions and
/// emissions actually fire, with plain noise mixed in.
fn soup_for(dfa: &Dfa, rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let symbols: Vec<u8> = dfa
        .symbol_groups()
        .symbols()
        .iter()
        .map(|&(b, _)| b)
        .collect();
    rng.vec(len, |r| {
        if !symbols.is_empty() && r.chance(0.5) {
            *r.choice(&symbols)
        } else {
            r.next_u64() as u8
        }
    })
}

#[test]
fn fast_lane_matches_stepwise_on_random_dfas() {
    let mut rng = SplitMix64::new(0xFA57_0001);
    for _ in 0..40 {
        let dfa = random_dfa(&mut rng);
        let pair = PairTable::build(&dfa);
        let len = rng.next_range(0, 400) as usize;
        let input = soup_for(&dfa, &mut rng, len);
        let cs = rng.next_range(1, 130) as usize;
        for chunk in input.chunks(cs.min(input.len().max(1))) {
            let reference = dfa.transition_vector(chunk);
            let (plain, _) = dfa.transition_vector_fast(chunk, None);
            let (paired, _) = dfa.transition_vector_fast(chunk, Some(&pair));
            assert_eq!(
                plain.packed(),
                reference.packed(),
                "fast lane diverged (no pair table), chunk {chunk:?}"
            );
            assert_eq!(
                paired.packed(),
                reference.packed(),
                "fast lane diverged (pair table), chunk {chunk:?}"
            );
        }
    }
}

#[test]
fn collapse_preserves_recovered_contexts() {
    let mut rng = SplitMix64::new(0xFA57_0002);
    for round in 0..12 {
        // Alternate random machines with the CSV machine the pipeline
        // actually collapses to three live states.
        let dfa = if round % 3 == 0 {
            rfc4180(&CsvDialect::default())
        } else {
            random_dfa(&mut rng)
        };
        let len = rng.next_range(1, 3000) as usize;
        let input = soup_for(&dfa, &mut rng, len);
        let cs = rng.next_range(1, 200) as usize;
        let workers = rng.next_range(1, 5) as usize;

        let ctx = determine_contexts(&Grid::new(workers), &dfa, &input, cs);

        // Sequential reference: step the whole input once, recording the
        // state at every chunk boundary.
        let mut state = dfa.start_state();
        let mut expected_starts = Vec::new();
        for (i, &b) in input.iter().enumerate() {
            if i % cs == 0 {
                expected_starts.push(state);
            }
            state = dfa.step(state, b).next;
        }
        assert_eq!(ctx.start_states, expected_starts, "round {round}");
        assert_eq!(ctx.final_state, state, "round {round}");

        // The pair-table path recovers the identical contexts.
        let pair = PairTable::build(&dfa);
        let exec = KernelExecutor::new(Grid::new(workers));
        let paired =
            determine_contexts_fast(&exec, &dfa, &input, cs, ScanAlgorithm::Blocked, Some(&pair))
                .expect("pass 1 runs");
        assert_eq!(paired.start_states, expected_starts, "round {round} (pair)");
        assert_eq!(paired.final_state, state, "round {round} (pair)");
    }
}

/// Sequential per-bit reference for the pass-2 bitmaps, mirroring the
/// documented emission semantics: reject may co-occur with anything;
/// record beats field beats control.
fn reference_bitmaps(
    dfa: &Dfa,
    input: &[u8],
    chunk_size: usize,
    start_states: &[u8],
) -> [Bitmap; 4] {
    let n = input.len();
    let mut maps = [
        Bitmap::new(n),
        Bitmap::new(n),
        Bitmap::new(n),
        Bitmap::new(n),
    ];
    for (c, chunk) in input.chunks(chunk_size).enumerate() {
        let mut state = start_states[c];
        for (j, &b) in chunk.iter().enumerate() {
            let i = c * chunk_size + j;
            let step = dfa.step(state, b);
            state = step.next;
            if step.emit.is_reject() {
                maps[3].set(i);
            }
            if step.emit.is_record_delimiter() {
                maps[0].set(i);
            } else if step.emit.is_field_delimiter() {
                maps[1].set(i);
            } else if step.emit.is_control() {
                maps[2].set(i);
            }
        }
    }
    maps
}

#[test]
fn word_wise_pass2_matches_bit_reference() {
    let mut rng = SplitMix64::new(0xFA57_0003);
    for round in 0..12 {
        let dfa = if round % 3 == 0 {
            rfc4180(&CsvDialect::default())
        } else {
            random_dfa(&mut rng)
        };
        // Odd chunk sizes force chunk boundaries inside bitmap words, so
        // the shared boundary word is exercised every round.
        let len = rng.next_range(1, 4000) as usize;
        let input = soup_for(&dfa, &mut rng, len);
        let cs = rng.next_range(1, 150) as usize;
        let workers = rng.next_range(1, 5) as usize;

        let grid = Grid::new(workers);
        let ctx = determine_contexts(&grid, &dfa, &input, cs);
        let exec = KernelExecutor::new(grid);
        let meta = identify_columns_and_records(&exec, &dfa, &input, cs, &ctx.start_states)
            .expect("pass 2 runs");

        let [records, fields, control, rejects] =
            reference_bitmaps(&dfa, &input, cs, &ctx.start_states);
        assert_eq!(
            meta.records.words(),
            records.words(),
            "records, round {round}"
        );
        assert_eq!(meta.fields.words(), fields.words(), "fields, round {round}");
        assert_eq!(
            meta.control.words(),
            control.words(),
            "control, round {round}"
        );
        assert_eq!(
            meta.rejects.words(),
            rejects.words(),
            "rejects, round {round}"
        );

        // Per-chunk record counts agree with the reference bitmap. The
        // record offsets are their exclusive prefix sum.
        let n_chunks = meta.record_offsets.len();
        for c in 0..n_chunks {
            let lo = c * cs;
            let hi = (lo + cs).min(input.len());
            let count = (lo..hi).filter(|&i| records.get(i)).count() as u64;
            let next = match meta.record_offsets.get(c + 1) {
                Some(&next) => next,
                None => meta.total_record_delims,
            };
            assert_eq!(
                next - meta.record_offsets[c],
                count,
                "chunk {c} record count, round {round}"
            );
        }
    }
}
