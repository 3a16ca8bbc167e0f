//! Variable-length-encoded inputs: parallel UTF-16 → UTF-8 transcoding
//! (paper §4.2).
//!
//! The byte-level automata in this repository handle UTF-8 transparently
//! (continuation bytes fall in the catch-all group, so chunk cuts inside a
//! symbol cannot change the parse — see [`crate::chunks`]). UTF-16 input
//! is different: code *units* are two bytes and a code point may span two
//! units. The paper's rule: "a thread ignores a chunk's first two bytes if
//! their value is in the range of 0xDC00 to 0xDFFF" — i.e. a leading low
//! surrogate belongs to the preceding chunk's symbol, possible only
//! because Unicode assigns no characters in the surrogate range.
//!
//! [`utf16_to_utf8`] applies exactly that rule to transcode in parallel:
//! each chunk of code units skips a leading low surrogate, consumes a
//! trailing high surrogate's partner from the next chunk, and emits UTF-8
//! independently. Each worker walks its contiguous run of chunks once,
//! appending UTF-8 to its own buffer, and the buffers join in worker
//! order. Invalid sequences (lone surrogates) become U+FFFD, matching
//! `String::from_utf16_lossy`.

use crate::chunks::{utf16_is_high_surrogate, utf16_is_low_surrogate};
use parparaw_device::WorkProfile;
use parparaw_parallel::Grid;

/// Byte order of the UTF-16 input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endianness {
    /// Little-endian code units (the common case; BOM `FF FE`).
    Little,
    /// Big-endian code units (BOM `FE FF`).
    Big,
}

/// Result of a transcode.
#[derive(Debug)]
pub struct Transcoded {
    /// The UTF-8 bytes.
    pub bytes: Vec<u8>,
    /// Whether any invalid sequence was replaced by U+FFFD.
    pub had_replacements: bool,
    /// Work profile of the transcoding kernels.
    pub profile: WorkProfile,
}

/// Decode the code unit at index `i`.
#[inline]
fn unit(input: &[u8], i: usize, endian: Endianness) -> u16 {
    let (a, b) = (input[2 * i], input[2 * i + 1]);
    match endian {
        Endianness::Little => u16::from_le_bytes([a, b]),
        Endianness::Big => u16::from_be_bytes([a, b]),
    }
}

#[inline]
fn encode_utf8(cp: u32, out: &mut [u8]) -> usize {
    char::from_u32(cp)
        .unwrap_or(char::REPLACEMENT_CHARACTER)
        .encode_utf8(out)
        .len()
}

/// Detect a UTF-16 byte-order mark. Returns the endianness and the number
/// of bytes to skip (2), or `None` when no BOM is present.
pub fn detect_utf16_bom(input: &[u8]) -> Option<(Endianness, usize)> {
    match input {
        [0xFF, 0xFE, ..] => Some((Endianness::Little, 2)),
        [0xFE, 0xFF, ..] => Some((Endianness::Big, 2)),
        _ => None,
    }
}

/// Transcode UTF-16 bytes (an even number of them; a trailing odd byte is
/// replaced) to UTF-8, chunk-parallel with the paper's surrogate-skip
/// rule.
pub fn utf16_to_utf8(
    grid: &Grid,
    input: &[u8],
    endian: Endianness,
    units_per_chunk: usize,
) -> Transcoded {
    let units_per_chunk = units_per_chunk.max(2);
    let n_units = input.len() / 2;
    let odd_tail = input.len() % 2 == 1;
    let n_chunks = n_units.div_ceil(units_per_chunk);
    let had_replacements = std::sync::atomic::AtomicBool::new(false);

    // Walk one chunk, appending the UTF-8 of each symbol the chunk owns.
    // A symbol belongs to the chunk holding its *leading* unit; a chunk
    // starting with a low surrogate skips it (§4.2).
    let walk = |c: usize, out: &mut Vec<u8>| {
        let start = c * units_per_chunk;
        let end = ((c + 1) * units_per_chunk).min(n_units);
        let mut i = start;
        // Skip a leading low surrogate only when it really is the trailing
        // half of the predecessor's symbol; a lone low surrogate at a
        // chunk cut must still be replaced (and is owned by this chunk).
        if i < end
            && i > 0
            && utf16_is_low_surrogate(unit(input, i, endian))
            && utf16_is_high_surrogate(unit(input, i - 1, endian))
        {
            i += 1;
        }
        while i < end {
            let u = unit(input, i, endian);
            let cp = if utf16_is_high_surrogate(u) {
                // The partner may live in the next chunk — that is the
                // whole point of the ownership rule.
                if i + 1 < n_units {
                    let lo = unit(input, i + 1, endian);
                    if utf16_is_low_surrogate(lo) {
                        i += 1;
                        0x10000 + (((u as u32 - 0xD800) << 10) | (lo as u32 - 0xDC00))
                    } else {
                        had_replacements.store(true, std::sync::atomic::Ordering::Relaxed);
                        0xFFFD
                    }
                } else {
                    had_replacements.store(true, std::sync::atomic::Ordering::Relaxed);
                    0xFFFD
                }
            } else if utf16_is_low_surrogate(u) {
                // A lone low surrogate mid-chunk is invalid.
                had_replacements.store(true, std::sync::atomic::Ordering::Relaxed);
                0xFFFD
            } else {
                u as u32
            };
            let mut buf = [0u8; 4];
            let len = encode_utf8(cp, &mut buf);
            out.extend_from_slice(&buf[..len]);
            i += 1;
        }
    };

    let mut bytes = grid
        .map_partitioned(n_chunks, |_, chunks| {
            let mut out = Vec::new();
            for c in chunks {
                grid.check_abort(c);
                walk(c, &mut out);
            }
            out
        })
        .concat();
    if odd_tail {
        // One U+FFFD for the dangling byte.
        bytes.extend_from_slice("\u{FFFD}".as_bytes());
        had_replacements.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    let mut profile = WorkProfile::new("parse/transcode-utf16");
    profile.kernel_launches = 1;
    profile.bytes_read = input.len() as u64;
    profile.bytes_written = bytes.len() as u64;
    profile.parallel_ops = n_units as u64;

    Transcoded {
        bytes,
        had_replacements: had_replacements.into_inner(),
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_parallel::SplitMix64;

    fn to_utf16le(s: &str) -> Vec<u8> {
        s.encode_utf16().flat_map(|u| u.to_le_bytes()).collect()
    }

    fn to_utf16be(s: &str) -> Vec<u8> {
        s.encode_utf16().flat_map(|u| u.to_be_bytes()).collect()
    }

    #[test]
    fn round_trips_mixed_planes() {
        let s = "id,text\n1,\"héllo 🦀, ワールド\"\n2,plain\n";
        let grid = Grid::new(3);
        for chunk in [2usize, 3, 5, 64] {
            let le = utf16_to_utf8(&grid, &to_utf16le(s), Endianness::Little, chunk);
            assert_eq!(le.bytes, s.as_bytes(), "LE chunk {chunk}");
            assert!(!le.had_replacements);
            let be = utf16_to_utf8(&grid, &to_utf16be(s), Endianness::Big, chunk);
            assert_eq!(be.bytes, s.as_bytes(), "BE chunk {chunk}");
        }
    }

    #[test]
    fn surrogate_pair_straddles_chunks() {
        // '🦀' at a position where its high surrogate is the last unit of
        // a chunk: the chunk owns the whole symbol; the next chunk skips
        // the low surrogate.
        let s = "a🦀b";
        let grid = Grid::new(2);
        let out = utf16_to_utf8(&grid, &to_utf16le(s), Endianness::Little, 2);
        assert_eq!(out.bytes, s.as_bytes());
    }

    #[test]
    fn lone_surrogates_become_replacement() {
        // Build invalid UTF-16 by hand: 'a', lone high surrogate, 'b'.
        let mut raw: Vec<u8> = Vec::new();
        for u in [0x61u16, 0xD800, 0x62] {
            raw.extend_from_slice(&u.to_le_bytes());
        }
        let grid = Grid::new(2);
        let out = utf16_to_utf8(&grid, &raw, Endianness::Little, 2);
        assert!(out.had_replacements);
        assert_eq!(out.bytes, "a\u{FFFD}b".as_bytes());
        // Matches the standard library's lossy behaviour.
        let units = [0x61u16, 0xD800, 0x62];
        assert_eq!(out.bytes, String::from_utf16_lossy(&units).as_bytes());
    }

    #[test]
    fn odd_trailing_byte() {
        let mut raw = to_utf16le("ab");
        raw.push(0x41);
        let grid = Grid::new(2);
        let out = utf16_to_utf8(&grid, &raw, Endianness::Little, 4);
        assert!(out.had_replacements);
        assert_eq!(out.bytes, "ab\u{FFFD}".as_bytes());
    }

    #[test]
    fn empty_input() {
        let grid = Grid::new(2);
        let out = utf16_to_utf8(&grid, &[], Endianness::Little, 8);
        assert!(out.bytes.is_empty());
        assert!(!out.had_replacements);
    }

    #[test]
    fn bom_detection() {
        assert_eq!(
            detect_utf16_bom(&[0xFF, 0xFE, 0x61, 0x00]),
            Some((Endianness::Little, 2))
        );
        assert_eq!(
            detect_utf16_bom(&[0xFE, 0xFF, 0x00, 0x61]),
            Some((Endianness::Big, 2))
        );
        assert_eq!(detect_utf16_bom(b"plain"), None);
        assert_eq!(detect_utf16_bom(&[]), None);
        // End to end: BOM skipped, rest transcoded.
        let mut raw = vec![0xFF, 0xFE];
        raw.extend(
            "a,b
"
            .encode_utf16()
            .flat_map(|u| u.to_le_bytes()),
        );
        let (endian, skip) = detect_utf16_bom(&raw).unwrap();
        let grid = Grid::new(2);
        let out = utf16_to_utf8(&grid, &raw[skip..], endian, 8);
        assert_eq!(
            out.bytes,
            b"a,b
"
        );
    }

    #[test]
    fn end_to_end_utf16_csv_parse() {
        let s = "1,\"名前, テスト\"\n2,🦀🦀\n";
        let raw = to_utf16le(s);
        let grid = Grid::new(2);
        let t = utf16_to_utf8(&grid, &raw, Endianness::Little, 7);
        let out = crate::parse_csv(&t.bytes, crate::ParserOptions::default()).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(
            out.table.value(0, 1),
            parparaw_columnar::Value::Utf8("名前, テスト".into())
        );
    }

    #[test]
    fn matches_std_lossy() {
        // Raw u16 soup: plenty of lone/paired surrogates by construction.
        let mut rng = SplitMix64::new(0x0E17_C0DE);
        for case in 0..256 {
            let len = rng.next_below(200) as usize;
            let units = rng.vec(len, |r| {
                if r.chance(0.3) {
                    // Surrogate range, valid pairs only by accident.
                    r.next_range(0xD800, 0xDFFF) as u16
                } else {
                    r.next_u64() as u16
                }
            });
            let chunk = rng.next_range(2, 16) as usize;
            let workers = rng.next_range(1, 4) as usize;
            let raw: Vec<u8> = units.iter().flat_map(|u| u.to_le_bytes()).collect();
            let grid = Grid::new(workers);
            let out = utf16_to_utf8(&grid, &raw, Endianness::Little, chunk);
            assert_eq!(
                String::from_utf8_lossy(&out.bytes).into_owned(),
                String::from_utf16_lossy(&units),
                "case {case}"
            );
        }
    }

    #[test]
    fn valid_strings_round_trip() {
        // Valid scalar values across all planes (skipping surrogates).
        let mut rng = SplitMix64::new(0x0E17_C0DF);
        for case in 0..256 {
            let len = rng.next_below(81) as usize;
            let s: String = (0..len)
                .map(|_| loop {
                    let c = rng.next_below(0x11_0000) as u32;
                    if let Some(ch) = char::from_u32(c) {
                        break ch;
                    }
                })
                .collect();
            let chunk = rng.next_range(2, 32) as usize;
            let raw: Vec<u8> = s.encode_utf16().flat_map(|u| u.to_le_bytes()).collect();
            let grid = Grid::new(3);
            let out = utf16_to_utf8(&grid, &raw, Endianness::Little, chunk);
            assert_eq!(out.bytes, s.as_bytes(), "case {case}");
            assert!(!out.had_replacements, "case {case}");
        }
    }
}
