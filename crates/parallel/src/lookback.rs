//! Single-pass prefix scan with decoupled look-back (Merrill & Garland).
//!
//! The paper's scans build on Merrill & Garland's single-pass scan, in which
//! each tile publishes first its local *aggregate* (status `A`) and later
//! its *inclusive prefix* (status `P`); a tile that needs its predecessor
//! prefix walks backwards over published descriptors, accumulating
//! aggregates until it meets a `P`, instead of waiting for a global barrier.
//!
//! On a GPU the descriptor is a single word updated atomically. On CPU
//! threads we keep the protocol (per-tile status word, X → A → P,
//! backwards look-back with aggregate accumulation) and guard the payload
//! with release/acquire ordering on the status word, which gives the same
//! happens-before edges the GPU memory fences provide.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::grid::{Grid, SlotWriter};
use crate::scan::ScanOp;

const STATUS_X: u8 = 0; // no information published yet
const STATUS_A: u8 = 1; // tile aggregate available
const STATUS_P: u8 = 2; // tile inclusive prefix available

struct TileDescriptor<T> {
    status: AtomicU8,
    aggregate: std::cell::UnsafeCell<Option<T>>,
    prefix: std::cell::UnsafeCell<Option<T>>,
}

// SAFETY: `aggregate` is written before the status is set to A (release) and
// only read after observing status >= A (acquire); same for `prefix` / P.
unsafe impl<T: Send> Sync for TileDescriptor<T> {}

impl<T> TileDescriptor<T> {
    fn new() -> Self {
        TileDescriptor {
            status: AtomicU8::new(STATUS_X),
            aggregate: std::cell::UnsafeCell::new(None),
            prefix: std::cell::UnsafeCell::new(None),
        }
    }
}

/// Exclusive scan in a single pass over the data using decoupled look-back.
///
/// `tile_size` controls the tile granularity; tiles are processed in order
/// by a dynamic worker loop so earlier tiles are usually (but not
/// necessarily) finished first — exactly the situation look-back exists to
/// tolerate.
pub fn exclusive_scan_lookback<O: ScanOp>(
    grid: &Grid,
    items: &[O::Item],
    op: &O,
    tile_size: usize,
) -> Vec<O::Item> {
    scan_lookback(grid, items, op, tile_size, true)
}

/// Inclusive variant of [`exclusive_scan_lookback`].
pub fn inclusive_scan_lookback<O: ScanOp>(
    grid: &Grid,
    items: &[O::Item],
    op: &O,
    tile_size: usize,
) -> Vec<O::Item> {
    scan_lookback(grid, items, op, tile_size, false)
}

fn scan_lookback<O: ScanOp>(
    grid: &Grid,
    items: &[O::Item],
    op: &O,
    tile_size: usize,
    exclusive: bool,
) -> Vec<O::Item> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let tile_size = tile_size.max(1);
    let num_tiles = n.div_ceil(tile_size);

    let descriptors: Vec<TileDescriptor<O::Item>> =
        (0..num_tiles).map(|_| TileDescriptor::new()).collect();

    // Pre-filled with the identity: every slot is overwritten exactly
    // once, and a panicking worker never exposes uninitialised memory.
    let mut out = vec![op.identity(); n];
    let slots = SlotWriter::new(&mut out);

    let process_tile = |t: usize| {
        let start = t * tile_size;
        let end = ((t + 1) * tile_size).min(n);
        let tile = &items[start..end];

        // 1. Local reduction → publish aggregate (status A).
        let mut agg = op.identity();
        for x in tile {
            agg = op.combine(&agg, x);
        }
        let desc = &descriptors[t];
        // SAFETY: tile `t` is processed by exactly one worker, and readers
        // touch `aggregate` only after observing status A or P, which is
        // stored (release) after this write.
        unsafe { *desc.aggregate.get() = Some(agg.clone()) };
        if t == 0 {
            // Tile 0's aggregate *is* its inclusive prefix.
            // SAFETY: as above, for `prefix` and status P.
            unsafe { *desc.prefix.get() = Some(agg.clone()) };
            desc.status.store(STATUS_P, Ordering::Release);
        } else {
            desc.status.store(STATUS_A, Ordering::Release);
        }

        // 2. Decoupled look-back for the exclusive prefix of this tile.
        let mut exclusive_prefix = op.identity();
        if t > 0 {
            let mut running: Option<O::Item> = None;
            let mut pred = t - 1;
            loop {
                let d = &descriptors[pred];
                // Spin until the predecessor has published at least A.
                let status = loop {
                    let s = d.status.load(Ordering::Acquire);
                    if s != STATUS_X {
                        break s;
                    }
                    std::hint::spin_loop();
                };
                if status == STATUS_P {
                    // SAFETY: status P was loaded with acquire, so the
                    // owner's write of `prefix` happened before; it is
                    // never written again.
                    let p = unsafe { (*d.prefix.get()).clone() }.expect("P implies prefix");
                    exclusive_prefix = match running {
                        Some(r) => op.combine(&p, &r),
                        None => p,
                    };
                    break;
                }
                // STATUS_A: fold this aggregate in *front* of what we have
                // accumulated so far (we are walking right-to-left).
                // SAFETY: status A or P was loaded with acquire, so the
                // owner's single write of `aggregate` happened before.
                let a = unsafe { (*d.aggregate.get()).clone() }.expect("A implies aggregate");
                running = Some(match running {
                    Some(r) => op.combine(&a, &r),
                    None => a,
                });
                if pred == 0 {
                    // Tile 0 always publishes P, so we cannot get here with
                    // status A; defensive.
                    exclusive_prefix =
                        running.expect("walked at least one A before reaching tile 0");
                    break;
                }
                pred -= 1;
            }
        }

        // 3. Publish our inclusive prefix (status P).
        let inclusive = op.combine(&exclusive_prefix, &agg);
        if t != 0 {
            // SAFETY: only this tile's worker writes `prefix`; readers wait
            // for status P, stored (release) after this write.
            unsafe { *desc.prefix.get() = Some(inclusive) };
            desc.status.store(STATUS_P, Ordering::Release);
        }

        // 4. Final downsweep through the tile.
        let mut acc = exclusive_prefix;
        for (i, x) in tile.iter().enumerate() {
            if !exclusive {
                acc = op.combine(&acc, x);
            }
            // SAFETY: each tile is processed by one worker and tiles
            // cover disjoint ranges of `0..n`; `out.len() == n`.
            unsafe { slots.write(start + i, acc.clone()) };
            if exclusive {
                acc = op.combine(&acc, x);
            }
        }
    };

    if grid.workers() == 1 {
        for t in 0..num_tiles {
            process_tile(t);
        }
    } else {
        // Tiles are claimed in order from an atomic counter; with more tiles
        // than workers this exercises genuine cross-tile look-back.
        grid.run_dynamic(num_tiles, 1, process_tile);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::scan::{exclusive_scan_seq, inclusive_scan_seq, AddOp};

    #[test]
    fn matches_sequential_small() {
        let grid = Grid::new(4);
        let xs: Vec<u64> = (0..100).map(|i| i % 7).collect();
        assert_eq!(
            exclusive_scan_lookback(&grid, &xs, &AddOp, 8),
            exclusive_scan_seq(&xs, &AddOp)
        );
        assert_eq!(
            inclusive_scan_lookback(&grid, &xs, &AddOp, 8),
            inclusive_scan_seq(&xs, &AddOp)
        );
    }

    #[test]
    fn single_tile_and_empty() {
        let grid = Grid::new(2);
        let empty: Vec<u64> = vec![];
        assert!(exclusive_scan_lookback(&grid, &empty, &AddOp, 16).is_empty());
        let one = vec![42u64];
        assert_eq!(exclusive_scan_lookback(&grid, &one, &AddOp, 16), vec![0]);
    }

    struct Compose4;
    impl ScanOp for Compose4 {
        type Item = [u8; 4];
        fn identity(&self) -> [u8; 4] {
            [0, 1, 2, 3]
        }
        fn combine(&self, a: &[u8; 4], b: &[u8; 4]) -> [u8; 4] {
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = b[a[i] as usize];
            }
            out
        }
    }

    #[test]
    fn lookback_matches_seq() {
        let mut rng = SplitMix64::new(0x100cb);
        for case in 0..48 {
            let len = rng.next_below(800) as usize;
            let xs = rng.vec(len, |r| r.next_below(100));
            let workers = rng.next_range(1, 5) as usize;
            let tile = rng.next_range(1, 32) as usize;
            let grid = Grid::new(workers);
            assert_eq!(
                exclusive_scan_lookback(&grid, &xs, &AddOp, tile),
                exclusive_scan_seq(&xs, &AddOp),
                "case {case} len {len} workers {workers} tile {tile}"
            );
        }
    }

    #[test]
    fn lookback_noncommutative() {
        let mut rng = SplitMix64::new(0x100cc);
        for case in 0..48 {
            let len = rng.next_below(400) as usize;
            let xs = rng.vec(len, |r| {
                let mut v = [0u8; 4];
                for slot in &mut v {
                    *slot = r.next_below(4) as u8;
                }
                v
            });
            let workers = rng.next_range(1, 5) as usize;
            let tile = rng.next_range(1, 16) as usize;
            let grid = Grid::new(workers);
            assert_eq!(
                inclusive_scan_lookback(&grid, &xs, &Compose4, tile),
                inclusive_scan_seq(&xs, &Compose4),
                "case {case} len {len} workers {workers} tile {tile}"
            );
        }
    }
}
