//! Property-based tests for the memory substrate.
//!
//! The harness is a self-contained seeded generator (SplitMix64): each
//! property runs many randomized op sequences, and a failure prints the
//! case seed so it can be replayed deterministically. No external
//! dependency is needed, which keeps the workspace building offline.

use crate::dirty::FlatDirtyBitmap;
use crate::mmap_area::MmapArea;
use crate::{AddressSpace, DirtyBitmap, LayoutBuilder, PageRange, SparseSpace, PAGE_SIZE};
use std::collections::BTreeSet;

/// Deterministic generator for property cases.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

const CASES: u64 = 48;
const BASE_SEED: u64 = 0x1DC4_2004;

/// A naive reference implementation of a page-set, for checking the
/// word-packed bitmap against.
#[derive(Default)]
struct RefSet(BTreeSet<u64>);

#[derive(Debug, Clone)]
enum BitmapOp {
    Set(u64),
    Clear(u64),
    SetRange(u64, u64),
    ClearRange(u64, u64),
    ClearAll,
    /// Union with a sparse second bitmap (pages listed).
    Union(Vec<u64>),
}

fn bitmap_ops(rng: &mut Rng, pages: u64, n: usize) -> Vec<BitmapOp> {
    (0..n)
        .map(|_| match rng.below(8) {
            0 | 1 => BitmapOp::Set(rng.below(pages)),
            2 => BitmapOp::Clear(rng.below(pages)),
            3 | 4 => {
                let s = rng.below(pages);
                let l = rng.range(1, pages).min(pages - s).max(1);
                BitmapOp::SetRange(s, l)
            }
            5 => {
                let s = rng.below(pages);
                let l = rng.range(1, pages).min(pages - s).max(1);
                BitmapOp::ClearRange(s, l)
            }
            6 => BitmapOp::ClearAll,
            _ => {
                let count = rng.below(12);
                BitmapOp::Union((0..count).map(|_| rng.below(pages)).collect())
            }
        })
        .collect()
}

/// The packed hierarchical bitmap agrees with a BTreeSet under
/// arbitrary op sequences: same count, same membership, same iteration
/// order, same range counts.
#[test]
fn bitmap_matches_reference() {
    let pages = 700u64;
    for case in 0..CASES {
        let mut rng = Rng::new(BASE_SEED ^ case);
        let ops = bitmap_ops(&mut rng, pages, 120);
        let mut bm = DirtyBitmap::new(pages);
        let mut rf = RefSet::default();
        for op in &ops {
            match op {
                BitmapOp::Set(p) => {
                    assert_eq!(bm.set(*p), rf.0.insert(*p), "seed {case} op {op:?}");
                }
                BitmapOp::Clear(p) => {
                    assert_eq!(bm.clear(*p), rf.0.remove(p), "seed {case} op {op:?}");
                }
                BitmapOp::SetRange(s, l) => {
                    let n = bm.set_range(PageRange::new(*s, *l));
                    let newly = (*s..s + l).map(|p| rf.0.insert(p) as u64).sum::<u64>();
                    assert_eq!(n, newly, "seed {case} op {op:?}");
                }
                BitmapOp::ClearRange(s, l) => {
                    let n = bm.clear_range(PageRange::new(*s, *l));
                    let dropped = (*s..s + l).map(|p| rf.0.remove(&p) as u64).sum::<u64>();
                    assert_eq!(n, dropped, "seed {case} op {op:?}");
                }
                BitmapOp::ClearAll => {
                    bm.clear_all();
                    rf.0.clear();
                }
                BitmapOp::Union(list) => {
                    let mut other = DirtyBitmap::new(pages);
                    for p in list {
                        other.set(*p);
                    }
                    bm.union_with(&other);
                    rf.0.extend(list.iter().copied());
                }
            }
            assert_eq!(bm.count(), rf.0.len() as u64, "seed {case}");
        }
        let got: Vec<u64> = bm.iter_set().collect();
        let want: Vec<u64> = rf.0.iter().copied().collect();
        assert_eq!(got, want, "seed {case}");
    }
}

/// The two-level bitmap is observationally equivalent to the flat
/// single-level [`FlatDirtyBitmap`] it replaced: identical return
/// values and identical observable state after every operation. This is
/// the contract that let the hierarchical version slot in without
/// touching any caller.
#[test]
fn hierarchical_equals_flat_reference() {
    // Sizes straddling summary-word boundaries (one summary word covers
    // 4096 pages).
    for pages in [63u64, 64, 700, 4096, 4100, 9000] {
        for case in 0..CASES {
            let mut rng = Rng::new(BASE_SEED ^ (pages << 8) ^ case);
            let ops = bitmap_ops(&mut rng, pages, 90);
            let mut hier = DirtyBitmap::new(pages);
            let mut flat = FlatDirtyBitmap::new(pages);
            for op in &ops {
                match op {
                    BitmapOp::Set(p) => {
                        assert_eq!(hier.set(*p), flat.set(*p), "pages {pages} seed {case}");
                    }
                    BitmapOp::Clear(p) => {
                        assert_eq!(hier.clear(*p), flat.clear(*p), "pages {pages} seed {case}");
                    }
                    BitmapOp::SetRange(s, l) => {
                        let r = PageRange::new(*s, *l);
                        assert_eq!(
                            hier.set_range(r),
                            flat.set_range(r),
                            "pages {pages} seed {case}"
                        );
                    }
                    BitmapOp::ClearRange(s, l) => {
                        let r = PageRange::new(*s, *l);
                        assert_eq!(
                            hier.clear_range(r),
                            flat.clear_range(r),
                            "pages {pages} seed {case}"
                        );
                    }
                    BitmapOp::ClearAll => {
                        hier.clear_all();
                        flat.clear_all();
                    }
                    BitmapOp::Union(list) => {
                        let mut ho = DirtyBitmap::new(pages);
                        let mut fo = FlatDirtyBitmap::new(pages);
                        for p in list {
                            ho.set(*p);
                            fo.set(*p);
                        }
                        hier.union_with(&ho);
                        flat.union_with(&fo);
                    }
                }
                // Observable state must agree at every step.
                assert_eq!(hier.count(), flat.count(), "pages {pages} seed {case}");
                let probe = rng.below(pages);
                assert_eq!(hier.get(probe), flat.get(probe), "pages {pages} seed {case}");
                let s = rng.below(pages);
                let l = rng.below(pages - s + 1);
                let r = PageRange::new(s, l);
                assert_eq!(
                    hier.count_range(r),
                    flat.count_range(r),
                    "pages {pages} seed {case} range {r:?}"
                );
            }
            let hi: Vec<u64> = hier.iter_set().collect();
            let fi: Vec<u64> = flat.iter_set().collect();
            assert_eq!(hi, fi, "pages {pages} seed {case}: iteration order");
            assert_eq!(
                hier.dirty_ranges(),
                flat.dirty_ranges(),
                "pages {pages} seed {case}: run-length encoding"
            );
        }
    }
}

/// dirty_ranges() is a lossless run-length encoding of the set bits.
#[test]
fn dirty_ranges_reconstruct_set() {
    for case in 0..CASES {
        let mut rng = Rng::new(BASE_SEED.wrapping_mul(3) ^ case);
        let mut bm = DirtyBitmap::new(500);
        for op in bitmap_ops(&mut rng, 500, 120) {
            match op {
                BitmapOp::Set(p) => {
                    bm.set(p);
                }
                BitmapOp::Clear(p) => {
                    bm.clear(p);
                }
                BitmapOp::SetRange(s, l) => {
                    bm.set_range(PageRange::new(s, l));
                }
                BitmapOp::ClearRange(s, l) => {
                    bm.clear_range(PageRange::new(s, l));
                }
                BitmapOp::ClearAll => bm.clear_all(),
                BitmapOp::Union(list) => {
                    let mut other = DirtyBitmap::new(500);
                    for p in list {
                        other.set(p);
                    }
                    bm.union_with(&other);
                }
            }
        }
        let mut rebuilt = DirtyBitmap::new(500);
        let ranges = bm.dirty_ranges();
        // Ranges are sorted, non-empty, non-adjacent (maximal runs).
        for w in ranges.windows(2) {
            assert!(w[0].end() < w[1].start, "seed {case}: runs must be maximal and ordered");
        }
        for r in &ranges {
            assert!(r.len > 0, "seed {case}");
            rebuilt.set_range(*r);
        }
        assert_eq!(rebuilt, bm, "seed {case}");
    }
}

/// count_range never disagrees with filtering the iterator.
#[test]
fn count_range_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::new(BASE_SEED.wrapping_mul(5) ^ case);
        let mut bm = DirtyBitmap::new(300);
        for op in bitmap_ops(&mut rng, 300, 90) {
            match op {
                BitmapOp::Set(p) => {
                    bm.set(p);
                }
                BitmapOp::SetRange(s, l) => {
                    bm.set_range(PageRange::new(s, l));
                }
                BitmapOp::Clear(p) => {
                    bm.clear(p);
                }
                BitmapOp::ClearRange(s, l) => {
                    bm.clear_range(PageRange::new(s, l));
                }
                BitmapOp::ClearAll => bm.clear_all(),
                BitmapOp::Union(list) => {
                    let mut other = DirtyBitmap::new(300);
                    for p in list {
                        other.set(p);
                    }
                    bm.union_with(&other);
                }
            }
        }
        let start = rng.below(300);
        let len = rng.below(300 - start + 1);
        let r = PageRange::new(start, len);
        let by_iter = bm.iter_set().filter(|p| r.contains(*p)).count() as u64;
        assert_eq!(bm.count_range(r), by_iter, "seed {case} range {r:?}");
    }
}

#[derive(Debug, Clone)]
enum ArenaOp {
    Map(u64),
    /// Unmap the i-th live mapping (mod live count).
    Unmap(usize),
}

fn arena_ops(rng: &mut Rng, n: usize) -> Vec<ArenaOp> {
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                ArenaOp::Map(rng.range(1, 40))
            } else {
                ArenaOp::Unmap(rng.below(64) as usize)
            }
        })
        .collect()
}

/// The mmap arena never hands out overlapping mappings, never leaks
/// pages, and coalescing keeps the free list consistent with the
/// mapped total.
#[test]
fn mmap_arena_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::new(BASE_SEED.wrapping_mul(7) ^ case);
        let ops = arena_ops(&mut rng, 200);
        let region = PageRange::new(10, 256);
        let mut arena = MmapArea::new(region);
        let mut live: Vec<PageRange> = Vec::new();
        for op in ops {
            match op {
                ArenaOp::Map(pages) => {
                    if let Ok(m) = arena.map(pages) {
                        assert_eq!(m.len, pages, "seed {case}");
                        assert!(m.start >= region.start && m.end() <= region.end());
                        for l in &live {
                            assert!(!m.overlaps(l), "seed {case}: new mapping overlaps live one");
                        }
                        live.push(m);
                    }
                    // Exhaustion is legal under fragmentation; the
                    // accounting checks below still apply.
                }
                ArenaOp::Unmap(i) => {
                    if !live.is_empty() {
                        let m = live.remove(i % live.len());
                        assert!(arena.unmap(m).is_ok(), "seed {case}");
                    }
                }
            }
            let live_total: u64 = live.iter().map(|r| r.len).sum();
            assert_eq!(arena.mapped_pages(), live_total, "seed {case}");
            assert_eq!(arena.free_pages(), region.len - live_total, "seed {case}");
            assert_eq!(arena.live_count(), live.len(), "seed {case}");
        }
        // Draining everything must coalesce back to one free block.
        for m in live.drain(..) {
            arena.unmap(m).unwrap();
        }
        assert_eq!(arena.mapped_pages(), 0, "seed {case}");
        assert!(arena.free_block_count() <= 1, "seed {case}");
        assert!(
            arena.map(region.len).is_ok(),
            "seed {case}: fully drained arena serves a max request"
        );
    }
}

/// Footprint accounting on a sparse space equals the sum of mapped
/// ranges under arbitrary heap/mmap churn.
#[test]
fn sparse_space_footprint_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::new(BASE_SEED.wrapping_mul(11) ^ case);
        let ops = arena_ops(&mut rng, 200);
        let layout = LayoutBuilder::new()
            .static_bytes(8 * PAGE_SIZE)
            .heap_capacity_bytes(64 * PAGE_SIZE)
            .mmap_capacity_bytes(256 * PAGE_SIZE)
            .build();
        let mut s = SparseSpace::new(layout);
        let mut live: Vec<PageRange> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                ArenaOp::Map(pages) => {
                    if i % 3 == 0 {
                        let _ = s.heap_grow(pages.min(8));
                    } else if let Ok(m) = s.mmap(pages) {
                        live.push(m);
                    }
                }
                ArenaOp::Unmap(i) => {
                    if !live.is_empty() {
                        let m = live.remove(i % live.len());
                        assert!(s.munmap(m).is_ok(), "seed {case}");
                    } else {
                        let _ = s.heap_shrink(1);
                    }
                }
            }
            let ranges = s.mapped_ranges();
            let total: u64 = ranges.iter().map(|r| r.len).sum();
            assert_eq!(total, s.mapped_pages(), "seed {case}");
            for w in ranges.windows(2) {
                assert!(!w[0].overlaps(&w[1]), "seed {case}");
            }
            for r in &ranges {
                assert!(s.is_mapped(r.start) && s.is_mapped(r.end() - 1), "seed {case}");
            }
        }
    }
}
