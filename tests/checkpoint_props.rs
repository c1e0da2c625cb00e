//! Property-based end-to-end checkpoint/restore tests: under arbitrary
//! interleavings of writes, heap growth/shrink, mmap/munmap and
//! checkpoints, restoring any committed generation reproduces the
//! image that existed at its capture, byte for byte — and parallel
//! capture produces byte-identical chunks to serial capture.
//!
//! Cases are generated by a self-contained seeded SplitMix64 harness;
//! failures print the case seed for deterministic replay.

use ickpt::core::checkpoint::{
    capture_full, capture_full_with, capture_incremental, capture_incremental_with, CaptureConfig,
    CaptureScratch,
};
use ickpt::core::restore::restore_rank;
use ickpt::core::tracked_space::TrackedSpace;
use ickpt::core::tracker::{TrackerConfig, WriteTracker};
use ickpt::mem::{AddressSpace, BackedSpace, LayoutBuilder, PageRange, PAGE_SIZE};
use ickpt::sim::SimTime;
use ickpt::storage::{gc, Chunk, ChunkKey, MemStore, StableStorage};

/// Deterministic generator for property cases.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, 1)`.
    fn frac(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const BASE_SEED: u64 = 0x1DC4_2004;

/// Pages below which `ickpt-core` captures and restores serially
/// whatever the worker count.
const PARALLEL_THRESHOLD_PAGES: u64 = 2048;

#[derive(Debug, Clone)]
enum Op {
    /// Touch `len` pages starting at a fraction of the mapped space.
    Write {
        start_frac: f64,
        len: u64,
    },
    HeapGrow(u64),
    HeapShrink(u64),
    Mmap(u64),
    /// Unmap the i-th live mmap block (mod count).
    Munmap(usize),
    /// Take a checkpoint (full every 3rd generation).
    Checkpoint,
}

fn ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.range(5, 80) as usize;
    (0..n)
        .map(|_| match rng.below(8) {
            0..=2 => Op::Write { start_frac: rng.frac(), len: rng.range(1, 24) },
            3 => Op::HeapGrow(rng.range(1, 12)),
            4 => Op::HeapShrink(rng.range(1, 12)),
            5 => Op::Mmap(rng.range(1, 12)),
            6 => Op::Munmap(rng.below(8) as usize),
            _ => Op::Checkpoint,
        })
        .collect()
}

/// Pick a mapped range of up to `len` pages at roughly `frac` of the
/// mapped area (None if nothing suitable).
fn pick_range(space: &BackedSpace, frac: f64, len: u64) -> Option<PageRange> {
    let ranges = space.mapped_ranges();
    if ranges.is_empty() {
        return None;
    }
    let idx = ((ranges.len() as f64 * frac) as usize).min(ranges.len() - 1);
    let r = ranges[idx];
    let take = len.min(r.len);
    let offset = ((r.len - take) as f64 * frac) as u64;
    Some(PageRange::new(r.start + offset, take))
}

/// Under arbitrary interleavings of writes, mapping churn and
/// checkpoints, every committed generation restores to the exact image
/// that existed at its capture, and compaction preserves the newest
/// image.
#[test]
fn restore_reproduces_every_committed_generation() {
    for case in 0..48u64 {
        let mut rng = Rng::new(BASE_SEED ^ case);
        let ops = ops(&mut rng);
        let layout = LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(64 * PAGE_SIZE)
            .mmap_capacity_bytes(64 * PAGE_SIZE)
            .build();
        let mut space = BackedSpace::new(layout);
        let mut tracker = WriteTracker::new(
            layout.capacity_pages(),
            space.mapped_pages(),
            TrackerConfig { track_checkpoint_set: true, ..Default::default() },
        );
        let store = MemStore::new();
        let mut live_mmaps: Vec<PageRange> = Vec::new();
        let mut generation = 0u64;
        let mut version = 0u64;
        // Digest of the space at each captured generation.
        let mut digests: Vec<(u64, u64)> = Vec::new();

        for op in ops {
            match op {
                Op::Write { start_frac, len } => {
                    if let Some(r) = pick_range(&space, start_frac, len) {
                        version += 1;
                        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
                        ts.touch(r, version);
                    }
                }
                Op::HeapGrow(n) => {
                    let mut ts = TrackedSpace::new(&mut space, &mut tracker);
                    let _ = ts.heap_grow(n);
                }
                Op::HeapShrink(n) => {
                    let mut ts = TrackedSpace::new(&mut space, &mut tracker);
                    let _ = ts.heap_shrink(n);
                }
                Op::Mmap(n) => {
                    let mut ts = TrackedSpace::new(&mut space, &mut tracker);
                    if let Ok(r) = ts.mmap(n) {
                        live_mmaps.push(r);
                    }
                }
                Op::Munmap(i) => {
                    if !live_mmaps.is_empty() {
                        let r = live_mmaps.remove(i % live_mmaps.len());
                        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
                        ts.munmap(r).unwrap();
                    }
                }
                Op::Checkpoint => {
                    let now = SimTime::from_secs(generation + 1);
                    let chunk = if generation.is_multiple_of(3) {
                        let _ = tracker.take_checkpoint_set();
                        capture_full(&space, 0, generation, now)
                    } else {
                        let dirty = tracker.take_checkpoint_set();
                        capture_incremental(&space, 0, generation, generation - 1, now, &dirty)
                    };
                    store.put_chunk(ChunkKey::new(0, generation), &chunk.encode()).unwrap();
                    digests.push((generation, space.content_digest()));
                    generation += 1;
                }
            }
        }
        // Ensure at least one generation exists.
        if digests.is_empty() {
            let chunk = capture_full(&space, 0, 0, SimTime::ZERO);
            store.put_chunk(ChunkKey::new(0, 0), &chunk.encode()).unwrap();
            digests.push((0, space.content_digest()));
        }

        // Every generation restores to its captured image.
        for &(gen, digest) in &digests {
            let mut fresh = BackedSpace::new(layout);
            let report = restore_rank(&store, 0, gen, &mut fresh).unwrap();
            assert_eq!(
                fresh.content_digest(),
                digest,
                "seed {case} generation {gen} (chain length {})",
                report.chain_length
            );
        }

        // Compacting the newest chain yields the same image with a
        // single chunk.
        let &(newest, digest) = digests.last().unwrap();
        let mut chain = Vec::new();
        let mut g = newest;
        loop {
            let c = Chunk::decode(&store.get_chunk(ChunkKey::new(0, g)).unwrap()).unwrap();
            chain.push(g);
            match c.parent {
                Some(p) => g = p,
                None => break,
            }
        }
        chain.reverse();
        gc::compact_rank_chain(&store, 0, &chain, None).unwrap();
        let mut fresh = BackedSpace::new(layout);
        let report = restore_rank(&store, 0, newest, &mut fresh).unwrap();
        assert_eq!(report.chain_length, 1, "seed {case}");
        assert_eq!(fresh.content_digest(), digest, "seed {case}: post-compaction image");
    }
}

/// Parallel capture is byte-identical to serial capture: for arbitrary
/// mapping states and dirty sets, `capture_full_with` /
/// `capture_incremental_with` at 1, 2 and 8 workers encode to exactly
/// the bytes the serial path produces, and with scratch buffers reused
/// across generations to cover the recycling path. Two cases map a
/// static region big enough that both its full and its
/// incremental capture cross the 2048-page threshold below which
/// capture stays serial, so the fan-out path runs too.
#[test]
fn parallel_capture_byte_identical_to_serial() {
    for case in 0..24u64 {
        let mut rng = Rng::new(BASE_SEED.wrapping_mul(13) ^ case);
        let static_pages = if case % 12 == 11 { 4 * PARALLEL_THRESHOLD_PAGES } else { 8 };
        let layout = LayoutBuilder::new()
            .static_bytes(static_pages * PAGE_SIZE)
            .heap_capacity_bytes(256 * PAGE_SIZE)
            .mmap_capacity_bytes(128 * PAGE_SIZE)
            .build();
        let mut space = BackedSpace::new(layout);
        let _ = space.heap_grow(rng.range(1, 200));
        let mut live: Vec<PageRange> = Vec::new();
        for _ in 0..rng.below(6) {
            if let Ok(r) = space.mmap(rng.range(1, 40)) {
                live.push(r);
            }
        }
        // Mixed content: some pages written, some left zero (fresh
        // heap/mmap pages), creating zero runs that cross span seams.
        for r in space.mapped_ranges() {
            for p in r.iter() {
                if rng.below(4) != 0 {
                    space.fill_page(p, rng.next()).unwrap();
                }
            }
        }

        // A random dirty subset for the incremental case, as maximal
        // sorted ranges (what the tracker hands to capture).
        let mut dirty: Vec<PageRange> = Vec::new();
        for r in space.mapped_ranges() {
            for p in r.iter() {
                if rng.below(3) == 0 {
                    match dirty.last_mut() {
                        Some(last) if last.end() == p => last.len += 1,
                        _ => dirty.push(PageRange::new(p, 1)),
                    }
                }
            }
        }

        if static_pages > PARALLEL_THRESHOLD_PAGES {
            let dirty_pages: u64 = dirty.iter().map(|r| r.len).sum();
            assert!(dirty_pages >= PARALLEL_THRESHOLD_PAGES, "seed {case}: {dirty_pages} dirty");
        }

        let now = SimTime::from_secs(7);
        let serial_full = capture_full(&space, 3, 11, now).encode();
        let serial_inc = capture_incremental(&space, 3, 12, 11, now, &dirty).encode();

        for workers in [1usize, 2, 8] {
            let cfg = CaptureConfig { workers, ..Default::default() };
            let mut scratch = CaptureScratch::new();
            // Two rounds: the second exercises recycled buffers.
            for round in 0..2 {
                let full = capture_full_with(&space, 3, 11, now, &cfg, &mut scratch);
                let full_bytes = scratch.encode_reusing(&full).to_vec();
                assert_eq!(
                    full_bytes, serial_full,
                    "seed {case} workers {workers} round {round}: full"
                );
                scratch.recycle(full);
                let inc =
                    capture_incremental_with(&space, 3, 12, 11, now, &dirty, &cfg, &mut scratch);
                let inc_bytes = scratch.encode_reusing(&inc).to_vec();
                assert_eq!(
                    inc_bytes, serial_inc,
                    "seed {case} workers {workers} round {round}: incremental"
                );
                scratch.recycle(inc);
            }
        }
    }
}
