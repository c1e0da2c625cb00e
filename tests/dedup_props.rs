//! Property-based correctness of content dedup + delta encoding: for
//! arbitrary interleavings of silent-same rewrites, sub-page partial
//! writes, whole-page rewrites, zero fills and mapping churn — with
//! chain lengths straddling re-base boundaries — a chain captured with
//! dedup on restores byte-identically to one captured with dedup off,
//! at 1, 2 and 8 restore workers, while never storing more bytes than
//! the dirty-page chain.
//!
//! Cases are generated by a self-contained seeded SplitMix64 harness;
//! failures print the case seed for deterministic replay.

use std::collections::BTreeSet;

use ickpt::core::checkpoint::{
    capture_full_with, capture_incremental_with, CaptureConfig, CaptureScratch, ContentStats,
};
use ickpt::core::restore::{restore_rank_sequential, restore_rank_with, RestoreConfig};
use ickpt::mem::{
    AddressSpace, BackedSpace, LayoutBuilder, PageRange, PageSink, PageSource, PAGE_SIZE,
};
use ickpt::sim::SimTime;
use ickpt::storage::{ChunkKey, MemStore, StableStorage, BLOCK_SIZE};

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

const BASE_SEED: u64 = 0x1DC4_2004 ^ 0xD00D;

#[derive(Debug, Clone)]
enum Op {
    /// Rewrite pages with the bytes they already hold — the dirty bit
    /// fires, the content layer must drop them.
    SilentRewrite {
        frac: f64,
        len: u64,
    },
    /// Touch 1–3 random 256-byte blocks per page — delta territory.
    PartialWrite {
        frac: f64,
        len: u64,
    },
    /// Replace whole pages with fresh content.
    FullRewrite {
        frac: f64,
        len: u64,
    },
    /// Memset pages to zero — must fold into zero-range elision.
    ZeroFill {
        frac: f64,
        len: u64,
    },
    HeapGrow(u64),
    HeapShrink(u64),
    Mmap(u64),
    Munmap(usize),
    Checkpoint,
}

fn ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.range(30, 110) as usize;
    (0..n)
        .map(|_| {
            let frac = rng.frac();
            let len = rng.range(1, 20);
            match rng.below(10) {
                0 | 1 => Op::SilentRewrite { frac, len },
                2 | 3 => Op::PartialWrite { frac, len },
                4 => Op::FullRewrite { frac, len },
                5 => Op::ZeroFill { frac, len },
                6 => Op::HeapGrow(rng.range(1, 10)),
                7 => match rng.below(3) {
                    0 => Op::HeapShrink(rng.range(1, 10)),
                    1 => Op::Mmap(rng.range(1, 10)),
                    _ => Op::Munmap(rng.below(8) as usize),
                },
                _ => Op::Checkpoint,
            }
        })
        .collect()
}

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

/// Dirty pages accumulated since the last capture, clipped to what is
/// still mapped and folded into sorted disjoint ranges — the same shape
/// the write tracker's checkpoint set has.
fn drain_dirty(dirty: &mut BTreeSet<u64>, space: &BackedSpace) -> Vec<PageRange> {
    let mapped = space.mapped_ranges();
    let mut out: Vec<PageRange> = Vec::new();
    for &p in dirty.iter() {
        if !mapped.iter().any(|r| r.contains(p)) {
            continue;
        }
        match out.last_mut() {
            Some(last) if last.start + last.len == p => last.len += 1,
            _ => out.push(PageRange::new(p, 1)),
        }
    }
    dirty.clear();
    out
}

/// One committed generation: its capture-time digest plus the encoded
/// size of the chunk that stored it.
struct Gen {
    generation: u64,
    digest: u64,
    stored_bytes: u64,
}

/// Replay the op script, capturing a chain into `store` with the given
/// capture config. The script (driven by `rng`) is deterministic, so
/// two calls with identical seeds mutate their spaces identically and
/// differ only in how the chain is encoded.
fn build_chain(
    rng: &mut Rng,
    full_every: u64,
    cfg: &CaptureConfig,
    space: &mut BackedSpace,
    store: &MemStore,
    content: &mut ContentStats,
) -> Vec<Gen> {
    let mut scratch = CaptureScratch::new();
    let mut dirty: BTreeSet<u64> = BTreeSet::new();
    let mut live_mmaps: Vec<PageRange> = Vec::new();
    let mut generation = 0u64;
    let mut gens: Vec<Gen> = Vec::new();
    let invalidate = |scratch: &mut CaptureScratch, cfg: &CaptureConfig, r: PageRange| {
        // Mirror the production churn rule: unmapped spans lose their
        // content baseline before they can be remapped with zeros.
        if cfg.dedup {
            scratch.dedup_index().invalidate(r);
        }
    };
    for op in ops(rng) {
        match op {
            Op::SilentRewrite { frac, len } => {
                if let Some(r) = pick_range(space, frac, len) {
                    for p in r.iter() {
                        let data = space.read_page(p).unwrap().to_vec();
                        space.write_page_data(p, &data).unwrap();
                        dirty.insert(p);
                    }
                }
            }
            Op::PartialWrite { frac, len } => {
                if let Some(r) = pick_range(space, frac, len) {
                    for p in r.iter() {
                        let mut data = space.read_page(p).unwrap().to_vec();
                        for _ in 0..rng.range(1, 4) {
                            let block = rng.below(PAGE_SIZE / BLOCK_SIZE as u64) as usize;
                            let byte = rng.next() as u8;
                            data[block * BLOCK_SIZE..(block + 1) * BLOCK_SIZE].fill(byte);
                        }
                        space.write_page_data(p, &data).unwrap();
                        dirty.insert(p);
                    }
                }
            }
            Op::FullRewrite { frac, len } => {
                if let Some(r) = pick_range(space, frac, len) {
                    for p in r.iter() {
                        space.fill_page(p, rng.next() | 1).unwrap();
                        dirty.insert(p);
                    }
                }
            }
            Op::ZeroFill { frac, len } => {
                if let Some(r) = pick_range(space, frac, len) {
                    for p in r.iter() {
                        space.write_page_data(p, &[0u8; PAGE_SIZE as usize]).unwrap();
                        dirty.insert(p);
                    }
                }
            }
            Op::HeapGrow(n) => {
                // Freshly grown pages are zero but dirty-new.
                if let Ok(r) = space.heap_grow(n) {
                    for p in r.iter() {
                        dirty.insert(p);
                    }
                }
            }
            Op::HeapShrink(n) => {
                if let Ok(r) = space.heap_shrink(n) {
                    invalidate(&mut scratch, cfg, r);
                }
            }
            Op::Mmap(n) => {
                if let Ok(r) = space.mmap(n) {
                    live_mmaps.push(r);
                    for p in r.iter() {
                        dirty.insert(p);
                    }
                }
            }
            Op::Munmap(i) => {
                if !live_mmaps.is_empty() {
                    let r = live_mmaps.remove(i % live_mmaps.len());
                    space.munmap(r).unwrap();
                    invalidate(&mut scratch, cfg, r);
                }
            }
            Op::Checkpoint => {
                let now = SimTime::from_secs(generation + 1);
                let is_full =
                    generation == 0 || (full_every > 0 && generation.is_multiple_of(full_every));
                let chunk = if is_full {
                    dirty.clear();
                    capture_full_with(space, 0, generation, now, cfg, &mut scratch)
                } else {
                    let ranges = drain_dirty(&mut dirty, space);
                    capture_incremental_with(
                        space,
                        0,
                        generation,
                        generation - 1,
                        now,
                        &ranges,
                        cfg,
                        &mut scratch,
                    )
                };
                content.merge(scratch.last_content());
                let encoded = chunk.encode();
                store.put_chunk(ChunkKey::new(0, generation), &encoded).unwrap();
                gens.push(Gen {
                    generation,
                    digest: space.content_digest(),
                    stored_bytes: encoded.len() as u64,
                });
                generation += 1;
                scratch.recycle(chunk);
            }
        }
    }
    if gens.is_empty() {
        let chunk = capture_full_with(space, 0, 0, SimTime::ZERO, cfg, &mut scratch);
        let encoded = chunk.encode();
        store.put_chunk(ChunkKey::new(0, 0), &encoded).unwrap();
        gens.push(Gen {
            generation: 0,
            digest: space.content_digest(),
            stored_bytes: encoded.len() as u64,
        });
    }
    gens
}

/// Planned pages below which `ickpt-core` applies a restore plan
/// serially whatever the worker count.
const PARALLEL_THRESHOLD_PAGES: u64 = 2048;

fn layout() -> ickpt::mem::DataLayout {
    layout_with_static(4)
}

fn layout_with_static(static_pages: u64) -> ickpt::mem::DataLayout {
    LayoutBuilder::new()
        .static_bytes(static_pages * PAGE_SIZE)
        .heap_capacity_bytes(64 * PAGE_SIZE)
        .mmap_capacity_bytes(64 * PAGE_SIZE)
        .build()
}

/// The tentpole invariant: a chain captured with dedup + delta encoding
/// on restores byte-identically — arena, mapping state and digest — to
/// the capture-time image at every committed generation, sequentially
/// and plan-driven at 1, 2 and 8 workers, across re-base intervals of
/// 1, 3, 5 and "base only".
#[test]
fn dedup_chain_restores_byte_identical() {
    let mut totals = ContentStats::default();
    for case in 0..24u64 {
        let full_every = [1u64, 3, 5, 0][(case % 4) as usize];
        let cfg = CaptureConfig { dedup: true, ..CaptureConfig::default() };
        // Two cases (re-base every 3 and every 5) restore more pages
        // than the 2048-page threshold below which plan application
        // stays serial, so the fan-out runs.
        let static_pages = if matches!(case, 13 | 22) { PARALLEL_THRESHOLD_PAGES } else { 4 };
        let layout = layout_with_static(static_pages);
        let mut space = BackedSpace::new(layout);
        let store = MemStore::new();
        let mut rng = Rng::new(BASE_SEED ^ case);
        let gens = build_chain(&mut rng, full_every, &cfg, &mut space, &store, &mut totals);

        for g in &gens {
            let mut reference = BackedSpace::new(layout);
            restore_rank_sequential(&store, 0, g.generation, &mut reference).unwrap();
            assert_eq!(
                reference.content_digest(),
                g.digest,
                "seed {case} gen {}: sequential restore",
                g.generation
            );
            for workers in [1usize, 2, 8] {
                let rcfg = RestoreConfig { workers };
                let mut planned = BackedSpace::new(layout);
                let rep = restore_rank_with(&store, 0, g.generation, &mut planned, &rcfg).unwrap();
                if static_pages >= PARALLEL_THRESHOLD_PAGES {
                    assert!(
                        rep.pages_applied >= PARALLEL_THRESHOLD_PAGES,
                        "seed {case} gen {}: {} pages applied, the fan-out never runs",
                        g.generation,
                        rep.pages_applied
                    );
                }
                assert_eq!(
                    planned.arena(),
                    reference.arena(),
                    "seed {case} gen {} workers {workers}: arena bytes",
                    g.generation
                );
                assert_eq!(planned.mapped_ranges(), reference.mapped_ranges());
                assert_eq!(planned.content_digest(), g.digest);
            }
        }
    }
    // The op mix must actually have exercised the content layer: across
    // all seeds some pages were dropped as silent-same and some were
    // delta-encoded, else the suite proves nothing.
    assert!(totals.dropped_pages > 0, "no silent-same drops across any seed");
    assert!(totals.delta_pages > 0, "no delta-encoded pages across any seed");
    assert!(totals.delta_blocks > 0);
}

/// Effective IB vs dirty IB: the same deterministic op script captured
/// twice — dedup off, then dedup on — produces byte-identical restored
/// images per generation, yet the dedup chain never stores more bytes
/// and (with silent writes in the mix) stores strictly fewer overall.
#[test]
fn dedup_never_stores_more_than_dirty_chain() {
    let mut stored_off = 0u64;
    let mut stored_on = 0u64;
    for case in 0..16u64 {
        let full_every = [2u64, 4, 0][(case % 3) as usize];

        let run = |dedup: bool| {
            let cfg = CaptureConfig { dedup, ..CaptureConfig::default() };
            let mut space = BackedSpace::new(layout());
            let store = MemStore::new();
            let mut rng = Rng::new(BASE_SEED ^ (case << 8));
            let mut stats = ContentStats::default();
            let gens = build_chain(&mut rng, full_every, &cfg, &mut space, &store, &mut stats);
            (space, store, gens)
        };
        let (space_off, store_off, gens_off) = run(false);
        let (space_on, store_on, gens_on) = run(true);

        // Identical script ⇒ identical final images and generation list.
        assert_eq!(space_off.arena(), space_on.arena(), "seed {case}: final image");
        assert_eq!(gens_off.len(), gens_on.len());

        for (off, on) in gens_off.iter().zip(&gens_on) {
            assert_eq!(off.digest, on.digest, "seed {case} gen {}", off.generation);
            let mut a = BackedSpace::new(layout());
            let mut b = BackedSpace::new(layout());
            restore_rank_sequential(&store_off, 0, off.generation, &mut a).unwrap();
            restore_rank_sequential(&store_on, 0, on.generation, &mut b).unwrap();
            assert_eq!(
                a.arena(),
                b.arena(),
                "seed {case} gen {}: dedup-on restore differs from dedup-off",
                off.generation
            );
            assert!(
                on.stored_bytes <= off.stored_bytes,
                "seed {case} gen {}: dedup stored {} > dirty {}",
                off.generation,
                on.stored_bytes,
                off.stored_bytes
            );
            stored_off += off.stored_bytes;
            stored_on += on.stored_bytes;
        }
    }
    assert!(
        stored_on < stored_off,
        "effective IB ({stored_on}) did not drop below dirty IB ({stored_off})"
    );
}
