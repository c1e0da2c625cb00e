//! Property-based equivalence of planned and sequential restore: for
//! arbitrary interleavings of writes, mapping churn and checkpoints —
//! with chain lengths straddling re-base boundaries — the plan-driven
//! restore at 1, 2 and 8 workers produces an image byte-identical to
//! the sequential chain replay, and a corrupted chunk fails identically
//! in both paths.
//!
//! A restore destination is not assumed fresh: every planned restore
//! also runs into a reused space still full of another image's bytes
//! and must produce the same image, including over chains that leave
//! mapped pages no chunk stores (the restore's own zero fill).
//!
//! Cases are generated by a self-contained seeded SplitMix64 harness;
//! failures print the case seed for deterministic replay.

use ickpt::core::checkpoint::{capture_full, capture_incremental};
use ickpt::core::restore::{restore_rank_sequential, restore_rank_with, RestoreConfig};
use ickpt::core::tracked_space::TrackedSpace;
use ickpt::core::tracker::{TrackerConfig, WriteTracker};
use ickpt::mem::{AddressSpace, BackedSpace, LayoutBuilder, PageRange, PAGE_SIZE};
use ickpt::sim::SimTime;
use ickpt::storage::{Chunk, ChunkKey, MemStore, RestorePlan, StableStorage};
use std::collections::BTreeSet;

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

const BASE_SEED: u64 = 0x1DC4_2004 ^ 0xBEEF;

/// Planned pages below which `ickpt-core` applies a restore plan
/// serially whatever the worker count.
const PARALLEL_THRESHOLD_PAGES: u64 = 2048;

#[derive(Debug, Clone)]
enum Op {
    Write { start_frac: f64, len: u64 },
    HeapGrow(u64),
    HeapShrink(u64),
    Mmap(u64),
    Munmap(usize),
    Checkpoint,
}

fn ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.range(20, 100) as usize;
    (0..n)
        .map(|_| match rng.below(8) {
            0..=2 => Op::Write { start_frac: rng.frac(), len: rng.range(1, 24) },
            3 => Op::HeapGrow(rng.range(1, 12)),
            4 => Op::HeapShrink(rng.range(1, 12)),
            5 => Op::Mmap(rng.range(1, 12)),
            // Bias toward checkpoints so chains grow long enough to
            // straddle the re-base boundary several times.
            _ => {
                if rng.below(3) == 0 {
                    Op::Munmap(rng.below(8) as usize)
                } else {
                    Op::Checkpoint
                }
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

/// A restore destination that has been used before: every page of the
/// layout mapped once and filled with bytes no checkpoint holds. A
/// restore that skips a page it owes (a copy or a zero fill) leaves
/// these bytes showing.
fn scribbled(layout: ickpt::mem::DataLayout) -> BackedSpace {
    let mut space = BackedSpace::new(layout);
    space.heap_grow(layout.heap.len).unwrap();
    space.mmap(layout.mmap.len).unwrap();
    for r in space.mapped_ranges() {
        for p in r.iter() {
            space.fill_page(p, 0xDEAD_0000 + p).unwrap();
        }
    }
    space
}

/// Same mapping and the same bytes on every mapped page (unmapped arena
/// bytes are stale by design and never read).
fn assert_same_image(got: &BackedSpace, want: &BackedSpace, ctx: &str) {
    assert_eq!(got.mapped_ranges(), want.mapped_ranges(), "{ctx}: mapping");
    for r in want.mapped_ranges() {
        for p in r.iter() {
            let at = (p * PAGE_SIZE) as usize..((p + 1) * PAGE_SIZE) as usize;
            assert!(got.arena()[at.clone()] == want.arena()[at], "{ctx}: page {p} differs");
        }
    }
    assert_eq!(got.content_digest(), want.content_digest(), "{ctx}: digest");
}

/// Run the op script, capturing a chain into `store`; returns the
/// committed generations with their at-capture digests.
fn build_chain(
    rng: &mut Rng,
    full_every: u64,
    space: &mut BackedSpace,
    store: &MemStore,
) -> Vec<(u64, u64)> {
    let layout = *space.layout();
    let mut tracker = WriteTracker::new(
        layout.capacity_pages(),
        space.mapped_pages(),
        TrackerConfig { track_checkpoint_set: true, ..Default::default() },
    );
    let mut live_mmaps: Vec<PageRange> = Vec::new();
    let mut generation = 0u64;
    let mut version = 0u64;
    let mut digests: Vec<(u64, u64)> = Vec::new();
    for op in ops(rng) {
        match op {
            Op::Write { start_frac, len } => {
                if let Some(r) = pick_range(space, start_frac, len) {
                    version += 1;
                    let mut ts = TrackedSpace::new(space, &mut tracker);
                    ts.touch(r, version);
                }
            }
            Op::HeapGrow(n) => {
                let mut ts = TrackedSpace::new(space, &mut tracker);
                let _ = ts.heap_grow(n);
            }
            Op::HeapShrink(n) => {
                let mut ts = TrackedSpace::new(space, &mut tracker);
                let _ = ts.heap_shrink(n);
            }
            Op::Mmap(n) => {
                let mut ts = TrackedSpace::new(space, &mut tracker);
                if let Ok(r) = ts.mmap(n) {
                    live_mmaps.push(r);
                }
            }
            Op::Munmap(i) => {
                if !live_mmaps.is_empty() {
                    let r = live_mmaps.remove(i % live_mmaps.len());
                    let mut ts = TrackedSpace::new(space, &mut tracker);
                    ts.munmap(r).unwrap();
                }
            }
            Op::Checkpoint => {
                let now = SimTime::from_secs(generation + 1);
                let is_full =
                    generation == 0 || (full_every > 0 && generation.is_multiple_of(full_every));
                let chunk = if is_full {
                    let _ = tracker.take_checkpoint_set();
                    capture_full(space, 0, generation, now)
                } else {
                    let dirty = tracker.take_checkpoint_set();
                    capture_incremental(space, 0, generation, generation - 1, now, &dirty)
                };
                store.put_chunk(ChunkKey::new(0, generation), &chunk.encode()).unwrap();
                digests.push((generation, space.content_digest()));
                generation += 1;
            }
        }
    }
    if digests.is_empty() {
        let chunk = capture_full(space, 0, 0, SimTime::ZERO);
        store.put_chunk(ChunkKey::new(0, 0), &chunk.encode()).unwrap();
        digests.push((0, space.content_digest()));
    }
    digests
}

/// The tentpole invariant: plan-driven restore — serial or fanned out
/// across 2 or 8 workers — is byte-identical (full arena + mapping +
/// digest) to the sequential chain replay, for every committed
/// generation of seeded random chains whose lengths straddle re-base
/// boundaries (`full_every` 1, 3, 5 and "base only").
#[test]
fn planned_restore_equals_sequential_replay() {
    for case in 0..32u64 {
        let mut rng = Rng::new(BASE_SEED ^ case);
        // Cycle the re-base interval so chains of length 1 up to tens
        // of increments all occur.
        let full_every = [1u64, 3, 5, 0][(case % 4) as usize];
        // Two cases (re-base every 3 and every 5) plan more pages than
        // the threshold below which plan application stays serial, so
        // the fan-out runs.
        let static_pages = if matches!(case, 13 | 22) { PARALLEL_THRESHOLD_PAGES } else { 4 };
        let layout = LayoutBuilder::new()
            .static_bytes(static_pages * PAGE_SIZE)
            .heap_capacity_bytes(64 * PAGE_SIZE)
            .mmap_capacity_bytes(64 * PAGE_SIZE)
            .build();
        let mut space = BackedSpace::new(layout);
        let store = MemStore::new();
        let digests = build_chain(&mut rng, full_every, &mut space, &store);
        // One destination reused by every restore of the case: it
        // starts scribbled and then always holds the previous restore.
        let mut reused = scribbled(layout);

        for &(gen, digest) in &digests {
            let mut reference = BackedSpace::new(layout);
            let seq = restore_rank_sequential(&store, 0, gen, &mut reference).unwrap();
            assert_eq!(reference.content_digest(), digest, "seed {case} gen {gen}: reference");
            for workers in [1usize, 2, 8] {
                let cfg = RestoreConfig { workers };
                let mut planned = BackedSpace::new(layout);
                let rep = restore_rank_with(&store, 0, gen, &mut planned, &cfg).unwrap();
                if static_pages >= PARALLEL_THRESHOLD_PAGES {
                    assert!(
                        rep.pages_applied >= PARALLEL_THRESHOLD_PAGES,
                        "seed {case} gen {gen}: {} pages applied, the fan-out never runs",
                        rep.pages_applied
                    );
                }
                assert_eq!(
                    planned.arena(),
                    reference.arena(),
                    "seed {case} gen {gen} workers {workers}: arena bytes"
                );
                assert_eq!(planned.mapped_ranges(), reference.mapped_ranges());
                assert_eq!(planned.content_digest(), digest);
                assert_eq!(rep.bytes_read, seq.bytes_read, "both paths read the whole chain");
                assert_eq!(rep.chain_length, seq.chain_length);
                assert_eq!(rep.app_state, seq.app_state);
                assert_eq!(rep.capture_time_ns, seq.capture_time_ns);
                assert_eq!(
                    rep.pages_applied + rep.pages_superseded,
                    seq.pages_applied,
                    "seed {case} gen {gen}: the replay's extra writes are exactly \
                     the pages the planner skipped as superseded"
                );
                assert_eq!(rep.pages_excluded, seq.pages_excluded);
                let again = restore_rank_with(&store, 0, gen, &mut reused, &cfg).unwrap();
                assert_eq!(again, rep, "seed {case} gen {gen}: report into a reused space");
                assert_same_image(
                    &reused,
                    &reference,
                    &format!("seed {case} gen {gen} workers {workers}: reused destination"),
                );
            }
        }

        // Corrupt one random byte of one random chunk in the newest
        // chain: both paths must fail, with the same error.
        let &(newest, _) = digests.last().unwrap();
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
        let victim = chain[rng.below(chain.len() as u64) as usize];
        let mut data = store.get_chunk(ChunkKey::new(0, victim)).unwrap();
        let pos = rng.below(data.len() as u64) as usize;
        data[pos] ^= 1 + (rng.below(255) as u8);
        store.put_chunk(ChunkKey::new(0, victim), &data).unwrap();

        let mut reference = BackedSpace::new(layout);
        let seq_err = restore_rank_sequential(&store, 0, newest, &mut reference).unwrap_err();
        for workers in [1usize, 2, 8] {
            let cfg = RestoreConfig { workers };
            let mut planned = BackedSpace::new(layout);
            let err = restore_rank_with(&store, 0, newest, &mut planned, &cfg).unwrap_err();
            assert_eq!(
                err.to_string(),
                seq_err.to_string(),
                "seed {case} victim gen {victim} byte {pos} workers {workers}"
            );
        }
    }
}

/// Chain-length independence, regression-checked: a 32-increment chain
/// over the same live set plans no more page payload than a 2-increment
/// chain — the planner's work is O(live pages), not O(chain × pages).
#[test]
fn planned_page_reads_stay_flat_as_chain_grows() {
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(64 * PAGE_SIZE)
        .mmap_capacity_bytes(8 * PAGE_SIZE)
        .build();

    let chain_stats = |increments: u64| {
        let mut space = BackedSpace::new(layout);
        space.heap_grow(32).unwrap();
        for p in 0..36 {
            space.fill_page(p, 7 * p + 1).unwrap();
        }
        let store = MemStore::new();
        store
            .put_chunk(ChunkKey::new(0, 0), &capture_full(&space, 0, 0, SimTime::ZERO).encode())
            .unwrap();
        // Every increment dirties the same 4-page window.
        let window = PageRange::new(8, 4);
        for g in 1..=increments {
            for p in window.iter() {
                space.fill_page(p, g * 1000 + p).unwrap();
            }
            let chunk = capture_incremental(&space, 0, g, g - 1, SimTime::from_secs(g), &[window]);
            store.put_chunk(ChunkKey::new(0, g), &chunk.encode()).unwrap();
        }
        // Plan directly over the decoded chain (no exclusion filter).
        let chunks: Vec<Chunk> = (0..=increments)
            .map(|g| Chunk::decode(&store.get_chunk(ChunkKey::new(0, g)).unwrap()).unwrap())
            .collect();
        let plan = RestorePlan::build(&chunks, None);

        // And through the real restore for the report-level view.
        let mut fresh = BackedSpace::new(layout);
        let report =
            restore_rank_with(&store, 0, increments, &mut fresh, &RestoreConfig::default())
                .unwrap();
        assert_eq!(fresh.content_digest(), space.content_digest(), "chain {increments}");
        (plan, report)
    };

    let (plan2, rep2) = chain_stats(2);
    let (plan32, rep32) = chain_stats(32);
    assert_eq!(
        plan32.planned_payload_bytes(),
        plan2.planned_payload_bytes(),
        "16x longer chain decodes the same page payload"
    );
    assert_eq!(plan32.applied_pages(), plan2.applied_pages());
    assert_eq!(rep32.pages_applied, rep2.pages_applied);
    assert!(
        plan32.superseded_pages > plan2.superseded_pages,
        "the extra chain weight is all dead records the plan skips"
    );
    assert_eq!(plan32.superseded_pages - plan2.superseded_pages, 30 * 4);
}

/// A hand-built chain whose increments leave mapped pages that no chunk
/// of the chain stores: pages mapped after the base and never written.
/// Each increment's dirty list is what a write tracker would have to
/// report for the restore to be right — the written pages, plus newly
/// mapped pages an older chunk still holds bytes for — and nothing
/// else, so fresh never-written mappings stay out of every chunk.
struct GapChain {
    space: BackedSpace,
    store: MemStore,
    /// Pages some chunk of the chain stores (content or zero range).
    stored: BTreeSet<u64>,
    /// `(generation, source digest at capture, mapped pages)`.
    commits: Vec<(u64, u64, u64)>,
}

impl GapChain {
    fn commit(&mut self, fresh: &[PageRange], written: &[PageRange]) {
        let generation = self.commits.len() as u64;
        let now = SimTime::from_secs(generation);
        let chunk = if generation == 0 {
            self.stored.extend(self.space.mapped_ranges().iter().flat_map(|r| r.iter()));
            capture_full(&self.space, 0, 0, now)
        } else {
            let mut dirty: BTreeSet<u64> = written.iter().flat_map(|r| r.iter()).collect();
            dirty.extend(fresh.iter().flat_map(|r| r.iter()).filter(|p| self.stored.contains(p)));
            self.stored.extend(&dirty);
            let ranges: Vec<PageRange> = dirty.iter().map(|&p| PageRange::new(p, 1)).collect();
            capture_incremental(&self.space, 0, generation, generation - 1, now, &ranges)
        };
        self.store.put_chunk(ChunkKey::new(0, generation), &chunk.encode()).unwrap();
        self.commits.push((generation, self.space.content_digest(), self.space.mapped_pages()));
    }

    fn write(&mut self, range: PageRange, seed: u64) -> PageRange {
        for p in range.iter() {
            self.space.fill_page(p, seed + p).unwrap();
        }
        range
    }
}

/// The static region alone is as large as the threshold and is written
/// in the base, so every generation's plan crosses it and 2 and 8
/// workers shard the application.
fn gap_layout() -> ickpt::mem::DataLayout {
    LayoutBuilder::new()
        .static_bytes(PARALLEL_THRESHOLD_PAGES * PAGE_SIZE)
        .heap_capacity_bytes(32 * PAGE_SIZE)
        .mmap_capacity_bytes(32 * PAGE_SIZE)
        .build()
}

fn gap_chain() -> GapChain {
    let mut c = GapChain {
        space: BackedSpace::new(gap_layout()),
        store: MemStore::new(),
        stored: BTreeSet::new(),
        commits: Vec::new(),
    };
    // g0, the base: static + 8 heap pages + mmap block A, all written.
    c.space.heap_grow(8).unwrap();
    let a = c.space.mmap(4).unwrap();
    for r in c.space.mapped_ranges() {
        c.write(r, 100);
    }
    c.commit(&[], &[]);
    // g1: the heap grows and block B appears, neither ever written;
    // one old heap page is.
    let grown = c.space.heap_grow(6).unwrap();
    let b = c.space.mmap(3).unwrap();
    let heap_start = c.space.layout().heap.start;
    let w = c.write(PageRange::new(heap_start + 1, 1), 200);
    c.commit(&[grown, b], &[w]);
    // g2: heap shrinks below the base's break and regrows past its old
    // top; only the last regrown page is written.
    c.space.heap_shrink(10).unwrap();
    let regrown = c.space.heap_grow(12).unwrap();
    let w = c.write(PageRange::new(regrown.end() - 1, 1), 300);
    c.commit(&[regrown], &[w]);
    // g3: mmap churn — A goes, C and D arrive (reusing A's pages or
    // not, as the allocator pleases), one page of D written.
    c.space.munmap(a).unwrap();
    let cc = c.space.mmap(2).unwrap();
    let d = c.space.mmap(5).unwrap();
    let w = c.write(PageRange::new(d.start, 1), 400);
    c.commit(&[cc, d], &[w]);
    // g4: the never-stored block B goes, E arrives unwritten.
    c.space.munmap(b).unwrap();
    let e = c.space.mmap(3).unwrap();
    c.commit(&[e], &[]);
    c
}

/// Restore writes each mapped page exactly once — copied from the chain
/// or zero-filled — so a destination full of another image's bytes ends
/// up identical to a fresh one, at 1, 2 and 8 workers, over a chain with
/// never-captured pages, heap shrink-then-regrow and mmap churn.
#[test]
fn reused_destination_restores_like_a_fresh_one_over_uncaptured_pages() {
    let chain = gap_chain();
    let layout = gap_layout();
    let mut reused = scribbled(layout);
    let mut gaps_seen = 0;
    // Newest first, then back up: the reused space holds a different
    // generation's image (or the scribble) before every restore.
    let order = [4usize, 1, 3, 0, 2, 4, 2];
    for workers in [1usize, 2, 8] {
        let cfg = RestoreConfig { workers };
        for &i in &order {
            let (gen, digest, mapped) = chain.commits[i];
            let ctx = format!("gen {gen} workers {workers}");
            let mut reference = BackedSpace::new(layout);
            restore_rank_sequential(&chain.store, 0, gen, &mut reference).unwrap();
            assert_eq!(reference.content_digest(), digest, "{ctx}: reference equals source");

            let mut fresh = BackedSpace::new(layout);
            let rep = restore_rank_with(&chain.store, 0, gen, &mut fresh, &cfg).unwrap();
            assert!(rep.pages_applied >= PARALLEL_THRESHOLD_PAGES, "{ctx}: below the threshold");
            assert_same_image(&fresh, &reference, &format!("{ctx}: fresh destination"));
            if rep.pages_applied < mapped {
                gaps_seen += 1;
            }

            let again = restore_rank_with(&chain.store, 0, gen, &mut reused, &cfg).unwrap();
            assert_eq!(again, rep, "{ctx}: report");
            assert_same_image(&reused, &reference, &format!("{ctx}: reused destination"));

            // The sequential reference owes the same to a used space.
            let mut used = scribbled(layout);
            restore_rank_sequential(&chain.store, 0, gen, &mut used).unwrap();
            assert_same_image(&used, &reference, &format!("{ctx}: sequential, used destination"));
        }
    }
    assert!(gaps_seen > 0, "the chain must leave mapped pages no chunk stores");
}

/// Verification fans out in byte-balanced groups, so the large base and
/// the newest increment are checked on different workers; whichever of
/// them is damaged — or both — the planned restore reports the error
/// the newest-to-base sequential loop hits first.
#[test]
fn corrupt_base_or_newest_fails_like_sequential_at_any_split() {
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(64 * PAGE_SIZE)
        .mmap_capacity_bytes(4 * PAGE_SIZE)
        .build();
    let newest = 6u64;
    let build = || {
        let mut space = BackedSpace::new(layout);
        space.heap_grow(60).unwrap();
        for r in space.mapped_ranges() {
            for p in r.iter() {
                space.fill_page(p, 9 * p + 2).unwrap();
            }
        }
        let store = MemStore::new();
        let put = |c: Chunk| store.put_chunk(ChunkKey::new(0, c.generation), &c.encode()).unwrap();
        put(capture_full(&space, 0, 0, SimTime::ZERO));
        for g in 1..=newest {
            let page = PageRange::new(4 + g, 1);
            space.fill_page(page.start, 1000 * g).unwrap();
            put(capture_incremental(&space, 0, g, g - 1, SimTime::from_secs(g), &[page]));
        }
        store
    };
    let flip = |store: &MemStore, gen: u64| {
        let key = ChunkKey::new(0, gen);
        let mut data = store.get_chunk(key).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x5A;
        store.put_chunk(key, &data).unwrap();
    };
    let wrong_rank = |store: &MemStore, gen: u64| {
        let key = ChunkKey::new(0, gen);
        let mut chunk = Chunk::decode(&store.get_chunk(key).unwrap()).unwrap();
        chunk.rank = 7;
        store.put_chunk(key, &chunk.encode()).unwrap();
    };
    type Damage<'a> = (&'a str, &'a dyn Fn(&MemStore), &'a str);
    let cases: [Damage<'_>; 4] = [
        ("base flipped", &|s| flip(s, 0), "CRC mismatch"),
        ("newest flipped", &|s| flip(s, newest), "CRC mismatch"),
        // The newest chunk's rank check comes before the base's CRC.
        (
            "newest misfiled, base flipped",
            &|s| {
                wrong_rank(s, newest);
                flip(s, 0)
            },
            "rank mismatch",
        ),
        // And the newest chunk's CRC before the base's rank check.
        (
            "newest flipped, base misfiled",
            &|s| {
                flip(s, newest);
                wrong_rank(s, 0)
            },
            "CRC mismatch",
        ),
    ];
    for (name, damage, expect) in cases {
        let store = build();
        damage(&store);
        let mut reference = BackedSpace::new(layout);
        let seq_err = restore_rank_sequential(&store, 0, newest, &mut reference).unwrap_err();
        assert!(seq_err.to_string().contains(expect), "{name}: reference said {seq_err}");
        for workers in [1usize, 2, 8] {
            let cfg = RestoreConfig { workers };
            let mut dst = scribbled(layout);
            let before = dst.content_digest();
            let err = restore_rank_with(&store, 0, newest, &mut dst, &cfg).unwrap_err();
            assert_eq!(err.to_string(), seq_err.to_string(), "{name}, workers {workers}");
            assert_eq!(dst.content_digest(), before, "{name}: a failed verify writes no page");
        }
    }
}
