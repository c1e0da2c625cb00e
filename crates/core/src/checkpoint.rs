//! Checkpoint capture: full and incremental, serial and parallel.
//!
//! A **full** checkpoint saves every mapped page of the data segment —
//! what a non-incremental OS-level checkpointer must move every
//! interval, and the baseline the paper's feasibility argument is made
//! against. An **incremental** checkpoint saves only the pages dirtied
//! since the previous checkpoint (the accumulated IWS), whose size the
//! paper shows is bounded by a bandwidth far below device limits.
//!
//! Capture is pure: it reads a [`PageSource`] and a list of page ranges
//! and produces an `ickpt-storage` [`Chunk`]. Writing the chunk to
//! stable storage (and charging virtual time for it) is the runner's
//! job, so capture is independently testable.
//!
//! ## The fast path
//!
//! Capture throughput sits on the "available bandwidth" side of the
//! paper's feasibility ratio (§3, §6.3), so the hot loop is engineered:
//!
//! * **Allocation-free in steady state.** [`CaptureScratch`] recycles
//!   page-data buffers, record tables and zero tables between
//!   checkpoints; after warm-up a capture performs no heap allocation.
//! * **Word-scan zero detection.** All-zero pages (fresh allocations)
//!   are detected eight bytes at a time and elided into 16-byte zero
//!   ranges instead of being copied.
//! * **Parallel page copy.** With [`CaptureConfig::workers`] > 1 the
//!   dirty ranges are split into contiguous spans of roughly equal page
//!   count and captured by scoped threads. The merge re-coalesces
//!   records and zero runs across span seams in ascending page order,
//!   so the parallel result is **byte-identical** to the serial one —
//!   manifests, CRCs, digests and restores cannot tell the difference
//!   (property-tested in `tests/checkpoint_props.rs`).

use ickpt_mem::{AddressSpace, PageRange, PageSource};
use ickpt_obs::{CaptureKind, Event, Lane, Recorder};
use ickpt_sim::{env, SimTime};
use ickpt_storage::hash::{zero_block_hash, BLOCKS_PER_PAGE, BLOCK_SIZE};
use ickpt_storage::{kernels, Chunk, ChunkKind, DeltaRecord, PageRecord, CHUNK_PAGE_SIZE};

/// Whether a page's content is entirely zero (zero-page elision test).
///
/// The word-at-a-time scan of `ickpt-storage::kernels`, which stops at
/// the first non-zero 64 bytes. When dedup is on, capture does not call
/// this at all — the page scan answers it as a byproduct of hashing.
#[inline]
fn is_zero_page(content: &[u8]) -> bool {
    kernels::is_zero(content)
}

/// Below this many pages, capture and planned restore stay serial
/// whatever their worker count: thread spawn would cost more than the
/// copy.
pub(crate) const PARALLEL_THRESHOLD_PAGES: u64 = 2048;

/// Tuning for the capture fast path.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Page-copy worker threads. 1 = serial. The captured chunk is
    /// byte-identical for every worker count. Below
    /// `PARALLEL_THRESHOLD_PAGES` (2048) total pages capture stays serial.
    pub workers: usize,
    /// Flight recorder; each capture emits one `Event::Capture` on the
    /// rank lane. Disabled by default — a test-and-return on the hot
    /// path (perf/'s `obs.disabled_ns` measures it).
    pub obs: Recorder,
    /// Rank lane the capture events land on.
    pub obs_rank: u32,
    /// Content-defined dedup: hash every captured page at sub-page
    /// block granularity against the baseline in
    /// [`CaptureScratch::dedup_index`], dropping silent same-value
    /// writes (dirty pages whose bytes did not change) and
    /// delta-encoding partially-written pages. Off by default; the
    /// captured chunk is byte-identical for every worker count either
    /// way.
    pub dedup: bool,
}

/// Delta crossover: with dedup on, a changed page is delta-encoded only
/// when at most this many of its [`BLOCKS_PER_PAGE`] blocks changed. A
/// delta pays off while the stored blocks plus the 16-byte record
/// header undercut a whole page; 12 of 16 blocks (3 KiB + header vs
/// 4 KiB) keeps a safety margin for the extra base-page read at restore.
pub(crate) const DEFAULT_DELTA_MAX_BLOCKS: u32 = 12;

impl Default for CaptureConfig {
    fn default() -> Self {
        Self { workers: 1, obs: Recorder::disabled(), obs_rank: 0, dedup: false }
    }
}

impl CaptureConfig {
    /// Serial capture, dedup from `ICKPT_DEDUP` (`1`/`true` or
    /// `0`/`false`; a malformed value exits 2).
    pub fn from_env() -> Self {
        let dedup = env::knob("ICKPT_DEDUP", env::flag).unwrap_or(false);
        Self { dedup, ..Self::default() }
    }
}

/// Per-capture content-layer accounting: what dedup and delta encoding
/// saved relative to dirty-bit page granularity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ContentStats {
    /// Nonzero dirty pages that were block-hashed.
    pub hashed_pages: u64,
    /// Dirty pages dropped because every block hash matched the
    /// baseline (silent same-value writes).
    pub dropped_pages: u64,
    /// Dirty pages shipped as sub-page deltas.
    pub delta_pages: u64,
    /// Changed blocks stored across those delta records.
    pub delta_blocks: u64,
}

impl ContentStats {
    /// Bytes the dirty-bit accounting would have shipped for the
    /// dropped pages.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_pages * CHUNK_PAGE_SIZE as u64
    }

    /// Bytes saved by delta-encoding instead of whole-page stores
    /// (page payload minus stored blocks and per-record headers).
    pub fn delta_saved_bytes(&self) -> u64 {
        self.delta_pages * CHUNK_PAGE_SIZE as u64
            - (self.delta_blocks * BLOCK_SIZE as u64 + self.delta_pages * 16)
    }

    /// Total bytes the content layer kept off the storage path.
    pub fn saved_bytes(&self) -> u64 {
        self.dropped_bytes() + self.delta_saved_bytes()
    }

    /// Accumulate another capture's stats (run-level totals).
    pub fn merge(&mut self, other: ContentStats) {
        self.hashed_pages += other.hashed_pages;
        self.dropped_pages += other.dropped_pages;
        self.delta_pages += other.delta_pages;
        self.delta_blocks += other.delta_blocks;
    }
}

const DEDUP_VALID: u8 = 1;
const DEDUP_FULL_BASELINE: u8 = 2;

/// Per-rank content baseline: one 64-bit hash per 256-byte block of
/// every tracked page, plus per-page state flags.
///
/// Pre-sized once (to the address-space capacity seen) and then flat —
/// lookups and updates during capture are plain array stores, zero heap
/// allocation in steady state. Flags are byte-granular so parallel
/// capture workers on disjoint page spans write disjoint bytes.
///
/// The baseline reflects *captured* state. Two events force
/// conservative invalidation, both handled by the owner of the index:
/// a restore/rollback (the captured-but-uncommitted suffix is gone —
/// [`DedupIndex::reset`]) and page unmap (a later remap must not match
/// a baseline from a previous mapping epoch —
/// [`DedupIndex::invalidate`], fed by the tracker's churn set). Full
/// captures rebuild the baseline from scratch.
#[derive(Debug, Default)]
pub struct DedupIndex {
    block_hashes: Vec<u64>,
    flags: Vec<u8>,
}

impl DedupIndex {
    /// Grow to track at least `pages` pages (amortized: grows to the
    /// high-water mark and stays).
    pub(crate) fn ensure_capacity(&mut self, pages: u64) {
        let need = pages as usize;
        if self.flags.len() < need {
            self.flags.resize(need, 0);
            self.block_hashes.resize(need * BLOCKS_PER_PAGE, 0);
        }
    }

    /// Invalidate every baseline entry (after a restore/rollback: the
    /// chain the baseline described is no longer the chain on disk).
    pub fn reset(&mut self) {
        self.flags.fill(0);
    }

    /// Invalidate the baseline for a page range (pages unmapped since
    /// the last capture: their records may leave the chain, and a
    /// remapped page must never silently match a stale baseline).
    pub fn invalidate(&mut self, range: PageRange) {
        let lo = (range.start as usize).min(self.flags.len());
        let hi = ((range.start + range.len) as usize).min(self.flags.len());
        self.flags[lo..hi].fill(0);
    }

    /// Pages with a valid baseline.
    #[cfg(test)]
    pub(crate) fn valid_pages(&self) -> u64 {
        self.flags.iter().filter(|&&f| f & DEDUP_VALID != 0).count() as u64
    }
}

/// A worker's mutable window into the dedup index: the flag and hash
/// sub-slices covering its page span. Spans are disjoint and ascending,
/// so the windows come from plain `split_at_mut` — no aliasing, no
/// locks, and the per-page decisions match the serial order exactly.
struct DedupWindow<'a> {
    hashes: &'a mut [u64],
    flags: &'a mut [u8],
    /// Absolute page number of element 0 of the slices.
    base_page: u64,
    /// Capture-wide mode: on full captures every page is stored whole
    /// and the baseline is rebuilt (no drops, no deltas).
    refresh_only: bool,
    zero_hash: u64,
}

/// Per-worker output of one capture span, with its recycled buffers.
#[derive(Debug, Default)]
struct WorkerOut {
    records: Vec<PageRecord>,
    zeros: Vec<(u64, u64)>,
    deltas: Vec<DeltaRecord>,
    stats: ContentStats,
    /// Cleared page-data buffers kept warm between checkpoints.
    data_pool: Vec<Vec<u8>>,
}

/// Reusable capture buffers.
///
/// Thread one scratch through repeated `capture_*_with` calls and
/// return each encoded-and-written chunk via [`CaptureScratch::recycle`]
/// to make the steady-state capture loop allocation-free: page-data
/// buffers, record tables and the encode buffer all retain their
/// capacity across generations.
#[derive(Debug, Default)]
pub struct CaptureScratch {
    workers: Vec<WorkerOut>,
    /// Reusable serialization buffer for [`CaptureScratch::encode_reusing`].
    encode_buf: Vec<u8>,
    /// Content baseline for dedup captures (unused until
    /// [`CaptureConfig::dedup`] is on).
    dedup_index: DedupIndex,
    /// Content-layer accounting of the most recent capture.
    last_content: ContentStats,
}

impl CaptureScratch {
    /// Empty scratch; buffers warm up over the first capture/recycle
    /// cycle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a finished chunk's allocations to the pools so the next
    /// capture reuses them.
    pub fn recycle(&mut self, chunk: Chunk) {
        if self.workers.is_empty() {
            self.workers.push(WorkerOut::default());
        }
        let n = self.workers.len();
        for (i, rec) in chunk.records.into_iter().enumerate() {
            let mut data = rec.data;
            data.clear();
            self.workers[i % n].data_pool.push(data);
        }
        for (i, delta) in chunk.delta_records.into_iter().enumerate() {
            let mut data = delta.data;
            data.clear();
            self.workers[i % n].data_pool.push(data);
        }
    }

    /// The dedup baseline, for owners that must invalidate it (on
    /// restore/rollback or page churn).
    pub fn dedup_index(&mut self) -> &mut DedupIndex {
        &mut self.dedup_index
    }

    /// Content-layer accounting of the most recent `capture_*_with`
    /// call through this scratch (zeroed when dedup is off).
    pub fn last_content(&self) -> ContentStats {
        self.last_content
    }

    /// Encode `chunk` into the scratch's retained buffer and return it.
    pub fn encode_reusing(&mut self, chunk: &Chunk) -> &[u8] {
        chunk.encode_into(&mut self.encode_buf);
        &self.encode_buf
    }

    /// Make sure `n` worker slots exist.
    fn ensure_workers(&mut self, n: usize) {
        while self.workers.len() < n {
            self.workers.push(WorkerOut::default());
        }
    }
}

/// Snapshot the mapping state of `space` for a chunk header: heap size
/// plus live mmap blocks.
fn mapping_state<S: AddressSpace>(space: &S) -> (u64, Vec<(u64, u64)>) {
    let heap_pages = space.heap_pages();
    let mmap_region = space.layout().mmap;
    let mmap_blocks = space
        .mapped_ranges()
        .into_iter()
        .filter(|r| mmap_region.contains(r.start))
        .map(|r| (r.start, r.len))
        .collect();
    (heap_pages, mmap_blocks)
}

/// Build page records for `ranges` from `space` into `out`, coalescing
/// adjacent runs and eliding all-zero pages into the zero table (fresh
/// allocations that were never written cost 16 bytes instead of 4096).
/// Every page must be mapped.
///
/// With a [`DedupWindow`], every page is additionally block-hashed
/// against the baseline: silent same-value pages are dropped, and
/// partially-written pages below the crossover threshold are
/// delta-encoded. The per-page decision depends only on the page's own
/// content and baseline entry, so parallel workers over disjoint spans
/// reproduce the serial output byte for byte.
fn build_records_into<S: PageSource>(
    space: &S,
    ranges: &[PageRange],
    out: &mut WorkerOut,
    mut dedup: Option<DedupWindow<'_>>,
) {
    let mut fresh = [0u64; BLOCKS_PER_PAGE];
    for range in ranges {
        for page in range.iter() {
            let content = space
                .read_page(page)
                .unwrap_or_else(|| panic!("checkpoint of unmapped page {page}"));
            // The page scan (16 block hashes, page hash, zero probe)
            // when the content layer needs hashes anyway; a plain zero
            // scan with early exit when it does not.
            let page_is_zero = if dedup.is_some() {
                kernels::fused_scan(content, &mut fresh).is_zero
            } else {
                is_zero_page(content)
            };
            if page_is_zero {
                if let Some(ctx) = &mut dedup {
                    let i = (page - ctx.base_page) as usize;
                    let slot = &mut ctx.hashes[i * BLOCKS_PER_PAGE..(i + 1) * BLOCKS_PER_PAGE];
                    if !ctx.refresh_only
                        && ctx.flags[i] & DEDUP_VALID != 0
                        && slot.iter().all(|&h| h == ctx.zero_hash)
                    {
                        // The baseline already stores this page as
                        // zero: the dirty bit was a silent rewrite.
                        out.stats.dropped_pages += 1;
                        continue;
                    }
                    slot.fill(ctx.zero_hash);
                    ctx.flags[i] = DEDUP_VALID | DEDUP_FULL_BASELINE;
                }
                match out.zeros.last_mut() {
                    Some((start, len)) if *start + *len == page => *len += 1,
                    _ => out.zeros.push((page, 1)),
                }
                continue;
            }
            if let Some(ctx) = &mut dedup {
                let i = (page - ctx.base_page) as usize;
                let slot = &mut ctx.hashes[i * BLOCKS_PER_PAGE..(i + 1) * BLOCKS_PER_PAGE];
                // `fresh` was filled by the fused scan above.
                out.stats.hashed_pages += 1;
                if !ctx.refresh_only && ctx.flags[i] & DEDUP_VALID != 0 {
                    if kernels::hashes_eq(&fresh, slot) {
                        out.stats.dropped_pages += 1;
                        continue;
                    }
                    if ctx.flags[i] & DEDUP_FULL_BASELINE != 0 {
                        let mut mask = 0u16;
                        for (b, (&new, &old)) in fresh.iter().zip(slot.iter()).enumerate() {
                            if new != old {
                                mask |= 1 << b;
                            }
                        }
                        if mask.count_ones() <= DEFAULT_DELTA_MAX_BLOCKS {
                            let mut data = out.data_pool.pop().unwrap_or_default();
                            data.clear();
                            for b in 0..BLOCKS_PER_PAGE {
                                if mask & (1 << b) != 0 {
                                    data.extend_from_slice(
                                        &content[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE],
                                    );
                                }
                            }
                            out.stats.delta_pages += 1;
                            out.stats.delta_blocks += u64::from(mask.count_ones());
                            out.deltas.push(DeltaRecord { page, mask, data });
                            slot.copy_from_slice(&fresh);
                            // Clear the full-baseline bit: the next
                            // change to this page is stored whole, so a
                            // restore never chases delta onto delta.
                            ctx.flags[i] = DEDUP_VALID;
                            continue;
                        }
                    }
                }
                slot.copy_from_slice(&fresh);
                ctx.flags[i] = DEDUP_VALID | DEDUP_FULL_BASELINE;
            }
            match out.records.last_mut() {
                Some(last) if last.start_page + last.page_count() == page => {
                    last.data.extend_from_slice(content);
                }
                _ => {
                    let mut data = out.data_pool.pop().unwrap_or_default();
                    data.clear();
                    data.extend_from_slice(content);
                    out.records.push(PageRecord { start_page: page, data });
                }
            }
        }
    }
}

/// Split `ranges` into up to `workers` contiguous spans of roughly
/// equal page count, cutting ranges mid-run where needed. Spans are in
/// ascending page order; concatenating them reproduces `ranges`.
fn split_spans(ranges: &[PageRange], workers: usize) -> Vec<Vec<PageRange>> {
    let total: u64 = ranges.iter().map(|r| r.len).sum();
    if total == 0 || workers <= 1 {
        return vec![ranges.to_vec()];
    }
    let workers = workers.min(total as usize);
    let per = total.div_ceil(workers as u64);
    let mut spans: Vec<Vec<PageRange>> = Vec::with_capacity(workers);
    let mut current: Vec<PageRange> = Vec::new();
    let mut room = per;
    for &r in ranges {
        let mut rest = r;
        while !rest.is_empty() {
            let take = rest.len.min(room);
            current.push(PageRange::new(rest.start, take));
            rest = PageRange::new(rest.start + take, rest.len - take);
            room -= take;
            if room == 0 && spans.len() + 1 < workers {
                spans.push(std::mem::take(&mut current));
                room = per;
            }
        }
    }
    if !current.is_empty() {
        spans.push(current);
    }
    spans
}

/// Merge per-span outputs (ascending page order) into `base`,
/// re-coalescing records and zero runs across span seams so the result
/// is identical to a single serial pass.
fn merge_outputs(base: &mut WorkerOut, parts: &mut [WorkerOut]) {
    for part in parts {
        let mut recs = part.records.drain(..);
        if let Some(first) = recs.next() {
            match base.records.last_mut() {
                Some(last) if last.start_page + last.page_count() == first.start_page => {
                    last.data.extend_from_slice(&first.data);
                    let mut data = first.data;
                    data.clear();
                    base.data_pool.push(data);
                }
                _ => base.records.push(first),
            }
            base.records.extend(recs);
        }
        let mut zeros = part.zeros.drain(..);
        if let Some(first) = zeros.next() {
            match base.zeros.last_mut() {
                Some((s, l)) if *s + *l == first.0 => *l += first.1,
                _ => base.zeros.push(first),
            }
            base.zeros.extend(zeros);
        }
        // Delta records are per-page (never coalesced) and spans are
        // ascending, so concatenation preserves page order.
        base.deltas.append(&mut part.deltas);
        base.stats.merge(std::mem::take(&mut part.stats));
    }
}

/// Carve per-span [`DedupWindow`]s out of `index` via successive
/// `split_at_mut` at span boundaries. Spans are disjoint and ascending,
/// so every window gets exclusive, non-overlapping slices.
fn dedup_windows<'a>(
    index: &'a mut DedupIndex,
    spans: &[Vec<PageRange>],
    refresh_only: bool,
) -> Vec<Option<DedupWindow<'a>>> {
    let zero_hash = zero_block_hash();
    let mut windows = Vec::with_capacity(spans.len());
    let mut flags: &mut [u8] = &mut index.flags;
    let mut hashes: &mut [u64] = &mut index.block_hashes;
    let mut cursor = 0u64;
    for span in spans {
        let (Some(lo), Some(hi)) =
            (span.first().map(|r| r.start), span.last().map(|r| r.start + r.len))
        else {
            windows.push(None);
            continue;
        };
        let skip = (lo - cursor) as usize;
        let take = (hi - lo) as usize;
        flags = &mut flags[skip..];
        hashes = &mut hashes[skip * BLOCKS_PER_PAGE..];
        let (f, frest) = flags.split_at_mut(take);
        let (h, hrest) = hashes.split_at_mut(take * BLOCKS_PER_PAGE);
        flags = frest;
        hashes = hrest;
        cursor = hi;
        windows.push(Some(DedupWindow {
            hashes: h,
            flags: f,
            base_page: lo,
            refresh_only,
            zero_hash,
        }));
    }
    windows
}

/// Capture page records for `ranges`, serial or parallel per `cfg`,
/// returning the record, zero and delta tables. Content-layer
/// accounting lands in `scratch.last_content`.
fn capture_records<S: PageSource + Sync>(
    space: &S,
    ranges: &[PageRange],
    cfg: &CaptureConfig,
    scratch: &mut CaptureScratch,
    refresh_only: bool,
) -> (Vec<PageRecord>, Vec<(u64, u64)>, Vec<DeltaRecord>) {
    let total: u64 = ranges.iter().map(|r| r.len).sum();
    scratch.ensure_workers(1);
    scratch.last_content = ContentStats::default();
    if cfg.dedup {
        if let Some(last) = ranges.last() {
            scratch.dedup_index.ensure_capacity(last.start + last.len);
        }
    }
    if cfg.workers <= 1 || total < PARALLEL_THRESHOLD_PAGES {
        let mut out = std::mem::take(&mut scratch.workers[0]);
        let window = if cfg.dedup {
            let spans = vec![ranges.to_vec()];
            dedup_windows(&mut scratch.dedup_index, &spans, refresh_only).pop().unwrap()
        } else {
            None
        };
        build_records_into(space, ranges, &mut out, window);
        let result = (
            std::mem::take(&mut out.records),
            std::mem::take(&mut out.zeros),
            std::mem::take(&mut out.deltas),
        );
        scratch.last_content = std::mem::take(&mut out.stats);
        scratch.workers[0] = out;
        return result;
    }

    let spans = split_spans(ranges, cfg.workers);
    scratch.ensure_workers(spans.len());
    let mut windows: Vec<Option<DedupWindow<'_>>> = if cfg.dedup {
        dedup_windows(&mut scratch.dedup_index, &spans, refresh_only)
    } else {
        spans.iter().map(|_| None).collect()
    };
    // Hand each worker its own recycled buffers; join in span order so
    // the merged output is in ascending page order.
    let mut slots: Vec<WorkerOut> =
        scratch.workers[..spans.len()].iter_mut().map(std::mem::take).collect();
    let mut outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = spans
            .iter()
            .zip(slots.drain(..))
            .zip(windows.drain(..))
            .map(|((span, mut out), window)| {
                scope.spawn(move || {
                    build_records_into(space, span, &mut out, window);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("capture worker panicked")).collect()
    });
    let (first, rest) = outs.split_at_mut(1);
    merge_outputs(&mut first[0], rest);
    let result = (
        std::mem::take(&mut outs[0].records),
        std::mem::take(&mut outs[0].zeros),
        std::mem::take(&mut outs[0].deltas),
    );
    scratch.last_content = std::mem::take(&mut outs[0].stats);
    // Give the (now empty) buffers back to the scratch for next time.
    for (slot, out) in scratch.workers.iter_mut().zip(outs) {
        *slot = out;
    }
    result
}

/// Capture a full checkpoint of every mapped page.
pub fn capture_full<S: AddressSpace + PageSource + Sync>(
    space: &S,
    rank: u32,
    generation: u64,
    now: SimTime,
) -> Chunk {
    capture_full_with(
        space,
        rank,
        generation,
        now,
        &CaptureConfig::default(),
        &mut CaptureScratch::new(),
    )
}

/// [`capture_full`] with explicit tuning and reusable buffers.
pub fn capture_full_with<S: AddressSpace + PageSource + Sync>(
    space: &S,
    rank: u32,
    generation: u64,
    now: SimTime,
    cfg: &CaptureConfig,
    scratch: &mut CaptureScratch,
) -> Chunk {
    let (heap_pages, mmap_blocks) = mapping_state(space);
    let ranges = space.mapped_ranges();
    if cfg.dedup {
        // A full capture stores everything and rebuilds the baseline
        // from scratch; stale entries (e.g. for pages unmapped since
        // the last capture) must not survive into the new chain.
        scratch.dedup_index.reset();
    }
    let (records, zero_ranges, deltas) = capture_records(space, &ranges, cfg, scratch, true);
    debug_assert!(deltas.is_empty(), "full capture never delta-encodes");
    let chunk = Chunk {
        kind: ChunkKind::Full,
        rank,
        generation,
        parent: None,
        capture_time_ns: now.0,
        heap_pages,
        mmap_blocks,
        zero_ranges,
        records,
        delta_records: deltas,
        dropped_pages: 0,
        app_state: Vec::new(),
    };
    record_capture(cfg, CaptureKind::Full, now, &chunk);
    chunk
}

/// Emit one `Event::Capture` for a freshly captured chunk.
#[inline]
fn record_capture(cfg: &CaptureConfig, kind: CaptureKind, now: SimTime, chunk: &Chunk) {
    if cfg.obs.is_enabled() {
        cfg.obs.emit(
            Lane::Rank(cfg.obs_rank),
            now,
            Event::Capture {
                kind,
                generation: chunk.generation,
                pages: chunk.payload_pages(),
                payload_bytes: chunk.payload_bytes(),
            },
        );
    }
}

/// Capture an incremental checkpoint of `dirty_ranges` (typically
/// [`crate::tracker::WriteTracker::take_checkpoint_set`], which has
/// already applied memory exclusion) on top of `parent`.
pub fn capture_incremental<S: AddressSpace + PageSource + Sync>(
    space: &S,
    rank: u32,
    generation: u64,
    parent: u64,
    now: SimTime,
    dirty_ranges: &[PageRange],
) -> Chunk {
    capture_incremental_with(
        space,
        rank,
        generation,
        parent,
        now,
        dirty_ranges,
        &CaptureConfig::default(),
        &mut CaptureScratch::new(),
    )
}

/// [`capture_incremental`] with explicit tuning and reusable buffers.
#[allow(clippy::too_many_arguments)]
pub fn capture_incremental_with<S: AddressSpace + PageSource + Sync>(
    space: &S,
    rank: u32,
    generation: u64,
    parent: u64,
    now: SimTime,
    dirty_ranges: &[PageRange],
    cfg: &CaptureConfig,
    scratch: &mut CaptureScratch,
) -> Chunk {
    let (heap_pages, mmap_blocks) = mapping_state(space);
    let (records, zero_ranges, delta_records) =
        capture_records(space, dirty_ranges, cfg, scratch, false);
    let stats = scratch.last_content;
    let chunk = Chunk {
        kind: ChunkKind::Incremental,
        rank,
        generation,
        parent: Some(parent),
        capture_time_ns: now.0,
        heap_pages,
        mmap_blocks,
        zero_ranges,
        records,
        delta_records,
        dropped_pages: stats.dropped_pages,
        app_state: Vec::new(),
    };
    record_capture(cfg, CaptureKind::Incremental, now, &chunk);
    if cfg.obs.is_enabled() {
        if stats.dropped_pages > 0 {
            cfg.obs.emit(
                Lane::Rank(cfg.obs_rank),
                now,
                Event::DedupSkip {
                    generation,
                    pages: stats.dropped_pages,
                    bytes_saved: stats.dropped_bytes(),
                },
            );
        }
        if stats.delta_pages > 0 {
            cfg.obs.emit(
                Lane::Rank(cfg.obs_rank),
                now,
                Event::DeltaEncode {
                    generation,
                    pages: stats.delta_pages,
                    blocks: stats.delta_blocks,
                    bytes_saved: stats.delta_saved_bytes(),
                },
            );
        }
    }
    chunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickpt_mem::{BackedSpace, LayoutBuilder, PageSink, PAGE_SIZE};

    fn space() -> BackedSpace {
        let layout = LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(8 * PAGE_SIZE)
            .mmap_capacity_bytes(8 * PAGE_SIZE)
            .build();
        let mut s = BackedSpace::new(layout);
        s.heap_grow(2).unwrap();
        s.mmap(3).unwrap();
        for r in s.mapped_ranges() {
            for p in r.iter() {
                s.fill_page(p, p + 1).unwrap();
            }
        }
        s
    }

    #[test]
    fn full_checkpoint_covers_every_mapped_page() {
        let s = space();
        let c = capture_full(&s, 1, 0, SimTime::from_secs(2));
        assert_eq!(c.kind, ChunkKind::Full);
        assert_eq!(c.payload_pages() + c.zero_pages(), s.mapped_pages());
        assert_eq!(c.heap_pages, 2);
        assert_eq!(c.mmap_blocks.len(), 1);
        assert_eq!(c.capture_time_ns, 2_000_000_000);
        // Contents match the space.
        for rec in &c.records {
            for (i, page_bytes) in rec.data.chunks_exact(PAGE_SIZE as usize).enumerate() {
                let page = rec.start_page + i as u64;
                assert_eq!(page_bytes, s.read_page(page).unwrap());
            }
        }
    }

    #[test]
    fn incremental_checkpoint_saves_only_dirty() {
        let s = space();
        let dirty = vec![PageRange::new(0, 2), PageRange::new(4, 1)];
        let c = capture_incremental(&s, 0, 3, 2, SimTime::ZERO, &dirty);
        assert_eq!(c.kind, ChunkKind::Incremental);
        assert_eq!(c.parent, Some(2));
        assert_eq!(c.payload_pages(), 3);
    }

    #[test]
    fn adjacent_dirty_ranges_coalesce_into_one_record() {
        let s = space();
        let dirty = vec![PageRange::new(0, 2), PageRange::new(2, 2)];
        let c = capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &dirty);
        assert_eq!(c.records.len(), 1);
        assert_eq!(c.records[0].page_count(), 4);
    }

    #[test]
    fn empty_dirty_set_yields_empty_chunk() {
        let s = space();
        let c = capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[]);
        assert_eq!(c.payload_bytes(), 0);
        // Still a valid chunk that round-trips.
        let d = Chunk::decode(&c.encode()).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn zero_pages_are_elided_not_stored() {
        let layout = LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(8 * PAGE_SIZE)
            .mmap_capacity_bytes(8 * PAGE_SIZE)
            .build();
        let mut s = BackedSpace::new(layout);
        s.heap_grow(4).unwrap(); // fresh zeroed heap pages 4..8
        s.fill_page(5, 99).unwrap(); // one page written
        let c = capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[PageRange::new(4, 4)]);
        assert_eq!(c.payload_pages(), 1, "only the written page is stored");
        assert_eq!(c.zero_pages(), 3, "fresh pages cost 16 bytes each");
        assert_eq!(c.zero_ranges, vec![(4, 1), (6, 2)]);
        // The elision is a pure size optimization: ~4 KB avoided per
        // fresh page.
        assert!(c.encode().len() < 2 * PAGE_SIZE as usize);
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn checkpointing_unmapped_pages_panics() {
        let s = space();
        // Heap page 6 (layout heap starts at page 4, size 2 mapped) is
        // unmapped.
        let dirty = vec![PageRange::new(6, 1)];
        let _ = capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &dirty);
    }

    #[test]
    fn zero_page_kernel_scan_matches_byte_scan() {
        let mut page = vec![0u8; PAGE_SIZE as usize];
        assert!(is_zero_page(&page));
        for pos in [0usize, 1, 7, 8, 4088, 4095] {
            page[pos] = 1;
            assert!(!is_zero_page(&page), "nonzero byte at {pos} missed");
            page[pos] = 0;
        }
    }

    #[test]
    fn split_spans_partitions_exactly() {
        let ranges = vec![PageRange::new(0, 10), PageRange::new(20, 1), PageRange::new(30, 100)];
        for workers in [1usize, 2, 3, 8, 111, 200] {
            let spans = split_spans(&ranges, workers);
            assert!(spans.len() <= workers.max(1));
            // Flattening the spans reproduces the original page walk.
            let flat: Vec<u64> = spans.iter().flatten().flat_map(|r| r.iter()).collect();
            let want: Vec<u64> = ranges.iter().flat_map(|r| r.iter()).collect();
            assert_eq!(flat, want, "workers={workers}");
            // Balanced: no span more than ceil(total/workers) pages.
            let total: u64 = ranges.iter().map(|r| r.len).sum();
            let per = total.div_ceil(spans.len() as u64);
            for s in &spans[..spans.len() - 1] {
                let n: u64 = s.iter().map(|r| r.len).sum();
                assert!(n <= per + 1, "span of {n} pages vs target {per}");
            }
        }
    }

    /// A space above `PARALLEL_THRESHOLD_PAGES` (2048), so capture fans out.
    fn parallel_space() -> BackedSpace {
        let layout = LayoutBuilder::new()
            .static_bytes(16 * PAGE_SIZE)
            .heap_capacity_bytes(PARALLEL_THRESHOLD_PAGES * PAGE_SIZE)
            .mmap_capacity_bytes(128 * PAGE_SIZE)
            .build();
        let mut s = BackedSpace::new(layout);
        s.heap_grow(PARALLEL_THRESHOLD_PAGES - 12).unwrap();
        s.mmap(100).unwrap();
        assert!(s.mapped_pages() > PARALLEL_THRESHOLD_PAGES);
        s
    }

    #[test]
    fn parallel_capture_is_byte_identical() {
        let mut s = parallel_space();
        // A mix of content, zero pages and runs crossing span seams.
        for r in s.mapped_ranges() {
            for p in r.iter() {
                if p % 7 != 0 {
                    s.fill_page(p, p).unwrap();
                }
            }
        }
        let serial = capture_full(&s, 0, 9, SimTime::from_secs(1)).encode();
        for workers in [2usize, 3, 4, 8] {
            let cfg = CaptureConfig { workers, ..Default::default() };
            let mut scratch = CaptureScratch::new();
            let par = capture_full_with(&s, 0, 9, SimTime::from_secs(1), &cfg, &mut scratch);
            assert_eq!(par.encode(), serial, "workers={workers}");
        }
    }

    /// Fill one 256-byte block of a page through the space's raw
    /// page-write API, leaving the rest of the page untouched.
    fn fill_block(s: &mut BackedSpace, page: u64, block: usize, byte: u8) {
        let mut buf = [0u8; PAGE_SIZE as usize];
        buf.copy_from_slice(s.read_page(page).unwrap());
        buf[block * BLOCK_SIZE..(block + 1) * BLOCK_SIZE].fill(byte);
        s.write_page_data(page, &buf).unwrap();
    }

    fn dedup_cfg() -> CaptureConfig {
        CaptureConfig { dedup: true, ..CaptureConfig::default() }
    }

    #[test]
    fn silent_same_pages_are_dropped() {
        let s = space();
        let cfg = dedup_cfg();
        let mut scratch = CaptureScratch::new();
        let full = capture_full_with(&s, 0, 0, SimTime::ZERO, &cfg, &mut scratch);
        assert_eq!(full.dropped_pages, 0);
        assert!(full.delta_records.is_empty(), "full captures never delta-encode");

        // Every mapped page reported dirty, but nothing changed: the
        // whole capture dedups away.
        let dirty = s.mapped_ranges();
        let inc = capture_incremental_with(&s, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert_eq!(inc.payload_pages(), 0, "all pages silent-same");
        assert_eq!(inc.zero_pages(), 0);
        assert_eq!(inc.dropped_pages, s.mapped_pages());
        let stats = scratch.last_content();
        assert_eq!(stats.dropped_pages, s.mapped_pages());
        assert_eq!(stats.dropped_bytes(), s.mapped_pages() * PAGE_SIZE);
    }

    #[test]
    fn partial_writes_become_delta_records() {
        let mut s = space();
        let cfg = dedup_cfg();
        let mut scratch = CaptureScratch::new();
        let _full = capture_full_with(&s, 0, 0, SimTime::ZERO, &cfg, &mut scratch);

        // Touch 2 blocks of page 0; rewrite page 1 entirely.
        fill_block(&mut s, 0, 3, 0xAA);
        fill_block(&mut s, 0, 9, 0xBB);
        s.fill_page(1, 0xDEAD).unwrap();
        let dirty = vec![PageRange::new(0, 2)];
        let inc = capture_incremental_with(&s, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert_eq!(inc.delta_records.len(), 1);
        assert_eq!(inc.delta_records[0].page, 0);
        assert_eq!(inc.delta_records[0].mask, (1 << 3) | (1 << 9));
        assert_eq!(inc.delta_records[0].data.len(), 2 * BLOCK_SIZE);
        assert_eq!(inc.payload_pages(), 1, "page 1 stored whole");
        let stats = scratch.last_content();
        assert_eq!(stats.delta_pages, 1);
        assert_eq!(stats.delta_blocks, 2);
    }

    #[test]
    fn no_delta_on_delta_alternation() {
        let mut s = space();
        let cfg = dedup_cfg();
        let mut scratch = CaptureScratch::new();
        let _ = capture_full_with(&s, 0, 0, SimTime::ZERO, &cfg, &mut scratch);
        let dirty = vec![PageRange::new(0, 1)];

        fill_block(&mut s, 0, 1, 0x11);
        let g1 = capture_incremental_with(&s, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert_eq!(g1.delta_records.len(), 1, "first partial write delta-encodes");

        // Second partial write to the same page: the baseline is no
        // longer a whole stored page, so the page ships whole again.
        fill_block(&mut s, 0, 2, 0x22);
        let g2 = capture_incremental_with(&s, 0, 2, 1, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert!(g2.delta_records.is_empty(), "no delta chained on a delta");
        assert_eq!(g2.payload_pages(), 1);

        // And now the baseline is whole again: a third partial write
        // may delta-encode once more.
        fill_block(&mut s, 0, 4, 0x33);
        let g3 = capture_incremental_with(&s, 0, 3, 2, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert_eq!(g3.delta_records.len(), 1);
    }

    #[test]
    fn delta_crossover_threshold_is_respected() {
        let mut s = space();
        let cfg = dedup_cfg();
        let mut scratch = CaptureScratch::new();
        let _ = capture_full_with(&s, 0, 0, SimTime::ZERO, &cfg, &mut scratch);
        // Touch more blocks than the crossover allows: stored whole.
        for b in 0..(DEFAULT_DELTA_MAX_BLOCKS + 1) as usize {
            fill_block(&mut s, 0, b, 0x55);
        }
        let dirty = vec![PageRange::new(0, 1)];
        let inc = capture_incremental_with(&s, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert!(inc.delta_records.is_empty(), "past the crossover the page ships whole");
        assert_eq!(inc.payload_pages(), 1);
    }

    #[test]
    fn zero_page_baseline_participates_in_dedup() {
        let layout = LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(8 * PAGE_SIZE)
            .mmap_capacity_bytes(8 * PAGE_SIZE)
            .build();
        let mut s = BackedSpace::new(layout);
        s.heap_grow(2).unwrap();
        // Pages stay zero through the full capture.
        let cfg = dedup_cfg();
        let mut scratch = CaptureScratch::new();
        let _ = capture_full_with(&s, 0, 0, SimTime::ZERO, &cfg, &mut scratch);

        // Dirty-but-still-zero pages drop; a zero→nonzero→zero page is
        // re-recorded as zero only when its baseline says otherwise.
        let dirty = s.mapped_ranges();
        let inc = capture_incremental_with(&s, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert_eq!(inc.zero_pages(), 0, "silently-rewritten zero pages drop too");
        assert_eq!(inc.dropped_pages, s.mapped_pages());

        s.fill_page(4, 7).unwrap();
        let g2 = capture_incremental_with(
            &s,
            0,
            2,
            1,
            SimTime::ZERO,
            &[PageRange::new(4, 1)],
            &cfg,
            &mut scratch,
        );
        // Nonzero content over a zero baseline: below the crossover it
        // delta-encodes against the zero page.
        assert!(g2.payload_pages() == 1 || g2.delta_records.len() == 1);
        s.write_page_data(4, &[0u8; PAGE_SIZE as usize]).unwrap();
        let g3 = capture_incremental_with(
            &s,
            0,
            3,
            2,
            SimTime::ZERO,
            &[PageRange::new(4, 1)],
            &cfg,
            &mut scratch,
        );
        assert_eq!(g3.zero_pages(), 1, "back-to-zero re-records the zero range");
        assert_eq!(g3.dropped_pages, 0);
    }

    #[test]
    fn parallel_dedup_capture_is_byte_identical() {
        let mut s = parallel_space();
        for r in s.mapped_ranges() {
            for p in r.iter() {
                if p % 7 != 0 {
                    s.fill_page(p, p).unwrap();
                }
            }
        }
        let dirty = s.mapped_ranges();

        // Serial reference: full, then a mixed silent-same / partial /
        // rewrite / zero increment.
        let make_increment = |s: &mut BackedSpace| {
            for r in s.mapped_ranges() {
                for p in r.iter() {
                    match p % 5 {
                        0 => {}                                                         // silent-same
                        1 => fill_block(s, p, (p % 16) as usize, 0x7F),                 // partial
                        2 => s.fill_page(p, p * 31 + 1).unwrap(),                       // rewrite
                        3 => s.write_page_data(p, &[0u8; PAGE_SIZE as usize]).unwrap(), // zeroed
                        _ => {}
                    }
                }
            }
        };

        let mut serial_enc = None;
        for workers in [1usize, 2, 3, 8] {
            let cfg = CaptureConfig { workers, dedup: true, ..Default::default() };
            let mut scratch = CaptureScratch::new();
            let mut sc = s.clone();
            let full = capture_full_with(&sc, 0, 0, SimTime::ZERO, &cfg, &mut scratch);
            make_increment(&mut sc);
            let inc =
                capture_incremental_with(&sc, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
            let enc = (full.encode(), inc.encode());
            match &serial_enc {
                None => serial_enc = Some(enc),
                Some(want) => assert_eq!(&enc, want, "workers={workers}"),
            }
        }
    }

    #[test]
    fn dedup_index_reset_and_invalidate_disable_drops() {
        let s = space();
        let cfg = dedup_cfg();
        let mut scratch = CaptureScratch::new();
        let _ = capture_full_with(&s, 0, 0, SimTime::ZERO, &cfg, &mut scratch);
        assert_eq!(scratch.dedup_index().valid_pages(), s.mapped_pages());

        // Invalidate a range: those pages store whole again even though
        // their bytes are unchanged.
        scratch.dedup_index().invalidate(PageRange::new(0, 2));
        let dirty = vec![PageRange::new(0, 3)];
        let inc = capture_incremental_with(&s, 0, 1, 0, SimTime::ZERO, &dirty, &cfg, &mut scratch);
        assert_eq!(inc.payload_pages(), 2, "invalidated pages re-store");
        assert_eq!(inc.dropped_pages, 1, "still-valid page drops");

        scratch.dedup_index().reset();
        assert_eq!(scratch.dedup_index().valid_pages(), 0);
    }

    #[test]
    fn scratch_reuse_produces_identical_chunks() {
        let s = space();
        let dirty = vec![PageRange::new(0, 2), PageRange::new(4, 2)];
        let cfg = CaptureConfig { workers: 2, ..Default::default() };
        let mut scratch = CaptureScratch::new();
        let mut last: Option<Vec<u8>> = None;
        for _ in 0..3 {
            let c =
                capture_incremental_with(&s, 0, 2, 1, SimTime::ZERO, &dirty, &cfg, &mut scratch);
            let enc = scratch.encode_reusing(&c).to_vec();
            if let Some(prev) = &last {
                assert_eq!(&enc, prev, "recycled buffers changed the output");
            }
            last = Some(enc);
            scratch.recycle(c);
        }
    }
}
