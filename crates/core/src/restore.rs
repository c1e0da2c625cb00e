//! Rollback recovery: rebuild an address space from stable storage.
//!
//! "In the event of a failure, the application can be rolled-back from
//! the most recent checkpoint to restart the execution as if the fault
//! had never occurred" (§1). Restoring an incremental checkpoint walks
//! the chain: find the most recent **committed** generation (one with a
//! complete manifest), load that generation's chunk, follow parent
//! links back to the base full chunk. Mapping state (heap break, live
//! mmap blocks) comes from the newest chunk; the paper's memory
//! exclusion means pages absent from the final mapping are skipped.
//!
//! Two executions of that recovery exist:
//!
//! * [`restore_rank_sequential`] zeroes the restored mapping, then
//!   replays the chain base-to-newest so later pages overwrite earlier
//!   ones — O(chain × pages) writes. It is kept as the executable
//!   reference semantics the property suite compares against.
//! * [`restore_rank`] / [`restore_rank_with`] build a latest-wins
//!   [`RestorePlan`] and write each live page exactly once regardless
//!   of chain length or of what the destination held before. The chain
//!   is walked via CRC-free header peeks
//!   ([`ickpt_storage::peek_lineage`]) over buffers the store shares
//!   rather than copies out ([`StableStorage::read_chunk`]), then every
//!   fetched chunk is CRC-verified — in parallel, in byte-balanced
//!   groups — before a single page is applied. Plan execution cuts the
//!   plan into page-span shards, hands each shard its own disjoint
//!   `&mut [u8]` view of the arena ([`BackedSpace::page_spans_mut`])
//!   and fills the views on scoped threads (one shard, inline, for a
//!   serial restore), and the mapped pages no chunk stores are zeroed;
//!   no page is zeroed first and overwritten after. The restored image
//!   and digest are byte-identical to the sequential replay (see
//!   `tests/restore_props.rs`).

use ickpt_mem::{AddressSpace, BackedSpace, PageRange, PageSink};
use ickpt_obs::{Event, Lane, Recorder};
use ickpt_sim::SimTime;
use ickpt_storage::{
    peek_lineage, shard_segments, Chunk, ChunkBuf, ChunkKey, ChunkKind, ChunkView, DeltaBase,
    Manifest, PlanSegment, RestorePlan, SegmentSource, StableStorage, StorageError, BLOCK_SIZE,
    CHUNK_PAGE_SIZE,
};

use crate::error::CoreError;

/// How a planned restore executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreConfig {
    /// Verify/apply worker threads. 1 = serial. The restored image is
    /// byte-identical for every worker count.
    pub workers: usize,
    /// Below this many planned pages, plan application stays serial
    /// regardless of `workers` (thread spawn would cost more than the
    /// copy). Chunk CRC verification still parallelizes.
    pub parallel_threshold_pages: u64,
}

impl Default for RestoreConfig {
    fn default() -> Self {
        Self { workers: 1, parallel_threshold_pages: 2048 }
    }
}

impl RestoreConfig {
    /// Restore with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers: workers.max(1), ..Self::default() }
    }
}

/// What a restore did, for reporting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Generation restored to.
    pub generation: u64,
    /// Number of chunks in the applied chain (1 = full only).
    pub chain_length: usize,
    /// Pages written into the space. The planned path writes each live
    /// page once; the sequential reference also counts overwrites along
    /// the chain.
    pub pages_applied: u64,
    /// Pages skipped because the final mapping no longer contains them
    /// (memory exclusion at restore time).
    pub pages_excluded: u64,
    /// Stored pages the planner skipped because a newer generation
    /// overwrote them (always 0 for the sequential reference, which
    /// writes them and then overwrites).
    pub pages_superseded: u64,
    /// Total bytes read from stable storage.
    pub bytes_read: u64,
    /// Application state blob of the restored generation.
    pub app_state: Vec<u8>,
    /// Capture instant of the restored generation, in virtual ns.
    pub capture_time_ns: u64,
}

/// Record a finished restore on the flight recorder: one `Restore`
/// span on the rank lane covering `[started, finished]` in the
/// restoring process's virtual clock (rollback reads advance it via
/// the timed storage readers, so the span length is the virtual read
/// cost of the rollback).
pub fn record_restore(
    obs: &Recorder,
    rank: u32,
    started: SimTime,
    finished: SimTime,
    report: &RestoreReport,
) {
    obs.emit_span(
        Lane::Rank(rank),
        started,
        finished.saturating_sub(started),
        Event::Restore {
            generation: report.generation,
            chain: report.chain_length as u64,
            pages: report.pages_applied,
            bytes: report.bytes_read,
        },
    );
}

/// The newest generation with a complete committed manifest, if any.
pub fn latest_committed_generation(
    store: &dyn StableStorage,
    nranks: u32,
) -> Result<Option<u64>, CoreError> {
    let gens = store.list_manifests()?;
    for &g in gens.iter().rev() {
        let m = Manifest::decode(&store.get_manifest(g)?)?;
        if m.nranks == nranks && m.is_complete() {
            return Ok(Some(g));
        }
    }
    Ok(None)
}

/// Fetch the encoded chunk chain for `rank` ending at `generation`,
/// newest first, following parent links read from *unverified* header
/// peeks. The buffers are the store's own where it shares them
/// ([`StableStorage::read_chunk`]), so fetching copies nothing out of an
/// in-memory store. Returns the buffers plus the generation a
/// `NotFound` stopped the walk at, if any. CRC verification is deferred
/// to [`decode_chain`], so a corrupted chunk surfaces the same error the
/// sequential fetch-and-decode loop reports.
fn fetch_chain(
    store: &dyn StableStorage,
    rank: u32,
    generation: u64,
) -> Result<(Vec<ChunkBuf>, Option<u64>), CoreError> {
    let mut bufs: Vec<ChunkBuf> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut gen = generation;
    loop {
        if !seen.insert(gen) {
            // A parent cycle can only come from corruption the peek did
            // not see; the verify pass settles which error to report.
            break;
        }
        match store.read_chunk(ChunkKey::new(rank, gen)) {
            Ok(data) => {
                let lineage = peek_lineage(&data);
                bufs.push(data);
                match lineage {
                    Ok(l) => match (l.kind, l.parent) {
                        (ChunkKind::Full, _) => break,
                        (ChunkKind::Incremental, Some(p)) => gen = p,
                        // Full decode rejects this; stop the walk here.
                        (ChunkKind::Incremental, None) => break,
                    },
                    // Full decode reproduces the exact error.
                    Err(_) => break,
                }
            }
            Err(StorageError::NotFound(_)) => {
                return Ok((bufs, Some(gen)));
            }
            Err(other) => return Err(CoreError::Storage(other)),
        }
    }
    Ok((bufs, None))
}

/// Cut `bufs` into at most `workers` contiguous groups of about equal
/// total bytes. A chain is one large base plus many small increments,
/// so an equal *count* per worker would leave one worker most of the
/// bytes.
fn split_by_bytes(bufs: &[ChunkBuf], workers: usize) -> Vec<std::ops::Range<usize>> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let target = total.div_ceil(workers.max(1));
    let mut groups = Vec::with_capacity(workers);
    let (mut start, mut bytes) = (0, 0);
    for (i, buf) in bufs.iter().enumerate() {
        // Close the group before this buffer when that leaves it nearer
        // the target than taking the buffer would.
        if bytes > 0 && groups.len() + 1 < workers && bytes + buf.len() / 2 > target {
            groups.push(start..i);
            (start, bytes) = (i, 0);
        }
        bytes += buf.len();
    }
    groups.push(start..bufs.len());
    groups
}

/// CRC-verify and decode every fetched buffer (`bufs` newest first),
/// fanning the work across up to `workers` threads in byte-balanced
/// groups. Every buffer is verified whatever the others report; errors
/// are then reported in the order the sequential fetch-decode loop
/// would hit them: newest to base, decode failure before rank check per
/// chunk.
fn decode_chain<'a>(
    bufs: &'a [ChunkBuf],
    rank: u32,
    workers: usize,
) -> Result<Vec<ChunkView<'a>>, CoreError> {
    let decode_all = |part: &'a [ChunkBuf]| -> Vec<Result<ChunkView<'a>, StorageError>> {
        part.iter().map(|buf| ChunkView::decode(buf)).collect()
    };
    let decoded = if workers > 1 && bufs.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = split_by_bytes(bufs, workers)
                .into_iter()
                .map(|group| scope.spawn(move || decode_all(&bufs[group])))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("chunk verify worker panicked"))
                .collect()
        })
    } else {
        decode_all(bufs)
    };
    let mut views = Vec::with_capacity(bufs.len());
    for result in decoded {
        let view = result?;
        if view.rank != rank {
            return Err(CoreError::RankMismatch { expected: rank, found: view.rank });
        }
        views.push(view);
    }
    Ok(views)
}

/// Restore `rank`'s state at `generation` into `space` with the default
/// (serial) planned execution. The space must have the same layout the
/// checkpoint was taken from.
pub fn restore_rank(
    store: &dyn StableStorage,
    rank: u32,
    generation: u64,
    space: &mut BackedSpace,
) -> Result<RestoreReport, CoreError> {
    restore_rank_with(store, rank, generation, space, &RestoreConfig::default())
}

/// Plan-driven restore: fetch the chain via header peeks, CRC-verify
/// every chunk (in parallel), build a latest-wins [`RestorePlan`] and
/// execute it — each live page is read, decoded and written exactly
/// once, no matter how long the chain is. Mapped pages no chunk of the
/// chain stored (mapped after the base, never written) are zeroed;
/// nothing is zeroed only to be overwritten, so `space` may hold any
/// earlier image's bytes on entry.
pub fn restore_rank_with(
    store: &dyn StableStorage,
    rank: u32,
    generation: u64,
    space: &mut BackedSpace,
    cfg: &RestoreConfig,
) -> Result<RestoreReport, CoreError> {
    let (bufs, missing) = fetch_chain(store, rank, generation)?;
    let bytes_read: u64 = bufs.iter().map(|b| b.len() as u64).sum();
    // Verify before reporting a broken chain so a corrupted chunk fails
    // exactly like the sequential decode-as-you-fetch loop.
    let mut views = decode_chain(&bufs, rank, cfg.workers)?;
    if let Some(missing_generation) = missing {
        return Err(CoreError::BrokenChain { rank, missing_generation });
    }
    if views.last().map(|v| v.kind) != Some(ChunkKind::Full) {
        return Err(CoreError::Storage(StorageError::Corrupt(
            "checkpoint chain never reaches a full chunk (parent cycle)".into(),
        )));
    }
    views.reverse(); // base first, the planner's chain order
    let newest = views.last().expect("chain is non-empty");
    let app_state = newest.app_state.to_vec();
    let capture_time_ns = newest.capture_time_ns;
    let chain_length = views.len();

    let mmap_live: Vec<PageRange> =
        newest.mmap_blocks.iter().map(|&(s, l)| PageRange::new(s, l)).collect();
    let heap_pages = newest.heap_pages;
    space.restore_mapping_state(heap_pages, &mmap_live)?;

    let plan = {
        let space_ro: &BackedSpace = space;
        let keep = |page: u64| space_ro.is_mapped(page);
        RestorePlan::build(&views, Some(&keep))
    };

    // The planned pages are written below; the rest of the mapping must
    // read as zeros, like the freshly mapped memory it was at capture.
    space.zero_mapped_outside(
        plan.segments.iter().map(|seg| PageRange::new(seg.start_page, seg.pages)),
    );

    // One covering span per shard: shards are contiguous runs of the
    // sorted, disjoint segments, so the spans ascend without overlap
    // and each shard writes only its own view. Every planned page is
    // mapped (the keep predicate), so the spans lie inside the arena.
    let workers = if plan.applied_pages() < cfg.parallel_threshold_pages { 1 } else { cfg.workers };
    let (shards, spans): (Vec<Vec<PlanSegment>>, Vec<PageRange>) =
        shard_segments(&plan.segments, workers)
            .into_iter()
            .filter_map(|shard| {
                let (first, last) = (shard.first()?, shard.last()?);
                let span = PageRange::new(
                    first.start_page,
                    last.start_page + last.pages - first.start_page,
                );
                Some((shard, span))
            })
            .unzip();
    let apply = |shard: &[PlanSegment], base_page: u64, view: &mut [u8]| {
        let mut page_buf = [0u8; CHUNK_PAGE_SIZE];
        for seg in shard {
            let at = (seg.start_page - base_page) as usize * CHUNK_PAGE_SIZE;
            let dst = &mut view[at..at + seg.pages as usize * CHUNK_PAGE_SIZE];
            match seg.source {
                SegmentSource::Zero => dst.fill(0),
                SegmentSource::Record { rec, rec_page_offset } => dst.copy_from_slice(
                    views[seg.chunk].record_pages(rec, rec_page_offset, seg.pages),
                ),
                SegmentSource::Delta { rec, base } => {
                    // Materialize the base page (an older whole record
                    // or a zero run — the alternation rule guarantees
                    // depth one), then overlay the changed blocks.
                    match base {
                        DeltaBase::Zero => page_buf.fill(0),
                        DeltaBase::Record { chunk, rec: brec, rec_page_offset } => {
                            page_buf.copy_from_slice(views[chunk].record_pages(
                                brec,
                                rec_page_offset,
                                1,
                            ));
                        }
                    }
                    let dref = &views[seg.chunk].delta_records[rec];
                    let data = views[seg.chunk].delta_data(rec);
                    let mut off = 0usize;
                    for b in 0..ickpt_storage::BLOCKS_PER_PAGE {
                        if dref.mask & (1 << b) != 0 {
                            page_buf[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE]
                                .copy_from_slice(&data[off..off + BLOCK_SIZE]);
                            off += BLOCK_SIZE;
                        }
                    }
                    dst.copy_from_slice(&page_buf);
                }
            }
        }
    };
    let work = shards.iter().zip(&spans).zip(space.page_spans_mut(&spans));
    if spans.len() <= 1 {
        work.for_each(|((shard, span), view)| apply(shard, span.start, view));
    } else {
        let apply = &apply;
        std::thread::scope(|scope| {
            for ((shard, span), view) in work {
                scope.spawn(move || apply(shard, span.start, view));
            }
        });
    }

    Ok(RestoreReport {
        generation,
        chain_length,
        pages_applied: plan.applied_pages(),
        pages_excluded: plan.excluded_pages,
        pages_superseded: plan.superseded_pages,
        bytes_read,
        app_state,
        capture_time_ns,
    })
}

/// Load the chunk chain for `rank` ending at `generation`: base first.
fn load_chain(
    store: &dyn StableStorage,
    rank: u32,
    generation: u64,
) -> Result<(Vec<Chunk>, u64), CoreError> {
    let mut chain = Vec::new();
    let mut bytes_read = 0u64;
    let mut gen = generation;
    loop {
        let data = store.get_chunk(ChunkKey::new(rank, gen)).map_err(|e| match e {
            StorageError::NotFound(_) => CoreError::BrokenChain { rank, missing_generation: gen },
            other => CoreError::Storage(other),
        })?;
        bytes_read += data.len() as u64;
        let chunk = Chunk::decode(&data)?;
        if chunk.rank != rank {
            return Err(CoreError::RankMismatch { expected: rank, found: chunk.rank });
        }
        let parent = chunk.parent;
        let kind = chunk.kind;
        chain.push(chunk);
        match (kind, parent) {
            (ChunkKind::Full, _) => break,
            (ChunkKind::Incremental, Some(p)) => gen = p,
            (ChunkKind::Incremental, None) => unreachable!("decode enforces lineage"),
        }
    }
    chain.reverse();
    Ok((chain, bytes_read))
}

/// Reference restore semantics: replay the chain base-to-newest so
/// later pages overwrite earlier ones — O(chain × pages). The planned
/// path must be byte-identical to this; the property suite enforces it.
pub fn restore_rank_sequential(
    store: &dyn StableStorage,
    rank: u32,
    generation: u64,
    space: &mut BackedSpace,
) -> Result<RestoreReport, CoreError> {
    let (chain, bytes_read) = load_chain(store, rank, generation)?;
    let newest = chain.last().expect("chain is non-empty");
    let app_state = newest.app_state.clone();
    let capture_time_ns = newest.capture_time_ns;

    // Rebuild mapping state from the newest chunk, every mapped page
    // zero before the replay.
    let mmap_live: Vec<PageRange> =
        newest.mmap_blocks.iter().map(|&(s, l)| PageRange::new(s, l)).collect();
    space.restore_mapping_state(newest.heap_pages, &mmap_live)?;
    space.zero_mapped_outside([]);

    // Apply base-to-newest; skip pages outside the final mapping.
    let mut pages_applied = 0u64;
    let mut pages_excluded = 0u64;
    let zero_page = vec![0u8; CHUNK_PAGE_SIZE];
    for chunk in &chain {
        for &(start, len) in &chunk.zero_ranges {
            for page in start..start + len {
                if ickpt_mem::AddressSpace::is_mapped(space, page) {
                    space.write_page_data(page, &zero_page)?;
                    pages_applied += 1;
                } else {
                    pages_excluded += 1;
                }
            }
        }
        for rec in &chunk.records {
            for (i, page_bytes) in rec.data.chunks_exact(CHUNK_PAGE_SIZE).enumerate() {
                let page = rec.start_page + i as u64;
                if ickpt_mem::AddressSpace::is_mapped(space, page) {
                    space.write_page_data(page, page_bytes)?;
                    pages_applied += 1;
                } else {
                    pages_excluded += 1;
                }
            }
        }
        // Delta records patch the page the chain has built so far (the
        // base was applied by an older chunk in a previous iteration).
        for delta in &chunk.delta_records {
            if ickpt_mem::AddressSpace::is_mapped(space, delta.page) {
                let mut page_buf = [0u8; CHUNK_PAGE_SIZE];
                page_buf.copy_from_slice(
                    ickpt_mem::PageSource::read_page(space, delta.page)
                        .expect("mapped page is readable"),
                );
                for (b, block) in delta.blocks() {
                    page_buf[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE].copy_from_slice(block);
                }
                space.write_page_data(delta.page, &page_buf)?;
                pages_applied += 1;
            } else {
                pages_excluded += 1;
            }
        }
    }
    Ok(RestoreReport {
        generation,
        chain_length: chain.len(),
        pages_applied,
        pages_excluded,
        pages_superseded: 0,
        bytes_read,
        app_state,
        capture_time_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{capture_full, capture_incremental};
    use ickpt_mem::{AddressSpace, LayoutBuilder, PAGE_SIZE};
    use ickpt_sim::SimTime;
    use ickpt_storage::{ChunkKind as CK, MemStore, RankEntry};

    fn layout() -> ickpt_mem::DataLayout {
        LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(8 * PAGE_SIZE)
            .mmap_capacity_bytes(8 * PAGE_SIZE)
            .build()
    }

    fn put(store: &MemStore, chunk: &Chunk) {
        store.put_chunk(ChunkKey::new(chunk.rank, chunk.generation), &chunk.encode()).unwrap();
    }

    #[test]
    fn full_checkpoint_roundtrip_restores_exact_state() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(3).unwrap();
        s.mmap(2).unwrap();
        for r in s.mapped_ranges() {
            for p in r.iter() {
                s.fill_page(p, 1000 + p).unwrap();
            }
        }
        let digest = s.content_digest();
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));

        let mut fresh = BackedSpace::new(layout());
        let report = restore_rank(&store, 0, 0, &mut fresh).unwrap();
        assert_eq!(report.chain_length, 1);
        assert_eq!(report.pages_applied, s.mapped_pages());
        assert_eq!(report.pages_excluded, 0);
        assert_eq!(report.pages_superseded, 0);
        assert_eq!(fresh.content_digest(), digest);
        assert_eq!(fresh.mapped_ranges(), s.mapped_ranges());
    }

    #[test]
    fn incremental_chain_equals_final_state() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(4).unwrap();
        for p in 0..8 {
            s.fill_page(p, p).unwrap();
        }
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));

        // Mutate some pages, take an increment.
        s.fill_page(1, 77).unwrap();
        s.fill_page(5, 88).unwrap();
        put(
            &store,
            &capture_incremental(
                &s,
                0,
                1,
                0,
                SimTime::from_secs(1),
                &[PageRange::new(1, 1), PageRange::new(5, 1)],
            ),
        );

        // Mutate again, second increment.
        s.fill_page(1, 99).unwrap();
        put(
            &store,
            &capture_incremental(&s, 0, 2, 1, SimTime::from_secs(2), &[PageRange::new(1, 1)]),
        );
        let final_digest = s.content_digest();

        let mut fresh = BackedSpace::new(layout());
        let report = restore_rank(&store, 0, 2, &mut fresh).unwrap();
        assert_eq!(report.chain_length, 3);
        assert_eq!(
            report.pages_superseded, 3,
            "base's pages 1 and 5 plus g1's page 1 are shadowed by newer records"
        );
        assert_eq!(fresh.content_digest(), final_digest);
    }

    #[test]
    fn planned_and_sequential_reports_agree_on_live_set() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(4).unwrap();
        for p in 0..8 {
            s.fill_page(p, p).unwrap();
        }
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));
        s.fill_page(2, 7).unwrap();
        put(&store, &capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[PageRange::new(2, 1)]));

        let mut a = BackedSpace::new(layout());
        let planned = restore_rank(&store, 0, 1, &mut a).unwrap();
        let mut b = BackedSpace::new(layout());
        let sequential = restore_rank_sequential(&store, 0, 1, &mut b).unwrap();
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(planned.app_state, sequential.app_state);
        assert_eq!(planned.capture_time_ns, sequential.capture_time_ns);
        assert_eq!(planned.bytes_read, sequential.bytes_read);
        // Planner writes each page once; the replay re-writes page 2.
        assert_eq!(planned.pages_applied, s.mapped_pages());
        assert_eq!(sequential.pages_applied, s.mapped_pages() + 1);
    }

    #[test]
    fn parallel_restore_matches_serial() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(6).unwrap();
        s.mmap(3).unwrap();
        for r in s.mapped_ranges() {
            for p in r.iter() {
                s.fill_page(p, 31 * p + 5).unwrap();
            }
        }
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));
        s.fill_page(4, 1234).unwrap();
        put(&store, &capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[PageRange::new(4, 1)]));
        let digest = s.content_digest();

        for workers in [1, 2, 8] {
            let cfg = RestoreConfig { workers, parallel_threshold_pages: 0 };
            let mut fresh = BackedSpace::new(layout());
            let report = restore_rank_with(&store, 0, 1, &mut fresh, &cfg).unwrap();
            assert_eq!(fresh.content_digest(), digest, "workers={workers}");
            assert_eq!(report.pages_applied, s.mapped_pages(), "workers={workers}");
        }
    }

    #[test]
    fn verify_groups_balance_bytes_not_chunk_counts() {
        let bufs = |lens: &[usize]| -> Vec<ChunkBuf> {
            lens.iter().map(|&n| ChunkBuf::from(vec![0u8; n])).collect()
        };
        // Newest first: sixteen small increments, then the large base.
        let mut lens = vec![32usize; 16];
        lens.push(240);
        let chain = bufs(&lens);
        assert_eq!(split_by_bytes(&chain, 2), vec![0..12, 12..17]);
        assert_eq!(split_by_bytes(&chain, 1), vec![0..17]);
        let eight = split_by_bytes(&chain, 8);
        assert_eq!(eight.last(), Some(&(16..17)), "the base gets a worker to itself");
        // A base dwarfing its increments is cut off from them.
        assert_eq!(split_by_bytes(&bufs(&[4, 4, 4, 160]), 2), vec![0..3, 3..4]);
        // Any split is a contiguous cover in at most `workers` groups.
        for workers in 1..=10 {
            for lens in [&lens[..], &[5], &[1, 1, 1], &[100, 1, 1, 1, 100], &[0, 0, 7]] {
                let groups = split_by_bytes(&bufs(lens), workers);
                assert!(groups.len() <= workers && groups.iter().all(|g| !g.is_empty()));
                assert_eq!(groups.first().map(|g| g.start), Some(0));
                assert_eq!(groups.last().map(|g| g.end), Some(lens.len()));
                assert!(groups.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }

    #[test]
    fn restore_to_intermediate_generation() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(1).unwrap();
        s.fill_page(0, 1).unwrap();
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));
        let digest_g0 = s.content_digest();

        s.fill_page(0, 2).unwrap();
        put(&store, &capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[PageRange::new(0, 1)]));

        let mut fresh = BackedSpace::new(layout());
        restore_rank(&store, 0, 0, &mut fresh).unwrap();
        assert_eq!(fresh.content_digest(), digest_g0, "older generation still restorable");
    }

    #[test]
    fn broken_chain_is_detected() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(1).unwrap();
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));
        put(&store, &capture_incremental(&s, 0, 2, 1, SimTime::ZERO, &[]));
        // Generation 1 (the parent) was never stored.
        let mut fresh = BackedSpace::new(layout());
        match restore_rank(&store, 0, 2, &mut fresh) {
            Err(CoreError::BrokenChain { missing_generation: 1, .. }) => {}
            other => panic!("expected BrokenChain, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_chunk_fails_like_sequential() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(2).unwrap();
        s.fill_page(4, 9).unwrap();
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));
        s.fill_page(4, 10).unwrap();
        put(&store, &capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[PageRange::new(4, 1)]));
        // Flip a payload byte in the base chunk: CRC must catch it.
        let mut data = store.get_chunk(ChunkKey::new(0, 0)).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        store.put_chunk(ChunkKey::new(0, 0), &data).unwrap();

        let mut a = BackedSpace::new(layout());
        let planned = restore_rank(&store, 0, 1, &mut a).unwrap_err();
        let mut b = BackedSpace::new(layout());
        let sequential = restore_rank_sequential(&store, 0, 1, &mut b).unwrap_err();
        assert_eq!(planned.to_string(), sequential.to_string());
        assert!(planned.to_string().contains("CRC mismatch"), "got: {planned}");
    }

    #[test]
    fn exclusion_skips_pages_unmapped_in_final_state() {
        let mut s = BackedSpace::new(layout());
        s.heap_grow(4).unwrap();
        let store = MemStore::new();
        put(&store, &capture_full(&s, 0, 0, SimTime::ZERO));
        // Shrink the heap, then take an increment: the final mapping
        // has only 1 heap page.
        s.heap_shrink(3).unwrap();
        put(&store, &capture_incremental(&s, 0, 1, 0, SimTime::ZERO, &[]));

        let mut fresh = BackedSpace::new(layout());
        let report = restore_rank(&store, 0, 1, &mut fresh).unwrap();
        assert_eq!(fresh.heap_pages(), 1);
        assert_eq!(report.pages_excluded, 3, "base pages beyond the new break skipped");
        assert_eq!(fresh.content_digest(), s.content_digest());
    }

    #[test]
    fn latest_committed_generation_requires_complete_manifest() {
        let store = MemStore::new();
        assert_eq!(latest_committed_generation(&store, 2).unwrap(), None);
        let complete = Manifest {
            generation: 1,
            commit_time_ns: 0,
            nranks: 2,
            entries: vec![
                RankEntry { rank: 0, kind: CK::Full, parent: None, payload_bytes: 0 },
                RankEntry { rank: 1, kind: CK::Full, parent: None, payload_bytes: 0 },
            ],
        };
        let incomplete = Manifest {
            generation: 2,
            commit_time_ns: 0,
            nranks: 2,
            entries: vec![RankEntry { rank: 0, kind: CK::Full, parent: None, payload_bytes: 0 }],
        };
        store.put_manifest(1, &complete.encode()).unwrap();
        store.put_manifest(2, &incomplete.encode()).unwrap();
        assert_eq!(
            latest_committed_generation(&store, 2).unwrap(),
            Some(1),
            "incomplete newer manifest ignored"
        );
        // Wrong nranks also ignored.
        assert_eq!(latest_committed_generation(&store, 3).unwrap(), None);
    }
}
