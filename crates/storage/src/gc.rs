//! Checkpoint-chain merging and compaction.
//!
//! Incremental checkpointing trades write bandwidth (the paper's IB,
//! which it shows is small) for restore complexity: recovery must apply
//! a base snapshot plus every increment since. Left unchecked the chain
//! grows without bound, so production systems periodically *compact*:
//! merge the chain into a fresh base and drop the history. The paper
//! leaves this engineering to future systems; we implement it because a
//! usable library needs it, and the `chain_length` ablation bench
//! quantifies the restore-cost trade-off.
//!
//! Compaction executes a [`RestorePlan`]: the chain is walked once,
//! each live page is copied once from the single newest record that
//! contains it, and elided zero runs stay elided in the merged base
//! (they are re-emitted as `zero_ranges`, not materialized as 4 KiB of
//! zero content).

use crate::chunk::{Chunk, ChunkKind, PageRecord, CHUNK_PAGE_SIZE};
use crate::plan::{DeltaBase, PlanSegment, RestorePlan, SegmentSource};
use crate::store::{ChunkKey, StableStorage, StorageError};

/// Merge an ordered checkpoint chain (base full chunk first, then each
/// increment in generation order) into a single full chunk carrying the
/// newest mapping state and the latest version of every page.
///
/// `keep` filters pages into the merged result; pass the mapped-state
/// predicate of the final generation to apply the paper's memory
/// exclusion (§4.2) during compaction, or `None` to keep everything.
pub fn merge_chain(chunks: &[Chunk], keep: Option<&dyn Fn(u64) -> bool>) -> Chunk {
    assert!(!chunks.is_empty(), "cannot merge an empty chain");
    assert_eq!(chunks[0].kind, ChunkKind::Full, "chain must start with a full chunk");
    for w in chunks.windows(2) {
        assert_eq!(w[1].kind, ChunkKind::Incremental, "only the first chunk may be full");
        assert_eq!(
            w[1].parent,
            Some(w[0].generation),
            "chain generations must be contiguous parent links"
        );
        assert_eq!(w[0].rank, w[1].rank, "chain must belong to one rank");
    }

    // One planning walk assigns each live page to the newest record
    // that contains it. A run of page-adjacent segments of one kind
    // becomes one merged record (or zero range), sized once from the
    // run's page count and filled segment by segment, so each live page
    // is copied exactly once.
    let plan = RestorePlan::build(chunks, keep);
    let is_zero = |seg: &PlanSegment| matches!(seg.source, SegmentSource::Zero);
    let mut records: Vec<PageRecord> = Vec::new();
    let mut zero_ranges: Vec<(u64, u64)> = Vec::new();
    for run in plan
        .segments
        .chunk_by(|a, b| a.start_page + a.pages == b.start_page && is_zero(a) == is_zero(b))
    {
        let start_page = run[0].start_page;
        let pages: u64 = run.iter().map(|seg| seg.pages).sum();
        if is_zero(&run[0]) {
            zero_ranges.push((start_page, pages));
            continue;
        }
        let mut data = Vec::with_capacity(pages as usize * CHUNK_PAGE_SIZE);
        for seg in run {
            match seg.source {
                SegmentSource::Zero => unreachable!("runs are of one kind"),
                SegmentSource::Record { rec, rec_page_offset } => data.extend_from_slice(
                    &chunks[seg.chunk].records[rec].data
                        [rec_page_offset as usize * CHUNK_PAGE_SIZE..]
                        [..seg.pages as usize * CHUNK_PAGE_SIZE],
                ),
                // A delta-encoded page is materialized whole into the
                // merged base: unchanged blocks from its base page,
                // changed blocks overlaid from the delta record. Merged
                // chains therefore carry no delta records at all.
                SegmentSource::Delta { rec, base } => {
                    let mut page = [0u8; CHUNK_PAGE_SIZE];
                    if let DeltaBase::Record { chunk, rec: brec, rec_page_offset } = base {
                        page.copy_from_slice(
                            &chunks[chunk].records[brec].data
                                [rec_page_offset as usize * CHUNK_PAGE_SIZE..][..CHUNK_PAGE_SIZE],
                        );
                    }
                    for (block, bytes) in chunks[seg.chunk].delta_records[rec].blocks() {
                        let off = block * crate::hash::BLOCK_SIZE;
                        page[off..off + crate::hash::BLOCK_SIZE].copy_from_slice(bytes);
                    }
                    data.extend_from_slice(&page);
                }
            }
        }
        records.push(PageRecord { start_page, data });
    }

    let newest = chunks.last().unwrap();
    Chunk {
        kind: ChunkKind::Full,
        rank: newest.rank,
        generation: newest.generation,
        parent: None,
        capture_time_ns: newest.capture_time_ns,
        heap_pages: newest.heap_pages,
        mmap_blocks: newest.mmap_blocks.clone(),
        zero_ranges,
        records,
        delta_records: vec![],
        // Content-layer accounting survives compaction: the merged
        // base remembers how many silent-same pages the chain dropped.
        dropped_pages: chunks.iter().map(|c| c.dropped_pages).sum(),
        app_state: newest.app_state.clone(),
    }
}

/// Compact one rank's chain ending at `upto_gen` in `store`: replaces
/// the chunk at `upto_gen` with the merged full chunk and deletes the
/// superseded older generations. Returns the list of deleted
/// generations.
pub fn compact_rank_chain(
    store: &dyn StableStorage,
    rank: u32,
    chain_gens: &[u64],
    keep: Option<&dyn Fn(u64) -> bool>,
) -> Result<Vec<u64>, StorageError> {
    assert!(!chain_gens.is_empty());
    let mut chunks = Vec::with_capacity(chain_gens.len());
    for &g in chain_gens {
        let data = store.read_chunk(ChunkKey::new(rank, g))?;
        chunks.push(Chunk::decode(&data)?);
    }
    let merged = merge_chain(&chunks, keep);
    let upto = *chain_gens.last().unwrap();
    store.store_chunk(ChunkKey::new(rank, upto), merged.encode().into())?;
    let mut deleted = Vec::new();
    for &g in &chain_gens[..chain_gens.len() - 1] {
        store.delete_chunk(ChunkKey::new(rank, g))?;
        deleted.push(g);
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn page(byte: u8) -> Vec<u8> {
        vec![byte; CHUNK_PAGE_SIZE]
    }

    fn full(rank: u32, generation: u64, recs: Vec<(u64, Vec<u8>)>) -> Chunk {
        Chunk {
            kind: ChunkKind::Full,
            rank,
            generation,
            parent: None,
            capture_time_ns: generation * 10,
            heap_pages: 8,
            mmap_blocks: vec![],
            zero_ranges: vec![],
            records: recs
                .into_iter()
                .map(|(start_page, data)| PageRecord { start_page, data })
                .collect(),
            delta_records: vec![],
            dropped_pages: 0,
            app_state: vec![generation as u8],
        }
    }

    fn incr(rank: u32, generation: u64, parent: u64, recs: Vec<(u64, Vec<u8>)>) -> Chunk {
        Chunk { kind: ChunkKind::Incremental, parent: Some(parent), ..full(rank, generation, recs) }
    }

    #[test]
    fn later_pages_win() {
        let base = full(0, 1, vec![(0, [page(1), page(2)].concat())]);
        let inc = incr(0, 2, 1, vec![(1, page(9))]);
        let merged = merge_chain(&[base, inc], None);
        assert_eq!(merged.kind, ChunkKind::Full);
        assert_eq!(merged.generation, 2);
        assert_eq!(merged.payload_pages(), 2);
        // One coalesced record with page 0 = old, page 1 = new.
        assert_eq!(merged.records.len(), 1);
        assert_eq!(merged.records[0].data[..CHUNK_PAGE_SIZE], page(1)[..]);
        assert_eq!(merged.records[0].data[CHUNK_PAGE_SIZE..], page(9)[..]);
    }

    #[test]
    fn increments_add_new_pages_and_records_coalesce() {
        let base = full(0, 1, vec![(0, page(1))]);
        let inc1 = incr(0, 2, 1, vec![(2, page(2))]);
        let inc2 = incr(0, 3, 2, vec![(1, page(3))]);
        let merged = merge_chain(&[base, inc1, inc2], None);
        assert_eq!(merged.payload_pages(), 3);
        assert_eq!(merged.records.len(), 1, "pages 0,1,2 coalesce");
    }

    #[test]
    fn keep_filter_applies_memory_exclusion() {
        let base = full(0, 1, vec![(0, [page(1), page(2), page(3)].concat())]);
        let keep = |p: u64| p != 1;
        let merged = merge_chain(&[base], Some(&keep));
        assert_eq!(merged.payload_pages(), 2);
        assert_eq!(merged.records.len(), 2, "hole splits the record");
        assert_eq!(merged.records[0].start_page, 0);
        assert_eq!(merged.records[1].start_page, 2);
    }

    #[test]
    fn zero_runs_stay_elided_through_merge() {
        // Base: content at 0..2, elided zeros at 4..7. Increment
        // overwrites zero page 5 with content and zeroes page 1.
        let mut base = full(0, 1, vec![(0, [page(1), page(2)].concat())]);
        base.zero_ranges = vec![(4, 3)];
        let mut inc = incr(0, 2, 1, vec![(5, page(9))]);
        inc.zero_ranges = vec![(1, 1)];
        let merged = merge_chain(&[base, inc], None);
        assert_eq!(merged.payload_pages(), 2, "only pages 0 and 5 are content");
        assert_eq!(
            merged.zero_ranges,
            vec![(1, 1), (4, 1), (6, 1)],
            "zeros stay elided, split around the overwritten page"
        );
        assert_eq!(merged.records[0].start_page, 0);
        assert_eq!(merged.records[1].start_page, 5);
        assert_eq!(merged.records[1].data, page(9));
    }

    #[test]
    fn delta_pages_materialize_through_merge() {
        use crate::chunk::DeltaRecord;
        use crate::hash::BLOCK_SIZE;
        // Base stores page 0 whole and elides zero page 2; an increment
        // delta-encodes block 1 of page 0 and block 0 of zero page 2.
        let mut base = full(0, 1, vec![(0, page(1))]);
        base.zero_ranges = vec![(2, 1)];
        let mut inc = incr(0, 2, 1, vec![]);
        inc.delta_records = vec![
            DeltaRecord { page: 0, mask: 0b10, data: vec![7; BLOCK_SIZE] },
            DeltaRecord { page: 2, mask: 0b01, data: vec![9; BLOCK_SIZE] },
        ];
        inc.dropped_pages = 3;
        let merged = merge_chain(&[base, inc], None);
        assert!(merged.delta_records.is_empty(), "merged base stores pages whole");
        assert_eq!(merged.payload_pages(), 2);
        assert_eq!(merged.dropped_pages, 3, "content accounting survives compaction");
        let p0 = &merged.records[0].data[..CHUNK_PAGE_SIZE];
        assert!(p0[..BLOCK_SIZE].iter().all(|&b| b == 1), "unchanged block from base");
        assert!(p0[BLOCK_SIZE..2 * BLOCK_SIZE].iter().all(|&b| b == 7), "changed block");
        assert!(p0[2 * BLOCK_SIZE..].iter().all(|&b| b == 1));
        let rec2 = merged.records.iter().find(|r| r.start_page == 2).unwrap();
        assert!(rec2.data[..BLOCK_SIZE].iter().all(|&b| b == 9), "changed block over zero");
        assert!(rec2.data[BLOCK_SIZE..].iter().all(|&b| b == 0), "zero base preserved");
        assert!(merged.zero_ranges.is_empty(), "page 2 became content");
        // A merged chain must round-trip and re-merge cleanly.
        let again = merge_chain(std::slice::from_ref(&merged), None);
        assert_eq!(again.records, merged.records);
    }

    #[test]
    #[should_panic(expected = "chain must start with a full chunk")]
    fn chain_must_start_full() {
        let inc = incr(0, 2, 1, vec![]);
        merge_chain(&[inc], None);
    }

    #[test]
    #[should_panic(expected = "contiguous parent links")]
    fn chain_links_must_be_contiguous() {
        let base = full(0, 1, vec![]);
        let inc = incr(0, 5, 3, vec![]);
        merge_chain(&[base, inc], None);
    }

    #[test]
    fn compaction_in_store_roundtrip() {
        let store = MemStore::new();
        let base = full(7, 1, vec![(0, page(1))]);
        let inc = incr(7, 2, 1, vec![(0, page(5)), (4, page(6))]);
        store.put_chunk(ChunkKey::new(7, 1), &base.encode()).unwrap();
        store.put_chunk(ChunkKey::new(7, 2), &inc.encode()).unwrap();

        let deleted = compact_rank_chain(&store, 7, &[1, 2], None).unwrap();
        assert_eq!(deleted, vec![1]);
        assert!(store.get_chunk(ChunkKey::new(7, 1)).is_err());
        let merged = Chunk::decode(&store.get_chunk(ChunkKey::new(7, 2)).unwrap()).unwrap();
        assert_eq!(merged.kind, ChunkKind::Full);
        assert_eq!(merged.payload_pages(), 2);
        assert_eq!(merged.records[0].data[..CHUNK_PAGE_SIZE], page(5)[..]);
    }

    #[test]
    fn mapping_state_comes_from_newest() {
        let mut base = full(0, 1, vec![]);
        base.heap_pages = 4;
        let mut inc = incr(0, 2, 1, vec![]);
        inc.heap_pages = 12;
        inc.mmap_blocks = vec![(50, 2)];
        let merged = merge_chain(&[base, inc], None);
        assert_eq!(merged.heap_pages, 12);
        assert_eq!(merged.mmap_blocks, vec![(50, 2)]);
    }
}
