//! First-fit `mmap`/`munmap` arena with coalescing free list.
//!
//! The paper's instrumentation library intercepts `mmap` and `munmap` to
//! keep track of the boundaries and size of dynamically mapped memory
//! (§4.1); Sage allocates and deallocates a large share of its data this
//! way. We model the kernel's mmap area as a page arena with a first-fit
//! allocator: live mappings are remembered so the tracker can exclude
//! unmapped pages from checkpoints (§4.2, memory exclusion), and free
//! blocks coalesce so fragmentation stays bounded under Sage's
//! alloc/free churn.

use std::collections::BTreeMap;

use crate::error::MemError;
use crate::page::PageRange;

/// An mmap arena covering a fixed page range.
#[derive(Debug, Clone)]
pub(crate) struct MmapArea {
    region: PageRange,
    /// Free blocks keyed by start page (BTreeMap gives us neighbor
    /// lookups for coalescing).
    free: BTreeMap<u64, u64>,
    /// Live mappings keyed by start page.
    live: BTreeMap<u64, u64>,
    mapped_pages: u64,
}

impl MmapArea {
    /// A fully free arena covering `region`.
    pub(crate) fn new(region: PageRange) -> Self {
        let mut free = BTreeMap::new();
        if !region.is_empty() {
            free.insert(region.start, region.len);
        }
        Self { region, free, live: BTreeMap::new(), mapped_pages: 0 }
    }

    /// Total pages currently mapped.
    #[inline]
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Total free pages (may be fragmented).
    #[inline]
    pub(crate) fn free_pages(&self) -> u64 {
        self.region.len - self.mapped_pages
    }

    /// Map `pages` pages (`mmap`), first-fit. Returns the new mapping.
    pub(crate) fn map(&mut self, pages: u64) -> Result<PageRange, MemError> {
        assert!(pages > 0, "mmap of zero pages");
        let found =
            self.free.iter().find(|(_, &len)| len >= pages).map(|(&start, &len)| (start, len));
        let (start, len) = found.ok_or(MemError::MmapExhausted {
            requested_pages: pages,
            free_pages: self.free_pages(),
        })?;
        self.free.remove(&start);
        if len > pages {
            self.free.insert(start + pages, len - pages);
        }
        self.live.insert(start, pages);
        self.mapped_pages += pages;
        Ok(PageRange::new(start, pages))
    }

    /// Map the exact `range` (`mmap` with `MAP_FIXED`): used by restore
    /// to recreate a checkpointed layout, holes and all. Fails if any
    /// page of the range is not free.
    pub(crate) fn map_fixed(&mut self, range: PageRange) -> Result<(), MemError> {
        assert!(!range.is_empty(), "map_fixed of empty range");
        // Find the free block containing the range start.
        let (&fstart, &flen) =
            self.free.range(..=range.start).next_back().ok_or(MemError::MmapExhausted {
                requested_pages: range.len,
                free_pages: self.free_pages(),
            })?;
        let fblock = PageRange::new(fstart, flen);
        if !(fblock.contains(range.start) && range.end() <= fblock.end()) {
            return Err(MemError::MmapExhausted {
                requested_pages: range.len,
                free_pages: self.free_pages(),
            });
        }
        self.free.remove(&fstart);
        if range.start > fstart {
            self.free.insert(fstart, range.start - fstart);
        }
        if fblock.end() > range.end() {
            self.free.insert(range.end(), fblock.end() - range.end());
        }
        self.live.insert(range.start, range.len);
        self.mapped_pages += range.len;
        Ok(())
    }

    /// Unmap a previously returned mapping (`munmap`). The range must
    /// match a live mapping exactly, as the interception layer tracks
    /// whole mappings.
    pub(crate) fn unmap(&mut self, range: PageRange) -> Result<(), MemError> {
        match self.live.get(&range.start) {
            Some(&len) if len == range.len => {}
            _ => return Err(MemError::BadUnmap { range_start: range.start }),
        }
        self.live.remove(&range.start);
        self.mapped_pages -= range.len;
        self.insert_free(range.start, range.len);
        Ok(())
    }

    /// Insert a free block, coalescing with adjacent free neighbors.
    fn insert_free(&mut self, mut start: u64, mut len: u64) {
        // Coalesce with the predecessor if it ends exactly at `start`.
        if let Some((&pstart, &plen)) = self.free.range(..start).next_back() {
            if pstart + plen == start {
                self.free.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        // Coalesce with the successor if it begins exactly at the end.
        if let Some((&nstart, &nlen)) = self.free.range(start + len..).next() {
            if start + len == nstart {
                self.free.remove(&nstart);
                len += nlen;
            }
        }
        self.free.insert(start, len);
    }

    /// Whether `page` belongs to a live mapping.
    pub(crate) fn is_mapped(&self, page: u64) -> bool {
        self.mapping_of(page).is_some()
    }

    /// The live mapping `page` belongs to, if any.
    pub(crate) fn mapping_of(&self, page: u64) -> Option<PageRange> {
        let (&start, &len) = self.live.range(..=page).next_back()?;
        (page < start + len).then(|| PageRange::new(start, len))
    }

    /// Iterate over live mappings in address order.
    pub(crate) fn live_mappings(&self) -> impl Iterator<Item = PageRange> + '_ {
        self.live.iter().map(|(&s, &l)| PageRange::new(s, l))
    }

    /// Number of live mappings.
    pub(crate) fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of distinct free blocks (fragmentation measure).
    #[cfg(test)]
    pub(crate) fn free_block_count(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> MmapArea {
        MmapArea::new(PageRange::new(1000, 100))
    }

    #[test]
    fn map_first_fit() {
        let mut a = arena();
        let m1 = a.map(10).unwrap();
        assert_eq!(m1, PageRange::new(1000, 10));
        let m2 = a.map(20).unwrap();
        assert_eq!(m2, PageRange::new(1010, 20));
        assert_eq!(a.mapped_pages(), 30);
        assert_eq!(a.free_pages(), 70);
    }

    #[test]
    fn unmap_and_reuse() {
        let mut a = arena();
        let m1 = a.map(10).unwrap();
        let _m2 = a.map(10).unwrap();
        a.unmap(m1).unwrap();
        // First-fit reuses the freed hole.
        let m3 = a.map(5).unwrap();
        assert_eq!(m3.start, 1000);
        assert_eq!(a.mapped_pages(), 15);
    }

    #[test]
    fn coalescing_merges_neighbors() {
        let mut a = arena();
        let m1 = a.map(10).unwrap();
        let m2 = a.map(10).unwrap();
        let m3 = a.map(10).unwrap();
        // Free the middle, then the first: blocks must merge so a large
        // request fits again.
        a.unmap(m2).unwrap();
        a.unmap(m1).unwrap();
        assert_eq!(a.free_block_count(), 2, "head hole + tail");
        a.unmap(m3).unwrap();
        assert_eq!(a.free_block_count(), 1, "everything coalesced");
        let big = a.map(100).unwrap();
        assert_eq!(big, PageRange::new(1000, 100));
    }

    #[test]
    fn exhaustion_reported() {
        let mut a = arena();
        a.map(100).unwrap();
        assert!(matches!(a.map(1), Err(MemError::MmapExhausted { .. })));
    }

    #[test]
    fn fragmentation_can_block_large_requests() {
        let mut a = arena();
        let maps: Vec<_> = (0..10).map(|_| a.map(10).unwrap()).collect();
        // Free every other block: 50 pages free but max hole is 10.
        for m in maps.iter().step_by(2) {
            a.unmap(*m).unwrap();
        }
        assert_eq!(a.free_pages(), 50);
        assert!(a.map(20).is_err(), "no contiguous 20-page hole");
        assert!(a.map(10).is_ok());
    }

    #[test]
    fn bad_unmap_rejected() {
        let mut a = arena();
        let m = a.map(10).unwrap();
        assert!(a.unmap(PageRange::new(m.start + 1, 9)).is_err());
        assert!(a.unmap(PageRange::new(m.start, 5)).is_err());
        a.unmap(m).unwrap();
        assert!(a.unmap(m).is_err(), "double unmap rejected");
    }

    #[test]
    fn is_mapped_tracks_live_blocks() {
        let mut a = arena();
        let m = a.map(10).unwrap();
        assert!(a.is_mapped(m.start));
        assert!(a.is_mapped(m.end() - 1));
        assert!(!a.is_mapped(m.end()));
        a.unmap(m).unwrap();
        assert!(!a.is_mapped(m.start));
    }

    #[test]
    fn map_fixed_recreates_fragmented_layouts() {
        let mut a = arena();
        // A fragmented target: blocks at offsets 20 and 50.
        a.map_fixed(PageRange::new(1020, 10)).unwrap();
        a.map_fixed(PageRange::new(1050, 5)).unwrap();
        assert_eq!(a.mapped_pages(), 15);
        assert!(a.is_mapped(1020) && a.is_mapped(1054));
        assert!(!a.is_mapped(1030) && !a.is_mapped(1049));
        // The holes are still allocatable.
        let m = a.map(20).unwrap();
        assert_eq!(m, PageRange::new(1000, 20));
    }

    #[test]
    fn map_fixed_rejects_overlap() {
        let mut a = arena();
        a.map_fixed(PageRange::new(1010, 10)).unwrap();
        assert!(a.map_fixed(PageRange::new(1015, 10)).is_err(), "overlaps live block");
        assert!(a.map_fixed(PageRange::new(1005, 6)).is_err(), "tail overlaps");
        // Exact re-map after unmap works.
        a.unmap(PageRange::new(1010, 10)).unwrap();
        a.map_fixed(PageRange::new(1010, 10)).unwrap();
    }

    #[test]
    fn map_fixed_out_of_region_rejected() {
        let mut a = arena();
        assert!(a.map_fixed(PageRange::new(1095, 10)).is_err(), "crosses region end");
    }
}
