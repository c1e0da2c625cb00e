//! Coupling an address space to a write tracker.
//!
//! The paper's library intercepts `mmap`/`munmap` (and watches the
//! break) so it always knows the *current* memory size and can exclude
//! unmapped pages (§4.1–4.2). [`TrackedSpace`] is that interception
//! layer: it forwards every mapping operation to the underlying space
//! and notifies the tracker, so footprint accounting and memory
//! exclusion can never drift from the mapping state.
//!
//! [`ContentWrite`] abstracts "actually write bytes": on a
//! [`SparseSpace`] it is a no-op (characterization needs only
//! metadata), on a [`BackedSpace`] it fills the touched pages with
//! deterministic content so checkpoint/restore correctness is
//! end-to-end checkable.

use ickpt_mem::{AddressSpace, BackedSpace, DataLayout, MemError, PageRange, SparseSpace};

use crate::tracker::WriteTracker;

/// Write deterministic content for a touched page range.
pub trait ContentWrite {
    /// Record that all pages of `range` were written at logical write
    /// version `version` (monotonic per rank).
    fn write_content(&mut self, range: PageRange, version: u64);
}

impl ContentWrite for SparseSpace {
    #[inline]
    fn write_content(&mut self, _range: PageRange, _version: u64) {}
}

impl ContentWrite for BackedSpace {
    fn write_content(&mut self, range: PageRange, version: u64) {
        for page in range.iter() {
            // Unmapped pages cannot be touched through TrackedSpace, so
            // this only fails on internal inconsistency.
            self.write_versioned(page, version).expect("touch of unmapped page");
        }
    }
}

/// An address space whose mapping changes and writes feed a tracker.
pub struct TrackedSpace<'a, S: AddressSpace + ContentWrite> {
    space: &'a mut S,
    tracker: &'a mut WriteTracker,
}

impl<'a, S: AddressSpace + ContentWrite> TrackedSpace<'a, S> {
    /// Couple `space` and `tracker`. The tracker's footprint must
    /// already equal the space's mapped page count.
    pub fn new(space: &'a mut S, tracker: &'a mut WriteTracker) -> Self {
        debug_assert_eq!(space.mapped_pages(), tracker.footprint_pages());
        Self { space, tracker }
    }

    /// Write every page of `range`, going through the fault path:
    /// returns the number of page faults taken. `version` derives the
    /// written contents; the runner passes the current iteration index
    /// so a recovered run rewrites byte-identical data (determinism
    /// across rollback).
    pub fn touch(&mut self, range: PageRange, version: u64) -> u64 {
        debug_assert!(self.space.is_range_mapped(range), "touch of unmapped range {range:?}");
        self.space.write_content(range, version);
        self.tracker.touch_range(range)
    }

    /// The underlying space (read-only).
    #[cfg(test)]
    pub(crate) fn space(&self) -> &S {
        self.space
    }

    /// The tracker (read-only).
    #[cfg(test)]
    pub(crate) fn tracker(&self) -> &WriteTracker {
        self.tracker
    }

    /// The tracker (mutable, for sampling control by the engine).
    #[cfg(test)]
    pub(crate) fn tracker_mut(&mut self) -> &mut WriteTracker {
        self.tracker
    }
}

impl<S: AddressSpace + ContentWrite> AddressSpace for TrackedSpace<'_, S> {
    fn layout(&self) -> &DataLayout {
        self.space.layout()
    }

    fn is_mapped(&self, page: u64) -> bool {
        self.space.is_mapped(page)
    }

    fn is_range_mapped(&self, range: PageRange) -> bool {
        self.space.is_range_mapped(range)
    }

    fn mapped_pages(&self) -> u64 {
        self.space.mapped_pages()
    }

    fn mapped_ranges(&self) -> Vec<PageRange> {
        self.space.mapped_ranges()
    }

    fn heap_grow(&mut self, pages: u64) -> Result<PageRange, MemError> {
        let r = self.space.heap_grow(pages)?;
        self.tracker.on_map(r);
        Ok(r)
    }

    fn heap_shrink(&mut self, pages: u64) -> Result<PageRange, MemError> {
        let r = self.space.heap_shrink(pages)?;
        self.tracker.on_unmap(r);
        Ok(r)
    }

    fn heap_pages(&self) -> u64 {
        self.space.heap_pages()
    }

    fn mmap(&mut self, pages: u64) -> Result<PageRange, MemError> {
        let r = self.space.mmap(pages)?;
        self.tracker.on_map(r);
        Ok(r)
    }

    fn munmap(&mut self, range: PageRange) -> Result<(), MemError> {
        self.space.munmap(range)?;
        self.tracker.on_unmap(range);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::TrackerConfig;
    use ickpt_mem::{LayoutBuilder, PAGE_SIZE};
    use ickpt_sim::SimTime;

    fn layout() -> DataLayout {
        LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(16 * PAGE_SIZE)
            .mmap_capacity_bytes(16 * PAGE_SIZE)
            .build()
    }

    fn tracker_for(space: &impl AddressSpace) -> WriteTracker {
        WriteTracker::new(
            space.layout().capacity_pages(),
            space.mapped_pages(),
            TrackerConfig::default(),
        )
    }

    // The check is a debug assertion: release test builds skip it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "touch of unmapped range")]
    fn touching_unmapped_pages_panics() {
        let mut space = SparseSpace::new(layout());
        let mut tracker = tracker_for(&space);
        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
        ts.heap_grow(2).unwrap();
        // Static data is pages 0..4, the heap maps 4..6: page 6 is not.
        ts.touch(PageRange::new(3, 4), 1);
    }

    #[test]
    fn mapping_ops_update_tracker_footprint() {
        let mut space = SparseSpace::new(layout());
        let mut tracker = tracker_for(&space);
        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
        ts.heap_grow(3).unwrap();
        let m = ts.mmap(5).unwrap();
        assert_eq!(ts.tracker().footprint_pages(), 4 + 3 + 5);
        ts.munmap(m).unwrap();
        ts.heap_shrink(1).unwrap();
        assert_eq!(ts.tracker().footprint_pages(), 6);
        assert_eq!(ts.mapped_pages(), 6);
    }

    #[test]
    fn touches_fault_and_dirty() {
        let mut space = SparseSpace::new(layout());
        let mut tracker = tracker_for(&space);
        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
        assert_eq!(ts.touch(PageRange::new(0, 4), 1), 4);
        assert_eq!(ts.touch(PageRange::new(0, 4), 1), 0);
        ts.tracker_mut().advance_to(SimTime::from_secs(1));
        assert_eq!(ts.tracker().samples()[0].iws_pages, 4);
    }

    #[test]
    fn backed_touch_writes_content() {
        let mut space = BackedSpace::new(layout());
        let before = ickpt_mem::PageSource::read_page(&space, 0).unwrap().to_vec();
        let mut tracker = tracker_for(&space);
        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
        ts.touch(PageRange::new(0, 1), 1);
        let after = ickpt_mem::PageSource::read_page(&space, 0).unwrap();
        assert_ne!(before.as_slice(), after, "touch must change backed content");
    }

    #[test]
    fn backed_touches_are_version_dependent() {
        let mut space = BackedSpace::new(layout());
        let mut tracker = tracker_for(&space);
        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
        ts.touch(PageRange::new(0, 1), 1);
        let v1 = ickpt_mem::PageSource::read_page(ts.space(), 0).unwrap().to_vec();
        ts.touch(PageRange::new(0, 1), 2);
        let v2 = ickpt_mem::PageSource::read_page(ts.space(), 0).unwrap();
        assert_ne!(v1.as_slice(), v2, "subsequent writes produce new content");
    }

    #[test]
    fn unmap_then_alarm_excludes_pages() {
        let mut space = SparseSpace::new(layout());
        let mut tracker = tracker_for(&space);
        let mut ts = TrackedSpace::new(&mut space, &mut tracker);
        let m = ts.mmap(4).unwrap();
        ts.touch(m, 1);
        ts.munmap(m).unwrap();
        ts.tracker_mut().advance_to(SimTime::from_secs(1));
        assert_eq!(ts.tracker().samples()[0].iws_pages, 0);
    }
}
