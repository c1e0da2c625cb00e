//! Data-segment layout of a simulated process.
//!
//! §4.1 of the paper describes the Itanium-II / Linux layout: initialized
//! and uninitialized data follow the text segment, then the heap grows
//! toward higher addresses (its top is found with `sbrk`), `mmap`'ed
//! regions are allocated dynamically, and the stack starts at a fixed
//! address growing down. The instrumentation library tracks only the
//! *data* memory (data + BSS + heap + mmap) because it is the dominant
//! part of process state, and the stack cannot be protected anyway.
//!
//! We model the tracked data segment as a single dense page-index space:
//!
//! ```text
//!   page 0                                                   capacity
//!   |  static data + BSS | heap (brk area) | mmap arena      |
//! ```
//!
//! Dense indices keep the tracker's bitmaps compact regardless of where
//! a real kernel would scatter the mappings.

use crate::page::{pages_for_bytes, PageRange};

/// The fixed page-index layout of a process's tracked data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataLayout {
    /// Static data + BSS: mapped for the whole process lifetime.
    pub static_data: PageRange,
    /// Maximum extent of the `brk` heap.
    pub heap: PageRange,
    /// Arena from which `mmap` blocks are carved.
    pub mmap: PageRange,
}

impl DataLayout {
    /// Total page capacity of the tracked segment.
    #[inline]
    pub fn capacity_pages(&self) -> u64 {
        self.static_data.len + self.heap.len + self.mmap.len
    }

    /// Total byte capacity of the tracked segment.
    #[inline]
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.capacity_pages() * crate::page::PAGE_SIZE
    }

    /// The region kind a given page belongs to, or `None` if the page is
    /// outside the layout.
    pub(crate) fn region_of(&self, page: u64) -> Option<crate::space::RegionKind> {
        use crate::space::RegionKind;
        if self.static_data.contains(page) {
            Some(RegionKind::StaticData)
        } else if self.heap.contains(page) {
            Some(RegionKind::Heap)
        } else if self.mmap.contains(page) {
            Some(RegionKind::Mmap)
        } else {
            None
        }
    }
}

/// Builder for [`DataLayout`], sized in bytes for convenience.
///
/// The defaults give each dynamic area headroom above the requested
/// size, mirroring how a real address space leaves room for the heap
/// and mmap areas to grow.
#[derive(Debug, Clone)]
pub struct LayoutBuilder {
    static_bytes: u64,
    heap_capacity_bytes: u64,
    mmap_capacity_bytes: u64,
}

impl Default for LayoutBuilder {
    fn default() -> Self {
        Self {
            static_bytes: 4 << 20,         // 4 MiB of static data
            heap_capacity_bytes: 64 << 20, // 64 MiB heap headroom
            mmap_capacity_bytes: 64 << 20, // 64 MiB mmap headroom
        }
    }
}

impl LayoutBuilder {
    /// Start from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the always-mapped static data + BSS area.
    pub fn static_bytes(mut self, bytes: u64) -> Self {
        self.static_bytes = bytes;
        self
    }

    /// Maximum size the `brk` heap may reach.
    pub fn heap_capacity_bytes(mut self, bytes: u64) -> Self {
        self.heap_capacity_bytes = bytes;
        self
    }

    /// Maximum total size of concurrently live `mmap` blocks.
    pub fn mmap_capacity_bytes(mut self, bytes: u64) -> Self {
        self.mmap_capacity_bytes = bytes;
        self
    }

    /// Finalize the layout.
    pub fn build(self) -> DataLayout {
        let static_pages = pages_for_bytes(self.static_bytes);
        let heap_pages = pages_for_bytes(self.heap_capacity_bytes);
        let mmap_pages = pages_for_bytes(self.mmap_capacity_bytes);
        DataLayout {
            static_data: PageRange::new(0, static_pages),
            heap: PageRange::new(static_pages, heap_pages),
            mmap: PageRange::new(static_pages + heap_pages, mmap_pages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::space::RegionKind;

    #[test]
    fn regions_are_contiguous_and_ordered() {
        let l = LayoutBuilder::new()
            .static_bytes(8 * PAGE_SIZE)
            .heap_capacity_bytes(16 * PAGE_SIZE)
            .mmap_capacity_bytes(32 * PAGE_SIZE)
            .build();
        assert_eq!(l.static_data, PageRange::new(0, 8));
        assert_eq!(l.heap, PageRange::new(8, 16));
        assert_eq!(l.mmap, PageRange::new(24, 32));
        assert_eq!(l.capacity_pages(), 56);
        assert_eq!(l.capacity_bytes(), 56 * PAGE_SIZE);
    }

    #[test]
    fn region_of_maps_every_page() {
        let l = LayoutBuilder::new()
            .static_bytes(PAGE_SIZE)
            .heap_capacity_bytes(PAGE_SIZE)
            .mmap_capacity_bytes(PAGE_SIZE)
            .build();
        assert_eq!(l.region_of(0), Some(RegionKind::StaticData));
        assert_eq!(l.region_of(1), Some(RegionKind::Heap));
        assert_eq!(l.region_of(2), Some(RegionKind::Mmap));
        assert_eq!(l.region_of(3), None);
    }

    #[test]
    fn byte_sizes_round_up_to_pages() {
        let l = LayoutBuilder::new()
            .static_bytes(PAGE_SIZE + 1)
            .heap_capacity_bytes(1)
            .mmap_capacity_bytes(0)
            .build();
        assert_eq!(l.static_data.len, 2);
        assert_eq!(l.heap.len, 1);
        assert_eq!(l.mmap.len, 0);
    }

    #[test]
    fn default_layout_is_nonempty() {
        let l = LayoutBuilder::new().build();
        assert!(l.capacity_pages() > 0);
        assert!(l.heap.len > 0 && l.mmap.len > 0);
    }
}
