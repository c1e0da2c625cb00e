//! `brk`/`sbrk` heap emulation.
//!
//! The Intel Fortran77 compiler used by the paper's workloads allocates
//! dynamic memory on the heap via `brk`/`sbrk`; Fortran90 (Sage) uses
//! both the heap and `mmap` (§4.1). The tracker needs to know the heap
//! break at each alarm so it reports only pages belonging to the
//! *current* memory size (§4.2) — pages above the break are excluded
//! from checkpoints (memory exclusion, [Plank et al. 1999]).

use crate::error::MemError;
use crate::page::PageRange;

/// A `brk`-style heap confined to the layout's heap region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Heap {
    region: PageRange,
    /// Current break, in pages from `region.start` (0 = empty heap).
    brk_pages: u64,
}

impl Heap {
    /// An empty heap within `region`.
    pub(crate) fn new(region: PageRange) -> Self {
        Self { region, brk_pages: 0 }
    }

    /// Currently mapped heap pages (from the region start to the break).
    #[inline]
    pub(crate) fn mapped(&self) -> PageRange {
        PageRange::new(self.region.start, self.brk_pages)
    }

    /// Current size in pages.
    #[inline]
    pub(crate) fn size_pages(&self) -> u64 {
        self.brk_pages
    }

    /// Grow the heap by `pages` pages (`sbrk(+n)`); returns the newly
    /// mapped range.
    pub(crate) fn grow(&mut self, pages: u64) -> Result<PageRange, MemError> {
        let new_brk = self.brk_pages + pages;
        if new_brk > self.region.len {
            return Err(MemError::HeapExhausted {
                requested_pages: new_brk,
                capacity_pages: self.region.len,
            });
        }
        let added = PageRange::new(self.region.start + self.brk_pages, pages);
        self.brk_pages = new_brk;
        Ok(added)
    }

    /// Shrink the heap by `pages` pages (`sbrk(-n)`); returns the
    /// now-unmapped range. Shrinking below zero is clamped like a real
    /// `brk` call that would fail: it is reported as an error.
    pub(crate) fn shrink(&mut self, pages: u64) -> Result<PageRange, MemError> {
        if pages > self.brk_pages {
            return Err(MemError::HeapExhausted {
                requested_pages: pages,
                capacity_pages: self.brk_pages,
            });
        }
        self.brk_pages -= pages;
        Ok(PageRange::new(self.region.start + self.brk_pages, pages))
    }

    /// Whether `page` is currently mapped heap memory.
    #[inline]
    pub(crate) fn is_mapped(&self, page: u64) -> bool {
        self.mapped().contains(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(PageRange::new(100, 50))
    }

    #[test]
    fn grow_maps_pages_in_order() {
        let mut h = heap();
        let a = h.grow(10).unwrap();
        assert_eq!(a, PageRange::new(100, 10));
        let b = h.grow(5).unwrap();
        assert_eq!(b, PageRange::new(110, 5));
        assert_eq!(h.size_pages(), 15);
        assert!(h.is_mapped(114));
        assert!(!h.is_mapped(115));
    }

    #[test]
    fn grow_past_capacity_fails() {
        let mut h = heap();
        h.grow(50).unwrap();
        assert!(matches!(h.grow(1), Err(MemError::HeapExhausted { .. })));
        assert_eq!(h.size_pages(), 50, "failed grow leaves state unchanged");
    }

    #[test]
    fn shrink_unmaps_top() {
        let mut h = heap();
        h.grow(20).unwrap();
        let freed = h.shrink(5).unwrap();
        assert_eq!(freed, PageRange::new(115, 5));
        assert_eq!(h.size_pages(), 15);
    }

    #[test]
    fn shrink_below_zero_fails() {
        let mut h = heap();
        h.grow(3).unwrap();
        assert!(h.shrink(4).is_err());
        assert_eq!(h.size_pages(), 3);
    }
}
