//! Pages and page-range arithmetic.
//!
//! Everything in the tracker operates at page granularity, exactly like
//! the paper's instrumentation library: the virtual memory system can
//! only write-protect (and therefore detect writes to) whole pages.
//! We fix the page size at 4 KiB; the paper's Itanium-II cluster ran
//! Linux with 4 KiB base pages as well.

/// log2 of the page size.
pub(crate) const PAGE_SHIFT: u32 = 12;

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Number of pages needed to hold `bytes` bytes (rounding up).
#[inline]
pub const fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// A half-open range of pages `[start, start + len)` within an address
/// space, expressed in page indices (not bytes).
///
/// Page indices are offsets into the tracked data segment of a process,
/// so page 0 is the first page of initialized data (see
/// [`crate::layout::DataLayout`]). Using segment-relative indices keeps
/// dirty bitmaps dense and makes checkpoint records compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page index of the range.
    pub start: u64,
    /// Number of pages in the range.
    pub len: u64,
}

impl PageRange {
    /// Create a range from a start page and a page count.
    #[inline]
    pub const fn new(start: u64, len: u64) -> Self {
        Self { start, len }
    }

    /// One past the last page of the range.
    #[inline]
    pub const fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether the range contains no pages.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `page` falls inside the range.
    #[inline]
    pub const fn contains(&self, page: u64) -> bool {
        page >= self.start && page < self.end()
    }

    /// Whether the two ranges share at least one page.
    #[cfg(test)]
    pub(crate) const fn overlaps(&self, other: &PageRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Iterate over the page indices of the range.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_bytes_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for_bytes(10 * PAGE_SIZE), 10);
    }

    #[test]
    fn range_basics() {
        let r = PageRange::new(10, 5);
        assert_eq!(r.end(), 15);
        assert!(r.contains(10));
        assert!(r.contains(14));
        assert!(!r.contains(15));
        assert!(!r.contains(9));
        assert!(!r.is_empty());
        assert!(PageRange::new(3, 0).is_empty());
    }

    #[test]
    fn overlap() {
        let a = PageRange::new(0, 10);
        let b = PageRange::new(5, 10);
        let c = PageRange::new(10, 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn iter_yields_every_page() {
        let pages: Vec<u64> = PageRange::new(2, 3).iter().collect();
        assert_eq!(pages, vec![2, 3, 4]);
    }
}
