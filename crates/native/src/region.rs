//! A write-tracked memory region over real `mmap`/`mprotect`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::page_size;
use crate::sigsegv;

/// Result of one timeslice sample on a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeSample {
    /// Dirty pages found in this timeslice.
    pub dirty_pages: Vec<usize>,
    /// Total pages in the region.
    pub total_pages: usize,
}

impl NativeSample {
    /// The IWS size of this slice, in pages.
    pub fn iws_pages(&self) -> usize {
        self.dirty_pages.len()
    }
}

/// An anonymous `mmap`'d arena whose writes are observed through page
/// faults — the paper's instrumentation applied to one region.
pub struct TrackedRegion {
    base: *mut u8,
    pages: usize,
    page_size: usize,
    bitmap: Box<[AtomicU64]>,
    slot: usize,
}

// SAFETY: the region is an owned mapping; all shared mutation happens
// through atomics (the bitmap) or the kernel (protections).
unsafe impl Send for TrackedRegion {}
// SAFETY: as for Send — shared access mutates only through the atomic
// bitmap or kernel-mediated page protections.
unsafe impl Sync for TrackedRegion {}

impl TrackedRegion {
    /// Map and protect a fresh region of `pages` pages.
    pub fn new(pages: usize) -> TrackedRegion {
        assert!(pages > 0, "empty region");
        let ps = page_size();
        let len = pages * ps;
        // SAFETY: anonymous private mapping; checked for MAP_FAILED.
        let base = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(base != libc::MAP_FAILED, "mmap failed");
        let words = pages.div_ceil(64);
        let bitmap: Box<[AtomicU64]> = (0..words).map(|_| AtomicU64::new(0)).collect();
        // SAFETY: bitmap outlives the registration (dropped after
        // unregister in Drop), and has one bit per page.
        let slot = unsafe { sigsegv::register(base as usize, len, bitmap.as_ptr(), ps) };
        let region = TrackedRegion { base: base as *mut u8, pages, page_size: ps, bitmap, slot };
        region.protect_all();
        region
    }

    /// Number of pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Region size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.pages * self.page_size
    }

    /// Write-protect every page and clear the dirty set (the alarm
    /// handler's re-protect step).
    pub(crate) fn protect_all(&self) {
        // SAFETY: protecting our own mapping.
        let rc =
            unsafe { libc::mprotect(self.base as *mut libc::c_void, self.len(), libc::PROT_READ) };
        assert_eq!(rc, 0, "mprotect(PROT_READ) failed");
        for w in self.bitmap.iter() {
            w.store(0, Ordering::Release);
        }
    }

    /// Write one byte into a page (taking a fault if it is protected).
    pub fn write_byte(&self, page: usize, offset: usize, value: u8) {
        assert!(page < self.pages && offset < self.page_size);
        // SAFETY: in-bounds write into our mapping; volatile so the
        // store cannot be elided.
        unsafe {
            let p = self.base.add(page * self.page_size + offset);
            std::ptr::write_volatile(p, value);
        }
    }

    /// Read one byte (never faults: pages stay readable).
    #[cfg(test)]
    fn read_byte(&self, page: usize, offset: usize) -> u8 {
        assert!(page < self.pages && offset < self.page_size);
        // SAFETY: in-bounds read of our mapping.
        unsafe { std::ptr::read_volatile(self.base.add(page * self.page_size + offset)) }
    }

    /// Fill every byte of a page (one fault, then free writes).
    #[cfg(test)]
    fn fill_page(&self, page: usize, value: u8) {
        assert!(page < self.pages);
        // SAFETY: in-bounds; the first store faults and unprotects.
        unsafe {
            let p = self.base.add(page * self.page_size);
            std::ptr::write_bytes(p, value, self.page_size);
        }
    }

    /// Page faults taken on this region since it was mapped.
    pub(crate) fn faults(&self) -> u64 {
        sigsegv::faults(self.slot)
    }

    /// Pages currently marked dirty, without resetting anything.
    pub fn peek_dirty(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, w) in self.bitmap.iter().enumerate() {
            let mut bits = w.load(Ordering::Acquire);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let page = wi * 64 + b;
                if page < self.pages {
                    out.push(page);
                }
            }
        }
        out
    }

    /// The alarm: capture the dirty set, clear it, and re-protect all
    /// pages. Concurrent writers simply fault into the next timeslice.
    pub fn sample(&self) -> NativeSample {
        let mut dirty = Vec::new();
        for (wi, w) in self.bitmap.iter().enumerate() {
            let mut bits = w.swap(0, Ordering::AcqRel);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let page = wi * 64 + b;
                if page < self.pages {
                    dirty.push(page);
                }
            }
        }
        // SAFETY: protecting our own mapping.
        let rc =
            unsafe { libc::mprotect(self.base as *mut libc::c_void, self.len(), libc::PROT_READ) };
        assert_eq!(rc, 0, "mprotect(PROT_READ) failed");
        dirty.sort_unstable();
        NativeSample { dirty_pages: dirty, total_pages: self.pages }
    }

    /// Disable tracking: make the whole region plainly writable (used
    /// by the intrusiveness baseline).
    pub(crate) fn untrack(&self) {
        // SAFETY: protecting our own mapping.
        let rc = unsafe {
            libc::mprotect(
                self.base as *mut libc::c_void,
                self.len(),
                libc::PROT_READ | libc::PROT_WRITE,
            )
        };
        assert_eq!(rc, 0, "mprotect(RW) failed");
    }
}

impl Drop for TrackedRegion {
    fn drop(&mut self) {
        sigsegv::unregister(self.slot);
        // SAFETY: unmapping our own mapping; the registry no longer
        // references it.
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_write_faults_and_marks_dirty() {
        let r = TrackedRegion::new(16);
        assert!(r.peek_dirty().is_empty());
        r.write_byte(3, 10, 42);
        assert_eq!(r.read_byte(3, 10), 42);
        assert_eq!(r.peek_dirty(), vec![3]);
        // Second write to the same page: no new fault, still one dirty.
        r.write_byte(3, 11, 43);
        assert_eq!(r.peek_dirty(), vec![3]);
    }

    #[test]
    fn sample_resets_and_reprotects() {
        let r = TrackedRegion::new(8);
        r.write_byte(0, 0, 1);
        r.write_byte(5, 0, 1);
        let s = r.sample();
        assert_eq!(s.dirty_pages, vec![0, 5]);
        assert_eq!(s.iws_pages(), 2);
        assert!(r.peek_dirty().is_empty(), "sample clears the set");
        // Pages are protected again: the next write re-faults.
        r.write_byte(5, 1, 2);
        assert_eq!(r.peek_dirty(), vec![5]);
    }

    #[test]
    fn reads_do_not_dirty() {
        let r = TrackedRegion::new(4);
        for p in 0..4 {
            let _ = r.read_byte(p, 0);
        }
        assert!(r.peek_dirty().is_empty());
    }

    #[test]
    fn fill_page_is_one_fault() {
        let r = TrackedRegion::new(4);
        r.fill_page(2, 0xAB);
        assert_eq!(r.read_byte(2, 4095), 0xAB);
        // The count is the region's own: sibling tests faulting
        // concurrently on their regions do not show up in it.
        assert_eq!(r.faults(), 1);
        assert_eq!(r.peek_dirty(), vec![2]);
    }

    #[test]
    fn many_regions_coexist() {
        let regions: Vec<TrackedRegion> = (0..8).map(|_| TrackedRegion::new(4)).collect();
        for (i, r) in regions.iter().enumerate() {
            r.write_byte(i % 4, 0, i as u8);
        }
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.peek_dirty(), vec![i % 4]);
        }
    }

    #[test]
    fn untracked_region_collects_nothing() {
        let r = TrackedRegion::new(4);
        r.untrack();
        r.write_byte(1, 0, 9);
        assert!(r.peek_dirty().is_empty(), "untracked writes are invisible");
    }

    #[test]
    fn concurrent_writers_from_threads() {
        let r = std::sync::Arc::new(TrackedRegion::new(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for p in (t..64).step_by(4) {
                    r.write_byte(p, 0, t as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.sample().iws_pages(), 64);
    }
}
