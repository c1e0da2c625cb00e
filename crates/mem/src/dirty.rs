//! Word-packed dirty-page bitmaps with a hierarchical summary level.
//!
//! This is the hot data structure of the write tracker. The paper's
//! instrumentation library records, for each timeslice, the set of pages
//! written ("dirty pages", §4.2). We model page protection and dirty
//! state with one bit per page: bit clear = page is write-protected, bit
//! set = page has faulted once in the current timeslice and is now
//! writable. Resetting the bitmap is the paper's alarm-handler action of
//! re-protecting all data pages.
//!
//! The implementation follows the HPC guidance of keeping the hot path
//! branch-light and allocation-free: all operations work on `u64` words
//! (64 pages at a time) with `count_ones`/`trailing_zeros`.
//!
//! ## Two levels
//!
//! [`DirtyBitmap`] additionally keeps a **summary bitmap** with one bit
//! per 64-page word (so one summary *word* covers 4096 pages = 16 MB).
//! The invariant is strict: a summary bit is set iff its word is
//! nonzero. Iteration ([`DirtyBitmap::iter_set`]), run extraction
//! ([`DirtyBitmap::dirty_ranges`]) and range counting walk the summary
//! and touch only nonzero words, so the sparse bitmaps that dominate
//! small checkpoint timeslices (IWS of a few hundred pages spread over
//! a gigabyte footprint) cost O(set words), not O(footprint). The
//! paper's own data motivates this: Table 3's IWS per timeslice is 1–3
//! orders of magnitude below the footprint.
//!
//! The test build keeps the previous single-level implementation,
//! `FlatDirtyBitmap`, as an executable reference: the property tests in
//! `prop.rs` prove the two observationally equivalent.

use crate::page::PageRange;

const WORD_BITS: u64 = 64;

/// A fixed-capacity hierarchical bitmap with one bit per page.
///
/// ```
/// use ickpt_mem::{DirtyBitmap, PageRange};
///
/// let mut bm = DirtyBitmap::new(256);
/// assert_eq!(bm.set_range(PageRange::new(10, 20)), 20); // 20 faults
/// assert_eq!(bm.set_range(PageRange::new(15, 20)), 5);  // 15 reused
/// assert_eq!(bm.count(), 25);
/// assert_eq!(bm.dirty_ranges(), vec![PageRange::new(10, 25)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyBitmap {
    words: Vec<u64>,
    /// One bit per entry of `words`; set iff the word is nonzero.
    summary: Vec<u64>,
    pages: u64,
    /// Cached population count, maintained incrementally so that the
    /// per-timeslice IWS sample is O(1).
    set_count: u64,
}

#[inline]
const fn summary_len(nwords: usize) -> usize {
    nwords.div_ceil(WORD_BITS as usize)
}

impl DirtyBitmap {
    /// Create a bitmap covering `pages` pages, all clear (protected).
    pub fn new(pages: u64) -> Self {
        let nwords = pages.div_ceil(WORD_BITS) as usize;
        Self { words: vec![0; nwords], summary: vec![0; summary_len(nwords)], pages, set_count: 0 }
    }

    /// Number of set (dirty) bits.
    #[inline]
    pub fn count(&self) -> u64 {
        self.set_count
    }

    #[inline]
    fn summarize(&mut self, w: usize) {
        let mask = 1u64 << (w as u64 % WORD_BITS);
        if self.words[w] != 0 {
            self.summary[w / WORD_BITS as usize] |= mask;
        } else {
            self.summary[w / WORD_BITS as usize] &= !mask;
        }
    }

    /// Test a single page.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> bool {
        debug_assert!(page < self.pages, "page {page} out of range {}", self.pages);
        let w = (page / WORD_BITS) as usize;
        let b = page % WORD_BITS;
        (self.words[w] >> b) & 1 == 1
    }

    /// Set a single page; returns `true` if the bit was previously clear
    /// (i.e. this write would have taken a page fault).
    #[inline]
    pub(crate) fn set(&mut self, page: u64) -> bool {
        debug_assert!(page < self.pages, "page {page} out of range {}", self.pages);
        let w = (page / WORD_BITS) as usize;
        let mask = 1u64 << (page % WORD_BITS);
        let old = self.words[w];
        self.words[w] = old | mask;
        self.summary[w / WORD_BITS as usize] |= 1u64 << (w as u64 % WORD_BITS);
        let was_clear = old & mask == 0;
        self.set_count += was_clear as u64;
        was_clear
    }

    /// Clear a single page; returns `true` if the bit was previously set.
    #[inline]
    pub(crate) fn clear(&mut self, page: u64) -> bool {
        debug_assert!(page < self.pages);
        let w = (page / WORD_BITS) as usize;
        let mask = 1u64 << (page % WORD_BITS);
        let old = self.words[w];
        let new = old & !mask;
        self.words[w] = new;
        if new == 0 {
            self.summary[w / WORD_BITS as usize] &= !(1u64 << (w as u64 % WORD_BITS));
        }
        let was_set = old & mask != 0;
        self.set_count -= was_set as u64;
        was_set
    }

    /// Set every page in `range`; returns the number of bits that were
    /// previously clear (the number of page faults this touch burst
    /// would have produced).
    pub fn set_range(&mut self, range: PageRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        assert!(range.end() <= self.pages, "range {range:?} out of bitmap capacity {}", self.pages);
        let mut newly = 0u64;
        let (first_w, first_b) = ((range.start / WORD_BITS) as usize, range.start % WORD_BITS);
        let last = range.end() - 1;
        let (last_w, last_b) = ((last / WORD_BITS) as usize, last % WORD_BITS);
        if first_w == last_w {
            let mask = mask_between(first_b, last_b);
            newly += (mask & !self.words[first_w]).count_ones() as u64;
            self.words[first_w] |= mask;
        } else {
            let head = mask_from(first_b);
            newly += (head & !self.words[first_w]).count_ones() as u64;
            self.words[first_w] |= head;
            // Middle words become all-ones; count existing bits only in
            // the words the summary says are nonzero.
            let middle = (last_w - first_w - 1) as u64 * WORD_BITS;
            let mut already = 0u64;
            for w in self.nonzero_words_in(first_w + 1, last_w) {
                already += self.words[w].count_ones() as u64;
            }
            newly += middle - already;
            self.words[first_w + 1..last_w].fill(u64::MAX);
            let tail = mask_to(last_b);
            newly += (tail & !self.words[last_w]).count_ones() as u64;
            self.words[last_w] |= tail;
        }
        self.set_summary_range(first_w, last_w);
        self.set_count += newly;
        newly
    }

    /// Clear every page in `range`; returns the number of bits that were
    /// previously set.
    pub fn clear_range(&mut self, range: PageRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        assert!(range.end() <= self.pages);
        let mut dropped = 0u64;
        let (first_w, first_b) = ((range.start / WORD_BITS) as usize, range.start % WORD_BITS);
        let last = range.end() - 1;
        let (last_w, last_b) = ((last / WORD_BITS) as usize, last % WORD_BITS);
        if first_w == last_w {
            let mask = mask_between(first_b, last_b);
            dropped += (mask & self.words[first_w]).count_ones() as u64;
            self.words[first_w] &= !mask;
            self.summarize(first_w);
        } else {
            let head = mask_from(first_b);
            dropped += (head & self.words[first_w]).count_ones() as u64;
            self.words[first_w] &= !head;
            self.summarize(first_w);
            // Middle words all become zero; only nonzero ones held bits.
            let nonzero: Vec<usize> = self.nonzero_words_in(first_w + 1, last_w).collect();
            for w in nonzero {
                dropped += self.words[w].count_ones() as u64;
                self.words[w] = 0;
            }
            self.clear_summary_range(first_w + 1, last_w);
            let tail = mask_to(last_b);
            dropped += (tail & self.words[last_w]).count_ones() as u64;
            self.words[last_w] &= !tail;
            self.summarize(last_w);
        }
        self.set_count -= dropped;
        dropped
    }

    /// Clear every bit (the alarm handler's "re-protect all pages").
    ///
    /// Walks the summary and zeroes only the words that hold bits, so
    /// re-protecting after a sparse timeslice is O(dirty words).
    pub fn clear_all(&mut self) {
        for j in 0..self.summary.len() {
            let mut bits = self.summary[j];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.words[j * WORD_BITS as usize + b] = 0;
            }
            self.summary[j] = 0;
        }
        self.set_count = 0;
    }

    /// Count the set bits inside `range` without modifying anything.
    #[cfg(test)]
    pub(crate) fn count_range(&self, range: PageRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        assert!(range.end() <= self.pages);
        let (first_w, first_b) = ((range.start / WORD_BITS) as usize, range.start % WORD_BITS);
        let last = range.end() - 1;
        let (last_w, last_b) = ((last / WORD_BITS) as usize, last % WORD_BITS);
        if first_w == last_w {
            return (self.words[first_w] & mask_between(first_b, last_b)).count_ones() as u64;
        }
        let mut n = (self.words[first_w] & mask_from(first_b)).count_ones() as u64;
        for w in self.nonzero_words_in(first_w + 1, last_w) {
            n += self.words[w].count_ones() as u64;
        }
        n + (self.words[last_w] & mask_to(last_b)).count_ones() as u64
    }

    /// OR another bitmap into this one (accumulating an iteration's
    /// working set from per-timeslice deltas). Both must have the same
    /// capacity.
    ///
    /// Touches only the words in which `other` has bits, so folding a
    /// sparse timeslice delta into a large accumulator is O(delta).
    #[cfg(test)]
    pub(crate) fn union_with(&mut self, other: &DirtyBitmap) {
        assert_eq!(self.pages, other.pages, "bitmap capacity mismatch");
        for w in other.nonzero_words_in(0, other.words.len()) {
            let old = self.words[w];
            let new = old | other.words[w];
            self.words[w] = new;
            self.set_count += (new.count_ones() - old.count_ones()) as u64;
        }
        // A union only adds bits: nonzero words stay nonzero.
        for (s, o) in self.summary.iter_mut().zip(&other.summary) {
            *s |= o;
        }
    }

    /// Iterate over the indices of nonzero words in `[from, to)`, in
    /// ascending order, via the summary.
    fn nonzero_words_in(&self, from: usize, to: usize) -> NonzeroWords<'_> {
        NonzeroWords::new(&self.summary, from, to.min(self.words.len()))
    }

    /// Iterate over the indices of set pages in ascending order.
    #[cfg(test)]
    pub(crate) fn iter_set(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            nonzero: NonzeroWords::new(&self.summary, 0, self.words.len()),
            word_base: 0,
            current: 0,
        }
    }

    /// Collect set pages into maximal contiguous [`PageRange`]s, in
    /// ascending order. This is what the incremental checkpointer saves.
    ///
    /// Runs are extracted a word at a time with `trailing_zeros`
    /// arithmetic — clean words are skipped entirely through the
    /// summary, and a fully dirty gigabyte costs one iteration per
    /// word, not per page.
    pub fn dirty_ranges(&self) -> Vec<PageRange> {
        let mut out = Vec::new();
        // Open run as (start, end-exclusive).
        let mut open: Option<(u64, u64)> = None;
        for w in self.nonzero_words_in(0, self.words.len()) {
            let base = w as u64 * WORD_BITS;
            let mut bits = self.words[w];
            while bits != 0 {
                let start_bit = bits.trailing_zeros() as u64;
                let shifted = bits >> start_bit;
                // Length of the run of consecutive ones at the bottom.
                let run_len = (!shifted).trailing_zeros() as u64;
                let run_start = base + start_bit;
                let run_end = run_start + run_len;
                match open {
                    Some((s, e)) if e == run_start => open = Some((s, run_end)),
                    Some((s, e)) => {
                        out.push(PageRange::new(s, e - s));
                        open = Some((run_start, run_end));
                    }
                    None => open = Some((run_start, run_end)),
                }
                if run_len + start_bit >= WORD_BITS {
                    break;
                }
                bits &= !(((1u64 << run_len) - 1) << start_bit);
            }
        }
        if let Some((s, e)) = open {
            out.push(PageRange::new(s, e - s));
        }
        out
    }

    /// Set summary bits for words `first..=last`.
    fn set_summary_range(&mut self, first: usize, last: usize) {
        let (fs, fb) = (first / WORD_BITS as usize, first as u64 % WORD_BITS);
        let (ls, lb) = (last / WORD_BITS as usize, last as u64 % WORD_BITS);
        if fs == ls {
            self.summary[fs] |= mask_between(fb, lb);
        } else {
            self.summary[fs] |= mask_from(fb);
            self.summary[fs + 1..ls].fill(u64::MAX);
            self.summary[ls] |= mask_to(lb);
        }
    }

    /// Clear summary bits for words `from..to` (exclusive end).
    fn clear_summary_range(&mut self, from: usize, to: usize) {
        if from >= to {
            return;
        }
        let (first, last) = (from, to - 1);
        let (fs, fb) = (first / WORD_BITS as usize, first as u64 % WORD_BITS);
        let (ls, lb) = (last / WORD_BITS as usize, last as u64 % WORD_BITS);
        if fs == ls {
            self.summary[fs] &= !mask_between(fb, lb);
        } else {
            self.summary[fs] &= !mask_from(fb);
            self.summary[fs + 1..ls].fill(0);
            self.summary[ls] &= !mask_to(lb);
        }
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let mut count = 0u64;
        for (w, &word) in self.words.iter().enumerate() {
            count += word.count_ones() as u64;
            let sbit = (self.summary[w / 64] >> (w % 64)) & 1 == 1;
            assert_eq!(sbit, word != 0, "summary bit for word {w} out of sync");
        }
        assert_eq!(count, self.set_count, "cached popcount out of sync");
    }
}

/// Iterator over the indices of nonzero words, driven by the summary.
struct NonzeroWords<'a> {
    summary: &'a [u64],
    /// Index of the summary word `bits` came from.
    sum_idx: usize,
    /// Remaining bits of the current summary word.
    bits: u64,
    /// Exclusive upper bound on word indices.
    to: usize,
}

impl<'a> NonzeroWords<'a> {
    fn new(summary: &'a [u64], from: usize, to: usize) -> Self {
        if from >= to {
            return Self { summary, sum_idx: 0, bits: 0, to: 0 };
        }
        let sum_idx = from / WORD_BITS as usize;
        // Mask off summary bits below `from`.
        let bits = summary.get(sum_idx).copied().unwrap_or(0) & mask_from(from as u64 % WORD_BITS);
        Self { summary, sum_idx, bits, to }
    }
}

impl Iterator for NonzeroWords<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                let w = self.sum_idx * WORD_BITS as usize + b;
                if w >= self.to {
                    self.bits = 0;
                    self.sum_idx = self.summary.len();
                    return None;
                }
                return Some(w);
            }
            self.sum_idx += 1;
            if self.sum_idx * WORD_BITS as usize >= self.to || self.sum_idx >= self.summary.len() {
                return None;
            }
            self.bits = self.summary[self.sum_idx];
        }
    }
}

/// Iterator over set bit indices.
#[cfg(test)]
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    nonzero: NonzeroWords<'a>,
    word_base: u64,
    current: u64,
}

#[cfg(test)]
impl Iterator for SetBits<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                return Some(self.word_base + bit);
            }
            let w = self.nonzero.next()?;
            self.word_base = w as u64 * WORD_BITS;
            self.current = self.words[w];
        }
    }
}

/// The previous single-level bitmap, kept as an executable reference.
///
/// Same observable behaviour as [`DirtyBitmap`] (the property tests in
/// `prop.rs` drive both through arbitrary op sequences and require
/// identical answers); iteration and clearing walk every word.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatDirtyBitmap {
    words: Vec<u64>,
    pages: u64,
    set_count: u64,
}

#[cfg(test)]
impl FlatDirtyBitmap {
    /// Create a flat bitmap covering `pages` pages, all clear.
    pub(crate) fn new(pages: u64) -> Self {
        let nwords = pages.div_ceil(WORD_BITS) as usize;
        Self { words: vec![0; nwords], pages, set_count: 0 }
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> u64 {
        self.set_count
    }

    /// Test a single page.
    pub(crate) fn get(&self, page: u64) -> bool {
        let w = (page / WORD_BITS) as usize;
        (self.words[w] >> (page % WORD_BITS)) & 1 == 1
    }

    /// Set a single page; returns whether it was clear.
    pub(crate) fn set(&mut self, page: u64) -> bool {
        debug_assert!(page < self.pages);
        let w = (page / WORD_BITS) as usize;
        let mask = 1u64 << (page % WORD_BITS);
        let old = self.words[w];
        self.words[w] = old | mask;
        let was_clear = old & mask == 0;
        self.set_count += was_clear as u64;
        was_clear
    }

    /// Clear a single page; returns whether it was set.
    pub(crate) fn clear(&mut self, page: u64) -> bool {
        debug_assert!(page < self.pages);
        let w = (page / WORD_BITS) as usize;
        let mask = 1u64 << (page % WORD_BITS);
        let old = self.words[w];
        self.words[w] = old & !mask;
        let was_set = old & mask != 0;
        self.set_count -= was_set as u64;
        was_set
    }

    /// Set every page in `range`; returns the newly set count.
    pub(crate) fn set_range(&mut self, range: PageRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        assert!(range.end() <= self.pages);
        let mut newly = 0u64;
        for page in range.iter() {
            newly += self.set(page) as u64;
        }
        newly
    }

    /// Clear every page in `range`; returns the dropped count.
    pub(crate) fn clear_range(&mut self, range: PageRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        assert!(range.end() <= self.pages);
        let mut dropped = 0u64;
        for page in range.iter() {
            dropped += self.clear(page) as u64;
        }
        dropped
    }

    /// Clear every bit by rewriting all words.
    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
        self.set_count = 0;
    }

    /// Count set bits in `range`.
    pub(crate) fn count_range(&self, range: PageRange) -> u64 {
        range.iter().filter(|&p| self.get(p)).count() as u64
    }

    /// OR `other` into `self`.
    pub(crate) fn union_with(&mut self, other: &FlatDirtyBitmap) {
        assert_eq!(self.pages, other.pages);
        let mut count = 0u64;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            count += a.count_ones() as u64;
        }
        self.set_count = count;
    }

    /// Set pages in ascending order (walks every word).
    pub(crate) fn iter_set(&self) -> impl Iterator<Item = u64> + '_ {
        let pages = self.pages;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let b = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    Some(w as u64 * WORD_BITS + b)
                })
            })
            .filter(move |&p| p < pages)
    }

    /// Maximal runs of set pages, in ascending order.
    pub(crate) fn dirty_ranges(&self) -> Vec<PageRange> {
        let mut out = Vec::new();
        let mut run_start: Option<u64> = None;
        let mut prev = 0u64;
        for page in self.iter_set() {
            match run_start {
                None => run_start = Some(page),
                Some(s) => {
                    if page != prev + 1 {
                        out.push(PageRange::new(s, prev - s + 1));
                        run_start = Some(page);
                    }
                }
            }
            prev = page;
        }
        if let Some(s) = run_start {
            out.push(PageRange::new(s, prev - s + 1));
        }
        out
    }
}

/// Bits `[from, 63]`.
#[inline]
const fn mask_from(from: u64) -> u64 {
    u64::MAX << from
}

/// Bits `[0, to]`.
#[inline]
const fn mask_to(to: u64) -> u64 {
    if to >= 63 {
        u64::MAX
    } else {
        (1u64 << (to + 1)) - 1
    }
}

/// Bits `[from, to]` within one word.
#[inline]
const fn mask_between(from: u64, to: u64) -> u64 {
    mask_from(from) & mask_to(to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut bm = DirtyBitmap::new(200);
        assert!(!bm.get(0));
        assert!(bm.set(0));
        assert!(!bm.set(0), "second set of same page reports no fault");
        assert!(bm.get(0));
        assert!(bm.set(199));
        assert_eq!(bm.count(), 2);
        bm.check_invariants();
    }

    #[test]
    fn clear_single() {
        let mut bm = DirtyBitmap::new(100);
        bm.set(42);
        assert!(bm.clear(42));
        assert!(!bm.clear(42));
        assert_eq!(bm.count(), 0);
        bm.check_invariants();
    }

    #[test]
    fn set_range_within_one_word() {
        let mut bm = DirtyBitmap::new(64);
        assert_eq!(bm.set_range(PageRange::new(3, 5)), 5);
        assert_eq!(bm.count(), 5);
        assert!(bm.get(3) && bm.get(7));
        assert!(!bm.get(2) && !bm.get(8));
        // Overlapping set reports only the newly dirtied pages.
        assert_eq!(bm.set_range(PageRange::new(5, 10)), 7);
        assert_eq!(bm.count(), 12);
        bm.check_invariants();
    }

    #[test]
    fn set_range_spanning_words() {
        let mut bm = DirtyBitmap::new(1000);
        assert_eq!(bm.set_range(PageRange::new(60, 200)), 200);
        assert_eq!(bm.count(), 200);
        assert!(!bm.get(59));
        assert!(bm.get(60));
        assert!(bm.get(259));
        assert!(!bm.get(260));
        bm.check_invariants();
    }

    #[test]
    fn clear_range_spanning_words() {
        let mut bm = DirtyBitmap::new(1000);
        bm.set_range(PageRange::new(0, 1000));
        assert_eq!(bm.clear_range(PageRange::new(100, 500)), 500);
        assert_eq!(bm.count(), 500);
        assert!(bm.get(99));
        assert!(!bm.get(100));
        assert!(!bm.get(599));
        assert!(bm.get(600));
        bm.check_invariants();
    }

    #[test]
    fn count_range_matches_iteration() {
        let mut bm = DirtyBitmap::new(500);
        for p in [0u64, 1, 63, 64, 65, 127, 128, 300, 499] {
            bm.set(p);
        }
        for (start, len) in [(0u64, 500u64), (1, 63), (64, 64), (129, 300), (499, 1)] {
            let r = PageRange::new(start, len);
            let by_iter = bm.iter_set().filter(|p| r.contains(*p)).count() as u64;
            assert_eq!(bm.count_range(r), by_iter, "range {r:?}");
        }
    }

    #[test]
    fn clear_all_resets() {
        let mut bm = DirtyBitmap::new(300);
        bm.set_range(PageRange::new(10, 250));
        bm.clear_all();
        assert_eq!(bm.count(), 0);
        assert!(bm.iter_set().next().is_none());
        bm.check_invariants();
    }

    #[test]
    fn iter_set_ascending() {
        let mut bm = DirtyBitmap::new(200);
        let pages = [5u64, 6, 64, 130, 199];
        for p in pages {
            bm.set(p);
        }
        let got: Vec<u64> = bm.iter_set().collect();
        assert_eq!(got, pages.to_vec());
    }

    #[test]
    fn dirty_ranges_coalesce_runs() {
        let mut bm = DirtyBitmap::new(300);
        bm.set_range(PageRange::new(0, 3));
        bm.set(10);
        bm.set_range(PageRange::new(63, 66)); // crosses a word boundary
        let runs = bm.dirty_ranges();
        assert_eq!(runs, vec![PageRange::new(0, 3), PageRange::new(10, 1), PageRange::new(63, 66)]);
    }

    #[test]
    fn dirty_ranges_full_words_and_boundaries() {
        // Runs that span whole words, summary-word boundaries (4096
        // pages apart), and single trailing bits.
        let mut bm = DirtyBitmap::new(10_000);
        bm.set_range(PageRange::new(0, 64));
        bm.set_range(PageRange::new(64, 64)); // contiguous with previous
        bm.set_range(PageRange::new(4095, 2)); // crosses summary word
        bm.set(9999);
        assert_eq!(
            bm.dirty_ranges(),
            vec![PageRange::new(0, 128), PageRange::new(4095, 2), PageRange::new(9999, 1)]
        );
        bm.check_invariants();
    }

    #[test]
    fn union_accumulates() {
        let mut a = DirtyBitmap::new(128);
        let mut b = DirtyBitmap::new(128);
        a.set_range(PageRange::new(0, 10));
        b.set_range(PageRange::new(5, 10));
        a.union_with(&b);
        assert_eq!(a.count(), 15);
        a.check_invariants();
    }

    #[test]
    fn union_sparse_far_apart() {
        // Bits in different summary words on both sides.
        let mut a = DirtyBitmap::new(1 << 20);
        let mut b = DirtyBitmap::new(1 << 20);
        a.set(0);
        a.set(500_000);
        b.set(1_000_000);
        b.set(500_000);
        a.union_with(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.iter_set().collect::<Vec<_>>(), vec![0, 500_000, 1_000_000]);
        a.check_invariants();
    }

    #[test]
    fn full_word_masks() {
        let mut bm = DirtyBitmap::new(64);
        assert_eq!(bm.set_range(PageRange::new(0, 64)), 64);
        assert_eq!(bm.count(), 64);
        assert_eq!(bm.clear_range(PageRange::new(0, 64)), 64);
        assert_eq!(bm.count(), 0);
        bm.check_invariants();
    }

    #[test]
    fn large_sparse_iteration_touches_only_set_words() {
        // 1 GB footprint, 100 dirty pages: iteration must be exact.
        let pages = 262_144u64;
        let mut bm = DirtyBitmap::new(pages);
        let set: Vec<u64> = (0..100).map(|i| i * 2621 + 7).collect();
        for &p in &set {
            bm.set(p);
        }
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), set);
        assert_eq!(bm.dirty_ranges().len(), 100);
        bm.check_invariants();
    }
}
