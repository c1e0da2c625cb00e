//! Working sets and access patterns.
//!
//! A compute phase of a scientific code sweeps arrays: the model of a
//! phase is "touch these pages, in this order, spread uniformly over
//! this duration". [`WorkingSet`] flattens a possibly fragmented set of
//! mapped ranges (Sage's mmap blocks) into one cyclic index space, and
//! [`AccessPattern`] describes how a phase walks it. The cluster runner
//! slices patterns at timeslice boundaries, so the tracker sees exactly
//! the pages a real run would dirty in each window.

use ickpt_mem::PageRange;

/// A set of page ranges flattened into a contiguous cyclic index space
/// `[0, total_pages)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkingSet {
    ranges: Vec<PageRange>,
    total: u64,
}

impl WorkingSet {
    /// Build from ranges (kept in the given order; overlaps allowed but
    /// unusual).
    pub fn new(ranges: Vec<PageRange>) -> Self {
        let total = ranges.iter().map(|r| r.len).sum();
        Self { ranges, total }
    }

    /// Total pages in the set.
    pub(crate) fn total_pages(&self) -> u64 {
        self.total
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The underlying ranges.
    #[cfg(test)]
    fn ranges(&self) -> &[PageRange] {
        &self.ranges
    }

    /// A sub-set covering the flat fraction interval `[lo, hi)` of this
    /// set (used to carve per-kernel slices out of an application's
    /// arrays).
    pub(crate) fn slice_frac(&self, lo: f64, hi: f64) -> WorkingSet {
        assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0, "bad fraction [{lo},{hi})");
        let start = (self.total as f64 * lo).floor() as u64;
        let end = (self.total as f64 * hi).floor() as u64;
        WorkingSet::new(self.resolve_span(start, end - start))
    }

    /// Resolve the flat span `[start, start+len)` (no wraparound) into
    /// page ranges.
    fn resolve_span(&self, start: u64, len: u64) -> Vec<PageRange> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let mut pos = 0u64;
        let mut remaining_start = start;
        let mut remaining_len = len;
        for r in &self.ranges {
            let r_end = pos + r.len;
            if remaining_start < r_end && remaining_len > 0 {
                let off_in_range = remaining_start - pos;
                let take = (r.len - off_in_range).min(remaining_len);
                out.push(PageRange::new(r.start + off_in_range, take));
                remaining_start += take;
                remaining_len -= take;
            }
            pos = r_end;
            if remaining_len == 0 {
                break;
            }
        }
        assert!(remaining_len == 0, "span [{start}, +{len}) exceeds working set {}", self.total);
        out
    }

    /// Resolve the *cyclic* flat span `[start mod total, +len)` into
    /// page ranges. When `len >= total`, the whole set is returned once
    /// (touching a page twice in one window is idempotent for dirty
    /// tracking).
    pub(crate) fn cyclic_span(&self, start: u64, len: u64) -> Vec<PageRange> {
        if self.total == 0 || len == 0 {
            return Vec::new();
        }
        if len >= self.total {
            return self.ranges.clone();
        }
        let s = start % self.total;
        if s + len <= self.total {
            self.resolve_span(s, len)
        } else {
            let mut out = self.resolve_span(s, self.total - s);
            out.extend(self.resolve_span(0, len - (self.total - s)));
            out
        }
    }
}

/// How a compute phase touches memory over its duration.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// Pure computation on registers/cache: no page writes (or writes
    /// confined to the untracked stack, as §4.2 permits).
    None,
    /// Sequential cyclic sweep: `total_pages` page touches starting at
    /// flat offset `start_offset`, advancing uniformly in time. More
    /// touches than the set's size wraps around (reuse).
    Sweep {
        /// The set being swept.
        set: WorkingSet,
        /// Total page touches over the phase.
        total_pages: u64,
        /// Flat starting offset in the set.
        start_offset: u64,
    },
    /// Uniformly random single-page touches (pointer-chasing codes).
    Random {
        /// The set touched.
        set: WorkingSet,
        /// Total page touches over the phase.
        touches: u64,
        /// PRNG seed for this phase.
        seed: u64,
    },
}

impl AccessPattern {
    /// The page ranges touched in the sub-interval `[f0, f1)` of the
    /// phase (fractions of its duration). The union over a partition of
    /// `[0, 1)` equals the full phase's touches.
    pub fn slice(&self, f0: f64, f1: f64) -> Vec<PageRange> {
        debug_assert!((0.0..=1.0).contains(&f0) && f0 <= f1 && f1 <= 1.0);
        match self {
            AccessPattern::None => Vec::new(),
            AccessPattern::Sweep { set, total_pages, start_offset } => {
                let p0 = (*total_pages as f64 * f0).round() as u64;
                let p1 = (*total_pages as f64 * f1).round() as u64;
                set.cyclic_span(start_offset + p0, p1 - p0)
            }
            AccessPattern::Random { set, touches, seed } => {
                if set.is_empty() {
                    return Vec::new();
                }
                let t0 = (*touches as f64 * f0).round() as u64;
                let t1 = (*touches as f64 * f1).round() as u64;
                // Stateless slicing: the i-th touch is a pure function
                // of (seed, i), so any partition yields the same
                // multiset of touches.
                let mut out = Vec::with_capacity((t1 - t0) as usize);
                for i in t0..t1 {
                    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    x ^= x >> 31;
                    let flat = x % set.total_pages();
                    out.extend(set.cyclic_span(flat, 1));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ws() -> WorkingSet {
        // Fragmented: [10,15) [30,35) [50,60) => 20 pages flat.
        WorkingSet::new(vec![PageRange::new(10, 5), PageRange::new(30, 5), PageRange::new(50, 10)])
    }

    fn expand(ranges: &[PageRange]) -> Vec<u64> {
        ranges.iter().flat_map(|r| r.iter()).collect()
    }

    #[test]
    fn totals() {
        assert_eq!(ws().total_pages(), 20);
        assert!(WorkingSet::new(vec![]).is_empty());
    }

    #[test]
    fn span_within_one_range() {
        let s = ws().cyclic_span(1, 3);
        assert_eq!(expand(&s), vec![11, 12, 13]);
    }

    #[test]
    fn span_across_ranges() {
        let s = ws().cyclic_span(3, 5);
        // Flat 3..8 = pages 13,14 then 30,31,32.
        assert_eq!(expand(&s), vec![13, 14, 30, 31, 32]);
    }

    #[test]
    fn span_wraps_around() {
        let s = ws().cyclic_span(18, 4);
        // Flat 18,19 = pages 58,59; wrap to flat 0,1 = pages 10,11.
        assert_eq!(expand(&s), vec![58, 59, 10, 11]);
    }

    #[test]
    fn span_longer_than_set_returns_whole_set_once() {
        let s = ws().cyclic_span(7, 100);
        assert_eq!(expand(&s).len(), 20);
        let unique: BTreeSet<u64> = expand(&s).into_iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn slice_frac_carves_subsets() {
        let half = ws().slice_frac(0.0, 0.5);
        assert_eq!(half.total_pages(), 10);
        assert_eq!(expand(half.ranges()), vec![10, 11, 12, 13, 14, 30, 31, 32, 33, 34]);
        let quarter = ws().slice_frac(0.75, 1.0);
        assert_eq!(expand(quarter.ranges()), vec![55, 56, 57, 58, 59]);
    }

    #[test]
    fn sweep_slices_partition_the_phase() {
        let pat = AccessPattern::Sweep { set: ws(), total_pages: 15, start_offset: 3 };
        let whole: BTreeSet<u64> = expand(&pat.slice(0.0, 1.0)).into_iter().collect();
        let mut parts: BTreeSet<u64> = BTreeSet::new();
        for i in 0..5 {
            let f0 = i as f64 / 5.0;
            let f1 = (i + 1) as f64 / 5.0;
            parts.extend(expand(&pat.slice(f0, f1)));
        }
        assert_eq!(whole, parts, "slicing must not change coverage");
        assert_eq!(whole.len(), 15);
    }

    #[test]
    fn sweep_wrap_covers_everything() {
        let pat = AccessPattern::Sweep { set: ws(), total_pages: 45, start_offset: 0 };
        let pages: BTreeSet<u64> = expand(&pat.slice(0.0, 1.0)).into_iter().collect();
        assert_eq!(pages.len(), 20, "more than 2 passes covers the full set");
    }

    #[test]
    fn random_slicing_is_stateless() {
        let pat = AccessPattern::Random { set: ws(), touches: 40, seed: 9 };
        let whole = expand(&pat.slice(0.0, 1.0));
        let mut parts = Vec::new();
        parts.extend(expand(&pat.slice(0.0, 0.3)));
        parts.extend(expand(&pat.slice(0.3, 0.9)));
        parts.extend(expand(&pat.slice(0.9, 1.0)));
        assert_eq!(whole, parts);
        assert_eq!(whole.len(), 40);
        assert!(whole.iter().all(|p| ws().cyclic_span(0, 20).iter().any(|r| r.contains(*p))));
    }

    #[test]
    fn empty_pattern_touches_nothing() {
        assert!(AccessPattern::None.slice(0.0, 1.0).is_empty());
    }
}
