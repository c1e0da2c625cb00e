//! Calendar-queue event scheduling: the [`EventWheel`].
//!
//! The event-driven cluster engine needs a priority queue over
//! [`SimTime`] that stays cheap at tens of thousands of pending events.
//! A binary heap is `O(log n)` per operation and — worse for
//! determinism — provides no stable order for equal keys. The classic
//! calendar queue (Brown, CACM 1988) buckets events by time so insert
//! and pop are amortized `O(1)`, and a global sequence number gives a
//! deterministic FIFO tie-break within a timestamp: two events pushed
//! at the same `SimTime` pop in push order, always, regardless of
//! bucket layout or resize history.
//!
//! Implementation notes:
//!
//! * Buckets are a power-of-two ring over *years* (`time / width`); an
//!   entry lives in bucket `year & mask`. Popping scans from the
//!   current year; a whole lap without a hit falls back to a direct
//!   min-year scan, so sparse far-future schedules don't spin.
//! * The entries of the year being drained are sorted once into a run
//!   (`current`) and popped from the front. Pushes that land at or
//!   before the scan horizon binary-insert into the run, so
//!   out-of-order ("past") pushes are legal and still pop in exact
//!   `(time, seq)` order — the property the scheduler tests pin against
//!   a [`std::collections::BinaryHeap`] reference model.
//! * The ring doubles when occupancy exceeds [`OCCUPANCY`] entries per
//!   bucket, keeping the amortized cost constant as the engine scales
//!   from 16 to 16k ranks. Nothing here consults wall-clock time or
//!   randomness: the wheel is bit-for-bit deterministic.

use std::collections::VecDeque;

use crate::clock::SimTime;

/// Default bucket width: ~1 ms of virtual time (2^20 ns). Events of a
/// bulk-synchronous round cluster far tighter than this, so a round
/// drains as one sorted run.
pub(crate) const DEFAULT_BUCKET_NS: u64 = 1 << 20;

/// Ring doubling threshold: average entries per bucket.
const OCCUPANCY: usize = 4;

/// Minimum ring size (power of two).
const MIN_BUCKETS: usize = 16;

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

/// A deterministic calendar-queue priority queue over [`SimTime`].
///
/// ```
/// use ickpt_sim::{EventWheel, SimTime};
///
/// let mut w = EventWheel::new();
/// w.push(SimTime::from_secs(2), "late");
/// w.push(SimTime::from_secs(1), "early");
/// w.push(SimTime::from_secs(1), "early-2"); // FIFO within a timestamp
/// assert_eq!(w.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(w.pop(), Some((SimTime::from_secs(1), "early-2")));
/// assert_eq!(w.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(w.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventWheel<T> {
    /// Ring of per-slot entry lists; an entry's slot is
    /// `(time / width) & mask`.
    buckets: Vec<Vec<Entry<T>>>,
    mask: u64,
    /// Bucket width in virtual nanoseconds (power of two).
    width: u64,
    /// Next year the pop scan will visit. Everything strictly before
    /// this year has been moved into `current`.
    cursor_year: u64,
    /// The sorted run being drained: entries with
    /// `year < cursor_year`, ascending `(time, seq)`.
    current: VecDeque<Entry<T>>,
    len: usize,
    seq: u64,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel with the default ~1 ms bucket width.
    pub fn new() -> Self {
        Self::with_bucket_ns(DEFAULT_BUCKET_NS)
    }

    /// An empty wheel with buckets of `width_ns` virtual nanoseconds
    /// (rounded up to a power of two).
    pub(crate) fn with_bucket_ns(width_ns: u64) -> Self {
        let width = width_ns.max(1).next_power_of_two();
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS as u64 - 1,
            width,
            cursor_year: 0,
            current: VecDeque::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn year_of(&self, time: SimTime) -> u64 {
        time.0 / self.width
    }

    /// Schedule `item` at `time`. Events at equal times pop in push
    /// order (FIFO). Pushing earlier than already-popped times is
    /// allowed; such events simply become the next to pop.
    pub fn push(&mut self, time: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, item };
        let year = self.year_of(time);
        if year < self.cursor_year {
            // At or before the scan horizon: merge into the sorted run
            // so global (time, seq) order is preserved.
            let key = (entry.time, entry.seq);
            let at = self.current.partition_point(|e| (e.time, e.seq) < key);
            self.current.insert(at, entry);
        } else {
            let slot = (year & self.mask) as usize;
            self.buckets[slot].push(entry);
        }
        self.len += 1;
        self.maybe_grow();
    }

    /// Remove and return the earliest event as `(time, item)`; ties pop
    /// in push order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        let e = self.current.pop_front().expect("refill guarantees a run");
        self.len -= 1;
        Some((e.time, e.item))
    }

    /// Move the next non-empty year's entries into the sorted run.
    /// Returns false when the wheel is empty.
    fn refill(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        let nbuckets = self.buckets.len() as u64;
        // Scan at most one lap from the cursor; beyond that the
        // schedule is sparse, so jump straight to the minimum year.
        let mut year = self.cursor_year;
        let lap_end = self.cursor_year + nbuckets;
        loop {
            if year == lap_end {
                year = self.min_year().expect("len > 0 but no bucket entry");
            }
            let slot = (year & self.mask) as usize;
            if self.buckets[slot].iter().any(|e| self.year_key(e) == year) {
                break;
            }
            year += 1;
        }
        let slot = (year & self.mask) as usize;
        let bucket = std::mem::take(&mut self.buckets[slot]);
        let (mut run, keep): (Vec<_>, Vec<_>) =
            bucket.into_iter().partition(|e| e.time.0 / self.width == year);
        self.buckets[slot] = keep;
        run.sort_by_key(|e| (e.time, e.seq));
        self.current = run.into();
        self.cursor_year = year + 1;
        true
    }

    #[inline]
    fn year_key(&self, e: &Entry<T>) -> u64 {
        e.time.0 / self.width
    }

    fn min_year(&self) -> Option<u64> {
        self.buckets.iter().flatten().map(|e| self.year_key(e)).min()
    }

    fn maybe_grow(&mut self) {
        if self.len - self.current.len() <= self.buckets.len() * OCCUPANCY {
            return;
        }
        let new_n = (self.buckets.len() * 2).next_power_of_two();
        let mut buckets: Vec<Vec<Entry<T>>> = (0..new_n).map(|_| Vec::new()).collect();
        let mask = new_n as u64 - 1;
        for e in self.buckets.drain(..).flatten() {
            let slot = ((e.time.0 / self.width) & mask) as usize;
            buckets[slot].push(e);
        }
        self.buckets = buckets;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = EventWheel::new();
        for t in [5u64, 1, 9, 3, 7] {
            w.push(SimTime::from_secs(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = w.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_tie_break_within_a_timestamp() {
        let mut w = EventWheel::new();
        for i in 0..100 {
            w.push(SimTime::from_secs(1), i);
        }
        let out: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, v)| v).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_allows_past_pushes() {
        let mut w = EventWheel::new();
        w.push(SimTime::from_secs(10), "a");
        assert_eq!(w.pop().unwrap().1, "a");
        // Push earlier than the last popped time: still legal.
        w.push(SimTime::from_secs(1), "past");
        w.push(SimTime::from_secs(20), "future");
        assert_eq!(w.pop().unwrap().1, "past");
        assert_eq!(w.pop().unwrap().1, "future");
        assert!(w.is_empty());
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut w = EventWheel::new();
        w.push(SimTime::from_secs(100_000), 1u32);
        w.push(SimTime::from_secs(500_000), 2);
        assert_eq!(w.pop(), Some((SimTime::from_secs(100_000), 1)));
        assert_eq!(w.pop(), Some((SimTime::from_secs(500_000), 2)));
    }

    #[test]
    fn same_bucket_different_times_sort() {
        // Entries within one bucket year must still sort by exact time.
        let mut w = EventWheel::with_bucket_ns(1 << 30); // ~1 s buckets
        w.push(SimTime(800_000_000), "late");
        w.push(SimTime(100_000_000), "early");
        assert_eq!(w.pop().unwrap().1, "early");
        assert_eq!(w.pop().unwrap().1, "late");
    }

    #[test]
    fn grows_past_many_entries() {
        let mut w = EventWheel::new();
        let n = 10_000u64;
        for i in 0..n {
            // Deterministic scatter over ~16 s.
            w.push(SimTime(i.wrapping_mul(0x9E37_79B9) % 16_000_000_000), i);
        }
        assert_eq!(w.len(), n as usize);
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = w.pop() {
            assert!(t >= prev, "pop order must be non-decreasing");
            prev = t;
            count += 1;
        }
        assert_eq!(count, n);
    }
}
