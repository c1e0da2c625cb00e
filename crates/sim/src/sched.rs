//! Deterministic event scheduling: the [`EventWheel`].
//!
//! The event-driven cluster engine and the store service need a
//! priority queue over [`SimTime`] whose pop order is fully determined
//! by the pushes: two events pushed at the same `SimTime` pop in push
//! order, always. The wheel is a [`std::collections::BinaryHeap`] keyed
//! on one packed `u128`, `(time << 64) | seq`, where `seq` counts
//! pushes. Comparing the packed key is comparing `(time, seq)`, so ties
//! break FIFO and pushes into the already-popped past are legal: they
//! simply become the next to pop. Nothing here consults wall-clock
//! time or randomness.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

#[derive(Debug)]
struct Entry<T> {
    /// `(time << 64) | seq`.
    key: u128,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap pops the smallest key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A deterministic priority queue over [`SimTime`].
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
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `item` at `time`. Events at equal times pop in push
    /// order (FIFO). Pushing earlier than already-popped times is
    /// allowed; such events simply become the next to pop.
    pub fn push(&mut self, time: SimTime, item: T) {
        let key = (u128::from(time.0) << 64) | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Entry { key, item });
    }

    /// Remove and return the earliest event as `(time, item)`; ties pop
    /// in push order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (SimTime((e.key >> 64) as u64), e.item))
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
        let mut w = EventWheel::new();
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
