//! The message-matching rule, defined once.
//!
//! A rank's [`Mailbox`] holds the eager sends that reached it before
//! the matching receive was posted: the cluster event engine delivers
//! every outbox into the receiver's mailbox during its serial resolve
//! phase.

use crate::SimTime;

/// An in-flight eager send. The receiver charges the bounce-buffer
/// copy from `arrival`, see
/// [`NetConfig::recv_complete_time`](super::NetConfig::recv_complete_time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// Match tag.
    pub tag: u32,
    /// Payload size.
    pub bytes: u64,
    /// When the message reaches the receiver's NIC.
    pub arrival: SimTime,
}

/// Unmatched messages of one rank, in arrival order.
///
/// [`take`](Self::take) removes the *first* message from `src` with
/// `tag`, so messages of one `(src, tag)` pair leave in the order they
/// were pushed — sender program order, the MPI non-overtaking rule —
/// no matter how pushes for other pairs interleave. That per-pair FIFO
/// is the only ordering the engine relies on: a receive names
/// its `(src, tag)`, so the relative order of different pairs is never
/// observed.
///
/// One flat vector, linear first-match scan. No model leaves more than
/// four messages unmatched on a rank (receives follow their sends
/// within a phase), so a scan touches one or two cache lines where a
/// per-pair hash queue costs a hash, an allocation per pair ever seen
/// and a free per pair at teardown; the scan stays correct at any
/// depth.
#[derive(Debug, Default)]
pub struct Mailbox {
    msgs: Vec<Msg>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an arrived message.
    pub fn push(&mut self, msg: Msg) {
        self.msgs.push(msg);
    }

    /// Remove and return the earliest-pushed message from `src` with
    /// `tag`, if any.
    pub fn take(&mut self, src: usize, tag: u32) -> Option<Msg> {
        let i = self.msgs.iter().position(|m| m.src == src && m.tag == tag)?;
        Some(self.msgs.remove(i))
    }

    /// Whether no message awaits a receive (the coordinated-cut check:
    /// nothing may be in flight across a committed generation).
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, VecDeque};

    use crate::SplitMix64;

    use super::*;

    #[test]
    fn take_is_fifo_per_pair_and_ignores_other_pairs() {
        let mut mb = Mailbox::new();
        let msg = |src, tag, bytes| Msg { src, tag, bytes, arrival: SimTime(bytes) };
        for m in [msg(0, 1, 10), msg(0, 2, 20), msg(0, 1, 30), msg(1, 1, 40)] {
            mb.push(m);
        }
        assert_eq!(mb.take(0, 3), None, "absent tag");
        assert_eq!(mb.take(2, 1), None, "absent source");
        assert_eq!(mb.take(0, 1), Some(msg(0, 1, 10)));
        assert_eq!(mb.take(1, 1), Some(msg(1, 1, 40)));
        assert_eq!(mb.take(0, 1), Some(msg(0, 1, 30)));
        assert_eq!(mb.take(0, 1), None, "drained pair");
        assert_eq!(mb.msgs.len(), 1);
        assert_eq!(mb.take(0, 2), Some(msg(0, 2, 20)));
        assert!(mb.msgs.is_empty());
    }

    /// Random push/take interleavings against the structure the
    /// mailbox replaced: one FIFO queue per `(src, tag)` key.
    #[test]
    fn matches_per_pair_queue_reference_model() {
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(0xA11B_0C5E ^ seed);
            // Few sources and tags, so pairs collide and one source's
            // tags interleave; the depth cap sweeps 0 (nothing is ever
            // held, every take misses) to 64.
            let (nsrc, ntag) = (1 + rng.next_below(3), 1 + rng.next_below(4));
            let max_depth = (seed % 5 * 16) as usize;
            let mut mb = Mailbox::new();
            let mut reference: HashMap<(usize, u32), VecDeque<Msg>> = HashMap::new();
            // Push-heavy until the cap is hit, take-heavy until empty.
            let (mut deepest, mut filling) = (0, true);
            for serial in 0..2_000u64 {
                // One extra value per axis: a key that is never pushed.
                let src = rng.next_below(nsrc + 1) as usize;
                let tag = rng.next_below(ntag + 1) as u32;
                let pushable = (src as u64) < nsrc && (tag as u64) < ntag;
                match mb.msgs.len() {
                    0 => filling = true,
                    d if d >= max_depth => filling = false,
                    _ => {}
                }
                let push = rng.chance(if filling { 0.9 } else { 0.1 });
                if pushable && push && mb.msgs.len() < max_depth {
                    // `serial` makes every message distinguishable.
                    let m = Msg { src, tag, bytes: serial, arrival: SimTime(serial) };
                    mb.push(m);
                    reference.entry((src, tag)).or_default().push_back(m);
                } else {
                    let want = reference.get_mut(&(src, tag)).and_then(VecDeque::pop_front);
                    assert_eq!(mb.take(src, tag), want, "seed {seed} op {serial}");
                }
                deepest = deepest.max(mb.msgs.len());
                assert_eq!(mb.msgs.len(), reference.values().map(VecDeque::len).sum::<usize>());
            }
            assert_eq!(deepest, max_depth, "seed {seed}: cap never reached");
            // Drain: every remaining message leaves in per-pair order.
            for ((src, tag), q) in &mut reference {
                while let Some(want) = q.pop_front() {
                    assert_eq!(mb.take(*src, *tag), Some(want), "seed {seed} drain");
                }
            }
            assert!(mb.msgs.is_empty(), "seed {seed}: mailbox holds unknown messages");
        }
    }
}
