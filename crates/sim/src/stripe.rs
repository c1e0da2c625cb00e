//! A striped multi-device storage array.
//!
//! stdchk-style checkpoint services scale aggregate write throughput
//! by striping each stream across several storage nodes and
//! pipelining the per-stripe transfers. This module models that
//! shape on top of [`BandwidthDevice`]: an array of `M` independent
//! FIFO devices, a fixed stripe-chunk size, and a round-robin cursor
//! that assigns consecutive chunks to consecutive devices. A chunk
//! only ever occupies one device, so `M` devices give up to `M`-way
//! write parallelism while each device keeps the FIFO queuing (and
//! therefore the determinism) of the single-device model.
//!
//! [`StripedArray::write_chunk`] charges one stripe chunk and returns
//! which device served it: the service scheduler's pipelined path,
//! where chunk completions are individual events. Splitting a request
//! into chunks no larger than the stripe chunk is the caller's job.

use crate::clock::{SimDuration, SimTime};
use crate::device::{BandwidthDevice, Transfer};

/// The whole-write breakdown returned by [`StripedArray::write`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StripeTransfer {
    /// Earliest instant any chunk started service.
    pub start: SimTime,
    /// Latest chunk completion — when the logical write is durable.
    pub done: SimTime,
    /// Stripe chunks charged.
    pub chunks: u64,
    /// Summed queue wait across chunks.
    pub queue_wait: SimDuration,
    /// Summed service time across chunks.
    pub service: SimDuration,
}

/// See the module docs.
pub struct StripedArray {
    devices: Vec<BandwidthDevice>,
    stripe_chunk: u64,
    cursor: usize,
}

impl StripedArray {
    /// An array of `devices` with `stripe_chunk`-byte striping.
    /// Panics on an empty device list or a zero chunk size.
    pub(crate) fn new(devices: Vec<BandwidthDevice>, stripe_chunk: u64) -> Self {
        assert!(!devices.is_empty(), "striped array needs at least one device");
        assert!(stripe_chunk > 0, "stripe chunk must be positive");
        Self { devices, stripe_chunk, cursor: 0 }
    }

    /// `width` identical devices of `bytes_per_sec` / `latency`.
    pub fn homogeneous(
        width: usize,
        bytes_per_sec: u64,
        latency: SimDuration,
        stripe_chunk: u64,
    ) -> Self {
        Self::new(
            (0..width.max(1)).map(|_| BandwidthDevice::new(bytes_per_sec, latency)).collect(),
            stripe_chunk,
        )
    }

    /// Split `bytes` into stripe-chunk units (the last one ragged).
    /// Zero-byte writes still occupy one (empty) chunk so latency is
    /// charged like the single-device model does.
    #[cfg(test)]
    fn chunk_sizes(&self, bytes: u64) -> impl Iterator<Item = u64> + '_ {
        let full = bytes / self.stripe_chunk;
        let rem = bytes % self.stripe_chunk;
        let tail = if rem > 0 || bytes == 0 { 1 } else { 0 };
        (0..full + tail).map(move |i| if i < full { self.stripe_chunk } else { rem })
    }

    /// Charge one stripe chunk on the next device in round-robin
    /// order; returns the serving device's index and the transfer.
    pub fn write_chunk(&mut self, now: SimTime, bytes: u64) -> (usize, Transfer) {
        debug_assert!(bytes <= self.stripe_chunk, "a chunk never exceeds the stripe chunk");
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.devices.len();
        (idx, self.devices[idx].transfer_detailed(now, bytes))
    }

    /// Charge a whole logical write: stripe it into chunks, issue all
    /// of them at `now` round-robin, and report the combined
    /// breakdown. The write is durable at `done` (the slowest chunk).
    #[cfg(test)]
    fn write(&mut self, now: SimTime, bytes: u64) -> StripeTransfer {
        let sizes: Vec<u64> = self.chunk_sizes(bytes).collect();
        let mut out = StripeTransfer {
            start: SimTime(u64::MAX),
            done: now,
            chunks: 0,
            queue_wait: SimDuration::ZERO,
            service: SimDuration::ZERO,
        };
        for sz in sizes {
            let (_, t) = self.write_chunk(now, sz);
            out.start = out.start.min(t.start);
            out.done = out.done.max(t.done);
            out.chunks += 1;
            out.queue_wait = SimDuration(out.queue_wait.0 + t.queue_wait.0);
            out.service = SimDuration(out.service.0 + t.service.0);
        }
        if out.start == SimTime(u64::MAX) {
            out.start = now;
        }
        out
    }

    /// Per-device cumulative payload bytes, device order.
    pub fn device_bytes(&self) -> Vec<u64> {
        self.devices.iter().map(|d| d.bytes_total()).collect()
    }

    /// Total transfers serviced across all devices.
    pub fn transfers(&self) -> u64 {
        self.devices.iter().map(|d| d.transfers()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(width: usize) -> StripedArray {
        // 1 MB/s devices, zero latency, 1 MB stripe chunks.
        StripedArray::homogeneous(width, 1_000_000, SimDuration::ZERO, 1_000_000)
    }

    #[test]
    fn striping_scales_aggregate_throughput() {
        // 4 MB onto one device: 4 s. Onto four devices: 1 s.
        let mut one = array(1);
        let mut four = array(4);
        assert_eq!(one.write(SimTime::ZERO, 4_000_000).done, SimTime::from_secs(4));
        let t = four.write(SimTime::ZERO, 4_000_000);
        assert_eq!(t.done, SimTime::from_secs(1));
        assert_eq!(t.chunks, 4);
        assert_eq!(four.device_bytes(), vec![1_000_000; 4]);
    }

    #[test]
    fn ragged_tail_and_cursor_rotation() {
        let mut a = array(2);
        // 2.5 MB = chunks of 1, 1, 0.5 MB on devices 0, 1, 0.
        let t = a.write(SimTime::ZERO, 2_500_000);
        assert_eq!(t.chunks, 3);
        assert_eq!(a.device_bytes(), vec![1_500_000, 1_000_000]);
        // The cursor carried on to device 1 for the next write.
        let (idx, _) = a.write_chunk(SimTime::ZERO, 1);
        assert_eq!(idx, 1);
    }

    #[test]
    fn single_device_matches_bandwidth_device() {
        let mut a = StripedArray::homogeneous(1, 320_000_000, SimDuration::from_millis(4), 1 << 22);
        let mut d = BandwidthDevice::new(320_000_000, SimDuration::from_millis(4));
        // A write that fits one stripe chunk is charged identically.
        let t = a.write(SimTime::from_secs(1), 1 << 20);
        let r = d.transfer_detailed(SimTime::from_secs(1), 1 << 20);
        assert_eq!(t.done, r.done);
        assert_eq!(t.service, r.service);
    }

    #[test]
    fn zero_byte_write_still_costs_latency() {
        let mut a = StripedArray::homogeneous(2, 1_000_000, SimDuration::from_millis(1), 1_000);
        let t = a.write(SimTime::ZERO, 0);
        assert_eq!(t.chunks, 1);
        assert_eq!(t.done, SimTime(1_000_000));
    }

    #[test]
    fn writes_are_deterministic() {
        let run = || {
            let mut a = array(3);
            let mut dones = Vec::new();
            for i in 0..20u64 {
                dones.push(a.write(SimTime(i * 7), 300_000 + i * 13).done);
            }
            (dones, a.device_bytes())
        };
        assert_eq!(run(), run());
    }
}
