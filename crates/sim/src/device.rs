//! Bandwidth/latency device models.
//!
//! §3 of the paper identifies two potential bottlenecks for saving
//! checkpoint data: the interconnection network and the storage device.
//! Its reference numbers are the Quadrics QsNet II NIC at **900 MB/s**
//! peak and a SCSI (Seagate Cheetah) disk at **320 MB/s** peak, and the
//! feasibility argument compares required incremental bandwidth against
//! them. This module models such devices as a (latency, bandwidth) pair
//! with FIFO queuing: a transfer issued at `t` starts when the device is
//! free, occupies it for `bytes / bandwidth`, and completes after an
//! additional fixed latency.

use crate::clock::{SimDuration, SimTime};

/// Named device presets with the paper's reference numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePreset {
    /// Quadrics QsNet II: 900 MB/s peak, ~2 µs MPI-level latency (§3).
    QsNet2,
    /// Quadrics QsNet (Elan3), the cluster's installed network:
    /// ~340 MB/s per rail, ~5 µs latency.
    QsNet,
    /// SCSI disk (Seagate Cheetah-class): 320 MB/s peak, ~4 ms access.
    ScsiDisk,
    /// 2004-era local memory copy path (~2 GB/s), used for the bounce
    /// buffer copy cost.
    MemoryCopy,
    /// Node-local checkpoint cache (RAM-disk / local scratch class,
    /// ~1 GB/s, ~10 µs): the fast first tier of a multilevel scheme,
    /// as in SCR's node-local cache.
    NodeLocal,
}

impl DevicePreset {
    /// Bandwidth in bytes/second.
    pub fn bandwidth(&self) -> u64 {
        match self {
            DevicePreset::QsNet2 => 900_000_000,
            DevicePreset::QsNet => 340_000_000,
            DevicePreset::ScsiDisk => 320_000_000,
            DevicePreset::MemoryCopy => 2_000_000_000,
            DevicePreset::NodeLocal => 1_000_000_000,
        }
    }

    /// Fixed per-operation latency.
    pub(crate) fn latency(&self) -> SimDuration {
        match self {
            DevicePreset::QsNet2 => SimDuration::from_micros(2),
            DevicePreset::QsNet => SimDuration::from_micros(5),
            DevicePreset::ScsiDisk => SimDuration::from_millis(4),
            DevicePreset::MemoryCopy => SimDuration::ZERO,
            DevicePreset::NodeLocal => SimDuration::from_micros(10),
        }
    }

    /// Build the corresponding device.
    pub fn build(&self) -> BandwidthDevice {
        BandwidthDevice::new(self.bandwidth(), self.latency())
    }
}

/// Full accounting for one transfer through a [`BandwidthDevice`]:
/// where the time went, split into FIFO queue wait vs actual service
/// (wire time + fixed latency). Feeds the flight recorder's
/// `DeviceTransfer` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the device started serving this transfer (≥ issue time).
    pub start: SimTime,
    /// When the last byte left the wire (excludes fixed latency).
    pub done_on_wire: SimTime,
    /// Completion instant observed by the caller (wire + latency).
    pub done: SimTime,
    /// Time spent queued behind earlier transfers (`start - now`).
    pub queue_wait: SimDuration,
    /// Time the transfer occupied the device plus fixed latency.
    pub service: SimDuration,
}

/// A FIFO bandwidth device.
#[derive(Debug, Clone)]
pub struct BandwidthDevice {
    bytes_per_sec: u64,
    latency: SimDuration,
    busy_until: SimTime,
    /// Total bytes pushed through the device (utilization accounting).
    bytes_total: u64,
    /// Total time the device spent busy.
    busy_total: SimDuration,
    /// Number of transfers issued.
    transfers: u64,
}

impl BandwidthDevice {
    /// A device with the given peak bandwidth (bytes/s) and fixed
    /// per-operation latency.
    pub fn new(bytes_per_sec: u64, latency: SimDuration) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        Self {
            bytes_per_sec,
            latency,
            busy_until: SimTime::ZERO,
            bytes_total: 0,
            busy_total: SimDuration::ZERO,
            transfers: 0,
        }
    }

    /// Issue a transfer of `bytes` at time `now`; returns the completion
    /// instant. The device serializes transfers FIFO: if it is still
    /// busy, the transfer queues.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.transfer_detailed(now, bytes).done
    }

    /// [`BandwidthDevice::transfer`], returning the full queue-wait vs
    /// service breakdown for observability.
    pub fn transfer_detailed(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let start = self.busy_until.max(now);
        let queue_wait = start.saturating_sub(now);
        let xfer = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        let done_on_wire = start + xfer;
        self.busy_until = done_on_wire;
        self.bytes_total += bytes;
        self.busy_total += xfer;
        self.transfers += 1;
        Transfer {
            start,
            done_on_wire,
            done: done_on_wire + self.latency,
            queue_wait,
            service: xfer + self.latency,
        }
    }

    /// Total bytes transferred.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Total time the device spent busy transferring.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of transfers issued through the device.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_numbers() {
        assert_eq!(DevicePreset::QsNet2.bandwidth(), 900_000_000);
        assert_eq!(DevicePreset::ScsiDisk.bandwidth(), 320_000_000);
    }

    #[test]
    fn idle_transfer_costs_bandwidth_plus_latency() {
        let mut d = BandwidthDevice::new(1_000_000, SimDuration::from_micros(10));
        // 1 MB at 1 MB/s = 1 s, plus 10 us latency.
        let done = d.transfer(SimTime::ZERO, 1_000_000);
        assert_eq!(done, SimTime::from_secs(1) + SimDuration::from_micros(10));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut d = BandwidthDevice::new(1_000_000, SimDuration::ZERO);
        let a = d.transfer(SimTime::ZERO, 500_000); // done at 0.5s
        let b = d.transfer(SimTime::ZERO, 500_000); // queued: done at 1.0s
        assert_eq!(a, SimTime::from_secs_f64(0.5));
        assert_eq!(b, SimTime::from_secs(1));
    }

    #[test]
    fn late_issue_does_not_wait() {
        let mut d = BandwidthDevice::new(1_000_000, SimDuration::ZERO);
        d.transfer(SimTime::ZERO, 100_000); // busy until 0.1s
        let done = d.transfer(SimTime::from_secs(5), 100_000);
        assert_eq!(done, SimTime::from_secs_f64(5.1));
    }

    #[test]
    fn byte_accounting() {
        let mut d = BandwidthDevice::new(1_000_000, SimDuration::ZERO);
        d.transfer(SimTime::ZERO, 500_000);
        assert_eq!(d.bytes_total(), 500_000);
    }

    #[test]
    fn back_to_back_transfer_accrues_queue_wait() {
        let mut d = BandwidthDevice::new(1_000_000, SimDuration::from_micros(10));
        let a = d.transfer_detailed(SimTime::ZERO, 500_000);
        assert_eq!(a.queue_wait, SimDuration::ZERO);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.service, SimDuration::from_secs_f64(0.5) + SimDuration::from_micros(10));
        // Issued while the first transfer still owns the wire: waits
        // the remaining 0.5 s in queue, then gets full service.
        let b = d.transfer_detailed(SimTime::ZERO, 500_000);
        assert_eq!(b.queue_wait, SimDuration::from_secs_f64(0.5));
        assert_eq!(b.start, SimTime::from_secs_f64(0.5));
        assert_eq!(b.done_on_wire, SimTime::from_secs(1));
        assert_eq!(b.done, SimTime::from_secs(1) + SimDuration::from_micros(10));
        assert_eq!(d.transfers(), 2);
    }

    #[test]
    fn gapped_transfers_never_queue() {
        let mut d = BandwidthDevice::new(1_000_000, SimDuration::ZERO);
        let a = d.transfer_detailed(SimTime::ZERO, 100_000); // busy until 0.1 s
        let b = d.transfer_detailed(SimTime::from_secs(5), 100_000);
        assert_eq!(a.queue_wait, SimDuration::ZERO);
        assert_eq!(b.queue_wait, SimDuration::ZERO);
        assert_eq!(b.start, SimTime::from_secs(5));
        // Busy time only counts wire occupancy, not the idle gap.
        assert_eq!(d.busy_total(), SimDuration::from_secs_f64(0.2));
    }

    #[test]
    fn transfer_and_detailed_agree() {
        let mut a = BandwidthDevice::new(2_000_000, SimDuration::from_micros(3));
        let mut b = a.clone();
        for (t, bytes) in [(0u64, 100_000u64), (0, 50_000), (7, 250_000)] {
            let done = a.transfer(SimTime::from_secs(t), bytes);
            let det = b.transfer_detailed(SimTime::from_secs(t), bytes);
            assert_eq!(done, det.done);
        }
        assert_eq!(a.bytes_total(), b.bytes_total());
    }
}
