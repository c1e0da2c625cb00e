//! Interconnect configuration: the QsNet model.
//!
//! §3 of the paper quotes 900 MB/s for the (then-new) QsNet II and the
//! experiments ran on the original QsNet (Elan3, ~340 MB/s per rail).
//! The model is a per-rank NIC with (bandwidth, latency) plus a local
//! memory-copy path used for the bounce-buffer receive copy and the
//! eager-send buffer hand-off.
//!
//! All communication *cost formulas* live here as pure functions of the
//! configuration; the cluster event engine only decides *when* they
//! apply.

use crate::{BandwidthDevice, DevicePreset, SimDuration, SimTime};

/// Interconnect and host parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// NIC link bandwidth in bytes/s.
    pub nic_bandwidth: u64,
    /// One-way message latency.
    pub nic_latency: SimDuration,
    /// Host memory-copy bandwidth (bounce-buffer copies) in bytes/s.
    pub mem_copy_bandwidth: u64,
    /// Per-stage latency of tree collectives.
    pub collective_stage_latency: SimDuration,
}

impl NetConfig {
    /// The cluster the paper measured on: Quadrics QsNet (Elan3).
    pub fn qsnet() -> Self {
        Self::from_preset(DevicePreset::QsNet)
    }

    /// Build from a NIC preset with default host parameters.
    pub(crate) fn from_preset(preset: DevicePreset) -> Self {
        Self {
            nic_bandwidth: preset.bandwidth(),
            nic_latency: preset.latency(),
            mem_copy_bandwidth: DevicePreset::MemoryCopy.bandwidth(),
            collective_stage_latency: preset.latency(),
        }
    }

    /// Build the per-rank NIC device.
    pub fn build_nic(&self) -> BandwidthDevice {
        BandwidthDevice::new(self.nic_bandwidth, self.nic_latency)
    }

    /// ceil(log2(n)), the stage count of binomial-tree collectives.
    pub(crate) fn tree_stages(nranks: usize) -> u32 {
        assert!(nranks > 0);
        (nranks as u64).next_power_of_two().trailing_zeros()
    }

    /// Cost of a barrier across `nranks`: a gather + release over a
    /// binomial tree.
    pub(crate) fn barrier_cost(&self, nranks: usize) -> SimDuration {
        self.collective_stage_latency * (2 * Self::tree_stages(nranks)) as u64
    }

    /// Cost of an allreduce of `bytes` across `nranks`:
    /// reduce + broadcast over a binomial tree, each stage moving the
    /// payload once.
    pub fn allreduce_cost(&self, nranks: usize, bytes: u64) -> SimDuration {
        let stages = (2 * Self::tree_stages(nranks)) as u64;
        let per_stage =
            self.collective_stage_latency + SimDuration::for_transfer(bytes, self.nic_bandwidth);
        per_stage * stages
    }

    /// Bytes a rank receives during an allreduce (for traffic
    /// accounting): the payload once per reduce stage it participates
    /// in, approximated as `log2(n) * bytes`.
    pub fn allreduce_recv_bytes(nranks: usize, bytes: u64) -> u64 {
        Self::tree_stages(nranks) as u64 * bytes
    }

    // -- Pure completion-time formulas ------------------------------

    /// Sender's new local time after handing an eager-send buffer to
    /// the NIC: one memory copy of the payload.
    pub fn send_handoff_time(&self, now: SimTime, bytes: u64) -> SimTime {
        now + SimDuration::for_transfer(bytes, self.mem_copy_bandwidth)
    }

    /// Receiver's new local time after consuming a message that hit the
    /// NIC at `arrival`: wait for it, then one bounce-buffer copy.
    pub fn recv_complete_time(&self, now: SimTime, arrival: SimTime, bytes: u64) -> SimTime {
        now.max(arrival) + SimDuration::for_transfer(bytes, self.mem_copy_bandwidth)
    }

    /// Completion time of a barrier whose last participant entered at
    /// `entry_max`.
    pub fn barrier_complete_time(&self, entry_max: SimTime, nranks: usize) -> SimTime {
        entry_max + self.barrier_cost(nranks)
    }

    /// Completion time of an allreduce of `bytes` whose last
    /// participant entered at `entry_max`.
    pub fn allreduce_complete_time(
        &self,
        entry_max: SimTime,
        nranks: usize,
        bytes: u64,
    ) -> SimTime {
        entry_max + self.allreduce_cost(nranks, bytes)
    }

    /// Per-rank volume of a personalized all-to-all: `bytes_per_pair`
    /// exchanged with every other rank.
    pub fn alltoall_volume(nranks: usize, bytes_per_pair: u64) -> u64 {
        bytes_per_pair * (nranks as u64).saturating_sub(1)
    }

    /// Completion time of a personalized all-to-all whose last
    /// participant entered at `entry_max` (pipelined ring schedule).
    pub fn alltoall_complete_time(
        &self,
        entry_max: SimTime,
        nranks: usize,
        bytes_per_pair: u64,
    ) -> SimTime {
        let vol = Self::alltoall_volume(nranks, bytes_per_pair);
        entry_max
            + SimDuration::for_transfer(vol, self.nic_bandwidth)
            + self.collective_stage_latency * Self::tree_stages(nranks) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(NetConfig::from_preset(DevicePreset::QsNet2).nic_bandwidth, 900_000_000);
        assert_eq!(NetConfig::qsnet().nic_bandwidth, 340_000_000);
    }

    #[test]
    fn tree_stages_log2() {
        assert_eq!(NetConfig::tree_stages(1), 0);
        assert_eq!(NetConfig::tree_stages(2), 1);
        assert_eq!(NetConfig::tree_stages(3), 2);
        assert_eq!(NetConfig::tree_stages(64), 6);
        assert_eq!(NetConfig::tree_stages(65), 7);
    }

    #[test]
    fn collective_costs_grow_with_ranks() {
        let cfg = NetConfig::qsnet();
        assert!(cfg.barrier_cost(64) > cfg.barrier_cost(8));
        assert!(cfg.allreduce_cost(64, 4096) > cfg.allreduce_cost(8, 4096));
        assert_eq!(cfg.barrier_cost(1), SimDuration::ZERO);
    }

    #[test]
    fn allreduce_cost_includes_payload() {
        let cfg = NetConfig::qsnet();
        assert!(cfg.allreduce_cost(8, 1_000_000) > cfg.allreduce_cost(8, 0));
        assert_eq!(NetConfig::allreduce_recv_bytes(8, 100), 300);
    }
}
