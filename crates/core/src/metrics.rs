//! IWS and IB metrics (§6.1 of the paper).
//!
//! * **Incremental Working Set (IWS)** — the set of pages written in a
//!   timeslice. The tracker records its size per window.
//! * **Incremental Bandwidth (IB)** — IWS size divided by the timeslice
//!   length: "the basic bandwidth requirements that incremental
//!   checkpointing algorithms must face".
//!
//! The paper reports **maximum** and **average** IB per application and
//! timeslice (Table 4, Fig 2), explicitly excluding the initialization
//! write burst at the very beginning of execution (§6.3). Bandwidth is
//! reported in MB/s with MB = 10⁶ bytes, matching the paper's device
//! numbers (900 MB/s network, 320 MB/s disk).

use ickpt_sim::{SimDuration, SimTime};
use ickpt_storage::TierUsage;

const PAGE_BYTES: f64 = 4096.0;
const MB: f64 = 1_000_000.0;

/// One timeslice window's record, produced by the tracker's alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IwsSample {
    /// Window index from the start of the run.
    pub window: u64,
    /// Virtual end time of the window.
    pub end_time: SimTime,
    /// Pages written during the window (IWS size).
    pub iws_pages: u64,
    /// Memory footprint at the alarm, in pages.
    pub footprint_pages: u64,
    /// Page faults taken during the window.
    pub faults: u64,
    /// Message payload bytes received during the window.
    pub bytes_received: u64,
}

impl IwsSample {
    /// IWS size in MB (10⁶ bytes).
    pub(crate) fn iws_mb(&self) -> f64 {
        self.iws_pages as f64 * PAGE_BYTES / MB
    }

    /// Footprint in MB.
    pub(crate) fn footprint_mb(&self) -> f64 {
        self.footprint_pages as f64 * PAGE_BYTES / MB
    }

    /// IWS-to-footprint ratio in percent (Fig 4). Zero footprint yields
    /// zero.
    pub(crate) fn iws_ratio_percent(&self) -> f64 {
        if self.footprint_pages == 0 {
            0.0
        } else {
            100.0 * self.iws_pages as f64 / self.footprint_pages as f64
        }
    }
}

/// Maximum/average Incremental Bandwidth over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbStats {
    /// Average IB in MB/s over the analyzed windows.
    pub avg_mbps: f64,
    /// Maximum single-window IB in MB/s.
    pub max_mbps: f64,
    /// Average IWS:footprint ratio in percent (Fig 4).
    pub avg_ratio_percent: f64,
    /// Number of windows analyzed.
    pub windows: usize,
}

impl IbStats {
    /// Compute IB statistics from tracker samples, skipping every
    /// window that ends at or before `skip_until` (the paper excludes
    /// the data-initialization burst, §6.3). Only full windows of
    /// length `timeslice` are considered; a trailing partial window is
    /// excluded by construction because its `end_time` is not a
    /// multiple of the timeslice... it is excluded here by checking the
    /// window length via consecutive end times.
    pub fn from_samples(
        samples: &[IwsSample],
        timeslice: SimDuration,
        skip_until: SimTime,
    ) -> IbStats {
        let ts_secs = timeslice.as_secs_f64();
        let mut total_mb = 0.0;
        let mut max_mbps: f64 = 0.0;
        let mut ratio_sum = 0.0;
        let mut n = 0usize;
        let mut prev_end = SimTime::ZERO;
        for s in samples {
            let full_window = (s.end_time - prev_end) == timeslice;
            let skip = s.end_time <= skip_until || !full_window;
            prev_end = s.end_time;
            if skip {
                continue;
            }
            let mb = s.iws_mb();
            total_mb += mb;
            max_mbps = max_mbps.max(mb / ts_secs);
            ratio_sum += s.iws_ratio_percent();
            n += 1;
        }
        if n == 0 {
            return IbStats { avg_mbps: 0.0, max_mbps: 0.0, avg_ratio_percent: 0.0, windows: 0 };
        }
        IbStats {
            avg_mbps: total_mb / (n as f64 * ts_secs),
            max_mbps,
            avg_ratio_percent: ratio_sum / n as f64,
            windows: n,
        }
    }
}

/// Integer-only roll-up of a rank's full sample stream.
///
/// Compact report modes keep a bounded sample reservoir instead of the
/// full per-window series; this summary is accumulated over **every**
/// window regardless, so cluster-wide totals survive the elision. All
/// fields use associative integer arithmetic (saturating sums, maxes),
/// making merges order-independent — safe to aggregate through
/// `ickpt_sim::tree_reduce` at any arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleSummary {
    /// Windows absorbed.
    pub windows: u64,
    /// Sum of per-window IWS page counts.
    pub total_iws_pages: u64,
    /// Largest single-window IWS, in pages.
    pub max_iws_pages: u64,
    /// Sum of per-window fault counts.
    pub total_faults: u64,
    /// Sum of per-window bytes received.
    pub total_bytes_received: u64,
    /// Largest footprint observed at any alarm, in pages.
    pub max_footprint_pages: u64,
    /// Latest window end time absorbed.
    pub last_end_time: SimTime,
}

impl SampleSummary {
    /// Fold one window sample into the summary.
    pub(crate) fn absorb(&mut self, s: &IwsSample) {
        self.windows = self.windows.saturating_add(1);
        self.total_iws_pages = self.total_iws_pages.saturating_add(s.iws_pages);
        self.max_iws_pages = self.max_iws_pages.max(s.iws_pages);
        self.total_faults = self.total_faults.saturating_add(s.faults);
        self.total_bytes_received = self.total_bytes_received.saturating_add(s.bytes_received);
        self.max_footprint_pages = self.max_footprint_pages.max(s.footprint_pages);
        self.last_end_time = self.last_end_time.max(s.end_time);
    }

    /// Merge another summary into this one (associative + commutative).
    pub fn merge(&mut self, other: &SampleSummary) {
        self.windows = self.windows.saturating_add(other.windows);
        self.total_iws_pages = self.total_iws_pages.saturating_add(other.total_iws_pages);
        self.max_iws_pages = self.max_iws_pages.max(other.max_iws_pages);
        self.total_faults = self.total_faults.saturating_add(other.total_faults);
        self.total_bytes_received =
            self.total_bytes_received.saturating_add(other.total_bytes_received);
        self.max_footprint_pages = self.max_footprint_pages.max(other.max_footprint_pages);
        self.last_end_time = self.last_end_time.max(other.last_end_time);
    }

    /// Mean IWS per window in MB (render-time floating point only).
    pub fn avg_iws_mb(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.total_iws_pages as f64 * PAGE_BYTES / MB / self.windows as f64
        }
    }
}

/// The IWS time series in `(seconds, MB)` pairs — Fig 1(a).
pub fn iws_series(samples: &[IwsSample]) -> Vec<(f64, f64)> {
    samples.iter().map(|s| (s.end_time.as_secs_f64(), s.iws_mb())).collect()
}

/// The data-received time series in `(seconds, MB)` pairs — Fig 1(b).
pub fn received_series(samples: &[IwsSample]) -> Vec<(f64, f64)> {
    samples.iter().map(|s| (s.end_time.as_secs_f64(), s.bytes_received as f64 / MB)).collect()
}

/// Cluster-wide roll-up of per-rank multilevel-storage accounting.
///
/// Byte counters sum across ranks (total traffic each tier carried);
/// busy/recovery times take the per-rank **maximum**, because ranks
/// run concurrently and the slowest device is the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierSummary {
    /// Ranks aggregated.
    pub ranks: usize,
    /// Checkpoint bytes written to node-local tiers, MB.
    pub local_mb: f64,
    /// Redundancy bytes (partner copies / parity shares) sent over the
    /// interconnect, MB.
    pub redundancy_mb: f64,
    /// Longest per-rank node-local device busy time, seconds.
    pub local_busy_s: f64,
    /// Longest per-rank NIC busy time charged to redundancy, seconds.
    pub nic_busy_s: f64,
    /// Recovery bytes served by the failed rank's own local tier, MB.
    pub recovery_local_mb: f64,
    /// Recovery bytes pulled over the network (partner / parity), MB.
    pub recovery_net_mb: f64,
    /// Recovery bytes read back from the shared durable tier, MB.
    pub recovery_durable_mb: f64,
    /// Longest per-rank restore time, seconds.
    pub recovery_s: f64,
}

impl TierSummary {
    /// Aggregate per-rank usage records into one cluster summary.
    pub fn from_usage(usage: &[TierUsage]) -> TierSummary {
        let mut s = TierSummary { ranks: usage.len(), ..TierSummary::default() };
        for u in usage {
            s.local_mb += u.local_bytes as f64 / MB;
            s.redundancy_mb += u.redundancy_bytes as f64 / MB;
            s.local_busy_s = s.local_busy_s.max(u.local_busy.as_secs_f64());
            s.nic_busy_s = s.nic_busy_s.max(u.nic_busy.as_secs_f64());
            s.recovery_local_mb += u.recovery_local_bytes as f64 / MB;
            s.recovery_net_mb += u.recovery_net_bytes as f64 / MB;
            s.recovery_durable_mb += u.recovery_durable_bytes as f64 / MB;
            s.recovery_s = s.recovery_s.max(u.recovery_time.as_secs_f64());
        }
        s
    }

    /// Redundancy traffic as a percentage of local checkpoint volume —
    /// the storage overhead a scheme pays for its failure coverage
    /// (≈100% for partner replication, ≈100/(g−1)% for XOR groups of
    /// size `g`).
    pub fn redundancy_overhead_percent(&self) -> f64 {
        if self.local_mb == 0.0 {
            0.0
        } else {
            100.0 * self.redundancy_mb / self.local_mb
        }
    }
}

/// Footprint statistics over a run: `(max_mb, avg_mb)` — Table 2.
pub fn footprint_stats(samples: &[IwsSample]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let max = samples.iter().map(|s| s.footprint_mb()).fold(0.0, f64::max);
    let avg = samples.iter().map(|s| s.footprint_mb()).sum::<f64>() / samples.len() as f64;
    (max, avg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(window: u64, end_s: u64, iws_pages: u64, footprint: u64) -> IwsSample {
        IwsSample {
            window,
            end_time: SimTime::from_secs(end_s),
            iws_pages,
            footprint_pages: footprint,
            faults: iws_pages,
            bytes_received: 0,
        }
    }

    #[test]
    fn sample_conversions() {
        let s = sample(0, 1, 1000, 2000);
        assert!((s.iws_mb() - 4.096).abs() < 1e-9);
        assert!((s.footprint_mb() - 8.192).abs() < 1e-9);
        assert!((s.iws_ratio_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_footprint_ratio_is_zero() {
        let s = sample(0, 1, 0, 0);
        assert_eq!(s.iws_ratio_percent(), 0.0);
    }

    #[test]
    fn ib_stats_avg_and_max() {
        let ts = SimDuration::from_secs(1);
        // 4.096 MB, 0 MB, 8.192 MB across three 1 s windows.
        let samples =
            vec![sample(0, 1, 1000, 4000), sample(1, 2, 0, 4000), sample(2, 3, 2000, 4000)];
        let st = IbStats::from_samples(&samples, ts, SimTime::ZERO);
        assert_eq!(st.windows, 3);
        assert!((st.avg_mbps - (4.096 + 0.0 + 8.192) / 3.0).abs() < 1e-9);
        assert!((st.max_mbps - 8.192).abs() < 1e-9);
    }

    #[test]
    fn skip_until_excludes_initialization() {
        let ts = SimDuration::from_secs(1);
        let samples = vec![sample(0, 1, 100_000, 100_000), sample(1, 2, 10, 100_000)];
        let with_init = IbStats::from_samples(&samples, ts, SimTime::ZERO);
        let without = IbStats::from_samples(&samples, ts, SimTime::from_secs(1));
        assert!(with_init.max_mbps > without.max_mbps * 100.0);
        assert_eq!(without.windows, 1);
    }

    #[test]
    fn partial_trailing_window_excluded() {
        let ts = SimDuration::from_secs(1);
        let mut samples = vec![sample(0, 1, 100, 1000), sample(1, 2, 100, 1000)];
        // A partial flush window ending at 2.5 s with a huge IWS must
        // not distort max IB.
        samples.push(IwsSample {
            window: 2,
            end_time: SimTime::from_secs_f64(2.5),
            iws_pages: 1_000_000,
            footprint_pages: 1_000_000,
            faults: 0,
            bytes_received: 0,
        });
        let st = IbStats::from_samples(&samples, ts, SimTime::ZERO);
        assert_eq!(st.windows, 2);
        assert!(st.max_mbps < 1.0);
    }

    #[test]
    fn empty_samples_are_safe() {
        let st = IbStats::from_samples(&[], SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(st.windows, 0);
        assert_eq!(st.avg_mbps, 0.0);
    }

    #[test]
    fn series_extraction() {
        let samples = vec![sample(0, 1, 1000, 4000), sample(1, 2, 500, 4000)];
        let iws = iws_series(&samples);
        assert_eq!(iws.len(), 2);
        assert!((iws[0].0 - 1.0).abs() < 1e-12);
        assert!((iws[1].1 - 2.048).abs() < 1e-9);
    }

    #[test]
    fn footprint_stats_max_avg() {
        let samples = vec![sample(0, 1, 0, 1000), sample(1, 2, 0, 3000)];
        let (max, avg) = footprint_stats(&samples);
        assert!((max - 12.288).abs() < 1e-9);
        assert!((avg - 8.192).abs() < 1e-9);
    }

    #[test]
    fn tier_summary_sums_bytes_and_maxes_times() {
        let a = TierUsage {
            local_bytes: 2_000_000,
            local_busy: SimDuration::from_secs(2),
            redundancy_bytes: 2_000_000,
            nic_busy: SimDuration::from_secs(1),
            recovery_local_bytes: 0,
            recovery_net_bytes: 1_000_000,
            recovery_durable_bytes: 0,
            recovery_time: SimDuration::from_secs(3),
        };
        let b = TierUsage {
            local_bytes: 4_000_000,
            local_busy: SimDuration::from_secs(5),
            redundancy_bytes: 4_000_000,
            nic_busy: SimDuration::from_secs_f64(0.5),
            recovery_local_bytes: 500_000,
            recovery_net_bytes: 0,
            recovery_durable_bytes: 250_000,
            recovery_time: SimDuration::ZERO,
        };
        let s = TierSummary::from_usage(&[a, b]);
        assert_eq!(s.ranks, 2);
        assert!((s.local_mb - 6.0).abs() < 1e-9);
        assert!((s.redundancy_mb - 6.0).abs() < 1e-9);
        assert!((s.local_busy_s - 5.0).abs() < 1e-12);
        assert!((s.nic_busy_s - 1.0).abs() < 1e-12);
        assert!((s.recovery_local_mb - 0.5).abs() < 1e-9);
        assert!((s.recovery_net_mb - 1.0).abs() < 1e-9);
        assert!((s.recovery_durable_mb - 0.25).abs() < 1e-9);
        assert!((s.recovery_s - 3.0).abs() < 1e-12);
        // Partner-style replication: redundancy ≈ 100% of local volume.
        assert!((s.redundancy_overhead_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tier_summary_empty_is_zero() {
        let s = TierSummary::from_usage(&[]);
        assert_eq!(s, TierSummary::default());
        assert_eq!(s.redundancy_overhead_percent(), 0.0);
    }
}
