//! Feasibility analysis: required vs available bandwidth.
//!
//! The paper's central question (§3): "By comparing the required
//! bandwidth with the bandwidth available, we will determine the
//! feasibility of implementing a checkpoint mechanism." Its reference
//! devices are the QsNet II network at 900 MB/s and a SCSI disk at
//! 320 MB/s, and its headline result (§6.3) is that even the most
//! demanding application (Sage-1000MB) needs on average only 78.8 MB/s
//! at a 1 s timeslice — 9 % of peak network and 25 % of peak disk
//! bandwidth.

use ickpt_sim::DevicePreset;

use crate::metrics::IbStats;

/// Verdict against a single device.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityVerdict {
    /// Device name (e.g. "QsNet II network").
    pub device: String,
    /// Device peak bandwidth in MB/s (MB = 10⁶ bytes).
    pub device_mbps: f64,
    /// Average required IB as a fraction of device bandwidth.
    pub avg_fraction: f64,
    /// Maximum required IB as a fraction of device bandwidth.
    pub max_fraction: f64,
    /// Feasible iff even the *maximum* requirement fits under peak.
    pub feasible: bool,
}

/// Verdicts against a set of devices for one application/timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    /// The measured bandwidth requirement.
    pub stats: IbStats,
    /// One verdict per device.
    pub verdicts: Vec<FeasibilityVerdict>,
}

impl FeasibilityReport {
    /// Analyze `stats` against the paper's reference devices (QsNet II
    /// and SCSI disk).
    pub fn against_paper_devices(stats: IbStats) -> Self {
        Self::against(
            stats,
            &[("QsNet II network", DevicePreset::QsNet2), ("SCSI disk", DevicePreset::ScsiDisk)],
        )
    }

    /// Analyze `stats` against arbitrary devices.
    pub(crate) fn against(stats: IbStats, devices: &[(&str, DevicePreset)]) -> Self {
        let verdicts = devices
            .iter()
            .map(|(name, preset)| {
                let device_mbps = preset.bandwidth() as f64 / 1e6;
                FeasibilityVerdict {
                    device: (*name).to_string(),
                    device_mbps,
                    avg_fraction: stats.avg_mbps / device_mbps,
                    max_fraction: stats.max_mbps / device_mbps,
                    feasible: stats.max_mbps <= device_mbps,
                }
            })
            .collect();
        Self { stats, verdicts }
    }

    /// Feasible on every analyzed device.
    pub fn feasible_everywhere(&self) -> bool {
        self.verdicts.iter().all(|v| v.feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(avg: f64, max: f64) -> IbStats {
        IbStats { avg_mbps: avg, max_mbps: max, avg_ratio_percent: 0.0, windows: 100 }
    }

    #[test]
    fn paper_headline_numbers() {
        // Sage-1000MB at 1 s: avg 78.8 MB/s, max 274.9 MB/s (Table 4).
        let r = FeasibilityReport::against_paper_devices(stats(78.8, 274.9));
        assert!(r.feasible_everywhere());
        let net = &r.verdicts[0];
        // "9% of the available peak network" (§6.3).
        assert!((net.avg_fraction - 0.0876).abs() < 0.01);
        let disk = &r.verdicts[1];
        // "25% of the peak disk bandwidth".
        assert!((disk.avg_fraction - 0.246).abs() < 0.01);
    }

    #[test]
    fn infeasible_when_max_exceeds_device() {
        let r = FeasibilityReport::against_paper_devices(stats(100.0, 1000.0));
        assert!(!r.verdicts[0].feasible, "1000 > 900 MB/s network");
        assert!(!r.verdicts[1].feasible);
        assert!(!r.feasible_everywhere());
    }

    #[test]
    fn mixed_verdicts() {
        let r = FeasibilityReport::against_paper_devices(stats(100.0, 500.0));
        assert!(r.verdicts[0].feasible, "500 <= 900");
        assert!(!r.verdicts[1].feasible, "500 > 320");
    }
}
