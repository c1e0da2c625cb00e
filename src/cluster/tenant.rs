//! The cluster's multi-tenant front: mixed tenant fleets derived from
//! the paper's workload calibrations, and per-tenant stall accounting
//! over a finished service run.
//!
//! [`mixed_fleet`] builds the fleet the `multi_tenant` experiment
//! contends: tenants cycle through all nine calibrated workloads
//! (Sage footprints down to NAS kernels) with deterministic
//! pseudo-random QoS weights, so a fleet of N is reproducible from
//! `(n, scale, seed)` alone — and, because each
//! [`TenantProfile`] keys its jitter and
//! stagger off its own tenant id, growing the fleet never perturbs the
//! tenants already in it.
//!
//! [`TenantStallAccount`] folds a [`ServiceReport`] into the per-job
//! ledger the cluster layer reports on: how long each job was blocked
//! on the shared store (total, p50, p99, worst case), what fraction of
//! its time it actually computed, and its share of the drained bytes.

use ickpt_apps::Workload;
use ickpt_sim::{SimDuration, SplitMix64};
use ickpt_svc::{ServiceReport, TenantProfile};

/// Weights assigned by [`mixed_fleet`] span 1..=MAX_FLEET_WEIGHT.
pub(crate) const MAX_FLEET_WEIGHT: u32 = 4;

/// One tenant's identity within a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantHandle {
    /// Fleet index (also the service's tenant id).
    pub id: u32,
    /// Traffic shape and QoS weight.
    pub profile: TenantProfile,
}

/// A deterministic mixed fleet of `n` tenants at memory scale `scale`:
/// workloads cycle through [`Workload::ALL`], weights are drawn from
/// `1..=``MAX_FLEET_WEIGHT` by a stream keyed on `(seed, id)` only.
pub fn mixed_fleet(n: usize, scale: f64, seed: u64) -> Vec<TenantHandle> {
    (0..n)
        .map(|id| {
            let workload = Workload::ALL[id % Workload::ALL.len()];
            let mut rng = SplitMix64::new(seed ^ ((id as u64) << 24) ^ 0xf1ee_7000);
            let weight = rng.next_range(1, MAX_FLEET_WEIGHT as u64 + 1) as u32;
            TenantHandle {
                id: id as u32,
                profile: TenantProfile::from_workload(workload, scale, weight),
            }
        })
        .collect()
}

/// The profiles of a fleet, in service order.
pub fn fleet_profiles(fleet: &[TenantHandle]) -> Vec<TenantProfile> {
    fleet.iter().map(|h| h.profile).collect()
}

/// One tenant's stall ledger (all integer, report-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStall {
    /// Tenant id.
    pub id: u32,
    /// Completed checkpoints.
    pub checkpoints: u64,
    /// Admission deferrals.
    pub rejections: u64,
    /// Total time blocked on the shared store.
    pub total: SimDuration,
    /// Median blocked interval (nearest-rank).
    pub p50: SimDuration,
    /// 99th-percentile blocked interval (nearest-rank).
    pub p99: SimDuration,
    /// Worst single blocked interval.
    pub max: SimDuration,
    /// Compute fraction in basis points (10000 = never blocked).
    pub efficiency_bp: u64,
    /// Share of the fleet's drained bytes, basis points.
    pub drained_share_bp: u64,
}

/// Per-tenant stall accounting over a finished service run. See the
/// module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStallAccount {
    /// Per-tenant ledgers, tenant order.
    pub tenants: Vec<TenantStall>,
}

impl TenantStallAccount {
    /// Fold a service report into the ledger.
    pub fn from_report(report: &ServiceReport) -> Self {
        let fleet_drained = report.aggregate.drained_bytes.max(1);
        let tenants = report
            .tenants
            .iter()
            .map(|t| TenantStall {
                id: t.id,
                checkpoints: t.checkpoints,
                rejections: t.rejections,
                total: t.stall_total(),
                p50: t.stall_percentile(50),
                p99: t.stall_percentile(99),
                max: t.stall_percentile(100),
                efficiency_bp: t.efficiency_bp(),
                drained_share_bp: (t.drained_bytes as u128 * 10_000 / fleet_drained as u128) as u64,
            })
            .collect();
        TenantStallAccount { tenants }
    }

    /// The worst p99 stall across the fleet (the contention headline).
    pub fn worst_p99(&self) -> SimDuration {
        self.tenants.iter().map(|t| t.p99).max().unwrap_or(SimDuration::ZERO)
    }

    /// The lowest compute fraction across the fleet, basis points.
    pub fn worst_efficiency_bp(&self) -> u64 {
        self.tenants.iter().map(|t| t.efficiency_bp).min().unwrap_or(10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickpt_obs::Recorder;
    use ickpt_svc::{run_service, ServiceConfig};

    #[test]
    fn mixed_fleet_is_deterministic_and_prefix_stable() {
        let a = mixed_fleet(12, 0.01, 7);
        let b = mixed_fleet(12, 0.01, 7);
        assert_eq!(a, b);
        // Growing the fleet keeps the existing tenants bit-identical.
        let grown = mixed_fleet(24, 0.01, 7);
        assert_eq!(&grown[..12], &a[..]);
        assert!(a.iter().all(|h| (1..=MAX_FLEET_WEIGHT).contains(&h.profile.weight)));
        // All nine workloads appear.
        let kinds: std::collections::BTreeSet<&str> =
            a.iter().map(|h| h.profile.workload.calib().name).collect();
        assert_eq!(kinds.len(), 9);
    }

    #[test]
    fn stall_account_shares_sum_to_the_fleet() {
        let fleet = mixed_fleet(6, 0.002, 11);
        let cfg = ServiceConfig::new(fleet_profiles(&fleet), SimDuration::from_secs(30))
            .with_fair_admission(2);
        let report = run_service(&cfg, &Recorder::disabled());
        let account = TenantStallAccount::from_report(&report);
        assert_eq!(account.tenants.len(), 6);
        let share: u64 = account.tenants.iter().map(|t| t.drained_share_bp).sum();
        assert!(share <= 10_000, "rounding only loses basis points: {share}");
        assert!(share > 10_000 - 6, "within one bp per tenant: {share}");
        for t in &account.tenants {
            assert!(t.p50 <= t.p99 && t.p99 <= t.max);
        }
        assert!(account.worst_efficiency_bp() <= 10_000);
    }
}
