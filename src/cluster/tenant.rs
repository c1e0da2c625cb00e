//! The cluster's multi-tenant front: mixed tenant fleets derived from
//! the paper's workload calibrations.
//!
//! [`mixed_fleet`] builds the fleet the `multi_tenant` experiment
//! contends: tenants cycle through all nine calibrated workloads
//! (Sage footprints down to NAS kernels) with deterministic
//! pseudo-random QoS weights, so a fleet of N is reproducible from
//! `(n, scale, seed)` alone — and, because each
//! [`TenantProfile`] keys its jitter and
//! stagger off its own tenant id, growing the fleet never perturbs the
//! tenants already in it.

use ickpt_apps::Workload;
use ickpt_sim::SplitMix64;
use ickpt_svc::TenantProfile;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
