//! Tenant profiles: one simulated job's checkpoint traffic shape.
//!
//! A tenant is characterized by how much it ships per checkpoint and
//! how often it checkpoints. Both come straight from the paper's
//! calibration tables: the natural request size of an incremental
//! checkpointer running at the app's own rhythm is `avg IB × period`
//! (everything the iteration overwrote), and the natural request
//! interval is the iteration period itself. Scaling shrinks bytes,
//! not rhythm, so a scaled fleet keeps the paper's time structure.

use ickpt_apps::Workload;
use ickpt_sim::{SimDuration, SplitMix64};

/// One tenant's traffic shape and QoS weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantProfile {
    /// The workload whose calibration shaped this tenant.
    pub workload: Workload,
    /// QoS weight (>= 1): DRR quantum and admission refill scale
    /// linearly with it.
    pub weight: u32,
    /// Mean bytes per checkpoint request (before per-request jitter).
    pub request_bytes: u64,
    /// Compute interval between checkpoint requests.
    pub interval: SimDuration,
}

impl TenantProfile {
    /// Derive a profile from a workload's paper calibration at memory
    /// scale `scale` and QoS weight `weight`.
    pub fn from_workload(workload: Workload, scale: f64, weight: u32) -> Self {
        let c = workload.calib();
        let request_bytes = ((c.avg_ib_mbps * c.period_s * 1e6 * scale) as u64).max(1);
        TenantProfile {
            workload,
            weight: weight.max(1),
            request_bytes,
            interval: SimDuration::from_secs_f64(c.period_s),
        }
    }

    /// The request size for request number `n`, jittered ±25% around
    /// the mean with this tenant's deterministic stream (tenants keep
    /// their stream whatever their neighbours do).
    pub(crate) fn jittered_request_bytes(&self, rng: &mut SplitMix64, _n: u64) -> u64 {
        let span = (self.request_bytes / 2).max(1);
        let base = self.request_bytes - self.request_bytes / 4;
        base + rng.next_u64() % span
    }

    /// Deterministic start stagger in `[0, interval)` keyed by
    /// `tenant_id` (independent of fleet composition, so a tenant's
    /// arrivals are identical alone or alongside others).
    pub fn stagger(&self, seed: u64, tenant_id: u32) -> SimDuration {
        let mut rng = SplitMix64::new(seed ^ ((tenant_id as u64) << 32) ^ 0x7e9a_11ce);
        SimDuration(rng.next_u64() % self.interval.0.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_matches_calibration() {
        let p = TenantProfile::from_workload(Workload::Sweep3d, 1.0, 2);
        let c = Workload::Sweep3d.calib();
        assert_eq!(p.interval, SimDuration::from_secs_f64(c.period_s));
        // 49.5 MB/s × 7 s ≈ 346.5 MB per request.
        assert_eq!(p.request_bytes, (c.avg_ib_mbps * c.period_s * 1e6) as u64);
        assert_eq!(p.weight, 2);
    }

    #[test]
    fn jitter_stays_within_a_factor_of_the_mean() {
        let p = TenantProfile::from_workload(Workload::NasFt, 0.1, 1);
        let mut rng = SplitMix64::new(7);
        for n in 0..100 {
            let b = p.jittered_request_bytes(&mut rng, n);
            assert!(b >= p.request_bytes / 2 && b <= p.request_bytes + p.request_bytes / 4);
        }
    }

    #[test]
    fn stagger_is_stable_and_bounded() {
        let p = TenantProfile::from_workload(Workload::Sage100, 0.1, 1);
        let a = p.stagger(42, 3);
        assert_eq!(a, p.stagger(42, 3));
        assert!(a < p.interval);
        assert_ne!(a, p.stagger(42, 4));
    }
}
