//! Properties of the multi-tenant checkpoint service (`ickpt-svc`):
//!
//! * **Determinism** — the same `ServiceConfig` yields a bit-identical
//!   `ServiceReport` on every run, for every scheduling policy.
//! * **Conservation** — bytes drained per tenant, the fleet aggregate,
//!   and the per-device byte counters all describe the same traffic.
//! * **Isolation** — a tenant's report is byte-identical whether it
//!   runs alone or alongside neighbours that never issue a request:
//!   jitter, stagger and admission state are keyed per tenant, never
//!   by fleet composition.
//! * **Roll-up** — `reduce_tenants`, and the report's own aggregate,
//!   equal the flat left fold over `ServiceAggregate::merge`.
//! * **Percentiles** — `percentile_ns` is the nearest-rank statistic
//!   of the sorted samples, for any sample set.

use ickpt::cluster::tenant::{fleet_profiles, mixed_fleet};
use ickpt::obs::Recorder;
use ickpt::sim::{SimDuration, SplitMix64};
use ickpt::svc::{
    percentile_ns, reduce_tenants, run_service, SchedPolicy, ServiceAggregate, ServiceConfig,
    TenantProfile,
};

const SEED: u64 = 0x7e9a_2004;

/// A small contended fleet: n mixed tenants, 2 devices, short horizon
/// so the whole suite stays cheap.
fn small_cfg(n: usize, policy: SchedPolicy) -> ServiceConfig {
    let fleet = mixed_fleet(n, 0.01, SEED);
    let mut cfg = ServiceConfig::new(fleet_profiles(&fleet), SimDuration::from_secs(60));
    cfg.devices = 2;
    cfg.policy = policy;
    cfg.seed = SEED;
    cfg.with_fair_admission(4)
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

#[test]
fn service_reports_are_bit_identical_across_runs() {
    for policy in [SchedPolicy::FairShare, SchedPolicy::Fifo, SchedPolicy::StrictPriority] {
        let a = run_service(&small_cfg(16, policy), &Recorder::disabled());
        let b = run_service(&small_cfg(16, policy), &Recorder::disabled());
        assert_eq!(a, b, "policy {policy:?} must be deterministic");
        assert!(a.aggregate.checkpoints > 0, "the fleet must actually checkpoint");
    }
}

// ---------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------

#[test]
fn drained_bytes_balance_tenants_aggregate_and_devices() {
    for n in [1usize, 5, 17] {
        let report = run_service(&small_cfg(n, SchedPolicy::FairShare), &Recorder::disabled());
        let per_tenant: u64 = report.tenants.iter().map(|t| t.drained_bytes).sum();
        let per_device: u64 = report.device_bytes.iter().sum();
        assert_eq!(per_tenant, report.aggregate.drained_bytes, "fleet of {n}");
        assert_eq!(per_tenant, per_device, "fleet of {n}");
        for t in &report.tenants {
            assert!(
                t.drained_bytes <= t.admitted_bytes,
                "tenant {} drained more than it was admitted",
                t.id
            );
            assert_eq!(t.stalls_ns.len() as u64, t.checkpoints);
        }
    }
}

// ---------------------------------------------------------------------
// Isolation
// ---------------------------------------------------------------------

/// A profile whose first arrival falls past `run_for`, so it never
/// issues a request. Stagger is drawn in `[0, interval)` keyed by
/// `(seed, id)`; with a ~116-day interval and a 60 s horizon almost
/// every id qualifies — we scan for the first few and assert it.
fn idle_profiles(active: &TenantProfile, run_for: SimDuration, want: usize) -> Vec<TenantProfile> {
    let idle = TenantProfile {
        workload: active.workload,
        weight: 1,
        request_bytes: active.request_bytes,
        interval: SimDuration::from_secs(10_000_000),
    };
    let mut out = Vec::new();
    // Ids start at 1: the active tenant under test is always id 0.
    for id in 1u32.. {
        if out.len() == want {
            break;
        }
        if idle.stagger(SEED, id) > run_for {
            out.push(idle);
        } else {
            // Deterministic, so a collision here is a config bug in the
            // test, not flakiness.
            panic!("id {id} staggers inside the horizon; widen the idle interval");
        }
    }
    out
}

#[test]
fn tenant_report_is_unchanged_by_idle_neighbours() {
    let run_for = SimDuration::from_secs(60);
    let fleet = mixed_fleet(1, 0.01, SEED);
    let active = fleet[0].profile;

    let mut alone = ServiceConfig::new(vec![active], run_for);
    alone.devices = 2;
    alone.seed = SEED;

    let mut crowd_tenants = vec![active];
    crowd_tenants.extend(idle_profiles(&active, run_for, 3));
    let mut crowd = ServiceConfig::new(crowd_tenants, run_for);
    crowd.devices = 2;
    crowd.seed = SEED;

    // Default admission sizes buckets per tenant weight only, so the
    // active tenant's admission stream is fleet-independent.
    let a = run_service(&alone, &Recorder::disabled());
    let b = run_service(&crowd, &Recorder::disabled());

    assert_eq!(a.tenants[0], b.tenants[0], "idle neighbours must not perturb tenant 0");
    for idle in &b.tenants[1..] {
        assert_eq!(idle.checkpoints, 0);
        assert_eq!(idle.admitted_bytes, 0);
        assert_eq!(idle.drained_bytes, 0);
    }
    assert_eq!(a.aggregate.drained_bytes, b.aggregate.drained_bytes);
}

// ---------------------------------------------------------------------
// Roll-up vs flat fold
// ---------------------------------------------------------------------

#[test]
fn reduce_tenants_matches_flat_fold() {
    let report = run_service(&small_cfg(33, SchedPolicy::FairShare), &Recorder::disabled());

    let mut flat = ServiceAggregate::default();
    for t in &report.tenants {
        flat.merge(&ServiceAggregate::from_tenant(t));
    }

    assert_eq!(reduce_tenants(&report.tenants), flat);
    assert_eq!(report.aggregate, flat);
    assert_eq!(reduce_tenants(&[]), ServiceAggregate::default());
}

// ---------------------------------------------------------------------
// Nearest-rank percentiles
// ---------------------------------------------------------------------

#[test]
fn percentile_ns_is_the_nearest_rank_statistic() {
    assert_eq!(percentile_ns(&[], 99), 0);
    assert_eq!(percentile_ns(&[7], 1), 7);
    assert_eq!(percentile_ns(&[7], 100), 7);

    let mut rng = SplitMix64::new(SEED);
    for n in [1usize, 2, 3, 10, 101] {
        let samples: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1_000_000).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for pct in [1u64, 50, 90, 99, 100] {
            let rank = (pct * n as u64).div_ceil(100).max(1) as usize;
            assert_eq!(percentile_ns(&samples, pct), sorted[rank - 1], "n={n} pct={pct}");
        }
    }
}
