//! Multi-tenant checkpoint service: aggregate throughput and stall
//! tails when N jobs share one striped durable array.
//!
//! The paper sizes the durable tier for a single job that owns the
//! storage stack; a shared checkpoint service must also hold each
//! job's stall tail down when neighbours contend. This experiment
//! runs mixed fleets (all nine calibrated workloads, cycled, with
//! deterministic QoS weights) through `ickpt-svc`'s closed-loop
//! service simulation and reports:
//!
//! 1. aggregate drained throughput and stall percentiles vs tenant
//!    count (default 1/4/16/64), and
//! 2. a policy ablation at the largest contended fleet: deficit-
//!    round-robin fair-share vs FIFO vs strict-priority, where
//!    fair-share must beat FIFO's p99 stall (head-of-line blocking by
//!    multi-chunk heavy requests is exactly what DRR removes).
//!
//! `ICKPT_BENCH_TENANTS` picks the fleet sizes and
//! `ICKPT_BENCH_SVC_SECONDS` the virtual seconds of arrivals (see the
//! README's knob table); stdout is byte-identical at any
//! `ICKPT_BENCH_THREADS`.

use std::fmt::Write as _;
use std::time::Instant;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::cluster::tenant::{fleet_profiles, mixed_fleet};
use ickpt::sim::{env, SimDuration};
use ickpt::svc::{run_service, SchedPolicy, ServiceConfig, ServiceReport};
use ickpt_obs::Recorder;

use crate::engine::parallel_map;
use crate::obs_glue::TraceBuilder;
use crate::BENCH_SEED;

/// The default fleet-size sweep.
pub(crate) const DEFAULT_TENANTS: [usize; 4] = [1, 4, 16, 64];

/// Striped array width.
pub(crate) const SVC_DEVICES: usize = 4;

/// Memory scale of the tenant fleets.
pub(crate) const SVC_SCALE: f64 = 0.1;

/// Fleet sizes for the sweep (`ICKPT_BENCH_TENANTS`).
pub(crate) fn svc_tenants() -> Vec<usize> {
    env::knob("ICKPT_BENCH_TENANTS", env::counts).unwrap_or_else(|| DEFAULT_TENANTS.to_vec())
}

/// Virtual seconds of arrivals (`ICKPT_BENCH_SVC_SECONDS`, at least 10).
pub(crate) fn svc_seconds() -> u64 {
    let seconds = |raw: &str| match env::count(raw) {
        Ok(s) if s >= 10 => Ok(s as u64),
        _ => Err("a whole number of seconds >= 10"),
    };
    env::knob("ICKPT_BENCH_SVC_SECONDS", seconds).unwrap_or(300)
}

/// Build the service config for a fleet of `n` under `policy`.
pub(crate) fn svc_config(n: usize, policy: SchedPolicy) -> ServiceConfig {
    let fleet = mixed_fleet(n, SVC_SCALE, BENCH_SEED);
    let mut cfg = ServiceConfig::new(fleet_profiles(&fleet), SimDuration::from_secs(svc_seconds()));
    cfg.devices = SVC_DEVICES;
    cfg.policy = policy;
    cfg.seed = BENCH_SEED;
    cfg.with_fair_admission(10)
}

fn ms(d: ickpt::sim::SimDuration) -> String {
    fnum(d.0 as f64 / 1e6, 1)
}

fn throughput_row(n: usize, r: &ServiceReport) -> Vec<String> {
    vec![
        n.to_string(),
        fnum(r.aggregate_throughput_mbps(), 1),
        r.aggregate.checkpoints.to_string(),
        r.aggregate.rejections.to_string(),
        ms(r.stall_percentile_all(50)),
        ms(r.stall_percentile_all(99)),
        ms(r.worst_tenant_p99()),
        fnum(r.worst_efficiency_bp() as f64 / 100.0, 1),
    ]
}

/// Regenerate the multi-tenant service tables.
pub(crate) fn report() -> ExperimentReport {
    let counts = svc_tenants();
    let mut body = format!(
        "\n=== Multi-tenant service: {} tenants on a {}-device striped array ===\n    \
         config: scale {}, {} virtual s, {} x 320 MB/s devices, 4 MB stripe chunks, \
         seed {:#x}\n\n",
        counts.iter().map(|n| n.to_string()).collect::<Vec<_>>().join("/"),
        SVC_DEVICES,
        SVC_SCALE,
        svc_seconds(),
        SVC_DEVICES,
        BENCH_SEED,
    );

    // Throughput sweep: cells are independent service runs, fanned out
    // on host threads; each run is serial inside (one event wheel), so
    // assembly order — not scheduling — fixes the table.
    let host_t0 = Instant::now();
    let sweep: Vec<ServiceReport> = parallel_map(&counts, |&n| {
        run_service(&svc_config(n, SchedPolicy::FairShare), &Recorder::disabled())
    });
    host_timing("sweep", host_t0.elapsed().as_secs_f64());

    let mut t = TextTable::new("").header(&[
        "tenants",
        "agg MB/s",
        "ckpts",
        "rejects",
        "p50 stall (ms)",
        "p99 stall (ms)",
        "worst tenant p99 (ms)",
        "worst eff (%)",
    ]);
    for (&n, r) in counts.iter().zip(&sweep) {
        t.row(throughput_row(n, r));
    }
    writeln!(body, "{}", t.render()).unwrap();

    let first = &sweep[0];
    let last = sweep.last().unwrap();
    let n_first = counts[0];
    let n_last = *counts.last().unwrap();
    writeln!(
        body,
        "aggregate throughput {n_first} -> {n_last} tenants: {} -> {} MB/s ({:.1}x) under \
         fair-share admission\n",
        fnum(first.aggregate_throughput_mbps(), 1),
        fnum(last.aggregate_throughput_mbps(), 1),
        last.aggregate_throughput_mbps() / first.aggregate_throughput_mbps().max(1e-9),
    )
    .unwrap();

    // Policy ablation at the largest fleet (run serially — each run
    // records live tenant/device lanes into its own trace group).
    let n_ablate = n_last.max(16);
    let policies = [SchedPolicy::FairShare, SchedPolicy::Fifo, SchedPolicy::StrictPriority];
    let mut tb = TraceBuilder::begin();
    let recorders: Vec<Recorder> =
        policies.iter().map(|p| tb.recorder(&format!("{}-{n_ablate}t", p.token()))).collect();
    let host_t0 = Instant::now();
    let ablation: Vec<ServiceReport> = policies
        .iter()
        .zip(&recorders)
        .map(|(&p, rec)| run_service(&svc_config(n_ablate, p), rec))
        .collect();
    host_timing("ablation", host_t0.elapsed().as_secs_f64());

    let mut t = TextTable::new(format!("interference ablation @ {n_ablate} tenants")).header(&[
        "policy",
        "agg MB/s",
        "ckpts",
        "rejects",
        "p99 stall (ms)",
        "worst tenant p99 (ms)",
        "max stall (ms)",
    ]);
    for (p, r) in policies.iter().zip(&ablation) {
        t.row(vec![
            p.token().to_string(),
            fnum(r.aggregate_throughput_mbps(), 1),
            r.aggregate.checkpoints.to_string(),
            r.aggregate.rejections.to_string(),
            ms(r.stall_percentile_all(99)),
            ms(r.worst_tenant_p99()),
            ms(SimDuration(r.aggregate.stall_ns_max)),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();

    let fair_p99 = ablation[0].stall_percentile_all(99).0;
    let fifo_p99 = ablation[1].stall_percentile_all(99).0;
    writeln!(
        body,
        "fair-share vs FIFO p99 stall @ {n_ablate} tenants: {} vs {} ms — DRR removes \
         head-of-line blocking: {}",
        fnum(fair_p99 as f64 / 1e6, 1),
        fnum(fifo_p99 as f64 / 1e6, 1),
        if fair_p99 < fifo_p99 { "CONFIRMED" } else { "VIOLATED" }
    )
    .unwrap();

    let comparisons = vec![
        Comparison::new(
            format!("multi-tenant / fair-share beats FIFO p99 @ {n_ablate}t"),
            100.0,
            if fair_p99 < fifo_p99 { 100.0 } else { 0.0 },
            "%",
        ),
        Comparison::new(
            format!("multi-tenant / drained-byte conservation @ {n_last}t"),
            1.0,
            last.aggregate.drained_bytes as f64
                / (last.device_bytes.iter().sum::<u64>() as f64).max(1.0),
            "x",
        ),
    ];
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}

/// Host wall-clock per stage — stderr only, so stdout stays
/// byte-identical across `ICKPT_BENCH_THREADS` values.
// Sanctioned stderr write: timing is host-dependent by nature and must
// never reach the deterministic report body.
#[allow(clippy::disallowed_macros)]
fn host_timing(stage: &str, elapsed_s: f64) {
    eprintln!("multi_tenant: {stage} in {elapsed_s:.1}s host time");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_reaches_contention() {
        assert_eq!(DEFAULT_TENANTS[0], 1);
        assert!(*DEFAULT_TENANTS.last().unwrap() >= 16, "ablation needs a contended fleet");
        assert!(DEFAULT_TENANTS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn configs_are_deterministic() {
        let a = svc_config(16, SchedPolicy::FairShare);
        let b = svc_config(16, SchedPolicy::FairShare);
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.seed, b.seed);
        // Weights cover more than one QoS class so the ablation is not
        // degenerate.
        let distinct: std::collections::BTreeSet<u32> =
            a.tenants.iter().map(|t| t.weight).collect();
        assert!(distinct.len() > 1);
    }
}
