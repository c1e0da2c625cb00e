//! The multi-tenant checkpoint service loop.
//!
//! N closed-loop tenant jobs run against one shared striped array:
//! a tenant computes for its workload's iteration period, issues a
//! checkpoint request (sized from its calibration, jittered by its
//! private stream), passes admission, has its stripe chunks
//! dispatched by the bandwidth scheduler onto the array devices
//! (pipelined up to the global in-flight cap), and is *blocked* from
//! the request instant until its last chunk is durable — so array
//! contention and drain back-pressure feed straight into stall time
//! and job efficiency, the quantities the report carries per tenant.
//!
//! Everything happens on one serial [`EventWheel`]: arrivals,
//! admission retries and chunk completions execute in virtual-time
//! order with FIFO tie-break, making the whole report a pure function
//! of the config — byte-identical at any host thread count.

use ickpt_obs::{DeviceKind, Event, Lane, Recorder};
use ickpt_sim::{EventWheel, SimDuration, SimTime, SplitMix64, StripedArray};

use crate::admission::{AdmissionConfig, AdmissionVerdict, TokenBucket};
use crate::sched::{ChunkJob, SchedPolicy, Scheduler};
use crate::tenant::TenantProfile;

/// Service configuration: the tenant fleet plus the shared back-end.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The tenant fleet (ids are indices into this vec).
    pub tenants: Vec<TenantProfile>,
    /// Array devices the writes stripe across.
    pub devices: usize,
    /// Per-device bandwidth, bytes per virtual second.
    pub device_bw: u64,
    /// Per-device fixed latency.
    pub device_latency: SimDuration,
    /// Stripe-chunk size, bytes.
    pub stripe_chunk: u64,
    /// Bandwidth-partitioning policy.
    pub policy: SchedPolicy,
    /// Admission parameters.
    pub admission: AdmissionConfig,
    /// Arrivals stop once virtual time passes this horizon (requests
    /// already issued still complete).
    pub run_for: SimDuration,
    /// Seed for the tenants' jitter streams.
    pub seed: u64,
}

impl ServiceConfig {
    /// A service over `tenants` with the paper's array numbers:
    /// 4 × 320 MB/s SCSI-class devices, 4 ms latency, 4 MB stripe
    /// chunks, fair-share scheduling, default admission.
    pub fn new(tenants: Vec<TenantProfile>, run_for: SimDuration) -> Self {
        ServiceConfig {
            tenants,
            devices: 4,
            device_bw: 320_000_000,
            device_latency: SimDuration::from_millis(4),
            stripe_chunk: 4_000_000,
            policy: SchedPolicy::FairShare,
            admission: AdmissionConfig::default(),
            run_for,
            seed: 0x1DC4_2004,
        }
    }

    /// Admission refill sized so the fleet's weights share the
    /// array's aggregate bandwidth, with a `burst_secs`-second burst.
    pub fn with_fair_admission(mut self, burst_secs: u64) -> Self {
        let total_weight: u64 =
            self.tenants.iter().map(|t| t.weight.max(1) as u64).sum::<u64>().max(1);
        let aggregate = self.device_bw.saturating_mul(self.devices as u64);
        let refill = (aggregate / total_weight).max(1);
        self.admission.refill_per_weight = refill;
        self.admission.burst_per_weight = refill.saturating_mul(burst_secs.max(1));
        self
    }
}

/// One tenant's slice of the service report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id (index in the fleet).
    pub id: u32,
    /// Workload name from the calibration table.
    pub workload: &'static str,
    /// QoS weight.
    pub weight: u32,
    /// Checkpoint requests that completed.
    pub checkpoints: u64,
    /// Admission deferrals.
    pub rejections: u64,
    /// Bytes admitted into the service.
    pub admitted_bytes: u64,
    /// Bytes landed on array devices for this tenant.
    pub drained_bytes: u64,
    /// Every completed request's blocked interval, ns, completion
    /// order (percentiles are derived from this).
    pub stalls_ns: Vec<u64>,
    /// Virtual ns spent computing (between requests).
    pub compute_ns: u64,
}

impl TenantReport {
    /// Total blocked time.
    pub fn stall_total(&self) -> SimDuration {
        SimDuration(self.stalls_ns.iter().sum())
    }

    /// Blocked-interval percentile (nearest-rank).
    pub fn stall_percentile(&self, pct: u64) -> SimDuration {
        SimDuration(percentile_ns(&self.stalls_ns, pct))
    }

    /// Fraction of the tenant's active time spent computing, in basis
    /// points (10000 = no stall at all).
    pub fn efficiency_bp(&self) -> u64 {
        let stall: u64 = self.stalls_ns.iter().sum();
        let total = self.compute_ns + stall;
        if total == 0 {
            10_000
        } else {
            (self.compute_ns as u128 * 10_000 / total as u128) as u64
        }
    }
}

/// Integer roll-up over tenants: every field is an associative fold,
/// so tree reduction at any arity matches the flat fold bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceAggregate {
    /// Tenants folded in.
    pub tenants: u64,
    /// Sum of completed checkpoints.
    pub checkpoints: u64,
    /// Sum of admission deferrals.
    pub rejections: u64,
    /// Sum of admitted bytes.
    pub admitted_bytes: u64,
    /// Sum of bytes landed on the array.
    pub drained_bytes: u64,
    /// Sum of blocked time, ns.
    pub stall_ns_total: u64,
    /// Largest single blocked interval, ns.
    pub stall_ns_max: u64,
}

impl ServiceAggregate {
    /// The aggregate of one tenant's report.
    pub fn from_tenant(t: &TenantReport) -> Self {
        ServiceAggregate {
            tenants: 1,
            checkpoints: t.checkpoints,
            rejections: t.rejections,
            admitted_bytes: t.admitted_bytes,
            drained_bytes: t.drained_bytes,
            stall_ns_total: t.stalls_ns.iter().sum(),
            stall_ns_max: t.stalls_ns.iter().copied().max().unwrap_or(0),
        }
    }

    /// Merge (associative and commutative).
    pub fn merge(&mut self, other: &ServiceAggregate) {
        self.tenants += other.tenants;
        self.checkpoints += other.checkpoints;
        self.rejections += other.rejections;
        self.admitted_bytes = self.admitted_bytes.saturating_add(other.admitted_bytes);
        self.drained_bytes = self.drained_bytes.saturating_add(other.drained_bytes);
        self.stall_ns_total = self.stall_ns_total.saturating_add(other.stall_ns_total);
        self.stall_ns_max = self.stall_ns_max.max(other.stall_ns_max);
    }
}

/// Roll per-tenant reports up into the fleet aggregate. A flat fold:
/// [`ServiceAggregate::merge`] is exact integer arithmetic, so any
/// reduction shape would give the same result.
pub fn reduce_tenants(tenants: &[TenantReport]) -> ServiceAggregate {
    let mut aggregate = ServiceAggregate::default();
    for t in tenants {
        aggregate.merge(&ServiceAggregate::from_tenant(t));
    }
    aggregate
}

/// The finished service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Per-tenant reports, tenant order.
    pub tenants: Vec<TenantReport>,
    /// Cluster-wide roll-up ([`reduce_tenants`]).
    pub aggregate: ServiceAggregate,
    /// Latest event instant in the run.
    pub horizon: SimTime,
    /// Cumulative payload bytes per array device, device order.
    pub device_bytes: Vec<u64>,
    /// Array transfers serviced.
    pub transfers: u64,
}

impl ServiceReport {
    /// Aggregate array throughput over the run, MB/s (MB = 10^6).
    pub fn aggregate_throughput_mbps(&self) -> f64 {
        if self.horizon.0 == 0 {
            return 0.0;
        }
        self.aggregate.drained_bytes as f64 / 1e6 / self.horizon.as_secs_f64()
    }

    /// Percentile over *every* tenant's stall samples (nearest-rank).
    pub fn stall_percentile_all(&self, pct: u64) -> SimDuration {
        let mut all: Vec<u64> =
            self.tenants.iter().flat_map(|t| t.stalls_ns.iter().copied()).collect();
        all.sort_unstable();
        SimDuration(percentile_sorted(&all, pct))
    }
}

/// Nearest-rank percentile of unsorted ns samples (`pct` in 0..=100).
pub fn percentile_ns(samples: &[u64], pct: u64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, pct)
}

fn percentile_sorted(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct.min(100) * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Wheel events of the service loop.
enum Ev {
    /// Tenant finished computing; issues its next checkpoint request.
    Arrive(u32),
    /// Deferred admission retry.
    Retry(u32),
    /// One stripe chunk landed on a device.
    ChunkDone { tenant: u32, bytes: u64 },
}

struct TenantRun {
    rng: SplitMix64,
    reqs_issued: u64,
    /// In-flight request state (closed loop: at most one).
    req_start: SimTime,
    req_bytes: u64,
    pending_chunks: u64,
    /// Virtual instant the current compute phase started.
    compute_since: SimTime,
    report: TenantReport,
}

/// Run the service to completion; see the module docs. `obs` may be
/// [`Recorder::disabled`].
pub fn run_service(cfg: &ServiceConfig, obs: &Recorder) -> ServiceReport {
    assert!(!cfg.tenants.is_empty(), "service needs at least one tenant");
    assert!(cfg.stripe_chunk > 0, "stripe chunk must be positive");
    let weights: Vec<u32> = cfg.tenants.iter().map(|t| t.weight).collect();
    let mut sched = Scheduler::new(cfg.policy, &weights, cfg.stripe_chunk);
    let mut array =
        StripedArray::homogeneous(cfg.devices, cfg.device_bw, cfg.device_latency, cfg.stripe_chunk);
    let mut buckets: Vec<TokenBucket> =
        weights.iter().map(|&w| TokenBucket::for_weight(&cfg.admission, w)).collect();
    let mut wheel: EventWheel<Ev> = EventWheel::new();
    let run_end = SimTime::ZERO + cfg.run_for;

    let mut runs: Vec<TenantRun> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(id, p)| TenantRun {
            rng: SplitMix64::new(cfg.seed ^ ((id as u64) << 20) ^ 0x5e7c_0000u64),
            reqs_issued: 0,
            req_start: SimTime::ZERO,
            req_bytes: 0,
            pending_chunks: 0,
            compute_since: SimTime::ZERO,
            report: TenantReport {
                id: id as u32,
                workload: p.workload.calib().name,
                weight: p.weight,
                checkpoints: 0,
                rejections: 0,
                admitted_bytes: 0,
                drained_bytes: 0,
                stalls_ns: Vec::new(),
                compute_ns: 0,
            },
        })
        .collect();

    // Staggered first arrivals, keyed by (seed, tenant id) only — a
    // tenant's arrival pattern is independent of its neighbours.
    for (id, p) in cfg.tenants.iter().enumerate() {
        let at = SimTime::ZERO + p.stagger(cfg.seed, id as u32);
        if at <= run_end {
            wheel.push(at, Ev::Arrive(id as u32));
        }
    }

    let mut in_flight = 0usize;
    let mut horizon = SimTime::ZERO;

    while let Some((now, ev)) = wheel.pop() {
        horizon = horizon.max(now);
        match ev {
            Ev::Arrive(t) => {
                let ti = t as usize;
                let n_req = runs[ti].reqs_issued;
                runs[ti].reqs_issued += 1;
                let bytes = cfg.tenants[ti].jittered_request_bytes(&mut runs[ti].rng, n_req);
                runs[ti].report.compute_ns += (now - runs[ti].compute_since).0;
                runs[ti].req_start = now;
                runs[ti].req_bytes = bytes;
                try_admit(cfg, &mut runs, &mut buckets, &mut sched, &mut wheel, obs, t, now);
                pump(cfg, &mut sched, &mut array, &mut wheel, obs, &mut in_flight, now);
            }
            Ev::Retry(t) => {
                try_admit(cfg, &mut runs, &mut buckets, &mut sched, &mut wheel, obs, t, now);
                pump(cfg, &mut sched, &mut array, &mut wheel, obs, &mut in_flight, now);
            }
            Ev::ChunkDone { tenant, bytes } => {
                in_flight -= 1;
                let ti = tenant as usize;
                runs[ti].report.drained_bytes += bytes;
                runs[ti].pending_chunks -= 1;
                if runs[ti].pending_chunks == 0 {
                    // Request durable: the tenant unblocks and computes
                    // its next interval.
                    let stall = now - runs[ti].req_start;
                    runs[ti].report.checkpoints += 1;
                    runs[ti].report.stalls_ns.push(stall.0);
                    obs.emit_span(
                        Lane::Tenant(tenant),
                        runs[ti].req_start,
                        stall,
                        Event::TenantStall { tenant, bytes: runs[ti].req_bytes },
                    );
                    runs[ti].compute_since = now;
                    let next = now + cfg.tenants[ti].interval;
                    if next <= run_end {
                        wheel.push(next, Ev::Arrive(tenant));
                    }
                }
                pump(cfg, &mut sched, &mut array, &mut wheel, obs, &mut in_flight, now);
            }
        }
    }

    let tenants: Vec<TenantReport> = runs.into_iter().map(|r| r.report).collect();
    let aggregate = reduce_tenants(&tenants);
    ServiceReport {
        tenants,
        aggregate,
        horizon,
        device_bytes: array.device_bytes(),
        transfers: array.transfers(),
    }
}

/// One admission attempt for tenant `t`'s in-flight request.
#[allow(clippy::too_many_arguments)]
fn try_admit(
    cfg: &ServiceConfig,
    runs: &mut [TenantRun],
    buckets: &mut [TokenBucket],
    sched: &mut Scheduler,
    wheel: &mut EventWheel<Ev>,
    obs: &Recorder,
    t: u32,
    now: SimTime,
) {
    let ti = t as usize;
    let bytes = runs[ti].req_bytes;
    match buckets[ti].admit(now, bytes) {
        AdmissionVerdict::Grant => {
            runs[ti].report.admitted_bytes += bytes;
            let mut chunks = 0u64;
            let mut rest = bytes;
            loop {
                let sz = rest.min(cfg.stripe_chunk);
                sched.enqueue(ChunkJob { tenant: t, req: runs[ti].reqs_issued - 1, bytes: sz });
                chunks += 1;
                rest -= sz;
                if rest == 0 {
                    break;
                }
            }
            runs[ti].pending_chunks = chunks;
            obs.emit(Lane::Tenant(t), now, Event::AdmissionGrant { tenant: t, bytes, chunks });
        }
        AdmissionVerdict::Defer(retry_at) => {
            runs[ti].report.rejections += 1;
            obs.emit(
                Lane::Tenant(t),
                now,
                Event::AdmissionReject { tenant: t, bytes, retry_ns: (retry_at - now).0 },
            );
            wheel.push(retry_at, Ev::Retry(t));
        }
    }
}

/// Dispatch queued chunks onto array devices while the global
/// in-flight cap allows.
fn pump(
    cfg: &ServiceConfig,
    sched: &mut Scheduler,
    array: &mut StripedArray,
    wheel: &mut EventWheel<Ev>,
    obs: &Recorder,
    in_flight: &mut usize,
    now: SimTime,
) {
    while *in_flight < cfg.admission.max_in_flight.max(1) {
        let Some(job) = sched.pick() else { break };
        let (dev, tr) = array.write_chunk(now, job.bytes);
        obs.emit_span(
            Lane::Device(DeviceKind::Array, dev as u32),
            tr.start,
            tr.service,
            Event::DeviceTransfer {
                bytes: job.bytes,
                queue_wait_ns: tr.queue_wait.0,
                service_ns: tr.service.0,
            },
        );
        *in_flight += 1;
        wheel.push(tr.done, Ev::ChunkDone { tenant: job.tenant, bytes: job.bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickpt_apps::Workload;

    fn small_fleet(n: usize) -> Vec<TenantProfile> {
        let mix = [Workload::NasFt, Workload::NasLu, Workload::Sweep3d, Workload::NasBt];
        (0..n)
            .map(|i| TenantProfile::from_workload(mix[i % mix.len()], 0.01, 1 + (i % 3) as u32))
            .collect()
    }

    fn small_cfg(n: usize) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(small_fleet(n), SimDuration::from_secs(20));
        cfg.devices = 2;
        cfg.stripe_chunk = 250_000;
        cfg.with_fair_admission(2)
    }

    #[test]
    fn single_tenant_completes_checkpoints() {
        let cfg = small_cfg(1);
        let r = run_service(&cfg, &Recorder::disabled());
        assert!(r.tenants[0].checkpoints > 3, "report: {:?}", r.aggregate);
        assert_eq!(r.aggregate.checkpoints, r.tenants[0].checkpoints);
        assert!(r.aggregate.drained_bytes > 0);
        assert!(r.tenants[0].efficiency_bp() <= 10_000);
    }

    #[test]
    fn per_tenant_drained_bytes_sum_to_device_bytes() {
        let r = run_service(&small_cfg(6), &Recorder::disabled());
        let per_tenant: u64 = r.tenants.iter().map(|t| t.drained_bytes).sum();
        let per_device: u64 = r.device_bytes.iter().sum();
        assert_eq!(per_tenant, per_device);
        assert_eq!(per_tenant, r.aggregate.drained_bytes);
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_service(&small_cfg(5), &Recorder::disabled());
        let b = run_service(&small_cfg(5), &Recorder::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn aggregate_is_the_flat_fold_of_the_tenants() {
        let r = run_service(&small_cfg(9), &Recorder::disabled());
        let mut flat = ServiceAggregate::default();
        for t in &r.tenants {
            flat.merge(&ServiceAggregate::from_tenant(t));
        }
        assert_eq!(r.aggregate, flat);
        assert_eq!(flat.tenants, 9);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&xs, 50), 50);
        assert_eq!(percentile_ns(&xs, 99), 99);
        assert_eq!(percentile_ns(&xs, 100), 100);
        assert_eq!(percentile_ns(&[7], 99), 7);
        assert_eq!(percentile_ns(&[], 99), 0);
    }

    #[test]
    fn fair_share_caps_light_tenant_p99_vs_fifo() {
        // A heavy Sage tenant alongside light NAS tenants: FIFO lets
        // the heavy request's chunk train block the light tenants.
        let mut fleet = vec![TenantProfile::from_workload(Workload::Sage100, 0.2, 1)];
        for _ in 0..3 {
            fleet.push(TenantProfile::from_workload(Workload::NasLu, 0.2, 1));
        }
        let mut cfg = ServiceConfig::new(fleet, SimDuration::from_secs(40));
        cfg.devices = 1;
        cfg.device_bw = 20_000_000;
        cfg.stripe_chunk = 250_000;
        cfg = cfg.with_fair_admission(4);
        let fair = run_service(&cfg, &Recorder::disabled());
        cfg.policy = SchedPolicy::Fifo;
        let fifo = run_service(&cfg, &Recorder::disabled());
        let light_p99 = |r: &ServiceReport| {
            r.tenants[1..].iter().map(|t| t.stall_percentile(99).0).max().unwrap_or(0)
        };
        assert!(
            light_p99(&fair) < light_p99(&fifo),
            "fair-share {} vs fifo {}",
            light_p99(&fair),
            light_p99(&fifo)
        );
    }
}
