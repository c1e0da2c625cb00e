//! `svc_fleet`: the multi-tenant store service's event loop alone —
//! admission, deficit-round-robin scheduling, the striped array and
//! the event wheel. No bytes, no ranks, no recorder.

use std::hint::black_box;
use std::time::Instant;

use ickpt::cluster::{fleet_profiles, mixed_fleet};
use ickpt::obs::Recorder;
use ickpt::sim::{SimDuration, SimTime, StripedArray};
use ickpt::svc::{
    run_service, AdmissionConfig, ChunkJob, SchedPolicy, Scheduler, ServiceConfig, ServiceReport,
    TokenBucket,
};

use super::{fold_digest, wheel_ns_per_event, Checks, Layers, Params, PassOut, Workload};
use crate::spans::{Tracer, ROOT};
use crate::stats;

pub struct SvcFleet {
    cfg: ServiceConfig,
    /// Set-up run of the same configuration: every pass must return
    /// this report exactly.
    reference: ServiceReport,
    pass_s: Vec<f64>,
}

/// The fleet configuration both service workloads derive from.
pub fn service_config(
    tenants: usize,
    devices: usize,
    virtual_secs: u64,
    seed: u64,
) -> ServiceConfig {
    let fleet = fleet_profiles(&mixed_fleet(tenants, 0.1, seed));
    let mut cfg = ServiceConfig::new(fleet, SimDuration::from_secs(virtual_secs));
    cfg.devices = devices;
    cfg.seed = seed;
    cfg.with_fair_admission(2)
}

/// Wheel events of a run, computed from its report: one per completed
/// request's arrival, one per admission retry, one per array transfer.
fn service_events(report: &ServiceReport) -> u64 {
    report.aggregate.checkpoints + report.aggregate.rejections + report.transfers
}

impl SvcFleet {
    pub fn new(p: &Params) -> Self {
        let (tenants, devices, secs) = if p.quick { (32, 4, 300) } else { (1024, 16, 9000) };
        let cfg = service_config(tenants, devices, secs, p.seed);
        let reference = run_service(&cfg, &Recorder::disabled());
        SvcFleet { cfg, reference, pass_s: Vec::new() }
    }
}

impl Workload for SvcFleet {
    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("tenants", self.cfg.tenants.len().to_string()),
            ("devices", self.cfg.devices.to_string()),
            ("virtual_s", self.cfg.run_for.as_secs_f64().to_string()),
            ("policy", "fair-share + fair admission (2 s burst)".to_string()),
            ("requests", self.reference.aggregate.checkpoints.to_string()),
        ]
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> PassOut {
        let root = tr.begin(ROOT);
        let report = tr.time("svc.run_service", || run_service(&self.cfg, &Recorder::disabled()));
        let secs = tr.end(root);
        self.pass_s.push(secs);
        checks.check("every tenant's admitted bytes were drained", {
            report.tenants.iter().all(|t| t.admitted_bytes == t.drained_bytes)
        });
        checks.check("report identical to the set-up run", report == self.reference);
        PassOut { secs, work: report.aggregate.checkpoints as f64, extra: Vec::new() }
    }

    fn digest(&self) -> u64 {
        let a = &self.reference.aggregate;
        let fields =
            [a.checkpoints, a.rejections, a.admitted_bytes, a.drained_bytes, a.stall_ns_total];
        fields.into_iter().fold(self.reference.horizon.0, fold_digest)
    }

    fn layers(&mut self, _tr: &mut Tracer, out: &mut Layers) {
        let report = &self.reference;
        let run_s = stats::median(&self.pass_s);
        let events = service_events(report).max(1);
        out.insert("svc.run_s", run_s);
        out.insert("svc.requests", report.aggregate.checkpoints as f64);
        out.insert("svc.rejections", report.aggregate.rejections as f64);
        out.insert("svc.events", events as f64);
        out.insert("svc.ns_per_event", run_s * 1e9 / events as f64);
        out.insert("sim.wheel_ns_per_event", wheel_ns_per_event(events, self.cfg.seed));

        // Components alone, at this fleet's tenant count, as many
        // operations each as the run makes decisions.
        let n = self.cfg.tenants.len();
        let ops = events.clamp(100_000, 4_000_000);
        let acfg: AdmissionConfig = self.cfg.admission;
        let mut buckets: Vec<TokenBucket> =
            self.cfg.tenants.iter().map(|t| TokenBucket::for_weight(&acfg, t.weight)).collect();
        let t = Instant::now();
        for i in 0..ops {
            let bucket = &mut buckets[i as usize % n];
            black_box(bucket.admit(SimTime(i * 1_000_000), self.cfg.stripe_chunk));
        }
        out.insert("svc.admission_ns", t.elapsed().as_secs_f64() * 1e9 / ops as f64);

        let weights: Vec<u32> = self.cfg.tenants.iter().map(|t| t.weight).collect();
        let mut sched = Scheduler::new(SchedPolicy::FairShare, &weights, self.cfg.stripe_chunk);
        for i in 0..n as u64 {
            sched.enqueue(ChunkJob { tenant: i as u32, req: i, bytes: self.cfg.stripe_chunk });
        }
        let t = Instant::now();
        for i in 0..ops {
            // One enqueue per pick keeps every tenant's ring populated.
            let tenant = (i % n as u64) as u32;
            sched.enqueue(ChunkJob { tenant, req: i, bytes: self.cfg.stripe_chunk });
            black_box(sched.pick());
        }
        out.insert("svc.drr_pick_ns", t.elapsed().as_secs_f64() * 1e9 / ops as f64);

        let mut array = StripedArray::homogeneous(
            self.cfg.devices,
            self.cfg.device_bw,
            self.cfg.device_latency,
            self.cfg.stripe_chunk,
        );
        let t = Instant::now();
        for i in 0..ops {
            black_box(array.write_chunk(SimTime(i * 1_000_000), self.cfg.stripe_chunk));
        }
        out.insert("sim.stripe_charge_ns", t.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
}
