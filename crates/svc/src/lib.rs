//! # ickpt-svc — the checkpoint store as a shared multi-tenant service
//!
//! The paper sizes incremental-checkpoint bandwidth for *one* job that
//! owns the storage stack. A production checkpoint store (stdchk-style)
//! is shared: many jobs with different footprints and checkpoint
//! rhythms contend for one durable array. This crate models that
//! service on the deterministic event wheel:
//!
//! * `tenant` — tenant profiles derived from the paper's workload
//!   calibrations (request size = avg IB × period, request interval =
//!   the app's iteration period) plus per-tenant QoS weights.
//! * `admission` — a per-tenant token-bucket meter (weight-
//!   proportional refill, bounded burst, debt-based deferral so any
//!   request size stays live) under a global in-flight chunk cap.
//! * `sched` — the bandwidth partitioner: deficit-round-robin
//!   fair-share with weight-proportional quanta, plus FIFO and
//!   strict-priority baselines for interference ablations.
//! * `service` — the closed-loop simulation: tenants compute, issue
//!   checkpoint requests, pass admission, have their stripe chunks
//!   scheduled onto an M-device [`StripedArray`](ickpt_sim::StripedArray)
//!   (pipelined, one chunk per device at a time), and stall until
//!   their request is durable; drain back-pressure therefore feeds
//!   each job's stall time and efficiency directly.
//!
//! ## Determinism
//!
//! The whole service runs on one serial [`EventWheel`](ickpt_sim::EventWheel) —
//! admission decisions, scheduler picks and device charges happen in
//! virtual-time order with FIFO tie-break, so reports are
//! byte-identical at any `ICKPT_BENCH_THREADS` / `ICKPT_SIM_WORKERS`
//! setting. Per-tenant reports roll up into the fleet aggregate by a
//! flat fold over an exact integer merge.

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

mod admission;
mod sched;
mod service;
mod tenant;

pub use admission::{AdmissionConfig, TokenBucket};
pub use sched::{ChunkJob, SchedPolicy, Scheduler};
pub use service::{
    percentile_ns, reduce_tenants, run_service, ServiceAggregate, ServiceConfig, ServiceReport,
};
pub use tenant::TenantProfile;
