//! # ickpt — incremental checkpointing for scientific computing
//!
//! A production-quality reproduction of **Sancho, Petrini, Johnson,
//! Fernández, Frachtenberg: "On the Feasibility of Incremental
//! Checkpointing for Scientific Computing", IPDPS 2004** (LANL).
//!
//! The paper instruments unmodified Fortran/MPI codes on a 64-CPU
//! Itanium-II / Quadrics QsNet cluster with an `mprotect`+`SIGSEGV`
//! dirty-page tracker, and shows that the bandwidth an incremental
//! checkpointer needs (the *Incremental Bandwidth*) is far below what
//! commodity networks and disks provide — so automatic, user-
//! transparent, frequent checkpointing is feasible.
//!
//! This workspace rebuilds the whole stack in nine crates (see
//! `DESIGN.md`):
//!
//! | crate | role |
//! |---|---|
//! | [`mem`] | simulated UNIX address space (pages, heap, mmap, dirty bitmaps) |
//! | [`sim`] | virtual time, bandwidth devices, deterministic PRNG, event wheel, knob reader, and [`net`]: MPI-like messaging + QsNet model |
//! | [`apps`] | Sage / Sweep3D / NAS BT,SP,LU,FT memory-access models |
//! | [`storage`] | checkpoint chunks, manifests, stores, throttling, redundancy tiers, capture kernels |
//! | [`obs`] | virtual-time flight recorder, metrics plane, trace exporters |
//! | [`core`] | **the contribution**: write tracking, IWS/IB metrics, checkpoint/restore, coordination, feasibility |
//! | [`native`] | the real `mprotect`/`SIGSEGV` mechanism via libc |
//! | [`svc`] | multi-tenant checkpoint store service: admission, fair-share scheduling, striped drain |
//! | `ickpt-bench` | the experiment harness (`repro`, `inspect`, `redundancy_smoke`) with its statistics, tables and plots; built on this facade, not re-exported |
//!
//! This facade crate adds [`cluster`]: the runner that executes
//! application models as rank state machines over virtual time, with
//! tracking, coordinated checkpointing, failure injection and rollback
//! recovery.
//!
//! ## Quickstart
//!
//! ```
//! use ickpt::apps::Workload;
//! use ickpt::cluster::{characterize, CharacterizationConfig};
//! use ickpt::core::metrics::IbStats;
//! use ickpt::sim::{SimDuration, SimTime};
//!
//! // Run a scaled-down Sage on 4 simulated ranks for 100 virtual
//! // seconds with a 1 s checkpoint timeslice.
//! let cfg = CharacterizationConfig {
//!     nranks: 4,
//!     scale: 0.02,
//!     run_for: SimDuration::from_secs(100),
//!     timeslice: SimDuration::from_secs(1),
//!     ..Default::default()
//! };
//! let report = characterize(Workload::Sage50, &cfg);
//! let stats = IbStats::from_samples(
//!     &report.ranks[0].samples,
//!     SimDuration::from_secs(1),
//!     SimTime::from_secs(5), // skip the initialization burst
//! );
//! assert!(stats.avg_mbps > 0.0);
//! ```

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

pub use ickpt_apps as apps;
pub use ickpt_core as core;
pub use ickpt_mem as mem;
pub use ickpt_native as native;
pub use ickpt_obs as obs;
pub use ickpt_sim as sim;
pub use ickpt_sim::net;
pub use ickpt_storage as storage;
pub use ickpt_svc as svc;

pub mod cluster;
