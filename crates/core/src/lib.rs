//! # ickpt-core — incremental checkpointing
//!
//! The primary contribution of Sancho et al. (IPDPS 2004) reproduced as
//! a library: page-granularity write tracking at the "operating system"
//! abstraction level of the paper's Table 1, the IWS/IB metrics of §6.1,
//! checkpoint capture and rollback recovery, coordinated checkpoint
//! planning that exploits the bulk-synchronous application structure of
//! §6.2, and the feasibility analysis of §3/§6.3.
//!
//! * [`tracker`] — [`tracker::WriteTracker`]: the software MMU. Every
//!   simulated write goes through the same protect → fault → record →
//!   unprotect cycle as the paper's `mprotect`/`SIGSEGV` instrumentation
//!   (see `ickpt-native` for the real-OS twin), and an alarm at every
//!   *checkpoint timeslice* records the Incremental Working Set and
//!   re-protects all pages.
//! * [`metrics`] — Incremental Working Set (IWS) and Incremental
//!   Bandwidth (IB) statistics exactly as defined in §6.1.
//! * [`tracked_space`] — couples an address space to a tracker so
//!   mapping changes feed memory exclusion (§4.2).
//! * [`checkpoint`] / [`restore`] — full and incremental capture into
//!   `ickpt-storage` chunks, and chain-walking rollback recovery.
//! * [`coordinator`] — checkpoint planning: generation/lineage
//!   management and the vote flags exchanged at iteration boundaries.
//! * [`policy`] — run-time detection of the applications' periodic
//!   behaviour (processing bursts, main-iteration period) from the IWS
//!   series, as §6.2 argues is possible.
//! * [`feasibility`] — required-vs-available bandwidth verdicts against
//!   the paper's 900 MB/s network and 320 MB/s disk reference points.
//! * [`interval`] — Young/Daly checkpoint-interval optimization and
//!   machine-efficiency modeling, turning the measured bandwidth
//!   requirements into deployment guidance for the failure rates the
//!   paper's introduction projects (BlueGene/L failing every few
//!   hours).

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod coordinator;
mod error;
pub mod feasibility;
pub mod interval;
pub mod metrics;
pub mod policy;
pub mod restore;
pub mod trace;
pub mod tracked_space;
pub mod tracker;

pub use coordinator::CheckpointPolicy;
pub use error::CoreError;
pub use tracked_space::TrackedSpace;
pub use tracker::{TrackerConfig, WriteTracker};
