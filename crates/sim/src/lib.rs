//! # ickpt-sim — deterministic virtual-time cluster substrate
//!
//! The paper measured real wall-clock seconds on a 64-processor
//! Itanium-II cluster. We replace the cluster with *virtual time*: every
//! rank carries a local logical clock, costs (compute phases, message
//! transfers, collective operations) advance it analytically, and
//! synchronization points exchange clock values so the global ordering
//! is exactly what a real bulk-synchronous run would produce — but a
//! simulated 500 s Sage run finishes in seconds and is bit-for-bit
//! reproducible.
//!
//! Pieces:
//!
//! * `clock` — `SimTime` / `SimDuration`, nanosecond-resolution fixed
//!   point.
//! * `device` — bandwidth/latency device models (the QsNet NIC at
//!   900 MB/s and the SCSI disk at 320 MB/s from §3 of the paper are
//!   provided as presets) with busy-until queuing.
//! * `rng` — SplitMix64: tiny, seedable, no external dependency, used
//!   wherever the workload models need reproducible pseudo-randomness.
//! * `sched` — a deterministic event wheel: a binary heap over one
//!   packed `(SimTime, push seq)` key, so ties pop FIFO; the backbone
//!   of the event-driven cluster engine and the store service.
//! * [`reduce`] — hierarchical fan-in reduction (`tree_reduce`),
//!   byte-identical to a flat fold for associative integer merges, and
//!   the [`Combine`] operators collective rounds fold values with.
//! * `stripe` — a striped multi-device array: round-robin stripe
//!   chunks over M FIFO devices, the storage shape of a shared
//!   checkpoint service.
//! * [`env`](mod@env) — the one strict reader of the `ICKPT_*` environment knobs.
//! * [`net`] — MPI-like messaging and the QsNet interconnect model: the
//!   mailbox matching rule, send/receive/collective costs and the typed
//!   error a mismatched script ends in.

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

mod clock;
mod device;
pub mod env;
pub mod net;
pub mod reduce;
mod rng;
mod sched;
mod stripe;

pub use clock::{SimDuration, SimTime};
pub use device::{BandwidthDevice, DevicePreset, Transfer};
pub use reduce::{tree_reduce, Combine};
pub use rng::SplitMix64;
pub use sched::EventWheel;
pub use stripe::StripedArray;
