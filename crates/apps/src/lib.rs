//! # ickpt-apps — scientific-application memory-access models
//!
//! The paper characterizes six Fortran/MPI workloads on a 64-CPU
//! Itanium-II cluster: **Sage** (an ASCI hydro code, at four memory
//! footprints), **Sweep3D** (an S_N transport kernel), and the NAS
//! parallel benchmarks **BT, SP, LU, FT** (class C). We cannot run
//! those codes (export-controlled / legacy Fortran / a cluster we don't
//! have), so this crate models the one thing the paper measures about
//! them: *which pages they write, when, and what they communicate*.
//!
//! Each model is built from the paper's own measurements used as
//! calibration constants (`calib`): memory footprint (Table 2),
//! main-iteration period and fraction of memory overwritten per
//! iteration (Table 3), and peak/average write rates (Table 4). The
//! *derived* behaviours — how IB decays with the timeslice (Fig 2),
//! sublinearity in footprint (Fig 3), the IWS ratio (Fig 4), weak
//! scaling (Fig 5) — all emerge from page reuse in the models, not from
//! the constants; see DESIGN.md §5.
//!
//! * `pattern` — working sets and resumable access patterns (cyclic
//!   sweeps, random touches, first-touch initialization).
//! * [`step`] — the [`step::AppModel`] trait: an application is a
//!   deterministic generator of compute/communication steps.
//! * [`phased`] — the generic bulk-synchronous iteration engine all six
//!   workloads instantiate: kernel phases sweeping the working set,
//!   communication between kernels, an optional quiet tail.
//! * `sage`, `sweep3d`, `nas` — the concrete models.
//! * [`synthetic`] — a small fully-configurable model for tests.
//! * `workload` — the [`Workload`] catalog enum used by
//!   benches and examples.

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

mod calib;
pub mod codec;
mod nas;
mod pattern;
pub mod phased;
mod sage;
pub mod step;
mod sweep3d;
pub mod synthetic;
mod workload;

pub use pattern::{AccessPattern, WorkingSet};
pub use step::{AppModel, Step};
pub use workload::Workload;
