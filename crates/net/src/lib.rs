//! # ickpt-net — MPI-like messaging over virtual time
//!
//! The paper's applications are Fortran/MPI codes on a Quadrics QsNet
//! cluster. This crate reproduces the communication layer:
//!
//! * [`comm`] — per-rank [`comm::Endpoint`]s with tagged point-to-point
//!   `send`/`recv` and tree-modeled collectives (`barrier`,
//!   `allreduce`). Ranks run on real threads; every operation advances
//!   the caller's *virtual* clock analytically, so results are
//!   independent of OS scheduling.
//! * [`mailbox`] — the one message-matching rule ([`Mailbox`] over
//!   [`Msg`]): first match in arrival order, i.e. FIFO per
//!   `(src, tag)`. `Endpoint` and the cluster event engine both use it.
//! * [`qsnet`] — the interconnect model. The paper calls out a QsNet
//!   quirk (§4.2): the NIC writes received data directly into user
//!   memory, which breaks `mprotect`-based tracking; the workaround is
//!   to receive into an unprotected *bounce buffer* and copy into place,
//!   taking the page faults during the copy. [`comm::Endpoint::recv`]
//!   models exactly that: it returns the copy cost and the caller (the
//!   cluster runner) pushes the destination pages through the tracker.
//!
//! Determinism: each rank owns its NIC device, message arrival times
//! are computed analytically at send time, and collectives exchange
//! virtual clocks through a max-rendezvous, so a run is a pure function
//! of (application, seed, configuration).

pub mod comm;
pub mod mailbox;
pub mod qsnet;

pub use comm::{CommWorld, Endpoint, NetError, RecvInfo};
pub use mailbox::{Mailbox, Msg};
pub use qsnet::NetConfig;
