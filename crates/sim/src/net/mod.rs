//! MPI-like messaging over virtual time.
//!
//! The paper's applications are Fortran/MPI codes on a Quadrics QsNet
//! cluster. This module holds the communication model the cluster event
//! engine executes:
//!
//! * `mailbox` — the one message-matching rule ([`Mailbox`] over
//!   [`Msg`]): first match in arrival order, i.e. FIFO per
//!   `(src, tag)`.
//! * `qsnet` — the interconnect model: every cost formula of a send,
//!   a receive and the tree collectives as a pure function of
//!   [`NetConfig`]. The paper calls out a QsNet quirk (§4.2): the NIC
//!   writes received data directly into user memory, which breaks
//!   `mprotect`-based tracking; the workaround is to receive into an
//!   unprotected *bounce buffer* and copy into place, taking the page
//!   faults during the copy. [`NetConfig::recv_complete_time`] charges
//!   that copy and the engine pushes the destination pages through the
//!   tracker.
//! * [`NetError`] — what a script whose sends, receives and collectives
//!   do not pair up ends in.
//!
//! Determinism: each rank owns its NIC device, message arrival times
//! are computed analytically at send time, and a collective completes
//! from the maximum of its participants' entry clocks, so a run is a
//! pure function of (application, seed, configuration).

use std::fmt;

pub(crate) mod mailbox;
pub(crate) mod qsnet;

pub use mailbox::{Mailbox, Msg};
pub use qsnet::NetConfig;

/// A communication script that cannot complete. The engine reports
/// these once no rank can make progress any more (or, for a mismatch,
/// as soon as the second collective joins the round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// `rank` waits for a message from `from` with `tag` that nobody
    /// sends.
    UnmatchedRecv { rank: usize, from: usize, tag: u32 },
    /// `rank` waits in a collective that some rank never enters.
    PartialCollective { rank: usize },
    /// `rank` entered a different collective (or payload size) than the
    /// ranks already waiting in the open round.
    CollectiveMismatch { rank: usize },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnmatchedRecv { rank, from, tag } => {
                write!(f, "rank {rank}: recv(from={from}, tag={tag}) is never sent to — mismatched send/recv script?")
            }
            NetError::PartialCollective { rank } => {
                write!(f, "rank {rank}: stalled in a collective not every rank enters — mismatched script?")
            }
            NetError::CollectiveMismatch { rank } => {
                write!(f, "rank {rank}: entered a different collective than the open round")
            }
        }
    }
}

impl std::error::Error for NetError {}
