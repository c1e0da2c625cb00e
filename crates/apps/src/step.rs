//! The application interface: deterministic step generators.
//!
//! An application model is an infinite generator of [`Phase`]s, each a
//! short script of [`Step`]s. The cluster runner executes steps,
//! advancing the rank's virtual clock and feeding the write tracker; at
//! phases with `ends_iteration` it performs the iteration-boundary
//! coordination of §6.2 (checkpoint vote / failure vote / stop vote).
//!
//! Models may allocate and free memory directly on the space they are
//! given (the runner passes a tracked space, so mapping changes reach
//! the tracker), exactly like a real code calling `malloc`/`mmap` under
//! the paper's interposed instrumentation library.

use ickpt_mem::{AddressSpace, MemError, PageRange};
use ickpt_sim::SimDuration;

use crate::codec::CodecError;
use crate::pattern::AccessPattern;

/// One executable step of an application.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Compute for `duration`, touching pages per `pattern`.
    Compute {
        /// Virtual duration of the phase.
        duration: SimDuration,
        /// Pages written, spread uniformly over the duration.
        pattern: AccessPattern,
    },
    /// Eager send of `bytes` to rank `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Match tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive from rank `from`; the bounce-buffer copy lands
    /// in `into` (ghost cells), dirtying those pages (§4.2).
    Recv {
        /// Source rank.
        from: usize,
        /// Match tag.
        tag: u32,
        /// Pages the payload is copied into (`None` = scratch buffer
        /// outside the tracked region).
        into: Option<PageRange>,
    },
    /// Global barrier.
    Barrier,
    /// Allreduce of `bytes` (residuals, conservation sums).
    Allreduce {
        /// Payload size.
        bytes: u64,
    },
    /// All-to-all personalized exchange of `bytes_per_pair` with every
    /// other rank (FT's FFT transpose); received data lands in `into`.
    AllToAll {
        /// Payload exchanged with each peer.
        bytes_per_pair: u64,
        /// Pages the received panels are copied into.
        into: Option<PageRange>,
    },
}

/// A script of steps, possibly closing an iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phase {
    /// Steps to execute in order.
    pub steps: Vec<Step>,
    /// Whether an application main iteration ends after these steps
    /// (the coordination point of §6.2).
    pub ends_iteration: bool,
}

impl Phase {
    /// A phase that ends the iteration.
    pub(crate) fn ending(steps: Vec<Step>) -> Self {
        Self { steps, ends_iteration: true }
    }

    /// A mid-iteration phase.
    pub(crate) fn continuing(steps: Vec<Step>) -> Self {
        Self { steps, ends_iteration: false }
    }
}

/// A deterministic application model.
///
/// Determinism contract: given the same constructor parameters and the
/// same sequence of calls, a model must produce identical phases and
/// identical allocations — recovery replays from a checkpointed
/// iteration and the two timelines must agree.
pub trait AppModel: Send {
    /// Display name (e.g. "Sage-1000MB").
    fn name(&self) -> String;

    /// Allocate initial memory and produce the initialization script
    /// (the data-initialization write burst the paper excludes from IB
    /// statistics).
    fn init(&mut self, space: &mut dyn AddressSpace) -> Result<Phase, MemError>;

    /// Produce the next phase. Models are infinite generators; the
    /// runner decides when to stop.
    fn next_phase(&mut self, space: &mut dyn AddressSpace) -> Result<Phase, MemError>;

    /// Iterations completed so far (phases with `ends_iteration`
    /// consumed).
    fn iterations_done(&self) -> u64;

    /// Snapshot internal state (counters, RNG, allocation table) for a
    /// checkpoint.
    fn save_state(&self) -> Vec<u8>;

    /// Restore internal state from a checkpoint blob. The address space
    /// has already been restored to the matching mapping state.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_constructors() {
        let p = Phase::ending(vec![Step::Barrier]);
        assert!(p.ends_iteration);
        assert_eq!(p.steps.len(), 1);
        let p = Phase::continuing(vec![]);
        assert!(!p.ends_iteration);
    }
}
