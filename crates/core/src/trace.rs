//! The write trace: the tracker's instrumentation stream, recorded
//! per fine timeslice.
//!
//! A [`RankTrace`] is one rank's recording: for every timeslice the
//! coalesced dirty-page ranges at the alarm, the ranges memory
//! exclusion unmapped during the slice, the footprint at the alarm and
//! the bytes received. `CharacterizationConfig::trace_ranks` turns it
//! on for the first ranks of a run; each slice mirrors the IWS sample
//! the tracker emits for the same window.

use ickpt_mem::PageRange;
use ickpt_sim::{SimDuration, SimTime};

/// One fine timeslice of the recorded write stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSlice {
    /// Alarm instant ending the slice (a multiple of the resolution
    /// for alarm slices; the trailing flush slice ends wherever the
    /// run did).
    pub end_time: SimTime,
    /// Coalesced dirty ranges at the alarm (the fine IWS).
    pub dirty: Vec<PageRange>,
    /// Ranges unmapped (heap shrink / `munmap`) during the slice, in
    /// event order, whatever their dirty state.
    pub unmapped: Vec<PageRange>,
    /// Footprint at the alarm, in pages.
    pub footprint_pages: u64,
    /// Page faults taken during the slice.
    pub faults: u64,
    /// Message payload received during the slice.
    pub bytes_received: u64,
    /// True for the trailing partial slice the tracker's `finish`
    /// flush emits.
    pub is_flush: bool,
}

/// The recorded write stream of one rank at one trace resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The fine timeslice the trace was recorded at.
    pub resolution: SimDuration,
    /// Address-space capacity, in pages.
    pub capacity_pages: u64,
    /// Slices in time order, ending at successive resolution
    /// multiples (plus at most one trailing partial flush slice).
    pub slices: Vec<TraceSlice>,
}
