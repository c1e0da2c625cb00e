//! The write tracker: a software MMU reproducing the paper's
//! instrumentation library (§4.2).
//!
//! The paper's mechanism, reproduced bit by bit:
//!
//! * All data pages are write-protected. The first write to a protected
//!   page raises a fault; the handler records the page as dirty and
//!   unprotects it, so later writes in the same timeslice are free.
//!   Here "protected" is a clear bit in `WriteTracker::window` and
//!   "fault" is [`WriteTracker::touch_range`] reporting a newly set bit.
//! * An alarm fires every *checkpoint timeslice*: it records the memory
//!   footprint and the count of dirty pages (the IWS), resets the dirty
//!   set, and re-protects all data pages. Here that is
//!   [`WriteTracker::advance_to`] crossing a window boundary.
//! * Pages that are unmapped (heap shrink, `munmap`) are dropped from
//!   every dirty set — the paper's memory-exclusion behaviour ("pages
//!   belonging to unmapped areas are not taken into account", §4.2).
//! * Each fault costs time. The paper measured < 10 % slowdown at a 1 s
//!   timeslice (§6.5); the tracker charges
//!   [`TrackerConfig::fault_cost`] per fault so the simulation exhibits
//!   the same intrusiveness behaviour.
//!
//! On top of the per-window set the tracker can maintain three optional
//! accumulation sets: the *checkpoint set* (pages dirtied since the
//! last checkpoint — what an incremental checkpoint must save), the
//! *epoch set* (unique pages per fixed epoch, used to measure the
//! fraction of memory overwritten per iteration, Table 3), and the
//! *iteration set* (ground truth per application-declared iteration).

use ickpt_mem::{DirtyBitmap, PageRange};
use ickpt_obs::{Event, Lane, Recorder};
use ickpt_sim::{SimDuration, SimTime};

use crate::metrics::{IwsSample, SampleSummary};
use crate::trace::{RankTrace, TraceSlice};

/// What the tracker keeps of its per-window sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Keep every window sample (the historical behaviour).
    Full,
    /// Keep a bounded reservoir of at most `reservoir` samples
    /// (stride-doubling decimation: always windows 0, s, 2s, … for the
    /// smallest power-of-two stride that fits) plus the exact
    /// [`SampleSummary`]. At 16k ranks the full series would cost
    /// gigabytes; the reservoir keeps report memory flat per rank. Its
    /// buffer is reserved once, at `reservoir` entries, when the
    /// tracker is built, and never grows past that.
    Compact {
        /// Maximum samples retained (clamped to at least 2).
        reservoir: usize,
    },
}

/// Tracker configuration.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// The checkpoint timeslice (§6.1): alarm period for IWS sampling.
    pub timeslice: SimDuration,
    /// Virtual time charged per page fault (protection fault + handler
    /// + `mprotect`). ~10 µs was typical for 2004-era Itanium Linux;
    ///   set to zero to measure workloads without intrusiveness.
    pub fault_cost: SimDuration,
    /// Maintain the dirty-since-last-checkpoint set (needed when actual
    /// checkpoints are taken; costs one extra bitmap update per touch).
    pub track_checkpoint_set: bool,
    /// Accumulate unique pages per fixed epoch of this length
    /// (Table 3's "% of memory overwritten" measurement).
    pub epoch: Option<SimDuration>,
    /// Accumulate unique pages per application-declared iteration.
    pub track_iterations: bool,
    /// Record a [`crate::trace::RankTrace`]: snapshot the coalesced
    /// dirty ranges (and the ranges memory exclusion unmapped) at every
    /// alarm.
    pub record_trace: bool,
    /// Flight recorder; every fired alarm emits one `TrackerWindow`
    /// span covering the closed window. Disabled by default.
    pub obs: Recorder,
    /// Rank lane the tracker events land on.
    pub obs_rank: u32,
    /// Sample retention policy; [`SampleMode::Full`] by default.
    pub sample_mode: SampleMode,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            timeslice: SimDuration::from_secs(1),
            fault_cost: SimDuration::ZERO,
            track_checkpoint_set: false,
            epoch: None,
            track_iterations: false,
            record_trace: false,
            obs: Recorder::disabled(),
            obs_rank: 0,
            sample_mode: SampleMode::Full,
        }
    }
}

/// Unique-page count over one epoch window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Epoch index.
    pub index: u64,
    /// Virtual end time of the epoch.
    pub end_time: SimTime,
    /// Unique pages written during the epoch.
    pub unique_pages: u64,
    /// Footprint at the end of the epoch, in pages.
    pub footprint_pages: u64,
}

/// Unique-page count over one application iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationSample {
    /// Iteration index (0-based).
    pub index: u64,
    /// Virtual time the iteration ended.
    pub end_time: SimTime,
    /// Unique pages written during the iteration.
    pub unique_pages: u64,
    /// Footprint at iteration end, in pages.
    pub footprint_pages: u64,
}

/// The software-MMU write tracker.
///
/// ```
/// use ickpt_core::tracker::{TrackerConfig, WriteTracker};
/// use ickpt_mem::PageRange;
/// use ickpt_sim::SimTime;
///
/// // 1000-page space, all mapped, 1 s timeslice.
/// let mut t = WriteTracker::new(1000, 1000, TrackerConfig::default());
/// // First write to each page faults; re-writes are free.
/// assert_eq!(t.touch_range(PageRange::new(0, 100)), 100);
/// assert_eq!(t.touch_range(PageRange::new(0, 100)), 0);
/// // The alarm records the IWS and re-protects everything.
/// t.advance_to(SimTime::from_secs(1));
/// assert_eq!(t.samples()[0].iws_pages, 100);
/// assert_eq!(t.touch_range(PageRange::new(0, 1)), 1); // re-faults
/// ```
#[derive(Debug, Clone)]
pub struct WriteTracker {
    cfg: TrackerConfig,
    /// Dirty pages of the current timeslice window (clear = protected).
    window: DirtyBitmap,
    /// Dirty since last checkpoint.
    ckpt: Option<DirtyBitmap>,
    /// Dirty within current epoch.
    epoch_set: Option<DirtyBitmap>,
    /// Dirty within current application iteration.
    iter_set: Option<DirtyBitmap>,

    footprint_pages: u64,
    next_alarm: SimTime,
    next_epoch_end: SimTime,
    epoch_index: u64,
    iteration_index: u64,

    window_faults: u64,
    window_bytes_received: u64,
    total_faults: u64,
    total_bytes_received: u64,
    overhead: SimDuration,
    /// Pages dropped from the checkpoint set by memory exclusion
    /// (dirty at `munmap`/shrink time) — the §4.2 optimization's
    /// measured saving.
    excluded_pages: u64,

    samples: Vec<IwsSample>,
    /// Exact integer roll-up of every window, independent of the
    /// retention mode.
    summary: SampleSummary,
    /// Windows recorded so far (== `samples.len()` in Full mode; the
    /// authoritative window counter in Compact mode).
    window_index: u64,
    /// Compact-mode decimation stride (power of two, starts at 1).
    sample_stride: u64,
    epoch_samples: Vec<EpochSample>,
    iteration_samples: Vec<IterationSample>,
    /// Ranges unmapped since the last checkpoint, in event order — the
    /// content layer's churn set: a dedup baseline covering these pages
    /// must be invalidated before the next capture (a remapped page
    /// must never silently match hashes from a previous mapping epoch).
    churn: Vec<PageRange>,
    /// Recorded trace slices (one per fired alarm; `record_trace`).
    trace_slices: Vec<TraceSlice>,
    /// Ranges unmapped during the current window, in event order
    /// (`record_trace`) — flushed into the next slice.
    pending_unmaps: Vec<PageRange>,
    capacity_pages: u64,
    finished: bool,
}

impl WriteTracker {
    /// A tracker over an address space of `capacity_pages` pages with
    /// `initial_footprint_pages` already mapped.
    pub fn new(capacity_pages: u64, initial_footprint_pages: u64, cfg: TrackerConfig) -> Self {
        assert!(!cfg.timeslice.is_zero(), "timeslice must be positive");
        let ckpt = cfg.track_checkpoint_set.then(|| DirtyBitmap::new(capacity_pages));
        let epoch_set = cfg.epoch.map(|_| DirtyBitmap::new(capacity_pages));
        let iter_set = cfg.track_iterations.then(|| DirtyBitmap::new(capacity_pages));
        let next_alarm = SimTime::ZERO + cfg.timeslice;
        let next_epoch_end = SimTime::ZERO + cfg.epoch.unwrap_or(SimDuration(u64::MAX / 2));
        let samples = match cfg.sample_mode {
            SampleMode::Full => Vec::new(),
            SampleMode::Compact { reservoir } => Vec::with_capacity(reservoir.max(2)),
        };
        Self {
            cfg,
            window: DirtyBitmap::new(capacity_pages),
            ckpt,
            epoch_set,
            iter_set,
            footprint_pages: initial_footprint_pages,
            next_alarm,
            next_epoch_end,
            epoch_index: 0,
            iteration_index: 0,
            window_faults: 0,
            window_bytes_received: 0,
            total_faults: 0,
            total_bytes_received: 0,
            overhead: SimDuration::ZERO,
            excluded_pages: 0,
            samples,
            summary: SampleSummary::default(),
            window_index: 0,
            sample_stride: 1,
            epoch_samples: Vec::new(),
            iteration_samples: Vec::new(),
            churn: Vec::new(),
            trace_slices: Vec::new(),
            pending_unmaps: Vec::new(),
            capacity_pages,
            finished: false,
        }
    }

    /// When the next alarm fires. The runner splits compute phases at
    /// this boundary so every touch lands in the right window.
    pub fn next_alarm_time(&self) -> SimTime {
        self.next_alarm
    }

    /// Advance virtual time to `now`, firing every alarm (and epoch
    /// boundary) that `now` has reached or passed. Call this *before*
    /// recording touches that happen at `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        while self.next_alarm <= now {
            let end = self.next_alarm;
            let widx = self.window_index;
            self.record_sample(IwsSample {
                window: widx,
                end_time: end,
                iws_pages: self.window.count(),
                footprint_pages: self.footprint_pages,
                faults: self.window_faults,
                bytes_received: self.window_bytes_received,
            });
            if self.cfg.obs.is_enabled() {
                let start = SimTime(end.0.saturating_sub(self.cfg.timeslice.0));
                self.cfg.obs.emit_span(
                    Lane::Rank(self.cfg.obs_rank),
                    start,
                    end.saturating_sub(start),
                    Event::TrackerWindow {
                        index: widx,
                        iws_pages: self.window.count(),
                        footprint_pages: self.footprint_pages,
                        faults: self.window_faults,
                    },
                );
            }
            if self.cfg.record_trace {
                self.trace_slices.push(TraceSlice {
                    end_time: end,
                    dirty: self.window.dirty_ranges(),
                    unmapped: std::mem::take(&mut self.pending_unmaps),
                    footprint_pages: self.footprint_pages,
                    faults: self.window_faults,
                    bytes_received: self.window_bytes_received,
                    is_flush: false,
                });
            }
            // The alarm handler: reset dirty count and re-protect all
            // data pages (§4.2).
            self.window.clear_all();
            self.window_faults = 0;
            self.window_bytes_received = 0;
            self.next_alarm = end + self.cfg.timeslice;
        }
        if let Some(epoch) = self.cfg.epoch {
            while self.next_epoch_end <= now {
                let end = self.next_epoch_end;
                let set = self.epoch_set.as_mut().expect("epoch set exists when epoch is set");
                self.epoch_samples.push(EpochSample {
                    index: self.epoch_index,
                    end_time: end,
                    unique_pages: set.count(),
                    footprint_pages: self.footprint_pages,
                });
                set.clear_all();
                self.epoch_index += 1;
                self.next_epoch_end = end + epoch;
            }
        }
    }

    /// Record one closed window: fold it into the exact summary, then
    /// retain it per the sample mode. In `Full` mode this is a plain
    /// push (byte-identical to the historical series). In `Compact`
    /// mode the reservoir keeps every `stride`-th window; when a window
    /// on the stride finds it full, the stride doubles and the
    /// reservoir is re-decimated *before* the push, which then happens
    /// only if the window is still on the new stride. Retention stays
    /// `O(reservoir)` over any run length and the buffer reserved at
    /// build never reallocates.
    fn record_sample(&mut self, s: IwsSample) {
        self.summary.absorb(&s);
        match self.cfg.sample_mode {
            SampleMode::Full => self.samples.push(s),
            SampleMode::Compact { reservoir } => {
                if s.window.is_multiple_of(self.sample_stride) {
                    if self.samples.len() == reservoir.max(2) {
                        self.sample_stride *= 2;
                        let stride = self.sample_stride;
                        self.samples.retain(|x| x.window.is_multiple_of(stride));
                    }
                    if s.window.is_multiple_of(self.sample_stride) {
                        self.samples.push(s);
                    }
                }
            }
        }
        self.window_index += 1;
    }

    /// Record writes to every page of `range`; returns the number of
    /// page faults (pages that were protected). The caller charges
    /// `faults * fault_cost` of virtual time; the tracker accumulates
    /// the same quantity as its intrusiveness figure.
    pub fn touch_range(&mut self, range: PageRange) -> u64 {
        let faults = self.window.set_range(range);
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.set_range(range);
        }
        if let Some(es) = &mut self.epoch_set {
            es.set_range(range);
        }
        if let Some(is) = &mut self.iter_set {
            is.set_range(range);
        }
        self.window_faults += faults;
        self.total_faults += faults;
        self.overhead += self.cfg.fault_cost * faults;
        faults
    }

    /// Virtual-time cost of `faults` faults under this configuration.
    pub fn fault_cost(&self, faults: u64) -> SimDuration {
        self.cfg.fault_cost * faults
    }

    /// Record message payload received in the current window (Fig 1b's
    /// "data received per timeslice").
    pub fn note_received(&mut self, bytes: u64) {
        self.window_bytes_received += bytes;
        self.total_bytes_received += bytes;
    }

    /// A range became mapped (heap grow or `mmap`). New pages start
    /// protected and clean for IWS purposes (mapping is not a write),
    /// but they *do* enter the checkpoint set: their content changed
    /// to zeros, and a restore from an older base would otherwise
    /// resurrect whatever bytes a previous mapping left there.
    pub(crate) fn on_map(&mut self, range: PageRange) {
        self.footprint_pages += range.len;
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.set_range(range);
        }
    }

    /// A range was unmapped (heap shrink or `munmap`): memory exclusion
    /// drops its pages from every dirty set (§4.2 — "pages belonging to
    /// unmapped areas are not taken into account").
    pub(crate) fn on_unmap(&mut self, range: PageRange) {
        debug_assert!(self.footprint_pages >= range.len);
        self.footprint_pages -= range.len;
        self.window.clear_range(range);
        if self.cfg.record_trace {
            // Raw, regardless of dirty state.
            self.pending_unmaps.push(range);
        }
        if let Some(ckpt) = &mut self.ckpt {
            self.excluded_pages += ckpt.clear_range(range);
            // Track churn only when someone can consume it (the same
            // gate as the checkpoint set itself).
            self.churn.push(range);
        }
        if let Some(es) = &mut self.epoch_set {
            es.clear_range(range);
        }
        if let Some(is) = &mut self.iter_set {
            is.clear_range(range);
        }
    }

    /// Declare the end of an application iteration at `now` (ground
    /// truth for Table 3; requires `track_iterations`).
    pub fn mark_iteration(&mut self, now: SimTime) {
        if let Some(is) = &mut self.iter_set {
            self.iteration_samples.push(IterationSample {
                index: self.iteration_index,
                end_time: now,
                unique_pages: is.count(),
                footprint_pages: self.footprint_pages,
            });
            is.clear_all();
            self.iteration_index += 1;
        }
    }

    /// Take the dirty-since-last-checkpoint set for an incremental
    /// checkpoint: returns the coalesced dirty ranges and clears the
    /// set. Requires `track_checkpoint_set`.
    pub fn take_checkpoint_set(&mut self) -> Vec<PageRange> {
        let ckpt = self.ckpt.as_mut().expect("take_checkpoint_set requires track_checkpoint_set");
        let ranges = ckpt.dirty_ranges();
        ckpt.clear_all();
        ranges
    }

    /// Take the churn set: every range unmapped since the last call
    /// (or tracker start), in event order, possibly overlapping. The
    /// content layer invalidates its dedup baseline over these ranges
    /// before each incremental capture. Cleared by the call, mirroring
    /// [`WriteTracker::take_checkpoint_set`].
    pub fn take_churn_set(&mut self) -> Vec<PageRange> {
        std::mem::take(&mut self.churn)
    }

    /// Pages currently pending in the checkpoint set.
    #[cfg(test)]
    pub(crate) fn checkpoint_set_pages(&self) -> u64 {
        self.ckpt.as_ref().map_or(0, |b| b.count())
    }

    /// Flush: emit one final (possibly partial) window ending at `now`
    /// if any activity is pending, and freeze the tracker.
    pub fn finish(&mut self, now: SimTime) {
        assert!(!self.finished, "tracker already finished");
        self.advance_to(now);
        if self.window.count() > 0 || self.window_bytes_received > 0 {
            let widx = self.window_index;
            self.record_sample(IwsSample {
                window: widx,
                end_time: now,
                iws_pages: self.window.count(),
                footprint_pages: self.footprint_pages,
                faults: self.window_faults,
                bytes_received: self.window_bytes_received,
            });
            if self.cfg.record_trace {
                // The trailing flush slice: it ends off the alarm grid,
                // since advance_to just fired every due alarm.
                self.trace_slices.push(TraceSlice {
                    end_time: now,
                    dirty: self.window.dirty_ranges(),
                    unmapped: std::mem::take(&mut self.pending_unmaps),
                    footprint_pages: self.footprint_pages,
                    faults: self.window_faults,
                    bytes_received: self.window_bytes_received,
                    is_flush: true,
                });
            }
            self.window.clear_all();
            self.window_faults = 0;
            self.window_bytes_received = 0;
        }
        self.finished = true;
    }

    /// Whether this tracker records a write trace.
    pub fn records_trace(&self) -> bool {
        self.cfg.record_trace
    }

    /// Take the recorded trace (requires `record_trace`); the tracker
    /// should be [`WriteTracker::finish`]ed first.
    pub fn take_trace(&mut self) -> RankTrace {
        assert!(self.cfg.record_trace, "take_trace requires record_trace");
        RankTrace {
            resolution: self.cfg.timeslice,
            capacity_pages: self.capacity_pages,
            slices: std::mem::take(&mut self.trace_slices),
        }
    }

    /// Per-timeslice IWS samples recorded so far (the full series in
    /// [`SampleMode::Full`], the decimated reservoir in
    /// [`SampleMode::Compact`]).
    pub fn samples(&self) -> &[IwsSample] {
        &self.samples
    }

    /// Exact integer roll-up of every window, regardless of the sample
    /// retention mode.
    pub fn sample_summary(&self) -> &SampleSummary {
        &self.summary
    }

    /// Per-epoch unique-page samples.
    #[cfg(test)]
    pub(crate) fn epoch_samples(&self) -> &[EpochSample] {
        &self.epoch_samples
    }

    /// Per-iteration unique-page samples (ground truth).
    #[cfg(test)]
    pub(crate) fn iteration_samples(&self) -> &[IterationSample] {
        &self.iteration_samples
    }

    /// Consume the tracker into its three sample series — per window,
    /// per epoch, per iteration — handing the buffers over instead of
    /// copying them. Each is shrunk to its length, so the Compact
    /// reservoir reserved at build holds no more than it retained.
    pub fn into_samples(self) -> (Vec<IwsSample>, Vec<EpochSample>, Vec<IterationSample>) {
        let Self { mut samples, mut epoch_samples, mut iteration_samples, .. } = self;
        samples.shrink_to_fit();
        epoch_samples.shrink_to_fit();
        iteration_samples.shrink_to_fit();
        (samples, epoch_samples, iteration_samples)
    }

    /// Current footprint in pages.
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_pages
    }

    /// Total page faults taken.
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Total bytes received.
    #[cfg(test)]
    pub(crate) fn total_bytes_received(&self) -> u64 {
        self.total_bytes_received
    }

    /// Accumulated virtual-time overhead of fault handling — the
    /// intrusiveness quantity of §6.5.
    pub fn overhead(&self) -> SimDuration {
        self.overhead
    }

    /// Dirty pages dropped from the checkpoint set by memory exclusion
    /// (§4.2): bytes an exclusion-unaware checkpointer would have
    /// saved pointlessly.
    pub fn excluded_pages(&self) -> u64 {
        self.excluded_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_1s() -> TrackerConfig {
        TrackerConfig { timeslice: SimDuration::from_secs(1), ..Default::default() }
    }

    #[test]
    fn faults_only_on_first_touch_per_window() {
        let mut t = WriteTracker::new(100, 100, cfg_1s());
        assert_eq!(t.touch_range(PageRange::new(0, 10)), 10);
        assert_eq!(t.touch_range(PageRange::new(0, 10)), 0, "unprotected pages do not fault");
        assert_eq!(t.touch_range(PageRange::new(5, 10)), 5);
        assert_eq!(t.total_faults(), 15);
    }

    #[test]
    fn alarm_records_iws_and_reprotects() {
        let mut t = WriteTracker::new(100, 80, cfg_1s());
        t.touch_range(PageRange::new(0, 30));
        t.advance_to(SimTime::from_secs(1));
        assert_eq!(t.samples().len(), 1);
        let s = &t.samples()[0];
        assert_eq!(s.iws_pages, 30);
        assert_eq!(s.footprint_pages, 80);
        assert_eq!(s.faults, 30);
        // Re-protection: the same pages fault again in the new window.
        assert_eq!(t.touch_range(PageRange::new(0, 30)), 30);
    }

    #[test]
    fn idle_windows_emit_zero_samples() {
        let mut t = WriteTracker::new(10, 10, cfg_1s());
        t.advance_to(SimTime::from_secs(5));
        assert_eq!(t.samples().len(), 5);
        assert!(t.samples().iter().all(|s| s.iws_pages == 0));
        assert_eq!(t.samples()[4].end_time, SimTime::from_secs(5));
    }

    #[test]
    fn touches_at_boundary_belong_to_next_window() {
        let mut t = WriteTracker::new(10, 10, cfg_1s());
        t.touch_range(PageRange::new(0, 2));
        // Engine convention: advance first, then touch.
        t.advance_to(SimTime::from_secs(1));
        t.touch_range(PageRange::new(5, 2));
        t.advance_to(SimTime::from_secs(2));
        assert_eq!(t.samples()[0].iws_pages, 2);
        assert_eq!(t.samples()[1].iws_pages, 2);
    }

    #[test]
    fn bytes_received_per_window() {
        let mut t = WriteTracker::new(10, 10, cfg_1s());
        t.note_received(100);
        t.advance_to(SimTime::from_secs(1));
        t.note_received(50);
        t.advance_to(SimTime::from_secs(2));
        assert_eq!(t.samples()[0].bytes_received, 100);
        assert_eq!(t.samples()[1].bytes_received, 50);
        assert_eq!(t.total_bytes_received(), 150);
    }

    #[test]
    fn churn_set_collects_unmaps_until_taken() {
        let mut t = WriteTracker::new(
            100,
            50,
            TrackerConfig {
                timeslice: SimDuration::from_secs(1),
                track_checkpoint_set: true,
                ..Default::default()
            },
        );
        assert!(t.take_churn_set().is_empty());
        t.on_unmap(PageRange::new(10, 5));
        t.on_map(PageRange::new(10, 5));
        t.on_unmap(PageRange::new(12, 2));
        // Event order preserved, overlap allowed: the consumer just
        // invalidates, so over-invalidation is safe.
        assert_eq!(t.take_churn_set(), vec![PageRange::new(10, 5), PageRange::new(12, 2)]);
        assert!(t.take_churn_set().is_empty(), "taking clears the set");
    }

    #[test]
    fn map_unmap_footprint_and_exclusion() {
        let mut t = WriteTracker::new(100, 10, cfg_1s());
        t.on_map(PageRange::new(10, 20));
        assert_eq!(t.footprint_pages(), 30);
        t.touch_range(PageRange::new(10, 20));
        // Unmapping dirty pages removes them from the window (memory
        // exclusion): the next alarm must not report them.
        t.on_unmap(PageRange::new(10, 20));
        t.advance_to(SimTime::from_secs(1));
        assert_eq!(t.samples()[0].iws_pages, 0);
        assert_eq!(t.samples()[0].footprint_pages, 10);
    }

    #[test]
    fn retouch_after_unmap_counts_again() {
        let mut t = WriteTracker::new(100, 30, cfg_1s());
        t.touch_range(PageRange::new(10, 10));
        t.on_unmap(PageRange::new(10, 10));
        // Re-mapped and re-written in the same window: dirty at the
        // alarm, so the window holds the re-touched pages only.
        t.on_map(PageRange::new(10, 4));
        t.touch_range(PageRange::new(10, 4));
        t.advance_to(SimTime::from_secs(1));
        assert_eq!((t.samples()[0].iws_pages, t.samples()[0].footprint_pages), (4, 24));
    }

    #[test]
    fn newly_mapped_ranges_enter_checkpoint_set_but_not_iws() {
        let cfg = TrackerConfig { track_checkpoint_set: true, ..cfg_1s() };
        let mut t = WriteTracker::new(100, 10, cfg);
        t.on_map(PageRange::new(10, 20));
        // Mapping is not a write: the window stays clean...
        t.advance_to(SimTime::from_secs(1));
        assert_eq!(t.samples()[0].iws_pages, 0);
        // ...but an incremental checkpoint must record the fresh
        // (zeroed) pages, or a restore from an older base would
        // resurrect stale bytes into the re-used address range.
        assert_eq!(t.checkpoint_set_pages(), 20);
        t.on_unmap(PageRange::new(10, 20));
        assert_eq!(t.checkpoint_set_pages(), 0, "exclusion still applies");
        assert_eq!(t.excluded_pages(), 20, "the saving is accounted");
    }

    #[test]
    fn checkpoint_set_accumulates_across_windows() {
        let cfg = TrackerConfig { track_checkpoint_set: true, ..cfg_1s() };
        let mut t = WriteTracker::new(100, 100, cfg);
        t.touch_range(PageRange::new(0, 5));
        t.advance_to(SimTime::from_secs(1));
        t.touch_range(PageRange::new(3, 5));
        assert_eq!(t.checkpoint_set_pages(), 8, "union of both windows");
        let ranges = t.take_checkpoint_set();
        assert_eq!(ranges, vec![PageRange::new(0, 8)]);
        assert_eq!(t.checkpoint_set_pages(), 0, "taking clears the set");
    }

    #[test]
    fn epoch_samples_count_unique_pages() {
        let cfg = TrackerConfig { epoch: Some(SimDuration::from_secs(2)), ..cfg_1s() };
        let mut t = WriteTracker::new(100, 100, cfg);
        t.touch_range(PageRange::new(0, 10));
        t.advance_to(SimTime::from_secs(1));
        t.touch_range(PageRange::new(0, 10)); // same pages again
        t.advance_to(SimTime::from_secs(2));
        assert_eq!(t.epoch_samples().len(), 1);
        assert_eq!(t.epoch_samples()[0].unique_pages, 10, "re-touches are not double counted");
        t.touch_range(PageRange::new(50, 5));
        t.advance_to(SimTime::from_secs(4));
        assert_eq!(t.epoch_samples()[1].unique_pages, 5);
    }

    #[test]
    fn iteration_ground_truth() {
        let cfg = TrackerConfig { track_iterations: true, ..cfg_1s() };
        let mut t = WriteTracker::new(100, 50, cfg);
        t.touch_range(PageRange::new(0, 20));
        t.touch_range(PageRange::new(10, 20));
        t.mark_iteration(SimTime::from_secs_f64(0.5));
        t.touch_range(PageRange::new(0, 5));
        t.mark_iteration(SimTime::from_secs(1));
        let its = t.iteration_samples();
        assert_eq!(its.len(), 2);
        assert_eq!(its[0].unique_pages, 30);
        assert_eq!(its[1].unique_pages, 5);
        assert_eq!(its[1].index, 1);
    }

    #[test]
    fn fault_cost_accumulates_overhead() {
        let cfg = TrackerConfig { fault_cost: SimDuration::from_micros(10), ..cfg_1s() };
        let mut t = WriteTracker::new(100, 100, cfg);
        t.touch_range(PageRange::new(0, 100));
        t.touch_range(PageRange::new(0, 100));
        assert_eq!(t.overhead(), SimDuration::from_micros(1000), "100 faults x 10us");
        assert_eq!(t.fault_cost(3), SimDuration::from_micros(30));
    }

    #[test]
    fn finish_flushes_partial_window() {
        let mut t = WriteTracker::new(10, 10, cfg_1s());
        t.advance_to(SimTime::from_secs(1));
        t.touch_range(PageRange::new(0, 4));
        t.finish(SimTime::from_secs_f64(1.5));
        assert_eq!(t.samples().len(), 2);
        assert_eq!(t.samples()[1].iws_pages, 4);
        assert_eq!(t.samples()[1].end_time, SimTime::from_secs_f64(1.5));
    }

    #[test]
    fn finish_without_pending_activity_adds_nothing() {
        let mut t = WriteTracker::new(10, 10, cfg_1s());
        t.touch_range(PageRange::new(0, 1));
        t.advance_to(SimTime::from_secs(1));
        t.finish(SimTime::from_secs(1));
        assert_eq!(t.samples().len(), 1);
    }

    #[test]
    fn recorded_trace_mirrors_samples_and_attributes_unmaps() {
        let mut t = WriteTracker::new(100, 100, TrackerConfig { record_trace: true, ..cfg_1s() });
        t.touch_range(PageRange::new(0, 10));
        t.advance_to(SimTime::from_secs(1));
        // Unmap lands in the *second* window's slice, raw (clean pages).
        t.on_unmap(PageRange::new(90, 10));
        t.touch_range(PageRange::new(20, 5));
        t.note_received(64);
        t.finish(SimTime::from_secs(2));
        let trace = t.take_trace();
        assert_eq!(trace.resolution, SimDuration::from_secs(1));
        assert_eq!(trace.capacity_pages, 100);
        assert_eq!(trace.slices.len(), 2, "no trailing flush at an exact boundary");
        assert_eq!(trace.slices[0].dirty, vec![PageRange::new(0, 10)]);
        assert!(trace.slices[0].unmapped.is_empty());
        assert_eq!(trace.slices[1].dirty, vec![PageRange::new(20, 5)]);
        assert_eq!(trace.slices[1].unmapped, vec![PageRange::new(90, 10)]);
        assert_eq!(trace.slices[1].footprint_pages, 90);
        assert_eq!(trace.slices[1].bytes_received, 64);
        // Each alarm slice mirrors the sample of its window.
        assert_eq!(trace.slices.len(), t.samples().len());
        for (slice, sample) in trace.slices.iter().zip(t.samples()) {
            assert!(!slice.is_flush);
            let dirty: u64 = slice.dirty.iter().map(|r| r.len).sum();
            assert_eq!((slice.end_time, dirty), (sample.end_time, sample.iws_pages));
        }
    }

    #[test]
    fn compact_mode_bounds_samples_and_keeps_exact_summary() {
        let mk = |mode| {
            let mut t =
                WriteTracker::new(100, 100, TrackerConfig { sample_mode: mode, ..cfg_1s() });
            for w in 0..1000u64 {
                t.touch_range(PageRange::new(w % 50, 3));
                t.note_received(10);
                t.advance_to(SimTime::from_secs(w + 1));
            }
            t
        };
        let full = mk(SampleMode::Full);
        let compact = mk(SampleMode::Compact { reservoir: 32 });
        assert_eq!(full.samples().len(), 1000);
        assert!(compact.samples().len() <= 32, "got {}", compact.samples().len());
        assert!(compact.samples().len() >= 8, "reservoir should stay reasonably full");
        // The summary is exact in both modes.
        assert_eq!(full.sample_summary(), compact.sample_summary());
        assert_eq!(compact.sample_summary().windows, 1000);
        assert_eq!(compact.sample_summary().total_bytes_received, 10_000);
        // Retained samples are a strided subset of the full series.
        for s in compact.samples() {
            assert_eq!(&full.samples()[s.window as usize], s);
        }
        assert_eq!(compact.samples()[0].window, 0, "window 0 always survives decimation");
    }

    /// Reference reservoir: push, and when that overfills the cap,
    /// double the stride and re-decimate. It retains the same windows
    /// as `record_sample`, but its `Vec` briefly holds `cap + 1`
    /// entries, which doubles the allocation.
    struct PushThenDecimate {
        kept: Vec<IwsSample>,
        stride: u64,
        cap: usize,
    }

    impl PushThenDecimate {
        fn record(&mut self, s: IwsSample) {
            if s.window.is_multiple_of(self.stride) {
                self.kept.push(s);
                if self.kept.len() > self.cap {
                    self.stride *= 2;
                    let stride = self.stride;
                    self.kept.retain(|x| x.window.is_multiple_of(stride));
                }
            }
        }
    }

    #[test]
    fn compact_reservoir_matches_push_then_decimate_within_its_cap() {
        let mut rng = ickpt_sim::SplitMix64::new(0x7E5E_2F01);
        for cap in [2, 3, 16, 100, 128] {
            for trial in 0..8 {
                let windows = rng.next_below(2_001);
                let flush = trial % 2 == 1;
                let mk = |sample_mode| {
                    WriteTracker::new(64, 64, TrackerConfig { sample_mode, ..cfg_1s() })
                };
                let mut full = mk(SampleMode::Full);
                let mut compact = mk(SampleMode::Compact { reservoir: cap });
                let mut reference = PushThenDecimate { kept: Vec::new(), stride: 1, cap };
                for w in 0..windows {
                    let r = PageRange::new(rng.next_below(60), 1 + rng.next_below(4));
                    for t in [&mut full, &mut compact] {
                        t.touch_range(r);
                        t.advance_to(SimTime::from_secs(w + 1));
                    }
                    reference.record(*full.samples().last().expect("one sample per window"));
                    assert_eq!(compact.samples(), reference.kept, "cap {cap}, window {w}");
                    assert!(compact.samples.capacity() <= cap, "cap {cap}, window {w}");
                }
                let end = SimTime::from_secs(windows) + SimDuration::from_millis(500);
                if flush {
                    full.touch_range(PageRange::new(0, 2));
                    compact.touch_range(PageRange::new(0, 2));
                }
                full.finish(end);
                compact.finish(end);
                assert_eq!(full.samples().len() as u64, windows + u64::from(flush));
                if flush {
                    reference.record(*full.samples().last().expect("the flush sample"));
                }
                assert_eq!(compact.samples(), reference.kept, "cap {cap}, flush");
                assert!(compact.samples.capacity() <= cap, "cap {cap}, flush");
                let (samples, ..) = compact.into_samples();
                assert_eq!(samples, reference.kept);
                assert_eq!(samples.capacity(), samples.len(), "handed over shrunk");
            }
        }
    }

    #[test]
    fn compact_mode_small_runs_keep_everything() {
        let mut t = WriteTracker::new(
            10,
            10,
            TrackerConfig { sample_mode: SampleMode::Compact { reservoir: 64 }, ..cfg_1s() },
        );
        t.touch_range(PageRange::new(0, 2));
        t.advance_to(SimTime::from_secs(3));
        assert_eq!(t.samples().len(), 3, "under the cap nothing is dropped");
        assert_eq!(t.sample_summary().windows, 3);
    }

    #[test]
    fn finish_flush_appends_partial_trace_slice() {
        let mut t = WriteTracker::new(50, 50, TrackerConfig { record_trace: true, ..cfg_1s() });
        t.touch_range(PageRange::new(0, 3));
        t.finish(SimTime::from_secs_f64(0.5));
        let trace = t.take_trace();
        assert_eq!(trace.slices.len(), 1);
        assert_eq!(trace.slices[0].end_time, SimTime::from_secs_f64(0.5));
        assert!(trace.slices[0].is_flush, "off the alarm grid");
        assert_eq!(trace.slices[0].dirty, vec![PageRange::new(0, 3)]);
        assert_eq!(t.samples()[0].iws_pages, 3);
    }
}
