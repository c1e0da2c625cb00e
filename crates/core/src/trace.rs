//! The write trace: record the instrumentation stream once at a fine
//! timeslice, then derive IWS samples for any coarser timeslice by
//! replaying it — the paper's "instrument once, analyze many" reading
//! of §6.1, where IWS/IB at a timeslice is a pure function of *which
//! pages are written when*.
//!
//! A [`RankTrace`] is the per-rank recording: for every fine timeslice
//! (the *trace resolution*) the coalesced dirty-page ranges at the
//! alarm, the ranges memory exclusion unmapped during the slice, the
//! footprint at the alarm, and the bytes received. Re-binning
//! ([`RankTrace::rebin_with_flush`]) derives the exact sample sequence
//! a direct run at any timeslice `k × resolution` would have produced,
//! by replaying the slices in order into an accumulator:
//!
//! ```text
//! acc := (acc \ unmapped_j) ∪ dirty_j        for each fine slice j
//! ```
//!
//! The subtract-then-union order is what makes mid-window memory
//! exclusion exact: a page touched in fine slice j₁ and unmapped in a
//! later slice j₂ of the same coarse window must not appear in that
//! window's IWS (§4.2 — "pages belonging to unmapped areas are not
//! taken into account"), and a page re-touched *after* an unmap in the
//! same slice is dirty again at the slice's end, so it is in `dirty_j`
//! and survives the union.
//!
//! Exactness holds because the characterization clock trajectory is
//! independent of the tracker when faults are free (`fault_cost = 0`,
//! no clock stretching — the standard configuration): the same touches
//! happen at the same virtual instants regardless of the timeslice, and
//! every coarse window boundary (a multiple of `k × resolution`) is
//! also a fine boundary. This is property-tested against the direct
//! simulation (the executable reference, as everywhere in this repo)
//! in `crates/bench/src/rebin_props.rs`.

use ickpt_mem::{DirtyBitmap, PageRange};
use ickpt_sim::{SimDuration, SimTime};

use crate::metrics::IwsSample;

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
    /// event order. Recorded regardless of their dirty state: memory
    /// exclusion must erase them from *earlier* slices' contributions
    /// when windows are widened.
    pub unmapped: Vec<PageRange>,
    /// Footprint at the alarm, in pages.
    pub footprint_pages: u64,
    /// Page faults taken during the slice.
    pub faults: u64,
    /// Message payload received during the slice.
    pub bytes_received: u64,
    /// True for the trailing partial slice the tracker's `finish`
    /// flush emits (its contents duplicate the final boundary residue,
    /// so replay skips it).
    pub is_flush: bool,
}

/// The fine-window state at one iteration boundary: everything the
/// tracker accumulated since the last fired alarm, as of the boundary
/// allreduce's completion. A direct run at a coarser timeslice that
/// stopped at this boundary would flush exactly the union of the fine
/// slices since its last coarse alarm plus this residue — which is how
/// [`RankTrace::rebin_with_flush`] reconstructs the trailing partial
/// sample bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryResidue {
    /// The boundary's completion instant (the stopping run's final
    /// time).
    pub at: SimTime,
    /// Dirty ranges accumulated since the last fired alarm.
    pub dirty: Vec<PageRange>,
    /// Ranges unmapped since the last fired alarm, in event order.
    pub unmapped: Vec<PageRange>,
    /// Bytes received since the last fired alarm (includes the
    /// boundary allreduce itself).
    pub bytes_received: u64,
    /// Footprint at the boundary, in pages.
    pub footprint_pages: u64,
}

/// The recorded write stream of one rank at one trace resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The fine timeslice the trace was recorded at.
    pub resolution: SimDuration,
    /// Address-space capacity (pages) — sizes re-bin accumulators.
    pub capacity_pages: u64,
    /// Slices in time order, ending at successive resolution
    /// multiples (plus at most one trailing partial flush slice).
    pub slices: Vec<TraceSlice>,
    /// Fine-window residues at each iteration boundary, in time order
    /// (recorded when the runner coordinates a boundary).
    pub residues: Vec<BoundaryResidue>,
}

impl RankTrace {
    /// Whether `timeslice` can be derived from this trace.
    pub(crate) fn supports(&self, timeslice: SimDuration) -> bool {
        !timeslice.is_zero() && timeslice.0.is_multiple_of(self.resolution.0)
    }

    /// Derive the IWS samples of a direct run at `timeslice` (a
    /// multiple of the resolution) that finished at `stop`: exactly
    /// the full windows with `end_time <= stop`. (A direct run also
    /// flushes one trailing partial window at its final instant; IB
    /// statistics ignore partial windows, and the flush is not
    /// derivable from coarser slices, so re-binned reports omit it.)
    ///
    /// `faults` in derived samples equals `iws_pages` — the first
    /// touch of a page in a window is exactly one fault there — which
    /// differs from the direct count only when a page is unmapped,
    /// re-mapped and re-touched within one window.
    #[cfg(test)]
    pub(crate) fn rebin(&self, timeslice: SimDuration, stop: SimTime) -> Vec<IwsSample> {
        let mut acc = DirtyBitmap::new(self.capacity_pages);
        self.replay(timeslice, stop, &mut acc).0
    }

    /// The full windows of a direct run at `timeslice` (a multiple of
    /// the resolution) that finished at `stop`, plus the trailing
    /// partial flush sample that run would emit. `stop` must be an
    /// iteration boundary with a recorded [`BoundaryResidue`]: the
    /// flush window's dirty set is the leftover replay accumulator
    /// (fine slices past the last coarse alarm) with the residue
    /// applied on top, and it is emitted under the same condition the
    /// tracker's `finish` uses (any dirty page or pending bytes).
    pub fn rebin_with_flush(&self, timeslice: SimDuration, stop: SimTime) -> Vec<IwsSample> {
        let residue = self
            .residues
            .binary_search_by(|r| r.at.cmp(&stop))
            .map(|i| &self.residues[i])
            .unwrap_or_else(|_| panic!("no boundary residue recorded at {stop}"));
        let mut acc = DirtyBitmap::new(self.capacity_pages);
        let (mut out, mut bytes) = self.replay(timeslice, stop, &mut acc);
        for &r in &residue.unmapped {
            acc.clear_range(r);
        }
        for &r in &residue.dirty {
            acc.set_range(r);
        }
        bytes += residue.bytes_received;
        let iws = acc.count();
        if iws > 0 || bytes > 0 {
            out.push(IwsSample {
                window: out.len() as u64,
                end_time: stop,
                iws_pages: iws,
                footprint_pages: residue.footprint_pages,
                faults: iws,
                bytes_received: bytes,
            });
        }
        out
    }

    /// Replay fine slices through `stop`, emitting a sample at every
    /// coarse boundary. Returns the samples plus the bytes accumulated
    /// past the last coarse boundary; `acc` is left holding the dirty
    /// set of that trailing partial stretch.
    fn replay<B: RebinSet>(
        &self,
        timeslice: SimDuration,
        stop: SimTime,
        acc: &mut B,
    ) -> (Vec<IwsSample>, u64) {
        assert!(
            self.supports(timeslice),
            "timeslice {timeslice} is not a multiple of the trace resolution {}",
            self.resolution
        );
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for slice in &self.slices {
            // The trace run's own flush slice duplicates its final
            // boundary residue; nothing after either of them.
            if slice.is_flush || slice.end_time > stop {
                break;
            }
            for &r in &slice.unmapped {
                acc.clear_range(r);
            }
            for &r in &slice.dirty {
                acc.set_range(r);
            }
            bytes += slice.bytes_received;
            if slice.end_time.0 % timeslice.0 == 0 {
                let iws = acc.count();
                out.push(IwsSample {
                    window: out.len() as u64,
                    end_time: slice.end_time,
                    iws_pages: iws,
                    footprint_pages: slice.footprint_pages,
                    faults: iws,
                    bytes_received: bytes,
                });
                acc.clear_all();
                bytes = 0;
            }
        }
        (out, bytes)
    }
}

/// The bitmap operations re-binning needs, so the hierarchical bitmap
/// and the tests' reference page set share one replay loop.
trait RebinSet {
    fn set_range(&mut self, r: PageRange);
    fn clear_range(&mut self, r: PageRange);
    fn count(&self) -> u64;
    fn clear_all(&mut self);
}

impl RebinSet for DirtyBitmap {
    fn set_range(&mut self, r: PageRange) {
        DirtyBitmap::set_range(self, r);
    }
    fn clear_range(&mut self, r: PageRange) {
        DirtyBitmap::clear_range(self, r);
    }
    fn count(&self) -> u64 {
        DirtyBitmap::count(self)
    }
    fn clear_all(&mut self) {
        DirtyBitmap::clear_all(self);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The reference accumulator: a plain ordered page set.
    impl RebinSet for BTreeSet<u64> {
        fn set_range(&mut self, r: PageRange) {
            self.extend(r.iter());
        }
        fn clear_range(&mut self, r: PageRange) {
            self.retain(|p| !r.contains(*p));
        }
        fn count(&self) -> u64 {
            self.len() as u64
        }
        fn clear_all(&mut self) {
            self.clear();
        }
    }

    /// [`RankTrace::rebin`] over the reference page set — the
    /// executable specification of the replay itself.
    fn rebin_reference(t: &RankTrace, timeslice: SimDuration, stop: SimTime) -> Vec<IwsSample> {
        t.replay(timeslice, stop, &mut BTreeSet::new()).0
    }

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn slice(end_s: u64, dirty: &[(u64, u64)], unmapped: &[(u64, u64)]) -> TraceSlice {
        TraceSlice {
            end_time: s(end_s),
            dirty: dirty.iter().map(|&(a, l)| PageRange::new(a, l)).collect(),
            unmapped: unmapped.iter().map(|&(a, l)| PageRange::new(a, l)).collect(),
            footprint_pages: 100,
            faults: dirty.iter().map(|&(_, l)| l).sum(),
            bytes_received: 10 * end_s,
            is_flush: false,
        }
    }

    fn trace(slices: Vec<TraceSlice>) -> RankTrace {
        RankTrace {
            resolution: SimDuration::from_secs(1),
            capacity_pages: 100,
            slices,
            residues: Vec::new(),
        }
    }

    #[test]
    fn identity_rebin_reproduces_fine_slices() {
        let t = trace(vec![slice(1, &[(0, 10)], &[]), slice(2, &[(5, 10)], &[])]);
        let samples = t.rebin(SimDuration::from_secs(1), s(2));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].iws_pages, 10);
        assert_eq!(samples[1].iws_pages, 10);
        assert_eq!(samples[0].bytes_received, 10);
        assert_eq!(samples[1].bytes_received, 20);
        assert_eq!(samples[1].window, 1);
    }

    #[test]
    fn widening_unions_overlapping_slices() {
        // Pages 0..10 and 5..15 overlap: the 2 s window holds 15, not 20.
        let t = trace(vec![slice(1, &[(0, 10)], &[]), slice(2, &[(5, 10)], &[])]);
        let samples = t.rebin(SimDuration::from_secs(2), s(2));
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].iws_pages, 15);
        assert_eq!(samples[0].bytes_received, 30, "bytes sum over the window");
        assert_eq!(samples[0].end_time, s(2));
    }

    #[test]
    fn mid_window_unmap_is_excluded() {
        // Touched in slice 1, unmapped in slice 2: a direct 2 s run
        // would never report these pages (§4.2 memory exclusion).
        let t = trace(vec![slice(1, &[(0, 10)], &[]), slice(2, &[], &[(0, 10)])]);
        let samples = t.rebin(SimDuration::from_secs(2), s(2));
        assert_eq!(samples[0].iws_pages, 0);
    }

    #[test]
    fn retouch_after_unmap_survives() {
        // Unmapped early in slice 2 but re-touched later in it: dirty
        // at the slice's alarm, so the union keeps it.
        let t = trace(vec![slice(1, &[(0, 10)], &[]), slice(2, &[(0, 4)], &[(0, 10)])]);
        let samples = t.rebin(SimDuration::from_secs(2), s(2));
        assert_eq!(samples[0].iws_pages, 4);
    }

    #[test]
    fn stop_truncates_and_partial_tail_is_dropped() {
        let mut slices =
            vec![slice(1, &[(0, 1)], &[]), slice(2, &[(1, 1)], &[]), slice(3, &[(2, 1)], &[])];
        // The trace run's own trailing flush slice.
        slices.push(TraceSlice {
            end_time: SimTime::from_secs_f64(3.5),
            dirty: vec![PageRange::new(50, 1)],
            unmapped: vec![],
            footprint_pages: 100,
            faults: 1,
            bytes_received: 7,
            is_flush: true,
        });
        let t = trace(slices);
        // stop = 2 s: only the first two slices participate.
        assert_eq!(t.rebin(SimDuration::from_secs(1), s(2)).len(), 2);
        // stop beyond everything: the partial tail still never binds.
        assert_eq!(t.rebin(SimDuration::from_secs(1), s(100)).len(), 3);
        // Widening to 2 s with stop 3 s: one full window (the window
        // ending at 4 s is incomplete and a direct run would not have
        // emitted it either).
        assert_eq!(t.rebin(SimDuration::from_secs(2), s(3)).len(), 1);
    }

    #[test]
    fn bitmap_and_reference_rebin_agree() {
        let t = trace(vec![
            slice(1, &[(0, 30), (40, 9)], &[]),
            slice(2, &[(20, 30)], &[(0, 5)]),
            slice(3, &[(0, 2)], &[(41, 3)]),
            slice(4, &[], &[]),
        ]);
        for ts in [1u64, 2, 4] {
            assert_eq!(
                t.rebin(SimDuration::from_secs(ts), s(4)),
                rebin_reference(&t, SimDuration::from_secs(ts), s(4)),
                "timeslice {ts}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn non_multiple_timeslice_panics() {
        let t = trace(vec![slice(1, &[], &[])]);
        t.rebin(SimDuration::from_millis(1500), s(1));
    }

    #[test]
    fn flush_reconstruction_unions_tail_slices_and_residue() {
        // 2 s windows, stopping at 3.25 s: one full window (0..2],
        // then a partial stretch made of the 3 s slice plus a residue
        // covering (3 s, 3.25 s].
        let mut t = trace(vec![
            slice(1, &[(0, 10)], &[]),
            slice(2, &[(5, 10)], &[]),
            slice(3, &[(20, 4)], &[]),
        ]);
        let at = SimTime::from_secs_f64(3.25);
        t.residues.push(BoundaryResidue {
            at,
            dirty: vec![PageRange::new(22, 4)], // overlaps the 3 s slice
            unmapped: vec![],
            bytes_received: 5,
            footprint_pages: 77,
        });
        let samples = t.rebin_with_flush(SimDuration::from_secs(2), at);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].iws_pages, 15);
        let flush = &samples[1];
        assert_eq!(flush.end_time, at);
        assert_eq!(flush.iws_pages, 6, "20..24 union 22..26");
        assert_eq!(flush.bytes_received, 30 + 5, "3 s slice bytes + residue bytes");
        assert_eq!(flush.footprint_pages, 77);
    }

    #[test]
    fn flush_with_empty_residue_and_clean_tail_is_omitted() {
        let mut t = trace(vec![slice(1, &[(0, 10)], &[])]);
        // Zero out the slice bytes so the window boundary leaves
        // nothing pending.
        t.slices[0].bytes_received = 0;
        let at = s(1);
        t.residues.push(BoundaryResidue {
            at,
            dirty: vec![],
            unmapped: vec![],
            bytes_received: 0,
            footprint_pages: 100,
        });
        let samples = t.rebin_with_flush(SimDuration::from_secs(1), at);
        assert_eq!(samples.len(), 1, "nothing pending: no flush sample, like finish()");
    }

    #[test]
    fn flush_residue_unmap_erases_tail_contribution() {
        let mut t = trace(vec![
            slice(1, &[(0, 10)], &[]),
            slice(2, &[(1, 2)], &[]),
            slice(3, &[(40, 6)], &[]),
        ]);
        let at = SimTime::from_secs_f64(3.5);
        t.residues.push(BoundaryResidue {
            at,
            dirty: vec![],
            unmapped: vec![PageRange::new(40, 6)],
            bytes_received: 0,
            footprint_pages: 94,
        });
        // 2 s windows: one full window (slices 1+2); the partial
        // tail's pages 40..46 were unmapped before the stop, so only
        // the tail's pending bytes keep the flush sample.
        let samples = t.rebin_with_flush(SimDuration::from_secs(2), at);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].iws_pages, 10);
        assert_eq!(samples[1].iws_pages, 0);
        assert_eq!(samples[1].bytes_received, 30, "3 s slice bytes");
    }
}
