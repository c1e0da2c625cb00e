//! What one rank holds while the engine runs it.
//!
//! A rank's phase script is one kernel of its application, never a whole
//! burst: Sage-1000 at 4096 ranks has 28 kernels × 12 exchange rounds per
//! burst, and holding all of them on every rank at once was most of a
//! large characterization's heap. Two guards:
//!
//! * every catalog code at 16 384 ranks emits phases of at most
//!   `2 + 2·|neighbours|·rounds` steps (a workspace sweep, a compute
//!   step and one kernel's exchanges, or the two-step tail);
//! * a 1024-rank Sage characterization stays under a bound on peak live
//!   heap and on allocations per rank, counted by this file's allocator
//!   on the test's own thread (one engine worker runs inline, and every
//!   rank is built on the calling thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ickpt::apps::phased::{neighbors, CommSpec};
use ickpt::apps::{AppModel, Workload};
use ickpt::cluster::{characterize, CharacterizationConfig, ReportDetail};
use ickpt::mem::SparseSpace;
use ickpt::sim::SimDuration;

/// Counts this thread's live bytes, their high-water mark and its
/// allocation calls, so other tests' threads cannot disturb a bound.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-local `Cell`s without destructors, so touching
// them from inside the allocator neither allocates nor recurses.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.with(|b| {
            b.set(b.get() + layout.size());
            b.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Memory allocated on another thread may be freed here.
        LIVE.with(|b| b.set(b.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // A growing or shrinking `Vec` resizes in place where it can: count
    // only the size delta, never the old and new buffers live at once.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let live = LIVE.with(|b| {
            b.set((b.get() + new_size).saturating_sub(layout.size()));
            b.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn no_phase_holds_more_than_one_kernel() {
    let nranks = 16_384;
    let scale = 0.05;
    for w in Workload::ALL {
        for rank in [0, 5_000, nranks - 1] {
            let mut app = w.build(rank, nranks, scale, 1);
            let bound = match app.config().comm {
                CommSpec::Neighbors { shape, rounds, .. } => {
                    2 + 2 * neighbors(rank, nranks, shape).len() * rounds as usize
                }
                _ => 2,
            };
            let mut space = SparseSpace::new(w.layout(scale));
            app.init(&mut space).unwrap();
            while app.iterations_done() < 2 {
                let phase = app.next_phase(&mut space).unwrap();
                assert!(
                    phase.steps.len() <= bound,
                    "{} rank {rank}: a phase of {} steps, bound {bound}",
                    w.name(),
                    phase.steps.len()
                );
            }
        }
    }
}

#[test]
fn a_rank_costs_a_bounded_heap() {
    let nranks = 1024;
    let cfg = CharacterizationConfig {
        nranks,
        scale: 0.1,
        run_for: SimDuration::from_secs(120),
        detail: ReportDetail::compact(),
        workers: Some(1),
        ..Default::default()
    };
    let live0 = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live0));
    let allocs0 = ALLOCS.with(Cell::get);
    let report = characterize(Workload::Sage1000, &cfg);
    let peak = (PEAK.with(Cell::get) - live0) / nranks;
    let allocs = (ALLOCS.with(Cell::get) - allocs0) / nranks as u64;
    assert_eq!(report.ranks.len(), nranks);
    // Measured with the sample reservoir reserved at its 128-entry cap
    // when the rank is built, and handed to the report instead of
    // copied: 16 349 B and 231 allocations per rank, the peak now in
    // the first round (reservoir, bitmaps and the largest kernel script
    // live at once). Before, the reservoir doubled to 256 entries on
    // its 129th window and the report copied it: 19 972 B and 237, the
    // peak at the end of the run (same with or without `realloc`
    // forwarded). With a whole burst as one phase (and a fresh outbox
    // per round) it was 100 607 B and 550. Bounds: measured + 10 %.
    assert!(peak <= 17_984, "peak live heap {peak} B per rank");
    assert!(allocs <= 254, "{allocs} allocations per rank");
}
