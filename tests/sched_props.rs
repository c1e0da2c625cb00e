//! Scheduler and aggregation properties behind the 16k-rank engine:
//!
//! * The packed-key [`EventWheel`] pops in exactly the `(time, seq)`
//!   order of a tuple-keyed binary-heap model, under randomized
//!   schedules with interleaved pushes and pops (including pushes into
//!   the past, and times at and near `u64::MAX`, where a packing that
//!   truncates or mis-shifts the time half would show).
//! * Tree-reduction of rank reports is byte-identical to the flat fold
//!   at any fan-in arity.
//! * The event-driven cluster engine produces byte-identical rank
//!   reports at any worker count, across workloads with
//!   sends/receives, collectives and wavefront dependencies —
//!   including a script that parks a dozen unmatched sends in every
//!   rank's mailbox — at rank counts where every round of the advance
//!   phase really runs on the worker threads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ickpt::apps::codec::CodecError;
use ickpt::apps::step::Phase;
use ickpt::apps::{AccessPattern, AppModel, Step, WorkingSet, Workload};
use ickpt::cluster::{
    characterize, characterize_model, reduce_reports, CharacterizationConfig, ClusterAggregate,
    RankReport, ReportDetail, RunReport,
};
use ickpt::mem::{AddressSpace, LayoutBuilder, MemError, PageRange, PAGE_SIZE};
use ickpt::sim::{EventWheel, SimDuration, SimTime, SplitMix64};

// ---------------------------------------------------------------------
// Event wheel vs binary-heap reference
// ---------------------------------------------------------------------

/// Drive the wheel and a `BinaryHeap` through the same randomized
/// push/pop schedule starting at virtual time `start` and compare every
/// popped `(time, seq)` pair. Push times saturate at `u64::MAX`.
fn wheel_vs_heap(seed: u64, ops: usize, start: u64, horizon_ns: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut wheel: EventWheel<u64> = EventWheel::new();
    let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut base = start;
    for _ in 0..ops {
        match rng.next_below(3) {
            // Push twice as often as we pop so the queue stays busy.
            0 | 1 => {
                // Mostly forward, occasionally into the already-popped
                // past (a resolver waking a rank at its old clock).
                let t = if rng.next_below(8) == 0 {
                    SimTime(base.saturating_sub(rng.next_below(horizon_ns / 4)))
                } else {
                    SimTime(base.saturating_add(rng.next_below(horizon_ns)))
                };
                wheel.push(t, seq);
                heap.push(Reverse((t, seq)));
                seq += 1;
            }
            _ => {
                let got = wheel.pop();
                let want = heap.pop().map(|Reverse((t, s))| (t, s));
                assert_eq!(got, want, "seed {seed}: pop diverged after {seq} pushes");
                if let Some((t, _)) = got {
                    base = base.max(t.0);
                }
            }
        }
        assert_eq!(wheel.len(), heap.len(), "seed {seed}: length diverged");
    }
    // Drain both: the tail order must match too.
    while let Some(Reverse((t, s))) = heap.pop() {
        assert_eq!(wheel.pop(), Some((t, s)), "seed {seed}: drain diverged");
    }
    assert!(wheel.is_empty());
}

#[test]
fn event_wheel_matches_binary_heap_reference() {
    for seed in [1u64, 42, 0xDEAD, 0x1DC4_2004] {
        // Dense ties, round-scale spreads and far jumps.
        wheel_vs_heap(seed, 4000, 0, 1 << 10);
        wheel_vs_heap(seed, 4000, 0, 1 << 21);
        wheel_vs_heap(seed, 2000, 0, 1 << 34);
        // Every time >= 2^63 and about half the pushes tied at
        // `SimTime(u64::MAX)`: the top bit of the time half and the
        // seq half must both survive the packing.
        wheel_vs_heap(seed, 4000, u64::MAX - (1 << 20), 1 << 21);
    }
}

#[test]
fn event_wheel_fifo_on_time_ties() {
    let mut wheel: EventWheel<u64> = EventWheel::new();
    let t = SimTime(777);
    for i in 0..100u64 {
        wheel.push(t, i);
    }
    for i in 0..100u64 {
        assert_eq!(wheel.pop(), Some((t, i)), "insertion order must break ties");
    }
}

// ---------------------------------------------------------------------
// Tree-reduce vs flat fold
// ---------------------------------------------------------------------

fn small_characterization(
    nranks: usize,
    detail: ReportDetail,
    workers: Option<usize>,
) -> RunReport {
    let cfg = CharacterizationConfig {
        nranks,
        scale: 0.02,
        run_for: SimDuration::from_secs(30),
        epoch: Some(SimDuration::from_secs(5)),
        track_iterations: true,
        trace_ranks: 1,
        workers,
        detail,
        ..Default::default()
    };
    characterize(Workload::Sage100, &cfg)
}

#[test]
fn tree_reduce_matches_flat_merge_at_any_arity() {
    let report = small_characterization(9, ReportDetail::Full, Some(2));
    let mut flat = ClusterAggregate::default();
    for r in &report.ranks {
        flat.merge(&ClusterAggregate::from_rank(r));
    }
    for arity in [2, 3, 32, report.ranks.len(), 1000] {
        assert_eq!(
            reduce_reports(&report.ranks, arity),
            flat,
            "arity {arity} diverged from the flat fold"
        );
    }
    assert_eq!(flat.ranks, 9);
    assert!(flat.summary.windows > 0, "summaries must flow through the reduction");
}

// ---------------------------------------------------------------------
// Event engine: worker-count identity
// ---------------------------------------------------------------------

/// More ranks than the sparse engine's fan-out threshold (2048): every
/// full round advances on scoped worker threads and the wheel wraps.
const FANNED_OUT: usize = 2304;

/// Everything a characterization consumer can observe of a rank.
fn rank_key(r: &RankReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        (r.rank, &r.samples, &r.epoch_samples, &r.iteration_samples),
        (r.total_faults, r.overhead, r.started_at, r.final_time, r.iterations),
        (r.bytes_received, r.footprint_pages, r.excluded_pages, r.summary),
        &r.trace,
    )
}

fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.ranks.len(), b.ranks.len(), "{what}: rank count");
    for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(rank_key(ra), rank_key(rb), "{what}: rank {} diverged", ra.rank);
    }
}

#[test]
fn engine_reports_are_identical_at_any_worker_count() {
    // Sage: compute + allreduce. Sweep3d: wavefront sends/receives.
    // NasBt: the remaining collective mix. The small odd rank counts
    // exercise non-power-of-two trees (their rounds advance inline
    // whatever the worker count).
    for (workload, nranks, secs) in [
        (Workload::Sage100, FANNED_OUT, 10),
        (Workload::Sweep3d, FANNED_OUT, 10),
        (Workload::NasBt, FANNED_OUT, 10),
        (Workload::Sage100, 4, 30),
        (Workload::Sweep3d, 6, 30),
        (Workload::NasBt, 5, 30),
    ] {
        let run = |workers: usize| {
            let cfg = CharacterizationConfig {
                nranks,
                scale: 0.02,
                run_for: SimDuration::from_secs(secs),
                epoch: Some(SimDuration::from_secs(5)),
                track_iterations: true,
                trace_ranks: 1,
                workers: Some(workers),
                detail: if nranks > 64 { ReportDetail::compact() } else { ReportDetail::Full },
                ..Default::default()
            };
            characterize(workload, &cfg)
        };
        let one = run(1);
        assert!(one.ranks.iter().all(|r| r.iterations > 0), "{workload:?} must iterate");
        for workers in [2usize, 8] {
            let what = format!("{workload:?} x{nranks} @ {workers} workers");
            assert_reports_identical(&one, &run(workers), &what);
        }
    }
}

/// Every iteration posts `BURST` sends to each ring neighbour, tags
/// alternating, before its first receive, then receives tag 1 ahead
/// of tag 0: each mailbox holds `2 * BURST` unmatched messages when
/// matching starts, and most matches skip over earlier arrivals of
/// another pair. Sizes differ per message, so a match that broke
/// per-pair order would move clocks and byte counts.
struct BurstExchange {
    rank: usize,
    nranks: usize,
    heap: Option<PageRange>,
    iter: u64,
}

const BURST: u64 = 6;

impl AppModel for BurstExchange {
    fn name(&self) -> String {
        "burst-exchange".into()
    }

    fn init(&mut self, space: &mut dyn AddressSpace) -> Result<Phase, MemError> {
        let heap = space.heap_grow(64)?;
        self.heap = Some(heap);
        Ok(Phase { steps: vec![sweep(heap, SimDuration::from_millis(10))], ends_iteration: false })
    }

    fn next_phase(&mut self, _space: &mut dyn AddressSpace) -> Result<Phase, MemError> {
        let heap = self.heap.expect("init first");
        let right = (self.rank + 1) % self.nranks;
        let left = (self.rank + self.nranks - 1) % self.nranks;
        let mut steps = vec![sweep(PageRange::new(heap.start, 16), SimDuration::from_millis(50))];
        for i in 0..BURST {
            for to in [right, left] {
                let bytes = 4096 * (1 + i) + 64 * self.rank as u64 + self.iter;
                steps.push(Step::Send { to, tag: (i % 2) as u32, bytes });
            }
        }
        let mut slot = 0;
        for from in [left, right] {
            for tag in [1, 0] {
                for _ in 0..BURST / 2 {
                    let into = Some(PageRange::new(heap.start + 16 + slot, 2));
                    steps.push(Step::Recv { from, tag, into });
                    slot += 2;
                }
            }
        }
        self.iter += 1;
        Ok(Phase { steps, ends_iteration: true })
    }

    fn iterations_done(&self) -> u64 {
        self.iter
    }

    fn save_state(&self) -> Vec<u8> {
        self.iter.to_le_bytes().to_vec()
    }

    fn restore_state(&mut self, _state: &[u8]) -> Result<(), CodecError> {
        unreachable!("characterization never restores")
    }
}

fn sweep(pages: PageRange, duration: SimDuration) -> Step {
    let pattern = AccessPattern::Sweep {
        set: WorkingSet::new(vec![pages]),
        total_pages: pages.len,
        start_offset: 0,
    };
    Step::Compute { duration, pattern }
}

#[test]
fn deep_mailboxes_match_fifo_per_pair_at_any_worker_count() {
    let layout = LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(64 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build();
    let nranks = FANNED_OUT;
    let build = |rank: usize| -> Box<dyn AppModel> {
        Box::new(BurstExchange { rank, nranks, heap: None, iter: 0 })
    };
    let run = |workers: usize| {
        let cfg = CharacterizationConfig {
            nranks,
            run_for: SimDuration::from_millis(400),
            timeslice: SimDuration::from_millis(100),
            track_iterations: true,
            trace_ranks: 2,
            workers: Some(workers),
            detail: ReportDetail::compact(),
            ..Default::default()
        };
        characterize_model(&cfg, layout, build)
    };
    let one = run(1);
    let iterations = one.ranks[0].iterations;
    assert!(iterations >= 4, "the script must actually iterate");
    // Every message sent to a rank was matched exactly once: the burst
    // sizes of its two ring neighbours over every iteration, plus the
    // (small) boundary allreduces.
    let burst_bytes = |from: usize| -> u64 {
        (0..iterations)
            .flat_map(|iter| (0..BURST).map(move |i| 4096 * (1 + i) + 64 * from as u64 + iter))
            .sum()
    };
    let r5 = &one.ranks[5];
    let p2p = burst_bytes(4) + burst_bytes(6);
    assert!(
        r5.bytes_received > p2p && r5.bytes_received - p2p < p2p / 100,
        "rank 5 received {} bytes, its neighbours sent {p2p}",
        r5.bytes_received
    );
    for workers in [2usize, 8] {
        assert_reports_identical(&one, &run(workers), &format!("burst @ {workers} workers"));
    }
}

// ---------------------------------------------------------------------
// Compact report detail
// ---------------------------------------------------------------------

#[test]
fn compact_detail_keeps_exact_summaries_and_full_rank0() {
    let full = small_characterization(8, ReportDetail::Full, Some(4));
    let compact = small_characterization(8, ReportDetail::Compact { reservoir: 16 }, Some(4));
    for (f, c) in full.ranks.iter().zip(&compact.ranks) {
        // The integer roll-up is exact in both modes.
        assert_eq!(f.summary, c.summary, "rank {} summary", f.rank);
        assert_eq!(f.final_time, c.final_time);
        assert_eq!(f.total_faults, c.total_faults);
        assert_eq!(f.bytes_received, c.bytes_received);
        if f.rank == 0 {
            // Rank 0 feeds the figure pipelines: full detail always.
            assert_eq!(f.samples, c.samples, "rank 0 keeps its full series");
        } else {
            assert!(
                c.samples.len() <= 16,
                "rank {}: reservoir exceeded: {}",
                c.rank,
                c.samples.len()
            );
        }
    }
    // Tree-reducing either run gives the same cluster aggregate.
    assert_eq!(
        reduce_reports(&full.ranks, 32),
        reduce_reports(&compact.ranks, 32),
        "aggregation is detail-independent"
    );
}
