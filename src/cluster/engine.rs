//! Event-driven characterization engine: thousands of ranks on a
//! fixed worker pool.
//!
//! The reference path in [`super::characterize_model_threaded`] runs
//! one OS thread per rank; at 16k ranks that drowns the host scheduler.
//! This engine keeps every rank as an explicit state machine
//! ([`RankSm`]) stepped by at most `workers` threads, scheduled through
//! the calendar-queue [`EventWheel`].
//!
//! ## Determinism at any worker count
//!
//! The main loop alternates two phases:
//!
//! 1. **Advance** (parallel): every runnable rank executes on purely
//!    rank-local state until it blocks on a receive or a collective.
//!    Sends accumulate in a rank-local outbox; nothing cross-rank is
//!    touched, so the host interleaving cannot matter.
//! 2. **Resolve** (serial, in wheel order): outboxes are delivered to
//!    receiver queues and collective entries are folded, in the
//!    deterministic `(time, seq)` order the wheel popped the batch.
//!
//! Each rank keeps delivered-but-unmatched sends in one flat
//! [`Mailbox`]; a receive takes the first message from its
//! `(src, tag)`. Per-`(src, tag)` message order therefore equals sender
//! program order — the order of different pairs is never observed, a
//! receive names its pair — and all collective folds use the
//! commutative/associative [`Combine`] operators, so the run is
//! byte-identical to the threaded reference: the matching rule is
//! the very [`Mailbox`] [`Endpoint`](ickpt_net::comm::Endpoint) uses,
//! and the cost formulas are shared through the pure [`NetConfig`]
//! helpers.
//!
//! A blocked rank consumes no worker until the resolver wakes it:
//! receive wakes on matching delivery, collectives wake when the last
//! participant joins the round. Rendezvous semantics guarantee at most
//! one collective round is open at a time (no rank can run ahead into
//! a second collective while any rank still blocks on the first), so a
//! single round accumulator suffices.

use std::sync::Mutex;

use ickpt_apps::step::{AppModel, Step};
use ickpt_core::checkpoint::ContentStats;
use ickpt_core::coordinator::VoteFlags;
use ickpt_core::tracked_space::TrackedSpace;
use ickpt_core::tracker::WriteTracker;
use ickpt_mem::{pages_for_bytes, AddressSpace, DataLayout, PageRange, SparseSpace};
use ickpt_net::{Mailbox, Msg, NetConfig, NetError};
use ickpt_obs::{Event, Lane, Recorder};
use ickpt_sim::rendezvous::Combine;
use ickpt_sim::{BandwidthDevice, EventWheel, SimDuration, SimTime};

use super::{
    summarize_obs, BoundaryRecord, CharacterizationConfig, RankReport, RunError, RunOutcome,
    RunReport,
};

/// Below this batch size the scoped-thread fan-out costs more than it
/// saves; advance inline instead.
///
/// Measured break-even (2 vCPU, 2 workers, Sage scale 0.1, every
/// round holding all ranks at ~1.1 µs per visit): a round's advance
/// phase inline vs fanned out takes 48 vs 92 µs at 64 ranks, 218 vs
/// 345 µs at 256, 475 vs 716 µs at 512; whole runs are a wash at
/// 1024–2048 ranks (0.70–0.82 s vs 0.65–0.77 s at 2048) and 1.4×
/// faster fanned out at 4096 (1.82–2.18 s vs 1.25–1.41 s). A
/// fanned-out round pays ~260 µs of spawn, join and cold stacks, which
/// it earns back from about 2000 visits up; a few hundred rounds per
/// run bound that at ~0.1 s, so no persistent pool is kept.
const PAR_BATCH_MIN: usize = 2048;

/// The engine worker-count environment knob.
const WORKERS_ENV: &str = "ICKPT_SIM_WORKERS";

/// Parse an `ICKPT_SIM_WORKERS` value (`0` means 1, like an explicit
/// `Some(0)`). Pure so strictness is unit-testable without spawning a
/// process.
fn parse_workers(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(w) => Ok(w.max(1)),
        Err(_) => Err(format!("{WORKERS_ENV}={raw:?} is invalid: expected a worker count")),
    }
}

// The one sanctioned stderr write in this crate: a malformed env knob
// must abort loudly before a run starts half-configured, exactly like
// ICKPT_KERNELS and ICKPT_METRICS (exit status 2 with a message).
/// Resolve the worker count: explicit config, then the
/// `ICKPT_SIM_WORKERS` environment knob (malformed exits 2), then host
/// parallelism.
#[allow(clippy::disallowed_macros)]
pub(crate) fn resolve_workers(explicit: Option<usize>) -> usize {
    if let Some(w) = explicit {
        return w.max(1);
    }
    match std::env::var(WORKERS_ENV) {
        Ok(raw) => parse_workers(&raw).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// The collective a rank is blocked in, with the rank-local context
/// needed to finish the operation once the round completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollOp {
    Barrier,
    Allreduce {
        bytes: u64,
    },
    AllToAll {
        bytes_per_pair: u64,
        into: Option<PageRange>,
        version: u64,
    },
    /// The iteration-boundary vote allreduce (16 bytes, OR-combined).
    Vote {
        votes: u64,
        pre: SimTime,
        iterations: u64,
    },
}

impl CollOp {
    /// Round signature: every participant of one round must enter the
    /// same collective with the same payload size.
    fn sig(&self) -> (u8, u64) {
        match self {
            CollOp::Barrier => (0, 0),
            CollOp::Allreduce { bytes } => (1, *bytes),
            CollOp::AllToAll { bytes_per_pair, .. } => (2, *bytes_per_pair),
            CollOp::Vote { .. } => (3, 16),
        }
    }

    fn combine(&self) -> Combine {
        match self {
            CollOp::Vote { .. } => Combine::Or,
            _ => Combine::Max,
        }
    }

    fn contribution(&self) -> u64 {
        match self {
            CollOp::Vote { votes, .. } => *votes,
            _ => 0,
        }
    }
}

/// Why a rank yielded its worker.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// Runnable: executing steps or phase transitions.
    Running,
    /// Waiting on a matching message.
    Recv { from: usize, tag: u32, into: Option<PageRange>, version: u64 },
    /// Waiting for a collective round to complete.
    Coll(CollOp),
    /// Finished (or failed; see `error`).
    Done,
}

/// Result of a completed collective round, handed to every blocked
/// participant.
#[derive(Debug, Clone, Copy)]
struct RoundResult {
    /// Entry time of the last participant.
    time: SimTime,
    /// Combined value.
    value: u64,
}

/// The open collective round: rendezvous semantics admit at most one.
struct Round {
    joined: usize,
    max_time: SimTime,
    value: u64,
    sig: (u8, u64),
}

fn join_round(round: &mut Option<Round>, op: CollOp, entered: SimTime) {
    let sig = op.sig();
    let combine = op.combine();
    let contrib = op.contribution();
    match round {
        None => {
            *round = Some(Round {
                joined: 1,
                max_time: entered,
                value: combine.apply(combine.identity(), contrib),
                sig,
            });
        }
        Some(rd) => {
            assert_eq!(
                rd.sig, sig,
                "collective mismatch: ranks entered different collectives in one round"
            );
            rd.joined += 1;
            rd.max_time = rd.max_time.max(entered);
            rd.value = combine.apply(rd.value, contrib);
        }
    }
}

/// Where the rank is in its phase script.
enum PhaseState {
    /// `model.init` not yet consumed.
    NeedInit,
    /// Executing a phase from `model.next_phase` (or init, which never
    /// ends an iteration).
    Loaded { ends_iteration: bool },
}

/// Shared read-only run parameters.
struct EngineCtx<'a> {
    net: &'a NetConfig,
    nranks: usize,
    run_for: SimDuration,
    max_iterations: Option<u64>,
    stretch_overhead: bool,
    obs: &'a Recorder,
}

/// One rank as an event-driven state machine. All fields are
/// rank-local; the resolver alone moves data between machines.
struct RankSm {
    rank: usize,
    space: SparseSpace,
    tracker: WriteTracker,
    model: Box<dyn AppModel>,
    clock: SimTime,
    started_at: SimTime,
    nic: BandwidthDevice,
    steps: Vec<Step>,
    step_idx: usize,
    version: u64,
    phase: PhaseState,
    /// Delivered sends no receive has matched yet.
    pending: Mailbox,
    outbox: Vec<(usize, Msg)>,
    bytes_received: u64,
    blocked: Blocked,
    completion: Option<RoundResult>,
    boundaries: Vec<BoundaryRecord>,
    /// Keep only the latest boundary record (compact report detail).
    compact_boundaries: bool,
    /// Whether this rank is scheduled (or queued to be) in the wheel.
    in_wheel: bool,
    error: Option<RunError>,
}

impl RankSm {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: usize,
        space: SparseSpace,
        tracker: WriteTracker,
        model: Box<dyn AppModel>,
        nic: BandwidthDevice,
        compact_boundaries: bool,
    ) -> Self {
        Self {
            rank,
            space,
            tracker,
            model,
            clock: SimTime::ZERO,
            started_at: SimTime::ZERO,
            nic,
            steps: Vec::new(),
            step_idx: 0,
            version: 0,
            phase: PhaseState::NeedInit,
            pending: Mailbox::new(),
            outbox: Vec::new(),
            bytes_received: 0,
            blocked: Blocked::Running,
            completion: None,
            boundaries: Vec::new(),
            compact_boundaries,
            in_wheel: false,
            error: None,
        }
    }

    /// Run until the rank blocks (or finishes). Touches only rank-local
    /// state: safe to call from any worker thread.
    fn advance(&mut self, ctx: &EngineCtx<'_>) {
        if let Err(e) = self.advance_inner(ctx) {
            self.error = Some(e);
            self.blocked = Blocked::Done;
        }
    }

    fn advance_inner(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        loop {
            match self.blocked {
                Blocked::Done => return Ok(()),
                Blocked::Coll(op) => {
                    let Some(res) = self.completion.take() else { return Ok(()) };
                    self.blocked = Blocked::Running;
                    self.complete_coll(op, res, ctx)?;
                }
                Blocked::Recv { from, tag, into, version } => {
                    let Some(msg) = self.pending.take(from, tag) else { return Ok(()) };
                    self.blocked = Blocked::Running;
                    self.complete_recv(msg, into, version, ctx)?;
                }
                Blocked::Running => self.step(ctx)?,
            }
        }
    }

    /// Execute one step, or transition phases when the script ran out.
    fn step(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        if self.step_idx >= self.steps.len() {
            return match self.phase {
                PhaseState::NeedInit => self.load_init(),
                PhaseState::Loaded { ends_iteration: false } => self.load_next_phase(),
                PhaseState::Loaded { ends_iteration: true } => {
                    self.begin_boundary(ctx);
                    Ok(())
                }
            };
        }
        let steps = std::mem::take(&mut self.steps);
        let res = self.exec_step(&steps[self.step_idx], ctx);
        self.steps = steps;
        self.step_idx += 1;
        res
    }

    fn load_init(&mut self) -> Result<(), RunError> {
        let phase = {
            let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
            self.model.init(&mut ts)?
        };
        self.version = self.model.iterations_done() + 1;
        self.steps = phase.steps;
        self.step_idx = 0;
        // run_init never coordinates an iteration boundary, matching
        // the threaded reference.
        self.phase = PhaseState::Loaded { ends_iteration: false };
        Ok(())
    }

    fn load_next_phase(&mut self) -> Result<(), RunError> {
        let phase = {
            let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
            self.model.next_phase(&mut ts)?
        };
        self.version = self.model.iterations_done() + 1;
        self.steps = phase.steps;
        self.step_idx = 0;
        self.phase = PhaseState::Loaded { ends_iteration: phase.ends_iteration };
        Ok(())
    }

    /// First half of the iteration boundary: compute the local vote and
    /// enter the boundary allreduce. The second half runs in
    /// `complete_coll` when the round closes.
    fn begin_boundary(&mut self, ctx: &EngineCtx<'_>) {
        let pre = self.clock;
        self.tracker.mark_iteration(self.clock);
        let iterations = self.model.iterations_done();
        let mut votes = VoteFlags::none();
        let past_time = self.clock.saturating_sub(SimTime::ZERO) >= ctx.run_for;
        let past_iters = ctx.max_iterations.is_some_and(|m| iterations >= m);
        if past_time || past_iters {
            votes = votes.with(VoteFlags::STOP);
        }
        self.blocked = Blocked::Coll(CollOp::Vote { votes: votes.0, pre, iterations });
    }

    fn exec_step(&mut self, step: &Step, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        let version = self.version;
        match step {
            Step::Compute { duration, pattern } => {
                let start = self.clock;
                let end = start + *duration;
                let dur_s = duration.as_secs_f64();
                let mut cursor = start;
                let mut faults = 0u64;
                if duration.is_zero() {
                    self.tracker.advance_to(start);
                    let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
                    for r in pattern.slice(0.0, 1.0) {
                        faults += ts.touch(r, version);
                    }
                } else {
                    while cursor < end {
                        self.tracker.advance_to(cursor);
                        let seg_end = end.min(self.tracker.next_alarm_time());
                        let f0 = (cursor - start).as_secs_f64() / dur_s;
                        let f1 = (seg_end - start).as_secs_f64() / dur_s;
                        let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
                        for r in pattern.slice(f0.min(1.0), f1.min(1.0)) {
                            faults += ts.touch(r, version);
                        }
                        cursor = seg_end;
                    }
                }
                self.clock = end;
                if ctx.stretch_overhead {
                    self.clock += self.tracker.fault_cost(faults);
                }
            }
            Step::Send { to, tag, bytes } => {
                let handoff = ctx.net.send_handoff_time(self.clock, *bytes);
                let arrival = self.nic.transfer(self.clock, *bytes);
                self.outbox.push((*to, Msg { src: self.rank, tag: *tag, bytes: *bytes, arrival }));
                self.clock = handoff;
            }
            Step::Recv { from, tag, into } => {
                self.blocked = Blocked::Recv { from: *from, tag: *tag, into: *into, version };
            }
            Step::Barrier => {
                self.blocked = Blocked::Coll(CollOp::Barrier);
            }
            Step::Allreduce { bytes } => {
                self.blocked = Blocked::Coll(CollOp::Allreduce { bytes: *bytes });
            }
            Step::AllToAll { bytes_per_pair, into } => {
                self.blocked = Blocked::Coll(CollOp::AllToAll {
                    bytes_per_pair: *bytes_per_pair,
                    into: *into,
                    version,
                });
            }
        }
        Ok(())
    }

    /// Consume a matched message: same math as `Endpoint::recv` +
    /// the threaded runner's `Step::Recv` arm.
    fn complete_recv(
        &mut self,
        msg: Msg,
        into: Option<PageRange>,
        version: u64,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        self.clock = ctx.net.recv_complete_time(self.clock, msg.arrival, msg.bytes);
        self.bytes_received += msg.bytes;
        self.tracker.advance_to(self.clock);
        self.tracker.note_received(msg.bytes);
        if let Some(dst) = into {
            let pages = pages_for_bytes(msg.bytes).min(dst.len).max(1);
            let r = PageRange::new(dst.start, pages);
            let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
            ts.touch(r, version);
        }
        Ok(())
    }

    /// Finish a collective whose round closed at `res.time`: same math
    /// as the `Endpoint` collective plus the threaded runner's arm.
    fn complete_coll(
        &mut self,
        op: CollOp,
        res: RoundResult,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        match op {
            CollOp::Barrier => {
                self.clock = ctx.net.barrier_complete_time(res.time, ctx.nranks);
                self.tracker.advance_to(self.clock);
            }
            CollOp::Allreduce { bytes } => {
                let recv = NetConfig::allreduce_recv_bytes(ctx.nranks, bytes);
                self.bytes_received += recv;
                self.clock = ctx.net.allreduce_complete_time(res.time, ctx.nranks, bytes);
                self.tracker.advance_to(self.clock);
                self.tracker.note_received(recv);
            }
            CollOp::AllToAll { bytes_per_pair, into, version } => {
                let vol = NetConfig::alltoall_volume(ctx.nranks, bytes_per_pair);
                self.bytes_received += vol;
                self.clock = ctx.net.alltoall_complete_time(res.time, ctx.nranks, bytes_per_pair);
                self.tracker.advance_to(self.clock);
                self.tracker.note_received(vol);
                if let Some(dst) = into {
                    let pages = pages_for_bytes(vol).min(dst.len).max(1);
                    let r = PageRange::new(dst.start, pages);
                    let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
                    ts.touch(r, version);
                }
            }
            CollOp::Vote { pre, iterations, .. } => {
                let recv = NetConfig::allreduce_recv_bytes(ctx.nranks, 16);
                self.bytes_received += recv;
                self.clock = ctx.net.allreduce_complete_time(res.time, ctx.nranks, 16);
                self.tracker.advance_to(self.clock);
                self.tracker.note_received(recv);
                self.tracker.snapshot_residue(self.clock);
                if self.compact_boundaries {
                    self.boundaries.clear();
                }
                self.boundaries.push(BoundaryRecord {
                    pre,
                    post: self.clock,
                    footprint_pages: self.tracker.footprint_pages(),
                    total_faults: self.tracker.total_faults(),
                    overhead: self.tracker.overhead(),
                    bytes_received: self.bytes_received,
                });
                ctx.obs.emit(
                    Lane::Rank(self.rank as u32),
                    self.clock,
                    Event::IterationBoundary { iteration: iterations },
                );
                let global = VoteFlags(res.value);
                debug_assert!(!global.has(VoteFlags::FAIL), "engine runs are failure-free");
                if global.has(VoteFlags::STOP) {
                    self.tracker.finish(self.clock);
                    self.blocked = Blocked::Done;
                } else {
                    self.load_next_phase()?;
                }
            }
        }
        Ok(())
    }

    fn into_report(mut self) -> RankReport {
        let trace = self.tracker.records_trace().then(|| self.tracker.take_trace());
        RankReport {
            rank: self.rank,
            samples: self.tracker.samples().to_vec(),
            epoch_samples: self.tracker.epoch_samples().to_vec(),
            iteration_samples: self.tracker.iteration_samples().to_vec(),
            total_faults: self.tracker.total_faults(),
            overhead: self.tracker.overhead(),
            started_at: self.started_at,
            final_time: self.clock,
            iterations: self.model.iterations_done(),
            bytes_received: self.bytes_received,
            footprint_pages: self.tracker.footprint_pages(),
            content_digest: None,
            checkpoint_bytes: 0,
            checkpoints: 0,
            checkpoint_stall: SimDuration::ZERO,
            commit_lag: SimDuration::ZERO,
            excluded_pages: self.tracker.excluded_pages(),
            content: ContentStats::default(),
            last_committed: None,
            summary: *self.tracker.sample_summary(),
            boundaries: self.boundaries,
            trace,
            tier: None,
        }
    }
}

/// Event-driven characterization: byte-identical results to
/// [`super::characterize_model_threaded`] at any worker count.
pub(crate) fn characterize_event<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: &F,
) -> RunReport
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    let nranks = cfg.nranks;
    assert!(nranks > 0, "characterization needs at least one rank");
    let workers = resolve_workers(cfg.workers);
    cfg.obs.emit(Lane::Run, SimTime::ZERO, Event::RunStart { ranks: nranks as u32 });
    let ctx = EngineCtx {
        net: &cfg.net,
        nranks,
        run_for: cfg.run_for,
        max_iterations: None,
        stretch_overhead: cfg.stretch_overhead,
        obs: &cfg.obs,
    };
    let mut sms = build_ranks(cfg, layout, build, workers);

    let mut wheel: EventWheel<usize> = EventWheel::new();
    for (r, m) in sms.iter_mut().enumerate() {
        m.get_mut().expect("lock poisoned").in_wheel = true;
        wheel.push(SimTime::ZERO, r);
    }
    let mut round: Option<Round> = None;
    let mut batch: Vec<usize> = Vec::with_capacity(nranks);
    let mut wake: Vec<(SimTime, usize)> = Vec::new();

    while !wheel.is_empty() {
        batch.clear();
        while let Some((_, r)) = wheel.pop() {
            batch.push(r);
        }

        // Advance phase: rank-local, order-independent.
        if workers > 1 && batch.len() >= PAR_BATCH_MIN {
            let chunk = batch.len().div_ceil(workers);
            let sms_ref = &sms;
            let ctx_ref = &ctx;
            std::thread::scope(|s| {
                for ch in batch.chunks(chunk) {
                    s.spawn(move || {
                        for &r in ch {
                            sms_ref[r].lock().expect("lock poisoned").advance(ctx_ref);
                        }
                    });
                }
            });
        } else {
            for &r in &batch {
                sms[r].get_mut().expect("lock poisoned").advance(&ctx);
            }
        }

        // Resolve phase: serial, in deterministic batch order.
        wake.clear();
        for &r in &batch {
            sms[r].get_mut().expect("lock poisoned").in_wheel = false;
        }
        for &r in &batch {
            let (outbox, join) = {
                let sm = sms[r].get_mut().expect("lock poisoned");
                if let Some(e) = sm.error.take() {
                    panic!("characterization run failed: {e}");
                }
                let join = match sm.blocked {
                    Blocked::Coll(op) => {
                        debug_assert!(sm.completion.is_none());
                        Some((op, sm.clock))
                    }
                    _ => None,
                };
                (std::mem::take(&mut sm.outbox), join)
            };
            for (dst, msg) in outbox {
                assert!(dst < nranks, "rank {r} sent to unknown rank {dst}");
                let d = sms[dst].get_mut().expect("lock poisoned");
                let wanted = matches!(
                    d.blocked,
                    Blocked::Recv { from, tag, .. } if from == msg.src && tag == msg.tag
                );
                d.pending.push(msg);
                if wanted && !d.in_wheel {
                    d.in_wheel = true;
                    wake.push((d.clock, dst));
                }
            }
            if let Some((op, entered)) = join {
                join_round(&mut round, op, entered);
            }
        }
        if round.as_ref().is_some_and(|rd| rd.joined == nranks) {
            let rd = round.take().expect("round present");
            for (r, m) in sms.iter_mut().enumerate() {
                let sm = m.get_mut().expect("lock poisoned");
                debug_assert!(matches!(sm.blocked, Blocked::Coll(_)));
                sm.completion = Some(RoundResult { time: rd.max_time, value: rd.value });
                if !sm.in_wheel {
                    sm.in_wheel = true;
                    wake.push((rd.max_time, r));
                }
            }
        }
        for &(t, r) in &wake {
            wheel.push(t, r);
        }
    }

    // The wheel drained: every rank must have finished, otherwise the
    // script deadlocked (a recv nobody sends, or a partial collective).
    for m in &mut sms {
        let sm = m.get_mut().expect("lock poisoned");
        match sm.blocked {
            Blocked::Done => {}
            Blocked::Recv { from, tag, .. } => {
                let e = RunError::Net(NetError::RecvTimeout { rank: sm.rank, from, tag });
                panic!("characterization run failed: {e}");
            }
            _ => panic!(
                "characterization run failed: rank {} stalled in a collective \
                 (mismatched script?)",
                sm.rank
            ),
        }
    }

    let ranks: Vec<RankReport> =
        sms.into_iter().map(|m| m.into_inner().expect("lock poisoned").into_report()).collect();
    RunReport {
        outcome: RunOutcome::Completed,
        ranks,
        attempts: 1,
        wasted: SimDuration::ZERO,
        recoveries: Vec::new(),
        drain: None,
        obs: summarize_obs(&cfg.obs),
    }
}

/// Construct all rank state machines, fanning the (allocation-heavy)
/// builds across the worker pool at high rank counts.
fn build_ranks<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: &F,
    workers: usize,
) -> Vec<Mutex<RankSm>>
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    let mk = |rank: usize| {
        let space = SparseSpace::new(layout);
        let tracker = WriteTracker::new(
            layout.capacity_pages(),
            space.mapped_pages(),
            cfg.tracker_config(rank),
        );
        let compact = !cfg.detail.rank_is_full(rank, cfg.trace_ranks);
        Mutex::new(RankSm::new(rank, space, tracker, build(rank), cfg.net.build_nic(), compact))
    };
    if workers <= 1 || cfg.nranks < 256 {
        return (0..cfg.nranks).map(mk).collect();
    }
    let chunk = cfg.nranks.div_ceil(workers);
    std::thread::scope(|s| {
        let mk = &mk;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(cfg.nranks);
                let hi = ((w + 1) * chunk).min(cfg.nranks);
                s.spawn(move || (lo..hi).map(mk).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("rank build panicked")).collect()
    })
}

// Tests for the engine live in `tests/` (cross-path byte-identity and
// scheduler property suites); unit coverage here sticks to the pieces
// with no cross-path oracle.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_explicit_wins() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1);
    }

    #[test]
    fn workers_knob_parses_strictly() {
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 16\n"), Ok(16));
        assert_eq!(parse_workers("0"), Ok(1), "0 clamps like an explicit Some(0)");
        for bad in ["", "many", "-1", "2.5", "4 workers", "0x4"] {
            let err = parse_workers(bad).expect_err(bad);
            assert!(err.contains(WORKERS_ENV) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn coll_signatures_distinguish_ops() {
        let a = CollOp::Allreduce { bytes: 64 };
        let b = CollOp::Allreduce { bytes: 128 };
        assert_ne!(a.sig(), b.sig());
        assert_ne!(CollOp::Barrier.sig(), a.sig());
        assert_eq!(
            CollOp::Vote { votes: 1, pre: SimTime::ZERO, iterations: 0 }.sig(),
            CollOp::Vote { votes: 9, pre: SimTime::ZERO, iterations: 4 }.sig(),
        );
    }

    #[test]
    fn round_folds_votes_with_or() {
        let mut round = None;
        let op = |v: u64| CollOp::Vote { votes: v, pre: SimTime::ZERO, iterations: 0 };
        join_round(&mut round, op(0b01), SimTime(5));
        join_round(&mut round, op(0b10), SimTime(3));
        let rd = round.unwrap();
        assert_eq!(rd.joined, 2);
        assert_eq!(rd.max_time, SimTime(5));
        assert_eq!(rd.value, 0b11);
    }
}
