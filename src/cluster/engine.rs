//! The event engine: every cluster run — characterization and
//! fault-tolerant — executes here, on a fixed worker pool.
//!
//! Each rank is an explicit state machine ([`RankSm`]) over its address
//! space ([`SparseSpace`] for characterization, [`BackedSpace`] for
//! fault-tolerant runs), stepped by at most `workers` threads and
//! scheduled through the [`EventWheel`] (FIFO on time ties). A blocked
//! rank consumes no worker, so the rank count is bounded by memory, not
//! by OS threads.
//!
//! ## Determinism at any worker count
//!
//! The main loop alternates two phases:
//!
//! 1. **Advance** (parallel): every runnable rank executes on purely
//!    rank-local state — page fill, tracker, capture, encode, restore,
//!    its own devices and stores — until it blocks. Sends accumulate
//!    in a rank-local outbox; nothing another rank can reach is
//!    touched, so the host interleaving cannot matter.
//! 2. **Resolve** (serial, in wheel order): outboxes are delivered to
//!    receiver mailboxes, collective entries are folded, and every
//!    operation on state two ranks can reach runs here, in the
//!    deterministic `(time, seq)` order the wheel popped the batch:
//!    the writes and rollback reads of a flat
//!    [`StoragePath::Shared`](super::StoragePath::Shared) array, the
//!    commit manifest, the tier commit notifications and the drain they
//!    kick. FCFS order on a shared device is therefore wheel order by
//!    construction.
//!
//! A rank blocks in one of four ways ([`Blocked`]): on a receive (woken
//! by the matching delivery), in a collective round (woken when the
//! last participant joins), waiting for its turn on a shared device
//! (served in the same resolve phase), or for good. Each rank keeps
//! delivered-but-unmatched sends in one flat [`Mailbox`]; a receive
//! takes the first message from its `(src, tag)`, so per-pair order is
//! sender program order — the order of different pairs is never
//! observed, a receive names its pair — and all collective folds use
//! the commutative/associative [`Combine`] operators.
//!
//! Collectives synchronize every rank, so at most one round is open at
//! a time (no rank can run ahead into a second collective while any
//! rank still blocks on the first) and a single round accumulator
//! suffices. When the wheel drains with a rank still blocked, the
//! script cannot complete: that is a typed [`NetError`], not a hang.
//!
//! The checkpoint, commit and restore states of a fault-tolerant rank
//! live in [`super::ft`]; this file is scheduling, messaging and the
//! one interpreter of [`Step`].

use std::sync::Mutex;

use ickpt_apps::step::{AppModel, Step};
use ickpt_core::checkpoint::ContentStats;
use ickpt_core::coordinator::VoteFlags;
use ickpt_core::tracked_space::{ContentWrite, TrackedSpace};
use ickpt_core::tracker::WriteTracker;
use ickpt_mem::{pages_for_bytes, AddressSpace, BackedSpace, DataLayout, PageRange, SparseSpace};
use ickpt_obs::{Event, Lane, Recorder};
use ickpt_sim::net::{Mailbox, Msg, NetConfig, NetError};
use ickpt_sim::{env, BandwidthDevice, Combine, EventWheel, SimDuration, SimTime};

use super::ft::{self, FtParams, FtRank};
use super::{CharacterizationConfig, RankReport, RunError, RunOutcome, RunReport};

/// An address space a rank can run over. The engine reads its
/// execution policy from the type: a content-backed space moves real
/// bytes on every touch, a sparse one only metadata.
pub(super) trait RankSpace: AddressSpace + ContentWrite + Send {
    /// Whether touches materialize page contents.
    const BACKED: bool;

    /// The space as a checkpointable image (fault-tolerant runs).
    fn backed(&mut self) -> Option<&mut BackedSpace> {
        None
    }
}

impl RankSpace for SparseSpace {
    const BACKED: bool = false;
}

impl RankSpace for BackedSpace {
    const BACKED: bool = true;

    fn backed(&mut self) -> Option<&mut BackedSpace> {
        Some(self)
    }
}

/// Below this batch size the scoped-thread fan-out of a *sparse* run
/// costs more than it saves; advance inline instead.
///
/// Measured break-even (2 vCPU, 2 workers, Sage scale 0.1, every
/// round holding all ranks at ~0.45 µs per visit): a round's advance
/// phase inline vs fanned out takes 0.17–0.23 vs 0.24 ms at 512 ranks,
/// 0.30–0.41 vs 0.36–0.38 ms at 1024, 0.70–0.84 vs 0.73–0.84 ms at
/// 2048 (a wash) and 1.73–2.16 vs 1.45–2.03 ms at 4096. A fanned-out
/// round also leaves its ranks cold in the resolving core's cache
/// (+0.03 s of resolve per run), so whole runs favour inline at 2048
/// (0.28–0.33 vs 0.31–0.37 s) and fanned out at 4096 (0.73–0.92 vs
/// 0.68–0.90 s). Visits cost ~1.1 µs when this was first measured and
/// the break-even was the same; a few hundred rounds per run bound the
/// spawn cost at ~0.1 s, so no persistent pool is kept.
const PAR_BATCH_MIN: usize = 2048;

/// Smallest batch that fans out over the workers. A content-backed
/// visit fills, captures or restores megabytes (milliseconds, not the
/// microsecond of a sparse visit), so any batch of two ranks is worth
/// a thread each: measured on the thread-per-rank path this replaced
/// (2 vCPU, `ft_cluster`, two runs each), a pass took 1.06 / 1.13 s
/// with two ranks executing at a time and 1.78 / 1.83 s with one.
fn par_batch_min<S: RankSpace>() -> usize {
    if S::BACKED {
        2
    } else {
        PAR_BATCH_MIN
    }
}

/// The engine worker-count environment knob.
const WORKERS_ENV: &str = "ICKPT_SIM_WORKERS";

/// Resolve the worker count: explicit config (0 means 1), then the
/// `ICKPT_SIM_WORKERS` count knob (malformed exits 2), then host
/// parallelism.
pub(super) fn resolve_workers(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| env::knob(WORKERS_ENV, env::count))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// The collective a rank is blocked in, with the rank-local context
/// needed to finish the operation once the round completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CollOp {
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
        iterations: u64,
    },
    /// Forked checkpoints: agree on the slowest background write
    /// (8-byte allreduce, Max-combined).
    Settle {
        write_done: SimTime,
    },
    /// Two-phase commit: gather every rank's payload size; closing the
    /// round writes the manifest and releases every rank at the commit
    /// barrier's instant ([`ft::close_commit`]).
    Commit {
        payload: u64,
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
            CollOp::Settle { .. } => (4, 8),
            CollOp::Commit { .. } => (5, 8),
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
            CollOp::Settle { write_done } => write_done.0,
            _ => 0,
        }
    }
}

/// Why a rank yielded its worker.
#[derive(Debug, Clone, Copy)]
pub(super) enum Blocked {
    /// Runnable: executing steps or phase transitions.
    Running,
    /// Waiting on a matching message.
    Recv { from: usize, tag: u32, into: Option<PageRange>, version: u64 },
    /// Waiting for a collective round to complete.
    Coll(CollOp),
    /// The rank's next storage operation charges a device other ranks
    /// can reach: the resolver performs it in batch order
    /// ([`RankSm::perform_io`]) and requeues the rank.
    Shared,
    /// Finished (or failed; see `error`).
    Done,
}

/// Result of a completed collective round, handed to every blocked
/// participant.
#[derive(Debug, Clone, Copy)]
pub(super) struct RoundResult {
    /// Entry time of the last participant (commit rounds: the instant
    /// the commit barrier releases).
    pub time: SimTime,
    /// Combined value.
    pub value: u64,
}

/// The open collective round: collectives synchronize every rank, so
/// there is at most one.
struct Round {
    joined: usize,
    max_time: SimTime,
    value: u64,
    sig: (u8, u64),
    /// Commit rounds: the gathered payload size of every rank.
    gathered: Vec<u64>,
}

fn join_round(
    round: &mut Option<Round>,
    rank: usize,
    nranks: usize,
    op: CollOp,
    entered: SimTime,
) -> Result<(), NetError> {
    let combine = op.combine();
    let rd = round.get_or_insert_with(|| Round {
        joined: 0,
        max_time: entered,
        value: combine.identity(),
        sig: op.sig(),
        gathered: Vec::new(),
    });
    if rd.sig != op.sig() {
        return Err(NetError::CollectiveMismatch { rank });
    }
    rd.joined += 1;
    rd.max_time = rd.max_time.max(entered);
    rd.value = combine.apply(rd.value, op.contribution());
    if let CollOp::Commit { payload } = op {
        rd.gathered.resize(nranks, 0);
        rd.gathered[rank] = payload;
    }
    Ok(())
}

/// Where the rank is in its phase script.
pub(super) enum PhaseState {
    /// `model.init` (or, after a failure, the rollback restore) not yet
    /// consumed.
    NeedInit,
    /// Executing a phase from `model.next_phase` (or init, which never
    /// ends an iteration).
    Loaded { ends_iteration: bool },
}

/// Why a rank's mutex can be poisoned: the panic is the bug to report.
pub(super) const POISON: &str = "a rank panicked while being advanced";

/// Shared read-only run parameters.
pub(super) struct EngineCtx<'a> {
    pub net: &'a NetConfig,
    pub nranks: usize,
    pub run_for: SimDuration,
    pub max_iterations: Option<u64>,
    pub stretch_overhead: bool,
    pub obs: &'a Recorder,
    /// Checkpointing parameters (fault-tolerant runs).
    pub ft: Option<&'a FtParams>,
}

impl EngineCtx<'_> {
    /// The checkpointing parameters a fault-tolerant rank runs under.
    pub(super) fn ft_params(&self) -> &FtParams {
        self.ft.expect("checkpoint states are only entered by fault-tolerant runs")
    }
}

/// One rank as an event-driven state machine. All fields are
/// rank-local; the resolver alone moves data between machines.
pub(super) struct RankSm<S> {
    pub(super) rank: usize,
    pub(super) space: S,
    pub(super) tracker: WriteTracker,
    pub(super) model: Box<dyn AppModel>,
    pub(super) clock: SimTime,
    pub(super) started_at: SimTime,
    nic: BandwidthDevice,
    steps: Vec<Step>,
    step_idx: usize,
    version: u64,
    pub(super) phase: PhaseState,
    /// Delivered sends no receive has matched yet.
    pub(super) pending: Mailbox,
    pub(super) outbox: Vec<(usize, Msg)>,
    pub(super) bytes_received: u64,
    pub(super) blocked: Blocked,
    completion: Option<RoundResult>,
    /// Whether this rank is scheduled (or queued to be) in the wheel.
    in_wheel: bool,
    error: Option<RunError>,
    /// Checkpoint, commit and restore state — everything only a
    /// fault-tolerant rank has, behind one pointer so the
    /// characterization machine does not carry it.
    pub(super) ft: Option<Box<FtRank>>,
}

impl<S: RankSpace> RankSm<S> {
    pub(super) fn new(
        rank: usize,
        space: S,
        tracker: WriteTracker,
        model: Box<dyn AppModel>,
        nic: BandwidthDevice,
        ft: Option<Box<FtRank>>,
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
            in_wheel: false,
            error: None,
            ft,
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
                    self.complete_recv(msg, into, version, ctx);
                }
                Blocked::Shared => {
                    if !self.io_done() {
                        return Ok(());
                    }
                    self.blocked = Blocked::Running;
                    self.finish_io(ctx)?;
                }
                Blocked::Running => self.step(ctx)?,
            }
        }
    }

    /// Execute one step, or transition phases when the script ran out.
    fn step(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        if self.step_idx >= self.steps.len() {
            return match self.phase {
                PhaseState::NeedInit if self.resumes() => self.begin_restore(ctx),
                PhaseState::NeedInit => self.load_init(),
                PhaseState::Loaded { ends_iteration: false } => self.load_next_phase(),
                PhaseState::Loaded { ends_iteration: true } => {
                    self.begin_boundary(ctx);
                    Ok(())
                }
            };
        }
        let steps = std::mem::take(&mut self.steps);
        self.exec_step(&steps[self.step_idx], ctx);
        self.steps = steps;
        self.step_idx += 1;
        Ok(())
    }

    fn load_init(&mut self) -> Result<(), RunError> {
        let phase = {
            let mut ts = TrackedSpace::new(&mut self.space, &mut self.tracker);
            self.model.init(&mut ts)?
        };
        self.version = self.model.iterations_done() + 1;
        self.steps = phase.steps;
        self.step_idx = 0;
        // Initialization never coordinates an iteration boundary.
        self.phase = PhaseState::Loaded { ends_iteration: false };
        Ok(())
    }

    pub(super) fn load_next_phase(&mut self) -> Result<(), RunError> {
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
    /// enter the boundary allreduce — STOP (run limit reached), FAIL
    /// (injected failure), CHECKPOINT (interval elapsed). The OR of the
    /// votes is the global decision, so the coordinated checkpoint
    /// costs no extra communication round (§6.2). The second half runs
    /// in `complete_coll` when the round closes.
    fn begin_boundary(&mut self, ctx: &EngineCtx<'_>) {
        self.tracker.mark_iteration(self.clock);
        let iterations = self.model.iterations_done();
        let mut votes = VoteFlags::none();
        let past_time = self.clock.saturating_sub(SimTime::ZERO) >= ctx.run_for;
        let past_iters = ctx.max_iterations.is_some_and(|m| iterations >= m);
        if past_time || past_iters {
            votes = votes.with(VoteFlags::STOP);
        }
        if let Some(ft) = &self.ft {
            votes = ft.vote(votes, self.clock);
        }
        self.blocked = Blocked::Coll(CollOp::Vote { votes: votes.0, iterations });
    }

    fn exec_step(&mut self, step: &Step, ctx: &EngineCtx<'_>) {
        let version = self.version;
        match step {
            Step::Compute { duration, pattern } => {
                // Sliced at timeslice boundaries so the tracker's alarm
                // sees exactly the pages a real run dirties per window.
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
                    // §6.5: fault handling slows the application down;
                    // stretch the clock by the handler cost.
                    self.clock += self.tracker.fault_cost(faults);
                }
            }
            Step::Send { to, tag, bytes } => {
                // Hand-off: copy into the NIC's buffer at memory
                // bandwidth. Wire: serialize on this rank's NIC, then
                // link latency; the sender does not wait for it.
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
    }

    /// Consume a matched message: the clock jumps to
    /// `max(local, arrival)` plus the bounce-buffer copy, which dirties
    /// the destination pages (§4.2).
    fn complete_recv(
        &mut self,
        msg: Msg,
        into: Option<PageRange>,
        version: u64,
        ctx: &EngineCtx<'_>,
    ) {
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
    }

    /// Finish a collective whose round closed at `res.time`.
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
            CollOp::Vote { iterations, .. } => {
                let recv = NetConfig::allreduce_recv_bytes(ctx.nranks, 16);
                self.bytes_received += recv;
                self.clock = ctx.net.allreduce_complete_time(res.time, ctx.nranks, 16);
                self.tracker.advance_to(self.clock);
                self.tracker.note_received(recv);
                ctx.obs.emit(
                    Lane::Rank(self.rank as u32),
                    self.clock,
                    Event::IterationBoundary { iteration: iterations },
                );
                let global = VoteFlags(res.value);
                if self.ft.is_some() {
                    self.checkpoint_boundary(global, ctx)?;
                } else {
                    debug_assert!(!global.has(VoteFlags::FAIL), "only checkpointed ranks fail");
                    self.end_boundary(global.has(VoteFlags::STOP))?;
                }
            }
            CollOp::Settle { .. } => self.settled(res, ctx)?,
            CollOp::Commit { .. } => self.committed(res, ctx)?,
        }
        Ok(())
    }

    /// Last step of an iteration boundary: stop, or run the next phase.
    pub(super) fn end_boundary(&mut self, stop: bool) -> Result<(), RunError> {
        if stop {
            self.finish();
            Ok(())
        } else {
            self.load_next_phase()
        }
    }

    /// The rank is done (run limit reached or global FAIL vote).
    pub(super) fn finish(&mut self) {
        self.tracker.finish(self.clock);
        let digest = self.space.backed().map(|s| s.content_digest());
        if let Some(ft) = &mut self.ft {
            ft.digest = digest;
        }
        self.blocked = Blocked::Done;
    }

    pub(super) fn into_report(mut self) -> (RankReport, Option<Box<FtRank>>) {
        let trace = self.tracker.records_trace().then(|| self.tracker.take_trace());
        let ft = self.ft.take();
        let ckpt = ft.as_deref();
        let mut report = RankReport {
            rank: self.rank,
            samples: Vec::new(),
            epoch_samples: Vec::new(),
            iteration_samples: Vec::new(),
            total_faults: self.tracker.total_faults(),
            overhead: self.tracker.overhead(),
            started_at: self.started_at,
            final_time: self.clock,
            iterations: self.model.iterations_done(),
            bytes_received: self.bytes_received,
            footprint_pages: self.tracker.footprint_pages(),
            content_digest: ckpt.and_then(|c| c.digest),
            checkpoint_bytes: ckpt.map_or(0, |c| c.bytes_written),
            checkpoints: ckpt.map_or(0, |c| c.count),
            checkpoint_stall: ckpt.map_or(SimDuration::ZERO, |c| c.stall),
            commit_lag: ckpt.map_or(SimDuration::ZERO, |c| c.commit_lag),
            excluded_pages: self.tracker.excluded_pages(),
            content: ckpt.map_or_else(ContentStats::default, |c| c.content),
            last_committed: ckpt.and_then(|c| c.planner.last_committed()),
            summary: *self.tracker.sample_summary(),
            trace,
            tier: None,
        };
        // The sample series move into the report; nothing is copied.
        (report.samples, report.epoch_samples, report.iteration_samples) =
            self.tracker.into_samples();
        (report, ft)
    }
}

/// Drive `sms` until every rank finished. Returns the first rank error
/// in resolve order, or the typed stall of a script that cannot
/// complete.
pub(super) fn run<S: RankSpace>(
    ctx: &EngineCtx<'_>,
    sms: &mut [Mutex<RankSm<S>>],
    workers: usize,
) -> Result<(), RunError> {
    let nranks = sms.len();
    let mut wheel: EventWheel<usize> = EventWheel::new();
    for (r, m) in sms.iter_mut().enumerate() {
        m.get_mut().expect(POISON).in_wheel = true;
        wheel.push(SimTime::ZERO, r);
    }
    let mut round: Option<Round> = None;
    let mut batch: Vec<usize> = Vec::with_capacity(nranks);
    let mut wake: Vec<(SimTime, usize)> = Vec::new();
    // Swapped with each rank's outbox while delivering it, so neither
    // side reallocates round after round.
    let mut outbox: Vec<(usize, Msg)> = Vec::new();

    while !wheel.is_empty() {
        batch.clear();
        while let Some((_, r)) = wheel.pop() {
            batch.push(r);
        }

        // Advance phase: rank-local, order-independent.
        if workers > 1 && batch.len() >= par_batch_min::<S>() {
            let chunk = batch.len().div_ceil(workers);
            let sms = &*sms;
            std::thread::scope(|s| {
                for ch in batch.chunks(chunk) {
                    s.spawn(move || {
                        for &r in ch {
                            sms[r].lock().expect(POISON).advance(ctx);
                        }
                    });
                }
            });
        } else {
            for &r in &batch {
                sms[r].get_mut().expect(POISON).advance(ctx);
            }
        }

        // Resolve phase: serial, in deterministic batch order.
        wake.clear();
        for &r in &batch {
            sms[r].get_mut().expect(POISON).in_wheel = false;
        }
        for &r in &batch {
            let sm = sms[r].get_mut().expect(POISON);
            if let Some(e) = sm.error.take() {
                return Err(e);
            }
            match sm.blocked {
                Blocked::Coll(op) => {
                    debug_assert!(sm.completion.is_none());
                    join_round(&mut round, r, nranks, op, sm.clock)?;
                }
                Blocked::Shared => {
                    sm.perform_io(ctx)?;
                    sm.in_wheel = true;
                    wake.push((sm.clock, r));
                }
                _ => {}
            }
            std::mem::swap(&mut sm.outbox, &mut outbox);
            for (dst, msg) in outbox.drain(..) {
                assert!(dst < nranks, "rank {r} sent to unknown rank {dst}");
                let d = sms[dst].get_mut().expect(POISON);
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
            std::mem::swap(&mut sms[r].get_mut().expect(POISON).outbox, &mut outbox);
        }
        if round.as_ref().is_some_and(|rd| rd.joined == nranks) {
            let rd = round.take().expect("round present");
            let res = if rd.gathered.is_empty() {
                RoundResult { time: rd.max_time, value: rd.value }
            } else {
                ft::close_commit(ctx, sms, rd.max_time, &rd.gathered)?
            };
            for (r, m) in sms.iter_mut().enumerate() {
                let sm = m.get_mut().expect(POISON);
                debug_assert!(matches!(sm.blocked, Blocked::Coll(_)));
                sm.completion = Some(res);
                if !sm.in_wheel {
                    sm.in_wheel = true;
                    wake.push((res.time, r));
                }
            }
        }
        for &(t, r) in &wake {
            wheel.push(t, r);
        }
    }

    // The wheel drained: every rank must have finished, otherwise the
    // script deadlocked. Name the receive nobody sends to if there is
    // one — ranks stuck in a collective are waiting for that rank.
    let mut stalled = None;
    for m in sms {
        let sm = m.get_mut().expect(POISON);
        match sm.blocked {
            Blocked::Done => {}
            Blocked::Recv { from, tag, .. } => {
                return Err(NetError::UnmatchedRecv { rank: sm.rank, from, tag }.into());
            }
            _ => {
                stalled.get_or_insert(NetError::PartialCollective { rank: sm.rank });
            }
        }
    }
    stalled.map_or(Ok(()), |e| Err(e.into()))
}

/// Event-driven characterization: byte-identical reports at any worker
/// count. Panics when the script cannot complete (see
/// [`super::characterize_model`]).
pub(super) fn characterize_event<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: &F,
) -> RunReport
where
    F: Fn(usize) -> Box<dyn AppModel>,
{
    assert!(cfg.nranks > 0, "characterization needs at least one rank");
    let workers = resolve_workers(cfg.workers);
    cfg.obs.emit(Lane::Run, SimTime::ZERO, Event::RunStart { ranks: cfg.nranks as u32 });
    let ctx = EngineCtx {
        net: &cfg.net,
        nranks: cfg.nranks,
        run_for: cfg.run_for,
        max_iterations: None,
        stretch_overhead: cfg.stretch_overhead,
        obs: &cfg.obs,
        ft: None,
    };
    let mut sms = build_ranks(cfg, layout, build);
    if let Err(e) = run(&ctx, &mut sms, workers) {
        panic!("characterization run failed: {e}");
    }
    let ranks = sms.into_iter().map(|m| m.into_inner().expect(POISON).into_report().0).collect();
    RunReport {
        outcome: RunOutcome::Completed,
        ranks,
        attempts: 1,
        wasted: SimDuration::ZERO,
        recoveries: Vec::new(),
        drain: None,
    }
}

/// Construct all rank state machines on the calling thread. Every
/// buffer a rank keeps for the whole run (bitmaps, the sample
/// reservoir, mapping tables) is allocated here, so all of them come
/// from one malloc arena: a buffer allocated on a worker thread lives
/// in that thread's arena, which a later single-worker run in the same
/// process cannot reuse (DESIGN.md §14).
fn build_ranks<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: &F,
) -> Vec<Mutex<RankSm<SparseSpace>>>
where
    F: Fn(usize) -> Box<dyn AppModel>,
{
    (0..cfg.nranks)
        .map(|rank| {
            let space = SparseSpace::new(layout);
            let tracker = WriteTracker::new(
                layout.capacity_pages(),
                space.mapped_pages(),
                cfg.tracker_config(rank),
            );
            let nic = cfg.net.build_nic();
            Mutex::new(RankSm::new(rank, space, tracker, build(rank), nic, None))
        })
        .collect()
}

// Tests for the engine live in `tests/` (worker-count byte-identity and
// scheduler property suites); unit coverage here sticks to the pieces
// with no cross-run oracle.
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
        let parse = |raw| env::parse(WORKERS_ENV, raw, env::count);
        assert_eq!(parse("4"), Ok(4));
        assert_eq!(parse(" 16\n"), Ok(16));
        for bad in ["", "0", "many", "-1", "2.5", "4 workers", "0x4"] {
            let err = parse(bad).expect_err(bad);
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
            CollOp::Vote { votes: 1, iterations: 0 }.sig(),
            CollOp::Vote { votes: 9, iterations: 4 }.sig(),
        );
        // The 8-byte settle allreduce is not an application allreduce
        // of 8 bytes, and not the commit gather either.
        let settle = CollOp::Settle { write_done: SimTime(7) };
        assert_ne!(settle.sig(), CollOp::Allreduce { bytes: 8 }.sig());
        assert_ne!(settle.sig(), CollOp::Commit { payload: 7 }.sig());
    }

    #[test]
    fn round_folds_votes_with_or_and_gathers_commit_payloads() {
        let mut round = None;
        let op = |v: u64| CollOp::Vote { votes: v, iterations: 0 };
        join_round(&mut round, 0, 2, op(0b01), SimTime(5)).unwrap();
        join_round(&mut round, 1, 2, op(0b10), SimTime(3)).unwrap();
        let rd = round.take().unwrap();
        assert_eq!((rd.joined, rd.max_time, rd.value), (2, SimTime(5), 0b11));
        assert!(rd.gathered.is_empty());

        join_round(&mut round, 1, 2, CollOp::Commit { payload: 40 }, SimTime(1)).unwrap();
        join_round(&mut round, 0, 2, CollOp::Commit { payload: 30 }, SimTime(2)).unwrap();
        assert_eq!(round.as_ref().unwrap().gathered, vec![30, 40], "indexed by rank");
        assert_eq!(
            join_round(&mut round, 0, 2, CollOp::Barrier, SimTime(9)),
            Err(NetError::CollectiveMismatch { rank: 0 }),
        );
    }
}
