//! The checkpoint, commit and restore states of a fault-tolerant rank.
//!
//! A rank of [`super::run_fault_tolerant`] is the engine's [`RankSm`]
//! over a [`BackedSpace`] plus one [`FtRank`]. At every iteration
//! boundary the vote allreduce decides, and the rank then walks this
//! sequence, yielding its worker at each arrow that names a collective
//! round or a shared device:
//!
//! ```text
//! vote ─FAIL──────────────────────────────────────────────▶ done
//!   │
//!   ├─ forked write pending ─▶ Settle round ─ all landed, or forced ─▶ Commit round
//!   ▼
//! capture + encode ─▶ chunk put (own device: inline; shared array: resolver)
//!   ├─ stop-and-copy ─▶ Commit round
//!   └─ forked: pay the snapshot, write stays pending; at STOP ─▶ Settle ─▶ Commit
//!   ▼
//! next phase, or done at STOP
//! ```
//!
//! A *Commit round* is the two-phase commit: it gathers every rank's
//! payload size; closing it ([`close_commit`], serial resolve phase)
//! writes rank 0's manifest, releases everyone at the commit barrier's
//! instant, checks the coordinated cut and notifies the tiers, the last
//! notification kicking the background drain. After a failure the next
//! attempt's ranks start in the restore state instead of `init`.
//!
//! Everything here that touches only the rank (capture, encode, its own
//! devices and tiers, restore from them) runs in the engine's parallel
//! advance phase; a flat [`StoragePath::Shared`](super::StoragePath)
//! array is charged from the resolve phase only.

use std::sync::Mutex;

use ickpt_apps::codec::{ByteReader, ByteWriter};
use ickpt_core::checkpoint::{
    capture_full_with, capture_incremental_with, CaptureConfig, CaptureScratch, ContentStats,
};
use ickpt_core::coordinator::{CheckpointPlanner, PlannedCheckpoint, VoteFlags};
use ickpt_core::restore::{record_restore, restore_rank, RestoreReport};
use ickpt_core::tracker::{SampleMode, TrackerConfig, WriteTracker};
use ickpt_mem::{AddressSpace, BackedSpace};
use ickpt_obs::{Event, Lane, Recorder};
use ickpt_sim::net::NetConfig;
use ickpt_sim::{SimDuration, SimTime};
use ickpt_storage::{
    ChunkBuf, ChunkKey, ChunkKind, Manifest, RankEntry, StableStorage, StorageError,
    ThrottledStore, TieredStore,
};

use super::engine::{
    Blocked, CollOp, EngineCtx, PhaseState, RankSm, RankSpace, RoundResult, POISON,
};
use super::{CheckpointMode, RunError};

const FT: &str = "checkpoint states are only entered by fault-tolerant ranks";
const BACKED: &str = "fault-tolerant ranks run over a content-backed space";

/// Run-wide checkpointing parameters, resolved once per run.
pub(super) struct FtParams {
    pub mode: CheckpointMode,
    pub timeslice: SimDuration,
}

impl FtParams {
    pub(super) fn tracker_config(&self, obs: &Recorder, rank: usize) -> TrackerConfig {
        TrackerConfig {
            timeslice: self.timeslice,
            fault_cost: SimDuration::ZERO,
            track_checkpoint_set: true,
            epoch: None,
            track_iterations: false,
            record_trace: false,
            obs: obs.clone(),
            obs_rank: rank as u32,
            sample_mode: SampleMode::Full,
        }
    }
}

/// A rank's path to stable storage: either the single-tier throttled
/// store or a handle into the multilevel
/// [`TierTopology`](ickpt_storage::TierTopology).
pub(super) enum CkptStore {
    Flat(ThrottledStore),
    Tiered(TieredStore),
}

impl CkptStore {
    fn put_chunk_timed(
        &self,
        now: SimTime,
        key: ChunkKey,
        data: ChunkBuf,
    ) -> Result<SimTime, StorageError> {
        match self {
            CkptStore::Flat(s) => s.put_chunk_timed(now, key, data),
            CkptStore::Tiered(s) => s.put_chunk_timed(now, key, data),
        }
    }

    fn put_manifest_timed(
        &self,
        now: SimTime,
        generation: u64,
        data: &[u8],
    ) -> Result<SimTime, StorageError> {
        match self {
            CkptStore::Flat(s) => s.put_manifest_timed(now, generation, data),
            CkptStore::Tiered(s) => s.put_manifest_timed(now, generation, data),
        }
    }

    /// Commit notification at the barrier-released instant: feeds the
    /// background drain on tiered runs, a no-op on flat ones (their
    /// writes already went to the durable store).
    fn note_committed(&self, generation: u64, commit_time: SimTime) -> Result<(), StorageError> {
        match self {
            CkptStore::Flat(_) => Ok(()),
            CkptStore::Tiered(s) => s.note_committed(generation, commit_time),
        }
    }

    /// Rollback read: validate the manifest of `generation`, then
    /// restore `rank`'s chain into `space`. The restarted process's
    /// clock starts at zero, and every read goes through the same
    /// bandwidth-modelled path as checkpoint writes (tiered: local,
    /// then peer reconstruction, then the shared array), so restart
    /// cost uses the paper's device model. Returns the virtual read
    /// cost with the report.
    fn restore(
        &self,
        rank: usize,
        generation: u64,
        nranks: usize,
        space: &mut BackedSpace,
    ) -> Result<(RestoreReport, SimDuration), RunError> {
        match self {
            CkptStore::Tiered(s) => {
                let reader = s.topology().reader(rank, SimTime::ZERO);
                validate_manifest(&reader.get_manifest(generation)?, generation, nranks)?;
                let report = restore_rank(&reader, rank as u32, generation, space)?;
                let cost = reader.now().saturating_sub(SimTime::ZERO);
                s.topology().note_recovery_time(rank, cost);
                Ok((report, cost))
            }
            CkptStore::Flat(s) => {
                let (manifest, t0) = s.get_manifest_timed(SimTime::ZERO, generation)?;
                validate_manifest(&manifest, generation, nranks)?;
                let reader = s.timed_reads(t0);
                let report = restore_rank(&reader, rank as u32, generation, space)?;
                Ok((report, reader.now().saturating_sub(SimTime::ZERO)))
            }
        }
    }
}

/// Decode a commit manifest and check it covers every rank at the
/// expected generation before a restore trusts it.
fn validate_manifest(data: &[u8], generation: u64, nranks: usize) -> Result<(), RunError> {
    let manifest = Manifest::decode(data)?;
    if manifest.generation != generation || manifest.nranks as usize != nranks {
        return Err(StorageError::Corrupt(format!(
            "manifest mismatch: found generation {} over {} ranks, expected {generation} over {nranks}",
            manifest.generation, manifest.nranks
        ))
        .into());
    }
    if !manifest.is_complete() {
        return Err(StorageError::Corrupt(format!(
            "manifest of generation {generation} does not cover every rank"
        ))
        .into());
    }
    Ok(())
}

/// A checkpoint written but not yet globally committed.
struct PendingCommit {
    planned: PlannedCheckpoint,
    captured_at: SimTime,
    write_done: SimTime,
    payload: u64,
    /// Tracker fault count at capture: faults taken since then are
    /// (an upper bound on) the pages needing COW duplication.
    faults_at_capture: u64,
}

/// A storage operation of this rank and, once performed, its result.
/// Performed inline on the rank's own devices, by the resolver on a
/// shared array.
enum Io {
    /// Write the encoded chunk `data`; every tier shares the buffer.
    Put { planned: PlannedCheckpoint, payload: u64, data: ChunkBuf, write_done: Option<SimTime> },
    /// Read the chain ending at `generation` back into the space.
    Restore { generation: u64, read: Option<(RestoreReport, SimDuration)> },
}

/// What follows the settle / commit rounds in flight.
#[derive(Clone, Copy)]
enum Then {
    /// The boundary's capture stage (the rounds settled an older
    /// forked write).
    Capture,
    /// The end of the boundary (the rounds committed this boundary's
    /// own capture).
    EndBoundary,
}

/// Everything only a fault-tolerant rank has.
pub(super) struct FtRank {
    pub(super) planner: CheckpointPlanner,
    tstore: CkptStore,
    /// Whether `tstore` charges a device other ranks can reach, so its
    /// operations must run in the serial resolve phase.
    shared_path: bool,
    /// Injected failure: vote FAIL at the first boundary at or past it.
    fail_at: Option<SimTime>,
    /// Generation to roll back to before running (consumed by the
    /// restore state).
    resume_from: Option<u64>,
    /// Capture tuning (dedup from `ICKPT_DEDUP` or the run config).
    capture_cfg: CaptureConfig,
    /// Recycled capture buffers (a checkpoint allocates only the chunk
    /// the stores keep) and the dedup baseline, reset whenever an
    /// attempt starts so a rollback can never reuse a stale one.
    pub(super) scratch: CaptureScratch,
    pending: Option<PendingCommit>,
    io: Option<Io>,
    /// The boundary vote's decisions and where the rounds in flight
    /// lead.
    stop: bool,
    take: bool,
    force: bool,
    then: Then,
    pub(super) bytes_written: u64,
    pub(super) count: u64,
    /// Total virtual time the application was stalled by checkpoints.
    pub(super) stall: SimDuration,
    /// Total lag between capture and global commit.
    pub(super) commit_lag: SimDuration,
    /// Run totals of the content layer (silent-same drops, deltas).
    pub(super) content: ContentStats,
    /// Set when the global FAIL vote passed.
    pub(super) failed: bool,
    /// Content digest of the final image.
    pub(super) digest: Option<u64>,
}

impl FtRank {
    pub(super) fn new(
        planner: CheckpointPlanner,
        tstore: CkptStore,
        shared_path: bool,
        fail_at: Option<SimTime>,
        resume_from: Option<u64>,
        capture_cfg: CaptureConfig,
        mut scratch: CaptureScratch,
    ) -> Box<Self> {
        scratch.dedup_index().reset();
        Box::new(Self {
            planner,
            tstore,
            shared_path,
            fail_at,
            resume_from,
            capture_cfg,
            scratch,
            pending: None,
            io: None,
            stop: false,
            take: false,
            force: false,
            then: Then::EndBoundary,
            bytes_written: 0,
            count: 0,
            stall: SimDuration::ZERO,
            commit_lag: SimDuration::ZERO,
            content: ContentStats::default(),
            failed: false,
            digest: None,
        })
    }

    /// This rank's additions to the boundary vote.
    pub(super) fn vote(&self, mut votes: VoteFlags, now: SimTime) -> VoteFlags {
        if self.fail_at.is_some_and(|t| now >= t) {
            votes = votes.with(VoteFlags::FAIL);
        }
        if self.planner.due(now) {
            votes = votes.with(VoteFlags::CHECKPOINT);
        }
        votes
    }
}

impl<S: RankSpace> RankSm<S> {
    /// Whether this rank starts from a rollback instead of `init`.
    pub(super) fn resumes(&self) -> bool {
        self.ft.as_ref().is_some_and(|ft| ft.resume_from.is_some())
    }

    /// The restore state: roll memory, model state and clock back to
    /// the committed generation.
    pub(super) fn begin_restore(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        let generation = ft.resume_from.take().expect("checked by resumes()");
        ft.io = Some(Io::Restore { generation, read: None });
        self.start_io(ctx)
    }

    /// Run the staged storage operation here (own devices), or yield
    /// to the resolver (shared array).
    fn start_io(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        if self.ft.as_ref().expect(FT).shared_path {
            self.blocked = Blocked::Shared;
            return Ok(());
        }
        self.perform_io(ctx)?;
        self.finish_io(ctx)
    }

    /// Execute the staged storage operation at the rank's clock.
    pub(super) fn perform_io(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        match ft.io.as_mut().expect("a storage operation is staged") {
            Io::Put { planned, data, write_done, .. } => {
                let key = ChunkKey::new(self.rank as u32, planned.generation);
                *write_done = Some(ft.tstore.put_chunk_timed(self.clock, key, data.clone())?);
            }
            Io::Restore { generation, read } => {
                let space = self.space.backed().expect(BACKED);
                *read = Some(ft.tstore.restore(self.rank, *generation, ctx.nranks, space)?);
            }
        }
        Ok(())
    }

    /// Whether the resolver performed the operation this rank waits on.
    pub(super) fn io_done(&self) -> bool {
        match self.ft.as_ref().and_then(|ft| ft.io.as_ref()) {
            Some(Io::Put { write_done, .. }) => write_done.is_some(),
            Some(Io::Restore { read, .. }) => read.is_some(),
            None => false,
        }
    }

    /// Continue after the staged storage operation was performed.
    pub(super) fn finish_io(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        const DONE: &str = "the storage operation was performed";
        match self.ft.as_deref_mut().expect(FT).io.take().expect(DONE) {
            Io::Put { planned, payload, data, write_done } => {
                self.after_put(planned, payload, data.len() as u64, write_done.expect(DONE), ctx)
            }
            Io::Restore { generation, read } => {
                let (report, cost) = read.expect(DONE);
                self.after_restore(generation, &report, cost, ctx)
            }
        }
    }

    fn after_restore(
        &mut self,
        generation: u64,
        report: &RestoreReport,
        read_cost: SimDuration,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        let corrupt = |what: &str| RunError::from(StorageError::Corrupt(what.into()));
        let rank = self.rank;
        record_restore(ctx.obs, rank as u32, SimTime::ZERO, SimTime::ZERO + read_cost, report);
        let mut blob = ByteReader::new(&report.app_state);
        let model_state = blob.get_bytes().map_err(|_| corrupt("bad app state"))?.to_vec();
        let digest = blob.get_u64().map_err(|_| corrupt("missing digest"))?;
        // Restore self-check: the rebuilt image must hash to what was
        // captured.
        let space = self.space.backed().expect(BACKED);
        if space.content_digest() != digest {
            return Err(StorageError::Corrupt(format!(
                "rank {rank}: restored image digest mismatch at generation {generation}"
            ))
            .into());
        }
        self.model.restore_state(&model_state).map_err(|_| corrupt("bad app state"))?;
        self.clock = SimTime(report.capture_time_ns) + read_cost;
        self.started_at = self.clock;
        self.ft.as_deref_mut().expect(FT).planner.resume_after(generation, self.clock);
        self.tracker = WriteTracker::new(
            space.layout().capacity_pages(),
            space.mapped_pages(),
            ctx.ft_params().tracker_config(ctx.obs, rank),
        );
        // Alarms continue on the absolute virtual clock.
        self.tracker.advance_to(self.clock);
        // `init` ran before the checkpoint was taken: an empty loaded
        // phase makes the next step ask the model for its next one.
        self.phase = PhaseState::Loaded { ends_iteration: false };
        Ok(())
    }

    /// Second half of an iteration boundary on a checkpointing rank:
    /// act on the global vote.
    pub(super) fn checkpoint_boundary(
        &mut self,
        global: VoteFlags,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        if global.has(VoteFlags::FAIL) {
            ft.failed = true;
            self.finish();
            return Ok(());
        }
        ft.stop = global.has(VoteFlags::STOP);
        ft.take = global.has(VoteFlags::CHECKPOINT);
        if ft.pending.is_some() {
            // Forked mode: a background write may be ready to commit.
            // Force the commit when a new capture or the end of the run
            // is imminent.
            let force = ft.take || ft.stop;
            self.enter_settle(force, Then::Capture);
            Ok(())
        } else {
            self.capture_stage(ctx)
        }
    }

    /// Try to commit the pending forked checkpoint: agree on the
    /// slowest write completion first. `force` waits out the slowest
    /// write; otherwise the commit only happens if every rank's write
    /// already landed.
    fn enter_settle(&mut self, force: bool, then: Then) {
        let ft = self.ft.as_deref_mut().expect(FT);
        ft.force = force;
        ft.then = then;
        let write_done = ft.pending.as_ref().expect("a pending commit to settle").write_done;
        self.blocked = Blocked::Coll(CollOp::Settle { write_done });
    }

    /// The settle round closed with the slowest write's completion.
    pub(super) fn settled(
        &mut self,
        res: RoundResult,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        self.bytes_received += NetConfig::allreduce_recv_bytes(ctx.nranks, 8);
        let mut t = ctx.net.allreduce_complete_time(res.time, ctx.nranks, 8);
        let all_done = SimTime(res.value);
        if all_done > t && !ft.force {
            // Still in flight and nothing forces it: next boundary.
            self.clock = t;
            return self.resume(ctx);
        }
        let pending = ft.pending.as_ref().expect("a pending commit to settle");
        let stall_begin = t;
        if all_done > t {
            // Forced: wait out the background write.
            ft.stall += all_done - t;
            t = all_done;
        }
        // COW charge: every page first-written during the write-out
        // window had to be duplicated before the application's store
        // could proceed.
        if let CheckpointMode::Forked { cow_copy_ns, .. } = ctx.ft_params().mode {
            let cow_pages = self.tracker.total_faults().saturating_sub(pending.faults_at_capture);
            let cow = SimDuration(cow_pages * cow_copy_ns);
            ft.stall += cow;
            t += cow;
        }
        if t > stall_begin {
            ctx.obs.emit_span(
                Lane::Rank(self.rank as u32),
                stall_begin,
                t - stall_begin,
                Event::CheckpointStall { generation: pending.planned.generation },
            );
        }
        self.clock = t;
        self.blocked = Blocked::Coll(CollOp::Commit { payload: pending.payload });
        Ok(())
    }

    /// The commit round closed: `res.time` is the instant the commit
    /// barrier released every rank.
    pub(super) fn committed(
        &mut self,
        res: RoundResult,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        let released = res.time;
        let p = ft.pending.take().expect("a pending commit to close");
        let generation = p.planned.generation;
        let lane = Lane::Rank(self.rank as u32);
        ctx.obs.emit(lane, released, Event::CommitBarrier { generation });
        ft.planner.committed(generation);
        ft.commit_lag += released.saturating_sub(p.write_done.min(released));
        if ctx.ft_params().mode == CheckpointMode::StopAndCopy {
            // The rank was blocked from capture to release: the stall
            // per checkpoint the paper's IB analysis bounds.
            let stall = released.saturating_sub(p.captured_at);
            ft.stall += stall;
            ctx.obs.emit_span(lane, p.captured_at, stall, Event::CheckpointStall { generation });
        }
        self.clock = released;
        self.resume(ctx)
    }

    /// Pick the boundary up again after settle / commit rounds.
    fn resume(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        self.tracker.advance_to(self.clock);
        let ft = self.ft.as_deref().expect(FT);
        match ft.then {
            Then::Capture => self.capture_stage(ctx),
            Then::EndBoundary => self.end_boundary(ft.stop),
        }
    }

    fn capture_stage(&mut self, ctx: &EngineCtx<'_>) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        if !ft.take {
            let stop = ft.stop;
            return self.end_boundary(stop);
        }
        debug_assert!(ft.pending.is_none(), "pending commit must settle before a new capture");
        let space = self.space.backed().expect(BACKED);
        let now = self.clock;
        let planned = ft.planner.plan(now);
        // Pages unmapped since the last capture invalidate the dedup
        // baseline: their records may leave the chain, and a remapped
        // page must never silently match hashes from a previous
        // mapping epoch. (A full capture resets the whole index, but
        // the churn set still has to be drained.)
        if ft.capture_cfg.dedup {
            for range in self.tracker.take_churn_set() {
                ft.scratch.dedup_index().invalidate(range);
            }
        }
        let dirty = self.tracker.take_checkpoint_set();
        let rank = self.rank as u32;
        let mut chunk = match planned.kind {
            // A fresh base supersedes the pending dirty set.
            ChunkKind::Full => capture_full_with(
                &*space,
                rank,
                planned.generation,
                now,
                &ft.capture_cfg,
                &mut ft.scratch,
            ),
            ChunkKind::Incremental => capture_incremental_with(
                &*space,
                rank,
                planned.generation,
                planned.parent.expect("incremental has parent"),
                now,
                &dirty,
                &ft.capture_cfg,
                &mut ft.scratch,
            ),
        };
        ft.content.merge(ft.scratch.last_content());
        // The app-state blob carries the model state plus a digest of
        // the captured image, so restores are self-verifying.
        let mut blob = ByteWriter::new();
        blob.put_bytes(&self.model.save_state());
        blob.put_u64(space.content_digest());
        chunk.app_state = blob.into_vec();
        let payload = chunk.payload_bytes();
        // A fresh buffer per chunk: the stores keep it, not a copy.
        let data = ChunkBuf::from(chunk.encode());
        // Return the chunk's buffers to the pool for the next capture.
        ft.scratch.recycle(chunk);
        ft.io = Some(Io::Put { planned, payload, data, write_done: None });
        self.start_io(ctx)
    }

    /// The chunk is on its way to stable storage, complete at
    /// `write_done`.
    fn after_put(
        &mut self,
        planned: PlannedCheckpoint,
        payload: u64,
        written: u64,
        write_done: SimTime,
        ctx: &EngineCtx<'_>,
    ) -> Result<(), RunError> {
        let ft = self.ft.as_deref_mut().expect(FT);
        let now = self.clock;
        ft.bytes_written += written;
        ft.count += 1;
        ft.pending = Some(PendingCommit {
            planned,
            captured_at: now,
            write_done,
            payload,
            faults_at_capture: self.tracker.total_faults(),
        });
        ft.then = Then::EndBoundary;
        match ctx.ft_params().mode {
            CheckpointMode::StopAndCopy => {
                // The rank blocks for the write, then the generation
                // commits immediately.
                self.clock = write_done;
                self.blocked = Blocked::Coll(CollOp::Commit { payload });
                Ok(())
            }
            CheckpointMode::Forked { fork_cost_per_page_ns, .. } => {
                // The rank pays only the snapshot cost; the write
                // streams out in the background and commits later.
                let fork_cost = SimDuration(self.space.mapped_pages() * fork_cost_per_page_ns);
                ft.stall += fork_cost;
                ctx.obs.emit_span(
                    Lane::Rank(self.rank as u32),
                    now,
                    fork_cost,
                    Event::CheckpointStall { generation: planned.generation },
                );
                self.clock = now + fork_cost;
                if ft.stop {
                    // Nothing after this boundary will drive the
                    // deferred commit: flush it now.
                    self.enter_settle(true, Then::EndBoundary);
                    Ok(())
                } else {
                    self.resume(ctx)
                }
            }
        }
    }
}

/// Close a commit round (serial resolve phase): every rank entered
/// with its write done, `gathered` holds their payload sizes. Rank 0
/// writes the manifest once the gather completes, the commit barrier
/// releases everyone when it landed, and every rank's tier learns of
/// the commit at that instant — on tiered runs the last notification
/// kicks the background drain.
pub(super) fn close_commit<S: RankSpace>(
    ctx: &EngineCtx<'_>,
    sms: &mut [Mutex<RankSm<S>>],
    entered: SimTime,
    gathered: &[u64],
) -> Result<RoundResult, RunError> {
    let nranks = ctx.nranks;
    let gathered_at = entered + ctx.net.allreduce_cost(nranks, 8 * nranks as u64);
    let root = sms[0].get_mut().expect(POISON).ft.as_deref().expect(FT);
    let planned = root.pending.as_ref().expect("rank 0 entered the commit round").planned;
    let manifest = Manifest {
        generation: planned.generation,
        commit_time_ns: gathered_at.0,
        nranks: nranks as u32,
        entries: gathered
            .iter()
            .enumerate()
            .map(|(r, &payload_bytes)| RankEntry {
                rank: r as u32,
                kind: planned.kind,
                parent: planned.parent,
                payload_bytes,
            })
            .collect(),
    };
    let commit_t =
        root.tstore.put_manifest_timed(gathered_at, planned.generation, &manifest.encode())?;
    let released = ctx.net.barrier_complete_time(commit_t, nranks);
    for m in sms.iter_mut() {
        let sm = m.get_mut().expect(POISON);
        // The coordinated cut: no message may be in flight across a
        // committed generation, or a restore of it would leave a
        // receive nobody sends to (or replay a send twice).
        debug_assert!(
            sm.pending.is_empty() && sm.outbox.is_empty(),
            "rank {}: message in flight across the commit of generation {}",
            sm.rank,
            planned.generation
        );
        sm.ft.as_deref().expect(FT).tstore.note_committed(planned.generation, released)?;
    }
    Ok(RoundResult { time: released, value: 0 })
}
