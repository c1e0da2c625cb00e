//! Coordinated checkpoint planning.
//!
//! §6.2 of the paper: the applications are bulk-synchronous, with
//! processing bursts separated by communication bursts, and "there are
//! moments where it is more convenient to take a checkpoint, for
//! example at the beginning or at the end of an iteration". The
//! coordination scheme built on that observation:
//!
//! 1. Ranks reach an iteration boundary and enter the per-iteration
//!    allreduce that bulk-synchronous codes already perform.
//! 2. Each rank contributes [`VoteFlags`]: *checkpoint due* (its local
//!    clock passed the checkpoint interval), *failure imminent*,
//!    *stop requested*. The OR across ranks is the global decision, so
//!    all ranks act identically — a coordinated checkpoint needs no
//!    extra message rounds beyond the collective the application was
//!    going to do anyway.
//! 3. If checkpointing: every rank captures its chunk (full or
//!    incremental per the [`CheckpointPolicy`] lineage), writes it to
//!    stable storage, and a second collective round commits the manifest —
//!    the classic two-phase structure that makes the generation
//!    atomic.
//!
//! [`CheckpointPlanner`] is the per-rank deterministic state machine
//! for steps 2–3; because every rank runs the same planner on the same
//! global decisions, lineage never diverges across ranks.

use ickpt_sim::{SimDuration, SimTime};
use ickpt_storage::ChunkKind;

/// Vote bits exchanged in the iteration-boundary allreduce (combined
/// with bitwise OR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoteFlags(pub u64);

impl VoteFlags {
    /// A checkpoint is due.
    pub const CHECKPOINT: u64 = 1 << 0;
    /// This rank is about to fail (failure injection / health monitor).
    pub const FAIL: u64 = 1 << 1;
    /// The run reached its configured end.
    pub const STOP: u64 = 1 << 2;

    /// No votes.
    pub fn none() -> Self {
        VoteFlags(0)
    }

    /// Set a flag.
    pub fn with(mut self, flag: u64) -> Self {
        self.0 |= flag;
        self
    }

    /// Whether `flag` is set.
    pub fn has(&self, flag: u64) -> bool {
        self.0 & flag != 0
    }
}

/// When and how to checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Desired interval between checkpoints (virtual time). The actual
    /// spacing quantizes to iteration boundaries — the paper's
    /// "convenient moments".
    pub interval: SimDuration,
    /// Take a fresh full checkpoint every `full_every` generations
    /// (chain compaction by re-basing); `0` means only generation 0 is
    /// full and the chain grows until explicitly compacted.
    pub full_every: u64,
}

impl CheckpointPolicy {
    /// Incremental checkpoints every `interval`, re-based every
    /// `full_every` generations.
    pub fn incremental(interval: SimDuration, full_every: u64) -> Self {
        Self { interval, full_every }
    }

    /// Full checkpoints every `interval` (the non-incremental
    /// baseline).
    pub fn always_full(interval: SimDuration) -> Self {
        Self { interval, full_every: 1 }
    }
}

/// A planned checkpoint for the current generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCheckpoint {
    /// Generation number to write.
    pub generation: u64,
    /// Full or incremental.
    pub kind: ChunkKind,
    /// Parent generation for incremental chunks.
    pub parent: Option<u64>,
}

/// Per-rank deterministic checkpoint state machine.
///
/// ```
/// use ickpt_core::coordinator::{CheckpointPlanner, CheckpointPolicy};
/// use ickpt_sim::{SimDuration, SimTime};
/// use ickpt_storage::ChunkKind;
///
/// let policy = CheckpointPolicy::incremental(SimDuration::from_secs(10), 0);
/// let mut p = CheckpointPlanner::new(policy, SimTime::ZERO);
/// assert!(!p.due(SimTime::from_secs(9)));
/// assert!(p.due(SimTime::from_secs(12)));
/// let c0 = p.plan(SimTime::from_secs(12));
/// assert_eq!(c0.kind, ChunkKind::Full); // generation 0 is the base
/// let c1 = p.plan(SimTime::from_secs(22));
/// assert_eq!((c1.kind, c1.parent), (ChunkKind::Incremental, Some(0)));
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointPlanner {
    policy: CheckpointPolicy,
    next_generation: u64,
    last_checkpoint: SimTime,
    /// Generation of the last *committed* checkpoint (for recovery).
    last_committed: Option<u64>,
}

impl CheckpointPlanner {
    /// A fresh planner; the first checkpoint is due `interval` after
    /// `start`.
    pub fn new(policy: CheckpointPolicy, start: SimTime) -> Self {
        Self { policy, next_generation: 0, last_checkpoint: start, last_committed: None }
    }

    /// Whether this rank should vote CHECKPOINT at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now.saturating_sub(self.last_checkpoint) >= self.policy.interval
    }

    /// Plan the next checkpoint (call when the *global* decision said
    /// to checkpoint, at the agreed virtual time `now`). Advances the
    /// lineage.
    pub fn plan(&mut self, now: SimTime) -> PlannedCheckpoint {
        let generation = self.next_generation;
        let is_full = generation == 0
            || (self.policy.full_every > 0 && generation.is_multiple_of(self.policy.full_every));
        let planned = PlannedCheckpoint {
            generation,
            kind: if is_full { ChunkKind::Full } else { ChunkKind::Incremental },
            parent: if is_full { None } else { Some(generation - 1) },
        };
        self.next_generation += 1;
        self.last_checkpoint = now;
        planned
    }

    /// Record that `generation`'s manifest committed.
    pub fn committed(&mut self, generation: u64) {
        self.last_committed = Some(generation);
    }

    /// The last committed generation, if any.
    pub fn last_committed(&self) -> Option<u64> {
        self.last_committed
    }

    /// Re-arm the planner after recovery: the next generation continues
    /// after `generation` and the interval clock restarts at `now`.
    pub fn resume_after(&mut self, generation: u64, now: SimTime) {
        self.next_generation = generation + 1;
        self.last_checkpoint = now;
        self.last_committed = Some(generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(interval_s: u64, full_every: u64) -> CheckpointPlanner {
        CheckpointPlanner::new(
            CheckpointPolicy::incremental(SimDuration::from_secs(interval_s), full_every),
            SimTime::ZERO,
        )
    }

    #[test]
    fn vote_flags_or_semantics() {
        let a = VoteFlags::none().with(VoteFlags::CHECKPOINT);
        let b = VoteFlags::none().with(VoteFlags::FAIL);
        let combined = VoteFlags(a.0 | b.0);
        assert!(combined.has(VoteFlags::CHECKPOINT));
        assert!(combined.has(VoteFlags::FAIL));
        assert!(!combined.has(VoteFlags::STOP));
    }

    #[test]
    fn due_after_interval() {
        let p = planner(10, 0);
        assert!(!p.due(SimTime::from_secs(9)));
        assert!(p.due(SimTime::from_secs(10)));
        assert!(p.due(SimTime::from_secs(11)));
    }

    #[test]
    fn lineage_first_full_then_incremental() {
        let mut p = planner(10, 0);
        let c0 = p.plan(SimTime::from_secs(10));
        assert_eq!(c0, PlannedCheckpoint { generation: 0, kind: ChunkKind::Full, parent: None });
        let c1 = p.plan(SimTime::from_secs(20));
        assert_eq!(
            c1,
            PlannedCheckpoint { generation: 1, kind: ChunkKind::Incremental, parent: Some(0) }
        );
        let c2 = p.plan(SimTime::from_secs(30));
        assert_eq!(c2.parent, Some(1));
    }

    #[test]
    fn plan_resets_interval_clock() {
        let mut p = planner(10, 0);
        p.plan(SimTime::from_secs(12));
        assert!(!p.due(SimTime::from_secs(21)));
        assert!(p.due(SimTime::from_secs(22)));
    }

    #[test]
    fn periodic_rebase() {
        let mut p = planner(1, 3);
        let kinds: Vec<ChunkKind> = (0..7).map(|i| p.plan(SimTime::from_secs(i)).kind).collect();
        use ChunkKind::*;
        assert_eq!(
            kinds,
            vec![Full, Incremental, Incremental, Full, Incremental, Incremental, Full]
        );
    }

    #[test]
    fn always_full_baseline() {
        let mut p = CheckpointPlanner::new(
            CheckpointPolicy::always_full(SimDuration::from_secs(1)),
            SimTime::ZERO,
        );
        assert_eq!(p.plan(SimTime::ZERO).kind, ChunkKind::Full);
        assert_eq!(p.plan(SimTime::ZERO).kind, ChunkKind::Full);
    }

    #[test]
    fn commit_and_resume() {
        let mut p = planner(10, 0);
        let c0 = p.plan(SimTime::from_secs(10));
        p.committed(c0.generation);
        assert_eq!(p.last_committed(), Some(0));
        // Recovery at t=35 from generation 0.
        p.resume_after(0, SimTime::from_secs(35));
        let c1 = p.plan(SimTime::from_secs(45));
        assert_eq!(c1.generation, 1);
        assert_eq!(c1.parent, Some(0));
        assert!(!p.due(SimTime::from_secs(44)));
    }
}
