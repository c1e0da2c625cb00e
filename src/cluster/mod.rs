//! The cluster runner: application models as rank state machines over
//! virtual time, with write tracking, coordinated checkpointing,
//! failure injection and rollback recovery.
//!
//! Two entry points:
//!
//! * [`characterize`] — the paper's methodology (§4): run a workload on
//!   a metadata-only [`SparseSpace`](ickpt_mem::SparseSpace) per rank
//!   with the write tracker sampling every timeslice. This is what
//!   regenerates every table and figure, and it scales to the full
//!   64-rank, 1 GB/process configurations (and to 16k ranks) because no
//!   page contents exist.
//! * [`run_fault_tolerant`] — the system the paper argues is feasible:
//!   content-backed spaces, coordinated incremental checkpoints at
//!   iteration boundaries (§6.2), failure injection, and global
//!   rollback recovery with byte-exact restoration.
//!
//! ## Execution model
//!
//! Both run on one substrate, the event engine (`engine.rs`): each rank
//! is a state machine with a virtual clock, advanced by a fixed worker
//! pool. Compute steps are sliced at timeslice boundaries so the
//! tracker's alarm sees exactly the pages a real run would dirty per
//! window; sends compute arrival times analytically; receives jump the
//! clock to `max(local, arrival)` plus the bounce-buffer copy (which
//! dirties the destination pages, §4.2); collectives complete from the
//! maximum of the participants' clocks. Whatever two ranks can reach —
//! mailboxes, collective rounds, a shared storage array — is touched
//! only by the engine's serial resolve phase, in wheel order, so every
//! report, trace and metrics snapshot is byte-identical at any worker
//! count and on any host.
//!
//! At every iteration boundary the ranks already synchronize, so the
//! runner piggybacks a vote word on that allreduce: STOP (run limit
//! reached), FAIL (injected failure), CHECKPOINT (interval elapsed).
//! The OR of the votes is the global decision — the coordinated
//! checkpoint costs no extra communication rounds, exactly the
//! opportunity §6.2 identifies. The checkpoint, commit and restore
//! states that follow are in `ft.rs`.

mod engine;
mod ft;
mod report;
pub mod tenant;

pub use report::{reduce_reports, ClusterAggregate, ReportDetail, DEFAULT_REDUCE_ARITY};
pub use tenant::{fleet_profiles, mixed_fleet};

use std::sync::{Arc, Mutex};

use ickpt_apps::step::AppModel;
use ickpt_apps::Workload;
use ickpt_core::checkpoint::{CaptureConfig, CaptureScratch, ContentStats};
use ickpt_core::coordinator::{CheckpointPlanner, CheckpointPolicy};
use ickpt_core::metrics::{IwsSample, SampleSummary};
use ickpt_core::trace::RankTrace;
use ickpt_core::tracker::{EpochSample, IterationSample, SampleMode, TrackerConfig, WriteTracker};
use ickpt_mem::{AddressSpace, BackedSpace, DataLayout, WriteProfile};
use ickpt_obs::{DeviceKind, Event, Lane, Recorder, RecoveryTier};
use ickpt_sim::net::NetConfig;
use ickpt_sim::{DevicePreset, SimDuration, SimTime};
use ickpt_storage::{
    shared_device, ChunkKey, ChunkView, DrainStats, DrainTopology, RecoveryPlan, SchemeSpec,
    StableStorage, ThrottledStore, TierTopology, TierUsage,
};

use engine::{EngineCtx, RankSm};
use ft::{CkptStore, FtParams, FtRank};

/// Error from a cluster run.
#[derive(Debug)]
pub enum RunError {
    /// The communication script cannot complete: a receive nobody
    /// sends to, a collective not every rank enters.
    Net(ickpt_sim::net::NetError),
    /// Memory model failure (layout too small, bad unmap).
    Mem(ickpt_mem::MemError),
    /// Checkpoint/restore failure.
    Core(ickpt_core::CoreError),
    /// Stable-storage failure.
    Storage(ickpt_storage::StorageError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Net(e) => write!(f, "net: {e}"),
            RunError::Mem(e) => write!(f, "mem: {e}"),
            RunError::Core(e) => write!(f, "core: {e}"),
            RunError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ickpt_sim::net::NetError> for RunError {
    fn from(e: ickpt_sim::net::NetError) -> Self {
        RunError::Net(e)
    }
}
impl From<ickpt_mem::MemError> for RunError {
    fn from(e: ickpt_mem::MemError) -> Self {
        RunError::Mem(e)
    }
}
impl From<ickpt_core::CoreError> for RunError {
    fn from(e: ickpt_core::CoreError) -> Self {
        RunError::Core(e)
    }
}
impl From<ickpt_storage::StorageError> for RunError {
    fn from(e: ickpt_storage::StorageError) -> Self {
        RunError::Storage(e)
    }
}

/// Per-rank results of a run.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// The rank.
    pub rank: usize,
    /// Per-timeslice IWS samples.
    pub samples: Vec<IwsSample>,
    /// Per-epoch unique-page samples (when an epoch was configured).
    pub epoch_samples: Vec<EpochSample>,
    /// Per-iteration ground-truth samples (when enabled).
    pub iteration_samples: Vec<IterationSample>,
    /// Total page faults taken.
    pub total_faults: u64,
    /// Accumulated fault-handling overhead (§6.5 intrusiveness).
    pub overhead: SimDuration,
    /// Virtual time this attempt started at (0 for a fresh run, the
    /// restored checkpoint's capture time plus restore cost after a
    /// rollback).
    pub started_at: SimTime,
    /// Final virtual time.
    pub final_time: SimTime,
    /// Iterations completed.
    pub iterations: u64,
    /// Total bytes received (messages + collectives).
    pub bytes_received: u64,
    /// Final footprint in pages.
    pub footprint_pages: u64,
    /// Content digest of the final memory image (backed runs only).
    pub content_digest: Option<u64>,
    /// Checkpoint bytes written to stable storage.
    pub checkpoint_bytes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Total virtual time the application stalled for checkpoints.
    pub checkpoint_stall: SimDuration,
    /// Total lag between checkpoint capture and global commit
    /// (nonzero in forked mode).
    pub commit_lag: SimDuration,
    /// Dirty pages dropped by memory exclusion (§4.2) instead of being
    /// checkpointed.
    pub excluded_pages: u64,
    /// Content-layer totals across the attempt's captures: silent-same
    /// drops and sub-page delta encoding (all zero with dedup off).
    pub content: ContentStats,
    /// Exact integer roll-up of every tracker window — survives
    /// [`ReportDetail::Compact`] runs where `samples` is a decimated
    /// reservoir.
    pub summary: SampleSummary,
    /// Last globally committed generation (backed runs).
    pub last_committed: Option<u64>,
    /// The recorded write trace (ranks `< trace_ranks` of a
    /// characterization run).
    pub trace: Option<RankTrace>,
    /// Per-tier byte/time accounting (multilevel-redundancy runs).
    pub tier: Option<TierUsage>,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Reached the configured limit.
    Completed,
    /// An injected failure aborted the attempt.
    Failed {
        /// The generation recovery should restore, if any committed.
        recover_from: Option<u64>,
    },
}

/// One recovery decision taken between attempts of a fault-tolerant
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// The (0-based) attempt that failed.
    pub attempt: u32,
    /// The failed rank.
    pub rank: usize,
    /// What kind of failure was injected.
    pub kind: FailureKind,
    /// Which tier served the failed rank's recovery.
    pub source: RecoveryTier,
    /// The generation the cluster rolled back to (`None` = cold
    /// restart).
    pub generation: Option<u64>,
}

/// A whole-cluster run result.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// Number of attempts executed (1 + recoveries), for
    /// fault-tolerant runs.
    pub attempts: u32,
    /// Virtual time burned by failed attempts (work past the last
    /// committed checkpoint that had to be re-executed, plus restore
    /// costs) — the "wasted time" of the availability analysis.
    pub wasted: SimDuration,
    /// One record per failure the run recovered from.
    pub recoveries: Vec<RecoveryRecord>,
    /// Drain accounting of the durable tier (multilevel runs).
    pub drain: Option<DrainStats>,
}

// ---------------------------------------------------------------------
// Characterization runs (the paper's methodology)
// ---------------------------------------------------------------------

/// Configuration of a characterization run.
#[derive(Debug, Clone)]
pub struct CharacterizationConfig {
    /// Number of ranks (the paper's largest configuration is 64).
    pub nranks: usize,
    /// Memory scale factor (1.0 = the paper's footprints).
    pub scale: f64,
    /// Virtual run length; the run stops at the first iteration
    /// boundary at or past this time.
    pub run_for: SimDuration,
    /// Checkpoint timeslice (§6.1); 1 s in most of the paper.
    pub timeslice: SimDuration,
    /// Virtual cost charged per page fault (0 = non-intrusive
    /// measurement).
    pub fault_cost: SimDuration,
    /// Stretch rank clocks by the fault overhead (models the paper's
    /// §6.5 intrusiveness rather than just accounting it).
    pub stretch_overhead: bool,
    /// Epoch length for unique-page accumulation (Table 3), if any.
    pub epoch: Option<SimDuration>,
    /// Record per-iteration ground truth.
    pub track_iterations: bool,
    /// Interconnect model.
    pub net: NetConfig,
    /// Workload seed.
    pub seed: u64,
    /// Record a write trace ([`RankTrace`]) on the first `trace_ranks`
    /// ranks (0 = off). The paper's workloads are bulk-synchronous and
    /// rank-symmetric, so rank 0's trace characterizes the cluster.
    pub trace_ranks: usize,
    /// Flight recorder; disabled by default (zero-cost no-op).
    pub obs: Recorder,
    /// Worker threads stepping the rank state machines. `None` defers
    /// to the `ICKPT_SIM_WORKERS` environment knob, then host
    /// parallelism. Results are byte-identical at any value.
    pub workers: Option<usize>,
    /// Per-rank report retention; [`ReportDetail::Full`] preserves the
    /// historical (pre-compaction) reports exactly.
    pub detail: ReportDetail,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        Self {
            nranks: 4,
            scale: 1.0,
            run_for: SimDuration::from_secs(300),
            timeslice: SimDuration::from_secs(1),
            fault_cost: SimDuration::ZERO,
            stretch_overhead: false,
            epoch: None,
            track_iterations: false,
            net: NetConfig::qsnet(),
            seed: 0x5EED,
            trace_ranks: 0,
            obs: Recorder::disabled(),
            workers: None,
            detail: ReportDetail::Full,
        }
    }
}

impl CharacterizationConfig {
    fn tracker_config(&self, rank: usize) -> TrackerConfig {
        let sample_mode = match self.detail {
            _ if self.detail.rank_is_full(rank, self.trace_ranks) => SampleMode::Full,
            ReportDetail::Compact { reservoir } => SampleMode::Compact { reservoir },
            ReportDetail::Full => SampleMode::Full,
        };
        TrackerConfig {
            timeslice: self.timeslice,
            fault_cost: self.fault_cost,
            track_checkpoint_set: false,
            epoch: self.epoch,
            track_iterations: self.track_iterations,
            record_trace: rank < self.trace_ranks,
            obs: self.obs.clone(),
            obs_rank: rank as u32,
            sample_mode,
        }
    }
}

/// Run a catalog workload under the paper's instrumentation: sparse
/// (metadata-only) spaces, per-timeslice IWS sampling, no actual
/// checkpoint data movement.
pub fn characterize(workload: Workload, cfg: &CharacterizationConfig) -> RunReport {
    let layout = workload.layout(cfg.scale);
    characterize_model(cfg, layout, |rank| {
        Box::new(workload.build(rank, cfg.nranks, cfg.scale, cfg.seed))
    })
}

/// [`characterize`] over an arbitrary model builder.
///
/// # Panics
///
/// When the script cannot complete — a receive nobody sends to, a
/// collective not every rank enters — or the model outgrows `layout`:
/// a characterization workload is a fixed catalog entry, so either is
/// a bug in the model, not a run-time condition.
pub fn characterize_model<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: F,
) -> RunReport
where
    F: Fn(usize) -> Box<dyn AppModel>,
{
    engine::characterize_event(cfg, layout, &build)
}

// ---------------------------------------------------------------------
// Fault-tolerant runs (the system the paper argues is feasible)
// ---------------------------------------------------------------------

/// Topology of the storage path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePath {
    /// Every rank writes over its own device (node-local disks or a
    /// dedicated network lane): checkpoint writes proceed in parallel.
    PerRank,
    /// All ranks contend on one array (a shared parallel filesystem):
    /// writes serialize — in event-wheel order, so a run is reproducible
    /// — and the stall grows with the rank count.
    Shared,
}

/// How a checkpoint stalls the application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointMode {
    /// Classic stop-and-copy: the rank blocks until its chunk is fully
    /// on stable storage. The stall per checkpoint is what the paper's
    /// IB analysis bounds.
    StopAndCopy,
    /// Forked (copy-on-write style, as in libckpt): the rank pays only
    /// a snapshot cost proportional to its footprint, the write
    /// streams out in the background, and the generation *commits* at
    /// the first iteration boundary after every rank's write landed.
    /// A failure before commit rolls back to the previous generation.
    /// Pages the application writes while the write-out is in flight
    /// pay a copy-on-write charge (`cow_copy_ns` per faulted page,
    /// accounted at commit time).
    Forked {
        /// Snapshot cost per mapped page (page-table copy + protect),
        /// nanoseconds.
        fork_cost_per_page_ns: u64,
        /// Copy cost per page first-written during the write-out
        /// window (the COW duplication), nanoseconds.
        cow_copy_ns: u64,
    },
}

/// What an injected failure destroys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The process dies but the node survives: its node-local
    /// checkpoint tier is intact and recovery restores in place.
    Process,
    /// The whole node is lost: the rank's node-local tier is wiped and
    /// recovery must reconstruct from redundancy peers or fall back to
    /// the durable tier. Without a [`RedundancyConfig`] there is no
    /// node-local tier, so this behaves like [`FailureKind::Process`].
    NodeLoss,
}

/// An injected failure: the given rank votes FAIL at the first
/// iteration boundary at or past `at`.
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    /// Failing rank.
    pub rank: usize,
    /// Virtual time of the failure.
    pub at: SimTime,
    /// What the failure destroys.
    pub kind: FailureKind,
}

impl FailureSpec {
    /// A process failure (node-local storage survives).
    pub fn process(rank: usize, at: SimTime) -> Self {
        Self { rank, at, kind: FailureKind::Process }
    }

    /// A node loss (node-local storage wiped with the node).
    pub fn node_loss(rank: usize, at: SimTime) -> Self {
        Self { rank, at, kind: FailureKind::NodeLoss }
    }
}

/// Multilevel redundant storage for a fault-tolerant run: checkpoints
/// land on per-rank node-local stores, are protected across nodes by
/// `scheme`, and every `drain_every`-th generation is drained to the
/// shared array ([`FaultTolerantConfig::store`] +
/// [`FaultTolerantConfig::device`]) in the background.
#[derive(Debug, Clone, Copy)]
pub struct RedundancyConfig {
    /// Cross-node protection of the node-local tier.
    pub scheme: SchemeSpec,
    /// Device model of the node-local tier.
    pub local_device: DevicePreset,
    /// Drain every k-th committed generation to the shared array.
    pub drain_every: u64,
    /// How drain traffic is charged on the shared array:
    /// [`DrainTopology::Flat`] (one transfer per rank, the historical
    /// behaviour) or [`DrainTopology::Tree`] (one batched transfer per
    /// aggregator group — SCR-style I/O forwarding, which matters once
    /// per-transfer array latency is multiplied by 16k ranks).
    pub drain_topology: DrainTopology,
}

/// Configuration of a fault-tolerant run.
pub struct FaultTolerantConfig {
    /// Number of ranks.
    pub nranks: usize,
    /// Stop after this many iterations.
    pub max_iterations: u64,
    /// Checkpoint timeslice for the tracker.
    pub timeslice: SimDuration,
    /// Checkpoint policy (interval + full/incremental lineage).
    pub policy: CheckpointPolicy,
    /// Stable storage shared by all ranks.
    pub store: Arc<dyn StableStorage>,
    /// Per-rank storage path device (disk or network, §3).
    pub device: DevicePreset,
    /// Stall behaviour of checkpoints.
    pub mode: CheckpointMode,
    /// Whether the storage device is per-rank or shared.
    pub storage_path: StoragePath,
    /// Injected failures: attempt `i` (0-based) triggers
    /// `failures[i]`; attempts beyond the list run failure-free.
    pub failures: Vec<FailureSpec>,
    /// Interconnect model.
    pub net: NetConfig,
    /// Safety valve on recovery attempts.
    pub max_attempts: u32,
    /// Multilevel redundant storage; `None` = single-tier writes
    /// straight to [`FaultTolerantConfig::store`] (the pre-existing
    /// behaviour).
    pub redundancy: Option<RedundancyConfig>,
    /// Flight recorder; [`Recorder::disabled`] makes every emit a
    /// no-op branch on a `None`.
    pub obs: Recorder,
    /// Content dedup + delta encoding override: `None` defers to the
    /// `ICKPT_DEDUP` environment knob, `Some(b)` forces it per run so
    /// experiments can compare effective vs dirty IB side by side.
    pub dedup: Option<bool>,
    /// How versioned touches materialize bytes on the backed spaces
    /// ([`WriteProfile::Uniform`] keeps the historical whole-page
    /// rewrite; [`WriteProfile::Scientific`] mixes in silent stores
    /// and sub-page updates for content-layer studies).
    pub write_profile: WriteProfile,
}

/// Run a model fleet with coordinated checkpointing and recovery on
/// content-backed spaces. `build(rank)` constructs the model; `layout`
/// must fit it.
///
/// # Errors
///
/// Storage, restore and memory-model failures, and — instead of a hang
/// or a panic — a script that cannot complete
/// ([`RunError::Net`]: the engine's wheel drained with ranks still
/// blocked).
pub fn run_fault_tolerant<F>(
    cfg: &FaultTolerantConfig,
    layout: DataLayout,
    build: F,
) -> Result<RunReport, RunError>
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    assert!(cfg.max_attempts >= 1);
    // Every `ICKPT_*` knob of the run is read here, once: a malformed
    // value exits 2 before any rank has started. Capture and restore
    // run serially inside each rank: the engine's worker pool is the
    // run's one level of host parallelism.
    let mut capture = CaptureConfig::from_env();
    if let Some(dedup) = cfg.dedup {
        capture.dedup = dedup;
    }
    capture.obs = cfg.obs.clone();
    let knobs = Knobs {
        capture,
        params: FtParams { mode: cfg.mode, timeslice: cfg.timeslice },
        workers: engine::resolve_workers(None),
    };
    // The tier topology outlives attempts: node-local data survives a
    // process restart (that survival is the whole point of the tier),
    // and NodeLoss wipes exactly one rank's local store below.
    let topo = cfg.redundancy.as_ref().map(|r| {
        TierTopology::new(
            cfg.nranks,
            r.scheme,
            r.local_device.build(),
            cfg.net.build_nic(),
            cfg.device.build(),
            cfg.store.clone(),
            r.drain_every,
            r.drain_topology,
            cfg.obs.clone(),
        )
    });
    cfg.obs.emit(Lane::Run, SimTime::ZERO, Event::RunStart { ranks: cfg.nranks as u32 });
    let mut attempt = 0u32;
    let mut resume_from: Option<u64> = None;
    let mut wasted = SimDuration::ZERO;
    let mut recoveries = Vec::new();
    // Capture buffers survive attempts: a rollback reuses the failed
    // attempt's allocations instead of re-growing them.
    let mut scratch: Vec<CaptureScratch> = Vec::new();
    scratch.resize_with(cfg.nranks, CaptureScratch::new);
    loop {
        let report = ft_attempt(
            cfg,
            layout,
            &build,
            resume_from,
            attempt,
            topo.as_ref(),
            &knobs,
            &mut scratch,
        )?;
        attempt += 1;
        match report.outcome {
            RunOutcome::Completed => {
                let drain = topo.as_ref().map(|t| t.drain_stats());
                return Ok(RunReport { attempts: attempt, wasted, recoveries, drain, ..report });
            }
            RunOutcome::Failed { recover_from } => {
                let r0 = &report.ranks[0];
                let fail_time = r0.final_time;
                let failure = cfg.failures.get(attempt as usize - 1).copied();
                if let Some(f) = failure {
                    cfg.obs.emit(
                        Lane::Run,
                        fail_time,
                        Event::Failure {
                            rank: f.rank as u32,
                            node_loss: (f.kind == FailureKind::NodeLoss) as u32,
                        },
                    );
                }
                let resume = match failure {
                    Some(f) => {
                        let plan = match &topo {
                            // Tiered: wipe the lost node's local tier,
                            // plan where the failed rank's data comes
                            // from, and roll in-flight drains back out
                            // of the shared array.
                            Some(topo) => {
                                let wiped = f.kind == FailureKind::NodeLoss;
                                if wiped {
                                    topo.wipe_local(f.rank)?;
                                }
                                let plan =
                                    topo.plan_recovery(f.rank, wiped, recover_from, fail_time);
                                topo.rollback_drain(plan.generation, fail_time)?;
                                plan
                            }
                            // Single-tier: every restore is served by
                            // the (durable) shared store.
                            None => RecoveryPlan::durable(recover_from),
                        };
                        cfg.obs.emit(
                            Lane::Run,
                            fail_time,
                            Event::RecoveryPlan {
                                rank: f.rank as u32,
                                tier: plan.source,
                                generation: plan.generation.unwrap_or(0),
                            },
                        );
                        recoveries.push(RecoveryRecord {
                            attempt: attempt - 1,
                            rank: f.rank,
                            kind: f.kind,
                            source: plan.source,
                            generation: plan.generation,
                        });
                        plan.generation
                    }
                    None => recover_from,
                };
                // The rollback throws away everything computed after
                // the restored checkpoint's capture instant (the next
                // attempt also pays the restore read on top, which
                // lands inside this same window once it resumes).
                let preserved_until = match resume {
                    Some(gen) => {
                        let chunk_data = match &topo {
                            Some(t) => t.fetch_chunk_untimed(ChunkKey::new(0, gen))?,
                            None => cfg.store.read_chunk(ChunkKey::new(0, gen))?,
                        };
                        SimTime(ChunkView::decode(&chunk_data)?.capture_time_ns)
                    }
                    None => SimTime::ZERO,
                };
                wasted += r0.final_time.saturating_sub(preserved_until);
                if attempt >= cfg.max_attempts {
                    let drain = topo.as_ref().map(|t| t.drain_stats());
                    return Ok(RunReport {
                        attempts: attempt,
                        wasted,
                        recoveries,
                        drain,
                        ..report
                    });
                }
                // No usable generation anywhere → restart from scratch
                // (the classic cold restart); otherwise roll back.
                resume_from = resume;
            }
        }
    }
}

/// What [`run_fault_tolerant`] resolved from the environment at entry.
struct Knobs {
    capture: CaptureConfig,
    params: FtParams,
    workers: usize,
}

/// One attempt: every rank runs from `init` (or from the rollback
/// restore of `resume_from`) to the STOP or FAIL vote, on the engine.
#[allow(clippy::too_many_arguments)]
fn ft_attempt<F>(
    cfg: &FaultTolerantConfig,
    layout: DataLayout,
    build: &F,
    resume_from: Option<u64>,
    attempt: u32,
    topo: Option<&Arc<TierTopology>>,
    knobs: &Knobs,
    scratch: &mut [CaptureScratch],
) -> Result<RunReport, RunError>
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    let ctx = EngineCtx {
        net: &cfg.net,
        nranks: cfg.nranks,
        run_for: SimDuration(u64::MAX / 4),
        max_iterations: Some(cfg.max_iterations),
        stretch_overhead: false,
        obs: &cfg.obs,
        ft: Some(&knobs.params),
    };
    let failure = cfg.failures.get(attempt as usize).copied();
    // One shared array for every rank, or None for per-rank paths.
    // Tiered runs charge the array through the drain instead.
    let array = (topo.is_none() && matches!(cfg.storage_path, StoragePath::Shared))
        .then(|| shared_device(cfg.device.build()));
    let mut sms: Vec<Mutex<RankSm<BackedSpace>>> = (0..cfg.nranks)
        .map(|rank| {
            let rank_lane = Lane::Rank(rank as u32);
            let tstore = match (topo, &array) {
                (Some(t), _) => CkptStore::Tiered(t.handle(rank)),
                // Every rank queues on the one array; the engine makes
                // these calls from its serial phase, in wheel order.
                (None, Some(dev)) => CkptStore::Flat(
                    ThrottledStore::with_shared_device(cfg.store.clone(), dev.clone()).observed(
                        cfg.obs.clone(),
                        rank_lane,
                        Lane::Device(DeviceKind::Array, 0),
                    ),
                ),
                (None, None) => CkptStore::Flat(
                    ThrottledStore::new(cfg.store.clone(), cfg.device.build()).observed(
                        cfg.obs.clone(),
                        rank_lane,
                        Lane::Device(DeviceKind::Storage, rank as u32),
                    ),
                ),
            };
            let mut capture = knobs.capture.clone();
            capture.obs_rank = rank as u32;
            let ft = FtRank::new(
                CheckpointPlanner::new(cfg.policy, SimTime::ZERO),
                tstore,
                array.is_some(),
                failure.and_then(|f| (f.rank == rank).then_some(f.at)),
                resume_from,
                capture,
                std::mem::take(&mut scratch[rank]),
            );
            let mut space = BackedSpace::new(layout);
            space.set_write_profile(cfg.write_profile);
            let tracker = WriteTracker::new(
                layout.capacity_pages(),
                space.mapped_pages(),
                knobs.params.tracker_config(&cfg.obs, rank),
            );
            let nic = cfg.net.build_nic();
            Mutex::new(RankSm::new(rank, space, tracker, build(rank), nic, Some(ft)))
        })
        .collect();
    engine::run(&ctx, &mut sms, knobs.workers)?;

    let mut failed = false;
    let ranks: Vec<RankReport> = sms
        .into_iter()
        .map(|m| {
            let sm = m.into_inner().expect(engine::POISON);
            let (mut report, ft) = sm.into_report();
            let ft = ft.expect("fault-tolerant ranks carry checkpoint state");
            failed |= ft.failed;
            scratch[report.rank] = ft.scratch;
            report.tier = topo.map(|t| t.usage(report.rank));
            report
        })
        .collect();
    // All ranks agree on the outcome via the vote; use rank 0.
    let outcome = if failed {
        RunOutcome::Failed { recover_from: ranks[0].last_committed }
    } else {
        RunOutcome::Completed
    };
    Ok(RunReport {
        outcome,
        ranks,
        attempts: 1,
        wasted: SimDuration::ZERO,
        recoveries: Vec::new(),
        drain: None,
    })
}
