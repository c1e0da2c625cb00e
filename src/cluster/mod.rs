//! The cluster runner: application models on rank threads over virtual
//! time, with write tracking, coordinated checkpointing, failure
//! injection and rollback recovery.
//!
//! Two entry points:
//!
//! * [`characterize`] — the paper's methodology (§4): run a workload on
//!   a metadata-only [`SparseSpace`] per rank with the write tracker
//!   sampling every timeslice. This is what regenerates every table and
//!   figure, and it scales to the full 64-rank, 1 GB/process
//!   configurations because no page contents exist.
//! * [`run_fault_tolerant`] — the system the paper argues is feasible:
//!   content-backed spaces, coordinated incremental checkpoints at
//!   iteration boundaries (§6.2), failure injection, and global
//!   rollback recovery with byte-exact restoration.
//!
//! ## Execution model
//!
//! Each rank is a real thread with a virtual clock. Compute steps are
//! sliced at timeslice boundaries so the tracker's alarm sees exactly
//! the pages a real run would dirty per window; sends compute arrival
//! times analytically; receives jump the clock to
//! `max(local, arrival)` plus the bounce-buffer copy (which dirties the
//! destination pages, §4.2); collectives rendezvous on the
//! participants' clocks. The result is bit-for-bit deterministic.
//!
//! At every iteration boundary the ranks already synchronize, so the
//! runner piggybacks a vote word on that allreduce: STOP (run limit
//! reached), FAIL (injected failure), CHECKPOINT (interval elapsed).
//! The OR of the votes is the global decision — the coordinated
//! checkpoint costs no extra communication rounds, exactly the
//! opportunity §6.2 identifies.

mod engine;
pub mod report;
pub mod tenant;

pub use report::{reduce_reports, ClusterAggregate, ReportDetail, DEFAULT_REDUCE_ARITY};
pub use tenant::{fleet_profiles, mixed_fleet, TenantHandle, TenantStall, TenantStallAccount};

use std::sync::{Arc, Mutex};

use ickpt_apps::codec::{ByteReader, ByteWriter};
use ickpt_apps::step::{AppModel, Step};
use ickpt_apps::Workload;
use ickpt_core::checkpoint::{
    capture_full_with, capture_incremental_with, CaptureConfig, CaptureScratch, ContentStats,
};
use ickpt_core::coordinator::{CheckpointPlanner, CheckpointPolicy, VoteFlags};
use ickpt_core::metrics::{IwsSample, SampleSummary};
use ickpt_core::restore::{
    latest_committed_generation, record_restore, restore_rank_with, RestoreConfig,
};
use ickpt_core::trace::RankTrace;
use ickpt_core::tracked_space::{ContentWrite, TrackedSpace};
use ickpt_core::tracker::{EpochSample, IterationSample, SampleMode, TrackerConfig, WriteTracker};
use ickpt_mem::{
    pages_for_bytes, AddressSpace, BackedSpace, DataLayout, PageRange, SparseSpace, WriteProfile,
};
use ickpt_net::comm::Endpoint;
use ickpt_net::{CommWorld, NetConfig};
use ickpt_obs::{DeviceKind, Event, Lane, ObsSummary, Recorder, RecoveryTier};
use ickpt_sim::rendezvous::Combine;
use ickpt_sim::{DevicePreset, SimDuration, SimTime, WorkerGate};
use ickpt_storage::{
    shared_device, ChunkKey, ChunkKind, ChunkView, DrainStats, DrainTopology, Manifest, RankEntry,
    RecoverySource, SchemeSpec, StableStorage, StorageError, ThrottledStore, TierTopology,
    TierUsage, TieredStore,
};

/// Error from a cluster run.
#[derive(Debug)]
pub enum RunError {
    /// Networking failure (usually a mismatched send/recv script).
    Net(ickpt_net::NetError),
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

impl From<ickpt_net::NetError> for RunError {
    fn from(e: ickpt_net::NetError) -> Self {
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

/// The clock pair of one iteration-boundary allreduce, with the exact
/// counter values at that instant — everything a derived (re-binned)
/// run report needs to reconstruct the end state of a shorter run that
/// would have stopped at this boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryRecord {
    /// Rank clock entering the boundary (the instant the STOP vote is
    /// computed against `run_for`).
    pub pre: SimTime,
    /// Rank clock after the boundary allreduce completed — the final
    /// time of a run that stops here.
    pub post: SimTime,
    /// Mapped footprint at the boundary, in pages.
    pub footprint_pages: u64,
    /// Cumulative page faults up to the boundary.
    pub total_faults: u64,
    /// Cumulative fault-handling overhead up to the boundary.
    pub overhead: SimDuration,
    /// Cumulative bytes received (messages + collectives, including
    /// this boundary's allreduce) up to the boundary.
    pub bytes_received: u64,
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
    /// Clock pairs and counter snapshots of every iteration boundary,
    /// in order — the stop-time oracle for trace re-binning.
    pub boundaries: Vec<BoundaryRecord>,
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
    pub source: RecoverySource,
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
    /// Flight-recorder aggregates, when the run carried an enabled
    /// [`Recorder`] (utilization, stalls, drain depth, recovery paths).
    pub obs: Option<ObsSummary>,
}

/// Summarize the run's flight-recorder contents (all groups the
/// recorder's sink has seen), or `None` when observability is off.
fn summarize_obs(obs: &Recorder) -> Option<ObsSummary> {
    obs.flight_recorder().map(|fr| ObsSummary::from_snapshot(&fr.snapshot()))
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
    /// rank-symmetric, so rank 0's trace characterizes the cluster;
    /// property tests trace every rank.
    pub trace_ranks: usize,
    /// Flight recorder; disabled by default (zero-cost no-op).
    pub obs: Recorder,
    /// Worker threads stepping the rank state machines (event engine)
    /// or executing gated rank threads (threaded path). `None` defers
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
/// Dispatches to the event-driven engine ([`engine`]) by default; set
/// `ICKPT_SIM_ENGINE=threaded` to force the legacy one-thread-per-rank
/// reference path. Both produce byte-identical reports (the property
/// suite pins this), but only the engine scales to tens of thousands
/// of ranks.
pub fn characterize_model<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: F,
) -> RunReport
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    let threaded = std::env::var("ICKPT_SIM_ENGINE").is_ok_and(|v| v.trim() == "threaded");
    if threaded {
        characterize_model_threaded(cfg, layout, build)
    } else {
        engine::characterize_event(cfg, layout, &build)
    }
}

/// The legacy one-thread-per-rank characterization path, kept as the
/// independent reference implementation the event engine is checked
/// against. A [`WorkerGate`] caps how many rank threads *execute*
/// concurrently (permits from [`CharacterizationConfig::workers`]);
/// every blocking wait inside [`Endpoint`] releases the permit, so the
/// cap cannot deadlock and virtual-time results are unchanged.
pub fn characterize_model_threaded<F>(
    cfg: &CharacterizationConfig,
    layout: DataLayout,
    build: F,
) -> RunReport
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    let world = CommWorld::new(cfg.nranks, cfg.net.clone());
    let endpoints = world.endpoints();
    cfg.obs.emit(Lane::Run, SimTime::ZERO, Event::RunStart { ranks: cfg.nranks as u32 });
    let params = RunParams {
        run_for: cfg.run_for,
        max_iterations: None,
        stretch_overhead: cfg.stretch_overhead,
        obs: cfg.obs.clone(),
    };
    let gate = Arc::new(WorkerGate::new(engine::resolve_workers(cfg.workers)));
    let reports: Vec<RankReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, mut ep)| {
                let build = &build;
                let params = &params;
                let tcfg = cfg.tracker_config(rank);
                let gate = gate.clone();
                scope.spawn(move || -> Result<RankReport, RunError> {
                    ep.set_worker_gate(gate.clone());
                    let _permit = gate.permit();
                    let mut space = SparseSpace::new(layout);
                    let tracker =
                        WriteTracker::new(layout.capacity_pages(), space.mapped_pages(), tcfg);
                    let model = build(rank);
                    let mut runner = RankRunner::new(
                        rank,
                        &mut space,
                        tracker,
                        ep,
                        model,
                        SimTime::ZERO,
                        None,
                        None,
                        params,
                    );
                    runner.run_init()?;
                    let (failed, _) = runner.run_loop()?;
                    debug_assert!(!failed);
                    Ok(runner.into_report(None))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|e| panic!("characterization run failed: {e}"))
    });
    RunReport {
        outcome: RunOutcome::Completed,
        ranks: reports,
        attempts: 1,
        wasted: SimDuration::ZERO,
        recoveries: Vec::new(),
        drain: None,
        obs: summarize_obs(&cfg.obs),
    }
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
    /// writes serialize, so the stall grows with the rank count.
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

impl RedundancyConfig {
    /// SCR-style defaults: partner replication on the neighbour node
    /// over a RAM-disk-class local tier, draining every 4th generation.
    pub fn partner() -> Self {
        Self {
            scheme: SchemeSpec::Partner { offset: 1 },
            local_device: DevicePreset::NodeLocal,
            drain_every: 4,
            drain_topology: DrainTopology::Flat,
        }
    }
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
pub fn run_fault_tolerant<F>(
    cfg: &FaultTolerantConfig,
    layout: DataLayout,
    build: F,
) -> Result<RunReport, RunError>
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    assert!(cfg.max_attempts >= 1);
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
        )
    });
    if let Some(t) = &topo {
        t.attach_obs(cfg.obs.clone());
        if let Some(r) = &cfg.redundancy {
            t.set_drain_topology(r.drain_topology);
        }
    }
    cfg.obs.emit(Lane::Run, SimTime::ZERO, Event::RunStart { ranks: cfg.nranks as u32 });
    let mut attempt = 0u32;
    let mut resume_from: Option<u64> = None;
    let mut wasted = SimDuration::ZERO;
    let mut recoveries = Vec::new();
    // Capture buffers survive attempts: a rollback re-leases the failed
    // attempt's allocations instead of re-growing them.
    let arena = Arc::new(RankArena::new());
    loop {
        let report = ft_attempt(cfg, layout, &build, resume_from, attempt, topo.as_ref(), &arena)?;
        attempt += 1;
        match report.outcome {
            RunOutcome::Completed => {
                let drain = topo.as_ref().map(|t| t.drain_stats());
                let obs = summarize_obs(&cfg.obs);
                return Ok(RunReport {
                    attempts: attempt,
                    wasted,
                    recoveries,
                    drain,
                    obs,
                    ..report
                });
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
                // Tiered recovery: wipe the lost node's local tier,
                // plan where the failed rank's data comes from, and
                // roll in-flight drains back out of the shared array.
                let resume = match (&topo, failure) {
                    (Some(topo), Some(f)) => {
                        let wiped = f.kind == FailureKind::NodeLoss;
                        if wiped {
                            topo.wipe_local(f.rank)?;
                        }
                        let plan = topo.plan_recovery(f.rank, wiped, recover_from, fail_time);
                        topo.rollback_drain(plan.generation, fail_time)?;
                        cfg.obs.emit(
                            Lane::Run,
                            fail_time,
                            Event::RecoveryPlan {
                                rank: f.rank as u32,
                                tier: plan.source.obs_tier(),
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
                    _ => {
                        if let Some(f) = failure {
                            // Single-tier: every restore is served by
                            // the (durable) shared store.
                            let tier = if recover_from.is_some() {
                                RecoveryTier::Durable
                            } else {
                                RecoveryTier::ColdRestart
                            };
                            cfg.obs.emit(
                                Lane::Run,
                                fail_time,
                                Event::RecoveryPlan {
                                    rank: f.rank as u32,
                                    tier,
                                    generation: recover_from.unwrap_or(0),
                                },
                            );
                            recoveries.push(RecoveryRecord {
                                attempt: attempt - 1,
                                rank: f.rank,
                                kind: f.kind,
                                source: RecoverySource::Durable,
                                generation: recover_from,
                            });
                        }
                        recover_from
                    }
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
                    let obs = summarize_obs(&cfg.obs);
                    return Ok(RunReport {
                        attempts: attempt,
                        wasted,
                        recoveries,
                        drain,
                        obs,
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

#[allow(clippy::too_many_arguments)]
fn ft_attempt<F>(
    cfg: &FaultTolerantConfig,
    layout: DataLayout,
    build: &F,
    resume_from: Option<u64>,
    attempt: u32,
    topo: Option<&Arc<TierTopology>>,
    arena: &Arc<RankArena>,
) -> Result<RunReport, RunError>
where
    F: Fn(usize) -> Box<dyn AppModel> + Sync,
{
    let world = CommWorld::new(cfg.nranks, cfg.net.clone());
    let endpoints = world.endpoints();
    // Cap host-thread fan-out exactly as the characterization paths do;
    // blocking waits release the permit, so the cap cannot deadlock.
    let gate = Arc::new(WorkerGate::new(engine::resolve_workers(None)));
    let params = RunParams {
        run_for: SimDuration(u64::MAX / 4),
        max_iterations: Some(cfg.max_iterations),
        stretch_overhead: false,
        obs: cfg.obs.clone(),
    };
    let failure = cfg.failures.get(attempt as usize).copied();
    // One shared array for every rank, or None for per-rank paths.
    // Tiered runs charge the array through the drain instead.
    let array = (topo.is_none() && matches!(cfg.storage_path, StoragePath::Shared))
        .then(|| shared_device(cfg.device.build()));
    let results: Vec<Result<(RankReport, bool), RunError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, mut ep)| {
                let params = &params;
                let store = cfg.store.clone();
                let policy = cfg.policy;
                let device = cfg.device;
                let timeslice = cfg.timeslice;
                let mode = cfg.mode;
                let array = array.clone();
                let topo = topo.cloned();
                let obs = cfg.obs.clone();
                let gate = gate.clone();
                let arena = arena.clone();
                scope.spawn(move || -> Result<(RankReport, bool), RunError> {
                    ep.set_worker_gate(gate.clone());
                    let _permit = gate.permit();
                    let tcfg = TrackerConfig {
                        timeslice,
                        fault_cost: SimDuration::ZERO,
                        track_checkpoint_set: true,
                        epoch: None,
                        track_iterations: false,
                        record_trace: false,
                        obs: obs.clone(),
                        obs_rank: rank as u32,
                        sample_mode: SampleMode::Full,
                    };
                    let mut space = BackedSpace::new(layout);
                    space.set_write_profile(cfg.write_profile);
                    let mut model = build(rank);
                    let mut clock = SimTime::ZERO;
                    let mut planner = CheckpointPlanner::new(policy, SimTime::ZERO);
                    let tstore = match &topo {
                        Some(t) => CkptStore::Tiered(t.handle(rank)),
                        None => CkptStore::Flat(match array {
                            // Shared-array contention resolves in host
                            // thread arrival order, so queue waits are
                            // not virtual-time deterministic; that leg
                            // stays uninstrumented to keep trace
                            // exports byte-stable across thread counts.
                            Some(dev) => ThrottledStore::with_shared_device(store.clone(), dev),
                            None => ThrottledStore::new(store.clone(), device.build()).observed(
                                obs.clone(),
                                Lane::Rank(rank as u32),
                                Lane::Device(DeviceKind::Storage, rank as u32),
                            ),
                        }),
                    };
                    let mut skip_init = false;
                    if let Some(gen) = resume_from {
                        // Rollback recovery: restore memory, model
                        // state and clock from the committed
                        // generation. The manifest read and the chain
                        // reads go through the same bandwidth-modelled
                        // path as checkpoint writes (tiered recovery:
                        // local, then peer reconstruction, then the
                        // shared array), so restart cost uses the
                        // paper's device model.
                        let (restore_report, read_cost) = match &tstore {
                            CkptStore::Tiered(_) => {
                                let t = topo.as_ref().expect("tiered store implies topology");
                                let reader = t.reader(rank, SimTime::ZERO);
                                validate_manifest(&reader.get_manifest(gen)?, gen, cfg.nranks)?;
                                let report = restore_rank_with(
                                    &reader,
                                    rank as u32,
                                    gen,
                                    &mut space,
                                    &RestoreConfig::from_env(),
                                )?;
                                let cost = reader.now().saturating_sub(SimTime::ZERO);
                                t.note_recovery_time(rank, cost);
                                (report, cost)
                            }
                            CkptStore::Flat(ts) => {
                                let (mdata, t0) = ts.get_manifest_timed(SimTime::ZERO, gen)?;
                                validate_manifest(&mdata, gen, cfg.nranks)?;
                                let reader = ts.timed_reads(t0);
                                let report = restore_rank_with(
                                    &reader,
                                    rank as u32,
                                    gen,
                                    &mut space,
                                    &RestoreConfig::from_env(),
                                )?;
                                (report, reader.now().saturating_sub(SimTime::ZERO))
                            }
                        };
                        record_restore(
                            &obs,
                            rank as u32,
                            SimTime::ZERO,
                            SimTime::ZERO + read_cost,
                            &restore_report,
                        );
                        let mut blob = ByteReader::new(&restore_report.app_state);
                        let model_state = blob
                            .get_bytes()
                            .map_err(|_| {
                                ickpt_storage::StorageError::Corrupt("bad app state".into())
                            })?
                            .to_vec();
                        let digest = blob.get_u64().map_err(|_| {
                            ickpt_storage::StorageError::Corrupt("missing digest".into())
                        })?;
                        // Restore self-check: the rebuilt image must
                        // hash to what was captured.
                        if space.content_digest() != digest {
                            return Err(ickpt_storage::StorageError::Corrupt(format!(
                                "rank {rank}: restored image digest mismatch at generation {gen}"
                            ))
                            .into());
                        }
                        model.restore_state(&model_state).map_err(|_| {
                            ickpt_storage::StorageError::Corrupt("bad app state".into())
                        })?;
                        clock = SimTime(restore_report.capture_time_ns) + read_cost;
                        planner.resume_after(gen, clock);
                        skip_init = true;
                    }
                    let mut tracker =
                        WriteTracker::new(layout.capacity_pages(), space.mapped_pages(), tcfg);
                    // Alarms continue on the absolute virtual clock.
                    tracker.advance_to(clock);
                    let ckpt = RankCheckpointer {
                        rank,
                        nranks: cfg.nranks,
                        planner,
                        tstore,
                        mode,
                        pending: None,
                        bytes_written: 0,
                        count: 0,
                        stall: SimDuration::ZERO,
                        commit_lag: SimDuration::ZERO,
                        capture_cfg: {
                            let mut c = CaptureConfig::from_env();
                            if let Some(dedup) = cfg.dedup {
                                c.dedup = dedup;
                            }
                            c.obs = obs.clone();
                            c.obs_rank = rank as u32;
                            c
                        },
                        scratch: arena.acquire(),
                        arena: Some(arena),
                        content: ContentStats::default(),
                        obs,
                    };
                    let mut runner = RankRunner::new(
                        rank,
                        &mut space,
                        tracker,
                        ep,
                        model,
                        clock,
                        failure.and_then(|f| (f.rank == rank).then_some(f.at)),
                        Some(ckpt),
                        params,
                    );
                    if !skip_init {
                        runner.run_init()?;
                    }
                    let (failed, last_committed) = runner.run_loop()?;
                    let digest = runner.space.content_digest();
                    let mut report = runner.into_report(Some(digest));
                    report.last_committed = last_committed;
                    Ok((report, failed))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    let mut ranks = Vec::with_capacity(cfg.nranks);
    let mut failed = false;
    for r in results {
        let (report, rank_failed) = r?;
        failed |= rank_failed;
        ranks.push(report);
    }
    if let Some(t) = topo {
        for (rank, report) in ranks.iter_mut().enumerate() {
            report.tier = Some(t.usage(rank));
        }
    }
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
        obs: None,
    })
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

// ---------------------------------------------------------------------
// The per-rank execution engine
// ---------------------------------------------------------------------

/// A rank's write path to stable storage: either the single-tier
/// throttled store or a handle into the multilevel [`TierTopology`].
enum CkptStore {
    Flat(ThrottledStore),
    Tiered(TieredStore),
}

impl CkptStore {
    fn put_chunk_timed(
        &self,
        now: SimTime,
        key: ChunkKey,
        data: &[u8],
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
}

struct RunParams {
    run_for: SimDuration,
    max_iterations: Option<u64>,
    stretch_overhead: bool,
    obs: Recorder,
}

/// Pool of per-rank capture scratch buffers shared across the attempts
/// of a fault-tolerant run: rank threads of attempt N+1 reuse the
/// capture/encode allocations of attempt N instead of re-growing them
/// from zero. Leases reset the dedup baseline, preserving the
/// "fresh index after rollback" invariant a per-attempt
/// `CaptureScratch::new()` provided — a recycled scratch is
/// behaviourally indistinguishable from a fresh one.
pub struct RankArena {
    pool: Mutex<Vec<CaptureScratch>>,
}

impl RankArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self { pool: Mutex::new(Vec::new()) }
    }

    /// Lease a scratch (recycled when available, fresh otherwise).
    pub fn acquire(&self) -> CaptureScratch {
        let mut scratch = self.pool.lock().expect("arena poisoned").pop().unwrap_or_default();
        scratch.dedup_index().reset();
        scratch
    }

    /// Return a scratch to the pool for the next lease.
    pub fn release(&self, scratch: CaptureScratch) {
        self.pool.lock().expect("arena poisoned").push(scratch);
    }

    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.pool.lock().expect("arena poisoned").len()
    }
}

impl Default for RankArena {
    fn default() -> Self {
        Self::new()
    }
}

/// A checkpoint written but not yet globally committed (forked mode).
struct PendingCommit {
    generation: u64,
    kind: ChunkKind,
    parent: Option<u64>,
    write_done: SimTime,
    payload: u64,
    /// Tracker fault count at capture: faults taken since then are
    /// (an upper bound on) the pages needing COW duplication.
    faults_at_capture: u64,
}

/// Per-rank checkpoint machinery (backed runs only).
struct RankCheckpointer {
    rank: usize,
    nranks: usize,
    planner: CheckpointPlanner,
    tstore: CkptStore,
    mode: CheckpointMode,
    pending: Option<PendingCommit>,
    bytes_written: u64,
    count: u64,
    /// Total virtual time the application was stalled by checkpoints.
    stall: SimDuration,
    /// Total lag between capture and global commit.
    commit_lag: SimDuration,
    /// Capture tuning (worker count from `ICKPT_CAPTURE_WORKERS`).
    capture_cfg: CaptureConfig,
    /// Recycled capture/encode buffers: steady-state checkpoints are
    /// allocation-free. Also owns the dedup baseline; leases from the
    /// [`RankArena`] reset the index, so a rollback can never reuse a
    /// stale baseline (the index starts fully invalid after every
    /// recovery).
    scratch: CaptureScratch,
    /// Arena the scratch returns to when this checkpointer drops.
    arena: Option<Arc<RankArena>>,
    /// Run totals of the content layer (silent-same drops, deltas).
    content: ContentStats,
    /// Flight recorder (stall spans + commit instants on this rank's
    /// lane).
    obs: Recorder,
}

impl Drop for RankCheckpointer {
    fn drop(&mut self) {
        if let Some(arena) = &self.arena {
            arena.release(std::mem::take(&mut self.scratch));
        }
    }
}

impl RankCheckpointer {
    fn take(
        &mut self,
        space: &BackedSpace,
        tracker: &mut WriteTracker,
        ep: &mut Endpoint,
        model: &dyn AppModel,
        now: SimTime,
    ) -> Result<SimTime, RunError> {
        debug_assert!(self.pending.is_none(), "pending commit must settle before a new capture");
        let planned = self.planner.plan(now);
        // Pages unmapped since the last capture invalidate the dedup
        // baseline: their records may leave the chain, and a remapped
        // page must never silently match hashes from a previous
        // mapping epoch. (A full capture resets the whole index, but
        // the churn set still has to be drained.)
        if self.capture_cfg.dedup {
            for range in tracker.take_churn_set() {
                self.scratch.dedup_index().invalidate(range);
            }
        }
        let mut chunk = match planned.kind {
            ChunkKind::Full => {
                // A fresh base supersedes the pending dirty set.
                let _ = tracker.take_checkpoint_set();
                capture_full_with(
                    space,
                    self.rank as u32,
                    planned.generation,
                    now,
                    &self.capture_cfg,
                    &mut self.scratch,
                )
            }
            ChunkKind::Incremental => {
                let dirty = tracker.take_checkpoint_set();
                capture_incremental_with(
                    space,
                    self.rank as u32,
                    planned.generation,
                    planned.parent.expect("incremental has parent"),
                    now,
                    &dirty,
                    &self.capture_cfg,
                    &mut self.scratch,
                )
            }
        };
        self.content.merge(self.scratch.last_content());
        // The app-state blob carries the model state plus a digest of
        // the captured image, so restores are self-verifying.
        let mut blob = ByteWriter::new();
        blob.put_bytes(&model.save_state());
        blob.put_u64(space.content_digest());
        chunk.app_state = blob.into_vec();
        let payload = chunk.payload_bytes();
        let encoded = self.scratch.encode_reusing(&chunk);
        let encoded_len = encoded.len() as u64;
        // Every rank streams its chunk to stable storage over its own
        // (bandwidth-limited) path.
        let write_done = self.tstore.put_chunk_timed(
            now,
            ChunkKey::new(self.rank as u32, planned.generation),
            encoded,
        )?;
        // Return the chunk's buffers to the pool for the next capture.
        self.scratch.recycle(chunk);
        self.bytes_written += encoded_len;
        self.count += 1;
        match self.mode {
            CheckpointMode::StopAndCopy => {
                // The rank blocks for the write, then the generation
                // commits immediately (two-phase: gather + manifest +
                // release barrier).
                let released = self.commit(
                    ep,
                    PendingCommit {
                        generation: planned.generation,
                        kind: planned.kind,
                        parent: planned.parent,
                        write_done,
                        payload,
                        faults_at_capture: tracker.total_faults(),
                    },
                    write_done,
                )?;
                self.stall += released.saturating_sub(now);
                self.obs.emit_span(
                    Lane::Rank(self.rank as u32),
                    now,
                    released.saturating_sub(now),
                    Event::CheckpointStall { generation: planned.generation },
                );
                Ok(released)
            }
            CheckpointMode::Forked { fork_cost_per_page_ns, .. } => {
                // The rank pays only the snapshot cost; the write
                // streams out in the background and commits later.
                let fork_cost = SimDuration(space.mapped_pages() * fork_cost_per_page_ns);
                self.pending = Some(PendingCommit {
                    generation: planned.generation,
                    kind: planned.kind,
                    parent: planned.parent,
                    write_done,
                    payload,
                    faults_at_capture: tracker.total_faults(),
                });
                self.stall += fork_cost;
                self.obs.emit_span(
                    Lane::Rank(self.rank as u32),
                    now,
                    fork_cost,
                    Event::CheckpointStall { generation: planned.generation },
                );
                Ok(now + fork_cost)
            }
        }
    }

    /// Two-phase commit of `pending` entered at local time `now`:
    /// gather payload sizes, rank 0 writes the manifest, a barrier
    /// releases everyone at the commit instant.
    fn commit(
        &mut self,
        ep: &mut Endpoint,
        pending: PendingCommit,
        now: SimTime,
    ) -> Result<SimTime, RunError> {
        let (payloads, gathered_at) = ep.gather_u64(now, pending.payload);
        let commit_t = if self.rank == 0 {
            let manifest = Manifest {
                generation: pending.generation,
                commit_time_ns: gathered_at.0,
                nranks: self.nranks as u32,
                entries: payloads
                    .iter()
                    .enumerate()
                    .map(|(r, &p)| RankEntry {
                        rank: r as u32,
                        kind: pending.kind,
                        parent: pending.parent,
                        payload_bytes: p,
                    })
                    .collect(),
            };
            self.tstore.put_manifest_timed(gathered_at, pending.generation, &manifest.encode())?
        } else {
            gathered_at
        };
        let released = ep.barrier(commit_t);
        // Every rank notifies at the same barrier-released instant; on
        // tiered runs the last notifier kicks off the background drain.
        self.obs.emit(
            Lane::Rank(self.rank as u32),
            released,
            Event::CommitBarrier { generation: pending.generation },
        );
        self.tstore.note_committed(pending.generation, released)?;
        self.planner.committed(pending.generation);
        self.commit_lag += released.saturating_sub(SimTime(pending.write_done.0.min(released.0)));
        Ok(released)
    }

    /// Try to commit a pending forked checkpoint at an iteration
    /// boundary. `force` blocks until the slowest write lands;
    /// otherwise the commit only happens if every rank's write is
    /// already done. Returns the caller's new local time.
    fn settle_pending(
        &mut self,
        ep: &mut Endpoint,
        tracker: &WriteTracker,
        now: SimTime,
        force: bool,
    ) -> Result<SimTime, RunError> {
        let Some(pending) = self.pending.take() else {
            return Ok(now);
        };
        // Agree on the slowest write completion.
        let info = ep.allreduce(now, 8, pending.write_done.0, Combine::Max);
        let all_done = SimTime(info.value);
        let mut t = info.new_time;
        if all_done <= t || force {
            let stall_begin = t;
            if all_done > t {
                // Forced: wait out the background write.
                self.stall += all_done - t;
                t = all_done;
            }
            // COW charge: every page first-written during the write-out
            // window had to be duplicated before the application's
            // store could proceed.
            if let CheckpointMode::Forked { cow_copy_ns, .. } = self.mode {
                let cow_pages = tracker.total_faults().saturating_sub(pending.faults_at_capture);
                let cow = SimDuration(cow_pages * cow_copy_ns);
                self.stall += cow;
                t += cow;
            }
            if t > stall_begin {
                self.obs.emit_span(
                    Lane::Rank(self.rank as u32),
                    stall_begin,
                    t - stall_begin,
                    Event::CheckpointStall { generation: pending.generation },
                );
            }
            t = self.commit(ep, pending, t)?;
        } else {
            self.pending = Some(pending);
        }
        Ok(t)
    }
}

struct RankRunner<'a, S: AddressSpace + ContentWrite> {
    rank: usize,
    space: &'a mut S,
    tracker: WriteTracker,
    ep: Endpoint,
    model: Box<dyn AppModel>,
    started_at: SimTime,
    clock: SimTime,
    fail_at: Option<SimTime>,
    ckpt: Option<RankCheckpointer>,
    params: &'a RunParams,
    // Set when the global FAIL vote passed.
    failed: bool,
    boundaries: Vec<BoundaryRecord>,
}

impl<'a, S: AddressSpace + ContentWrite + CheckpointCapable> RankRunner<'a, S> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: usize,
        space: &'a mut S,
        tracker: WriteTracker,
        ep: Endpoint,
        model: Box<dyn AppModel>,
        clock: SimTime,
        fail_at: Option<SimTime>,
        ckpt: Option<RankCheckpointer>,
        params: &'a RunParams,
    ) -> Self {
        Self {
            rank,
            space,
            tracker,
            ep,
            model,
            started_at: clock,
            clock,
            fail_at,
            ckpt,
            params,
            failed: false,
            boundaries: Vec::new(),
        }
    }

    fn run_init(&mut self) -> Result<(), RunError> {
        let phase = {
            let mut ts = TrackedSpace::new(self.space, &mut self.tracker);
            self.model.init(&mut ts)?
        };
        self.execute_steps(&phase.steps)?;
        Ok(())
    }

    /// Main loop; returns (failed, last committed generation).
    fn run_loop(&mut self) -> Result<(bool, Option<u64>), RunError> {
        loop {
            let phase = {
                let mut ts = TrackedSpace::new(self.space, &mut self.tracker);
                self.model.next_phase(&mut ts)?
            };
            self.execute_steps(&phase.steps)?;
            if phase.ends_iteration && self.iteration_boundary()? {
                break;
            }
        }
        self.tracker.finish(self.clock);
        let last = self.ckpt.as_ref().and_then(|c| c.planner.last_committed());
        Ok((self.failed, last))
    }

    /// Iteration-boundary coordination; returns true when the run ends.
    fn iteration_boundary(&mut self) -> Result<bool, RunError> {
        let pre = self.clock;
        self.tracker.mark_iteration(self.clock);
        let iterations = self.model.iterations_done();
        let mut votes = VoteFlags::none();
        let past_time = self.clock.saturating_sub(SimTime::ZERO) >= self.params.run_for;
        let past_iters = self.params.max_iterations.is_some_and(|m| iterations >= m);
        if past_time || past_iters {
            votes = votes.with(VoteFlags::STOP);
        }
        if self.fail_at.is_some_and(|t| self.clock >= t) {
            votes = votes.with(VoteFlags::FAIL);
        }
        if self.ckpt.as_ref().is_some_and(|c| c.planner.due(self.clock)) {
            votes = votes.with(VoteFlags::CHECKPOINT);
        }
        let info = self.ep.allreduce(self.clock, 16, votes.0, Combine::Or);
        self.clock = info.new_time;
        self.tracker.advance_to(self.clock);
        self.tracker.note_received(info.bytes_received);
        // Snapshot the boundary: a shorter run stopping here ends with
        // exactly these clocks and counters (checkpoint settling below
        // only happens when the run continues or a checkpoint is due).
        self.tracker.snapshot_residue(self.clock);
        self.boundaries.push(BoundaryRecord {
            pre,
            post: self.clock,
            footprint_pages: self.tracker.footprint_pages(),
            total_faults: self.tracker.total_faults(),
            overhead: self.tracker.overhead(),
            bytes_received: self.ep.bytes_received(),
        });
        self.params.obs.emit(
            Lane::Rank(self.rank as u32),
            self.clock,
            Event::IterationBoundary { iteration: iterations },
        );
        let global = VoteFlags(info.value);
        if global.has(VoteFlags::FAIL) {
            self.failed = true;
            return Ok(true);
        }
        let stop = global.has(VoteFlags::STOP);
        let take_ckpt = global.has(VoteFlags::CHECKPOINT);
        if let Some(mut ckpt) = self.ckpt.take() {
            if ckpt.pending.is_some() {
                // Forked mode: a background write may be ready to
                // commit. Force the commit when a new capture or the
                // end of the run is imminent.
                self.clock = ckpt.settle_pending(
                    &mut self.ep,
                    &self.tracker,
                    self.clock,
                    take_ckpt || stop,
                )?;
                self.tracker.advance_to(self.clock);
            }
            if take_ckpt {
                // The capture needs &BackedSpace; reachable only
                // through the concrete type, so this is specialized
                // below.
                self.clock = self.do_checkpoint(&mut ckpt)?;
                if stop {
                    // Nothing after this boundary will drive the
                    // deferred commit: flush it now.
                    self.clock =
                        ckpt.settle_pending(&mut self.ep, &self.tracker, self.clock, true)?;
                }
                self.tracker.advance_to(self.clock);
            }
            self.ckpt = Some(ckpt);
        }
        Ok(stop)
    }

    fn execute_steps(&mut self, steps: &[Step]) -> Result<(), RunError> {
        let version = self.model.iterations_done() + 1;
        for step in steps {
            match step {
                Step::Compute { duration, pattern } => {
                    let start = self.clock;
                    let end = start + *duration;
                    let dur_s = duration.as_secs_f64();
                    let mut cursor = start;
                    let mut faults = 0u64;
                    if duration.is_zero() {
                        self.tracker.advance_to(start);
                        let mut ts = TrackedSpace::new(self.space, &mut self.tracker);
                        for r in pattern.slice(0.0, 1.0) {
                            faults += ts.touch(r, version);
                        }
                    } else {
                        while cursor < end {
                            self.tracker.advance_to(cursor);
                            let seg_end = end.min(self.tracker.next_alarm_time());
                            let f0 = (cursor - start).as_secs_f64() / dur_s;
                            let f1 = (seg_end - start).as_secs_f64() / dur_s;
                            let mut ts = TrackedSpace::new(self.space, &mut self.tracker);
                            for r in pattern.slice(f0.min(1.0), f1.min(1.0)) {
                                faults += ts.touch(r, version);
                            }
                            cursor = seg_end;
                        }
                    }
                    self.clock = end;
                    if self.params.stretch_overhead {
                        // §6.5: fault handling slows the application
                        // down; stretch the clock by the handler cost.
                        self.clock += self.tracker.fault_cost(faults);
                    }
                }
                Step::Send { to, tag, bytes } => {
                    self.clock = self.ep.send(self.clock, *to, *tag, *bytes)?;
                }
                Step::Recv { from, tag, into } => {
                    let info = self.ep.recv(self.clock, *from, *tag)?;
                    self.clock = info.new_time;
                    self.tracker.advance_to(self.clock);
                    self.tracker.note_received(info.bytes);
                    if let Some(dst) = into {
                        // The bounce-buffer copy dirties the
                        // destination pages (§4.2).
                        let pages = pages_for_bytes(info.bytes).min(dst.len).max(1);
                        let r = PageRange::new(dst.start, pages);
                        let mut ts = TrackedSpace::new(self.space, &mut self.tracker);
                        ts.touch(r, version);
                    }
                }
                Step::Barrier => {
                    self.clock = self.ep.barrier(self.clock);
                    self.tracker.advance_to(self.clock);
                }
                Step::Allreduce { bytes } => {
                    let info = self.ep.allreduce(self.clock, *bytes, 0, Combine::Max);
                    self.clock = info.new_time;
                    self.tracker.advance_to(self.clock);
                    self.tracker.note_received(info.bytes_received);
                }
                Step::AllToAll { bytes_per_pair, into } => {
                    let info = self.ep.alltoall(self.clock, *bytes_per_pair);
                    self.clock = info.new_time;
                    self.tracker.advance_to(self.clock);
                    self.tracker.note_received(info.bytes_received);
                    if let Some(dst) = into {
                        let pages = pages_for_bytes(info.bytes_received).min(dst.len).max(1);
                        let r = PageRange::new(dst.start, pages);
                        let mut ts = TrackedSpace::new(self.space, &mut self.tracker);
                        ts.touch(r, version);
                    }
                }
            }
        }
        Ok(())
    }

    fn into_report(mut self, content_digest: Option<u64>) -> RankReport {
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
            bytes_received: self.ep.bytes_received(),
            footprint_pages: self.tracker.footprint_pages(),
            content_digest,
            checkpoint_bytes: self.ckpt.as_ref().map_or(0, |c| c.bytes_written),
            checkpoints: self.ckpt.as_ref().map_or(0, |c| c.count),
            checkpoint_stall: self.ckpt.as_ref().map_or(SimDuration::ZERO, |c| c.stall),
            commit_lag: self.ckpt.as_ref().map_or(SimDuration::ZERO, |c| c.commit_lag),
            excluded_pages: self.tracker.excluded_pages(),
            content: self.ckpt.as_ref().map_or_else(ContentStats::default, |c| c.content),
            summary: *self.tracker.sample_summary(),
            last_committed: self.ckpt.as_ref().and_then(|c| c.planner.last_committed()),
            boundaries: self.boundaries,
            trace,
            tier: None,
        }
    }
}

// Checkpoint specialization: only content-backed spaces can capture.
trait CheckpointCapable {
    fn do_checkpoint_inner(
        &self,
        ckpt: &mut RankCheckpointer,
        tracker: &mut WriteTracker,
        ep: &mut Endpoint,
        model: &dyn AppModel,
        now: SimTime,
    ) -> Result<SimTime, RunError>;
}

impl CheckpointCapable for SparseSpace {
    fn do_checkpoint_inner(
        &self,
        _ckpt: &mut RankCheckpointer,
        _tracker: &mut WriteTracker,
        _ep: &mut Endpoint,
        _model: &dyn AppModel,
        now: SimTime,
    ) -> Result<SimTime, RunError> {
        // Sparse spaces carry no contents; checkpointing them is a
        // configuration error guarded at the entry points.
        unreachable!("checkpointing requires a BackedSpace, got SparseSpace at {now}")
    }
}

impl CheckpointCapable for BackedSpace {
    fn do_checkpoint_inner(
        &self,
        ckpt: &mut RankCheckpointer,
        tracker: &mut WriteTracker,
        ep: &mut Endpoint,
        model: &dyn AppModel,
        now: SimTime,
    ) -> Result<SimTime, RunError> {
        ckpt.take(self, tracker, ep, model, now)
    }
}

impl<S: AddressSpace + ContentWrite + CheckpointCapable> RankRunner<'_, S> {
    fn do_checkpoint(&mut self, ckpt: &mut RankCheckpointer) -> Result<SimTime, RunError> {
        self.space.do_checkpoint_inner(
            ckpt,
            &mut self.tracker,
            &mut self.ep,
            self.model.as_ref(),
            self.clock,
        )
    }
}

/// Find the newest committed generation in a store (delegates to
/// `ickpt-core`, re-exported here for runner users).
pub fn last_committed(store: &dyn StableStorage, nranks: u32) -> Option<u64> {
    latest_committed_generation(store, nranks).ok().flatten()
}

#[cfg(test)]
mod arena_tests {
    use super::RankArena;

    #[test]
    fn arena_recycles_scratch_across_leases() {
        let arena = RankArena::new();
        assert_eq!(arena.pooled(), 0);
        let a = arena.acquire();
        let b = arena.acquire();
        arena.release(a);
        arena.release(b);
        assert_eq!(arena.pooled(), 2);
        // A lease drains the pool instead of allocating fresh.
        let _c = arena.acquire();
        assert_eq!(arena.pooled(), 1);
    }
}
