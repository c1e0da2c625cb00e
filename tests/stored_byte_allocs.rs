//! Heap bytes allocated per stored checkpoint byte in a tiered run.
//!
//! Every tier of a fault-tolerant run (the node-local store, the XOR
//! parity deposits, the durable drain) shares the one buffer a rank
//! encodes its chunk into, so a stored byte is allocated once, plus
//! its share of the parity block. A copy of the chunk anywhere on that
//! path adds about one more `checkpoint_bytes` of allocation. This
//! binary counts every byte any thread allocates (the engine's workers
//! allocate too, so the counter is process-wide and the binary holds a
//! single test) and bounds a run's total by `K` bytes per stored byte
//! above the same run without checkpoints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use ickpt::apps::{AppModel, Workload};
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FaultTolerantConfig, RedundancyConfig, RunOutcome,
    StoragePath,
};
use ickpt::core::CheckpointPolicy;
use ickpt::mem::WriteProfile;
use ickpt::net::NetConfig;
use ickpt::obs::Recorder;
use ickpt::sim::{DevicePreset, SimDuration};
use ickpt::storage::{DrainTopology, MemStore, SchemeSpec};

/// Counts the bytes every allocation and every growing reallocation
/// asks for, on any thread. The counter publishes no other data.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a static atomic, so touching it neither allocates nor recurses.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated by, and checkpoint bytes stored by, a tiered XOR +
/// tree-drain run of perf's quick `ft_cluster` shape without its
/// failure, checkpointing every `interval`. A failure-free run's
/// `checkpoint_bytes` counts every chunk the run stored.
fn tiered_run(interval: SimDuration) -> (u64, u64) {
    let (app, nranks, scale, seed) = (Workload::Sage50, 8, 0.02, 0x1dc4_2004);
    let cfg = FaultTolerantConfig {
        nranks,
        max_iterations: 8,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(interval, 4),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::Shared,
        failures: Vec::new(),
        net: NetConfig::qsnet(),
        max_attempts: 1,
        redundancy: Some(RedundancyConfig {
            scheme: SchemeSpec::XorParity { group_size: 4 },
            local_device: DevicePreset::NodeLocal,
            drain_every: 2,
            drain_topology: DrainTopology::Tree { arity: 4 },
        }),
        obs: Recorder::disabled(),
        dedup: Some(true),
        write_profile: WriteProfile::Scientific,
    };
    let build =
        |rank: usize| -> Box<dyn AppModel> { Box::new(app.build(rank, nranks, scale, seed)) };
    let before = ALLOCATED.load(Relaxed);
    let report = run_fault_tolerant(&cfg, app.layout(scale), build).expect("run completes");
    let allocated = ALLOCATED.load(Relaxed) - before;
    assert_eq!(report.outcome, RunOutcome::Completed);
    (allocated, report.ranks.iter().map(|r| r.checkpoint_bytes).sum())
}

#[test]
fn a_stored_byte_is_allocated_once() {
    // The fixed term is the same run without a checkpoint: arenas, app
    // models, tracker bitmaps, mailboxes.
    let (fixed, none) = tiered_run(SimDuration::from_secs(1_000_000));
    assert_eq!(none, 0, "the baseline run takes no checkpoint");
    let (allocated, stored) = tiered_run(SimDuration::from_secs(40));
    assert!(stored > 0, "the run stored checkpoints");
    let per_stored = (allocated - fixed) as f64 / stored as f64;
    assert!(
        per_stored <= K,
        "allocated {allocated} B, {fixed} B of it without checkpoints, for {stored} B stored: \
         {per_stored:.3} B per stored byte > {K}"
    );
}

/// Allocated bytes per stored byte, above the fixed term. The run
/// measures 2.49: the encoded chunk (1), its parity share (0.27) and the
/// capture and dedup buffers. One more copy of every chunk reads 3.49.
const K: f64 = 3.0;
