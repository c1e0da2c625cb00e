//! End-to-end fault tolerance: coordinated incremental checkpoints,
//! injected failures, rollback recovery, and byte-exact equivalence
//! with a failure-free execution.

use std::sync::Arc;

use ickpt::apps::synthetic::{SyntheticApp, SyntheticConfig};
use ickpt::apps::Workload;
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FailureKind, FailureSpec, FaultTolerantConfig,
    RedundancyConfig, RunOutcome, StoragePath,
};
use ickpt::core::coordinator::CheckpointPolicy;
use ickpt::mem::{DataLayout, LayoutBuilder, WriteProfile, PAGE_SIZE};
use ickpt::net::NetConfig;
use ickpt::obs::RecoveryTier;
use ickpt::sim::{DevicePreset, SimDuration, SimTime};
use ickpt::storage::{DrainTopology, MemStore, SchemeSpec};

fn synthetic_layout() -> DataLayout {
    LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(2048 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build()
}

fn synthetic_cfg(
    nranks: usize,
    max_iterations: u64,
    failures: Vec<FailureSpec>,
) -> FaultTolerantConfig {
    FaultTolerantConfig {
        nranks,
        max_iterations,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(3), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures,
        net: NetConfig::qsnet(),
        redundancy: None,
        obs: ickpt::obs::Recorder::disabled(),
        dedup: None,
        write_profile: Default::default(),
        max_attempts: 4,
    }
}

fn build_synthetic(nranks: usize) -> impl Fn(usize) -> Box<dyn ickpt::apps::AppModel> + Sync {
    move |rank| {
        Box::new(SyntheticApp::new(SyntheticConfig {
            exchange_bytes: 8192,
            rank,
            nranks,
            ..Default::default()
        }))
    }
}

#[test]
fn failure_free_run_checkpoints_and_completes() {
    let cfg = synthetic_cfg(4, 12, vec![]);
    let report = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.attempts, 1);
    for r in &report.ranks {
        assert_eq!(r.iterations, 12);
        // ~12 virtual seconds / 3 s interval → ~4 checkpoints.
        assert!((3..=5).contains(&r.checkpoints), "rank {}: {} ckpts", r.rank, r.checkpoints);
        assert!(r.checkpoint_bytes > 0);
        assert!(r.content_digest.is_some());
        assert!(r.last_committed.is_some());
    }
    // Stable storage holds a committed manifest for every generation.
    let gens = cfg.store.list_manifests().unwrap();
    assert!(!gens.is_empty());
    for r in 0..4u32 {
        assert_eq!(cfg.store.list_generations(r).unwrap().len(), gens.len());
    }
}

#[test]
fn recovery_reproduces_failure_free_final_state() {
    // Reference: no failures.
    let cfg_ref = synthetic_cfg(4, 15, vec![]);
    let reference = run_fault_tolerant(&cfg_ref, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(reference.outcome, RunOutcome::Completed);
    let ref_digests: Vec<_> = reference.ranks.iter().map(|r| r.content_digest.unwrap()).collect();

    // Same run, but rank 2 dies ~8 virtual seconds in.
    let cfg = synthetic_cfg(4, 15, vec![FailureSpec::process(2, SimTime::from_secs(8))]);
    let recovered = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    assert_eq!(recovered.attempts, 2, "one failure, one recovery");
    let rec_digests: Vec<_> = recovered.ranks.iter().map(|r| r.content_digest.unwrap()).collect();
    assert_eq!(
        ref_digests, rec_digests,
        "rollback recovery must reproduce the failure-free memory image"
    );
    for (a, b) in reference.ranks.iter().zip(&recovered.ranks) {
        assert_eq!(a.iterations, b.iterations);
    }
}

#[test]
fn multiple_failures_multiple_recoveries() {
    let cfg_ref = synthetic_cfg(2, 20, vec![]);
    let reference = run_fault_tolerant(&cfg_ref, synthetic_layout(), build_synthetic(2)).unwrap();
    let ref_digests: Vec<_> = reference.ranks.iter().map(|r| r.content_digest.unwrap()).collect();

    let cfg = synthetic_cfg(
        2,
        20,
        vec![
            FailureSpec::process(0, SimTime::from_secs(6)),
            FailureSpec::process(1, SimTime::from_secs(13)),
        ],
    );
    let recovered = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(2)).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    assert_eq!(recovered.attempts, 3, "two failures, two recoveries");
    let rec_digests: Vec<_> = recovered.ranks.iter().map(|r| r.content_digest.unwrap()).collect();
    assert_eq!(ref_digests, rec_digests);
}

#[test]
fn failure_before_any_checkpoint_restarts_from_scratch() {
    // Checkpoint interval longer than the run: no generation ever
    // commits, so the failure triggers a cold restart from the
    // beginning — and the restarted run must still produce the same
    // final state as an undisturbed one.
    let mut cfg = synthetic_cfg(2, 10, vec![FailureSpec::process(0, SimTime::from_secs(2))]);
    cfg.policy = CheckpointPolicy::incremental(SimDuration::from_secs(1000), 0);
    let report = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(2)).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.attempts, 2, "one cold restart");

    let mut clean_cfg = synthetic_cfg(2, 10, vec![]);
    clean_cfg.policy = CheckpointPolicy::incremental(SimDuration::from_secs(1000), 0);
    let clean = run_fault_tolerant(&clean_cfg, synthetic_layout(), build_synthetic(2)).unwrap();
    for (a, b) in clean.ranks.iter().zip(&report.ranks) {
        assert_eq!(a.content_digest, b.content_digest);
    }
}

#[test]
fn single_tier_failure_before_the_first_commit_records_a_cold_restart() {
    // Per-rank storage, no redundancy: rank 1 dies at 1 s, before the
    // first 3 s checkpoint interval ends, so nothing was ever committed.
    let fr = ickpt::obs::FlightRecorder::new(4096);
    let mut cfg = synthetic_cfg(2, 6, vec![FailureSpec::process(1, SimTime::from_secs(1))]);
    cfg.obs = ickpt::obs::Recorder::new(fr.clone());
    assert!(cfg.redundancy.is_none() && cfg.storage_path == StoragePath::PerRank);
    let report = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(2)).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    let [rec] = report.recoveries[..] else { panic!("one recovery: {:?}", report.recoveries) };
    assert_eq!((rec.rank, rec.source, rec.generation), (1, RecoveryTier::ColdRestart, None));
    // The trace's recovery decision names the same tier.
    let trace = ickpt::obs::parse_jsonl(&ickpt::obs::jsonl(&fr.snapshot())).unwrap();
    let plans: Vec<_> = trace.iter().filter(|e| &*e.name == "recovery_plan").collect();
    assert_eq!(plans.len(), 1);
    assert_eq!(plans[0].arg("tier").as_deref(), Some("cold_restart"));
    assert_eq!(plans[0].arg_u64("rank"), Some(1));
}

#[test]
fn incremental_checkpoints_are_smaller_than_full() {
    // The premise of the paper: after the base, increments move only
    // the working set.
    let cfg_incr = synthetic_cfg(2, 12, vec![]);
    let incr = run_fault_tolerant(&cfg_incr, synthetic_layout(), build_synthetic(2)).unwrap();

    let mut cfg_full = synthetic_cfg(2, 12, vec![]);
    cfg_full.policy = CheckpointPolicy::always_full(SimDuration::from_secs(3));
    let full = run_fault_tolerant(&cfg_full, synthetic_layout(), build_synthetic(2)).unwrap();

    let incr_bytes = incr.ranks[0].checkpoint_bytes;
    let full_bytes = full.ranks[0].checkpoint_bytes;
    assert!(
        // Synthetic writes 256 of 1024 pages per iteration: increments
        // should be ≈ 4x smaller after the shared base checkpoint.
        (incr_bytes as f64) < 0.5 * full_bytes as f64,
        "incremental {incr_bytes} vs full {full_bytes}"
    );
}

#[test]
fn forked_checkpoints_stall_less_and_still_recover() {
    // Same synthetic run under both modes: forked mode must stall the
    // application far less per checkpoint, eventually commit every
    // generation, and still support byte-exact recovery.
    let stop_cfg = synthetic_cfg(4, 15, vec![]);
    let stop = run_fault_tolerant(&stop_cfg, synthetic_layout(), build_synthetic(4)).unwrap();

    let mut fork_cfg = synthetic_cfg(4, 15, vec![]);
    fork_cfg.mode = CheckpointMode::Forked { fork_cost_per_page_ns: 200, cow_copy_ns: 2_000 };
    let fork = run_fault_tolerant(&fork_cfg, synthetic_layout(), build_synthetic(4)).unwrap();

    let s = &stop.ranks[0];
    let f = &fork.ranks[0];
    assert_eq!(s.checkpoints, f.checkpoints, "same schedule");
    assert!(
        f.checkpoint_stall.as_secs_f64() < 0.5 * s.checkpoint_stall.as_secs_f64(),
        "forked stall {} vs stop-and-copy {}",
        f.checkpoint_stall,
        s.checkpoint_stall
    );
    assert!(f.commit_lag > ickpt::sim::SimDuration::ZERO, "commits are deferred");
    assert_eq!(s.content_digest, f.content_digest, "mode must not change the computation");
    // Every generation eventually committed.
    assert_eq!(
        fork_cfg.store.list_manifests().unwrap().len() as u64,
        f.checkpoints,
        "all forked generations commit"
    );

    // Recovery still works under forked mode.
    let mut fail_cfg = synthetic_cfg(4, 15, vec![FailureSpec::process(1, SimTime::from_secs(8))]);
    fail_cfg.mode = CheckpointMode::Forked { fork_cost_per_page_ns: 200, cow_copy_ns: 2_000 };
    let recovered = run_fault_tolerant(&fail_cfg, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    for (a, b) in stop.ranks.iter().zip(&recovered.ranks) {
        assert_eq!(a.content_digest, b.content_digest, "rank {}", a.rank);
    }
}

#[test]
fn memory_exclusion_is_accounted_for_dynamic_apps() {
    // Sage maps a burst workspace and frees it before iteration end:
    // those dirty pages are excluded from checkpoints and the tracker
    // reports the saving. Static apps exclude nothing.
    let nranks = 2;
    let scale = 0.02;
    let w = Workload::Sage50;
    let cfg = FaultTolerantConfig {
        nranks,
        max_iterations: 4,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(35), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures: vec![],
        net: NetConfig::qsnet(),
        redundancy: None,
        obs: ickpt::obs::Recorder::disabled(),
        dedup: None,
        write_profile: Default::default(),
        max_attempts: 1,
    };
    let report = run_fault_tolerant(&cfg, w.layout(scale), move |rank| {
        Box::new(w.build(rank, nranks, scale, 7))
    })
    .unwrap();
    let r0 = &report.ranks[0];
    assert!(r0.excluded_pages > 0, "Sage's freed workspace must show up as excluded pages");

    let static_report =
        run_fault_tolerant(&synthetic_cfg(2, 6, vec![]), synthetic_layout(), build_synthetic(2))
            .unwrap();
    assert_eq!(static_report.ranks[0].excluded_pages, 0, "static app excludes nothing");
}

#[test]
fn sage_recovery_from_incremental_chain_is_byte_exact() {
    // Regression: recovery from an *incremental* generation (not the
    // base) with mmap churn in between. Two historical bugs hid here:
    // freshly mapped pages were not zeroed, and newly mapped ranges
    // were missing from the checkpoint set, so a restore resurrected
    // stale bytes into re-used address ranges.
    let nranks = 4;
    let scale = 0.02;
    let w = Workload::Sage50;
    let layout = w.layout(scale);
    let build = move |rank: usize| -> Box<dyn ickpt::apps::AppModel> {
        Box::new(w.build(rank, nranks, scale, 7))
    };
    let mk = |failures: Vec<FailureSpec>| FaultTolerantConfig {
        nranks,
        max_iterations: 8,
        timeslice: SimDuration::from_secs(1),
        // Interval 40 s: a full at t=40, an increment at t=80, failure
        // at t>=90 -> recovery restores the incremental chain.
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(40), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures,
        net: NetConfig::qsnet(),
        redundancy: None,
        obs: ickpt::obs::Recorder::disabled(),
        dedup: None,
        write_profile: Default::default(),
        max_attempts: 3,
    };
    let reference = run_fault_tolerant(&mk(vec![]), layout, build).unwrap();
    let recovered = run_fault_tolerant(
        &mk(vec![FailureSpec::process(2, SimTime::from_secs(90))]),
        layout,
        build,
    )
    .unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    assert_eq!(recovered.attempts, 2);
    for (a, b) in reference.ranks.iter().zip(&recovered.ranks) {
        assert_eq!(a.content_digest, b.content_digest, "rank {}", a.rank);
    }
}

#[test]
fn sage_model_survives_failure_with_dynamic_memory() {
    // The hard case: Sage churns mmap blocks and maps a burst
    // workspace; recovery must rebuild the exact mapping layout.
    let nranks = 2;
    let scale = 0.01;
    let w = Workload::Sage50;
    let layout = w.layout(scale);
    let build = move |rank: usize| -> Box<dyn ickpt::apps::AppModel> {
        Box::new(w.build(rank, nranks, scale, 99))
    };

    let cfg_ref = FaultTolerantConfig {
        nranks,
        max_iterations: 6,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(30), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures: vec![],
        net: NetConfig::qsnet(),
        redundancy: None,
        obs: ickpt::obs::Recorder::disabled(),
        dedup: None,
        write_profile: Default::default(),
        max_attempts: 3,
    };
    let reference = run_fault_tolerant(&cfg_ref, layout, build).unwrap();
    assert_eq!(reference.outcome, RunOutcome::Completed);
    let ref_digests: Vec<_> = reference.ranks.iter().map(|r| r.content_digest.unwrap()).collect();

    let cfg = FaultTolerantConfig {
        store: Arc::new(MemStore::new()),
        failures: vec![FailureSpec::process(1, SimTime::from_secs(70))],
        ..cfg_ref
    };
    let recovered = run_fault_tolerant(&cfg, layout, build).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    assert_eq!(recovered.attempts, 2);
    let rec_digests: Vec<_> = recovered.ranks.iter().map(|r| r.content_digest.unwrap()).collect();
    assert_eq!(ref_digests, rec_digests, "Sage recovery must be byte-exact");
}

/// Shared config for the tiered-storage tests: node-local tier plus
/// the given redundancy scheme, draining to the shared array.
fn tiered_cfg(
    scheme: SchemeSpec,
    drain_every: u64,
    failures: Vec<FailureSpec>,
) -> FaultTolerantConfig {
    FaultTolerantConfig {
        storage_path: StoragePath::Shared,
        redundancy: Some(RedundancyConfig {
            scheme,
            local_device: DevicePreset::NodeLocal,
            drain_every,
            drain_topology: DrainTopology::Flat,
        }),
        ..synthetic_cfg(4, 15, failures)
    }
}

#[test]
fn node_loss_recovers_via_redundancy_byte_identical() {
    // Reference: failure-free tiered run (digests are a pure function
    // of the application, so any completed run gives the same ones).
    let cfg_ref = tiered_cfg(SchemeSpec::Partner { offset: 1 }, 4, vec![]);
    let reference = run_fault_tolerant(&cfg_ref, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(reference.outcome, RunOutcome::Completed);
    let ref_digests: Vec<_> = reference.ranks.iter().map(|r| r.content_digest.unwrap()).collect();

    for scheme in [SchemeSpec::Partner { offset: 1 }, SchemeSpec::XorParity { group_size: 2 }] {
        // Node loss at 8 s wipes rank 1's node-local tier; nothing has
        // drained yet (drain fires at generation 3), so only the
        // redundancy scheme can serve the latest generation.
        let cfg = tiered_cfg(scheme, 4, vec![FailureSpec::node_loss(1, SimTime::from_secs(8))]);
        let recovered = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(4)).unwrap();
        assert_eq!(recovered.outcome, RunOutcome::Completed, "{}", scheme.name());
        assert_eq!(recovered.attempts, 2, "{}", scheme.name());
        let rec = recovered.recoveries[0];
        assert_eq!(rec.kind, FailureKind::NodeLoss);
        assert_eq!(
            rec.source,
            RecoveryTier::Reconstructed,
            "{}: node loss with nothing drained must recover over the network",
            scheme.name()
        );
        assert!(rec.generation.is_some());
        let rec_digests: Vec<_> =
            recovered.ranks.iter().map(|r| r.content_digest.unwrap()).collect();
        assert_eq!(ref_digests, rec_digests, "{}: state must be byte-identical", scheme.name());
        // Per-tier accounting is surfaced on every rank.
        for r in &recovered.ranks {
            let tier = r.tier.expect("tiered runs report per-tier usage");
            assert!(tier.local_bytes > 0, "rank {} wrote to its local tier", r.rank);
            assert!(tier.redundancy_bytes > 0, "rank {} published redundancy", r.rank);
        }
        // The failed rank's restore pulled bytes over the interconnect.
        let tier = recovered.ranks[1].tier.unwrap();
        assert!(tier.recovery_net_bytes > 0, "{}: reconstruction uses the network", scheme.name());
    }
}

#[test]
fn node_loss_without_redundancy_falls_back_to_drained_generation() {
    let cfg_ref = tiered_cfg(SchemeSpec::LocalOnly, 1, vec![]);
    let reference = run_fault_tolerant(&cfg_ref, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(reference.outcome, RunOutcome::Completed);
    let ref_digests: Vec<_> = reference.ranks.iter().map(|r| r.content_digest.unwrap()).collect();

    // drain_every = 1: every generation is flushed to the shared array
    // as soon as it commits, so losing a node costs no work here — but
    // the recovery has to come from the durable tier.
    let cfg = tiered_cfg(
        SchemeSpec::LocalOnly,
        1,
        vec![FailureSpec::node_loss(1, SimTime::from_secs(8))],
    );
    let recovered = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    let rec = recovered.recoveries[0];
    assert_eq!(rec.kind, FailureKind::NodeLoss);
    assert_eq!(
        rec.source,
        RecoveryTier::Durable,
        "local-only tier must fall back to the drained shared array"
    );
    let rec_digests: Vec<_> = recovered.ranks.iter().map(|r| r.content_digest.unwrap()).collect();
    assert_eq!(ref_digests, rec_digests);
    let drain = recovered.drain.expect("tiered runs report drain stats");
    assert!(drain.drained_generations > 0);
    assert!(drain.drained_bytes > 0);
}

#[test]
fn process_failure_on_tiered_storage_restores_from_local() {
    // A plain process crash leaves the node-local tier intact: the
    // restarted rank reads its own fast device, not the network.
    let cfg = tiered_cfg(
        SchemeSpec::Partner { offset: 1 },
        4,
        vec![FailureSpec::process(2, SimTime::from_secs(8))],
    );
    let recovered = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    let rec = recovered.recoveries[0];
    assert_eq!(rec.kind, FailureKind::Process);
    assert_eq!(rec.source, RecoveryTier::Local);
    let tier = recovered.ranks[2].tier.unwrap();
    assert!(tier.recovery_local_bytes > 0);
}

#[test]
fn scientific_profile_node_loss_recovers_byte_identical() {
    // The Scientific profile rewrites only the changed blocks of a
    // partial page and nothing of a silent one, from the version the
    // page last held; after a restore, the rebuilt pages must still
    // replay to the failure-free bytes. Dedup on, XOR parity on the
    // node-local tier, and nothing drained when node 1 is lost, so the
    // restore reconstructs over the network.
    let cfg = |failures| FaultTolerantConfig {
        dedup: Some(true),
        write_profile: WriteProfile::Scientific,
        ..tiered_cfg(SchemeSpec::XorParity { group_size: 2 }, 4, failures)
    };
    let reference =
        run_fault_tolerant(&cfg(vec![]), synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(reference.outcome, RunOutcome::Completed);
    let failures = vec![FailureSpec::node_loss(1, SimTime::from_secs(8))];
    let recovered =
        run_fault_tolerant(&cfg(failures), synthetic_layout(), build_synthetic(4)).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    assert_eq!(recovered.attempts, 2);
    assert_eq!(recovered.recoveries[0].source, RecoveryTier::Reconstructed);
    for (a, b) in reference.ranks.iter().zip(&recovered.ranks) {
        assert!(a.content_digest.is_some());
        assert_eq!(a.content_digest, b.content_digest, "rank {}", a.rank);
    }
}

#[test]
fn tiered_node_loss_recovery_is_deterministic() {
    let run = || {
        let cfg = tiered_cfg(
            SchemeSpec::XorParity { group_size: 2 },
            4,
            vec![FailureSpec::node_loss(0, SimTime::from_secs(8))],
        );
        let report = run_fault_tolerant(&cfg, synthetic_layout(), build_synthetic(4)).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        (
            report.attempts,
            report.wasted,
            report.recoveries,
            report.drain,
            report
                .ranks
                .iter()
                .map(|r| (r.final_time, r.content_digest, r.tier))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn commit_cuts_are_coordinated_for_every_workload() {
    // Checkpoints every 300 virtual ms on the six catalog codes and the
    // synthetic app, in both checkpoint modes: every commit round runs
    // the engine's coordinated-cut assertion (live in this debug
    // build — no message may be in flight across a committed
    // generation), and a recovery from any of those cuts must reproduce
    // the failure-free image.
    let nranks = 4;
    let scale = 0.01;
    let forked = CheckpointMode::Forked { fork_cost_per_page_ns: 200, cow_copy_ns: 2_000 };
    let catalog = [
        Workload::Sage50,
        Workload::Sweep3d,
        Workload::NasSp,
        Workload::NasLu,
        Workload::NasBt,
        Workload::NasFt,
    ];
    type Build = Box<dyn Fn(usize) -> Box<dyn ickpt::apps::AppModel> + Sync>;
    let mut apps: Vec<(String, DataLayout, Build)> = catalog
        .iter()
        .map(|&w| {
            let build: Build = Box::new(move |rank| Box::new(w.build(rank, nranks, scale, 11)));
            (w.name().to_string(), w.layout(scale), build)
        })
        .collect();
    apps.push(("synthetic".into(), synthetic_layout(), Box::new(build_synthetic(nranks))));
    for (name, layout, build) in &apps {
        for mode in [CheckpointMode::StopAndCopy, forked] {
            let mk = |failures| FaultTolerantConfig {
                policy: CheckpointPolicy::incremental(SimDuration::from_millis(300), 3),
                mode,
                dedup: Some(true),
                ..synthetic_cfg(nranks, 10, failures)
            };
            let free = run_fault_tolerant(&mk(vec![]), *layout, build).unwrap();
            assert_eq!(free.outcome, RunOutcome::Completed, "{name}");
            assert!(free.ranks[0].checkpoints >= 3, "{name}: {}", free.ranks[0].checkpoints);
            let fail_at = SimTime(free.ranks[0].final_time.0 * 6 / 10);
            let cfg = mk(vec![FailureSpec::process(1, fail_at)]);
            let recovered = run_fault_tolerant(&cfg, *layout, build).unwrap();
            assert_eq!(recovered.outcome, RunOutcome::Completed, "{name}");
            assert_eq!(recovered.attempts, 2, "{name}");
            assert!(recovered.recoveries[0].generation.is_some(), "{name}: restored a cut");
            for (a, b) in free.ranks.iter().zip(&recovered.ranks) {
                assert_eq!(a.content_digest, b.content_digest, "{name}: rank {}", a.rank);
            }
        }
    }
}

/// A model whose script cannot complete: every iteration, rank 0 also
/// waits for a message (`Orphan`) or enters a barrier (`LoneBarrier`)
/// that no other rank takes part in.
struct Deadlocks {
    rank: usize,
    how: Stuck,
    iter: u64,
}

#[derive(Clone, Copy)]
enum Stuck {
    Orphan,
    LoneBarrier,
}

impl ickpt::apps::AppModel for Deadlocks {
    fn name(&self) -> String {
        "deadlocks".into()
    }

    fn init(
        &mut self,
        space: &mut dyn ickpt::mem::AddressSpace,
    ) -> Result<ickpt::apps::step::Phase, ickpt::mem::MemError> {
        space.heap_grow(8)?;
        Ok(ickpt::apps::step::Phase { steps: vec![], ends_iteration: false })
    }

    fn next_phase(
        &mut self,
        _space: &mut dyn ickpt::mem::AddressSpace,
    ) -> Result<ickpt::apps::step::Phase, ickpt::mem::MemError> {
        use ickpt::apps::Step;
        self.iter += 1;
        let steps = match (self.rank, self.how) {
            (0, Stuck::Orphan) => vec![Step::Recv { from: 1, tag: 9, into: None }],
            (0, Stuck::LoneBarrier) => vec![Step::Barrier],
            _ => vec![],
        };
        Ok(ickpt::apps::step::Phase { steps, ends_iteration: true })
    }

    fn iterations_done(&self) -> u64 {
        self.iter
    }

    fn save_state(&self) -> Vec<u8> {
        self.iter.to_le_bytes().to_vec()
    }

    fn restore_state(&mut self, _state: &[u8]) -> Result<(), ickpt::apps::codec::CodecError> {
        Ok(())
    }
}

#[test]
fn a_deadlocked_script_is_a_typed_error_not_a_hang() {
    use ickpt::cluster::RunError;
    use ickpt::net::NetError;
    let run = |how| {
        let cfg = synthetic_cfg(3, 5, vec![]);
        run_fault_tolerant(&cfg, synthetic_layout(), move |rank| {
            Box::new(Deadlocks { rank, how, iter: 0 })
        })
    };
    // Ranks 1 and 2 wait in the boundary vote for rank 0, which waits
    // for a message nobody sends: the drained wheel names that receive.
    match run(Stuck::Orphan) {
        Err(RunError::Net(e)) => {
            assert_eq!(e, NetError::UnmatchedRecv { rank: 0, from: 1, tag: 9 });
        }
        other => panic!("expected the unmatched receive, got {:?}", other.map(|r| r.outcome)),
    }
    // Rank 0 enters a barrier while the others enter the vote.
    match run(Stuck::LoneBarrier) {
        Err(RunError::Net(NetError::CollectiveMismatch { .. })) => {}
        other => panic!("expected a collective mismatch, got {:?}", other.map(|r| r.outcome)),
    }
}
