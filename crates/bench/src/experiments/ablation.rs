//! Ablation studies on the checkpointing system itself.
//!
//! The paper quantifies *requirements*; these ablations quantify the
//! design choices of the checkpointer built on its findings:
//!
//! 1. **Incremental vs full** — bytes moved to stable storage per unit
//!    of virtual time (the paper's core premise: the delta is small).
//! 2. **Checkpoint interval** — longer intervals amortize page reuse,
//!    the actual-traffic analogue of Figure 2's IB decay.
//! 3. **Re-base frequency / chain length** — lineage length against
//!    restore cost (bytes read, chunks applied), plus the effect of
//!    explicit chain compaction (gc).
//! 4. **Stop-and-copy vs forked** — application stall per checkpoint
//!    when the write is synchronous vs streamed in the background with
//!    a deferred commit.
//! 5. **Memory exclusion (§4.2)** — checkpoint bytes Sage's freed
//!    workspace would have cost an exclusion-unaware checkpointer.
//! 6. **Per-rank vs shared storage** — with one shared array the
//!    coordinated checkpoint's synchronized writes serialize, so the
//!    stall grows with the rank count; per-rank paths keep it flat.
//! 7. **Multilevel redundancy under node loss** — single-tier
//!    (node-local cache only) vs partner replication vs XOR parity
//!    when a node dies mid-run: the redundant schemes reconstruct the
//!    last committed generation over the network and resume there,
//!    while the single-tier baseline is forced back to the last
//!    generation fully drained to the shared array. All configurations
//!    must finish byte-identical to the failure-free run.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::synthetic::{SyntheticApp, SyntheticConfig};
use ickpt::apps::AppModel;
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FailureSpec, FaultTolerantConfig, RedundancyConfig,
    RunOutcome, StoragePath,
};
use ickpt::core::coordinator::CheckpointPolicy;
use ickpt::core::restore::{restore_rank, restore_rank_sequential};
use ickpt::mem::{BackedSpace, DataLayout, LayoutBuilder, PAGE_SIZE};
use ickpt::net::NetConfig;
use ickpt::sim::{DevicePreset, SimDuration, SimTime};
use ickpt::storage::{gc, Chunk, ChunkKey, DrainTopology, MemStore, SchemeSpec};

use ickpt::obs::{Recorder, RecoveryTier};

use crate::banner_string;
use crate::engine::parallel_map;
use crate::obs_glue::TraceBuilder;

const NRANKS: usize = 4;

type Section = (String, Vec<Comparison>);
/// A section runner: takes its pre-allocated trace recorder.
type SectionFn = fn(Recorder) -> Section;

fn layout() -> DataLayout {
    LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(2048 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build()
}

fn build(rank: usize) -> Box<dyn AppModel> {
    Box::new(SyntheticApp::new(SyntheticConfig {
        footprint_pages: 1024,
        writes_per_iter: 256,
        exchange_bytes: 8192,
        rank,
        nranks: NRANKS,
        ..Default::default()
    }))
}

fn ft_config(policy: CheckpointPolicy, iters: u64) -> FaultTolerantConfig {
    FaultTolerantConfig {
        nranks: NRANKS,
        max_iterations: iters,
        timeslice: SimDuration::from_secs(1),
        policy,
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures: vec![],
        net: NetConfig::qsnet(),
        max_attempts: 1,
        redundancy: None,
        obs: ickpt_obs::Recorder::disabled(),
        dedup: None,
        write_profile: Default::default(),
    }
}

/// Ablation 4: synchronous vs forked checkpointing stall.
///
/// Each section receives a pre-allocated recorder (one trace group per
/// section) and attaches it to its most representative run, so the
/// flight-recorder groups stay deterministic under the parallel
/// scheduler.
fn mode_ablation(obs: Recorder) -> Section {
    let mut body = String::new();
    let mut comparisons = Vec::new();
    writeln!(body, "ablation 4: stop-and-copy vs forked (background write, deferred commit)")
        .unwrap();
    let policy = CheckpointPolicy::incremental(SimDuration::from_secs(3), 0);
    let stop = run_fault_tolerant(&ft_config(policy, 30), layout(), build).unwrap();
    let mut fork_cfg = ft_config(policy, 30);
    fork_cfg.mode = CheckpointMode::Forked { fork_cost_per_page_ns: 200, cow_copy_ns: 2_000 };
    fork_cfg.obs = obs;
    let fork = run_fault_tolerant(&fork_cfg, layout(), build).unwrap();
    let s0 = &stop.ranks[0];
    let f0 = &fork.ranks[0];
    let mut t = TextTable::new("").header(&[
        "mode",
        "checkpoints",
        "total stall",
        "stall/ckpt",
        "commit lag/ckpt",
    ]);
    for (name, r) in [("stop-and-copy", s0), ("forked", f0)] {
        t.row(vec![
            name.to_string(),
            r.checkpoints.to_string(),
            format!("{}", r.checkpoint_stall),
            format!("{}", r.checkpoint_stall / r.checkpoints.max(1)),
            format!("{}", r.commit_lag / r.checkpoints.max(1)),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();
    let speedup = s0.checkpoint_stall.as_secs_f64() / f0.checkpoint_stall.as_secs_f64().max(1e-9);
    writeln!(
        body,
        "forked mode reduces the application stall {speedup:.1}x (at the cost of deferred commits)"
    )
    .unwrap();
    comparisons.push(Comparison::new(
        "Ablation / forked stall reduction (expect >2x)",
        2.0,
        speedup.min(99.0),
        "x",
    ));
    (body, comparisons)
}

/// Ablation 5: the §4.2 memory-exclusion saving on Sage.
fn exclusion_ablation(obs: Recorder) -> Section {
    let mut body = String::new();
    let mut comparisons = Vec::new();
    writeln!(body, "ablation 5: memory exclusion (§4.2) on Sage's dynamic memory").unwrap();
    let w = ickpt::apps::Workload::Sage50;
    let scale = 0.05;
    let nranks = NRANKS;
    let cfg = FaultTolerantConfig {
        nranks,
        max_iterations: 6,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(20), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures: vec![],
        net: NetConfig::qsnet(),
        max_attempts: 1,
        redundancy: None,
        obs,
        dedup: None,
        write_profile: Default::default(),
    };
    let report = run_fault_tolerant(&cfg, w.layout(scale), move |rank| {
        Box::new(w.build(rank, nranks, scale, 11))
    })
    .unwrap();
    let r0 = &report.ranks[0];
    let excluded_bytes = r0.excluded_pages * 4096;
    let saving = excluded_bytes as f64 / (excluded_bytes + r0.checkpoint_bytes) as f64;
    writeln!(
        body,
        "rank 0 wrote {} checkpoint bytes; exclusion dropped {} dirty pages ({} bytes)          of freed workspace — a {:.0}% traffic saving vs an exclusion-unaware checkpointer",
        r0.checkpoint_bytes,
        r0.excluded_pages,
        excluded_bytes,
        saving * 100.0
    )
    .unwrap();
    comparisons.push(Comparison::new(
        "Ablation / exclusion saving on Sage (expect >20%)",
        20.0,
        saving * 100.0,
        "%",
    ));
    (body, comparisons)
}

/// Ablation 1+2: checkpoint traffic, incremental vs full, across
/// intervals.
fn traffic_ablation(obs: Recorder) -> Section {
    let mut body = String::new();
    let mut comparisons = Vec::new();
    writeln!(body, "ablation 1+2: checkpoint traffic (rank-0 bytes) over 40 virtual seconds")
        .unwrap();
    writeln!(body, "  synthetic: 4 MiB footprint, 1 MiB working set per 1 s iteration").unwrap();
    let mut t =
        TextTable::new("").header(&["interval (s)", "full bytes", "incremental bytes", "saving"]);
    let mut saving_at_2 = 0.0;
    for interval in [2u64, 5, 10] {
        let full_cfg =
            ft_config(CheckpointPolicy::always_full(SimDuration::from_secs(interval)), 40);
        let full = run_fault_tolerant(&full_cfg, layout(), build).unwrap();
        let mut incr_cfg =
            ft_config(CheckpointPolicy::incremental(SimDuration::from_secs(interval), 0), 40);
        if interval == 2 {
            incr_cfg.obs = obs.clone();
        }
        let incr = run_fault_tolerant(&incr_cfg, layout(), build).unwrap();
        let fb = full.ranks[0].checkpoint_bytes;
        let ib = incr.ranks[0].checkpoint_bytes;
        let saving = 1.0 - ib as f64 / fb as f64;
        if interval == 2 {
            saving_at_2 = saving;
        }
        t.row(vec![
            interval.to_string(),
            fb.to_string(),
            ib.to_string(),
            format!("{}%", fnum(saving * 100.0, 0)),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();
    // The synthetic app overwrites 1/4 of its image per iteration, so
    // increments approach a 75 % saving over full checkpoints.
    comparisons.push(Comparison::new(
        "Ablation / incremental saving @2s interval (expected ~72%)",
        72.0,
        saving_at_2 * 100.0,
        "%",
    ));
    (body, comparisons)
}

/// Ablation 3: chain length vs restore cost, and gc compaction.
fn chain_ablation(obs: Recorder) -> Section {
    let mut body = String::new();
    let mut comparisons = Vec::new();
    writeln!(body, "ablation 3: re-base frequency vs restore cost (rank 0)").unwrap();
    writeln!(body, "  planned = latest-wins plan (each page decoded once); seq = chain replay")
        .unwrap();
    let mut t = TextTable::new("").header(&[
        "full_every",
        "generations",
        "chain length",
        "restore bytes",
        "planned pages",
        "seq pages",
        "dead skipped",
    ]);
    let mut longest_chain = 0usize;
    let mut longest_planned = 0u64;
    let mut longest_seq = 0u64;
    for full_every in [0u64, 4, 2, 1] {
        let cfg =
            ft_config(CheckpointPolicy::incremental(SimDuration::from_secs(2), full_every), 30);
        let result = run_fault_tolerant(&cfg, layout(), build).unwrap();
        let gen = result.ranks[0].last_committed.expect("checkpoints taken");
        let mut space = BackedSpace::new(layout());
        let report = restore_rank(cfg.store.as_ref(), 0, gen, &mut space).unwrap();
        let mut seq_space = BackedSpace::new(layout());
        let seq = restore_rank_sequential(cfg.store.as_ref(), 0, gen, &mut seq_space).unwrap();
        assert_eq!(
            space.content_digest(),
            seq_space.content_digest(),
            "planned and sequential restores must agree"
        );
        if report.chain_length > longest_chain {
            longest_chain = report.chain_length;
            longest_planned = report.pages_applied;
            longest_seq = seq.pages_applied;
        }
        t.row(vec![
            full_every.to_string(),
            (gen + 1).to_string(),
            report.chain_length.to_string(),
            report.bytes_read.to_string(),
            report.pages_applied.to_string(),
            seq.pages_applied.to_string(),
            report.pages_superseded.to_string(),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();
    writeln!(
        body,
        "longest chain ({longest_chain} chunks): planned restore applies {longest_planned} pages \
         where sequential replay writes {longest_seq}"
    )
    .unwrap();
    comparisons.push(Comparison::new(
        "Ablation / planned restore page writes vs replay (expect <1x)",
        1.0,
        longest_planned as f64 / longest_seq.max(1) as f64,
        "x",
    ));

    // Compaction: merge the unbounded chain and restore again.
    let mut cfg = ft_config(CheckpointPolicy::incremental(SimDuration::from_secs(2), 0), 30);
    cfg.obs = obs;
    let result = run_fault_tolerant(&cfg, layout(), build).unwrap();
    let gen = result.ranks[0].last_committed.unwrap();
    let mut space = BackedSpace::new(layout());
    let before = restore_rank(cfg.store.as_ref(), 0, gen, &mut space).unwrap();
    // Discover the chain by walking parents, then compact it.
    let mut chain = Vec::new();
    let mut g = gen;
    loop {
        let chunk = Chunk::decode(&cfg.store.get_chunk(ChunkKey::new(0, g)).unwrap()).unwrap();
        chain.push(g);
        match chunk.parent {
            Some(p) => g = p,
            None => break,
        }
    }
    chain.reverse();
    gc::compact_rank_chain(cfg.store.as_ref(), 0, &chain, None).unwrap();
    let digest_before = space.content_digest();
    let mut space2 = BackedSpace::new(layout());
    let after = restore_rank(cfg.store.as_ref(), 0, gen, &mut space2).unwrap();
    writeln!(
        body,
        "gc compaction: chain {} → {} chunks, restore bytes {} → {}, image identical: {}",
        before.chain_length,
        after.chain_length,
        before.bytes_read,
        after.bytes_read,
        space2.content_digest() == digest_before
    )
    .unwrap();
    assert_eq!(space2.content_digest(), digest_before, "compaction must not change the image");
    comparisons.push(Comparison::new(
        "Ablation / compacted chain length",
        1.0,
        after.chain_length as f64,
        "chunks",
    ));
    (body, comparisons)
}

/// Ablation 6: storage-path topology — per-rank devices vs one shared
/// array.
fn storage_path_ablation(obs: Recorder) -> Section {
    let mut body = String::new();
    let mut comparisons = Vec::new();
    writeln!(body, "ablation 6: per-rank disks vs one shared storage array").unwrap();
    let mut t = TextTable::new("").header(&["ranks", "per-rank stall/ckpt", "shared stall/ckpt"]);
    let mut shared_growth = Vec::new();
    for nranks in [2usize, 4, 8] {
        let mut stalls = Vec::new();
        for path in [StoragePath::PerRank, StoragePath::Shared] {
            let cfg = FaultTolerantConfig {
                nranks,
                max_iterations: 20,
                timeslice: SimDuration::from_secs(1),
                policy: CheckpointPolicy::incremental(SimDuration::from_secs(3), 0),
                store: Arc::new(MemStore::new()),
                device: DevicePreset::ScsiDisk,
                mode: CheckpointMode::StopAndCopy,
                storage_path: path,
                failures: vec![],
                net: NetConfig::qsnet(),
                max_attempts: 1,
                redundancy: None,
                // Per-rank device lanes are the interesting view here:
                // only the largest PerRank run records.
                obs: if nranks == 8 && path == StoragePath::PerRank {
                    obs.clone()
                } else {
                    Recorder::disabled()
                },
                dedup: None,
                write_profile: Default::default(),
            };
            let build = move |rank: usize| -> Box<dyn AppModel> {
                Box::new(SyntheticApp::new(SyntheticConfig {
                    footprint_pages: 2048,
                    writes_per_iter: 512,
                    exchange_bytes: 4096,
                    rank,
                    nranks,
                    ..Default::default()
                }))
            };
            let report = run_fault_tolerant(&cfg, layout(), build).unwrap();
            // The coordinated release barrier makes the *max* stall the
            // relevant figure; report the slowest rank.
            let worst = report
                .ranks
                .iter()
                .map(|r| r.checkpoint_stall.as_secs_f64() / r.checkpoints.max(1) as f64)
                .fold(0.0f64, f64::max);
            stalls.push(worst);
        }
        shared_growth.push(stalls[1]);
        t.row(vec![
            nranks.to_string(),
            format!("{:.1} ms", stalls[0] * 1e3),
            format!("{:.1} ms", stalls[1] * 1e3),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();
    let growth = shared_growth[2] / shared_growth[0].max(1e-9);
    writeln!(
        body,
        "shared-array stall grows {growth:.1}x from 2 to 8 ranks (per-rank paths stay flat)"
    )
    .unwrap();
    comparisons.push(Comparison::new(
        "Ablation / shared-array stall growth 2→8 ranks (expect ~4x)",
        4.0,
        growth,
        "x",
    ));
    (body, comparisons)
}

/// Ablation 7: multilevel redundancy under node loss — single-tier vs
/// partner replication vs XOR parity.
fn redundancy_ablation(obs: Recorder) -> Section {
    let mut body = String::new();
    let mut comparisons = Vec::new();
    writeln!(body, "ablation 7: multilevel redundancy under node loss (rank 1 dies at t=15 s)")
        .unwrap();
    writeln!(
        body,
        "  node-local tier + scheme over the NIC, every 4th generation drained to the array"
    )
    .unwrap();
    let iters = 30u64;
    let policy = CheckpointPolicy::incremental(SimDuration::from_secs(2), 4);
    // Failure-free reference: the byte-exact application state every
    // recovered run must reproduce.
    let reference = run_fault_tolerant(&ft_config(policy, iters), layout(), build).unwrap();
    let ref_digest = reference.ranks[0].content_digest.expect("backed run has digest");

    let schemes = [
        SchemeSpec::LocalOnly,
        SchemeSpec::Partner { offset: 1 },
        SchemeSpec::XorParity { group_size: 2 },
    ];
    let mut t = TextTable::new("").header(&[
        "scheme",
        "recovery",
        "resume gen",
        "wasted (s)",
        "local MB",
        "redund MB",
        "drained MB",
        "digest ok",
    ]);
    let mut digests_ok = 0u32;
    let mut resume_gens = Vec::new();
    let outcomes = parallel_map(&schemes, |&scheme| {
        let mut cfg = ft_config(policy, iters);
        cfg.failures = vec![FailureSpec::node_loss(1, SimTime::from_secs(15))];
        cfg.max_attempts = 4;
        // Only the partner run records, so the section's single trace
        // group is written by exactly one run regardless of how the
        // scheme closures are scheduled.
        if matches!(scheme, SchemeSpec::Partner { .. }) {
            cfg.obs = obs.clone();
        }
        cfg.redundancy = Some(RedundancyConfig {
            scheme,
            local_device: DevicePreset::NodeLocal,
            drain_every: 4,
            drain_topology: DrainTopology::Flat,
        });
        run_fault_tolerant(&cfg, layout(), build).unwrap()
    });
    for (scheme, report) in schemes.iter().zip(outcomes) {
        assert_eq!(report.outcome, RunOutcome::Completed, "{scheme:?} must recover");
        let rec = report.recoveries.first().expect("one failure injected");
        let digest_ok = report.ranks[0].content_digest == Some(ref_digest);
        digests_ok += digest_ok as u32;
        resume_gens.push(rec.generation);
        let tier = report.ranks[1].tier.expect("tiered run reports usage");
        let drain = report.drain.expect("tiered run reports drain stats");
        t.row(vec![
            scheme.name().to_string(),
            rec.source.token().to_string(),
            rec.generation.map_or("-".into(), |g| g.to_string()),
            fnum(report.wasted.as_secs_f64(), 2),
            fnum(tier.local_bytes as f64 / 1e6, 2),
            fnum(tier.redundancy_bytes as f64 / 1e6, 2),
            fnum(drain.drained_bytes as f64 / 1e6, 2),
            digest_ok.to_string(),
        ]);
        // The redundant schemes must come back over the network at the
        // last committed generation; the single-tier baseline is forced
        // back to the durable tier.
        let expect = match scheme {
            SchemeSpec::LocalOnly => RecoveryTier::Durable,
            _ => RecoveryTier::Reconstructed,
        };
        assert_eq!(rec.source, expect, "{scheme:?} recovery source");
    }
    writeln!(body, "{}", t.render()).unwrap();
    let baseline_gen = resume_gens[0].expect("a drained generation exists");
    let partner_gen = resume_gens[1].expect("partner resumes at a committed generation");
    writeln!(
        body,
        "partner/XOR reconstruct generation {partner_gen} over the interconnect; the \
         single-tier baseline loses {} generations falling back to the drained generation \
         {baseline_gen}",
        partner_gen - baseline_gen
    )
    .unwrap();
    comparisons.push(Comparison::new(
        "Ablation / node-loss recoveries byte-identical to failure-free (expect 3)",
        3.0,
        digests_ok as f64,
        "runs",
    ));
    comparisons.push(Comparison::new(
        "Ablation / generations saved by redundancy vs single-tier (expect >0)",
        3.0,
        (partner_gen - baseline_gen) as f64,
        "gens",
    ));
    (body, comparisons)
}

/// Run all ablations (independent sections, scheduled in parallel,
/// rendered in the fixed order below).
pub(crate) fn report() -> ExperimentReport {
    let mut body =
        banner_string("Ablations: incremental vs full, interval sweep, chain length & gc");
    let sections: [(&str, SectionFn); 6] = [
        ("ablation1+2-traffic", traffic_ablation),
        ("ablation3-chain", chain_ablation),
        ("ablation4-mode", mode_ablation),
        ("ablation5-exclusion", exclusion_ablation),
        ("ablation6-storage-path", storage_path_ablation),
        ("ablation7-redundancy", redundancy_ablation),
    ];
    // One trace group per section, allocated here in render order so
    // group numbering is independent of the parallel schedule.
    let mut tb = TraceBuilder::begin();
    let jobs: Vec<(SectionFn, Recorder)> =
        sections.iter().map(|&(name, f)| (f, tb.recorder(name))).collect();
    let mut comparisons = Vec::new();
    for (i, (text, rows)) in parallel_map(&jobs, |(f, rec)| f(rec.clone())).into_iter().enumerate()
    {
        if i > 0 {
            body.push('\n');
        }
        body.push_str(&text);
        comparisons.extend(rows);
    }
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
