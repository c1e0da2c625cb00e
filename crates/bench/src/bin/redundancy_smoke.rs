//! `redundancy_smoke` — end-to-end check of the multilevel redundancy
//! subsystem, small enough for the verification gate.
//!
//! Runs the synthetic workload twice on tiered storage (node-local
//! tier + partner replication + drained shared array): once failure
//! free, once with a **node loss** injected mid-run that wipes the
//! failed rank's node-local tier. The wiped rank must recover by
//! partner reconstruction over the interconnect, and the final
//! application state of every rank must be byte-identical to the
//! failure-free run. Exits non-zero on any mismatch.
//!
//! `--trace-out <dir>` additionally captures a flight-recorder trace
//! of both runs (groups `failure-free` and `node-loss`) and writes
//! `redundancy-smoke.trace.json` + `redundancy-smoke.jsonl` there.

#![deny(unreachable_pub)]
// Terminal-facing target: printing is its job.
#![allow(clippy::disallowed_macros)]

use std::process::ExitCode;
use std::sync::Arc;

use ickpt::apps::synthetic::{SyntheticApp, SyntheticConfig};
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FailureSpec, FaultTolerantConfig, RedundancyConfig,
    RunOutcome, RunReport, StoragePath,
};
use ickpt::core::coordinator::CheckpointPolicy;
use ickpt::core::metrics::TierSummary;
use ickpt::mem::{LayoutBuilder, PAGE_SIZE};
use ickpt::net::NetConfig;
use ickpt::obs::RecoveryTier;
use ickpt::sim::{DevicePreset, SimDuration, SimTime};
use ickpt::storage::{DrainTopology, MemStore, SchemeSpec};

const NRANKS: usize = 4;

fn run(failures: Vec<FailureSpec>, obs: ickpt::obs::Recorder) -> RunReport {
    let cfg = FaultTolerantConfig {
        nranks: NRANKS,
        max_iterations: 15,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(3), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::Shared,
        failures,
        net: NetConfig::qsnet(),
        redundancy: Some(RedundancyConfig {
            scheme: SchemeSpec::Partner { offset: 1 },
            local_device: DevicePreset::NodeLocal,
            drain_every: 4,
            drain_topology: DrainTopology::Flat,
        }),
        max_attempts: 4,
        obs,
        dedup: None,
        write_profile: Default::default(),
    };
    let layout = LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(2048 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build();
    run_fault_tolerant(&cfg, layout, |rank| {
        Box::new(SyntheticApp::new(SyntheticConfig {
            exchange_bytes: 8192,
            rank,
            nranks: NRANKS,
            ..Default::default()
        }))
    })
    .expect("simulated run completes")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let trace_out =
        args.iter().position(|a| a == "--trace-out").and_then(|i| args.get(i + 1)).cloned();
    if trace_out.is_some() {
        ickpt_bench::set_trace_enabled(true);
    }
    let mut tb = ickpt_bench::TraceBuilder::begin();
    let reference = run(vec![], tb.recorder("failure-free"));
    let recovered =
        run(vec![FailureSpec::node_loss(1, SimTime::from_secs(8))], tb.recorder("node-loss"));
    let mut ok = true;
    let mut check = |label: &str, pass: bool| {
        println!("{} {label}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };

    check("failure-free run completed", reference.outcome == RunOutcome::Completed);
    check("node-loss run completed", recovered.outcome == RunOutcome::Completed);
    check("exactly one recovery", recovered.recoveries.len() == 1);
    let source = recovered.recoveries.first().map(|r| r.source);
    check(
        "wiped rank recovered by partner reconstruction",
        source == Some(RecoveryTier::Reconstructed),
    );
    for (a, b) in reference.ranks.iter().zip(&recovered.ranks) {
        check(
            &format!("rank {} final state byte-identical to failure-free run", a.rank),
            a.content_digest.is_some() && a.content_digest == b.content_digest,
        );
    }
    let usage: Vec<_> = recovered.ranks.iter().filter_map(|r| r.tier).collect();
    let summary = TierSummary::from_usage(&usage);
    check("all ranks report tier usage", usage.len() == NRANKS);
    check("checkpoints landed on the node-local tier", summary.local_mb > 0.0);
    check("partner copies crossed the interconnect", summary.redundancy_mb > 0.0);
    check("recovery pulled bytes over the network", summary.recovery_net_mb > 0.0);
    println!(
        "tier accounting: local {:.2} MB ({:.3} s busy), redundancy {:.2} MB \
         ({:.3} s NIC), recovery {:.2} MB net in {:.3} s, overhead {:.0}%",
        summary.local_mb,
        summary.local_busy_s,
        summary.redundancy_mb,
        summary.nic_busy_s,
        summary.recovery_net_mb,
        summary.recovery_s,
        summary.redundancy_overhead_percent()
    );

    if let Some(trace) = tb.finish() {
        if let Some(dir) = &trace_out {
            let dir = std::path::Path::new(dir);
            if !trace.chrome_json.is_empty() {
                let (chrome, jsonl) =
                    ickpt_bench::obs_glue::write_trace_files(dir, "redundancy smoke", &trace)
                        .expect("write trace files");
                println!("trace: {} + {}", chrome.display(), jsonl.display());
            }
            if let Some(path) =
                ickpt_bench::obs_glue::write_metrics_file(dir, "redundancy smoke", &trace)
                    .expect("write metrics file")
            {
                println!("metrics: {}", path.display());
            }
        }
        print!("{}", trace.summary);
        if let Some(metrics) = &trace.metrics {
            print!("{metrics}");
        }
    }

    if ok {
        println!("redundancy smoke: OK");
        ExitCode::SUCCESS
    } else {
        println!("redundancy smoke: FAILED");
        ExitCode::FAILURE
    }
}
