//! Availability under failures: the paper's motivating scenario,
//! measured end to end.
//!
//! §1 motivates the work with machines that fail "every few hours" and
//! therefore need checkpoints "every few minutes". This experiment
//! closes that loop on the simulated cluster: run a workload under a
//! deterministic pseudo-Poisson failure process, checkpoint at several
//! intervals, recover on every failure, and measure the achieved
//! **efficiency** (ideal compute time / actual wall time). The
//! measured optimum is compared against Young's analytic interval
//! `sqrt(2·C·M)` from `ickpt_core::interval`.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::synthetic::{SyntheticApp, SyntheticConfig};
use ickpt::apps::AppModel;
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FailureSpec, FaultTolerantConfig, RunOutcome, StoragePath,
};
use ickpt::core::coordinator::CheckpointPolicy;
use ickpt::core::interval::IntervalModel;
use ickpt::net::NetConfig;
use ickpt::sim::{DevicePreset, SimDuration, SimTime, SplitMix64};
use ickpt::storage::MemStore;

use crate::engine::parallel_map;
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, BENCH_SEED};

const NRANKS: usize = 4;
const ITERATIONS: u64 = 120;
/// Mean time between failures (virtual seconds). Iterations are 1 s,
/// so this is the paper's "failures every few hours" scaled to the
/// synthetic workload's clock.
const MTBF_S: f64 = 60.0;

fn build(rank: usize) -> Box<dyn AppModel> {
    Box::new(SyntheticApp::new(SyntheticConfig {
        footprint_pages: 2048,
        writes_per_iter: 512,
        exchange_bytes: 4096,
        rank,
        nranks: NRANKS,
        ..Default::default()
    }))
}

fn layout() -> ickpt::mem::DataLayout {
    ickpt::mem::LayoutBuilder::new()
        .static_bytes(ickpt::mem::PAGE_SIZE)
        .heap_capacity_bytes(4096 * ickpt::mem::PAGE_SIZE)
        .mmap_capacity_bytes(ickpt::mem::PAGE_SIZE)
        .build()
}

/// Deterministic exponential inter-arrival failure times.
fn failure_schedule(seed: u64, mtbf_s: f64, horizon_s: f64) -> Vec<FailureSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential draw.
        let u = rng.next_f64().max(1e-12);
        t += -mtbf_s * u.ln();
        if t >= horizon_s {
            return out;
        }
        out.push(FailureSpec::process(
            rng.next_below(NRANKS as u64) as usize,
            SimTime::from_secs_f64(t),
        ));
    }
}

struct Outcome {
    efficiency: f64,
    attempts: u32,
    ckpt_cost_s: f64,
}

fn run_at_interval(
    interval_s: u64,
    failures: Vec<FailureSpec>,
    obs: ickpt::obs::Recorder,
) -> Outcome {
    let cfg = FaultTolerantConfig {
        nranks: NRANKS,
        max_iterations: ITERATIONS,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(interval_s), 4),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures,
        net: NetConfig::qsnet(),
        max_attempts: 64,
        redundancy: None,
        obs,
        dedup: None,
        write_profile: Default::default(),
    };
    let report = run_fault_tolerant(&cfg, layout(), build).expect("run completes");
    assert_eq!(report.outcome, RunOutcome::Completed);
    let r0 = &report.ranks[0];
    // Ideal: the iterations' own virtual time with no checkpoints and
    // no failures (synthetic iterations are exactly 1 s + init 0.1 s).
    let ideal_s = ITERATIONS as f64 * 1.0 + 0.1;
    // Wall time = the successful attempt's span plus everything the
    // failed attempts burned (rework + restore).
    let actual_s = r0.final_time.as_secs_f64() + report.wasted.as_secs_f64();
    Outcome {
        efficiency: (ideal_s / actual_s).min(1.0),
        attempts: report.attempts,
        ckpt_cost_s: if r0.checkpoints > 0 {
            r0.checkpoint_stall.as_secs_f64() / r0.checkpoints as f64
        } else {
            0.0
        },
    }
}

/// Run the availability study.
pub(crate) fn report() -> ExperimentReport {
    let mut body =
        banner_string("Availability: measured efficiency under failures vs Young's model");
    writeln!(
        body,
        "synthetic workload, {NRANKS} ranks, {ITERATIONS} x 1 s iterations, \
         MTBF {MTBF_S} s (pseudo-Poisson, seeded)"
    )
    .unwrap();
    // Failures regenerated per run over a generous horizon; attempt i
    // consumes failures[i], which approximates a failure process over
    // the (recovery-extended) run.
    let horizon = 20.0 * ITERATIONS as f64;
    let mut t = TextTable::new("").header(&[
        "interval (s)",
        "efficiency",
        "predicted",
        "failures",
        "ckpt cost (s)",
    ]);
    let mut best: Option<(u64, f64)> = None;
    let mut ckpt_cost = 0.0f64;
    let mut rows = Vec::new();
    // Recorders pre-allocated in interval order so trace group
    // numbering stays deterministic under the parallel scheduler.
    let mut tb = TraceBuilder::begin();
    let runs: Vec<(u64, ickpt::obs::Recorder)> =
        [2u64, 4, 8, 16, 32].iter().map(|&i| (i, tb.recorder(&format!("interval={i}s")))).collect();
    let outcomes = parallel_map(&runs, |(interval, rec)| {
        let failures = failure_schedule(BENCH_SEED ^ interval, MTBF_S, horizon);
        (*interval, run_at_interval(*interval, failures, rec.clone()))
    });
    for (interval, out) in outcomes {
        ckpt_cost = ckpt_cost.max(out.ckpt_cost_s);
        let model = IntervalModel {
            checkpoint_cost: SimDuration::from_secs_f64(out.ckpt_cost_s.max(1e-3)),
            restart_cost: SimDuration::from_secs_f64(out.ckpt_cost_s.max(1e-3)),
            mtbf: SimDuration::from_secs_f64(MTBF_S),
        };
        let predicted = model.efficiency(SimDuration::from_secs(interval));
        t.row(vec![
            interval.to_string(),
            fnum(out.efficiency * 100.0, 1) + "%",
            fnum(predicted * 100.0, 1) + "%",
            (out.attempts - 1).to_string(),
            fnum(out.ckpt_cost_s, 3),
        ]);
        rows.push(Comparison::new(
            format!("Availability / efficiency @interval {interval}s (vs Young model)"),
            predicted * 100.0,
            out.efficiency * 100.0,
            "%",
        ));
        if best.is_none_or(|(_, e)| out.efficiency > e) {
            best = Some((interval, out.efficiency));
        }
    }
    writeln!(body, "{}", t.render()).unwrap();
    let model = IntervalModel {
        checkpoint_cost: SimDuration::from_secs_f64(ckpt_cost.max(1e-3)),
        restart_cost: SimDuration::from_secs_f64(ckpt_cost.max(1e-3)),
        mtbf: SimDuration::from_secs_f64(MTBF_S),
    };
    let (best_i, best_e) = best.unwrap();
    writeln!(
        body,
        "measured optimum: interval {best_i} s at {:.1}% efficiency; Young's analytic \
         optimum: {:.1} s (Daly: {:.1} s)",
        best_e * 100.0,
        model.young_interval().as_secs_f64(),
        model.daly_interval().as_secs_f64()
    )
    .unwrap();
    ExperimentReport::new(body, rows).with_trace(tb.finish())
}
