//! Figure 5 extended: per-process IB vs rank count pushed past the
//! paper's 64-processor ceiling — 64 → 4096 → 16384 ranks under weak
//! scaling, on the event-driven cluster engine.
//!
//! The paper's §6.4.2 claim ("the number of processors doesn't have a
//! significant influence on the IB") was measured up to 64 processors
//! and argued to generalize; this experiment actually runs the model
//! at BlueGene-class rank counts. Runs use [`ReportDetail::compact`],
//! so per-rank state stays bounded at 16k ranks.
//!
//! `ICKPT_BENCH_EXT_RANKS` picks the rank counts (see the README's knob
//! table); stdout is byte-identical at any `ICKPT_SIM_WORKERS` (host
//! timings go to stderr).

use std::fmt::Write as _;
use std::time::Instant;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;
use ickpt::cluster::{
    characterize, reduce_reports, CharacterizationConfig, ReportDetail, RunReport,
    DEFAULT_REDUCE_ARITY,
};
use ickpt::core::metrics::IbStats;
use ickpt::obs::Recorder;
use ickpt::sim::{env, SimDuration, SimTime};

use crate::obs_glue::TraceBuilder;
use crate::BENCH_SEED;

/// The default extended sweep: the paper's largest configuration, then
/// three orders past it.
pub(crate) const DEFAULT_EXT_RANKS: [usize; 4] = [64, 1024, 4096, 16384];

/// Memory scale of the extended sweep: ~100 MB/process Sage, keeping
/// 16k ranks in laptop memory.
pub(crate) const EXT_SCALE: f64 = 0.1;

/// Virtual run length of the extended sweep, in seconds.
pub(crate) const EXT_SECONDS: u64 = 120;

/// Rank counts for the extended sweep (`ICKPT_BENCH_EXT_RANKS`).
pub(crate) fn ext_ranks() -> Vec<usize> {
    env::knob("ICKPT_BENCH_EXT_RANKS", env::counts).unwrap_or_else(|| DEFAULT_EXT_RANKS.to_vec())
}

/// One extended run: Sage under weak scaling at `nranks`, recording
/// into `obs`.
fn ext_run(nranks: usize, obs: Recorder) -> RunReport {
    let cfg = CharacterizationConfig {
        nranks,
        scale: EXT_SCALE,
        run_for: SimDuration::from_secs(EXT_SECONDS),
        timeslice: SimDuration::from_secs(1),
        seed: BENCH_SEED,
        obs,
        detail: ReportDetail::compact(),
        ..Default::default()
    };
    let w = Workload::Sage1000;
    characterize(w, &cfg)
}

/// Rank-0 IB with only the data-initialization burst excluded (the
/// 120 s default is shorter than a full Sage period, so Figure 5's
/// full-period warm-up exclusion would skip everything).
fn ext_ib(report: &RunReport) -> IbStats {
    let init_s = Workload::Sage1000.calib().footprint_avg_mb / 400.0;
    let raw = IbStats::from_samples(
        &report.ranks[0].samples,
        SimDuration::from_secs(1),
        SimTime::from_secs_f64(init_s + 1.0),
    );
    let rescale = 1.0 / EXT_SCALE;
    IbStats { avg_mbps: raw.avg_mbps * rescale, max_mbps: raw.max_mbps * rescale, ..raw }
}

/// Regenerate the extended figure.
pub(crate) fn report() -> ExperimentReport {
    let ranks = ext_ranks();
    let mut body = format!(
        "\n=== Figure 5 extended: per-process IB, {} ranks (Sage, weak scaling) ===\n    \
         config: scale {}, {} virtual s, seed {:#x}, compact reports\n\n",
        ranks.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("/"),
        EXT_SCALE,
        EXT_SECONDS,
        BENCH_SEED,
    );
    let mut t = TextTable::new("").header(&[
        "ranks",
        "rank0 avg IB (MB/s)",
        "rank0 max IB (MB/s)",
        "cluster avg IWS (MB/rank/slice)",
        "iterations",
    ]);
    let mut rows: Vec<(usize, f64)> = Vec::new();
    // Ring capacity scaled for the largest run keeps a 16k-rank trace
    // export loadable (`--trace-out`).
    let mut tb = TraceBuilder::begin_scaled(ranks.iter().copied().max().unwrap_or(64));
    for &n in &ranks {
        let host_t0 = Instant::now();
        let report = ext_run(n, tb.recorder(&format!("{n}ranks")));
        let elapsed = host_t0.elapsed().as_secs_f64();
        host_timing(n, elapsed);
        let agg = reduce_reports(&report.ranks, DEFAULT_REDUCE_ARITY);
        let ib = ext_ib(&report);
        t.row(vec![
            n.to_string(),
            fnum(ib.avg_mbps, 1),
            fnum(ib.max_mbps, 1),
            fnum(agg.summary.avg_iws_mb() / EXT_SCALE, 1),
            agg.max_iterations.to_string(),
        ]);
        rows.push((n, ib.avg_mbps));
    }
    writeln!(body, "{}", t.render()).unwrap();

    let (r0, ib0) = rows[0];
    let (r_max, ib_max) = *rows.last().unwrap();
    writeln!(
        body,
        "weak scaling past the paper (§6.4.2): per-process IB at {r_max} ranks ({:.1}) vs \
         {r0} ranks ({:.1}): {:+.1}% — flat-or-lower past the paper's cluster: {}",
        ib_max,
        ib0,
        100.0 * (ib_max - ib0) / ib0,
        if ib_max <= ib0 * 1.05 { "CONFIRMED" } else { "VIOLATED" }
    )
    .unwrap();
    let comparisons = vec![Comparison::new(
        format!("Fig 5 ext / avg IB ratio {r_max}:{r0} ranks"),
        1.0,
        ib_max / ib0,
        "x",
    )];
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}

/// Host wall-clock per sweep point — stderr only, so stdout stays
/// byte-identical across `ICKPT_SIM_WORKERS` values.
// Sanctioned stderr write: timing is host-dependent by nature and must
// never reach the deterministic report body.
#[allow(clippy::disallowed_macros)]
fn host_timing(nranks: usize, elapsed_s: f64) {
    eprintln!(
        "fig5_extended: {nranks} ranks in {elapsed_s:.1}s host time ({:.0} ranks/s)",
        nranks as f64 / elapsed_s.max(1e-9)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_extend_the_paper() {
        // Anchor at the paper's 64-processor ceiling, end 256x past it.
        assert_eq!(DEFAULT_EXT_RANKS[0], 64);
        assert_eq!(*DEFAULT_EXT_RANKS.last().unwrap(), 16384);
        assert!(DEFAULT_EXT_RANKS.windows(2).all(|w| w[0] < w[1]));
    }
}
