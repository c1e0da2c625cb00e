//! # ickpt-bench — the experiment harness
//!
//! One experiment module per table/figure of the paper plus the
//! ablation studies; the `repro` binary runs them all (`repro --only
//! <name>` regenerates one). Speed is measured by the stand-alone
//! `perf/` package, not here. This library holds the shared glue:
//! standard run configurations, IB statistics extraction with the
//! paper's initialization-burst exclusion, and result formatting
//! ([`analysis`]: statistics, text tables, ASCII plots and
//! paper-vs-measured comparison rows).
//!
//! ## Environment knobs
//!
//! The defaults reproduce the paper's configuration (64 ranks, full
//! footprints); `ICKPT_BENCH_RANKS` / `_SCALE` / `_PERIODS` shrink it
//! on small machines. The README's knob table lists every `ICKPT_*`
//! variable with its values, default and reader; all of them are read
//! through [`ickpt::sim::env`].

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod engine;
pub mod experiments;
pub mod obs_glue;

pub use obs_glue::{set_trace_enabled, TraceBuilder};

use ickpt::apps::Workload;
use ickpt::cluster::RunReport;
use ickpt::core::metrics::IbStats;
use ickpt::obs::Recorder;
use ickpt::sim::{env, SimDuration, SimTime};

/// Seed used by every experiment (runs are pure functions of it).
pub const BENCH_SEED: u64 = 0x1DC4_2004;

/// Cluster size for experiments (the paper's largest is 64).
pub fn bench_ranks() -> usize {
    env::knob("ICKPT_BENCH_RANKS", env::count).unwrap_or(64)
}

/// Memory scale factor (1.0 = the paper's footprints).
pub fn bench_scale() -> f64 {
    env::knob("ICKPT_BENCH_SCALE", env::positive).unwrap_or(1.0)
}

/// Periods per run.
pub(crate) fn bench_periods() -> f64 {
    env::knob("ICKPT_BENCH_PERIODS", env::positive).unwrap_or(6.0)
}

/// Experiment scheduler threads (default: available parallelism).
pub(crate) fn bench_threads() -> usize {
    env::knob("ICKPT_BENCH_THREADS", env::count)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Virtual run length for a workload at a given timeslice: enough
/// periods for stable statistics and enough windows for long
/// timeslices.
pub(crate) fn run_length(w: Workload, timeslice_s: u64) -> SimDuration {
    let by_period = bench_periods() * w.calib().period_s;
    let by_windows = 25.0 * timeslice_s as f64;
    SimDuration::from_secs_f64(by_period.max(by_windows).max(60.0))
}

/// The instant up to which samples are excluded from IB statistics:
/// past the data-initialization burst (§6.3 excludes it) plus one full
/// iteration of warm-up.
pub(crate) fn skip_until(w: Workload) -> SimTime {
    // Initialization sweeps the footprint at ~400 MB/s (scale cancels).
    let init_s = w.calib().footprint_avg_mb / 400.0;
    SimTime::from_secs_f64(init_s + w.calib().period_s + 1.0)
}

/// Run a workload at a timeslice on the bench cluster and return the
/// report, recording into `obs`.
pub(crate) fn run(w: Workload, timeslice_s: u64, obs: Recorder) -> RunReport {
    engine::run_at(bench_ranks(), w, timeslice_s, obs)
}

/// Rank-0 IB statistics with the standard exclusion, rescaled back to
/// paper-equivalent MB/s when `ICKPT_BENCH_SCALE` shrinks memory.
pub(crate) fn ib_stats(w: Workload, report: &RunReport, timeslice_s: u64) -> IbStats {
    let raw = IbStats::from_samples(
        &report.ranks[0].samples,
        SimDuration::from_secs(timeslice_s),
        skip_until(w),
    );
    let rescale = 1.0 / bench_scale();
    IbStats {
        avg_mbps: raw.avg_mbps * rescale,
        max_mbps: raw.max_mbps * rescale,
        // Ratios are scale-free.
        ..raw
    }
}

/// Footprint (max, avg) in paper-equivalent MB from rank 0's samples.
pub(crate) fn footprint_mb(report: &RunReport) -> (f64, f64) {
    let (max, avg) = ickpt::core::metrics::footprint_stats(&report.ranks[0].samples);
    let rescale = 1.0 / bench_scale();
    (max * rescale, avg * rescale)
}

/// The standard bench banner.
pub(crate) fn banner_string(what: &str) -> String {
    format!(
        "\n=== {what} ===\n    config: {} ranks, scale {}, seed {:#x}\n\n",
        bench_ranks(),
        bench_scale(),
        BENCH_SEED
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_lengths_cover_periods_and_windows() {
        let sage = run_length(Workload::Sage1000, 1);
        assert!(sage.as_secs_f64() >= 6.0 * 145.0);
        let sp20 = run_length(Workload::NasSp, 20);
        assert!(sp20.as_secs_f64() >= 500.0, "needs 25 windows of 20 s");
    }

    #[test]
    fn skip_clears_init_and_warmup() {
        let s = skip_until(Workload::Sage1000);
        assert!(s.as_secs_f64() > 145.0);
        let s = skip_until(Workload::NasLu);
        assert!(s.as_secs_f64() > 1.0 && s.as_secs_f64() < 10.0);
    }
}
