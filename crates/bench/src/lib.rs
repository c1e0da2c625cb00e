//! # ickpt-bench — the experiment harness
//!
//! One experiment module per table/figure of the paper plus the
//! ablation studies; the `repro` binary runs them all (`repro --only
//! <name>` regenerates one). Speed is measured by the stand-alone
//! `perf/` package, not here. This library holds the shared glue:
//! standard run configurations, IB statistics extraction with the
//! paper's initialization-burst exclusion, and result formatting.
//!
//! ## Environment knobs
//!
//! The defaults reproduce the paper's configuration (64 ranks, full
//! footprints). On small machines override with:
//!
//! * `ICKPT_BENCH_RANKS` — cluster size (default 64).
//! * `ICKPT_BENCH_SCALE` — memory scale factor (default 1.0).
//! * `ICKPT_BENCH_PERIODS` — main-iteration periods to simulate per
//!   run (default 6).
//! * `ICKPT_BENCH_THREADS` — experiment scheduler threads (default:
//!   available parallelism). Results are byte-identical at any value.
//! * `ICKPT_BENCH_NATIVE` — set to `1` to run the real-`mprotect`
//!   native intrusiveness measurement (host-dependent; off by
//!   default so the suite is a pure function of the seed).
//!
//! A malformed knob aborts with a clear message rather than silently
//! running the default configuration (`ICKPT_BENCH_RANKS=6.4` used to
//! quietly simulate 64 ranks).

pub mod engine;
pub mod experiments;
pub mod obs_glue;

pub use obs_glue::{set_trace_enabled, trace_enabled, TraceBuilder};

use ickpt::apps::Workload;
use ickpt::cluster::{CharacterizationConfig, RunReport};
use ickpt::core::metrics::IbStats;
use ickpt::sim::{SimDuration, SimTime};

/// Seed used by every experiment (runs are pure functions of it).
pub const BENCH_SEED: u64 = 0x1DC4_2004;

/// Parse an env-knob value, rejecting garbage instead of swallowing it.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: &str,
    expect: &str,
    valid: fn(&T) -> bool,
) -> Result<T, String> {
    match raw.trim().parse::<T>() {
        Ok(v) if valid(&v) => Ok(v),
        Ok(_) => Err(format!("{name}={raw:?} is out of range: expected {expect}")),
        Err(_) => Err(format!("{name}={raw:?} is invalid: expected {expect}")),
    }
}

/// Read an env knob strictly: unset → default, malformed → exit(2)
/// with a message naming the variable (never a silent fallback).
// The one sanctioned stderr write in a library crate: this aborts the
// process, so there is no report to return the message through.
#[allow(clippy::disallowed_macros)]
fn knob<T: std::str::FromStr>(name: &str, default: T, expect: &str, valid: fn(&T) -> bool) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => parse_knob(name, &raw, expect, valid).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

/// Cluster size for experiments (the paper's largest is 64).
pub fn bench_ranks() -> usize {
    knob("ICKPT_BENCH_RANKS", 64, "a whole number of ranks >= 1", |&r: &usize| r >= 1)
}

/// Memory scale factor (1.0 = the paper's footprints).
pub fn bench_scale() -> f64 {
    knob("ICKPT_BENCH_SCALE", 1.0, "a finite scale factor > 0", |&s: &f64| s > 0.0 && s.is_finite())
}

/// Periods per run.
pub fn bench_periods() -> f64 {
    knob("ICKPT_BENCH_PERIODS", 6.0, "a finite period count > 0", |&p: &f64| {
        p > 0.0 && p.is_finite()
    })
}

/// Experiment scheduler threads (default: available parallelism).
pub fn bench_threads() -> usize {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    knob("ICKPT_BENCH_THREADS", default, "a whole number of threads >= 1", |&t: &usize| t >= 1)
}

/// Virtual run length for a workload at a given timeslice: enough
/// periods for stable statistics and enough windows for long
/// timeslices.
pub fn run_length(w: Workload, timeslice_s: u64) -> SimDuration {
    let by_period = bench_periods() * w.calib().period_s;
    let by_windows = 25.0 * timeslice_s as f64;
    SimDuration::from_secs_f64(by_period.max(by_windows).max(60.0))
}

/// The instant up to which samples are excluded from IB statistics:
/// past the data-initialization burst (§6.3 excludes it) plus one full
/// iteration of warm-up.
pub fn skip_until(w: Workload) -> SimTime {
    // Initialization sweeps the footprint at ~400 MB/s (scale cancels).
    let init_s = w.calib().footprint_avg_mb / 400.0;
    SimTime::from_secs_f64(init_s + w.calib().period_s + 1.0)
}

/// Standard characterization config for a workload/timeslice.
pub fn standard_config(w: Workload, timeslice_s: u64) -> CharacterizationConfig {
    CharacterizationConfig {
        nranks: bench_ranks(),
        scale: bench_scale(),
        run_for: run_length(w, timeslice_s),
        timeslice: SimDuration::from_secs(timeslice_s),
        seed: BENCH_SEED,
        ..Default::default()
    }
}

/// Run a workload at a timeslice and return the full report. Served
/// from the trace engine: the workload is simulated once at fine
/// resolution and re-binned (property-tested bit-exact against
/// [`engine::run_direct`], the direct per-timeslice simulation).
pub fn run(w: Workload, timeslice_s: u64) -> RunReport {
    engine::run_cached(w, timeslice_s)
}

/// Rank-0 IB statistics with the standard exclusion, rescaled back to
/// paper-equivalent MB/s when `ICKPT_BENCH_SCALE` shrinks memory.
pub fn ib_stats(w: Workload, report: &RunReport, timeslice_s: u64) -> IbStats {
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
pub fn footprint_mb(report: &RunReport) -> (f64, f64) {
    let (max, avg) = ickpt::core::metrics::footprint_stats(&report.ranks[0].samples);
    let rescale = 1.0 / bench_scale();
    (max * rescale, avg * rescale)
}

/// The standard bench banner.
pub fn banner_string(what: &str) -> String {
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

    #[test]
    fn knob_parsing_is_strict() {
        let ranks = |raw: &str| {
            parse_knob::<usize>("ICKPT_BENCH_RANKS", raw, "a whole number of ranks >= 1", |&r| {
                r >= 1
            })
        };
        assert_eq!(ranks("64"), Ok(64));
        assert_eq!(ranks(" 8 "), Ok(8));
        // The historical bug: "6.4" must NOT silently become 64 ranks.
        let err = ranks("6.4").unwrap_err();
        assert!(err.contains("ICKPT_BENCH_RANKS") && err.contains("6.4"), "{err}");
        assert!(ranks("0").unwrap_err().contains("out of range"));
        assert!(ranks("").is_err() && ranks("sixty-four").is_err());

        let scale = |raw: &str| {
            parse_knob::<f64>("ICKPT_BENCH_SCALE", raw, "a finite scale factor > 0", |&s| {
                s > 0.0 && s.is_finite()
            })
        };
        assert_eq!(scale("0.05"), Ok(0.05));
        assert!(scale("-1").unwrap_err().contains("out of range"));
        assert!(scale("0").is_err() && scale("inf").is_err() && scale("NaN").is_err());
        assert!(scale("1,5").unwrap_err().contains("invalid"));

        let threads = |raw: &str| {
            parse_knob::<usize>(
                "ICKPT_BENCH_THREADS",
                raw,
                "a whole number of threads >= 1",
                |&t| t >= 1,
            )
        };
        assert_eq!(threads("4"), Ok(4));
        assert!(threads("0").is_err() && threads("auto").is_err());
    }
}
