//! §6.5 — Intrusiveness: the slowdown the instrumentation itself
//! causes.
//!
//! Paper: "a slowdown lower than 10% for a timeslice of 1 s. Most of
//! the overhead is caused by the page fault handler [...] when we
//! increase the timeslice the impact of the page fault handler is
//! mitigated by the data reuse."
//!
//! Two measurements:
//!
//! 1. **Simulated**: Sage-1000MB with a per-fault cost of 4 µs and
//!    clock stretching, across timeslices — the fleet-level view. The
//!    paper's own numbers imply this cost: ~78.8 MB/s of faulting
//!    pages (19.2k faults/s) at "< 10%" slowdown bounds the
//!    fault+handler+`mprotect` path at ~5 µs on the Itanium-II.
//! 2. **Native**: the real `mprotect`/`SIGSEGV` tracker from
//!    `ickpt-native` sweeping a region on this machine, tracked vs
//!    untracked wall time. Host wall-clock is not a function of the
//!    seed, so this half only runs when `ICKPT_BENCH_NATIVE=1` —
//!    keeping the default suite byte-reproducible run to run.

use std::fmt::Write as _;
use std::time::Duration;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;
use ickpt::cluster::{characterize, CharacterizationConfig};
use ickpt::native::intrusiveness::measure;
use ickpt::sim::{env, SimDuration};

use ickpt::obs::Recorder;

use crate::engine::parallel_map;
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, bench_ranks, bench_scale, run_length, BENCH_SEED};

/// Simulated slowdown of Sage-1000MB at a given timeslice: a nonzero
/// fault cost, with rank clocks stretched by the fault overhead.
fn simulated_slowdown(ts: u64, obs: Recorder) -> f64 {
    let w = Workload::Sage1000;
    let cfg = CharacterizationConfig {
        nranks: bench_ranks().min(8),
        scale: bench_scale(),
        run_for: run_length(w, ts).min(SimDuration::from_secs(500)),
        timeslice: SimDuration::from_secs(ts),
        fault_cost: SimDuration::from_micros(4),
        stretch_overhead: true,
        seed: BENCH_SEED,
        obs,
        ..Default::default()
    };
    let report = characterize(w, &cfg);
    let r0 = &report.ranks[0];
    r0.overhead.as_secs_f64() / (r0.final_time.as_secs_f64() - r0.overhead.as_secs_f64())
}

/// Regenerate the §6.5 intrusiveness experiment.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Section 6.5: Intrusiveness");
    let mut comparisons = Vec::new();

    writeln!(body, "simulated: Sage-1000MB, 4 us per page fault, clocks stretched").unwrap();
    let mut t = TextTable::new("").header(&["timeslice (s)", "slowdown"]);
    let mut slow_1s = 0.0;
    let mut prev = f64::MAX;
    let mut monotone = true;
    // Recorders are allocated up front, in timeslice order, so group
    // numbering stays deterministic under the parallel scheduler.
    let mut tb = TraceBuilder::begin();
    let runs: Vec<(u64, Recorder)> =
        [1u64, 2, 5, 10, 20].iter().map(|&ts| (ts, tb.recorder(&format!("ts={ts}s")))).collect();
    let slowdowns = parallel_map(&runs, |(ts, rec)| (*ts, simulated_slowdown(*ts, rec.clone())));
    for (ts, s) in slowdowns {
        if ts == 1 {
            slow_1s = s;
        }
        monotone &= s <= prev + 1e-9;
        prev = s;
        t.row(vec![ts.to_string(), format!("{}%", fnum(s * 100.0, 2))]);
    }
    writeln!(body, "{}", t.render()).unwrap();
    writeln!(
        body,
        "paper: < 10% at 1 s, shrinking with the timeslice — measured {}% at 1 s, \
         monotone decrease: {}",
        fnum(slow_1s * 100.0, 2),
        if monotone { "CONFIRMED" } else { "VIOLATED" }
    )
    .unwrap();
    comparisons.push(Comparison::new(
        "§6.5 / simulated slowdown @1s (paper bound 10%)",
        10.0,
        slow_1s * 100.0,
        "%",
    ));

    writeln!(body).unwrap();
    if env::knob("ICKPT_BENCH_NATIVE", env::flag).unwrap_or(false) {
        writeln!(body, "native: real mprotect/SIGSEGV tracker on this machine").unwrap();
        let mut t =
            TextTable::new("").header(&["timeslice", "baseline", "tracked", "slowdown", "faults"]);
        // The sweep must span many timeslices for re-protection to bite:
        // 2048 pages x 60 passes is tens of milliseconds of wall time.
        for ms in [2u64, 20, 1000] {
            let r = measure(2048, 60, Duration::from_millis(ms));
            t.row(vec![
                format!("{ms} ms"),
                format!("{:?}", r.baseline),
                format!("{:?}", r.tracked),
                format!("{:.2}x", r.slowdown()),
                r.faults.to_string(),
            ]);
        }
        writeln!(body, "{}", t.render()).unwrap();
        writeln!(body, "(native numbers are machine-dependent; the shape — fewer faults and")
            .unwrap();
        writeln!(body, " lower slowdown at longer timeslices — is the reproduced claim)").unwrap();
    } else {
        writeln!(
            body,
            "native: skipped (host wall-clock, not seed-reproducible); \
             set ICKPT_BENCH_NATIVE=1 to run the real mprotect/SIGSEGV tracker"
        )
        .unwrap();
    }
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
