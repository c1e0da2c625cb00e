//! Table 3: characteristics of the main iteration — average period and
//! percentage of the memory footprint overwritten per iteration.
//!
//! The period is detected **automatically at run time** from the IWS
//! series by autocorrelation (§6.2 argues this identification is
//! possible; `ickpt_core::policy` implements it). The overwrite
//! fraction comes from the tracker's per-iteration unique-page
//! accumulation, cross-checked against the application's own iteration
//! marks.
//!
//! Paper values: Sage-1000MB 145 s / 53 %, Sage-500MB 80 / 54,
//! Sage-100MB 38 / 56, Sage-50MB 20 / 57, Sweep3D 7 / 52,
//! SP 0.16 / 72, LU 0.7 / 72, BT 0.4 / 92, FT 1.2 / 57.

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;
use ickpt::core::policy::detect_period;

use ickpt::obs::Recorder;

use crate::engine::{detection_timeslice, parallel_map, run_table3};
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, skip_until};

/// Run one workload with fine sampling + iteration tracking: the
/// detected period and the overwrite fraction.
fn measure(w: Workload, obs: Recorder) -> (Option<f64>, f64) {
    let ts = detection_timeslice(w);
    let report = run_table3(w, obs);
    let r0 = &report.ranks[0];
    // Automatic period detection from the IWS series.
    let skip_windows = (skip_until(w).as_secs_f64() / ts.as_secs_f64()).ceil() as usize;
    let series: Vec<u64> = r0.samples.iter().map(|s| s.iws_pages).collect();
    let period = detect_period(&series, ts, skip_windows).map(|d| d.as_secs_f64());
    // Ground truth: unique pages per application iteration vs
    // footprint (skip the first iteration, which includes warm-up).
    let its = &r0.iteration_samples;
    let tail = &its[its.len().min(1)..];
    let overwrite = if tail.is_empty() {
        0.0
    } else {
        let fracs: Vec<f64> = tail
            .iter()
            .filter(|s| s.footprint_pages > 0)
            .map(|s| 100.0 * s.unique_pages as f64 / s.footprint_pages as f64)
            .collect();
        crate::analysis::stats::mean(&fracs)
    };
    (period, overwrite)
}

/// Regenerate Table 3.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Table 3: Characteristics of the Main Iteration");
    let mut table = TextTable::new("").header(&[
        "Application",
        "Period (s)",
        "Overwritten",
        "paper period",
        "paper overwr.",
    ]);
    let mut comparisons = Vec::new();
    let mut tb = TraceBuilder::begin();
    let runs: Vec<_> = Workload::ALL.iter().map(|&w| (w, tb.recorder(w.name()))).collect();
    let rows = parallel_map(&runs, |(w, rec)| (*w, measure(*w, rec.clone())));
    for (w, (period, overwrite)) in rows {
        let c = w.calib();
        let period_str = period.map_or("n/a".to_string(), |p| fnum(p, 2));
        table.row(vec![
            w.name().to_string(),
            period_str,
            format!("{}%", fnum(overwrite, 0)),
            fnum(c.period_s, 2),
            format!("{}%", fnum(c.overwrite_frac * 100.0, 0)),
        ]);
        if let Some(p) = period {
            comparisons.push(Comparison::new(
                format!("Table 3 / {} period (auto-detected)", w.name()),
                c.period_s,
                p,
                "s",
            ));
        }
        comparisons.push(Comparison::new(
            format!("Table 3 / {} % overwritten", w.name()),
            c.overwrite_frac * 100.0,
            overwrite,
            "%",
        ));
    }
    writeln!(body, "{}", table.render()).unwrap();
    writeln!(body, "(periods detected at run time by IWS autocorrelation, §6.2)").unwrap();
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
