//! Figure 2: maximum and average IB vs checkpoint timeslice (1–20 s)
//! for Sage-1000MB, Sweep3D, BT, SP, FT and LU.
//!
//! Paper shape: average IB decays as the timeslice grows (page reuse);
//! for the short-period codes (the NAS suite, Sweep3D) maximum and
//! average are "practically equivalent" because the timeslices exceed
//! the burst durations; for Sage the maximum at 1 s is ~3.5× the
//! average.

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{ascii_multi_plot, Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;
use ickpt::obs::Recorder;

use crate::engine::{parallel_map, sweep_obs};
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, ib_stats, run};

/// The timeslices swept (seconds), matching the paper's x-axis.
pub(crate) use crate::engine::PAPER_TIMESLICES as TIMESLICES;

/// The six panels of Figure 2.
pub(crate) const PANELS: [Workload; 6] = [
    Workload::Sage1000,
    Workload::Sweep3d,
    Workload::NasBt,
    Workload::NasSp,
    Workload::NasFt,
    Workload::NasLu,
];

/// Sweep one workload, recording the 1 s run into `obs`; returns
/// (avg, max) per timeslice.
fn sweep(w: Workload, obs: &Recorder) -> Vec<(u64, f64, f64)> {
    parallel_map(&TIMESLICES, |&ts| {
        let report = run(w, ts, sweep_obs(ts, obs));
        let stats = ib_stats(w, &report, ts);
        (ts, stats.avg_mbps, stats.max_mbps)
    })
}

/// Regenerate Figure 2 (all six panels).
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Figure 2: max and avg IB vs timeslice (1-20 s)");
    let mut comparisons = Vec::new();
    let mut tb = TraceBuilder::begin();
    // One trace group per panel, at the 1 s endpoint.
    let panels: Vec<_> =
        PANELS.iter().map(|&w| (w, tb.recorder(&format!("{}/ts=1s", w.name())))).collect();
    for (w, rows) in parallel_map(&panels, |(w, rec)| (*w, sweep(*w, rec))) {
        let avg_series: Vec<(f64, f64)> =
            rows.iter().map(|&(ts, avg, _)| (ts as f64, avg)).collect();
        let max_series: Vec<(f64, f64)> =
            rows.iter().map(|&(ts, _, max)| (ts as f64, max)).collect();
        writeln!(
            body,
            "{}",
            ascii_multi_plot(
                &format!("IB vs timeslice: {} (MB/s)", w.name()),
                &[("average", &avg_series), ("maximum", &max_series)],
                60,
                12
            )
        )
        .unwrap();
        let mut t = TextTable::new("").header(&["timeslice (s)", "avg IB", "max IB"]);
        for &(ts, avg, max) in &rows {
            t.row(vec![ts.to_string(), fnum(avg, 1), fnum(max, 1)]);
        }
        writeln!(body, "{}", t.render()).unwrap();
        // Shape metric the paper calls out: the decay factor from 1 s
        // to 20 s of the average IB.
        let decay = rows[0].1 / rows.last().unwrap().1.max(1e-9);
        writeln!(body, "    avg-IB decay 1s→20s: {decay:.1}x\n").unwrap();
        comparisons.push(Comparison::new(
            format!("Fig 2 / {} avg IB @1s", w.name()),
            w.calib().avg_ib_mbps,
            rows[0].1,
            "MB/s",
        ));
        if w == Workload::Sage1000 {
            // The paper quotes 78.8 → 12.1 MB/s across the sweep.
            comparisons.push(Comparison::new(
                "Fig 2a / Sage-1000MB avg IB @20s",
                12.1,
                rows.last().unwrap().1,
                "MB/s",
            ));
        }
    }
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
