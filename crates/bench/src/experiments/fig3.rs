//! Figure 3: average IB vs timeslice for the four Sage memory
//! footprints (50/100/500/1000 MB).
//!
//! Paper shape: IB grows with the footprint but **sublinearly** — at a
//! 1 s timeslice Sage-1000MB needs ~80 MB/s, not the ~100 MB/s a linear
//! extrapolation from Sage-500MB (~50 MB/s) would give (§6.4.1).

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{ascii_multi_plot, Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;

use crate::engine::{parallel_map, sweep_obs, PAPER_TIMESLICES as TIMESLICES};
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, ib_stats, run};

/// Regenerate Figure 3.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Figure 3: average IB vs timeslice for the Sage footprints");
    // One trace group per footprint, at the 1 s endpoint.
    let mut tb = TraceBuilder::begin();
    let sizes: Vec<_> =
        Workload::SAGE.iter().map(|&w| (w, tb.recorder(&format!("{}/ts=1s", w.name())))).collect();
    let all_rows: Vec<(Workload, Vec<(u64, f64)>)> = parallel_map(&sizes, |(w, rec)| {
        let w = *w;
        let rows = parallel_map(&TIMESLICES, |&ts| {
            let report = run(w, ts, sweep_obs(ts, rec));
            (ts, ib_stats(w, &report, ts).avg_mbps)
        });
        (w, rows)
    });
    let series: Vec<(&str, Vec<(f64, f64)>)> = all_rows
        .iter()
        .map(|(w, rows)| (w.name(), rows.iter().map(|&(ts, v)| (ts as f64, v)).collect::<Vec<_>>()))
        .collect();
    let series_refs: Vec<(&str, &[(f64, f64)])> =
        series.iter().map(|(n, s)| (*n, s.as_slice())).collect();
    writeln!(body, "{}", ascii_multi_plot("avg IB (MB/s) vs timeslice (s)", &series_refs, 60, 14))
        .unwrap();

    let mut t = TextTable::new("").header(&["timeslice (s)", "1000MB", "500MB", "100MB", "50MB"]);
    for (i, &ts) in TIMESLICES.iter().enumerate() {
        t.row(vec![
            ts.to_string(),
            fnum(all_rows[0].1[i].1, 1),
            fnum(all_rows[1].1[i].1, 1),
            fnum(all_rows[2].1[i].1, 1),
            fnum(all_rows[3].1[i].1, 1),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();

    // Sublinearity check at 1 s: IB(1000) / IB(500) < footprint ratio.
    let ib_1000 = all_rows[0].1[0].1;
    let ib_500 = all_rows[1].1[0].1;
    let growth = ib_1000 / ib_500.max(1e-9);
    writeln!(
        body,
        "sublinearity (§6.4.1): doubling the footprint 500→1000 MB grows avg IB by \
         {growth:.2}x (< 2.0x: {})",
        if growth < 2.0 { "CONFIRMED" } else { "VIOLATED" }
    )
    .unwrap();
    let comparisons = vec![
        Comparison::new("Fig 3 / Sage-1000MB avg IB @1s", 78.8, ib_1000, "MB/s"),
        Comparison::new("Fig 3 / Sage-500MB avg IB @1s", 49.9, ib_500, "MB/s"),
        Comparison::new("Fig 3 / IB growth for 2x footprint", 78.8 / 49.9, growth, "x"),
    ];
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
