//! Figure 4: ratio of IWS size to memory-image size (%) per timeslice,
//! for the four Sage footprints.
//!
//! Paper shape: the ratio grows with the timeslice toward the ~55 %
//! per-iteration overwrite fraction, and at short timeslices the
//! *larger* footprints have the *smaller* ratio — which is exactly why
//! IB grows sublinearly with memory (§6.4.1).

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{ascii_multi_plot, Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;

use crate::engine::{parallel_map, sweep_obs, PAPER_TIMESLICES as TIMESLICES};
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, ib_stats, run};

/// Regenerate Figure 4.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Figure 4: IWS size / memory image size (%) vs timeslice");
    // One trace group per footprint, at the 1 s endpoint.
    let mut tb = TraceBuilder::begin();
    let sizes: Vec<_> =
        Workload::SAGE.iter().map(|&w| (w, tb.recorder(&format!("{}/ts=1s", w.name())))).collect();
    let all_rows: Vec<(Workload, Vec<(u64, f64)>)> = parallel_map(&sizes, |(w, rec)| {
        let w = *w;
        let rows = parallel_map(&TIMESLICES, |&ts| {
            let report = run(w, ts, sweep_obs(ts, rec));
            (ts, ib_stats(w, &report, ts).avg_ratio_percent)
        });
        (w, rows)
    });
    let series: Vec<(&str, Vec<(f64, f64)>)> = all_rows
        .iter()
        .map(|(w, rows)| (w.name(), rows.iter().map(|&(ts, v)| (ts as f64, v)).collect::<Vec<_>>()))
        .collect();
    let series_refs: Vec<(&str, &[(f64, f64)])> =
        series.iter().map(|(n, s)| (*n, s.as_slice())).collect();
    writeln!(
        body,
        "{}",
        ascii_multi_plot("IWS : footprint ratio (%) vs timeslice (s)", &series_refs, 60, 14)
    )
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

    let r1000_1s = all_rows[0].1[0].1;
    let r50_1s = all_rows[3].1[0].1;
    let r1000_20s = all_rows[0].1.last().unwrap().1;
    writeln!(
        body,
        "shape: at 1 s the 1000MB ratio ({r1000_1s:.1}%) is below the 50MB ratio \
         ({r50_1s:.1}%): {}; by 20 s the 1000MB ratio reaches {r1000_20s:.1}% \
         (→ ~53% overwrite per iteration)",
        if r1000_1s < r50_1s { "CONFIRMED" } else { "VIOLATED" },
    )
    .unwrap();
    let comparisons = vec![
        Comparison::new("Fig 4 / Sage-1000MB ratio @1s", 10.0, r1000_1s, "%"),
        Comparison::new("Fig 4 / Sage-50MB ratio @1s", 21.0, r50_1s, "%"),
        Comparison::new("Fig 4 / Sage-1000MB ratio @20s", 31.0, r1000_20s, "%"),
    ];
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
