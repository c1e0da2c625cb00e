//! Figure 5: average per-process IB vs timeslice for 8, 16, 32 and 64
//! processors, Sage-1000MB under weak scaling.
//!
//! Paper shape: "the number of processors doesn't have a significant
//! influence on the IB. Actually, when we increase the number of
//! processors, the per-processor IB is slightly lower" (§6.4.2) — the
//! key generalization-to-larger-machines claim.

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{ascii_multi_plot, Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;
use ickpt::obs::Recorder;

use crate::engine::{parallel_map, run_at, sweep_obs, PAPER_TIMESLICES as TIMESLICES};
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, ib_stats};

/// The processor counts of the paper's scaling study.
pub(crate) const RANK_COUNTS: [usize; 4] = [8, 16, 32, 64];

/// Sage-1000MB's average per-process IB on `nranks` ranks at `ts`.
fn avg_ib(nranks: usize, ts: u64, obs: Recorder) -> f64 {
    let w = Workload::Sage1000;
    let report = run_at(nranks, w, ts, obs);
    ib_stats(w, &report, ts).avg_mbps
}

/// Regenerate Figure 5.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string(
        "Figure 5: avg per-process IB for 8/16/32/64 processors (Sage-1000MB, weak scaling)",
    );
    // One trace group per cluster size, at the 1 s endpoint.
    let mut tb = TraceBuilder::begin();
    let sizes: Vec<_> =
        RANK_COUNTS.iter().map(|&p| (p, tb.recorder(&format!("{p}procs/ts=1s")))).collect();
    let per_p: Vec<(usize, Vec<(u64, f64)>)> = parallel_map(&sizes, |(p, rec)| {
        let rows = parallel_map(&TIMESLICES, |&ts| (ts, avg_ib(*p, ts, sweep_obs(ts, rec))));
        (*p, rows)
    });
    let names: Vec<String> = RANK_COUNTS.iter().map(|p| format!("{p} procs")).collect();
    let series: Vec<Vec<(f64, f64)>> = per_p
        .iter()
        .map(|(_, rows)| rows.iter().map(|&(ts, v)| (ts as f64, v)).collect())
        .collect();
    let series_refs: Vec<(&str, &[(f64, f64)])> =
        names.iter().zip(&series).map(|(n, s)| (n.as_str(), s.as_slice())).collect();
    writeln!(body, "{}", ascii_multi_plot("avg IB (MB/s) vs timeslice (s)", &series_refs, 60, 14))
        .unwrap();

    let mut t = TextTable::new("").header(&["timeslice (s)", "8", "16", "32", "64"]);
    for (i, &ts) in TIMESLICES.iter().enumerate() {
        t.row(vec![
            ts.to_string(),
            fnum(per_p[0].1[i].1, 1),
            fnum(per_p[1].1[i].1, 1),
            fnum(per_p[2].1[i].1, 1),
            fnum(per_p[3].1[i].1, 1),
        ]);
    }
    writeln!(body, "{}", t.render()).unwrap();

    let ib8 = per_p[0].1[0].1;
    let ib64 = per_p[3].1[0].1;
    writeln!(
        body,
        "weak scaling (§6.4.2): per-process IB at 64 procs ({:.1}) vs 8 procs ({:.1}): \
         {:+.1}% — slightly lower or flat: {}",
        ib64,
        ib8,
        100.0 * (ib64 - ib8) / ib8,
        if ib64 <= ib8 * 1.01 { "CONFIRMED" } else { "VIOLATED" }
    )
    .unwrap();
    let comparisons = vec![
        Comparison::new("Fig 5 / Sage-1000MB avg IB @1s, 64 procs", 78.8, ib64, "MB/s"),
        Comparison::new("Fig 5 / avg IB ratio 64:8 procs", 0.98, ib64 / ib8, "x"),
    ];
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
