//! Table 4: bandwidth requirements (MB/s) — maximum and average IB at
//! a 1 s timeslice — plus the §6.3 feasibility statements against the
//! QsNet II network (900 MB/s) and SCSI disk (320 MB/s).
//!
//! Paper values: Sage-1000MB 274.9/78.8, Sage-500MB 186.9/49.9,
//! Sage-100MB 42.6/15, Sage-50MB 24.9/9.6, Sweep3D 79.1/49.5,
//! SP 32.6/32.6, LU 12.5/12.5, BT 72.7/68.6, FT 101/92.1.

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;
use ickpt::core::feasibility::FeasibilityReport;

use crate::engine::parallel_map;
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, ib_stats, run};

/// Regenerate Table 4.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Table 4: Bandwidth Requirements (MB/s), timeslice 1 s");
    let mut table = TextTable::new("").header(&[
        "Application",
        "Maximum",
        "Average",
        "paper max",
        "paper avg",
        "net use",
        "disk use",
    ]);
    let mut comparisons = Vec::new();
    let mut all_feasible = true;
    let mut tb = TraceBuilder::begin();
    let runs: Vec<_> = Workload::ALL.iter().map(|&w| (w, tb.recorder(w.name()))).collect();
    let rows = parallel_map(&runs, |(w, rec)| (*w, run(*w, 1, rec.clone())));
    for (w, report) in &rows {
        let w = *w;
        let stats = ib_stats(w, report, 1);
        let feas = FeasibilityReport::against_paper_devices(stats);
        all_feasible &= feas.feasible_everywhere();
        let c = w.calib();
        table.row(vec![
            w.name().to_string(),
            fnum(stats.max_mbps, 1),
            fnum(stats.avg_mbps, 1),
            fnum(c.max_ib_mbps, 1),
            fnum(c.avg_ib_mbps, 1),
            format!("{}%", fnum(feas.verdicts[0].avg_fraction * 100.0, 0)),
            format!("{}%", fnum(feas.verdicts[1].avg_fraction * 100.0, 0)),
        ]);
        comparisons.push(Comparison::new(
            format!("Table 4 / {} max IB @1s", w.name()),
            c.max_ib_mbps,
            stats.max_mbps,
            "MB/s",
        ));
        comparisons.push(Comparison::new(
            format!("Table 4 / {} avg IB @1s", w.name()),
            c.avg_ib_mbps,
            stats.avg_mbps,
            "MB/s",
        ));
    }
    writeln!(body, "{}", table.render()).unwrap();
    writeln!(
        body,
        "feasibility (§6.3): every application fits under the 900 MB/s network \
         and 320 MB/s disk peaks: {}",
        if all_feasible { "CONFIRMED" } else { "VIOLATED" }
    )
    .unwrap();
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
