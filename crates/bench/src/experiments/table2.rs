//! Table 2: memory footprint size (MB), maximum and average, per
//! application.
//!
//! Paper values: Sage-1000MB 954.6/779.5, Sage-500MB 497.3/407.3,
//! Sage-100MB 103.7/86.9, Sage-50MB 55/45.2, Sweep3D 105.5/105.5,
//! SP 40.1/40.1, LU 16.6/16.6, BT 76.5/76.5, FT 118/118.

use std::fmt::Write as _;

use crate::analysis::table::fnum;
use crate::analysis::{Comparison, ExperimentReport, TextTable};
use ickpt::apps::Workload;

use crate::engine::parallel_map;
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, footprint_mb, run};

/// Regenerate Table 2.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Table 2: Memory Footprint Size (MB)");
    let mut table =
        TextTable::new("").header(&["Application", "Maximum", "Average", "paper max", "paper avg"]);
    let mut comparisons = Vec::new();
    let mut tb = TraceBuilder::begin();
    let runs: Vec<_> = Workload::ALL.iter().map(|&w| (w, tb.recorder(w.name()))).collect();
    let rows = parallel_map(&runs, |(w, rec)| (*w, run(*w, 1, rec.clone())));
    for (w, report) in &rows {
        let w = *w;
        let (max, avg) = footprint_mb(report);
        let c = w.calib();
        table.row(vec![
            w.name().to_string(),
            fnum(max, 1),
            fnum(avg, 1),
            fnum(c.footprint_max_mb, 1),
            fnum(c.footprint_avg_mb, 1),
        ]);
        comparisons.push(Comparison::new(
            format!("Table 2 / {} max footprint", w.name()),
            c.footprint_max_mb,
            max,
            "MB",
        ));
        comparisons.push(Comparison::new(
            format!("Table 2 / {} avg footprint", w.name()),
            c.footprint_avg_mb,
            avg,
            "MB",
        ));
    }
    writeln!(body, "{}", table.render()).unwrap();
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
