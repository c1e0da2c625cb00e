//! Figure 1: Sage-1000MB time series at a 1 s timeslice over 500
//! virtual seconds — (a) IWS size per timeslice, (b) data received per
//! timeslice.
//!
//! Paper shape: an initialization peak (~400 MB) at the very beginning,
//! then processing bursts every 145 s with IWS up to ~275-350 MB;
//! communication bursts of a few MB placed around the processing
//! bursts.

use std::fmt::Write as _;

use crate::analysis::{ascii_plot, Comparison, ExperimentReport};
use ickpt::core::metrics::{iws_series, received_series};
use ickpt::core::policy::{detect_bursts, detect_period};
use ickpt::sim::SimDuration;

use crate::engine::run_fig1;
use crate::obs_glue::TraceBuilder;
use crate::{banner_string, bench_scale};

/// Regenerate Figure 1 (both panels).
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Figure 1: Sage-1000MB IWS and data received per 1 s timeslice");
    let mut tb = TraceBuilder::begin();
    let report = run_fig1(tb.recorder("sage1000/500s"));
    let r0 = &report.ranks[0];
    let rescale = 1.0 / bench_scale();

    let iws: Vec<(f64, f64)> =
        iws_series(&r0.samples).into_iter().map(|(t, v)| (t, v * rescale)).collect();
    writeln!(body, "{}", ascii_plot("(a) IWS size per timeslice (MB)", &iws, 100, 16)).unwrap();

    let recv: Vec<(f64, f64)> =
        received_series(&r0.samples).into_iter().map(|(t, v)| (t, v * rescale)).collect();
    writeln!(body, "{}", ascii_plot("(b) data received per timeslice (MB)", &recv, 100, 12))
        .unwrap();

    // Quantitative shape checks.
    let series: Vec<u64> = r0.samples.iter().map(|s| s.iws_pages).collect();
    let period = detect_period(&series, SimDuration::from_secs(1), 10)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let init_peak = iws.iter().take(10).map(|&(_, v)| v).fold(0.0, f64::max);
    let bursts = detect_bursts(&r0.samples, 0.5, 10);
    writeln!(
        body,
        "shape: init peak {:.0} MB in the first 10 s; {} processing bursts; \
         burst period {:.0} s (paper: 145 s)",
        init_peak,
        bursts.bursts.len(),
        period
    )
    .unwrap();
    let comparisons = vec![
        Comparison::new("Fig 1a / Sage-1000MB burst period", 145.0, period, "s"),
        Comparison::new("Fig 1a / Sage-1000MB init peak", 400.0, init_peak, "MB"),
    ];
    ExperimentReport::new(body, comparisons).with_trace(tb.finish())
}
