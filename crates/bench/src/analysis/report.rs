//! Rendered experiment output.
//!
//! Experiments render into an [`ExperimentReport`] instead of printing,
//! so the parallel scheduler can run them on worker threads and emit
//! their output strictly in input order — stdout is byte-identical at
//! any `ICKPT_BENCH_THREADS`.

use super::Comparison;

/// Pre-rendered flight-recorder exports attached to an experiment when
/// trace capture was requested (`repro --trace-out`). The strings are
/// final file contents — the harness writes them verbatim, so they are
/// byte-deterministic wherever the recorder itself is.
pub struct TraceArtifacts {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// One JSON object per event, one per line.
    pub jsonl: String,
    /// Rendered aggregate summary (utilization, stalls, recovery paths).
    pub summary: String,
    /// Prometheus-style metrics text snapshot, when `ICKPT_METRICS`
    /// attached a metrics plane to the run.
    pub metrics: Option<String>,
}

/// Everything an experiment produces: the rendered table/figure text
/// and the paper-vs-measured rows for EXPERIMENTS.md.
pub struct ExperimentReport {
    /// The fully rendered output (printed verbatim, trailing newline
    /// included).
    pub body: String,
    /// Paper-vs-measured comparison rows.
    pub comparisons: Vec<Comparison>,
    /// Flight-recorder exports, when tracing was enabled.
    pub trace: Option<TraceArtifacts>,
}

impl ExperimentReport {
    /// A report with no trace attachment.
    pub(crate) fn new(body: String, comparisons: Vec<Comparison>) -> Self {
        Self { body, comparisons, trace: None }
    }

    /// Attach trace artifacts (`None` leaves the report unchanged, so
    /// callers can pass a builder's output through unconditionally).
    pub(crate) fn with_trace(mut self, trace: Option<TraceArtifacts>) -> Self {
        self.trace = trace;
        self
    }
}
