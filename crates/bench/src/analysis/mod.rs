//! Statistics, tables and plots for experiments.
//!
//! The benchmark harness regenerates every table and figure of the
//! paper; this module is its presentation layer:
//!
//! * `stats` — summary statistics over series.
//! * [`table`] — aligned text tables (the Table 2/3/4 regenerators).
//! * `plot` — ASCII line plots (the Figure 1–5 regenerators print
//!   their series both as plots and as machine-readable rows).
//! * [`compare`] — paper-vs-measured rows for EXPERIMENTS.md.

pub mod compare;
pub(crate) mod plot;
pub(crate) mod report;
pub(crate) mod stats;
pub mod table;

pub(crate) use compare::Comparison;
pub(crate) use plot::ascii_multi_plot;
pub use plot::ascii_plot;
pub use report::ExperimentReport;
pub(crate) use report::TraceArtifacts;
pub use table::TextTable;
