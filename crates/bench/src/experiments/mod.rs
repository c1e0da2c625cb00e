//! Experiment implementations, one module per paper table/figure.
//!
//! Each module exposes `report()`, which executes the experiment and
//! returns the rendered output plus paper-vs-measured
//! [`crate::analysis::Comparison`] rows as an
//! [`crate::analysis::ExperimentReport`] — experiments never print, so
//! the scheduler can run them concurrently and emit output in a fixed
//! order. [`ALL`] lists them in report order; the `repro` binary runs
//! them (`--only` selects a subset).

mod ablation;
mod availability;
mod effective_ib;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig5_extended;
mod intrusive;
mod multi_tenant;
mod table2;
mod table3;
mod table4;

use crate::analysis::ExperimentReport;

/// One experiment: display name + runner.
pub type Experiment = (&'static str, fn() -> ExperimentReport);

/// Every experiment, in report order.
pub const ALL: [Experiment; 14] = [
    ("Table 2 (memory footprints)", table2::report),
    ("Table 3 (iteration period, % overwritten)", table3::report),
    ("Table 4 (bandwidth requirements @1s)", table4::report),
    ("Figure 1 (Sage-1000MB time series)", fig1::report),
    ("Figure 2 (IB vs timeslice, 6 apps)", fig2::report),
    ("Figure 3 (avg IB vs timeslice, Sage sizes)", fig3::report),
    ("Figure 4 (IWS ratio vs timeslice)", fig4::report),
    ("Figure 5 (weak scaling 8-64 procs)", fig5::report),
    ("Figure 5 extended (weak scaling to 16384 ranks)", fig5_extended::report),
    ("Section 6.5 (intrusiveness)", intrusive::report),
    ("Ablations (checkpoint system)", ablation::report),
    ("Availability under failures", availability::report),
    ("Effective IB vs dirty IB (dedup + delta)", effective_ib::report),
    ("Multi-tenant service (shared striped array)", multi_tenant::report),
];
