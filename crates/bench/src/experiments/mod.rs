//! Experiment implementations, one module per paper table/figure.
//!
//! Each module exposes `report()`, which executes the experiment and
//! returns the rendered output plus paper-vs-measured
//! [`ickpt_analysis::Comparison`] rows as an
//! [`ickpt_analysis::ExperimentReport`] — experiments never print, so
//! the scheduler can run them concurrently and emit output in a fixed
//! order. The `repro` binary runs them (`--only` selects a subset).

pub mod ablation;
pub mod availability;
pub mod effective_ib;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig5_extended;
pub mod intrusive;
pub mod multi_tenant;
pub mod table2;
pub mod table3;
pub mod table4;
