//! Report detail levels and hierarchical report aggregation.
//!
//! Petascale runs cannot afford per-rank sample series: at 16k ranks a
//! few hundred windows each, the flat report would cost gigabytes and
//! the flat all-to-root merge would serialize on one core. This module
//! provides:
//!
//! * [`ReportDetail`] — how much per-rank history a characterization
//!   run retains. `Full` keeps everything (the historical behaviour);
//!   `Compact` keeps exact integer summaries plus a bounded sample
//!   reservoir on every rank except rank 0 and traced ranks (which the
//!   figure pipelines read directly).
//! * [`ClusterAggregate`] — the integer-only cluster roll-up, merged
//!   through [`ickpt_sim::tree_reduce`] in fan-in groups of
//!   [`DEFAULT_REDUCE_ARITY`]. Every field uses associative integer
//!   arithmetic, so the tree result is byte-identical to a flat fold at
//!   any arity — the property suite pins this.

use ickpt_core::metrics::SampleSummary;
use ickpt_sim::{tree_reduce, SimDuration, SimTime};

use super::RankReport;

/// Default fan-in of the report aggregation tree (SCR-style group
/// size: 32 leaves per intermediate node).
pub const DEFAULT_REDUCE_ARITY: usize = 32;

/// How much per-rank detail a characterization run retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportDetail {
    /// Every rank keeps its full sample series.
    #[default]
    Full,
    /// Bounded per-rank state: ranks other than rank 0 and traced
    /// ranks keep a decimated reservoir of at most `reservoir` samples
    /// (plus the exact [`SampleSummary`]). Figure pipelines that read
    /// rank 0 are unaffected.
    Compact {
        /// Maximum samples per compacted rank.
        reservoir: usize,
    },
}

impl ReportDetail {
    /// Compact retention with the default 128-sample reservoir.
    pub fn compact() -> Self {
        ReportDetail::Compact { reservoir: 128 }
    }

    /// Whether this rank keeps full detail under this policy.
    /// Rank 0 and traced ranks always do.
    pub(crate) fn rank_is_full(&self, rank: usize, trace_ranks: usize) -> bool {
        matches!(self, ReportDetail::Full) || rank == 0 || rank < trace_ranks
    }
}

/// Cluster-wide integer aggregate of per-rank reports.
///
/// All fields are associative integer folds (saturating sums, maxes),
/// so merging is order-independent and tree-reduction at any arity
/// matches the flat fold bit for bit. Floating-point derived values
/// (MB, MB/s) belong at render time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterAggregate {
    /// Ranks aggregated.
    pub ranks: u64,
    /// Sum of per-rank fault totals.
    pub total_faults: u64,
    /// Sum of per-rank bytes received.
    pub total_bytes_received: u64,
    /// Sum of per-rank final footprints, in pages.
    pub total_footprint_pages: u64,
    /// Largest per-rank footprint, in pages.
    pub max_footprint_pages: u64,
    /// Largest iteration count (ranks of a bulk-synchronous run agree,
    /// but the fold must not assume it).
    pub max_iterations: u64,
    /// Latest per-rank final time — the run's wall-clock in virtual
    /// time.
    pub max_final_time: SimTime,
    /// Largest per-rank fault-handling overhead.
    pub max_overhead: SimDuration,
    /// Sum of checkpoint bytes written (fault-tolerant runs).
    pub total_checkpoint_bytes: u64,
    /// Merged window summaries across all ranks.
    pub summary: SampleSummary,
}

impl ClusterAggregate {
    /// The aggregate of a single rank report.
    pub fn from_rank(r: &RankReport) -> Self {
        Self {
            ranks: 1,
            total_faults: r.total_faults,
            total_bytes_received: r.bytes_received,
            total_footprint_pages: r.footprint_pages,
            max_footprint_pages: r.footprint_pages,
            max_iterations: r.iterations,
            max_final_time: r.final_time,
            max_overhead: r.overhead,
            total_checkpoint_bytes: r.checkpoint_bytes,
            summary: r.summary,
        }
    }

    /// Merge another aggregate into this one (associative and
    /// commutative).
    pub fn merge(&mut self, other: &ClusterAggregate) {
        self.ranks = self.ranks.saturating_add(other.ranks);
        self.total_faults = self.total_faults.saturating_add(other.total_faults);
        self.total_bytes_received =
            self.total_bytes_received.saturating_add(other.total_bytes_received);
        self.total_footprint_pages =
            self.total_footprint_pages.saturating_add(other.total_footprint_pages);
        self.max_footprint_pages = self.max_footprint_pages.max(other.max_footprint_pages);
        self.max_iterations = self.max_iterations.max(other.max_iterations);
        self.max_final_time = self.max_final_time.max(other.max_final_time);
        self.max_overhead = self.max_overhead.max(other.max_overhead);
        self.total_checkpoint_bytes =
            self.total_checkpoint_bytes.saturating_add(other.total_checkpoint_bytes);
        self.summary.merge(&other.summary);
    }
}

/// Reduce per-rank reports through a fan-in tree of the given arity
/// (see [`DEFAULT_REDUCE_ARITY`]). Returns the zero aggregate for an
/// empty report list.
pub fn reduce_reports(reports: &[RankReport], arity: usize) -> ClusterAggregate {
    tree_reduce(reports.iter().map(ClusterAggregate::from_rank).collect(), arity, |a, b| {
        a.merge(&b)
    })
    .unwrap_or_default()
}
