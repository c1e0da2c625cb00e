//! Real intrusiveness measurement (§6.5).
//!
//! The paper reports < 10 % slowdown at a 1 s timeslice, attributing
//! the cost to the page-fault handler and noting it shrinks as the
//! timeslice grows (fewer re-protections → more data reuse per fault).
//! [`measure`] reproduces that experiment on this machine: run a
//! write-sweep kernel over a tracked region with a given sampling
//! period, against an untracked baseline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::region::TrackedRegion;
use crate::sampler::TimesliceSampler;

/// Result of one intrusiveness measurement.
#[derive(Debug, Clone, Copy)]
pub struct IntrusivenessResult {
    /// Wall time of the untracked baseline.
    pub baseline: Duration,
    /// Wall time with tracking + sampling enabled.
    pub tracked: Duration,
    /// Page faults taken during the tracked run.
    pub faults: u64,
}

impl IntrusivenessResult {
    /// Slowdown factor (tracked / baseline).
    pub fn slowdown(&self) -> f64 {
        self.tracked.as_secs_f64() / self.baseline.as_secs_f64().max(1e-9)
    }
}

/// Sweep every page of `region` `passes` times, writing one byte per
/// cache line (realistic store traffic without being a pure memset).
fn sweep(region: &TrackedRegion, passes: usize) {
    for pass in 0..passes {
        for page in 0..region.pages() {
            for line in (0..4096).step_by(64) {
                region.write_byte(page, line, (pass ^ page ^ line) as u8);
            }
        }
    }
}

/// Measure tracked-vs-untracked wall time for a `pages`-page region
/// swept `passes` times, sampling every `timeslice`.
pub fn measure(pages: usize, passes: usize, timeslice: Duration) -> IntrusivenessResult {
    // Baseline: identical work on an untracked (plain RW) region.
    let base_region = TrackedRegion::new(pages);
    base_region.untrack();
    let t0 = Instant::now();
    sweep(&base_region, passes);
    let baseline = t0.elapsed();
    drop(base_region);

    // Tracked: protection + handler + periodic re-protection.
    let region = Arc::new(TrackedRegion::new(pages));
    let sampler = TimesliceSampler::start(region.clone(), timeslice);
    let t0 = Instant::now();
    sweep(&region, passes);
    let tracked = t0.elapsed();
    let _ = sampler.stop();
    let faults = region.faults();
    IntrusivenessResult { baseline, tracked, faults }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_run_takes_faults_and_finishes() {
        let r = measure(64, 4, Duration::from_millis(50));
        assert!(r.faults >= 64, "at least one fault per page, got {}", r.faults);
        assert!(r.tracked >= r.baseline / 4, "sanity: tracked time not absurdly small");
        assert!(r.slowdown() > 0.0);
    }

    #[test]
    fn reprotection_forces_refaults() {
        // Deterministic version of "shorter timeslices fault more":
        // drive the alarm by hand between sweeps.
        let region = TrackedRegion::new(32);
        sweep(&region, 2); // 32 faults (second pass free)
        assert_eq!(region.faults(), 32);
        let _ = region.sample(); // the alarm re-protects
        sweep(&region, 2); // 32 fresh faults
        assert_eq!(region.faults(), 64, "re-protection must re-fault every page");
    }
}
