//! The Sweep3D model.
//!
//! Sweep3D "represents the heart of a real scientific application"
//! (§5): a discrete-ordinates S_N transport kernel performing
//! wavefront sweeps across a 3D grid from each of 8 octants, with
//! KBA-style pipelined ghost exchanges on a 2D processor decomposition.
//! The paper ran the 1000×1000×50 problem: 105.5 MB per process,
//! 7 s iterations, 52 % of memory overwritten per iteration
//! (Tables 2–3).
//!
//! Model shape: 8 kernel phases per iteration (one per octant), each
//! sweeping the flux/source working set; computation fills essentially
//! the whole period (Fig 2(b): max ≈ avg at multi-second timeslices);
//! after each octant, pipelined small-block exchanges with the four
//! grid neighbors.

use crate::calib::{AppCalib, SWEEP3D};
use crate::phased::{AllocMode, CommSpec, NeighborShape, PhasedApp, PhasedConfig};
use ickpt_sim::SimDuration;

/// Angle-block pipeline message size (bytes, unscaled).
pub(crate) const PIPELINE_BYTES: u64 = 64 * 1024;

/// Exchange rounds per octant (pipelining depth).
pub(crate) const ROUNDS: u32 = 2;

/// The eight octant sweeps.
pub(crate) const OCTANTS: u32 = 8;

/// Build the Sweep3D model. `scale` shrinks memory for test runs.
pub(crate) fn model(rank: usize, nranks: usize, scale: f64, seed: u64) -> PhasedApp {
    model_from(&SWEEP3D, rank, nranks, scale, seed)
}

/// Build from an explicit calibration (tests use shrunken variants).
pub(crate) fn model_from(
    calib: &AppCalib,
    rank: usize,
    nranks: usize,
    scale: f64,
    seed: u64,
) -> PhasedApp {
    let c = calib.scaled(scale);
    let ws = c.ws_bytes();
    let touches = c.touches_per_iter_bytes();
    let comm = CommSpec::Neighbors {
        shape: NeighborShape::Grid2D,
        bytes: (PIPELINE_BYTES as f64 * scale) as u64,
        rounds: ROUNDS,
    };
    let est_comm = comm.estimate_seconds_per_iter(rank, nranks, OCTANTS, 340e6);
    let comm_budget = SimDuration::from_secs_f64(est_comm);
    // The sweep computes for the whole period: spread the touch volume
    // across the compute budget.
    let budget = (c.period_s - est_comm).max(0.3 * c.period_s);
    let peak_rate = touches as f64 / budget;
    PhasedApp::new(PhasedConfig {
        name: c.name.to_string(),
        rank,
        nranks,
        array_bytes: (c.footprint_avg_mb * 1e6) as u64,
        ws_bytes: ws,
        period: SimDuration::from_secs_f64(c.period_s),
        kernels: OCTANTS,
        touches_per_iter: touches,
        peak_rate,
        comm,
        allreduce_bytes: 4096, // flux convergence check per iteration
        // Octant sweeps vary strongly with angle-set ordering.
        kernel_skew: 0.5,
        comm_budget,
        alloc: AllocMode::StaticHeap,
        init_rate: 400e6 * scale.max(0.05),
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_for_the_whole_period() {
        let app = model(0, 64, 1.0, 1);
        let cfg = app.config();
        assert_eq!(cfg.kernels, 8);
        assert!(cfg.quiet().as_secs_f64() < 0.5, "quiet = {}", cfg.quiet());
        // Sustained rate ≈ touches / period ≈ 49.5 MB/s.
        assert!((cfg.peak_rate / 1e6 - 49.5).abs() < 3.0, "rate = {}", cfg.peak_rate / 1e6);
    }

    #[test]
    fn working_set_is_paper_fraction() {
        let app = model(0, 4, 1.0, 1);
        let ws_mb = app.config().ws_bytes as f64 / 1e6;
        assert!((ws_mb - 0.52 * 105.5).abs() < 0.5);
    }

    #[test]
    fn static_allocation() {
        let app = model(0, 4, 1.0, 1);
        assert_eq!(app.config().alloc, AllocMode::StaticHeap);
    }
}
