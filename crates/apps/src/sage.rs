//! The Sage model.
//!
//! SAGE (SAIC's Adaptive Grid Eulerian hydrocode) is "a large-scale
//! parallel code written in Fortran90 and is representative of the ASCI
//! workload" (§5). The paper runs it at four per-process footprints
//! (50/100/500/1000 MB, set via cells-per-processor in the input deck)
//! and highlights two behaviours our model must reproduce:
//!
//! * **Dynamic memory**: "Sage dynamically allocates and deallocates a
//!   large part of its data structures" through both the heap and mmap
//!   (Fortran90 allocatables, §4.1). Modeled as
//!   [`AllocMode::SageChurn`]: permanent arrays split 25 % heap / 75 %
//!   mmap blocks, a temporary workspace mapped for each processing
//!   burst (which is why Table 2's max footprint exceeds the average),
//!   and per-iteration reallocation churn.
//! * **Long peaked iterations**: write bursts every 145 s (Fig 1a) with
//!   a peak write rate far above the period average (Table 4:
//!   274.9 max vs 78.8 avg MB/s at 1 s), i.e. a processing burst of
//!   roughly `touches / peak ≈ 42 s` followed by a long tail dominated
//!   by cache-resident solves and communication.
//!
//! Communication: ghost-cell ring exchanges after each kernel pass,
//! with `log₂ P` rounds (Sage's AMR gather/scatter works across levels)
//! plus a global conservation-sum allreduce per cycle — this is the
//! traffic visible in Fig 1(b).

use crate::calib::AppCalib;
use crate::phased::{AllocMode, CommSpec, NeighborShape, PhasedApp, PhasedConfig};
use ickpt_sim::SimDuration;

/// Ghost-exchange payload per neighbor per round (bytes, unscaled).
pub(crate) const EXCHANGE_BYTES: u64 = 512 * 1024;

/// Number of permanent mmap blocks.
pub(crate) const PERM_BLOCKS: u32 = 16;

/// First-touch initialization rate (bytes/s).
pub(crate) const INIT_RATE: f64 = 400e6;

/// Build a Sage model for one of the four footprint calibrations.
/// `scale` shrinks the footprint (and all write volumes) for test-sized
/// runs; 1.0 reproduces the paper configuration.
pub(crate) fn model(
    calib: &AppCalib,
    rank: usize,
    nranks: usize,
    scale: f64,
    seed: u64,
) -> PhasedApp {
    assert!(calib.name.starts_with("Sage"), "not a Sage calibration: {}", calib.name);
    let c = calib.scaled(scale);
    let ws = c.ws_bytes();
    let touches = c.touches_per_iter_bytes();
    // Peaked burst: the *fast* kernels (skewed short, see
    // `kernel_skew`) write at the measured peak rate, so the mean
    // kernel rate is `max_ib × (1 - skew)`; idle-ish tail after.
    let skew = 0.25;
    let peak_rate = c.max_ib_mbps * 1e6 * (1.0 - skew);
    let burst_s = touches as f64 / peak_rate;
    let duty = (burst_s / c.period_s).min(1.0);
    // The temporary workspace accounts for the max-vs-avg footprint gap
    // (Table 2); it is mapped only during the burst.
    let temp_bytes = ((c.footprint_max_mb - c.footprint_avg_mb) * 1e6).max(0.0);
    let array_bytes = (c.footprint_avg_mb * 1e6 - duty * temp_bytes).max(ws as f64) as u64;
    let temp_frac = temp_bytes / array_bytes as f64;
    let kernels = (c.passes_per_iter().round() as u32).clamp(1, 32);
    let rounds = (nranks as f64).log2().ceil().max(1.0) as u32;
    let comm = CommSpec::Neighbors {
        shape: NeighborShape::Ring,
        bytes: (EXCHANGE_BYTES as f64 * scale) as u64,
        rounds,
    };
    let comm_budget =
        SimDuration::from_secs_f64(comm.estimate_seconds_per_iter(rank, nranks, kernels, 340e6));
    PhasedApp::new(PhasedConfig {
        name: c.name.to_string(),
        rank,
        nranks,
        array_bytes,
        ws_bytes: ws,
        period: SimDuration::from_secs_f64(c.period_s),
        kernels,
        touches_per_iter: touches,
        peak_rate,
        comm,
        allreduce_bytes: 64 * 1024,
        kernel_skew: skew,
        comm_budget,
        alloc: AllocMode::SageChurn {
            perm_blocks: PERM_BLOCKS,
            temp_frac,
            churn_blocks: 2,
            jitter: 0.15,
        },
        init_rate: INIT_RATE * scale.max(0.05),
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;

    #[test]
    fn sage_1000_derivation_matches_paper_arithmetic() {
        let app = model(&calib::SAGE_1000, 0, 64, 1.0, 1);
        let cfg = app.config();
        // Working set ≈ 53% of 779.5 MB.
        assert!((cfg.ws_bytes as f64 / 1e6 - 413.1).abs() < 1.0);
        // ~28 kernel passes (11.4 GB of touches / 413 MB).
        assert_eq!(cfg.kernels, 28);
        // Burst ≈ 55 s of a 145 s period (mean rate = 0.75 × peak).
        assert!((cfg.burst().as_secs_f64() - 55.4).abs() < 1.5);
        assert!(cfg.quiet().as_secs_f64() > 85.0);
        // Temp workspace ≈ 175 MB (max - avg footprint).
        match cfg.alloc {
            AllocMode::SageChurn { temp_frac, .. } => {
                let temp_mb = temp_frac * cfg.array_bytes as f64 / 1e6;
                assert!((temp_mb - 175.1).abs() < 2.0, "temp = {temp_mb} MB");
            }
            _ => panic!("Sage must churn"),
        }
        // Average footprint ≈ arrays + duty × temp ≈ 779.5 MB.
        let duty = cfg.burst().as_secs_f64() / cfg.period.as_secs_f64();
        let avg = (cfg.array_bytes as f64 + duty * 175.1e6) / 1e6;
        assert!((avg - 779.5).abs() < 15.0, "avg footprint = {avg} MB");
    }

    #[test]
    fn rounds_grow_with_rank_count() {
        let p8 = model(&calib::SAGE_50, 0, 8, 1.0, 1);
        let p64 = model(&calib::SAGE_50, 0, 64, 1.0, 1);
        let r = |app: &PhasedApp| match app.config().comm {
            CommSpec::Neighbors { rounds, .. } => rounds,
            _ => 0,
        };
        assert_eq!(r(&p8), 3);
        assert_eq!(r(&p64), 6);
    }

    #[test]
    fn scaling_shrinks_memory_not_period() {
        let full = model(&calib::SAGE_100, 0, 4, 1.0, 1);
        let small = model(&calib::SAGE_100, 0, 4, 0.05, 1);
        assert_eq!(full.config().period, small.config().period);
        let ratio = full.config().array_bytes as f64 / small.config().array_bytes as f64;
        assert!((ratio - 20.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "not a Sage calibration")]
    fn rejects_non_sage_calibration() {
        model(&calib::NAS_FT, 0, 4, 1.0, 1);
    }
}
