//! The NAS Parallel Benchmark models: BT, SP, LU, FT (class C).
//!
//! The NAS suite (§5) is "a set of Fortran77 programs extensively used
//! to evaluate the performance of parallel supercomputers"; all four
//! statically allocate their data, have sub-second-to-second iteration
//! periods, and overwrite most of their footprint every iteration
//! (Table 3: 72–92 %). At 1 s timeslices their maximum and average IB
//! are "practically equivalent because the timeslices used are longer
//! than the duration of the main processing bursts" (§6.3) — the model
//! therefore computes for the whole period at a sustained rate.
//!
//! Per-benchmark structure:
//!
//! * **BT / SP** — ADI (alternating-direction implicit) solvers: three
//!   directional kernel phases (x, y, z line solves) with face
//!   exchanges on a square process grid between phases. BT overwrites
//!   nearly its whole image (92 %); SP has the shortest period
//!   (0.16 s).
//! * **LU** — an SSOR wavefront solve: lower/upper sweeps with
//!   small pipelined neighbor messages (2D wavefront → ring pipeline in
//!   the model) — the smallest footprint (16.6 MB).
//! * **FT** — a 3D FFT: per-dimension FFT kernels separated by the
//!   all-to-all transpose, the only NAS code here whose dominant
//!   communication is collective.

use crate::calib::{AppCalib, NAS_BT, NAS_FT, NAS_LU, NAS_SP};
use crate::phased::{AllocMode, CommSpec, NeighborShape, PhasedApp, PhasedConfig};
use ickpt_sim::SimDuration;

/// Shared constructor: full-period compute, static heap allocation.
fn nas_model(
    calib: &AppCalib,
    rank: usize,
    nranks: usize,
    scale: f64,
    seed: u64,
    kernels: u32,
    comm: CommSpec,
) -> PhasedApp {
    let c = calib.scaled(scale);
    let ws = c.ws_bytes();
    let touches = c.touches_per_iter_bytes();
    let est_comm = comm.estimate_seconds_per_iter(rank, nranks, kernels, 340e6);
    let budget = (c.period_s - est_comm).max(0.3 * c.period_s);
    let peak_rate = touches as f64 / budget;
    let comm_budget = SimDuration::from_secs_f64(est_comm);
    PhasedApp::new(PhasedConfig {
        name: c.name.to_string(),
        rank,
        nranks,
        array_bytes: (c.footprint_avg_mb * 1e6) as u64,
        ws_bytes: ws,
        period: SimDuration::from_secs_f64(c.period_s),
        kernels,
        touches_per_iter: touches,
        peak_rate,
        comm,
        allreduce_bytes: 1024,
        kernel_skew: 0.45,
        comm_budget,
        alloc: AllocMode::StaticHeap,
        init_rate: 400e6 * scale.max(0.05),
        seed,
    })
}

/// NAS BT: block-tridiagonal ADI, three directional kernels, face
/// exchanges on a 2D grid.
pub(crate) fn bt(rank: usize, nranks: usize, scale: f64, seed: u64) -> PhasedApp {
    nas_model(
        &NAS_BT,
        rank,
        nranks,
        scale,
        seed,
        3,
        CommSpec::Neighbors {
            shape: NeighborShape::Grid2D,
            bytes: (256.0 * 1024.0 * scale) as u64,
            rounds: 1,
        },
    )
}

/// NAS SP: scalar-pentadiagonal ADI, same shape as BT with lighter
/// kernels and the shortest period in the suite.
pub(crate) fn sp(rank: usize, nranks: usize, scale: f64, seed: u64) -> PhasedApp {
    nas_model(
        &NAS_SP,
        rank,
        nranks,
        scale,
        seed,
        3,
        CommSpec::Neighbors {
            shape: NeighborShape::Grid2D,
            bytes: (128.0 * 1024.0 * scale) as u64,
            rounds: 1,
        },
    )
}

/// NAS LU: SSOR wavefront, lower + upper triangular sweeps with small
/// pipelined messages.
pub(crate) fn lu(rank: usize, nranks: usize, scale: f64, seed: u64) -> PhasedApp {
    nas_model(
        &NAS_LU,
        rank,
        nranks,
        scale,
        seed,
        2,
        CommSpec::Neighbors {
            shape: NeighborShape::Ring,
            bytes: (32.0 * 1024.0 * scale) as u64,
            rounds: 4,
        },
    )
}

/// NAS FT: 3D FFT with an all-to-all transpose after each per-dimension
/// FFT pass.
pub(crate) fn ft(rank: usize, nranks: usize, scale: f64, seed: u64) -> PhasedApp {
    let per_pair =
        if nranks > 1 { (NAS_FT.ws_bytes() as f64 * scale / nranks as f64) as u64 } else { 0 };
    let comm =
        if per_pair > 0 { CommSpec::AllToAll { bytes_per_pair: per_pair } } else { CommSpec::None };
    nas_model(&NAS_FT, rank, nranks, scale, seed, 3, comm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_full_period() {
        for (app, name) in [
            (bt(0, 16, 1.0, 1), "BT"),
            (sp(0, 16, 1.0, 1), "SP"),
            (lu(0, 16, 1.0, 1), "LU"),
            (ft(0, 16, 1.0, 1), "FT"),
        ] {
            let cfg = app.config();
            // Compute plus (estimated) communication fills the period;
            // FT's all-to-all transposes occupy a large share of it.
            let est_comm = cfg.comm.estimate_seconds_per_iter(0, 16, cfg.kernels, 340e6);
            let busy = cfg.burst().as_secs_f64() + est_comm;
            let frac = busy / cfg.period.as_secs_f64();
            assert!(
                (0.85..=1.05).contains(&frac),
                "{name}: busy fraction {frac:.2} (burst {} + comm {est_comm:.3}s)",
                cfg.burst()
            );
            assert_eq!(cfg.alloc, AllocMode::StaticHeap, "{name} is static");
        }
    }

    #[test]
    fn bt_overwrites_most_of_its_image() {
        let cfg = bt(0, 4, 1.0, 1).config().clone();
        let frac = cfg.ws_bytes as f64 / cfg.array_bytes as f64;
        assert!((frac - 0.92).abs() < 0.02);
    }

    #[test]
    fn sp_has_shortest_period() {
        assert_eq!(sp(0, 4, 1.0, 1).config().period, SimDuration::from_secs_f64(0.16));
    }

    #[test]
    fn ft_uses_alltoall_scaled_by_ranks() {
        let a = ft(0, 8, 1.0, 1);
        let b = ft(0, 64, 1.0, 1);
        let pair = |app: &PhasedApp| match app.config().comm {
            CommSpec::AllToAll { bytes_per_pair } => bytes_per_pair,
            _ => panic!("FT must use all-to-all"),
        };
        assert!(pair(&a) > pair(&b), "per-pair payload shrinks with more ranks");
        // Single-rank FT degenerates to no communication.
        assert_eq!(ft(0, 1, 1.0, 1).config().comm, CommSpec::None);
    }

    #[test]
    fn ft_rate_exceeds_working_set_per_second() {
        // FT is the one workload whose measured avg IB (92.1) exceeds
        // its per-iteration working set per second (67.3/1.2 ≈ 56):
        // heavy intra-iteration reuse. The model must reflect the
        // higher touch volume.
        let cfg = ft(0, 16, 1.0, 1).config().clone();
        assert!(cfg.touches_per_iter as f64 > 1.5 * cfg.ws_bytes as f64);
    }

    #[test]
    fn lu_is_smallest() {
        let cfg = lu(0, 4, 1.0, 1).config().clone();
        assert!(cfg.array_bytes < 20_000_000);
    }
}
