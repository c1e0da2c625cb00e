//! Calibration constants: the paper's measurements as model inputs.
//!
//! Tables 2–4 of the paper characterize each application. We use those
//! numbers as *inputs* so our models write the right amount of memory
//! at the right rhythm; everything the reproduction then measures
//! (IB-vs-timeslice curves, ratios, scaling) is derived behaviour.
//!
//! | app          | footprint max/avg (MB) | period (s) | overwritten | IB max/avg (MB/s) |
//! |--------------|------------------------|-----------:|------------:|-------------------|
//! | Sage-1000MB  | 954.6 / 779.5          | 145        | 53 %        | 274.9 / 78.8      |
//! | Sage-500MB   | 497.3 / 407.3          | 80         | 54 %        | 186.9 / 49.9      |
//! | Sage-100MB   | 103.7 / 86.9           | 38         | 56 %        | 42.6 / 15         |
//! | Sage-50MB    | 55 / 45.2              | 20         | 57 %        | 24.9 / 9.6        |
//! | Sweep3D      | 105.5 / 105.5          | 7          | 52 %        | 79.1 / 49.5       |
//! | SP           | 40.1 / 40.1            | 0.16       | 72 %        | 32.6 / 32.6       |
//! | LU           | 16.6 / 16.6            | 0.7        | 72 %        | 12.5 / 12.5       |
//! | BT           | 76.5 / 76.5            | 0.4        | 92 %        | 72.7 / 68.6       |
//! | FT           | 118 / 118              | 1.2        | 57 %        | 101 / 92.1        |
//!
//! (MB = 10⁶ bytes, the paper's device-bandwidth convention.)

/// One application's paper-measured characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppCalib {
    /// Application name as used in the paper.
    pub name: &'static str,
    /// Maximum memory footprint (Table 2), MB.
    pub footprint_max_mb: f64,
    /// Average memory footprint (Table 2), MB.
    pub footprint_avg_mb: f64,
    /// Main-iteration period (Table 3), seconds.
    pub period_s: f64,
    /// Fraction of the footprint overwritten per iteration (Table 3).
    pub overwrite_frac: f64,
    /// Maximum IB at a 1 s timeslice (Table 4), MB/s.
    pub max_ib_mbps: f64,
    /// Average IB at a 1 s timeslice (Table 4), MB/s.
    pub avg_ib_mbps: f64,
}

impl AppCalib {
    /// Per-iteration working set in bytes: `overwrite_frac × avg
    /// footprint`.
    pub(crate) fn ws_bytes(&self) -> u64 {
        (self.overwrite_frac * self.footprint_avg_mb * 1e6) as u64
    }

    /// Total page-touch volume per iteration in bytes. At least one
    /// full pass over the working set (Table 3's overwrite), more when
    /// the measured average IB implies intra-iteration reuse
    /// (`avg_ib × period` exceeds the working set).
    pub(crate) fn touches_per_iter_bytes(&self) -> u64 {
        let by_ib = (self.avg_ib_mbps * self.period_s * 1e6) as u64;
        by_ib.max(self.ws_bytes())
    }

    /// Number of passes over the working set per iteration.
    pub(crate) fn passes_per_iter(&self) -> f64 {
        self.touches_per_iter_bytes() as f64 / self.ws_bytes() as f64
    }

    /// A copy with footprint, rates and volumes scaled by `factor`
    /// (periods unchanged) — used to run the same *shape* at test-size
    /// footprints.
    pub(crate) fn scaled(&self, factor: f64) -> AppCalib {
        AppCalib {
            footprint_max_mb: self.footprint_max_mb * factor,
            footprint_avg_mb: self.footprint_avg_mb * factor,
            max_ib_mbps: self.max_ib_mbps * factor,
            avg_ib_mbps: self.avg_ib_mbps * factor,
            ..*self
        }
    }
}

/// Sage with a ~1000 MB per-process footprint.
pub(crate) const SAGE_1000: AppCalib = AppCalib {
    name: "Sage-1000MB",
    footprint_max_mb: 954.6,
    footprint_avg_mb: 779.5,
    period_s: 145.0,
    overwrite_frac: 0.53,
    max_ib_mbps: 274.9,
    avg_ib_mbps: 78.8,
};

/// Sage with a ~500 MB footprint.
pub(crate) const SAGE_500: AppCalib = AppCalib {
    name: "Sage-500MB",
    footprint_max_mb: 497.3,
    footprint_avg_mb: 407.3,
    period_s: 80.0,
    overwrite_frac: 0.54,
    max_ib_mbps: 186.9,
    avg_ib_mbps: 49.9,
};

/// Sage with a ~100 MB footprint.
pub(crate) const SAGE_100: AppCalib = AppCalib {
    name: "Sage-100MB",
    footprint_max_mb: 103.7,
    footprint_avg_mb: 86.9,
    period_s: 38.0,
    overwrite_frac: 0.56,
    max_ib_mbps: 42.6,
    avg_ib_mbps: 15.0,
};

/// Sage with a ~50 MB footprint.
pub(crate) const SAGE_50: AppCalib = AppCalib {
    name: "Sage-50MB",
    footprint_max_mb: 55.0,
    footprint_avg_mb: 45.2,
    period_s: 20.0,
    overwrite_frac: 0.57,
    max_ib_mbps: 24.9,
    avg_ib_mbps: 9.6,
};

/// Sweep3D, 1000×1000×50 grid points.
pub(crate) const SWEEP3D: AppCalib = AppCalib {
    name: "Sweep3D",
    footprint_max_mb: 105.5,
    footprint_avg_mb: 105.5,
    period_s: 7.0,
    overwrite_frac: 0.52,
    max_ib_mbps: 79.1,
    avg_ib_mbps: 49.5,
};

/// NAS SP, class C.
pub(crate) const NAS_SP: AppCalib = AppCalib {
    name: "SP",
    footprint_max_mb: 40.1,
    footprint_avg_mb: 40.1,
    period_s: 0.16,
    overwrite_frac: 0.72,
    max_ib_mbps: 32.6,
    avg_ib_mbps: 32.6,
};

/// NAS LU, class C.
pub(crate) const NAS_LU: AppCalib = AppCalib {
    name: "LU",
    footprint_max_mb: 16.6,
    footprint_avg_mb: 16.6,
    period_s: 0.7,
    overwrite_frac: 0.72,
    max_ib_mbps: 12.5,
    avg_ib_mbps: 12.5,
};

/// NAS BT, class C.
pub(crate) const NAS_BT: AppCalib = AppCalib {
    name: "BT",
    footprint_max_mb: 76.5,
    footprint_avg_mb: 76.5,
    period_s: 0.4,
    overwrite_frac: 0.92,
    max_ib_mbps: 72.7,
    avg_ib_mbps: 68.6,
};

/// NAS FT, class C.
pub(crate) const NAS_FT: AppCalib = AppCalib {
    name: "FT",
    footprint_max_mb: 118.0,
    footprint_avg_mb: 118.0,
    period_s: 1.2,
    overwrite_frac: 0.57,
    max_ib_mbps: 101.0,
    avg_ib_mbps: 92.1,
};

/// All nine configurations in the paper's table order.
#[cfg(test)]
const ALL: [AppCalib; 9] =
    [SAGE_1000, SAGE_500, SAGE_100, SAGE_50, SWEEP3D, NAS_SP, NAS_LU, NAS_BT, NAS_FT];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_sets_match_paper_fractions() {
        let ws = SAGE_1000.ws_bytes() as f64 / 1e6;
        assert!((ws - 0.53 * 779.5).abs() < 0.1);
        let ws = NAS_BT.ws_bytes() as f64 / 1e6;
        assert!((ws - 0.92 * 76.5).abs() < 0.1);
    }

    #[test]
    fn touch_volume_is_at_least_one_pass() {
        for c in ALL {
            assert!(c.touches_per_iter_bytes() >= c.ws_bytes(), "{}", c.name);
            assert!(c.passes_per_iter() >= 1.0, "{}", c.name);
        }
    }

    #[test]
    fn sage_has_heavy_intra_iteration_reuse() {
        // 78.8 MB/s × 145 s ≈ 11.4 GB of touches over a 413 MB set.
        let passes = SAGE_1000.passes_per_iter();
        assert!(passes > 20.0 && passes < 35.0, "passes = {passes}");
    }

    #[test]
    fn nas_sp_is_single_pass() {
        // 32.6 × 0.16 = 5.2 MB < 28.9 MB working set → one pass.
        assert!((NAS_SP.passes_per_iter() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_preserves_period_and_fractions() {
        let s = SAGE_1000.scaled(0.01);
        assert_eq!(s.period_s, SAGE_1000.period_s);
        assert_eq!(s.overwrite_frac, SAGE_1000.overwrite_frac);
        assert!((s.footprint_avg_mb - 7.795).abs() < 1e-9);
        assert!((s.passes_per_iter() - SAGE_1000.passes_per_iter()).abs() < 1e-6);
    }
}
