//! The workload catalog: the paper's nine application configurations.
//!
//! [`Workload`] is the convenience handle benches, examples and tests
//! use: it knows each application's calibration, builds its model, and
//! derives an address-space layout with the right capacity headroom.

use ickpt_mem::{DataLayout, LayoutBuilder, PAGE_SIZE};

use crate::calib::{self, AppCalib};
use crate::nas;
use crate::phased::{AllocMode, PhasedApp, PhasedConfig};
use crate::sage;
use crate::sweep3d;

/// The nine measured configurations (Table 2 order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Sage, ~1000 MB/process.
    Sage1000,
    /// Sage, ~500 MB/process.
    Sage500,
    /// Sage, ~100 MB/process.
    Sage100,
    /// Sage, ~50 MB/process.
    Sage50,
    /// Sweep3D, 1000×1000×50.
    Sweep3d,
    /// NAS SP class C.
    NasSp,
    /// NAS LU class C.
    NasLu,
    /// NAS BT class C.
    NasBt,
    /// NAS FT class C.
    NasFt,
}

impl Workload {
    /// All workloads in the paper's table order.
    pub const ALL: [Workload; 9] = [
        Workload::Sage1000,
        Workload::Sage500,
        Workload::Sage100,
        Workload::Sage50,
        Workload::Sweep3d,
        Workload::NasSp,
        Workload::NasLu,
        Workload::NasBt,
        Workload::NasFt,
    ];

    /// The four Sage footprints, largest first (Figs 3 and 4).
    pub const SAGE: [Workload; 4] =
        [Workload::Sage1000, Workload::Sage500, Workload::Sage100, Workload::Sage50];

    /// The paper's calibration constants for this workload.
    pub fn calib(&self) -> &'static AppCalib {
        match self {
            Workload::Sage1000 => &calib::SAGE_1000,
            Workload::Sage500 => &calib::SAGE_500,
            Workload::Sage100 => &calib::SAGE_100,
            Workload::Sage50 => &calib::SAGE_50,
            Workload::Sweep3d => &calib::SWEEP3D,
            Workload::NasSp => &calib::NAS_SP,
            Workload::NasLu => &calib::NAS_LU,
            Workload::NasBt => &calib::NAS_BT,
            Workload::NasFt => &calib::NAS_FT,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.calib().name
    }

    /// Parse a workload from a CLI-friendly name (case-insensitive):
    /// `sage1000`, `sage500`, `sage100`, `sage50`, `sweep3d`, `sp`,
    /// `lu`, `bt`, `ft`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name.to_ascii_lowercase().as_str() {
            "sage1000" | "sage-1000mb" => Workload::Sage1000,
            "sage500" | "sage-500mb" => Workload::Sage500,
            "sage100" | "sage-100mb" => Workload::Sage100,
            "sage50" | "sage-50mb" => Workload::Sage50,
            "sweep3d" => Workload::Sweep3d,
            "sp" => Workload::NasSp,
            "lu" => Workload::NasLu,
            "bt" => Workload::NasBt,
            "ft" => Workload::NasFt,
            _ => return None,
        })
    }

    /// Build the model for `rank` of `nranks` at memory `scale`
    /// (1.0 = the paper's configuration).
    pub fn build(&self, rank: usize, nranks: usize, scale: f64, seed: u64) -> PhasedApp {
        match self {
            Workload::Sage1000 | Workload::Sage500 | Workload::Sage100 | Workload::Sage50 => {
                sage::model(self.calib(), rank, nranks, scale, seed)
            }
            Workload::Sweep3d => sweep3d::model(rank, nranks, scale, seed),
            Workload::NasSp => nas::sp(rank, nranks, scale, seed),
            Workload::NasLu => nas::lu(rank, nranks, scale, seed),
            Workload::NasBt => nas::bt(rank, nranks, scale, seed),
            Workload::NasFt => nas::ft(rank, nranks, scale, seed),
        }
    }

    /// An address-space layout with enough capacity for this workload
    /// at `scale` (heap/mmap headroom for Sage's churn and workspace).
    pub fn layout(&self, scale: f64) -> DataLayout {
        let app = self.build(0, 1, scale, 0);
        layout_for(app.config())
    }
}

/// Derive a layout with headroom from a model configuration.
pub(crate) fn layout_for(cfg: &PhasedConfig) -> DataLayout {
    let static_bytes = 64 * PAGE_SIZE; // text-adjacent static data: negligible
    match cfg.alloc {
        AllocMode::StaticHeap => LayoutBuilder::new()
            .static_bytes(static_bytes)
            .heap_capacity_bytes(cfg.array_bytes + 64 * PAGE_SIZE)
            .mmap_capacity_bytes(16 * PAGE_SIZE)
            .build(),
        AllocMode::SageChurn { temp_frac, jitter, .. } => {
            let heap = cfg.array_bytes / 4 + 64 * PAGE_SIZE;
            let perm = cfg.array_bytes - cfg.array_bytes / 4;
            let temp = (cfg.array_bytes as f64 * temp_frac) as u64;
            // Churned blocks can grow by `jitter` and fragmentation
            // needs slack: 40 % headroom over the worst-case sum.
            let mmap = ((perm as f64 * (1.0 + jitter) + temp as f64) * 1.4) as u64;
            LayoutBuilder::new()
                .static_bytes(static_bytes)
                .heap_capacity_bytes(heap)
                .mmap_capacity_bytes(mmap)
                .build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::AppModel;
    use ickpt_mem::{AddressSpace, SparseSpace};

    #[test]
    fn catalog_is_complete_and_named() {
        assert_eq!(Workload::ALL.len(), 9);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "Sage-1000MB",
                "Sage-500MB",
                "Sage-100MB",
                "Sage-50MB",
                "Sweep3D",
                "SP",
                "LU",
                "BT",
                "FT"
            ]
        );
    }

    #[test]
    fn from_name_roundtrips_and_rejects_garbage() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w), "{}", w.name());
        }
        assert_eq!(Workload::from_name("sage1000"), Some(Workload::Sage1000));
        assert_eq!(Workload::from_name("FT"), Some(Workload::NasFt));
        assert_eq!(Workload::from_name("hpl"), None);
    }

    #[test]
    fn every_workload_initializes_in_its_layout() {
        // Run at 1/20 scale so the test is quick but the allocation
        // paths (heap + mmap + temp) are all exercised.
        for w in Workload::ALL {
            let scale = 0.05;
            let layout = w.layout(scale);
            let mut space = SparseSpace::new(layout);
            let mut app = w.build(0, 4, scale, 42);
            app.init(&mut space).unwrap_or_else(|_| panic!("{}", w.name()));
            // Two full iterations of phases must fit in the layout.
            while app.iterations_done() < 2 {
                app.next_phase(&mut space).unwrap_or_else(|_| panic!("{}", w.name()));
            }
            assert!(space.mapped_pages() > 0);
        }
    }

    #[test]
    fn footprints_track_table_2() {
        for w in Workload::ALL {
            let scale = 0.1;
            let layout = w.layout(scale);
            let mut space = SparseSpace::new(layout);
            let mut app = w.build(0, 1, scale, 7);
            app.init(&mut space).unwrap();
            // After init, the mapped footprint should be within 15 % of
            // the scaled average footprint (the burst temp adds more).
            let fp_mb = space.mapped_pages() as f64 * PAGE_SIZE as f64 / 1e6;
            let want = w.calib().footprint_avg_mb * scale;
            let ratio = fp_mb / want;
            // Small static-data overhead and page rounding matter at
            // 1/10 scale, hence the generous band.
            assert!(
                (0.75..=1.25).contains(&ratio),
                "{}: footprint {fp_mb:.1} MB vs expected ~{want:.1} MB",
                w.name()
            );
        }
    }

    #[test]
    fn sage_peak_footprint_respects_layout() {
        let scale = 0.05;
        let w = Workload::Sage1000;
        let layout = w.layout(scale);
        let mut space = SparseSpace::new(layout);
        let mut app = w.build(0, 2, scale, 3);
        app.init(&mut space).unwrap();
        let mut peak: u64 = 0;
        while app.iterations_done() < 5 {
            app.next_phase(&mut space).unwrap();
            peak = peak.max(space.mapped_pages());
        }
        let peak_mb = peak as f64 * PAGE_SIZE as f64 / 1e6;
        let want_max = w.calib().footprint_max_mb * scale;
        assert!(
            (peak_mb / want_max - 1.0).abs() < 0.25,
            "peak {peak_mb:.1} MB vs Table 2 max ~{want_max:.1} MB"
        );
    }

    #[test]
    fn layouts_have_headroom() {
        for w in Workload::ALL {
            let cfg_app = w.build(0, 1, 0.1, 0);
            let layout = layout_for(cfg_app.config());
            assert!(
                layout.capacity_pages() > ickpt_mem::pages_for_bytes(cfg_app.config().array_bytes),
                "{}",
                w.name()
            );
        }
    }
}
