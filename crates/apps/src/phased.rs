//! The generic bulk-synchronous application model.
//!
//! §6.2 of the paper: "scientific codes perform a sequence of similar
//! iterations, and in each iteration we can identify regular
//! computation and communication bursts". [`PhasedApp`] is that
//! structure, parameterized per application:
//!
//! * an iteration is `kernels` compute phases, each sweeping the
//!   working set at the calibrated rate, with communication after each
//!   kernel;
//! * a *processing burst* of length `touches / peak_rate` followed by a
//!   quiet tail filling the rest of the period (Sage has a long tail;
//!   the NAS codes compute for essentially the whole period);
//! * a [`Phase`] is one kernel — its compute step and its own exchange
//!   rounds — or the tail, so a rank holds one kernel's script at a
//!   time, never the whole burst's;
//! * optionally (Sage) dynamic memory behaviour: a temporary workspace
//!   block mapped for the burst and unmapped afterwards, plus
//!   allocation churn over the permanent blocks — this is what makes
//!   Sage's footprint vary (Table 2) and exercises memory exclusion.
//!
//! The model is a deterministic function of its configuration and seed.

use ickpt_mem::{pages_for_bytes, AddressSpace, MemError, PageRange, PAGE_SIZE};
use ickpt_sim::{SimDuration, SplitMix64};

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::pattern::{AccessPattern, WorkingSet};
use crate::step::{AppModel, Phase, Step};

/// Neighbor topology for exchange communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborShape {
    /// 1D ring: up to two neighbors.
    Ring,
    /// 2D torus on the largest near-square factorization: up to four
    /// neighbors.
    Grid2D,
}

/// Communication performed after each kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum CommSpec {
    /// No communication (single-rank characterization runs).
    None,
    /// Ghost-cell exchange with neighbors, `rounds` times per kernel.
    Neighbors {
        /// Topology.
        shape: NeighborShape,
        /// Bytes per neighbor per round.
        bytes: u64,
        /// Exchange rounds per kernel (Sage's multi-level gathers grow
        /// with log₂ P, which is how weak scaling shows up in Fig 5).
        rounds: u32,
    },
    /// Personalized all-to-all (FT's FFT transpose), once per kernel.
    AllToAll {
        /// Bytes exchanged with each peer.
        bytes_per_pair: u64,
    },
}

/// Memory allocation behaviour.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocMode {
    /// All arrays on the heap at init, constant footprint (Sweep3D and
    /// the NAS codes — "statically allocate their data", §5).
    StaticHeap,
    /// Sage (§5: "dynamically allocates and deallocates a large part of
    /// its data structures"): permanent arrays split across heap and
    /// mmap blocks, a temporary workspace mapped for each burst, and
    /// per-iteration churn of permanent blocks.
    SageChurn {
        /// Number of permanent mmap blocks.
        perm_blocks: u32,
        /// Temporary workspace size as a fraction of the permanent
        /// arrays.
        temp_frac: f64,
        /// Permanent blocks reallocated (freed + mapped anew with
        /// jittered size) per iteration.
        churn_blocks: u32,
        /// Size jitter of churned blocks (±fraction).
        jitter: f64,
    },
}

/// Full configuration of a phased application.
#[derive(Debug, Clone)]
pub struct PhasedConfig {
    /// Display name.
    pub name: String,
    /// This rank.
    pub rank: usize,
    /// World size.
    pub nranks: usize,
    /// Permanent array bytes per rank.
    pub array_bytes: u64,
    /// Working-set size in bytes (pages written each iteration).
    pub ws_bytes: u64,
    /// Main-iteration period.
    pub period: SimDuration,
    /// Kernel phases per iteration.
    pub kernels: u32,
    /// Total page-touch volume per iteration, bytes.
    pub touches_per_iter: u64,
    /// Touch rate during kernels, bytes/second.
    pub peak_rate: f64,
    /// Communication after each kernel.
    pub comm: CommSpec,
    /// Iteration-end allreduce payload (0 = none).
    pub allreduce_bytes: u64,
    /// Kernel-duration skew in [0, 0.9): kernel durations ramp
    /// linearly from `(1 - skew)` to `(1 + skew)` times the mean
    /// across the iteration (same page volume per kernel), so the
    /// fastest kernel writes at `peak_rate / (1 - skew)`. Real codes'
    /// kernels are not uniform, and it is this sawtooth envelope that
    /// makes the iteration period detectable at run time (§6.2).
    pub kernel_skew: f64,
    /// Estimated per-iteration communication time, used to size the
    /// quiet tail so that burst + communication + tail lands on the
    /// calibrated period.
    pub comm_budget: SimDuration,
    /// Allocation behaviour.
    pub alloc: AllocMode,
    /// Initialization write rate, bytes/second (the first-touch burst).
    pub init_rate: f64,
    /// Seed for the model's private PRNG.
    pub seed: u64,
}

impl PhasedConfig {
    /// Burst duration: `touches / peak_rate`.
    pub(crate) fn burst(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.touches_per_iter as f64 / self.peak_rate)
    }

    /// Quiet tail: `period - burst - comm_budget` (zero when compute
    /// plus communication fills the whole period).
    pub(crate) fn quiet(&self) -> SimDuration {
        let busy = self.burst() + self.comm_budget;
        if busy.0 >= self.period.0 {
            SimDuration::ZERO
        } else {
            self.period - busy
        }
    }
}

impl CommSpec {
    /// Rough per-iteration communication time in seconds, used by
    /// workload constructors to budget compute so the total iteration
    /// period lands near the calibrated value. `nic_bw` in bytes/s.
    pub(crate) fn estimate_seconds_per_iter(
        &self,
        rank: usize,
        nranks: usize,
        kernels: u32,
        nic_bw: f64,
    ) -> f64 {
        let per_kernel = match self {
            CommSpec::None => 0.0,
            CommSpec::Neighbors { shape, bytes, rounds } => {
                let n = neighbors(rank, nranks, *shape).len() as f64;
                n * *rounds as f64 * (*bytes as f64 / nic_bw + 10e-6)
            }
            CommSpec::AllToAll { bytes_per_pair } => {
                (nranks as f64 - 1.0).max(0.0) * (*bytes_per_pair as f64 / nic_bw + 10e-6)
            }
        };
        per_kernel * kernels as f64
    }
}

/// Compute the near-square 2D factorization of `n` (rows ≤ cols).
fn grid_dims(n: usize) -> (usize, usize) {
    let mut r = (n as f64).sqrt() as usize;
    while r > 1 && !n.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), n / r.max(1))
}

/// Neighbor ranks for `rank` in the given topology (deduplicated; empty
/// for single-rank worlds).
pub fn neighbors(rank: usize, nranks: usize, shape: NeighborShape) -> Vec<usize> {
    if nranks <= 1 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(4);
    match shape {
        NeighborShape::Ring => {
            out.push((rank + 1) % nranks);
            out.push((rank + nranks - 1) % nranks);
        }
        NeighborShape::Grid2D => {
            let (rows, cols) = grid_dims(nranks);
            let (r, c) = (rank / cols, rank % cols);
            out.push(((r + 1) % rows) * cols + c);
            out.push(((r + rows - 1) % rows) * cols + c);
            out.push(r * cols + (c + 1) % cols);
            out.push(r * cols + (c + cols - 1) % cols);
        }
    }
    out.sort_unstable();
    out.dedup();
    out.retain(|&n| n != rank);
    out
}

/// The generic phased application.
pub struct PhasedApp {
    cfg: PhasedConfig,
    rng: SplitMix64,
    heap_range: Option<PageRange>,
    /// Permanent mmap blocks: (base size in pages, current mapping).
    perm: Vec<(u64, PageRange)>,
    /// Temporary workspace mapped for the current burst.
    temp: Option<PageRange>,
    /// Exchange partners (empty unless `comm` is `Neighbors`).
    nbrs: Vec<usize>,
    /// The running burst's working set, computed at kernel 0: mappings
    /// change only when a burst starts or ends.
    ws: WorkingSet,
    /// Global sweep cursor (flat pages) so coverage cycles across
    /// kernels and iterations.
    sweep_offset: u64,
    iter: u64,
    /// The next phase: [`BURST`], [`TAIL`], or `2 + k` for kernel
    /// `k ≥ 1` of the running burst. Saved as is.
    cursor: u64,
    initialized: bool,
}

/// Cursor: the next phase starts a burst (kernel 0).
const BURST: u64 = 0;
/// Cursor: the next phase is the tail.
const TAIL: u64 = 1;

impl PhasedApp {
    /// Build from configuration.
    pub(crate) fn new(cfg: PhasedConfig) -> Self {
        assert!(cfg.kernels > 0, "at least one kernel per iteration");
        assert!(cfg.peak_rate > 0.0 && cfg.init_rate > 0.0);
        assert!(cfg.ws_bytes > 0 && cfg.ws_bytes <= cfg.array_bytes * 2);
        let rng = SplitMix64::for_rank(cfg.seed, cfg.rank);
        let nbrs = match cfg.comm {
            CommSpec::Neighbors { shape, .. } => neighbors(cfg.rank, cfg.nranks, shape),
            _ => Vec::new(),
        };
        Self {
            cfg,
            rng,
            heap_range: None,
            perm: Vec::new(),
            temp: None,
            nbrs,
            ws: WorkingSet::default(),
            sweep_offset: 0,
            iter: 0,
            cursor: BURST,
            initialized: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PhasedConfig {
        &self.cfg
    }

    /// All currently mapped array ranges (including the burst
    /// workspace, when mapped).
    fn array_ranges(&self) -> Vec<PageRange> {
        let mut out = Vec::with_capacity(2 + self.perm.len());
        if let Some(t) = self.temp {
            out.push(t);
        }
        if let Some(h) = self.heap_range {
            out.push(h);
        }
        out.extend(self.perm.iter().map(|&(_, r)| r));
        out
    }

    /// Permanent array ranges (heap + perm blocks), excluding the
    /// transient workspace.
    fn permanent_ranges(&self) -> Vec<PageRange> {
        let mut out = Vec::with_capacity(1 + self.perm.len());
        if let Some(h) = self.heap_range {
            out.push(h);
        }
        out.extend(self.perm.iter().map(|&(_, r)| r));
        out
    }

    /// The working set: the first `ws_bytes` of the *permanent* arrays.
    /// The burst workspace is deliberately excluded — it is unmapped at
    /// iteration end, so its writes would vanish under memory
    /// exclusion; the persistent solution arrays are what an iteration
    /// overwrites (Table 3).
    fn working_set(&self) -> WorkingSet {
        let all = WorkingSet::new(self.permanent_ranges());
        let ws_pages = pages_for_bytes(self.cfg.ws_bytes).min(all.total_pages());
        let frac = ws_pages as f64 / all.total_pages() as f64;
        all.slice_frac(0.0, frac)
    }

    /// Ghost-cell target for exchanges from direction `dir`: a small
    /// slice at the start of the permanent arrays.
    fn ghost_range(&self, dir: usize, bytes: u64) -> Option<PageRange> {
        let pages = pages_for_bytes(bytes).max(1);
        let base = self.heap_range.or(self.perm.first().map(|&(_, r)| r))?;
        let offset = (dir as u64 * pages) % base.len.max(1);
        let len = pages.min(base.len - offset);
        (len > 0).then_some(PageRange::new(base.start + offset, len))
    }

    /// Number of communication steps after a kernel.
    fn comm_len(&self) -> usize {
        match &self.cfg.comm {
            CommSpec::None => 0,
            CommSpec::Neighbors { rounds, .. } => self.nbrs.len() * 2 * *rounds as usize,
            CommSpec::AllToAll { .. } => 1,
        }
    }

    /// Append the communication steps after kernel `k`.
    fn push_comm_steps(&self, k: u32, steps: &mut Vec<Step>) {
        match &self.cfg.comm {
            CommSpec::None => {}
            CommSpec::Neighbors { bytes, rounds, .. } => {
                for round in 0..*rounds {
                    let tag = k * 64 + round;
                    for &nb in &self.nbrs {
                        steps.push(Step::Send { to: nb, tag, bytes: *bytes });
                    }
                    for (d, &nb) in self.nbrs.iter().enumerate() {
                        steps.push(Step::Recv { from: nb, tag, into: self.ghost_range(d, *bytes) });
                    }
                }
            }
            CommSpec::AllToAll { bytes_per_pair } => steps.push(Step::AllToAll {
                bytes_per_pair: *bytes_per_pair,
                into: self.ghost_range(0, bytes_per_pair * (self.cfg.nranks as u64 - 1).max(1)),
            }),
        }
    }

    /// Perform Sage's per-iteration dynamic memory work: churn some
    /// permanent blocks and map the temporary workspace.
    fn burst_alloc(&mut self, space: &mut dyn AddressSpace) -> Result<(), MemError> {
        if let AllocMode::SageChurn { temp_frac, churn_blocks, jitter, .. } = self.cfg.alloc {
            // Churn: free + re-map a few permanent blocks with jittered
            // sizes (Fortran 90 allocate/deallocate between cycles).
            for _ in 0..churn_blocks.min(self.perm.len() as u32) {
                let idx = self.rng.next_below(self.perm.len() as u64) as usize;
                let (base, old) = self.perm[idx];
                space.munmap(old)?;
                let factor = 1.0 + jitter * (2.0 * self.rng.next_f64() - 1.0);
                let new_pages = ((base as f64 * factor) as u64).max(1);
                let new = space.mmap(new_pages)?;
                self.perm[idx] = (base, new);
            }
            // Map the burst workspace.
            debug_assert!(self.temp.is_none(), "temp block leaked");
            let temp_pages = pages_for_bytes((self.cfg.array_bytes as f64 * temp_frac) as u64);
            if temp_pages > 0 {
                self.temp = Some(space.mmap(temp_pages)?);
            }
        }
        Ok(())
    }

    /// Free the burst workspace at the end of the burst.
    fn burst_free(&mut self, space: &mut dyn AddressSpace) -> Result<(), MemError> {
        if let Some(t) = self.temp.take() {
            space.munmap(t)?;
        }
        Ok(())
    }
}

impl AppModel for PhasedApp {
    fn name(&self) -> String {
        self.cfg.name.clone()
    }

    fn init(&mut self, space: &mut dyn AddressSpace) -> Result<Phase, MemError> {
        assert!(!self.initialized, "init called twice");
        let total_pages = pages_for_bytes(self.cfg.array_bytes);
        match self.cfg.alloc {
            AllocMode::StaticHeap => {
                self.heap_range = Some(space.heap_grow(total_pages)?);
            }
            AllocMode::SageChurn { perm_blocks, .. } => {
                // ~25 % heap (F77-style base arrays), rest in mmap
                // blocks (F90 allocatables), as §4.1 describes for the
                // Intel compilers.
                let heap_pages = total_pages / 4;
                self.heap_range = Some(space.heap_grow(heap_pages)?);
                let blocks = perm_blocks.max(1) as u64;
                let per_block = (total_pages - heap_pages) / blocks;
                for _ in 0..blocks {
                    let r = space.mmap(per_block.max(1))?;
                    self.perm.push((per_block.max(1), r));
                }
            }
        }
        self.initialized = true;
        // First-touch initialization sweep over everything mapped.
        let all = WorkingSet::new(self.array_ranges());
        let duration =
            SimDuration::from_secs_f64((all.total_pages() * PAGE_SIZE) as f64 / self.cfg.init_rate);
        Ok(Phase::continuing(vec![Step::Compute {
            duration,
            pattern: AccessPattern::Sweep {
                total_pages: all.total_pages(),
                set: all,
                start_offset: 0,
            },
        }]))
    }

    fn next_phase(&mut self, space: &mut dyn AddressSpace) -> Result<Phase, MemError> {
        assert!(self.initialized, "next_phase before init");
        if self.cursor == TAIL {
            self.burst_free(space)?;
            let mut steps = Vec::with_capacity(2);
            if self.cfg.allreduce_bytes > 0 {
                steps.push(Step::Allreduce { bytes: self.cfg.allreduce_bytes });
            }
            let quiet = self.cfg.quiet();
            if !quiet.is_zero() {
                steps.push(Step::Compute { duration: quiet, pattern: AccessPattern::None });
            }
            self.cursor = BURST;
            self.iter += 1;
            return Ok(Phase::ending(steps));
        }
        // ---- one kernel of the burst ----
        let k = self.cursor.saturating_sub(2) as u32;
        if k == 0 {
            self.burst_alloc(space)?;
            self.ws = self.working_set();
        }
        let workspace = self.temp.filter(|_| k == 0);
        let mut steps = Vec::with_capacity(workspace.is_some() as usize + 1 + self.comm_len());
        // The workspace is first-touched once when it is mapped (filled
        // with scratch data); those writes show up in the IWS but are
        // later memory-excluded from checkpoints.
        if let Some(t) = workspace {
            steps.push(Step::Compute {
                duration: SimDuration::from_secs_f64(
                    (t.len * PAGE_SIZE) as f64 / self.cfg.peak_rate,
                ),
                pattern: AccessPattern::Sweep {
                    set: WorkingSet::new(vec![t]),
                    total_pages: t.len,
                    start_offset: 0,
                },
            });
        }
        let per_kernel =
            (pages_for_bytes(self.cfg.touches_per_iter) / self.cfg.kernels as u64).max(1);
        let mean_dur = (per_kernel * PAGE_SIZE) as f64 / self.cfg.peak_rate;
        // Ramp kernel durations across the iteration (fast kernels
        // first): the sawtooth envelope is what makes the *iteration* —
        // not the kernel pair — the dominant period in the IWS series.
        let ramp = if self.cfg.kernels > 1 {
            2.0 * k as f64 / (self.cfg.kernels - 1) as f64 - 1.0
        } else {
            0.0
        };
        steps.push(Step::Compute {
            duration: SimDuration::from_secs_f64(mean_dur * (1.0 + self.cfg.kernel_skew * ramp)),
            pattern: AccessPattern::Sweep {
                set: self.ws.clone(),
                total_pages: per_kernel,
                start_offset: self.sweep_offset,
            },
        });
        self.sweep_offset = (self.sweep_offset + per_kernel) % self.ws.total_pages().max(1);
        self.push_comm_steps(k, &mut steps);
        self.cursor = if k + 1 == self.cfg.kernels { TAIL } else { 2 + u64::from(k + 1) };
        Ok(Phase::continuing(steps))
    }

    fn iterations_done(&self) -> u64 {
        self.iter
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.iter);
        w.put_u64(self.cursor);
        w.put_u64(self.sweep_offset);
        w.put_u64(self.rng_state());
        w.put_u64(self.heap_range.map_or(u64::MAX, |r| r.start));
        w.put_u64(self.heap_range.map_or(0, |r| r.len));
        w.put_u64(self.perm.len() as u64);
        for &(base, r) in &self.perm {
            w.put_u64(base);
            w.put_u64(r.start);
            w.put_u64(r.len);
        }
        match self.temp {
            Some(t) => {
                w.put_u64(1);
                w.put_u64(t.start);
                w.put_u64(t.len);
            }
            None => w.put_u64(0),
        }
        w.into_vec()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        self.iter = r.get_u64()?;
        self.cursor = r.get_u64()?;
        if self.cursor >= 2 + self.cfg.kernels as u64 {
            return Err(CodecError("kernel cursor out of range"));
        }
        self.sweep_offset = r.get_u64()?;
        let rng_state = r.get_u64()?;
        self.rng = SplitMix64::new(0);
        self.set_rng_state(rng_state);
        let hs = r.get_u64()?;
        let hl = r.get_u64()?;
        self.heap_range = (hs != u64::MAX).then_some(PageRange::new(hs, hl));
        let n = r.get_u64()? as usize;
        self.perm.clear();
        for _ in 0..n {
            let base = r.get_u64()?;
            let start = r.get_u64()?;
            let len = r.get_u64()?;
            self.perm.push((base, PageRange::new(start, len)));
        }
        self.temp = if r.get_u64()? == 1 {
            let start = r.get_u64()?;
            let len = r.get_u64()?;
            Some(PageRange::new(start, len))
        } else {
            None
        };
        if self.cursor > TAIL {
            self.ws = self.working_set();
        }
        self.initialized = true;
        Ok(())
    }
}

impl PhasedApp {
    fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    fn set_rng_state(&mut self, s: u64) {
        self.rng.set_state(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickpt_mem::{LayoutBuilder, SparseSpace};

    fn test_cfg(alloc: AllocMode, nranks: usize) -> PhasedConfig {
        PhasedConfig {
            name: "test".into(),
            rank: 0,
            nranks,
            array_bytes: 16 << 20, // 16 MiB
            ws_bytes: 8 << 20,
            period: SimDuration::from_secs(10),
            kernels: 4,
            touches_per_iter: 32 << 20,
            peak_rate: 16e6,
            comm: CommSpec::Neighbors { shape: NeighborShape::Ring, bytes: 4096, rounds: 1 },
            allreduce_bytes: 64,
            kernel_skew: 0.0,
            comm_budget: SimDuration::ZERO,
            alloc,
            init_rate: 100e6,
            seed: 7,
        }
    }

    fn space() -> SparseSpace {
        SparseSpace::new(
            LayoutBuilder::new()
                .static_bytes(1 << 20)
                .heap_capacity_bytes(64 << 20)
                .mmap_capacity_bytes(128 << 20)
                .build(),
        )
    }

    #[test]
    fn grid_dims_factorizations() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(7), (1, 7));
        assert_eq!(grid_dims(64), (8, 8));
    }

    #[test]
    fn neighbor_topologies() {
        assert!(neighbors(0, 1, NeighborShape::Ring).is_empty());
        assert_eq!(neighbors(0, 2, NeighborShape::Ring), vec![1]);
        assert_eq!(neighbors(0, 4, NeighborShape::Ring), vec![1, 3]);
        let n = neighbors(5, 16, NeighborShape::Grid2D);
        assert_eq!(n.len(), 4);
        assert!(n.iter().all(|&x| x < 16 && x != 5));
    }

    #[test]
    fn init_allocates_and_first_touches() {
        let mut app = PhasedApp::new(test_cfg(AllocMode::StaticHeap, 4));
        let mut sp = space();
        let phase = app.init(&mut sp).unwrap();
        assert_eq!(sp.heap_pages(), pages_for_bytes(16 << 20));
        assert_eq!(phase.steps.len(), 1);
        match &phase.steps[0] {
            Step::Compute { pattern: AccessPattern::Sweep { total_pages, .. }, .. } => {
                assert_eq!(*total_pages, pages_for_bytes(16 << 20));
            }
            other => panic!("unexpected init step {other:?}"),
        }
    }

    /// The phases of one iteration: the burst's kernels, then the tail.
    fn iteration(app: &mut PhasedApp, sp: &mut SparseSpace) -> (Vec<Phase>, Phase) {
        let mut burst = Vec::new();
        loop {
            let phase = app.next_phase(sp).unwrap();
            if phase.ends_iteration {
                return (burst, phase);
            }
            burst.push(phase);
        }
    }

    fn count(phase: &Phase, pred: fn(&Step) -> bool) -> usize {
        phase.steps.iter().filter(|s| pred(s)).count()
    }

    #[test]
    fn burst_then_tail_structure() {
        let mut app = PhasedApp::new(test_cfg(AllocMode::StaticHeap, 4));
        let mut sp = space();
        app.init(&mut sp).unwrap();
        let (burst, tail) = iteration(&mut app, &mut sp);
        assert_eq!(burst.len(), 4, "one phase per kernel");
        for kernel in &burst {
            assert_eq!(count(kernel, |s| matches!(s, Step::Compute { .. })), 1);
            assert_eq!(count(kernel, |s| matches!(s, Step::Send { .. })), 2, "two ring neighbors");
            assert_eq!(count(kernel, |s| matches!(s, Step::Recv { .. })), 2);
            assert_eq!(kernel.steps.len(), kernel.steps.capacity(), "sized exactly");
        }
        assert!(matches!(tail.steps[0], Step::Allreduce { .. }));
        // Quiet tail: 32MiB at 16e6 B/s ≈ 2.1 s burst of a 10 s period.
        match tail.steps.last().unwrap() {
            Step::Compute { duration, pattern: AccessPattern::None } => {
                assert!(duration.as_secs_f64() > 7.0);
            }
            other => panic!("expected quiet tail, got {other:?}"),
        }
        assert_eq!(app.iterations_done(), 1);
    }

    #[test]
    fn sage_churn_maps_temp_during_burst_only() {
        let alloc =
            AllocMode::SageChurn { perm_blocks: 4, temp_frac: 0.25, churn_blocks: 1, jitter: 0.2 };
        let mut app = PhasedApp::new(test_cfg(alloc, 2));
        let mut sp = space();
        app.init(&mut sp).unwrap();
        let base_fp = sp.mapped_pages();
        app.next_phase(&mut sp).unwrap(); // kernel 0: temp mapped
        let during = sp.mapped_pages();
        assert!(during > base_fp, "temp block mapped during burst");
        app.next_phase(&mut sp).unwrap(); // kernel 1 allocates nothing
        assert_eq!(sp.mapped_pages(), during);
        iteration(&mut app, &mut sp); // tail: temp freed
        let after = sp.mapped_pages();
        // Churn jitters one block, so footprint is near but not
        // necessarily equal to the base.
        let drift = (after as f64 - base_fp as f64).abs() / base_fp as f64;
        assert!(drift < 0.25, "footprint drift {drift}");
    }

    #[test]
    fn sweep_offset_advances_across_kernels() {
        let mut cfg = test_cfg(AllocMode::StaticHeap, 1);
        // 24 MiB of touches over an 8 MiB working set with 4 kernels:
        // 0.75 of a pass per kernel, so offsets rotate.
        cfg.touches_per_iter = 24 << 20;
        let mut app = PhasedApp::new(cfg);
        let mut sp = space();
        app.init(&mut sp).unwrap();
        let (burst, _) = iteration(&mut app, &mut sp);
        let offsets: Vec<u64> = burst
            .iter()
            .flat_map(|phase| &phase.steps)
            .filter_map(|s| match s {
                Step::Compute { pattern: AccessPattern::Sweep { start_offset, .. }, .. } => {
                    Some(*start_offset)
                }
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 4);
        assert!(offsets.windows(2).all(|w| w[0] != w[1]), "kernels continue the sweep");
    }

    #[test]
    fn state_roundtrip_preserves_trajectory() {
        let alloc =
            AllocMode::SageChurn { perm_blocks: 3, temp_frac: 0.2, churn_blocks: 1, jitter: 0.2 };
        let mut a = PhasedApp::new(test_cfg(alloc.clone(), 2));
        let mut sp_a = space();
        a.init(&mut sp_a).unwrap();
        while a.iterations_done() < 2 {
            a.next_phase(&mut sp_a).unwrap();
        }
        let blob = a.save_state();

        // A freshly-built model restored from the blob, driving a clone
        // of the space, must generate the identical next phases.
        let mut b = PhasedApp::new(test_cfg(alloc, 2));
        b.restore_state(&blob).unwrap();
        let mut sp_b = sp_a.clone();
        for _ in 0..4 {
            let pa = a.next_phase(&mut sp_a).unwrap();
            let pb = b.next_phase(&mut sp_b).unwrap();
            assert_eq!(pa, pb);
        }
        assert_eq!(a.iterations_done(), b.iterations_done());
    }

    #[test]
    fn alltoall_comm() {
        let mut cfg = test_cfg(AllocMode::StaticHeap, 8);
        cfg.comm = CommSpec::AllToAll { bytes_per_pair: 1 << 20 };
        let mut app = PhasedApp::new(cfg);
        let mut sp = space();
        app.init(&mut sp).unwrap();
        let (burst, _) = iteration(&mut app, &mut sp);
        assert_eq!(burst.len(), 4);
        for kernel in &burst {
            assert_eq!(count(kernel, |s| matches!(s, Step::AllToAll { .. })), 1, "one transpose");
            assert_eq!(kernel.steps.len(), 2);
        }
    }

    #[test]
    fn mid_burst_snapshots_restore_the_same_trajectory() {
        // 28 kernels: most snapshots land between two kernels of a burst.
        let build = || crate::Workload::Sage1000.build(3, 8, 0.05, 11);
        let layout = crate::Workload::Sage1000.layout(0.05);
        let mut a = build();
        let mut sp = SparseSpace::new(layout);
        a.init(&mut sp).unwrap();
        let (mut snaps, mut phases) = (Vec::new(), Vec::new());
        while a.iterations_done() < 3 {
            if a.iterations_done() < 2 {
                snaps.push((phases.len(), a.save_state(), sp.clone()));
            }
            phases.push(a.next_phase(&mut sp).unwrap());
        }
        assert!(snaps.len() > 50);
        for (at, blob, mut sp_b) in snaps {
            let mut b = build();
            b.restore_state(&blob).unwrap();
            for (i, want) in phases[at..].iter().enumerate() {
                assert_eq!(&b.next_phase(&mut sp_b).unwrap(), want, "snapshot {at}, phase +{i}");
            }
            assert_eq!(b.iterations_done(), 3);
        }
    }

    #[test]
    fn boundary_state_bytes_are_pinned() {
        // Sage-50MB, rank 3 of 8, scale 1, seed 7, after two iterations:
        // recorded when a whole burst was one phase. The cursor word (the
        // second) is 0 at a boundary either way.
        let w = crate::Workload::Sage50;
        let mut sp = SparseSpace::new(w.layout(1.0));
        let mut app = w.build(3, 8, 1.0, 7);
        app.init(&mut sp).unwrap();
        while app.iterations_done() < 2 {
            app.next_phase(&mut sp).unwrap();
        }
        let words: Vec<u64> =
            app.save_state().chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        let perm = [
            459, 9924, 524, 459, 3039, 459, 459, 3498, 459, 459, 3957, 459, 459, 4416, 459, 459,
            4875, 459, 459, 5334, 459, 459, 10974, 486, 459, 6252, 459, 459, 6711, 459, 459, 7170,
            459, 459, 10448, 526, 459, 8088, 459, 459, 2580, 425, 459, 9006, 459, 459, 9465, 459,
        ];
        let mut want = vec![2, 0, 5670, 1517094859979457764, 64, 2451, 16];
        want.extend(perm);
        want.push(0);
        assert_eq!(words, want);
    }

    #[test]
    fn out_of_range_cursor_is_rejected() {
        let mut app = PhasedApp::new(test_cfg(AllocMode::StaticHeap, 4));
        let mut sp = space();
        app.init(&mut sp).unwrap();
        let mut blob = app.save_state();
        blob[8] = 2 + 4;
        let err = PhasedApp::new(test_cfg(AllocMode::StaticHeap, 4)).restore_state(&blob);
        assert_eq!(err, Err(CodecError("kernel cursor out of range")));
    }
}
