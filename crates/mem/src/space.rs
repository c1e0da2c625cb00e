//! Address spaces: mapping state plus (optionally) page contents.
//!
//! Two implementations share one mapping model:
//!
//! * [`SparseSpace`] records *which* pages are mapped but stores no
//!   contents. The paper's characterization experiments only need the
//!   mapping metadata and dirty bits, so a 64-rank Sage-1000MB run costs
//!   kilobytes per rank instead of gigabytes.
//! * [`BackedSpace`] additionally stores real page contents in a flat
//!   arena, which is what the checkpoint/restore machinery operates on
//!   in correctness tests and the fault-tolerance examples.

use crate::dirty::DirtyBitmap;
use crate::error::MemError;
use crate::heap::Heap;
use crate::layout::DataLayout;
use crate::mmap_area::MmapArea;
use crate::page::{PageRange, PAGE_SIZE};

/// Which area of the data segment a page belongs to (§4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RegionKind {
    /// Initialized data + BSS (always mapped).
    StaticData,
    /// `brk`/`sbrk` heap.
    Heap,
    /// `mmap`'ed blocks.
    Mmap,
}

/// Mapping state common to both space implementations.
#[derive(Debug, Clone)]
struct MappingState {
    layout: DataLayout,
    heap: Heap,
    mmap: MmapArea,
}

impl MappingState {
    fn new(layout: DataLayout) -> Self {
        Self { layout, heap: Heap::new(layout.heap), mmap: MmapArea::new(layout.mmap) }
    }

    fn is_mapped(&self, page: u64) -> bool {
        match self.layout.region_of(page) {
            Some(RegionKind::StaticData) => true,
            Some(RegionKind::Heap) => self.heap.is_mapped(page),
            Some(RegionKind::Mmap) => self.mmap.is_mapped(page),
            None => false,
        }
    }

    /// One step per mapping the range crosses, not one per page.
    fn is_range_mapped(&self, range: PageRange) -> bool {
        let mut next = range.start;
        while next < range.end() {
            next = match self.layout.region_of(next) {
                Some(RegionKind::StaticData) => self.layout.static_data.end(),
                Some(RegionKind::Heap) if self.heap.is_mapped(next) => self.heap.mapped().end(),
                Some(RegionKind::Mmap) => match self.mmap.mapping_of(next) {
                    Some(block) => block.end(),
                    None => return false,
                },
                _ => return false,
            };
        }
        true
    }

    fn mapped_pages(&self) -> u64 {
        self.layout.static_data.len + self.heap.size_pages() + self.mmap.mapped_pages()
    }

    fn mapped_ranges(&self) -> Vec<PageRange> {
        let mut out = Vec::with_capacity(2 + self.mmap.live_count());
        if !self.layout.static_data.is_empty() {
            out.push(self.layout.static_data);
        }
        let heap = self.heap.mapped();
        if !heap.is_empty() {
            out.push(heap);
        }
        out.extend(self.mmap.live_mappings());
        out
    }
}

/// Common behaviour of simulated address spaces.
///
/// All page arguments are dense segment-relative indices (see
/// `layout`).
pub trait AddressSpace {
    /// The fixed layout of the tracked segment.
    fn layout(&self) -> &DataLayout;

    /// Whether `page` is currently mapped.
    fn is_mapped(&self, page: u64) -> bool;

    /// Whether every page of `range` is currently mapped.
    fn is_range_mapped(&self, range: PageRange) -> bool {
        range.iter().all(|p| self.is_mapped(p))
    }

    /// Current footprint in pages (static + heap + live mmap).
    fn mapped_pages(&self) -> u64;

    /// Current footprint in bytes.
    fn footprint_bytes(&self) -> u64 {
        self.mapped_pages() * PAGE_SIZE
    }

    /// Live mapped ranges in address order.
    fn mapped_ranges(&self) -> Vec<PageRange>;

    /// Grow the heap (`sbrk(+n)`); returns the newly mapped range.
    fn heap_grow(&mut self, pages: u64) -> Result<PageRange, MemError>;

    /// Shrink the heap (`sbrk(-n)`); returns the unmapped range.
    fn heap_shrink(&mut self, pages: u64) -> Result<PageRange, MemError>;

    /// Current heap size in pages.
    fn heap_pages(&self) -> u64;

    /// Map an mmap block; returns the mapping.
    fn mmap(&mut self, pages: u64) -> Result<PageRange, MemError>;

    /// Unmap an mmap block previously returned by [`AddressSpace::mmap`].
    fn munmap(&mut self, range: PageRange) -> Result<(), MemError>;
}

/// Metadata-only address space for large-footprint characterization.
#[derive(Debug, Clone)]
pub struct SparseSpace {
    state: MappingState,
}

impl SparseSpace {
    /// Create a sparse space over `layout` with an empty heap and mmap
    /// area.
    pub fn new(layout: DataLayout) -> Self {
        Self { state: MappingState::new(layout) }
    }
}

impl AddressSpace for SparseSpace {
    fn layout(&self) -> &DataLayout {
        &self.state.layout
    }

    fn is_mapped(&self, page: u64) -> bool {
        self.state.is_mapped(page)
    }

    fn is_range_mapped(&self, range: PageRange) -> bool {
        self.state.is_range_mapped(range)
    }

    fn mapped_pages(&self) -> u64 {
        self.state.mapped_pages()
    }

    fn mapped_ranges(&self) -> Vec<PageRange> {
        self.state.mapped_ranges()
    }

    fn heap_grow(&mut self, pages: u64) -> Result<PageRange, MemError> {
        self.state.heap.grow(pages)
    }

    fn heap_shrink(&mut self, pages: u64) -> Result<PageRange, MemError> {
        self.state.heap.shrink(pages)
    }

    fn heap_pages(&self) -> u64 {
        self.state.heap.size_pages()
    }

    fn mmap(&mut self, pages: u64) -> Result<PageRange, MemError> {
        self.state.mmap.map(pages)
    }

    fn munmap(&mut self, range: PageRange) -> Result<(), MemError> {
        self.state.mmap.unmap(range)
    }
}

/// Read access to page contents (implemented by [`BackedSpace`]; the
/// checkpoint writer is generic over this).
pub trait PageSource {
    /// The page's 4 KiB of content, or `None` if unmapped.
    fn read_page(&self, page: u64) -> Option<&[u8]>;
}

/// Write access to page contents (used by restore).
pub trait PageSink {
    /// Overwrite the content of a mapped page.
    fn write_page_data(&mut self, page: u64, data: &[u8]) -> Result<(), MemError>;
}

/// SplitMix64 finalizer, the deterministic scrambler behind page
/// classing and versioned content streams.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Class salt of [`WriteProfile::Scientific`]: distinct from every fill
/// seed in the tree, and the seed of a partial or silent page's base.
const VERSION_SALT: u64 = 0x5C1E_17F1_C0DE_D00D;

/// How a versioned page touch materializes bytes — the content model
/// backed cluster runs write through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteProfile {
    /// Every touch rewrites the whole page with version-derived bytes:
    /// the dirty-page floor, where content-level dedup can never win.
    #[default]
    Uniform,
    /// Scientific-code mix: per page (classed by a hash of its
    /// address), 3/8 rewrite fully each version, 3/8 update only a few
    /// 256-byte blocks, and 2/8 store the same values back — the dirty
    /// bit fires but the bytes never change. Models the silent-store
    /// and partial-update behaviour that lets effective IB drop below
    /// the dirty-page floor.
    Scientific,
}

/// Address space with real page contents, for checkpoint/restore.
#[derive(Debug, Clone)]
pub struct BackedSpace {
    state: MappingState,
    /// Flat arena: `capacity_pages * PAGE_SIZE` bytes. Unmapped pages
    /// retain stale bytes but are never read (guarded by mapping state).
    arena: Vec<u8>,
    /// Content model for [`BackedSpace::write_versioned`].
    profile: WriteProfile,
    /// The pages whose bytes are exactly what
    /// `write_versioned(page, version[page])` wrote under `profile`.
    /// Every other write into the arena clears the pages it covers.
    versioned: DirtyBitmap,
    /// Per capacity page, the version it was last written at by
    /// [`BackedSpace::write_versioned`]; meaningful only where
    /// `versioned` is set, so every `u64` stays a valid version.
    version: Vec<u64>,
}

impl BackedSpace {
    /// Create a backed space; allocates the whole arena up front, so use
    /// layouts sized to the experiment (correctness tests run at tens of
    /// megabytes, not the paper's full gigabyte).
    pub fn new(layout: DataLayout) -> Self {
        let bytes = layout.capacity_bytes() as usize;
        let pages = layout.capacity_pages();
        Self {
            state: MappingState::new(layout),
            arena: vec![0u8; bytes],
            profile: WriteProfile::default(),
            versioned: DirtyBitmap::new(pages),
            version: vec![0; pages as usize],
        }
    }

    /// Select the content model for versioned touches. Forgets every
    /// page's version: the bytes it names were the old profile's.
    pub fn set_write_profile(&mut self, profile: WriteProfile) {
        self.profile = profile;
        self.versioned.clear_all();
    }

    /// Write `data` at `offset` bytes within a mapped page.
    pub(crate) fn write_bytes(
        &mut self,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), MemError> {
        if !self.state.is_mapped(page) {
            return Err(MemError::Unmapped { page });
        }
        assert!(offset + data.len() <= PAGE_SIZE as usize, "write crosses page boundary");
        self.versioned.clear(page);
        let base = (page * PAGE_SIZE) as usize + offset;
        self.arena[base..base + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Fill an entire mapped page with deterministic content derived
    /// from `seed` (used by workload models to make runs replayable).
    pub fn fill_page(&mut self, page: u64, seed: u64) -> Result<(), MemError> {
        if !self.state.is_mapped(page) {
            return Err(MemError::Unmapped { page });
        }
        self.versioned.clear(page);
        self.fill(page, seed);
        Ok(())
    }

    /// The bytes of [`BackedSpace::fill_page`], unchecked.
    ///
    /// Word `i` carries `mix(x0 + (i+1)·γ)` — a SplitMix64 stream,
    /// but since each word depends only on its index the four-lane
    /// unroll below computes the *identical* bytes while breaking the
    /// multiply dependency chain. Every full rewrite of
    /// [`BackedSpace::write_versioned`] runs this loop.
    fn fill(&mut self, page: u64, seed: u64) {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        #[inline(always)]
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let base = (page * PAGE_SIZE) as usize;
        let x0 = seed ^ page.wrapping_mul(GAMMA);
        let mut x = x0.wrapping_add(GAMMA);
        for chunk in self.arena[base..base + PAGE_SIZE as usize].chunks_exact_mut(32) {
            let (z0, z1, z2, z3) = (
                mix(x),
                mix(x.wrapping_add(GAMMA)),
                mix(x.wrapping_add(GAMMA.wrapping_mul(2))),
                mix(x.wrapping_add(GAMMA.wrapping_mul(3))),
            );
            chunk[0..8].copy_from_slice(&z0.to_le_bytes());
            chunk[8..16].copy_from_slice(&z1.to_le_bytes());
            chunk[16..24].copy_from_slice(&z2.to_le_bytes());
            chunk[24..32].copy_from_slice(&z3.to_le_bytes());
            x = x.wrapping_add(GAMMA.wrapping_mul(4));
        }
    }

    /// Write a mapped page at logical write `version`, materializing
    /// bytes per the active [`WriteProfile`].
    ///
    /// The resulting content is a pure function of `(page, version,
    /// profile)` — a recovered run replaying the same versions rewrites
    /// byte-identical data, which the rollback determinism tests rely
    /// on. Under [`WriteProfile::Scientific`] the page's class (full /
    /// partial / silent) and its changed-block positions depend only on
    /// the page address, so a given page behaves consistently across
    /// versions the way a fixed variable does in a real code.
    ///
    /// Because the content is that pure function, the space remembers
    /// the version each page was last written at here and writes only
    /// what differs: nothing when the page already holds `version`;
    /// under `Scientific`, only the version blocks of a partial page
    /// and nothing of a silent page that holds any version. Every other
    /// write into the arena (`fill_page`, [`PageSink`], heap growth and
    /// `mmap`, [`BackedSpace::zero_mapped_outside`],
    /// [`BackedSpace::page_spans_mut`], a profile switch) makes its
    /// pages forget their version, so the bytes always equal a full
    /// rewrite's.
    pub fn write_versioned(&mut self, page: u64, version: u64) -> Result<(), MemError> {
        if !self.state.is_mapped(page) {
            return Err(MemError::Unmapped { page });
        }
        let held = self.versioned.get(page).then(|| self.version[page as usize]);
        if held == Some(version) {
            return Ok(());
        }
        match self.profile {
            WriteProfile::Uniform => self.fill(page, version),
            WriteProfile::Scientific => match mix64(page ^ VERSION_SALT) % 8 {
                0..=2 => self.fill(page, version),
                // Stable base plus a few version-dependent blocks: the
                // sub-page delta case. A page holding any version holds
                // the base, and its blocks sit where this version's go.
                3..=5 => {
                    if held.is_none() {
                        self.fill(page, VERSION_SALT);
                    }
                    self.write_version_blocks(page, version);
                }
                // Silent store: same bytes every version.
                _ => {
                    if held.is_none() {
                        self.fill(page, VERSION_SALT);
                    }
                }
            },
        }
        self.versioned.set(page);
        self.version[page as usize] = version;
        Ok(())
    }

    /// The 1–4 version-dependent 256-byte blocks of a Scientific
    /// partial-write page; their positions depend on the page alone.
    fn write_version_blocks(&mut self, page: u64, version: u64) {
        let blocks = 1 + mix64(page ^ VERSION_SALT.rotate_left(17)) % 4;
        for i in 0..blocks {
            let b = (mix64(page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i) % 16) as usize;
            let base = (page * PAGE_SIZE) as usize + b * 256;
            let mut x = mix64(page ^ version.wrapping_mul(VERSION_SALT) ^ i);
            for word in self.arena[base..base + 256].chunks_exact_mut(8) {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                word.copy_from_slice(&mix64(x).to_le_bytes());
            }
        }
    }

    /// A content digest of all mapped pages and the mapping structure,
    /// for end-to-end equality checks in recovery paths.
    ///
    /// Fault-tolerant runs compute this at every capture (the chunk's
    /// app-state blob carries it) and every restore (the self-check),
    /// so it must run at memory speed: every input here is a multiple
    /// of 8 bytes (4096-byte pages, 8-byte headers), so the digest
    /// mixes 64-bit words into four independent multiply-xor lanes —
    /// the lanes break the sequential multiply dependency chain that
    /// made the previous byte-at-a-time FNV-1a the dominant cost of
    /// the availability/ablation experiments. Runs compare digests
    /// with digests of the same build; one unit test pins the digest
    /// of a fixed Scientific write script to a literal.
    pub fn content_digest(&self) -> u64 {
        const M: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0x2545_F491_4F6C_DD1D,
        ];
        let mut lane: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0x8422_2325_cbf2_9ce4,
            0x6C62_272E_07BB_0142,
            0x07BB_0142_6C62_272E,
        ];
        let mut mix_words = |bytes: &[u8]| {
            debug_assert_eq!(bytes.len() % 8, 0, "digest inputs are word-aligned");
            let mut quads = bytes.chunks_exact(32);
            for quad in quads.by_ref() {
                for (i, w) in quad.chunks_exact(8).enumerate() {
                    let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                    lane[i] = (lane[i] ^ w).wrapping_mul(M[i]);
                }
            }
            for (i, w) in quads.remainder().chunks_exact(8).enumerate() {
                let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                lane[i] = (lane[i] ^ w).wrapping_mul(M[i]);
            }
        };
        for range in self.state.mapped_ranges() {
            mix_words(&range.start.to_le_bytes());
            mix_words(&range.len.to_le_bytes());
            let base = (range.start * PAGE_SIZE) as usize;
            let end = (range.end() * PAGE_SIZE) as usize;
            mix_words(&self.arena[base..end]);
        }
        // SplitMix-style finalization of the combined lanes.
        let mut z = lane[0]
            .wrapping_add(lane[1].rotate_left(16))
            .wrapping_add(lane[2].rotate_left(32))
            .wrapping_add(lane[3].rotate_left(48));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Rebuild mapping state from a checkpoint manifest: heap size plus
    /// the exact set of live mmap blocks. Page contents are *not*
    /// touched: the mapped pages keep whatever bytes the arena held, and
    /// the caller restores them — written through [`PageSink`] or
    /// [`BackedSpace::page_spans_mut`], zeroed by
    /// [`BackedSpace::zero_mapped_outside`] — before anything reads them.
    pub fn restore_mapping_state(
        &mut self,
        heap_pages: u64,
        mmap_live: &[PageRange],
    ) -> Result<(), MemError> {
        let layout = self.state.layout;
        self.state = MappingState::new(layout);
        self.state.heap.grow(heap_pages)?;
        // Re-map every live block at its exact recorded position
        // (MAP_FIXED), reproducing the checkpointed layout holes and
        // all — Sage's churn leaves a fragmented arena.
        for want in mmap_live {
            self.state.mmap.map_fixed(*want)?;
        }
        Ok(())
    }

    /// Zero every mapped page outside `covered`, a sequence of disjoint
    /// page spans in ascending order (a restore plan's segments: the
    /// pages about to be written anyway). One merge walk over the
    /// mapped ranges; with nothing covered it zeroes the whole mapping.
    pub fn zero_mapped_outside(&mut self, covered: impl IntoIterator<Item = PageRange>) {
        let mut covered = covered.into_iter().peekable();
        // Pages below this are covered or already zeroed; a covered
        // span may run across two adjacent mapped ranges.
        let mut done_to = 0;
        for range in self.state.mapped_ranges() {
            let mut cursor = range.start.max(done_to);
            while let Some(span) = covered.next_if(|span| span.start < range.end()) {
                if span.start > cursor {
                    self.zero_range(PageRange::new(cursor, span.start - cursor));
                }
                cursor = cursor.max(span.end());
            }
            if cursor < range.end() {
                self.zero_range(PageRange::new(cursor, range.end() - cursor));
            }
            done_to = cursor;
        }
    }

    /// Direct read-only view of the whole arena (benchmarks only).
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Disjoint mutable views of the arena, one per span of `spans`, in
    /// order, so restore workers can fill them from several threads.
    /// The spans must ascend without overlapping and lie inside the
    /// arena; anything else panics. Like [`BackedSpace::arena`], the
    /// views bypass the mapping check of [`PageSink`]: a restore plan is
    /// built against the restored mapping state, so every planned page
    /// is mapped by construction.
    pub fn page_spans_mut(&mut self, spans: &[PageRange]) -> Vec<&mut [u8]> {
        let page = PAGE_SIZE as usize;
        let mut views = Vec::with_capacity(spans.len());
        // The arena from page `rest_start` on, not yet handed out.
        let mut rest: &mut [u8] = &mut self.arena;
        let mut rest_start = 0;
        for span in spans {
            assert!(
                span.start >= rest_start,
                "page span {span:?} overlaps or precedes the span before it"
            );
            let skip = (span.start - rest_start) as usize * page;
            let len = span.len as usize * page;
            assert!(skip + len <= rest.len(), "page span {span:?} runs past the arena");
            self.versioned.clear_range(*span);
            let (view, tail) = std::mem::take(&mut rest)[skip..].split_at_mut(len);
            views.push(view);
            rest = tail;
            rest_start = span.end();
        }
        views
    }
}

impl BackedSpace {
    /// Zero the arena bytes of `range` — freshly mapped pages read as
    /// zeros, exactly like anonymous `mmap`/`brk` memory on Linux.
    /// This matters for recovery determinism: a page that is mapped
    /// but never written must have the same (zero) content in the
    /// original run and after a restore.
    fn zero_range(&mut self, range: PageRange) {
        self.versioned.clear_range(range);
        let base = (range.start * PAGE_SIZE) as usize;
        let end = (range.end() * PAGE_SIZE) as usize;
        // Page-granular skip-if-already-zero through the word-scan
        // zero kernel: a freshly grown arena (and any remapped page
        // that was never dirtied) already reads as zeros, so the
        // common case is a read-only sweep instead of a guaranteed
        // write sweep; a nonzero page bails on its first nonzero 64
        // bytes and is memset as before. Byte-identical outcome either
        // way.
        for page in self.arena[base..end].chunks_exact_mut(PAGE_SIZE as usize) {
            if !ickpt_storage::kernels::is_zero(page) {
                page.fill(0);
            }
        }
    }
}

impl AddressSpace for BackedSpace {
    fn layout(&self) -> &DataLayout {
        &self.state.layout
    }

    fn is_mapped(&self, page: u64) -> bool {
        self.state.is_mapped(page)
    }

    fn is_range_mapped(&self, range: PageRange) -> bool {
        self.state.is_range_mapped(range)
    }

    fn mapped_pages(&self) -> u64 {
        self.state.mapped_pages()
    }

    fn mapped_ranges(&self) -> Vec<PageRange> {
        self.state.mapped_ranges()
    }

    fn heap_grow(&mut self, pages: u64) -> Result<PageRange, MemError> {
        let r = self.state.heap.grow(pages)?;
        self.zero_range(r);
        Ok(r)
    }

    fn heap_shrink(&mut self, pages: u64) -> Result<PageRange, MemError> {
        self.state.heap.shrink(pages)
    }

    fn heap_pages(&self) -> u64 {
        self.state.heap.size_pages()
    }

    fn mmap(&mut self, pages: u64) -> Result<PageRange, MemError> {
        let r = self.state.mmap.map(pages)?;
        self.zero_range(r);
        Ok(r)
    }

    fn munmap(&mut self, range: PageRange) -> Result<(), MemError> {
        self.state.mmap.unmap(range)
    }
}

impl PageSource for BackedSpace {
    fn read_page(&self, page: u64) -> Option<&[u8]> {
        if !self.state.is_mapped(page) {
            return None;
        }
        let base = (page * PAGE_SIZE) as usize;
        Some(&self.arena[base..base + PAGE_SIZE as usize])
    }
}

impl PageSink for BackedSpace {
    fn write_page_data(&mut self, page: u64, data: &[u8]) -> Result<(), MemError> {
        assert_eq!(data.len(), PAGE_SIZE as usize, "write_page_data takes whole pages");
        self.write_bytes(page, 0, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;

    fn small_layout() -> DataLayout {
        LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(16 * PAGE_SIZE)
            .mmap_capacity_bytes(16 * PAGE_SIZE)
            .build()
    }

    #[test]
    fn range_query_matches_the_per_page_definition() {
        fn check(mut s: impl AddressSpace) {
            s.heap_grow(8).unwrap();
            let _a = s.mmap(3).unwrap();
            let hole = s.mmap(2).unwrap();
            let _b = s.mmap(4).unwrap();
            s.munmap(hole).unwrap();
            let pages = s.layout().capacity_pages() + 2;
            for start in 0..pages {
                for len in 0..pages - start {
                    let r = PageRange::new(start, len);
                    let per_page = r.iter().all(|p| s.is_mapped(p));
                    assert_eq!(s.is_range_mapped(r), per_page, "{r:?}");
                }
            }
        }
        check(SparseSpace::new(small_layout()));
        check(BackedSpace::new(small_layout()));
    }

    #[test]
    fn sparse_footprint_tracks_mappings() {
        let mut s = SparseSpace::new(small_layout());
        assert_eq!(s.mapped_pages(), 4, "static data always mapped");
        s.heap_grow(8).unwrap();
        let m = s.mmap(5).unwrap();
        assert_eq!(s.mapped_pages(), 17);
        s.munmap(m).unwrap();
        s.heap_shrink(3).unwrap();
        assert_eq!(s.mapped_pages(), 9);
    }

    #[test]
    fn mapped_ranges_are_disjoint_and_cover_footprint() {
        let mut s = SparseSpace::new(small_layout());
        s.heap_grow(2).unwrap();
        s.mmap(3).unwrap();
        s.mmap(1).unwrap();
        let ranges = s.mapped_ranges();
        let total: u64 = ranges.iter().map(|r| r.len).sum();
        assert_eq!(total, s.mapped_pages());
        for w in ranges.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
    }

    #[test]
    fn backed_write_requires_mapping() {
        let mut b = BackedSpace::new(small_layout());
        // Page 4 is the first heap page: unmapped until the heap grows.
        assert!(b.write_bytes(4, 0, &[1, 2, 3]).is_err());
        b.heap_grow(1).unwrap();
        b.write_bytes(4, 0, &[1, 2, 3]).unwrap();
        assert_eq!(&b.read_page(4).unwrap()[..3], &[1, 2, 3]);
    }

    #[test]
    fn read_unmapped_is_none() {
        let b = BackedSpace::new(small_layout());
        assert!(b.read_page(4).is_none());
        assert!(b.read_page(0).is_some());
    }

    #[test]
    fn fill_page_matches_scalar_reference() {
        // The four-lane fill must reproduce the original sequential
        // SplitMix64 stream byte for byte.
        let mut b = BackedSpace::new(small_layout());
        b.fill_page(1, 0xABCD_1234).unwrap();
        let got = b.read_page(1).unwrap().to_vec();
        let mut x = 0xABCD_1234u64 ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (i, chunk) in got.chunks_exact(8).enumerate() {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            assert_eq!(chunk, z.to_le_bytes(), "word {i}");
        }
    }

    #[test]
    fn fill_page_is_deterministic() {
        let mut a = BackedSpace::new(small_layout());
        let mut b = BackedSpace::new(small_layout());
        a.fill_page(0, 42).unwrap();
        b.fill_page(0, 42).unwrap();
        assert_eq!(a.read_page(0), b.read_page(0));
        b.fill_page(0, 43).unwrap();
        assert_ne!(a.read_page(0), b.read_page(0));
    }

    #[test]
    fn scientific_profile_mixes_silent_partial_and_full_writes() {
        let mut s = BackedSpace::new(small_layout());
        s.set_write_profile(WriteProfile::Scientific);
        s.heap_grow(16).unwrap();
        let pages = s.mapped_pages();
        let (mut silent, mut partial, mut full) = (0u64, 0u64, 0u64);
        for p in 0..pages {
            s.write_versioned(p, 1).unwrap();
            let v1 = s.read_page(p).unwrap().to_vec();
            s.write_versioned(p, 2).unwrap();
            let v2 = s.read_page(p).unwrap().to_vec();
            let changed =
                v1.chunks_exact(256).zip(v2.chunks_exact(256)).filter(|(a, b)| a != b).count();
            match changed {
                0 => silent += 1,
                1..=4 => partial += 1,
                _ => full += 1,
            }
            // Replaying version 2 must reproduce version 2 exactly
            // (rollback determinism).
            s.write_versioned(p, 2).unwrap();
            assert_eq!(s.read_page(p).unwrap(), v2.as_slice(), "page {p} replay");
        }
        assert!(silent > 0, "no silent-store pages in {pages}");
        assert!(partial > 0, "no partial-update pages in {pages}");
        assert!(full > 0, "no full-rewrite pages in {pages}");
    }

    #[test]
    fn uniform_profile_is_fill_page() {
        let mut a = BackedSpace::new(small_layout());
        let mut b = BackedSpace::new(small_layout());
        a.write_versioned(0, 7).unwrap();
        b.fill_page(0, 7).unwrap();
        assert_eq!(a.read_page(0), b.read_page(0));
    }

    #[test]
    fn digest_reflects_content_and_mapping() {
        let mut a = BackedSpace::new(small_layout());
        let d0 = a.content_digest();
        a.fill_page(1, 7).unwrap();
        let d1 = a.content_digest();
        assert_ne!(d0, d1);
        a.heap_grow(1).unwrap();
        assert_ne!(d1, a.content_digest(), "mapping change alters digest");
    }

    #[test]
    fn restore_mapping_state_roundtrip() {
        let mut b = BackedSpace::new(small_layout());
        b.heap_grow(5).unwrap();
        let m1 = b.mmap(4).unwrap();
        let _m2 = b.mmap(2).unwrap();
        let ranges = b.mapped_ranges();
        let heap = b.heap_pages();
        let live: Vec<PageRange> =
            ranges.iter().copied().filter(|r| b.layout().mmap.contains(r.start)).collect();

        let mut fresh = BackedSpace::new(small_layout());
        fresh.restore_mapping_state(heap, &live).unwrap();
        assert_eq!(fresh.mapped_ranges(), b.mapped_ranges());
        assert!(fresh.is_mapped(m1.start));
    }

    #[test]
    fn restore_mapping_state_leaves_bytes_and_zero_mapped_outside_fills_the_rest() {
        // Pages 0..4 static, heap from 4, mmap from 20. Scribble all.
        let mut b = BackedSpace::new(small_layout());
        b.heap_grow(16).unwrap();
        b.mmap(16).unwrap();
        for p in 0..36 {
            b.fill_page(p, 500 + p).unwrap();
        }
        let scribble = b.clone();
        b.restore_mapping_state(8, &[PageRange::new(22, 3), PageRange::new(30, 2)]).unwrap();
        assert_eq!(b.arena(), scribble.arena(), "remapping touches no page content");

        // Covered spans: one across the static/heap seam (2..6), one
        // inside the heap (9..10), the whole first mmap block, nothing
        // of the second. Span 40.. lies beyond every mapped range.
        let covered = [(2, 4), (9, 1), (22, 3), (40, 2)].map(|(s, l)| PageRange::new(s, l));
        b.zero_mapped_outside(covered);
        let zeroed = |p: u64| {
            b.arena()[(p * PAGE_SIZE) as usize..][..PAGE_SIZE as usize].iter().all(|&x| x == 0)
        };
        let kept = |p: u64| {
            let at = (p * PAGE_SIZE) as usize..((p + 1) * PAGE_SIZE) as usize;
            b.arena()[at.clone()] == scribble.arena()[at]
        };
        for p in 0..36 {
            let mapped = b.is_mapped(p);
            let is_covered = covered.iter().any(|r| r.contains(p));
            if mapped && !is_covered {
                assert!(zeroed(p), "uncovered mapped page {p} must read as zeros");
            } else {
                assert!(kept(p), "page {p} (mapped {mapped}, covered {is_covered}) is not ours");
            }
        }
        // Nothing covered: the whole mapping reads as zeros.
        b.zero_mapped_outside([]);
        assert_eq!(b.content_digest(), {
            let mut fresh = BackedSpace::new(small_layout());
            fresh
                .restore_mapping_state(8, &[PageRange::new(22, 3), PageRange::new(30, 2)])
                .unwrap();
            fresh.content_digest()
        });
    }

    #[test]
    fn write_page_data_roundtrip() {
        let mut b = BackedSpace::new(small_layout());
        let page = vec![0xAB; PAGE_SIZE as usize];
        b.write_page_data(0, &page).unwrap();
        assert_eq!(b.read_page(0).unwrap(), page.as_slice());
    }

    #[test]
    fn page_spans_fill_disjoint_spans_from_threads() {
        let mut b = BackedSpace::new(small_layout());
        b.heap_grow(8).unwrap();
        for p in 4..12 {
            b.fill_page(p, 99).unwrap(); // stale content to overwrite
        }
        let spans = [PageRange::new(4, 2), PageRange::new(6, 1), PageRange::new(9, 3)];
        let views = b.page_spans_mut(&spans);
        assert_eq!(
            views.iter().map(|v| v.len()).collect::<Vec<_>>(),
            [2, 1, 3].map(|n| n * PAGE_SIZE as usize)
        );
        std::thread::scope(|scope| {
            for (view, fill) in views.into_iter().zip([0x11u8, 0x22, 0]) {
                scope.spawn(move || view.fill(fill));
            }
        });
        for (p, want) in [(4, 0x11), (5, 0x11), (6, 0x22), (9, 0), (10, 0), (11, 0)] {
            assert!(b.read_page(p).unwrap().iter().all(|&x| x == want), "page {p}");
        }
        // The gap between spans keeps its stale bytes.
        for p in 7..9 {
            assert!(b.read_page(p).unwrap().iter().any(|&x| x != 0), "page {p}");
        }
    }

    #[test]
    #[should_panic(expected = "runs past the arena")]
    fn page_spans_past_the_arena_panic() {
        let mut b = BackedSpace::new(small_layout());
        b.page_spans_mut(&[PageRange::new(1_000_000, 1)]);
    }

    #[test]
    #[should_panic(expected = "overlaps or precedes")]
    fn page_spans_that_overlap_panic() {
        let mut b = BackedSpace::new(small_layout());
        b.page_spans_mut(&[PageRange::new(0, 4), PageRange::new(3, 2)]);
    }

    #[test]
    #[should_panic(expected = "overlaps or precedes")]
    fn page_spans_that_descend_panic() {
        let mut b = BackedSpace::new(small_layout());
        b.page_spans_mut(&[PageRange::new(6, 1), PageRange::new(2, 1)]);
    }

    impl BackedSpace {
        /// `write_versioned` without the version memo: every touch
        /// rewrites the page in full. The reference the memo is checked
        /// against.
        fn write_versioned_reference(&mut self, page: u64, version: u64) -> Result<(), MemError> {
            const SALT: u64 = VERSION_SALT;
            match self.profile {
                WriteProfile::Uniform => self.fill_page(page, version),
                WriteProfile::Scientific => match mix64(page ^ SALT) % 8 {
                    0..=2 => self.fill_page(page, version),
                    3..=5 => {
                        self.fill_page(page, SALT)?;
                        let blocks = 1 + mix64(page ^ SALT.rotate_left(17)) % 4;
                        for i in 0..blocks {
                            let b =
                                (mix64(page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i) % 16) as usize;
                            let base = (page * PAGE_SIZE) as usize + b * 256;
                            let mut x = mix64(page ^ version.wrapping_mul(SALT) ^ i);
                            for word in self.arena[base..base + 256].chunks_exact_mut(8) {
                                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                                word.copy_from_slice(&mix64(x).to_le_bytes());
                            }
                        }
                        Ok(())
                    }
                    _ => self.fill_page(page, SALT),
                },
            }
        }
    }

    /// Ascending disjoint spans inside `0..pages`, up to three.
    fn random_spans(rng: &mut crate::prop::Rng, pages: u64) -> Vec<PageRange> {
        let mut spans = Vec::new();
        let mut at = rng.below(pages / 2);
        for _ in 0..1 + rng.below(3) {
            if at >= pages {
                break;
            }
            let len = rng.range(1, 6).min(pages - at);
            spans.push(PageRange::new(at, len));
            at += len + rng.below(6);
        }
        spans
    }

    fn random_page(rng: &mut crate::prop::Rng) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE as usize];
        let seed = rng.next();
        for (i, word) in page.chunks_exact_mut(8).enumerate() {
            word.copy_from_slice(&mix64(seed ^ i as u64).to_le_bytes());
        }
        page
    }

    /// Both spaces map the same pages, and every mapped byte agrees.
    fn assert_same_mapped_bytes(memo: &BackedSpace, reference: &BackedSpace, ctx: &str) {
        assert_eq!(memo.mapped_ranges(), reference.mapped_ranges(), "{ctx}: mappings");
        for range in memo.mapped_ranges() {
            for p in range.start..range.end() {
                assert!(memo.read_page(p) == reference.read_page(p), "{ctx}: page {p} differs");
            }
        }
    }

    /// The version memo is invisible: seeded random sequences of every
    /// operation that writes the arena leave the memoized space and the
    /// always-write reference with the same mapped bytes after every
    /// step. Versions come from a set of four, `0` and `u64::MAX`
    /// included, so repeated touches are common.
    #[test]
    fn version_memo_matches_always_write_reference() {
        const VERSIONS: [u64; 4] = [0, 1, 2, u64::MAX];
        for case in 0..48u64 {
            let mut rng = crate::prop::Rng::new(0x3E30_C0DE ^ case);
            let mut memo = BackedSpace::new(small_layout());
            let pages = memo.layout().capacity_pages();
            let mut reference = memo.clone();
            let mut live: Vec<PageRange> = Vec::new();
            for step in 0..250 {
                let ctx = format!("case {case} step {step}");
                match rng.below(20) {
                    0..=7 => {
                        // Mostly mapped pages, some beyond the mapping.
                        let page = rng.below(pages);
                        let version = VERSIONS[rng.below(4) as usize];
                        assert_eq!(
                            memo.write_versioned(page, version),
                            reference.write_versioned_reference(page, version),
                            "{ctx}: write_versioned({page}, {version})"
                        );
                    }
                    8 => {
                        let (page, seed) = (rng.below(pages), VERSIONS[rng.below(4) as usize]);
                        assert_eq!(memo.fill_page(page, seed), reference.fill_page(page, seed));
                    }
                    9 => {
                        let (page, data) = (rng.below(pages), random_page(&mut rng));
                        assert_eq!(
                            memo.write_page_data(page, &data),
                            reference.write_page_data(page, &data)
                        );
                    }
                    10 | 11 => {
                        // A restore writing through the parallel views.
                        let spans = random_spans(&mut rng, pages);
                        let data: Vec<Vec<u8>> = spans
                            .iter()
                            .flat_map(|s| 0..s.len)
                            .map(|_| random_page(&mut rng))
                            .collect();
                        for space in [&mut memo, &mut reference] {
                            let views = space.page_spans_mut(&spans);
                            let mut pages_in = data.iter();
                            for view in views {
                                for dst in view.chunks_exact_mut(PAGE_SIZE as usize) {
                                    dst.copy_from_slice(pages_in.next().unwrap());
                                }
                            }
                        }
                    }
                    12 => {
                        let n = rng.range(1, 8);
                        assert_eq!(memo.heap_grow(n), reference.heap_grow(n));
                    }
                    13 => {
                        let n = rng.range(1, 8);
                        assert_eq!(memo.heap_shrink(n), reference.heap_shrink(n));
                    }
                    14 => {
                        let n = rng.range(1, 6);
                        let got = memo.mmap(n);
                        assert_eq!(got, reference.mmap(n));
                        live.extend(got);
                    }
                    15 if !live.is_empty() => {
                        let r = live.swap_remove(rng.below(live.len() as u64) as usize);
                        assert_eq!(memo.munmap(r), reference.munmap(r));
                    }
                    16 => {
                        // Restore a mapping (a subset of today's blocks,
                        // any heap size), then zero what no segment covers.
                        live.retain(|_| rng.below(2) == 0);
                        live.sort_by_key(|r| r.start);
                        let heap = rng.below(17);
                        let covered = random_spans(&mut rng, pages);
                        for space in [&mut memo, &mut reference] {
                            space.restore_mapping_state(heap, &live).unwrap();
                            space.zero_mapped_outside(covered.iter().copied());
                        }
                    }
                    17 => {
                        let profile = if rng.below(2) == 0 {
                            WriteProfile::Uniform
                        } else {
                            WriteProfile::Scientific
                        };
                        memo.set_write_profile(profile);
                        reference.set_write_profile(profile);
                    }
                    18 => {
                        memo = memo.clone();
                        reference = reference.clone();
                    }
                    _ => {}
                }
                assert_same_mapped_bytes(&memo, &reference, &ctx);
            }
        }
    }

    /// Pins the content model to a literal: a fixed script of repeated
    /// and new versions, a `fill_page`, a restore through
    /// `page_spans_mut` and a heap shrink and regrow on a small
    /// Scientific space. A changed byte anywhere in the model, the memo
    /// or the digest fails here on any host.
    #[test]
    fn scientific_write_script_digest_is_pinned() {
        let mut s = BackedSpace::new(small_layout());
        s.set_write_profile(WriteProfile::Scientific);
        s.heap_grow(12).unwrap();
        for version in [1, 1, 2] {
            for p in 0..16 {
                s.write_versioned(p, version).unwrap();
            }
        }
        let checkpoint = s.clone();
        for p in (0..16).step_by(3) {
            s.write_versioned(p, 3).unwrap();
        }
        s.fill_page(4, 77).unwrap();
        s.write_versioned(7, u64::MAX).unwrap();
        // Roll pages 5..9 back to the checkpoint, then replay two.
        let spans = [PageRange::new(5, 4)];
        let at = (5 * PAGE_SIZE) as usize..(9 * PAGE_SIZE) as usize;
        s.page_spans_mut(&spans)[0].copy_from_slice(&checkpoint.arena()[at]);
        s.write_versioned(6, 3).unwrap();
        s.write_versioned(8, 2).unwrap();
        s.heap_shrink(5).unwrap();
        s.heap_grow(3).unwrap();
        for p in 9..14 {
            s.write_versioned(p, 2).unwrap();
        }
        assert_eq!(s.content_digest(), 0x7968_e3f1_a91e_10c7);
    }
}
