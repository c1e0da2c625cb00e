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
}

impl BackedSpace {
    /// Create a backed space; allocates the whole arena up front, so use
    /// layouts sized to the experiment (correctness tests run at tens of
    /// megabytes, not the paper's full gigabyte).
    pub fn new(layout: DataLayout) -> Self {
        let bytes = layout.capacity_bytes() as usize;
        Self {
            state: MappingState::new(layout),
            arena: vec![0u8; bytes],
            profile: WriteProfile::default(),
        }
    }

    /// Select the content model for versioned touches.
    pub fn set_write_profile(&mut self, profile: WriteProfile) {
        self.profile = profile;
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
        let base = (page * PAGE_SIZE) as usize + offset;
        self.arena[base..base + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Fill an entire mapped page with deterministic content derived
    /// from `seed` (used by workload models to make runs replayable).
    ///
    /// Word `i` carries `mix(x0 + (i+1)·γ)` — a SplitMix64 stream,
    /// but since each word depends only on its index the four-lane
    /// unroll below computes the *identical* bytes while breaking the
    /// multiply dependency chain (this fill runs on every simulated
    /// page write, making it the hottest loop of the fault-tolerant
    /// experiments).
    pub fn fill_page(&mut self, page: u64, seed: u64) -> Result<(), MemError> {
        if !self.state.is_mapped(page) {
            return Err(MemError::Unmapped { page });
        }
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
        Ok(())
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
    pub fn write_versioned(&mut self, page: u64, version: u64) -> Result<(), MemError> {
        /// Class salt: distinct from every fill seed in the tree.
        const SALT: u64 = 0x5C1E_17F1_C0DE_D00D;
        match self.profile {
            WriteProfile::Uniform => self.fill_page(page, version),
            WriteProfile::Scientific => match mix64(page ^ SALT) % 8 {
                0..=2 => self.fill_page(page, version),
                3..=5 => {
                    // Stable base plus a few version-dependent blocks:
                    // the sub-page delta case.
                    self.fill_page(page, SALT)?;
                    let blocks = 1 + mix64(page ^ SALT.rotate_left(17)) % 4;
                    for i in 0..blocks {
                        let b = (mix64(page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i) % 16) as usize;
                        let base = (page * PAGE_SIZE) as usize + b * 256;
                        let mut x = mix64(page ^ version.wrapping_mul(SALT) ^ i);
                        for word in self.arena[base..base + 256].chunks_exact_mut(8) {
                            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            word.copy_from_slice(&mix64(x).to_le_bytes());
                        }
                    }
                    Ok(())
                }
                // Silent store: same bytes every version.
                _ => self.fill_page(page, SALT),
            },
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
    /// the availability/ablation experiments. Digests are only ever
    /// compared against other digests from the same build, never
    /// persisted as golden values.
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
}
