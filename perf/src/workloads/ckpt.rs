//! `ckpt_chain` and `ckpt_content`: one rank's checkpoint data path,
//! driven call by call — capture, encode, store, restore, merge.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ickpt::core::checkpoint::{
    capture_full_with, capture_incremental_with, CaptureConfig, CaptureScratch, ContentStats,
};
use ickpt::core::restore::{restore_rank_with, RestoreConfig};
use ickpt::mem::{AddressSpace, BackedSpace, LayoutBuilder, PageRange, WriteProfile, PAGE_SIZE};
use ickpt::sim::{SimTime, SplitMix64};
use ickpt::storage::crc::crc32;
use ickpt::storage::{
    gc, kernels, Chunk, ChunkKey, ChunkView, FileStore, Manifest, MemStore, RankEntry, RestorePlan,
    StableStorage, BLOCKS_PER_PAGE,
};

use super::{Checks, Layers, Params, PassOut, Workload};
use crate::hostenv;
use crate::spans::{Tracer, ROOT};
use crate::stats;

/// How dirtied pages get their bytes, and whether capture looks at them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// `fill_page` under the Uniform profile, dedup off: copy-bound.
    Chain,
    /// `write_versioned` under the Scientific profile, dedup on:
    /// hash-bound, with silent drops and 256 B delta records.
    Scientific,
}

/// Span names whose per-pass totals the layer metrics are read from.
const PHASES: &[&str] = &[
    "mem.fill",
    "capture.full",
    "capture.incr",
    "chunk.encode",
    "store.put",
    "store.put_manifest",
    "restore.rank",
    "store.get",
    "chunk.decode",
    "gc.merge_chain",
];

pub struct Ckpt {
    content: Content,
    seed: u64,
    threads: usize,
    src: BackedSpace,
    dst: BackedSpace,
    /// The window increment `g` rewrites, `g = 1..=increments`.
    windows: Vec<PageRange>,
    capture_cfg: CaptureConfig,
    restore_cfg: RestoreConfig,
    scratch: CaptureScratch,
    /// Logical write version; advances with every increment of every
    /// pass so no increment rewrites the bytes already there.
    version: u64,
    /// The last pass's chain, kept for the layer replays.
    store: MemStore,
    phase_s: BTreeMap<&'static str, Vec<f64>>,
    last: PassCounts,
    ceiling_bytes: usize,
    file_dir: std::path::PathBuf,
}

/// Counts of one pass; every one repeats exactly from pass to pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PassCounts {
    presented_pages: u64,
    zero_pages: u64,
    filled_pages: u64,
    stored_bytes: u64,
    content: ContentStats,
    pages_applied: u64,
    chain_length: usize,
    merged_payload_pages: u64,
}

/// One page in sixteen is never written: it stays zero, so zero-page
/// elision (capture) and zero-fill segments (restore) are exercised.
fn is_hole(page: u64) -> bool {
    page % 16 == 5
}

impl Ckpt {
    pub fn new(p: &Params, content: Content) -> Self {
        let (image_mib, increments) = if p.quick { (8u64, 4usize) } else { (256, 16) };
        let pages = image_mib * (1 << 20) / PAGE_SIZE;
        let layout = LayoutBuilder::new()
            .static_bytes(4 * PAGE_SIZE)
            .heap_capacity_bytes(pages * PAGE_SIZE)
            .mmap_capacity_bytes(4 * PAGE_SIZE)
            .build();
        let mut src = BackedSpace::new(layout);
        src.heap_grow(pages - 4).expect("heap fits the layout built for it");
        let dedup = content == Content::Scientific;
        if dedup {
            src.set_write_profile(WriteProfile::Scientific);
        }
        let heap = src.mapped_ranges()[1];
        let window_pages = heap.len / 8;
        let mut rng = SplitMix64::new(p.seed ^ 0xC4A1_7000);
        let windows = (0..increments)
            .map(|_| PageRange::new(heap.start + rng.next_below(8) * window_pages, window_pages))
            .collect();
        let mut this = Ckpt {
            content,
            seed: p.seed,
            threads: p.threads,
            src,
            // Allocated and touched once: restore resets its mapping
            // and zero-fills it, but first-touch page faults of a new
            // arena are the kernel's time, not the restore path's.
            dst: BackedSpace::new(layout),
            windows,
            capture_cfg: CaptureConfig { workers: p.threads, dedup, ..Default::default() },
            restore_cfg: RestoreConfig::with_workers(p.threads),
            scratch: CaptureScratch::new(),
            version: 0,
            store: MemStore::new(),
            phase_s: BTreeMap::new(),
            last: PassCounts::default(),
            ceiling_bytes: if p.quick { 8 << 20 } else { 512 << 20 },
            file_dir: crate::out_dir().join(format!("filestore-{}", std::process::id())),
        };
        for r in this.src.mapped_ranges() {
            this.dirty(r);
        }
        // One untimed pass: every buffer the data path allocates is
        // grown and touched before anything is timed, and its checks
        // are the reference the timed passes' counts must repeat.
        let mut checks = Checks::default();
        this.pass(&mut Tracer::new(false), &mut checks);
        assert_eq!(checks.failed, 0, "set-up pass failed: {:?}", checks.first_failure);
        this.phase_s.clear();
        this
    }

    /// Write every non-hole page of `range` at the current version.
    fn dirty(&mut self, range: PageRange) -> u64 {
        let tag = self.seed.wrapping_add(self.version);
        let mut filled = 0;
        for page in range.iter().filter(|p| !is_hole(*p)) {
            match self.content {
                Content::Chain => self.src.fill_page(page, tag),
                Content::Scientific => self.src.write_versioned(page, tag),
            }
            .expect("dirtied pages are mapped");
            filled += 1;
        }
        filled
    }

    /// Encode, store and commit one captured generation.
    fn commit(&mut self, chunk: Chunk, tr: &mut Tracer, counts: &mut PassCounts) {
        let key = ChunkKey::new(0, chunk.generation);
        counts.zero_pages += chunk.zero_pages();
        counts.content.merge(self.scratch.last_content());
        let open = tr.begin("chunk.encode");
        let encoded = self.scratch.encode_reusing(&chunk);
        tr.end(open);
        counts.stored_bytes += encoded.len() as u64;
        let open = tr.begin("store.put");
        self.store.put_chunk(key, encoded).expect("MemStore put cannot fail");
        tr.end(open);
        let manifest = Manifest {
            generation: chunk.generation,
            commit_time_ns: 0,
            nranks: 1,
            entries: vec![RankEntry {
                rank: 0,
                kind: chunk.kind,
                parent: chunk.parent,
                payload_bytes: chunk.payload_bytes(),
            }],
        };
        let open = tr.begin("store.put_manifest");
        let encoded = manifest.encode();
        counts.stored_bytes += encoded.len() as u64;
        self.store.put_manifest(chunk.generation, &encoded).expect("MemStore put cannot fail");
        tr.end(open);
        self.scratch.recycle(chunk);
    }

    fn images_equal(&self) -> bool {
        let (a, b) = (&self.src, &self.dst);
        a.mapped_ranges() == b.mapped_ranges()
            && a.mapped_ranges().iter().all(|r| {
                let bytes = (r.start * PAGE_SIZE) as usize..(r.end() * PAGE_SIZE) as usize;
                a.arena()[bytes.clone()] == b.arena()[bytes]
            })
    }

    fn fetch(&self, generation: u64, tr: &mut Tracer) -> Vec<u8> {
        tr.time("store.get", || {
            self.store.get_chunk(ChunkKey::new(0, generation)).expect("chain chunk was stored")
        })
    }

    fn median_phase(&self, name: &str) -> f64 {
        self.phase_s.get(name).map_or(0.0, |v| stats::median(v))
    }
}

impl Workload for Ckpt {
    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("image_mib", ((self.src.mapped_pages() * PAGE_SIZE) >> 20).to_string()),
            ("increments", self.windows.len().to_string()),
            ("window_pages", self.windows[0].len.to_string()),
            ("zero_page_share", "1/16".to_string()),
            ("dedup", self.capture_cfg.dedup.to_string()),
            ("capture_workers", self.capture_cfg.workers.to_string()),
            ("restore_workers", self.restore_cfg.workers.to_string()),
            ("ceiling_array_mib", (self.ceiling_bytes >> 20).to_string()),
        ]
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> PassOut {
        let mut counts = PassCounts::default();
        let increments = self.windows.len() as u64;
        let root = tr.begin(ROOT);
        self.store = MemStore::new();
        let cfg = self.capture_cfg.clone();

        let open = tr.begin("capture.full");
        let base = capture_full_with(&self.src, 0, 0, SimTime::ZERO, &cfg, &mut self.scratch);
        tr.end(open);
        counts.presented_pages += self.src.mapped_pages();
        self.commit(base, tr, &mut counts);
        for g in 1..=increments {
            let window = self.windows[g as usize - 1];
            self.version += 1;
            let open = tr.begin("mem.fill");
            counts.filled_pages += self.dirty(window);
            tr.end(open);
            let open = tr.begin("capture.incr");
            let chunk = capture_incremental_with(
                &self.src,
                0,
                g,
                g - 1,
                SimTime(g),
                &[window],
                &cfg,
                &mut self.scratch,
            );
            tr.end(open);
            counts.presented_pages += window.len;
            self.commit(chunk, tr, &mut counts);
        }

        let open = tr.begin("restore.rank");
        let restored =
            restore_rank_with(&self.store, 0, increments, &mut self.dst, &self.restore_cfg);
        tr.end(open);
        if let Ok(report) = &restored {
            counts.pages_applied = report.pages_applied;
            counts.chain_length = report.chain_length;
        }

        // Compaction: what `gc::compact_rank_chain` does, one call at
        // a time so each layer gets its span. One encoded buffer is
        // alive at a time, to keep the footprint down.
        let chain: Vec<Chunk> = (0..=increments)
            .map(|g| {
                let buffer = self.fetch(g, tr);
                tr.time("chunk.decode", || Chunk::decode(&buffer).expect("stored chunk decodes"))
            })
            .collect();
        let merged = tr.time("gc.merge_chain", || gc::merge_chain(&chain, None));
        drop(chain);
        counts.merged_payload_pages = merged.payload_pages();
        let merged_store = MemStore::new();
        let encoded = tr.time("gc.encode_merged", || merged.encode());
        drop(merged);
        tr.time("gc.put_merged", || {
            merged_store
                .put_chunk(ChunkKey::new(0, increments), &encoded)
                .expect("MemStore put cannot fail")
        });
        drop(encoded);
        let secs = tr.end(root);

        checks.check("restore of the chain succeeds", restored.is_ok());
        checks.check("restored image equals the source byte for byte", self.images_equal());
        let remerged =
            restore_rank_with(&merged_store, 0, increments, &mut self.dst, &self.restore_cfg);
        checks.check("restore of the merged chain succeeds", remerged.is_ok());
        checks.check("merged-chain image equals the source byte for byte", self.images_equal());
        if self.last != PassCounts::default() {
            checks.check("page and byte counts repeat exactly across passes", self.last == counts);
        }
        self.last = counts;
        for &name in PHASES {
            self.phase_s.entry(name).or_default().push(tr.total(name));
        }

        let presented = (counts.presented_pages * PAGE_SIZE) as f64;
        let image = (self.src.mapped_pages() * PAGE_SIZE) as f64;
        let capture_s = tr.total("capture.full") + tr.total("capture.incr");
        let commit_s =
            tr.total("chunk.encode") + tr.total("store.put") + tr.total("store.put_manifest");
        PassOut {
            secs,
            work: (presented + image) / 1e9,
            extra: vec![
                ("capture.gbps", presented / 1e9 / capture_s),
                ("commit.gbps", counts.stored_bytes as f64 / 1e9 / commit_s),
                ("restore.gbps", image / 1e9 / tr.total("restore.rank")),
                ("store.stored_ratio", counts.stored_bytes as f64 / presented),
            ],
        }
    }

    fn digest(&self) -> u64 {
        self.last.stored_bytes
    }

    fn layers(&mut self, _tr: &mut Tracer, out: &mut Layers) {
        let c = self.last;
        let ceiling = hostenv::measure_ceiling(self.ceiling_bytes, 3);
        out.insert("host.copy_gbps", ceiling.copy_gbps);
        out.insert("host.read_gbps", ceiling.read_gbps);

        let fill_s = self.median_phase("mem.fill");
        out.insert("mem.fill_s", fill_s);
        out.insert("mem.fill_gbps", (c.filled_pages * PAGE_SIZE) as f64 / 1e9 / fill_s);

        // Kernels alone, page by page as capture and the codec call
        // them, over arrays far larger than L2.
        let arena = self.src.arena();
        let probe = &arena[..arena.len().min(64 << 20)];
        let gb = probe.len() as f64 / 1e9;
        let t = Instant::now();
        let mut hashes = [0u64; BLOCKS_PER_PAGE];
        let mut acc = 0u64;
        for page in probe.chunks_exact(PAGE_SIZE as usize) {
            acc ^= kernels::fused_scan(black_box(page), &mut hashes).page_hash;
        }
        black_box(acc);
        let fused = gb / t.elapsed().as_secs_f64();
        let zeros = vec![0u8; probe.len()];
        let t = Instant::now();
        let mut all_zero = true;
        for page in zeros.chunks_exact(PAGE_SIZE as usize) {
            all_zero &= kernels::is_zero(black_box(page));
        }
        black_box(all_zero);
        let is_zero = gb / t.elapsed().as_secs_f64();
        drop(zeros);
        let t = Instant::now();
        for piece in probe.chunks(1 << 20) {
            acc ^= u64::from(crc32(black_box(piece)));
        }
        black_box(acc);
        let crc = gb / t.elapsed().as_secs_f64();
        out.insert("kernels.fused_scan_gbps", fused);
        out.insert("kernels.is_zero_gbps", is_zero);
        out.insert("kernels.crc_gbps", crc);
        out.insert("kernels.fused_scan_frac", fused / ceiling.read_gbps);
        out.insert("kernels.is_zero_frac", is_zero / ceiling.read_gbps);
        out.insert("kernels.crc_frac", crc / ceiling.read_gbps);

        let presented = (c.presented_pages * PAGE_SIZE) as f64 / 1e9;
        let image = (self.src.mapped_pages() * PAGE_SIZE) as f64 / 1e9;
        let capture_s = self.median_phase("capture.full") + self.median_phase("capture.incr");
        out.insert("capture.full_s", self.median_phase("capture.full"));
        out.insert("capture.incr_s", self.median_phase("capture.incr"));
        out.insert("capture.pages", c.presented_pages as f64);
        out.insert("capture.zero_pages", c.zero_pages as f64);
        out.insert("capture.frac_of_copy", presented / capture_s / ceiling.copy_gbps);
        out.insert("capture.hashed_pages", c.content.hashed_pages as f64);
        out.insert("capture.dropped_pages", c.content.dropped_pages as f64);
        out.insert("capture.delta_pages", c.content.delta_pages as f64);
        out.insert("capture.delta_blocks", c.content.delta_blocks as f64);

        let encode_s = self.median_phase("chunk.encode");
        out.insert("chunk.encode_s", encode_s);
        out.insert("chunk.encode_gbps", c.stored_bytes as f64 / 1e9 / encode_s);
        out.insert("store.put_s", self.median_phase("store.put"));
        out.insert("store.get_s", self.median_phase("store.get"));
        out.insert("store.bytes", c.stored_bytes as f64);

        // The restore path's stages alone, on the last pass's chain:
        // fetch, verify + index (`ChunkView::decode` checks the CRC),
        // plan.
        let mut quiet = Tracer::new(false);
        let buffers: Vec<Vec<u8>> =
            (0..=self.windows.len() as u64).map(|g| self.fetch(g, &mut quiet)).collect();
        let t = Instant::now();
        let views: Vec<ChunkView<'_>> =
            buffers.iter().map(|b| ChunkView::decode(b).expect("stored chunk decodes")).collect();
        out.insert("chunk.decode_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let plan = RestorePlan::build(&views, None);
        out.insert("plan.build_s", t.elapsed().as_secs_f64());
        out.insert("plan.segments", plan.segments.len() as f64);
        out.insert("plan.live_pages", plan.applied_pages() as f64);
        out.insert("plan.dead_pages", (plan.superseded_pages + plan.excluded_pages) as f64);
        drop(views);

        // The same chain to real files (sandbox disk: informational).
        let files = FileStore::open(&self.file_dir).expect("scratch directory under perf/out");
        let t = Instant::now();
        for (g, b) in buffers.iter().enumerate() {
            files.put_chunk(ChunkKey::new(0, g as u64), b).expect("write under perf/out");
        }
        let file_s = t.elapsed().as_secs_f64();
        let chain_bytes: usize = buffers.iter().map(Vec::len).sum();
        out.insert("store.file_put_gbps", chain_bytes as f64 / 1e9 / file_s);
        // Best effort: a leftover directory is under the ignored out/.
        let _ = std::fs::remove_dir_all(&self.file_dir);
        drop(buffers);

        let restore_s = self.median_phase("restore.rank");
        out.insert("restore.total_s", restore_s);
        out.insert("restore.pages_applied", c.pages_applied as f64);
        out.insert("restore.chunks_read", c.chain_length as f64);
        out.insert("restore.frac_of_copy", image / restore_s / ceiling.copy_gbps);
        let increments = self.windows.len() as u64;
        let mut restore_at = |workers: usize| {
            let cfg = RestoreConfig::with_workers(workers);
            let t = Instant::now();
            restore_rank_with(&self.store, 0, increments, &mut self.dst, &cfg)
                .expect("chain restored in the pass restores again");
            t.elapsed().as_secs_f64()
        };
        out.insert("restore.w1_s", restore_at(1));
        out.insert("restore.wN_s", restore_at(self.threads));

        let merge_s = self.median_phase("gc.merge_chain");
        out.insert("gc.merge_s", merge_s);
        out.insert("gc.merge_gbps", (c.merged_payload_pages * PAGE_SIZE) as f64 / 1e9 / merge_s);
    }
}
