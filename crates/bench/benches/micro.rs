//! Criterion micro-benchmarks of the hot paths: the dirty bitmap, the
//! write-fault path, pattern slicing, the chunk codec, CRC-32, the
//! trace-engine record/re-bin pair, XOR parity encode/reconstruct, the
//! *real* page-fault cost through `mprotect`/`SIGSEGV`, and the
//! flight-recorder overhead (append, export, instrumented capture).

// Terminal-facing target: printing is its job.
#![allow(clippy::disallowed_macros)]

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use ickpt::core::checkpoint::{
    capture_full_with, capture_incremental_with, CaptureConfig, CaptureScratch,
};
use ickpt::core::restore::{restore_rank_sequential, restore_rank_with, RestoreConfig};
use ickpt::core::tracker::{TrackerConfig, WriteTracker};
use ickpt::mem::{
    AddressSpace, BackedSpace, DirtyBitmap, FlatDirtyBitmap, LayoutBuilder, PageRange, PAGE_SIZE,
};
use ickpt::native::TrackedRegion;
use ickpt::sim::{SimDuration, SimTime};
use ickpt::storage::crc::{crc32, crc32_bytewise, crc32_slice8};
use ickpt::storage::{
    gc, hash64, kernels, page_block_hashes, xor_encode, xor_reconstruct, Chunk, ChunkKey,
    ChunkKind, MemStore, PageRecord, StableStorage, BLOCKS_PER_PAGE, BLOCK_SIZE,
};

fn bench_bitmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("dirty_bitmap");
    // 1 GB footprint = 262144 pages, the paper's largest per-process
    // image.
    let pages = 262_144u64;
    g.throughput(Throughput::Elements(pages));
    g.bench_function("set_range_full_image", |b| {
        let mut bm = DirtyBitmap::new(pages);
        b.iter(|| {
            bm.set_range(black_box(PageRange::new(0, pages)));
            bm.clear_all();
        });
    });
    g.bench_function("count_after_sparse_sets", |b| {
        let mut bm = DirtyBitmap::new(pages);
        for p in (0..pages).step_by(97) {
            bm.set(p);
        }
        b.iter(|| black_box(bm.count()));
    });
    g.bench_function("dirty_ranges_sparse", |b| {
        let mut bm = DirtyBitmap::new(pages);
        for p in (0..pages).step_by(97) {
            bm.set(p);
        }
        b.iter(|| black_box(bm.dirty_ranges().len()));
    });
    g.finish();
}

/// Hierarchical vs flat bitmap on the iteration/clear paths the write
/// tracker hits every timeslice. "Sparse" is the paper's common case: a
/// small IWS scattered across a 1 GB image, where the summary level
/// lets the hierarchical bitmap skip clean 4096-page blocks entirely.
fn bench_bitmap_hier_vs_flat(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitmap_hier_vs_flat");
    let pages = 262_144u64;
    // ~64 scattered dirty pages out of 262144 (0.02% — a quiet window).
    let sparse: Vec<u64> = (0..pages).step_by(4099).collect();
    g.throughput(Throughput::Elements(pages));

    let mut hier = DirtyBitmap::new(pages);
    let mut flat = FlatDirtyBitmap::new(pages);
    for &p in &sparse {
        hier.set(p);
        flat.set(p);
    }
    g.bench_function("dirty_ranges_sparse_hier", |b| {
        b.iter(|| black_box(hier.dirty_ranges().len()))
    });
    g.bench_function("dirty_ranges_sparse_flat", |b| {
        b.iter(|| black_box(flat.dirty_ranges().len()))
    });
    g.bench_function("iter_sparse_hier", |b| b.iter(|| black_box(hier.iter_set().count())));
    g.bench_function("iter_sparse_flat", |b| b.iter(|| black_box(flat.iter_set().count())));
    g.bench_function("clear_all_sparse_hier", |b| {
        let mut bm = DirtyBitmap::new(pages);
        b.iter(|| {
            for &p in &sparse {
                bm.set(p);
            }
            bm.clear_all();
            black_box(bm.count())
        })
    });
    g.bench_function("clear_all_sparse_flat", |b| {
        let mut bm = FlatDirtyBitmap::new(pages);
        b.iter(|| {
            for &p in &sparse {
                bm.set(p);
            }
            bm.clear_all();
            black_box(bm.count())
        })
    });

    // Dense: everything dirty (an initialization sweep). The summary
    // level must not cost anything measurable here.
    let mut dhier = DirtyBitmap::new(pages);
    let mut dflat = FlatDirtyBitmap::new(pages);
    dhier.set_range(PageRange::new(0, pages));
    dflat.set_range(PageRange::new(0, pages));
    g.bench_function("dirty_ranges_dense_hier", |b| {
        b.iter(|| black_box(dhier.dirty_ranges().len()))
    });
    g.bench_function("dirty_ranges_dense_flat", |b| {
        b.iter(|| black_box(dflat.dirty_ranges().len()))
    });
    g.finish();
}

fn bench_tracker(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_tracker");
    let pages = 262_144u64;
    g.throughput(Throughput::Elements(pages));
    g.bench_function("touch_range_one_window", |b| {
        let cfg = TrackerConfig {
            timeslice: SimDuration::from_secs(1),
            track_checkpoint_set: true,
            ..Default::default()
        };
        let mut t = WriteTracker::new(pages, pages, cfg);
        let mut now = 0u64;
        b.iter(|| {
            t.touch_range(black_box(PageRange::new(0, pages)));
            now += 1_000_000_000;
            t.advance_to(ickpt::sim::SimTime(now));
        });
    });
    g.finish();
}

fn bench_chunk_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_codec");
    // A 16 MB incremental chunk (4096 pages).
    let chunk = Chunk {
        kind: ChunkKind::Incremental,
        rank: 0,
        generation: 5,
        parent: Some(4),
        capture_time_ns: 0,
        heap_pages: 4096,
        mmap_blocks: vec![(0, 4096)],
        zero_ranges: vec![],
        records: vec![PageRecord { start_page: 0, data: vec![0xA5; 4096 * 4096] }],
        delta_records: vec![],
        dropped_pages: 0,
        app_state: vec![0; 64],
    };
    let encoded = chunk.encode();
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_16mb", |b| b.iter(|| black_box(chunk.encode().len())));
    // The commit path: a recycled buffer, CRC advanced block by block.
    let mut reused = Vec::new();
    g.bench_function("encode_into_16mb", |b| {
        b.iter(|| {
            chunk.encode_into(&mut reused);
            black_box(reused.len())
        })
    });
    g.bench_function("decode_16mb", |b| {
        b.iter(|| black_box(Chunk::decode(&encoded).unwrap().payload_pages()))
    });
    g.finish();

    // What a read-only consumer (restore, drain, parity) pays to fetch
    // that chunk from a `MemStore`: an owned copy vs a shared buffer.
    let store = MemStore::new();
    let key = ChunkKey::new(0, 5);
    store.put_chunk(key, &encoded).unwrap();
    let mut g = c.benchmark_group("store");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("memstore_read_vs_get/get_16mb", |b| {
        b.iter(|| black_box(store.get_chunk(key).unwrap().len()))
    });
    g.bench_function("memstore_read_vs_get/read_16mb", |b| {
        b.iter(|| black_box(store.read_chunk(key).unwrap().len()))
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    let data = vec![0x5Au8; 1 << 20];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("slice8_1mb", |b| b.iter(|| black_box(crc32(&data))));
    g.bench_function("bytewise_1mb", |b| b.iter(|| black_box(crc32_bytewise(&data))));
    g.finish();
}

/// Content layer: the 64-bit block hash against the slice-by-8 CRC the
/// chunk trailer already pays, and the hash-vs-copy crossover that
/// decides whether hashing a page to *maybe* drop it can lose to just
/// copying it. The dedup bet is `block_hashes_4k` ≪ `copy_4k` (page
/// cache hot, so the copy row is the memcpy floor, not disk).
fn bench_page_hash(c: &mut Criterion) {
    // Non-uniform bytes so neither hash collapses to a constant-fold.
    let data: Vec<u8> =
        (0..1usize << 20).map(|i| (i as u64).wrapping_mul(0x9E37_79B9) as u8).collect();

    let mut g = c.benchmark_group("page_hash");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("hash64_1mb", |b| b.iter(|| black_box(hash64(&data))));
    g.bench_function("crc32_slice8_1mb", |b| b.iter(|| black_box(crc32(&data))));
    g.finish();

    let mut g = c.benchmark_group("hash_vs_copy");
    let page = &data[..PAGE_SIZE as usize];
    g.throughput(Throughput::Bytes(PAGE_SIZE));
    g.bench_function("block_hashes_4k", |b| {
        let mut out = [0u64; BLOCKS_PER_PAGE];
        b.iter(|| {
            page_block_hashes(black_box(page), &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("hash64_4k", |b| b.iter(|| black_box(hash64(page))));
    g.bench_function("copy_4k", |b| {
        let mut dst = vec![0u8; PAGE_SIZE as usize];
        b.iter(|| {
            dst.copy_from_slice(black_box(page));
            black_box(dst[17])
        })
    });
    g.bench_function("hash64_256b_block", |b| b.iter(|| black_box(hash64(&page[..256]))));
    // Crossover re-measurement with the fused kernel: the content
    // layer's real per-page cost is now one fused sweep, not
    // block-hashes + zero-scan stacked — compare against `copy_4k`.
    g.bench_function("fused_scan_4k", |b| {
        let mut out = [0u64; BLOCKS_PER_PAGE];
        b.iter(|| {
            let scan = kernels::fused_scan(black_box(page), &mut out);
            black_box((scan.page_hash, out[0]))
        })
    });
    g.finish();
}

/// The dispatched kernels (`ickpt-storage::kernels`) against the
/// scalar sequences they replace.
///
/// `kernels_fused_scan`: the headline fusion — `three_pass_16k` is the
/// pre-kernel capture sequence (scalar zero scan + full-page `hash64`
/// chain + per-256 B block hashes, three sweeps) and `fused_16k` is
/// one dispatched sweep computing the whole identity triple, with the
/// page hash derived merkle-style from the block digests;
/// `scalar_ref_16k` is the new-contract scalar reference (same triple,
/// no SIMD) and `fused_16k_portable` isolates the single-pass
/// restructuring without SIMD (the tier non-x86/aarch64 hosts get).
/// 16 KB input (the paper's page size) = 64 blocks; `*_4k` rows cover
/// the 4 KiB chunk page the capture loop actually feeds.
fn bench_kernels(c: &mut Criterion) {
    let data: Vec<u8> =
        (0..16usize << 10).map(|i| (i as u64).wrapping_mul(0x9E37_79B9) as u8).collect();
    let tables = kernels::available();
    let scalar = tables[0];
    let portable = tables[1];

    // The capture sequence this PR replaces: three separate scalar
    // sweeps, the page identity a serial full-page hash64 chain.
    fn three_pass(scalar: &kernels::Kernels, data: &[u8], out: &mut [u64]) -> (bool, u64) {
        for (slot, block) in out.iter_mut().zip(data.chunks_exact(BLOCK_SIZE)) {
            *slot = hash64(block);
        }
        ((scalar.is_zero)(data), hash64(data))
    }

    let mut g = c.benchmark_group("kernels_fused_scan");
    g.throughput(Throughput::Bytes(data.len() as u64));
    let blocks_16k = data.len() / BLOCK_SIZE;
    g.bench_function("three_pass_16k", |b| {
        let mut out = vec![0u64; blocks_16k];
        b.iter(|| {
            let (z, ph) = three_pass(&scalar, black_box(&data), &mut out);
            black_box((z, ph, out[0]))
        })
    });
    g.bench_function("scalar_ref_16k", |b| {
        let mut out = vec![0u64; blocks_16k];
        b.iter(|| {
            let scan = (scalar.fused_scan)(black_box(&data), &mut out);
            black_box((scan.is_zero, scan.page_hash, out[0]))
        })
    });
    g.bench_function("fused_16k_portable", |b| {
        let mut out = vec![0u64; blocks_16k];
        b.iter(|| {
            let scan = (portable.fused_scan)(black_box(&data), &mut out);
            black_box((scan.is_zero, scan.page_hash, out[0]))
        })
    });
    g.bench_function("fused_16k", |b| {
        let mut out = vec![0u64; blocks_16k];
        b.iter(|| {
            let scan = kernels::fused_scan(black_box(&data), &mut out);
            black_box((scan.is_zero, scan.page_hash, out[0]))
        })
    });
    let page = &data[..PAGE_SIZE as usize];
    g.throughput(Throughput::Bytes(PAGE_SIZE));
    g.bench_function("three_pass_4k", |b| {
        let mut out = vec![0u64; BLOCKS_PER_PAGE];
        b.iter(|| {
            let (z, ph) = three_pass(&scalar, black_box(page), &mut out);
            black_box((z, ph, out[0]))
        })
    });
    g.bench_function("fused_4k", |b| {
        let mut out = vec![0u64; BLOCKS_PER_PAGE];
        b.iter(|| {
            let scan = kernels::fused_scan(black_box(page), &mut out);
            black_box((scan.is_zero, scan.page_hash, out[0]))
        })
    });
    g.finish();

    // Parity XOR accumulate: dispatched (AVX2 where detected) vs the
    // scalar byte loop `xor_encode` used to run. The 16 KB rows are
    // L1-resident so ALU width shows; the 1 MB rows are the honest
    // streaming case, bounded by cache bandwidth on most hosts.
    let mut g = c.benchmark_group("xor_encode_simd");
    let len = 1usize << 20;
    let src: Vec<u8> = (0..len).map(|i| (i as u64).wrapping_mul(0xC2B2_AE3D) as u8).collect();
    let mut acc = vec![0u8; len];
    let small = 16usize << 10;
    g.throughput(Throughput::Bytes(small as u64));
    g.bench_function("scalar_16k", |b| {
        b.iter(|| {
            (scalar.xor_acc)(black_box(&mut acc[..small]), black_box(&src[..small]));
            black_box(acc[0])
        })
    });
    g.bench_function("auto_16k", |b| {
        b.iter(|| {
            kernels::xor_acc(black_box(&mut acc[..small]), black_box(&src[..small]));
            black_box(acc[0])
        })
    });
    g.throughput(Throughput::Bytes(len as u64));
    g.bench_function("scalar_1mb", |b| {
        b.iter(|| {
            (scalar.xor_acc)(black_box(&mut acc), black_box(&src));
            black_box(acc[0])
        })
    });
    g.bench_function("auto_1mb", |b| {
        b.iter(|| {
            kernels::xor_acc(black_box(&mut acc), black_box(&src));
            black_box(acc[0])
        })
    });
    g.finish();

    // CRC dispatch: PCLMULQDQ folding (where detected) vs slice-by-8
    // vs the bytewise reference, all computing identical sums.
    let mut g = c.benchmark_group("crc_dispatch");
    g.throughput(Throughput::Bytes(len as u64));
    g.bench_function("auto_1mb", |b| b.iter(|| black_box(crc32(black_box(&src)))));
    g.bench_function("slice8_1mb", |b| b.iter(|| black_box(crc32_slice8(black_box(&src)))));
    g.bench_function("is_zero_4k_zero_page", |b| {
        let zeros = vec![0u8; PAGE_SIZE as usize];
        b.iter(|| black_box(kernels::is_zero(black_box(&zeros))))
    });
    g.bench_function("bytes_eq_4k_equal", |b| {
        let a = &data[..PAGE_SIZE as usize];
        let bb = a.to_vec();
        b.iter(|| black_box(kernels::bytes_eq(black_box(a), black_box(&bb))))
    });
    g.finish();
}

/// Incremental capture with content dedup off / cold / warm on a fully
/// dirty image (size via `ICKPT_BENCH_CAPTURE_MB`). `off` is the
/// dirty-page floor: every flagged page is copied into the chunk.
/// `on_cold` hashes every page and still stores it — the worst-case CPU
/// overhead of the content layer, which the issue bounds at single-digit
/// percent over `off`. `on_warm` hashes every page and drops it as
/// silent-same — the effective-IB floor where no bytes reach storage.
fn bench_capture_dedup(c: &mut Criterion) {
    let mb: u64 =
        std::env::var("ICKPT_BENCH_CAPTURE_MB").ok().and_then(|v| v.parse().ok()).unwrap_or(256);
    let pages = mb * (1 << 20) / PAGE_SIZE;
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(pages * PAGE_SIZE)
        .mmap_capacity_bytes(4 * PAGE_SIZE)
        .build();
    let mut space = BackedSpace::new(layout);
    space.heap_grow(pages - 4).unwrap();
    for r in space.mapped_ranges() {
        for p in r.iter() {
            space.fill_page(p, p.wrapping_mul(0x9E37_79B9)).unwrap();
        }
    }
    let ranges = space.mapped_ranges();
    let bytes = space.mapped_pages() * PAGE_SIZE;

    let mut g = c.benchmark_group("capture_dedup");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(20);

    let capture = |space: &BackedSpace,
                   ranges: &[PageRange],
                   cfg: &CaptureConfig,
                   scratch: &mut CaptureScratch| {
        let chunk = capture_incremental_with(space, 0, 2, 1, SimTime::ZERO, ranges, cfg, scratch);
        let pages = chunk.payload_pages();
        scratch.recycle(chunk);
        pages
    };

    {
        let cfg = CaptureConfig::serial();
        let mut scratch = CaptureScratch::new();
        g.bench_function(&format!("{mb}mb_off"), |b| {
            b.iter(|| black_box(capture(&space, &ranges, &cfg, &mut scratch)))
        });
    }
    {
        let cfg = CaptureConfig { dedup: true, ..CaptureConfig::serial() };
        let mut scratch = CaptureScratch::new();
        g.bench_function(&format!("{mb}mb_on_cold"), |b| {
            b.iter(|| {
                // Invalid baseline every pass: hash + store everything.
                scratch.dedup_index().reset();
                black_box(capture(&space, &ranges, &cfg, &mut scratch))
            })
        });
    }
    {
        let cfg = CaptureConfig { dedup: true, ..CaptureConfig::serial() };
        let mut scratch = CaptureScratch::new();
        // Prime the baseline once; the image never changes after, so
        // every measured pass drops all pages as silent-same.
        capture(&space, &ranges, &cfg, &mut scratch);
        g.bench_function(&format!("{mb}mb_on_warm"), |b| {
            b.iter(|| black_box(capture(&space, &ranges, &cfg, &mut scratch)))
        });
    }
    g.finish();
}

/// Full-image capture, serial vs parallel, on a Sage-like footprint.
///
/// Size via `ICKPT_BENCH_CAPTURE_MB` (default 256; the paper's largest
/// process image is ~1 GB). The parallel variants force the fan-out
/// path (`parallel_threshold_pages: 0`); on a single-core host they
/// measure the overhead of span splitting + merge, on a multi-core host
/// the speedup of the page-copy fan-out. All variants reuse one
/// [`CaptureScratch`], so steady-state captures are allocation-free.
fn bench_capture(c: &mut Criterion) {
    let mb: u64 =
        std::env::var("ICKPT_BENCH_CAPTURE_MB").ok().and_then(|v| v.parse().ok()).unwrap_or(256);
    let pages = mb * (1 << 20) / PAGE_SIZE;
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(pages * PAGE_SIZE)
        .mmap_capacity_bytes(4 * PAGE_SIZE)
        .build();
    let mut space = BackedSpace::new(layout);
    space.heap_grow(pages - 4).unwrap();
    // ~87% of pages written, the rest left zero (fresh allocations), so
    // both the copy path and the zero-elision word scan are exercised.
    for r in space.mapped_ranges() {
        for p in r.iter() {
            if p % 8 != 5 {
                space.fill_page(p, p.wrapping_mul(0x9E37_79B9)).unwrap();
            }
        }
    }
    let bytes = space.mapped_pages() * PAGE_SIZE;

    let mut g = c.benchmark_group("capture_full");
    g.throughput(Throughput::Bytes(bytes));
    for workers in [1usize, 4, 8] {
        let id = if workers == 1 {
            format!("{mb}mb_serial")
        } else {
            format!("{mb}mb_{workers}workers")
        };
        let cfg = CaptureConfig { workers, parallel_threshold_pages: 0, ..Default::default() };
        let mut scratch = CaptureScratch::new();
        g.bench_function(&id, |b| {
            b.iter(|| {
                let chunk =
                    capture_full_with(&space, 0, 1, ickpt::sim::SimTime::ZERO, &cfg, &mut scratch);
                let pages = chunk.payload_pages();
                scratch.recycle(chunk);
                black_box(pages)
            })
        });
    }
    g.finish();
}

/// Planned restore vs sequential chain replay, plus plan-driven chain
/// compaction.
///
/// Size via `ICKPT_BENCH_RESTORE_MB` (default 64). Both chains share
/// one live set: a full base plus increments that all overwrite the
/// same quarter of the image. The planned restore decodes each live
/// page exactly once, so its page work is flat in chain length; the
/// sequential replay re-applies every superseded record, so its work
/// grows with every increment. `restore_planned/chainN_8workers`
/// additionally fans the plan's page copies across threads.
fn bench_restore(c: &mut Criterion) {
    let mb: u64 =
        std::env::var("ICKPT_BENCH_RESTORE_MB").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
    let pages = (mb * (1 << 20) / PAGE_SIZE).max(16);
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(pages * PAGE_SIZE)
        .mmap_capacity_bytes(4 * PAGE_SIZE)
        .build();
    let mut src = BackedSpace::new(layout);
    src.heap_grow(pages - 4).unwrap();
    for r in src.mapped_ranges() {
        for p in r.iter() {
            src.fill_page(p, p.wrapping_mul(0x9E37_79B9)).unwrap();
        }
    }
    // Every increment rewrites the same quarter of the heap, so the
    // live set (and therefore the planned restore's page reads) is
    // identical for the 2-, 16- and 32-increment chains. Each row
    // restores into one reused destination, as a rollback does.
    let window = {
        let heap = src.mapped_ranges()[1];
        PageRange::new(heap.start, heap.start + (pages / 4).max(1))
    };
    let build_chain = |increments: u64| -> MemStore {
        let store = MemStore::new();
        let cfg = CaptureConfig::serial();
        let mut scratch = CaptureScratch::new();
        let base = capture_full_with(&src, 0, 0, SimTime::ZERO, &cfg, &mut scratch);
        store.put_chunk(ChunkKey::new(0, 0), &base.encode()).unwrap();
        for g in 1..=increments {
            let chunk = capture_incremental_with(
                &src,
                0,
                g,
                g - 1,
                SimTime::ZERO,
                &[window],
                &cfg,
                &mut scratch,
            );
            store.put_chunk(ChunkKey::new(0, g), &chunk.encode()).unwrap();
        }
        store
    };
    let bytes = src.mapped_pages() * PAGE_SIZE;

    let mut g = c.benchmark_group("restore");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(20);
    for increments in [2u64, 16, 32] {
        let store = build_chain(increments);
        for workers in [1usize, 8] {
            let id = if workers == 1 {
                format!("planned_chain{increments}_serial")
            } else {
                format!("planned_chain{increments}_{workers}workers")
            };
            let cfg = RestoreConfig { workers, parallel_threshold_pages: 0 };
            let mut space = BackedSpace::new(layout);
            g.bench_function(&id, |b| {
                b.iter(|| {
                    let rep = restore_rank_with(&store, 0, increments, &mut space, &cfg).unwrap();
                    black_box(rep.pages_applied)
                })
            });
        }
        let mut space = BackedSpace::new(layout);
        g.bench_function(&format!("sequential_chain{increments}"), |b| {
            b.iter(|| {
                let rep = restore_rank_sequential(&store, 0, increments, &mut space).unwrap();
                black_box(rep.pages_applied)
            })
        });
    }

    // Compaction: merge a 32-increment chain into one full chunk via
    // the restore plan (single pass, dead records never copied).
    let store = build_chain(32);
    let chain: Vec<Chunk> = (0..=32)
        .map(|g| Chunk::decode(&store.get_chunk(ChunkKey::new(0, g)).unwrap()).unwrap())
        .collect();
    drop(store);
    g.bench_function("gc_merge_chain32", |b| {
        b.iter(|| black_box(gc::merge_chain(&chain, None).payload_pages()))
    });
    g.finish();
}

/// Trace-once vs re-bin-many: the cost of recording one fine-grained
/// (1 s) write trace, and of deriving a coarse-timeslice report from it
/// afterwards. The whole point of the trace engine is the ratio between
/// these two rows: every additional timeslice costs one `rebin`, not
/// one `record`.
fn bench_trace(c: &mut Criterion) {
    use ickpt::apps::Workload;
    use ickpt::cluster::{characterize, CharacterizationConfig};
    use ickpt_bench::engine::WorkloadTrace;

    let cfg = CharacterizationConfig {
        nranks: 2,
        scale: 0.05,
        run_for: SimDuration::from_secs(60),
        timeslice: SimDuration::from_secs(1),
        seed: 0x1DC4_2004,
        track_iterations: true,
        trace_ranks: 1,
        ..Default::default()
    };
    let mut g = c.benchmark_group("trace_engine");
    g.bench_function("record_sage50_2ranks_60s", |b| {
        b.iter(|| black_box(characterize(Workload::Sage50, &cfg).ranks[0].samples.len()))
    });
    let wt = WorkloadTrace::from_report(characterize(Workload::Sage50, &cfg));
    g.bench_function("rebin_sage50_60s_to_5s", |b| {
        b.iter(|| {
            let report = wt.report_at(SimDuration::from_secs(5), SimDuration::from_secs(60), false);
            black_box(report.ranks[0].samples.len())
        })
    });
    g.finish();
}

/// XOR parity of a 4-member redundancy group: the per-generation cost
/// a holder pays to encode, and the cost of rebuilding a lost member
/// from the surviving three plus the parity block.
fn bench_xor_parity(c: &mut Criterion) {
    let mut g = c.benchmark_group("xor_parity");
    // Uneven member sizes to exercise the zero-padded tail path.
    let members: Vec<Vec<u8>> = (0u64..4)
        .map(|r| {
            let len = (4 << 20) - (r as usize) * 4096;
            (0..len).map(|i| (i as u64).wrapping_mul(r + 0x9E37).to_le_bytes()[0]).collect()
        })
        .collect();
    let views: Vec<(u32, &[u8])> =
        members.iter().enumerate().map(|(r, d)| (r as u32, d.as_slice())).collect();
    let total: u64 = members.iter().map(|m| m.len() as u64).sum();
    g.throughput(Throughput::Bytes(total));
    g.bench_function("encode_group4_16mb", |b| {
        b.iter(|| black_box(xor_encode(0, 7, &views).len()))
    });
    let parity = xor_encode(0, 7, &views);
    let survivors: Vec<(u32, &[u8])> = views.iter().filter(|(r, _)| *r != 2).copied().collect();
    g.bench_function("reconstruct_group4_16mb", |b| {
        b.iter(|| black_box(xor_reconstruct(&parity, &survivors, 2).unwrap().len()))
    });
    g.finish();
}

fn bench_native_fault(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_fault");
    // Cost of one protection fault + handler + mprotect, amortized over
    // a page sweep with per-sample re-protection.
    g.bench_function("fault_per_page", |b| {
        let region = TrackedRegion::new(256);
        b.iter(|| {
            for p in 0..256 {
                region.write_byte(p, 0, 1);
            }
            black_box(region.sample().iws_pages())
        });
    });
    g.bench_function("write_unprotected_page", |b| {
        let region = TrackedRegion::new(256);
        region.untrack();
        b.iter(|| {
            for p in 0..256 {
                region.write_byte(p, 0, 1);
            }
        });
    });
    g.finish();
}

/// Flight-recorder overhead: event append (enabled vs the disabled
/// no-op recorder), the two exporters on a populated log, and the
/// instrumented-vs-disabled delta of a full capture — the observability
/// claim is "zero cost when disabled, bounded cost when on".
fn bench_obs(c: &mut Criterion) {
    use ickpt::obs::{chrome_trace, jsonl, CaptureKind, Event, FlightRecorder, Lane, Recorder};

    let event = |i: u64| Event::Capture {
        kind: CaptureKind::Incremental,
        generation: i,
        pages: 64,
        payload_bytes: 64 * PAGE_SIZE,
    };

    let mut g = c.benchmark_group("obs");
    g.bench_function("event_append_enabled", |b| {
        let rec = Recorder::new(FlightRecorder::with_default_capacity());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rec.emit(Lane::Rank(0), SimTime(i), event(i));
            black_box(i)
        });
    });
    g.bench_function("event_append_disabled", |b| {
        let rec = Recorder::disabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rec.emit(Lane::Rank(0), SimTime(i), event(i));
            black_box(i)
        });
    });

    // Exporters over a 4-rank, 10k-event log.
    let fr = FlightRecorder::with_default_capacity();
    fr.name_group(0, "bench");
    let rec = Recorder::new(fr.clone());
    for i in 0..10_000u64 {
        rec.emit_span(Lane::Rank((i % 4) as u32), SimTime(i * 1_000), SimDuration(500), event(i));
    }
    let snap = fr.snapshot();
    g.bench_function("export_jsonl_10k", |b| b.iter(|| black_box(jsonl(&snap)).len()));
    g.bench_function("export_chrome_10k", |b| b.iter(|| black_box(chrome_trace(&snap)).len()));

    // Instrumented vs disabled capture of a 16 MB image: the recorder
    // adds one event per capture, so the delta must sit in the noise.
    let pages = 16 * (1 << 20) / PAGE_SIZE;
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(pages * PAGE_SIZE)
        .mmap_capacity_bytes(4 * PAGE_SIZE)
        .build();
    let mut space = BackedSpace::new(layout);
    space.heap_grow(pages - 4).unwrap();
    for r in space.mapped_ranges() {
        for p in r.iter() {
            space.fill_page(p, p.wrapping_mul(0x9E37_79B9)).unwrap();
        }
    }
    g.throughput(Throughput::Bytes(space.mapped_pages() * PAGE_SIZE));
    for (id, obs) in [
        ("capture_16mb_disabled", Recorder::disabled()),
        ("capture_16mb_instrumented", Recorder::new(FlightRecorder::with_default_capacity())),
    ] {
        let cfg = CaptureConfig { obs, ..Default::default() };
        let mut scratch = CaptureScratch::new();
        g.bench_function(id, |b| {
            b.iter(|| {
                let chunk = capture_full_with(&space, 0, 1, SimTime::ZERO, &cfg, &mut scratch);
                let pages = chunk.payload_pages();
                scratch.recycle(chunk);
                black_box(pages)
            })
        });
    }
    g.finish();
}

/// Metrics-plane overhead: one event ingested through the recorder tee
/// with only the plane attached (counter + window + histogram updates)
/// vs the fully disabled recorder (two pointer tests), a raw log₂
/// histogram record and quantile, the text-snapshot export over a
/// populated plane, and the instrumented-vs-off delta of a 16 MB
/// capture with the plane teed in — the tentpole's "sub-ns when off,
/// bounded when on" claim, with `ickpt_meta_*` op counts from any run
/// multiplying against these per-op rows.
fn bench_metrics(c: &mut Criterion) {
    use ickpt::obs::{
        CaptureKind, Event, Lane, LogHistogram, MetricsPlane, Recorder, HIST_BUCKETS,
    };

    let event = |i: u64| Event::Capture {
        kind: CaptureKind::Incremental,
        generation: i,
        pages: 64,
        payload_bytes: 64 * PAGE_SIZE,
    };
    let stall = |i: u64| Event::CheckpointStall { generation: i };

    let mut g = c.benchmark_group("metrics");
    g.bench_function("event_ingest_enabled", |b| {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        plane.name_group(0, "bench");
        let rec = Recorder::disabled().with_metrics(plane);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rec.emit(Lane::Rank(0), SimTime(i * 1_000_000), event(i));
            black_box(i)
        });
    });
    g.bench_function("span_ingest_enabled", |b| {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        plane.name_group(0, "bench");
        let rec = Recorder::disabled().with_metrics(plane);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rec.emit_span(Lane::Rank(0), SimTime(i * 1_000_000), SimDuration(500_000), stall(i));
            black_box(i)
        });
    });
    g.bench_function("event_ingest_disabled", |b| {
        let rec = Recorder::disabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rec.emit(Lane::Rank(0), SimTime(i * 1_000_000), event(i));
            black_box(i)
        });
    });
    g.bench_function("hist_record", |b| {
        let mut h = LogHistogram::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            h.record(black_box(i));
            black_box(h.count())
        });
    });
    g.bench_function("hist_quantile_p99", |b| {
        let mut h = LogHistogram::new();
        for i in 0..10_000u64 {
            h.record(i.wrapping_mul(0x9E37_79B9) >> 20);
        }
        b.iter(|| black_box(h.quantile(99)));
    });
    g.bench_function("hist_merge_65buckets", |b| {
        let mut a = LogHistogram::new();
        let mut o = LogHistogram::new();
        for i in 0..HIST_BUCKETS as u64 {
            a.record(1 << (i % 40));
            o.record(3 << (i % 40));
        }
        b.iter(|| {
            a.merge(black_box(&o));
            black_box(a.count())
        });
    });

    // Snapshot export over a populated plane: 2 groups, mixed event
    // kinds across 60 virtual seconds of 1 s windows.
    let plane = MetricsPlane::new(SimDuration::from_secs(1));
    for group in 0..2u32 {
        plane.name_group(group, if group == 0 { "warm" } else { "cold" });
        let rec = Recorder::disabled().with_group(group).with_metrics(plane.clone());
        for i in 0..5_000u64 {
            let at = SimTime(i * 12_000_000);
            rec.emit(Lane::Rank((i % 4) as u32), at, event(i));
            rec.emit_span(Lane::Rank((i % 4) as u32), at, SimDuration(500_000), stall(i));
        }
    }
    g.bench_function("render_text_2groups", |b| b.iter(|| black_box(plane.render_text().len())));

    // Instrumented vs off: a 16 MB capture with the metrics plane teed
    // into the capture path's recorder. Pairs with the flight-recorder
    // rows in `obs/capture_16mb_*`; the regression gate compares the
    // `_off` row against the previous PR's baseline.
    let pages = 16 * (1 << 20) / PAGE_SIZE;
    let layout = LayoutBuilder::new()
        .static_bytes(4 * PAGE_SIZE)
        .heap_capacity_bytes(pages * PAGE_SIZE)
        .mmap_capacity_bytes(4 * PAGE_SIZE)
        .build();
    let mut space = BackedSpace::new(layout);
    space.heap_grow(pages - 4).unwrap();
    for r in space.mapped_ranges() {
        for p in r.iter() {
            space.fill_page(p, p.wrapping_mul(0x9E37_79B9)).unwrap();
        }
    }
    let metered = {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        plane.name_group(0, "bench");
        Recorder::disabled().with_metrics(plane)
    };
    g.throughput(Throughput::Bytes(space.mapped_pages() * PAGE_SIZE));
    for (id, obs) in [("capture_16mb_off", Recorder::disabled()), ("capture_16mb_metered", metered)]
    {
        let cfg = CaptureConfig { obs, ..Default::default() };
        let mut scratch = CaptureScratch::new();
        g.bench_function(id, |b| {
            b.iter(|| {
                let chunk = capture_full_with(&space, 0, 1, SimTime::ZERO, &cfg, &mut scratch);
                let pages = chunk.payload_pages();
                scratch.recycle(chunk);
                black_box(pages)
            })
        });
    }
    g.finish();
}

/// Ranks-per-second of a characterization run on the event engine.
/// Criterion's elements/s readout IS ranks/s here; `fig5_extended`
/// (and BENCH_PR7.json) carry the 4096/16384-rank wall-clock numbers.
fn bench_cluster_ranks(c: &mut Criterion) {
    use ickpt::apps::Workload;
    use ickpt::cluster::{characterize, CharacterizationConfig, ReportDetail};
    const NRANKS: usize = 256;
    let w = Workload::Sage100;
    let cfg = CharacterizationConfig {
        nranks: NRANKS,
        scale: 0.02,
        run_for: SimDuration::from_secs(20),
        detail: ReportDetail::compact(),
        ..Default::default()
    };
    let mut g = c.benchmark_group("cluster_ranks_per_sec");
    g.sample_size(10);
    g.throughput(Throughput::Elements(NRANKS as u64));
    g.bench_function("event_engine_256ranks", |b| {
        b.iter(|| black_box(characterize(w, &cfg).ranks.len()))
    });
    g.finish();
}

/// Multi-tenant service hot paths: the admission decision (token
/// refill + charge), a DRR scheduler pick under a populated 64-tenant
/// ring, and striped-drain throughput at 1/2/4 devices (bytes/s here
/// is *virtual* bytes charged per host second — the simulation cost of
/// a drain, not the modeled array speed).
fn bench_svc(c: &mut Criterion) {
    use ickpt::sim::StripedArray;
    use ickpt::svc::{AdmissionConfig, ChunkJob, SchedPolicy, Scheduler, TokenBucket};

    let mut g = c.benchmark_group("svc");
    g.bench_function("admission_decision", |b| {
        let cfg = AdmissionConfig::default();
        let mut bucket = TokenBucket::for_weight(&cfg, 2);
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000_000;
            black_box(bucket.admit(SimTime(now), 1_000_000))
        });
    });
    g.bench_function("drr_pick_64_tenants", |b| {
        let weights = vec![2u32; 64];
        let mut s = Scheduler::new(SchedPolicy::FairShare, &weights, 4_000_000);
        let mut i = 0u64;
        b.iter(|| {
            // Keep the ring populated: one enqueue per pick.
            i += 1;
            s.enqueue(ChunkJob { tenant: (i % 64) as u32, req: i, bytes: 4_000_000 });
            black_box(s.pick())
        });
    });
    for devices in [1usize, 2, 4] {
        // One 64 MB drain split into 4 MB stripe chunks.
        let total = 64u64 << 20;
        g.throughput(Throughput::Bytes(total));
        g.bench_function(&format!("striped_drain_64mb_{devices}dev"), |b| {
            let mut arr = StripedArray::homogeneous(
                devices,
                320_000_000,
                SimDuration::from_millis(4),
                4 << 20,
            );
            let mut now = 0u64;
            b.iter(|| {
                now += 1_000_000_000;
                black_box(arr.write(SimTime(now), total).done)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bitmap,
    bench_bitmap_hier_vs_flat,
    bench_tracker,
    bench_chunk_codec,
    bench_crc,
    bench_page_hash,
    bench_kernels,
    bench_capture_dedup,
    bench_capture,
    bench_restore,
    bench_trace,
    bench_xor_parity,
    bench_native_fault,
    bench_obs,
    bench_metrics,
    bench_cluster_ranks,
    bench_svc
);
criterion_main!(benches);
