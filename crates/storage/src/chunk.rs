//! The checkpoint chunk format.
//!
//! One chunk holds one rank's contribution to one checkpoint generation:
//! either a **full** snapshot (every mapped page) or an **incremental**
//! delta (pages dirtied since the previous generation — the paper's IWS
//! accumulated between checkpoints). The format is an explicit
//! little-endian layout rather than a serde format: a checkpoint file
//! must be readable by a restorer that shares nothing with the writer
//! but this specification.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ICKP"
//! 4       2     version (2)
//! 6       1     kind (0 = full, 1 = incremental)
//! 7       1     reserved (0)
//! 8       4     rank
//! 12      4     reserved (0)
//! 16      8     generation
//! 24      8     parent generation (u64::MAX for full chunks)
//! 32      8     virtual capture time (ns)
//! 40      8     heap size (pages)
//! 48      4     number of live mmap blocks, M
//! 52      4     number of page records, R
//! 56      4     application state length, A
//! 60      4     number of zero ranges, Z
//! 64      8     silent-same pages dropped by dedup at capture
//! 72      4     number of delta records, D
//! 76      4     reserved (0)
//! 80      16*M  mmap blocks: (start_page u64, len u64)
//! ...     16*Z  zero ranges: (start_page u64, len u64)
//! ...     A     opaque application state (model counters/RNG)
//! ...     R×(16 + len*4096) page records: (start_page u64, len u64, data)
//! ...     D×(16 + popcount(mask)*256) delta records:
//!               (page u64, mask u16, reserved [u8;6], changed blocks)
//! last 4        CRC-32 of everything before it
//!
//! *Zero ranges* are pages whose content is entirely zero at capture
//! time (fresh allocations that were never written): they are listed
//! instead of stored, the classic zero-page elision of checkpointing
//! systems. Restore materializes them as zero-filled pages.
//!
//! *Delta records* (version 2, the content layer) store only the
//! changed 256-byte blocks of a partially-written page: `mask` bit `b`
//! set means block `b` of the page changed and its 256 bytes appear in
//! the payload, ascending. The unchanged blocks come from the page's
//! *base* — the next-older whole-page record or zero range covering the
//! same page in the chain. Capture guarantees the base of a delta is
//! never itself a delta (a page is re-stored whole after being
//! delta-encoded once), so base chasing is depth one. The header's
//! dropped-pages counter records how many dirty pages dedup proved
//! byte-identical to their committed baseline and elided entirely.
//! ```

use bytes::{Buf, BufMut};

use crate::crc::Crc32;
use crate::hash::{BLOCKS_PER_PAGE, BLOCK_SIZE};
use crate::store::StorageError;

const MAGIC: &[u8; 4] = b"ICKP";
const VERSION: u16 = 2;
/// Fixed header size in bytes (before the variable tables).
const HEADER_LEN: usize = 80;
/// Page size must agree with `ickpt_mem::PAGE_SIZE`; the format pins it.
pub const CHUNK_PAGE_SIZE: usize = 4096;
/// Encode advances the chunk CRC every time this many bytes have been
/// appended: small enough that the block is still in L2 when the CRC
/// kernel reads it back, large enough to amortize the kernel's set-up.
pub(crate) const CRC_BLOCK: usize = 128 * 1024;

/// The encode sink: appends to the output buffer and checksums each
/// [`CRC_BLOCK`] as soon as it is full, so the CRC reads bytes the copy
/// just brought into cache instead of sweeping the finished buffer.
struct SummedSink<'a> {
    out: &'a mut Vec<u8>,
    crc: Crc32,
    /// Length of the prefix of `out` the CRC has consumed.
    summed: usize,
}

impl SummedSink<'_> {
    fn sum_pending(&mut self) {
        self.crc.update(&self.out[self.summed..]);
        self.summed = self.out.len();
    }
}

impl BufMut for SummedSink<'_> {
    fn put_slice(&mut self, mut src: &[u8]) {
        while !src.is_empty() {
            let room = CRC_BLOCK - (self.out.len() - self.summed);
            let (head, rest) = src.split_at(room.min(src.len()));
            self.out.extend_from_slice(head);
            if head.len() == room {
                self.sum_pending();
            }
            src = rest;
        }
    }
}

/// Whether a chunk is a base snapshot or a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Every mapped page at capture time.
    Full,
    /// Pages dirtied since the parent generation.
    Incremental,
}

/// A contiguous run of saved pages with their contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRecord {
    /// First page index of the run.
    pub start_page: u64,
    /// Page contents, concatenated; length is a multiple of 4096.
    pub data: Vec<u8>,
}

impl PageRecord {
    /// Number of pages in the record.
    pub fn page_count(&self) -> u64 {
        (self.data.len() / CHUNK_PAGE_SIZE) as u64
    }
}

/// A partially-rewritten page stored as its changed sub-page blocks.
///
/// Bit `b` of `mask` set means block `b` ([`BLOCK_SIZE`] bytes at page
/// offset `b * BLOCK_SIZE`) is present in `data`; present blocks are
/// concatenated in ascending block order. The unchanged blocks resolve
/// to the page's base record further down the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// The page this delta rewrites.
    pub page: u64,
    /// Changed-block bitmap, bit `b` ↦ block `b` of the page.
    pub mask: u16,
    /// Changed blocks, `popcount(mask) * BLOCK_SIZE` bytes.
    pub data: Vec<u8>,
}

impl DeltaRecord {
    /// Number of changed blocks carried by this record.
    pub(crate) fn block_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Byte offset of changed block `i` (0-based among *present*
    /// blocks) within `data`, paired with its block index in the page.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mask = self.mask;
        (0..BLOCKS_PER_PAGE).filter(move |b| mask & (1 << b) != 0).zip(self.data.chunks(BLOCK_SIZE))
    }
}

/// A decoded checkpoint chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Base or delta.
    pub kind: ChunkKind,
    /// Owning rank.
    pub rank: u32,
    /// Checkpoint generation this chunk belongs to.
    pub generation: u64,
    /// Generation this delta applies on top of (`None` for full chunks).
    pub parent: Option<u64>,
    /// Virtual time of capture (nanoseconds).
    pub capture_time_ns: u64,
    /// Heap size at capture, in pages (for mapping-state restore).
    pub heap_pages: u64,
    /// Live mmap blocks at capture (start page, page count).
    pub mmap_blocks: Vec<(u64, u64)>,
    /// Pages that were entirely zero at capture: recorded by position
    /// only (zero-page elision), restored as zero fill.
    pub zero_ranges: Vec<(u64, u64)>,
    /// Saved page runs in ascending page order.
    pub records: Vec<PageRecord>,
    /// Partially-rewritten pages stored as changed blocks only, in
    /// ascending page order (incremental chunks only).
    pub delta_records: Vec<DeltaRecord>,
    /// Dirty pages dedup proved byte-identical to their baseline and
    /// dropped at capture (accounting only; they occupy no payload).
    pub dropped_pages: u64,
    /// Opaque application/model state that rides along with the memory
    /// image (iteration counters, allocation tables, RNG state) so a
    /// restore resumes the exact execution trajectory.
    pub app_state: Vec<u8>,
}

impl Chunk {
    /// Total saved payload in bytes (the quantity the paper's IB
    /// metric bounds) — whole-page records plus delta blocks.
    pub fn payload_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.data.len() as u64).sum::<u64>()
            + self.delta_records.iter().map(|d| d.data.len() as u64).sum::<u64>()
    }

    /// Total saved pages (stored content, excluding elided zeros and
    /// delta-encoded pages).
    pub fn payload_pages(&self) -> u64 {
        self.records.iter().map(|r| r.page_count()).sum()
    }

    /// Pages stored as sub-page deltas.
    #[cfg(test)]
    pub(crate) fn delta_pages(&self) -> u64 {
        self.delta_records.len() as u64
    }

    /// Bytes of changed-block payload across all delta records.
    #[cfg(test)]
    pub(crate) fn delta_payload_bytes(&self) -> u64 {
        self.delta_records.iter().map(|d| d.data.len() as u64).sum()
    }

    /// Pages elided because they were all-zero.
    pub fn zero_pages(&self) -> u64 {
        self.zero_ranges.iter().map(|&(_, len)| len).sum()
    }

    /// Serialized size in bytes (header + records + CRC).
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_LEN
            + 16 * self.mmap_blocks.len()
            + 16 * self.zero_ranges.len()
            + self.app_state.len()
            + self.records.iter().map(|r| 16 + r.data.len()).sum::<usize>()
            + self.delta_records.iter().map(|d| 16 + d.data.len()).sum::<usize>()
            + 4
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode into a caller-owned buffer, reusing its capacity.
    ///
    /// The capture pipeline serializes one chunk per checkpoint per
    /// rank; with a recycled buffer the steady-state encode performs no
    /// heap allocation at all (the buffer grows to the largest chunk
    /// seen and stays there). The contents are identical to
    /// [`Chunk::encode`]. The CRC is advanced block by block as the
    /// bytes are appended (`CRC_BLOCK`), so encode sweeps the chunk
    /// once, not once to copy and once more to checksum.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        let mut out = SummedSink { out, crc: Crc32::new(), summed: 0 };
        out.put_slice(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u8(match self.kind {
            ChunkKind::Full => 0,
            ChunkKind::Incremental => 1,
        });
        out.put_u8(0);
        out.put_u32_le(self.rank);
        out.put_u32_le(0);
        out.put_u64_le(self.generation);
        out.put_u64_le(self.parent.unwrap_or(u64::MAX));
        out.put_u64_le(self.capture_time_ns);
        out.put_u64_le(self.heap_pages);
        out.put_u32_le(self.mmap_blocks.len() as u32);
        out.put_u32_le(self.records.len() as u32);
        out.put_u32_le(self.app_state.len() as u32);
        out.put_u32_le(self.zero_ranges.len() as u32);
        out.put_u64_le(self.dropped_pages);
        out.put_u32_le(self.delta_records.len() as u32);
        out.put_u32_le(0);
        for &(start, len) in &self.mmap_blocks {
            out.put_u64_le(start);
            out.put_u64_le(len);
        }
        for &(start, len) in &self.zero_ranges {
            out.put_u64_le(start);
            out.put_u64_le(len);
        }
        out.put_slice(&self.app_state);
        for rec in &self.records {
            assert!(
                rec.data.len() % CHUNK_PAGE_SIZE == 0 && !rec.data.is_empty(),
                "page record data must be whole pages"
            );
            out.put_u64_le(rec.start_page);
            out.put_u64_le(rec.page_count());
            out.put_slice(&rec.data);
        }
        for delta in &self.delta_records {
            assert!(
                delta.mask != 0 && delta.data.len() == delta.block_count() as usize * BLOCK_SIZE,
                "delta record payload must match its block mask"
            );
            out.put_u64_le(delta.page);
            out.put_u16_le(delta.mask);
            out.put_slice(&[0u8; 6]);
            out.put_slice(&delta.data);
        }
        out.sum_pending();
        let crc = out.crc.finalize();
        out.out.put_u32_le(crc);
    }

    /// Decode and verify a chunk, copying page payloads into owned
    /// records. For read paths that only need *some* pages (the restore
    /// planner), [`ChunkView::decode`] verifies the same CRC but leaves
    /// payloads in place.
    pub fn decode(buf: &[u8]) -> Result<Chunk, StorageError> {
        Ok(ChunkView::decode(buf)?.to_owned())
    }
}

/// A record's location within an encoded chunk: the page span plus the
/// byte offset of its payload, with the payload itself left in the
/// encoded buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef {
    /// First page index of the run.
    pub start_page: u64,
    /// Number of pages in the run.
    pub pages: u64,
    /// Byte offset of the run's payload within the encoded chunk.
    payload_offset: usize,
}

impl RecordRef {
    /// Page span of the record as `(start_page, pages)`.
    pub(crate) fn span(&self) -> (u64, u64) {
        (self.start_page, self.pages)
    }
}

/// A delta record's location within an encoded chunk: the target page
/// and changed-block mask, with the block payload left in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRef {
    /// The page this delta rewrites.
    pub page: u64,
    /// Changed-block bitmap, bit `b` ↦ block `b` of the page.
    pub mask: u16,
    /// Byte offset of the changed-block payload within the chunk.
    payload_offset: usize,
}

impl DeltaRef {
    /// Number of changed blocks carried by this record.
    pub(crate) fn block_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Payload length in bytes.
    pub(crate) fn payload_len(&self) -> usize {
        self.block_count() as usize * BLOCK_SIZE
    }
}

/// A CRC-verified, zero-copy view of an encoded chunk.
///
/// Decoding a [`Chunk`] copies every page payload into owned records —
/// O(stored bytes) of memcpy even for pages a restore will never apply.
/// A `ChunkView` parses the same format and verifies the same CRC, but
/// keeps payloads in the encoded buffer and exposes them through
/// `RecordRef`s, so the restore planner can read each *live* page
/// exactly once and never touch superseded ones.
#[derive(Debug)]
pub struct ChunkView<'a> {
    /// Base or delta.
    pub kind: ChunkKind,
    /// Owning rank.
    pub rank: u32,
    /// Checkpoint generation this chunk belongs to.
    pub generation: u64,
    /// Generation this delta applies on top of (`None` for full chunks).
    pub parent: Option<u64>,
    /// Virtual time of capture (nanoseconds).
    pub capture_time_ns: u64,
    /// Heap size at capture, in pages.
    pub heap_pages: u64,
    /// Live mmap blocks at capture (start page, page count).
    pub mmap_blocks: Vec<(u64, u64)>,
    /// Elided all-zero page runs.
    pub zero_ranges: Vec<(u64, u64)>,
    /// Saved page runs, payloads referenced in place.
    pub records: Vec<RecordRef>,
    /// Delta-encoded pages, block payloads referenced in place.
    pub delta_records: Vec<DeltaRef>,
    /// Dirty pages dedup dropped at capture (accounting only).
    pub dropped_pages: u64,
    /// Opaque application/model state.
    pub app_state: &'a [u8],
    /// The encoded buffer the record payloads point into.
    buf: &'a [u8],
}

impl<'a> ChunkView<'a> {
    /// Decode and verify a chunk without copying page payloads.
    pub fn decode(buf: &'a [u8]) -> Result<ChunkView<'a>, StorageError> {
        if buf.len() < HEADER_LEN {
            return Err(StorageError::Corrupt("chunk shorter than minimal header".into()));
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let mut c = Crc32::new();
        c.update(body);
        if c.finalize() != stored_crc {
            return Err(StorageError::Corrupt("CRC mismatch".into()));
        }
        let mut b = body;
        let mut magic = [0u8; 4];
        b.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        let version = b.get_u16_le();
        if version != VERSION {
            return Err(StorageError::Corrupt(format!("unsupported version {version}")));
        }
        let kind = match b.get_u8() {
            0 => ChunkKind::Full,
            1 => ChunkKind::Incremental,
            k => return Err(StorageError::Corrupt(format!("unknown chunk kind {k}"))),
        };
        let _reserved = b.get_u8();
        let rank = b.get_u32_le();
        let _reserved2 = b.get_u32_le();
        let generation = b.get_u64_le();
        let parent_raw = b.get_u64_le();
        let capture_time_ns = b.get_u64_le();
        let heap_pages = b.get_u64_le();
        let n_mmap = b.get_u32_le() as usize;
        let n_records = b.get_u32_le() as usize;
        let app_state_len = b.get_u32_le() as usize;
        let n_zero = b.get_u32_le() as usize;
        let dropped_pages = b.get_u64_le();
        let n_delta = b.get_u32_le() as usize;
        let _reserved3 = b.get_u32_le();
        if b.remaining() < (n_mmap + n_zero) * 16 + app_state_len {
            return Err(StorageError::Corrupt("truncated mmap/zero table".into()));
        }
        let mut mmap_blocks = Vec::with_capacity(n_mmap);
        for _ in 0..n_mmap {
            let start = b.get_u64_le();
            let len = b.get_u64_le();
            mmap_blocks.push((start, len));
        }
        let mut zero_ranges = Vec::with_capacity(n_zero);
        for _ in 0..n_zero {
            let start = b.get_u64_le();
            let len = b.get_u64_le();
            zero_ranges.push((start, len));
        }
        let app_offset = body.len() - b.remaining();
        let app_state = &body[app_offset..app_offset + app_state_len];
        b.advance(app_state_len);
        // Header counts are untrusted until each entry is read: every
        // record or delta header takes at least 16 bytes, so reserve no
        // more entries than the remaining bytes can hold.
        let mut records = Vec::with_capacity(n_records.min(b.remaining() / 16));
        for _ in 0..n_records {
            if b.remaining() < 16 {
                return Err(StorageError::Corrupt("truncated record header".into()));
            }
            let start_page = b.get_u64_le();
            let pages = b.get_u64_le();
            let nbytes = (pages as usize).checked_mul(CHUNK_PAGE_SIZE).ok_or_else(|| {
                StorageError::Corrupt(format!("record page count {pages} overflows"))
            })?;
            if b.remaining() < nbytes {
                return Err(StorageError::Corrupt("truncated record payload".into()));
            }
            let payload_offset = body.len() - b.remaining();
            b.advance(nbytes);
            records.push(RecordRef { start_page, pages, payload_offset });
        }
        let mut delta_records = Vec::with_capacity(n_delta.min(b.remaining() / 16));
        for _ in 0..n_delta {
            if b.remaining() < 16 {
                return Err(StorageError::Corrupt("truncated delta header".into()));
            }
            let page = b.get_u64_le();
            let mask = b.get_u16_le();
            b.advance(6);
            if mask == 0 {
                return Err(StorageError::Corrupt("delta record with empty mask".into()));
            }
            let nbytes = mask.count_ones() as usize * BLOCK_SIZE;
            if b.remaining() < nbytes {
                return Err(StorageError::Corrupt("truncated delta payload".into()));
            }
            let payload_offset = body.len() - b.remaining();
            b.advance(nbytes);
            delta_records.push(DeltaRef { page, mask, payload_offset });
        }
        if b.has_remaining() {
            return Err(StorageError::Corrupt("trailing bytes after records".into()));
        }
        let parent = if parent_raw == u64::MAX { None } else { Some(parent_raw) };
        match (kind, parent) {
            (ChunkKind::Full, Some(_)) => {
                return Err(StorageError::Corrupt("full chunk with a parent".into()))
            }
            (ChunkKind::Incremental, None) => {
                return Err(StorageError::Corrupt("incremental chunk without parent".into()))
            }
            _ => {}
        }
        if kind == ChunkKind::Full && !delta_records.is_empty() {
            return Err(StorageError::Corrupt("full chunk with delta records".into()));
        }
        Ok(ChunkView {
            kind,
            rank,
            generation,
            parent,
            capture_time_ns,
            heap_pages,
            mmap_blocks,
            zero_ranges,
            records,
            delta_records,
            dropped_pages,
            app_state,
            buf,
        })
    }

    /// Payload bytes of `pages` pages of record `rec`, starting
    /// `page_offset` pages into the record.
    pub fn record_pages(&self, rec: usize, page_offset: u64, pages: u64) -> &'a [u8] {
        let r = &self.records[rec];
        assert!(page_offset + pages <= r.pages, "page span outside record");
        let start = r.payload_offset + page_offset as usize * CHUNK_PAGE_SIZE;
        &self.buf[start..start + pages as usize * CHUNK_PAGE_SIZE]
    }

    /// Changed-block payload of delta record `rec`,
    /// `popcount(mask) * BLOCK_SIZE` bytes in ascending block order.
    pub fn delta_data(&self, rec: usize) -> &'a [u8] {
        let d = &self.delta_records[rec];
        &self.buf[d.payload_offset..d.payload_offset + d.payload_len()]
    }

    /// Total saved pages (stored content, excluding elided zeros and
    /// delta-encoded pages).
    #[cfg(test)]
    pub(crate) fn payload_pages(&self) -> u64 {
        self.records.iter().map(|r| r.pages).sum()
    }

    /// Pages elided because they were all-zero.
    #[cfg(test)]
    pub(crate) fn zero_pages(&self) -> u64 {
        self.zero_ranges.iter().map(|&(_, len)| len).sum()
    }

    /// Materialize an owned [`Chunk`], copying payloads.
    pub(crate) fn to_owned(&self) -> Chunk {
        Chunk {
            kind: self.kind,
            rank: self.rank,
            generation: self.generation,
            parent: self.parent,
            capture_time_ns: self.capture_time_ns,
            heap_pages: self.heap_pages,
            mmap_blocks: self.mmap_blocks.clone(),
            zero_ranges: self.zero_ranges.clone(),
            records: self
                .records
                .iter()
                .enumerate()
                .map(|(i, r)| PageRecord {
                    start_page: r.start_page,
                    data: self.record_pages(i, 0, r.pages).to_vec(),
                })
                .collect(),
            delta_records: self
                .delta_records
                .iter()
                .enumerate()
                .map(|(i, d)| DeltaRecord {
                    page: d.page,
                    mask: d.mask,
                    data: self.delta_data(i).to_vec(),
                })
                .collect(),
            dropped_pages: self.dropped_pages,
            app_state: self.app_state.to_vec(),
        }
    }
}

/// Lineage fields read from an encoded chunk's fixed-offset header.
///
/// Produced by [`peek_lineage`] *without* CRC verification, so a chain
/// walk can follow parent links before the (possibly parallel) verify
/// pass; any value here must be treated as untrusted until the chunk's
/// CRC has been checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLineage {
    /// Base or delta.
    pub kind: ChunkKind,
    /// Owning rank.
    pub rank: u32,
    /// Generation of the chunk.
    pub generation: u64,
    /// Parent generation for incremental chunks.
    pub parent: Option<u64>,
}

/// Read the lineage header of an encoded chunk without verifying its
/// CRC. Structural problems (short buffer, bad magic/version/kind) are
/// still reported as corruption.
pub fn peek_lineage(buf: &[u8]) -> Result<ChunkLineage, StorageError> {
    if buf.len() < 60 {
        return Err(StorageError::Corrupt("chunk shorter than minimal header".into()));
    }
    if &buf[0..4] != MAGIC {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(StorageError::Corrupt(format!("unsupported version {version}")));
    }
    let kind = match buf[6] {
        0 => ChunkKind::Full,
        1 => ChunkKind::Incremental,
        k => return Err(StorageError::Corrupt(format!("unknown chunk kind {k}"))),
    };
    let rank = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let generation = u64::from_le_bytes(buf[16..24].try_into().unwrap());
    let parent_raw = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    let parent = if parent_raw == u64::MAX { None } else { Some(parent_raw) };
    Ok(ChunkLineage { kind, rank, generation, parent })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk(kind: ChunkKind) -> Chunk {
        Chunk {
            kind,
            rank: 3,
            generation: 7,
            parent: match kind {
                ChunkKind::Full => None,
                ChunkKind::Incremental => Some(6),
            },
            capture_time_ns: 123_456_789,
            heap_pages: 10,
            mmap_blocks: vec![(100, 4), (200, 2)],
            zero_ranges: vec![(50, 3)],
            records: vec![
                PageRecord { start_page: 0, data: vec![0xAA; CHUNK_PAGE_SIZE * 2] },
                PageRecord { start_page: 100, data: vec![0xBB; CHUNK_PAGE_SIZE] },
            ],
            delta_records: match kind {
                ChunkKind::Full => vec![],
                ChunkKind::Incremental => vec![
                    DeltaRecord { page: 101, mask: 0b101, data: vec![0xCC; 2 * BLOCK_SIZE] },
                    DeltaRecord { page: 202, mask: 0x8000, data: vec![0xDD; BLOCK_SIZE] },
                ],
            },
            dropped_pages: 5,
            app_state: vec![7, 8, 9],
        }
    }

    #[test]
    fn roundtrip_full_and_incremental() {
        for kind in [ChunkKind::Full, ChunkKind::Incremental] {
            let c = sample_chunk(kind);
            let enc = c.encode();
            assert_eq!(enc.len(), c.encoded_len());
            let d = Chunk::decode(&enc).unwrap();
            assert_eq!(c, d);
        }
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let mut buf = vec![0xFFu8; 7]; // stale contents must be discarded
        for kind in [ChunkKind::Full, ChunkKind::Incremental] {
            let c = sample_chunk(kind);
            c.encode_into(&mut buf);
            assert_eq!(buf, c.encode());
            assert_eq!(Chunk::decode(&buf).unwrap(), c);
        }
    }

    /// The format written the plain way — serialize everything, then
    /// one CRC pass over the finished buffer. `encode_into` must produce
    /// these bytes whatever its block structure.
    fn serialize_then_crc(c: &Chunk) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_slice(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u8(match c.kind {
            ChunkKind::Full => 0,
            ChunkKind::Incremental => 1,
        });
        out.put_u8(0);
        out.put_u32_le(c.rank);
        out.put_u32_le(0);
        out.put_u64_le(c.generation);
        out.put_u64_le(c.parent.unwrap_or(u64::MAX));
        out.put_u64_le(c.capture_time_ns);
        out.put_u64_le(c.heap_pages);
        out.put_u32_le(c.mmap_blocks.len() as u32);
        out.put_u32_le(c.records.len() as u32);
        out.put_u32_le(c.app_state.len() as u32);
        out.put_u32_le(c.zero_ranges.len() as u32);
        out.put_u64_le(c.dropped_pages);
        out.put_u32_le(c.delta_records.len() as u32);
        out.put_u32_le(0);
        for &(start, len) in c.mmap_blocks.iter().chain(&c.zero_ranges) {
            out.put_u64_le(start);
            out.put_u64_le(len);
        }
        out.put_slice(&c.app_state);
        for rec in &c.records {
            out.put_u64_le(rec.start_page);
            out.put_u64_le(rec.page_count());
            out.put_slice(&rec.data);
        }
        for delta in &c.delta_records {
            out.put_u64_le(delta.page);
            out.put_u16_le(delta.mask);
            out.put_slice(&[0u8; 6]);
            out.put_slice(&delta.data);
        }
        let crc = crate::crc::crc32(&out);
        out.put_u32_le(crc);
        out
    }

    #[test]
    fn blockwise_crc_encode_equals_serialize_then_crc() {
        let mut x = 0x1DC4_2004u64;
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect()
        };
        let block_pages = CRC_BLOCK / CHUNK_PAGE_SIZE;
        let mut record = |start_page: u64, pages: usize| PageRecord {
            start_page,
            data: bytes(pages * CHUNK_PAGE_SIZE),
        };
        // Record sizes on both sides of the CRC block, alone and mixed.
        let mut shapes: Vec<(&str, Vec<PageRecord>)> = vec![
            ("no records", vec![]),
            ("one page", vec![record(0, 1)]),
            ("block minus a page", vec![record(0, block_pages - 1)]),
            ("exactly a block", vec![record(0, block_pages)]),
            ("block plus a page", vec![record(0, block_pages + 1)]),
            ("several blocks", vec![record(0, 3 * block_pages + 7)]),
            (
                "mixed",
                vec![
                    record(0, 1),
                    record(10, block_pages - 1),
                    record(100, 2),
                    record(200, 2 * block_pages),
                    record(900, 1),
                ],
            ),
        ];
        let mut reused = vec![0xEEu8; 11];
        for (name, records) in shapes.drain(..) {
            let c = Chunk { records, ..sample_chunk(ChunkKind::Full) };
            let want = serialize_then_crc(&c);
            assert_eq!(c.encode(), want, "{name}");
            c.encode_into(&mut reused);
            assert_eq!(reused, want, "{name}: into a reused buffer");
            assert_eq!(want.len(), c.encoded_len(), "{name}");
            assert_eq!(Chunk::decode(&want).unwrap(), c, "{name}");
        }
        // Deltas only: thousands of small records crossing many blocks.
        let deltas: Vec<DeltaRecord> = (0..2000u64)
            .map(|p| {
                let mask = (p as u16).wrapping_mul(0x9E37) | 1;
                DeltaRecord { page: p, mask, data: bytes(mask.count_ones() as usize * BLOCK_SIZE) }
            })
            .collect();
        let c = Chunk {
            records: vec![],
            delta_records: deltas,
            ..sample_chunk(ChunkKind::Incremental)
        };
        assert!(c.encoded_len() > 4 * CRC_BLOCK);
        assert_eq!(c.encode(), serialize_then_crc(&c), "deltas only");
        // An app-state blob larger than a block sits before any record.
        let c = Chunk { app_state: bytes(CRC_BLOCK + 123), ..sample_chunk(ChunkKind::Full) };
        assert_eq!(c.encode(), serialize_then_crc(&c), "large app state");
        // The empty chunk: header and CRC only.
        let c = Chunk {
            mmap_blocks: vec![],
            zero_ranges: vec![],
            records: vec![],
            app_state: vec![],
            ..sample_chunk(ChunkKind::Full)
        };
        assert_eq!(c.encode(), serialize_then_crc(&c), "empty chunk");
        assert_eq!(c.encode().len(), HEADER_LEN + 4);
    }

    #[test]
    fn payload_accounting() {
        let c = sample_chunk(ChunkKind::Full);
        assert_eq!(c.payload_pages(), 3);
        assert_eq!(c.payload_bytes(), 3 * CHUNK_PAGE_SIZE as u64);
        assert_eq!(c.zero_pages(), 3, "elided zero pages are counted separately");
        let c = sample_chunk(ChunkKind::Incremental);
        assert_eq!(c.delta_pages(), 2);
        assert_eq!(c.delta_payload_bytes(), 3 * BLOCK_SIZE as u64);
        assert_eq!(c.payload_bytes(), 3 * CHUNK_PAGE_SIZE as u64 + 3 * BLOCK_SIZE as u64);
    }

    #[test]
    fn delta_records_roundtrip_and_validate() {
        let c = sample_chunk(ChunkKind::Incremental);
        let enc = c.encode();
        assert_eq!(enc.len(), c.encoded_len());
        let v = ChunkView::decode(&enc).unwrap();
        assert_eq!(v.dropped_pages, 5);
        assert_eq!(v.delta_records.len(), 2);
        assert_eq!(v.delta_records[0].page, 101);
        assert_eq!(v.delta_records[0].mask, 0b101);
        assert_eq!(v.delta_data(0), &c.delta_records[0].data[..]);
        assert_eq!(v.delta_data(1), &c.delta_records[1].data[..]);
        assert_eq!(v.to_owned(), c);
        // Block iterator pairs each present block with its page index.
        let blocks: Vec<usize> = c.delta_records[0].blocks().map(|(b, _)| b).collect();
        assert_eq!(blocks, vec![0, 2]);
        let blocks: Vec<usize> = c.delta_records[1].blocks().map(|(b, _)| b).collect();
        assert_eq!(blocks, vec![15]);
    }

    #[test]
    fn full_chunk_with_deltas_rejected() {
        let mut c = sample_chunk(ChunkKind::Full);
        c.delta_records = vec![DeltaRecord { page: 1, mask: 1, data: vec![0u8; BLOCK_SIZE] }];
        assert!(Chunk::decode(&c.encode()).is_err(), "deltas need a parent to chase into");
    }

    #[test]
    fn corruption_detected_anywhere() {
        let c = sample_chunk(ChunkKind::Incremental);
        let enc = c.encode();
        for pos in [0usize, 5, 20, 60, enc.len() / 2, enc.len() - 5] {
            let mut bad = enc.clone();
            bad[pos] ^= 0x40;
            assert!(Chunk::decode(&bad).is_err(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn truncation_detected() {
        let enc = sample_chunk(ChunkKind::Full).encode();
        for keep in [0usize, 10, 59, enc.len() - 1] {
            assert!(Chunk::decode(&enc[..keep]).is_err(), "truncation to {keep} undetected");
        }
    }

    #[test]
    fn lineage_invariants_enforced() {
        let mut c = sample_chunk(ChunkKind::Full);
        c.parent = Some(1);
        assert!(Chunk::decode(&c.encode()).is_err(), "full chunk must have no parent");
        let mut c = sample_chunk(ChunkKind::Incremental);
        c.parent = None;
        assert!(Chunk::decode(&c.encode()).is_err(), "incremental chunk needs a parent");
    }

    #[test]
    fn view_matches_owned_decode() {
        for kind in [ChunkKind::Full, ChunkKind::Incremental] {
            let c = sample_chunk(kind);
            let enc = c.encode();
            let v = ChunkView::decode(&enc).unwrap();
            assert_eq!(v.to_owned(), c);
            assert_eq!(v.payload_pages(), c.payload_pages());
            assert_eq!(v.zero_pages(), c.zero_pages());
            // Record payloads are readable in place, page-addressed.
            for (i, r) in v.records.iter().enumerate() {
                assert_eq!(r.span(), (c.records[i].start_page, c.records[i].page_count()));
                for p in 0..r.pages {
                    assert_eq!(
                        v.record_pages(i, p, 1),
                        &c.records[i].data
                            [p as usize * CHUNK_PAGE_SIZE..(p as usize + 1) * CHUNK_PAGE_SIZE]
                    );
                }
            }
        }
    }

    #[test]
    fn view_rejects_corruption_like_decode() {
        let enc = sample_chunk(ChunkKind::Incremental).encode();
        for pos in [0usize, 5, 20, 60, enc.len() / 2, enc.len() - 5] {
            let mut bad = enc.clone();
            bad[pos] ^= 0x40;
            assert!(ChunkView::decode(&bad).is_err(), "flip at {pos} undetected");
        }
        assert!(ChunkView::decode(&enc[..40]).is_err());
    }

    #[test]
    fn huge_header_counts_with_a_valid_crc_are_rejected() {
        // n_records sits at header offset 52, n_delta at 72. A CRC-valid
        // chunk claiming u32::MAX of either must fail decode, not
        // reserve the claimed count up front.
        let enc = sample_chunk(ChunkKind::Incremental).encode();
        for offset in [52usize, 72] {
            let mut bad = enc.clone();
            bad[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let body = bad.len() - 4;
            let crc = crate::crc::crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            assert!(ChunkView::decode(&bad).is_err(), "count at offset {offset} accepted");
            assert!(Chunk::decode(&bad).is_err(), "count at offset {offset} accepted");
        }
    }

    #[test]
    fn peek_lineage_reads_header_without_crc() {
        let c = sample_chunk(ChunkKind::Incremental);
        let mut enc = c.encode();
        let l = peek_lineage(&enc).unwrap();
        assert_eq!(
            l,
            ChunkLineage { kind: c.kind, rank: c.rank, generation: c.generation, parent: c.parent }
        );
        // Payload corruption is invisible to the peek (that is the
        // point: the CRC pass catches it later)...
        let last = enc.len() - 1;
        enc[last] ^= 0xFF;
        assert!(peek_lineage(&enc).is_ok());
        // ...but structural damage is not.
        enc[0] ^= 0xFF;
        assert!(peek_lineage(&enc).is_err(), "bad magic");
        enc[0] ^= 0xFF;
        enc[6] = 9;
        assert!(peek_lineage(&enc).is_err(), "bad kind byte");
        assert!(peek_lineage(&enc[..10]).is_err(), "short buffer");
    }

    #[test]
    fn empty_records_roundtrip() {
        let c = Chunk {
            kind: ChunkKind::Full,
            rank: 0,
            generation: 0,
            parent: None,
            capture_time_ns: 0,
            heap_pages: 0,
            mmap_blocks: vec![],
            zero_ranges: vec![],
            records: vec![],
            delta_records: vec![],
            dropped_pages: 0,
            app_state: vec![],
        };
        let d = Chunk::decode(&c.encode()).unwrap();
        assert_eq!(c, d);
        assert_eq!(d.payload_bytes(), 0);
    }
}
