//! Byte-touching kernels for the capture hot path.
//!
//! Every captured page is swept several times — zero scan, block
//! hashes, CRC inside chunk encode, XOR for parity. All of them are
//! plain safe Rust except the CRC, the one sweep whose hand-written
//! SIMD form separates from scalar on perf/ (DESIGN.md §15):
//!
//! * [`fused_scan`] — a page's identity triple: all per-256 B-block
//!   hashes, the page hash derived merkle-style from them (see
//!   `crate::hash::page_hash_of_blocks`), and zero-page detection, in
//!   that order.
//! * [`is_zero`] / [`hashes_eq`] / `xor_acc` — word-at-a-time zero
//!   scan, silent-store block compare, and parity XOR accumulate.
//! * `crc32_advance` — the one dispatched kernel: PCLMULQDQ folding on
//!   x86_64 when the CPU has it, slice-by-8 otherwise.
//!
//! # Dispatch
//!
//! CPU features are detected once and resolved into a `CrcBackend`
//! stored in a [`OnceLock`]:
//!
//! | backend  | arch   | requires                        |
//! |----------|--------|---------------------------------|
//! | `scalar` | any    | nothing — slice-by-8, the reference |
//! | `pclmul` | x86_64 | runtime `pclmulqdq` + `sse4.1`  |
//!
//! Both compute the identical CRC, pinned by the property suite in
//! `kernel_props.rs` (misaligned slices, odd lengths, streaming
//! splits). `ICKPT_KERNELS=scalar` forces the reference; `auto` (or
//! unset) picks the best detected backend; a malformed value exits
//! with status 2, like every `ICKPT_*` knob ([`ickpt_sim::env`]).

use std::sync::OnceLock;

use crate::hash::{hash64, page_hash_of_blocks, BLOCKS_PER_PAGE, BLOCK_SIZE};
use crate::CHUNK_PAGE_SIZE;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Environment knob selecting the CRC backend.
pub(crate) const KERNELS_ENV: &str = "ICKPT_KERNELS";

/// Result of the page scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedScan {
    /// True iff every scanned byte was zero.
    pub is_zero: bool,
    /// Page identity digest, derived from the block digests
    /// (`crate::hash::page_hash_of_blocks`).
    pub page_hash: u64,
}

/// One CRC backend. Every backend computes the identical CRC; only
/// the instructions differ.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrcBackend {
    /// Backend name: `"scalar"` or `"pclmul"`.
    pub name: &'static str,
    /// Advance a raw (pre-finalize) CRC-32 state over `data`.
    pub advance: fn(u32, &[u8]) -> u32,
}

/// The always-available reference backend: slice-by-8.
pub(crate) static SCALAR: CrcBackend =
    CrcBackend { name: "scalar", advance: crate::crc::update_slice8 };

/// Backend selection parsed from [`KERNELS_ENV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BackendChoice {
    /// Force the scalar reference backend.
    Scalar,
    /// Best backend the CPU supports (the default).
    Auto,
}

/// Parse an `ICKPT_KERNELS` value (an [`ickpt_sim::env::Parser`]).
pub(crate) fn parse_backend(raw: &str) -> Result<BackendChoice, &'static str> {
    match raw {
        "scalar" => Ok(BackendChoice::Scalar),
        "auto" => Ok(BackendChoice::Auto),
        _ => Err("\"scalar\" or \"auto\""),
    }
}

/// Every backend that can run on this host, scalar reference first.
/// Property tests iterate this to assert all backends agree.
pub(crate) fn available() -> Vec<CrcBackend> {
    #[cfg(target_arch = "x86_64")]
    let pclmul = x86::pclmul();
    #[cfg(not(target_arch = "x86_64"))]
    let pclmul = None;
    std::iter::once(SCALAR).chain(pclmul).collect()
}

static ACTIVE: OnceLock<CrcBackend> = OnceLock::new();

/// The resolved CRC backend: detected once, then a plain indirect call
/// per CRC update.
#[inline]
fn active() -> &'static CrcBackend {
    ACTIVE.get_or_init(|| match ickpt_sim::env::knob(KERNELS_ENV, parse_backend) {
        Some(BackendChoice::Scalar) => SCALAR,
        Some(BackendChoice::Auto) | None => *available().last().expect("scalar is always there"),
    })
}

/// Name of the active CRC backend (for reports and logs).
pub fn backend_name() -> &'static str {
    active().name
}

/// True iff `data` is entirely zero bytes.
///
/// Word-at-a-time with a 64-byte early-exit stride: `chunks_exact(8)`
/// with `from_le_bytes` compiles to plain 8-byte loads, and a non-zero
/// page stops at its first non-zero 64 bytes.
pub fn is_zero(data: &[u8]) -> bool {
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        let mut acc = 0u64;
        for word in chunk.chunks_exact(8) {
            acc |= u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        }
        if acc != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == 0)
}

/// Page scan: one block hash per [`BLOCK_SIZE`] bytes into
/// `block_hashes`, the page hash derived from them, and the zero
/// check, in three passes:
/// `out[i] == hash64(&data[i*256..][..256])`,
/// `page_hash == page_hash_of_blocks(out)`,
/// `is_zero == data.iter().all(|b| *b == 0)`.
///
/// Panics unless `data` is one whole page ([`CHUNK_PAGE_SIZE`] bytes).
#[inline]
pub fn fused_scan(data: &[u8], block_hashes: &mut [u64; BLOCKS_PER_PAGE]) -> FusedScan {
    assert_eq!(data.len(), CHUNK_PAGE_SIZE, "fused_scan takes one whole page");
    for (slot, block) in block_hashes.iter_mut().zip(data.chunks_exact(BLOCK_SIZE)) {
        *slot = hash64(block);
    }
    let page_hash = page_hash_of_blocks(block_hashes);
    FusedScan { is_zero: is_zero(data), page_hash }
}

/// XOR-accumulate `data` into `acc` (`acc[i] ^= data[i]`).
///
/// Panics unless the slices have equal length — callers slice to the
/// overlap they mean to fold.
#[inline]
pub(crate) fn xor_acc(acc: &mut [u8], data: &[u8]) {
    assert_eq!(acc.len(), data.len(), "xor_acc needs equal-length slices");
    for (a, b) in acc.iter_mut().zip(data) {
        *a ^= b;
    }
}

/// Advance a raw CRC-32 state (pre-inversion form, as stored in
/// [`crate::crc::Crc32`]) over `data`.
#[inline]
pub(crate) fn crc32_advance(state: u32, data: &[u8]) -> u32 {
    (active().advance)(state, data)
}

/// Equality of two hash arrays (the per-page silent-store check
/// compares 16 block digests at once).
#[inline]
pub fn hashes_eq(a: &[u64], b: &[u64]) -> bool {
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_backend_is_strict() {
        assert_eq!(parse_backend("scalar"), Ok(BackendChoice::Scalar));
        assert_eq!(parse_backend("auto"), Ok(BackendChoice::Auto));
        for bad in ["", "Scalar", "AUTO", "avx2", "scalar,auto", "1", "simd", "pclmul"] {
            assert!(parse_backend(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn scalar_table_is_always_available() {
        assert_eq!(available()[0].name, "scalar");
    }

    #[test]
    fn active_backend_has_a_name() {
        assert!(["scalar", "pclmul"].contains(&backend_name()));
    }
}
