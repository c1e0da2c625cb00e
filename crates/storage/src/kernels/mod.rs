//! Runtime-dispatched byte-touching kernels for the capture hot path.
//!
//! Every captured page is swept several times — zero scan, block
//! hashes, CRC inside chunk encode, XOR for parity. This module runs
//! the sweeps whose SIMD form measurably beats scalar through a
//! dispatch table, and keeps the page scan on the plain scalar hash:
//!
//! * [`fused_scan`] — a page's identity triple: all per-256 B-block
//!   hashes, the page hash derived merkle-style from them (see
//!   `crate::hash::page_hash_of_blocks`), and zero-page detection.
//!   It is the three separate passes, in that order; only the zero
//!   scan is dispatched. Per 4 KiB page of a buffer larger than the
//!   caches, the scalar hash outran every hand-fused SIMD variant
//!   (DESIGN.md §15).
//! * [`is_zero`] / `bytes_eq` / `xor_acc` — vectorized zero scan,
//!   silent-store block compare, and parity XOR accumulate.
//! * `crc32_advance` — dispatched CRC-32 state advance (PCLMULQDQ
//!   folding on x86_64 when available, slice-by-8 otherwise).
//!
//! # Dispatch
//!
//! CPU features are detected once and resolved into a function-pointer
//! table (`Kernels`) stored in a [`OnceLock`]. The tiers are:
//!
//! | table      | arch          | requires                          |
//! |------------|---------------|-----------------------------------|
//! | `scalar`   | any           | nothing — the reference backend   |
//! | `sse2`     | x86_64        | baseline (always present)         |
//! | `avx2`     | x86_64        | runtime `avx2`                    |
//! | `avx512vl` | x86_64        | runtime `avx512f`+`dq`+`bw`+`vl`  |
//! | `+pclmul`  | x86_64        | runtime `pclmulqdq` + `sse4.1`    |
//! | `neon`     | aarch64       | baseline (always present)         |
//!
//! Every accelerated kernel computes the *identical function* to the
//! scalar reference — same CRC, same bytes — pinned by the property
//! suite in `kernel_props.rs` (misaligned slices, odd lengths,
//! all-backends-agree). `ICKPT_KERNELS=scalar` forces the reference
//! backend; `auto` (or unset) picks the best detected tier; a malformed
//! value exits with status 2, like every `ICKPT_*` knob
//! ([`ickpt_sim::env`]).

use std::sync::OnceLock;

use crate::hash::{hash64, page_hash_of_blocks, BLOCK_SIZE};

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Environment knob selecting the kernel backend.
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

/// One resolved backend: a table of kernel function pointers.
///
/// All entries compute bit-identical results across backends; only the
/// instructions differ. The table is `Copy` so composite tiers (e.g.
/// AVX2 hashing + PCLMULQDQ CRC) are built by overriding fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernels {
    /// Backend name, e.g. `"scalar"`, `"avx2+pclmul"`.
    pub name: &'static str,
    /// True iff the slice is all zero bytes.
    pub is_zero: fn(&[u8]) -> bool,
    /// `acc[i] ^= data[i]` over two equal-length slices.
    pub xor_acc: fn(&mut [u8], &[u8]),
    /// Advance a raw (pre-finalize) CRC-32 state over `data`.
    pub crc32_advance: fn(u32, &[u8]) -> u32,
    /// Slice equality (length + bytes).
    pub bytes_eq: fn(&[u8], &[u8]) -> bool,
}

/// The always-available reference backend: the scalar
/// implementations every other tier is tested against, and the table
/// of architectures with no SIMD backend.
pub(crate) static SCALAR: Kernels = Kernels {
    name: "scalar",
    is_zero: scalar::is_zero,
    xor_acc: scalar::xor_acc,
    crc32_advance: crate::crc::update_slice8,
    bytes_eq: scalar::bytes_eq,
};

/// Backend selection parsed from [`KERNELS_ENV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BackendChoice {
    /// Force the scalar reference backend.
    Scalar,
    /// Best tier the CPU supports (the default).
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

/// Best table the host supports, ignoring the env knob.
fn best() -> Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        x86::best()
    }
    #[cfg(target_arch = "aarch64")]
    {
        neon::table()
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SCALAR
    }
}

/// Every table that can run on this host, scalar reference first.
/// Property tests iterate this to assert all-backends-agree.
#[cfg(test)]
pub(crate) fn available() -> Vec<Kernels> {
    let mut tables = vec![SCALAR];
    #[cfg(target_arch = "x86_64")]
    tables.extend(x86::available());
    #[cfg(target_arch = "aarch64")]
    tables.push(neon::table());
    tables
}

static ACTIVE: OnceLock<Kernels> = OnceLock::new();

/// The resolved dispatch table: detected once, then a plain indirect
/// call per kernel invocation.
#[inline]
pub(crate) fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| match ickpt_sim::env::knob(KERNELS_ENV, parse_backend) {
        Some(BackendChoice::Scalar) => SCALAR,
        Some(BackendChoice::Auto) | None => best(),
    })
}

/// Name of the active backend (for reports and logs).
pub fn backend_name() -> &'static str {
    active().name
}

/// True iff `data` is entirely zero bytes.
#[inline]
pub fn is_zero(data: &[u8]) -> bool {
    (active().is_zero)(data)
}

/// Page scan: one block hash per [`BLOCK_SIZE`] bytes into
/// `block_hashes`, the page hash derived from them, and the dispatched
/// zero check, in three passes:
/// `out[i] == hash64(&data[i*256..][..256])`,
/// `page_hash == page_hash_of_blocks(out)`,
/// `is_zero == data.iter().all(|b| *b == 0)`.
///
/// Panics unless `data.len() == block_hashes.len() * BLOCK_SIZE`.
#[inline]
pub fn fused_scan(data: &[u8], block_hashes: &mut [u64]) -> FusedScan {
    assert_eq!(
        data.len(),
        block_hashes.len() * BLOCK_SIZE,
        "fused_scan needs one hash slot per {BLOCK_SIZE}-byte block"
    );
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
    (active().xor_acc)(acc, data)
}

/// Advance a raw CRC-32 state (pre-inversion form, as stored in
/// [`crate::crc::Crc32`]) over `data`.
#[inline]
pub(crate) fn crc32_advance(state: u32, data: &[u8]) -> u32 {
    (active().crc32_advance)(state, data)
}

/// Vectorized equality of two hash arrays (the per-page silent-store
/// check compares 16 block digests at once).
#[inline]
pub fn hashes_eq(a: &[u64], b: &[u64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // SAFETY: any initialized `u64` slice is a valid `u8` slice of 8×
    // the length at the same address; alignment only loosens (8 → 1)
    // and the lifetime is inherited from the borrow.
    let ab = unsafe { std::slice::from_raw_parts(a.as_ptr().cast::<u8>(), a.len() * 8) };
    // SAFETY: as above.
    let bb = unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u8>(), b.len() * 8) };
    (active().bytes_eq)(ab, bb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_backend_is_strict() {
        assert_eq!(parse_backend("scalar"), Ok(BackendChoice::Scalar));
        assert_eq!(parse_backend("auto"), Ok(BackendChoice::Auto));
        for bad in ["", "Scalar", "AUTO", "avx2", "scalar,auto", "1", "simd"] {
            assert!(parse_backend(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn scalar_table_is_always_available() {
        assert_eq!(available()[0].name, "scalar");
    }

    #[test]
    fn active_backend_has_a_name() {
        assert!(!backend_name().is_empty());
    }
}
