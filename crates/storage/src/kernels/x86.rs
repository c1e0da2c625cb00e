//! x86_64 CRC backend: PCLMULQDQ folding.
//!
//! Dispatch safety contract: [`crc32_advance_pclmul`] is only handed
//! out by [`pclmul`] after the runtime check has confirmed
//! `pclmulqdq` and `sse4.1`, so by the time it is called the required
//! instructions are present. Every other kernel is plain safe Rust in
//! the parent module: per DESIGN.md §15's per-page table only this
//! fold separates from its scalar neighbour on perf/.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

use super::CrcBackend;

/// The PCLMULQDQ backend, if this host can run it.
pub(super) fn pclmul() -> Option<CrcBackend> {
    (is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
        .then_some(CrcBackend { name: "pclmul", advance: crc32_advance_pclmul })
}

// ------------------------------------------------------------- PCLMULQDQ

// Folding constants for the reflected IEEE CRC-32 polynomial
// (the classic Gopal et al. white-paper values, as used by zlib and
// crc32fast): K1/K2 fold 512 bits by 128, K3/K4 fold 128 by 128,
// K5 folds 96→64, MU/POLY are the Barrett reduction pair.
const K1: i64 = 0x01_5444_2bd4;
const K2: i64 = 0x01_c6e4_1596;
const K3: i64 = 0x01_7519_97d0;
const K4: i64 = 0x00_ccaa_009e;
const K5: i64 = 0x01_63cd_6124;
const MU: i64 = 0x01_f701_1641;
const POLY: i64 = 0x01_db71_0641;

fn crc32_advance_pclmul(state: u32, data: &[u8]) -> u32 {
    if data.len() < 64 {
        return crate::crc::update_slice8(state, data);
    }
    // SAFETY: only handed out after runtime detection of pclmulqdq +
    // sse4.1 (see `pclmul`), and `data.len() >= 64` holds here.
    unsafe { crc32_pclmul_impl(state, data) }
}

/// Fold `x` down by 128 bits against the next 128-bit word `next`.
///
/// # Safety
/// Caller must ensure the CPU supports PCLMULQDQ and SSE4.1.
#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn fold16(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(x, k);
    let hi = _mm_clmulepi64_si128::<0x11>(x, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// # Safety
/// Caller must ensure the CPU supports PCLMULQDQ and SSE4.1, and that
/// `data.len() >= 64`.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn crc32_pclmul_impl(state: u32, data: &[u8]) -> u32 {
    let len = data.len();
    let p = data.as_ptr();
    // Prime four 128-bit accumulators with the first 64 bytes and fold
    // the incoming CRC state into the first word.
    let mut x3 = _mm_loadu_si128(p.cast());
    x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
    let mut x2 = _mm_loadu_si128(p.add(16).cast());
    let mut x1 = _mm_loadu_si128(p.add(32).cast());
    let mut x0 = _mm_loadu_si128(p.add(48).cast());
    let mut off = 64;

    // Fold 64 bytes at a time: four independent carry-less multiply
    // chains, one per accumulator.
    let k1k2 = _mm_set_epi64x(K2, K1);
    while off + 64 <= len {
        x3 = fold16(x3, _mm_loadu_si128(p.add(off).cast()), k1k2);
        x2 = fold16(x2, _mm_loadu_si128(p.add(off + 16).cast()), k1k2);
        x1 = fold16(x1, _mm_loadu_si128(p.add(off + 32).cast()), k1k2);
        x0 = fold16(x0, _mm_loadu_si128(p.add(off + 48).cast()), k1k2);
        off += 64;
    }

    // Reduce the four accumulators to one, then fold any remaining
    // whole 16-byte words.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold16(x3, x2, k3k4);
    x = fold16(x, x1, k3k4);
    x = fold16(x, x0, k3k4);
    while off + 16 <= len {
        x = fold16(x, _mm_loadu_si128(p.add(off).cast()), k3k4);
        off += 16;
    }

    // Fold 128 → 64 bits, then 96 → 64, then Barrett-reduce to 32.
    let mask32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );
    let mu_poly = _mm_set_epi64x(MU, POLY);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), mu_poly);
    let t2 = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, mask32), mu_poly), x);
    let folded = _mm_extract_epi32::<1>(t2) as u32;

    // Trailing sub-16-byte bytes go through the scalar kernel.
    crate::crc::update_bytewise(folded, &data[off..])
}
