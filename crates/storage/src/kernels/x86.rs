//! x86_64 kernel backends: SSE2 (baseline), AVX2, and PCLMULQDQ CRC.
//!
//! Dispatch safety contract: every `*_avx2` / `*_pclmul` wrapper in
//! this file is only ever installed into a [`Kernels`] table after
//! [`available`] has confirmed the matching CPUID feature at runtime,
//! so by the time a table entry is called the required instructions
//! are guaranteed present. SSE2 needs no detection — it is part of the
//! x86_64 baseline ABI.
//!
//! Block hashing has no tier here: per 4 KiB page of a buffer larger
//! than the caches, the scalar hash is faster than a fused SIMD scan
//! (DESIGN.md §15).

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm256_loadu_si256, _mm256_or_si256, _mm256_storeu_si256, _mm256_testz_si256,
    _mm256_xor_si256, _mm512_loadu_si512, _mm512_mask_storeu_epi8, _mm512_storeu_si512,
    _mm512_xor_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cmpeq_epi8, _mm_cvtsi32_si128,
    _mm_extract_epi32, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_setzero_si128, _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use super::{scalar, Kernels};

/// SSE2 tier: vectorized zero scan / XOR / compare (baseline on
/// x86_64), slice-by-8 CRC.
pub(crate) static SSE2: Kernels = Kernels {
    name: "sse2",
    is_zero: is_zero_sse2,
    xor_acc: xor_acc_sse2,
    crc32_advance: crate::crc::update_slice8,
    bytes_eq: bytes_eq_sse2,
};

/// AVX2 tier: 32-byte-wide zero scan, XOR and compare.
static AVX2: Kernels = Kernels {
    name: "avx2",
    is_zero: is_zero_avx2,
    xor_acc: xor_acc_avx2,
    crc32_advance: crate::crc::update_slice8,
    bytes_eq: bytes_eq_avx2,
};

/// AVX-512VL tier: the AVX2 zero scan and compare, zmm XOR.
static AVX512: Kernels = Kernels {
    name: "avx512vl",
    is_zero: is_zero_avx2,
    xor_acc: xor_acc_avx512,
    crc32_advance: crate::crc::update_slice8,
    bytes_eq: bytes_eq_avx2,
};

fn with_pclmul(mut base: Kernels, name: &'static str) -> Kernels {
    base.crc32_advance = crc32_advance_pclmul;
    base.name = name;
    base
}

/// Every tier this host can run, weakest first.
pub(crate) fn available() -> Vec<Kernels> {
    let mut tables = vec![SSE2];
    let pclmul = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
    if pclmul {
        tables.push(with_pclmul(SSE2, "sse2+pclmul"));
    }
    if is_x86_feature_detected!("avx2") {
        tables.push(AVX2);
        if pclmul {
            tables.push(with_pclmul(AVX2, "avx2+pclmul"));
        }
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
        {
            tables.push(AVX512);
            if pclmul {
                tables.push(with_pclmul(AVX512, "avx512vl+pclmul"));
            }
        }
    }
    tables
}

/// Best tier for this host.
pub(crate) fn best() -> Kernels {
    available().pop().unwrap_or(SSE2)
}

// ---------------------------------------------------------------- SSE2

fn is_zero_sse2(data: &[u8]) -> bool {
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        let p = chunk.as_ptr();
        // SAFETY: `chunk` is exactly 64 bytes, so the four 16-byte
        // unaligned loads below are in bounds; SSE2 is x86_64 baseline.
        let acc = unsafe {
            let a = _mm_loadu_si128(p.cast());
            let b = _mm_loadu_si128(p.add(16).cast());
            let c = _mm_loadu_si128(p.add(32).cast());
            let d = _mm_loadu_si128(p.add(48).cast());
            _mm_or_si128(_mm_or_si128(a, b), _mm_or_si128(c, d))
        };
        // SAFETY: SSE2 is x86_64 baseline.
        let all_zero = unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(acc, _mm_setzero_si128())) };
        if all_zero != 0xFFFF {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == 0)
}

fn xor_acc_sse2(acc: &mut [u8], data: &[u8]) {
    debug_assert_eq!(acc.len(), data.len());
    let n = acc.len().min(data.len());
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n <= len` of both slices, so the 16-byte
        // unaligned load/store pair stays in bounds; the store writes
        // through `acc`'s own mutable pointer. SSE2 is baseline.
        unsafe {
            let a = _mm_loadu_si128(acc.as_ptr().add(i).cast());
            let d = _mm_loadu_si128(data.as_ptr().add(i).cast());
            _mm_storeu_si128(acc.as_mut_ptr().add(i).cast(), _mm_xor_si128(a, d));
        }
        i += 16;
    }
    scalar::xor_acc(&mut acc[i..n], &data[i..n]);
}

fn bytes_eq_sse2(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let n = a.len();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` = both slices' length, so both 16-byte
        // unaligned loads are in bounds; SSE2 is x86_64 baseline.
        let mask = unsafe {
            let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let vb = _mm_loadu_si128(b.as_ptr().add(i).cast());
            _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb))
        };
        if mask != 0xFFFF {
            return false;
        }
        i += 16;
    }
    a[i..] == b[i..]
}

// ---------------------------------------------------------------- AVX2

fn is_zero_avx2(data: &[u8]) -> bool {
    // SAFETY: this function is only installed in a dispatch table after
    // `is_x86_feature_detected!("avx2")` (see `available`).
    unsafe { is_zero_avx2_impl(data) }
}

/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn is_zero_avx2_impl(data: &[u8]) -> bool {
    let mut chunks = data.chunks_exact(128);
    for chunk in &mut chunks {
        let p = chunk.as_ptr();
        let a = _mm256_loadu_si256(p.cast());
        let b = _mm256_loadu_si256(p.add(32).cast());
        let c = _mm256_loadu_si256(p.add(64).cast());
        let d = _mm256_loadu_si256(p.add(96).cast());
        let acc = _mm256_or_si256(_mm256_or_si256(a, b), _mm256_or_si256(c, d));
        if _mm256_testz_si256(acc, acc) == 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == 0)
}

fn xor_acc_avx2(acc: &mut [u8], data: &[u8]) {
    // SAFETY: only installed after runtime AVX2 detection (`available`).
    unsafe { xor_acc_avx2_impl(acc, data) }
}

/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn xor_acc_avx2_impl(acc: &mut [u8], data: &[u8]) {
    debug_assert_eq!(acc.len(), data.len());
    let n = acc.len().min(data.len());
    let mut i = 0;
    while i + 64 <= n {
        let a0 = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
        let a1 = _mm256_loadu_si256(acc.as_ptr().add(i + 32).cast());
        let d0 = _mm256_loadu_si256(data.as_ptr().add(i).cast());
        let d1 = _mm256_loadu_si256(data.as_ptr().add(i + 32).cast());
        _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), _mm256_xor_si256(a0, d0));
        _mm256_storeu_si256(acc.as_mut_ptr().add(i + 32).cast(), _mm256_xor_si256(a1, d1));
        i += 64;
    }
    while i + 32 <= n {
        let a = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
        let d = _mm256_loadu_si256(data.as_ptr().add(i).cast());
        _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), _mm256_xor_si256(a, d));
        i += 32;
    }
    scalar::xor_acc(&mut acc[i..n], &data[i..n]);
}

fn bytes_eq_avx2(a: &[u8], b: &[u8]) -> bool {
    // SAFETY: only installed after runtime AVX2 detection (`available`).
    unsafe { bytes_eq_avx2_impl(a, b) }
}

/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn bytes_eq_avx2_impl(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let n = a.len();
    let mut i = 0;
    while i + 32 <= n {
        let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
        let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
        let diff = _mm256_xor_si256(va, vb);
        if _mm256_testz_si256(diff, diff) == 0 {
            return false;
        }
        i += 32;
    }
    a[i..] == b[i..]
}

// ----------------------------------------------------------- AVX-512VL

fn xor_acc_avx512(acc: &mut [u8], data: &[u8]) {
    // SAFETY: only installed after runtime AVX-512F/DQ/BW/VL detection
    // (`available`).
    unsafe { xor_acc_avx512_impl(acc, data) }
}

/// # Safety
/// Caller must ensure the CPU supports AVX-512F and AVX-512BW.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn xor_acc_avx512_impl(acc: &mut [u8], data: &[u8]) {
    debug_assert_eq!(acc.len(), data.len());
    let n = acc.len().min(data.len());
    if n < 128 {
        return xor_acc_avx2_impl(acc, data);
    }
    let mut i = 0;
    // A zmm store that splits a cache line costs double, and the store
    // port is the bottleneck of this kernel (two load ports absorb
    // split loads; the lone store stream cannot). One byte-masked head
    // store aligns every following store to `acc`'s cache line. XOR
    // accumulate is not idempotent, so the head must be masked exactly
    // — the overlapping-copy trick would fold the overlap twice.
    let mis = acc.as_ptr() as usize & 63;
    if mis != 0 {
        let head = 64 - mis;
        let a = _mm512_loadu_si512(acc.as_ptr().cast());
        let d = _mm512_loadu_si512(data.as_ptr().cast());
        // `head < 64`, so the shift cannot overflow; `n >= 128` keeps
        // the full-width loads above in bounds.
        let mask: u64 = (1u64 << head) - 1;
        _mm512_mask_storeu_epi8(acc.as_mut_ptr().cast(), mask, _mm512_xor_si512(a, d));
        i = head;
    }
    // Full-width zmm: one 64-byte lane per load-pair/store, four lanes
    // per iteration to keep both load ports saturated.
    while i + 256 <= n {
        let a0 = _mm512_loadu_si512(acc.as_ptr().add(i).cast());
        let a1 = _mm512_loadu_si512(acc.as_ptr().add(i + 64).cast());
        let a2 = _mm512_loadu_si512(acc.as_ptr().add(i + 128).cast());
        let a3 = _mm512_loadu_si512(acc.as_ptr().add(i + 192).cast());
        let d0 = _mm512_loadu_si512(data.as_ptr().add(i).cast());
        let d1 = _mm512_loadu_si512(data.as_ptr().add(i + 64).cast());
        let d2 = _mm512_loadu_si512(data.as_ptr().add(i + 128).cast());
        let d3 = _mm512_loadu_si512(data.as_ptr().add(i + 192).cast());
        _mm512_storeu_si512(acc.as_mut_ptr().add(i).cast(), _mm512_xor_si512(a0, d0));
        _mm512_storeu_si512(acc.as_mut_ptr().add(i + 64).cast(), _mm512_xor_si512(a1, d1));
        _mm512_storeu_si512(acc.as_mut_ptr().add(i + 128).cast(), _mm512_xor_si512(a2, d2));
        _mm512_storeu_si512(acc.as_mut_ptr().add(i + 192).cast(), _mm512_xor_si512(a3, d3));
        i += 256;
    }
    while i + 64 <= n {
        let a0 = _mm512_loadu_si512(acc.as_ptr().add(i).cast());
        let d0 = _mm512_loadu_si512(data.as_ptr().add(i).cast());
        _mm512_storeu_si512(acc.as_mut_ptr().add(i).cast(), _mm512_xor_si512(a0, d0));
        i += 64;
    }
    xor_acc_avx2_impl(&mut acc[i..n], &data[i..n]);
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
    // SAFETY: only installed after runtime detection of pclmulqdq +
    // sse4.1 (see `available`), and `data.len() >= 64` holds here.
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
