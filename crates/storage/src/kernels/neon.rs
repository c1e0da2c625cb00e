//! aarch64 NEON kernel backend.
//!
//! NEON (ASIMD) is part of the aarch64 baseline, so no runtime
//! detection is needed — the table is always usable on this
//! architecture. The byte-parallel kernels (zero scan, XOR, compare)
//! are where NEON pays; block hashing stays on the scalar multiplier
//! like on every other host (`super::fused_scan`).

#![allow(unsafe_code)]

use std::arch::aarch64::{vceqq_u8, veorq_u8, vld1q_u8, vmaxvq_u8, vminvq_u8, vorrq_u8, vst1q_u8};

use super::{scalar, Kernels};

/// The NEON tier: always available on aarch64.
pub(crate) fn table() -> Kernels {
    Kernels {
        name: "neon",
        is_zero: is_zero_neon,
        xor_acc: xor_acc_neon,
        crc32_advance: crate::crc::update_slice8,
        bytes_eq: bytes_eq_neon,
    }
}

fn is_zero_neon(data: &[u8]) -> bool {
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        let p = chunk.as_ptr();
        // SAFETY: `chunk` is exactly 64 bytes, so all four 16-byte
        // loads are in bounds; vld1q_u8 has no alignment requirement;
        // NEON is aarch64 baseline.
        let max = unsafe {
            let a = vld1q_u8(p);
            let b = vld1q_u8(p.add(16));
            let c = vld1q_u8(p.add(32));
            let d = vld1q_u8(p.add(48));
            vmaxvq_u8(vorrq_u8(vorrq_u8(a, b), vorrq_u8(c, d)))
        };
        if max != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == 0)
}

fn xor_acc_neon(acc: &mut [u8], data: &[u8]) {
    debug_assert_eq!(acc.len(), data.len());
    let n = acc.len().min(data.len());
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n <= len` of both slices keeps the load
        // and store in bounds; the store goes through `acc`'s own
        // mutable pointer; NEON is aarch64 baseline.
        unsafe {
            let a = vld1q_u8(acc.as_ptr().add(i));
            let d = vld1q_u8(data.as_ptr().add(i));
            vst1q_u8(acc.as_mut_ptr().add(i), veorq_u8(a, d));
        }
        i += 16;
    }
    scalar::xor_acc(&mut acc[i..n], &data[i..n]);
}

fn bytes_eq_neon(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let n = a.len();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` = both slices' length, so both loads
        // are in bounds; NEON is aarch64 baseline.
        let min = unsafe {
            let va = vld1q_u8(a.as_ptr().add(i));
            let vb = vld1q_u8(b.as_ptr().add(i));
            vminvq_u8(vceqq_u8(va, vb))
        };
        if min != 0xFF {
            return false;
        }
        i += 16;
    }
    a[i..] == b[i..]
}
