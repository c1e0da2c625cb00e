//! Scalar kernel backend: the always-available reference tier every
//! SIMD backend is property-tested bit-identical to.

/// Word-at-a-time zero scan with a 64-byte early-exit stride.
///
/// Scalar in the "no SIMD intrinsics" sense: `chunks_exact(8)` +
/// `from_le_bytes` compiles to plain 8-byte loads, preserving the
/// behavior (and speed) of the old `is_zero_page` word scan without
/// its `align_to` unsafe block.
pub(crate) fn is_zero(data: &[u8]) -> bool {
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        let mut acc = 0u64;
        for word in chunk.chunks_exact(8) {
            acc |= u64::from_le_bytes(word.try_into().unwrap());
        }
        if acc != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == 0)
}

/// Byte-wise XOR accumulate (`acc[i] ^= data[i]`).
pub(crate) fn xor_acc(acc: &mut [u8], data: &[u8]) {
    for (a, b) in acc.iter_mut().zip(data.iter()) {
        *a ^= b;
    }
}

/// Slice equality via the standard library (memcmp under the hood).
pub(crate) fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    a == b
}
