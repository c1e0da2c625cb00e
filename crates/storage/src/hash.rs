//! Fast 64-bit content hashing for silent-write detection.
//!
//! The dirty bitmap over-reports: a page the MMU flags as written may
//! hold exactly the bytes it held at the last committed generation
//! (a *silent same-value write*), or may differ in a single cacheline.
//! This module provides the content layer's hash kernel: a 4-lane
//! multiply-xor hash over little-endian `u64` words, the same idiom as
//! `BackedSpace::content_digest`, chosen so the compiler can keep four
//! independent dependency chains in flight (SIMD/ILP friendly) instead
//! of the strictly serial chain a CRC forces.
//!
//! Pages are hashed at sub-page granularity: a 4 KiB page is split into
//! [`BLOCKS_PER_PAGE`] blocks of [`BLOCK_SIZE`] bytes, one digest per
//! block. A page is *silent-same* iff all block digests match the
//! baseline; a partially-written page is delta-encoded by shipping only
//! the blocks whose digests changed.
//!
//! This is a content-change detector, not a cryptographic hash: the
//! threat model is accidental collision between two states of the same
//! page, the same model under which the repo trusts CRC-32 for chunk
//! integrity — but with 64 bits instead of 32.

use crate::chunk::CHUNK_PAGE_SIZE;

/// Sub-page delta granularity in bytes.
pub const BLOCK_SIZE: usize = 256;
/// Blocks per checkpoint page ([`CHUNK_PAGE_SIZE`] / [`BLOCK_SIZE`]).
pub const BLOCKS_PER_PAGE: usize = CHUNK_PAGE_SIZE / BLOCK_SIZE;

/// Per-lane multipliers (odd constants: golden ratio and friends).
const M0: u64 = 0x9E37_79B9_7F4A_7C15;
const M1: u64 = 0xC2B2_AE3D_27D4_EB4F;
const M2: u64 = 0x1656_67B1_9E37_79F9;
const M3: u64 = 0xD6E8_FEB8_6659_FD93;

/// Lane seeds: distinct so an all-zero input still produces non-trivial
/// lane states.
const S0: u64 = 0x243F_6A88_85A3_08D3;
const S1: u64 = 0x1319_8A2E_0370_7344;
const S2: u64 = 0xA409_3822_299F_31D0;
const S3: u64 = 0x082E_FA98_EC4E_6C89;

/// Final avalanche (the SplitMix64 finalizer): a single flipped input
/// bit must be able to flip any output bit.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn lane(acc: u64, word: u64, mult: u64) -> u64 {
    (acc ^ word).wrapping_mul(mult).rotate_left(23)
}

/// Combine four lane accumulators into the final digest of `len` bytes.
#[inline]
fn finish_lanes(a0: u64, a1: u64, a2: u64, a3: u64, len: u64) -> u64 {
    mix(a0 ^ a1.rotate_left(17) ^ a2.rotate_left(31) ^ a3.rotate_left(47) ^ len)
}

/// Hash `data` with the 4-lane multiply-xor kernel.
///
/// Words are read little-endian; a short tail is zero-padded and the
/// length is folded into the finalization so `b"ab"` and `b"ab\0"`
/// hash differently.
#[inline]
pub(crate) fn hash64(data: &[u8]) -> u64 {
    let mut a0 = S0;
    let mut a1 = S1;
    let mut a2 = S2;
    let mut a3 = S3;
    let mut iter = data.chunks_exact(32);
    for quad in iter.by_ref() {
        let w0 = u64::from_le_bytes(quad[0..8].try_into().unwrap());
        let w1 = u64::from_le_bytes(quad[8..16].try_into().unwrap());
        let w2 = u64::from_le_bytes(quad[16..24].try_into().unwrap());
        let w3 = u64::from_le_bytes(quad[24..32].try_into().unwrap());
        a0 = lane(a0, w0, M0);
        a1 = lane(a1, w1, M1);
        a2 = lane(a2, w2, M2);
        a3 = lane(a3, w3, M3);
    }
    let rem = iter.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 32];
        tail[..rem.len()].copy_from_slice(rem);
        a0 = lane(a0, u64::from_le_bytes(tail[0..8].try_into().unwrap()), M0);
        a1 = lane(a1, u64::from_le_bytes(tail[8..16].try_into().unwrap()), M1);
        a2 = lane(a2, u64::from_le_bytes(tail[16..24].try_into().unwrap()), M2);
        a3 = lane(a3, u64::from_le_bytes(tail[24..32].try_into().unwrap()), M3);
    }
    finish_lanes(a0, a1, a2, a3, data.len() as u64)
}

/// Straight-line reference implementation of the same function: one
/// lane update at a time, no manual unrolling. Exists so the optimized
/// kernel has an executable specification to be tested against.
#[cfg(test)]
fn hash64_reference(data: &[u8]) -> u64 {
    const MULTS: [u64; 4] = [M0, M1, M2, M3];
    let mut acc = [S0, S1, S2, S3];
    let quads = data.len() / 32;
    let fold = |acc: &mut [u64; 4], quad: &[u8]| {
        for (i, word) in quad.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            acc[i] = lane(acc[i], u64::from_le_bytes(w), MULTS[i]);
        }
    };
    for q in 0..quads {
        fold(&mut acc, &data[q * 32..(q + 1) * 32]);
    }
    if !data.len().is_multiple_of(32) {
        let mut tail = [0u8; 32];
        tail[..data.len() % 32].copy_from_slice(&data[quads * 32..]);
        fold(&mut acc, &tail);
    }
    finish_lanes(acc[0], acc[1], acc[2], acc[3], data.len() as u64)
}

/// Digest of one all-zero [`BLOCK_SIZE`] block. Pages elided into zero
/// ranges still update the dedup baseline, and this constant keeps that
/// update a memset-style fill instead of a rehash of 4 KiB of zeros.
pub fn zero_block_hash() -> u64 {
    hash64(&[0u8; BLOCK_SIZE])
}

/// Page identity digest: [`hash64`] over the little-endian byte
/// encoding of the page's block digests (merkle-style).
///
/// Deriving the page hash from the block hashes instead of rehashing
/// the raw page means a page scan produces the whole identity triple
/// (zero flag, page hash, block hashes) without a second serial chain
/// over the data — the block chains are independent and vectorize,
/// while a full-page chain would be latency-bound. The encoding is
/// spelled out with `to_le_bytes`, so the digest is the same on every
/// host.
pub(crate) fn page_hash_of_blocks(block_hashes: &[u64; BLOCKS_PER_PAGE]) -> u64 {
    let mut bytes = [0u8; BLOCKS_PER_PAGE * 8];
    for (out, h) in bytes.chunks_exact_mut(8).zip(block_hashes) {
        out.copy_from_slice(&h.to_le_bytes());
    }
    hash64(&bytes)
}

/// Compute the [`BLOCKS_PER_PAGE`] block digests of one page into `out`.
///
/// Panics if `page` is not exactly [`CHUNK_PAGE_SIZE`] bytes.
#[cfg(test)]
pub(crate) fn page_block_hashes(page: &[u8], out: &mut [u64; BLOCKS_PER_PAGE]) {
    assert_eq!(page.len(), CHUNK_PAGE_SIZE, "page_block_hashes needs a whole page");
    for (slot, block) in out.iter_mut().zip(page.chunks_exact(BLOCK_SIZE)) {
        *slot = hash64(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix_buf(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn optimized_matches_reference() {
        for &len in &[0usize, 1, 7, 8, 9, 31, 32, 33, 255, 256, 257, 4096, 4097] {
            let buf = splitmix_buf(0xDEAD_BEEF ^ len as u64, len + 3);
            assert_eq!(hash64(&buf[..len]), hash64_reference(&buf[..len]), "len {len}");
            // Misaligned view of the same bytes hashes identically
            // (the kernel must not depend on buffer alignment).
            assert_eq!(hash64(&buf[3..3 + len]), hash64_reference(&buf[3..3 + len]));
        }
    }

    #[test]
    fn length_is_significant() {
        // A zero-extended buffer must not collide with its prefix.
        let buf = [0xABu8; 64];
        let mut padded = buf[..32].to_vec();
        padded.push(0);
        assert_ne!(hash64(&buf[..32]), hash64(&padded));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = splitmix_buf(42, BLOCK_SIZE);
        let h = hash64(&base);
        for bit in 0..BLOCK_SIZE * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(hash64(&flipped), h, "bit {bit} collided");
        }
    }

    #[test]
    fn block_hashes_cover_the_page_independently() {
        let page = splitmix_buf(7, CHUNK_PAGE_SIZE);
        let mut hashes = [0u64; BLOCKS_PER_PAGE];
        page_block_hashes(&page, &mut hashes);
        for b in 0..BLOCKS_PER_PAGE {
            assert_eq!(hashes[b], hash64(&page[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE]));
            // Flipping one byte inside block b changes exactly that digest.
            let mut other = page.clone();
            other[b * BLOCK_SIZE + 17] ^= 0x40;
            let mut h2 = [0u64; BLOCKS_PER_PAGE];
            page_block_hashes(&other, &mut h2);
            for (i, (a, b2)) in hashes.iter().zip(h2.iter()).enumerate() {
                if i == b {
                    assert_ne!(a, b2);
                } else {
                    assert_eq!(a, b2);
                }
            }
        }
    }

    #[test]
    fn page_hash_of_blocks_is_hash64_of_le_bytes() {
        let page = splitmix_buf(99, CHUNK_PAGE_SIZE);
        let mut hashes = [0u64; BLOCKS_PER_PAGE];
        page_block_hashes(&page, &mut hashes);
        let mut bytes = Vec::new();
        for h in &hashes {
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        assert_eq!(page_hash_of_blocks(&hashes), hash64(&bytes));
        // Any block digest change propagates into the page digest.
        let before = page_hash_of_blocks(&hashes);
        hashes[7] ^= 1;
        assert_ne!(page_hash_of_blocks(&hashes), before);
    }

    /// Pins the page-hash encoding to a literal: a changed block hash,
    /// byte order or merkle step fails here on any host.
    #[test]
    fn page_hash_of_a_fixed_page_is_pinned() {
        let page = splitmix_buf(0x5EED, CHUNK_PAGE_SIZE);
        let mut hashes = [0u64; BLOCKS_PER_PAGE];
        page_block_hashes(&page, &mut hashes);
        assert_eq!(page_hash_of_blocks(&hashes), 0x9e2e_77a1_c6c4_7db5);
    }

    #[test]
    fn zero_block_hash_matches_zero_page() {
        let zeros = [0u8; CHUNK_PAGE_SIZE];
        let mut hashes = [0u64; BLOCKS_PER_PAGE];
        page_block_hashes(&zeros, &mut hashes);
        for h in hashes {
            assert_eq!(h, zero_block_hash());
        }
    }
}
