//! Property suite for the page kernels (`crate::kernels`).
//!
//! The contract is bit-identity on every length class and alignment.
//! The zero scan, hash compare and XOR accumulate are checked against
//! their naive definitions; the CRC, the one dispatched kernel, is
//! checked on every backend `kernels::available()` returns (scalar,
//! plus PCLMULQDQ on an x86_64 host that has it) against the scalar
//! reference. The page scan is checked against the separately
//! computed triple.

use crate::hash::{page_block_hashes, page_hash_of_blocks, BLOCKS_PER_PAGE, BLOCK_SIZE};
use crate::kernels::{self, BackendChoice};
use crate::CHUNK_PAGE_SIZE;

fn splitmix_words(seed: u64, len: usize) -> Vec<u64> {
    splitmix_buf(seed, len * 8)
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

fn splitmix_buf(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
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

/// Lengths that cross every stride the kernels use (8/16/32/64/128-byte
/// inner loops, 256-byte blocks, 4 KiB pages) plus odd stragglers.
const LENGTHS: &[usize] = &[
    0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512,
    1023, 4096, 4097, 16384, 16411,
];

/// Misalignment offsets applied to a shared backing buffer.
const OFFSETS: &[usize] = &[0, 1, 3, 8, 13];

#[test]
fn is_zero_and_hashes_eq_match_naive() {
    let naive_zero = |d: &[u8]| d.iter().all(|b| *b == 0);
    for &len in LENGTHS {
        for &off in OFFSETS {
            let buf = splitmix_buf(0xA11 ^ len as u64, len + off);
            let data = &buf[off..];
            assert_eq!(kernels::is_zero(data), naive_zero(data), "random len {len} off {off}");
            let zeros = vec![0u8; len + off];
            assert!(kernels::is_zero(&zeros[off..]), "zeros len {len} off {off}");
            // Digest arrays of `len` words at a word offset.
            let words = splitmix_words(0xB17 ^ len as u64, len + off);
            let a = &words[off..];
            let same = words.clone();
            assert!(kernels::hashes_eq(a, &same[off..]), "self-eq len {len}");
            if len > 0 {
                // Flip front, middle, back, and inside the last
                // 64-byte stride of the zero scan.
                for pos in [0, len / 2, len - 1, len.saturating_sub(17).min(len - 1)] {
                    let mut one = zeros.clone();
                    one[off + pos] = 1;
                    assert!(!kernels::is_zero(&one[off..]), "missed byte at {pos}/{len}");
                    let mut other = words.clone();
                    other[off + pos] ^= 0x80;
                    let b = &other[off..];
                    assert!(a != b && !kernels::hashes_eq(a, b), "missed diff at {pos}/{len}");
                }
                // Length mismatch is never equal.
                assert!(!kernels::hashes_eq(a, &a[..len - 1]), "len {len}");
            }
        }
    }
}

#[test]
fn xor_acc_matches_naive() {
    for &len in LENGTHS {
        for &off in OFFSETS {
            let acc0 = splitmix_buf(0xACC ^ len as u64, len + off);
            let data = splitmix_buf(0xDA7A ^ len as u64, len + off);
            let mut got = acc0.clone();
            kernels::xor_acc(&mut got[off..], &data[off..]);
            let mut want = acc0.clone();
            for i in off..off + len {
                want[i] ^= data[i];
            }
            assert_eq!(got, want, "xor len {len} off {off}");
            // XOR twice round-trips to the original.
            kernels::xor_acc(&mut got[off..], &data[off..]);
            assert_eq!(got, acc0, "xor involution len {len}");
        }
    }
}

#[test]
fn all_backends_agree_crc32() {
    for table in kernels::available() {
        for &len in LENGTHS {
            for &off in OFFSETS {
                let buf = splitmix_buf(0xC4C ^ len as u64, len + off);
                let data = &buf[off..];
                let want = (kernels::SCALAR.advance)(0xFFFF_FFFF, data);
                let got = (table.advance)(0xFFFF_FFFF, data);
                assert_eq!(got, want, "{}: crc len {len} off {off}", table.name);
                // Streaming splits must agree with one-shot, at split
                // points that land mid-way through the folding strides.
                for split in [1usize, 15, 16, 63, 64, 65, 129] {
                    if split <= len {
                        let s1 = (table.advance)(0xFFFF_FFFF, &data[..split]);
                        let s2 = (table.advance)(s1, &data[split..]);
                        assert_eq!(s2, want, "{}: split {split} len {len}", table.name);
                    }
                }
            }
        }
    }
}

#[test]
fn fused_scan_zero_pages_report_zero() {
    let zeros = vec![0u8; CHUNK_PAGE_SIZE];
    let mut hashes = [0u64; BLOCKS_PER_PAGE];
    let scan = kernels::fused_scan(&zeros, &mut hashes);
    assert!(scan.is_zero);
    assert_eq!(scan.page_hash, page_hash_of_blocks(&hashes));
    // One bit anywhere flips is_zero, including in the last block.
    for pos in [0usize, 255, 256, 4095] {
        let mut page = zeros.clone();
        page[pos] = 2;
        assert!(!kernels::fused_scan(&page, &mut hashes).is_zero, "bit at {pos}");
    }
}

/// The page scan equals the (zero-scan, `page_hash_of_blocks`,
/// `page_block_hashes`) triple on whole pages, through the public
/// facade (whatever backend is active).
#[test]
fn facade_fused_scan_matches_the_triple() {
    for seed in 0..8u64 {
        let page = splitmix_buf(seed, CHUNK_PAGE_SIZE);
        let mut fused = [0u64; BLOCKS_PER_PAGE];
        let scan = kernels::fused_scan(&page, &mut fused);
        let mut separate = [0u64; BLOCKS_PER_PAGE];
        page_block_hashes(&page, &mut separate);
        assert_eq!(fused, separate);
        assert_eq!(scan.page_hash, page_hash_of_blocks(&separate));
        assert_eq!(scan.is_zero, page.iter().all(|&b| b == 0));
        assert_eq!(scan.is_zero, kernels::is_zero(&page));
    }
}

#[test]
fn facade_rejects_mismatched_fused_lengths() {
    for len in [0, BLOCK_SIZE, CHUNK_PAGE_SIZE - 1, CHUNK_PAGE_SIZE + 1] {
        let data = vec![0u8; len];
        let err = std::panic::catch_unwind(|| {
            kernels::fused_scan(&data, &mut [0u64; BLOCKS_PER_PAGE]);
        });
        assert!(err.is_err(), "{len} bytes are not one page");
    }
    kernels::fused_scan(&[0u8; CHUNK_PAGE_SIZE], &mut [0u64; BLOCKS_PER_PAGE]);
}

#[test]
fn env_knob_parses_strictly() {
    // The process-exit path in `active()` prints exactly this message.
    let parse = |raw| ickpt_sim::env::parse(kernels::KERNELS_ENV, raw, kernels::parse_backend);
    assert_eq!(parse(" scalar\n"), Ok(BackendChoice::Scalar));
    assert_eq!(parse("auto"), Ok(BackendChoice::Auto));
    assert_eq!(
        parse("avx512").unwrap_err(),
        "ICKPT_KERNELS=\"avx512\" is invalid: expected \"scalar\" or \"auto\""
    );
}
