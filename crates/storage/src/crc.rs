//! CRC-32 (IEEE 802.3 polynomial), slice-by-8 with compile-time tables.
//!
//! Checkpoint data is the last line of defense after a failure; a
//! corrupt chunk must be detected rather than silently restored. CRC-32
//! is what the paper-era checkpointing systems (libckpt, ickp) used and
//! is plenty for this purpose.
//!
//! The hot path is the capture pipeline: every checkpoint chunk is
//! checksummed as it is encoded — `Chunk::encode_into` feeds a
//! streaming `Crc32` one `CRC_BLOCK` at a time, right behind the copy
//! — so CRC throughput is directly on the paper's "available
//! bandwidth" side of the feasibility ratio. The
//! implementation here processes eight bytes per step through eight
//! 256-entry tables (Sarwate's slice-by-8), which retires one table
//! lookup per input byte but only one load/XOR dependency chain per
//! *word* — typically 4–8× the classic one-byte-at-a-time loop, still
//! with zero dependencies. The test build keeps the old scalar loop,
//! `crc32_bytewise`, as the reference the equivalence tests compare
//! against; both produce identical checksums, so the chunk format is
//! unchanged and old readers stay compatible.

/// Eight IEEE CRC-32 lookup tables, built at compile time.
///
/// `TABLES[0]` is the classic Sarwate table; `TABLES[k][b]` extends a
/// CRC by byte `b` followed by `k` zero bytes, which is what lets eight
/// input bytes fold in parallel.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[n - 1][i];
            t[n][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    t
}

/// Advance `state` over `data` one byte at a time (reference kernel).
#[inline]
pub(crate) fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Advance `state` over `data`, eight bytes per step.
pub(crate) fn update_slice8(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the current CRC into the first word's low half, then
        // look all eight bytes up in their distance-specific tables.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    update_bytewise(state, chunks.remainder())
}

/// Streaming CRC-32 state.
///
/// The chunk encoder checksums while it copies: each block appended to
/// the encode buffer goes through [`Crc32::update`] while it is still
/// in cache, and [`Crc32::finalize`] seals the chunk. Arbitrary split
/// points produce the same checksum as a one-shot pass.
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub(crate) fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed bytes (through the dispatched kernel: PCLMULQDQ folding
    /// where the CPU has it, slice-by-8 otherwise — identical sums).
    #[inline]
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.state = crate::kernels::crc32_advance(self.state, data);
    }

    /// Finish and return the checksum.
    pub(crate) fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice (dispatched, like `Crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    crate::kernels::crc32_advance(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// One-shot CRC-32 via slice-by-8, bypassing kernel dispatch: the
/// scalar backend's CRC kernel, which the dispatched path must match.
#[cfg(test)]
fn crc32_slice8(data: &[u8]) -> u32 {
    update_slice8(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// One-shot CRC-32 via the scalar one-byte-at-a-time loop.
///
/// Reference implementation: keeps the pre-optimization kernel alive so
/// tests can prove the slice-by-8 path computes the identical function.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // And through the reference kernel.
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_bytewise(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice8_equals_bytewise_on_random_buffers() {
        // Deterministic SplitMix64-filled buffers of every alignment
        // and length class the 8-byte kernel cares about.
        let mut x = 0x1DC4_2004u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 65, 255, 4096, 4097] {
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "len {len}");
            // Also at a misaligned start.
            if len > 3 {
                assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]), "len {len} offset 3");
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        // Split at awkward points, including mid-word.
        for split in [0usize, 1, 3, 7, 8, 100, 4097, 9999, 10_000] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(&data), "split {split}");
        }
        // Many small updates.
        let mut c = Crc32::new();
        for chunk in data.chunks(13) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn dispatched_equals_slice8() {
        // Whatever backend dispatch resolved to, the public entry
        // points must compute the same function as the scalar kernel.
        let data: Vec<u8> =
            (0..40_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0usize, 1, 63, 64, 65, 4096, 40_000] {
            assert_eq!(crc32(&data[..len]), crc32_slice8(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        data[17] = 0xAA;
        let good = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32(&data), good);
    }
}
