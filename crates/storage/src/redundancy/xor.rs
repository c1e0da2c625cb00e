//! XOR parity groups: RAID-5-style protection of the node-local tier.
//!
//! Ranks are partitioned into groups of `group_size` consecutive
//! ranks. Each checkpoint generation, the group's chunks are XORed
//! (zero-padded to the longest member) into one parity block held by a
//! rank *outside* the group — the first rank of the next group, ring
//! style — so the loss of any single node in the group is recoverable
//! from the survivors plus the parity. Storage overhead is
//! `1/group_size` of a full copy, against partner replication's 1x;
//! the price is that reconstruction must pull every survivor's chunk.
//!
//! Parity block format (little-endian, CRC-closed like chunks):
//!
//! ```text
//! magic "IXOR" | version u16 | reserved u16 | group u32 |
//! generation u64 | members u32 |
//! members × (rank u32, chunk length u64) |
//! parity bytes (max member length) | crc32
//! ```
//!
//! The per-member lengths let reconstruction truncate the padded XOR
//! back to the lost chunk's exact size, and the CRC guards the parity
//! block itself the way chunk CRCs guard data.
//!
//! Group members deposit their chunks into a per-(group, generation)
//! accumulator; the last depositor XORs and stores the block. XOR is
//! commutative, so the block's content is independent of thread
//! arrival order — one of the determinism invariants of this
//! subsystem.

use bytes::{Buf, BufMut};
use parking_lot::Mutex;
use std::collections::HashMap;

use crate::crc::{crc32, Crc32};
use crate::kernels;
use crate::store::{ChunkBuf, ChunkKey, StorageError};

use super::{LocalStores, RedundancyScheme, SchemeSpec};

const MAGIC: &[u8; 4] = b"IXOR";
const VERSION: u16 = 1;

/// Parity blocks are keyed under a tagged rank namespace so they can
/// never collide with real rank chunks: `PARITY_RANK_BASE | group`.
pub(crate) const PARITY_RANK_BASE: u32 = 0x8000_0000;

/// Encode the parity block of one group generation. `members` are
/// `(rank, chunk bytes)` pairs; order does not affect the parity
/// content (XOR commutes), but the member table is sorted by rank so
/// the encoded block is byte-stable too.
pub fn xor_encode(group: u32, generation: u64, members: &[(u32, &[u8])]) -> Vec<u8> {
    assert!(!members.is_empty(), "parity of an empty group");
    let mut table: Vec<(u32, &[u8])> = members.to_vec();
    table.sort_by_key(|(rank, _)| *rank);
    let max_len = table.iter().map(|(_, d)| d.len()).max().unwrap();
    let mut out = Vec::with_capacity(28 + table.len() * 12 + max_len + 4);
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(0);
    out.put_u32_le(group);
    out.put_u64_le(generation);
    out.put_u32_le(table.len() as u32);
    for (rank, data) in &table {
        out.put_u32_le(*rank);
        out.put_u64_le(data.len() as u64);
    }
    let parity_at = out.len();
    out.resize(parity_at + max_len, 0);
    for (_, data) in &table {
        // Shorter members fold into the zero-padded prefix only.
        kernels::xor_acc(&mut out[parity_at..parity_at + data.len()], data);
    }
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out
}

/// Decoded parity block header.
struct ParityView<'a> {
    /// `(rank, chunk length)` per member, ascending by rank.
    members: Vec<(u32, u64)>,
    parity: &'a [u8],
}

fn decode_parity(buf: &[u8]) -> Result<ParityView<'_>, StorageError> {
    if buf.len() < 32 {
        return Err(StorageError::Corrupt("parity block too short".into()));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let mut c = Crc32::new();
    c.update(body);
    if c.finalize() != stored {
        return Err(StorageError::Corrupt("parity block CRC mismatch".into()));
    }
    let mut b = body;
    let mut magic = [0u8; 4];
    b.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StorageError::Corrupt("bad parity magic".into()));
    }
    if b.get_u16_le() != VERSION {
        return Err(StorageError::Corrupt("unsupported parity version".into()));
    }
    let _pad = b.get_u16_le();
    let _group = b.get_u32_le();
    let _generation = b.get_u64_le();
    let n = b.get_u32_le() as usize;
    if b.remaining() < n * 12 {
        return Err(StorageError::Corrupt("parity member table truncated".into()));
    }
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = b.get_u32_le();
        let len = b.get_u64_le();
        members.push((rank, len));
    }
    let max_len = members.iter().map(|&(_, l)| l).max().unwrap_or(0) as usize;
    if b.remaining() != max_len {
        return Err(StorageError::Corrupt("parity payload size mismatch".into()));
    }
    Ok(ParityView { members, parity: b })
}

/// Rebuild the lost member's chunk from the parity block and every
/// surviving member's chunk. `survivors` must contain exactly the
/// members listed in the block except `lost_rank`.
pub fn xor_reconstruct(
    parity_block: &[u8],
    survivors: &[(u32, &[u8])],
    lost_rank: u32,
) -> Result<Vec<u8>, StorageError> {
    let view = decode_parity(parity_block)?;
    let lost_len = view
        .members
        .iter()
        .find(|&&(r, _)| r == lost_rank)
        .map(|&(_, l)| l as usize)
        .ok_or_else(|| {
            StorageError::Corrupt(format!("rank {lost_rank} is not a member of this parity group"))
        })?;
    let mut acc = view.parity.to_vec();
    let mut seen = 0usize;
    for &(rank, expect_len) in &view.members {
        if rank == lost_rank {
            continue;
        }
        let data =
            survivors.iter().find(|&&(r, _)| r == rank).map(|&(_, d)| d).ok_or_else(|| {
                StorageError::Corrupt(format!("missing survivor chunk of rank {rank}"))
            })?;
        if data.len() as u64 != expect_len {
            return Err(StorageError::Corrupt(format!(
                "survivor chunk of rank {rank} has length {} but the parity block recorded {expect_len}",
                data.len()
            )));
        }
        kernels::xor_acc(&mut acc[..data.len()], data);
        seen += 1;
    }
    if seen + 1 != view.members.len() {
        return Err(StorageError::Corrupt(
            "survivor set does not match parity member table".into(),
        ));
    }
    acc.truncate(lost_len);
    Ok(acc)
}

/// Per-(group, generation) accumulator for in-flight parity builds.
struct GroupSlot {
    deposits: Vec<Option<ChunkBuf>>,
}

/// See the module docs.
pub(crate) struct XorParity {
    nranks: usize,
    group_size: usize,
    slots: Mutex<HashMap<(usize, u64), GroupSlot>>,
}

impl XorParity {
    /// Parity groups of `group_size` consecutive ranks over `nranks`.
    pub(crate) fn new(nranks: usize, group_size: usize) -> Self {
        assert!(group_size >= 2, "a parity group needs at least two members");
        assert!(nranks >= 2, "xor parity needs at least two ranks");
        Self { nranks, group_size, slots: Mutex::new(HashMap::new()) }
    }

    /// Number of groups.
    pub(crate) fn groups(&self) -> usize {
        self.nranks.div_ceil(self.group_size)
    }

    /// Group index of a rank.
    pub(crate) fn group_of(&self, rank: usize) -> usize {
        rank / self.group_size
    }

    /// Member ranks of a group (the last group may be short).
    pub(crate) fn members_of(&self, group: usize) -> std::ops::Range<usize> {
        let start = group * self.group_size;
        start..((start + self.group_size).min(self.nranks))
    }

    /// The rank holding a group's parity block: the first rank of the
    /// next group, ring style, so the holder is outside the group
    /// whenever there is more than one group. With a single group the
    /// holder is unavoidably a member; losing that node then falls
    /// through to the durable tier.
    pub(crate) fn holder_of(&self, group: usize) -> usize {
        self.members_of((group + 1) % self.groups()).start
    }

    /// The storage key of a group's parity block for a generation.
    pub(crate) fn parity_key(&self, group: usize, generation: u64) -> ChunkKey {
        ChunkKey::new(PARITY_RANK_BASE | group as u32, generation)
    }
}

impl RedundancyScheme for XorParity {
    fn spec(&self) -> SchemeSpec {
        SchemeSpec::XorParity { group_size: self.group_size }
    }

    fn publish(
        &self,
        locals: &LocalStores,
        rank: usize,
        key: ChunkKey,
        data: &ChunkBuf,
    ) -> Result<u64, StorageError> {
        let group = self.group_of(rank);
        let members = self.members_of(group);
        let ready = {
            let mut slots = self.slots.lock();
            let slot = slots
                .entry((group, key.generation))
                .or_insert_with(|| GroupSlot { deposits: vec![None; members.len()] });
            slot.deposits[rank - members.start] = Some(data.clone());
            if slot.deposits.iter().all(Option::is_some) {
                slots.remove(&(group, key.generation))
            } else {
                None
            }
        };
        if let Some(slot) = ready {
            // Last depositor builds and stores the block. The store
            // itself is untimed: the holder's cost is covered by the
            // senders' NIC charges (store-and-forward model).
            let chunks: Vec<(u32, &[u8])> = members
                .clone()
                .zip(slot.deposits.iter())
                .map(|(r, d)| (r as u32, d.as_deref().unwrap()))
                .collect();
            let block = xor_encode(group as u32, key.generation, &chunks);
            locals[self.holder_of(group)]
                .store_chunk(self.parity_key(group, key.generation), block.into())?;
        }
        // Each member pushes its chunk once toward the parity build.
        Ok(data.len() as u64)
    }

    fn reconstruct(
        &self,
        locals: &LocalStores,
        key: ChunkKey,
    ) -> Result<(ChunkBuf, u64), StorageError> {
        let lost = key.rank as usize;
        let group = self.group_of(lost);
        let holder = self.holder_of(group);
        let block = locals[holder].read_chunk(self.parity_key(group, key.generation))?;
        let mut pulled = block.len() as u64;
        let mut survivor_chunks = Vec::new();
        for r in self.members_of(group) {
            if r == lost {
                continue;
            }
            let data = locals[r].read_chunk(ChunkKey::new(r as u32, key.generation))?;
            pulled += data.len() as u64;
            survivor_chunks.push((r as u32, data));
        }
        let refs: Vec<(u32, &[u8])> = survivor_chunks.iter().map(|(r, d)| (*r, &**d)).collect();
        let data = xor_reconstruct(&block, &refs, key.rank)?;
        Ok((data.into(), pulled))
    }

    fn held_ranks(&self, holder: usize) -> Vec<u32> {
        let mut ranks = vec![holder as u32];
        for g in 0..self.groups() {
            if self.holder_of(g) == holder {
                ranks.push(PARITY_RANK_BASE | g as u32);
            }
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::super::by_value_locals as locals;
    use super::*;

    #[test]
    fn encode_reconstruct_roundtrip_uneven_lengths() {
        let a = vec![0xAAu8; 100];
        let b = vec![0x5Bu8; 250];
        let c = vec![0x11u8; 17];
        let block = xor_encode(0, 3, &[(0, &a), (1, &b), (2, &c)]);
        for (lost, want) in [(0u32, &a), (1, &b), (2, &c)] {
            let survivors: Vec<(u32, &[u8])> = [(0, &a), (1, &b), (2, &c)]
                .into_iter()
                .filter(|(r, _)| *r != lost)
                .map(|(r, d): (u32, &Vec<u8>)| (r, d.as_slice()))
                .collect();
            assert_eq!(&xor_reconstruct(&block, &survivors, lost).unwrap(), want, "lost {lost}");
        }
    }

    #[test]
    fn corrupt_parity_detected() {
        let block = xor_encode(0, 0, &[(0, b"aaaa"), (1, b"bbbb")]);
        let mut bad = block.clone();
        bad[10] ^= 1;
        assert!(xor_reconstruct(&bad, &[(1, b"bbbb")], 0).is_err());
        // Wrong survivor length is refused rather than silently XORed.
        assert!(xor_reconstruct(&block, &[(1, b"bbb")], 0).is_err());
    }

    #[test]
    fn group_topology() {
        let x = XorParity::new(8, 2);
        assert_eq!(x.groups(), 4);
        assert_eq!(x.group_of(5), 2);
        assert_eq!(x.members_of(2), 4..6);
        assert_eq!(x.holder_of(2), 6);
        assert_eq!(x.holder_of(3), 0, "ring wraps");
        // Short last group.
        let y = XorParity::new(5, 2);
        assert_eq!(y.groups(), 3);
        assert_eq!(y.members_of(2), 4..5);
        assert_eq!(y.held_ranks(0), vec![0, PARITY_RANK_BASE | 2]);
    }

    #[test]
    fn scheme_publishes_and_reconstructs() {
        let stores = locals(4);
        let x = XorParity::new(4, 2);
        // Group 0 = {0, 1}, parity held by rank 2.
        for (r, data) in [(0usize, b"rank zero".as_slice()), (1, b"rank one, longer".as_slice())] {
            let data = ChunkBuf::from(data.to_vec());
            stores[r].store_chunk(ChunkKey::new(r as u32, 7), data.clone()).unwrap();
            x.publish(&stores, r, ChunkKey::new(r as u32, 7), &data).unwrap();
        }
        assert!(stores[2].get_chunk(x.parity_key(0, 7)).is_ok(), "parity on the holder");
        // Lose rank 1: rebuild from rank 0 + parity.
        let (data, pulled) = x.reconstruct(&stores, ChunkKey::new(1, 7)).unwrap();
        assert_eq!(&*data, b"rank one, longer");
        assert!(pulled > data.len() as u64, "pulls survivors and the parity block");
    }

    #[test]
    fn publish_keeps_the_published_buffers() {
        // The deposits are the published buffers: nothing is read back
        // from the members' local stores (left empty here), and the
        // holder, which refuses copying writes, takes the parity block
        // by value.
        let stores = locals(4);
        let x = XorParity::new(4, 2);
        let a = ChunkBuf::from(b"rank zero".to_vec());
        let b = ChunkBuf::from(b"rank one, longer".to_vec());
        x.publish(&stores, 0, ChunkKey::new(0, 7), &a).unwrap();
        x.publish(&stores, 1, ChunkKey::new(1, 7), &b).unwrap();
        let parity = stores[2].read_chunk(x.parity_key(0, 7)).unwrap();
        assert_eq!(*parity, xor_encode(0, 7, &[(0, &a), (1, &b)]));
    }

    #[test]
    fn reconstruct_without_parity_is_not_found() {
        let stores = locals(4);
        let x = XorParity::new(4, 2);
        assert!(matches!(
            x.reconstruct(&stores, ChunkKey::new(1, 3)),
            Err(StorageError::NotFound(_))
        ));
    }
}
