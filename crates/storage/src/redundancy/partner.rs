//! Partner replication: every chunk gets a full copy on a buddy node.
//!
//! SCR's `PARTNER` scheme: rank `r`'s checkpoint is mirrored into the
//! node-local store of rank `(r + offset) % nranks`, so losing any one
//! node leaves a complete copy of its chain on the partner. Storage
//! overhead is 1x and the publish cost is one chunk-sized NIC push;
//! recovery pulls the chain back over the recovering rank's NIC.
//!
//! Copies are stored under the *owner's* rank in the partner's store,
//! so they never collide with the partner's own chunks.

use crate::store::{ChunkBuf, ChunkKey, StorageError};

use super::{LocalStores, RedundancyScheme, SchemeSpec};

/// See the module docs.
pub(crate) struct Partner {
    nranks: usize,
    offset: usize,
}

impl Partner {
    /// Partner scheme over `nranks` ranks with the given buddy
    /// distance (reduced mod `nranks`; an effective offset of zero is
    /// rejected because a rank cannot protect itself).
    pub(crate) fn new(nranks: usize, offset: usize) -> Self {
        let offset = offset % nranks.max(1);
        assert!(nranks >= 2, "partner replication needs at least two ranks");
        assert!(offset != 0, "partner offset must not reduce to zero");
        Self { nranks, offset }
    }

    /// The rank holding `rank`'s copies.
    pub(crate) fn partner_of(&self, rank: usize) -> usize {
        (rank + self.offset) % self.nranks
    }
}

impl RedundancyScheme for Partner {
    fn spec(&self) -> SchemeSpec {
        SchemeSpec::Partner { offset: self.offset }
    }

    fn publish(
        &self,
        locals: &LocalStores,
        rank: usize,
        key: ChunkKey,
        data: &ChunkBuf,
    ) -> Result<u64, StorageError> {
        locals[self.partner_of(rank)].store_chunk(key, data.clone())?;
        Ok(data.len() as u64)
    }

    fn reconstruct(
        &self,
        locals: &LocalStores,
        key: ChunkKey,
    ) -> Result<(ChunkBuf, u64), StorageError> {
        let data = locals[self.partner_of(key.rank as usize)].read_chunk(key)?;
        let pulled = data.len() as u64;
        Ok((data, pulled))
    }

    fn held_ranks(&self, holder: usize) -> Vec<u32> {
        // The holder's own chunks plus the copies of the rank it
        // partners for: partner_of(source) == holder.
        let source = (holder + self.nranks - self.offset) % self.nranks;
        vec![holder as u32, source as u32]
    }
}

#[cfg(test)]
mod tests {
    use super::super::by_value_locals as locals;
    use super::*;

    #[test]
    fn copy_lands_on_partner_and_reconstructs() {
        let stores = locals(4);
        let p = Partner::new(4, 1);
        let key = ChunkKey::new(2, 7);
        let data = ChunkBuf::from(b"payload".to_vec());
        let sent = p.publish(&stores, 2, key, &data).unwrap();
        assert_eq!(sent, 7);
        // The copy lives on rank 3 under rank 2's key, and it is the
        // published buffer itself.
        assert!(stores[3].read_chunk(key).unwrap().ptr_eq(&data));
        assert!(stores[2].get_chunk(key).is_err(), "publish only writes the partner copy");
        let (data, pulled) = p.reconstruct(&stores, key).unwrap();
        assert_eq!(&*data, b"payload");
        assert_eq!(pulled, 7);
    }

    #[test]
    fn wraparound_partner() {
        let p = Partner::new(4, 1);
        assert_eq!(p.partner_of(3), 0);
        let p2 = Partner::new(8, 3);
        assert_eq!(p2.partner_of(6), 1);
        assert_eq!(p2.held_ranks(1), vec![1, 6]);
    }

    #[test]
    fn reconstruct_missing_is_not_found() {
        let stores = locals(2);
        let p = Partner::new(2, 1);
        assert!(matches!(
            p.reconstruct(&stores, ChunkKey::new(0, 0)),
            Err(StorageError::NotFound(_))
        ));
    }
}
