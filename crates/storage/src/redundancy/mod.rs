//! Multilevel redundant checkpoint storage.
//!
//! The paper's feasibility argument (§3) budgets incremental checkpoint
//! bandwidth against a network (900 MB/s) and a storage array
//! (320 MB/s). A single stable tier, however, makes every checkpoint
//! pay full array cost and makes any storage loss unrecoverable.
//! Production systems surveyed alongside the paper (SCR, stdchk) layer
//! the storage instead:
//!
//! 1. **Node-local tier** — each rank writes its chunk to fast local
//!    storage (RAM disk / local scratch). Cheap, but lost with the
//!    node.
//! 2. **Redundancy tier** — the chunk is protected across nodes over
//!    the interconnect: a full copy on a partner node
//!    ([`Partner`]), or an XOR parity block per small failure
//!    group ([`XorParity`]).
//! 3. **Durable tier** — an asynchronous [`DrainQueue`] copies every
//!    k-th committed generation (plus its incremental lineage) to the
//!    shared array in the background.
//!
//! Recovery tries the tiers in order: local (process restart on a
//! surviving node), then peer reconstruction over the network (node
//! loss), then the last generation *fully drained* to the shared
//! array (correlated loss of a rank's local data and its redundancy
//! peers).
//!
//! All traffic is charged in virtual time on the same
//! [`BandwidthDevice`](ickpt_sim::BandwidthDevice) models as the rest
//! of the system: local writes on a per-rank node-local device,
//! redundancy pushes and reconstruction pulls on a per-rank NIC rail,
//! drain and durable reads on the shared array device.
//!
//! ## Determinism
//!
//! Rank threads run concurrently, so every device is charged only at
//! instants that are equal across ranks (checkpoint captures happen at
//! the boundary-allreduce-equalized clock, commits at the
//! barrier-released instant) and only from the owning rank's thread —
//! except the shared array, which the drain charges in canonical rank
//! order under one lock, from one thread, at the commit instant.
//! Receiver-side devices are deliberately *not* charged for incoming
//! partner copies or parity deposits: the cost model is store-and-
//! forward absorbed by the sender's NIC charge, which keeps every
//! rank's clock a pure function of its own actions.

pub(crate) mod drain;
pub(crate) mod partner;
pub(crate) mod tiered;
pub(crate) mod xor;

use std::sync::Arc;

pub(crate) use drain::DrainQueue;
pub use drain::{DrainStats, DrainTopology};
pub(crate) use partner::Partner;
pub use tiered::{RecoveryPlan, TierTopology, TierUsage, TieredStore};
pub(crate) use xor::XorParity;
pub use xor::{xor_encode, xor_reconstruct};

use crate::store::{ChunkBuf, ChunkKey, StableStorage, StorageError};

/// Which redundancy scheme protects the node-local tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    /// No cross-node redundancy: node loss falls back to the durable
    /// tier (the single-tier baseline with a local write cache).
    LocalOnly,
    /// Full copy on the partner rank `(r + offset) % nranks`.
    Partner {
        /// Partner distance; 1 pairs each rank with its neighbour.
        offset: usize,
    },
    /// XOR parity over groups of `group_size` consecutive ranks, the
    /// parity block held outside the group.
    XorParity {
        /// Ranks per parity group (the storage overhead is
        /// `1/group_size` instead of the partner scheme's `1x`).
        group_size: usize,
    },
}

impl SchemeSpec {
    /// Short scheme name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeSpec::LocalOnly => "local-only",
            SchemeSpec::Partner { .. } => "partner",
            SchemeSpec::XorParity { .. } => "xor-parity",
        }
    }

    /// Build the scheme implementation.
    pub fn build(&self, nranks: usize) -> Box<dyn RedundancyScheme> {
        match *self {
            SchemeSpec::LocalOnly => Box::new(NoRedundancy),
            SchemeSpec::Partner { offset } => Box::new(Partner::new(nranks, offset)),
            SchemeSpec::XorParity { group_size } => Box::new(XorParity::new(nranks, group_size)),
        }
    }
}

/// The node-local stores of every rank, indexed by rank. A scheme
/// reads survivors' stores and writes redundancy data into peers'
/// stores through this slice.
pub(crate) type LocalStores = [Arc<dyn StableStorage>];

/// A cross-node redundancy scheme over the node-local tier.
///
/// `publish` is called by the owning rank's thread with the buffer it
/// just stored in its own local store; the scheme keeps references to
/// that buffer, never copies of it. `reconstruct` is called during
/// recovery when the owner's local copy is gone.
pub trait RedundancyScheme: Send + Sync {
    /// The spec this scheme was built from.
    fn spec(&self) -> SchemeSpec;

    /// Record redundancy information for `data`, just written by
    /// `rank` under `key`. Returns the bytes `rank` pushes over its
    /// NIC for it.
    fn publish(
        &self,
        locals: &LocalStores,
        rank: usize,
        key: ChunkKey,
        data: &ChunkBuf,
    ) -> Result<u64, StorageError>;

    /// Rebuild `key` (owned by the lost rank `key.rank`) from
    /// surviving local stores. Returns the chunk bytes and the bytes
    /// pulled over the recovering rank's NIC.
    fn reconstruct(
        &self,
        locals: &LocalStores,
        key: ChunkKey,
    ) -> Result<(ChunkBuf, u64), StorageError>;

    /// Chunk-key rank namespaces that may live in `holder`'s local
    /// store under this scheme (its own rank, ranks it holds partner
    /// copies for, parity tags). Used to wipe a node's local tier
    /// through the storage trait alone.
    fn held_ranks(&self, holder: usize) -> Vec<u32>;
}

/// The trivial scheme: nothing is published, nothing can be rebuilt.
struct NoRedundancy;

impl RedundancyScheme for NoRedundancy {
    fn spec(&self) -> SchemeSpec {
        SchemeSpec::LocalOnly
    }

    fn publish(
        &self,
        _locals: &LocalStores,
        _rank: usize,
        _key: ChunkKey,
        _data: &ChunkBuf,
    ) -> Result<u64, StorageError> {
        Ok(0)
    }

    fn reconstruct(
        &self,
        _locals: &LocalStores,
        key: ChunkKey,
    ) -> Result<(ChunkBuf, u64), StorageError> {
        Err(StorageError::NotFound(key))
    }

    fn held_ranks(&self, holder: usize) -> Vec<u32> {
        vec![holder as u32]
    }
}

/// Node-local stores that refuse the copying write, so a scheme that
/// stores into them must hand each buffer over by value.
#[cfg(test)]
pub(crate) fn by_value_locals(n: usize) -> Vec<Arc<dyn StableStorage>> {
    use crate::store::MemStore;

    struct ByValueOnly(MemStore);

    impl StableStorage for ByValueOnly {
        fn store_chunk(&self, key: ChunkKey, data: ChunkBuf) -> Result<(), StorageError> {
            self.0.store_chunk(key, data)
        }
        fn put_chunk(&self, key: ChunkKey, _: &[u8]) -> Result<(), StorageError> {
            panic!("chunk {key} was copied into a node-local store");
        }
        fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
            self.0.read_chunk(key)
        }
        fn delete_chunk(&self, key: ChunkKey) -> Result<(), StorageError> {
            self.0.delete_chunk(key)
        }
        fn list_generations(&self, rank: u32) -> Result<Vec<u64>, StorageError> {
            self.0.list_generations(rank)
        }
        fn put_manifest(&self, generation: u64, data: &[u8]) -> Result<(), StorageError> {
            self.0.put_manifest(generation, data)
        }
        fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError> {
            self.0.get_manifest(generation)
        }
        fn list_manifests(&self) -> Result<Vec<u64>, StorageError> {
            self.0.list_manifests()
        }
        fn delete_manifest(&self, generation: u64) -> Result<(), StorageError> {
            self.0.delete_manifest(generation)
        }
    }

    (0..n).map(|_| Arc::new(ByValueOnly(MemStore::new())) as Arc<dyn StableStorage>).collect()
}
