//! # ickpt-storage — stable storage for checkpoints
//!
//! Checkpointing and rollback recovery is "based on periodically saving
//! the process state to stable storage" (§1 of the paper). This crate
//! provides that stable storage:
//!
//! * [`crc`] — CRC-32 (IEEE) implemented locally so checkpoint chunks
//!   are integrity-checked without an external dependency.
//! * [`hash`] — the content layer's 4-lane multiply-xor 64-bit hash:
//!   sub-page block digests that detect silent same-value writes and
//!   drive delta encoding of partially-written pages.
//! * [`kernels`] — the byte-touching hot paths (page scan, zero
//!   detection, XOR accumulate, block compare) in safe Rust, plus the
//!   one runtime-dispatched kernel, the CRC (PCLMULQDQ folding where the
//!   CPU has it, slice-by-8 otherwise); `ICKPT_KERNELS=scalar|auto`.
//! * `chunk` — the on-disk checkpoint chunk format: a header
//!   describing rank/generation/lineage and the mapping state, followed
//!   by page records, closed with a CRC.
//! * `store` — the [`StableStorage`] trait with an in-memory
//!   backend ([`store::MemStore`]) and a real filesystem backend
//!   ([`store::FileStore`]).
//! * `manifest` — the commit records that make a set of per-rank
//!   chunks a globally consistent checkpoint generation.
//! * `throttle` — virtual-time bandwidth accounting used to charge
//!   checkpoint writes against the paper's device models (900 MB/s
//!   network, 320 MB/s disk, §3).
//! * `plan` — latest-wins restore planning: walk a checkpoint chain
//!   once and assign each live page to the single newest record that
//!   contains it, so restore and compaction touch each page exactly
//!   once regardless of chain length.
//! * [`gc`] — checkpoint-chain compaction: bounded-length incremental
//!   chains by executing the restore plan into a new base in one pass.
//! * `redundancy` — multilevel redundant storage: per-rank node-local
//!   tiers protected by partner replication or XOR parity groups over
//!   the interconnect, with an asynchronous drain to the shared array
//!   and tiered recovery (local → reconstruction → durable).

#![deny(unreachable_pub)]
#![deny(unsafe_code)]

mod chunk;
pub mod crc;
pub mod gc;
pub mod hash;
pub mod kernels;
mod manifest;
mod plan;
mod redundancy;
mod store;
mod throttle;

#[cfg(test)]
mod kernel_props;
#[cfg(test)]
mod read_chunk_props;

pub use chunk::{
    peek_lineage, Chunk, ChunkKind, ChunkView, DeltaRecord, PageRecord, CHUNK_PAGE_SIZE,
};
pub use hash::{BLOCKS_PER_PAGE, BLOCK_SIZE};
/// The recovery tier under its older name, which perf/'s `ft_cluster`
/// workload still imports (`perf/src/workloads/ft.rs`).
pub use ickpt_obs::RecoveryTier as RecoverySource;
pub use manifest::{Manifest, RankEntry};
pub use plan::{shard_segments, DeltaBase, PlanSegment, RestorePlan, SegmentSource};
pub use redundancy::{
    xor_encode, xor_reconstruct, DrainStats, DrainTopology, RecoveryPlan, SchemeSpec, TierTopology,
    TierUsage, TieredStore,
};
pub use store::{ChunkBuf, ChunkKey, FileStore, MemStore, StableStorage, StorageError};
pub use throttle::{shared_device, ThrottledStore};
