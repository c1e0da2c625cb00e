//! The tiered store: node-local tier + redundancy scheme + durable
//! drain, with tiered recovery.
//!
//! A [`TierTopology`] is built once per run and shared by every rank
//! (and across recovery attempts — node-local data survives a
//! *process* restart, which is exactly what makes the local tier worth
//! having). Each rank writes through its [`TieredStore`] handle:
//!
//! * the chunk lands in the rank's node-local store, charged on the
//!   rank's node-local device;
//! * the redundancy scheme publishes it across the interconnect,
//!   charged on the rank's NIC rail (the two overlap — the returned
//!   completion is their max);
//! * at commit, the [`DrainQueue`](super::DrainQueue) copies drain
//!   targets to the shared array in the background.
//!
//! Recovery reads through a [`TierReader`]: local first, then peer
//! reconstruction (depositing rebuilt chunks back into the local tier
//! so later incrementals and drains find them), then the shared
//! array. [`TierTopology::plan_recovery`] picks the cluster-wide
//! resume generation the same way — local, reconstructable, else the
//! last *fully drained* durable generation, else a cold restart.
//!
//! The reader charges fresh device clones rather than the live run
//! devices: a restarted process finds its devices idle, and recovery
//! cost must not depend on how busy the devices were when the previous
//! attempt died mid-flight.

use parking_lot::Mutex;
use std::sync::Arc;

use ickpt_obs::{DeviceKind, Event, Lane, Recorder, RecoveryTier};
use ickpt_sim::{BandwidthDevice, SimDuration, SimTime, Transfer};

use crate::chunk::{peek_lineage, ChunkKind};
use crate::store::{ChunkBuf, ChunkKey, MemStore, StableStorage, StorageError};
use crate::throttle::{charge_device, shared_device, SharedBandwidthDevice};

use super::{DrainQueue, DrainStats, DrainTopology, RedundancyScheme, SchemeSpec};

/// The cluster-wide recovery decision after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Generation every rank restores (`None` = cold restart).
    pub generation: Option<u64>,
    /// Tier serving the failed rank.
    pub source: RecoveryTier,
}

impl RecoveryPlan {
    /// Resume from `generation` on the durable tier, or restart cold
    /// when there is none.
    pub fn durable(generation: Option<u64>) -> Self {
        let source =
            if generation.is_some() { RecoveryTier::Durable } else { RecoveryTier::ColdRestart };
        RecoveryPlan { generation, source }
    }
}

/// Per-rank, per-tier byte/time accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierUsage {
    /// Chunk + manifest bytes written to the node-local tier.
    pub local_bytes: u64,
    /// Node-local device busy time.
    pub local_busy: SimDuration,
    /// Bytes pushed over the NIC rail for redundancy (partner copies,
    /// parity contributions, manifest replication).
    pub redundancy_bytes: u64,
    /// NIC rail busy time.
    pub nic_busy: SimDuration,
    /// Recovery bytes served by the node-local tier.
    pub recovery_local_bytes: u64,
    /// Recovery bytes pulled over the network for reconstruction.
    pub recovery_net_bytes: u64,
    /// Recovery bytes read from the shared array.
    pub recovery_durable_bytes: u64,
    /// Virtual time this rank spent reading its recovery data.
    pub recovery_time: SimDuration,
}

/// The multilevel storage of one run. See the module docs.
pub struct TierTopology {
    nranks: usize,
    scheme: Box<dyn RedundancyScheme>,
    locals: Vec<Arc<dyn StableStorage>>,
    local_devices: Vec<SharedBandwidthDevice>,
    nics: Vec<SharedBandwidthDevice>,
    /// Prototypes for the fresh devices recovery readers charge.
    local_proto: BandwidthDevice,
    nic_proto: BandwidthDevice,
    array_proto: BandwidthDevice,
    shared: Arc<dyn StableStorage>,
    array: SharedBandwidthDevice,
    drain: DrainQueue,
    counters: Vec<Mutex<TierUsage>>,
    obs: Recorder,
}

impl TierTopology {
    /// Build a topology with in-memory node-local stores (the
    /// simulation default: a RAM-disk class cache per node). Drain
    /// traffic is charged on the shared array in the `drain_topology`
    /// pattern; rank handles, the drain queue and recovery readers all
    /// record through `obs`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        nranks: usize,
        spec: SchemeSpec,
        local_proto: BandwidthDevice,
        nic_proto: BandwidthDevice,
        array_proto: BandwidthDevice,
        shared: Arc<dyn StableStorage>,
        drain_every: u64,
        drain_topology: DrainTopology,
        obs: Recorder,
    ) -> Arc<Self> {
        assert!(nranks >= 1);
        Arc::new(Self {
            nranks,
            scheme: spec.build(nranks),
            locals: (0..nranks)
                .map(|_| Arc::new(MemStore::new()) as Arc<dyn StableStorage>)
                .collect(),
            local_devices: (0..nranks).map(|_| shared_device(local_proto.clone())).collect(),
            nics: (0..nranks).map(|_| shared_device(nic_proto.clone())).collect(),
            local_proto,
            nic_proto,
            array_proto: array_proto.clone(),
            shared,
            array: shared_device(array_proto),
            drain: DrainQueue::new(nranks, drain_every, drain_topology, obs.clone()),
            counters: (0..nranks).map(|_| Mutex::new(TierUsage::default())).collect(),
            obs,
        })
    }

    /// A rank's write handle.
    pub fn handle(self: &Arc<Self>, rank: usize) -> TieredStore {
        assert!(rank < self.nranks);
        TieredStore { topo: self.clone(), rank }
    }

    /// A rank's recovery reader, starting its virtual clock at `start`.
    pub fn reader(self: &Arc<Self>, rank: usize, start: SimTime) -> TierReader {
        TierReader {
            topo: self.clone(),
            rank,
            clock: Mutex::new(start),
            local_dev: Mutex::new(self.local_proto.clone()),
            nic_dev: Mutex::new(self.nic_proto.clone()),
            array_dev: Mutex::new(self.array_proto.clone()),
        }
    }

    /// A rank's node-local store.
    #[cfg(test)]
    pub(crate) fn local(&self, rank: usize) -> &Arc<dyn StableStorage> {
        &self.locals[rank]
    }

    /// The durable shared store.
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Arc<dyn StableStorage> {
        &self.shared
    }

    /// Wipe a rank's node-local tier — the effect of losing the node.
    /// Deletes every chunk namespace the scheme may have placed there
    /// (own chunks, partner copies, parity blocks) plus all manifests.
    pub fn wipe_local(&self, rank: usize) -> Result<(), StorageError> {
        let store = &self.locals[rank];
        for id in self.scheme.held_ranks(rank) {
            for gen in store.list_generations(id)? {
                store.delete_chunk(ChunkKey::new(id, gen))?;
            }
        }
        for gen in store.list_manifests()? {
            store.delete_manifest(gen)?;
        }
        Ok(())
    }

    /// Fetch a chunk without charging any device (bookkeeping reads,
    /// e.g. the wasted-time accounting between attempts): local tier,
    /// then reconstruction, then the shared array.
    pub fn fetch_chunk_untimed(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
        let rank = key.rank as usize;
        if let Ok(data) = self.locals[rank].read_chunk(key) {
            return Ok(data);
        }
        if let Ok((data, _)) = self.scheme.reconstruct(&self.locals, key) {
            return Ok(data);
        }
        self.shared.read_chunk(key)
    }

    /// Whether the failed rank's whole chain ending at `generation`
    /// can be rebuilt from redundancy peers (dry run, nothing kept).
    fn chain_reconstructible(&self, rank: usize, generation: u64) -> bool {
        let mut gen = generation;
        loop {
            let Ok((data, _)) =
                self.scheme.reconstruct(&self.locals, ChunkKey::new(rank as u32, gen))
            else {
                return false;
            };
            let Ok(lineage) = peek_lineage(&data) else {
                return false;
            };
            match (lineage.kind, lineage.parent) {
                (ChunkKind::Full, _) => return true,
                (ChunkKind::Incremental, Some(parent)) => gen = parent,
                (ChunkKind::Incremental, None) => return false,
            }
        }
    }

    /// Decide the cluster-wide resume point after a failure at
    /// `fail_time`. `wiped` says whether the failed rank's node-local
    /// tier was lost (node loss) or survived (process failure);
    /// `last_committed` is the newest globally committed generation.
    pub fn plan_recovery(
        &self,
        failed_rank: usize,
        wiped: bool,
        last_committed: Option<u64>,
        fail_time: SimTime,
    ) -> RecoveryPlan {
        let Some(gen) = last_committed else {
            return RecoveryPlan::durable(None);
        };
        if !wiped {
            return RecoveryPlan { generation: Some(gen), source: RecoveryTier::Local };
        }
        if self.chain_reconstructible(failed_rank, gen) {
            return RecoveryPlan { generation: Some(gen), source: RecoveryTier::Reconstructed };
        }
        RecoveryPlan::durable(self.drain.fully_drained_before(fail_time))
    }

    /// Roll the drain back after a failure (see
    /// `DrainQueue::rollback`).
    pub fn rollback_drain(
        &self,
        resume_gen: Option<u64>,
        fail_time: SimTime,
    ) -> Result<(), StorageError> {
        self.drain.rollback(resume_gen, fail_time, &self.shared)
    }

    /// Per-rank tier accounting, with device busy times filled in.
    pub fn usage(&self, rank: usize) -> TierUsage {
        let mut usage = *self.counters[rank].lock();
        usage.local_busy = self.local_devices[rank].lock().busy_total();
        usage.nic_busy = self.nics[rank].lock().busy_total();
        usage
    }

    /// Drain accounting, with the array busy time filled in.
    pub fn drain_stats(&self) -> DrainStats {
        let mut stats = self.drain.stats();
        stats.array_busy = self.array.lock().busy_total();
        stats
    }

    /// Fold a rank's recovery read cost into its accounting.
    pub fn note_recovery_time(&self, rank: usize, cost: SimDuration) {
        self.counters[rank].lock().recovery_time += cost;
    }
}

/// A rank's write path through the tiers. See the module docs.
pub struct TieredStore {
    topo: Arc<TierTopology>,
    rank: usize,
}

impl TieredStore {
    /// The topology this handle writes into.
    pub fn topology(&self) -> &Arc<TierTopology> {
        &self.topo
    }

    /// Charge `bytes` on this rank's node-local device.
    fn charge_local(&self, now: SimTime, bytes: u64) -> Transfer {
        let lane = Lane::Device(DeviceKind::Local, self.rank as u32);
        charge_device(&self.topo.local_devices[self.rank], &self.topo.obs, lane, now, bytes)
    }

    /// Charge `bytes` on this rank's NIC rail.
    fn charge_nic(&self, now: SimTime, bytes: u64) -> Transfer {
        let lane = Lane::Device(DeviceKind::Nic, self.rank as u32);
        charge_device(&self.topo.nics[self.rank], &self.topo.obs, lane, now, bytes)
    }

    /// Write a chunk at virtual time `now`: node-local write and
    /// redundancy publish proceed in parallel; returns the later
    /// completion. The local tier and the scheme share `data`.
    pub fn put_chunk_timed(
        &self,
        now: SimTime,
        key: ChunkKey,
        data: ChunkBuf,
    ) -> Result<SimTime, StorageError> {
        let t = &*self.topo;
        let obs = &t.obs;
        let rank_lane = Lane::Rank(self.rank as u32);
        let bytes = data.len() as u64;
        t.locals[self.rank].store_chunk(key, data.clone())?;
        let local = self.charge_local(now, bytes);
        let sent = t.scheme.publish(&t.locals, self.rank, key, &data)?;
        let t_net = if sent > 0 {
            let net = self.charge_nic(now, sent);
            obs.emit_span(
                rank_lane,
                now,
                net.done.saturating_sub(now),
                Event::RedundancyPublish { generation: key.generation, bytes: sent },
            );
            net.done
        } else {
            now
        };
        let done = local.done.max(t_net);
        obs.emit_span(
            rank_lane,
            now,
            done.saturating_sub(now),
            Event::ChunkPut {
                generation: key.generation,
                bytes,
                queue_wait_ns: local.queue_wait.0,
                service_ns: local.service.0,
            },
        );
        let mut c = t.counters[self.rank].lock();
        c.local_bytes += bytes;
        c.redundancy_bytes += sent;
        Ok(done)
    }

    /// Write the commit manifest at virtual time `now` (called by the
    /// committing rank): it lands on every node's local store so any
    /// survivor can serve it during recovery. The writer pays one
    /// local write plus `nranks - 1` NIC pushes.
    pub fn put_manifest_timed(
        &self,
        now: SimTime,
        generation: u64,
        data: &[u8],
    ) -> Result<SimTime, StorageError> {
        let t = &*self.topo;
        for local in &t.locals {
            local.put_manifest(generation, data)?;
        }
        let local = self.charge_local(now, data.len() as u64);
        let push = data.len() as u64 * (t.nranks as u64 - 1);
        let t_net = if push > 0 { self.charge_nic(now, push).done } else { now };
        let done = local.done.max(t_net);
        t.obs.emit_span(
            Lane::Rank(self.rank as u32),
            now,
            done.saturating_sub(now),
            Event::ManifestPut { generation, bytes: data.len() as u64 },
        );
        let mut c = t.counters[self.rank].lock();
        c.local_bytes += data.len() as u64;
        c.redundancy_bytes += push;
        Ok(done)
    }

    /// A rank's commit notification: feeds the drain (the last
    /// notifier flushes drain targets to the shared array).
    pub fn note_committed(
        &self,
        generation: u64,
        commit_time: SimTime,
    ) -> Result<(), StorageError> {
        let t = &*self.topo;
        t.drain.note_committed(generation, commit_time, &t.locals, &t.shared, &t.array)
    }
}

/// A rank's tiered recovery reader: a [`StableStorage`] view whose
/// reads advance an internal virtual clock, trying local → peer
/// reconstruction → shared array. See the module docs for why it
/// charges fresh device clones.
pub struct TierReader {
    topo: Arc<TierTopology>,
    rank: usize,
    clock: Mutex<SimTime>,
    local_dev: Mutex<BandwidthDevice>,
    nic_dev: Mutex<BandwidthDevice>,
    array_dev: Mutex<BandwidthDevice>,
}

impl TierReader {
    /// Virtual instant the last charged read completed.
    pub fn now(&self) -> SimTime {
        *self.clock.lock()
    }

    /// Charge `bytes` served by `tier` (`Reconstructed` = over the
    /// NIC rail). A cold restart reads nothing, so it never charges.
    fn charge(&self, tier: RecoveryTier, bytes: u64) {
        let mut clock = self.clock.lock();
        let now = *clock;
        let dev = match tier {
            RecoveryTier::Local => &self.local_dev,
            RecoveryTier::Reconstructed => &self.nic_dev,
            RecoveryTier::Durable | RecoveryTier::ColdRestart => &self.array_dev,
        };
        let t = dev.lock().transfer_detailed(now, bytes);
        *clock = t.done;
        drop(clock);
        // Spans land on the rank lane with the reader's own clock —
        // the fresh per-reader devices keep them deterministic even
        // when the live run devices were mid-transfer at the failure.
        self.topo.obs.emit_span(
            Lane::Rank(self.rank as u32),
            now,
            t.done.saturating_sub(now),
            Event::RecoveryRead { tier, bytes },
        );
        let mut c = self.topo.counters[self.rank].lock();
        match tier {
            RecoveryTier::Local => c.recovery_local_bytes += bytes,
            RecoveryTier::Reconstructed => c.recovery_net_bytes += bytes,
            RecoveryTier::Durable | RecoveryTier::ColdRestart => c.recovery_durable_bytes += bytes,
        }
    }
}

impl StableStorage for TierReader {
    fn store_chunk(&self, key: ChunkKey, data: ChunkBuf) -> Result<(), StorageError> {
        let bytes = data.len() as u64;
        self.topo.locals[self.rank].store_chunk(key, data)?;
        self.charge(RecoveryTier::Local, bytes);
        Ok(())
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
        let t = &*self.topo;
        if let Ok(data) = t.locals[self.rank].read_chunk(key) {
            self.charge(RecoveryTier::Local, data.len() as u64);
            return Ok(data);
        }
        if let Ok((data, pulled)) = t.scheme.reconstruct(&t.locals, key) {
            self.charge(RecoveryTier::Reconstructed, pulled);
            t.obs.emit(
                Lane::Rank(self.rank as u32),
                self.now(),
                Event::RedundancyReconstruct {
                    generation: key.generation,
                    pieces: t.nranks as u32 - 1,
                    bytes: pulled,
                },
            );
            // Re-populate the local tier: later incrementals, drains
            // and a second failure all need the chain back in place.
            t.locals[self.rank].store_chunk(key, data.clone())?;
            return Ok(data);
        }
        let data = t.shared.read_chunk(key)?;
        self.charge(RecoveryTier::Durable, data.len() as u64);
        Ok(data)
    }

    fn delete_chunk(&self, key: ChunkKey) -> Result<(), StorageError> {
        self.topo.locals[self.rank].delete_chunk(key)
    }

    fn list_generations(&self, rank: u32) -> Result<Vec<u64>, StorageError> {
        self.topo.locals[self.rank].list_generations(rank)
    }

    fn put_manifest(&self, generation: u64, data: &[u8]) -> Result<(), StorageError> {
        self.topo.locals[self.rank].put_manifest(generation, data)?;
        self.charge(RecoveryTier::Local, data.len() as u64);
        Ok(())
    }

    fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError> {
        let t = &*self.topo;
        if let Ok(data) = t.locals[self.rank].get_manifest(generation) {
            self.charge(RecoveryTier::Local, data.len() as u64);
            return Ok(data);
        }
        // The manifest is replicated on every node: pull it from the
        // first survivor that has it.
        for (r, local) in t.locals.iter().enumerate() {
            if r == self.rank {
                continue;
            }
            if let Ok(data) = local.get_manifest(generation) {
                self.charge(RecoveryTier::Reconstructed, data.len() as u64);
                return Ok(data);
            }
        }
        let data = t.shared.get_manifest(generation)?;
        self.charge(RecoveryTier::Durable, data.len() as u64);
        Ok(data)
    }

    fn delete_manifest(&self, generation: u64) -> Result<(), StorageError> {
        self.topo.locals[self.rank].delete_manifest(generation)
    }

    fn list_manifests(&self) -> Result<Vec<u64>, StorageError> {
        self.topo.locals[self.rank].list_manifests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::manifest::Manifest;

    const MB: u64 = 1_000_000;

    fn topo(spec: SchemeSpec, drain_every: u64) -> Arc<TierTopology> {
        TierTopology::new(
            4,
            spec,
            BandwidthDevice::new(1000 * MB, SimDuration::ZERO),
            BandwidthDevice::new(900 * MB, SimDuration::ZERO),
            BandwidthDevice::new(320 * MB, SimDuration::ZERO),
            Arc::new(MemStore::new()),
            drain_every,
            DrainTopology::Flat,
            Recorder::disabled(),
        )
    }

    fn chunk(rank: u32, generation: u64, parent: Option<u64>, fill: u8) -> Vec<u8> {
        Chunk {
            kind: if parent.is_some() { ChunkKind::Incremental } else { ChunkKind::Full },
            rank,
            generation,
            parent,
            capture_time_ns: generation * 1_000_000,
            heap_pages: 4,
            mmap_blocks: vec![],
            zero_ranges: vec![],
            records: vec![crate::chunk::PageRecord {
                start_page: 0,
                data: vec![fill; crate::chunk::CHUNK_PAGE_SIZE],
            }],
            delta_records: vec![],
            dropped_pages: 0,
            app_state: vec![],
        }
        .encode()
    }

    /// Drive one committed generation through every rank's handle at
    /// time `now`, like the cluster runner does.
    fn commit_generation(topo: &Arc<TierTopology>, gen: u64, parent: Option<u64>, now: SimTime) {
        for rank in 0..4usize {
            let h = topo.handle(rank);
            h.put_chunk_timed(
                now,
                ChunkKey::new(rank as u32, gen),
                chunk(rank as u32, gen, parent, rank as u8 + 1).into(),
            )
            .unwrap();
        }
        let manifest =
            Manifest { generation: gen, commit_time_ns: now.0, nranks: 4, entries: vec![] };
        topo.handle(0).put_manifest_timed(now, gen, &manifest.encode()).unwrap();
        for rank in 0..4usize {
            topo.handle(rank).note_committed(gen, now).unwrap();
        }
    }

    #[test]
    fn writes_land_local_and_on_partner() {
        let topo = topo(SchemeSpec::Partner { offset: 1 }, 1);
        commit_generation(&topo, 0, None, SimTime::ZERO);
        let key = ChunkKey::new(2, 0);
        assert!(topo.local(2).get_chunk(key).is_ok(), "own local copy");
        assert!(topo.local(3).get_chunk(key).is_ok(), "partner copy");
        assert!(topo.local(1).get_manifest(0).is_ok(), "manifest replicated");
        let usage = topo.usage(2);
        assert!(usage.local_bytes > 0 && usage.redundancy_bytes > 0);
        assert!(usage.nic_busy > SimDuration::ZERO);
        // drain_every=1: the generation drained immediately.
        assert_eq!(topo.shared().list_manifests().unwrap(), vec![0]);
    }

    #[test]
    fn node_loss_recovers_by_reconstruction() {
        for spec in [SchemeSpec::Partner { offset: 1 }, SchemeSpec::XorParity { group_size: 2 }] {
            let topo = topo(spec, 8);
            commit_generation(&topo, 0, None, SimTime::from_secs(1));
            commit_generation(&topo, 1, Some(0), SimTime::from_secs(2));
            let original = topo.local(1).get_chunk(ChunkKey::new(1, 1)).unwrap();
            topo.wipe_local(1).unwrap();
            assert!(topo.local(1).get_chunk(ChunkKey::new(1, 1)).is_err());
            let plan = topo.plan_recovery(1, true, Some(1), SimTime::from_secs(3));
            assert_eq!(plan.source, RecoveryTier::Reconstructed, "{spec:?}");
            assert_eq!(plan.generation, Some(1));
            let reader = topo.reader(1, SimTime::ZERO);
            let rebuilt = reader.read_chunk(ChunkKey::new(1, 1)).unwrap();
            assert_eq!(*rebuilt, original, "byte-identical reconstruction ({spec:?})");
            assert!(reader.now() > SimTime::ZERO, "reconstruction costs virtual time");
            assert!(reader.get_manifest(1).is_ok(), "manifest from a survivor");
            // The rebuilt buffer itself was deposited back into the
            // local tier.
            assert!(topo.local(1).read_chunk(ChunkKey::new(1, 1)).unwrap().ptr_eq(&rebuilt));
            assert!(topo.usage(1).recovery_net_bytes > 0);
        }
    }

    #[test]
    fn tiers_share_one_buffer_per_chunk() {
        let topo = topo(SchemeSpec::Partner { offset: 1 }, 1);
        let key = ChunkKey::new(2, 0);
        let data = ChunkBuf::from(chunk(2, 0, None, 3));
        topo.handle(2).put_chunk_timed(SimTime::ZERO, key, data.clone()).unwrap();
        assert!(topo.local(2).read_chunk(key).unwrap().ptr_eq(&data), "local copy");
        assert!(topo.local(3).read_chunk(key).unwrap().ptr_eq(&data), "partner copy");
    }

    #[test]
    fn local_only_falls_back_to_drained_generation() {
        // A deliberately slow array (100 kB/s) so a batch drain takes
        // a noticeable fraction of a virtual second.
        let topo = TierTopology::new(
            4,
            SchemeSpec::LocalOnly,
            BandwidthDevice::new(1000 * MB, SimDuration::ZERO),
            BandwidthDevice::new(900 * MB, SimDuration::ZERO),
            BandwidthDevice::new(100_000, SimDuration::ZERO),
            Arc::new(MemStore::new()),
            2,
            DrainTopology::Flat,
            Recorder::disabled(),
        );
        // Gens 0..=3; targets are 1 and 3. Fail right after gen 3's
        // commit, while its drain is still in flight on the slow
        // array: only gen 1 counts as durable.
        for gen in 0..4u64 {
            commit_generation(&topo, gen, (gen > 0).then(|| gen - 1), SimTime::from_secs(gen + 1));
        }
        topo.wipe_local(1).unwrap();
        let fail = SimTime::from_secs_f64(4.1);
        let plan = topo.plan_recovery(1, true, Some(3), fail);
        assert_eq!(plan.source, RecoveryTier::Durable);
        assert_eq!(plan.generation, Some(1), "forced back to the last fully drained target");
        // The wiped rank restores that generation from the array.
        let reader = topo.reader(1, SimTime::ZERO);
        assert!(reader.get_chunk(ChunkKey::new(1, 1)).is_ok());
        assert!(topo.usage(1).recovery_durable_bytes > 0);
        // A survivor serves the same generation from its local tier.
        let reader0 = topo.reader(0, SimTime::ZERO);
        assert!(reader0.get_chunk(ChunkKey::new(0, 1)).is_ok());
        assert_eq!(topo.usage(0).recovery_durable_bytes, 0);
    }

    #[test]
    fn process_failure_restores_locally() {
        let topo = topo(SchemeSpec::Partner { offset: 1 }, 4);
        commit_generation(&topo, 0, None, SimTime::from_secs(1));
        let plan = topo.plan_recovery(2, false, Some(0), SimTime::from_secs(2));
        assert_eq!(plan.source, RecoveryTier::Local);
        assert_eq!(plan.generation, Some(0));
    }

    #[test]
    fn cold_restart_when_nothing_anywhere() {
        let topo = topo(SchemeSpec::LocalOnly, 4);
        let plan = topo.plan_recovery(0, true, None, SimTime::from_secs(1));
        assert_eq!(plan.source, RecoveryTier::ColdRestart);
        // Committed but neither reconstructible nor drained.
        commit_generation(&topo, 0, None, SimTime::from_secs(1));
        topo.wipe_local(0).unwrap();
        let plan = topo.plan_recovery(0, true, Some(0), SimTime::from_secs(2));
        assert_eq!(plan.source, RecoveryTier::ColdRestart);
        assert_eq!(plan.generation, None);
    }

    #[test]
    fn tiered_writes_are_deterministic_across_thread_orders() {
        // Run the same two-generation schedule twice with rank threads
        // deliberately started in different orders; every returned
        // completion time and counter must match.
        let run = |reverse: bool| {
            let topo = topo(SchemeSpec::XorParity { group_size: 2 }, 2);
            let mut times = Vec::new();
            for gen in 0..2u64 {
                let now = SimTime::from_secs(gen + 1);
                let mut order: Vec<usize> = (0..4).collect();
                if reverse {
                    order.reverse();
                }
                let mut done: Vec<(usize, SimTime)> = std::thread::scope(|s| {
                    let topo = &topo;
                    let handles: Vec<_> = order
                        .iter()
                        .map(|&rank| {
                            s.spawn(move || {
                                let h = topo.handle(rank);
                                let t = h
                                    .put_chunk_timed(
                                        now,
                                        ChunkKey::new(rank as u32, gen),
                                        chunk(
                                            rank as u32,
                                            gen,
                                            (gen > 0).then(|| gen - 1),
                                            rank as u8,
                                        )
                                        .into(),
                                    )
                                    .unwrap();
                                (rank, t)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                done.sort_by_key(|&(r, _)| r);
                times.push(done);
                let manifest =
                    Manifest { generation: gen, commit_time_ns: now.0, nranks: 4, entries: vec![] };
                topo.handle(0).put_manifest_timed(now, gen, &manifest.encode()).unwrap();
                for rank in 0..4usize {
                    topo.handle(rank).note_committed(gen, now).unwrap();
                }
            }
            let parity =
                topo.local(2).get_chunk(ChunkKey::new(super::super::xor::PARITY_RANK_BASE, 1));
            (times, parity.unwrap(), topo.drain_stats())
        };
        assert_eq!(run(false), run(true));
    }
}
