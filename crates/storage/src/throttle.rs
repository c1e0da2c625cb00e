//! Virtual-time bandwidth accounting for checkpoint traffic.
//!
//! §3 of the paper frames feasibility as "required bandwidth vs
//! available bandwidth" on two devices: the interconnect (QsNet II,
//! 900 MB/s) and the storage array (SCSI, 320 MB/s). A
//! [`ThrottledStore`] wraps any [`StableStorage`] with a
//! [`BandwidthDevice`], so writing a checkpoint chunk *takes virtual
//! time*, and a checkpointing run directly exhibits the stall the
//! paper's analysis predicts.

use std::sync::Arc;

use ickpt_obs::{Event, Lane, Recorder};
use ickpt_sim::{BandwidthDevice, SimTime, Transfer};
use parking_lot::Mutex;

use crate::store::{ChunkBuf, ChunkKey, StableStorage, StorageError};

/// A device handle that several `ThrottledStore`s can serialize on —
/// the model of a *shared* storage path (one parallel-filesystem array
/// serving every rank) as opposed to per-rank local disks.
pub(crate) type SharedBandwidthDevice = Arc<Mutex<BandwidthDevice>>;

/// Wrap a device for sharing across ranks.
pub fn shared_device(device: BandwidthDevice) -> SharedBandwidthDevice {
    Arc::new(Mutex::new(device))
}

/// Charge `bytes` on `device` from `now` and record the transfer as one
/// `DeviceTransfer` occupancy span on `lane`; returns the breakdown for
/// the caller's own traffic event.
pub(crate) fn charge_device(
    device: &SharedBandwidthDevice,
    obs: &Recorder,
    lane: Lane,
    now: SimTime,
    bytes: u64,
) -> Transfer {
    let t = device.lock().transfer_detailed(now, bytes);
    obs.emit_span(
        lane,
        t.start,
        t.service,
        Event::DeviceTransfer { bytes, queue_wait_ns: t.queue_wait.0, service_ns: t.service.0 },
    );
    t
}

/// A bandwidth-limited path to stable storage.
///
/// Each rank owns its own `ThrottledStore`. With [`ThrottledStore::new`]
/// the device is private (a per-rank disk path, deterministic
/// completion times); with [`ThrottledStore::with_shared_device`]
/// several ranks contend on one device (a shared storage array, FIFO
/// completion in call order — the cluster engine makes those calls from
/// its serial resolve phase, so call order is event-wheel order).
pub struct ThrottledStore {
    inner: Arc<dyn StableStorage>,
    device: SharedBandwidthDevice,
    obs: Recorder,
    rank_lane: Lane,
    dev_lane: Lane,
}

impl ThrottledStore {
    /// Wrap `inner` behind a private `device`.
    pub fn new(inner: Arc<dyn StableStorage>, device: BandwidthDevice) -> Self {
        Self {
            inner,
            device: Arc::new(Mutex::new(device)),
            obs: Recorder::disabled(),
            rank_lane: Lane::Run,
            dev_lane: Lane::Run,
        }
    }

    /// Wrap `inner` behind a device shared with other ranks.
    pub fn with_shared_device(
        inner: Arc<dyn StableStorage>,
        device: SharedBandwidthDevice,
    ) -> Self {
        Self { inner, device, obs: Recorder::disabled(), rank_lane: Lane::Run, dev_lane: Lane::Run }
    }

    /// Attach a flight recorder: chunk/manifest traffic is recorded on
    /// `rank_lane`, device occupancy on `dev_lane`.
    pub fn observed(mut self, obs: Recorder, rank_lane: Lane, dev_lane: Lane) -> Self {
        self.obs = obs;
        self.rank_lane = rank_lane;
        self.dev_lane = dev_lane;
        self
    }

    /// Charge one transfer on this path's device, recorded on its
    /// device lane.
    #[inline]
    fn charge(&self, now: SimTime, bytes: u64) -> Transfer {
        charge_device(&self.device, &self.obs, self.dev_lane, now, bytes)
    }

    /// Write a chunk at virtual time `now`; returns the instant the
    /// write completes on the device.
    pub fn put_chunk_timed(
        &self,
        now: SimTime,
        key: ChunkKey,
        data: ChunkBuf,
    ) -> Result<SimTime, StorageError> {
        let bytes = data.len() as u64;
        self.inner.store_chunk(key, data)?;
        let t = self.charge(now, bytes);
        self.obs.emit_span(
            self.rank_lane,
            now,
            t.done.saturating_sub(now),
            Event::ChunkPut {
                generation: key.generation,
                bytes,
                queue_wait_ns: t.queue_wait.0,
                service_ns: t.service.0,
            },
        );
        Ok(t.done)
    }

    /// Write a manifest at virtual time `now`; returns completion time.
    pub fn put_manifest_timed(
        &self,
        now: SimTime,
        generation: u64,
        data: &[u8],
    ) -> Result<SimTime, StorageError> {
        self.inner.put_manifest(generation, data)?;
        let t = self.charge(now, data.len() as u64);
        self.obs.emit_span(
            self.rank_lane,
            now,
            t.done.saturating_sub(now),
            Event::ManifestPut { generation, bytes: data.len() as u64 },
        );
        Ok(t.done)
    }

    /// Read a manifest at virtual time `now`; returns the data and the
    /// instant the read completes. Resume paths use this so the
    /// manifest lookup that picks the restore generation is charged
    /// device time like every other restore read.
    pub fn get_manifest_timed(
        &self,
        now: SimTime,
        generation: u64,
    ) -> Result<(Vec<u8>, SimTime), StorageError> {
        let data = self.inner.get_manifest(generation)?;
        let t = self.charge(now, data.len() as u64);
        Ok((data, t.done))
    }

    /// Total bytes pushed through this path.
    #[cfg(test)]
    pub(crate) fn bytes_total(&self) -> u64 {
        self.device.lock().bytes_total()
    }

    /// The wrapped untimed store.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &Arc<dyn StableStorage> {
        &self.inner
    }

    /// A [`StableStorage`] view of this path whose reads (and writes)
    /// advance an internal virtual clock starting at `start`. This lets
    /// code written against plain `StableStorage` — the restore path —
    /// be charged device time per byte exactly like checkpoint writes,
    /// so restart-time verdicts use the same 320 MB/s disk model as
    /// capture. Inspect the accumulated cost with `TimedReads::now`.
    pub fn timed_reads(&self, start: SimTime) -> TimedReads<'_> {
        TimedReads { store: self, clock: Mutex::new(start) }
    }
}

/// See [`ThrottledStore::timed_reads`].
pub struct TimedReads<'a> {
    store: &'a ThrottledStore,
    clock: Mutex<SimTime>,
}

impl TimedReads<'_> {
    /// Virtual instant the last charged transfer completed.
    pub fn now(&self) -> SimTime {
        *self.clock.lock()
    }

    fn charge(&self, bytes: u64) -> (SimTime, Transfer) {
        let mut clock = self.clock.lock();
        let now = *clock;
        let t = self.store.charge(now, bytes);
        *clock = t.done;
        (now, t)
    }
}

impl StableStorage for TimedReads<'_> {
    fn store_chunk(&self, key: ChunkKey, data: ChunkBuf) -> Result<(), StorageError> {
        let bytes = data.len() as u64;
        self.store.inner.store_chunk(key, data)?;
        let (now, t) = self.charge(bytes);
        self.store.obs.emit_span(
            self.store.rank_lane,
            now,
            t.done.saturating_sub(now),
            Event::ChunkPut {
                generation: key.generation,
                bytes,
                queue_wait_ns: t.queue_wait.0,
                service_ns: t.service.0,
            },
        );
        Ok(())
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
        let data = self.store.inner.read_chunk(key)?;
        let (now, t) = self.charge(data.len() as u64);
        self.store.obs.emit_span(
            self.store.rank_lane,
            now,
            t.done.saturating_sub(now),
            Event::ChunkGet {
                generation: key.generation,
                bytes: data.len() as u64,
                queue_wait_ns: t.queue_wait.0,
                service_ns: t.service.0,
            },
        );
        Ok(data)
    }

    fn delete_chunk(&self, key: ChunkKey) -> Result<(), StorageError> {
        self.store.inner.delete_chunk(key)
    }

    fn list_generations(&self, rank: u32) -> Result<Vec<u64>, StorageError> {
        self.store.inner.list_generations(rank)
    }

    fn put_manifest(&self, generation: u64, data: &[u8]) -> Result<(), StorageError> {
        self.store.inner.put_manifest(generation, data)?;
        let (now, t) = self.charge(data.len() as u64);
        self.store.obs.emit_span(
            self.store.rank_lane,
            now,
            t.done.saturating_sub(now),
            Event::ManifestPut { generation, bytes: data.len() as u64 },
        );
        Ok(())
    }

    fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError> {
        let data = self.store.inner.get_manifest(generation)?;
        self.charge(data.len() as u64);
        Ok(data)
    }

    fn delete_manifest(&self, generation: u64) -> Result<(), StorageError> {
        self.store.inner.delete_manifest(generation)
    }

    fn list_manifests(&self) -> Result<Vec<u64>, StorageError> {
        self.store.inner.list_manifests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use ickpt_sim::SimDuration;

    fn throttled(bw: u64) -> ThrottledStore {
        ThrottledStore::new(Arc::new(MemStore::new()), BandwidthDevice::new(bw, SimDuration::ZERO))
    }

    #[test]
    fn writes_cost_virtual_time() {
        let s = throttled(1_000_000); // 1 MB/s
        let done = s
            .put_chunk_timed(SimTime::ZERO, ChunkKey::new(0, 0), vec![0u8; 500_000].into())
            .unwrap();
        assert_eq!(done, SimTime::from_secs_f64(0.5));
        // A second write queues behind the first.
        let done2 = s
            .put_chunk_timed(SimTime::ZERO, ChunkKey::new(0, 1), vec![0u8; 500_000].into())
            .unwrap();
        assert_eq!(done2, SimTime::from_secs(1));
        assert_eq!(s.bytes_total(), 1_000_000);
    }

    #[test]
    fn data_lands_in_inner_store() {
        let s = throttled(1_000_000);
        s.put_chunk_timed(SimTime::ZERO, ChunkKey::new(1, 2), b"abc".to_vec().into()).unwrap();
        assert_eq!(s.inner().get_chunk(ChunkKey::new(1, 2)).unwrap(), b"abc");
    }

    #[test]
    fn shared_device_serializes_across_stores() {
        let inner: Arc<dyn StableStorage> = Arc::new(MemStore::new());
        let dev = shared_device(BandwidthDevice::new(1_000_000, SimDuration::ZERO));
        let a = ThrottledStore::with_shared_device(inner.clone(), dev.clone());
        let b = ThrottledStore::with_shared_device(inner, dev);
        let t1 = a
            .put_chunk_timed(SimTime::ZERO, ChunkKey::new(0, 0), vec![0u8; 500_000].into())
            .unwrap();
        let t2 = b
            .put_chunk_timed(SimTime::ZERO, ChunkKey::new(1, 0), vec![0u8; 500_000].into())
            .unwrap();
        assert_eq!(t1, SimTime::from_secs_f64(0.5));
        assert_eq!(t2, SimTime::from_secs(1), "second store queues on the shared array");
    }

    #[test]
    fn timed_reads_charge_restore_traffic() {
        let s = throttled(1_000_000); // 1 MB/s
        s.inner().put_chunk(ChunkKey::new(0, 0), &[7u8; 250_000]).unwrap();
        s.inner().put_manifest(0, &[1u8; 250_000]).unwrap();
        let reader = s.timed_reads(SimTime::from_secs(1));
        assert_eq!(reader.now(), SimTime::from_secs(1));
        let data = reader.get_chunk(ChunkKey::new(0, 0)).unwrap();
        assert_eq!(data.len(), 250_000);
        assert_eq!(reader.now(), SimTime::from_secs_f64(1.25), "chunk read costs device time");
        reader.get_manifest(0).unwrap();
        assert_eq!(reader.now(), SimTime::from_secs_f64(1.5), "manifest read queues behind it");
        // Untimed metadata ops are free.
        assert_eq!(reader.list_generations(0).unwrap(), vec![0]);
        assert_eq!(reader.now(), SimTime::from_secs_f64(1.5));
        assert_eq!(s.bytes_total(), 500_000, "restore reads show up in device totals");
    }

    #[test]
    fn manifest_reads_timed_too() {
        let s = throttled(100);
        s.inner().put_manifest(5, &[0u8; 50]).unwrap();
        let (data, done) = s.get_manifest_timed(SimTime::from_secs(2), 5).unwrap();
        assert_eq!(data.len(), 50);
        assert_eq!(done, SimTime::from_secs_f64(2.5));
        assert!(matches!(
            s.get_manifest_timed(SimTime::ZERO, 99),
            Err(StorageError::ManifestNotFound(99))
        ));
    }

    #[test]
    fn manifest_writes_timed_too() {
        let s = throttled(100);
        let done = s.put_manifest_timed(SimTime::ZERO, 3, &[0u8; 100]).unwrap();
        assert_eq!(done, SimTime::from_secs(1));
        assert!(s.inner().get_manifest(3).is_ok());
    }
}
