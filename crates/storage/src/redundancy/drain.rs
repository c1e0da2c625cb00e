//! Asynchronous drain of node-local checkpoints to the shared array.
//!
//! SCR's `SCR_FLUSH` model: checkpoints live in the node-local tier
//! and only every `drain_every`-th committed generation is copied to
//! the shared parallel-filesystem array, together with whatever
//! earlier undrained generations its incremental lineage needs — the
//! durable tier always holds complete restore chains. The copy is
//! asynchronous from the application's point of view: it is charged on
//! the shared array's FIFO [`BandwidthDevice`](ickpt_sim::BandwidthDevice)
//! starting at the commit instant, but no rank blocks on it.
//!
//! A generation only counts as *durable* once its drain transfer
//! completed on the device. A failure at virtual time `t` therefore
//! recovers (at worst) to [`DrainQueue::fully_drained_before`]`(t)`;
//! generations whose drain was still in flight at `t` are rolled back
//! out of the shared store.
//!
//! ## Determinism
//!
//! Every rank's commit notification carries the same barrier-released
//! instant; the last one (under one lock) performs the whole flush in
//! canonical (generation, rank) order, so device charges and stored
//! bytes do not depend on who notified last. The cluster engine sends
//! all of them from its serial resolve phase when the commit round
//! closes.

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use ickpt_obs::{DeviceKind, Event, Lane, Recorder};
use ickpt_sim::reduce::fanin_group;
use ickpt_sim::{SimDuration, SimTime};

use crate::store::{ChunkKey, StableStorage, StorageError};
use crate::throttle::{charge_device, SharedBandwidthDevice};

use super::LocalStores;

/// The flight-recorder lane of the shared array's drain transfers.
const ARRAY_LANE: Lane = Lane::Device(DeviceKind::Array, 0);

/// How drain traffic reaches the shared array.
///
/// [`DrainTopology::Tree`] models SCR-style I/O forwarding: ranks
/// funnel their chunks through `ceil(nranks / arity)` aggregator
/// nodes (one per contiguous [`fanin_group`]), and the array is
/// charged one batched transfer per aggregator instead of one per
/// rank — at 16k ranks that is 512 array requests per generation
/// instead of 16384. Stored bytes, chunk keys, manifests and (because
/// the FIFO array pipelines its per-transfer latency) the batch
/// completion time are identical in both topologies; what changes is
/// the request pattern the array sees: transfer counts, queue-wait
/// distribution and the per-transfer spans on the flight recorder's
/// array lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainTopology {
    /// Every rank's chunk is charged as its own array transfer.
    #[default]
    Flat,
    /// Chunks are batched per contiguous group of `arity` ranks.
    Tree {
        /// Ranks per aggregator; clamped to >= 2 like
        /// [`tree_reduce`](ickpt_sim::tree_reduce)'s arity, so the
        /// charge groups always match the reduction's first level.
        arity: usize,
    },
}

/// Cumulative drain accounting for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Bytes copied to the shared array (chunks + manifests).
    pub drained_bytes: u64,
    /// Generations whose chunks were copied (targets and lineage).
    pub drained_generations: u64,
    /// Newest generation with a manifest on the shared array.
    pub last_drained: Option<u64>,
    /// Generations skipped because a local source chunk was already
    /// gone (wiped by a node loss before the next drain tick).
    pub abandoned_generations: u64,
    /// Generations whose drain was torn mid-flight by a failure: their
    /// batch was rolled back out of the shared array, so they were
    /// charged on the device but never became durable. Disjoint from
    /// `drained_generations`, which counts only batches that stayed.
    pub torn_generations: u64,
    /// Bytes charged on the array for batches later torn by a
    /// rollback (disjoint from `drained_bytes`).
    pub torn_bytes: u64,
    /// Time the shared array spent busy on drain and durable-recovery
    /// traffic (filled from the device when the report is assembled).
    pub array_busy: SimDuration,
}

/// One flushed batch: the manifest-carrying target generation plus the
/// lineage generations copied with it.
struct Batch {
    completed_at: SimTime,
    generations: Vec<u64>,
    /// Array bytes this batch charged (chunks + manifest), so a
    /// rollback can move the batch from drained to torn accounting.
    bytes: u64,
}

#[derive(Default)]
struct DrainState {
    /// Commit notifications per generation (flush fires at `nranks`).
    arrivals: HashMap<u64, usize>,
    /// Committed generations not yet on the shared array.
    undrained: BTreeSet<u64>,
    /// Flushed batches keyed by target generation.
    batches: BTreeMap<u64, Batch>,
    stats: DrainStats,
}

/// See the module docs.
pub(crate) struct DrainQueue {
    nranks: usize,
    drain_every: u64,
    /// Array charging pattern.
    topology: DrainTopology,
    state: Mutex<DrainState>,
    /// Flight recorder for batch lifecycle / queue-depth events. The
    /// flush runs in whichever notification came last, but always
    /// under the state lock in canonical order, so its events are
    /// deterministic; they land on the dedicated drain lane.
    obs: Recorder,
}

impl DrainQueue {
    /// Drain every `drain_every`-th committed generation (1 = every
    /// generation, the synchronous-durable limit), charging the array
    /// in the `topology` pattern and recording through `obs`.
    pub(crate) fn new(
        nranks: usize,
        drain_every: u64,
        topology: DrainTopology,
        obs: Recorder,
    ) -> Self {
        assert!(drain_every >= 1);
        Self { nranks, drain_every, topology, state: Mutex::new(DrainState::default()), obs }
    }

    /// A rank's commit notification for `generation` at the (global)
    /// commit instant. The last notifier flushes if the generation is
    /// a drain target.
    pub(crate) fn note_committed(
        &self,
        generation: u64,
        commit_time: SimTime,
        locals: &LocalStores,
        shared: &Arc<dyn StableStorage>,
        array: &SharedBandwidthDevice,
    ) -> Result<(), StorageError> {
        let mut state = self.state.lock();
        let arrivals = state.arrivals.entry(generation).or_insert(0);
        *arrivals += 1;
        if *arrivals < self.nranks {
            return Ok(());
        }
        state.arrivals.remove(&generation);
        state.undrained.insert(generation);
        self.obs.emit(
            Lane::Drain,
            commit_time,
            Event::DrainQueueDepth { depth: state.undrained.len() as u64 },
        );
        if (generation + 1).is_multiple_of(self.drain_every) {
            self.flush(&mut state, generation, commit_time, locals, shared, array)?;
            self.obs.emit(
                Lane::Drain,
                commit_time,
                Event::DrainQueueDepth { depth: state.undrained.len() as u64 },
            );
        }
        Ok(())
    }

    /// Copy every undrained generation up to and including `target` to
    /// the shared array, in canonical (generation, rank) order, then
    /// the target's manifest. Charges the array device from
    /// `commit_time`.
    fn flush(
        &self,
        state: &mut DrainState,
        target: u64,
        commit_time: SimTime,
        locals: &LocalStores,
        shared: &Arc<dyn StableStorage>,
        array: &SharedBandwidthDevice,
    ) -> Result<(), StorageError> {
        let gens: Vec<u64> = state.undrained.range(..=target).copied().collect();
        let mut flushed = Vec::new();
        let mut batch_chunks = 0u64;
        let mut batch_bytes = 0u64;
        for &gen in &gens {
            // Gather first: a generation with any missing local chunk
            // (wiped by a node loss, never re-deposited) is abandoned
            // whole rather than written torn to the durable tier.
            let mut chunks = Vec::with_capacity(self.nranks);
            for (rank, local) in locals.iter().enumerate().take(self.nranks) {
                match local.read_chunk(ChunkKey::new(rank as u32, gen)) {
                    Ok(data) => chunks.push(data),
                    Err(_) => {
                        chunks.clear();
                        break;
                    }
                }
            }
            state.undrained.remove(&gen);
            if chunks.is_empty() {
                state.stats.abandoned_generations += 1;
                continue;
            }
            // Store every chunk, but charge the array according to
            // the topology: flat = one transfer per rank, tree = one
            // batched transfer per contiguous aggregator group.
            let group_of = |rank: usize| match self.topology {
                DrainTopology::Flat => rank,
                DrainTopology::Tree { arity } => fanin_group(rank, arity),
            };
            let mut pending_group: Option<(usize, u64)> = None;
            let mut charge = |state: &mut DrainState, bytes: u64| {
                charge_device(array, &self.obs, ARRAY_LANE, commit_time, bytes);
                state.stats.drained_bytes += bytes;
                batch_bytes += bytes;
            };
            // The durable store shares each local buffer, no copy.
            for (rank, data) in chunks.into_iter().enumerate() {
                let len = data.len() as u64;
                shared.store_chunk(ChunkKey::new(rank as u32, gen), data)?;
                batch_chunks += 1;
                match pending_group {
                    Some((group, bytes)) if group == group_of(rank) => {
                        pending_group = Some((group, bytes + len));
                    }
                    Some((_, bytes)) => {
                        charge(state, bytes);
                        pending_group = Some((group_of(rank), len));
                    }
                    None => pending_group = Some((group_of(rank), len)),
                }
            }
            if let Some((_, bytes)) = pending_group {
                charge(state, bytes);
            }
            state.stats.drained_generations += 1;
            flushed.push(gen);
        }
        if flushed.contains(&target) {
            // The manifest is replicated on every surviving local
            // store; take the first copy found.
            let manifest = (0..self.nranks)
                .find_map(|r| locals[r].get_manifest(target).ok())
                .ok_or(StorageError::ManifestNotFound(target))?;
            shared.put_manifest(target, &manifest)?;
            // The batch is durable once its manifest lands: on the FIFO
            // array the manifest, charged last, completes after every
            // chunk of the batch.
            let bytes = manifest.len() as u64;
            let done = charge_device(array, &self.obs, ARRAY_LANE, commit_time, bytes).done;
            state.stats.drained_bytes += bytes;
            batch_bytes += bytes;
            state.stats.last_drained = Some(target);
            self.obs.emit_span(
                Lane::Drain,
                commit_time,
                done.saturating_sub(commit_time),
                Event::DrainBatch {
                    generations: flushed.len() as u64,
                    chunks: batch_chunks,
                    bytes: batch_bytes,
                },
            );
            state.batches.insert(
                target,
                Batch { completed_at: done, generations: flushed, bytes: batch_bytes },
            );
        }
        Ok(())
    }

    /// Newest generation whose drain had fully completed by `t`.
    pub(crate) fn fully_drained_before(&self, t: SimTime) -> Option<u64> {
        self.state
            .lock()
            .batches
            .iter()
            .filter(|(_, b)| b.completed_at <= t)
            .map(|(&gen, _)| gen)
            .next_back()
    }

    /// Roll the drain state back after a failure at `fail_time` with
    /// resume target `resume_gen`: batches still in flight at the
    /// failure are deleted from the shared array (their writes never
    /// finished), and generations newer than the resume target are
    /// forgotten — re-execution will commit them again.
    pub(crate) fn rollback(
        &self,
        resume_gen: Option<u64>,
        fail_time: SimTime,
        shared: &Arc<dyn StableStorage>,
    ) -> Result<(), StorageError> {
        let mut state = self.state.lock();
        state.arrivals.clear();
        let in_flight: Vec<u64> = state
            .batches
            .iter()
            .filter(|(_, b)| b.completed_at > fail_time)
            .map(|(&gen, _)| gen)
            .collect();
        for target in in_flight {
            let batch = state.batches.remove(&target).unwrap();
            shared.delete_manifest(target)?;
            // The batch never became durable: move it from drained to
            // torn accounting (its bytes *were* charged on the array
            // device, which is exactly what `torn_bytes` records).
            state.stats.drained_bytes -= batch.bytes;
            state.stats.drained_generations -= batch.generations.len() as u64;
            state.stats.torn_bytes += batch.bytes;
            state.stats.torn_generations += batch.generations.len() as u64;
            self.obs.emit(
                Lane::Drain,
                fail_time,
                Event::DrainTorn {
                    generations: batch.generations.len() as u64,
                    bytes: batch.bytes,
                },
            );
            for gen in batch.generations {
                for rank in 0..self.nranks {
                    shared.delete_chunk(ChunkKey::new(rank as u32, gen))?;
                }
                // Still-committed generations get another chance at
                // the next drain tick; rolled-back ones are dropped.
                if resume_gen.is_some_and(|g| gen <= g) {
                    state.undrained.insert(gen);
                }
            }
            state.stats.last_drained = state.batches.keys().next_back().copied();
        }
        let stale: Vec<u64> = match resume_gen {
            Some(g) => state.undrained.range(g + 1..).copied().collect(),
            None => state.undrained.iter().copied().collect(),
        };
        for gen in stale {
            state.undrained.remove(&gen);
        }
        Ok(())
    }

    /// Snapshot of the accounting (array-busy time is filled by the
    /// caller, which owns the device).
    pub(crate) fn stats(&self) -> DrainStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::store::MemStore;
    use crate::throttle::shared_device;
    use ickpt_sim::BandwidthDevice;

    fn setup(nranks: usize) -> (Vec<Arc<dyn StableStorage>>, Arc<dyn StableStorage>) {
        let locals: Vec<Arc<dyn StableStorage>> =
            (0..nranks).map(|_| Arc::new(MemStore::new()) as Arc<dyn StableStorage>).collect();
        (locals, Arc::new(MemStore::new()))
    }

    fn commit_gen(locals: &[Arc<dyn StableStorage>], gen: u64, bytes: usize) {
        for (r, store) in locals.iter().enumerate() {
            store.put_chunk(ChunkKey::new(r as u32, gen), &vec![r as u8; bytes]).unwrap();
            let m = Manifest {
                generation: gen,
                commit_time_ns: 0,
                nranks: locals.len() as u32,
                entries: vec![],
            };
            store.put_manifest(gen, &m.encode()).unwrap();
        }
    }

    #[test]
    fn drains_every_kth_generation_with_lineage() {
        let (locals, shared) = setup(2);
        let array = shared_device(BandwidthDevice::new(1_000_000, SimDuration::ZERO));
        let q = DrainQueue::new(2, 2, DrainTopology::Flat, Recorder::disabled());
        for gen in 0..4u64 {
            commit_gen(&locals, gen, 1000);
            let t = SimTime::from_secs(gen + 1);
            for _ in 0..2 {
                q.note_committed(gen, t, &locals, &shared, &array).unwrap();
            }
        }
        // Targets are gens 1 and 3; gens 0 and 2 ride along as lineage.
        assert_eq!(shared.list_manifests().unwrap(), vec![1, 3]);
        assert_eq!(shared.list_generations(0).unwrap(), vec![0, 1, 2, 3]);
        let stats = q.stats();
        assert_eq!(stats.drained_generations, 4);
        assert_eq!(stats.last_drained, Some(3));
        assert!(stats.drained_bytes > 8000, "chunks plus manifests");
    }

    #[test]
    fn drained_chunks_share_the_local_buffers() {
        let (locals, shared) = setup(2);
        let array = shared_device(BandwidthDevice::new(1_000_000, SimDuration::ZERO));
        let q = DrainQueue::new(2, 1, DrainTopology::Tree { arity: 2 }, Recorder::disabled());
        commit_gen(&locals, 0, 1000);
        for _ in 0..2 {
            q.note_committed(0, SimTime::ZERO, &locals, &shared, &array).unwrap();
        }
        for (rank, local) in locals.iter().enumerate() {
            let key = ChunkKey::new(rank as u32, 0);
            assert!(shared.read_chunk(key).unwrap().ptr_eq(&local.read_chunk(key).unwrap()));
        }
    }

    #[test]
    fn durability_is_gated_on_transfer_completion() {
        let (locals, shared) = setup(2);
        // 1 kB/s: draining 2 kB takes 2 virtual seconds.
        let array = shared_device(BandwidthDevice::new(1_000, SimDuration::ZERO));
        let q = DrainQueue::new(2, 1, DrainTopology::Flat, Recorder::disabled());
        commit_gen(&locals, 0, 1000);
        for _ in 0..2 {
            q.note_committed(0, SimTime::from_secs(10), &locals, &shared, &array).unwrap();
        }
        assert_eq!(q.fully_drained_before(SimTime::from_secs(10)), None, "still in flight");
        assert_eq!(q.fully_drained_before(SimTime::from_secs(20)), Some(0));
    }

    #[test]
    fn rollback_removes_in_flight_batches() {
        let (locals, shared) = setup(2);
        let array = shared_device(BandwidthDevice::new(1_000, SimDuration::ZERO));
        let q = DrainQueue::new(2, 1, DrainTopology::Flat, Recorder::disabled());
        commit_gen(&locals, 0, 1000);
        for _ in 0..2 {
            q.note_committed(0, SimTime::from_secs(10), &locals, &shared, &array).unwrap();
        }
        // Fail at t=11s: the drain (finishing ~12s) was in flight.
        q.rollback(Some(0), SimTime::from_secs(11), &shared).unwrap();
        assert!(shared.list_manifests().unwrap().is_empty());
        assert!(shared.list_generations(0).unwrap().is_empty());
        // The generation is committed and still local: it drains again
        // at the next tick.
        commit_gen(&locals, 1, 500);
        for _ in 0..2 {
            q.note_committed(1, SimTime::from_secs(30), &locals, &shared, &array).unwrap();
        }
        assert_eq!(shared.list_generations(0).unwrap(), vec![0, 1]);
        assert_eq!(q.fully_drained_before(SimTime::from_secs(60)), Some(1));
    }

    /// Drain one 4-rank generation through a queue with the given
    /// topology; return (store, stats, array transfer count,
    /// completion time).
    fn drain_once(topology: DrainTopology) -> (Arc<dyn StableStorage>, DrainStats, u64, SimTime) {
        let (locals, shared) = setup(4);
        let array = shared_device(BandwidthDevice::new(1_000_000, SimDuration::from_millis(1)));
        let q = DrainQueue::new(4, 1, topology, Recorder::disabled());
        commit_gen(&locals, 0, 1000);
        for _ in 0..4 {
            q.note_committed(0, SimTime::ZERO, &locals, &shared, &array).unwrap();
        }
        let done = (0..1_000_000u64)
            .map(|ms| SimTime(ms * 1_000_000))
            .find(|&t| q.fully_drained_before(t) == Some(0))
            .expect("drain must complete");
        let transfers = array.lock().transfers();
        (shared, q.stats(), transfers, done)
    }

    #[test]
    fn tree_topology_stores_identical_data_in_fewer_transfers() {
        let (flat_store, flat_stats, flat_xfers, flat_done) = drain_once(DrainTopology::Flat);
        let (tree_store, tree_stats, tree_xfers, tree_done) =
            drain_once(DrainTopology::Tree { arity: 2 });
        // Same chunks, same manifests, same drained bytes, same
        // completion (the FIFO array pipelines per-transfer latency):
        // the topology only changes the request pattern.
        assert_eq!(
            flat_store.list_generations(0).unwrap(),
            tree_store.list_generations(0).unwrap()
        );
        assert_eq!(flat_store.list_manifests().unwrap(), tree_store.list_manifests().unwrap());
        for rank in 0..4u32 {
            assert_eq!(
                flat_store.get_chunk(ChunkKey::new(rank, 0)).unwrap(),
                tree_store.get_chunk(ChunkKey::new(rank, 0)).unwrap()
            );
        }
        assert_eq!(flat_stats.drained_bytes, tree_stats.drained_bytes);
        assert_eq!(flat_done, tree_done);
        // Flat: 4 chunk transfers + manifest. Tree arity 2: 2 batched
        // group transfers + manifest.
        assert_eq!(flat_xfers, 5);
        assert_eq!(tree_xfers, 3);
    }

    #[test]
    fn tree_arity_is_clamped_like_tree_reduce() {
        // Arity below 2 is clamped to 2 by `fanin_group`, mirroring
        // `tree_reduce`'s arity handling.
        let (_, two_stats, two_xfers, two_done) = drain_once(DrainTopology::Tree { arity: 2 });
        let (_, one_stats, one_xfers, one_done) = drain_once(DrainTopology::Tree { arity: 1 });
        assert_eq!(one_done, two_done);
        assert_eq!(one_stats, two_stats);
        assert_eq!(one_xfers, two_xfers);
    }

    #[test]
    fn rollback_moves_batches_from_drained_to_torn() {
        let (locals, shared) = setup(2);
        let array = shared_device(BandwidthDevice::new(1_000, SimDuration::ZERO));
        let fr = ickpt_obs::FlightRecorder::new(64);
        let q = DrainQueue::new(2, 1, DrainTopology::Flat, Recorder::new(fr.clone()));
        commit_gen(&locals, 0, 1000);
        for _ in 0..2 {
            q.note_committed(0, SimTime::from_secs(10), &locals, &shared, &array).unwrap();
        }
        let flushed = q.stats();
        assert_eq!(flushed.drained_generations, 1);
        assert!(flushed.drained_bytes > 2000, "chunks plus manifest");
        // Fail while the batch is in flight: it is torn, not drained.
        q.rollback(Some(0), SimTime::from_secs(11), &shared).unwrap();
        let torn = q.stats();
        // The tear surfaces as a typed event on the drain lane.
        let snap = fr.snapshot();
        let tears: Vec<_> = snap
            .tracks
            .iter()
            .filter(|(k, _, _)| k.lane == Lane::Drain)
            .flat_map(|(_, evs, _)| evs.iter())
            .filter_map(|ev| match ev.event {
                Event::DrainTorn { generations, bytes } => Some((ev.ts, generations, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(tears, vec![(SimTime::from_secs(11), 1, flushed.drained_bytes)]);
        assert_eq!(torn.drained_generations, 0);
        assert_eq!(torn.drained_bytes, 0);
        assert_eq!(torn.torn_generations, 1);
        assert_eq!(torn.torn_bytes, flushed.drained_bytes);
        assert_eq!(torn.last_drained, None);
        // The re-drain after recovery lands as a fresh completed
        // batch; the torn accounting stays.
        for _ in 0..2 {
            q.note_committed(0, SimTime::from_secs(30), &locals, &shared, &array).unwrap();
        }
        let redone = q.stats();
        assert_eq!(redone.drained_generations, 1);
        assert_eq!(redone.drained_bytes, flushed.drained_bytes);
        assert_eq!(redone.torn_generations, 1);
        assert_eq!(redone.torn_bytes, flushed.drained_bytes);
    }

    #[test]
    fn abandons_generations_with_wiped_sources() {
        let (locals, shared) = setup(2);
        let array = shared_device(BandwidthDevice::new(1_000_000, SimDuration::ZERO));
        let q = DrainQueue::new(2, 2, DrainTopology::Flat, Recorder::disabled());
        commit_gen(&locals, 0, 100);
        for _ in 0..2 {
            q.note_committed(0, SimTime::ZERO, &locals, &shared, &array).unwrap();
        }
        // Wipe rank 1's chunk of gen 0 before the drain tick at gen 1.
        locals[1].delete_chunk(ChunkKey::new(1, 0)).unwrap();
        commit_gen(&locals, 1, 100);
        for _ in 0..2 {
            q.note_committed(1, SimTime::ZERO, &locals, &shared, &array).unwrap();
        }
        assert_eq!(q.stats().abandoned_generations, 1);
        assert_eq!(shared.list_generations(0).unwrap(), vec![1]);
        assert_eq!(shared.list_manifests().unwrap(), vec![1]);
    }
}
