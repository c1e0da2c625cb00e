//! `StableStorage::get_chunk` is `read_chunk` plus an owned copy: on
//! every implementor the two return the same bytes and the same errors,
//! and through the virtual-time readers they cost the same device time
//! and emit the same events.

use std::sync::Arc;

use crate::{
    Chunk, ChunkBuf, ChunkKey, ChunkKind, DrainTopology, FileStore, MemStore, PageRecord,
    SchemeSpec, StableStorage, StorageError, ThrottledStore, TierTopology, CHUNK_PAGE_SIZE,
};
use ickpt_obs::{FlightRecorder, Recorder, TimedEvent, TrackKey};
use ickpt_sim::{BandwidthDevice, SimDuration, SimTime};

const MB: u64 = 1_000_000;

fn chunk(rank: u32, generation: u64, fill: u8) -> Vec<u8> {
    Chunk {
        kind: ChunkKind::Full,
        rank,
        generation,
        parent: None,
        capture_time_ns: generation,
        heap_pages: 4,
        mmap_blocks: vec![],
        zero_ranges: vec![],
        records: vec![PageRecord {
            start_page: 0,
            data: vec![fill; (1 + rank as usize) * CHUNK_PAGE_SIZE],
        }],
        delta_records: vec![],
        dropped_pages: 0,
        app_state: vec![],
    }
    .encode()
}

/// Both fetches agree on a present and on a missing key.
fn same_fetch(store: &dyn StableStorage, key: ChunkKey, want: &[u8]) {
    assert_eq!(store.get_chunk(key).unwrap(), want);
    assert_eq!(&*store.read_chunk(key).unwrap(), want);
    let missing = ChunkKey::new(key.rank, key.generation + 100);
    assert!(matches!(store.get_chunk(missing), Err(StorageError::NotFound(k)) if k == missing));
    assert!(matches!(store.read_chunk(missing), Err(StorageError::NotFound(k)) if k == missing));
}

#[test]
fn memstore_and_filestore_fetch_paths_agree() {
    let key = ChunkKey::new(1, 3);
    let data = chunk(1, 3, 0xA5);
    let mem = MemStore::new();
    mem.put_chunk(key, &data).unwrap();
    same_fetch(&mem, key, &data);

    // FileStore has no `read_chunk` of its own: the trait default.
    let dir = std::env::temp_dir().join(format!("ickpt_read_chunk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = FileStore::open(&dir).unwrap();
    files.put_chunk(key, &data).unwrap();
    same_fetch(&files, key, &data);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn memstore_hands_out_its_own_buffer_and_overwrite_leaves_it_alone() {
    let key = ChunkKey::new(0, 0);
    let store = MemStore::new();
    store.put_chunk(key, b"first version").unwrap();
    let a = store.read_chunk(key).unwrap();
    let b = store.read_chunk(key).unwrap();
    assert_eq!(a.as_ptr(), b.as_ptr(), "two readers share one buffer, no copy");
    let copy = store.get_chunk(key).unwrap();
    assert_ne!(copy.as_ptr(), a.as_ptr(), "get_chunk is an owned copy");

    store.put_chunk(key, b"second").unwrap();
    store.delete_chunk(ChunkKey::new(0, 1)).unwrap();
    assert_eq!(&*a, b"first version", "an overwrite does not reach a buffer a reader holds");
    assert_eq!(&*store.read_chunk(key).unwrap(), b"second");
    store.delete_chunk(key).unwrap();
    assert_eq!(&*a, b"first version", "nor does a delete");
    assert_eq!(a.clone().into_vec(), b"first version");

    // A uniquely held buffer unwraps without a copy.
    let owned = vec![7u8; 4096];
    let ptr = owned.as_ptr();
    let back = ChunkBuf::from(owned).into_vec();
    assert_eq!(back.as_ptr(), ptr);
}

/// Every event the recorder holds, track by track.
fn events(sink: &FlightRecorder) -> Vec<(TrackKey, Vec<TimedEvent>)> {
    sink.snapshot().tracks.into_iter().map(|(key, evs, _)| (key, evs)).collect()
}

#[test]
fn timed_reads_charge_and_record_both_fetch_paths_alike() {
    let run = |shared: bool| {
        let inner = Arc::new(MemStore::new());
        let sink = FlightRecorder::new(1024);
        let store = ThrottledStore::new(inner, BandwidthDevice::new(MB, SimDuration::ZERO))
            .observed(
                Recorder::new(sink.clone()),
                ickpt_obs::Lane::Rank(0),
                ickpt_obs::Lane::Device(ickpt_obs::DeviceKind::Array, 0),
            );
        let mut bytes = Vec::new();
        for g in 0..3u64 {
            store.inner().put_chunk(ChunkKey::new(0, g), &chunk(0, g, g as u8 + 1)).unwrap();
        }
        let reader = store.timed_reads(SimTime::from_secs(1));
        for g in 0..3u64 {
            let key = ChunkKey::new(0, g);
            bytes.push(if shared {
                reader.read_chunk(key).unwrap().into_vec()
            } else {
                reader.get_chunk(key).unwrap()
            });
        }
        let missing = ChunkKey::new(0, 9);
        if shared {
            assert!(reader.read_chunk(missing).is_err());
        } else {
            assert!(reader.get_chunk(missing).is_err());
        }
        (bytes, reader.now(), store.bytes_total(), events(&sink))
    };
    let (owned, shared) = (run(false), run(true));
    assert!(owned.1 > SimTime::from_secs(1), "reads cost device time");
    assert!(owned.3.iter().map(|(_, evs)| evs.len()).sum::<usize>() >= 6, "reads are recorded");
    assert_eq!(owned, shared);
}

#[test]
fn tier_reader_charges_and_records_both_fetch_paths_alike() {
    // Rank 1's node is lost after two generations: generation 1 comes
    // back by reconstruction, then (peers wiped too) generation 0 from
    // the durable tier; rank 0 reads its intact local tier.
    let run = |spec: SchemeSpec, shared: bool| {
        let sink = FlightRecorder::new(4096);
        let topo = TierTopology::new(
            4,
            spec,
            BandwidthDevice::new(1000 * MB, SimDuration::ZERO),
            BandwidthDevice::new(900 * MB, SimDuration::ZERO),
            BandwidthDevice::new(320 * MB, SimDuration::ZERO),
            Arc::new(MemStore::new()),
            1,
            DrainTopology::Flat,
            Recorder::new(sink.clone()),
        );
        for gen in 0..2u64 {
            let now = SimTime::from_secs(gen + 1);
            for rank in 0..4usize {
                let key = ChunkKey::new(rank as u32, gen);
                let data = chunk(rank as u32, gen, 16 * gen as u8 + rank as u8 + 1);
                topo.handle(rank).put_chunk_timed(now, key, data.into()).unwrap();
            }
            topo.handle(0).put_manifest_timed(now, gen, b"manifest").unwrap();
            for rank in 0..4usize {
                topo.handle(rank).note_committed(gen, now).unwrap();
            }
        }
        let fetch = |reader: &dyn StableStorage, key: ChunkKey| {
            if shared {
                reader.read_chunk(key).map(ChunkBuf::into_vec)
            } else {
                reader.get_chunk(key)
            }
        };
        let mut bytes = Vec::new();
        let local = topo.reader(0, SimTime::ZERO);
        bytes.push(fetch(&local, ChunkKey::new(0, 1)).unwrap());
        topo.wipe_local(1).unwrap();
        let lost = topo.reader(1, SimTime::ZERO);
        bytes.push(fetch(&lost, ChunkKey::new(1, 1)).unwrap());
        assert!(topo.local(1).get_chunk(ChunkKey::new(1, 1)).is_ok(), "rebuilt chunk deposited");
        for rank in [0, 2, 3] {
            topo.wipe_local(rank).unwrap();
        }
        bytes.push(fetch(&lost, ChunkKey::new(1, 0)).unwrap());
        assert!(fetch(&lost, ChunkKey::new(1, 7)).is_err());
        (bytes, local.now(), lost.now(), topo.usage(0), topo.usage(1), events(&sink))
    };
    for spec in [SchemeSpec::Partner { offset: 1 }, SchemeSpec::XorParity { group_size: 2 }] {
        let (owned, shared) = (run(spec, false), run(spec, true));
        assert_eq!(owned.0[1], chunk(1, 1, 16 + 2), "{spec:?}: reconstruction is byte-exact");
        assert_eq!(owned.0[2], chunk(1, 0, 2), "{spec:?}: durable read");
        assert!(owned.2 > owned.1, "{spec:?}: network and array reads cost more than local");
        assert!(owned.4.recovery_net_bytes > 0 && owned.4.recovery_durable_bytes > 0);
        assert_eq!(owned, shared, "{spec:?}");
    }
}
