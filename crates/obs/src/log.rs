//! Ring-buffer event storage and the recording handles the rest of
//! the workspace holds.
//!
//! The design goal is *zero cost when disabled*: every config struct
//! carries a [`Recorder`], which is an `Option<Arc<FlightRecorder>>`
//! underneath. The `#[inline]` emit methods test the option and
//! return — the compiler sees a branch on a never-written pointer and
//! hoists/eliminates it, so instrumented hot paths run at PR 4 speed
//! unless a recorder is actually attached (perf/'s `obs.disabled_ns`
//! measures the disabled path).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use ickpt_sim::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::event::{Event, Lane, TimedEvent, TrackKey, DENSE_LANE_IDS};
use crate::metrics::MetricsPlane;

/// Default per-track ring capacity: enough for hours of 1 s tracker
/// windows or tens of thousands of chunk transfers before the ring
/// starts dropping its oldest entries.
pub(crate) const DEFAULT_TRACK_CAPACITY: usize = 1 << 16;

/// Total retained-event budget [`FlightRecorder::for_ranks`] divides
/// across per-rank tracks. At ~48 bytes per event this bounds the
/// recorder near 50 MB however many ranks a run has, and keeps the
/// JSONL/Perfetto exports of a 16k-rank trace loadable.
pub(crate) const TRACK_EVENT_BUDGET: usize = 1 << 20;

/// Per-track floor for [`FlightRecorder::for_ranks`]: even at 16k+
/// ranks every track keeps at least this much recent history.
pub(crate) const MIN_TRACK_CAPACITY: usize = 64;

/// One track's bounded ring of events. When full, the oldest event is
/// dropped and counted — a flight recorder keeps the *recent* past.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    events: VecDeque<TimedEvent>,
    dropped: u64,
}

impl EventLog {
    /// An empty log bounded at `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        Self { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Append one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TimedEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.events.len()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A consistent copy of everything a recorder holds, with every
/// track's events stable-sorted by `(ts, serialized form)` so the
/// export is independent of which thread appended first at equal
/// virtual time. Groups and tracks come out in key order.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// `(group id, group name)` in id order.
    pub groups: Vec<(u32, String)>,
    /// `(track, sorted events, dropped count)` in track order.
    pub tracks: Vec<(TrackKey, Vec<TimedEvent>, u64)>,
}

impl TraceSnapshot {
    /// Name of `group`, or a generated `run<id>` fallback.
    pub fn group_name(&self, group: u32) -> String {
        self.groups
            .iter()
            .find(|(id, _)| *id == group)
            .map(|(_, name)| name.clone())
            .unwrap_or_else(|| format!("run{group}"))
    }

    /// Total events retained across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|(_, evs, _)| evs.len()).sum()
    }

    /// Total events dropped by full rings.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|(_, _, d)| d).sum()
    }
}

/// Every ring in creation order, found by index arithmetic: a group's
/// table holds, at a lane's [`dense_slot`], the ring's position in
/// `rings` plus one (0 while the lane has none). Lanes without a dense
/// slot are looked up in an ordered map, so an id never sizes a table.
#[derive(Default)]
struct Tracks {
    rings: Vec<(TrackKey, EventLog)>,
    groups: BTreeMap<u32, Vec<u32>>,
    sparse: BTreeMap<TrackKey, u32>,
}

/// `run`, `drain`, then the six id-bearing lane classes interleaved by
/// id; `None` for an id at or above [`DENSE_LANE_IDS`].
fn dense_slot(lane: Lane) -> Option<usize> {
    let (class, id) = match lane {
        Lane::Run => return Some(0),
        Lane::Drain => return Some(1),
        Lane::Rank(id) => (0, id),
        Lane::Tenant(id) => (1, id),
        Lane::Device(kind, id) => (2 + kind as usize, id),
    };
    (id < DENSE_LANE_IDS).then_some(2 + id as usize * 6 + class)
}

impl Tracks {
    fn ring(&mut self, key: TrackKey, capacity: usize) -> &mut EventLog {
        let slot = match dense_slot(key.lane) {
            None => self.sparse.entry(key).or_insert(0),
            Some(at) => {
                let table = self.groups.entry(key.group).or_default();
                if table.len() <= at {
                    table.resize(at + 1, 0);
                }
                &mut table[at]
            }
        };
        if *slot == 0 {
            self.rings.push((key, EventLog::new(capacity)));
            *slot = u32::try_from(self.rings.len()).expect("fewer than 2^32 tracks");
        }
        &mut self.rings[*slot as usize - 1].1
    }
}

/// The shared event store: bounded per-track rings guarded by one
/// mutex. Rank threads emit a handful of events per virtual second, so
/// a single lock is nowhere near contended enough to matter; what
/// matters is that an emit finds its ring without comparing keys.
/// [`FlightRecorder::snapshot`] restores canonical track order, once.
pub struct FlightRecorder {
    capacity: usize,
    tracks: Mutex<Tracks>,
    groups: Mutex<BTreeMap<u32, String>>,
}

impl FlightRecorder {
    /// A recorder whose tracks each hold up to `capacity` events.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity: capacity.max(1),
            tracks: Mutex::new(Tracks::default()),
            groups: Mutex::new(BTreeMap::new()),
        })
    }

    /// A recorder with `DEFAULT_TRACK_CAPACITY`.
    pub fn with_default_capacity() -> Arc<Self> {
        Self::new(DEFAULT_TRACK_CAPACITY)
    }

    /// A recorder sized for a run with `nranks` rank tracks: the
    /// per-track ring capacity is `TRACK_EVENT_BUDGET / nranks`,
    /// clamped to `[MIN_TRACK_CAPACITY, DEFAULT_TRACK_CAPACITY]`,
    /// so total retained events — and export size — stay bounded as
    /// rank counts grow from the paper's 64 to 16k.
    pub fn for_ranks(nranks: usize) -> Arc<Self> {
        let per_track =
            (TRACK_EVENT_BUDGET / nranks.max(1)).clamp(MIN_TRACK_CAPACITY, DEFAULT_TRACK_CAPACITY);
        Self::new(per_track)
    }

    /// Per-track ring capacity in events.
    #[cfg(test)]
    pub(crate) fn track_capacity(&self) -> usize {
        self.capacity
    }

    /// Append one event to `track`'s ring.
    fn record(&self, track: TrackKey, ev: TimedEvent) {
        self.tracks.lock().ring(track, self.capacity).push(ev);
    }

    /// Give `group` a human-readable name (experiment label, workload
    /// tag). Unnamed groups export as `run<id>`.
    pub fn name_group(&self, group: u32, name: &str) {
        self.groups.lock().insert(group, name.to_string());
    }

    /// Copy out every track in [`TrackKey`] order, sorting each
    /// track's events by `(ts, dur, name, serialized arguments)` for
    /// deterministic export.
    pub fn snapshot(&self) -> TraceSnapshot {
        let groups =
            self.groups.lock().iter().map(|(id, name)| (*id, name.clone())).collect::<Vec<_>>();
        let tracks = self.tracks.lock();
        let mut rings: Vec<&(TrackKey, EventLog)> = tracks.rings.iter().collect();
        rings.sort_unstable_by_key(|(key, _)| *key);
        // Arguments are serialized only to break a `(ts, dur, name)` tie.
        let (mut a, mut b) = (String::new(), String::new());
        let mut out = Vec::with_capacity(rings.len());
        for (key, log) in rings {
            let mut evs: Vec<TimedEvent> = log.events().copied().collect();
            evs.sort_by(|x, y| {
                let head = |ev: &TimedEvent| (ev.ts, ev.dur, ev.event.name());
                head(x).cmp(&head(y)).then_with(|| {
                    a.clear();
                    b.clear();
                    x.event.write_args(&mut a);
                    y.event.write_args(&mut b);
                    a.cmp(&b)
                })
            });
            out.push((*key, evs, log.dropped()));
        }
        TraceSnapshot { groups, tracks: out }
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tracks = self.tracks.lock();
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("tracks", &tracks.rings.len())
            .finish()
    }
}

/// The handle every instrumented config carries: either disabled
/// (default — all emits are a test-and-return) or bound to a
/// [`FlightRecorder`] and a run group, optionally teeing every event
/// into a [`MetricsPlane`] (which sees *all* events — it aggregates on
/// ingest, so it is never subject to ring eviction).
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<FlightRecorder>>,
    metrics: Option<Arc<MetricsPlane>>,
    group: u32,
}

impl Recorder {
    /// The do-nothing recorder configs default to.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder feeding `sink` under group 0.
    pub fn new(sink: Arc<FlightRecorder>) -> Self {
        Self { sink: Some(sink), metrics: None, group: 0 }
    }

    /// The same recorder, additionally folding every emitted event
    /// into `plane` (live metrics without a second set of hook
    /// points). A recorder may carry a plane without a flight-recorder
    /// sink: metrics-only runs aggregate without retaining events.
    pub fn with_metrics(mut self, plane: Arc<MetricsPlane>) -> Self {
        self.metrics = Some(plane);
        self
    }

    /// The same sink(s), but events land in `group` (one group per
    /// simulated run when exporting several runs together).
    pub fn with_group(&self, group: u32) -> Self {
        Self { sink: self.sink.clone(), metrics: self.metrics.clone(), group }
    }

    /// Whether events are being kept (by the ring log, the metrics
    /// plane, or both).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some() || self.metrics.is_some()
    }

    /// Record an instant on `lane` at `ts`.
    #[inline]
    pub fn emit(&self, lane: Lane, ts: SimTime, event: Event) {
        if self.is_enabled() {
            self.record(lane, TimedEvent { ts, dur: SimDuration::ZERO, event });
        }
    }

    /// Record a complete slice `[ts, ts+dur]` on `lane`.
    #[inline]
    pub fn emit_span(&self, lane: Lane, ts: SimTime, dur: SimDuration, event: Event) {
        if self.is_enabled() {
            self.record(lane, TimedEvent { ts, dur, event });
        }
    }

    /// The shared slow path behind `emit`/`emit_span`: deliver to the
    /// ring log and/or the metrics plane. Out of line so the disabled
    /// fast path stays a pair of pointer tests.
    fn record(&self, lane: Lane, ev: TimedEvent) {
        if let Some(sink) = &self.sink {
            sink.record(TrackKey { group: self.group, lane }, ev);
        }
        if let Some(plane) = &self.metrics {
            plane.ingest(self.group, lane, &ev);
        }
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.sink.is_some(), self.metrics.is_some()) {
            (false, false) => write!(f, "Recorder(disabled)"),
            (true, false) => write!(f, "Recorder(enabled, group {})", self.group),
            (false, true) => write!(f, "Recorder(metrics only, group {})", self.group),
            (true, true) => write!(f, "Recorder(enabled + metrics, group {})", self.group),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DeviceKind;

    fn te(ns: u64, ev: Event) -> TimedEvent {
        TimedEvent { ts: SimTime(ns), dur: SimDuration::ZERO, event: ev }
    }

    #[test]
    fn ring_drops_oldest() {
        let mut log = EventLog::new(2);
        log.push(te(1, Event::DrainQueueDepth { depth: 1 }));
        log.push(te(2, Event::DrainQueueDepth { depth: 2 }));
        log.push(te(3, Event::DrainQueueDepth { depth: 3 }));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.events().next().unwrap().ts, SimTime(2));
    }

    #[test]
    fn disabled_recorder_records_nothing_and_cheaply() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.emit(Lane::Run, SimTime(0), Event::RunStart { ranks: 4 });
        rec.emit_span(
            Lane::Rank(0),
            SimTime(5),
            SimDuration(4),
            Event::CheckpointStall { generation: 1 },
        );
        // Nothing to assert beyond "did not panic": there is no sink.
    }

    #[test]
    fn debug_names_what_is_attached() {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        let ring = Recorder::new(FlightRecorder::new(4)).with_group(3);
        let metered = Recorder::disabled().with_metrics(plane.clone());
        assert_eq!(format!("{:?}", Recorder::disabled()), "Recorder(disabled)");
        assert_eq!(format!("{ring:?}"), "Recorder(enabled, group 3)");
        assert_eq!(format!("{metered:?}"), "Recorder(metrics only, group 0)");
        let both = ring.with_metrics(plane);
        assert_eq!(format!("{both:?}"), "Recorder(enabled + metrics, group 3)");
    }

    #[test]
    fn snapshot_sorts_equal_timestamps_deterministically() {
        let fr = FlightRecorder::new(16);
        let rec = Recorder::new(fr.clone());
        let lane = Lane::Device(DeviceKind::Local, 0);
        // Same virtual instant, inserted in "thread B first" order.
        rec.emit(
            lane,
            SimTime(10),
            Event::DeviceTransfer { bytes: 9, queue_wait_ns: 0, service_ns: 1 },
        );
        rec.emit(
            lane,
            SimTime(10),
            Event::DeviceTransfer { bytes: 3, queue_wait_ns: 0, service_ns: 1 },
        );
        let snap = fr.snapshot();
        let evs = &snap.tracks[0].1;
        match (&evs[0].event, &evs[1].event) {
            (Event::DeviceTransfer { bytes: a, .. }, Event::DeviceTransfer { bytes: b, .. }) => {
                // "bytes":3 sorts before "bytes":9 regardless of insert order.
                assert_eq!((*a, *b), (3, 9));
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }
}
