//! The live metrics plane: streaming counters, gauges, windowed rate
//! meters and deterministic log₂ histograms fed from the same
//! [`Recorder`](crate::Recorder) hook points the flight recorder uses.
//!
//! The flight recorder answers "what happened, in time order"; the
//! metrics plane answers "how much, how fast, how bad is the tail" —
//! the signals ROADMAP item 4's adaptive controller needs while a run
//! is still in flight. Every accumulator is a commutative, associative
//! integer operation (sum, max, bucket add) keyed by
//! `(metric name, label)` and — for windowed series — by the *virtual*
//! window index `ts / window_ns`. Ingestion order therefore cannot
//! change any value, so the [text snapshot](MetricsPlane::render_text)
//! is byte-identical at any `ICKPT_SIM_WORKERS` / `ICKPT_BENCH_THREADS`
//! setting, exactly like the trace exporters.
//!
//! Counter and histogram names are a closed vocabulary, so ingest is
//! index arithmetic: a name is a private id into a dense cell table and
//! `COUNTER_NAMES` / `HIST_NAMES` (name-sorted) order every report. Only
//! gauges keep an ordered map (`Event::Counter` names are the caller's);
//! windows are an index-sorted vector with a last-hit hint.
//!
//! Quantiles come from [`LogHistogram`]: 65 fixed power-of-two buckets
//! whose nearest-rank quantile is bit-reproducible and lands within
//! one log₂ bucket of the exact nearest-rank statistic (property-pinned
//! in `tests/metrics_props.rs`). Histogram merge is an element-wise
//! vector add, so tree-reduced and flat folds agree exactly.
//!
//! The plane profiles itself: every ingest bumps deterministic
//! op counters ([`MetaStats`]) exported under `ickpt_meta_*`, and the
//! glue layer replays them as a `metrics_*` counter track so the
//! plane's own footprint is visible in the trace it annotates. The
//! disabled path stays in the recorder's ~sub-ns regime: a config
//! without a plane attached costs one pointer test per emit.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

use ickpt_sim::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::event::{DeviceKind, Event, Lane, RecoveryTier, TimedEvent, DENSE_LANE_IDS};

/// Environment knob controlling the metrics plane in the bench/repro
/// binaries: `off` (default), `on` (1 s windows) or `window=<secs>`.
pub(crate) const METRICS_ENV: &str = "ICKPT_METRICS";

/// Number of fixed histogram buckets: bucket 0 holds zeros, bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b - 1]`, up to bucket 64.
pub(crate) const HIST_BUCKETS: usize = 65;

/// Parsed `ICKPT_METRICS` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Whether a [`MetricsPlane`] should be attached at all.
    pub enabled: bool,
    /// Virtual-time window for the rate meters and SLO evaluation.
    pub window: SimDuration,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self { enabled: false, window: SimDuration::from_secs(1) }
    }
}

impl MetricsConfig {
    /// Parse a [`METRICS_ENV`] value (an [`ickpt_sim::env::Parser`]).
    pub(crate) fn parse(raw: &str) -> Result<Self, &'static str> {
        // Whole seconds >= 1 whose nanosecond count fits a `SimDuration`.
        let window =
            |secs: &str| secs.parse().ok().filter(|s| (1..=u64::MAX / 1_000_000_000).contains(s));
        match raw {
            "off" => Ok(Self { enabled: false, ..Self::default() }),
            "on" => Ok(Self { enabled: true, ..Self::default() }),
            v => match v.strip_prefix("window=").and_then(window) {
                Some(secs) => Ok(Self { enabled: true, window: SimDuration::from_secs(secs) }),
                None => Err("\"off\", \"on\" or \"window=<secs>\""),
            },
        }
    }

    /// Read `ICKPT_METRICS` (a malformed value exits 2). Absent means
    /// disabled.
    pub fn from_env() -> Self {
        ickpt_sim::env::knob(METRICS_ENV, Self::parse).unwrap_or_default()
    }
}

/// Index of the bucket `v` falls in: 0 for 0, else `1 + floor(log2 v)`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `b` — the value a quantile lookup
/// reports for samples that landed in it.
pub(crate) fn bucket_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        1..=63 => (1u64 << b) - 1,
        _ => u64::MAX,
    }
}

/// A fixed-bucket log₂ histogram with bit-reproducible quantiles.
///
/// Recording is a bucket increment plus min/max/sum updates — all
/// commutative, so any interleaving of recorders yields the same
/// state. [`LogHistogram::merge`] is an element-wise add, making the
/// histogram a CRDT the summary tree-reduce can fold in any shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self { counts: [0; HIST_BUCKETS], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` in (associative and commutative).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank quantile at `pct` percent (1..=100), reported as
    /// the inclusive upper bound of the bucket holding the rank-`⌈pct
    /// · n / 100⌉` sample. Exact value and estimate share a bucket by
    /// construction, so the estimate is within one log₂ bucket of the
    /// true nearest-rank statistic. `None` when empty.
    pub fn quantile(&self, pct: u8) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let pct = u64::from(pct.clamp(1, 100));
        // ceil(pct * total / 100), computed in u128 to dodge overflow.
        let rank = ((pct as u128 * self.total as u128).div_ceil(100)) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the reported bound into the observed range so
                // p100 equals the true max when the top bucket is wide.
                return Some(bucket_bound(b).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }
}

/// Dimension attached to a metric beyond its name — which device lane,
/// recovery tier or tenant the value belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricLabel {
    /// Unlabeled (run-wide) metric.
    None,
    /// Per-device metric (`dev="local:0"`).
    Device(DeviceKind, u32),
    /// Per-recovery-tier metric (`tier="durable"`).
    Tier(RecoveryTier),
}

impl MetricLabel {
    /// Append the label's `key="value"` form (empty for
    /// [`MetricLabel::None`]).
    fn write(&self, out: &mut String) {
        match self {
            MetricLabel::None => {}
            MetricLabel::Device(kind, idx) => {
                let _ = write!(out, ",dev=\"{}:{idx}\"", kind.token());
            }
            MetricLabel::Tier(tier) => {
                let _ = write!(out, ",tier=\"{}\"", tier.token());
            }
        }
    }
}

/// A private id enum and the table of metric names it indexes, both in
/// name order (`vocabulary_is_name_sorted`): an id is its name's rank.
macro_rules! vocabulary {
    ($id:ident, $names:ident: $($variant:ident = $name:literal),+ $(,)?) => {
        #[derive(Clone, Copy)]
        enum $id { $($variant),+ }
        const $names: &[&str] = &[$($name),+];
    };
}

#[rustfmt::skip]
vocabulary!(Ctr, COUNTER_NAMES:
    AdmitBytes = "admit_bytes", Admits = "admits", CaptureBytes = "capture_bytes",
    CapturePages = "capture_pages", Captures = "captures", ChunkGetBytes = "chunk_get_bytes",
    ChunkGets = "chunk_gets", ChunkPutBytes = "chunk_put_bytes", ChunkPuts = "chunk_puts",
    Commits = "commits", DedupBytesSaved = "dedup_bytes_saved", DedupPages = "dedup_pages",
    DeltaBytesSaved = "delta_bytes_saved", DeltaPages = "delta_pages",
    DeviceBusyNs = "device_busy_ns", DeviceBytes = "device_bytes",
    DeviceQueueWaitNs = "device_queue_wait_ns", DeviceTransfers = "device_transfers",
    DirtyBytes = "dirty_bytes", DrainBatches = "drain_batches", DrainBytes = "drain_bytes",
    DrainGenerations = "drain_generations", DrainTornBytes = "drain_torn_bytes",
    DrainTornGenerations = "drain_torn_generations", Failures = "failures",
    Iterations = "iterations", ManifestPuts = "manifest_puts", PublishBytes = "publish_bytes",
    ReconstructBytes = "reconstruct_bytes", RecoveryPlans = "recovery_plans",
    RecoveryReadBytes = "recovery_read_bytes", RecoveryReads = "recovery_reads",
    Rejects = "rejects", RestoreBytes = "restore_bytes", RestoreNs = "restore_ns",
    Restores = "restores", SloBreaches = "slo_breaches", StallNs = "stall_ns",
    TenantCheckpoints = "tenant_checkpoints", TenantStallNs = "tenant_stall_ns",
    TrackerFaults = "tracker_faults", TrackerWindows = "tracker_windows",
);

#[rustfmt::skip]
vocabulary!(Hist, HIST_NAMES:
    AdmissionWait = "admission_wait_ns", CaptureCost = "capture_cost_ns",
    DrainBatch = "drain_batch_ns", Stall = "stall_ns", TenantStall = "tenant_stall_ns",
);

/// The counters `DeviceTransfer` feeds per device and the ones recovery
/// events feed per tier: each a run of consecutive ids. The cell table
/// holds every unlabelled cell by id, then one row of `TIER_CTRS` per
/// tier, then one row of `DEVICE_CTRS` per device, row `4 * index + kind`.
const DEVICE_CTRS: std::ops::Range<usize> = Ctr::DeviceBusyNs as usize..Ctr::DirtyBytes as usize;
const TIER_CTRS: std::ops::Range<usize> = Ctr::RecoveryPlans as usize..Ctr::Rejects as usize;
const TIER_ROWS: usize = COUNTER_NAMES.len();
const DEVICE_ROWS: usize = TIER_ROWS + 4 * TIER_CTRS.end - 4 * TIER_CTRS.start;
/// Cells of one device index (four kinds), and the end of the rows of
/// indices below [`DENSE_LANE_IDS`]: the part of the table kept dense.
const INDEX_CELLS: usize = 4 * (DEVICE_CTRS.end - DEVICE_CTRS.start);
const DENSE_CELLS: usize = DEVICE_ROWS + DENSE_LANE_IDS as usize * INDEX_CELLS;

/// Where counter `id` under `label` sits in the cell table; `None` when
/// the counter does not carry that kind of label.
fn cell_at(id: usize, label: MetricLabel) -> Option<usize> {
    let col = |ids: &std::ops::Range<usize>| ids.contains(&id).then(|| id - ids.start);
    let device_row = |kind: DeviceKind, idx: u32| 4 * idx as usize + kind as usize;
    Some(match label {
        MetricLabel::None => id,
        MetricLabel::Tier(tier) => TIER_ROWS + tier as usize * TIER_CTRS.len() + col(&TIER_CTRS)?,
        MetricLabel::Device(kind, idx) => {
            DEVICE_ROWS + device_row(kind, idx) * DEVICE_CTRS.len() + col(&DEVICE_CTRS)?
        }
    })
}

/// One counter cell. `touched` is what the map-keyed plane expressed by
/// the key being present: a counter bumped by 0 still reports a 0.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    value: u64,
    touched: bool,
}

/// One virtual-time window's accumulated rates and distributions. All
/// fields fold element-wise (sums and maxes), so windows are as
/// order-independent as the scalar metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowAccum {
    /// Checkpoint captures whose span started in the window.
    pub captures: u64,
    /// Encoded capture payload bytes — the *effective* IB the storage
    /// path actually carried.
    pub effective_ib_bytes: u64,
    /// What dirty-bit accounting would have shipped: payload plus the
    /// bytes the content layer deduped or delta-encoded away.
    pub dirty_ib_bytes: u64,
    /// Drain batches completing commit→durable in this window.
    pub drain_batches: u64,
    /// Bytes those batches pushed to the durable array.
    pub drain_bytes: u64,
    /// Deepest drain queue observed in the window.
    pub drain_depth_max: u64,
    /// Virtual ns ranks spent blocked on in-flight checkpoints.
    pub stall_ns: u64,
    /// Device service (busy) virtual ns, summed across device lanes.
    pub device_busy_ns: u64,
    /// Service admission grants.
    pub admits: u64,
    /// Service admission rejections (deferred requests).
    pub rejects: u64,
    /// Rank checkpoint-stall span durations.
    pub stall: LogHistogram,
    /// Tenant request-blocked span durations.
    pub tenant_stall: LogHistogram,
}

impl WindowAccum {
    /// Fold `other` in (associative and commutative).
    pub fn merge(&mut self, other: &WindowAccum) {
        self.captures += other.captures;
        self.effective_ib_bytes += other.effective_ib_bytes;
        self.dirty_ib_bytes += other.dirty_ib_bytes;
        self.drain_batches += other.drain_batches;
        self.drain_bytes += other.drain_bytes;
        self.drain_depth_max = self.drain_depth_max.max(other.drain_depth_max);
        self.stall_ns += other.stall_ns;
        self.device_busy_ns += other.device_busy_ns;
        self.admits += other.admits;
        self.rejects += other.rejects;
        self.stall.merge(&other.stall);
        self.tenant_stall.merge(&other.tenant_stall);
    }

    /// Device busy fraction over a window of `window_ns`, in basis
    /// points (may exceed 10 000 when several devices are busy at
    /// once — it is a *sum* over device lanes).
    pub fn busy_bp(&self, window_ns: u64) -> u64 {
        if window_ns == 0 {
            return 0;
        }
        (self.device_busy_ns as u128 * 10_000 / window_ns as u128) as u64
    }
}

/// One run group's metric state: the value behind a [`MetricsView`].
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupMetrics {
    /// Counter cells by [`cell_at`], grown on demand up to
    /// `DENSE_CELLS`; a cell beyond is a key of `sparse`, so a device
    /// index never sizes the table.
    cells: Vec<Cell>,
    sparse: BTreeMap<usize, Cell>,
    gauges_max: BTreeMap<&'static str, u64>,
    /// By [`Hist`]; reported once it holds a sample.
    hists: [LogHistogram; HIST_NAMES.len()],
    /// Sorted by window index. Boxed, so opening a window in front of
    /// later ones moves pointers, not kilobyte accumulators.
    windows: Vec<(u64, Box<WindowAccum>)>,
    /// Where the last event's window is: the next one's, mostly.
    window_hint: usize,
    horizon_ns: u64,
}

impl GroupMetrics {
    #[inline]
    fn add(&mut self, id: Ctr, label: MetricLabel, delta: u64) -> u64 {
        let at = cell_at(id as usize, label).expect("a counter is bumped under its own label");
        if at >= self.cells.len() && at < DENSE_CELLS {
            self.cells.resize(at + 1, Cell::default());
        }
        let cell = match self.cells.get_mut(at) {
            Some(cell) => cell,
            None => self.sparse.entry(at).or_default(),
        };
        cell.value += delta;
        cell.touched = true;
        1
    }

    fn gauge_max(&mut self, name: &'static str, v: u64) -> u64 {
        let g = self.gauges_max.entry(name).or_insert(0);
        *g = (*g).max(v);
        1
    }

    #[inline]
    fn hist(&mut self, id: Hist, v: u64) -> u64 {
        self.hists[id as usize].record(v);
        1
    }

    fn window(&mut self, ts: SimTime, window_ns: u64) -> &mut WindowAccum {
        let index = ts.0 / window_ns.max(1);
        if self.windows.get(self.window_hint).map(|(i, _)| *i) != Some(index) {
            let found = self.windows.binary_search_by_key(&index, |(i, _)| *i);
            self.window_hint = found.unwrap_or_else(|at| {
                self.windows.insert(at, (index, Box::default()));
                at
            });
        }
        &mut self.windows[self.window_hint].1
    }

    /// Counter `id` under `label`, if that cell was ever bumped.
    fn cell(&self, id: usize, label: MetricLabel) -> Option<u64> {
        let at = cell_at(id, label)?;
        let cell = self.cells.get(at).or_else(|| self.sparse.get(&at))?;
        cell.touched.then_some(cell.value)
    }

    /// Every bumped cell of counter `id` with its label, in label
    /// order: unlabelled, devices by `(kind, index)`, tiers.
    fn cells(&self, id: usize) -> impl Iterator<Item = (MetricLabel, u64)> + '_ {
        let mut labels = vec![MetricLabel::None];
        if DEVICE_CTRS.contains(&id) {
            // Device indices that have cells: the dense rows', then the keys'.
            let index_of = |at: usize| (at.saturating_sub(DEVICE_ROWS) / INDEX_CELLS) as u32;
            let sparse = self.sparse.keys().map(|at| index_of(*at));
            let mut indices: Vec<u32> = (0..=index_of(self.cells.len())).chain(sparse).collect();
            indices.dedup();
            for kind in DeviceKind::ALL {
                labels.extend(indices.iter().map(|idx| MetricLabel::Device(kind, *idx)));
            }
        }
        labels.extend(RecoveryTier::ALL.map(MetricLabel::Tier));
        labels.into_iter().filter_map(move |label| Some((label, self.cell(id, label)?)))
    }

    /// Apply one event; returns `(cell updates, histogram records)`
    /// for the plane's self-profile.
    fn apply(&mut self, lane: Lane, ev: &TimedEvent, window_ns: u64) -> (u64, u64) {
        let mut updates = 0u64;
        let mut hists = 0u64;
        self.horizon_ns = self.horizon_ns.max(ev.ts.0 + ev.dur.0);
        let dur = ev.dur.0;
        match ev.event {
            Event::RunStart { ranks } => {
                updates += self.gauge_max("ranks", u64::from(ranks));
            }
            Event::IterationBoundary { .. } => {
                updates += self.add(Ctr::Iterations, MetricLabel::None, 1);
            }
            Event::TrackerWindow { faults, .. } => {
                updates += self.add(Ctr::TrackerWindows, MetricLabel::None, 1);
                updates += self.add(Ctr::TrackerFaults, MetricLabel::None, faults);
            }
            Event::Capture { pages, payload_bytes, .. } => {
                updates += self.add(Ctr::Captures, MetricLabel::None, 1);
                updates += self.add(Ctr::CapturePages, MetricLabel::None, pages);
                updates += self.add(Ctr::CaptureBytes, MetricLabel::None, payload_bytes);
                updates += self.add(Ctr::DirtyBytes, MetricLabel::None, payload_bytes);
                let w = self.window(ev.ts, window_ns);
                w.captures += 1;
                w.effective_ib_bytes += payload_bytes;
                w.dirty_ib_bytes += payload_bytes;
                updates += 3;
            }
            Event::DedupSkip { pages, bytes_saved, .. } => {
                updates += self.add(Ctr::DedupPages, MetricLabel::None, pages);
                updates += self.add(Ctr::DedupBytesSaved, MetricLabel::None, bytes_saved);
                updates += self.add(Ctr::DirtyBytes, MetricLabel::None, bytes_saved);
                self.window(ev.ts, window_ns).dirty_ib_bytes += bytes_saved;
                updates += 1;
            }
            Event::DeltaEncode { pages, bytes_saved, .. } => {
                updates += self.add(Ctr::DeltaPages, MetricLabel::None, pages);
                updates += self.add(Ctr::DeltaBytesSaved, MetricLabel::None, bytes_saved);
                updates += self.add(Ctr::DirtyBytes, MetricLabel::None, bytes_saved);
                self.window(ev.ts, window_ns).dirty_ib_bytes += bytes_saved;
                updates += 1;
            }
            Event::CheckpointStall { .. } => {
                updates += self.add(Ctr::StallNs, MetricLabel::None, dur);
                hists += self.hist(Hist::Stall, dur);
                let w = self.window(ev.ts, window_ns);
                w.stall_ns += dur;
                w.stall.record(dur);
                updates += 1;
                hists += 1;
            }
            Event::CommitBarrier { .. } => {
                updates += self.add(Ctr::Commits, MetricLabel::None, 1);
            }
            Event::ChunkPut { bytes, queue_wait_ns, service_ns, .. } => {
                updates += self.add(Ctr::ChunkPuts, MetricLabel::None, 1);
                updates += self.add(Ctr::ChunkPutBytes, MetricLabel::None, bytes);
                hists += self.hist(Hist::CaptureCost, queue_wait_ns + service_ns);
            }
            Event::ChunkGet { bytes, .. } => {
                updates += self.add(Ctr::ChunkGets, MetricLabel::None, 1);
                updates += self.add(Ctr::ChunkGetBytes, MetricLabel::None, bytes);
            }
            Event::ManifestPut { .. } => {
                updates += self.add(Ctr::ManifestPuts, MetricLabel::None, 1);
            }
            Event::DeviceTransfer { bytes, queue_wait_ns, service_ns } => {
                let label = match lane {
                    Lane::Device(kind, idx) => MetricLabel::Device(kind, idx),
                    _ => MetricLabel::None,
                };
                updates += self.add(Ctr::DeviceTransfers, label, 1);
                updates += self.add(Ctr::DeviceBytes, label, bytes);
                updates += self.add(Ctr::DeviceBusyNs, label, service_ns);
                updates += self.add(Ctr::DeviceQueueWaitNs, label, queue_wait_ns);
                self.window(ev.ts, window_ns).device_busy_ns += service_ns;
                updates += 1;
            }
            Event::RedundancyPublish { bytes, .. } => {
                updates += self.add(Ctr::PublishBytes, MetricLabel::None, bytes);
            }
            Event::RedundancyReconstruct { bytes, .. } => {
                updates += self.add(Ctr::ReconstructBytes, MetricLabel::None, bytes);
            }
            Event::DrainBatch { generations, bytes, .. } => {
                updates += self.add(Ctr::DrainBatches, MetricLabel::None, 1);
                updates += self.add(Ctr::DrainGenerations, MetricLabel::None, generations);
                updates += self.add(Ctr::DrainBytes, MetricLabel::None, bytes);
                hists += self.hist(Hist::DrainBatch, dur);
                let w = self.window(ev.ts, window_ns);
                w.drain_batches += 1;
                w.drain_bytes += bytes;
                updates += 2;
            }
            Event::DrainQueueDepth { depth } => {
                updates += self.gauge_max("drain_depth_max", depth);
                let w = self.window(ev.ts, window_ns);
                w.drain_depth_max = w.drain_depth_max.max(depth);
                updates += 1;
            }
            Event::DrainTorn { generations, bytes } => {
                updates += self.add(Ctr::DrainTornGenerations, MetricLabel::None, generations);
                updates += self.add(Ctr::DrainTornBytes, MetricLabel::None, bytes);
            }
            Event::AdmissionGrant { bytes, .. } => {
                updates += self.add(Ctr::Admits, MetricLabel::None, 1);
                updates += self.add(Ctr::AdmitBytes, MetricLabel::None, bytes);
                self.window(ev.ts, window_ns).admits += 1;
                updates += 1;
            }
            Event::AdmissionReject { retry_ns, .. } => {
                updates += self.add(Ctr::Rejects, MetricLabel::None, 1);
                hists += self.hist(Hist::AdmissionWait, retry_ns);
                self.window(ev.ts, window_ns).rejects += 1;
                updates += 1;
            }
            Event::TenantStall { .. } => {
                updates += self.add(Ctr::TenantCheckpoints, MetricLabel::None, 1);
                updates += self.add(Ctr::TenantStallNs, MetricLabel::None, dur);
                hists += self.hist(Hist::TenantStall, dur);
                self.window(ev.ts, window_ns).tenant_stall.record(dur);
                hists += 1;
            }
            Event::RecoveryRead { tier, bytes } => {
                updates += self.add(Ctr::RecoveryReads, MetricLabel::Tier(tier), 1);
                updates += self.add(Ctr::RecoveryReadBytes, MetricLabel::Tier(tier), bytes);
            }
            Event::RecoveryPlan { tier, .. } => {
                updates += self.add(Ctr::RecoveryPlans, MetricLabel::Tier(tier), 1);
            }
            Event::Restore { bytes, .. } => {
                updates += self.add(Ctr::Restores, MetricLabel::None, 1);
                updates += self.add(Ctr::RestoreNs, MetricLabel::None, dur);
                updates += self.add(Ctr::RestoreBytes, MetricLabel::None, bytes);
            }
            Event::Failure { .. } => {
                updates += self.add(Ctr::Failures, MetricLabel::None, 1);
            }
            Event::Counter { name, value } => {
                updates += self.gauge_max(name, value);
            }
            Event::SloBreach { .. } => {
                updates += self.add(Ctr::SloBreaches, MetricLabel::None, 1);
            }
        }
        (updates, hists)
    }
}

/// Deterministic op counts the plane keeps about itself. Multiplied by
/// perf/'s per-op costs (`obs.plane_ingest_ns`) they bound the plane's
/// own overhead without putting host time (a determinism hazard) in
/// any snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetaStats {
    /// Events offered to [`MetricsPlane::ingest`].
    pub events_ingested: u64,
    /// Counter/gauge/window cell updates those events caused.
    pub metric_updates: u64,
    /// Histogram samples recorded.
    pub hist_records: u64,
}

#[derive(Default)]
struct PlaneState {
    /// Boxed: tree nodes hold ids and pointers, not kilobytes of cells.
    groups: BTreeMap<u32, Box<GroupMetrics>>,
    names: BTreeMap<u32, String>,
    meta: MetaStats,
}

/// The shared metrics store: per-group accumulators behind one mutex,
/// same concurrency story as [`FlightRecorder`](crate::FlightRecorder)
/// (a handful of events per virtual second per rank — ordering, not
/// contention, is the thing to engineer for, and every update being
/// commutative makes ordering irrelevant).
pub struct MetricsPlane {
    window_ns: u64,
    state: Mutex<PlaneState>,
}

impl MetricsPlane {
    /// A plane bucketing windowed series at `window`.
    pub fn new(window: SimDuration) -> Arc<Self> {
        Arc::new(Self { window_ns: window.0.max(1), state: Mutex::new(PlaneState::default()) })
    }

    /// A plane configured from `cfg`; `None` when metrics are off.
    pub fn from_config(cfg: &MetricsConfig) -> Option<Arc<Self>> {
        cfg.enabled.then(|| Self::new(cfg.window))
    }

    /// The virtual-time window, ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Give `group` a human-readable name (mirrors
    /// [`FlightRecorder::name_group`](crate::FlightRecorder::name_group)).
    pub fn name_group(&self, group: u32, name: &str) {
        self.state.lock().names.insert(group, name.to_string());
    }

    /// Fold one event in. Called by the recorder tee on every emit;
    /// also usable directly (e.g. replaying a parsed JSONL export).
    pub fn ingest(&self, group: u32, lane: Lane, ev: &TimedEvent) {
        let mut st = self.state.lock();
        let (updates, hists) = st.groups.entry(group).or_default().apply(lane, ev, self.window_ns);
        st.meta.events_ingested += 1;
        st.meta.metric_updates += updates;
        st.meta.hist_records += hists;
    }

    /// Self-profile counters accumulated so far.
    pub fn meta(&self) -> MetaStats {
        self.state.lock().meta
    }

    /// Groups with any data, id order.
    pub fn groups(&self) -> Vec<u32> {
        self.state.lock().groups.keys().copied().collect()
    }

    /// A point-in-time read view of `group` (the controller contract —
    /// see DESIGN.md §17), or `None` if the group has no data.
    pub fn view(&self, group: u32) -> Option<MetricsView> {
        let st = self.state.lock();
        st.groups.get(&group).map(|g| MetricsView {
            group,
            name: st.names.get(&group).cloned().unwrap_or_else(|| format!("run{group}")),
            window_ns: self.window_ns,
            metrics: g.clone(),
        })
    }

    /// Render the deterministic Prometheus-style text snapshot: every
    /// counter, gauge and histogram quantile for every group in key
    /// order, integer-valued, plus the plane's `ickpt_meta_*`
    /// self-profile. Byte-identical for identical ingested event sets
    /// regardless of ingestion order or thread count.
    pub fn render_text(&self) -> String {
        let st = self.state.lock();
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# ickpt metrics snapshot v1 (virtual-time, integer-valued)");
        let _ = writeln!(out, "ickpt_window_ns {}", self.window_ns);
        for (group, g) in &st.groups {
            let run = st.names.get(group).cloned().unwrap_or_else(|| format!("run{group}"));
            let mut labels = String::new();
            escape_label(&mut labels, &run);
            let run = labels;
            let _ = writeln!(out, "ickpt_horizon_ns{{run=\"{run}\"}} {}", g.horizon_ns);
            let _ = writeln!(out, "ickpt_windows{{run=\"{run}\"}} {}", g.windows.len());
            for (id, name) in COUNTER_NAMES.iter().enumerate() {
                for (label, v) in g.cells(id) {
                    let mut l = String::new();
                    label.write(&mut l);
                    let _ = writeln!(out, "ickpt_{name}_total{{run=\"{run}\"{l}}} {v}");
                }
            }
            for (name, v) in &g.gauges_max {
                let _ = writeln!(out, "ickpt_{name}{{run=\"{run}\"}} {v}");
            }
            for (name, h) in HIST_NAMES.iter().zip(&g.hists).filter(|(_, h)| !h.is_empty()) {
                let _ = writeln!(out, "ickpt_{name}_count{{run=\"{run}\"}} {}", h.count());
                let _ = writeln!(out, "ickpt_{name}_sum{{run=\"{run}\"}} {}", h.sum());
                for (q, pct) in [("0.5", 50u8), ("0.9", 90), ("0.99", 99)] {
                    let v = h.quantile(pct).unwrap_or(0);
                    let _ = writeln!(out, "ickpt_{name}{{run=\"{run}\",quantile=\"{q}\"}} {v}");
                }
            }
        }
        let _ = writeln!(out, "ickpt_meta_groups {}", st.groups.len());
        let _ = writeln!(out, "ickpt_meta_events_ingested {}", st.meta.events_ingested);
        let _ = writeln!(out, "ickpt_meta_metric_updates {}", st.meta.metric_updates);
        let _ = writeln!(out, "ickpt_meta_hist_records {}", st.meta.hist_records);
        out
    }
}

impl std::fmt::Debug for MetricsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("MetricsPlane")
            .field("window_ns", &self.window_ns)
            .field("groups", &st.groups.len())
            .field("events", &st.meta.events_ingested)
            .finish()
    }
}

fn escape_label(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// A point-in-time, read-only view of one run group's metrics — the
/// API contract the ROADMAP item 4 adaptive controller consumes.
/// Lookups find a name by binary search; windows come back in index
/// order. Cloned out of the plane, so holding a view never blocks
/// ingestion.
#[derive(Debug, Clone)]
pub struct MetricsView {
    group: u32,
    name: String,
    window_ns: u64,
    metrics: Box<GroupMetrics>,
}

impl MetricsView {
    /// The run group this view reads.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// The group's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The windowed series' bucket width, virtual ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Latest instant covered by any ingested event, virtual ns.
    pub fn horizon_ns(&self) -> u64 {
        self.metrics.horizon_ns
    }

    /// Value of the unlabeled counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_labeled(name, MetricLabel::None)
    }

    /// Value of counter `name` with `label`.
    pub fn counter_labeled(&self, name: &str, label: MetricLabel) -> u64 {
        let id = COUNTER_NAMES.binary_search(&name).ok();
        id.and_then(|id| self.metrics.cell(id, label)).unwrap_or(0)
    }

    /// High-water value of gauge `name` (0 if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.metrics.gauges_max.get(name).copied().unwrap_or(0)
    }

    /// The run-wide histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        let id = HIST_NAMES.binary_search(&name).ok()?;
        Some(&self.metrics.hists[id]).filter(|h| !h.is_empty())
    }

    /// Nearest-rank quantile of histogram `name` at `pct` percent.
    pub fn quantile(&self, name: &str, pct: u8) -> Option<u64> {
        self.histogram(name)?.quantile(pct)
    }

    /// All labeled variants of counter `name`, label order.
    pub fn counters_labeled(&self, name: &str) -> Vec<(MetricLabel, u64)> {
        COUNTER_NAMES.binary_search(&name).map_or(Vec::new(), |id| self.metrics.cells(id).collect())
    }

    /// Windowed series, `(window index, accumulator)` in index order.
    /// Windows nothing happened in are absent.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &WindowAccum)> {
        self.metrics.windows.iter().map(|(i, w)| (*i, &**w))
    }

    /// One window's accumulator.
    pub fn window(&self, index: u64) -> Option<&WindowAccum> {
        let at = self.metrics.windows.binary_search_by_key(&index, |(i, _)| *i).ok()?;
        Some(&self.metrics.windows[at].1)
    }

    /// Number of populated windows.
    pub fn window_count(&self) -> usize {
        self.metrics.windows.len()
    }

    /// All populated windows merged into one accumulator (whole-run
    /// totals in window form — used by the re-bin consistency tests).
    pub fn merged_windows(&self) -> WindowAccum {
        let mut acc = WindowAccum::default();
        for (_, w) in self.windows() {
            acc.merge(w);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CaptureKind;

    #[test]
    fn knob_parsing_is_strict() {
        assert!(!MetricsConfig::parse("off").unwrap().enabled);
        let on = MetricsConfig::parse("on").unwrap();
        assert!(on.enabled);
        assert_eq!(on.window, SimDuration::from_secs(1));
        let w = MetricsConfig::parse("window=5").unwrap();
        assert!(w.enabled);
        assert_eq!(w.window, SimDuration::from_secs(5));
        for bad in ["", "On", "1", "window=", "window=0", "window=-1", "window=2s", "yes"] {
            assert!(MetricsConfig::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn vocabulary_is_name_sorted() {
        assert!(COUNTER_NAMES.is_sorted() && HIST_NAMES.is_sorted());
        assert_eq!(COUNTER_NAMES[Ctr::TrackerWindows as usize], "tracker_windows");
        assert_eq!(COUNTER_NAMES[DEVICE_CTRS].last(), Some(&"device_transfers"));
        assert_eq!(COUNTER_NAMES[TIER_CTRS].last(), Some(&"recovery_reads"));
        assert_eq!(HIST_NAMES[Hist::TenantStall as usize], "tenant_stall_ns");
    }

    #[test]
    fn bucket_shape_is_fixed() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 17, 4095, 4096, u64::MAX] {
            assert!(v <= bucket_bound(bucket_of(v)));
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1060);
        assert_eq!(h.max(), Some(1000));
        // rank ceil(0.5*4)=2 → 20 lives in bucket 5 (16..=31) → 31.
        assert_eq!(h.quantile(50), Some(31));
        // p100 is clamped to the observed max.
        assert_eq!(h.quantile(100), Some(1000));
        assert!(LogHistogram::new().quantile(50).is_none());
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for (i, v) in [5u64, 0, 77, 1 << 40, 12, 12, 9000].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            both.record(*v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both);
        // Commutative.
        let mut rev = b;
        rev.merge(&a);
        assert_eq!(rev, both);
    }

    #[test]
    fn ingestion_order_cannot_change_the_snapshot() {
        let events: Vec<(Lane, TimedEvent)> = (0..40u64)
            .map(|i| {
                let ev = if i % 3 == 0 {
                    Event::Capture {
                        kind: CaptureKind::Incremental,
                        generation: i,
                        pages: i + 1,
                        payload_bytes: 1000 * (i + 1),
                    }
                } else {
                    Event::CheckpointStall { generation: i }
                };
                (
                    Lane::Rank((i % 4) as u32),
                    TimedEvent {
                        ts: SimTime(i * 300_000_000),
                        dur: SimDuration(i * 1_000),
                        event: ev,
                    },
                )
            })
            .collect();
        let ingest_all = |order: &[usize]| {
            let plane = MetricsPlane::new(SimDuration::from_secs(1));
            plane.name_group(0, "demo");
            for &i in order {
                let (lane, ev) = &events[i];
                plane.ingest(0, *lane, ev);
            }
            plane.render_text()
        };
        let forward: Vec<usize> = (0..events.len()).collect();
        let backward: Vec<usize> = (0..events.len()).rev().collect();
        let shuffled: Vec<usize> = (0..events.len()).map(|i| (i * 23) % events.len()).collect();
        let a = ingest_all(&forward);
        assert_eq!(a, ingest_all(&backward));
        assert_eq!(a, ingest_all(&shuffled));
        assert!(a.contains("ickpt_captures_total{run=\"demo\"}"));
    }

    #[test]
    fn windows_bucket_by_virtual_time() {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        for (ts, bytes) in [(0u64, 100u64), (999_999_999, 50), (1_000_000_000, 7)] {
            plane.ingest(
                0,
                Lane::Rank(0),
                &TimedEvent {
                    ts: SimTime(ts),
                    dur: SimDuration::ZERO,
                    event: Event::Capture {
                        kind: CaptureKind::Incremental,
                        generation: 1,
                        pages: 1,
                        payload_bytes: bytes,
                    },
                },
            );
        }
        let view = plane.view(0).unwrap();
        assert_eq!(view.window_count(), 2);
        assert_eq!(view.window(0).unwrap().effective_ib_bytes, 150);
        assert_eq!(view.window(1).unwrap().effective_ib_bytes, 7);
        assert_eq!(view.counter("capture_bytes"), 157);
        assert_eq!(view.merged_windows().effective_ib_bytes, 157);
    }

    #[test]
    fn meta_counts_are_deterministic() {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        plane.ingest(
            0,
            Lane::Rank(0),
            &TimedEvent {
                ts: SimTime(5),
                dur: SimDuration(10),
                event: Event::CheckpointStall { generation: 1 },
            },
        );
        let meta = plane.meta();
        assert_eq!(meta.events_ingested, 1);
        assert!(meta.metric_updates >= 2);
        assert_eq!(meta.hist_records, 2);
    }
}
