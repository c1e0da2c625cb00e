//! The typed event vocabulary of the flight recorder.
//!
//! Every quantity is an integer (virtual nanoseconds, bytes, pages,
//! counts): integer fields serialize identically on every platform and
//! thread count, which is what makes the exporters byte-deterministic.
//! Events never carry heap-allocated payloads — a [`Event`] is a small
//! `Copy` value so appending one to a ring buffer is a few stores.

use ickpt_sim::{SimDuration, SimTime};

/// Which modeled hardware a device lane belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// Flat stable storage (per-rank or shared, pre-tiering paths).
    Storage,
    /// A rank's node-local checkpoint tier.
    Local,
    /// Interconnect NIC used for redundancy publish.
    Nic,
    /// The shared durable array behind the drain queue.
    Array,
}

impl DeviceKind {
    /// Every kind in declaration (= `Ord`, = `as usize`) order.
    pub(crate) const ALL: [DeviceKind; 4] =
        [DeviceKind::Storage, DeviceKind::Local, DeviceKind::Nic, DeviceKind::Array];

    /// Stable lowercase token used in track names.
    pub fn token(&self) -> &'static str {
        match self {
            DeviceKind::Storage => "storage",
            DeviceKind::Local => "local",
            DeviceKind::Nic => "nic",
            DeviceKind::Array => "array",
        }
    }

    /// Inverse of [`DeviceKind::token`].
    pub(crate) fn parse(tok: &str) -> Option<Self> {
        match tok {
            "storage" => Some(DeviceKind::Storage),
            "local" => Some(DeviceKind::Local),
            "nic" => Some(DeviceKind::Nic),
            "array" => Some(DeviceKind::Array),
            _ => None,
        }
    }
}

/// Rank, tenant and device ids below this bound index dense tables (the
/// recorder's lane slots, the plane's device cells); an id at or above
/// it goes through an ordered map, so no id sizes an allocation.
pub(crate) const DENSE_LANE_IDS: u32 = 1 << 20;

/// A horizontal track in the trace: one timeline the UI draws.
///
/// The `Ord` impl fixes export order: run lane first, then ranks in
/// rank order, then devices, then the drain lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Whole-run control events (failures, recovery decisions).
    Run,
    /// One application rank's timeline.
    Rank(u32),
    /// One modeled device's timeline.
    Device(DeviceKind, u32),
    /// One service tenant's timeline (multi-tenant checkpoint store).
    Tenant(u32),
    /// The asynchronous drain pipeline to durable storage.
    Drain,
}

impl Lane {
    /// Stable track name, e.g. `rank3` or `dev:local:3`.
    pub(crate) fn label(&self) -> String {
        match self {
            Lane::Run => "run".to_string(),
            Lane::Rank(r) => format!("rank{r}"),
            Lane::Device(kind, idx) => format!("dev:{}:{idx}", kind.token()),
            Lane::Tenant(t) => format!("tenant{t}"),
            Lane::Drain => "drain".to_string(),
        }
    }

    /// Inverse of [`Lane::label`] — used to rebuild lanes (and
    /// therefore metrics) from a parsed JSONL export.
    pub(crate) fn parse(label: &str) -> Option<Lane> {
        match label {
            "run" => return Some(Lane::Run),
            "drain" => return Some(Lane::Drain),
            _ => {}
        }
        if let Some(r) = label.strip_prefix("rank") {
            return r.parse().ok().map(Lane::Rank);
        }
        if let Some(t) = label.strip_prefix("tenant") {
            return t.parse().ok().map(Lane::Tenant);
        }
        if let Some(rest) = label.strip_prefix("dev:") {
            let (kind, idx) = rest.rsplit_once(':')?;
            return Some(Lane::Device(DeviceKind::parse(kind)?, idx.parse().ok()?));
        }
        None
    }

    /// Deterministic Chrome-trace `tid` for this lane. Chosen so the
    /// numeric order matches the `Ord` order above.
    pub fn tid(&self) -> u64 {
        match self {
            Lane::Run => 0,
            Lane::Rank(r) => 1 + *r as u64,
            Lane::Device(kind, idx) => 1_000_000 + *kind as u64 * 100_000 + *idx as u64,
            Lane::Tenant(t) => 8_000_000 + *t as u64,
            Lane::Drain => 9_000_000,
        }
    }
}

/// A track is a lane within a group; a group is one simulated run
/// (an experiment exporting several runs gives each its own group, so
/// rank 0 of run A never interleaves with rank 0 of run B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackKey {
    /// Run group (Chrome-trace process).
    pub group: u32,
    /// Timeline within the group (Chrome-trace thread).
    pub lane: Lane,
}

/// Which storage level ultimately served a recovery: the one recovery
/// vocabulary, shared by the storage crate's `RecoveryPlan`, the
/// cluster's `RecoveryRecord` and the recorder's events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryTier {
    /// The rank's own node-local tier survived.
    Local,
    /// Rebuilt from partner copies / XOR parity over the interconnect.
    Reconstructed,
    /// Read back from the shared durable array.
    Durable,
    /// No usable checkpoint: restart from initial state.
    ColdRestart,
}

impl RecoveryTier {
    /// Every tier in declaration (= `Ord`, = `as usize`) order.
    pub(crate) const ALL: [RecoveryTier; 4] = [
        RecoveryTier::Local,
        RecoveryTier::Reconstructed,
        RecoveryTier::Durable,
        RecoveryTier::ColdRestart,
    ];

    /// Stable lowercase token used in serialized events.
    pub fn token(&self) -> &'static str {
        match self {
            RecoveryTier::Local => "local",
            RecoveryTier::Reconstructed => "reconstructed",
            RecoveryTier::Durable => "durable",
            RecoveryTier::ColdRestart => "cold_restart",
        }
    }

    /// Inverse of [`RecoveryTier::token`].
    pub(crate) fn parse(tok: &str) -> Option<Self> {
        match tok {
            "local" => Some(RecoveryTier::Local),
            "reconstructed" => Some(RecoveryTier::Reconstructed),
            "durable" => Some(RecoveryTier::Durable),
            "cold_restart" => Some(RecoveryTier::ColdRestart),
            _ => None,
        }
    }
}

/// Full vs incremental capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaptureKind {
    /// Base checkpoint of every live page.
    Full,
    /// Dirty pages since the parent generation.
    Incremental,
}

impl CaptureKind {
    /// Stable lowercase token used in serialized events.
    pub fn token(&self) -> &'static str {
        match self {
            CaptureKind::Full => "full",
            CaptureKind::Incremental => "incremental",
        }
    }

    /// Inverse of [`CaptureKind::token`].
    pub(crate) fn parse(tok: &str) -> Option<Self> {
        match tok {
            "full" => Some(CaptureKind::Full),
            "incremental" => Some(CaptureKind::Incremental),
            _ => None,
        }
    }
}

/// One recorded occurrence. Duration-less events render as Chrome
/// instants; events recorded with a span render as complete slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A simulated run began on this group.
    RunStart {
        /// Number of ranks in the run.
        ranks: u32,
    },
    /// An application iteration boundary collective completed.
    IterationBoundary {
        /// Iteration index (0-based).
        iteration: u64,
    },
    /// One tracker timeslice window closed (the §4.2 alarm fired).
    TrackerWindow {
        /// Window index since run start.
        index: u64,
        /// Incremental working set of the window, pages.
        iws_pages: u64,
        /// Mapped footprint at window close, pages.
        footprint_pages: u64,
        /// Protection faults taken inside the window.
        faults: u64,
    },
    /// A checkpoint image was captured from the address space.
    Capture {
        /// Full or incremental.
        kind: CaptureKind,
        /// Generation number.
        generation: u64,
        /// Non-zero pages stored in the chunk.
        pages: u64,
        /// Encoded chunk size, bytes.
        payload_bytes: u64,
    },
    /// The content layer dropped dirty pages whose bytes were unchanged
    /// since the baseline (silent same-value writes).
    DedupSkip {
        /// Generation being captured.
        generation: u64,
        /// Dirty pages dropped before storage.
        pages: u64,
        /// Bytes dirty-bit accounting would have shipped for them.
        bytes_saved: u64,
    },
    /// The content layer shipped partially-written pages as sub-page
    /// delta records instead of whole pages.
    DeltaEncode {
        /// Generation being captured.
        generation: u64,
        /// Pages delta-encoded.
        pages: u64,
        /// Changed blocks stored across those pages.
        blocks: u64,
        /// Whole-page bytes avoided, net of stored blocks and headers.
        bytes_saved: u64,
    },
    /// The rank blocked on an in-flight checkpoint (forced wait or
    /// copy-on-write drag); the span covers the blocked interval.
    CheckpointStall {
        /// Generation being waited on.
        generation: u64,
    },
    /// Commit barrier for a generation released on this rank.
    CommitBarrier {
        /// Generation committed.
        generation: u64,
    },
    /// A chunk write reached stable storage.
    ChunkPut {
        /// Generation of the chunk.
        generation: u64,
        /// Encoded bytes written.
        bytes: u64,
        /// Virtual ns spent queued behind earlier transfers.
        queue_wait_ns: u64,
        /// Virtual ns of wire/latency service time.
        service_ns: u64,
    },
    /// A chunk read from stable storage (restore path).
    ChunkGet {
        /// Generation of the chunk.
        generation: u64,
        /// Encoded bytes read.
        bytes: u64,
        /// Virtual ns spent queued behind earlier transfers.
        queue_wait_ns: u64,
        /// Virtual ns of wire/latency service time.
        service_ns: u64,
    },
    /// A manifest write reached stable storage.
    ManifestPut {
        /// Generation of the manifest.
        generation: u64,
        /// Encoded bytes written.
        bytes: u64,
    },
    /// A device serviced one transfer (emitted on the device's lane).
    DeviceTransfer {
        /// Payload bytes moved.
        bytes: u64,
        /// Virtual ns the transfer waited for the device to free up.
        queue_wait_ns: u64,
        /// Virtual ns of service (wire + latency).
        service_ns: u64,
    },
    /// Redundancy data (partner copy or parity) published over the
    /// interconnect at checkpoint time.
    RedundancyPublish {
        /// Generation published.
        generation: u64,
        /// Bytes pushed to peers.
        bytes: u64,
    },
    /// A lost rank's checkpoint was rebuilt from surviving pieces.
    RedundancyReconstruct {
        /// Generation reconstructed.
        generation: u64,
        /// Surviving pieces combined.
        pieces: u32,
        /// Bytes pulled over the interconnect to rebuild.
        bytes: u64,
    },
    /// One drain batch flushed committed generations to the array;
    /// the span covers commit-time → drain-completion.
    DrainBatch {
        /// Committed generations flushed in this batch.
        generations: u64,
        /// Chunks written to the durable array.
        chunks: u64,
        /// Bytes written to the durable array.
        bytes: u64,
    },
    /// Drain queue depth (pending generations) after an enqueue or
    /// flush — sampled, not continuous.
    DrainQueueDepth {
        /// Generations waiting to drain.
        depth: u64,
    },
    /// In-flight drain batches rolled back by a failure: their
    /// generations were partially written ("torn") and must re-drain
    /// after recovery.
    DrainTorn {
        /// Generations whose drain was interrupted.
        generations: u64,
        /// Bytes of partially-written batch data discarded.
        bytes: u64,
    },
    /// A tenant's checkpoint request passed service admission and its
    /// stripe chunks were queued on the scheduler.
    AdmissionGrant {
        /// Tenant id within the service.
        tenant: u32,
        /// Request payload bytes admitted.
        bytes: u64,
        /// Stripe chunks the request was split into.
        chunks: u64,
    },
    /// A tenant's checkpoint request was deferred by admission (token
    /// debt or the global in-flight cap).
    AdmissionReject {
        /// Tenant id within the service.
        tenant: u32,
        /// Request payload bytes that were refused for now.
        bytes: u64,
        /// Virtual ns until the scheduled retry.
        retry_ns: u64,
    },
    /// A tenant job was blocked from its request instant until the
    /// service made the checkpoint durable; the span covers the whole
    /// blocked interval.
    TenantStall {
        /// Tenant id within the service.
        tenant: u32,
        /// Request payload bytes the tenant waited on.
        bytes: u64,
    },
    /// Bytes a recovery read charged against one tier.
    RecoveryRead {
        /// Which tier served the read.
        tier: RecoveryTier,
        /// Bytes read.
        bytes: u64,
    },
    /// The recovery planner chose a source for a rank.
    RecoveryPlan {
        /// Rank being recovered.
        rank: u32,
        /// Chosen source tier.
        tier: RecoveryTier,
        /// Generation targeted (0 for cold restart).
        generation: u64,
    },
    /// A rank's address space was rebuilt from storage; span covers
    /// the virtual time the rollback read+apply took.
    Restore {
        /// Generation restored to.
        generation: u64,
        /// Chunks in the applied chain.
        chain: u64,
        /// Pages written into the space.
        pages: u64,
        /// Bytes read from storage.
        bytes: u64,
    },
    /// A failure was injected.
    Failure {
        /// Rank that failed.
        rank: u32,
        /// 1 if the node's local tier was lost too, else 0.
        node_loss: u32,
    },
    /// A named monotone counter sample.
    Counter {
        /// Counter name (static so events stay `Copy`).
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
    /// A health-monitor SLO rule was violated in one metrics window
    /// (emitted on the run lane at the window's end).
    SloBreach {
        /// Violated rule's name (static so events stay `Copy`).
        rule: &'static str,
        /// Metrics window index (`ts / window_ns`).
        window: u64,
        /// Measured value (unit depends on the rule).
        value: u64,
        /// The rule's limit in the same unit.
        limit: u64,
    },
}

/// `ints!(out, ""; a, b)` appends `"a":<a>,"b":<b>`: each binding's
/// name is its JSON key, the literal goes in front of the first.
macro_rules! ints {
    ($out:ident, $lead:literal; $first:ident $(, $rest:ident)*) => {{
        $out.push_str(concat!($lead, "\"", stringify!($first), "\":"));
        push_u64($out, u64::from($first));
        $(
            $out.push_str(concat!(",\"", stringify!($rest), "\":"));
            push_u64($out, u64::from($rest));
        )*
    }};
}

impl Event {
    /// Stable event-type token (the `name` field in exports).
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::IterationBoundary { .. } => "iteration",
            Event::TrackerWindow { .. } => "tracker_window",
            Event::Capture { .. } => "capture",
            Event::DedupSkip { .. } => "dedup_skip",
            Event::DeltaEncode { .. } => "delta_encode",
            Event::CheckpointStall { .. } => "ckpt_stall",
            Event::CommitBarrier { .. } => "commit",
            Event::ChunkPut { .. } => "chunk_put",
            Event::ChunkGet { .. } => "chunk_get",
            Event::ManifestPut { .. } => "manifest_put",
            Event::DeviceTransfer { .. } => "transfer",
            Event::RedundancyPublish { .. } => "publish",
            Event::RedundancyReconstruct { .. } => "reconstruct",
            Event::DrainBatch { .. } => "drain_batch",
            Event::DrainQueueDepth { .. } => "drain_depth",
            Event::DrainTorn { .. } => "drain_torn",
            Event::AdmissionGrant { .. } => "admit",
            Event::AdmissionReject { .. } => "reject",
            Event::TenantStall { .. } => "tenant_stall",
            Event::RecoveryRead { .. } => "recovery_read",
            Event::RecoveryPlan { .. } => "recovery_plan",
            Event::Restore { .. } => "restore",
            Event::Failure { .. } => "failure",
            Event::Counter { .. } => "counter",
            Event::SloBreach { .. } => "slo_breach",
        }
    }

    /// Append the event's argument object (`{"k":v,...}`) as JSON.
    /// Field order is fixed by this function, so serialization is
    /// byte-deterministic.
    pub(crate) fn write_args(&self, out: &mut String) {
        out.push('{');
        match *self {
            Event::RunStart { ranks } => ints!(out, ""; ranks),
            Event::IterationBoundary { iteration } => ints!(out, ""; iteration),
            Event::TrackerWindow { index, iws_pages, footprint_pages, faults } => {
                ints!(out, ""; index, iws_pages, footprint_pages, faults);
            }
            Event::Capture { kind, generation, pages, payload_bytes } => {
                put_token(out, "\"kind\":\"", kind.token());
                ints!(out, ","; generation, pages, payload_bytes);
            }
            Event::DedupSkip { generation, pages, bytes_saved } => {
                ints!(out, ""; generation, pages, bytes_saved);
            }
            Event::DeltaEncode { generation, pages, blocks, bytes_saved } => {
                ints!(out, ""; generation, pages, blocks, bytes_saved);
            }
            Event::CheckpointStall { generation } | Event::CommitBarrier { generation } => {
                ints!(out, ""; generation);
            }
            Event::ChunkPut { generation, bytes, queue_wait_ns, service_ns }
            | Event::ChunkGet { generation, bytes, queue_wait_ns, service_ns } => {
                ints!(out, ""; generation, bytes, queue_wait_ns, service_ns);
            }
            Event::ManifestPut { generation, bytes }
            | Event::RedundancyPublish { generation, bytes } => ints!(out, ""; generation, bytes),
            Event::DeviceTransfer { bytes, queue_wait_ns, service_ns } => {
                ints!(out, ""; bytes, queue_wait_ns, service_ns);
            }
            Event::RedundancyReconstruct { generation, pieces, bytes } => {
                ints!(out, ""; generation, pieces, bytes);
            }
            Event::DrainBatch { generations, chunks, bytes } => {
                ints!(out, ""; generations, chunks, bytes);
            }
            Event::DrainQueueDepth { depth } => ints!(out, ""; depth),
            Event::DrainTorn { generations, bytes } => ints!(out, ""; generations, bytes),
            Event::AdmissionGrant { tenant, bytes, chunks } => {
                ints!(out, ""; tenant, bytes, chunks)
            }
            Event::AdmissionReject { tenant, bytes, retry_ns } => {
                ints!(out, ""; tenant, bytes, retry_ns);
            }
            Event::TenantStall { tenant, bytes } => ints!(out, ""; tenant, bytes),
            Event::RecoveryRead { tier, bytes } => {
                put_token(out, "\"tier\":\"", tier.token());
                ints!(out, ","; bytes);
            }
            Event::RecoveryPlan { rank, tier, generation } => {
                ints!(out, ""; rank);
                put_token(out, ",\"tier\":\"", tier.token());
                ints!(out, ","; generation);
            }
            Event::Restore { generation, chain, pages, bytes } => {
                ints!(out, ""; generation, chain, pages, bytes);
            }
            Event::Failure { rank, node_loss } => ints!(out, ""; rank, node_loss),
            Event::Counter { name, value } => {
                put_token(out, "\"counter\":\"", name);
                ints!(out, ","; value);
            }
            Event::SloBreach { rule, window, value, limit } => {
                put_token(out, "\"rule\":\"", rule);
                ints!(out, ","; window, value, limit);
            }
        }
        out.push('}');
    }
}

/// Append `v` in decimal. The exporters write a dozen integers per
/// event, and `core::fmt` costs more per integer than the digits do.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Append `key`, a bare token, and its closing quote.
fn put_token(out: &mut String, key: &str, token: &str) {
    out.push_str(key);
    out.push_str(token);
    out.push('"');
}

/// An [`Event`] stamped with virtual time. `dur == 0` exports as an
/// instant; `dur > 0` as a complete slice `[ts, ts+dur]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Virtual start instant.
    pub ts: SimTime,
    /// Virtual extent (zero for instants).
    pub dur: SimDuration,
    /// What happened.
    pub event: Event,
}
