//! `ickpt-obs` against its reference model.
//!
//! Production keeps one implementation of the flight recorder, the
//! metrics plane, the exporters and the JSONL reader: dense cell
//! tables, a lane → ring index, `core::fmt`-free serializers and a
//! reader whose events share their strings. The map-keyed and
//! allocating bodies they replaced live on here, as the model every
//! observable output is compared with:
//!
//! * seeded random streams (all 26 event kinds, every lane kind, three
//!   groups, shuffled and time-reversed, zero deltas, windows opened
//!   out of order) through both, comparing `render_text`, every
//!   `MetricsView` accessor, `meta()`, snapshot tracks and dropped
//!   counts, `jsonl` and `chrome_trace`;
//! * FNV digests of the three export formats of one seeded
//!   `run_service`, recorded before the dense implementation landed;
//! * lane ids beyond the dense bound (they must never size an
//!   allocation) and the JSONL string round trip;
//! * `parse_jsonl` against the allocating reader on seeded exports,
//!   respelled and broken line by line: the same events, arguments and
//!   rebuilt typed events, the same refusals at the same line, and
//!   no allocation per line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ickpt::cluster::tenant::{fleet_profiles, mixed_fleet};
use ickpt::obs::{
    chrome_trace, jsonl, parse_jsonl, CaptureKind, DeviceKind, Event, FlightRecorder, Lane,
    MetricLabel, MetricsPlane, ObsSummary, Recorder, RecoveryTier, TimedEvent, TrackKey,
};
use ickpt::sim::{SimDuration, SimTime, SplitMix64};
use ickpt::svc::{run_service, ServiceConfig};

/// The map-keyed implementations production used before the cell
/// table and the lane index: every metric behind a
/// `BTreeMap<(name, label), _>`, every ring behind a
/// `BTreeMap<TrackKey, EventLog>`, every exporter on `write!`.
mod reference {
    use std::collections::BTreeMap;
    use std::fmt::Write;

    use ickpt::obs::{
        Event, EventLog, Lane, LogHistogram, MetaStats, MetricLabel, TimedEvent, TraceSnapshot,
        TrackKey, WindowAccum,
    };
    use ickpt::sim::SimTime;

    type MetricKey = (&'static str, MetricLabel);

    fn write_label(label: &MetricLabel, out: &mut String) {
        match label {
            MetricLabel::None => {}
            MetricLabel::Device(kind, idx) => {
                let _ = write!(out, ",dev=\"{}:{idx}\"", kind.token());
            }
            MetricLabel::Tier(tier) => {
                let _ = write!(out, ",tier=\"{}\"", tier.token());
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct GroupMetrics {
        pub counters: BTreeMap<MetricKey, u64>,
        pub gauges_max: BTreeMap<MetricKey, u64>,
        pub hists: BTreeMap<MetricKey, LogHistogram>,
        pub windows: BTreeMap<u64, WindowAccum>,
        pub horizon_ns: u64,
    }

    impl GroupMetrics {
        fn add(&mut self, name: &'static str, label: MetricLabel, delta: u64) -> u64 {
            *self.counters.entry((name, label)).or_insert(0) += delta;
            1
        }

        fn gauge_max(&mut self, name: &'static str, label: MetricLabel, v: u64) -> u64 {
            let g = self.gauges_max.entry((name, label)).or_insert(0);
            *g = (*g).max(v);
            1
        }

        fn hist(&mut self, name: &'static str, v: u64) -> u64 {
            self.hists.entry((name, MetricLabel::None)).or_default().record(v);
            1
        }

        fn window(&mut self, ts: SimTime, window_ns: u64) -> &mut WindowAccum {
            self.windows.entry(ts.0 / window_ns.max(1)).or_default()
        }

        fn apply(&mut self, lane: Lane, ev: &TimedEvent, window_ns: u64) -> (u64, u64) {
            let mut updates = 0u64;
            let mut hists = 0u64;
            self.horizon_ns = self.horizon_ns.max(ev.ts.0 + ev.dur.0);
            let dur = ev.dur.0;
            match ev.event {
                Event::RunStart { ranks } => {
                    updates += self.gauge_max("ranks", MetricLabel::None, u64::from(ranks));
                }
                Event::IterationBoundary { .. } => {
                    updates += self.add("iterations", MetricLabel::None, 1);
                }
                Event::TrackerWindow { faults, .. } => {
                    updates += self.add("tracker_windows", MetricLabel::None, 1);
                    updates += self.add("tracker_faults", MetricLabel::None, faults);
                }
                Event::Capture { pages, payload_bytes, .. } => {
                    updates += self.add("captures", MetricLabel::None, 1);
                    updates += self.add("capture_pages", MetricLabel::None, pages);
                    updates += self.add("capture_bytes", MetricLabel::None, payload_bytes);
                    updates += self.add("dirty_bytes", MetricLabel::None, payload_bytes);
                    let w = self.window(ev.ts, window_ns);
                    w.captures += 1;
                    w.effective_ib_bytes += payload_bytes;
                    w.dirty_ib_bytes += payload_bytes;
                    updates += 3;
                }
                Event::DedupSkip { pages, bytes_saved, .. } => {
                    updates += self.add("dedup_pages", MetricLabel::None, pages);
                    updates += self.add("dedup_bytes_saved", MetricLabel::None, bytes_saved);
                    updates += self.add("dirty_bytes", MetricLabel::None, bytes_saved);
                    self.window(ev.ts, window_ns).dirty_ib_bytes += bytes_saved;
                    updates += 1;
                }
                Event::DeltaEncode { pages, bytes_saved, .. } => {
                    updates += self.add("delta_pages", MetricLabel::None, pages);
                    updates += self.add("delta_bytes_saved", MetricLabel::None, bytes_saved);
                    updates += self.add("dirty_bytes", MetricLabel::None, bytes_saved);
                    self.window(ev.ts, window_ns).dirty_ib_bytes += bytes_saved;
                    updates += 1;
                }
                Event::CheckpointStall { .. } => {
                    updates += self.add("stall_ns", MetricLabel::None, dur);
                    hists += self.hist("stall_ns", dur);
                    let w = self.window(ev.ts, window_ns);
                    w.stall_ns += dur;
                    w.stall.record(dur);
                    updates += 1;
                    hists += 1;
                }
                Event::CommitBarrier { .. } => {
                    updates += self.add("commits", MetricLabel::None, 1);
                }
                Event::ChunkPut { bytes, queue_wait_ns, service_ns, .. } => {
                    updates += self.add("chunk_puts", MetricLabel::None, 1);
                    updates += self.add("chunk_put_bytes", MetricLabel::None, bytes);
                    hists += self.hist("capture_cost_ns", queue_wait_ns + service_ns);
                }
                Event::ChunkGet { bytes, .. } => {
                    updates += self.add("chunk_gets", MetricLabel::None, 1);
                    updates += self.add("chunk_get_bytes", MetricLabel::None, bytes);
                }
                Event::ManifestPut { .. } => {
                    updates += self.add("manifest_puts", MetricLabel::None, 1);
                }
                Event::DeviceTransfer { bytes, queue_wait_ns, service_ns } => {
                    let label = match lane {
                        Lane::Device(kind, idx) => MetricLabel::Device(kind, idx),
                        _ => MetricLabel::None,
                    };
                    updates += self.add("device_transfers", label, 1);
                    updates += self.add("device_bytes", label, bytes);
                    updates += self.add("device_busy_ns", label, service_ns);
                    updates += self.add("device_queue_wait_ns", label, queue_wait_ns);
                    self.window(ev.ts, window_ns).device_busy_ns += service_ns;
                    updates += 1;
                }
                Event::RedundancyPublish { bytes, .. } => {
                    updates += self.add("publish_bytes", MetricLabel::None, bytes);
                }
                Event::RedundancyReconstruct { bytes, .. } => {
                    updates += self.add("reconstruct_bytes", MetricLabel::None, bytes);
                }
                Event::DrainBatch { generations, bytes, .. } => {
                    updates += self.add("drain_batches", MetricLabel::None, 1);
                    updates += self.add("drain_generations", MetricLabel::None, generations);
                    updates += self.add("drain_bytes", MetricLabel::None, bytes);
                    hists += self.hist("drain_batch_ns", dur);
                    let w = self.window(ev.ts, window_ns);
                    w.drain_batches += 1;
                    w.drain_bytes += bytes;
                    updates += 2;
                }
                Event::DrainQueueDepth { depth } => {
                    updates += self.gauge_max("drain_depth_max", MetricLabel::None, depth);
                    let w = self.window(ev.ts, window_ns);
                    w.drain_depth_max = w.drain_depth_max.max(depth);
                    updates += 1;
                }
                Event::DrainTorn { generations, bytes } => {
                    updates += self.add("drain_torn_generations", MetricLabel::None, generations);
                    updates += self.add("drain_torn_bytes", MetricLabel::None, bytes);
                }
                Event::AdmissionGrant { bytes, .. } => {
                    updates += self.add("admits", MetricLabel::None, 1);
                    updates += self.add("admit_bytes", MetricLabel::None, bytes);
                    self.window(ev.ts, window_ns).admits += 1;
                    updates += 1;
                }
                Event::AdmissionReject { retry_ns, .. } => {
                    updates += self.add("rejects", MetricLabel::None, 1);
                    hists += self.hist("admission_wait_ns", retry_ns);
                    self.window(ev.ts, window_ns).rejects += 1;
                    updates += 1;
                }
                Event::TenantStall { .. } => {
                    updates += self.add("tenant_checkpoints", MetricLabel::None, 1);
                    updates += self.add("tenant_stall_ns", MetricLabel::None, dur);
                    hists += self.hist("tenant_stall_ns", dur);
                    self.window(ev.ts, window_ns).tenant_stall.record(dur);
                    hists += 1;
                }
                Event::RecoveryRead { tier, bytes } => {
                    updates += self.add("recovery_reads", MetricLabel::Tier(tier), 1);
                    updates += self.add("recovery_read_bytes", MetricLabel::Tier(tier), bytes);
                }
                Event::RecoveryPlan { tier, .. } => {
                    updates += self.add("recovery_plans", MetricLabel::Tier(tier), 1);
                }
                Event::Restore { bytes, .. } => {
                    updates += self.add("restores", MetricLabel::None, 1);
                    updates += self.add("restore_ns", MetricLabel::None, dur);
                    updates += self.add("restore_bytes", MetricLabel::None, bytes);
                }
                Event::Failure { .. } => {
                    updates += self.add("failures", MetricLabel::None, 1);
                }
                Event::Counter { name, value } => {
                    updates += self.gauge_max(name, MetricLabel::None, value);
                }
                Event::SloBreach { .. } => {
                    updates += self.add("slo_breaches", MetricLabel::None, 1);
                }
            }
            (updates, hists)
        }

        // The read side of the old `MetricsView`.

        pub fn counter_labeled(&self, name: &str, label: MetricLabel) -> u64 {
            self.counters
                .iter()
                .find(|((n, l), _)| *n == name && *l == label)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        }

        pub fn gauge(&self, name: &str) -> u64 {
            self.gauges_max
                .iter()
                .find(|((n, l), _)| *n == name && *l == MetricLabel::None)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        }

        pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
            self.hists
                .iter()
                .find(|((n, _), _)| *n == name)
                .map(|(_, h)| h)
                .filter(|h| !h.is_empty())
        }

        pub fn counters_labeled(&self, name: &str) -> Vec<(MetricLabel, u64)> {
            self.counters
                .iter()
                .filter(|((n, _), _)| *n == name)
                .map(|((_, l), v)| (*l, *v))
                .collect()
        }
    }

    #[derive(Default)]
    pub struct Plane {
        pub window_ns: u64,
        pub groups: BTreeMap<u32, GroupMetrics>,
        pub names: BTreeMap<u32, String>,
        pub meta: MetaStats,
    }

    impl Plane {
        pub fn ingest(&mut self, group: u32, lane: Lane, ev: &TimedEvent) {
            let (updates, hists) =
                self.groups.entry(group).or_default().apply(lane, ev, self.window_ns);
            self.meta.events_ingested += 1;
            self.meta.metric_updates += updates;
            self.meta.hist_records += hists;
        }

        pub fn group_name(&self, group: u32) -> String {
            self.names.get(&group).cloned().unwrap_or_else(|| format!("run{group}"))
        }

        pub fn render_text(&self) -> String {
            let mut out = String::with_capacity(4096);
            let _ = writeln!(out, "# ickpt metrics snapshot v1 (virtual-time, integer-valued)");
            let _ = writeln!(out, "ickpt_window_ns {}", self.window_ns);
            for (group, g) in &self.groups {
                let mut run = String::new();
                for c in self.group_name(*group).chars() {
                    match c {
                        '"' => run.push_str("\\\""),
                        '\\' => run.push_str("\\\\"),
                        '\n' => run.push_str("\\n"),
                        c => run.push(c),
                    }
                }
                let _ = writeln!(out, "ickpt_horizon_ns{{run=\"{run}\"}} {}", g.horizon_ns);
                let _ = writeln!(out, "ickpt_windows{{run=\"{run}\"}} {}", g.windows.len());
                for ((name, label), v) in &g.counters {
                    let mut l = String::new();
                    write_label(label, &mut l);
                    let _ = writeln!(out, "ickpt_{name}_total{{run=\"{run}\"{l}}} {v}");
                }
                for ((name, label), v) in &g.gauges_max {
                    let mut l = String::new();
                    write_label(label, &mut l);
                    let _ = writeln!(out, "ickpt_{name}{{run=\"{run}\"{l}}} {v}");
                }
                for ((name, _), h) in &g.hists {
                    let _ = writeln!(out, "ickpt_{name}_count{{run=\"{run}\"}} {}", h.count());
                    let _ = writeln!(out, "ickpt_{name}_sum{{run=\"{run}\"}} {}", h.sum());
                    for (q, pct) in [("0.5", 50u8), ("0.9", 90), ("0.99", 99)] {
                        let v = h.quantile(pct).unwrap_or(0);
                        let _ = writeln!(out, "ickpt_{name}{{run=\"{run}\",quantile=\"{q}\"}} {v}");
                    }
                }
            }
            let _ = writeln!(out, "ickpt_meta_groups {}", self.groups.len());
            let _ = writeln!(out, "ickpt_meta_events_ingested {}", self.meta.events_ingested);
            let _ = writeln!(out, "ickpt_meta_metric_updates {}", self.meta.metric_updates);
            let _ = writeln!(out, "ickpt_meta_hist_records {}", self.meta.hist_records);
            out
        }
    }

    /// The old `FlightRecorder`: one ordered map of rings, events
    /// sorted by `(ts, dur, name, serialized arguments)`.
    pub struct Rings {
        pub capacity: usize,
        pub tracks: BTreeMap<TrackKey, EventLog>,
        pub groups: BTreeMap<u32, String>,
    }

    impl Rings {
        pub fn record(&mut self, track: TrackKey, ev: TimedEvent) {
            self.tracks.entry(track).or_insert_with(|| EventLog::new(self.capacity)).push(ev);
        }

        pub fn snapshot(&self) -> TraceSnapshot {
            let groups = self.groups.iter().map(|(id, name)| (*id, name.clone())).collect();
            let mut out = Vec::with_capacity(self.tracks.len());
            for (key, log) in self.tracks.iter() {
                let mut evs: Vec<TimedEvent> = log.events().copied().collect();
                let mut buf = String::new();
                evs.sort_by_cached_key(|ev| {
                    buf.clear();
                    write_args(&ev.event, &mut buf);
                    (ev.ts, ev.dur, ev.event.name(), buf.clone())
                });
                out.push((*key, evs, log.dropped()));
            }
            TraceSnapshot { groups, tracks: out }
        }
    }

    fn label(lane: &Lane) -> String {
        match lane {
            Lane::Run => "run".to_string(),
            Lane::Rank(r) => format!("rank{r}"),
            Lane::Device(kind, idx) => format!("dev:{}:{idx}", kind.token()),
            Lane::Tenant(t) => format!("tenant{t}"),
            Lane::Drain => "drain".to_string(),
        }
    }

    pub fn write_args(ev: &Event, out: &mut String) {
        out.push('{');
        match *ev {
            Event::RunStart { ranks } => {
                let _ = write!(out, "\"ranks\":{ranks}");
            }
            Event::IterationBoundary { iteration } => {
                let _ = write!(out, "\"iteration\":{iteration}");
            }
            Event::TrackerWindow { index, iws_pages, footprint_pages, faults } => {
                let _ = write!(
                    out,
                    "\"index\":{index},\"iws_pages\":{iws_pages},\"footprint_pages\":{footprint_pages},\"faults\":{faults}"
                );
            }
            Event::Capture { kind, generation, pages, payload_bytes } => {
                let _ = write!(
                    out,
                    "\"kind\":\"{}\",\"generation\":{generation},\"pages\":{pages},\"payload_bytes\":{payload_bytes}",
                    kind.token()
                );
            }
            Event::DedupSkip { generation, pages, bytes_saved } => {
                let _ = write!(
                    out,
                    "\"generation\":{generation},\"pages\":{pages},\"bytes_saved\":{bytes_saved}"
                );
            }
            Event::DeltaEncode { generation, pages, blocks, bytes_saved } => {
                let _ = write!(
                    out,
                    "\"generation\":{generation},\"pages\":{pages},\"blocks\":{blocks},\"bytes_saved\":{bytes_saved}"
                );
            }
            Event::CheckpointStall { generation } | Event::CommitBarrier { generation } => {
                let _ = write!(out, "\"generation\":{generation}");
            }
            Event::ChunkPut { generation, bytes, queue_wait_ns, service_ns }
            | Event::ChunkGet { generation, bytes, queue_wait_ns, service_ns } => {
                let _ = write!(
                    out,
                    "\"generation\":{generation},\"bytes\":{bytes},\"queue_wait_ns\":{queue_wait_ns},\"service_ns\":{service_ns}"
                );
            }
            Event::ManifestPut { generation, bytes }
            | Event::RedundancyPublish { generation, bytes } => {
                let _ = write!(out, "\"generation\":{generation},\"bytes\":{bytes}");
            }
            Event::DeviceTransfer { bytes, queue_wait_ns, service_ns } => {
                let _ = write!(
                    out,
                    "\"bytes\":{bytes},\"queue_wait_ns\":{queue_wait_ns},\"service_ns\":{service_ns}"
                );
            }
            Event::RedundancyReconstruct { generation, pieces, bytes } => {
                let _ = write!(
                    out,
                    "\"generation\":{generation},\"pieces\":{pieces},\"bytes\":{bytes}"
                );
            }
            Event::DrainBatch { generations, chunks, bytes } => {
                let _ = write!(
                    out,
                    "\"generations\":{generations},\"chunks\":{chunks},\"bytes\":{bytes}"
                );
            }
            Event::DrainQueueDepth { depth } => {
                let _ = write!(out, "\"depth\":{depth}");
            }
            Event::DrainTorn { generations, bytes } => {
                let _ = write!(out, "\"generations\":{generations},\"bytes\":{bytes}");
            }
            Event::AdmissionGrant { tenant, bytes, chunks } => {
                let _ = write!(out, "\"tenant\":{tenant},\"bytes\":{bytes},\"chunks\":{chunks}");
            }
            Event::AdmissionReject { tenant, bytes, retry_ns } => {
                let _ =
                    write!(out, "\"tenant\":{tenant},\"bytes\":{bytes},\"retry_ns\":{retry_ns}");
            }
            Event::TenantStall { tenant, bytes } => {
                let _ = write!(out, "\"tenant\":{tenant},\"bytes\":{bytes}");
            }
            Event::RecoveryRead { tier, bytes } => {
                let _ = write!(out, "\"tier\":\"{}\",\"bytes\":{bytes}", tier.token());
            }
            Event::RecoveryPlan { rank, tier, generation } => {
                let _ = write!(
                    out,
                    "\"rank\":{rank},\"tier\":\"{}\",\"generation\":{generation}",
                    tier.token()
                );
            }
            Event::Restore { generation, chain, pages, bytes } => {
                let _ = write!(
                    out,
                    "\"generation\":{generation},\"chain\":{chain},\"pages\":{pages},\"bytes\":{bytes}"
                );
            }
            Event::Failure { rank, node_loss } => {
                let _ = write!(out, "\"rank\":{rank},\"node_loss\":{node_loss}");
            }
            Event::Counter { name, value } => {
                let _ = write!(out, "\"counter\":\"{name}\",\"value\":{value}");
            }
            Event::SloBreach { rule, window, value, limit } => {
                let _ = write!(
                    out,
                    "\"rule\":\"{rule}\",\"window\":{window},\"value\":{value},\"limit\":{limit}"
                );
            }
        }
        out.push('}');
    }

    fn write_us(out: &mut String, ns: u64) {
        let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
    }

    fn escape_into(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }

    pub fn chrome_trace(snap: &TraceSnapshot) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("\n ");
        };
        let mut groups_seen: Vec<u32> = Vec::new();
        for (key, _, _) in &snap.tracks {
            if !groups_seen.contains(&key.group) {
                groups_seen.push(key.group);
            }
        }
        groups_seen.sort_unstable();
        for group in &groups_seen {
            let pid = group + 1;
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\""
            );
            escape_into(&mut out, &snap.group_name(*group));
            out.push_str("\"}}");
        }
        for (sort_index, (key, _, _)) in snap.tracks.iter().enumerate() {
            let pid = key.group + 1;
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                key.lane.tid(),
                label(&key.lane)
            );
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"sort_index\":{sort_index}}}}}",
                key.lane.tid()
            );
        }
        for (key, events, _) in &snap.tracks {
            let pid = key.group + 1;
            for ev in events {
                push_sep(&mut out, &mut first);
                let _ = write!(out, "{{\"name\":\"{}\",\"cat\":\"ickpt\",", ev.event.name());
                if ev.dur.0 > 0 {
                    out.push_str("\"ph\":\"X\",\"ts\":");
                    write_us(&mut out, ev.ts.0);
                    out.push_str(",\"dur\":");
                    write_us(&mut out, ev.dur.0);
                } else {
                    out.push_str("\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                    write_us(&mut out, ev.ts.0);
                }
                let _ = write!(out, ",\"pid\":{pid},\"tid\":{},\"args\":", key.lane.tid());
                write_args(&ev.event, &mut out);
                out.push('}');
            }
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn jsonl(snap: &TraceSnapshot) -> String {
        let mut out = String::new();
        for (key, events, _) in &snap.tracks {
            let run = snap.group_name(key.group);
            for ev in events {
                out.push_str("{\"run\":\"");
                escape_into(&mut out, &run);
                out.push_str("\",\"track\":\"");
                out.push_str(&label(&key.lane));
                let _ = write!(
                    out,
                    "\",\"ts\":{},\"dur\":{},\"name\":\"{}\",\"args\":",
                    ev.ts.0,
                    ev.dur.0,
                    ev.event.name()
                );
                write_args(&ev.event, &mut out);
                out.push_str("}\n");
            }
        }
        out
    }

    /// One line as the allocating reader returned it: every string
    /// owned, every argument a decoded `(key, value)` pair.
    #[derive(Debug)]
    pub struct ParsedLine {
        pub run: String,
        pub track: String,
        pub ts: u64,
        pub dur: u64,
        pub name: String,
        pub args: Vec<(String, String)>,
    }

    /// The keys of a JSONL line, in the order `jsonl` writes them.
    pub const KEYS: [&str; 6] = ["run", "track", "ts", "dur", "name", "args"];

    /// The JSONL reader production used before events shared their
    /// strings and kept their arguments as text, with the grammar
    /// `ickpt::obs::parse_jsonl` documents checked the plain way.
    pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedLine>, String> {
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_matches([' ', '\t', '\r']);
            if line.is_empty() {
                continue;
            }
            out.push(parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        Ok(out)
    }

    fn parse_line(line: &str) -> Result<ParsedLine, String> {
        let mut p = Cursor { s: line, i: 0 };
        p.expect(b'{')?;
        // Each key as written, quotes and escapes included.
        let mut seen: Vec<&str> = Vec::new();
        let mut out = ParsedLine {
            run: String::new(),
            track: String::new(),
            ts: 0,
            dur: 0,
            name: String::new(),
            args: Vec::new(),
        };
        loop {
            let at = p.i;
            let key = p.string()?;
            seen.push(&line[at..p.i]);
            p.expect(b':')?;
            match key.as_str() {
                "run" => out.run = p.string()?,
                "track" => out.track = p.string()?,
                "ts" => out.ts = p.digits()?.1,
                "dur" => out.dur = p.digits()?.1,
                "name" => out.name = p.string()?,
                "args" => {
                    p.expect(b'{')?;
                    if p.peek() == Some(b'}') {
                        p.i += 1;
                    } else {
                        loop {
                            let k = p.string()?;
                            p.expect(b':')?;
                            let v = p.raw_value()?;
                            if out.args.iter().any(|(seen, _)| *seen == k) {
                                return Err(format!("repeated args key {k:?}"));
                            }
                            out.args.push((k, v));
                            match p.next()? {
                                b',' => continue,
                                b'}' => break,
                                c => {
                                    return Err(format!("unexpected byte {:?} in args", c as char))
                                }
                            }
                        }
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
            match p.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(format!("unexpected byte {:?}", c as char)),
            }
        }
        if p.i != line.len() {
            return Err(format!("trailing bytes after the object at byte {}", p.i));
        }
        // The keys `jsonl` writes, spelled as it writes them, in its order.
        if seen != KEYS.map(|key| format!("\"{key}\"")) {
            return Err(format!("keys {seen:?} are not {KEYS:?}"));
        }
        Ok(out)
    }

    struct Cursor<'a> {
        s: &'a str,
        i: usize,
    }

    impl Cursor<'_> {
        fn peek(&self) -> Option<u8> {
            self.s.as_bytes().get(self.i).copied()
        }

        fn next(&mut self) -> Result<u8, String> {
            let c = self.peek().ok_or("unexpected end of line")?;
            self.i += 1;
            Ok(c)
        }

        fn expect(&mut self, want: u8) -> Result<(), String> {
            let got = self.next()?;
            if got != want {
                return Err(format!("expected {:?}, got {:?}", want as char, got as char));
            }
            Ok(())
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.i;
                while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                    self.i += 1;
                }
                out.push_str(&self.s[start..self.i]);
                match self.next()? {
                    b'"' => return Ok(out),
                    b'\\' => {}
                    c => return Err(format!("raw control byte {c:#04x} in string")),
                }
                out.push(match self.next()? {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = self.s.get(self.i..self.i + 4).ok_or("truncated \\u escape")?;
                        self.i += 4;
                        let code = hex.bytes().all(|b| b.is_ascii_hexdigit()).then_some(hex);
                        code.and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                            .ok_or_else(|| format!("unsupported escape \\u{hex}"))?
                    }
                    c => return Err(format!("unsupported escape \\{}", c as char)),
                });
            }
        }

        fn digits(&mut self) -> Result<(String, u64), String> {
            let start = self.i;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == start {
                return Err("expected integer".to_string());
            }
            let text = &self.s[start..self.i];
            Ok((text.to_string(), text.parse().map_err(|e| format!("bad integer: {e}"))?))
        }

        /// A string's body, or an integer rewritten canonically (`007`
        /// is `7`).
        fn raw_value(&mut self) -> Result<String, String> {
            if self.peek() == Some(b'"') {
                return self.string();
            }
            let (text, v) = self.digits()?;
            Ok(if text.len() == 1 || !text.starts_with('0') { text } else { v.to_string() })
        }
    }
}

// ---------------------------------------------------------------------
// Random streams
// ---------------------------------------------------------------------

const KINDS: [DeviceKind; 4] =
    [DeviceKind::Storage, DeviceKind::Local, DeviceKind::Nic, DeviceKind::Array];
const TIERS: [RecoveryTier; 4] = [
    RecoveryTier::Local,
    RecoveryTier::Reconstructed,
    RecoveryTier::Durable,
    RecoveryTier::ColdRestart,
];
/// Gauge names `Event::Counter` draws from: two collide with the
/// plane's own gauges, the rest sort before, between and after them.
const GAUGES: [&str; 5] = ["drained_bytes", "ranks", "drain_depth_max", "zz_last", "a_first"];
const RULES: [&str; 2] = ["p99_stall", "drain_depth"];
const GROUPS: [u32; 3] = [0, 7, 3];
const WINDOW_NS: u64 = 1_000_000_000;
/// Deliberately small: most tracks overflow, so dropped counts and the
/// retained suffix are compared too.
const RING: usize = 8;

/// A value that is zero a quarter of the time (zero deltas must still
/// create their cell) and otherwise spans many decimal widths.
fn val(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(4) {
        0 => 0,
        1 => rng.next_below(10),
        2 => rng.next_below(100_000),
        _ => rng.next_u64() >> rng.next_below(40),
    }
}

fn small(rng: &mut SplitMix64) -> u32 {
    rng.next_below(6) as u32
}

fn random_lane(rng: &mut SplitMix64) -> Lane {
    match rng.next_below(5) {
        0 => Lane::Run,
        1 => Lane::Rank(small(rng)),
        2 => Lane::Device(KINDS[rng.next_below(4) as usize], small(rng)),
        3 => Lane::Tenant(small(rng)),
        _ => Lane::Drain,
    }
}

fn random_event(rng: &mut SplitMix64, kind: u64) -> Event {
    let capture = if rng.next_f64() < 0.5 { CaptureKind::Full } else { CaptureKind::Incremental };
    let tier = TIERS[rng.next_below(4) as usize];
    match kind {
        0 => Event::RunStart { ranks: small(rng) },
        1 => Event::IterationBoundary { iteration: val(rng) },
        2 => Event::TrackerWindow {
            index: val(rng),
            iws_pages: val(rng),
            footprint_pages: val(rng),
            faults: val(rng) >> 8,
        },
        3 => Event::Capture {
            kind: capture,
            generation: val(rng),
            pages: val(rng) >> 8,
            payload_bytes: val(rng) >> 8,
        },
        4 => Event::DedupSkip {
            generation: val(rng),
            pages: val(rng) >> 8,
            bytes_saved: val(rng) >> 8,
        },
        5 => Event::DeltaEncode {
            generation: val(rng),
            pages: val(rng) >> 8,
            blocks: val(rng),
            bytes_saved: val(rng) >> 8,
        },
        6 => Event::CheckpointStall { generation: val(rng) },
        7 => Event::CommitBarrier { generation: val(rng) },
        8 => Event::ChunkPut {
            generation: val(rng),
            bytes: val(rng) >> 8,
            queue_wait_ns: val(rng) >> 8,
            service_ns: val(rng) >> 8,
        },
        9 => Event::ChunkGet {
            generation: val(rng),
            bytes: val(rng) >> 8,
            queue_wait_ns: val(rng),
            service_ns: val(rng),
        },
        10 => Event::ManifestPut { generation: val(rng), bytes: val(rng) },
        11 => Event::DeviceTransfer {
            bytes: val(rng) >> 8,
            queue_wait_ns: val(rng) >> 8,
            service_ns: val(rng) >> 8,
        },
        12 => Event::RedundancyPublish { generation: val(rng), bytes: val(rng) >> 8 },
        13 => Event::RedundancyReconstruct {
            generation: val(rng),
            pieces: small(rng),
            bytes: val(rng) >> 8,
        },
        14 => {
            Event::DrainBatch { generations: val(rng) >> 8, chunks: val(rng), bytes: val(rng) >> 8 }
        }
        15 => Event::DrainQueueDepth { depth: val(rng) },
        16 => Event::DrainTorn { generations: val(rng) >> 8, bytes: val(rng) >> 8 },
        17 => Event::AdmissionGrant { tenant: small(rng), bytes: val(rng) >> 8, chunks: val(rng) },
        18 => Event::AdmissionReject { tenant: small(rng), bytes: val(rng), retry_ns: val(rng) },
        19 => Event::TenantStall { tenant: small(rng), bytes: val(rng) },
        20 => Event::RecoveryRead { tier, bytes: val(rng) >> 8 },
        21 => Event::RecoveryPlan { rank: small(rng), tier, generation: val(rng) },
        22 => Event::Restore {
            generation: val(rng),
            chain: val(rng),
            pages: val(rng),
            bytes: val(rng) >> 8,
        },
        23 => Event::Failure { rank: small(rng), node_loss: small(rng) % 2 },
        24 => Event::Counter { name: GAUGES[rng.next_below(5) as usize], value: val(rng) },
        _ => Event::SloBreach {
            rule: RULES[rng.next_below(2) as usize],
            window: val(rng),
            value: val(rng),
            limit: val(rng),
        },
    }
}

/// `n` events over three groups. Every kind appears (the kind cycles);
/// timestamps repeat often enough that the per-track tie-break down to
/// the serialized arguments decides real orderings; `DeviceTransfer`
/// lands on non-device lanes too (its unlabelled cells).
fn random_stream(seed: u64, n: usize) -> Vec<(u32, Lane, TimedEvent)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let group = GROUPS[rng.next_below(3) as usize];
            let ts = match rng.next_below(3) {
                0 => rng.next_below(8) * WINDOW_NS,
                1 => rng.next_below(40) * WINDOW_NS / 4,
                _ => rng.next_below(30 * WINDOW_NS),
            };
            let dur = if rng.next_f64() < 0.5 { 0 } else { val(&mut rng) >> 30 };
            let event = random_event(&mut rng, i as u64 % 26);
            let ev = TimedEvent { ts: SimTime(ts), dur: SimDuration(dur), event };
            (group, random_lane(&mut rng), ev)
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

// ---------------------------------------------------------------------
// Production vs reference
// ---------------------------------------------------------------------

struct Both {
    ring: std::sync::Arc<FlightRecorder>,
    plane: std::sync::Arc<MetricsPlane>,
    ref_rings: reference::Rings,
    ref_plane: reference::Plane,
}

impl Both {
    fn new() -> Self {
        let mut this = Both {
            ring: FlightRecorder::new(RING),
            plane: MetricsPlane::new(SimDuration(WINDOW_NS)),
            ref_rings: reference::Rings {
                capacity: RING,
                tracks: Default::default(),
                groups: Default::default(),
            },
            ref_plane: reference::Plane { window_ns: WINDOW_NS, ..Default::default() },
        };
        // Group 3 stays unnamed (`run3`); group 7's name needs escaping
        // in both the Prometheus text and the JSON exports.
        for (group, name) in [(0, "model"), (7, "q\"uo\\te\n\u{1}é")] {
            this.ring.name_group(group, name);
            this.plane.name_group(group, name);
            this.ref_rings.groups.insert(group, name.to_string());
            this.ref_plane.names.insert(group, name.to_string());
        }
        this
    }

    fn feed(&mut self, stream: &[(u32, Lane, TimedEvent)]) {
        for (group, lane, ev) in stream {
            // Through the recorder handle, as instrumented code does.
            Recorder::new(self.ring.clone())
                .with_metrics(self.plane.clone())
                .with_group(*group)
                .emit_span(*lane, ev.ts, ev.dur, ev.event);
            self.ref_rings.record(TrackKey { group: *group, lane: *lane }, *ev);
            self.ref_plane.ingest(*group, *lane, ev);
        }
    }

    fn compare(&self, what: &str) {
        assert_eq!(self.plane.render_text(), self.ref_plane.render_text(), "{what}: render_text");
        assert_eq!(self.plane.meta(), self.ref_plane.meta, "{what}: meta");
        let groups: Vec<u32> = self.ref_plane.groups.keys().copied().collect();
        assert_eq!(self.plane.groups(), groups, "{what}: groups");
        assert!(self.plane.view(99).is_none());

        // Every name and label the model holds, plus ones nobody
        // touched and one outside the vocabulary.
        let mut labels = vec![MetricLabel::None, MetricLabel::Device(DeviceKind::Nic, 99)];
        labels.extend(TIERS.map(MetricLabel::Tier));
        for kind in KINDS {
            labels.extend((0..6).map(|i| MetricLabel::Device(kind, i)));
        }
        for (group, model) in &self.ref_plane.groups {
            let view = self.plane.view(*group).expect("group has data");
            assert_eq!(view.group(), *group);
            assert_eq!(view.name(), self.ref_plane.group_name(*group));
            assert_eq!(view.window_ns(), WINDOW_NS);
            assert_eq!(view.horizon_ns(), model.horizon_ns, "{what}: horizon");

            let mut names: Vec<&str> = model.counters.keys().map(|(n, _)| *n).collect();
            names.extend(model.gauges_max.keys().map(|(n, _)| *n));
            names.extend(model.hists.keys().map(|(n, _)| *n));
            names.extend(["failures", "recovery_plans", "device_bytes", "no_such_metric", ""]);
            names.extend(GAUGES);
            for name in names {
                assert_eq!(
                    view.counter(name),
                    model.counter_labeled(name, MetricLabel::None),
                    "{what}: counter {name}"
                );
                for label in &labels {
                    assert_eq!(
                        view.counter_labeled(name, *label),
                        model.counter_labeled(name, *label),
                        "{what}: counter {name} {label:?}"
                    );
                }
                assert_eq!(
                    view.counters_labeled(name),
                    model.counters_labeled(name),
                    "{what}: counters_labeled {name}"
                );
                assert_eq!(view.gauge(name), model.gauge(name), "{what}: gauge {name}");
                assert_eq!(view.histogram(name), model.histogram(name), "{what}: hist {name}");
                for pct in [1, 50, 99, 100] {
                    assert_eq!(
                        view.quantile(name, pct),
                        model.histogram(name).and_then(|h| h.quantile(pct)),
                        "{what}: quantile {name} p{pct}"
                    );
                }
            }

            let windows: Vec<_> = view.windows().map(|(i, w)| (i, w.clone())).collect();
            let want: Vec<_> = model.windows.iter().map(|(i, w)| (*i, w.clone())).collect();
            assert_eq!(windows, want, "{what}: windows");
            assert_eq!(view.window_count(), model.windows.len());
            for idx in 0..32 {
                assert_eq!(view.window(idx), model.windows.get(&idx), "{what}: window {idx}");
            }
            let mut merged = ickpt::obs::WindowAccum::default();
            model.windows.values().for_each(|w| merged.merge(w));
            assert_eq!(view.merged_windows(), merged, "{what}: merged windows");
        }

        let snap = self.ring.snapshot();
        let want = self.ref_rings.snapshot();
        assert_eq!(snap.groups, want.groups, "{what}: snapshot groups");
        assert_eq!(snap.tracks, want.tracks, "{what}: snapshot tracks");
        assert_eq!(snap.dropped(), want.dropped());
        assert!(snap.dropped() > 0, "{what}: the small rings must overflow");
        let lines = jsonl(&snap);
        assert_eq!(lines, reference::jsonl(&want), "{what}: jsonl");
        assert_eq!(chrome_trace(&snap), reference::chrome_trace(&want), "{what}: chrome_trace");

        // And back: every line parses, and rebuilds the typed event it
        // came from unless its payload is a `&'static str`.
        let parsed = parse_jsonl(&lines).expect("parse own export");
        let retained =
            snap.tracks.iter().flat_map(|(key, evs, _)| evs.iter().map(move |ev| (key, ev)));
        for (line, (key, ev)) in parsed.iter().zip(retained) {
            assert_eq!(*line.run, snap.group_name(key.group));
            match ev.event {
                Event::Counter { .. } | Event::SloBreach { .. } => {
                    assert!(line.to_timed().is_none())
                }
                _ => assert_eq!(line.to_timed(), Some((key.lane, *ev)), "{what}: {line:?}"),
            }
        }
        assert_eq!(parsed.len(), snap.event_count());
    }
}

#[test]
fn dense_tables_match_the_map_keyed_reference() {
    for seed in [1u64, 0x1DC4_2004, 0xFEED_5EED] {
        let stream = random_stream(seed, 2600);
        // Every kind and every lane kind is really in there.
        for kind in 0..26 {
            let name = stream[kind].2.event.name();
            assert_eq!(stream.iter().filter(|(_, _, ev)| ev.event.name() == name).count(), 100);
        }
        for want in 0..5 {
            assert!(stream.iter().any(|(_, lane, _)| match lane {
                Lane::Run => want == 0,
                Lane::Rank(_) => want == 1,
                Lane::Device(..) => want == 2,
                Lane::Tenant(_) => want == 3,
                Lane::Drain => want == 4,
            }));
        }

        let mut as_generated = Both::new();
        as_generated.feed(&stream);
        as_generated.compare("as generated");

        let mut shuffled = stream.clone();
        shuffle(&mut shuffled, &mut SplitMix64::new(seed ^ 0x5AFE));
        let mut both = Both::new();
        both.feed(&shuffled);
        both.compare("shuffled");

        // Newest first: every window but the first is opened in front
        // of the ones already there.
        let mut reversed = stream.clone();
        reversed.sort_by_key(|(_, _, ev)| std::cmp::Reverse(ev.ts));
        let mut both = Both::new();
        both.feed(&reversed);
        both.compare("time-reversed");

        // The plane's text depends on the event *set* only; compare in
        // two halves so state is also checked mid-stream.
        let mut halves = Both::new();
        halves.feed(&stream[..1300]);
        halves.compare("first half");
        halves.feed(&stream[1300..]);
        halves.compare("both halves");
        assert_eq!(halves.plane.render_text(), both.plane.render_text());
    }
}

// ---------------------------------------------------------------------
// Pinned export digests
// ---------------------------------------------------------------------

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One seeded service run (64 tenants, 4 devices, 1500 virtual s)
/// through recorder and plane. The digests were recorded with the
/// map-keyed implementation; a change that moves one byte of `jsonl`,
/// `chrome_trace` or `render_text` fails here.
#[test]
fn export_formats_are_pinned() {
    let fleet = fleet_profiles(&mixed_fleet(64, 0.1, 0x0B5E_2004));
    let mut cfg = ServiceConfig::new(fleet, SimDuration::from_secs(1500));
    cfg.devices = 4;
    cfg.seed = 0x0B5E_2004;
    let cfg = cfg.with_fair_admission(2);
    let ring = FlightRecorder::for_ranks(64);
    ring.name_group(0, "pinned");
    let plane = MetricsPlane::new(SimDuration::from_secs(1));
    plane.name_group(0, "pinned");
    run_service(&cfg, &Recorder::new(ring.clone()).with_metrics(plane.clone()));
    let snap = ring.snapshot();
    let got = [
        ("events", snap.event_count() as u64),
        ("dropped", snap.dropped()),
        ("jsonl", fnv1a(&jsonl(&snap))),
        ("chrome_trace", fnv1a(&chrome_trace(&snap))),
        ("render_text", fnv1a(&plane.render_text())),
    ];
    let want = [
        ("events", 283_871),
        ("dropped", 130_089),
        ("jsonl", 0x4c29_796a_6ca9_c618),
        ("chrome_trace", 0x4b8f_fef4_a416_3e34),
        ("render_text", 0x9700_6085_76bf_22da),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

// ---------------------------------------------------------------------
// Lane ids beyond the dense bound
// ---------------------------------------------------------------------

/// Counts the bytes this thread has live and the allocations it made,
/// so a test can bound what a call allocated without other tests'
/// threads disturbing it.
struct CountingAlloc;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialized thread-local `Cell` without a destructor, so
// touching it from inside the allocator neither allocates nor recurses.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.with(|b| b.set(b.get() + layout.size() as isize));
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|b| b.set(b.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_lane_id_never_sizes_an_allocation() {
    let huge = [
        Lane::Rank(u32::MAX),
        Lane::Tenant(u32::MAX),
        Lane::Device(DeviceKind::Local, u32::MAX),
        Lane::Device(DeviceKind::Array, (1 << 20) + 1),
    ];
    let near = [Lane::Drain, Lane::Device(DeviceKind::Local, 2), Lane::Rank(1), Lane::Run];
    let ring = FlightRecorder::new(16);
    let plane = MetricsPlane::new(SimDuration::from_secs(1));
    let rec = Recorder::new(ring.clone()).with_metrics(plane.clone());
    let transfer = Event::DeviceTransfer { bytes: 10, queue_wait_ns: 1, service_ns: 2 };

    let before = LIVE_BYTES.with(Cell::get);
    for (i, lane) in huge.iter().chain(&near).enumerate() {
        rec.emit(*lane, SimTime(i as u64), transfer);
        rec.emit(*lane, SimTime(100 + i as u64), transfer);
    }
    let grown = LIVE_BYTES.with(Cell::get) - before;
    assert!(grown < 32 * 1024, "eight lanes, sixteen events grew the heap by {grown} bytes");

    // Events landed, and tracks still come out in `TrackKey` order.
    let snap = ring.snapshot();
    let mut want: Vec<TrackKey> =
        huge.iter().chain(&near).map(|lane| TrackKey { group: 0, lane: *lane }).collect();
    want.sort();
    assert_eq!(snap.tracks.iter().map(|(key, _, _)| *key).collect::<Vec<_>>(), want);
    assert!(snap.tracks.iter().all(|(_, evs, dropped)| evs.len() == 2 && *dropped == 0));
    let text = jsonl(&snap);
    assert!(text.contains("\"track\":\"rank4294967295\""));
    assert!(text.contains("\"track\":\"dev:local:4294967295\""));

    // Device labels render in (kind, index) order, dense or not.
    let rendered = plane.render_text();
    let devs: Vec<&str> = rendered
        .lines()
        .filter(|l| l.starts_with("ickpt_device_bytes_total"))
        .map(|l| l.split("dev=\"").nth(1).map_or("-", |rest| rest.split('"').next().unwrap()))
        .collect();
    assert_eq!(devs, ["-", "local:2", "local:4294967295", "array:1048577"]);
    let view = plane.view(0).unwrap();
    assert_eq!(
        view.counter_labeled("device_bytes", MetricLabel::Device(DeviceKind::Local, u32::MAX)),
        20
    );
    assert_eq!(view.counter("device_bytes"), 100, "five non-device lanes, two transfers each");
    assert_eq!(view.counters_labeled("device_transfers").len(), 4);

    // The plane's per-rank and per-tenant rows, and the summary that
    // reads them, are keyed the same way: a huge rank lane or tenant
    // id is a row, not the length of one.
    let ring = FlightRecorder::new(16);
    let plane = MetricsPlane::new(SimDuration::from_secs(1));
    let rec = Recorder::new(ring.clone()).with_metrics(plane.clone());
    let before = LIVE_BYTES.with(Cell::get);
    for (i, id) in [u32::MAX, (1 << 20) + 1, 1].into_iter().enumerate() {
        let at = SimTime(i as u64);
        rec.emit_span(Lane::Rank(id), at, SimDuration(5), Event::CheckpointStall { generation: 1 });
        let stall = Event::TenantStall { tenant: id, bytes: 7 };
        rec.emit_span(Lane::Tenant(id), at, SimDuration(3), stall);
    }
    let summary = ObsSummary::from_snapshot(&ring.snapshot());
    let grown = LIVE_BYTES.with(Cell::get) - before;
    assert!(grown < 64 * 1024, "three ranks, three tenants grew the heap by {grown} bytes");
    let ranks: Vec<(u32, u64)> = summary.ranks.iter().map(|r| (r.rank, r.stall_ns)).collect();
    assert_eq!(ranks, [(1, 5), ((1 << 20) + 1, 5), (u32::MAX, 5)]);
    let tenants: Vec<(u32, u64)> =
        summary.tenants.iter().map(|t| (t.tenant, t.stall_max_ns)).collect();
    assert_eq!(tenants, [(1, 3), ((1 << 20) + 1, 3), (u32::MAX, 3)]);
    assert_eq!(plane.view(0).unwrap().counter("tenant_checkpoints"), 3);
}

// ---------------------------------------------------------------------
// JSONL round trip
// ---------------------------------------------------------------------

#[test]
fn parse_jsonl_reads_back_every_string_jsonl_writes() {
    let name = "q\"uote back\\slash idéntité \u{1}\ttab\n";
    let ring = FlightRecorder::new(16);
    ring.name_group(0, name);
    let rec = Recorder::new(ring.clone());
    rec.emit(Lane::Run, SimTime(5), Event::RunStart { ranks: 2 });
    rec.emit(Lane::Drain, SimTime(6), Event::Counter { name: "drained_bytes", value: 9 });
    let text = jsonl(&ring.snapshot());
    assert!(text.contains("\\u0001") && text.contains("idéntité"), "{text}");
    let events = parse_jsonl(&text).expect("parse own export");
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| *e.run == *name), "{events:?}");
    assert_eq!(events[1].arg("counter").as_deref(), Some("drained_bytes"));
    assert_eq!(events[1].arg_u64("value"), Some(9));
    // Escapes `jsonl` never writes are still refused, not guessed at.
    for bad in ["{\"run\":\"\\x\"}", "{\"run\":\"\\u12\"}", "{\"run\":\"\\ud800\"}", "{\"run\":\"a"]
    {
        assert!(parse_jsonl(bad).is_err(), "{bad}");
    }
    // A line missing a key, holding one twice, or followed by more
    // bytes is an error naming its line, not an event with blanks.
    let good = "{\"run\":\"r\",\"track\":\"run\",\"ts\":5,\"dur\":0,\"name\":\"n\",\"args\":{}}";
    assert_eq!(parse_jsonl(good).map(|evs| evs.len()), Ok(1));
    for (bad, why) in [
        ("{\"ts\":5}", "expected `{\"run\":`"),
        (&good.replace("\"ts\":5,", "\"ts\":5,\"ts\":6,"), "expected `,\"dur\":`"),
        (&good.replace("{}", "{\"a\":1,\"a\":2}"), "repeated args key \"a\""),
        (&format!("{good}}}"), "trailing bytes"),
        (&format!("{good} x"), "trailing bytes"),
    ] {
        let err = parse_jsonl(&format!("{good}\n\n{bad}\n{good}")).unwrap_err();
        assert!(err.starts_with("line 3: ") && err.contains(why), "{bad}: {err}");
    }
}

// ---------------------------------------------------------------------
// The JSONL reader against the allocating reference
// ---------------------------------------------------------------------

/// A seeded export: every event kind on every lane kind, over a plain,
/// an escaped and a non-ASCII group name, and the `(lane, event)` each
/// line was written from.
fn export_corpus(seed: u64, n: usize) -> (String, Vec<(Lane, TimedEvent)>) {
    let ring = FlightRecorder::new(1 << 12);
    for (group, name) in [(0, "model"), (7, "q\"uo\\te\n\u{1}é"), (3, "Größe ☃ 計算")] {
        ring.name_group(group, name);
    }
    for (group, lane, ev) in random_stream(seed, n) {
        Recorder::new(ring.clone()).with_group(group).emit_span(lane, ev.ts, ev.dur, ev.event);
    }
    let snap = ring.snapshot();
    assert_eq!(snap.dropped(), 0);
    let written =
        snap.tracks.iter().flat_map(|(key, evs, _)| evs.iter().map(move |ev| (key.lane, *ev)));
    (jsonl(&snap), written.collect())
}

/// A line `jsonl` wrote, split into its members' raw key and value
/// text in the order written. Only an escaped quote can stand inside a
/// string, so the next key's `,"key":` ends each value.
fn members(line: &str) -> Vec<(String, String)> {
    let mut rest = &line[1..line.len() - 1];
    let mut out = Vec::new();
    let keys = reference::KEYS;
    for (i, key) in keys.iter().enumerate() {
        rest = rest.strip_prefix(&format!("\"{key}\":")).expect("jsonl key order");
        let end = keys.get(i + 1).map_or(rest.len(), |next| {
            rest.find(&format!(",\"{next}\":")).expect("jsonl key order")
        });
        out.push((format!("\"{key}\""), rest[..end].to_string()));
        rest = rest[end..].strip_prefix(',').unwrap_or("");
    }
    out
}

/// An `args` object's members. Argument strings are tokens and gauge
/// names, with neither `,` nor `:` in them.
fn split_args(args: &str) -> Vec<(String, String)> {
    let inner = &args[1..args.len() - 1];
    let pairs = inner.split(',').filter(|m| !m.is_empty());
    pairs.map(|m| m.split_once(':').map(|(k, v)| (k.into(), v.into())).unwrap()).collect()
}

fn join(members: &[(String, String)]) -> String {
    let inner: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", inner.join(","))
}

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

/// Rewrite a line without changing what it says: arguments reordered,
/// leading zeros, a letter of a value or argument key spelled as a
/// `\u` escape, or padding. Or empty its arguments, the one edit that
/// does change it; the flag says whether the arguments survived.
fn respell(line: &str, rng: &mut SplitMix64) -> (String, bool) {
    let mut m = members(line);
    let mut args = split_args(&m[5].1);
    let mut kept_args = true;
    match rng.next_below(6) {
        0 => {}
        1 => shuffle(&mut args, rng),
        2 => {
            let mut ints: Vec<&mut String> = vec![];
            let (head, _) = m.split_at_mut(4);
            ints.extend(head[2..].iter_mut().map(|(_, v)| v));
            ints.extend(args.iter_mut().map(|(_, v)| v).filter(|v| !v.starts_with('"')));
            let int = ints.swap_remove(pick(rng, ints.len()));
            int.insert_str(0, ["0", "00", "000"][pick(rng, 3)]);
        }
        3 => {
            let mut strings: Vec<&mut String> = vec![];
            for (i, (_, v)) in m.iter_mut().enumerate() {
                if matches!(i, 0 | 1 | 4) {
                    strings.push(v);
                }
            }
            for (k, v) in &mut args {
                strings.push(k);
                if v.starts_with('"') {
                    strings.push(v);
                }
            }
            // Letters outside any escape, so respelling one keeps the value.
            strings.retain(|s| !s.contains('\\') && s.bytes().any(|b| b.is_ascii_alphabetic()));
            let s = strings.swap_remove(pick(rng, strings.len()));
            let letters: Vec<usize> = s
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_alphabetic())
                .map(|(i, _)| i)
                .collect();
            let at = letters[pick(rng, letters.len())];
            let code = u32::from(s.as_bytes()[at]);
            let escape = if rng.next_below(2) == 0 {
                format!("\\u{code:04x}")
            } else {
                format!("\\u{code:04X}")
            };
            s.replace_range(at..at + 1, &escape);
        }
        4 => {
            args.clear();
            kept_args = false;
        }
        _ => return (format!(" \t{line}\r"), true),
    }
    m[5].1 = join(&args);
    (join(&m), kept_args)
}

/// Break a line so the grammar refuses it: a key missing, twice, out
/// of order or escaped, an unknown key, bytes after the object, a cut,
/// a bad escape or raw control byte, a number that is not an unsigned
/// 64-bit integer, whitespace inside, or no event object at all.
fn break_line(line: &str, rng: &mut SplitMix64) -> String {
    let mut m = members(line);
    let mut args = split_args(&m[5].1);
    match rng.next_below(12) {
        0 => drop(m.remove(pick(rng, 6))),
        10 => m.rotate_left(1 + pick(rng, 5)),
        11 => {
            let key = &mut m[pick(rng, 6)].0;
            let code = u32::from(key.as_bytes()[1]);
            key.replace_range(1..2, &format!("\\u{code:04x}"));
        }
        1 => {
            let twice = m[pick(rng, 6)].clone();
            m.insert(pick(rng, 7), twice);
        }
        2 => {
            let twice = args[pick(rng, args.len())].clone();
            args.insert(pick(rng, args.len() + 1), twice);
            m[5].1 = join(&args);
        }
        3 => return format!("{line}{}", ["x", "}", ",", " {}", "\u{1}", "\"\""][pick(rng, 6)]),
        4 => {
            let cut = (1..line.len()).nth(pick(rng, line.len() - 1)).unwrap();
            let cut = (1..=cut).rev().find(|&c| line.is_char_boundary(c)).unwrap();
            return line[..cut].to_string();
        }
        5 => m.insert(pick(rng, 7), ("\"extra\"".into(), "1".into())),
        6 => {
            let bodies = ["\\x", "\\u12", "\\ud800", "\\u00e", "a\u{1}b", "tab\there", "\\é"];
            m[[0, 1, 4][pick(rng, 3)]].1 = format!("\"{}\"", bodies[pick(rng, bodies.len())]);
        }
        7 => {
            let numbers = ["-1", "1.5", "1e3", "18446744073709551616", "true", "null", "", "[1]"];
            let bad = numbers[pick(rng, numbers.len())].to_string();
            if rng.next_below(2) == 0 {
                m[2 + pick(rng, 2)].1 = bad;
            } else {
                let slot = pick(rng, args.len());
                args[slot].1 = if bad == "true" { "{}".into() } else { bad };
                m[5].1 = join(&args);
            }
        }
        8 => m[pick(rng, 6)].1.insert(0, ' '),
        _ => return ["[]", "\"x\"", "{", "{}", "null", "{\"run\":\"r\"}"][pick(rng, 6)].into(),
    }
    join(&m)
}

/// The reader and the reference read the same events, and every
/// argument the reference decoded reads the same through `arg` and
/// `arg_u64`; `to_timed` rebuilds the event the line was written from.
fn assert_same_events(
    text: &str,
    want: &[Option<(Lane, TimedEvent)>],
) -> Vec<ickpt::obs::ParsedEvent> {
    let got = parse_jsonl(text).expect("reader accepts");
    let model = reference::parse_jsonl(text).expect("reference accepts");
    assert_eq!((got.len(), model.len()), (want.len(), want.len()));
    for ((ev, line), want) in got.iter().zip(&model).zip(want) {
        assert_eq!(
            (&*ev.run, &*ev.track, ev.ts, ev.dur, &*ev.name),
            (&*line.run, &*line.track, line.ts, line.dur, &*line.name)
        );
        for (key, value) in &line.args {
            assert_eq!(ev.arg(key).as_deref(), Some(value.as_str()), "{ev:?}");
            assert_eq!(ev.arg_u64(key), value.parse().ok(), "{ev:?}");
        }
        assert_eq!(ev.arg("absent"), None);
        assert_eq!(ev.to_timed(), *want, "{ev:?}");
    }
    got
}

/// Both refuse `text`, naming the same line.
fn assert_same_refusal(text: &str, lineno: usize) {
    let want = format!("line {lineno}: ");
    let got = parse_jsonl(text).expect_err("reader refuses");
    let model = reference::parse_jsonl(text).expect_err("reference refuses");
    assert!(got.starts_with(&want) && model.starts_with(&want), "{got} / {model} in {text:?}");
}

#[test]
fn parse_jsonl_matches_the_allocating_reference() {
    for seed in [1u64, 0x1DC4_2004, 0xFEED_5EED] {
        let (text, written) = export_corpus(seed, 520);
        let mut rng = SplitMix64::new(seed ^ 0x7E57);
        let lines: Vec<&str> = text.lines().collect();
        let kinds: std::collections::BTreeSet<&str> =
            written.iter().map(|(_, ev)| ev.event.name()).collect();
        assert_eq!(kinds.len(), 26, "every event kind");

        // `to_timed` rebuilds every event but the `&'static str` ones.
        let rebuilt = |&(lane, ev): &(Lane, TimedEvent)| {
            let derived = matches!(ev.event, Event::Counter { .. } | Event::SloBreach { .. });
            (!derived).then_some((lane, ev))
        };
        assert_same_events(&text, &written.iter().map(rebuilt).collect::<Vec<_>>());

        // Every line respelled in one corpus, with blank lines and
        // CRLF endings between.
        let mut corpus = String::new();
        let mut want = Vec::new();
        for (line, written) in lines.iter().zip(&written) {
            assert_eq!(join(&members(line)), *line);
            let (respelled, kept_args) = respell(line, &mut rng);
            if rng.next_below(8) == 0 {
                corpus.push_str(" \t\n");
            }
            corpus.push_str(&respelled);
            corpus.push_str(["\n", "\r\n"][pick(&mut rng, 2)]);
            want.push(rebuilt(written).filter(|_| kept_args));
        }
        assert_same_events(&corpus, &want);

        // Every line broken on its own, then one broken line somewhere
        // in the respelled corpus.
        for line in &lines {
            assert_same_refusal(&break_line(line, &mut rng), 1);
        }
        let physical: Vec<&str> = corpus.split('\n').collect();
        for _ in 0..40 {
            let at = pick(&mut rng, physical.len());
            let broken = break_line(lines[pick(&mut rng, lines.len())], &mut rng);
            let mut text = physical.clone();
            text.insert(at, &broken);
            assert_same_refusal(&text.join("\n"), at + 1);
        }
    }
}

#[test]
fn parse_jsonl_allocates_per_distinct_string_not_per_line() {
    let (text, written) = export_corpus(0xA110_C8ED, 2600);
    let before = ALLOCATIONS.with(Cell::get);
    let events = parse_jsonl(&text).expect("parse own export");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(events.len(), written.len());
    // The output vector, the shared argument text and, once each, the
    // 3 run names, 38 track labels and 26 event names with their
    // interning tables: nothing for a line that repeats them.
    assert!(allocations <= 128, "{} lines took {allocations} allocations", written.len());
}

// ---------------------------------------------------------------------
// ObsSummary render pinned
// ---------------------------------------------------------------------

/// One seeded 8-rank fault-tolerant run on tiered storage — XOR parity
/// over groups of four, a tree drain every second checkpoint, dedup on
/// and one node loss while the first drain is still in flight (so it
/// tears) — captured whole by a flight recorder.
fn ft_snapshot() -> ickpt::obs::TraceSnapshot {
    use std::sync::Arc;

    use ickpt::apps::synthetic::{SyntheticApp, SyntheticConfig};
    use ickpt::cluster::{
        run_fault_tolerant, CheckpointMode, FailureSpec, FaultTolerantConfig, RedundancyConfig,
        StoragePath,
    };
    use ickpt::core::coordinator::CheckpointPolicy;
    use ickpt::mem::{LayoutBuilder, PAGE_SIZE};
    use ickpt::net::NetConfig;
    use ickpt::sim::DevicePreset;
    use ickpt::storage::{DrainTopology, MemStore, SchemeSpec};

    const RANKS: usize = 8;
    let ring = FlightRecorder::for_ranks(RANKS);
    ring.name_group(0, "pinned-ft");
    let cfg = FaultTolerantConfig {
        nranks: RANKS,
        max_iterations: 120,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(3), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::Shared,
        failures: vec![FailureSpec::node_loss(1, SimTime(6_050_000_000))],
        net: NetConfig::qsnet(),
        redundancy: Some(RedundancyConfig {
            scheme: SchemeSpec::XorParity { group_size: 4 },
            local_device: DevicePreset::NodeLocal,
            drain_every: 2,
            drain_topology: DrainTopology::Tree { arity: 4 },
        }),
        max_attempts: 4,
        obs: Recorder::new(ring.clone()),
        dedup: Some(true),
        write_profile: Default::default(),
    };
    let layout = LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(2048 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build();
    run_fault_tolerant(&cfg, layout, |rank| {
        Box::new(SyntheticApp::new(SyntheticConfig {
            exchange_bytes: 8192,
            period: SimDuration::from_millis(100),
            rank,
            nranks: RANKS,
            ..Default::default()
        }))
    })
    .expect("simulated run completes");
    ring.snapshot()
}

/// `ObsSummary::render` byte for byte, on a fault-tolerant run (device,
/// rank, drain, torn and recovery sections) and on the service run of
/// `export_formats_are_pinned` (the tenant section). The digests were
/// recorded while the summary still kept its own fold over the events.
#[test]
fn summary_render_is_pinned() {
    let ft = ObsSummary::from_snapshot(&ft_snapshot()).render();
    for section in
        ["device utilization:", "rank stalls:", "drain:", "torn by failures", "recovery:"]
    {
        assert!(ft.contains(section), "{section:?} missing from\n{ft}");
    }
    let fleet = fleet_profiles(&mixed_fleet(64, 0.1, 0x0B5E_2004));
    let mut cfg = ServiceConfig::new(fleet, SimDuration::from_secs(1500));
    cfg.devices = 4;
    cfg.seed = 0x0B5E_2004;
    let cfg = cfg.with_fair_admission(2);
    let ring = FlightRecorder::for_ranks(64);
    run_service(&cfg, &Recorder::new(ring.clone()));
    let svc = ObsSummary::from_snapshot(&ring.snapshot()).render();
    assert!(svc.contains("tenant service:"), "no tenant section in\n{svc}");
    let got = [("ft", fnv1a(&ft)), ("svc", fnv1a(&svc))];
    let want = [("ft", 0xd94f_3d81_d6b0_8dc7), ("svc", 0x72c2_f36d_ece9_72f9)];
    assert_eq!(got, want, "got {got:#x?}");
}
