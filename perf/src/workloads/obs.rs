//! `obs_replay`: `ickpt-obs` alone. Set-up records one service run's
//! event stream; every pass re-emits it through a flight recorder and
//! a metrics plane and then runs the snapshot and every exporter.

use std::hint::black_box;
use std::time::Instant;

use ickpt::obs::{
    chrome_trace, jsonl, parse_jsonl, validate_json, FlightRecorder, Lane, MetricsPlane,
    ObsSummary, Recorder, TimedEvent,
};
use ickpt::sim::SimDuration;
use ickpt::svc::run_service;

use super::svc::service_config;
use super::{fold_digest, Checks, Layers, Params, PassOut, Workload};
use crate::spans::{Tracer, ROOT};

pub struct ObsReplay {
    /// The recorded stream in virtual-time order.
    events: Vec<(Lane, TimedEvent)>,
    tenants: usize,
    /// `render_text` of the first pass: later passes must match it.
    first_text: Option<String>,
    last: PassCounts,
}

#[derive(Debug, Default, Clone, Copy)]
struct PassCounts {
    retained: usize,
    dropped: u64,
    export_bytes: usize,
}

/// Export stages: span name and the per-layer metric its time feeds.
const STAGES: &[(&str, &str)] = &[
    ("obs.snapshot", "obs.snapshot_s"),
    ("obs.jsonl", "obs.jsonl_s"),
    ("obs.chrome_trace", "obs.chrome_s"),
    ("obs.render_text", "obs.render_text_s"),
    ("obs.summary", "obs.summary_s"),
    ("obs.parse_jsonl", "obs.parse_s"),
];

fn emit_all(rec: &Recorder, events: &[(Lane, TimedEvent)]) {
    for (lane, ev) in events {
        // Opaque per call: otherwise a disabled recorder's whole loop
        // is optimized away and `obs.disabled_ns` measures nothing.
        black_box(rec).emit_span(*lane, ev.ts, ev.dur, ev.event);
    }
}

impl ObsReplay {
    pub fn new(p: &Params) -> Self {
        let (tenants, devices, secs) = if p.quick { (16, 2, 200) } else { (256, 8, 3000) };
        let cfg = service_config(tenants, devices, secs, p.seed);
        // Rings large enough to keep the whole run: the stream is the
        // input, so nothing may be evicted while recording it.
        let capture = FlightRecorder::new(1 << 24);
        run_service(&cfg, &Recorder::new(capture.clone()));
        let snapshot = capture.snapshot();
        assert_eq!(snapshot.dropped(), 0, "capture rings must hold the whole stream");
        let mut events: Vec<(Lane, TimedEvent)> = snapshot
            .tracks
            .iter()
            .flat_map(|(key, evs, _)| evs.iter().map(move |ev| (key.lane, *ev)))
            .collect();
        // Stable: tracks come out in canonical order, so equal instants
        // keep one order for a given seed.
        events.sort_by_key(|(_, ev)| ev.ts);
        let mut this = ObsReplay { events, tenants, first_text: None, last: PassCounts::default() };
        // One untimed replay: the export buffers are grown and touched
        // before anything is timed, and its `render_text` is what every
        // timed pass must reproduce.
        this.pass(&mut Tracer::new(false), &mut Checks::default());
        this
    }

    fn recorder(&self) -> (std::sync::Arc<FlightRecorder>, std::sync::Arc<MetricsPlane>, Recorder) {
        let ring = FlightRecorder::for_ranks(self.tenants);
        ring.name_group(0, "obs_replay");
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        plane.name_group(0, "obs_replay");
        let rec = Recorder::new(ring.clone()).with_metrics(plane.clone());
        (ring, plane, rec)
    }
}

impl Workload for ObsReplay {
    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("events", self.events.len().to_string()),
            ("source", format!("run_service, {} tenants", self.tenants)),
            ("ring", format!("FlightRecorder::for_ranks({})", self.tenants)),
            ("plane_window_s", "1".to_string()),
        ]
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> PassOut {
        let root = tr.begin(ROOT);
        let (ring, plane, rec) = self.recorder();
        tr.time("obs.emit", || emit_all(&rec, &self.events));
        let snapshot = tr.time("obs.snapshot", || ring.snapshot());
        let lines = tr.time("obs.jsonl", || jsonl(&snapshot));
        let chrome = tr.time("obs.chrome_trace", || chrome_trace(&snapshot));
        let text = tr.time("obs.render_text", || plane.render_text());
        let summary = tr.time("obs.summary", || ObsSummary::from_snapshot(&snapshot));
        let parsed = tr.time("obs.parse_jsonl", || parse_jsonl(&lines));
        // Freeing the exports is the pipeline's cost too.
        let counts = PassCounts {
            retained: snapshot.event_count(),
            dropped: snapshot.dropped(),
            export_bytes: lines.len() + chrome.len() + text.len(),
        };
        let chrome_ok = tr.time("obs.validate_json", || validate_json(&chrome).is_ok());
        black_box(&summary);
        tr.time("obs.drop", || drop((ring, plane, rec, snapshot, lines, chrome, summary)));
        let secs = tr.end(root);

        checks.check("parse_jsonl returns every exported event", {
            matches!(&parsed, Ok(evs) if evs.len() == counts.retained)
        });
        checks.check("validate_json accepts the Chrome trace", chrome_ok);
        checks.check("every emitted event is retained or counted as dropped", {
            counts.retained as u64 + counts.dropped == self.events.len() as u64
        });
        match &self.first_text {
            Some(first) => checks.check("render_text identical across passes", *first == text),
            None => self.first_text = Some(text),
        }
        self.last = counts;
        let extra = STAGES.iter().map(|&(span, metric)| (metric, tr.total(span))).collect();
        PassOut { secs, work: self.events.len() as f64, extra }
    }

    fn digest(&self) -> u64 {
        // Set-up ran a pass, so the text is there.
        self.first_text.iter().flat_map(|t| t.bytes()).fold(0, |d, b| fold_digest(d, u64::from(b)))
    }

    fn layers(&mut self, _tr: &mut Tracer, out: &mut Layers) {
        let n = self.events.len().max(1) as f64;
        let per_event_ns = |rec: Recorder| {
            let t = Instant::now();
            emit_all(&rec, &self.events);
            t.elapsed().as_secs_f64() * 1e9 / n
        };
        // Ring only, plane only, and the disabled recorder every other
        // workload runs with.
        out.insert(
            "obs.emit_ns",
            per_event_ns(Recorder::new(FlightRecorder::for_ranks(self.tenants))),
        );
        out.insert(
            "obs.plane_ingest_ns",
            per_event_ns(
                Recorder::disabled().with_metrics(MetricsPlane::new(SimDuration::from_secs(1))),
            ),
        );
        out.insert("obs.disabled_ns", per_event_ns(Recorder::disabled()));
        out.insert("obs.events", n);
        out.insert("obs.dropped", self.last.dropped as f64);
        out.insert("obs.export_bytes", self.last.export_bytes as f64);
    }
}
