//! `ickpt-obs`: a deterministic flight recorder keyed to the virtual
//! clock.
//!
//! The simulator's feasibility story is about *where virtual time
//! goes* — dirty-page bursts, storage vs interconnect contention,
//! capture stall, drain batches racing the next checkpoint, tiered
//! recovery walking local → partner → durable. End-of-run aggregates
//! can't show any of that in time order. This crate records typed
//! [`Event`]s on per-rank / per-device / drain tracks, bounded by
//! ring buffers, and exports them as Chrome trace-event JSON (open in
//! Perfetto) or JSONL — byte-deterministic for a fixed seed at any
//! `ICKPT_BENCH_THREADS` setting, because every track is sorted by
//! virtual time with a total serialized-form tiebreak.
//!
//! Recording is *zero cost when disabled*: configs default to
//! [`Recorder::disabled`], whose emit methods are an inlined
//! test-and-return (perf/'s `obs.disabled_ns` measures it).

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

mod event;
mod export;
pub mod health;
mod log;
mod metrics;
mod summary;

pub use event::{CaptureKind, DeviceKind, Event, Lane, RecoveryTier, TimedEvent, TrackKey};
pub use export::{chrome_trace, jsonl, parse_jsonl, validate_json, ParsedEvent};
pub use log::{EventLog, FlightRecorder, Recorder, TraceSnapshot};
pub use metrics::{
    bucket_of, LogHistogram, MetaStats, MetricLabel, MetricsConfig, MetricsPlane, MetricsView,
    WindowAccum,
};
pub use summary::ObsSummary;
