//! SLO health monitoring over the metrics plane.
//!
//! The standard envelope is four rules, checked in every populated
//! window of a [`MetricsView`]:
//!
//! * `p99_stall` — window p99 rank stall below 150 ms;
//! * `p99_tenant_stall` — window p99 tenant stall below 750 ms;
//! * `drain_depth` — drain queue never 16 generations deep;
//! * `content_amplification` — effective IB ≤ dirty IB (the content
//!   layer must never *add* bytes; equality is the dedup-off baseline
//!   and passes).
//!
//! Breaches come back as typed [`SloBreachRecord`]s and can be replayed
//! into the flight recorder as [`Event::SloBreach`] instants on the run
//! lane, so a trace shows *when* a run left its envelope right next to
//! the events that put it there. Evaluation is a pure function of the
//! view (windows ascending, rules in the order above), so its output —
//! and the breach events' serialized bytes — is deterministic.

use crate::event::{Event, Lane};
use crate::log::Recorder;
use crate::metrics::{MetricsView, WindowAccum};
use ickpt_sim::SimTime;

/// The standard envelope's rule names, in evaluation order.
pub const RULES: [&str; 4] =
    ["p99_stall", "p99_tenant_stall", "drain_depth", "content_amplification"];

/// One window that violated one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBreachRecord {
    /// The violated rule's name.
    pub rule: &'static str,
    /// Window index (`ts / window_ns`).
    pub window: u64,
    /// The measured value (quantile ns, field value, or milli-ratio).
    pub value: u64,
    /// The rule's limit in the same unit.
    pub limit: u64,
}

/// The rules `w` violates, in [`RULES`] order, as `(rule, measured,
/// limit)`. Limits are exclusive except the ratio's; a window with no
/// samples (or no dirty bytes) passes a quantile (or the ratio) rule
/// vacuously.
fn window_breaches(w: &WindowAccum) -> impl Iterator<Item = (&'static str, u64, u64)> {
    let at_least = |v: Option<u64>, limit: u64| v.filter(|&v| v >= limit).map(|v| (v, limit));
    // effective/dirty > 1000‰ ⟺ effective·1000 > 1000·dirty, in u128.
    let (effective, dirty) = (w.effective_ib_bytes as u128, w.dirty_ib_bytes as u128);
    let amplification = (dirty > 0 && effective * 1000 > 1000 * dirty)
        .then(|| ((effective * 1000 / dirty) as u64, 1000));
    let checks = [
        at_least(w.stall.quantile(99), 150_000_000),
        at_least(w.tenant_stall.quantile(99), 750_000_000),
        at_least(Some(w.drain_depth_max), 16),
        amplification,
    ];
    RULES.into_iter().zip(checks).filter_map(|(rule, hit)| hit.map(|(v, limit)| (rule, v, limit)))
}

/// Evaluate every populated window against the standard envelope.
/// Breaches come back windows-ascending, rules in [`RULES`] order
/// within a window.
pub fn evaluate(view: &MetricsView) -> Vec<SloBreachRecord> {
    view.windows()
        .flat_map(|(window, w)| {
            window_breaches(w).map(move |(rule, value, limit)| SloBreachRecord {
                rule,
                window,
                value,
                limit,
            })
        })
        .collect()
}

/// [`evaluate`], then replay each breach as an [`Event::SloBreach`]
/// instant on `rec`'s run lane, stamped at its window's end — so
/// breaches land in the trace (and, via the recorder tee, in the
/// metrics plane's `slo_breaches` counter). Returns the records.
pub fn evaluate_into(view: &MetricsView, rec: &Recorder) -> Vec<SloBreachRecord> {
    let breaches = evaluate(view);
    for b in &breaches {
        let end_ns = (b.window + 1).saturating_mul(view.window_ns());
        rec.emit(
            Lane::Run,
            SimTime(end_ns),
            Event::SloBreach { rule: b.rule, window: b.window, value: b.value, limit: b.limit },
        );
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CaptureKind, TimedEvent};
    use crate::log::FlightRecorder;
    use crate::metrics::MetricsPlane;
    use ickpt_sim::SimDuration;

    fn stall(ts_ns: u64, dur_ns: u64) -> (Lane, TimedEvent) {
        (
            Lane::Rank(0),
            TimedEvent {
                ts: SimTime(ts_ns),
                dur: SimDuration(dur_ns),
                event: Event::CheckpointStall { generation: 1 },
            },
        )
    }

    /// The standard envelope's breaches of one window, declaration
    /// order, as `(rule, value, limit)`.
    fn breaches_of(w: &WindowAccum) -> Vec<(&'static str, u64, u64)> {
        window_breaches(w).collect()
    }

    #[test]
    fn p99_stall_fires_at_150ms_and_passes_below() {
        let mut w = WindowAccum::default();
        w.stall.record(149_999_999);
        assert_eq!(breaches_of(&w), []);
        let mut w = WindowAccum::default();
        w.stall.record(150_000_000);
        assert_eq!(breaches_of(&w), [("p99_stall", 150_000_000, 150_000_000)]);
    }

    #[test]
    fn p99_tenant_stall_fires_at_750ms_and_passes_below() {
        let mut w = WindowAccum::default();
        w.tenant_stall.record(749_999_999);
        assert_eq!(breaches_of(&w), []);
        let mut w = WindowAccum::default();
        w.tenant_stall.record(750_000_000);
        assert_eq!(breaches_of(&w), [("p99_tenant_stall", 750_000_000, 750_000_000)]);
    }

    #[test]
    fn drain_depth_fires_at_16_and_passes_at_15() {
        let mut w = WindowAccum { drain_depth_max: 15, ..WindowAccum::default() };
        assert_eq!(breaches_of(&w), []);
        w.drain_depth_max = 16;
        assert_eq!(breaches_of(&w), [("drain_depth", 16, 16)]);
    }

    #[test]
    fn content_amplification_passes_at_equality_fires_above_and_skips_empty() {
        let ib = |effective, dirty| WindowAccum {
            effective_ib_bytes: effective,
            dirty_ib_bytes: dirty,
            ..WindowAccum::default()
        };
        assert_eq!(breaches_of(&ib(4096, 4096)), []);
        assert_eq!(breaches_of(&ib(1000, 4096)), []);
        // 4097/4096 is 1000.24‰: above the limit, reported truncated.
        assert_eq!(breaches_of(&ib(4097, 4096)), [("content_amplification", 1000, 1000)]);
        assert_eq!(breaches_of(&ib(3, 2)), [("content_amplification", 1500, 1000)]);
        // A zero denominator passes vacuously, whatever the numerator.
        assert_eq!(breaches_of(&ib(4096, 0)), []);
        assert_eq!(breaches_of(&ib(0, 0)), []);
    }

    #[test]
    fn one_window_reports_its_breaches_in_declaration_order() {
        let mut w = WindowAccum {
            drain_depth_max: 40,
            effective_ib_bytes: 2,
            dirty_ib_bytes: 1,
            ..WindowAccum::default()
        };
        w.stall.record(900_000_000);
        w.tenant_stall.record(900_000_000);
        let rules: Vec<&str> = breaches_of(&w).iter().map(|b| b.0).collect();
        assert_eq!(
            rules,
            ["p99_stall", "p99_tenant_stall", "drain_depth", "content_amplification"]
        );
    }

    #[test]
    fn quantile_rule_fires_only_on_bad_windows() {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        // Window 0: 1 ms stalls (fine). Window 2: 400 ms stall (bad).
        for i in 0..5u64 {
            let (lane, ev) = stall(i * 100_000_000, 1_000_000);
            plane.ingest(0, lane, &ev);
        }
        let (lane, ev) = stall(2_100_000_000, 400_000_000);
        plane.ingest(0, lane, &ev);
        let view = plane.view(0).unwrap();
        let breaches = evaluate(&view);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].window, 2);
        assert_eq!(breaches[0].rule, "p99_stall");
        assert!(breaches[0].value >= 150_000_000);
    }

    #[test]
    fn ratio_rule_passes_at_equality_and_skips_empty_windows() {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        // A capture with no dedup savings: effective == dirty.
        plane.ingest(
            0,
            Lane::Rank(0),
            &TimedEvent {
                ts: SimTime(0),
                dur: SimDuration::ZERO,
                event: Event::Capture {
                    kind: CaptureKind::Incremental,
                    generation: 1,
                    pages: 4,
                    payload_bytes: 4096,
                },
            },
        );
        let view = plane.view(0).unwrap();
        assert!(evaluate(&view).is_empty());
    }

    #[test]
    fn breaches_replay_into_the_recorder_and_count_themselves() {
        let plane = MetricsPlane::new(SimDuration::from_secs(1));
        let fr = FlightRecorder::new(64);
        let rec = Recorder::new(fr.clone()).with_metrics(plane.clone());
        rec.emit_span(
            Lane::Rank(0),
            SimTime(500_000_000),
            SimDuration(200_000_000),
            Event::CheckpointStall { generation: 3 },
        );
        let view = plane.view(0).unwrap();
        let breaches = evaluate_into(&view, &rec);
        assert_eq!(breaches.len(), 1);
        let snap = fr.snapshot();
        let run_track = snap.tracks.iter().find(|(k, _, _)| k.lane == Lane::Run).expect("run lane");
        assert!(run_track
            .1
            .iter()
            .any(|ev| matches!(ev.event, Event::SloBreach { rule: "p99_stall", window: 0, .. })));
        // The breach event itself was teed back into the plane.
        assert_eq!(plane.view(0).unwrap().counter("slo_breaches"), 1);
    }
}
