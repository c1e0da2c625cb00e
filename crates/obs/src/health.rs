//! SLO health monitoring over the metrics plane.
//!
//! A [`HealthMonitor`] holds declarative [`SloRule`]s — "window p99
//! stall below 150 ms", "drain queue never deeper than 16", "effective
//! IB must not exceed dirty IB" — and evaluates every populated window
//! of a [`MetricsView`] against them. Breaches come back as typed
//! [`SloBreachRecord`]s and can be replayed into the flight recorder
//! as [`Event::SloBreach`] instants on the run lane, so a trace shows
//! *when* a run left its envelope right next to the events that put it
//! there. Evaluation is a pure function of the view (windows ascending,
//! rules in declaration order), so its output — and the breach events'
//! serialized bytes — is deterministic.

use crate::event::{Event, Lane};
use crate::log::Recorder;
use crate::metrics::{MetricsView, WindowAccum};
use ickpt_sim::SimTime;

/// Which per-window histogram a quantile rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowHist {
    /// Rank checkpoint-stall span durations.
    Stall,
    /// Tenant request-blocked span durations.
    TenantStall,
}

impl WindowHist {
    fn get<'a>(&self, w: &'a WindowAccum) -> &'a crate::metrics::LogHistogram {
        match self {
            WindowHist::Stall => &w.stall,
            WindowHist::TenantStall => &w.tenant_stall,
        }
    }
}

/// Which scalar field of a [`WindowAccum`] a threshold/ratio rule
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowField {
    /// Encoded capture payload bytes (effective IB).
    EffectiveIbBytes,
    /// Dirty-bit-accounted bytes (payload + content-layer savings).
    DirtyIbBytes,
    /// Bytes drained to the durable array.
    DrainBytes,
    /// Deepest drain queue observed.
    DrainDepthMax,
    /// Admission rejections.
    Rejects,
    /// Rank stall virtual ns.
    StallNs,
    /// Device busy virtual ns (summed over devices).
    DeviceBusyNs,
}

impl WindowField {
    /// Read the field out of one window.
    pub(crate) fn get(&self, w: &WindowAccum) -> u64 {
        match self {
            WindowField::EffectiveIbBytes => w.effective_ib_bytes,
            WindowField::DirtyIbBytes => w.dirty_ib_bytes,
            WindowField::DrainBytes => w.drain_bytes,
            WindowField::DrainDepthMax => w.drain_depth_max,
            WindowField::Rejects => w.rejects,
            WindowField::StallNs => w.stall_ns,
            WindowField::DeviceBusyNs => w.device_busy_ns,
        }
    }
}

/// The predicate side of a rule. All comparisons are integer-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloCheck {
    /// Breach when the window's nearest-rank quantile of `hist` at
    /// `pct` percent reaches `limit_ns` (rule reads "pctile < limit").
    /// Windows with no samples pass vacuously.
    QuantileMaxNs {
        /// Histogram to read.
        hist: WindowHist,
        /// Percentile (1..=100).
        pct: u8,
        /// Exclusive upper limit, virtual ns.
        limit_ns: u64,
    },
    /// Breach when the window's `field` reaches `limit` (rule reads
    /// "field < limit").
    FieldMax {
        /// Field to read.
        field: WindowField,
        /// Exclusive upper limit.
        limit: u64,
    },
    /// Breach when `num / den > limit_milli / 1000` (integer
    /// cross-multiplied; a `limit_milli` of 1000 allows ratios up to
    /// and including 1.0). Windows with `den == 0` pass vacuously.
    RatioMaxMilli {
        /// Numerator field.
        num: WindowField,
        /// Denominator field.
        den: WindowField,
        /// Inclusive limit, in thousandths.
        limit_milli: u64,
    },
}

/// A named SLO rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloRule {
    /// Stable rule name (lands in [`Event::SloBreach`], so static).
    pub name: &'static str,
    /// What to check each window.
    pub check: SloCheck,
}

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

/// Evaluates a rule set against every populated window of a view.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    rules: Vec<SloRule>,
}

impl HealthMonitor {
    /// A monitor with a custom rule set.
    pub(crate) fn new(rules: Vec<SloRule>) -> Self {
        Self { rules }
    }

    /// The default envelope:
    ///
    /// * `p99_stall` — window p99 rank stall below 150 ms;
    /// * `p99_tenant_stall` — window p99 tenant stall below 750 ms;
    /// * `drain_depth` — drain queue never 16 generations deep;
    /// * `content_amplification` — effective IB ≤ dirty IB (the
    ///   content layer must never *add* bytes; equality is the
    ///   dedup-off baseline and passes).
    pub fn standard() -> Self {
        Self::new(vec![
            SloRule {
                name: "p99_stall",
                check: SloCheck::QuantileMaxNs {
                    hist: WindowHist::Stall,
                    pct: 99,
                    limit_ns: 150_000_000,
                },
            },
            SloRule {
                name: "p99_tenant_stall",
                check: SloCheck::QuantileMaxNs {
                    hist: WindowHist::TenantStall,
                    pct: 99,
                    limit_ns: 750_000_000,
                },
            },
            SloRule {
                name: "drain_depth",
                check: SloCheck::FieldMax { field: WindowField::DrainDepthMax, limit: 16 },
            },
            SloRule {
                name: "content_amplification",
                check: SloCheck::RatioMaxMilli {
                    num: WindowField::EffectiveIbBytes,
                    den: WindowField::DirtyIbBytes,
                    limit_milli: 1000,
                },
            },
        ])
    }

    /// The rule set, declaration order.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluate every populated window against every rule. Breaches
    /// come back windows-ascending, rules in declaration order within
    /// a window.
    pub fn evaluate(&self, view: &MetricsView) -> Vec<SloBreachRecord> {
        let mut out = Vec::new();
        for (idx, w) in view.windows() {
            for rule in &self.rules {
                if let Some((value, limit)) = breach_value(&rule.check, w) {
                    out.push(SloBreachRecord { rule: rule.name, window: idx, value, limit });
                }
            }
        }
        out
    }

    /// Evaluate and replay each breach as an [`Event::SloBreach`]
    /// instant on `rec`'s run lane, stamped at its window's end — so
    /// breaches land in the trace (and, via the recorder tee, in the
    /// metrics plane's `slo_breaches` counter). Returns the records.
    pub fn evaluate_into(&self, view: &MetricsView, rec: &Recorder) -> Vec<SloBreachRecord> {
        let breaches = self.evaluate(view);
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
}

/// `Some((measured, limit))` when `check` is violated on `w`.
fn breach_value(check: &SloCheck, w: &WindowAccum) -> Option<(u64, u64)> {
    match *check {
        SloCheck::QuantileMaxNs { hist, pct, limit_ns } => {
            let v = hist.get(w).quantile(pct)?;
            (v >= limit_ns).then_some((v, limit_ns))
        }
        SloCheck::FieldMax { field, limit } => {
            let v = field.get(w);
            (v >= limit).then_some((v, limit))
        }
        SloCheck::RatioMaxMilli { num, den, limit_milli } => {
            let n = num.get(w);
            let d = den.get(w);
            if d == 0 {
                return None;
            }
            // n/d > limit/1000  ⟺  n·1000 > limit·d, in u128.
            (n as u128 * 1000 > limit_milli as u128 * d as u128)
                .then(|| (((n as u128 * 1000) / d as u128) as u64, limit_milli))
        }
    }
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
        let monitor = HealthMonitor::new(vec![SloRule {
            name: "p99_stall",
            check: SloCheck::QuantileMaxNs {
                hist: WindowHist::Stall,
                pct: 99,
                limit_ns: 150_000_000,
            },
        }]);
        let breaches = monitor.evaluate(&view);
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
        assert!(HealthMonitor::standard().evaluate(&view).is_empty());
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
        let breaches = HealthMonitor::standard().evaluate_into(&view, &rec);
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
