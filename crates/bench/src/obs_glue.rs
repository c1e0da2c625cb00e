//! Flight-recorder glue for the experiment harness.
//!
//! Experiments are pure functions returning rendered reports; trace
//! capture is opt-in (`repro --trace-out`, `redundancy_smoke
//! --trace-out`) via a process-wide flag checked by [`TraceBuilder`].
//! Each experiment owns one [`FlightRecorder`]; every run inside it
//! gets its own *group* (a Perfetto process), assigned in declaration
//! order so group numbering — and therefore the exported bytes — is
//! independent of which worker thread executes the run.
//!
//! Capture is live: every run threads a recorder from
//! [`TraceBuilder::recorder`] into its config —
//! [`CharacterizationConfig::obs`](ickpt::cluster::CharacterizationConfig::obs)
//! or [`FaultTolerantConfig::obs`](ickpt::cluster::FaultTolerantConfig::obs)
//! — so tracker windows, iteration boundaries and the
//! capture/stall/commit/drain/recovery events come from the
//! instrumented hot paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::analysis::TraceArtifacts;
use ickpt::sim::SimTime;
use ickpt_obs::{
    chrome_trace, health, jsonl, Event, FlightRecorder, Lane, MetricsConfig, MetricsPlane,
    ObsSummary, Recorder,
};

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn trace capture on for every experiment in this process. Call
/// once, before the scheduler starts (the flag is read at
/// [`TraceBuilder::begin`] time).
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Release);
}

/// Whether `--trace-out` capture is active.
pub(crate) fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Acquire)
}

/// Per-experiment trace capture: one flight recorder, one group per
/// run. All methods are no-ops when tracing is disabled, so call sites
/// stay unconditional.
///
/// When `ICKPT_METRICS` enables the metrics plane, the builder also
/// owns one [`MetricsPlane`] per experiment and tees every recorder it
/// hands out into it; [`TraceBuilder::finish`] then evaluates the
/// standard SLO envelope over each run's windows (emitting
/// `slo_breach` events back into the trace), replays the plane's
/// self-profile as `metrics_*` counters, and attaches the rendered
/// text snapshot to the artifacts. A metrics-only builder (knob on,
/// `--trace-out` absent) aggregates without retaining events.
pub struct TraceBuilder {
    fr: Option<Arc<FlightRecorder>>,
    plane: Option<Arc<MetricsPlane>>,
    next_group: u32,
}

impl TraceBuilder {
    /// Start a builder; records only if [`set_trace_enabled`] was set
    /// or `ICKPT_METRICS` enabled the metrics plane.
    pub fn begin() -> Self {
        let fr = trace_enabled().then(FlightRecorder::with_default_capacity);
        let plane = MetricsPlane::from_config(&MetricsConfig::from_env());
        Self { fr, plane, next_group: 0 }
    }

    /// Like [`TraceBuilder::begin`], but ring capacity is scaled down
    /// for a run with `nranks` rank tracks
    /// ([`FlightRecorder::for_ranks`]), keeping the recorder and its
    /// exports bounded for the 16k-rank extended experiments.
    pub(crate) fn begin_scaled(nranks: usize) -> Self {
        let fr = trace_enabled().then(|| FlightRecorder::for_ranks(nranks));
        let plane = MetricsPlane::from_config(&MetricsConfig::from_env());
        Self { fr, plane, next_group: 0 }
    }

    /// True when this builder actually records (trace, metrics, or
    /// both).
    pub(crate) fn enabled(&self) -> bool {
        self.fr.is_some() || self.plane.is_some()
    }

    /// A recorder for the next run, its group named `name`. Groups are
    /// handed out in call order, so allocate recorders *before* any
    /// parallel section to keep numbering deterministic. Disabled
    /// builders return a no-op recorder.
    pub fn recorder(&mut self, name: &str) -> Recorder {
        let group = self.next_group;
        self.next_group += 1;
        let mut rec = match &self.fr {
            Some(fr) => {
                fr.name_group(group, name);
                Recorder::new(fr.clone()).with_group(group)
            }
            None => Recorder::disabled().with_group(group),
        };
        if let Some(plane) = &self.plane {
            plane.name_group(group, name);
            rec = rec.with_metrics(plane.clone());
        }
        rec
    }

    /// Snapshot, export and summarize everything recorded. With a
    /// metrics plane attached this first checks the standard SLO
    /// envelope ([`health::evaluate_into`]) over every group (breach events land on each
    /// run lane, in the trace and the `slo_breaches` counter) and
    /// replays the plane's deterministic self-profile as a
    /// `metrics_*` counter track, *then* snapshots — so the exports
    /// include the health verdicts.
    pub fn finish(self) -> Option<TraceArtifacts> {
        if !self.enabled() {
            return None;
        }
        let metrics = self.plane.map(|plane| {
            let recorder_for = |group: u32| {
                let rec = match &self.fr {
                    Some(fr) => Recorder::new(fr.clone()),
                    None => Recorder::disabled(),
                };
                rec.with_group(group).with_metrics(plane.clone())
            };
            let groups = plane.groups();
            for &group in &groups {
                let Some(view) = plane.view(group) else { continue };
                health::evaluate_into(&view, &recorder_for(group));
            }
            // Self-profile: account the plane's own work (health
            // evaluation included) as a monotone counter track on the
            // first group's run lane, stamped at the overall horizon.
            if let Some(&first) = groups.first() {
                let meta = plane.meta();
                let at = SimTime(
                    groups
                        .iter()
                        .filter_map(|g| plane.view(*g))
                        .map(|v| v.horizon_ns())
                        .max()
                        .unwrap_or(0),
                );
                let rec = recorder_for(first);
                for (name, value) in [
                    ("metrics_events_ingested", meta.events_ingested),
                    ("metrics_updates", meta.metric_updates),
                    ("metrics_hist_records", meta.hist_records),
                ] {
                    rec.emit(Lane::Run, at, Event::Counter { name, value });
                }
            }
            plane.render_text()
        });
        let (chrome_json, jsonl, summary) = match self.fr {
            Some(fr) => {
                let snap = fr.snapshot();
                (chrome_trace(&snap), jsonl(&snap), ObsSummary::from_snapshot(&snap).render())
            }
            None => (String::new(), String::new(), String::new()),
        };
        Some(TraceArtifacts { chrome_json, jsonl, summary, metrics })
    }
}

/// Slug an experiment display name into a filename stem:
/// `"Table 2 (memory footprints)"` → `"table-2-memory-footprints"`.
pub(crate) fn trace_slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// Write one experiment's artifacts into `dir` as `<slug>.trace.json`
/// and `<slug>.jsonl`. Returns the two paths.
pub fn write_trace_files(
    dir: &std::path::Path,
    name: &str,
    t: &TraceArtifacts,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let slug = trace_slug(name);
    let chrome = dir.join(format!("{slug}.trace.json"));
    let lines = dir.join(format!("{slug}.jsonl"));
    std::fs::write(&chrome, &t.chrome_json)?;
    std::fs::write(&lines, &t.jsonl)?;
    Ok((chrome, lines))
}

/// Write one experiment's metrics snapshot into `dir` as
/// `<slug>.metrics.txt`, when the artifacts carry one. Returns the
/// path written, or `None` when the metrics plane was off.
pub fn write_metrics_file(
    dir: &std::path::Path,
    name: &str,
    t: &TraceArtifacts,
) -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(metrics) = &t.metrics else { return Ok(None) };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.metrics.txt", trace_slug(name)));
    std::fs::write(&path, metrics)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugging_is_stable() {
        assert_eq!(trace_slug("Table 2 (memory footprints)"), "table-2-memory-footprints");
        assert_eq!(trace_slug("Ablations (checkpoint system)"), "ablations-checkpoint-system");
        assert_eq!(trace_slug("  §6.5 -- intrusiveness  "), "6-5-intrusiveness");
    }
}
