//! Effective IB vs dirty IB: content dedup + delta encoding below the
//! dirty-page floor.
//!
//! The paper measures incremental checkpoint traffic at dirty-*page*
//! granularity: a page is shipped whole the moment its dirty bit fires.
//! Real codes rewrite many pages with unchanged values (silent stores)
//! or touch only a few cache lines of them, so the bytes that *must*
//! reach storage — the effective IB — sit below that floor. This
//! experiment runs the modelled applications on content-backed spaces
//! under the [`WriteProfile::Scientific`] content model, captures the
//! identical run twice (content layer off, then on), verifies the two
//! runs stay byte-identical end to end, and measures how far dedup +
//! delta encoding push checkpoint traffic below dirty-page accounting.
//!
//! The self-check row compares the byte saving the content layer
//! *accounted* (silent-same drops + delta compression from
//! [`ContentStats`]) against the saving *measured* as the difference of
//! encoded checkpoint bytes between the two runs — the two must agree
//! up to per-record framing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::analysis::table::fnum;
use crate::analysis::{ascii_multi_plot, Comparison, ExperimentReport, TextTable};
use ickpt::apps::{AppModel, Workload};
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FaultTolerantConfig, RunOutcome, RunReport, StoragePath,
};
use ickpt::core::checkpoint::ContentStats;
use ickpt::core::coordinator::CheckpointPolicy;
use ickpt::mem::WriteProfile;
use ickpt::net::NetConfig;
use ickpt::obs::{CaptureKind, Event, FlightRecorder, Recorder};
use ickpt::sim::{DevicePreset, SimDuration};
use ickpt::storage::MemStore;

use crate::banner_string;
use crate::engine::parallel_map;

const NRANKS: usize = 2;
const ITERATIONS: u64 = 24;
const SCALE: f64 = 0.05;
const APPS: [Workload; 3] = [Workload::Sage50, Workload::Sweep3d, Workload::NasSp];

/// One run of `workload` with the content layer forced on or off;
/// returns the run report plus encoded checkpoint bytes per generation
/// (summed over ranks, incrementals only).
fn run(workload: Workload, dedup: bool) -> (RunReport, BTreeMap<u64, u64>) {
    let fr = FlightRecorder::with_default_capacity();
    // Interval ~1.5 iteration periods, so a checkpoint fires every
    // couple of boundaries regardless of the app's clock (SP iterates
    // in 0.16 s, Sage-50MB in 20 s).
    let interval = SimDuration::from_secs_f64((1.5 * workload.calib().period_s).max(0.1));
    let cfg = FaultTolerantConfig {
        nranks: NRANKS,
        max_iterations: ITERATIONS,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(interval, 4),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::PerRank,
        failures: vec![],
        net: NetConfig::qsnet(),
        max_attempts: 1,
        redundancy: None,
        obs: Recorder::new(fr.clone()),
        dedup: Some(dedup),
        write_profile: WriteProfile::Scientific,
    };
    let build = move |rank: usize| -> Box<dyn AppModel> {
        Box::new(workload.build(rank, NRANKS, SCALE, 11))
    };
    let report = run_fault_tolerant(&cfg, workload.layout(SCALE), build).expect("run completes");
    assert_eq!(report.outcome, RunOutcome::Completed);

    let mut per_gen: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, events, _) in &fr.snapshot().tracks {
        for ev in events {
            if let Event::Capture {
                kind: CaptureKind::Incremental,
                generation,
                payload_bytes,
                ..
            } = ev.event
            {
                *per_gen.entry(generation).or_insert(0) += payload_bytes;
            }
        }
    }
    (report, per_gen)
}

/// Run the effective-IB study.
pub(crate) fn report() -> ExperimentReport {
    let mut body = banner_string("Effective IB vs dirty IB: content dedup + delta encoding");
    writeln!(
        body,
        "{NRANKS} ranks, {ITERATIONS} iterations, scale {SCALE}, Scientific write profile \
         (3/8 full rewrites, 3/8 sub-page updates, 2/8 silent stores); \
         incremental checkpoints every ~1.5 iteration periods, re-base every 4"
    )
    .unwrap();

    let mut t = TextTable::new("").header(&[
        "application",
        "dirty IB (MB)",
        "effective IB (MB)",
        "reduction",
        "silent pages",
        "delta pages",
        "delta blocks/page",
    ]);
    let mut rows = Vec::new();
    let outcomes = parallel_map(&APPS, |&w| (w, run(w, false), run(w, true)));
    let mut plots = String::new();
    for (w, (off, gen_off), (on, gen_on)) in outcomes {
        // End-to-end safety: forcing the content layer on must not
        // change a single byte of the application's memory image.
        for (a, b) in off.ranks.iter().zip(&on.ranks) {
            assert_eq!(a.content_digest, b.content_digest, "{}: dedup changed content", w.name());
            assert_eq!(a.iterations, b.iterations);
        }

        let dirty: u64 = off.ranks.iter().map(|r| r.checkpoint_bytes).sum();
        let effective: u64 = on.ranks.iter().map(|r| r.checkpoint_bytes).sum();
        let mut stats = ContentStats::default();
        for r in &on.ranks {
            stats.merge(r.content);
        }
        let mb = |b: u64| b as f64 / (1 << 20) as f64;
        let reduction = 100.0 * (1.0 - effective as f64 / dirty.max(1) as f64);
        t.row(vec![
            w.name().to_string(),
            fnum(mb(dirty), 2),
            fnum(mb(effective), 2),
            fnum(reduction, 1) + "%",
            stats.dropped_pages.to_string(),
            stats.delta_pages.to_string(),
            fnum(stats.delta_blocks as f64 / stats.delta_pages.max(1) as f64, 1),
        ]);

        // Per-generation figure: the incremental chunks' encoded bytes
        // with dirty-page accounting vs with the content layer on.
        let series = |m: &BTreeMap<u64, u64>| -> Vec<(f64, f64)> {
            m.iter().map(|(&g, &b)| (g as f64, b as f64 / 1024.0)).collect()
        };
        let (s_off, s_on) = (series(&gen_off), series(&gen_on));
        writeln!(
            plots,
            "{}",
            ascii_multi_plot(
                &format!("incremental chunk bytes per generation: {} (KB)", w.name()),
                &[("dirty", &s_off), ("effective", &s_on)],
                60,
                10
            )
        )
        .unwrap();

        // Self-check: the saving the content layer accounted must match
        // the saving measured between the two runs (up to per-record
        // framing).
        let accounted = stats.dropped_bytes() + stats.delta_saved_bytes();
        let measured = dirty.saturating_sub(effective);
        rows.push(Comparison::new(
            format!("Effective-IB / {} bytes saved (accounted vs measured)", w.name()),
            mb(accounted),
            mb(measured),
            "MB",
        ));
        rows.push(Comparison::new(
            format!("Effective-IB / {} effective below dirty floor", w.name()),
            100.0,
            if effective < dirty { 100.0 } else { 0.0 },
            "%",
        ));
    }
    writeln!(body, "{}", t.render()).unwrap();
    writeln!(body, "{plots}").unwrap();
    writeln!(
        body,
        "dirty IB ships every dirty-flagged page whole; effective IB is what remains after \
         silent-same pages are dropped and partially-written pages are delta-encoded \
         (sub-page blocks of 256 B)."
    )
    .unwrap();
    ExperimentReport::new(body, rows)
}
