//! Property tests: the trace engine's re-binned reports equal the
//! direct per-timeslice simulation.
//!
//! For randomized workloads, cluster sizes and every paper timeslice
//! {1,2,5,10,15,20} s, one fine-grained (1 s) trace recording is
//! re-binned and compared bit-exact against a fresh direct simulation
//! at the coarse timeslice:
//!
//! * per-sample `(window, end_time, iws_pages, footprint_pages,
//!   bytes_received)` — including the trailing partial-window flush;
//! * [`IbStats`] with the standard initialization-burst exclusion
//!   (`skip_until`), down to the bit pattern of every float;
//! * per-rank scalars (`final_time`, `iterations`, `footprint_pages`,
//!   `bytes_received`) and the truncated iteration ground truth.
//!
//! `faults` fields are deliberately NOT compared: a direct run can
//! fault more than once per page per window after unmap–remap–retouch,
//! while derived samples define `faults = iws_pages`; no experiment
//! consumes them.

use crate::engine::WorkloadTrace;
use crate::skip_until;
use ickpt::apps::Workload;
use ickpt::cluster::{characterize, CharacterizationConfig, RunReport};
use ickpt::core::metrics::IbStats;
use ickpt::sim::{SimDuration, SplitMix64};

const PAPER_TIMESLICES: [u64; 6] = [1, 2, 5, 10, 15, 20];

fn fine_config(
    nranks: usize,
    scale: f64,
    run_for: SimDuration,
    seed: u64,
) -> CharacterizationConfig {
    CharacterizationConfig {
        nranks,
        scale,
        run_for,
        timeslice: SimDuration::from_secs(1),
        seed,
        track_iterations: true,
        trace_ranks: nranks, // trace every rank: tests the full engine
        ..Default::default()
    }
}

/// Compare a derived report against a direct simulation, bit-exact on
/// everything an experiment consumes.
fn assert_reports_match(
    w: Workload,
    derived: &RunReport,
    direct: &RunReport,
    timeslice_s: u64,
    ctx: &str,
) {
    assert_eq!(derived.ranks.len(), direct.ranks.len(), "{ctx}: rank count");
    for (dr, tr) in derived.ranks.iter().zip(&direct.ranks) {
        let r = dr.rank;
        assert_eq!(dr.final_time, tr.final_time, "{ctx}: rank {r} final_time");
        assert_eq!(dr.iterations, tr.iterations, "{ctx}: rank {r} iterations");
        assert_eq!(dr.footprint_pages, tr.footprint_pages, "{ctx}: rank {r} footprint");
        assert_eq!(dr.bytes_received, tr.bytes_received, "{ctx}: rank {r} bytes_received");
        assert_eq!(
            dr.iteration_samples, tr.iteration_samples,
            "{ctx}: rank {r} iteration ground truth"
        );
    }
    // Sample series: the engine derives rank 0 (what experiments read).
    let ds = &derived.ranks[0].samples;
    let ts = &direct.ranks[0].samples;
    assert_eq!(ds.len(), ts.len(), "{ctx}: rank 0 sample count");
    for (a, b) in ds.iter().zip(ts) {
        assert_eq!(
            (a.window, a.end_time, a.iws_pages, a.footprint_pages, a.bytes_received),
            (b.window, b.end_time, b.iws_pages, b.footprint_pages, b.bytes_received),
            "{ctx}: rank 0 window {}",
            b.window
        );
    }
    // And the statistic every table/figure is computed from, bit-exact.
    let timeslice = SimDuration::from_secs(timeslice_s);
    let da = IbStats::from_samples(ds, timeslice, skip_until(w));
    let db = IbStats::from_samples(ts, timeslice, skip_until(w));
    assert_eq!(da.avg_mbps.to_bits(), db.avg_mbps.to_bits(), "{ctx}: avg IB");
    assert_eq!(da.max_mbps.to_bits(), db.max_mbps.to_bits(), "{ctx}: max IB");
    assert_eq!(da.avg_ratio_percent.to_bits(), db.avg_ratio_percent.to_bits(), "{ctx}: IWS ratio");
}

/// One scenario: record once at 1 s, then check every paper timeslice
/// against a direct run.
fn check_scenario(w: Workload, nranks: usize, scale: f64, run_secs: u64, seed: u64) {
    let horizon = SimDuration::from_secs(run_secs.max(PAPER_TIMESLICES.into_iter().max().unwrap()));
    let fine = characterize(w, &fine_config(nranks, scale, horizon, seed));
    // Re-bin every rank's trace directly against the direct run's
    // samples (the engine itself only derives rank 0).
    let traces: Vec<_> = fine.ranks.iter().map(|r| r.trace.clone().expect("traced")).collect();
    let wt = WorkloadTrace::from_report(fine);

    for ts in PAPER_TIMESLICES {
        let run_for = SimDuration::from_secs(run_secs);
        let ctx = format!("{w:?} nranks={nranks} scale={scale} ts={ts}s seed={seed:#x}");
        let derived = wt.report_at(SimDuration::from_secs(ts), run_for, true);
        let direct = characterize(
            w,
            &CharacterizationConfig {
                nranks,
                scale,
                run_for,
                timeslice: SimDuration::from_secs(ts),
                seed,
                track_iterations: true,
                ..Default::default()
            },
        );
        assert_reports_match(w, &derived, &direct, ts, &ctx);
        for (r, trace) in traces.iter().enumerate() {
            let stop = direct.ranks[r].final_time;
            let rebinned = trace.rebin_with_flush(SimDuration::from_secs(ts), stop);
            let direct_samples = &direct.ranks[r].samples;
            assert_eq!(rebinned.len(), direct_samples.len(), "{ctx}: rank {r} rebin count");
            for (a, b) in rebinned.iter().zip(direct_samples) {
                assert_eq!(
                    (a.window, a.end_time, a.iws_pages, a.footprint_pages, a.bytes_received),
                    (b.window, b.end_time, b.iws_pages, b.footprint_pages, b.bytes_received),
                    "{ctx}: rank {r} window {}",
                    b.window
                );
            }
        }
    }
}

#[test]
fn rebin_matches_direct_on_sage_with_unmap_churn() {
    // Sage's workspace free/realloc cycle exercises §4.2 memory
    // exclusion: raw unmap ranges must erase accumulated dirty state
    // mid-window exactly.
    check_scenario(Workload::Sage50, 2, 0.04, 47, 0x5eed_0001);
    check_scenario(Workload::Sage100, 1, 0.02, 61, 0x5eed_0002);
}

#[test]
fn rebin_matches_direct_on_dense_short_period_codes() {
    // NAS codes rewrite most of the footprint every sub-second
    // iteration — maximal overlap between consecutive fine slices.
    check_scenario(Workload::NasLu, 2, 0.05, 33, 0x5eed_0003);
    check_scenario(Workload::NasFt, 2, 0.03, 29, 0x5eed_0004);
}

#[test]
fn rebin_matches_direct_on_sweep3d_pipeline() {
    check_scenario(Workload::Sweep3d, 3, 0.03, 41, 0x5eed_0005);
}

#[test]
fn rebin_matches_direct_across_randomized_scenarios() {
    // Randomized sweep: workload, rank count, scale, run length and
    // seed all drawn from a seeded generator.
    let mut rng = SplitMix64::new(0x1DC4_2004);
    let pool =
        [Workload::Sage50, Workload::NasSp, Workload::NasBt, Workload::Sweep3d, Workload::NasLu];
    for _ in 0..4 {
        let w = pool[rng.next_below(pool.len() as u64) as usize];
        let nranks = 1 + rng.next_below(3) as usize;
        let scale = 0.02 + 0.01 * rng.next_below(3) as f64;
        let run_secs = 25 + rng.next_below(40);
        check_scenario(w, nranks, scale, run_secs, rng.next_u64());
    }
}

#[test]
fn rebin_is_exact_at_the_skip_until_boundary() {
    // A run length near skip_until(w) puts the exclusion boundary in
    // the middle of the sampled windows: IbStats must skip identical
    // sample sets on both paths (exercised inside check_scenario via
    // the bit-exact IbStats comparison).
    let w = Workload::NasBt;
    let skip = skip_until(w).as_secs_f64().ceil() as u64;
    check_scenario(w, 2, 0.04, skip + 13, 0x5eed_0006);
    check_scenario(w, 2, 0.04, skip + 1, 0x5eed_0007);
}
