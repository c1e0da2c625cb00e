//! Application characterization, the paper's §6.2 walk-through:
//! run a workload, plot its IWS series, detect processing bursts and
//! the main-iteration period at run time, and suggest checkpoint
//! placements.
//!
//! ```text
//! cargo run --release --example characterize [workload]
//! ```
//!
//! where `workload` is one of: sage1000 sage500 sage100 sage50 sweep3d
//! sp lu bt ft (default sage100).

// Terminal-facing target: printing is its job.
#![allow(clippy::disallowed_macros)]

use ickpt::apps::Workload;
use ickpt::cluster::{characterize, CharacterizationConfig};
use ickpt::core::metrics::iws_series;
use ickpt::core::policy::{detect_bursts, detect_period, suggest_checkpoint_windows};
use ickpt::sim::SimDuration;
use ickpt_bench::analysis::ascii_plot;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "sage100".into());
    let workload = Workload::from_name(&arg).unwrap_or_else(|| {
        eprintln!("unknown workload '{arg}'");
        std::process::exit(2);
    });
    let calib = workload.calib();

    // Sample fine enough to resolve the iteration, long enough for
    // several periods.
    let ts = (calib.period_s / 10.0).clamp(0.02, 1.0);
    let cfg = CharacterizationConfig {
        nranks: 8,
        run_for: SimDuration::from_secs_f64((8.0 * calib.period_s).max(250.0 * ts)),
        timeslice: SimDuration::from_secs_f64(ts),
        ..Default::default()
    };
    println!(
        "characterizing {} on {} ranks, timeslice {:.2}s, {:.0} virtual seconds",
        workload.name(),
        cfg.nranks,
        ts,
        cfg.run_for.as_secs_f64()
    );
    let report = characterize(workload, &cfg);
    let r0 = &report.ranks[0];

    println!("{}", ascii_plot("IWS size per timeslice (MB)", &iws_series(&r0.samples), 100, 14));

    // What the paper's instrumentation would conclude at run time:
    let skip = (3.0 * calib.period_s / ts).min(r0.samples.len() as f64 / 3.0) as usize;
    let series: Vec<u64> = r0.samples.iter().map(|s| s.iws_pages).collect();
    match detect_period(&series, cfg.timeslice, skip) {
        Some(p) => println!(
            "main iteration period: {:.2} s detected ({} s in the paper's Table 3)",
            p.as_secs_f64(),
            calib.period_s
        ),
        None => {
            println!("no period detectable at this timeslice (iteration shorter than the window)")
        }
    }
    let bursts = detect_bursts(&r0.samples, 0.5, skip);
    println!("processing bursts detected: {}", bursts.bursts.len());
    let suggestions = suggest_checkpoint_windows(&bursts);
    let times: Vec<String> =
        suggestions.iter().take(5).map(|&w| format!("{:.1}s", (w as f64 + 1.0) * ts)).collect();
    println!(
        "coordinated-checkpoint placements (right after each burst): {} ...",
        times.join(", ")
    );
    println!(
        "footprint: {:.1} MB, faults: {}, received: {:.1} MB",
        r0.footprint_pages as f64 * 4096.0 / 1e6,
        r0.total_faults,
        r0.bytes_received as f64 / 1e6
    );
}
