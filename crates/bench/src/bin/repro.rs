//! `repro` — run every experiment and emit an EXPERIMENTS.md-ready
//! report.
//!
//! ```text
//! cargo run --release -p ickpt-bench --bin repro \
//!     [-- --out <path>] [-- --only <substring>] [-- --trace-out <dir>]
//! ```
//!
//! * `--out <path>` — also write the markdown report to `path`.
//! * `--only <substring>` — run only the experiments whose display
//!   name contains `substring` (case-insensitive); e.g. `--only fig`
//!   runs the five figures, `--only "Table 3"` just that table.
//! * `--list` — print every experiment name, one per line, and exit
//!   without running anything (useful for scripting `--only`).
//! * `--trace-out <dir>` — capture a virtual-time flight-recorder
//!   trace per experiment and write `<dir>/<slug>.trace.json` (Chrome
//!   trace-event JSON, loadable in Perfetto / `chrome://tracing`) plus
//!   `<dir>/<slug>.jsonl` (one event per line). Traces are
//!   deterministic: same seed and knobs ⇒ byte-identical files at any
//!   `ICKPT_BENCH_THREADS`.
//!
//! With `ICKPT_METRICS=on` (or `window=<secs>`) each experiment also
//! carries a metrics-plane text snapshot: it is printed after the
//! experiment body and, under `--trace-out`, written to
//! `<dir>/<slug>.metrics.txt`. Snapshots are byte-identical at any
//! worker count, so they diff cleanly in CI.
//!
//! Respects the `ICKPT_BENCH_*` environment knobs documented in
//! `ickpt-bench`. Experiments run concurrently on
//! `ICKPT_BENCH_THREADS` workers, but stdout and the markdown report
//! are assembled strictly in experiment order from pre-rendered
//! bodies, so the output is byte-identical at any thread count (timing
//! lines go to stderr).

#![deny(unreachable_pub)]
// Terminal-facing target: printing is its job.
#![allow(clippy::disallowed_macros)]

use std::fmt::Write as _;

use ickpt_bench::analysis::compare::{comparison_markdown, comparison_table};
use ickpt_bench::engine::parallel_map;
use ickpt_bench::experiments::{self, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();
    let trace_out =
        args.iter().position(|a| a == "--trace-out").and_then(|i| args.get(i + 1)).cloned();
    if trace_out.is_some() {
        ickpt_bench::set_trace_enabled(true);
    }
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());

    let experiments: Vec<Experiment> = experiments::ALL.to_vec();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &experiments {
            println!("{name}");
        }
        return;
    }
    let selected: Vec<Experiment> = experiments
        .into_iter()
        .filter(|(name, _)| only.as_ref().is_none_or(|o| name.to_lowercase().contains(o)))
        .collect();
    if selected.is_empty() {
        eprintln!("error: --only {:?} matches no experiment", only.unwrap_or_default());
        std::process::exit(2);
    }

    let mut md = String::new();
    writeln!(md, "## Reproduction results\n").unwrap();
    writeln!(
        md,
        "Configuration: {} ranks, scale {}, seed {:#x}.\n",
        ickpt_bench::bench_ranks(),
        ickpt_bench::bench_scale(),
        ickpt_bench::BENCH_SEED
    )
    .unwrap();

    let t0 = std::time::Instant::now();
    let reports = parallel_map(&selected, |(name, f)| {
        let t = std::time::Instant::now();
        let report = f();
        eprintln!("    [{name} completed in {:?}]", t.elapsed());
        report
    });
    eprintln!("    [all experiments completed in {:?}]", t0.elapsed());

    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
    let mut all_rows = Vec::new();
    for ((name, _), report) in selected.iter().zip(reports) {
        print!("{}", report.body);
        println!(
            "{}",
            comparison_table(&format!("{name}: paper vs measured"), &report.comparisons)
        );
        writeln!(md, "### {name}\n").unwrap();
        writeln!(md, "{}", comparison_markdown(&report.comparisons)).unwrap();
        if let Some(trace) = &report.trace {
            if let Some(dir) = &trace_out {
                if !trace.chrome_json.is_empty() {
                    let (chrome, jsonl) =
                        ickpt_bench::obs_glue::write_trace_files(dir.as_ref(), name, trace)
                            .expect("write trace files");
                    println!("trace: {} + {}", chrome.display(), jsonl.display());
                    writeln!(md, "Trace: `{}`, `{}`\n", chrome.display(), jsonl.display()).unwrap();
                    writeln!(md, "```text\n{}```\n", trace.summary).unwrap();
                }
                if let Some(path) =
                    ickpt_bench::obs_glue::write_metrics_file(dir.as_ref(), name, trace)
                        .expect("write metrics file")
                {
                    println!("metrics: {}", path.display());
                }
            }
            print!("{}", trace.summary);
            if let Some(metrics) = &trace.metrics {
                print!("{metrics}");
            }
        }
        all_rows.extend(report.comparisons);
    }

    // Summary: how many cells land within 25 % of the paper.
    let within: usize = all_rows.iter().filter(|c| c.within(0.25)).count();
    println!(
        "\nsummary: {}/{} paper-vs-measured cells within 25% relative error",
        within,
        all_rows.len()
    );
    writeln!(
        md,
        "\n**Summary:** {}/{} cells within 25% relative error of the paper.\n",
        within,
        all_rows.len()
    )
    .unwrap();

    if let Some(path) = out_path {
        std::fs::write(&path, md).expect("write report");
        println!("report written to {path}");
    }
}
