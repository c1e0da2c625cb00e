//! One workload in one process: set up, timed passes, checks, layer
//! replays (traced run), then the self-describing report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::hostenv::{self, HostEnv};
use crate::registry::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::{self, Tracer};
use crate::stats::{self, Summary};
use crate::workloads::{self, Checks, Layers, Params, Workload};
use crate::{json_escape, out_dir, Opts};

/// Set-up is repeated (and its median reported) while the repetitions
/// fit this many seconds; a set-up longer than that runs once.
const SETUP_BUDGET_S: f64 = 6.0;
const SETUP_MAX_REPS: usize = 3;
/// Fewest timed passes a run reports on, however long one takes.
const MIN_PASSES: usize = 2;

#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    passes: Vec<(f64, f64)>,
    extras: BTreeMap<&'static str, Vec<f64>>,
    /// Pass times of the traced half of a traced run.
    traced_pass_s: Vec<f64>,
    checks: Checks,
    layers: Layers,
    digest: u64,
    describe: Vec<(&'static str, String)>,
}

fn set_up(name: &str, params: &Params, setup_s: &mut Vec<f64>) -> Option<Box<dyn Workload>> {
    let reps = if params.quick { 1 } else { SETUP_MAX_REPS };
    let retains = WORKLOADS.iter().any(|w| w.name == name && w.retain_freed_memory);
    if retains && !params.quick {
        // A process that keeps freed memory pays the host for its whole
        // footprint exactly once, at 2 to 35 us a page depending on what
        // the hypervisor took back since the last run. That is the
        // machine's provisioning, not set-up work, and it swings
        // `setup_s` by 4x: let untimed set-ups take it. Two, because the
        // second still grows the heap where the first one's frees left
        // holes too small for it (ckpt_content: 3.5 s, then 1.6 s).
        for _ in 0..2 {
            drop(workloads::build(name, params)?);
        }
    }
    loop {
        let started = Instant::now();
        let workload = workloads::build(name, params)?;
        let secs = started.elapsed().as_secs_f64();
        setup_s.push(secs);
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= reps || spent + secs > SETUP_BUDGET_S {
            return Some(workload);
        }
        // Free the inputs before generating them again: two 256 MiB
        // images side by side would count towards the peak RSS.
        drop(workload);
    }
}

/// Passes until both the time and the pass-count floor are met.
fn timed_passes(w: &mut dyn Workload, tr: &mut Tracer, run: &mut Run, seconds: f64, floor: usize) {
    let started = Instant::now();
    let mut done = 0;
    while done < floor || started.elapsed().as_secs_f64() < seconds {
        tr.start_pass();
        let out = w.pass(tr, &mut run.checks);
        if tr.recording() {
            run.traced_pass_s.push(out.secs);
        }
        run.passes.push((out.secs, out.work));
        for (name, value) in out.extra {
            run.extras.entry(name).or_default().push(value);
        }
        done += 1;
    }
}

pub fn run_child(opts: &Opts) -> i32 {
    let Some(name) = opts.workload.as_deref() else {
        eprintln!("perf child: --workload is required");
        return 2;
    };
    let params = Params { seed: opts.seed, threads: opts.threads, quick: opts.quick };
    let host = HostEnv::probe();
    let mut run = Run::default();
    let Some(mut workload) = set_up(name, &params, &mut run.setup_s) else {
        eprintln!("perf: unknown workload `{name}`");
        return 2;
    };
    run.describe = workload.describe();

    let mut tr = Tracer::new(false);
    let (seconds, floor) = if opts.quick { (0.0, 1) } else { (opts.seconds, MIN_PASSES) };
    if opts.trace {
        // Same build, same inputs, same process: first half with spans
        // off, second half with spans on. Their difference is what
        // tracing costs.
        timed_passes(workload.as_mut(), &mut tr, &mut run, seconds / 2.0, floor);
        tr.set_recording(true);
        timed_passes(workload.as_mut(), &mut tr, &mut run, seconds / 2.0, floor);
        tr.set_recording(false);
        workload.layers(&mut tr, &mut run.layers);
    } else {
        timed_passes(workload.as_mut(), &mut tr, &mut run, seconds, floor);
    }
    run.digest = workload.digest();
    drop(workload);
    report(name, opts, &host, &tr, run)
}

fn report(name: &str, opts: &Opts, host: &HostEnv, tr: &Tracer, mut run: Run) -> i32 {
    let pass_s: Vec<f64> = run.passes.iter().map(|p| p.0).collect();
    let rate: Vec<f64> = run.passes.iter().map(|p| p.1 / p.0).collect();
    // The reported pass is the run's best one. Everything that
    // disturbs a pass on a shared sandbox host (neighbours, cold pages,
    // an unlucky thread schedule) only adds time, so the fastest pass
    // is the least contaminated; over ten seeds it repeats about twice
    // as closely as the median does (ft_cluster: 7-10 % against
    // 12-25 %). Median and quartiles are printed beside it.
    let (pass, rate) = (Summary::of(&pass_s), Summary::of(&rate));
    let (rss, setup) = (Summary::of(&[hostenv::peak_rss_mib()]), Summary::of(&run.setup_s));
    // (summary, reported value) in the registry's order: pass_s,
    // work_per_s, peak_rss_mb, setup_s.
    let values = [(pass, pass.min), (rate, rate.max), (rss, rss.median), (setup, setup.median)];
    assert_eq!(values.len(), END_TO_END.len(), "one value per registered end-to-end metric");
    let e2e: Vec<(&MetricDef, Summary, f64)> =
        END_TO_END.iter().zip(values).map(|(def, (s, reported))| (def, s, reported)).collect();

    let mut fold = None;
    if opts.trace {
        for (metric, samples) in &run.extras {
            run.layers.insert(metric, stats::median(samples));
        }
        let untraced = &pass_s[..pass_s.len() - run.traced_pass_s.len()];
        let overhead = stats::median(&run.traced_pass_s) / stats::median(untraced) - 1.0;
        run.layers.insert("trace.overhead_frac", overhead);
        let f = spans::fold(tr.spans());
        run.layers.insert("trace.attributed_frac", f.attributed_share());
        fold = Some(f);
    }

    let mut header = String::new();
    let _ = write!(
        header,
        "{{\"workload\":\"{name}\",\"seed\":{},\"threads\":{},\"trace\":{},\"quick\":{},{},\"passes\":{},\"setup_reps\":{},\"inputs\":{{",
        opts.seed,
        opts.threads,
        opts.trace,
        opts.quick,
        host.json_fields(),
        run.passes.len(),
        run.setup_s.len()
    );
    for (i, (k, v)) in run.describe.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(header, "{sep}\"{k}\":\"{}\"", json_escape(v));
    }
    header.push_str("}}");

    // ---- human-readable report -------------------------------------
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {name}  seed={:#x} threads={} nproc={} trace={}{}",
        opts.seed,
        opts.threads,
        host.nproc,
        opts.trace,
        if opts.quick { " QUICK (numbers meaningless)" } else { "" }
    );
    let _ = writeln!(
        text,
        "   host: caches [{}], kernels {}, {}, git {}",
        host.caches, host.kernels, host.rustc, host.git_rev
    );
    let inputs: Vec<String> = run.describe.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(text, "   inputs: {}", inputs.join(", "));
    let _ = writeln!(
        text,
        "   {:<18} {:>14} {:<6} {:>3} {:>14} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "metric", "reported", "unit", "n", "median", "min", "q1", "q3", "max", "iqr/med"
    );
    let mut row = |metric: &str, unit: &str, s: &Summary, reported: f64| {
        let _ = writeln!(
            text,
            "   {:<18} {:>14.6} {:<6} {:>3} {:>14.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>6.1}%",
            metric,
            reported,
            unit,
            s.n,
            s.median,
            s.min,
            s.q1,
            s.q3,
            s.max,
            s.spread() * 100.0
        );
    };
    for (def, s, reported) in &e2e {
        row(def.name, def.unit, s, *reported);
    }
    for (metric, samples) in &run.extras {
        let s = Summary::of(samples);
        let unit = PER_LAYER.iter().find(|m| m.name == *metric).map_or("", |m| m.unit);
        row(metric, unit, &s, s.median);
    }
    let failed_share = run.checks.failed as f64 / run.checks.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "   checks: {} attempted, {} failed, failed_share {failed_share}",
        run.checks.attempted, run.checks.failed
    );
    if let Some(first) = &run.checks.first_failure {
        let _ = writeln!(text, "   FIRST FAILING CHECK: {first}");
    }
    let _ = writeln!(text, "   sim_digest {:#018x}", run.digest);
    if let Some(f) = &fold {
        let _ = writeln!(text, "   per-layer spans (self time = span minus child spans):");
        text.push_str(&f.render());
        let _ = writeln!(text, "   per-layer metrics:");
        for def in PER_LAYER {
            if let Some(v) = run.layers.get(def.name) {
                let _ = writeln!(
                    text,
                    "   {:<34} {:>16.6} {:<6} -> {}",
                    def.name, v, def.unit, def.moves
                );
            }
        }
    }
    print!("{text}");

    // ---- the contract's result line --------------------------------
    // A traced run reports every per-layer metric (a layer this
    // workload does not exercise did no work: 0), an untraced run
    // every end-to-end one, none of which may be 0.
    let reported: Vec<(&str, &str, f64)> = if opts.trace {
        let layer = |name| run.layers.get(name).copied().unwrap_or(0.0);
        PER_LAYER.iter().map(|d| (d.name, d.unit, layer(d.name))).collect()
    } else {
        e2e.iter().map(|(d, _, v)| (d.name, d.unit, *v)).collect()
    };
    let complete = reported.iter().all(|(_, _, v)| v.is_finite() && (opts.trace || *v > 0.0));
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    let metrics = metrics.join(",");
    let correct = run.checks.failed == 0 && run.checks.attempted > 0 && complete;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        run.checks.attempted.max(1),
        run.checks.failed
    );

    // ---- result files ------------------------------------------------
    let dir = out_dir();
    let kind = if opts.trace { "layers" } else { "result" };
    let write = |file: String, body: String| {
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&file), body))
        {
            eprintln!("perf: cannot write {}: {e}", dir.join(file).display());
        }
    };
    write(format!("{name}.{kind}.json"), format!("{{\"header\":{header},\"result\":{line}}}\n"));
    if opts.trace {
        write(format!("{name}.spans.json"), spans::spans_json(&header, tr.spans()));
    }

    println!("{line}");
    i32::from(!correct)
}
