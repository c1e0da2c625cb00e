//! `perf`: the end-to-end + per-layer benchmark of the ickpt workspace.
//!
//! ```text
//! perf run [--workload W] [--seed S] [--threads N] [--seconds T] [--trace [0|1]] [--quick]
//! perf selfcheck [--seed S] [--threads N] [--seconds T] [--bound metric=share]...
//! perf manifest          # prints BENCHMARK.json
//! perf metrics           # prints README.md's metric tables
//! ```
//!
//! `run` executes each workload in a fresh child process with every
//! ambient `ICKPT_*` variable removed, prints every metric by name and
//! unit, and exits non-zero if any correctness check fails. The last
//! line of a workload's output is one JSON object (see README.md).

// Terminal-facing target: printing is its job.
#![allow(clippy::disallowed_macros)]

use std::path::PathBuf;
use std::process::{Command, Stdio};

mod child;
mod hostenv;
mod registry;
mod spans;
mod stats;
mod workloads;

use registry::{END_TO_END, RUN_SECONDS, WORKLOADS};

/// Default seed: every generated input derives from it.
const DEFAULT_SEED: u64 = 0x1DC4_2004;

/// glibc malloc settings for `WorkloadDef::retain_freed_memory`: no
/// mmap-backed chunks, no heap trimming, and one arena, so that what
/// exiting worker and rank threads free is kept too.
const RETAIN_FREED_MEMORY: &str = "glibc.malloc.mmap_max=0:\
    glibc.malloc.trim_threshold=4611686018427387904:glibc.malloc.arena_max=1";

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub threads: usize,
    pub workload: Option<String>,
    pub trace: bool,
    pub seconds: f64,
    pub quick: bool,
    /// `selfcheck` only: bounds overriding the registry's.
    pub bounds: Vec<(String, f64)>,
}

/// Where result and span files go: `perf/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn parse_u64(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        threads: nproc.min(4),
        workload: None,
        trace: false,
        seconds: f64::from(RUN_SECONDS),
        quick: false,
        bounds: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => {
                let raw = value("a number")?;
                opts.seed = parse_u64(&raw).ok_or(format!("bad --seed `{raw}`"))?;
            }
            "--threads" => {
                let raw = value("a count")?;
                opts.threads = raw
                    .parse()
                    .ok()
                    .filter(|n| (1..=256).contains(n))
                    .ok_or(format!("bad --threads `{raw}`"))?;
            }
            "--seconds" => {
                let raw = value("a duration")?;
                opts.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds `{raw}`"))?;
            }
            "--workload" => {
                let raw = value("a name")?;
                if !WORKLOADS.iter().any(|w| w.name == raw) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{raw}` (one of {})", names.join(", ")));
                }
                opts.workload = Some(raw);
            }
            // `--trace` alone or `--trace 0|1` (the driver's form).
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    opts.trace = false;
                }
                Some("1") => {
                    it.next();
                    opts.trace = true;
                }
                _ => opts.trace = true,
            },
            "--quick" => opts.quick = true,
            "--bound" => {
                let raw = value("metric=share")?;
                let parsed = raw.split_once('=').and_then(|(m, b)| {
                    let bound: f64 = b.parse().ok()?;
                    (END_TO_END.iter().any(|d| d.name == m) && bound > 0.0)
                        .then(|| (m.to_string(), bound))
                });
                opts.bounds.push(parsed.ok_or(format!("bad --bound `{raw}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Start one workload in a fresh process with a pinned environment:
/// no ambient `ICKPT_*` knob survives, and `ICKPT_SIM_WORKERS` (which
/// `run_fault_tolerant` reads only from the environment) is `--threads`.
fn child_command(opts: &Opts, workload: &str, trace: bool) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--threads", &opts.threads.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ICKPT_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("ICKPT_SIM_WORKERS", opts.threads.to_string());
    // The allocator is pinned too: glibc defaults, except where the
    // workload table asks for freed memory to stay in the process.
    cmd.env_remove("GLIBC_TUNABLES");
    if WORKLOADS.iter().any(|w| w.name == workload && w.retain_freed_memory) {
        cmd.env("GLIBC_TUNABLES", RETAIN_FREED_MEMORY);
    }
    Ok(cmd)
}

fn selected(opts: &Opts) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| opts.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn cmd_run(opts: &Opts) -> i32 {
    let mut worst = 0;
    for workload in selected(opts) {
        let status = child_command(opts, workload, opts.trace).and_then(|mut c| c.status());
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perf: workload {workload} failed ({s})");
                worst = worst.max(s.code().unwrap_or(1));
            }
            Err(e) => {
                eprintln!("perf: cannot start workload {workload}: {e}");
                worst = worst.max(1);
            }
        }
    }
    worst
}

/// Metric values of one run, by metric name.
type Metrics = Vec<(String, f64)>;

/// `{"correct":…,"metrics":{"name":{"value":1.5,"unit":"s"},…}}` as the
/// child prints it: whether it was correct and each metric's value.
fn parse_result_line(line: &str) -> Option<(bool, Metrics)> {
    let correct = line.contains("\"correct\":true");
    let metrics = &line[line.find("\"metrics\":{")? + "\"metrics\":{".len()..];
    let mut out = Vec::new();
    let mut rest = metrics;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let name = &after[..after.find('"')?];
        let value_at = after.find("{\"value\":")? + "{\"value\":".len();
        let tail = &after[value_at..];
        let end = tail.find([',', '}'])?;
        out.push((name.to_string(), tail[..end].parse().ok()?));
        rest = &tail[tail.find('}')? + 1..];
        if rest.starts_with('}') {
            break;
        }
    }
    Some((correct, out))
}

/// One end-to-end run of one workload: its metric values.
fn end_to_end_run(opts: &Opts, workload: &str) -> Result<Metrics, String> {
    let output = child_command(opts, workload, false)
        .and_then(|mut c| c.stdout(Stdio::piped()).stderr(Stdio::inherit()).output())
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(parse_result_line) {
        Some((true, metrics)) if output.status.success() => Ok(metrics),
        _ => Err(format!("{workload} failed its checks or printed no result")),
    }
}

/// Noise self-test: every workload end to end twice on the same build,
/// back to back; fails if any metric of any workload differs between
/// the two runs by more than its bound.
fn cmd_selfcheck(opts: &Opts) -> i32 {
    let bound_of = |metric: &str| {
        opts.bounds.iter().rev().find(|(m, _)| m == metric).map(|(_, b)| *b).unwrap_or_else(|| {
            END_TO_END.iter().find(|d| d.name == metric).map_or(0.0, |d| d.bound)
        })
    };
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut failures = 0;
    for workload in selected(opts) {
        let (first, second) = match (end_to_end_run(opts, workload), end_to_end_run(opts, workload))
        {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perf selfcheck: {e}");
                return 1;
            }
        };
        for ((metric, x), (_, y)) in first.iter().zip(&second) {
            let diff = (y - x).abs() / x.abs();
            let bound = bound_of(metric);
            let ok = diff <= bound;
            failures += u32::from(!ok);
            println!(
                "{workload:<13} {metric:<12} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.1}%  {}",
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    println!("selfcheck: {failures} metric x workload pairs outside their bound");
    i32::from(failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    let code = match (command, parse_opts(rest)) {
        ("manifest", _) => {
            print!("{}", registry::manifest_json());
            0
        }
        ("metrics", _) => {
            print!("{}", registry::metrics_markdown());
            0
        }
        ("run", Ok(opts)) => cmd_run(&opts),
        ("selfcheck", Ok(opts)) => cmd_selfcheck(&opts),
        ("child", Ok(opts)) => child::run_child(&opts),
        ("run" | "selfcheck" | "child", Err(e)) => {
            eprintln!("perf: {e}");
            2
        }
        _ => {
            eprintln!(
                "usage: perf run [--workload W] [--seed S] [--threads N] [--seconds T] [--trace [0|1]] [--quick]\n       perf selfcheck [--seed S] [--threads N] [--seconds T] [--bound metric=share]...\n       perf manifest | perf metrics"
            );
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_argument_form_parses() {
        let o = parse_opts(&args(&[
            "--workload",
            "svc_fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("svc_fleet"), 7, 10.0, false)
        );
        let o = parse_opts(&args(&["--trace", "1", "--seed", "0x1DC42004"])).unwrap();
        assert!(o.trace && o.seed == DEFAULT_SEED);
        assert!(parse_opts(&args(&["--trace"])).unwrap().trace);
        assert!(parse_opts(&args(&["--trace", "--quick"])).unwrap().quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--threads", "0"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--bound", "pass_s"],
            &["--bound", "unknown=0.1"],
            &["--frobnicate"],
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"pass_s\":{\"value\":1.25,\"unit\":\"s\"},\"work_per_s\":{\"value\":3e6,\"unit\":\"1/s\"}}}";
        let (correct, metrics) = parse_result_line(line).unwrap();
        assert!(correct);
        assert_eq!(metrics, vec![("pass_s".to_string(), 1.25), ("work_per_s".to_string(), 3e6)]);
        assert!(!parse_result_line(&line.replace("true", "false")).unwrap().0);
        assert!(parse_result_line("no json here").is_none());
    }

    #[test]
    fn strings_are_escaped_for_json() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
