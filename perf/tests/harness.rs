//! The harness must not rot: `--quick` drives every workload end to end
//! at tiny sizes (one pass, every check), with and without tracing, and
//! the checked-in `BENCHMARK.json` must be what `perf manifest` prints.

use std::path::Path;
use std::process::Command;

const PERF: &str = env!("CARGO_BIN_EXE_perf");
const WORKLOADS: [&str; 7] =
    ["charz_64", "scale_4k", "ckpt_chain", "ckpt_content", "ft_cluster", "svc_fleet", "obs_replay"];

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(PERF).args(args).output().expect("perf binary runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The result line of each workload, in order.
fn result_lines(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.starts_with("{\"correct\":")).collect()
}

#[test]
fn quick_run_passes_every_check_of_every_workload() {
    let (ok, stdout) = run(&["run", "--quick"]);
    assert!(ok, "perf run --quick failed:\n{stdout}");
    let lines = result_lines(&stdout);
    assert_eq!(lines.len(), WORKLOADS.len(), "{stdout}");
    for (line, workload) in lines.iter().zip(WORKLOADS) {
        assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
        assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
        for metric in ["pass_s", "work_per_s", "peak_rss_mb", "setup_s"] {
            assert!(line.contains(&format!("\"{metric}\":{{\"value\":")), "{workload}: {line}");
        }
        assert!(stdout.contains(&format!("== {workload} ")), "{workload} header missing");
    }
    assert_eq!(stdout.lines().last(), lines.last().copied(), "result line must come last");
}

#[test]
fn quick_traced_run_reports_every_layer_and_writes_spans() {
    // One byte-bound and one monolithic workload cover both span shapes.
    for workload in ["ckpt_content", "svc_fleet"] {
        let (ok, stdout) = run(&["run", "--quick", "--workload", workload, "--trace", "1"]);
        assert!(ok, "{workload}:\n{stdout}");
        let line = stdout.lines().last().expect("output");
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        assert!(line.contains("\"trace.overhead_frac\":{\"value\":"), "{line}");
        assert!(!line.contains("\"pass_s\""), "traced run reports per-layer metrics only");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        let spans =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{workload}.spans.json"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.contains("\"name\":\"pass\"") && text.contains("\"parent\":"), "{text}");
        assert!(text.contains("\"kernels\":") && text.contains("\"seed\":"), "self-describing");
    }
}

#[test]
fn unknown_workload_is_refused() {
    let (ok, stdout) = run(&["run", "--workload", "nope"]);
    assert!(!ok && result_lines(&stdout).is_empty());
}

#[test]
fn readme_carries_the_generated_metric_tables() {
    let (ok, tables) = run(&["metrics"]);
    assert!(ok);
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("perf/README.md");
    assert!(readme.contains(tables.trim()), "paste `perf metrics` into README.md");
    for workload in WORKLOADS {
        assert!(readme.contains(&format!("| `{workload}` |")), "{workload} missing from README");
    }
}

#[test]
fn checked_in_manifest_is_the_generated_one() {
    let (ok, generated) = run(&["manifest"]);
    assert!(ok);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let checked_in = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(checked_in, generated, "regenerate with `perf manifest > BENCHMARK.json`");
}
