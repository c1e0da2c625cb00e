//! `inspect <dir>` refuses what it cannot inspect: a missing directory
//! (which it must not create) and a malformed `--rank` exit 2; an
//! empty store is inspected and has no problems. `inspect --metrics`
//! replays a recorded trace and prints each run's SLO verdict.

use ickpt::obs::{jsonl, CaptureKind, Event, FlightRecorder, Lane, Recorder};
use ickpt::sim::{SimDuration, SimTime};
use std::path::PathBuf;
use std::process::{Command, Output};

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect")).args(args).output().expect("inspect runs")
}

/// A fresh, empty directory under the test target's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("inspect_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_missing_directory_exits_2_and_is_not_created() {
    let missing = scratch("missing").join("absent");
    let out = inspect(&[missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"), "{out:?}");
    assert!(!missing.exists(), "inspect created {}", missing.display());
    std::fs::remove_dir_all(missing.parent().unwrap()).unwrap();
}

#[test]
fn a_malformed_rank_exits_2() {
    let dir = scratch("rank");
    for args in [&["--rank", "x"][..], &["--rank", "-1"], &["--rank"]] {
        let mut all = vec![dir.to_str().unwrap()];
        all.extend_from_slice(args);
        let out = inspect(&all);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--rank"), "{args:?}: {out:?}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_empty_store_has_no_problems() {
    let dir = scratch("empty");
    for args in [&[][..], &["--rank", "3"]] {
        let mut all = vec![dir.to_str().unwrap()];
        all.extend_from_slice(args);
        let out = inspect(&all);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("0 problem(s)"), "{out:?}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn metrics_prints_each_breach_and_passes_a_clean_run() {
    let fr = FlightRecorder::new(256);
    fr.name_group(0, "breaching");
    fr.name_group(1, "clean");
    let bad = Recorder::new(fr.clone()).with_group(0);
    // Window 0: a 200 ms rank stall. Window 1: an 800 ms tenant stall.
    // Window 2: a drain queue 16 generations deep. The content rule
    // cannot breach from a trace: every captured byte counts as dirty.
    let stall = Event::CheckpointStall { generation: 1 };
    bad.emit_span(Lane::Rank(0), SimTime(0), SimDuration(200_000_000), stall);
    let tenant_stall = Event::TenantStall { tenant: 3, bytes: 64 };
    bad.emit_span(Lane::Tenant(3), SimTime(1_000_000_000), SimDuration(800_000_000), tenant_stall);
    bad.emit(Lane::Drain, SimTime(2_500_000_000), Event::DrainQueueDepth { depth: 16 });
    let clean = Recorder::new(fr.clone()).with_group(1);
    clean.emit_span(Lane::Rank(0), SimTime(0), SimDuration(1_000_000), stall);
    let capture =
        Event::Capture { kind: CaptureKind::Full, generation: 1, pages: 4, payload_bytes: 4096 };
    clean.emit(Lane::Rank(0), SimTime(0), capture);
    clean.emit(Lane::Drain, SimTime(1_000_000_000), Event::DrainQueueDepth { depth: 15 });

    let dir = scratch("metrics");
    let trace = dir.join("run.jsonl");
    std::fs::write(&trace, jsonl(&fr.snapshot())).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(["--metrics", trace.to_str().unwrap()])
        .env_remove("ICKPT_METRICS")
        .output()
        .expect("inspect runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<Vec<&str>> =
        stdout.lines().map(|l| l.split_whitespace().collect::<Vec<_>>()).collect();
    for row in [
        ["p99_stall", "0", "200000000", "150000000"],
        ["p99_tenant_stall", "1", "800000000", "750000000"],
        ["drain_depth", "2", "16", "16"],
    ] {
        assert!(rows.iter().any(|r| r[..] == row), "no breach row {row:?} in:\n{stdout}");
    }
    assert_eq!(stdout.matches("SLO breaches").count(), 1, "{stdout}");
    assert!(stdout.contains("run breaching: SLO breaches"), "{stdout}");
    assert!(stdout.contains("health: all 4 SLO rules pass over 2 windows"), "{stdout}");
    assert!(stdout.ends_with("2 runs\n"), "{stdout}");
    std::fs::remove_dir_all(dir).unwrap();
}
