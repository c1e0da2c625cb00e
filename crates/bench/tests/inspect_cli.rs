//! `inspect <dir>` refuses what it cannot inspect: a missing directory
//! (which it must not create) and a malformed `--rank` exit 2; an
//! empty store is inspected and has no problems.

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
