//! The reproduction pinned at reduced scale.
//!
//! Runs the `repro` binary at `ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05
//! ICKPT_BENCH_PERIODS=4` over Tables 2-4, Figures 1-5, the effective-IB
//! study and the multi-tenant sweep, serially and on four scheduler
//! threads, and diffs the concatenated stdout against
//! `reduced.golden.txt`. Every paper-vs-measured row of those
//! experiments is in it, so a change that moves any number fails here,
//! not only in the full-scale golden `scripts/verify.sh` checks.
//!
//! A change meant to move a number regenerates the golden: on a
//! mismatch the test writes the output it saw next to the test
//! binaries (the path is in the failure message); copy that file over
//! `crates/bench/tests/reduced.golden.txt` and say why in the commit.

use std::process::Command;

const GOLDEN: &str = include_str!("reduced.golden.txt");

/// `repro --only` selections, in report order. Ablations, availability
/// and Figure 5 extended do not shrink with the scale knobs; they stay
/// in the full-scale golden.
const SELECTIONS: [&str; 8] = [
    "Table ",
    "Figure 1 (",
    "Figure 2 (",
    "Figure 3 (",
    "Figure 4 (",
    "Figure 5 (",
    "Effective IB",
    "Multi-tenant",
];

/// The selected experiments' stdout at `threads` scheduler threads,
/// with every other `ICKPT_*` knob of the caller's environment removed.
fn reduced_repro(threads: &str) -> String {
    let mut out = String::new();
    for only in SELECTIONS {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("ICKPT_") {
                cmd.env_remove(key);
            }
        }
        let run = cmd
            .args(["--only", only])
            .env("ICKPT_BENCH_RANKS", "4")
            .env("ICKPT_BENCH_SCALE", "0.05")
            .env("ICKPT_BENCH_PERIODS", "4")
            .env("ICKPT_BENCH_THREADS", threads)
            .output()
            .expect("spawn repro");
        assert!(
            run.status.success(),
            "repro --only {only:?} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        out.push_str(&String::from_utf8(run.stdout).expect("repro prints UTF-8"));
    }
    out
}

fn assert_matches_golden(threads: &str) {
    let got = reduced_repro(threads);
    if got == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("reduced.golden.threads-{threads}.txt"));
    std::fs::write(&path, &got).expect("write the observed output");
    let line = got.lines().zip(GOLDEN.lines()).position(|(a, b)| a != b).map_or_else(
        || {
            format!(
                "outputs agree on {} lines, then one ends",
                got.lines().count().min(GOLDEN.lines().count())
            )
        },
        |i| {
            format!(
                "first difference at line {}:\n  golden: {}\n  got:    {}",
                i + 1,
                GOLDEN.lines().nth(i).unwrap_or(""),
                got.lines().nth(i).unwrap_or("")
            )
        },
    );
    panic!(
        "reduced repro at {threads} thread(s) differs from the golden; {line}\nfull output: {}",
        path.display()
    );
}

#[test]
fn reduced_repro_matches_golden_serial() {
    assert_matches_golden("1");
}

#[test]
fn reduced_repro_matches_golden_on_four_threads() {
    assert_matches_golden("4");
}
