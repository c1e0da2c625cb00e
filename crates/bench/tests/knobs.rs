//! Every strict `ICKPT_*` knob: a malformed value makes `repro` exit 2
//! with a message naming the variable, before any experiment (or any
//! rank of a fault-tolerant run) starts half-configured. The message is
//! checked because `repro` also exits 2 when `--only` matches no
//! experiment: a renamed experiment would otherwise pass every row
//! without ever reading its knob.

use std::process::Command;

/// Environment variables as `(name, value)` pairs.
type Env = &'static [(&'static str, &'static str)];

const SMALL: Env =
    &[("ICKPT_BENCH_RANKS", "4"), ("ICKPT_BENCH_SCALE", "0.05"), ("ICKPT_BENCH_PERIODS", "4")];

/// One row per knob read: malformed setting, experiment that reads it,
/// extra environment that keeps the run small should the knob be
/// ignored.
const ROWS: &[(&str, &str, &str, Env)] = &[
    ("ICKPT_KERNELS", "bogus", "Effective IB", &[]),
    ("ICKPT_SIM_WORKERS", "lots", "Figure 5 extended", &[("ICKPT_BENCH_EXT_RANKS", "64")]),
    ("ICKPT_SIM_WORKERS", "lots", "Ablations", SMALL),
    ("ICKPT_DEDUP", "yes", "Ablations", SMALL),
    ("ICKPT_METRICS", "every-5s", "table 4", &[]),
    (
        "ICKPT_BENCH_RANKS",
        "6.4",
        "table 4",
        &[("ICKPT_BENCH_SCALE", "0.05"), ("ICKPT_BENCH_PERIODS", "4")],
    ),
    (
        "ICKPT_BENCH_SCALE",
        "0",
        "table 4",
        &[("ICKPT_BENCH_RANKS", "4"), ("ICKPT_BENCH_PERIODS", "4")],
    ),
    (
        "ICKPT_BENCH_PERIODS",
        "-1",
        "table 4",
        &[("ICKPT_BENCH_RANKS", "4"), ("ICKPT_BENCH_SCALE", "0.05")],
    ),
    ("ICKPT_BENCH_THREADS", "0", "table 4", SMALL),
    ("ICKPT_BENCH_NATIVE", "yes", "Section 6.5", SMALL),
    ("ICKPT_BENCH_TENANTS", "4,frogs", "Multi-tenant", &[]),
    ("ICKPT_BENCH_SVC_SECONDS", "5", "Multi-tenant", &[("ICKPT_BENCH_TENANTS", "1")]),
    ("ICKPT_BENCH_EXT_RANKS", "64,0", "Figure 5 extended", &[]),
];

#[test]
fn a_malformed_knob_exits_2_naming_it() {
    for &(knob, value, only, extra) in ROWS {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        // Only the row's own settings: a knob inherited from the
        // caller's environment must not decide the row.
        for (name, _) in std::env::vars() {
            if name.starts_with("ICKPT_") {
                cmd.env_remove(name);
            }
        }
        let out = cmd.args(["--only", only]).envs(extra.iter().copied()).env(knob, value).output();
        let out = out.expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.code() == Some(2) && stderr.contains(knob),
            "repro --only {only:?} with {knob}={value}: expected exit 2 and a message naming \
             {knob}, got {:?}: {stderr}",
            out.status.code()
        );
    }
}
