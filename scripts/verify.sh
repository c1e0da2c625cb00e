#!/usr/bin/env bash
# Repo verification gate: everything a PR must pass, in the order that
# fails fastest. Runs fully offline (all external deps are vendored
# shims under vendor/ — see vendor/README.md).
#
# Usage:
#   scripts/verify.sh               # build + tests + fmt + clippy + bench smoke
#   scripts/verify.sh --bench       # also run the micro-bench measurement pass
#                                   # and refresh /tmp/ickpt_bench.json
#   scripts/verify.sh --bench-smoke # bench smoke pass only (tiny sizes, no
#                                   # timing assertions — checks the benches
#                                   # still run, not how fast)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

bench_smoke() {
    # Tiny footprints and a minimal measurement budget: this asserts the
    # bench harness still builds chains, restores, and merges without
    # panicking. It makes no claims about timing.
    ICKPT_BENCH_CAPTURE_MB=8 ICKPT_BENCH_RESTORE_MB=8 \
        run cargo bench -q -p ickpt-bench --bench micro -- \
        --measure-ms 20 --save-json /tmp/ickpt_bench_smoke.json

    # Trace-engine determinism: the same (small) experiment through the
    # trace-once path, serial and parallel, must be byte-identical.
    run cargo build --release -p ickpt-bench --bin repro
    echo "==> repro --only 'table 4' at 1 and 4 scheduler threads"
    ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "table 4" >/tmp/ickpt_repro_t1.txt 2>/dev/null
    ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_THREADS=4 \
        target/release/repro --only "table 4" >/tmp/ickpt_repro_t4.txt 2>/dev/null
    run diff /tmp/ickpt_repro_t1.txt /tmp/ickpt_repro_t4.txt

    # Every strict `ICKPT_*` knob: a malformed value must abort with exit
    # status 2 and a message before any experiment (or any rank of a
    # fault-tolerant run) starts half-configured. One row per knob:
    # value | experiment that reads it | extra environment.
    local small="ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_PERIODS=4"
    while IFS='|' read -r knob only extra; do
        echo "==> repro --only '$only' with $knob must exit 2"
        set +e
        # shellcheck disable=SC2086
        env "$knob" $extra target/release/repro --only "$only" >/dev/null 2>/dev/null
        rc=$?
        set -e
        if [[ "$rc" -ne 2 ]]; then
            echo "expected exit 2 for $knob, got $rc" >&2
            exit 1
        fi
    done <<KNOBS
ICKPT_KERNELS=bogus|Effective IB|
ICKPT_SIM_WORKERS=lots|Figure 5 extended|ICKPT_BENCH_EXT_RANKS=64
ICKPT_SIM_WORKERS=lots|Ablations|$small
ICKPT_CAPTURE_WORKERS=lots|Ablations|$small
ICKPT_RESTORE_WORKERS=two|Ablations|$small
ICKPT_DELTA_BLOCKS=-3|Ablations|$small
ICKPT_DEDUP=yes|Ablations|$small
ICKPT_BENCH_TENANTS=4,frogs|Multi-tenant|
ICKPT_METRICS=every-5s|table 4|
KNOBS

    # Content-layer determinism: the effective-IB experiment runs every
    # app twice (dedup off, then on), asserts the two runs byte-identical
    # end to end, and its printed report must not depend on scheduler
    # parallelism.
    echo "==> repro --only 'Effective IB' at 1 and 4 scheduler threads"
    ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Effective IB" >/tmp/ickpt_dedup_t1.txt 2>/dev/null
    ICKPT_BENCH_THREADS=4 \
        target/release/repro --only "Effective IB" >/tmp/ickpt_dedup_t4.txt 2>/dev/null
    run diff /tmp/ickpt_dedup_t1.txt /tmp/ickpt_dedup_t4.txt

    # Kernel-dispatch identity: every capture/restore artifact must be
    # byte-identical whether the SIMD tiers or the scalar reference
    # computed it. The scalar run of the effective-IB experiment (its
    # report folds page hashes, dedup decisions, chunk CRCs, and byte
    # counters) must match the auto run bit for bit.
    echo "==> repro --only 'Effective IB' with ICKPT_KERNELS=scalar vs auto"
    ICKPT_KERNELS=scalar ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Effective IB" >/tmp/ickpt_kern_scalar.txt 2>/dev/null
    ICKPT_KERNELS=auto ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Effective IB" >/tmp/ickpt_kern_auto.txt 2>/dev/null
    run diff /tmp/ickpt_kern_scalar.txt /tmp/ickpt_kern_auto.txt

    # Flight-recorder determinism: the exported trace files (Chrome
    # JSON + JSONL) for a live-instrumented experiment must be
    # byte-identical at 1 and 4 scheduler threads — with the content
    # layer (dedup + delta) forced on, so DedupSkip/DeltaEncode events
    # flow through the recorder in both runs.
    echo "==> repro --trace-out at 1 and 4 scheduler threads (ICKPT_DEDUP=1)"
    rm -rf /tmp/ickpt_trace_t1 /tmp/ickpt_trace_t4
    ICKPT_DEDUP=1 ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_PERIODS=4 \
        ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Ablations" --trace-out /tmp/ickpt_trace_t1 \
        >/dev/null 2>/dev/null
    ICKPT_DEDUP=1 ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_PERIODS=4 \
        ICKPT_BENCH_THREADS=4 \
        target/release/repro --only "Ablations" --trace-out /tmp/ickpt_trace_t4 \
        >/dev/null 2>/dev/null
    run diff -r /tmp/ickpt_trace_t1 /tmp/ickpt_trace_t4

    # Same trace export under the forced scalar backend: the recorded
    # event stream (hashes, dedup skips, delta encodes) must not depend
    # on which kernel tier computed it.
    echo "==> repro --trace-out with ICKPT_KERNELS=scalar (ICKPT_DEDUP=1)"
    rm -rf /tmp/ickpt_trace_scalar
    ICKPT_KERNELS=scalar ICKPT_DEDUP=1 ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 \
        ICKPT_BENCH_PERIODS=4 ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Ablations" --trace-out /tmp/ickpt_trace_scalar \
        >/dev/null 2>/dev/null
    run diff -r /tmp/ickpt_trace_t1 /tmp/ickpt_trace_scalar
    run cargo build --release -p ickpt-bench --bin inspect
    run target/release/inspect --trace \
        /tmp/ickpt_trace_t1/ablations-checkpoint-system.jsonl >/dev/null

    # One execution substrate: the fault-tolerant runs of the ablation
    # suite (per-rank and shared-array paths, forked mode, tiered
    # partner/XOR under node loss) and of redundancy_smoke go through
    # the same event engine, so stdout, exported traces and metrics
    # snapshots must be byte-identical at 1, 2 and 8 engine workers.
    echo "==> fault-tolerant --trace-out at 1, 2 and 8 sim workers (ICKPT_METRICS=on)"
    run cargo build --release -p ickpt-bench --bin redundancy_smoke
    for w in 1 2 8; do
        rm -rf "/tmp/ickpt_ft_w$w"
        ICKPT_SIM_WORKERS=$w ICKPT_METRICS=on ICKPT_DEDUP=1 ICKPT_BENCH_RANKS=4 \
            ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_PERIODS=4 ICKPT_BENCH_THREADS=1 \
            target/release/repro --only "Ablations" --trace-out "/tmp/ickpt_ft_w$w/repro" \
            2>/dev/null | sed "s|/tmp/ickpt_ft_w$w|OUTDIR|g" >"/tmp/ickpt_ft_w$w.txt"
        ICKPT_SIM_WORKERS=$w ICKPT_METRICS=on \
            target/release/redundancy_smoke --trace-out "/tmp/ickpt_ft_w$w/smoke" \
            2>/dev/null | sed "s|/tmp/ickpt_ft_w$w|OUTDIR|g" >>"/tmp/ickpt_ft_w$w.txt"
    done
    for w in 2 8; do
        run diff /tmp/ickpt_ft_w1.txt "/tmp/ickpt_ft_w$w.txt"
        run diff -r /tmp/ickpt_ft_w1 "/tmp/ickpt_ft_w$w"
    done

    # Event-engine determinism at scale: the extended weak-scaling
    # experiment at 4096 ranks must print byte-identical stdout at 1
    # and 4 sim workers (host wall-clock goes to stderr only).
    echo "==> repro --only 'Figure 5 extended' (4096 ranks) at 1 and 4 sim workers"
    ICKPT_BENCH_EXT_RANKS=4096 ICKPT_SIM_WORKERS=1 \
        target/release/repro --only "Figure 5 extended" >/tmp/ickpt_ext_w1.txt 2>/dev/null
    ICKPT_BENCH_EXT_RANKS=4096 ICKPT_SIM_WORKERS=4 \
        target/release/repro --only "Figure 5 extended" >/tmp/ickpt_ext_w4.txt 2>/dev/null
    run diff /tmp/ickpt_ext_w1.txt /tmp/ickpt_ext_w4.txt

    # Multi-tenant service determinism: the shared-array experiment
    # fans its sweep cells over host threads, yet stdout must be
    # byte-identical at 1 and 4 threads (the service itself is one
    # serial event wheel per cell).
    echo "==> repro --only 'Multi-tenant' at 1 and 4 host threads"
    ICKPT_BENCH_TENANTS=1,4,16 ICKPT_BENCH_SVC_SECONDS=60 ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Multi-tenant" >/tmp/ickpt_svc_t1.txt 2>/dev/null
    ICKPT_BENCH_TENANTS=1,4,16 ICKPT_BENCH_SVC_SECONDS=60 ICKPT_BENCH_THREADS=4 \
        target/release/repro --only "Multi-tenant" >/tmp/ickpt_svc_t4.txt 2>/dev/null
    run diff /tmp/ickpt_svc_t1.txt /tmp/ickpt_svc_t4.txt

    # Tenant lanes in the flight recorder: the ablation's trace must
    # carry per-tenant tracks, and `inspect --tenants` must fold them
    # into the per-tenant table without erroring.
    echo "==> repro --trace-out tenant tracks + inspect --tenants"
    rm -rf /tmp/ickpt_trace_svc
    ICKPT_BENCH_TENANTS=1,4,16 ICKPT_BENCH_SVC_SECONDS=60 ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "Multi-tenant" --trace-out /tmp/ickpt_trace_svc \
        >/dev/null 2>/dev/null
    svc_jsonl=$(ls /tmp/ickpt_trace_svc/*.jsonl)
    if ! grep -q '"tenant' "$svc_jsonl"; then
        echo "expected tenant tracks in $svc_jsonl" >&2
        exit 1
    fi
    run target/release/inspect --tenants "$svc_jsonl" >/dev/null

    # Metrics-plane determinism: with ICKPT_METRICS=on the
    # Prometheus-style text snapshot (printed to stdout and written as
    # <slug>.metrics.txt under --trace-out, so the diff -r covers it)
    # must be byte-identical at 1 and 4 scheduler threads.
    echo "==> repro --only 'table 4' with ICKPT_METRICS=on at 1 and 4 threads"
    rm -rf /tmp/ickpt_metrics_t1 /tmp/ickpt_metrics_t4
    ICKPT_METRICS=on ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_THREADS=1 \
        target/release/repro --only "table 4" --trace-out /tmp/ickpt_metrics_t1 \
        >/tmp/ickpt_metrics_t1.txt 2>/dev/null
    ICKPT_METRICS=on ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_THREADS=4 \
        target/release/repro --only "table 4" --trace-out /tmp/ickpt_metrics_t4 \
        >/tmp/ickpt_metrics_t4.txt 2>/dev/null
    # The stdout echoes the --trace-out paths, which differ by design;
    # normalize them so the diff compares only the experiment + snapshot.
    sed -i 's|/tmp/ickpt_metrics_t[14]|OUTDIR|g' \
        /tmp/ickpt_metrics_t1.txt /tmp/ickpt_metrics_t4.txt
    run diff /tmp/ickpt_metrics_t1.txt /tmp/ickpt_metrics_t4.txt
    run diff -r /tmp/ickpt_metrics_t1 /tmp/ickpt_metrics_t4
    # Table 4 is characterization-only (no checkpoint captures), so the
    # live counters it feeds are the tracker's; the capture-path counters
    # are exercised by the inspect --metrics replay below.
    if ! grep -q '^ickpt_tracker_windows_total' \
        /tmp/ickpt_metrics_t1/table-4-*.metrics.txt; then
        echo "expected tracker counters in the metrics snapshot" >&2
        exit 1
    fi

    # Post-hoc metrics view: replay the ablation's JSONL trace into a
    # fresh plane; per-run totals, window series and SLO verdicts must
    # render without erroring.
    run target/release/inspect --metrics \
        /tmp/ickpt_trace_t1/ablations-checkpoint-system.jsonl --windows >/dev/null

    # PR-over-PR micro-bench drift: compare the two checked-in
    # baselines (deterministic — no benches run here). The wide band
    # catches order-of-magnitude cliffs, not host noise.
    run python3 scripts/bench_delta.py BENCH_PR9.json BENCH_PR10.json --tolerance 100

    # Multilevel redundancy: inject a node loss mid-run, recover the
    # wiped rank by partner reconstruction, and diff the final
    # application state against a failure-free run (byte-identical or
    # the binary exits non-zero).
    run cargo build --release -p ickpt-bench --bin redundancy_smoke
    run target/release/redundancy_smoke
    # And the same loss/reconstruct cycle on the scalar backend: XOR
    # parity encode/reconstruct must be tier-independent too.
    echo "==> redundancy_smoke with ICKPT_KERNELS=scalar"
    run env ICKPT_KERNELS=scalar target/release/redundancy_smoke

    # The driver's benchmark package builds against this workspace's
    # public API: run its own tests (tiny `--quick` inputs, every
    # workload and check end to end, ~3 s) so an API change that breaks
    # the benchmark fails here rather than in the next driver run.
    # Building perf/ rewrites perf/Cargo.lock in place (`--offline`
    # without `--locked`; the checked-in lock still lists crates the
    # workspace dropped), so the file is put back as it was found.
    local lock_before
    lock_before=$(mktemp)
    cp perf/Cargo.lock "$lock_before"
    run cargo test --release --offline --manifest-path perf/Cargo.toml
    cp "$lock_before" perf/Cargo.lock
    rm -f "$lock_before"

    # The driver rejects a PR that changes anything under perf/ or
    # BENCHMARK.json (a committed lock rewrite did that to PR 15), so
    # whatever is still different from HEAD here was not this script.
    echo "==> perf/ and BENCHMARK.json untouched"
    if [[ -n "$(git status --porcelain -- perf BENCHMARK.json)" ]]; then
        git status --porcelain -- perf BENCHMARK.json >&2
        echo "the benchmark must stay as committed; for the lock file: git checkout -- perf/Cargo.lock" >&2
        exit 1
    fi
}

if [[ "${1:-}" == "--bench-smoke" ]]; then
    bench_smoke
    echo "verify: OK (bench smoke only)"
    exit 0
fi

# ROADMAP item 0: a schedule-dependent result shows up as a flaky
# determinism suite, and only on a multi-core host under a parallel
# test harness — so run those suites repeatedly, four tests at a time.
determinism_suites() {
    local suites=(--test determinism --test metrics_props --test fault_tolerance --test sched_props)
    run cargo test -q --release --no-run "${suites[@]}"
    echo "==> determinism suites x20 at --test-threads 4"
    for i in $(seq 1 20); do
        if ! cargo test -q --release "${suites[@]}" -- --test-threads 4 \
            >/tmp/ickpt_determinism.log 2>&1; then
            cat /tmp/ickpt_determinism.log
            echo "determinism suites failed on repetition $i" >&2
            exit 1
        fi
    done
}

run cargo build --release
run cargo test -q --workspace
determinism_suites
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
bench_smoke

if [[ "${1:-}" == "--bench" ]]; then
    # Short measurement budget: a smoke pass in seconds, not minutes.
    run cargo bench -q -p ickpt-bench --bench micro -- \
        --measure-ms 100 --save-json /tmp/ickpt_bench.json
fi

echo "verify: OK"
