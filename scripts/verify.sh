#!/usr/bin/env bash
# Repo verification gate: everything a PR must pass, in the order that
# fails fastest. Runs fully offline (all external deps are vendored
# shims under vendor/ — see vendor/README.md).
#
# Usage:
#   scripts/verify.sh               # build + tests + fmt + clippy + bench smoke
#   scripts/verify.sh --bench-smoke # bench smoke pass only: knob, determinism
#                                   # and inspect gates on tiny runs, plus the
#                                   # perf/ package's own tests (no timing)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

bench_smoke() {
    run cargo build --release -p ickpt-bench --bins

    # That a malformed `ICKPT_*` knob exits 2 naming itself is checked by
    # `cargo test` (crates/bench/tests/knobs.rs), not here.
    local small="ICKPT_BENCH_RANKS=4 ICKPT_BENCH_SCALE=0.05 ICKPT_BENCH_PERIODS=4"

    # Determinism: each row runs one binary under every variant
    # environment and diffs stdout (the --trace-out path normalized to
    # OUTDIR) and, with --trace-out, the exported trace / metrics files
    # against the first variant's. Outputs stay under
    # /tmp/ickpt_diff/<id>/<variant index>/ for the checks after the table.
    #   table4        direct characterization, serial vs parallel scheduler
    #   effib         content layer: dedup-off and dedup-on runs, scheduler
    #   kernels       every capture artifact, PCLMUL CRC vs the slice-by-8 reference
    #   ablations     flight recorder with DedupSkip/DeltaEncode, scheduler
    #   ablations-k   the same event stream on the slice-by-8 CRC
    #   ft, ft-smoke  one event engine for every fault-tolerant run
    #                 (forked mode, tiered partner/XOR under node loss)
    #   ext4k         the event engine at 4096 ranks (wall time on stderr)
    #   tenants       one serial service wheel per sweep cell, fanned out
    #   metrics       the metrics-plane snapshot, scheduler
    # id | binary | --only | --trace-out | shared environment | variants (;-separated)
    local ft="ICKPT_METRICS=on ICKPT_DEDUP=1 $small ICKPT_BENCH_THREADS=1"
    local svc="ICKPT_BENCH_TENANTS=1,4,16 ICKPT_BENCH_SVC_SECONDS=60"
    while IFS='|' read -r id bin only trace shared variants; do
        local base="/tmp/ickpt_diff/$id"
        rm -rf "$base"
        echo "==> $id: $bin ${only:+--only '$only' }under $variants"
        local i=0 v
        IFS=';' read -ra vs <<<"$variants"
        for v in "${vs[@]}"; do
            local dir="$base/$i" args=()
            mkdir -p "$dir"
            [[ -n "$only" ]] && args+=(--only "$only")
            [[ "$trace" == y ]] && args+=(--trace-out "$dir/trace")
            # shellcheck disable=SC2086
            env $shared $v "target/release/$bin" "${args[@]}" </dev/null 2>/dev/null |
                sed "s|$dir|OUTDIR|g" >"$dir/stdout.txt"
            if ((i > 0)); then
                run diff "$base/0/stdout.txt" "$dir/stdout.txt"
                [[ "$trace" == y ]] && run diff -r "$base/0/trace" "$dir/trace"
            fi
            i=$((i + 1))
        done
    done <<DIFFS
table4|repro|table 4|n|$small|ICKPT_BENCH_THREADS=1;ICKPT_BENCH_THREADS=4
effib|repro|Effective IB|n||ICKPT_BENCH_THREADS=1;ICKPT_BENCH_THREADS=4
kernels|repro|Effective IB|n|ICKPT_BENCH_THREADS=1|ICKPT_KERNELS=scalar;ICKPT_KERNELS=auto
ablations|repro|Ablations|y|ICKPT_DEDUP=1 $small|ICKPT_BENCH_THREADS=1;ICKPT_BENCH_THREADS=4
ablations-k|repro|Ablations|y|ICKPT_DEDUP=1 $small ICKPT_BENCH_THREADS=1|ICKPT_KERNELS=auto;ICKPT_KERNELS=scalar
ft|repro|Ablations|y|$ft|ICKPT_SIM_WORKERS=1;ICKPT_SIM_WORKERS=2;ICKPT_SIM_WORKERS=8
ft-smoke|redundancy_smoke||y|ICKPT_METRICS=on|ICKPT_SIM_WORKERS=1;ICKPT_SIM_WORKERS=2;ICKPT_SIM_WORKERS=8
ext4k|repro|Figure 5 extended|n|ICKPT_BENCH_EXT_RANKS=4096|ICKPT_SIM_WORKERS=1;ICKPT_SIM_WORKERS=4
tenants|repro|Multi-tenant|y|$svc|ICKPT_BENCH_THREADS=1;ICKPT_BENCH_THREADS=4
metrics|repro|table 4|y|ICKPT_METRICS=on $small|ICKPT_BENCH_THREADS=1;ICKPT_BENCH_THREADS=4
DIFFS

    # The reproduction pinned to its numbers: every row above compares
    # a run with itself, so a change that moves every number the same
    # way passes them all. The full-scale `repro --out` report must
    # match the checked-in golden byte for byte, serial and parallel.
    local t
    for t in 1 4; do
        local report="/tmp/ickpt_diff/golden/threads-$t.md"
        mkdir -p "$(dirname "$report")"
        echo "==> golden: full repro --out at ICKPT_BENCH_THREADS=$t"
        ICKPT_BENCH_THREADS=$t target/release/repro --out "$report" </dev/null >/dev/null 2>&1
        run diff scripts/repro.golden.md "$report"
    done

    local ablations_jsonl=/tmp/ickpt_diff/ablations/0/trace/ablations-checkpoint-system.jsonl
    # The trace view reads the redundancy ablation's drain back: a
    # drain overview with at least one batch.
    echo "==> inspect --trace must show drained batches in $ablations_jsonl"
    local batches
    batches=$(target/release/inspect --trace "$ablations_jsonl" | awk '
        /^drain overview$/ { d = 1; next }
        d && NF == 0 { d = 0 }
        d && NF == 7 && $2 ~ /^[0-9]+$/ { b += $2 }
        END { print b + 0 }')
    if ((batches < 1)); then
        echo "expected a drain overview with at least one batch, got $batches" >&2
        exit 1
    fi

    # A malformed trace is refused, not read as events with blanks: one
    # line missing its keys must exit 1 and name that line on stderr.
    local bad_jsonl=/tmp/ickpt_diff/malformed.jsonl
    { head -n 2 "$ablations_jsonl"; echo '{"ts":5}'; tail -n 1 "$ablations_jsonl"; } >"$bad_jsonl"
    echo "==> inspect --trace must refuse line 3 of $bad_jsonl"
    set +e
    err=$(target/release/inspect --trace "$bad_jsonl" 2>&1 >/dev/null)
    rc=$?
    set -e
    if [[ "$rc" -ne 1 || "$err" != *"line 3:"* ]]; then
        echo "expected exit 1 and 'line 3:' on stderr, got $rc: $err" >&2
        exit 1
    fi

    # Tenant lanes in the flight recorder: the multi-tenant trace must
    # carry per-tenant tracks, and `inspect --tenants` must fold them
    # into the per-tenant table without erroring.
    svc_jsonl=$(ls /tmp/ickpt_diff/tenants/0/trace/*.jsonl)
    if ! grep -q '"tenant' "$svc_jsonl"; then
        echo "expected tenant tracks in $svc_jsonl" >&2
        exit 1
    fi
    # Every (run, tenant track) pair is a listed row or counted in an
    # elision line.
    echo "==> inspect --tenants must cover every tenant track in $svc_jsonl"
    local want got
    want=$(grep -o '"run":"[^"]*","track":"tenant[0-9]*"' "$svc_jsonl" | sort -u | wc -l)
    got=$(target/release/inspect --tenants "$svc_jsonl" | awk '
        /^run .*: [0-9]+ tenants$/ { t = 1; next }
        /^  totals:/ { t = 0 }
        t && /^[0-9]+ / { n++ }
        t && /more tenants elided/ { n += $2 }
        END { print n + 0 }')
    if ((want < 1 || got != want)); then
        echo "expected $want tenant rows (listed or elided), got $got" >&2
        exit 1
    fi

    # Table 4 is characterization-only (no checkpoint captures), so the
    # live counters it feeds are the tracker's; the capture-path counters
    # are exercised by the inspect --metrics replay below.
    if ! grep -q '^ickpt_tracker_windows_total' \
        /tmp/ickpt_diff/metrics/0/trace/table-4-*.metrics.txt; then
        echo "expected tracker counters in the metrics snapshot" >&2
        exit 1
    fi

    # Post-hoc metrics view: replay the ablation's JSONL trace into a
    # fresh plane; per-run totals, window series and SLO verdicts must
    # render without erroring.
    echo "==> inspect --metrics must total every run in $ablations_jsonl"
    want=$(grep -o '^{"run":"[^"]*"' "$ablations_jsonl" | sort -u | wc -l)
    got=$(target/release/inspect --metrics "$ablations_jsonl" --windows | grep -c '^run .*: totals$')
    if ((want < 1 || got != want)); then
        echo "expected a totals table for each of $want runs, got $got" >&2
        exit 1
    fi

    # Multilevel redundancy: inject a node loss mid-run, recover the
    # wiped rank by partner reconstruction, and diff the final
    # application state against a failure-free run (byte-identical or
    # the binary exits non-zero).
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
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
bench_smoke

echo "verify: OK"
