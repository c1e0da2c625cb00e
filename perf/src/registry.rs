//! The fixed names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` at the repository root is `perf manifest`'s output;
//! `tests/harness.rs` fails when the two drift apart.

use std::fmt::Write as _;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Run under glibc malloc settings that keep freed memory inside
    /// the process. For the workloads whose every pass frees and
    /// reallocates a hundred MiB or more: on the sandbox hosts memory
    /// given back to the kernel comes back cold (free-page reporting,
    /// ~30 us per refaulted page against ~2 us warm), and that cost,
    /// not the code's, would be what their passes measure. Not for the
    /// characterization workloads: their parallel reference run
    /// contends on the single arena this setting implies.
    pub retain_freed_memory: bool,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "charz_64",
        why: "The paper's experiment: six codes characterized on 64 ranks; apps stepping, tracker fault path, dirty bitmaps and net collectives do the work, no byte is stored.",
        retain_freed_memory: false,
    },
    WorkloadDef {
        name: "scale_4k",
        why: "Same entry point at 4096 ranks with tiny per-rank work, so engine advance/resolve, event wheel, tree reduce and footprint dominate (the superlinear suspect).",
        retain_freed_memory: false,
    },
    WorkloadDef {
        name: "ckpt_chain",
        why: "Byte-bound data path, dedup off: 256 MiB image, full base + 16 increments captured, encoded, stored, restored and merged; copy-bound kernels, codec, store, plan.",
        retain_freed_memory: true,
    },
    WorkloadDef {
        name: "ckpt_content",
        why: "Same chain under the Scientific write profile with dedup on: hash-bound fused scan, dedup index and delta records, so a gain for the copy path that costs the content path shows.",
        retain_freed_memory: true,
    },
    WorkloadDef {
        name: "ft_cluster",
        why: "The whole fault-tolerant system on the thread-per-rank path: 8 ranks, XOR parity, tiered store, tree drain, one node loss and a reconstructing recovery.",
        retain_freed_memory: true,
    },
    WorkloadDef {
        name: "svc_fleet",
        why: "The service event loop alone: 1024 tenants on 16 devices through admission, DRR scheduling and the striped array; no bytes, no ranks, no recorder.",
        retain_freed_memory: false,
    },
    WorkloadDef {
        name: "obs_replay",
        why: "ickpt-obs alone: a recorded service event stream re-emitted through flight recorder and metrics plane, then snapshot and every exporter.",
        retain_freed_memory: true,
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// The gated metrics. Every workload reports every one of them (the
/// driver's contract), so they are the four that exist everywhere; the
/// phase rates of `ckpt_*` (`capture.gbps`, `commit.gbps`,
/// `restore.gbps`, `store.stored_ratio`) are per-layer metrics.
///
/// Bounds: over ten seeds the spread (IQR/median) of the reported
/// values on the 2-vCPU sandbox host was 2-10 % for `pass_s` and
/// `work_per_s`, up to 12 % for `peak_rss_mb` and up to 40 % for
/// `setup_s`, and host drift within an hour reached 15 %. A bound must
/// stay above the spread in every run of the acceptance rule, so all
/// four sit at the contract's cap.
pub const END_TO_END: &[MetricDef] = &[
    MetricDef {
        name: "pass_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "host wall time of one pass: the fastest of the run's timed passes",
    },
    MetricDef {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "work units per host second of the fastest pass: rank*virtual-seconds (charz_64, scale_4k, ft_cluster), GB captured+restored (ckpt_*), completed requests (svc_fleet), events emitted (obs_replay)",
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM of the workload's process when it has finished",
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "input generation + reference run before the first timed pass, median of up to three repetitions",
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef { name, unit, better, moves }
}

/// Per-layer metrics of the traced run. A workload reports 0 for a
/// layer it does not exercise.
pub const PER_LAYER: &[LayerDef] = &[
    layer("host.copy_gbps", "GB/s", "higher", "ceiling for every *_gbps (ckpt_*)"),
    layer("host.read_gbps", "GB/s", "higher", "ceiling for every *_gbps (ckpt_*)"),
    layer("apps.step_s", "s", "lower", "pass_s on charz_64"),
    layer("apps.steps", "count", "lower", "pass_s on charz_64"),
    layer("tracker.touch_s", "s", "lower", "pass_s, work_per_s on charz_64"),
    layer("tracker.faults", "count", "lower", "pass_s on charz_64"),
    layer("tracker.windows", "count", "lower", "pass_s on charz_64"),
    layer("mem.dirty_s", "s", "lower", "pass_s on charz_64"),
    layer("core.trace_s", "s", "lower", "pass_s on charz_64"),
    layer("net.bytes_received", "bytes", "lower", "pass_s on charz_64, ft_cluster"),
    layer("net.collectives", "count", "lower", "pass_s on charz_64"),
    layer("engine.w1_s", "s", "lower", "pass_s on charz_64, scale_4k"),
    layer("engine.wN_s", "s", "lower", "pass_s on charz_64, scale_4k"),
    layer("engine.parallel_eff", "ratio", "higher", "pass_s on charz_64, scale_4k"),
    layer("engine.ranks_per_s", "1/s", "higher", "work_per_s on scale_4k"),
    layer("engine.scaling_exp", "ratio", "lower", "work_per_s on scale_4k"),
    layer("sim.wheel_ns_per_event", "ns", "lower", "pass_s on scale_4k, svc_fleet"),
    layer("sim.reduce_s", "s", "lower", "pass_s on scale_4k"),
    layer("mem.fill_s", "s", "lower", "pass_s on ckpt_chain, ckpt_content"),
    layer("mem.fill_gbps", "GB/s", "higher", "pass_s on ckpt_chain, ckpt_content"),
    layer("kernels.fused_scan_gbps", "GB/s", "higher", "capture.gbps on ckpt_content"),
    layer("kernels.is_zero_gbps", "GB/s", "higher", "capture.gbps on ckpt_chain"),
    layer("kernels.crc_gbps", "GB/s", "higher", "commit.gbps, restore.gbps on ckpt_*"),
    layer("kernels.fused_scan_frac", "ratio", "higher", "capture.gbps on ckpt_content"),
    layer("kernels.is_zero_frac", "ratio", "higher", "capture.gbps on ckpt_chain"),
    layer("kernels.crc_frac", "ratio", "higher", "commit.gbps, restore.gbps on ckpt_*"),
    layer("capture.gbps", "GB/s", "higher", "pass_s, work_per_s on ckpt_*"),
    layer("capture.full_s", "s", "lower", "capture.gbps on ckpt_chain"),
    layer("capture.incr_s", "s", "lower", "capture.gbps on ckpt_chain"),
    layer("capture.pages", "count", "lower", "capture.gbps on ckpt_*"),
    layer("capture.zero_pages", "count", "higher", "capture.gbps on ckpt_chain"),
    layer("capture.frac_of_copy", "ratio", "higher", "capture.gbps on ckpt_chain"),
    layer("capture.hashed_pages", "count", "lower", "capture.gbps on ckpt_content"),
    layer("capture.dropped_pages", "count", "higher", "store.stored_ratio on ckpt_content"),
    layer("capture.delta_pages", "count", "higher", "store.stored_ratio on ckpt_content"),
    layer("capture.delta_blocks", "count", "lower", "store.stored_ratio on ckpt_content"),
    layer("commit.gbps", "GB/s", "higher", "pass_s, work_per_s on ckpt_*"),
    layer("chunk.encode_s", "s", "lower", "commit.gbps on ckpt_*"),
    layer("chunk.encode_gbps", "GB/s", "higher", "commit.gbps on ckpt_*"),
    layer("chunk.decode_s", "s", "lower", "restore.gbps on ckpt_*"),
    layer("store.put_s", "s", "lower", "commit.gbps on ckpt_*"),
    layer("store.get_s", "s", "lower", "restore.gbps on ckpt_*"),
    layer("store.bytes", "bytes", "lower", "store.stored_ratio on ckpt_*"),
    layer("store.stored_ratio", "ratio", "lower", "bytes traded for time on ckpt_*, ft_cluster"),
    layer("store.file_put_gbps", "GB/s", "higher", "informational (sandbox disk) on ckpt_*"),
    layer("plan.build_s", "s", "lower", "restore.gbps on ckpt_chain"),
    layer("plan.segments", "count", "lower", "restore.gbps on ckpt_chain"),
    layer("plan.live_pages", "count", "lower", "restore.gbps on ckpt_chain"),
    layer("plan.dead_pages", "count", "lower", "restore.gbps on ckpt_chain"),
    layer("restore.gbps", "GB/s", "higher", "pass_s, work_per_s on ckpt_*"),
    layer("restore.total_s", "s", "lower", "restore.gbps on ckpt_*"),
    layer("restore.pages_applied", "count", "lower", "restore.gbps on ckpt_*"),
    layer("restore.chunks_read", "count", "lower", "restore.gbps on ckpt_*"),
    layer("restore.frac_of_copy", "ratio", "higher", "restore.gbps on ckpt_*"),
    layer("restore.w1_s", "s", "lower", "restore.gbps on ckpt_*"),
    layer("restore.wN_s", "s", "lower", "restore.gbps on ckpt_*"),
    layer("gc.merge_s", "s", "lower", "pass_s on ckpt_chain"),
    layer("gc.merge_gbps", "GB/s", "higher", "pass_s on ckpt_chain"),
    layer("ft.failure_free_s", "s", "lower", "pass_s, work_per_s on ft_cluster"),
    layer("ft.with_failure_s", "s", "lower", "pass_s on ft_cluster"),
    layer("ft.recovery_extra_s", "s", "lower", "pass_s on ft_cluster"),
    layer("ft.attempts", "count", "lower", "pass_s on ft_cluster"),
    layer("ft.checkpoints", "count", "lower", "pass_s on ft_cluster"),
    layer("ft.checkpoint_bytes", "bytes", "lower", "pass_s on ft_cluster"),
    layer("ft.ranks4_s", "s", "lower", "pass_s on ft_cluster"),
    layer("ft.ranks8_s", "s", "lower", "pass_s on ft_cluster"),
    layer("redundancy.xor_encode_gbps", "GB/s", "higher", "pass_s on ft_cluster"),
    layer("redundancy.xor_reconstruct_gbps", "GB/s", "higher", "pass_s on ft_cluster"),
    layer("redundancy.local_bytes", "bytes", "lower", "pass_s on ft_cluster"),
    layer("redundancy.parity_bytes", "bytes", "lower", "pass_s on ft_cluster"),
    layer("drain.batches", "count", "lower", "pass_s on ft_cluster"),
    layer("drain.bytes", "bytes", "lower", "pass_s on ft_cluster"),
    layer("drain.torn_bytes", "bytes", "lower", "pass_s on ft_cluster"),
    layer("svc.run_s", "s", "lower", "work_per_s on svc_fleet"),
    layer("svc.requests", "count", "higher", "work_per_s on svc_fleet"),
    layer("svc.rejections", "count", "lower", "work_per_s on svc_fleet"),
    layer("svc.events", "count", "lower", "work_per_s on svc_fleet"),
    layer("svc.ns_per_event", "ns", "lower", "work_per_s on svc_fleet"),
    layer("svc.admission_ns", "ns", "lower", "work_per_s on svc_fleet"),
    layer("svc.drr_pick_ns", "ns", "lower", "work_per_s on svc_fleet"),
    layer("sim.stripe_charge_ns", "ns", "lower", "work_per_s on svc_fleet"),
    layer("obs.emit_ns", "ns", "lower", "work_per_s on obs_replay"),
    layer("obs.plane_ingest_ns", "ns", "lower", "work_per_s on obs_replay"),
    layer("obs.events", "count", "lower", "work_per_s on obs_replay"),
    layer("obs.dropped", "count", "lower", "work_per_s on obs_replay"),
    layer("obs.snapshot_s", "s", "lower", "pass_s on obs_replay"),
    layer("obs.jsonl_s", "s", "lower", "pass_s on obs_replay"),
    layer("obs.chrome_s", "s", "lower", "pass_s on obs_replay"),
    layer("obs.render_text_s", "s", "lower", "pass_s on obs_replay"),
    layer("obs.summary_s", "s", "lower", "pass_s on obs_replay"),
    layer("obs.parse_s", "s", "lower", "pass_s on obs_replay"),
    layer("obs.export_bytes", "bytes", "lower", "pass_s on obs_replay"),
    layer("obs.disabled_ns", "ns", "lower", "must stay ~0: pass_s on every other workload"),
    layer("trace.overhead_frac", "ratio", "lower", "validity of every per-layer metric"),
    layer("trace.attributed_frac", "ratio", "higher", "validity of the folded span table"),
];

/// The time one run of the driver measures for, seconds.
pub const RUN_SECONDS: u32 = 6;

/// `BENCHMARK.json`, generated so the checked-in file cannot disagree
/// with the tables above.
pub fn manifest_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The metric tables of README.md, as markdown.
pub fn metrics_markdown() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} % | {} |",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        let _ = writeln!(out, "| `{}` | {} | {} | {} |", m.name, m.unit, m.better, m.moves);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == "lower");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest_json().len() < 64 * 1024);
    }
}
