//! `inspect` — operational tooling: examine and verify a checkpoint
//! directory produced by a `FileStore`-backed run.
//!
//! ```text
//! cargo run --release -p ickpt-bench --bin inspect -- <dir> [--rank N]
//! cargo run --release -p ickpt-bench --bin inspect -- --trace <file.jsonl>
//! cargo run --release -p ickpt-bench --bin inspect -- --tenants <file.jsonl>
//! cargo run --release -p ickpt-bench --bin inspect -- --metrics <file.jsonl> [--windows]
//! ```
//!
//! The three trace views read a JSONL export of `repro --trace-out` /
//! `redundancy_smoke --trace-out` back once; `--trace` and `--metrics`
//! replay it into a fresh metrics plane ([`ickpt::obs::MetricsPlane`]),
//! `--tenants` folds its tenant-lane events. `--trace` prints
//! per-run, per-track event statistics (event counts, busy span time,
//! virtual extent), an event-type histogram and a drain overview
//! (batches, bytes, queue depth, torn rollbacks); `--tenants` the
//! per-tenant service table; `--metrics` each run's end-of-run metric
//! totals, latency quantiles and SLO health verdicts, and with
//! `--windows` the per-window rate series. `ICKPT_METRICS=window=<secs>`
//! picks the window size (default 1 s). Output is deterministic for a
//! given trace file.
//!
//! Prints the committed generations (from manifests), each rank's
//! chunk chain with kinds, payload/zero-page sizes and lineage, and
//! verifies every chunk's CRC by decoding it. Broken parent links and
//! incomplete manifests are reported. Exit status is nonzero if any
//! integrity problem is found.

#![deny(unreachable_pub)]
// Terminal-facing target: printing is its job.
#![allow(clippy::disallowed_macros)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ickpt::obs::{
    Event, HealthMonitor, Lane, MetricLabel, MetricsConfig, MetricsPlane, MetricsView, ParsedEvent,
};
use ickpt::storage::{Chunk, ChunkKey, ChunkKind, FileStore, Manifest, RestorePlan, StableStorage};
use ickpt::svc::percentile_ns;
use ickpt_bench::analysis::table::fnum;
use ickpt_bench::analysis::TextTable;

/// Per-rank listings above this count are elided (integrity checks
/// still cover every rank; an explicit "… N more" line replaces the
/// tables, never silent truncation). `--rank N` always lists rank N.
const MAX_LISTED_RANKS: usize = 8;

/// Read and parse a JSONL flight-recorder export (`repro
/// --trace-out`, `redundancy_smoke --trace-out`): every line, file
/// order. Exits 2 if the file cannot be read and 1 if it is malformed.
fn read_trace(path: &str) -> Vec<ParsedEvent> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    ickpt::obs::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: malformed trace: {e}");
        std::process::exit(1);
    })
}

/// A trace's lines replayed into a fresh metrics plane, one group per
/// run in order of first appearance, so the output is deterministic
/// for a given file.
struct Replay {
    /// Every line, file order.
    lines: Vec<ParsedEvent>,
    /// Lines that map to a typed event and were ingested; the rest
    /// (`counter`, `slo_breach`) are derived and skipped.
    replayed: usize,
    window_ns: u64,
    /// Every run's metrics, group order.
    views: Vec<MetricsView>,
}

/// Read `path` ([`read_trace`]) and replay it.
/// `ICKPT_METRICS=window=<secs>` picks the plane's window (default 1 s).
fn replay(path: &str) -> Replay {
    let lines = read_trace(path);
    let plane = MetricsPlane::new(MetricsConfig::from_env().window);
    let mut runs: Vec<&str> = Vec::new();
    let mut replayed = 0;
    for ev in &lines {
        let Some((lane, timed)) = ev.to_timed() else { continue };
        let group = runs.iter().position(|r| *r == &*ev.run).unwrap_or_else(|| {
            runs.push(&ev.run);
            plane.name_group(runs.len() as u32 - 1, &ev.run);
            runs.len() - 1
        });
        plane.ingest(group as u32, lane, &timed);
        replayed += 1;
    }
    let views = plane.groups().into_iter().filter_map(|g| plane.view(g)).collect();
    Replay { lines, replayed, window_ns: plane.window_ns(), views }
}

/// `inspect --trace`: summarize a JSONL flight-recorder export.
fn trace_report(path: &str) -> i32 {
    let r = replay(path);
    println!("trace: {path}");
    // Per (run, track): count, busy (sum of span durations), extent.
    type RunTrack = (Arc<str>, Arc<str>);
    let mut tracks: BTreeMap<RunTrack, (u64, u64, u64)> = BTreeMap::new();
    let mut kinds: BTreeMap<Arc<str>, u64> = BTreeMap::new();
    for ev in &r.lines {
        let e = tracks.entry((ev.run.clone(), ev.track.clone())).or_default();
        e.0 += 1;
        e.1 += ev.dur;
        e.2 = e.2.max(ev.ts + ev.dur);
        *kinds.entry(ev.name.clone()).or_default() += 1;
    }
    let mut t = TextTable::new("tracks").header(&["run", "track", "events", "busy (s)", "end (s)"]);
    for ((run, track), (count, busy, end)) in &tracks {
        t.row(vec![
            run.to_string(),
            track.to_string(),
            count.to_string(),
            fnum(*busy as f64 / 1e9, 3),
            fnum(*end as f64 / 1e9, 3),
        ]);
    }
    println!("{}", t.render());
    let mut k = TextTable::new("event types").header(&["event", "count"]);
    for (name, count) in &kinds {
        k.row(vec![name.to_string(), count.to_string()]);
    }
    println!("{}", k.render());
    // Drain overview per run, from the run's counters: batches, bytes,
    // deepest queue and — when failures rolled drained generations
    // back below the durable horizon — the torn totals. A run is listed
    // if any of them survived its ring.
    let mut drains: Vec<&MetricsView> = r
        .views
        .iter()
        .filter(|v| {
            v.counter("drain_batches") > 0
                || v.counter("drain_torn_generations") > 0
                || v.gauge("drain_depth_max") > 0
        })
        .collect();
    drains.sort_by(|a, b| a.name().cmp(b.name()));
    if !drains.is_empty() {
        let mut d = TextTable::new("drain overview").header(&[
            "run",
            "batches",
            "gens",
            "MB drained",
            "depth max",
            "torn gens",
            "MB torn",
        ]);
        for v in &drains {
            d.row(vec![
                v.name().to_string(),
                v.counter("drain_batches").to_string(),
                v.counter("drain_generations").to_string(),
                fnum(v.counter("drain_bytes") as f64 / 1e6, 2),
                v.gauge("drain_depth_max").to_string(),
                v.counter("drain_torn_generations").to_string(),
                fnum(v.counter("drain_torn_bytes") as f64 / 1e6, 2),
            ]);
        }
        println!("{}", d.render());
    }
    println!(
        "total: {} events across {} tracks in {} runs",
        r.lines.len(),
        tracks.len(),
        tracks.keys().map(|(run, _)| run).collect::<BTreeSet<_>>().len()
    );
    0
}

/// `inspect --metrics`: each run's end-of-run totals, latency
/// quantiles and SLO health verdicts from the replayed plane;
/// `--windows` adds the per-window rate series.
fn metrics_report(path: &str, show_windows: bool) -> i32 {
    let r = replay(path);
    let skipped = r.lines.len() - r.replayed;
    println!(
        "metrics view: {path}  (window {} s, {} events replayed{})",
        r.window_ns / 1_000_000_000,
        r.replayed,
        if skipped > 0 { format!(", {skipped} derived lines skipped") } else { String::new() }
    );

    let label_str = |l: &MetricLabel| match l {
        MetricLabel::None => String::new(),
        MetricLabel::Device(kind, idx) => format!(" [{}:{idx}]", kind.token()),
        MetricLabel::Tier(tier) => format!(" [{}]", tier.token()),
    };
    let monitor = HealthMonitor::standard();
    for view in &r.views {
        let mut t =
            TextTable::new(format!("run {}: totals", view.name())).header(&["metric", "value"]);
        let mut row = |name: &str, value: String| {
            t.row(vec![name.to_string(), value]);
        };
        let counter_mb = |view: &MetricsView, n: &str| fnum(view.counter(n) as f64 / 1e6, 2);
        if view.gauge("ranks") > 0 {
            row("ranks", view.gauge("ranks").to_string());
        }
        for name in ["iterations", "captures", "commits", "restores", "failures"] {
            if view.counter(name) > 0 {
                row(name, view.counter(name).to_string());
            }
        }
        let (eff, dirty) = (view.counter("capture_bytes"), view.counter("dirty_bytes"));
        if dirty > 0 {
            row("effective IB (MB)", counter_mb(view, "capture_bytes"));
            row("dirty-bit IB (MB)", counter_mb(view, "dirty_bytes"));
            row("content ratio", fnum(eff as f64 / dirty as f64, 3));
        }
        if view.counter("drain_batches") > 0 {
            row("drain batches", view.counter("drain_batches").to_string());
            row("drained (MB)", counter_mb(view, "drain_bytes"));
            row("drain depth max", view.gauge("drain_depth_max").to_string());
        }
        if view.counter("drain_torn_generations") > 0 {
            row("torn generations", view.counter("drain_torn_generations").to_string());
            row("torn (MB)", counter_mb(view, "drain_torn_bytes"));
        }
        if view.counter("stall_ns") > 0 {
            row("stall total (s)", fnum(view.counter("stall_ns") as f64 / 1e9, 3));
        }
        for name in ["admits", "rejects", "tenant_checkpoints"] {
            if view.counter(name) > 0 {
                row(name, view.counter(name).to_string());
            }
        }
        for (label, v) in view.counters_labeled("recovery_plans") {
            row(&format!("recovery plans{}", label_str(&label)), v.to_string());
        }
        for (label, v) in view.counters_labeled("device_busy_ns") {
            row(&format!("device busy (s){}", label_str(&label)), fnum(v as f64 / 1e9, 3));
        }
        println!("{}", t.render());

        let mut q = TextTable::new(format!("run {}: latency quantiles", view.name())).header(&[
            "histogram",
            "samples",
            "p50 (ms)",
            "p90 (ms)",
            "p99 (ms)",
            "max (ms)",
        ]);
        let mut any = false;
        for name in [
            "stall_ns",
            "capture_cost_ns",
            "drain_batch_ns",
            "admission_wait_ns",
            "tenant_stall_ns",
        ] {
            let Some(h) = view.histogram(name) else { continue };
            any = true;
            let ms = |v: Option<u64>| fnum(v.unwrap_or(0) as f64 / 1e6, 2);
            q.row(vec![
                name.to_string(),
                h.count().to_string(),
                ms(h.quantile(50)),
                ms(h.quantile(90)),
                ms(h.quantile(99)),
                ms(h.max()),
            ]);
        }
        if any {
            println!("{}", q.render());
        }

        let breaches = monitor.evaluate(view);
        if breaches.is_empty() {
            println!(
                "  health: all {} SLO rules pass over {} windows",
                monitor.rules().len(),
                view.window_count()
            );
        } else {
            let mut b = TextTable::new(format!("run {}: SLO breaches", view.name()))
                .header(&["rule", "window", "value", "limit"]);
            for r in &breaches {
                b.row(vec![
                    r.rule.to_string(),
                    r.window.to_string(),
                    r.value.to_string(),
                    r.limit.to_string(),
                ]);
            }
            println!("{}", b.render());
        }

        if show_windows {
            let wns = view.window_ns();
            let mut w = TextTable::new(format!("run {}: windows", view.name())).header(&[
                "window",
                "t (s)",
                "captures",
                "eff IB (MB/s)",
                "dirty IB (MB/s)",
                "drain (MB/s)",
                "depth",
                "busy (%)",
                "stall p99 (ms)",
                "rejects",
            ]);
            let per_s = |bytes: u64| fnum(bytes as f64 / 1e6 / (wns as f64 / 1e9), 2);
            for (i, acc) in view.windows() {
                w.row(vec![
                    i.to_string(),
                    fnum(i as f64 * wns as f64 / 1e9, 1),
                    acc.captures.to_string(),
                    per_s(acc.effective_ib_bytes),
                    per_s(acc.dirty_ib_bytes),
                    per_s(acc.drain_bytes),
                    acc.drain_depth_max.to_string(),
                    fnum(acc.busy_bp(wns) as f64 / 100.0, 1),
                    fnum(acc.stall.quantile(99).unwrap_or(0) as f64 / 1e6, 2),
                    acc.rejects.to_string(),
                ]);
            }
            println!("{}", w.render());
        }
    }
    println!("{} runs", r.views.len());
    0
}

/// `inspect --tenants`: the per-tenant service view of a JSONL trace
/// written by `repro --trace-out` — checkpoints, effective IB,
/// admission rejections, stall percentiles and each tenant's share of
/// the drained bytes, per run group. Folds the typed events itself,
/// not through a plane: exact nearest-rank percentiles need every
/// stall sample.
fn tenants_report(path: &str) -> i32 {
    let lines = read_trace(path);
    println!("tenant service view: {path}");
    #[derive(Default)]
    struct Acc {
        rejections: u64,
        drained_bytes: u64,
        /// One per completed checkpoint.
        stalls_ns: Vec<u64>,
        extent_ns: u64,
    }
    // (run, tenant id) → accumulator, from the tenant-lane events.
    let mut tenants: BTreeMap<(&str, u32), Acc> = BTreeMap::new();
    for line in &lines {
        let Some((Lane::Tenant(id), ev)) = line.to_timed() else { continue };
        let a = tenants.entry((&line.run, id)).or_default();
        a.extent_ns = a.extent_ns.max(ev.ts.0 + ev.dur.0);
        match ev.event {
            Event::AdmissionReject { .. } => a.rejections += 1,
            Event::TenantStall { bytes, .. } => {
                a.drained_bytes += bytes;
                a.stalls_ns.push(ev.dur.0);
            }
            _ => {}
        }
    }
    if tenants.is_empty() {
        println!("no tenant tracks in this trace (was the run multi-tenant?)");
        return 1;
    }
    let runs: BTreeSet<&str> = tenants.keys().map(|(run, _)| *run).collect();
    for run in runs {
        let in_run: Vec<(&u32, &Acc)> =
            tenants.iter().filter(|((r, _), _)| *r == run).map(|((_, id), a)| (id, a)).collect();
        let fleet_drained: u64 = in_run.iter().map(|(_, a)| a.drained_bytes).sum();
        let mut t = TextTable::new(format!("run {run}: {} tenants", in_run.len())).header(&[
            "tenant",
            "ckpts",
            "eff IB (MB/s)",
            "rejects",
            "p50 stall (ms)",
            "p99 stall (ms)",
            "drained share (%)",
        ]);
        // Listings elide past the threshold like rank tables; the
        // totals line still covers every tenant.
        for (i, (id, a)) in in_run.iter().enumerate() {
            if i >= MAX_LISTED_RANKS {
                let mut row = vec![String::new(); 7];
                row[0] = format!("… {} more tenants elided", in_run.len() - MAX_LISTED_RANKS);
                t.row(row);
                break;
            }
            t.row(vec![
                id.to_string(),
                a.stalls_ns.len().to_string(),
                fnum(a.drained_bytes as f64 / 1e6 / (a.extent_ns.max(1) as f64 / 1e9), 2),
                a.rejections.to_string(),
                fnum(percentile_ns(&a.stalls_ns, 50) as f64 / 1e6, 1),
                fnum(percentile_ns(&a.stalls_ns, 99) as f64 / 1e6, 1),
                fnum(a.drained_bytes as f64 * 100.0 / fleet_drained.max(1) as f64, 1),
            ]);
        }
        println!("{}", t.render());
        println!(
            "  totals: {} checkpoints, {} rejections, {} MB drained across {} tenants",
            in_run.iter().map(|(_, a)| a.stalls_ns.len()).sum::<usize>(),
            in_run.iter().map(|(_, a)| a.rejections).sum::<u64>(),
            fnum(fleet_drained as f64 / 1e6, 1),
            in_run.len(),
        );
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args.iter().position(|a| a == "--trace").and_then(|i| args.get(i + 1)) {
        std::process::exit(trace_report(path));
    }
    if let Some(path) = args.iter().position(|a| a == "--tenants").and_then(|i| args.get(i + 1)) {
        std::process::exit(tenants_report(path));
    }
    if let Some(path) = args.iter().position(|a| a == "--metrics").and_then(|i| args.get(i + 1)) {
        let show_windows = args.iter().any(|a| a == "--windows");
        std::process::exit(metrics_report(path, show_windows));
    }
    let Some(dir) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: inspect <checkpoint-dir> [--rank N] | inspect --trace <file.jsonl> | \
             inspect --tenants <file.jsonl> | inspect --metrics <file.jsonl> [--windows]"
        );
        std::process::exit(2);
    };
    let only_rank: Option<u32> = match args.iter().position(|a| a == "--rank") {
        None => None,
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(rank)) => Some(rank),
            _ => {
                eprintln!("--rank takes a rank number");
                std::process::exit(2);
            }
        },
    };
    // `FileStore::open` creates a missing directory; an inspection
    // must not.
    if let Err(e) = std::fs::read_dir(dir) {
        eprintln!("cannot open {dir}: {e}");
        std::process::exit(2);
    }
    let store = match FileStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            std::process::exit(2);
        }
    };
    if store_report(&store, dir, only_rank) > 0 {
        std::process::exit(1);
    }
}

/// Print the checkpoint store at `dir`: committed generations, each
/// rank's chunk chain and restore plan, every chunk's CRC checked.
/// Returns the integrity problems found — a listing error among them.
fn store_report(store: &dyn StableStorage, dir: &str, only_rank: Option<u32>) -> usize {
    let mut problems = 0usize;

    // ---- Manifests ----
    println!("checkpoint store: {dir}");
    let manifest_gens = store.list_manifests().unwrap_or_else(|e| {
        problems += 1;
        println!("  !! cannot list manifests: {e}");
        Vec::new()
    });
    if manifest_gens.is_empty() {
        println!("no committed manifests found");
    }
    let mut mtable = TextTable::new("committed generations").header(&[
        "generation",
        "commit t",
        "ranks",
        "complete",
        "payload",
    ]);
    let mut nranks = 0u32;
    for &g in &manifest_gens {
        match store.get_manifest(g).and_then(|d| Manifest::decode(&d)) {
            Ok(m) => {
                nranks = nranks.max(m.nranks);
                if !m.is_complete() {
                    problems += 1;
                }
                mtable.row(vec![
                    g.to_string(),
                    format!("{:.1}s", m.commit_time_ns as f64 / 1e9),
                    m.nranks.to_string(),
                    if m.is_complete() { "yes".into() } else { "NO".to_string() },
                    format!("{:.2} MB", m.total_payload_bytes() as f64 / 1e6),
                ]);
            }
            Err(e) => {
                problems += 1;
                mtable.row(vec![
                    g.to_string(),
                    "?".into(),
                    "?".into(),
                    format!("CORRUPT: {e}"),
                    "-".into(),
                ]);
            }
        }
    }
    println!("{}", mtable.render());

    // ---- Per-rank chains ----
    let ranks: Vec<u32> = match only_rank {
        Some(r) => vec![r],
        None => (0..nranks.max(1)).collect(),
    };
    // Every rank is verified (CRC, lineage, chain shape); listings are
    // elided above the threshold so 5-digit rank counts stay readable.
    let mut elided = 0usize;
    let mut total_bytes = 0u64;
    for (idx, rank) in ranks.iter().copied().enumerate() {
        let listed = only_rank.is_some() || idx < MAX_LISTED_RANKS;
        if !listed {
            elided += 1;
        }
        let gens = store.list_generations(rank).unwrap_or_else(|e| {
            problems += 1;
            println!("  !! rank {rank}: cannot list chunks: {e}");
            Vec::new()
        });
        if gens.is_empty() {
            if listed {
                println!("rank {rank}: no chunks");
            }
            continue;
        }
        let mut t = TextTable::new(format!("rank {rank} chunks")).header(&[
            "gen",
            "kind",
            "parent",
            "captured t",
            "stored pages",
            "zero pages",
            "dropped",
            "delta",
            "bytes",
            "crc",
        ]);
        let mut known: std::collections::BTreeSet<u64> = gens.iter().copied().collect();
        let mut decoded: std::collections::BTreeMap<u64, Chunk> = std::collections::BTreeMap::new();
        for &g in &gens {
            let read = store.get_chunk(ChunkKey::new(rank, g));
            total_bytes += read.as_ref().map_or(0, |data| data.len() as u64);
            match read {
                Ok(data) => match Chunk::decode(&data) {
                    Ok(c) => {
                        // Lineage check: parents must exist.
                        if let Some(p) = c.parent {
                            if !known.contains(&p) {
                                problems += 1;
                                known.insert(p); // report once
                                println!("  !! rank {rank} gen {g}: missing parent {p}");
                            }
                        }
                        t.row(vec![
                            g.to_string(),
                            match c.kind {
                                ChunkKind::Full => "full".into(),
                                ChunkKind::Incremental => "incr".to_string(),
                            },
                            c.parent.map_or("-".into(), |p| p.to_string()),
                            format!("{:.1}s", c.capture_time_ns as f64 / 1e9),
                            c.payload_pages().to_string(),
                            c.zero_pages().to_string(),
                            c.dropped_pages.to_string(),
                            c.delta_records.len().to_string(),
                            data.len().to_string(),
                            "ok".into(),
                        ]);
                        decoded.insert(g, c);
                    }
                    Err(e) => {
                        problems += 1;
                        t.row(broken_chunk_row(g, data.len().to_string(), format!("CORRUPT: {e}")));
                    }
                },
                Err(e) => {
                    problems += 1;
                    t.row(broken_chunk_row(g, "-".into(), format!("UNREADABLE: {e}")));
                }
            }
        }
        if listed {
            println!("{}", t.render());
        }

        // ---- Restore-plan statistics for the newest chain ----
        // Walk parents from the newest decoded generation, then build
        // the latest-wins plan to show where chain bloat lives: dead
        // (superseded) page records a planned restore never decodes
        // and compaction would reclaim.
        let mut chain: Vec<&Chunk> = Vec::new();
        let mut cursor = decoded.keys().next_back().copied();
        while let Some(g) = cursor {
            let Some(c) = decoded.get(&g) else { break };
            chain.push(c);
            cursor = c.parent;
        }
        if chain.last().map(|c| c.kind) == Some(ChunkKind::Full) {
            if !listed {
                continue;
            }
            chain.reverse(); // base first
            let plan = RestorePlan::build(&chain, None);
            let mut pt = TextTable::new(format!(
                "rank {rank} restore plan (newest chain, {} chunks)",
                chain.len()
            ))
            .header(&["gen", "live pages", "live zero", "dead pages", "skipped MB"]);
            for s in &plan.per_chunk {
                pt.row(vec![
                    s.generation.to_string(),
                    s.live_pages.to_string(),
                    s.live_zero_pages.to_string(),
                    (s.superseded_pages + s.excluded_pages).to_string(),
                    fnum(s.skipped_payload_bytes() as f64 / 1e6, 2),
                ]);
            }
            println!("{}", pt.render());
            println!(
                "  planned restore decodes {} MB of page payload, skips {} MB dead \
                 ({} of {} stored pages live)",
                fnum(plan.planned_payload_bytes() as f64 / 1e6, 2),
                fnum(plan.skipped_payload_bytes() as f64 / 1e6, 2),
                plan.applied_pages(),
                plan.per_chunk.iter().map(|s| s.stored_pages + s.stored_zero_pages).sum::<u64>(),
            );
            let dead_bytes = plan.skipped_payload_bytes();
            if dead_bytes > plan.planned_payload_bytes() / 2 {
                println!(
                    "  hint: >33% of stored payload is dead — `gc` compaction would \
                     drop {} MB and cut restore reads",
                    fnum(dead_bytes as f64 / 1e6, 2)
                );
            }
        } else if !decoded.is_empty() {
            problems += 1;
            println!("  !! rank {rank}: newest chain does not reach a full chunk");
        }

        // ---- Content-layer statistics across the rank's chain ----
        // What dedup + delta encoding saved relative to dirty-bit
        // accounting (which would have shipped every one of these
        // pages whole).
        let dropped: u64 = decoded.values().map(|c| c.dropped_pages).sum();
        let delta_pages: u64 = decoded.values().map(|c| c.delta_records.len() as u64).sum();
        if listed && (dropped > 0 || delta_pages > 0) {
            let delta_blocks: u64 = decoded
                .values()
                .flat_map(|c| &c.delta_records)
                .map(|d| u64::from(d.mask.count_ones()))
                .sum();
            let delta_stored = delta_blocks * 256 + delta_pages * 16;
            let saved = dropped * 4096 + (delta_pages * 4096).saturating_sub(delta_stored);
            println!(
                "  content layer: {} silent-same pages dropped, {} pages delta-encoded \
                 (mean delta ratio {}), {} MB saved vs dirty-bit accounting",
                dropped,
                delta_pages,
                fnum(delta_stored as f64 / (delta_pages.max(1) * 4096) as f64, 2),
                fnum(saved as f64 / 1e6, 2),
            );
        }
    }
    if elided > 0 {
        println!("… {elided} more ranks elided (all verified; pass --rank N to list one in full)");
    }

    // ---- Summary ----
    println!(
        "total: {} generations committed, {} MB of checkpoint chunks read, {} problem(s)",
        manifest_gens.len(),
        fnum(total_bytes as f64 / 1e6, 2),
        problems
    );
    problems
}

/// A chunk-table row for a chunk that did not decode: its size and
/// what went wrong, after placeholders for what only decoding yields.
fn broken_chunk_row(generation: u64, size: String, error: String) -> Vec<String> {
    let mut row = vec![generation.to_string()];
    row.extend(["?", "?", "?", "-", "-", "-", "-"].map(String::from));
    row.extend([size, error]);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickpt::storage::{ChunkBuf, StorageError};

    /// An empty store whose listings fail.
    struct Unlistable;

    fn listing_failed() -> StorageError {
        StorageError::Io(std::io::Error::other("listing failed"))
    }

    impl StableStorage for Unlistable {
        fn store_chunk(&self, _: ChunkKey, _: ChunkBuf) -> Result<(), StorageError> {
            Ok(())
        }
        fn read_chunk(&self, key: ChunkKey) -> Result<ChunkBuf, StorageError> {
            Err(StorageError::NotFound(key))
        }
        fn delete_chunk(&self, _: ChunkKey) -> Result<(), StorageError> {
            Ok(())
        }
        fn list_generations(&self, _: u32) -> Result<Vec<u64>, StorageError> {
            Err(listing_failed())
        }
        fn put_manifest(&self, _: u64, _: &[u8]) -> Result<(), StorageError> {
            Ok(())
        }
        fn get_manifest(&self, generation: u64) -> Result<Vec<u8>, StorageError> {
            Err(StorageError::ManifestNotFound(generation))
        }
        fn list_manifests(&self) -> Result<Vec<u64>, StorageError> {
            Err(listing_failed())
        }
        fn delete_manifest(&self, _: u64) -> Result<(), StorageError> {
            Ok(())
        }
    }

    /// A store that cannot list its manifests or a rank's chunks is not
    /// an empty one: each failed listing is a problem.
    #[test]
    fn a_listing_error_is_a_problem() {
        assert_eq!(store_report(&Unlistable, "unlistable", None), 2);
        assert_eq!(store_report(&Unlistable, "unlistable", Some(5)), 2);
    }
}
