//! Determinism guarantees: every simulated run is a pure function of
//! its configuration and seed, independent of OS thread scheduling.
//! This is what makes the reproduction's numbers citable — re-running
//! any experiment gives bit-identical output.

use std::sync::Arc;

use ickpt::apps::codec::CodecError;
use ickpt::apps::step::Phase;
use ickpt::apps::synthetic::{SyntheticApp, SyntheticConfig};
use ickpt::apps::{AppModel, Step};
use ickpt::cluster::{
    characterize_model, run_fault_tolerant, CharacterizationConfig, CheckpointMode, FailureSpec,
    FaultTolerantConfig, RedundancyConfig, ReportDetail, StoragePath,
};
use ickpt::core::coordinator::CheckpointPolicy;
use ickpt::mem::{AddressSpace, LayoutBuilder, MemError, PAGE_SIZE};
use ickpt::net::NetConfig;
use ickpt::obs::{jsonl, FlightRecorder, MetricsPlane, Recorder};
use ickpt::sim::{DevicePreset, SimDuration, SimTime, SplitMix64};
use ickpt::storage::{DrainTopology, MemStore, SchemeSpec};

/// One iteration of a randomized-but-seeded communication script. All
/// ranks derive the same step kinds from the seed, so sends and
/// receives pair up; per-rank payloads vary.
struct ScriptApp {
    seed: u64,
    rank: usize,
    nranks: usize,
    steps: usize,
    done: u64,
}

impl AppModel for ScriptApp {
    fn name(&self) -> String {
        "random-script".into()
    }

    fn init(&mut self, space: &mut dyn AddressSpace) -> Result<Phase, MemError> {
        space.heap_grow(4)?;
        Ok(Phase { steps: vec![], ends_iteration: false })
    }

    fn next_phase(&mut self, _space: &mut dyn AddressSpace) -> Result<Phase, MemError> {
        let (rank, nranks) = (self.rank, self.nranks);
        let mut script = SplitMix64::new(self.seed);
        let mut mine = SplitMix64::for_rank(self.seed, rank);
        let mut steps = Vec::new();
        for step in 0..self.steps {
            match script.next_below(4) {
                0 => {
                    // Ring exchange with per-rank payloads.
                    let bytes = 1 + mine.next_below(100_000);
                    steps.push(Step::Send { to: (rank + 1) % nranks, tag: step as u32, bytes });
                    steps.push(Step::Recv {
                        from: (rank + nranks - 1) % nranks,
                        tag: step as u32,
                        into: None,
                    });
                }
                1 => steps.push(Step::Barrier),
                2 => steps.push(Step::Allreduce { bytes: script.next_below(10_000) }),
                _ => steps.push(Step::AllToAll {
                    bytes_per_pair: 1 + script.next_below(50_000),
                    into: None,
                }),
            }
        }
        self.done += 1;
        Ok(Phase { steps, ends_iteration: true })
    }

    fn iterations_done(&self) -> u64 {
        self.done
    }

    fn save_state(&self) -> Vec<u8> {
        self.done.to_le_bytes().to_vec()
    }

    fn restore_state(&mut self, _state: &[u8]) -> Result<(), CodecError> {
        unreachable!("characterization never restores")
    }
}

/// Run the script of `seed` over `nranks` ranks on the engine and
/// return each rank's final virtual clock and received byte count.
fn run_script(seed: u64, nranks: usize, steps: usize, workers: usize) -> Vec<(SimTime, u64)> {
    let layout = LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(4 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build();
    let cfg = CharacterizationConfig {
        nranks,
        // Stop at the first iteration boundary: the script is one
        // iteration.
        run_for: SimDuration(1),
        workers: Some(workers),
        detail: ReportDetail::compact(),
        ..Default::default()
    };
    let report = characterize_model(&cfg, layout, |rank| {
        Box::new(ScriptApp { seed, rank, nranks, steps, done: 0 })
    });
    report.ranks.iter().map(|r| (r.final_time, r.bytes_received)).collect()
}

#[test]
fn randomized_communication_scripts_are_schedule_independent() {
    for seed in [1u64, 42, 0xDEAD] {
        let a = run_script(seed, 4, 60, 1);
        let b = run_script(seed, 4, 60, 2);
        let c = run_script(seed, 4, 60, 8);
        assert_eq!(a, b, "seed {seed}: two runs diverged");
        assert_eq!(b, c, "seed {seed}: third run diverged");
        // Different seeds must actually exercise different timings.
        assert_ne!(run_script(seed ^ 1, 4, 60, 1), a);
    }
}

#[test]
fn randomized_scripts_are_identical_at_any_worker_count() {
    // Enough ranks that every round of the advance phase fans out over
    // the worker threads (the sparse engine's threshold is 2048).
    for seed in [7u64, 0xBEEF] {
        let one = run_script(seed, 2304, 24, 1);
        assert!(one.iter().all(|&(t, bytes)| t > SimTime::ZERO && bytes > 0));
        for workers in [2usize, 8] {
            assert_eq!(one, run_script(seed, 2304, 24, workers), "seed {seed} @ {workers} workers");
        }
    }
}

#[test]
fn determinism_holds_across_rank_counts() {
    for nranks in [2usize, 3, 8] {
        let a = run_script(7, nranks, 40, 1);
        let b = run_script(7, nranks, 40, 4);
        assert_eq!(a, b, "{nranks} ranks");
    }
}

fn synthetic_layout() -> ickpt::mem::DataLayout {
    LayoutBuilder::new()
        .static_bytes(PAGE_SIZE)
        .heap_capacity_bytes(2048 * PAGE_SIZE)
        .mmap_capacity_bytes(PAGE_SIZE)
        .build()
}

/// The determinism-suite run: 3 ranks of the synthetic app, incremental
/// checkpoints every 3 s, one failure of rank 1 six seconds in.
fn ft_cfg(storage_path: StoragePath, failure: FailureSpec, obs: Recorder) -> FaultTolerantConfig {
    FaultTolerantConfig {
        nranks: 3,
        max_iterations: 10,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(3), 0),
        store: Arc::new(MemStore::new()),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path,
        failures: vec![failure],
        net: NetConfig::qsnet(),
        max_attempts: 3,
        redundancy: None,
        obs,
        dedup: None,
        write_profile: Default::default(),
    }
}

/// Run `cfg` (built around the given recorder) and return everything a
/// consumer can observe: the whole `RunReport` — every virtual time,
/// `wasted`, stalls, commit lag, recoveries, drain stats, the recorder
/// summary — then the JSONL trace export and the metrics snapshot.
fn observe(mk: impl Fn(Recorder) -> FaultTolerantConfig) -> [String; 3] {
    let fr = FlightRecorder::with_default_capacity();
    fr.name_group(0, "determinism");
    let plane = MetricsPlane::new(SimDuration::from_secs(1));
    plane.name_group(0, "determinism");
    let cfg = mk(Recorder::new(fr.clone()).with_metrics(plane.clone()));
    let nranks = cfg.nranks;
    let report = run_fault_tolerant(&cfg, synthetic_layout(), |rank| {
        Box::new(SyntheticApp::new(SyntheticConfig {
            exchange_bytes: 4096,
            rank,
            nranks,
            ..Default::default()
        }))
    })
    .unwrap();
    assert_eq!(report.attempts, 2, "one failure, one recovery");
    let trace = jsonl(&fr.snapshot());
    assert!(!trace.is_empty(), "the instrumented run must record events");
    [format!("{report:#?}"), trace, plane.render_text()]
}

type MkConfig = Box<dyn Fn(Recorder) -> FaultTolerantConfig>;

/// The three storage shapes of a fault-tolerant run, each with one
/// failure of rank 1.
fn ft_configs() -> [(&'static str, MkConfig); 3] {
    let process = FailureSpec::process(1, SimTime::from_secs(6));
    let node_loss = FailureSpec::node_loss(1, SimTime::from_secs(6));
    [
        (
            "per-rank disks, process failure",
            Box::new(move |obs| ft_cfg(StoragePath::PerRank, process, obs)),
        ),
        // Every rank queues on one array: the order the array serves
        // them in must not depend on the host schedule.
        (
            "shared array, process failure",
            Box::new(move |obs| ft_cfg(StoragePath::Shared, process, obs)),
        ),
        (
            "tiered XOR, node loss",
            Box::new(move |obs| FaultTolerantConfig {
                redundancy: Some(RedundancyConfig {
                    scheme: SchemeSpec::XorParity { group_size: 3 },
                    local_device: DevicePreset::NodeLocal,
                    drain_every: 2,
                    drain_topology: DrainTopology::Flat,
                }),
                ..ft_cfg(StoragePath::Shared, node_loss, obs)
            }),
        ),
    ]
}

const OBSERVED: [&str; 3] = ["RunReport", "trace export", "metrics snapshot"];

#[test]
fn fault_tolerant_recovery_is_deterministic_too() {
    for (what, mk) in &ft_configs() {
        let first = observe(mk);
        for run in 1..5 {
            let again = observe(mk);
            for (i, part) in OBSERVED.iter().enumerate() {
                assert_eq!(first[i], again[i], "{what}: run {run} produced a different {part}");
            }
        }
    }
}

#[test]
fn fault_tolerant_runs_are_identical_at_any_worker_count() {
    // A fault-tolerant run takes its engine worker count from the
    // environment only. Changing it while the other tests of this
    // binary run is harmless for exactly the property under test: no
    // result depends on it.
    let with_workers = |workers: &str, mk: &MkConfig| {
        std::env::set_var("ICKPT_SIM_WORKERS", workers);
        observe(mk)
    };
    for (what, mk) in &ft_configs() {
        let one = with_workers("1", mk);
        for workers in ["2", "8"] {
            let many = with_workers(workers, mk);
            for (i, part) in OBSERVED.iter().enumerate() {
                assert_eq!(one[i], many[i], "{what}: {workers} workers changed the {part}");
            }
        }
    }
    std::env::remove_var("ICKPT_SIM_WORKERS");
}

/// The flight recorder inherits the simulation's determinism: a traced
/// run exports byte-identical JSONL and Chrome JSON every time, the
/// Chrome export is well-formed, and per-track virtual timestamps are
/// monotone.
#[test]
fn flight_recorder_export_is_deterministic() {
    use ickpt::obs::{chrome_trace, parse_jsonl, validate_json};
    use std::collections::BTreeMap;

    let traced_run = || {
        let fr = FlightRecorder::with_default_capacity();
        fr.name_group(0, "determinism");
        let failure = FailureSpec::process(1, SimTime::from_secs(6));
        let cfg = ft_cfg(StoragePath::PerRank, failure, Recorder::new(fr.clone()));
        run_fault_tolerant(&cfg, synthetic_layout(), |rank| {
            Box::new(SyntheticApp::new(SyntheticConfig {
                exchange_bytes: 4096,
                rank,
                nranks: 3,
                ..Default::default()
            }))
        })
        .unwrap();
        let snap = fr.snapshot();
        (jsonl(&snap), chrome_trace(&snap))
    };
    let (jl_a, chrome_a) = traced_run();
    let (jl_b, chrome_b) = traced_run();
    assert_eq!(jl_a, jl_b, "JSONL export must be byte-identical run to run");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-identical run to run");
    assert!(!jl_a.is_empty(), "the instrumented run must record events");

    validate_json(&chrome_a).expect("Chrome trace is well-formed JSON");

    // Per-track monotone virtual time, and all the expected lanes show
    // up (3 rank lanes + per-rank storage device lanes + run lane).
    let events = parse_jsonl(&jl_a).expect("exporter output parses back");
    let mut last: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &events {
        let prev = last.entry(&*ev.track).or_insert(0);
        assert!(ev.ts >= *prev, "track {} goes backwards: {} after {}", ev.track, ev.ts, prev);
        *prev = ev.ts;
    }
    for track in ["run", "rank0", "rank1", "rank2", "dev:storage:0"] {
        assert!(last.contains_key(track), "expected track {track} in trace");
    }
    // The injected failure must surface as recovery events on the run
    // lane.
    assert!(events.iter().any(|e| &*e.name == "failure"), "failure event recorded");
    assert!(events.iter().any(|e| &*e.name == "recovery_plan"), "recovery plan recorded");
}
