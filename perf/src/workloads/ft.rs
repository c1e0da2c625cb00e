//! `ft_cluster`: the whole fault-tolerant system in one call —
//! `cluster::run_fault_tolerant` on the thread-per-rank path, with XOR
//! parity, a tiered store, a tree drain and one node loss.

use std::sync::Arc;
use std::time::Instant;

use ickpt::apps::{AppModel, Workload as App};
use ickpt::cluster::{
    run_fault_tolerant, CheckpointMode, FailureSpec, FaultTolerantConfig, RedundancyConfig,
    RunError, RunOutcome, RunReport, StoragePath,
};
use ickpt::core::CheckpointPolicy;
use ickpt::mem::WriteProfile;
use ickpt::net::NetConfig;
use ickpt::obs::Recorder;
use ickpt::sim::{DevicePreset, SimDuration, SimTime};
use ickpt::storage::{
    xor_encode, xor_reconstruct, ChunkKey, DrainTopology, MemStore, RecoverySource, SchemeSpec,
    StableStorage,
};

use super::{Checks, Layers, Params, PassOut, Workload};
use crate::spans::{Tracer, ROOT};
use crate::stats;

const APP: App = App::Sage50;

/// What a run is generated from.
#[derive(Debug, Clone, Copy)]
struct Shape {
    seed: u64,
    scale: f64,
    iterations: u64,
}

pub struct FtCluster {
    shape: Shape,
    nranks: usize,
    fail_at: SimTime,
    /// Failure-free run of the same configuration: the digests every
    /// recovered run must reproduce.
    reference: RunReport,
    pass_s: Vec<f64>,
    last: Option<(RunReport, Arc<MemStore>)>,
}

fn run(
    shape: Shape,
    nranks: usize,
    failures: Vec<FailureSpec>,
) -> (Result<RunReport, RunError>, Arc<MemStore>) {
    let store = Arc::new(MemStore::new());
    let cfg = FaultTolerantConfig {
        nranks,
        max_iterations: shape.iterations,
        timeslice: SimDuration::from_secs(1),
        policy: CheckpointPolicy::incremental(SimDuration::from_secs(40), 4),
        store: store.clone(),
        device: DevicePreset::ScsiDisk,
        mode: CheckpointMode::StopAndCopy,
        storage_path: StoragePath::Shared,
        failures,
        net: NetConfig::qsnet(),
        max_attempts: 3,
        redundancy: Some(RedundancyConfig {
            scheme: SchemeSpec::XorParity { group_size: 4 },
            local_device: DevicePreset::NodeLocal,
            drain_every: 2,
            drain_topology: DrainTopology::Tree { arity: 4 },
        }),
        obs: Recorder::disabled(),
        dedup: Some(true),
        write_profile: WriteProfile::Scientific,
    };
    let build = move |rank: usize| -> Box<dyn AppModel> {
        Box::new(APP.build(rank, nranks, shape.scale, shape.seed))
    };
    (run_fault_tolerant(&cfg, APP.layout(shape.scale), build), store)
}

impl FtCluster {
    pub fn new(p: &Params) -> Self {
        let (nranks, scale, iterations, fail_at) =
            if p.quick { (8, 0.02, 8, 100) } else { (8, 0.25, 12, 130) };
        let shape = Shape { seed: p.seed, scale, iterations };
        let (reference, _) = run(shape, nranks, Vec::new());
        FtCluster {
            shape,
            nranks,
            fail_at: SimTime::from_secs(fail_at),
            reference: reference.expect("failure-free reference run completes"),
            pass_s: Vec::new(),
            last: None,
        }
    }

    /// XOR parity encode and reconstruct over real chunks of the last
    /// run (one drained generation of the first parity group).
    fn xor_layers(&self, store: &MemStore, out: &mut Layers) {
        let Some(generation) = store.list_generations(0).ok().and_then(|gens| gens.last().copied())
        else {
            return;
        };
        let members: Vec<Vec<u8>> =
            (0..4u32).filter_map(|r| store.get_chunk(ChunkKey::new(r, generation)).ok()).collect();
        if members.len() < 2 {
            return;
        }
        let views: Vec<(u32, &[u8])> =
            members.iter().enumerate().map(|(r, d)| (r as u32, d.as_slice())).collect();
        let bytes: usize = members.iter().map(Vec::len).sum();
        // Chunks of this run are a few MB: repeat to get a timing well
        // above the clock's resolution.
        let reps = (256usize << 20).div_ceil(bytes.max(1)).clamp(1, 4096);
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(xor_encode(0, generation, std::hint::black_box(&views)).len());
        }
        let encode_s = t.elapsed().as_secs_f64();
        let parity = xor_encode(0, generation, &views);
        let survivors: Vec<(u32, &[u8])> = views.iter().filter(|(r, _)| *r != 1).copied().collect();
        let t = Instant::now();
        for _ in 0..reps {
            let rebuilt = xor_reconstruct(&parity, std::hint::black_box(&survivors), 1)
                .expect("parity of intact members reconstructs");
            std::hint::black_box(rebuilt.len());
        }
        let reconstruct_s = t.elapsed().as_secs_f64();
        let gb = (bytes * reps) as f64 / 1e9;
        out.insert("redundancy.xor_encode_gbps", gb / encode_s);
        out.insert("redundancy.xor_reconstruct_gbps", gb / reconstruct_s);
    }
}

impl Workload for FtCluster {
    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("code", APP.name().to_string()),
            ("ranks", self.nranks.to_string()),
            ("scale", self.shape.scale.to_string()),
            ("iterations", self.shape.iterations.to_string()),
            ("scheme", "xor-parity/4, node-local tier, drain every 2, tree/4".to_string()),
            ("failure", format!("node loss of rank 3 at {} s", self.fail_at.as_secs_f64())),
        ]
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> PassOut {
        let root = tr.begin(ROOT);
        let open = tr.begin("cluster.run_fault_tolerant");
        let (result, store) =
            run(self.shape, self.nranks, vec![FailureSpec::node_loss(3, self.fail_at)]);
        tr.end(open);
        let secs = tr.end(root);
        self.pass_s.push(secs);
        checks.check("run completes", {
            matches!(&result, Ok(r) if r.outcome == RunOutcome::Completed)
        });
        let report = result.ok();
        checks.check("exactly one recovery, reconstructed from parity", {
            report.as_ref().is_some_and(|r| {
                r.recoveries.len() == 1 && r.recoveries[0].source == RecoverySource::Reconstructed
            })
        });
        // Only content digests: virtual times of a failure run depend
        // on the host schedule of the thread-per-rank path.
        checks.check("every rank's image equals the failure-free reference", {
            report.as_ref().is_some_and(|r| {
                r.ranks.len() == self.reference.ranks.len()
                    && r.ranks.iter().zip(&self.reference.ranks).all(|(a, b)| {
                        a.content_digest.is_some() && a.content_digest == b.content_digest
                    })
            })
        });
        // Work is the failure-free run's span, which is deterministic.
        let work: f64 = self.reference.ranks.iter().map(|r| r.final_time.as_secs_f64()).sum();
        let mut extra = Vec::new();
        if let Some(report) = report {
            let stored: u64 = report.ranks.iter().map(|r| r.checkpoint_bytes).sum();
            let saved: u64 = report.ranks.iter().map(|r| r.content.saved_bytes()).sum();
            if stored + saved > 0 {
                extra.push(("store.stored_ratio", stored as f64 / (stored + saved) as f64));
            }
            self.last = Some((report, store));
        }
        PassOut { secs, work, extra }
    }

    fn digest(&self) -> u64 {
        let mut d = 0u64;
        for r in &self.reference.ranks {
            d = super::fold_digest(d, r.content_digest.unwrap_or(0));
        }
        d
    }

    fn layers(&mut self, _tr: &mut Tracer, out: &mut Layers) {
        // Failure-free runs timed here, not in set-up: the set-up run
        // also pays the process's first touch of all its memory.
        let failure_free_s = |nranks: usize| {
            let t = Instant::now();
            let (report, _) = run(self.shape, nranks, Vec::new());
            std::hint::black_box(report.is_ok());
            t.elapsed().as_secs_f64()
        };
        let with_failure_s = stats::median(&self.pass_s);
        let full_s = failure_free_s(self.nranks);
        out.insert("ft.failure_free_s", full_s);
        out.insert("ft.with_failure_s", with_failure_s);
        out.insert("ft.recovery_extra_s", with_failure_s - full_s);
        out.insert("ft.ranks8_s", full_s);
        out.insert("ft.ranks4_s", failure_free_s(self.nranks / 2));
        let Some((report, store)) = &self.last else { return };
        let sum = |f: &dyn Fn(&ickpt::cluster::RankReport) -> u64| -> f64 {
            report.ranks.iter().map(f).sum::<u64>() as f64
        };
        out.insert("ft.attempts", f64::from(report.attempts));
        out.insert("ft.checkpoints", sum(&|r| r.checkpoints));
        out.insert("ft.checkpoint_bytes", sum(&|r| r.checkpoint_bytes));
        out.insert("net.bytes_received", sum(&|r| r.bytes_received));
        out.insert("redundancy.local_bytes", sum(&|r| r.tier.map_or(0, |t| t.local_bytes)));
        out.insert("redundancy.parity_bytes", sum(&|r| r.tier.map_or(0, |t| t.redundancy_bytes)));
        if let Some(d) = &report.drain {
            out.insert("drain.batches", d.drained_generations as f64);
            out.insert("drain.bytes", d.drained_bytes as f64);
            out.insert("drain.torn_bytes", d.torn_bytes as f64);
        }
        self.xor_layers(store, out);
    }
}
