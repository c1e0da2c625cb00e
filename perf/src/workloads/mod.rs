//! The seven workloads behind one interface: set up, run timed passes,
//! check outputs, and (traced run only) replay each layer alone.

use std::collections::BTreeMap;

use std::time::Instant;

use ickpt::sim::{EventWheel, SimTime, SplitMix64};

use crate::spans::Tracer;

pub mod charz;
pub mod ckpt;
pub mod ft;
pub mod obs;
pub mod svc;

/// What every workload is generated from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Feeds every generated input.
    pub seed: u64,
    /// Worker threads handed to every layer that takes a count.
    pub threads: usize,
    /// Tiny sizes: the harness's own smoke test, numbers meaningless.
    pub quick: bool,
}

/// Correctness checks are part of the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(|| name.to_string());
        }
    }
}

/// One timed pass: its wall time and the work it completed.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    pub secs: f64,
    /// Work units completed (the numerator of `work_per_s`).
    pub work: f64,
    /// Further per-pass values (phase rates, counts) by metric name;
    /// the run reports each one's median.
    pub extra: Vec<(&'static str, f64)>,
}

/// Per-layer values of a traced run, by registry name.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Input sizes for the result header, `key=value` pairs.
    fn describe(&self) -> Vec<(&'static str, String)>;

    /// One pass. Opens the root `pass` span around exactly the work
    /// `secs` covers; output checks run after it closes.
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> PassOut;

    /// A value that must repeat exactly between two commits.
    fn digest(&self) -> u64;

    /// Traced run only: each layer alone on the same generated inputs,
    /// plus counts read from the reports of the last pass.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers);
}

/// Build a workload by name. Each call generates the inputs afresh and
/// runs the reference the checks compare against: this is what
/// `setup_s` times.
pub fn build(name: &str, p: &Params) -> Option<Box<dyn Workload>> {
    Some(match name {
        "charz_64" => Box::new(charz::Charz::charz_64(p)),
        "scale_4k" => Box::new(charz::Charz::scale_4k(p)),
        "ckpt_chain" => Box::new(ckpt::Ckpt::new(p, ckpt::Content::Chain)),
        "ckpt_content" => Box::new(ckpt::Ckpt::new(p, ckpt::Content::Scientific)),
        "ft_cluster" => Box::new(ft::FtCluster::new(p)),
        "svc_fleet" => Box::new(svc::SvcFleet::new(p)),
        "obs_replay" => Box::new(obs::ObsReplay::new(p)),
        _ => return None,
    })
}

/// Order-sensitive fold of `u64` fields into a digest.
pub fn fold_digest(acc: u64, value: u64) -> u64 {
    SplitMix64::new(acc ^ value.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// The event wheel alone (`sim.wheel_ns_per_event`): push `events` items at pseudo-random instants within a one-second
/// horizon of the moving front, popping as the wheel would in a run.
pub fn wheel_ns_per_event(events: u64, seed: u64) -> f64 {
    let mut wheel: EventWheel<u64> = EventWheel::new();
    let mut rng = SplitMix64::new(seed ^ 0xE7E7_77EE);
    let mut now = 0u64;
    let started = Instant::now();
    let mut popped = 0u64;
    for i in 0..events {
        wheel.push(SimTime(now + rng.next_below(1_000_000_000)), i);
        // Keep a standing population of a few thousand events.
        if wheel.len() > 4096 {
            if let Some((t, item)) = wheel.pop() {
                now = t.0;
                popped += std::hint::black_box(item) & 1;
            }
        }
    }
    while let Some((_, item)) = wheel.pop() {
        popped += std::hint::black_box(item) & 1;
    }
    std::hint::black_box(popped);
    started.elapsed().as_secs_f64() * 1e9 / events as f64
}
