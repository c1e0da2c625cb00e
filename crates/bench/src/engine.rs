//! The standard experiment runs and the deterministic parallel
//! scheduler.
//!
//! ## Standard runs
//!
//! Every characterization experiment measures IWS/IB the way the
//! paper does (§6.1): it runs the code at each timeslice it reports.
//! The entry points here fix the bench configuration (scale, seed,
//! run lengths) and run [`characterize`] with
//! [`ReportDetail::compact`] — the experiments read rank 0's series
//! and the exact integer summaries, which compact reports keep — and
//! record live into the caller's [`Recorder`].
//!
//! ## Deterministic parallel scheduling
//!
//! [`parallel_map`] fans work out on scoped threads behind a global
//! permit gate of `crate::bench_threads` slots, and collects results
//! *by input index*, so output assembly is independent of completion
//! order. Experiment code renders into strings and never prints from
//! workers; with `ICKPT_BENCH_THREADS=1` (or a single item) the map
//! degenerates to a strictly serial inline loop. Nested maps release
//! the caller's permit while joining children, so the gate can never
//! deadlock.

use std::sync::{Condvar, Mutex, OnceLock};

use ickpt::apps::Workload;
use ickpt::cluster::{characterize, CharacterizationConfig, ReportDetail, RunReport};
use ickpt::obs::Recorder;
use ickpt::sim::SimDuration;

use crate::{bench_ranks, bench_scale, bench_threads, run_length, skip_until, BENCH_SEED};

/// The paper's checkpoint-timeslice sweep (Figures 2-5).
pub(crate) const PAPER_TIMESLICES: [u64; 6] = [1, 2, 5, 10, 15, 20];

/// A timeslice sweep traces its 1 s run only: `obs` there, a disabled
/// recorder at every other timeslice.
pub(crate) fn sweep_obs(timeslice_s: u64, obs: &Recorder) -> Recorder {
    if timeslice_s == 1 {
        obs.clone()
    } else {
        Recorder::disabled()
    }
}

/// Figure 1's virtual run length (Sage-1000MB time series).
pub(crate) const FIG1_RUN_FOR: SimDuration = SimDuration::from_secs(500);

/// Timeslice fine enough to resolve an app's period for Table 3:
/// ~1/10 of it, clamped to [20 ms, 1 s].
pub(crate) fn detection_timeslice(w: Workload) -> SimDuration {
    let s = (w.calib().period_s / 10.0).clamp(0.02, 1.0);
    SimDuration::from_secs_f64(s)
}

/// Table 3's cluster size (period structure is per-process).
pub(crate) fn table3_ranks() -> usize {
    bench_ranks().min(16)
}

/// Table 3's run length: past initialization + warm-up, at least ~8
/// periods and ~200 windows for the autocorrelation.
pub(crate) fn table3_run_for(w: Workload) -> SimDuration {
    let ts = detection_timeslice(w);
    SimDuration::from_secs_f64(
        skip_until(w).as_secs_f64() + (8.0 * w.calib().period_s).max(200.0 * ts.as_secs_f64()),
    )
}

/// One bench characterization of `w`: `nranks` ranks at `timeslice`
/// for `run_for`, under the bench scale and seed, recording into `obs`.
fn characterize_bench(
    w: Workload,
    nranks: usize,
    timeslice: SimDuration,
    run_for: SimDuration,
    track_iterations: bool,
    obs: Recorder,
) -> RunReport {
    let cfg = CharacterizationConfig {
        nranks,
        scale: bench_scale(),
        run_for,
        timeslice,
        seed: BENCH_SEED,
        track_iterations,
        obs,
        detail: ReportDetail::compact(),
        ..Default::default()
    };
    characterize(w, &cfg)
}

/// The standard configuration at an explicit cluster size (Figure 5's
/// scaling study; [`crate::run`] at the bench cluster size).
pub(crate) fn run_at(nranks: usize, w: Workload, timeslice_s: u64, obs: Recorder) -> RunReport {
    let ts = SimDuration::from_secs(timeslice_s);
    characterize_bench(w, nranks, ts, run_length(w, timeslice_s), false, obs)
}

/// Figure 1's run (Sage-1000MB, 1 s timeslice, 500 s).
pub(crate) fn run_fig1(obs: Recorder) -> RunReport {
    let ts = SimDuration::from_secs(1);
    characterize_bench(Workload::Sage1000, bench_ranks(), ts, FIG1_RUN_FOR, false, obs)
}

/// Table 3's run (fine detection timeslice, iteration tracking).
pub(crate) fn run_table3(w: Workload, obs: Recorder) -> RunReport {
    characterize_bench(w, table3_ranks(), detection_timeslice(w), table3_run_for(w), true, obs)
}

// ---------------------------------------------------------------------
// Deterministic parallel scheduler
// ---------------------------------------------------------------------

struct Gate {
    free: Mutex<usize>,
    cv: Condvar,
}

static GATE: OnceLock<Gate> = OnceLock::new();

thread_local! {
    static HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn gate() -> &'static Gate {
    GATE.get_or_init(|| Gate { free: Mutex::new(bench_threads()), cv: Condvar::new() })
}

fn acquire_permit() {
    let g = gate();
    let mut free = g.free.lock().unwrap();
    while *free == 0 {
        free = g.cv.wait(free).unwrap();
    }
    *free -= 1;
    HELD.with(|h| h.set(true));
}

fn release_permit() {
    let g = gate();
    *g.free.lock().unwrap() += 1;
    g.cv.notify_one();
    HELD.with(|h| h.set(false));
}

/// Apply `f` to every item, running up to `crate::bench_threads`
/// items concurrently, and return the results **in input order**. With
/// one thread (or one item) this is an inline serial loop. Safe to
/// nest: a worker calling `parallel_map` parks its own permit while
/// its children run.
pub fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    if items.len() <= 1 || bench_threads() == 1 {
        return items.iter().map(&f).collect();
    }
    let was_held = HELD.with(|h| h.get());
    if was_held {
        release_permit();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (i, item) in items.iter().enumerate() {
            let slots = &slots;
            let f = &f;
            scope.spawn(move || {
                acquire_permit();
                let r = f(item);
                release_permit();
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    if was_held {
        acquire_permit();
    }
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("worker completed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let out = parallel_map(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_nests_without_deadlock() {
        let outer: Vec<usize> = (0..4).collect();
        let out = parallel_map(&outer, |&i| {
            let inner: Vec<usize> = (0..5).collect();
            parallel_map(&inner, |&j| i * 10 + j)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row.len(), 5);
            assert_eq!(row[3], i * 10 + 3);
        }
    }
}
