//! The timeslice alarm: a background sampling thread.
//!
//! The paper's library used `setitimer`/`SIGALRM`; in-process Rust is
//! better served by a dedicated thread that wakes every timeslice,
//! records the IWS and re-protects the region. The observable behaviour
//! is identical: writers fault once per page per timeslice.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::region::{NativeSample, TrackedRegion};

/// A periodic sampler over one region.
pub struct TimesliceSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    samples: Receiver<TimedSample>,
}

/// One alarm tick's output.
#[derive(Debug, Clone)]
pub struct TimedSample {
    /// Wall-clock offset of the tick from sampler start.
    pub at: Duration,
    /// The dirty set captured at the tick.
    pub sample: NativeSample,
}

impl TimesliceSampler {
    /// Start sampling `region` every `timeslice` (wall clock).
    pub fn start(region: Arc<TrackedRegion>, timeslice: Duration) -> Self {
        assert!(!timeslice.is_zero());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let (tx, rx) = channel();
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let mut next = start + timeslice;
            while !stop2.load(Ordering::Acquire) {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep(next - now);
                }
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let sample = region.sample();
                let _ = tx.send(TimedSample { at: start.elapsed(), sample });
                next += timeslice;
            }
        });
        Self { stop, handle: Some(handle), samples: rx }
    }

    /// Stop the sampler and return everything it recorded, in tick
    /// order.
    pub fn stop(mut self) -> Vec<TimedSample> {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.samples.try_iter().collect()
    }
}

impl Drop for TimesliceSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_observes_per_timeslice_dirty_sets() {
        let region = Arc::new(TrackedRegion::new(32));
        let sampler = TimesliceSampler::start(region.clone(), Duration::from_millis(30));
        // Write 4 pages, wait past a tick, write 4 different pages.
        for p in 0..4 {
            region.write_byte(p, 0, 1);
        }
        std::thread::sleep(Duration::from_millis(50));
        for p in 8..12 {
            region.write_byte(p, 0, 1);
        }
        std::thread::sleep(Duration::from_millis(50));
        let samples = sampler.stop();
        assert!(samples.len() >= 2, "at least two ticks, got {}", samples.len());
        let total: usize = samples.iter().map(|s| s.sample.iws_pages()).sum();
        assert_eq!(total, 8, "every dirtied page observed exactly once");
        // Ticks are ordered in time.
        for w in samples.windows(2) {
            assert!(w[0].at < w[1].at);
        }
    }

    #[test]
    fn stop_is_idempotent_through_drop() {
        let region = Arc::new(TrackedRegion::new(4));
        let sampler = TimesliceSampler::start(region, Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(25));
        drop(sampler); // must not hang or double-join
    }
}
