//! Checkpoint-interval optimization: Young's and Daly's formulas.
//!
//! The paper's motivation (§1) is a 65,536-processor BlueGene/L
//! "expected to experience failures every few hours", demanding
//! checkpoints "every few minutes". How often exactly is a classic
//! result: given a per-checkpoint cost `C` and a system mean time
//! between failures `M`, Young's first-order optimum is
//! `T_opt = sqrt(2·C·M)`, refined by Daly for restart cost `R`.
//! This module turns the paper's measured bandwidth requirements into
//! concrete deployment guidance: from an application's incremental
//! checkpoint size and a device bandwidth we get `C`, and from `C` and
//! the failure rate the optimal interval and the machine *efficiency*
//! (useful fraction of wall time) an operator can expect.

use ickpt_sim::SimDuration;

/// Inputs of the interval optimization.
#[derive(Debug, Clone, Copy)]
pub struct IntervalModel {
    /// Time to write one checkpoint to stable storage.
    pub checkpoint_cost: SimDuration,
    /// Time to restart from a checkpoint (restore + warm-up).
    pub restart_cost: SimDuration,
    /// System mean time between failures.
    pub mtbf: SimDuration,
}

impl IntervalModel {
    /// Young's first-order optimal interval: `sqrt(2 C M)`.
    pub fn young_interval(&self) -> SimDuration {
        let c = self.checkpoint_cost.as_secs_f64();
        let m = self.mtbf.as_secs_f64();
        SimDuration::from_secs_f64((2.0 * c * m).sqrt())
    }

    /// Daly's higher-order optimum (valid for `C < 2M`):
    /// `sqrt(2 C M) · [1 + 1/3·sqrt(C/(2M)) + (1/9)·(C/(2M))] - C`.
    pub fn daly_interval(&self) -> SimDuration {
        let c = self.checkpoint_cost.as_secs_f64();
        let m = self.mtbf.as_secs_f64();
        if c >= 2.0 * m {
            // Degenerate regime: checkpointing costs more than the
            // expected uptime; checkpoint continuously.
            return self.mtbf;
        }
        let x = (c / (2.0 * m)).sqrt();
        let t = (2.0 * c * m).sqrt() * (1.0 + x / 3.0 + x * x / 9.0) - c;
        SimDuration::from_secs_f64(t.max(c))
    }

    /// Expected machine efficiency (useful work / wall time) when
    /// checkpointing every `interval`, using the standard
    /// expected-waste formulation: per cycle of length `T + C`, the
    /// checkpoint wastes `C`, and a failure — probability `(T+C)/M`
    /// per cycle, uniformly arriving — wastes on average
    /// `(T+C)/2 + R` of rework and restart:
    ///
    /// `E = (T − ((T+C)/M)·((T+C)/2 + R)) / (T + C)`.
    pub fn efficiency(&self, interval: SimDuration) -> f64 {
        let t = interval.as_secs_f64();
        let c = self.checkpoint_cost.as_secs_f64();
        let r = self.restart_cost.as_secs_f64();
        let m = self.mtbf.as_secs_f64();
        let cycle = t + c;
        let waste_fail = (cycle / m) * (cycle / 2.0 + r);
        ((t - waste_fail) / cycle).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(c_secs: f64, mtbf_secs: f64) -> IntervalModel {
        IntervalModel {
            checkpoint_cost: SimDuration::from_secs_f64(c_secs),
            restart_cost: SimDuration::from_secs_f64(c_secs),
            mtbf: SimDuration::from_secs_f64(mtbf_secs),
        }
    }

    #[test]
    fn young_formula() {
        // C = 50 s, M = 10000 s: T = sqrt(2*50*10000) = 1000 s.
        let m = model(50.0, 10_000.0);
        assert!((m.young_interval().as_secs_f64() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn daly_refines_young_downward_for_large_c() {
        let m = model(500.0, 10_000.0);
        let young = m.young_interval().as_secs_f64();
        let daly = m.daly_interval().as_secs_f64();
        // Daly subtracts C and adds small corrections: below Young for
        // realistic parameters.
        assert!(daly < young, "daly {daly} vs young {young}");
        assert!(daly > 0.0);
    }

    #[test]
    fn daly_degenerate_regime() {
        let m = model(100.0, 40.0); // C >= 2M
        assert_eq!(m.daly_interval(), m.mtbf);
    }

    #[test]
    fn efficiency_peaks_near_young_interval() {
        let m = model(50.0, 10_000.0);
        let t_opt = m.young_interval();
        let e_opt = m.efficiency(t_opt);
        // Much shorter and much longer intervals are both worse.
        assert!(e_opt > m.efficiency(t_opt / 10));
        assert!(e_opt > m.efficiency(t_opt * 10));
        assert!(e_opt > 0.85 && e_opt < 1.0, "e_opt = {e_opt}");
    }

    #[test]
    fn efficiency_degrades_with_failure_rate() {
        let good = model(30.0, 100_000.0);
        let bad = model(30.0, 1_000.0);
        assert!(good.efficiency(good.young_interval()) > bad.efficiency(bad.young_interval()));
    }

    #[test]
    fn incremental_checkpoints_raise_efficiency() {
        // BlueGene/L-ish hourly failures, 320 MB/s disk: a 780 MB full
        // image costs 2.44 s, a 413 MB incremental one 1.29 s.
        let full = model(780.0 / 320.0, 3600.0);
        let incr = model(413.0 / 320.0, 3600.0);
        assert!(incr.efficiency(incr.young_interval()) > full.efficiency(full.young_interval()));
        assert!(incr.young_interval() < full.young_interval());
    }
}
