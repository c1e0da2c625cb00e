//! Admission control: per-tenant token buckets + a global in-flight
//! cap.
//!
//! Each tenant owns a token bucket refilled in *virtual* time at a
//! rate proportional to its QoS weight, with a bounded burst
//! allowance. Admission uses the debt-carrying variant (a GCRA-style
//! meter): a request is granted whenever the bucket is non-negative
//! and then charged in full, possibly driving the balance below zero —
//! so a request larger than the burst capacity is still admitted
//! eventually (liveness for any request size) while long-run admitted
//! throughput can never exceed the refill rate. A request arriving
//! while the bucket is in debt is deferred with an exact retry
//! instant: the time the refill pays the debt off.
//!
//! The global in-flight cap is enforced by the service loop, not
//! here: it bounds how many stripe chunks occupy array devices at
//! once (the write-pipelining depth), which is a property of the
//! shared back-end rather than any one tenant.

use ickpt_sim::SimTime;

/// Admission parameters shared by every tenant (per-tenant numbers
/// scale with the tenant's weight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Token refill per weight unit, bytes per virtual second.
    pub refill_per_weight: u64,
    /// Bucket capacity per weight unit, bytes (the burst allowance).
    pub burst_per_weight: u64,
    /// Global cap on stripe chunks in flight across the array.
    pub max_in_flight: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        // One fair share of a 4 × 320 MB/s array split 16 ways, with a
        // 2-second burst, and a pipelining depth of 2 chunks per
        // device on a 4-device array.
        AdmissionConfig {
            refill_per_weight: 80_000_000,
            burst_per_weight: 160_000_000,
            max_in_flight: 8,
        }
    }
}

/// The outcome of one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Request admitted; tokens were charged.
    Grant,
    /// Request deferred; retry at the contained instant (strictly
    /// after the attempt).
    Defer(SimTime),
}

/// One tenant's token meter. All arithmetic is integer (bytes and
/// nanoseconds), so decisions are byte-deterministic.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate, bytes per virtual second.
    rate: u64,
    /// Burst capacity, bytes.
    cap: u64,
    /// Current balance; negative = debt from an oversized grant.
    tokens: i128,
    /// Instant of the last refill.
    last: SimTime,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub(crate) fn new(rate: u64, cap: u64) -> Self {
        assert!(rate > 0, "refill rate must be positive");
        TokenBucket { rate, cap: cap.max(1), tokens: cap.max(1) as i128, last: SimTime::ZERO }
    }

    /// Bucket for a tenant of `weight` under `cfg`.
    pub fn for_weight(cfg: &AdmissionConfig, weight: u32) -> Self {
        let w = weight.max(1) as u64;
        TokenBucket::new(cfg.refill_per_weight.saturating_mul(w).max(1), cfg.burst_per_weight * w)
    }

    /// Advance the refill to `now`.
    fn refill(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        let dt = (now - self.last).0;
        self.last = now;
        let earned = dt as i128 * self.rate as i128 / 1_000_000_000;
        self.tokens = (self.tokens + earned).min(self.cap as i128);
    }

    /// Attempt to admit a `bytes`-sized request at `now`.
    pub fn admit(&mut self, now: SimTime, bytes: u64) -> AdmissionVerdict {
        self.refill(now);
        if self.tokens >= 0 {
            self.tokens -= bytes as i128;
            return AdmissionVerdict::Grant;
        }
        // Deferred: retry when the refill pays the debt off (round up,
        // and never at the same instant as the attempt).
        let debt = (-self.tokens) as u128;
        let wait_ns = ((debt * 1_000_000_000).div_ceil(self.rate as u128) as u64).max(1);
        AdmissionVerdict::Defer(SimTime(now.0 + wait_ns))
    }

    /// Current balance in bytes (negative while in debt).
    #[cfg(test)]
    fn balance(&self) -> i128 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_debt_then_defers_with_exact_retry() {
        // 100 B/s, 1000 B burst.
        let mut b = TokenBucket::new(100, 1000);
        assert_eq!(b.admit(SimTime::ZERO, 600), AdmissionVerdict::Grant);
        // Balance 400: still non-negative, grant drives it to -800.
        assert_eq!(b.admit(SimTime::ZERO, 1200), AdmissionVerdict::Grant);
        // In debt: deferred until 800 B refill = 8 s.
        match b.admit(SimTime::ZERO, 10) {
            AdmissionVerdict::Defer(t) => assert_eq!(t, SimTime::from_secs(8)),
            v => panic!("expected deferral, got {v:?}"),
        }
        // At the retry instant the debt is exactly paid: grant.
        assert_eq!(b.admit(SimTime::from_secs(8), 10), AdmissionVerdict::Grant);
    }

    #[test]
    fn refill_is_capped_at_burst() {
        let mut b = TokenBucket::new(1_000, 500);
        assert_eq!(b.admit(SimTime::ZERO, 500), AdmissionVerdict::Grant);
        // A long idle period cannot bank more than the burst.
        b.refill(SimTime::from_secs(3600));
        assert_eq!(b.balance(), 500);
    }

    #[test]
    fn oversized_requests_stay_live() {
        let mut b = TokenBucket::new(100, 50);
        // 10x the burst: granted (balance goes deeply negative) —
        // the *next* request waits the debt out.
        assert_eq!(b.admit(SimTime::ZERO, 500), AdmissionVerdict::Grant);
        let AdmissionVerdict::Defer(t) = b.admit(SimTime::ZERO, 1) else {
            panic!("expected deferral");
        };
        assert_eq!(t, SimTime::from_secs_f64(4.5));
        assert_eq!(b.admit(t, 1), AdmissionVerdict::Grant);
    }

    #[test]
    fn weight_scales_refill_linearly() {
        let cfg =
            AdmissionConfig { refill_per_weight: 100, burst_per_weight: 100, max_in_flight: 4 };
        let mut w1 = TokenBucket::for_weight(&cfg, 1);
        let mut w4 = TokenBucket::for_weight(&cfg, 4);
        assert_eq!(w1.admit(SimTime::ZERO, 1000), AdmissionVerdict::Grant);
        assert_eq!(w4.admit(SimTime::ZERO, 4000), AdmissionVerdict::Grant);
        let AdmissionVerdict::Defer(t1) = w1.admit(SimTime::ZERO, 1) else { panic!() };
        let AdmissionVerdict::Defer(t4) = w4.admit(SimTime::ZERO, 1) else { panic!() };
        // Same relative debt pays off at the same instant.
        assert_eq!(t1, t4);
    }

    #[test]
    fn deferral_is_strictly_in_the_future() {
        let mut b = TokenBucket::new(u64::MAX / 2, 1);
        b.admit(SimTime::ZERO, 10);
        if let AdmissionVerdict::Defer(t) = b.admit(SimTime::ZERO, 1) {
            assert!(t > SimTime::ZERO);
        }
    }
}
