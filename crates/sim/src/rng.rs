//! SplitMix64: a tiny deterministic PRNG.
//!
//! Workload models need reproducible pseudo-randomness (e.g. Sage's
//! allocation churn, randomized access patterns in tests). SplitMix64
//! passes BigCrush, needs eight bytes of state, and — unlike thread-rng
//! style generators — makes every simulated run a pure function of its
//! seed, which the determinism of the whole reproduction rests on.

/// SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derive an independent stream for a rank: mixes the rank id into
    /// the seed so per-rank sequences are uncorrelated but reproducible.
    pub fn for_rank(seed: u64, rank: usize) -> Self {
        let mut base = Self::new(seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        // Burn a few outputs to decorrelate nearby rank seeds.
        base.next_u64();
        base.next_u64();
        base
    }

    /// The raw generator state (for checkpointing model state).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Overwrite the raw generator state (restore from a checkpoint).
    pub fn set_state(&mut self, state: u64) {
        self.state = state;
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be positive.
    /// Uses the widening-multiply technique (Lemire) to avoid modulo
    /// bias without a division on the hot path.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[cfg(test)]
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 0 (from the canonical SplitMix64).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut g = SplitMix64::new(42);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = g.next_below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut g = SplitMix64::new(9);
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn rank_streams_are_distinct() {
        let mut r0 = SplitMix64::for_rank(123, 0);
        let mut r1 = SplitMix64::for_rank(123, 1);
        assert_ne!(r0.next_u64(), r1.next_u64());
    }

    #[test]
    fn chance_tracks_probability() {
        let mut g = SplitMix64::new(5);
        let hits = (0..100_000).filter(|_| g.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }
}
