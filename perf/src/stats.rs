//! Order statistics over a handful of pass timings.

/// Five-number summary of one metric's per-pass samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        let (min, max) = (v[0], v[v.len() - 1]);
        // The exclusive method extrapolates past the sample for n < 4;
        // a quartile outside [min, max] would only confuse a reader.
        Summary { n: v.len(), min, q1: q1.max(min), median, q3: q3.min(max), max }
    }

    /// Interquartile range as a share of the median: the spread figure
    /// the acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (the "exclusive" method), so spreads printed here match the ones an
/// outside checker derives from the same values.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let len = v.len();
    if len == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_sorted(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // ... which a summary clamps to the sample's range.
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[9.0, 10.0, 11.0, 10.0, 10.0]);
        assert!((s.spread() - 0.1).abs() < 1e-12, "{}", s.spread());
    }
}
