//! Summary statistics over f64 series.

/// Mean of a series (0 for empty input).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Relative difference `(measured - reference) / reference`, as a
/// signed fraction; 0 when the reference is 0.
pub(crate) fn relative_error(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (measured - reference) / reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
    }

    #[test]
    fn empty_series_are_safe() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn relative_error_signs() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(90.0, 100.0) + 0.1).abs() < 1e-12);
        assert_eq!(relative_error(5.0, 0.0), 0.0);
    }
}
