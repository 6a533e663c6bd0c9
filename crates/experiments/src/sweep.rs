//! Shared sweep helpers used by the per-figure experiment modules.

/// The PA levels of the Table I grid.
pub const GRID_POWERS: [u8; 8] = [3, 7, 11, 15, 19, 23, 27, 31];

/// The payload sizes of the Table I grid, bytes.
pub const GRID_PAYLOADS: [u16; 8] = [5, 20, 35, 50, 65, 80, 95, 110];

/// The distances of the Table I grid, meters.
pub const GRID_DISTANCES: [f64; 6] = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0];

/// Mean of an iterator of f64 values; 0.0 when empty.
pub fn mean_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Sample standard deviation of a slice; 0.0 with fewer than 2 samples.
pub fn std_of(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean_of(values.iter().copied());
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean_of([].into_iter()), 0.0);
        assert_eq!(mean_of([2.0, 4.0].into_iter()), 3.0);
        assert_eq!(std_of(&[5.0]), 0.0);
        assert!((std_of(&[1.0, 3.0]) - (2.0f64).sqrt()).abs() < 1e-12);
    }
}
