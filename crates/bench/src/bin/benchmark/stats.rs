//! Order statistics, computed exactly as Python's
//! `statistics.quantiles(data, n=n)` (the default "exclusive" method),
//! so spreads printed here match the ones the calibration rule uses.

/// The `i`-th of the `n - 1` cut points dividing `data` into `n` groups
/// (`quantile(d, 1, 2)` is the median, `quantile(d, 9, 10)` the 90th
/// percentile). NaN for empty input; the value itself for one sample.
pub fn quantile(data: &[f64], i: usize, n: usize) -> f64 {
    assert!(0 < i && i < n, "cut point {i} of {n}");
    let mut d: Vec<f64> = data.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => f64::NAN,
        1 => d[0],
        len => {
            let m = len + 1;
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
        }
    }
}

pub fn median(data: &[f64]) -> f64 {
    quantile(data, 1, 2)
}

/// First and third quartiles.
pub fn quartiles(data: &[f64]) -> (f64, f64) {
    (quantile(data, 1, 4), quantile(data, 3, 4))
}

/// The smallest value; NaN for empty input.
///
/// This is the benchmark's estimate of a repeated measurement's host
/// time. The work of a repeat is deterministic, so everything that varies
/// between repeats is added by the host: its neighbours' load comes in
/// bursts that double whatever runs in them for seconds at a time, and
/// in between it still slows a repeat by a varying tenth or so. The
/// fastest repeat is the least disturbed one; any quantile above it
/// moves with how much of the run the bursts covered.
pub fn minimum(data: &[f64]) -> f64 {
    data.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), (2.75, 8.25));
        assert_eq!(median(&d), 5.5);
        // statistics.quantiles([3, 1, 2], n=10)[8] == 3.6 (clamped j,
        // so the last segment extrapolates)
        assert!((quantile(&[3.0, 1.0, 2.0], 9, 10) - 3.6).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert!(minimum(&[]).is_nan());
    }
}
