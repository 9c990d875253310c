//! Order statistics used for every reported number.

/// Samples required beyond a percentile before it may be reported
/// (choosing-metrics §1: "at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so `agree`
/// judges spread with the same statistic as the acceptance driver.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median; `None` with fewer than
/// two values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-quantile (`0 < p < 1`) of integer-nanosecond samples, sorted
/// ascending. Ties are resolved as for grouped data: each value `v` stands
/// for the interval `[v - 0.5, v + 0.5)` and the rank is interpolated
/// inside the run of equal samples, so the result keeps moving when the
/// distribution shifts by less than the clock's 1 ns resolution.
///
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond the quantile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if ((1.0 - p) * n as f64) < MIN_BEYOND as f64 {
        return None;
    }
    let rank = p * n as f64;
    let v = sorted[(rank as usize).min(n - 1)];
    let lo = sorted.partition_point(|&x| x < v);
    let hi = sorted.partition_point(|&x| x <= v);
    Some(v as f64 - 0.5 + (rank - lo as f64) / (hi - lo) as f64)
}

/// Sorts `samples` in place and returns `(p50, p99)`.
pub fn p50_p99(samples: &mut [u64]) -> Option<(f64, f64)> {
    samples.sort_unstable();
    Some((percentile(samples, 0.50)?, percentile(samples, 0.99)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (0..999).collect();
        assert!(percentile(&v, 0.99).is_none(), "9.99 samples beyond p99");
        let v: Vec<u64> = (0..1000).collect();
        assert!(percentile(&v, 0.99).is_some());
        assert!(percentile(&v[..20], 0.50).is_some());
        assert!(percentile(&v[..19], 0.50).is_none());
    }

    #[test]
    fn percentile_interpolates_inside_ties() {
        // 100 samples: 40 × 10ns, 60 × 11ns. The median rank (50) falls
        // 10/60 into the run of 11s.
        let mut v = vec![10u64; 40];
        v.extend(vec![11u64; 60]);
        let p50 = percentile(&v, 0.50).unwrap();
        assert!((p50 - (10.5 + 10.0 / 60.0)).abs() < 1e-9, "{p50}");
        // Shifting two samples moves the result although the plain median
        // stays 11.
        let mut w = vec![10u64; 42];
        w.extend(vec![11u64; 58]);
        assert!(percentile(&w, 0.50).unwrap() < p50);
    }

    #[test]
    fn percentile_of_distinct_values_is_near_the_plain_one() {
        let v: Vec<u64> = (0..10_000).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert!((p99 - 9900.0).abs() <= 0.5, "{p99}");
    }
}
