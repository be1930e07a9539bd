//! The benchmark's arithmetic: medians, quartiles, geomeans and
//! per-event host costs.

/// Median of `xs` (mean of the middle two for even lengths); NaN when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// With fewer than two samples both quartiles are the sample itself.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
#[must_use]
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Geometric mean; NaN when empty or when any value is not positive.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Host nanoseconds per simulated event: `host_s` spread over `events`
/// (cycles, tile-cycles, hops). NaN when no event happened.
#[must_use]
pub fn ns_per(host_s: f64, events: f64) -> f64 {
    if events > 0.0 {
        host_s * 1.0e9 / events
    } else {
        f64::NAN
    }
}

/// `num / den`, or `empty` when the denominator is zero (a ratio over
/// no events, e.g. a hit ratio with no accesses).
#[must_use]
pub fn ratio_or(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_speedups() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn per_event_costs() {
        // 2 s over 1e9 events is 2 ns each.
        assert!((ns_per(2.0, 1.0e9) - 2.0).abs() < 1e-12);
        assert!(ns_per(1.0, 0.0).is_nan());
        assert_eq!(ratio_or(1.0, 0.0, 7.0), 7.0);
        assert_eq!(ratio_or(1.0, 4.0, 7.0), 0.25);
    }
}
