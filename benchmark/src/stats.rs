//! Order statistics for latency samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 1`, nearest rank) of `xs`, or `None`
/// unless at least ten samples lie beyond it — a tail read off fewer
/// samples is one outlier, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// [`percentile`], with 0 standing for "too few samples" in a metric.
pub fn percentile_or_zero(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p).unwrap_or(0.0)
}

/// The value one tenth of the way up the sorted samples (nearest rank;
/// the minimum for ten samples or fewer); 0 for an empty slice.
///
/// The sandbox's noise is one-sided and time-correlated: a neighbour
/// slows a memory-bound kernel by a quarter for seconds at a time, so a
/// run's median says which phase the run fell into (spread across runs
/// ≈ 14 %) while its fastest repetitions say what the code costs (spread
/// ≈ 2–4 %). Kernel-call timings, served latencies (within one population
/// of replies) and set-up time are therefore the low decile over a run's
/// repetitions: the undisturbed cost, robust to one freak fast sample
/// once there are more than ten.
pub fn decile_low(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len().div_ceil(10)).max(1) - 1]
}

/// [`decile_low`] from the top: for rates, where larger is undisturbed.
pub fn decile_high(xs: &[f64]) -> f64 {
    -decile_low(&xs.iter().map(|x| -x).collect::<Vec<_>>())
}

/// Largest sample; 0 for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// First and third quartile by the exclusive method, i.e. what Python's
/// `statistics.quantiles(xs, n=4)` returns as its first and last cut.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos % 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn deciles_are_the_extremes_of_small_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((decile_low(&ten), decile_high(&ten)), (1.0, 10.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((decile_low(&twenty), decile_high(&twenty)), (2.0, 19.0));
        assert_eq!(decile_low(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), None); // rank 190, only 9 beyond
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0)); // exactly 10 beyond
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs).unwrap() - 1.0).abs() < 1e-12);
    }
}
