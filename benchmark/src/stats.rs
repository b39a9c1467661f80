//! The arithmetic every reported number goes through: nearest-rank
//! percentiles, medians, the geometric mean used to average compile rows,
//! and the quartile spread the acceptance check is stated in.

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`): the smallest
/// sample with at least `q` of the samples at or below it. Returns 0 for an
/// empty slice so an unused leg prints as 0 rather than panicking.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even-sized slice (so
/// a median of two set-ups is their mean, not the faster one).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median over consecutive blocks of `block` samples of each block's
/// `q`-percentile. A stall of the host delays the edits of one block (in an
/// open loop, of the next few too); the plain percentile over all samples
/// then reads the stall, this reads the run.
pub fn blocked_percentile(samples: &[f64], block: usize, q: f64) -> f64 {
    let per_block: Vec<f64> = samples
        .chunks(block)
        .map(|chunk| percentile(chunk, q))
        .collect();
    median(&per_block)
}

/// Geometric mean of strictly positive values (the compilers sheet's rule
/// for averaging per-program ratios: no single large row dominates).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Median rate (events per second) over fixed windows: each window is
/// `(events completed, seconds it actually lasted)`. One stalled window
/// moves a mean; it does not move this.
pub fn windowed_median_rate(windows: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(n, secs)| *n as f64 / secs)
        .collect();
    median(&rates)
}

/// Quartiles by the exclusive method — the same numbers Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check is phrased in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// a bound is judged against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_lands_inside_the_slow_class_of_a_bimodal_mix() {
        // 80 fast ops and 20 slow ones: p50 is a fast op, p90 a slow one —
        // the property the edit mix is sized for.
        let mut v = vec![2.0; 80];
        v.extend(vec![30.0; 20]);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.9), 30.0);
    }

    #[test]
    fn blocked_percentile_shrugs_off_one_stalled_block() {
        // Five blocks of 20 (16 flips at 2 ms, 4 novel edits at 30 ms); in
        // the third, a 1.5 s stall queues fifteen edits behind it.
        let block: Vec<f64> = [vec![2.0; 16], vec![30.0; 4]].concat();
        let mut samples: Vec<f64> = (0..5).flat_map(|_| block.clone()).collect();
        for (i, late) in samples[40..55].iter_mut().enumerate() {
            *late = 1500.0 - 100.0 * i as f64;
        }
        assert_eq!(blocked_percentile(&samples, 20, 0.5), 2.0);
        assert_eq!(blocked_percentile(&samples, 20, 0.9), 30.0);
        // The plain p90 over all hundred samples reads the stall.
        assert!(percentile(&samples, 0.9) > 100.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
        // A 10x row moves the geometric mean far less than the arithmetic.
        let g = geometric_mean(&[1.0, 1.0, 1.0, 10.0]);
        assert!(g < 2.0 && g > 1.7);
    }

    #[test]
    fn windowed_median_ignores_one_stall() {
        let mut windows = vec![(1000, 0.25); 9];
        windows.push((10, 0.25)); // one stalled window
        assert_eq!(windowed_median_rate(&windows), 4000.0);
        // Windows are divided by their own duration, not the nominal one.
        assert_eq!(windowed_median_rate(&[(1000, 0.5)]), 2000.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert!((q[0] - 0.75).abs() < 1e-12 && (q[2] - 2.25).abs() < 1e-12);
    }
}
