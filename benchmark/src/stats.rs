//! Percentiles and spreads. Nearest-rank on a sorted copy: every reported
//! value is one of the samples, so a percentile never invents a latency
//! nobody saw.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`: the
/// smallest sample with at least `q` of the samples at or below it.
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (total order, so a stray NaN cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Samples strictly beyond (after) the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// The highest of p99 / p95 / p90 with at least ten samples beyond it —
/// the tail a run of `n` samples can support. `None` under 100 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method) — the spread `--compare` and the acceptance runs
/// judge against a metric's bound. Needs at least two values.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, linear through the two
        // neighbouring samples (extrapolating past the ends, as Python does).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let mid = quantile(2);
    (quantile(3) - quantile(1)).abs() / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force: count, for every candidate, how many samples are at
    /// or below it, and take the smallest candidate covering `q`.
    fn brute(samples: &[f64], q: f64) -> f64 {
        let need = (q * samples.len() as f64).ceil().max(1.0) as usize;
        let mut best = f64::INFINITY;
        for &c in samples {
            let at_or_below = samples.iter().filter(|&&s| s <= c).count();
            if at_or_below >= need && c < best {
                best = c;
            }
        }
        best
    }

    #[test]
    fn percentile_matches_brute_force() {
        let mut state = 0x1234_5678_u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 1777] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 500) as f64 / 7.0
                })
                .collect();
            let s = sorted(&samples);
            for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(percentile(&s, q), brute(&samples, q), "n={n} q={q}");
            }
        }
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is sample 990, ten lie beyond. 999: only nine.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(&[10.0, 20.0]) - 15.0 / 15.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert!((quartile_spread(&v) - 4.5 / 3.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
