//! Log-bucketed histograms for latency/effort distributions.
//!
//! Buckets are geometric with [`BUCKETS_PER_OCTAVE`] sub-buckets per power
//! of two, so the relative error of any reported quantile is bounded by one
//! bucket width (`2^(1/4) ≈ 19 %`) while storage stays a fixed few hundred
//! counters regardless of sample count — the same trade HdrHistogram makes.
//! Quantiles are nearest-rank over the bucket counts, clamped to the
//! observed `[min, max]`. The tail view — p95/p99/max — is what means and
//! medians both hide, and it is exactly the per-frame distribution the
//! paper's Figs. 5–7 argue from.

use crate::json::Json;

/// Geometric sub-buckets per power of two (bucket width `2^(1/4)`).
pub const BUCKETS_PER_OCTAVE: usize = 4;

/// Bucket 0 holds everything in `[0, 1]`; the rest cover `(1, 2^64)` in
/// `BUCKETS_PER_OCTAVE` steps per octave, plus one catch-all at the top.
const NUM_BUCKETS: usize = 64 * BUCKETS_PER_OCTAVE + 2;

/// Index of the bucket holding `v` (NaN and negatives clamp to bucket 0).
fn bucket_of(v: f64) -> usize {
    if v.is_nan() || v <= 1.0 {
        return 0;
    }
    let idx = (v.log2() * BUCKETS_PER_OCTAVE as f64).floor() as usize + 1;
    idx.min(NUM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        2f64.powf((i - 1) as f64 / BUCKETS_PER_OCTAVE as f64)
    }
}

/// Exclusive upper bound of bucket `i` (bucket 0's is inclusive at 1).
pub fn bucket_upper(i: usize) -> f64 {
    2f64.powf(i as f64 / BUCKETS_PER_OCTAVE as f64)
}

/// A fixed-size log-bucketed histogram over non-negative samples.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample (negatives and NaN clamp to 0).
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples in one bucket update — what a batched
    /// per-frame latency estimate uses (`elapsed / frames` recorded once per
    /// frame scored) so quantiles weight by frames, not by batches, without
    /// `n` lock round-trips upstream (ISSUE 7 sharded serving).
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let v = if v.is_nan() { 0.0 } else { v.max(0.0) };
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one. Buckets are identical by
    /// construction (fixed geometry), so merging is exact: the result is as
    /// if every sample of `other` had been recorded here. This is how the
    /// sharded scheduler reads one fleet-wide `serve.frame.ns` p99 from
    /// per-shard recorders without a shared hot-path mutex (ISSUE 7).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw per-bucket counts (fixed geometry, see [`bucket_lower`]).
    /// Two histograms over the same samples have identical bucket counts
    /// regardless of recording order — the exactness the windowed-metrics
    /// oracle tests pin — whereas the float `sum` is order-sensitive in its
    /// last bits.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate, `q ∈ [0, 1]`. The result lies within
    /// the bounds of the bucket holding the rank-`⌈q·n⌉` sample and within
    /// the observed `[min, max]` (property-tested in `tests/hist_prop.rs`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// The fixed quantile set reports carry (schema of the `histograms` section
/// of a `RunReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl HistogramSummary {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("mean", self.mean.into()),
            ("p50", self.p50.into()),
            ("p95", self.p95.into()),
            ("p99", self.p99.into()),
        ])
    }
}

/// Exact nearest-rank percentile of an unsorted sample set (the reference
/// the histogram is tested against, and what `LevelReport` uses where the
/// full sample vector is already in hand).
pub fn exact_percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!((s.min, s.max, s.mean, s.p50), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(37.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 37.0, "q={q}");
        }
        assert_eq!(h.min(), 37.0);
        assert_eq!(h.max(), 37.0);
    }

    #[test]
    fn nan_and_negative_samples_clamp_to_zero() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for (i, v) in [3.0, 900.0, 42.5, 0.0, 7e6, 13.0, 77.0].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*v);
            whole.record(*v);
        }
        a.merge(&b);
        a.merge(&LogHistogram::new()); // empty merge is a no-op
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn record_n_weights_like_n_records() {
        let mut batched = LogHistogram::new();
        batched.record_n(5.0, 3);
        batched.record_n(100.0, 1);
        batched.record_n(17.0, 0); // no-op
        let mut loose = LogHistogram::new();
        for v in [5.0, 5.0, 5.0, 100.0] {
            loose.record(v);
        }
        assert_eq!(batched.count(), loose.count());
        assert_eq!(batched.mean(), loose.mean());
        assert_eq!(batched.quantile(0.5), loose.quantile(0.5));
        assert_eq!(batched.quantile(0.99), loose.quantile(0.99));
    }

    #[test]
    fn exact_percentile_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(exact_percentile(&v, 0.0), 10.0);
        assert_eq!(exact_percentile(&v, 0.5), 20.0);
        assert_eq!(exact_percentile(&v, 0.75), 30.0);
        assert_eq!(exact_percentile(&v, 1.0), 40.0);
        assert_eq!(exact_percentile(&[], 0.5), 0.0);
    }
}
