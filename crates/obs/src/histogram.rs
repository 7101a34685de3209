//! Log-bucketed histogram with approximate quantiles.
//!
//! Values double per bucket starting from [`BASE`] (1 µs when recording
//! seconds), so 64 buckets span twelve orders of magnitude with a fixed
//! ~2× relative error bound on quantile estimates — the classic
//! HDR-style layout, reduced to what latency reporting needs.

/// Smallest resolvable value: bucket 0 is `[0, BASE]`.
pub const BASE: f64 = 1e-6;

/// Number of buckets; bucket `i >= 1` covers `(BASE·2^(i-1), BASE·2^i]`.
pub const N_BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed histogram of non-negative `f64` samples.
///
/// NaN samples are dropped (counted in [`Histogram::rejected`]); negative
/// samples clamp to zero. Exact `count`/`sum`/`min`/`max` are tracked
/// alongside the buckets, so means are exact and quantile estimates are
/// clamped into `[min, max]` (a single-sample histogram reports that
/// sample for every quantile).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; N_BUCKETS],
    count: u64,
    rejected: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; N_BUCKETS],
            count: 0,
            rejected: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(v: f64) -> usize {
        if v <= BASE {
            0
        } else {
            // v > BASE here, so the log is positive and tiny; min() clamps the bucket
            let idx = (v / BASE).log2().ceil() as usize;
            idx.min(N_BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `i`.
    fn upper_bound(i: usize) -> f64 {
        BASE * (i as f64).exp2()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            self.rejected += 1;
            return;
        }
        let v = v.max(0.0);
        // `bucket_index` clamps to `N_BUCKETS - 1`, so the lookup always
        // succeeds; `get_mut` keeps the path panic-free by construction.
        if let Some(c) = self.counts.get_mut(Self::bucket_index(v)) {
            *c += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.rejected += other.rejected;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded (accepted) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of NaN samples dropped.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Sum of all accepted samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of accepted samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the ⌈q·count⌉-th sample, clamped into `[min, max]`.
    ///
    /// `None` when the histogram is empty — an empty histogram has no
    /// quantiles, and reporting a plausible-looking `0.0` instead made a
    /// freshly started server's p99 look healthy when nothing had been
    /// served at all.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(Self::upper_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Point-in-time summary of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let (min, max) = if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        HistogramSnapshot {
            count: self.count,
            rejected: self.rejected,
            sum: self.sum,
            min,
            max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (Self::upper_bound(i), c))
                .collect(),
        }
    }
}

/// An immutable summary of a [`Histogram`] at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Accepted samples.
    pub count: u64,
    /// Dropped NaN samples.
    pub rejected: u64,
    /// Sum of accepted samples.
    pub sum: f64,
    /// Smallest accepted sample (0.0 when empty).
    pub min: f64,
    /// Largest accepted sample (0.0 when empty).
    pub max: f64,
    /// Exact mean (0.0 when empty).
    pub mean: f64,
    /// Approximate median; `None` when no sample was recorded.
    pub p50: Option<f64>,
    /// Approximate 95th percentile; `None` when no sample was recorded.
    pub p95: Option<f64>,
    /// Approximate 99th percentile; `None` when no sample was recorded.
    pub p99: Option<f64>,
    /// `(bucket_upper_bound, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        // Regression: empty quantiles used to report 0.0, which made a
        // freshly started server's /metrics p99 look healthy; absence is
        // now explicit.
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, None);
        assert_eq!(s.p95, None);
        assert_eq!(s.p99, None);
        assert_eq!(h.quantile(0.5), None);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(0.0123);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Some(0.0123));
        assert_eq!(s.p99, Some(0.0123));
        assert_eq!(s.mean, 0.0123);
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let mut h = Histogram::new();
        // 90 fast samples at 1ms, 10 slow at 1s.
        for _ in 0..90 {
            h.record(1e-3);
        }
        for _ in 0..10 {
            h.record(1.0);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let (p50, p95, p99) = (s.p50.unwrap(), s.p95.unwrap(), s.p99.unwrap());
        // p50 lands in the 1ms bucket (≤ 2x relative error).
        assert!((1e-3..=2.1e-3).contains(&p50), "p50 = {p50}");
        // p95 and p99 land in the 1s region.
        assert!((0.5..=1.0).contains(&p95), "p95 = {p95}");
        assert!((0.5..=1.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn nan_is_rejected_and_negative_clamps() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(-3.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn merge_preserves_totals() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..50 {
            a.record(i as f64 * 1e-4);
            b.record(i as f64 * 1e-2);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 100);
        assert!((merged.sum() - (a.sum() + b.sum())).abs() < 1e-12);
    }

    #[test]
    fn huge_values_saturate_last_bucket() {
        let mut h = Histogram::new();
        h.record(1e30);
        h.record(f64::INFINITY);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets.len(), 1);
    }
}
