//! Log-bucketed histograms with lock-free recording.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64` (0..=64).
pub(crate) const BUCKETS: usize = 65;

/// A histogram over `u64` samples (typically nanoseconds) with
/// power-of-two buckets.
///
/// Sample `v` lands in the bucket for its bit length: bucket 0 holds only
/// zero, bucket `k` holds `[2^(k-1), 2^k)`. Buckets therefore have a
/// fixed 2x relative resolution — coarse, but branch-free, allocation
/// free, and entirely lock-free, which is what a hot restore path wants.
/// Quantiles are reported as the upper bound of the containing bucket, so
/// a reported quantile is within 2x of (and never below) the true sample
/// quantile.
///
/// Recording a sample costs two atomic read-modify-writes (its bucket and
/// the sum) plus a load of the max, which is written only when the sample
/// raises it. The count is not stored: it is the saturating sum of the
/// buckets, computed when read.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A frozen human-consumable digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Total number of recorded samples (saturating at `u64::MAX`).
    pub count: u64,
    /// Sum of all samples (saturating at `u64::MAX`).
    pub sum: u64,
    /// Mean sample, or 0.0 if empty.
    pub mean: f64,
    /// Median (upper bound of the containing bucket).
    pub p50: u64,
    /// 95th percentile (upper bound of the containing bucket).
    pub p95: u64,
    /// 99th percentile (upper bound of the containing bucket).
    pub p99: u64,
    /// Exact maximum recorded sample.
    pub max: u64,
}

/// Bit-length bucket index of a sample.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Shared quantile kernel over a frozen bucket array.
///
/// Reports the `q`-quantile (`q` clamped to `[0, 1]`) as the inclusive
/// upper bound of the smallest bucket whose cumulative count reaches
/// `ceil(q * count)`, capped by the exact `max`. Returns 0 when
/// `count == 0` — the defined "no data" value, never a bucket artifact.
/// Cumulative counts saturate, so histograms holding near-`u64::MAX`
/// totals still answer instead of wrapping past the rank.
pub(crate) fn quantile_over(buckets: &[u64; BUCKETS], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        cumulative = cumulative.saturating_add(b);
        if cumulative >= rank {
            return bucket_upper(i).min(max);
        }
    }
    max
}

/// Saturating sum of bucket counts: the number of samples, sticking at
/// `u64::MAX` like every other histogram total.
fn total(buckets: &[u64; BUCKETS]) -> u64 {
    buckets.iter().fold(0, |acc, &b| acc.saturating_add(b))
}

/// `sum / count`, or 0.0 for no samples.
fn mean_of(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Saturating atomic add: the cell sticks at `u64::MAX` instead of
/// wrapping, so long-lived counters degrade to "at least this many"
/// rather than to nonsense.
#[inline]
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(n);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl Histogram {
    /// A new empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples in one shot (a batched
    /// [`record`](Histogram::record)). Counts and sums saturate at
    /// `u64::MAX` rather than wrapping, so quantiles stay defined even
    /// after pathological volumes.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        saturating_fetch_add(&self.buckets[bucket_index(v)], n);
        saturating_fetch_add(&self.sum, v.saturating_mul(n));
        // The max only grows between resets, so a sample at or below the
        // one already seen cannot change it and skips the write.
        // lint:allow(atomics-order) — a stale read only costs a redundant fetch_max; the max publishes no other data
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The buckets, loaded one by one.
    fn frozen(&self) -> [u64; BUCKETS] {
        let mut frozen = [0u64; BUCKETS];
        for (slot, bucket) in frozen.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        frozen
    }

    /// Number of recorded samples (saturating at `u64::MAX`).
    pub fn count(&self) -> u64 {
        total(&self.frozen())
    }

    /// Sum of recorded samples (saturating at `u64::MAX`).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact, not bucketed).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        mean_of(self.sum(), self.count())
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the inclusive
    /// upper bound of the smallest bucket whose cumulative count reaches
    /// `ceil(q * count)`. Returns the defined value 0 for an empty
    /// histogram. The exact [`max`](Histogram::max) caps the answer, so
    /// `quantile(1.0)` is the true maximum and a single-sample histogram
    /// answers every quantile exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        let frozen = self.frozen();
        quantile_over(&frozen, total(&frozen), self.max(), q)
    }

    /// Freezes a [`HistogramSummary`] (count, mean, p50/p95/p99, max).
    pub fn summary(&self) -> HistogramSummary {
        let frozen = self.frozen();
        let count = total(&frozen);
        let (sum, max) = (self.sum(), self.max());
        HistogramSummary {
            count,
            sum,
            mean: mean_of(sum, count),
            p50: quantile_over(&frozen, count, max, 0.50),
            p95: quantile_over(&frozen, count, max, 0.95),
            p99: quantile_over(&frozen, count, max, 0.99),
            max,
        }
    }

    /// Clears all buckets and statistics.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        // Every quantile of an empty histogram is the defined value 0 —
        // never a bucket upper bound or other artifact.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile(q), 0, "q = {q}");
        }
        let s = h.summary();
        assert_eq!((s.p50, s.p95, s.p99, s.max), (0, 0, 0, 0));
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(777);
        // One sample: the max cap makes every quantile the sample itself,
        // despite the 2x-wide bucket it landed in.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777, "q = {q}");
        }
        assert_eq!(h.summary().p50, 777);
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn saturating_counts_keep_quantiles_defined() {
        let h = Histogram::new();
        h.record_n(1, u64::MAX);
        h.record(2);
        h.record_n(3, u64::MAX);
        // count/sum stick at u64::MAX instead of wrapping to small values.
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), 3);
        // Quantiles stay defined and ordered. With buckets themselves
        // saturated the rank resolves inside the first saturated bucket,
        // so answers degrade toward the low end — but never to garbage.
        assert_eq!(h.quantile(0.25), 1);
        let p100 = h.quantile(1.0);
        assert!((1..=3).contains(&p100), "p100 = {p100}");
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..10 {
            a.record(42);
        }
        b.record_n(42, 10);
        b.record_n(7, 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn exact_stats_and_bucketed_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // True p50 is 50; the bucket bound may overshoot by < 2x.
        let p50 = h.quantile(0.50);
        assert!((50..100).contains(&p50), "p50 = {p50}");
        // p100 is exact thanks to the max cap.
        assert_eq!(h.quantile(1.0), 100);
    }
}
