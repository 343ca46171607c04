//! A lock-free log-bucketed latency histogram.
//!
//! Hand-rolled (the workspace vendors no metrics registry) and sized for the
//! hot path: [`LatencyHistogram::record`] is three relaxed atomic RMW ops and
//! no branches beyond the bucket-index computation. Values are microsecond
//! latencies, but nothing here assumes a unit — any `u64` sample works.
//!
//! # Bucket scheme
//!
//! Values `0..8` get one exact bucket each. From 8 upward every power-of-two
//! octave `[2^k, 2^(k+1))` is split into [`SUB`] equal sub-buckets, so the
//! relative width of a bucket never exceeds `1/SUB` = 12.5%. Percentiles read
//! from the histogram are therefore within one bucket — at most 12.5% — of
//! the exact sample percentile, which `tests/telemetry.rs` asserts by
//! property test. The full `u64` range takes [`BUCKET_COUNT`] (496) buckets,
//! about 4 KiB of `AtomicU64`s per histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave. Must be a power of two.
pub const SUB: usize = 8;
const SUB_BITS: u32 = SUB.trailing_zeros();

/// Total buckets covering all of `u64`: one exact bucket per value in
/// `0..SUB`, then `SUB` sub-buckets for each of the 61 remaining octaves.
pub const BUCKET_COUNT: usize = SUB + SUB * (64 - SUB_BITS as usize);

/// Returns the bucket index for a sample value.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = (value >> (octave - 1)) as usize - SUB;
    SUB * octave as usize + sub
}

/// The smallest value that lands in bucket `index` (inclusive lower bound).
pub fn bucket_lower(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = (index / SUB) as u32;
    let sub = (index % SUB) as u64;
    (SUB as u64 + sub) << (octave - 1)
}

/// The largest value that lands in bucket `index` (inclusive upper bound).
pub fn bucket_upper(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = (index / SUB) as u32;
    let width = 1u64 << (octave - 1);
    bucket_lower(index).wrapping_add(width - 1)
}

/// A mergeable, lock-free histogram of `u64` samples (conventionally
/// microseconds). All operations use relaxed atomics: recording threads never
/// coordinate, and a snapshot is "consistent enough" in the same sense as the
/// counters of [`crate::EngineTelemetry`] — counts never go backwards and no
/// sample is lost, but a snapshot racing a record may see the bucket
/// increment without the sum increment or vice versa.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .field("max", &snap.max)
            .finish()
    }
}

impl LatencyHistogram {
    /// Records one sample: three relaxed `fetch_add`/`fetch_max` ops.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of every bucket plus the sum and max.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`LatencyHistogram`], supporting percentile extraction
/// and merging. Merging snapshots is exact: the merge of two snapshots has
/// identical buckets to a histogram that recorded both sample streams.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKET_COUNT],
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKET_COUNT],
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish()
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of samples in buckets strictly below `index` — i.e. samples
    /// known to be `< bucket_lower(index)`. The Prometheus exposition builds
    /// its cumulative `_bucket` lines from this.
    pub fn cumulative_below(&self, index: usize) -> u64 {
        self.counts[..index].iter().sum()
    }

    /// Adds `other`'s samples into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the largest value in the bucket
    /// where the cumulative count first reaches `ceil(q * count)`. The result
    /// is always `>=` the exact sample quantile and exceeds it by at most one
    /// bucket's width (≤ 12.5% relative). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the observed max (the top bucket of an
                // octave is wide; `max` is exact).
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_and_octave_boundaries() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(18), 17);
        assert_eq!(bucket_index(30), 23);
        assert_eq!(bucket_index(31), 23);
        assert_eq!(bucket_index(32), 24);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bounds_are_consistent_with_indexing() {
        for index in 0..BUCKET_COUNT {
            let lo = bucket_lower(index);
            let hi = bucket_upper(index);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), index, "lower bound of {index}");
            assert_eq!(bucket_index(hi), index, "upper bound of {index}");
            if index + 1 < BUCKET_COUNT {
                assert_eq!(hi + 1, bucket_lower(index + 1), "buckets must tile");
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for index in SUB..BUCKET_COUNT {
            let lo = bucket_lower(index) as f64;
            let width = (bucket_upper(index) - bucket_lower(index) + 1) as f64;
            assert!(width / lo <= 1.0 / SUB as f64 + 1e-12, "bucket {index}");
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = LatencyHistogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        let p50 = snap.quantile(0.5);
        assert!((50..=55).contains(&p50), "p50={p50}");
        let p99 = snap.quantile(0.99);
        assert!((99..=103).contains(&p99), "p99={p99}");
        assert_eq!(snap.quantile(1.0), 100);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn merge_is_exact() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        let all = LatencyHistogram::default();
        for v in [0u64, 3, 9, 17, 40_000, 1_000_000] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 17, 90_000, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let expect = all.snapshot();
        assert_eq!(merged.counts, expect.counts);
        assert_eq!(merged.sum, expect.sum);
        assert_eq!(merged.max, expect.max);
    }
}
