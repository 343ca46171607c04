//! Percentiles, latency summaries, span self times and the layer ledger.
//!
//! Everything here is pure arithmetic so it can be unit-tested without a
//! server: the workloads feed it nanosecond samples and span durations.

use std::collections::BTreeMap;

/// Percentiles the tail is chosen from, in per-mille, highest first.
const TAIL_LADDER_PERMILLE: [u64; 3] = [990, 900, 500];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank position (1-based) of the `permille` percentile among
/// `n` sorted samples.
fn rank(n: usize, permille: u64) -> usize {
    ((permille * n as u64).div_ceil(1000)).max(1) as usize
}

/// The highest percentile of the ladder p99, p90, p50 that has at least
/// [`MIN_BEYOND`] samples beyond it, in per-mille; `None` when even the
/// median has fewer.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
}

/// The nearest-rank `permille` percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], permille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_permille`] (per-mille).
    pub tail_permille: u64,
    /// The value at that percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are too few for a tail.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let tail_permille = tail_permille(samples.len())?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 500),
            tail_permille,
            tail: percentile(&sorted, tail_permille),
        })
    }

    /// `p99`, `p90` or `p50`: the label of the tail percentile.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_permille / 10)
    }
}

/// Whole windows a stream must fill before [`windowed`] reports on it.
pub const MIN_WINDOWS: usize = 5;

/// Splits a timed sample stream into whole windows of `window_s` seconds
/// (by send time; a partial last window is dropped) and reports the
/// `permille` percentile of the per-window means, lowest first, with the
/// mirrored percentile of the per-window rates, highest first. At 500 that
/// is the median window: one stalled second moves one window, not the
/// result. Below 500 it is a quiet window: on a shared host, contention
/// only ever adds time, and it comes and goes within seconds, so the
/// quieter windows of a run are the ones that repeat from run to run.
/// `None` when fewer than [`MIN_WINDOWS`] windows are whole.
pub fn windowed(at_s: &[f64], values: &[f64], window_s: f64, permille: u64) -> Option<(f64, f64)> {
    assert_eq!(at_s.len(), values.len(), "one send time per sample");
    let end = at_s.iter().copied().fold(0.0, f64::max);
    let windows = (end / window_s).floor() as usize;
    if windows < MIN_WINDOWS {
        return None;
    }
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&t, &v) in at_s.iter().zip(values) {
        if let Some(bin) = bins.get_mut((t / window_s) as usize) {
            bin.push(v);
        }
    }
    if bins.iter().any(Vec::is_empty) {
        return None;
    }
    let mut means: Vec<f64> = bins
        .iter()
        .map(|bin| bin.iter().sum::<f64>() / bin.len() as f64)
        .collect();
    let mut rates: Vec<f64> = bins.iter().map(|bin| bin.len() as f64 / window_s).collect();
    means.sort_by(|a, b| a.total_cmp(b));
    rates.sort_by(|a, b| b.total_cmp(a));
    Some((percentile(&means, permille), percentile(&rates, permille)))
}

/// The mean over distinct requests of each one's fastest round trip:
/// `ids[i]` names the request `values[i]` timed. A closed loop that sends
/// each request several times, seconds apart, then reports what every
/// request costs when the host is quiet, and each request counts once
/// however often it was sent. `None` for an empty stream.
pub fn mean_of_fastest(ids: &[usize], values: &[f64]) -> Option<f64> {
    assert_eq!(ids.len(), values.len(), "one request id per sample");
    let mut fastest: BTreeMap<usize, f64> = BTreeMap::new();
    for (&id, &v) in ids.iter().zip(values) {
        let best = fastest.entry(id).or_insert(v);
        *best = best.min(v);
    }
    if fastest.is_empty() {
        return None;
    }
    Some(fastest.values().sum::<f64>() / fastest.len() as f64)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One timed call into a layer. Spans of one request form a tree through
/// `parent`; a child may have been timed in a separate call on the same
/// input (the benchmark cannot reach inside a public function), so self
/// time is computed from durations, not from interval overlap.
#[derive(Debug, Clone)]
pub struct Span {
    /// The function or boundary timed (`engine.query`, …).
    pub name: &'static str,
    /// The ledger layer this span's self time is booked under; `None`
    /// leaves it to the residual.
    pub layer: Option<&'static str>,
    /// Index of the parent span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Duration, nanoseconds.
    pub ns: f64,
}

/// The spans of one request. Span 0 is the root: the client round trip.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Adds a span and returns its index (the `parent` of later spans).
    pub fn push(
        &mut self,
        name: &'static str,
        layer: Option<&'static str>,
        parent: Option<usize>,
        ns: f64,
    ) -> usize {
        debug_assert!(parent.is_none_or(|p| p < self.spans.len()));
        self.spans.push(Span {
            name,
            layer,
            parent,
            ns,
        });
        self.spans.len() - 1
    }

    /// The spans, in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span named `name`, if any.
    pub fn duration(&self, name: &str) -> Option<f64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.ns)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.ns;
            }
        }
        own
    }
}

/// Mean self time per layer over many request traces, next to the mean
/// client round trip. Means add where percentiles do not, so the ledger
/// closes: `round_trip = Σ layers + residual`.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    requests: usize,
    round_trip_ns: f64,
    layer_ns: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Books one request's trace (span 0 must be the round trip).
    pub fn add(&mut self, trace: &Trace) {
        let Some(root) = trace.spans().first() else {
            return;
        };
        self.requests += 1;
        self.round_trip_ns += root.ns;
        for (span, own) in trace.spans().iter().zip(trace.self_ns()) {
            if let Some(layer) = span.layer {
                *self.layer_ns.entry(layer).or_default() += own;
            }
        }
    }

    /// Requests booked.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Mean client round trip, microseconds.
    pub fn round_trip_us(&self) -> f64 {
        self.per_request_us(self.round_trip_ns)
    }

    /// Mean self time of `layer` per request, microseconds (0 when the
    /// layer never appeared).
    pub fn layer_us(&self, layer: &str) -> f64 {
        self.per_request_us(self.layer_ns.get(layer).copied().unwrap_or(0.0))
    }

    /// Every booked layer with its mean self time, microseconds.
    pub fn layers_us(&self) -> Vec<(&'static str, f64)> {
        self.layer_ns
            .iter()
            .map(|(&name, &ns)| (name, self.per_request_us(ns)))
            .collect()
    }

    /// The mean round trip minus the sum of the mean layer self times:
    /// time no named layer accounts for.
    pub fn residual_us(&self) -> f64 {
        self.round_trip_us() - self.layers_us().iter().map(|(_, us)| us).sum::<f64>()
    }

    fn per_request_us(&self, ns: f64) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            ns / self.requests as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(tail_permille(1000), Some(990));
        // One fewer sample leaves only nine beyond p99, so p90 it is.
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(20), Some(500));
        // Nineteen samples: the median (rank 10) has only nine beyond.
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn summary_reports_count_mean_median_and_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(
            (s.n, s.p50, s.tail, s.tail_permille),
            (1000, 500.0, 990.0, 990)
        );
        assert_eq!(s.mean, 500.5);
        assert_eq!(s.tail_label(), "p99");
        assert!(Summary::of(&[1.0; 19]).is_none());
    }

    #[test]
    fn windowed_ranks_whole_windows() {
        // Ten one-second windows: window w holds w + 1 samples of value
        // 10 + w, so slower windows are also the sparser ones. A partial
        // eleventh window is dropped.
        let mut at = Vec::new();
        let mut values = Vec::new();
        for w in 0..10 {
            for i in 0..=w {
                at.push(w as f64 + i as f64 / 20.0);
                values.push(10.0 + w as f64);
            }
        }
        at.push(10.5);
        values.push(1e9);
        // The median window: 5th of ten by nearest rank.
        assert_eq!(windowed(&at, &values, 1.0, 500), Some((14.0, 6.0)));
        // The quiet window: the lowest mean, and the mirrored rate.
        assert_eq!(windowed(&at, &values, 1.0, 100), Some((10.0, 10.0)));
        // Fewer than five whole windows, or an empty one, yield nothing.
        assert!(windowed(&at[..10], &values[..10], 1.0, 500).is_none());
        assert!(windowed(&[0.1, 10.2], &[1.0, 2.0], 1.0, 500).is_none());
    }

    #[test]
    fn mean_of_fastest_counts_each_request_once() {
        // Request 0 was sent three times, request 1 once.
        let ids = [0, 1, 0, 0];
        let values = [30.0, 8.0, 10.0, 50.0];
        assert_eq!(mean_of_fastest(&ids, &values), Some(9.0));
        assert_eq!(mean_of_fastest(&[], &[]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::default();
        let root = t.push("round_trip", Some("transport"), None, 100.0);
        let handle = t.push("handle", Some("service"), Some(root), 60.0);
        t.push("decode", Some("decode"), Some(handle), 10.0);
        let engine = t.push("engine", None, Some(handle), 35.0);
        t.push("solve", Some("solve"), Some(engine), 30.0);
        assert_eq!(t.self_ns(), vec![40.0, 15.0, 10.0, 5.0, 30.0]);
        // Self times tile the root.
        assert_eq!(t.self_ns().iter().sum::<f64>(), 100.0);
        assert_eq!(t.duration("engine"), Some(35.0));
    }

    #[test]
    fn self_time_can_go_negative_when_children_were_timed_apart() {
        // A child timed in a separate call may outlast its parent's own
        // call; the difference is kept signed so means stay unbiased.
        let mut t = Trace::default();
        let root = t.push("handle", Some("service"), None, 10.0);
        t.push("engine", Some("engine"), Some(root), 12.0);
        assert_eq!(t.self_ns(), vec![-2.0, 12.0]);
    }

    #[test]
    fn ledger_residual_is_the_unbooked_self_time() {
        let mut ledger = Ledger::default();
        for (rtt, solve) in [(100_000.0, 20_000.0), (120_000.0, 40_000.0)] {
            let mut t = Trace::default();
            let root = t.push("round_trip", Some("transport"), None, rtt);
            let handle = t.push("handle", None, Some(root), 50_000.0);
            t.push("solve", Some("solve"), Some(handle), solve);
            ledger.add(&t);
        }
        assert_eq!(ledger.requests(), 2);
        assert_eq!(ledger.round_trip_us(), 110.0);
        assert_eq!(ledger.layer_us("transport"), 60.0);
        assert_eq!(ledger.layer_us("solve"), 30.0);
        assert_eq!(ledger.layer_us("absent"), 0.0);
        // The unbooked `handle` self time (50 - solve) is the residual.
        assert_eq!(ledger.residual_us(), 20.0);
        let booked: f64 = ledger.layers_us().iter().map(|(_, us)| us).sum();
        assert_eq!(booked + ledger.residual_us(), ledger.round_trip_us());
    }

    #[test]
    fn an_empty_ledger_reads_zero() {
        let ledger = Ledger::default();
        assert_eq!(ledger.round_trip_us(), 0.0);
        assert_eq!(ledger.residual_us(), 0.0);
    }
}
