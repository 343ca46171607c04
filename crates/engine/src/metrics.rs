//! Serving metrics: lock-free counters updated by every query, snapshotted
//! for the CLI `stats`/`serve-batch` output and the batch summaries.
//!
//! Accounting semantics: a query is a **cache miss** iff it performed
//! relation-building work itself — it ran a kind's fill, or computed at
//! least one per-source row. A query that found everything resident, *or
//! that blocked on a build another query was already running*, is a hit.
//! Consequently, for filled kinds `cache_misses` equals the number of
//! query-triggered fills exactly, even when N cold queries race on one kind
//! (fills run via [`crate::Engine::warm`] are outside query accounting);
//! for rows filled on demand each miss covers all the rows that query
//! built, so `cache_misses <= row_builds`.
//!
//! `build_wait_micros` books the fetch phase (a fill, the wait on a
//! concurrent fill, or the one-time row-store creation), the row
//! computations the query performed itself, **and** time blocked on another
//! query's in-flight row build — the row cache reports waits per fetch
//! (`RowFetch::wait_micros` in `tfsn_core::compat`), so that stall no
//! longer hides in solver time. The per-phase split (build-wait vs
//! row-compute vs solve) lives in [`crate::telemetry`]; this module keeps
//! the cheap aggregate counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters shared by all concurrent queries.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    queries: AtomicU64,
    solved: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    busy_micros: AtomicU64,
    build_wait_micros: AtomicU64,
}

impl EngineMetrics {
    /// Records one served query. `build_wait_micros` is the slice of
    /// `micros` spent building relation state or blocked on another
    /// query's build; the remainder is solver + lookup time.
    pub fn record_query(&self, solved: bool, cache_hit: bool, micros: u64, build_wait_micros: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if solved {
            self.solved.fetch_add(1, Ordering::Relaxed);
        }
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.busy_micros.fetch_add(micros, Ordering::Relaxed);
        self.build_wait_micros
            .fetch_add(build_wait_micros, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of the query counters. The
    /// store-level gauges (builds, evictions, resident bytes) are zero
    /// here; [`crate::Engine::metrics`] fills them in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_served: self.queries.load(Ordering::Relaxed),
            queries_solved: self.solved.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            busy_micros: self.busy_micros.load(Ordering::Relaxed),
            build_wait_micros: self.build_wait_micros.load(Ordering::Relaxed),
            matrix_builds: 0,
            row_builds: 0,
            row_evictions: 0,
            resident_rows: 0,
            resident_bytes: 0,
            mutations_applied: 0,
            rows_invalidated: 0,
            query_p50_micros: None,
            query_p90_micros: None,
            query_p99_micros: None,
            query_p999_micros: None,
            query_max_micros: None,
        }
    }
}

pub use tfsn_client::report::MetricsSnapshot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = EngineMetrics::default();
        m.record_query(true, false, 100, 60);
        m.record_query(false, true, 50, 0);
        let snap = m.snapshot();
        assert_eq!(snap.queries_served, 2);
        assert_eq!(snap.queries_solved, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.busy_micros, 150);
        assert_eq!(snap.build_wait_micros, 60);
        assert!((snap.mean_latency_micros() - 75.0).abs() < 1e-9);
        assert!((snap.mean_solve_micros() - 45.0).abs() < 1e-9);
    }
}
