//! Parallel batch execution: fan a slice of queries across worker threads,
//! returning answers in query order.
//!
//! Determinism: every solver is deterministic for a fixed query (the RANDOM
//! policy is seeded per query), the store returns one shared row store per
//! kind no matter which worker builds it, and the parallel map is
//! order-stable — so a batch's answers (timing fields aside) are identical
//! for any thread count, which `tests/serving.rs` asserts.

use rayon::prelude::*;

use crate::answer::TeamAnswer;
use crate::query::TeamQuery;
use crate::Engine;

/// Options for one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Worker threads (`None` = rayon's ambient parallelism).
    pub threads: Option<usize>,
}

impl BatchOptions {
    /// A batch option set pinned to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads: Some(threads),
        }
    }
}

/// Runs `queries` against `engine` in parallel; answers in query order.
pub fn run(engine: &Engine, queries: &[TeamQuery], options: &BatchOptions) -> Vec<TeamAnswer> {
    let execute = || queries.par_iter().map(|q| engine.query(q)).collect();
    match options.threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool construction cannot fail")
            .install(execute),
        None => execute(),
    }
}

/// Summary statistics of one executed batch, for CLI/bench reporting.
/// Streamed batches build theirs chunk by chunk via [`BatchSummary::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchSummary {
    /// Number of queries.
    pub queries: usize,
    /// Number answered `ok`.
    pub solved: usize,
    /// Total in-engine latency across queries, microseconds.
    pub total_micros: u64,
    /// Queries whose matrix was already cached.
    pub cache_hits: usize,
}

impl BatchSummary {
    /// Summarizes a batch of answers.
    pub fn of(answers: &[TeamAnswer]) -> Self {
        let solved = answers
            .iter()
            .filter(|a| a.status == crate::AnswerStatus::Ok)
            .count();
        let cache_hits = answers.iter().filter(|a| a.cache_hit).count();
        let total_micros: u64 = answers.iter().map(|a| a.micros).sum();
        BatchSummary {
            queries: answers.len(),
            solved,
            total_micros,
            cache_hits,
        }
    }

    /// Folds another (chunk) summary into this one.
    pub fn absorb(&mut self, other: &BatchSummary) {
        self.queries += other.queries;
        self.solved += other.solved;
        self.total_micros += other.total_micros;
        self.cache_hits += other.cache_hits;
    }

    /// Mean in-engine latency per query, microseconds.
    pub fn mean_micros(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.queries as f64
        }
    }
}
