//! Transformation reports: what each of the four steps cost.
//!
//! The experiment harness (Figure 4 reproduction) is built on these
//! numbers, in particular [`SyncStats::latch_pause`] — the paper's
//! "<1 ms" synchronization claim — and the per-iteration backlog trace
//! that shows whether propagation converges at a given priority.

use crate::spec::SyncStrategy;
use std::time::Duration;

/// Initial population statistics (§3.2).
#[derive(Clone, Debug, Default)]
pub struct PopulationStats {
    /// Wall-clock duration of the fuzzy read + operator + insert.
    pub duration: Duration,
    /// Source rows read fuzzily.
    pub rows_read: usize,
    /// Rows written to the transformed tables.
    pub rows_written: usize,
}

/// One log-propagation iteration (§3.3).
#[derive(Clone, Debug, Default)]
pub struct IterationStats {
    /// Log records examined.
    pub records: usize,
    /// Records that concerned the source tables (and were applied
    /// through the propagation rules).
    pub relevant: usize,
    /// Wall-clock duration (including throttle sleeps).
    pub duration: Duration,
    /// Remaining log records when the iteration ended — the analysis
    /// input.
    pub backlog_after: usize,
}

/// Synchronization statistics (§3.4).
#[derive(Clone, Debug)]
pub struct SyncStats {
    /// Strategy used.
    pub strategy: SyncStrategy,
    /// How long the source tables were latched (user-visible pause).
    pub latch_pause: Duration,
    /// Log records drained during the final latched propagation.
    pub final_records: usize,
    /// Transactions doomed (non-blocking abort) or carried over
    /// (non-blocking commit).
    pub old_txns: usize,
    /// Record locks transferred to the transformed tables.
    pub locks_transferred: usize,
}

impl Default for SyncStats {
    fn default() -> Self {
        SyncStats {
            strategy: SyncStrategy::NonBlockingAbort,
            latch_pause: Duration::ZERO,
            final_records: 0,
            old_txns: 0,
            locks_transferred: 0,
        }
    }
}

/// Full account of one transformation run.
#[derive(Clone, Debug, Default)]
pub struct TransformReport {
    /// Preparation step duration (table + index creation).
    pub prepare: Duration,
    /// Initial population statistics.
    pub population: PopulationStats,
    /// One entry per propagation iteration, in order.
    pub iterations: Vec<IterationStats>,
    /// Synchronization statistics.
    pub sync: SyncStats,
    /// Post-synchronization background propagation (until all old
    /// transactions ended and the source tables were dropped).
    pub post_duration: Duration,
    /// Records processed post-synchronization.
    pub post_records: usize,
    /// Number of consistency-checker certification rounds run (split
    /// with §5.3 checking only).
    pub cc_rounds: usize,
    /// End-to-end duration.
    pub total: Duration,
}

impl TransformReport {
    /// Total log records processed across all phases.
    pub fn records_processed(&self) -> usize {
        self.iterations.iter().map(|i| i.records).sum::<usize>()
            + self.sync.final_records
            + self.post_records
    }

    /// Number of propagation iterations before synchronization.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_totals_add_up() {
        let mut r = TransformReport::default();
        r.iterations.push(IterationStats {
            records: 10,
            relevant: 4,
            duration: Duration::from_millis(1),
            backlog_after: 2,
        });
        r.iterations.push(IterationStats {
            records: 5,
            ..Default::default()
        });
        r.sync.final_records = 2;
        r.post_records = 3;
        assert_eq!(r.records_processed(), 20);
        assert_eq!(r.iteration_count(), 2);
    }
}
