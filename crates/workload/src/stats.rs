//! Lock-free workload statistics.
//!
//! Clients record each committed transaction's latency into log₂
//! buckets; the measurement thread snapshots the counters at window
//! boundaries and reports deltas, so arbitrarily long runs use constant
//! memory and no client ever blocks on a statistics lock.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 40; // log2(ns): covers 1ns .. ~18min

/// Shared, lock-free statistics sink.
pub struct SharedStats {
    /// Committed transactions.
    pub committed: AtomicU64,
    /// Transactions rolled back for any reason.
    pub aborted: AtomicU64,
    /// Rollbacks caused by schema-change dooming / frozen tables.
    pub schema_events: AtomicU64,
    /// Sum of committed-transaction latencies (ns).
    pub latency_sum_ns: AtomicU64,
    /// Log₂ latency histogram (ns).
    buckets: [AtomicU64; BUCKETS],
}

impl Default for SharedStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedStats {
    /// Fresh sink.
    pub fn new() -> SharedStats {
        SharedStats {
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            schema_events: AtomicU64::new(0),
            latency_sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one committed transaction.
    pub fn record_commit(&self, latency_ns: u64) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_ns.fetch_add(latency_ns, Ordering::Relaxed);
        let b = (64 - latency_ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one rollback; `schema` marks doom/freeze-caused ones.
    pub fn record_abort(&self, schema: bool) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        if schema {
            self.schema_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cheap full snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            schema_events: self.schema_events.load(Ordering::Relaxed),
            latency_sum_ns: self.latency_sum_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of the counters.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    pub committed: u64,
    pub aborted: u64,
    pub schema_events: u64,
    pub latency_sum_ns: u64,
    buckets: [u64; BUCKETS],
}

impl StatsSnapshot {
    /// Difference over a window (self = later).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            committed: self.committed - earlier.committed,
            aborted: self.aborted - earlier.aborted,
            schema_events: self.schema_events - earlier.schema_events,
            latency_sum_ns: self.latency_sum_ns - earlier.latency_sum_ns,
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
        }
    }

    /// Mean commit latency over what the snapshot counts (a window,
    /// when it comes from [`StatsSnapshot::since`]).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.committed == 0 {
            return 0.0;
        }
        self.latency_sum_ns as f64 / self.committed as f64
    }

    /// Approximate latency percentile from the log₂ histogram (returns
    /// the bucket's upper bound in ns).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_abort_counters() {
        let s = SharedStats::new();
        s.record_commit(1_000);
        s.record_commit(3_000);
        s.record_abort(false);
        s.record_abort(true);
        let snap = s.snapshot();
        assert_eq!(snap.committed, 2);
        assert_eq!(snap.aborted, 2);
        assert_eq!(snap.schema_events, 1);
        assert_eq!(snap.latency_sum_ns, 4_000);
    }

    #[test]
    fn deltas_subtract() {
        let s = SharedStats::new();
        s.record_commit(1_000);
        let a = s.snapshot();
        s.record_commit(2_000);
        s.record_commit(2_000);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.committed, 2);
        assert_eq!(d.latency_sum_ns, 4_000);
        assert!((d.mean_latency_ns() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_monotone_and_bracketing() {
        let s = SharedStats::new();
        for _ in 0..90 {
            s.record_commit(1_000); // ~2^10
        }
        for _ in 0..10 {
            s.record_commit(1_000_000); // ~2^20
        }
        let d = s.snapshot().since(&SharedStats::new().snapshot());
        let p50 = d.percentile_ns(0.50);
        let p99 = d.percentile_ns(0.99);
        assert!(p50 <= p99);
        assert!((1_000..=4_096).contains(&p50), "p50={p50}");
        assert!(p99 >= 1_000_000, "p99={p99}");
    }

    #[test]
    fn zero_window_is_safe() {
        let s = SharedStats::new();
        let d = s.snapshot().since(&s.snapshot());
        assert_eq!(d.mean_latency_ns(), 0.0);
        assert_eq!(d.percentile_ns(0.99), 0);
    }
}
