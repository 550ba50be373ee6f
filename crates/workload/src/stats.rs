//! Lock-free workload statistics.
//!
//! Clients record each transaction into a shared sink of atomic
//! counters and log₂ latency buckets; a measurement reads the sink
//! into a [`WindowStats`] at each window boundary and subtracts, so
//! arbitrarily long runs use constant memory and no client ever blocks
//! on a statistics lock. Windows add: the sum of two windows is one
//! window over both periods, and its percentiles come from the summed
//! buckets.

use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BUCKETS: usize = 40; // log2(ns): covers 1ns .. ~18min

/// Shared, lock-free statistics sink.
pub(crate) struct SharedStats {
    started: Instant,
    committed: AtomicU64,
    aborted: AtomicU64,
    schema_events: AtomicU64,
    latency_sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl SharedStats {
    /// Fresh sink; its windows are timed from now.
    pub fn new() -> SharedStats {
        SharedStats {
            started: Instant::now(),
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

    /// Committed transactions so far.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Everything recorded since the sink was made, as one window.
    pub fn totals(&self) -> WindowStats {
        WindowStats {
            duration: self.started.elapsed(),
            committed: self.committed(),
            aborted: self.aborted.load(Ordering::Relaxed),
            schema_events: self.schema_events.load(Ordering::Relaxed),
            latency_sum_ns: self.latency_sum_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// What the clients did over one measurement window. A later reading
/// minus an earlier one is the window between them; two windows add.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowStats {
    /// Window length.
    pub duration: Duration,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions rolled back for any reason.
    pub aborted: u64,
    /// Rollbacks caused by the schema change (doomed / frozen /
    /// vanished table).
    pub schema_events: u64,
    /// Sum of committed-transaction latencies (ns).
    pub latency_sum_ns: u64,
    /// Log₂ latency histogram (ns) of the committed transactions.
    buckets: [u64; BUCKETS],
}

impl WindowStats {
    fn zip(&self, o: &WindowStats, duration: Duration, f: impl Fn(u64, u64) -> u64) -> WindowStats {
        WindowStats {
            duration,
            committed: f(self.committed, o.committed),
            aborted: f(self.aborted, o.aborted),
            schema_events: f(self.schema_events, o.schema_events),
            latency_sum_ns: f(self.latency_sum_ns, o.latency_sum_ns),
            buckets: std::array::from_fn(|i| f(self.buckets[i], o.buckets[i])),
        }
    }

    /// Committed transactions per second (0 over an empty window).
    pub fn throughput(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.duration.as_secs_f64()
    }

    /// Mean committed-transaction latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.committed == 0 {
            return 0.0;
        }
        self.latency_sum_ns as f64 / self.committed as f64 / 1e6
    }

    /// Approximate latency percentile (`p` in 0..=1) in milliseconds:
    /// the upper bound of the log₂ bucket the rank falls in.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        let i = self
            .buckets
            .iter()
            .position(|c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(BUCKETS - 1);
        (1u64 << (i + 1)) as f64 / 1e6
    }
}

impl Add for WindowStats {
    type Output = WindowStats;

    fn add(self, o: WindowStats) -> WindowStats {
        self.zip(&o, self.duration + o.duration, |a, b| a + b)
    }
}

impl Sub for WindowStats {
    type Output = WindowStats;

    /// The window from the earlier reading `o` of the same sink to
    /// this one.
    fn sub(self, o: WindowStats) -> WindowStats {
        self.zip(&o, self.duration.saturating_sub(o.duration), |a, b| a - b)
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
        let w = s.totals();
        assert_eq!(w.committed, 2);
        assert_eq!(s.committed(), 2);
        assert_eq!(w.aborted, 2);
        assert_eq!(w.schema_events, 1);
        assert_eq!(w.latency_sum_ns, 4_000);
    }

    /// A later reading minus an earlier one is the window between
    /// them, and the two windows on either side of a reading add up to
    /// one window over both periods: counts, buckets and p95 alike.
    #[test]
    fn deltas_subtract() {
        let s = SharedStats::new();
        let start = s.totals();
        s.record_commit(1_000_000);
        s.record_abort(true);
        let mid = s.totals();
        for _ in 0..19 {
            s.record_commit(1_000);
        }
        let end = s.totals();
        let second = end.clone() - mid.clone();
        assert_eq!(second.committed, 19);
        assert_eq!(second.latency_sum_ns, 19_000);
        assert!((second.mean_latency_ms() - 0.001).abs() < 1e-12);

        let first = mid - start.clone();
        let whole = end - start;
        let sum = first.clone() + second.clone();
        assert_eq!(sum, whole, "counts, latency sum, buckets and duration");
        assert_eq!(sum.percentile_ms(0.95), whole.percentile_ms(0.95));
        // The merged p95 comes from the summed buckets: one slow commit
        // in twenty is above it, although it is the first window's p95.
        assert_eq!(sum.percentile_ms(0.95), second.percentile_ms(0.95));
        assert!(sum.percentile_ms(0.95) < first.percentile_ms(0.95));
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
        let w = s.totals();
        let p50 = w.percentile_ms(0.50);
        let p99 = w.percentile_ms(0.99);
        assert!(p50 <= p99);
        assert!((0.001..=0.004_096).contains(&p50), "p50={p50}");
        assert!(p99 >= 1.0, "p99={p99}");
    }

    #[test]
    fn zero_window_is_safe() {
        let s = SharedStats::new();
        let w = s.totals();
        let d = w.clone() - w;
        assert_eq!(d.mean_latency_ms(), 0.0);
        assert_eq!(d.percentile_ms(0.99), 0.0);
        assert_eq!(d.throughput(), 0.0);
    }
}
