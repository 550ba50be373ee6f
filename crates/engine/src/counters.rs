//! Engine-level activity counters (lock-free; used by the workload
//! harness to report throughput and by tests to assert behaviour).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of engine activity.
#[derive(Default, Debug)]
pub struct Counters {
    /// Transactions committed.
    pub commits: AtomicU64,
    /// Archived row versions reclaimed by MVCC garbage collection
    /// ([`Database::mvcc_gc`](../database/struct.Database.html)).
    pub mvcc_reclaimed: AtomicU64,
}

/// One engine's counters, read at a point in time — the per-shard leaf
/// of [`ShardCounters`](../router/struct.ShardCounters.html). WAL and
/// lock-manager figures are folded in by
/// [`Database::counters_snapshot`](../database/struct.Database.html#method.counters_snapshot)
/// since they live outside [`Counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// Versions reclaimed by MVCC GC.
    pub mvcc_reclaimed: u64,
    /// WAL flushes performed by this engine's log manager.
    pub wal_flushes: u64,
    /// Blocking record-lock waits entered on this engine.
    pub lock_waits: u64,
}

impl CountersSnapshot {
    /// Field-wise sum (the aggregate side of the per-shard rollup).
    pub fn add(&mut self, other: &CountersSnapshot) {
        self.commits += other.commits;
        self.mvcc_reclaimed += other.mvcc_reclaimed;
        self.wal_flushes += other.wal_flushes;
        self.lock_waits += other.lock_waits;
    }
}

impl Counters {
    /// Relaxed add (all counters are statistics, not synchronization).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Engine-local part of a [`CountersSnapshot`] (WAL and lock
    /// figures are zero here; `Database::counters_snapshot` fills
    /// them).
    pub fn full_snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            commits: Self::get(&self.commits),
            mvcc_reclaimed: Self::get(&self.mvcc_reclaimed),
            wal_flushes: 0,
            lock_waits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counters::default();
        Counters::bump(&c.commits);
        Counters::bump(&c.commits);
        assert_eq!(c.full_snapshot().commits, 2);
    }
}
