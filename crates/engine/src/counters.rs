//! Engine-level activity counters (lock-free; used by the workload
//! harness to report throughput and by tests to assert behaviour).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of engine activity.
#[derive(Default, Debug)]
pub struct Counters {
    /// Transactions begun.
    pub begins: AtomicU64,
    /// Transactions committed.
    pub commits: AtomicU64,
    /// Transactions rolled back (for any reason).
    pub aborts: AtomicU64,
    /// Rollbacks caused by wait–die victimization.
    pub deadlock_aborts: AtomicU64,
    /// Rollbacks caused by schema-change dooming (§3.4).
    pub doomed_aborts: AtomicU64,
    /// Data operations executed (insert + update + delete).
    pub ops: AtomicU64,
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
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (for any reason).
    pub aborts: u64,
    /// Rollbacks caused by wait–die victimization.
    pub deadlock_aborts: u64,
    /// Rollbacks caused by schema-change dooming.
    pub doomed_aborts: u64,
    /// Data operations executed.
    pub ops: u64,
    /// Versions reclaimed by MVCC GC.
    pub mvcc_reclaimed: u64,
    /// WAL flushes performed by this engine's log manager.
    pub wal_flushes: u64,
    /// Records appended to this engine's WAL.
    pub wal_records: u64,
    /// Blocking record-lock waits entered on this engine.
    pub lock_waits: u64,
}

impl CountersSnapshot {
    /// Field-wise sum (the aggregate side of the per-shard rollup).
    pub fn add(&mut self, other: &CountersSnapshot) {
        self.begins += other.begins;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.deadlock_aborts += other.deadlock_aborts;
        self.doomed_aborts += other.doomed_aborts;
        self.ops += other.ops;
        self.mvcc_reclaimed += other.mvcc_reclaimed;
        self.wal_flushes += other.wal_flushes;
        self.wal_records += other.wal_records;
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
            begins: Self::get(&self.begins),
            commits: Self::get(&self.commits),
            aborts: Self::get(&self.aborts),
            deadlock_aborts: Self::get(&self.deadlock_aborts),
            doomed_aborts: Self::get(&self.doomed_aborts),
            ops: Self::get(&self.ops),
            mvcc_reclaimed: Self::get(&self.mvcc_reclaimed),
            wal_flushes: 0,
            wal_records: 0,
            lock_waits: 0,
        }
    }

    /// Snapshot of (begins, commits, aborts, ops).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            Self::get(&self.begins),
            Self::get(&self.commits),
            Self::get(&self.aborts),
            Self::get(&self.ops),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counters::default();
        Counters::bump(&c.begins);
        Counters::bump(&c.begins);
        Counters::bump(&c.commits);
        assert_eq!(c.snapshot(), (2, 1, 0, 0));
    }
}
