//! Engine activity counters, read at a point in time (used by the
//! bench harnesses to report throughput and by tests to assert
//! behaviour).

/// One engine's counters, read at a point in time by
/// [`Database::counters_snapshot`](../database/struct.Database.html#method.counters_snapshot)
/// — the per-shard leaf of
/// [`ShardCounters`](../router/struct.ShardCounters.html).
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
