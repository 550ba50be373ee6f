//! The transactional database facade.
//!
//! ## Operation protocol
//!
//! Every data operation follows the same sequence:
//!
//! 1. doomed / frozen-table checks,
//! 2. exclusive (or shared, for reads) record lock via the wait–die
//!    lock manager — strict 2PL, released only at commit / rollback
//!    completion,
//! 3. registered [`OpInterceptor`]s run (lock mirroring for
//!    non-blocking-commit synchronization, trigger baselines),
//! 4. **atomically under the table latch**: constraint checks, log
//!    append, physical apply, row LSN stamp.
//!
//! Step 4's atomicity is load-bearing for the paper's correctness
//! argument: a fuzzy scan (which takes the same latch per chunk) can
//! never observe a physical change whose log record is not yet in the
//! log, and a row's LSN stamp is never stale. Together with the fuzzy
//! mark fixing `start_lsn` to the first LSN of the oldest active
//! transaction, this yields Theorem 1's "no lost updates" guarantee.
//!
//! ## Rollback
//!
//! Rollback applies prepared inverse operations in reverse order, each
//! logged as a CLR ([`LogRecord::Clr`]) *before* … strictly: atomically
//! with … its physical application, then writes
//! [`LogRecord::AbortEnd`]. The log propagator treats CLRs exactly like
//! forward operations, which is how aborted work is washed out of
//! transformed tables without ever scanning backwards.

use crate::counters::Counters;
use crate::interceptor::OpInterceptor;
use crate::migrations::MigrationRegistry;
use crate::registry::{TxnCell, TxnRegistry};
use morph_common::{DbError, DbResult, Key, Lsn, Schema, TxnId, Value};
use morph_storage::{Catalog, CommitTable, Snapshot, SnapshotTracker, Table, SYSTEM};
use morph_txn::{GranularMode, LockManager, LockManagerConfig, LockMode, TableLocks};
use morph_wal::{LogManager, LogOp, LogRecord};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The registered interceptors with their removal tokens. Immutable and
/// swapped whole on add/remove, so an operation that finds any clones
/// one `Arc` instead of building a list.
type InterceptorList = Arc<[(u64, Arc<dyn OpInterceptor>)]>;

/// A data operation about to be executed, as seen by interceptors.
#[derive(Debug)]
pub enum PlannedOp<'a> {
    /// Row about to be inserted.
    Insert { values: &'a [Value] },
    /// Columns about to change on the row at `key`.
    Update {
        key: &'a Key,
        cols: &'a [(usize, Value)],
    },
    /// Row at `key` about to be deleted.
    Delete { key: &'a Key },
    /// Row at `key` about to be read (shared lock).
    Read { key: &'a Key },
}

impl PlannedOp<'_> {
    /// The lock mode this operation takes.
    pub fn lock_mode(&self) -> LockMode {
        match self {
            PlannedOp::Read { .. } => LockMode::Shared,
            _ => LockMode::Exclusive,
        }
    }

    /// The primary key the operation targets (pre-image key for
    /// updates; for inserts, derived by the caller).
    pub fn key(&self) -> Option<&Key> {
        match self {
            PlannedOp::Insert { .. } => None,
            PlannedOp::Update { key, .. } | PlannedOp::Delete { key } | PlannedOp::Read { key } => {
                Some(key)
            }
        }
    }
}

/// Observer of named execution points inside long-running engine and
/// transformation code, installed with [`Database::set_crash_hook`].
///
/// This is the spine of the deterministic crash simulator: the hook
/// sees every `crash_point` a run passes through (in a deterministic
/// order for a deterministic workload), may inject workload activity
/// at safe points, and kills the run by returning
/// [`DbError::SimulatedCrash`] — which unwinds the transformation
/// exactly as a process kill would leave the *durable* state, once the
/// fault backend drops its unflushed bytes.
///
/// Production code never installs a hook; [`Database::crash_point`] is
/// a single relaxed atomic load in that case.
pub trait CrashHook: Send + Sync {
    /// Called at the named point. Returning an error aborts the
    /// surrounding operation (the simulated kill).
    fn at(&self, db: &Database, point: &str) -> DbResult<()>;
}

/// RAII registration of a truncation-protected LSN (see
/// [`Database::protect_log`]).
pub struct LogProtection {
    db: Arc<Database>,
    token: u64,
}

impl LogProtection {
    /// Move the protected point forward (the cursor advanced).
    pub fn update(&self, lsn: Lsn) {
        self.db.protected_lsns.write().insert(self.token, lsn);
    }
}

impl Drop for LogProtection {
    fn drop(&mut self) {
        self.db.protected_lsns.write().remove(&self.token);
    }
}

/// Multi-version state of a database: the commit table snapshot
/// readers consult for visibility, the tracker of live snapshot
/// timestamps (the GC low-watermark source), and the commit seal.
///
/// ## The seal
///
/// A snapshot's timestamp is the published log tail; a committing
/// writer becomes visible by recording its commit LSN in the commit
/// table. Those are two steps — without ordering, a reader could
/// observe `last_lsn() ≥ commit_lsn` while the commit-table entry is
/// not yet written, fall through to the floor rule, and wrongly treat
/// a committed-before-its-snapshot transaction as invisible. The
/// `seal` mutex makes `append(Commit) + record_commit` atomic with
/// respect to `last_lsn() + register`: a snapshot sees a commit's LSN
/// if and only if it sees its outcome. It is held across one log
/// append and two map writes — never across a durability wait — so
/// commit throughput is unaffected (the fsync stays outside).
///
/// Aborts need no seal: an active or aborted transaction is invisible
/// either way, and the floor rule keeps pruned aborts invisible (see
/// `morph_storage::mvcc` module docs for the full argument).
struct MvccState {
    enabled: AtomicBool,
    commit: Arc<CommitTable>,
    snapshots: Arc<SnapshotTracker>,
    seal: Mutex<()>,
}

impl Default for MvccState {
    fn default() -> Self {
        MvccState {
            enabled: AtomicBool::new(false),
            commit: Arc::new(CommitTable::default()),
            snapshots: Arc::new(SnapshotTracker::default()),
            seal: Mutex::new(()),
        }
    }
}

/// The morphdb database: catalog + WAL + lock manager + transactions.
pub struct Database {
    catalog: Catalog,
    log: Arc<LogManager>,
    locks: LockManager,
    table_locks: TableLocks,
    registry: TxnRegistry,
    counters: Counters,
    next_txn: AtomicU64,
    interceptors: RwLock<InterceptorList>,
    next_interceptor: AtomicU64,
    /// LSNs that log truncation must not cross (live propagation
    /// cursors), keyed by protection token.
    protected_lsns: RwLock<std::collections::HashMap<u64, Lsn>>,
    next_protection: AtomicU64,
    crash_hook: RwLock<Option<Arc<dyn CrashHook>>>,
    has_crash_hook: AtomicBool,
    /// Table claims of running migration jobs (orchestrator conflict
    /// detection).
    migrations: MigrationRegistry,
    /// Multi-version read state (see [`MvccState`]). Inert until
    /// [`Database::enable_mvcc`].
    mvcc: MvccState,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// In-memory database with default lock-manager settings.
    pub fn new() -> Database {
        Self::with_log(Arc::new(LogManager::new()), LockManagerConfig::default())
    }

    /// Database with a caller-supplied log (e.g. file-backed or
    /// preloaded for recovery) and lock configuration.
    pub fn with_log(log: Arc<LogManager>, lock_config: LockManagerConfig) -> Database {
        Database {
            catalog: Catalog::new(),
            log,
            locks: LockManager::new(lock_config),
            table_locks: TableLocks::new(lock_config.wait_timeout),
            registry: TxnRegistry::new(),
            counters: Counters::default(),
            next_txn: AtomicU64::new(1),
            interceptors: RwLock::new(Arc::new([])),
            next_interceptor: AtomicU64::new(1),
            protected_lsns: RwLock::new(std::collections::HashMap::new()),
            next_protection: AtomicU64::new(1),
            crash_hook: RwLock::new(None),
            has_crash_hook: AtomicBool::new(false),
            migrations: MigrationRegistry::new(),
            mvcc: MvccState::default(),
        }
    }

    // --- crash points (simulation only) -------------------------------

    /// Install the crash-simulation hook (see [`CrashHook`]).
    pub fn set_crash_hook(&self, hook: Arc<dyn CrashHook>) {
        *self.crash_hook.write() = Some(hook);
        self.has_crash_hook.store(true, Ordering::Release);
    }

    /// Remove the crash-simulation hook.
    pub fn clear_crash_hook(&self) {
        *self.crash_hook.write() = None;
        self.has_crash_hook.store(false, Ordering::Release);
    }

    /// Report reaching the named execution point to the installed
    /// [`CrashHook`], if any. One atomic load when no hook is set.
    pub fn crash_point(&self, point: &str) -> DbResult<()> {
        if !self.has_crash_hook.load(Ordering::Acquire) {
            return Ok(());
        }
        let hook = self.crash_hook.read().clone();
        match hook {
            Some(h) => h.at(self, point),
            None => Ok(()),
        }
    }

    // --- component access ---------------------------------------------

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The write-ahead log.
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// The record-lock manager (the transformation framework installs
    /// transferred grants through this).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The table-granular (intention) lock manager. Every data
    /// operation takes IS/IX here before its record lock, so a
    /// whole-table S/X lock ("multigranularity locking", §4.3 remark)
    /// waits out record-level activity without polling.
    pub fn table_locks(&self) -> &TableLocks {
        &self.table_locks
    }

    /// Engine activity counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Point-in-time snapshot of this engine's counters with the WAL
    /// and lock-manager figures folded in — the per-shard leaf of
    /// [`ShardedDatabase::counters`](crate::router::ShardedDatabase::counters).
    pub fn counters_snapshot(&self) -> crate::counters::CountersSnapshot {
        let mut s = self.counters.full_snapshot();
        s.wal_flushes = self.log.flush_count();
        s.wal_records = self.log.len() as u64;
        s.lock_waits = self.locks.waits();
        s
    }

    /// Table claims of running migration jobs (see
    /// [`MigrationRegistry`]).
    pub fn migrations(&self) -> &MigrationRegistry {
        &self.migrations
    }

    /// Convenience: create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> DbResult<Arc<Table>> {
        self.catalog.create_table(name, schema)
    }

    // --- transaction lifecycle ------------------------------------------

    /// Begin a transaction.
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.registry
            .begin_with(id, || self.log.append(LogRecord::Begin { txn: id }));
        Counters::bump(&self.counters.begins);
        id
    }

    /// Commit. If the transaction was doomed by a synchronization step,
    /// it is rolled back instead and `TxnDoomed` is returned.
    pub fn commit(&self, txn: TxnId) -> DbResult<()> {
        let cell = self.registry.get(txn)?;
        if cell.is_doomed() {
            self.rollback_cell(&cell)?;
            Counters::bump(&self.counters.doomed_aborts);
            return Err(DbError::TxnDoomed(txn));
        }
        // Read-only transactions have no redo/undo work: their Commit
        // record need not be durable before they acknowledge (there is
        // nothing to lose), so they skip the durability wait — and with
        // it the fsync — entirely. Writers wait on the group-commit
        // watermark: one backend flush may cover many committers.
        let wrote = !cell.state.lock().undo.is_empty();
        self.crash_point("commit.wal_append")?;
        let commit_lsn = if self.mvcc_enabled() {
            // Atomic with respect to snapshot acquisition: a snapshot
            // whose timestamp covers this commit's LSN must also see
            // its outcome in the commit table (see [`MvccState`]). The
            // seal spans one append and one map insert only — the
            // durability wait below stays outside it.
            let _seal = self.mvcc.seal.lock();
            let lsn = self.log.append(LogRecord::Commit { txn });
            self.mvcc.commit.record_commit(txn, lsn);
            lsn
        } else {
            self.log.append(LogRecord::Commit { txn })
        };
        if wrote {
            self.log.wait_durable(commit_lsn)?;
        }
        self.crash_point("commit.wal_durable")?;
        self.registry.remove(txn);
        self.locks.release_all(txn);
        self.table_locks.release_all(txn);
        Counters::bump(&self.counters.commits);
        Ok(())
    }

    /// Roll the transaction back, emitting CLRs.
    pub fn abort(&self, txn: TxnId) -> DbResult<()> {
        let cell = self.registry.get(txn)?;
        let was_doomed = cell.is_doomed();
        self.rollback_cell(&cell)?;
        if was_doomed {
            Counters::bump(&self.counters.doomed_aborts);
        }
        Ok(())
    }

    fn rollback_cell(&self, cell: &Arc<TxnCell>) -> DbResult<()> {
        let txn = cell.id;
        self.log.append(LogRecord::Abort { txn });
        let undo = std::mem::take(&mut cell.state.lock().undo);
        let wrote = !undo.is_empty();
        let mut first_err = None;
        for (undone_lsn, inverse) in undo.into_iter().rev() {
            // Rollback must run to completion no matter what: skipping
            // the lock release or leaving the transaction registered
            // would wedge every future accessor of its records. A
            // compensation can legitimately fail only when its table
            // was dropped after the fact (a completed schema change
            // discarding a source table), in which case the physical
            // state no longer matters.
            if let Err(e) = self.apply_clr(txn, undone_lsn, inverse) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        let end_lsn = self.log.append(LogRecord::AbortEnd { txn });
        if self.mvcc_enabled() {
            // No seal needed: the transaction was invisible while
            // active (no outcome entry, ops above the floor) and stays
            // invisible as Aborted — there is no visibility edge for a
            // snapshot to race with. The end LSN bounds commit-table
            // pruning: once it is at or below the GC watermark, the
            // compensating SYSTEM-stamped CLR versions resolve every
            // read that could still reach the aborted entries.
            self.mvcc.commit.record_abort(txn, end_lsn);
        }
        if wrote {
            // CLRs must be durable before the rollback acknowledges,
            // through the same group-commit watermark as commits.
            self.log.wait_durable(end_lsn)?;
        }
        self.crash_point("abort.wal_durable")?;
        self.registry.remove(txn);
        self.locks.release_all(txn);
        self.table_locks.release_all(txn);
        Counters::bump(&self.counters.aborts);
        match first_err {
            // Dropped table: the compensation target no longer exists;
            // the rollback is trivially complete for it.
            None | Some(DbError::NoSuchTableId(_)) => Ok(()),
            Some(e) => Err(DbError::Internal(format!(
                "rollback of {txn} could not compensate an operation: {e}"
            ))),
        }
    }

    /// Apply one compensation: log the CLR and execute the inverse
    /// operation atomically under the table latch.
    fn apply_clr(&self, txn: TxnId, undone_lsn: Lsn, inverse: LogOp) -> DbResult<()> {
        let table = self.catalog.get_by_id(inverse.table())?;
        match &inverse {
            LogOp::Insert { row, .. } => {
                let row = row.clone();
                let log = &self.log;
                let rec = LogRecord::Clr {
                    txn,
                    undone_lsn,
                    op: inverse.clone(),
                };
                table.insert_with(row, || Ok(log.append(rec)))?;
            }
            LogOp::Delete { key, .. } => {
                let rec = LogRecord::Clr {
                    txn,
                    undone_lsn,
                    op: inverse.clone(),
                };
                let log = &self.log;
                // The CLR's tombstone is stamped SYSTEM (visible by
                // LSN order): snapshots taken after the rollback see
                // the compensated state without consulting the — soon
                // pruned — aborted writer's outcome.
                table.delete_with_writer(key, SYSTEM, |_| Ok(log.append(rec)))?;
            }
            LogOp::Update { key, new, .. } => {
                let rec = LogRecord::Clr {
                    txn,
                    undone_lsn,
                    op: inverse.clone(),
                };
                let log = &self.log;
                table.update_with(key, new, |_| Ok(log.append(rec)))?;
            }
        }
        Ok(())
    }

    /// Whether `txn` is still active.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.registry.is_active(txn)
    }

    /// Ids of all active transactions.
    pub fn active_txns(&self) -> Vec<TxnId> {
        self.registry.active_ids()
    }

    /// Doom a transaction: its next operation (and commit) fail with
    /// [`DbError::TxnDoomed`], forcing the client to roll it back. Used
    /// by non-blocking-abort synchronization (§3.4). Returns `false`
    /// if the transaction already finished.
    pub fn doom(&self, txn: TxnId) -> bool {
        self.registry.doom(txn)
    }

    // --- fuzzy mark (§3.2) ------------------------------------------------

    /// Append a fuzzy mark. Atomically (with respect to transaction
    /// admission) snapshots the active transactions and computes the
    /// LSN log propagation must start from: the first LSN of the
    /// oldest active transaction, or the mark itself when the system
    /// is quiescent. Returns `(mark_lsn, start_lsn, active)`.
    pub fn write_fuzzy_mark(&self) -> (Lsn, Lsn, Vec<TxnId>) {
        self.registry.with_admission_blocked(|active, oldest| {
            let start = oldest.unwrap_or_else(|| self.log.last_lsn().next());
            let mark = self.log.append(LogRecord::FuzzyMark {
                active: active.clone(),
                start_lsn: start,
            });
            (mark, start, active)
        })
    }

    /// Append a checkpoint record: the active transactions and their
    /// first LSNs. Restart recovery replays the whole log regardless
    /// (the engine is main-memory), but checkpoints let log-shipping
    /// and diagnostic tooling bound their scans, and keep the log
    /// format compatible with disk-based consumers.
    pub fn write_checkpoint(&self) -> Lsn {
        self.registry
            .with_checkpoint_snapshot(|active| self.log.append(LogRecord::Checkpoint { active }))
    }

    // --- MVCC snapshot reads ----------------------------------------------

    /// Switch multi-version reads on: every table (current and future)
    /// starts archiving pre-images on writes, commits and aborts are
    /// recorded in the commit table, and [`Database::begin_snapshot`]
    /// hands out consistent read timestamps. One-way and idempotent;
    /// rows written before the switch stay visible to every snapshot
    /// (they carry the `SYSTEM` writer stamp, visible by LSN order).
    pub fn enable_mvcc(&self) {
        self.catalog.enable_versioning_everywhere();
        self.mvcc.enabled.store(true, Ordering::Release);
    }

    /// Whether [`Database::enable_mvcc`] has been called.
    pub fn mvcc_enabled(&self) -> bool {
        self.mvcc.enabled.load(Ordering::Acquire)
    }

    /// The commit table snapshot visibility checks consult. Handed to
    /// [`morph_storage::Table::snapshot_scan`] and friends by callers
    /// that drive scanners directly.
    pub fn commit_table(&self) -> Arc<CommitTable> {
        Arc::clone(&self.mvcc.commit)
    }

    /// Number of snapshots currently live (tests and GC diagnostics).
    pub fn live_snapshots(&self) -> usize {
        self.mvcc.snapshots.live_count()
    }

    /// Take a consistent read timestamp: everything committed up to
    /// now is visible, nothing that commits later is. The snapshot
    /// pins the GC watermark until dropped and **never takes a record
    /// or table lock** — reads through it cannot block on, or be
    /// blocked by, writers or in-flight schema changes.
    pub fn begin_snapshot(&self) -> DbResult<Arc<Snapshot>> {
        self.crash_point("mvcc.snapshot_acquire")?;
        // The seal orders this against committers: a commit whose LSN
        // is at or below our timestamp has its outcome recorded before
        // we read the tail (see [`MvccState`]).
        let _seal = self.mvcc.seal.lock();
        let lsn = self.log.last_lsn();
        Ok(Arc::new(Snapshot::register(
            Arc::clone(&self.mvcc.snapshots),
            lsn,
        )))
    }

    /// Read the row at `key` as of `snap`. Lock-free (one shard latch).
    pub fn snapshot_read(
        &self,
        snap: &Snapshot,
        table: &str,
        key: &Key,
    ) -> DbResult<Option<Vec<Value>>> {
        let t = self.catalog.get(table)?;
        Ok(t.snapshot_get(key, snap.lsn(), &self.mvcc.commit)
            .map(|r| r.values))
    }

    /// All rows of `table` as of `snap`, in key order. Lock-free; the
    /// scan takes each shard latch briefly per chunk, so it neither
    /// blocks writers for long nor waits on any transaction lock.
    pub fn snapshot_scan(&self, snap: &Snapshot, table: &str) -> DbResult<Vec<(Key, Vec<Value>)>> {
        let t = self.catalog.get(table)?;
        let rows = t
            .snapshot_scan(256, snap.lsn(), self.commit_table())
            .collect_all()
            .into_iter()
            .map(|(k, r)| (k, r.values))
            .collect();
        Ok(rows)
    }

    /// Reclaim archived versions nothing can see any more. The
    /// low-watermark is the minimum of
    ///
    /// 1. the oldest live snapshot timestamp,
    /// 2. the first LSN of the oldest active transaction (its ops all
    ///    carry LSNs at or above it, so they stay resolvable while it
    ///    can still commit or abort),
    /// 3. the WAL durability watermark (restart recovery replays from
    ///    genesis, but tying GC to durability means a crash can never
    ///    lose the outcome of a transaction whose versions were
    ///    already reclaimed).
    ///
    /// Also prunes the commit table: outcomes ending at or below the
    /// watermark are dropped and the visibility *floor* rises, which
    /// is what keeps pruned history correctly visible (see
    /// `morph_storage::mvcc`). Returns the number of version entries
    /// reclaimed. No-op until [`Database::enable_mvcc`].
    pub fn mvcc_gc(&self) -> DbResult<u64> {
        if !self.mvcc_enabled() {
            return Ok(0);
        }
        let durable = self.log.durability_watermark();
        let oldest_txn = self
            .registry
            .with_checkpoint_snapshot(|active| active.iter().map(|(_, l)| *l).min());
        let mut watermark = durable;
        if let Some(l) = oldest_txn {
            watermark = watermark.min(l);
        }
        if let Some(l) = self.mvcc.snapshots.oldest() {
            watermark = watermark.min(l);
        }
        self.crash_point("mvcc.gc_reclaim")?;
        let mut reclaimed = 0u64;
        for t in self.catalog.tables() {
            reclaimed += t.gc_versions(watermark, &self.mvcc.commit);
        }
        self.mvcc.commit.prune(watermark);
        self.counters
            .mvcc_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        Ok(reclaimed)
    }

    /// Register an LSN that log truncation must never cross (a live
    /// propagation cursor). The returned guard moves the protected
    /// point forward via [`LogProtection::update`] and releases it on
    /// drop — so a transformation that dies on any path cannot leave a
    /// stale protection pinning the log.
    pub fn protect_log(self: &Arc<Self>, lsn: Lsn) -> LogProtection {
        let token = self.next_protection.fetch_add(1, Ordering::Relaxed);
        self.protected_lsns.write().insert(token, lsn);
        LogProtection {
            db: Arc::clone(self),
            token,
        }
    }

    /// Truncate the in-memory log up to (but excluding) the oldest LSN
    /// anything still needs: the first LSN of any active transaction
    /// and every registered protection ([`Database::protect_log`]).
    /// Returns the number of records discarded. The file backend, if
    /// any, keeps the complete archive for restart recovery.
    pub fn truncate_log(&self) -> DbResult<usize> {
        let oldest_protected = self.protected_lsns.read().values().copied().min();
        let keep = self.registry.with_checkpoint_snapshot(|active| {
            let oldest_txn = active.iter().map(|(_, l)| *l).min();
            match (oldest_txn, oldest_protected) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                // Nothing needs the log: everything up to the tail may
                // go (the next append is still totally ordered).
                (None, None) => self.log.last_lsn().next(),
            }
        });
        self.log.truncate_until(keep)
    }

    // --- interceptors ------------------------------------------------------

    /// Register an interceptor; returns a token for removal.
    pub fn add_interceptor(&self, i: Arc<dyn OpInterceptor>) -> u64 {
        let token = self.next_interceptor.fetch_add(1, Ordering::Relaxed);
        let mut list = self.interceptors.write();
        *list = list.iter().cloned().chain([(token, i)]).collect();
        token
    }

    /// Remove a previously registered interceptor.
    pub fn remove_interceptor(&self, token: u64) {
        let mut list = self.interceptors.write();
        *list = list.iter().filter(|(t, _)| *t != token).cloned().collect();
    }

    fn run_interceptors(&self, txn: TxnId, table: &Table, op: &PlannedOp<'_>) -> DbResult<()> {
        // Fast path: no interceptors registered.
        let snapshot = {
            let g = self.interceptors.read();
            if g.is_empty() {
                return Ok(());
            }
            Arc::clone(&g)
        };
        for (_, i) in snapshot.iter() {
            i.before_op(self, txn, table, op)?;
        }
        Ok(())
    }

    // --- data operations ----------------------------------------------------

    /// Acquire `mode` on `table` for `txn` unless an already-held mode
    /// covers it (cached in the transaction cell, so the global
    /// table-lock manager is consulted roughly twice per transaction
    /// rather than once per operation).
    fn ensure_table_lock(
        &self,
        cell: &TxnCell,
        table: morph_common::TableId,
        mode: GranularMode,
    ) -> DbResult<()> {
        {
            let state = cell.state.lock();
            if state
                .table_modes
                .iter()
                .any(|(t, m)| *t == table && m.covers(mode))
            {
                return Ok(());
            }
        }
        self.table_locks.lock(cell.id, table, mode)?;
        let mut state = cell.state.lock();
        match state.table_modes.iter_mut().find(|(t, _)| *t == table) {
            Some((_, m)) => *m = m.combine(mode),
            None => state.table_modes.push((table, mode)),
        }
        Ok(())
    }

    fn cell_for_op(&self, txn: TxnId) -> DbResult<Arc<TxnCell>> {
        let cell = self.registry.get(txn)?;
        if cell.is_doomed() {
            return Err(DbError::TxnDoomed(txn));
        }
        Ok(cell)
    }

    /// Insert a row into the named table.
    pub fn insert(&self, txn: TxnId, table: &str, values: Vec<Value>) -> DbResult<Key> {
        let t = self.catalog.get(table)?;
        self.insert_in(txn, &t, values)
    }

    /// Insert a row into a resolved table.
    pub fn insert_in(&self, txn: TxnId, table: &Arc<Table>, values: Vec<Value>) -> DbResult<Key> {
        let cell = self.cell_for_op(txn)?;
        table.check_access(txn)?;
        let schema = table.schema();
        schema.validate(&values)?;
        let key = schema.key_of(&values);
        self.ensure_table_lock(&cell, table.id(), GranularMode::IntentionExclusive)?;
        self.locks
            .lock(txn, table.id(), &key, LockMode::Exclusive)?;
        self.run_interceptors(txn, table, &PlannedOp::Insert { values: &values })?;

        let op = LogOp::Insert {
            table: table.id(),
            row: values.clone(),
        };
        let mut lsn = Lsn::ZERO;
        table.insert_with_writer(values.clone(), txn, || {
            // Re-check access under the latch: a synchronization step
            // may have frozen the table since the entry check.
            table.check_access(txn)?;
            lsn = self.log.append(LogRecord::Op { txn, op });
            Ok(lsn)
        })?;
        cell.state.lock().undo.push((
            lsn,
            LogOp::Delete {
                table: table.id(),
                key: key.clone(),
                old: values,
            },
        ));
        Counters::bump(&self.counters.ops);
        Ok(key)
    }

    /// Update columns of the row at `key` in the named table.
    pub fn update(
        &self,
        txn: TxnId,
        table: &str,
        key: &Key,
        cols: &[(usize, Value)],
    ) -> DbResult<()> {
        let t = self.catalog.get(table)?;
        self.update_in(txn, &t, key, cols)
    }

    /// Update columns of the row at `key` in a resolved table.
    pub fn update_in(
        &self,
        txn: TxnId,
        table: &Arc<Table>,
        key: &Key,
        cols: &[(usize, Value)],
    ) -> DbResult<()> {
        let cell = self.cell_for_op(txn)?;
        table.check_access(txn)?;
        self.ensure_table_lock(&cell, table.id(), GranularMode::IntentionExclusive)?;
        self.locks.lock(txn, table.id(), key, LockMode::Exclusive)?;

        // If primary-key columns change, the destination key must be
        // locked too before anything is logged.
        let schema = table.schema();
        let pkey_changes = schema
            .pkey()
            .iter()
            .any(|p| cols.iter().any(|(i, _)| i == p));
        if pkey_changes {
            let row = table
                .get(key)
                .ok_or_else(|| DbError::KeyNotFound(format!("{key:?}")))?;
            let mut new_values = row.values.clone();
            for (i, v) in cols {
                if *i < new_values.len() {
                    new_values[*i] = v.clone();
                }
            }
            let new_key = schema.key_of(&new_values);
            if new_key != *key {
                self.locks
                    .lock(txn, table.id(), &new_key, LockMode::Exclusive)?;
            }
        }
        self.run_interceptors(txn, table, &PlannedOp::Update { key, cols })?;

        let mut lsn = Lsn::ZERO;
        let outcome = table.update_with_writer(key, cols, txn, |plan| {
            table.check_access(txn)?;
            lsn = self.log.append(LogRecord::Op {
                txn,
                op: LogOp::Update {
                    table: table.id(),
                    key: key.clone(),
                    old: plan.old_cols.clone(),
                    new: cols.to_vec(),
                },
            });
            Ok(lsn)
        })?;
        cell.state.lock().undo.push((
            lsn,
            LogOp::Update {
                table: table.id(),
                key: outcome.new_key,
                old: cols.to_vec(),
                new: outcome.old_cols,
            },
        ));
        Counters::bump(&self.counters.ops);
        Ok(())
    }

    /// Delete the row at `key` in the named table.
    pub fn delete(&self, txn: TxnId, table: &str, key: &Key) -> DbResult<()> {
        let t = self.catalog.get(table)?;
        self.delete_in(txn, &t, key)
    }

    /// Delete the row at `key` in a resolved table.
    pub fn delete_in(&self, txn: TxnId, table: &Arc<Table>, key: &Key) -> DbResult<()> {
        let cell = self.cell_for_op(txn)?;
        table.check_access(txn)?;
        self.ensure_table_lock(&cell, table.id(), GranularMode::IntentionExclusive)?;
        self.locks.lock(txn, table.id(), key, LockMode::Exclusive)?;
        self.run_interceptors(txn, table, &PlannedOp::Delete { key })?;

        let mut pre_image = Vec::new();
        let mut lsn = Lsn::ZERO;
        table.delete_with_writer(key, txn, |row| {
            table.check_access(txn)?;
            pre_image = row.values.clone();
            lsn = self.log.append(LogRecord::Op {
                txn,
                op: LogOp::Delete {
                    table: table.id(),
                    key: key.clone(),
                    old: row.values.clone(),
                },
            });
            Ok(lsn)
        })?;
        cell.state.lock().undo.push((
            lsn,
            LogOp::Insert {
                table: table.id(),
                row: pre_image,
            },
        ));
        Counters::bump(&self.counters.ops);
        Ok(())
    }

    /// Read the row at `key` under a shared lock.
    pub fn read(&self, txn: TxnId, table: &str, key: &Key) -> DbResult<Option<Vec<Value>>> {
        let t = self.catalog.get(table)?;
        self.read_in(txn, &t, key)
    }

    /// Read the row at `key` in a resolved table under a shared lock.
    pub fn read_in(
        &self,
        txn: TxnId,
        table: &Arc<Table>,
        key: &Key,
    ) -> DbResult<Option<Vec<Value>>> {
        let cell = self.cell_for_op(txn)?;
        table.check_access(txn)?;
        self.ensure_table_lock(&cell, table.id(), GranularMode::IntentionShared)?;
        self.locks.lock(txn, table.id(), key, LockMode::Shared)?;
        self.run_interceptors(txn, table, &PlannedOp::Read { key })?;
        Ok(table.get(key).map(|r| r.values))
    }

    /// Lock-free dirty read (the consistency checker's "read without
    /// using locks", §5.3 — it still takes the short physical latch).
    pub fn read_dirty(&self, table: &str, key: &Key) -> DbResult<Option<Vec<Value>>> {
        Ok(self.catalog.get(table)?.get(key).map(|r| r.values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::ColumnType;

    fn db_with_table() -> (Database, Arc<Table>) {
        let db = Database::new();
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .column("val", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let t = db.create_table("t", schema).unwrap();
        (db, t)
    }

    fn row(id: i64, v: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::str(v)]
    }

    #[test]
    fn insert_commit_visible() {
        let (db, t) = db_with_table();
        let txn = db.begin();
        db.insert(txn, "t", row(1, "a")).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, "a"));
        assert_eq!(Counters::get(&db.counters().commits), 1);
        // Log: Begin, Op, Commit.
        assert_eq!(db.log().len(), 3);
    }

    #[test]
    fn rollback_restores_everything_and_writes_clrs() {
        let (db, t) = db_with_table();
        let setup = db.begin();
        db.insert(setup, "t", row(1, "keep")).unwrap();
        db.insert(setup, "t", row(2, "victim")).unwrap();
        db.commit(setup).unwrap();

        let txn = db.begin();
        db.insert(txn, "t", row(3, "new")).unwrap();
        db.update(txn, "t", &Key::single(1), &[(1, Value::str("dirty"))])
            .unwrap();
        db.delete(txn, "t", &Key::single(2)).unwrap();
        db.abort(txn).unwrap();

        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, "keep"));
        assert_eq!(t.get(&Key::single(2)).unwrap().values, row(2, "victim"));
        assert!(t.get(&Key::single(3)).is_none());

        // 3 CLRs + Abort + AbortEnd present.
        let mut clrs = 0;
        let mut abort_end = 0;
        for (_, rec) in db.log().read_range(Lsn(1), usize::MAX) {
            match &*rec {
                LogRecord::Clr { .. } => clrs += 1,
                LogRecord::AbortEnd { .. } => abort_end += 1,
                _ => {}
            }
        }
        assert_eq!(clrs, 3);
        assert_eq!(abort_end, 1);
        // Locks released.
        assert_eq!(db.locks().held_count(txn), 0);
    }

    #[test]
    fn rollback_of_pkey_move_restores_original_key() {
        let (db, t) = db_with_table();
        let setup = db.begin();
        db.insert(setup, "t", row(1, "a")).unwrap();
        db.commit(setup).unwrap();

        let txn = db.begin();
        db.update(txn, "t", &Key::single(1), &[(0, Value::Int(9))])
            .unwrap();
        assert!(t.get(&Key::single(9)).is_some());
        db.abort(txn).unwrap();
        assert!(t.get(&Key::single(9)).is_none());
        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, "a"));
    }

    #[test]
    fn doomed_txn_rejected_and_rolled_back_on_commit() {
        let (db, t) = db_with_table();
        let txn = db.begin();
        db.insert(txn, "t", row(1, "a")).unwrap();
        assert!(db.doom(txn));
        assert!(matches!(
            db.insert(txn, "t", row(2, "b")),
            Err(DbError::TxnDoomed(_))
        ));
        assert!(matches!(db.commit(txn), Err(DbError::TxnDoomed(_))));
        // Commit performed the rollback.
        assert!(t.get(&Key::single(1)).is_none());
        assert!(!db.is_active(txn));
        assert_eq!(Counters::get(&db.counters().doomed_aborts), 1);
    }

    #[test]
    fn write_conflict_between_txns_respects_locks() {
        let (db, _t) = db_with_table();
        let t1 = db.begin();
        let t2 = db.begin();
        db.insert(t1, "t", row(1, "a")).unwrap();
        // Younger t2 dies trying to touch the same record.
        assert!(matches!(
            db.update(t2, "t", &Key::single(1), &[(1, Value::str("x"))]),
            Err(DbError::Deadlock(_))
        ));
        db.abort(t2).unwrap();
        db.commit(t1).unwrap();
    }

    #[test]
    fn read_takes_shared_lock() {
        let (db, _t) = db_with_table();
        let w = db.begin();
        db.insert(w, "t", row(1, "a")).unwrap();
        db.commit(w).unwrap();

        let r1 = db.begin();
        let r2 = db.begin();
        assert_eq!(
            db.read(r1, "t", &Key::single(1)).unwrap(),
            Some(row(1, "a"))
        );
        assert_eq!(
            db.read(r2, "t", &Key::single(1)).unwrap(),
            Some(row(1, "a"))
        );
        // A younger writer dies against the two readers.
        let w2 = db.begin();
        assert!(matches!(
            db.update(w2, "t", &Key::single(1), &[(1, Value::str("x"))]),
            Err(DbError::Deadlock(_))
        ));
        db.abort(w2).unwrap();
        db.commit(r1).unwrap();
        db.commit(r2).unwrap();
    }

    #[test]
    fn read_missing_row_is_none_dirty_read_needs_no_txn() {
        let (db, _t) = db_with_table();
        let txn = db.begin();
        assert_eq!(db.read(txn, "t", &Key::single(404)).unwrap(), None);
        db.commit(txn).unwrap();
        assert_eq!(db.read_dirty("t", &Key::single(404)).unwrap(), None);
        assert!(db.read_dirty("ghost", &Key::single(1)).is_err());
    }

    #[test]
    fn fuzzy_mark_reports_active_and_start() {
        let (db, _t) = db_with_table();
        // Quiescent: start == mark lsn.
        let (mark, start, active) = db.write_fuzzy_mark();
        assert!(active.is_empty());
        assert_eq!(mark, start);

        let txn = db.begin();
        db.insert(txn, "t", row(1, "a")).unwrap();
        let (mark2, start2, active2) = db.write_fuzzy_mark();
        assert_eq!(active2, vec![txn]);
        // Start points at the Begin record of the active txn, which
        // precedes its op and the mark.
        assert!(start2 < mark2);
        assert_eq!(*db.log().read(start2).unwrap(), LogRecord::Begin { txn });
        db.commit(txn).unwrap();
    }

    #[test]
    fn frozen_table_blocks_new_txn_allows_grandfathered() {
        let (db, t) = db_with_table();
        let old = db.begin();
        db.insert(old, "t", row(1, "a")).unwrap();
        t.freeze([old].into_iter().collect());
        let newer = db.begin();
        assert!(matches!(
            db.insert(newer, "t", row(2, "b")),
            Err(DbError::TableFrozen(_))
        ));
        db.insert(old, "t", row(3, "c")).unwrap();
        db.commit(old).unwrap();
        db.abort(newer).unwrap();
    }

    #[test]
    fn ops_on_unknown_txn_fail() {
        let (db, _t) = db_with_table();
        assert!(matches!(
            db.insert(TxnId(999), "t", row(1, "a")),
            Err(DbError::TxnNotActive(_))
        ));
        assert!(matches!(
            db.commit(TxnId(999)),
            Err(DbError::TxnNotActive(_))
        ));
    }

    #[test]
    fn interceptor_can_veto_operations() {
        struct Veto;
        impl OpInterceptor for Veto {
            fn before_op(
                &self,
                _db: &Database,
                _txn: TxnId,
                _table: &Table,
                op: &PlannedOp<'_>,
            ) -> DbResult<()> {
                if matches!(op, PlannedOp::Delete { .. }) {
                    return Err(DbError::Internal("deletes vetoed".into()));
                }
                Ok(())
            }
        }
        let (db, t) = db_with_table();
        let token = db.add_interceptor(Arc::new(Veto));
        let txn = db.begin();
        db.insert(txn, "t", row(1, "a")).unwrap();
        assert!(db.delete(txn, "t", &Key::single(1)).is_err());
        assert!(t.get(&Key::single(1)).is_some(), "veto must precede apply");
        db.remove_interceptor(token);
        db.delete(txn, "t", &Key::single(1)).unwrap();
        db.commit(txn).unwrap();
    }

    #[test]
    fn update_missing_key_fails_cleanly() {
        let (db, _t) = db_with_table();
        let txn = db.begin();
        assert!(matches!(
            db.update(txn, "t", &Key::single(404), &[(1, Value::str("x"))]),
            Err(DbError::KeyNotFound(_))
        ));
        assert!(matches!(
            db.delete(txn, "t", &Key::single(404)),
            Err(DbError::KeyNotFound(_))
        ));
        // Txn still usable after a non-fatal error.
        db.insert(txn, "t", row(1, "a")).unwrap();
        db.commit(txn).unwrap();
    }

    #[test]
    fn truncation_respects_active_txns_and_protections() {
        let (db, _t) = db_with_table();
        let db = Arc::new(db);
        let setup = db.begin();
        for i in 0..10 {
            db.insert(setup, "t", row(i, "x")).unwrap();
        }
        db.commit(setup).unwrap();
        let total = db.log().len();

        // An active transaction pins the log at its Begin record.
        let active = db.begin();
        db.insert(active, "t", row(100, "y")).unwrap();
        let dropped = db.truncate_log().unwrap();
        assert!(dropped > 0, "prefix before the active txn is reclaimable");
        assert!(db
            .log()
            .read(db.registry.get(active).unwrap().first_lsn)
            .is_some());

        // A protection guard pins it harder.
        let guard = db.protect_log(Lsn(1)); // nothing below 1 → no-op
        assert_eq!(db.truncate_log().unwrap(), 0);
        db.commit(active).unwrap();
        assert_eq!(db.truncate_log().unwrap(), 0, "guard still pins LSN 1");
        drop(guard);
        // Everything is now reclaimable.
        assert!(db.truncate_log().unwrap() > 0);
        assert!(db.log().len() < total);
        // The engine keeps working after truncation.
        let txn = db.begin();
        db.insert(txn, "t", row(200, "z")).unwrap();
        db.commit(txn).unwrap();
    }

    #[test]
    fn checkpoint_records_active_txns() {
        let (db, _t) = db_with_table();
        let t1 = db.begin();
        db.insert(t1, "t", row(1, "a")).unwrap();
        let lsn = db.write_checkpoint();
        match &*db.log().read(lsn).unwrap() {
            LogRecord::Checkpoint { active } => {
                assert_eq!(active.len(), 1);
                assert_eq!(active[0].0, t1);
                // First LSN points at the Begin record.
                assert_eq!(
                    *db.log().read(active[0].1).unwrap(),
                    LogRecord::Begin { txn: t1 }
                );
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        db.commit(t1).unwrap();
        // Quiescent checkpoint is empty; recovery replays across it.
        let lsn = db.write_checkpoint();
        match &*db.log().read(lsn).unwrap() {
            LogRecord::Checkpoint { active } => assert!(active.is_empty()),
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_sees_only_prior_commits() {
        let (db, _t) = db_with_table();
        db.enable_mvcc();
        let w = db.begin();
        db.insert(w, "t", row(1, "v1")).unwrap();
        db.commit(w).unwrap();

        let snap = db.begin_snapshot().unwrap();
        // Later committed work is invisible to the snapshot…
        let w2 = db.begin();
        db.update(w2, "t", &Key::single(1), &[(1, Value::str("v2"))])
            .unwrap();
        db.insert(w2, "t", row(2, "new")).unwrap();
        db.commit(w2).unwrap();
        assert_eq!(
            db.snapshot_read(&snap, "t", &Key::single(1)).unwrap(),
            Some(row(1, "v1"))
        );
        assert_eq!(db.snapshot_read(&snap, "t", &Key::single(2)).unwrap(), None);
        // …while a fresh snapshot sees it.
        let snap2 = db.begin_snapshot().unwrap();
        assert_eq!(
            db.snapshot_read(&snap2, "t", &Key::single(1)).unwrap(),
            Some(row(1, "v2"))
        );
        assert_eq!(db.snapshot_scan(&snap, "t").unwrap().len(), 1);
        assert_eq!(db.snapshot_scan(&snap2, "t").unwrap().len(), 2);
    }

    #[test]
    fn snapshot_ignores_uncommitted_and_aborted_work() {
        let (db, _t) = db_with_table();
        db.enable_mvcc();
        let setup = db.begin();
        db.insert(setup, "t", row(1, "clean")).unwrap();
        db.commit(setup).unwrap();

        let dirty = db.begin();
        db.update(dirty, "t", &Key::single(1), &[(1, Value::str("dirty"))])
            .unwrap();
        // A snapshot taken while `dirty` is in flight never sees it —
        // neither active nor after its rollback.
        let snap = db.begin_snapshot().unwrap();
        assert_eq!(
            db.snapshot_read(&snap, "t", &Key::single(1)).unwrap(),
            Some(row(1, "clean"))
        );
        db.abort(dirty).unwrap();
        assert_eq!(
            db.snapshot_read(&snap, "t", &Key::single(1)).unwrap(),
            Some(row(1, "clean"))
        );
        let after = db.begin_snapshot().unwrap();
        assert_eq!(
            db.snapshot_read(&after, "t", &Key::single(1)).unwrap(),
            Some(row(1, "clean"))
        );
    }

    #[test]
    fn mvcc_gc_respects_live_snapshots() {
        let (db, t) = db_with_table();
        db.enable_mvcc();
        let w = db.begin();
        db.insert(w, "t", row(1, "v1")).unwrap();
        db.commit(w).unwrap();
        let snap = db.begin_snapshot().unwrap();
        for i in 0..3 {
            let w = db.begin();
            db.update(
                w,
                "t",
                &Key::single(1),
                &[(1, Value::str(format!("v{}", i + 2)))],
            )
            .unwrap();
            db.commit(w).unwrap();
        }
        assert!(t.version_count() > 0);
        // The live snapshot pins every version it can still reach.
        db.mvcc_gc().unwrap();
        assert_eq!(
            db.snapshot_read(&snap, "t", &Key::single(1)).unwrap(),
            Some(row(1, "v1"))
        );
        drop(snap);
        let reclaimed = db.mvcc_gc().unwrap();
        assert!(reclaimed > 0, "unpinned history must be reclaimed");
        assert_eq!(t.version_count(), 0);
        assert_eq!(Counters::get(&db.counters().mvcc_reclaimed), reclaimed);
        // Current state is untouched.
        let now = db.begin_snapshot().unwrap();
        assert_eq!(
            db.snapshot_read(&now, "t", &Key::single(1)).unwrap(),
            Some(row(1, "v4"))
        );
    }

    #[test]
    fn mvcc_disabled_is_inert() {
        let (db, t) = db_with_table();
        let w = db.begin();
        db.insert(w, "t", row(1, "a")).unwrap();
        db.commit(w).unwrap();
        let w = db.begin();
        db.update(w, "t", &Key::single(1), &[(1, Value::str("b"))])
            .unwrap();
        db.commit(w).unwrap();
        assert_eq!(t.version_count(), 0, "no archiving without enable_mvcc");
        assert_eq!(db.mvcc_gc().unwrap(), 0);
        assert!(db.mvcc.commit.is_empty(), "no outcomes recorded");
    }

    #[test]
    fn concurrent_transfer_workload_preserves_totals() {
        // Classic bank-transfer invariant under concurrency: total is
        // conserved across committed transfers despite deadlock aborts.
        let db = Arc::new(Database::new());
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let t = db.create_table("acct", schema).unwrap();
        let setup = db.begin();
        for i in 0..20 {
            db.insert(setup, "acct", vec![Value::Int(i), Value::Int(100)])
                .unwrap();
        }
        db.commit(setup).unwrap();

        let mut handles = Vec::new();
        for seed in 0..8u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut rng = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for _ in 0..100 {
                    let a = (rng() % 20) as i64;
                    let b = (rng() % 20) as i64;
                    if a == b {
                        continue;
                    }
                    let txn = db.begin();
                    let res = (|| -> DbResult<()> {
                        let va = db
                            .read(txn, "acct", &Key::single(a))?
                            .ok_or(DbError::KeyNotFound("a".into()))?;
                        let vb = db
                            .read(txn, "acct", &Key::single(b))?
                            .ok_or(DbError::KeyNotFound("b".into()))?;
                        let (ba, bb) = (va[1].as_int().unwrap(), vb[1].as_int().unwrap());
                        db.update(txn, "acct", &Key::single(a), &[(1, Value::Int(ba - 1))])?;
                        db.update(txn, "acct", &Key::single(b), &[(1, Value::Int(bb + 1))])?;
                        Ok(())
                    })();
                    match res {
                        Ok(()) => {
                            let _ = db.commit(txn);
                        }
                        Err(_) => {
                            let _ = db.abort(txn);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = t
            .snapshot()
            .iter()
            .map(|(_, r)| r.values[1].as_int().unwrap())
            .sum();
        assert_eq!(total, 2000, "transfers must conserve the total");
    }
}
