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
//! 4. **atomically under the table latch**: the doomed / frozen checks
//!    again, constraint checks, log append, physical apply, row LSN
//!    stamp.
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
//! Rollback walks the undo chain, the LSNs of the transaction's forward
//! operations, backwards: each is read back from the log, compensated
//! by its [`LogOp::undo`], logged as a CLR ([`LogRecord::Clr`])
//! atomically with its physical application, and then
//! [`LogRecord::AbortEnd`] is written. Restart
//! recovery rolls its losers back through the same body. The log
//! propagator treats CLRs exactly like forward operations, which is how
//! aborted work is washed out of transformed tables without ever
//! scanning backwards.

use crate::interceptor::OpInterceptor;
use crate::migrations::MigrationRegistry;
use crate::registry::{TxnCell, TxnRegistry};
use morph_common::{DbError, DbResult, Key, Lsn, Schema, TxnId, Value};
use morph_storage::{Catalog, CommitTable, Snapshot, SnapshotTracker, Table, SYSTEM};
use morph_txn::{LockManager, LockManagerConfig, LockMode};
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

/// One transaction found by [`Database::lock_holders`].
#[derive(Debug)]
pub struct LockHolder {
    /// The holder.
    pub txn: TxnId,
    /// Its held keys and modes, one list per asked table, in the order
    /// the tables were given.
    pub held: Vec<Vec<(Key, LockMode)>>,
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
    registry: TxnRegistry,
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
            registry: TxnRegistry::new(),
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

    /// Begin a transaction. It logs nothing: its first record is its
    /// first data record (DESIGN.md §11).
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.registry.begin_with(id, || self.log.last_lsn().next());
        id
    }

    /// Commit. If the transaction was doomed by a synchronization step,
    /// it is rolled back instead and `TxnDoomed` is returned.
    pub fn commit(&self, txn: TxnId) -> DbResult<()> {
        let cell = self.registry.get(txn)?;
        if cell.is_doomed() {
            self.rollback_cell(&cell)?;
            return Err(DbError::TxnDoomed(txn));
        }
        let wrote = !cell.undo.lock().is_empty();
        // No data record follows: from here on the cutover census
        // leaves this transaction out (see [`Database::lock_holders`]).
        // One that wrote nothing logs nothing, unless a census reported
        // it: a propagator waits for its Commit.
        let reported = cell.end();
        if !wrote && !reported {
            self.registry.remove(txn);
            self.locks.release_all(txn);
            return Ok(());
        }
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
        // A reader's Commit need not be durable before it acknowledges
        // (there is nothing to lose), so it skips the durability wait —
        // and with it the fsync. Writers wait on the group-commit
        // watermark: one backend flush may cover many committers.
        if wrote {
            self.log.wait_durable(commit_lsn)?;
        }
        self.crash_point("commit.wal_durable")?;
        self.registry.remove(txn);
        self.locks.release_all(txn);
        Ok(())
    }

    /// Roll the transaction back, emitting CLRs.
    pub fn abort(&self, txn: TxnId) -> DbResult<()> {
        let cell = self.registry.get(txn)?;
        self.rollback_cell(&cell)
    }

    fn rollback_cell(&self, cell: &Arc<TxnCell>) -> DbResult<()> {
        let txn = cell.id;
        let undo = std::mem::take(&mut *cell.undo.lock());
        let wrote = !undo.is_empty();
        // Nothing to undo: like a commit, log nothing unless reported.
        if !wrote && !cell.end() {
            self.registry.remove(txn);
            self.locks.release_all(txn);
            return Ok(());
        }
        let mut first_err = None;
        for undone_lsn in undo.into_iter().rev() {
            // Rollback must run to completion no matter what: skipping
            // the lock release or leaving the transaction registered
            // would wedge every future accessor of its records. A
            // compensation can legitimately fail only when its table
            // was dropped after the fact (a completed schema change
            // discarding a source table), in which case the physical
            // state no longer matters.
            if let Err(e) = self.apply_clr(txn, undone_lsn) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        // A writer ends after its last CLR, and logs AbortEnd either way.
        cell.end();
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
        match first_err {
            // Dropped table: the compensation target no longer exists;
            // the rollback is trivially complete for it.
            None | Some(DbError::NoSuchTableId(_)) => Ok(()),
            Some(e) => Err(DbError::Internal(format!(
                "rollback of {txn} could not compensate an operation: {e}"
            ))),
        }
    }

    /// Compensate the forward operation `txn` logged at `undone_lsn`,
    /// read back from the log (truncation stops at the oldest registered
    /// transaction, DESIGN.md §11): log the CLR carrying its
    /// [`LogOp::undo`] and execute that atomically under the table latch.
    fn apply_clr(&self, txn: TxnId, undone_lsn: Lsn) -> DbResult<()> {
        let forward = match self.log.read(undone_lsn) {
            Some(LogRecord::Op { txn: owner, op }) if owner == txn => Ok(op),
            _ => Err(DbError::Internal(format!(
                "{txn} has no op at LSN {undone_lsn}"
            ))),
        }?;
        let op = forward.undo(&self.catalog.get_by_id(forward.table())?.schema());
        self.apply_logged(&op, || {
            Ok(self.log.append(LogRecord::Clr {
                txn,
                undone_lsn,
                op: op.clone(),
            }))
        })
    }

    /// Raise the transaction-id counter above `max`: restart recovery
    /// reserves every id in the log, so no transaction begun after a
    /// restart reuses one.
    pub(crate) fn reserve_txn_ids(&self, max: TxnId) {
        self.next_txn.fetch_max(max.0 + 1, Ordering::Relaxed);
    }

    /// Roll back a loser of restart recovery the way every rollback
    /// runs: register it with `undo`, the LSNs of its forward operations
    /// not yet compensated, as its chain, and the oldest as its first LSN
    /// (truncation keeps what it reads back). It is marked reported, so
    /// a loser with nothing left to compensate logs its AbortEnd.
    pub(crate) fn undo_loser(&self, txn: TxnId, undo: Vec<Lsn>) -> DbResult<()> {
        let first = || *undo.first().unwrap_or(&self.log.last_lsn().next());
        let cell = self.registry.begin_with(txn, first);
        *cell.undo.lock() = undo;
        cell.report();
        self.rollback_cell(&cell)
    }

    /// Apply a logged operation through the table's single-row writes,
    /// with the LSN `mk_lsn` produces under the latch: the one mapping
    /// of a [`LogOp`] onto storage, shared by CLRs and restart redo.
    /// The writes are stamped `SYSTEM` (visible by LSN order):
    /// snapshots taken after a rollback see the compensated state
    /// without consulting the — soon pruned — aborted writer's outcome,
    /// and a recovered log carries no commit-table state to resolve the
    /// original writers.
    pub(crate) fn apply_logged(
        &self,
        op: &LogOp,
        mk_lsn: impl FnOnce() -> DbResult<Lsn>,
    ) -> DbResult<()> {
        let table = self.catalog.get_by_id(op.table())?;
        match op {
            LogOp::Insert { row, .. } => table.insert_with(row.clone(), SYSTEM, mk_lsn).map(drop),
            LogOp::Delete { key, .. } => table.delete_with(key, SYSTEM, |_| mk_lsn()).map(drop),
            LogOp::Update { key, new, .. } => {
                table.update_with(key, new, SYSTEM, |_| mk_lsn()).map(drop)
            }
        }
    }

    /// Whether `txn` is still active.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.registry.is_active(txn)
    }

    /// The cutover census: every active transaction holding a record
    /// lock on any of `tables`, with its held keys per table. This is
    /// how synchronization, the lazy cutover and the blocking baseline
    /// decide which transactions are *old*.
    ///
    /// A transaction that has logged its last data record
    /// ([`TxnCell::ending`]) is left out. It performs no further
    /// operation on any table, and its end record, if any, may already
    /// be behind a final drain, so nothing would ever release a caller
    /// waiting on it. Conversely, a transaction the census does report
    /// logs an end record even if it wrote nothing ([`TxnCell::report`]),
    /// and has not yet published it to anyone who drained the log first.
    pub fn lock_holders(&self, tables: &[Arc<Table>]) -> Vec<LockHolder> {
        let mut out = Vec::new();
        for cell in self.registry.cells() {
            let held: Vec<_> = tables
                .iter()
                .map(|t| self.locks.held_keys_in(cell.id, t.id()))
                .collect();
            if held.iter().any(|h| !h.is_empty()) && cell.report() {
                out.push(LockHolder { txn: cell.id, held });
            }
        }
        out
    }

    /// Doom a transaction: its next operation (and commit) fail with
    /// [`DbError::TxnDoomed`], forcing the client to roll it back. Used
    /// by non-blocking-abort synchronization (§3.4). Returns `false`
    /// if the transaction already finished.
    pub fn doom(&self, txn: TxnId) -> bool {
        self.registry.doom(txn)
    }

    // --- fuzzy mark (§3.2) ------------------------------------------------

    /// The fuzzy mark, as a census rather than a log record: the oldest
    /// LSN any active transaction may still log or roll back, taken
    /// with transaction admission blocked. It is the first LSN of the
    /// oldest active transaction, or the log tail's successor when none
    /// is active. Log propagation starts here (§3.2), truncation keeps
    /// it, and MVCC GC keeps what it can still resolve. Appends nothing.
    pub fn fuzzy_mark(&self) -> Lsn {
        self.registry
            .with_admission_blocked(|oldest| oldest.unwrap_or_else(|| self.log.last_lsn().next()))
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
    /// scan takes each shard's read latch once, so it never waits on a
    /// transaction lock.
    pub fn snapshot_scan(&self, snap: &Snapshot, table: &str) -> DbResult<Vec<(Key, Vec<Value>)>> {
        let t = self.catalog.get(table)?;
        let rows = t
            .snapshot_scan(snap.lsn(), &self.mvcc.commit)
            .into_iter()
            .map(|(k, r)| (k, r.values))
            .collect();
        Ok(rows)
    }

    /// Reclaim archived versions nothing can see any more. The
    /// low-watermark is the minimum of
    ///
    /// 1. the oldest live snapshot timestamp,
    /// 2. the fuzzy mark ([`Database::fuzzy_mark`]): every op of an
    ///    active transaction carries an LSN at or above it, so it stays
    ///    resolvable while the transaction can still commit or abort,
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
        let mut watermark = self.log.durability_watermark().min(self.fuzzy_mark());
        if let Some(l) = self.mvcc.snapshots.oldest() {
            watermark = watermark.min(l);
        }
        self.crash_point("mvcc.gc_reclaim")?;
        let mut reclaimed = 0u64;
        for t in self.catalog.tables() {
            reclaimed += t.gc_versions(watermark, &self.mvcc.commit);
        }
        self.mvcc.commit.prune(watermark);
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
    /// anything still needs: the fuzzy mark ([`Database::fuzzy_mark`])
    /// and every registered protection ([`Database::protect_log`]).
    /// Returns the number of records discarded. The file backend, if
    /// any, keeps the complete archive for restart recovery.
    pub fn truncate_log(&self) -> DbResult<usize> {
        let protected = self.protected_lsns.read().values().copied().min();
        let keep = self.fuzzy_mark().min(protected.unwrap_or(Lsn::MAX));
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

    fn cell_for_op(&self, txn: TxnId) -> DbResult<Arc<TxnCell>> {
        let cell = self.registry.get(txn)?;
        if cell.is_doomed() {
            return Err(DbError::TxnDoomed(txn));
        }
        Ok(cell)
    }

    /// The entry checks again, under the latch a write holds: a cutover
    /// may have frozen the table or doomed the transaction since. A
    /// cutover does both under that same latch, so no write of a
    /// transaction it dooms lands after it, and a frozen source changes
    /// afterwards only by the doomed transactions' rollbacks.
    fn check_latched(cell: &TxnCell, table: &Table) -> DbResult<()> {
        if cell.is_doomed() {
            return Err(DbError::TxnDoomed(cell.id));
        }
        table.check_access(cell.id)
    }

    /// Insert a row into the named table.
    pub fn insert(&self, txn: TxnId, table: &str, values: Vec<Value>) -> DbResult<Key> {
        let t = self.catalog.get(table)?;
        let cell = self.cell_for_op(txn)?;
        t.check_access(txn)?;
        let schema = t.schema();
        schema.validate(&values)?;
        let key = schema.key_of(&values);
        self.locks.lock(txn, t.id(), &key, LockMode::Exclusive)?;
        self.run_interceptors(txn, &t, &PlannedOp::Insert { values: &values })?;

        let logged = LogRecord::Op {
            txn,
            op: LogOp::Insert {
                table: t.id(),
                row: values.clone(),
            },
        };
        let mut lsn = Lsn::ZERO;
        t.insert_with(values, txn, || {
            Self::check_latched(&cell, &t)?;
            lsn = self.log.append(logged);
            Ok(lsn)
        })?;
        cell.undo.lock().push(lsn);
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
        let cell = self.cell_for_op(txn)?;
        t.check_access(txn)?;
        self.locks.lock(txn, t.id(), key, LockMode::Exclusive)?;

        // If primary-key columns change, the destination key must be
        // locked too before anything is logged.
        let schema = t.schema();
        let pkey_changes = schema
            .pkey()
            .iter()
            .any(|p| cols.iter().any(|(i, _)| i == p));
        if pkey_changes {
            let row = t
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
                    .lock(txn, t.id(), &new_key, LockMode::Exclusive)?;
            }
        }
        self.run_interceptors(txn, &t, &PlannedOp::Update { key, cols })?;

        let mut lsn = Lsn::ZERO;
        t.update_with(key, cols, txn, |row| {
            Self::check_latched(&cell, &t)?;
            lsn = self.log.append(LogRecord::Op {
                txn,
                op: LogOp::Update {
                    table: t.id(),
                    key: key.clone(),
                    old: cols
                        .iter()
                        .map(|(i, _)| (*i, row.values[*i].clone()))
                        .collect(),
                    new: cols.to_vec(),
                },
            });
            Ok(lsn)
        })?;
        cell.undo.lock().push(lsn);
        Ok(())
    }

    /// Delete the row at `key` in the named table.
    pub fn delete(&self, txn: TxnId, table: &str, key: &Key) -> DbResult<()> {
        let t = self.catalog.get(table)?;
        let cell = self.cell_for_op(txn)?;
        t.check_access(txn)?;
        self.locks.lock(txn, t.id(), key, LockMode::Exclusive)?;
        self.run_interceptors(txn, &t, &PlannedOp::Delete { key })?;

        let mut lsn = Lsn::ZERO;
        t.delete_with(key, txn, |row| {
            Self::check_latched(&cell, &t)?;
            lsn = self.log.append(LogRecord::Op {
                txn,
                op: LogOp::Delete {
                    table: t.id(),
                    key: key.clone(),
                    old: row.values.clone(),
                },
            });
            Ok(lsn)
        })?;
        cell.undo.lock().push(lsn);
        Ok(())
    }

    /// Read the row at `key` under a shared lock.
    pub fn read(&self, txn: TxnId, table: &str, key: &Key) -> DbResult<Option<Vec<Value>>> {
        let t = self.catalog.get(table)?;
        self.cell_for_op(txn)?;
        t.check_access(txn)?;
        self.locks.lock(txn, t.id(), key, LockMode::Shared)?;
        self.run_interceptors(txn, &t, &PlannedOp::Read { key })?;
        Ok(t.get(key).map(|r| r.values))
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
        // Log: Op, Commit — no begin record.
        assert_eq!(db.log().len(), 2);
    }

    /// A transaction that writes nothing logs nothing, whether it
    /// commits or aborts; a writer logs its ops and one Commit.
    #[test]
    fn only_writers_log_records() {
        let (db, _t) = db_with_table();
        let setup = db.begin();
        db.insert(setup, "t", row(1, "a")).unwrap();
        db.commit(setup).unwrap();
        let tail = db.log().last_lsn();
        for commit in [true, false] {
            let txn = db.begin();
            assert_eq!(
                db.read(txn, "t", &Key::single(1)).unwrap(),
                Some(row(1, "a"))
            );
            if commit {
                db.commit(txn).unwrap();
            } else {
                db.abort(txn).unwrap();
            }
            assert!(!db.is_active(txn));
            assert_eq!(db.locks().held_count(txn), 0);
            assert_eq!(db.log().last_lsn(), tail, "commit = {commit}");
        }
        let w = db.begin();
        db.update(w, "t", &Key::single(1), &[(1, Value::str("b"))])
            .unwrap();
        db.insert(w, "t", row(2, "c")).unwrap();
        db.commit(w).unwrap();
        let logged: Vec<_> = db
            .log()
            .read_range(tail.next(), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        assert_eq!(logged.len(), 3);
        assert!(logged[..2]
            .iter()
            .all(|r| matches!(r, LogRecord::Op { txn, .. } if *txn == w)));
        assert_eq!(logged[2], LogRecord::Commit { txn: w });
    }

    /// A reader the census reported logs its end record: a Commit, or
    /// an Abort and AbortEnd when it rolls back.
    #[test]
    fn a_reported_reader_logs_its_end_record() {
        let (db, t) = db_with_table();
        let setup = db.begin();
        db.insert(setup, "t", row(1, "a")).unwrap();
        db.commit(setup).unwrap();
        for commit in [true, false] {
            let tail = db.log().last_lsn();
            let txn = db.begin();
            db.read(txn, "t", &Key::single(1)).unwrap();
            let holders = db.lock_holders(std::slice::from_ref(&t));
            assert_eq!(holders.iter().map(|h| h.txn).collect::<Vec<_>>(), [txn]);
            if commit {
                db.commit(txn).unwrap();
            } else {
                db.abort(txn).unwrap();
            }
            let logged: Vec<_> = db
                .log()
                .read_range(tail.next(), usize::MAX)
                .into_iter()
                .map(|(_, r)| (*r).clone())
                .collect();
            let expect = if commit {
                vec![LogRecord::Commit { txn }]
            } else {
                vec![LogRecord::AbortEnd { txn }]
            };
            assert_eq!(logged, expect);
        }
        // An ending transaction is not reported, and a census that
        // finds no lock marks nobody.
        let idle = db.begin();
        assert!(db.lock_holders(std::slice::from_ref(&t)).is_empty());
        let tail = db.log().last_lsn();
        db.commit(idle).unwrap();
        assert_eq!(db.log().last_lsn(), tail);
    }

    /// The census handshake under concurrency: readers commit read-only
    /// transactions while the census runs, and every transaction the
    /// census reported has an end record in the log once it is gone.
    #[test]
    fn every_reported_reader_logs_an_end_record() {
        let (db, t) = db_with_table();
        let db = Arc::new(db);
        let setup = db.begin();
        for i in 0..4 {
            db.insert(setup, "t", row(i, "a")).unwrap();
        }
        db.commit(setup).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2i64)
            .map(|r| {
                let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut i = r;
                    while !stop.load(Ordering::Relaxed) {
                        let txn = db.begin();
                        db.read(txn, "t", &Key::single(i % 4)).unwrap();
                        db.commit(txn).unwrap();
                        i += 2;
                    }
                })
            })
            .collect();
        let mut reported = std::collections::HashSet::new();
        let t0 = std::time::Instant::now();
        while reported.len() < 200 && t0.elapsed() < std::time::Duration::from_secs(5) {
            for holder in db.lock_holders(std::slice::from_ref(&t)) {
                reported.insert(holder.txn);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(!reported.is_empty(), "the census never caught a reader");
        let ended: std::collections::HashSet<TxnId> = db
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .filter_map(|(_, r)| match *r {
                LogRecord::Commit { txn } => Some(txn),
                _ => None,
            })
            .collect();
        let missing: Vec<_> = reported.difference(&ended).collect();
        assert!(
            missing.is_empty(),
            "{} of {} reported readers logged no Commit: {missing:?}",
            missing.len(),
            reported.len()
        );
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
        let forward = db.log().last_lsn();
        db.abort(txn).unwrap();

        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, "keep"));
        assert_eq!(t.get(&Key::single(2)).unwrap().values, row(2, "victim"));
        assert!(t.get(&Key::single(3)).is_none());

        // The rollback logs a CLR per op, newest first, then AbortEnd.
        let logged: Vec<_> = db
            .log()
            .read_range(forward.next(), usize::MAX)
            .into_iter()
            .map(|(_, r)| match *r {
                LogRecord::Clr { undone_lsn, .. } => Some(undone_lsn),
                LogRecord::AbortEnd { txn: t } if t == txn => None,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        let (a, b, c) = (Lsn(forward.0 - 2), Lsn(forward.0 - 1), forward);
        assert_eq!(logged, [Some(c), Some(b), Some(a), None]);
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
    fn fuzzy_mark_is_the_oldest_first_lsn_and_appends_nothing() {
        let (db, _t) = db_with_table();
        // Quiescent: the mark is the LSN the next record takes.
        let tail = db.log().last_lsn();
        assert_eq!(db.fuzzy_mark(), tail.next());
        assert_eq!(db.log().last_lsn(), tail);

        let txn = db.begin();
        db.insert(txn, "t", row(1, "a")).unwrap();
        let other = db.begin();
        db.insert(other, "t", row(2, "b")).unwrap();
        let tail = db.log().last_lsn();
        let start = db.fuzzy_mark();
        assert_eq!(db.log().last_lsn(), tail);
        // The mark is the oldest active transaction's first record, its op.
        assert!(matches!(
            db.log().read(start).unwrap(),
            LogRecord::Op { txn: t, .. } if t == txn
        ));
        db.commit(txn).unwrap();
        assert!(matches!(
            db.log().read(db.fuzzy_mark()).unwrap(),
            LogRecord::Op { txn: t, .. } if t == other
        ));
        db.commit(other).unwrap();
        assert_eq!(db.fuzzy_mark(), db.log().last_lsn().next());
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

    /// A transaction doomed after its operation passed the entry checks
    /// (as a cutover dooms a writer already waiting on the latch) writes
    /// nothing: the latched re-check refuses it.
    #[test]
    fn doom_between_entry_check_and_write_refuses_the_write() {
        struct DoomMidOp;
        impl OpInterceptor for DoomMidOp {
            fn before_op(
                &self,
                db: &Database,
                txn: TxnId,
                _table: &Table,
                _op: &PlannedOp<'_>,
            ) -> DbResult<()> {
                db.doom(txn);
                Ok(())
            }
        }
        let (db, t) = db_with_table();
        let seed = db.begin();
        db.insert(seed, "t", row(1, "a")).unwrap();
        db.commit(seed).unwrap();
        db.add_interceptor(Arc::new(DoomMidOp));
        for op in 0..3 {
            let txn = db.begin();
            let res = match op {
                0 => db.insert(txn, "t", row(2, "b")).map(|_| ()),
                1 => db.update(txn, "t", &Key::single(1), &[(1, Value::str("x"))]),
                _ => db.delete(txn, "t", &Key::single(1)),
            };
            assert!(
                matches!(res, Err(DbError::TxnDoomed(_))),
                "op {op}: {res:?}"
            );
            db.abort(txn).unwrap();
        }
        assert_eq!(t.snapshot().len(), 1);
        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, "a"));
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
        let (db, t) = db_with_table();
        let db = Arc::new(db);
        let rows = || -> Vec<(Key, Vec<Value>)> {
            t.snapshot()
                .into_iter()
                .map(|(k, r)| (k, r.values))
                .collect()
        };
        let setup = db.begin();
        for i in 0..10 {
            db.insert(setup, "t", row(i, "x")).unwrap();
        }
        db.commit(setup).unwrap();
        let total = db.log().len();
        let image = rows();

        // An active transaction pins the log at its first LSN, though
        // more than a chunk (256 records) of committed traffic follows.
        let active = db.begin();
        db.insert(active, "t", row(100, "y")).unwrap();
        db.update(active, "t", &Key::single(1), &[(1, Value::str("dirty"))])
            .unwrap();
        db.delete(active, "t", &Key::single(2)).unwrap();
        for i in 0..110 {
            let txn = db.begin();
            db.insert(txn, "t", row(1_000 + i, "z")).unwrap();
            db.delete(txn, "t", &Key::single(1_000 + i)).unwrap();
            db.commit(txn).unwrap();
        }
        assert!(db.log().len() >= total + 300);
        assert_eq!(
            db.truncate_log().unwrap(),
            total,
            "only the prefix before the active txn is reclaimable"
        );
        assert!(db
            .log()
            .read(db.registry.get(active).unwrap().first_lsn)
            .is_some());

        // A protection guard pins it harder.
        let guard = db.protect_log(Lsn(1)); // nothing below 1 → no-op
        assert_eq!(db.truncate_log().unwrap(), 0);
        // The rollback reads each of its operations back from the log.
        db.abort(active).unwrap();
        assert_eq!(rows(), image);
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

    /// A rollback whose chain names a record it cannot read back as its
    /// own operation, one cut off by a direct `truncate_until` (the
    /// engine's truncation stops at the writer's first LSN) or one of
    /// another transaction, fails with an `Internal` error naming that
    /// LSN, and still ends: `AbortEnd` logged, the writer deregistered
    /// and its locks released.
    #[test]
    fn a_rollback_that_cannot_read_an_op_back_still_ends() {
        for cut in [true, false] {
            let (db, _t) = db_with_table();
            let setup = db.begin();
            db.insert(setup, "t", row(1, "a")).unwrap();
            db.commit(setup).unwrap();
            let writer = db.begin();
            db.update(writer, "t", &Key::single(1), &[(1, Value::str("b"))])
                .unwrap();
            db.insert(writer, "t", row(2, "c")).unwrap();
            let cell = db.registry.get(writer).unwrap();
            let lost = if cut {
                let first = cell.undo.lock()[0];
                db.log().truncate_until(first.next()).unwrap();
                first
            } else {
                // The setup's insert, another transaction's operation.
                cell.undo.lock().insert(0, Lsn(1));
                Lsn(1)
            };
            let err = db.abort(writer).unwrap_err();
            assert!(
                matches!(err, DbError::Internal(ref m) if m.contains(&format!("LSN {lost}"))),
                "cut = {cut}: {err:?}"
            );
            assert_eq!(
                db.log().read(db.log().last_lsn()),
                Some(LogRecord::AbortEnd { txn: writer })
            );
            assert!(!db.is_active(writer));
            assert_eq!(db.locks().held_count(writer), 0);
            let next = db.begin();
            db.update(next, "t", &Key::single(1), &[(1, Value::str("d"))])
                .unwrap();
            db.commit(next).unwrap();
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
        let pinned = t.version_count() as u64;
        drop(snap);
        let reclaimed = db.mvcc_gc().unwrap();
        assert!(reclaimed > 0, "unpinned history must be reclaimed");
        assert_eq!(
            reclaimed, pinned,
            "the count returned is what was reclaimed"
        );
        assert_eq!(t.version_count(), 0);
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
