//! The active-transaction registry.
//!
//! Tracks, for every live transaction: a lower bound on its LSNs (the
//! fuzzy mark is the oldest one, §3.2), its forward LSNs for rollback, the
//! *doomed* flag set by non-blocking-abort synchronization (§3.4), and
//! the *ending* and *reported* flags through which a transaction and
//! the cutover census agree on whether it logs an end record.
//!
//! The registry guards a critical ordering invariant: a transaction is
//! registered, with its first LSN read from the log tail (there is no
//! begin record), under the same lock that
//! [`fuzzy_mark`](crate::Database::fuzzy_mark) takes, so the mark can
//! never miss an in-flight transaction whose operations might not be
//! reflected in the fuzzy read — the premise of the paper's Theorem 1.

use morph_common::{DbError, DbResult, Lsn, TxnId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared handle to one transaction's bookkeeping.
pub struct TxnCell {
    /// The transaction id.
    pub id: TxnId,
    /// The log tail's successor when the transaction registered
    /// (immutable): a lower bound on every LSN it appends.
    pub first_lsn: Lsn,
    /// Set by non-blocking-abort synchronization: the transaction must
    /// roll back; every further operation returns `TxnDoomed`.
    pub doomed: AtomicBool,
    /// Set once the transaction has logged its last data record, before
    /// any end record (`Commit` or `AbortEnd`). It stays registered,
    /// holding its locks, until that record is durable; the cutover
    /// census ([`Database::lock_holders`](crate::Database::lock_holders))
    /// skips it.
    pub ending: AtomicBool,
    /// Set by a cutover census that reported the transaction: it then
    /// logs an end record even if it wrote nothing.
    pub reported: AtomicBool,
    /// Undo chain: the LSNs of the forward operations, in log order.
    pub undo: Mutex<Vec<Lsn>>,
}

impl TxnCell {
    /// Whether the transaction has been doomed.
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    /// Mark the transaction as ending (see [`TxnCell::ending`]) before
    /// any end record is appended, and return whether a census reported
    /// it, so that it logs an end record though it wrote nothing. Store
    /// then load, against [`TxnCell::report`]'s store then load, all
    /// `SeqCst`: at least one side sees the other's flag.
    pub fn end(&self) -> bool {
        self.ending.store(true, Ordering::SeqCst);
        self.reported.load(Ordering::SeqCst)
    }

    /// The census side of [`TxnCell::end`]: mark the transaction as
    /// reported, and return whether it has not begun to end.
    pub fn report(&self) -> bool {
        self.reported.store(true, Ordering::SeqCst);
        !self.ending.load(Ordering::SeqCst)
    }
}

/// Shard count. Transaction ids are sequential, so a plain modulo
/// spreads them perfectly; 16 shards is comfortably past the
/// updater-thread counts the workloads drive while keeping the
/// all-shards fuzzy-mark sweep cheap.
const REGISTRY_SHARDS: usize = 16;

/// Registry of active transactions, sharded by transaction id so that
/// concurrent begin/get/remove traffic from updater threads does not
/// serialize on one map lock. The one whole-set operation, the fuzzy
/// mark (which log truncation and MVCC GC also take), takes every
/// shard's write lock in index order —
/// same-class nesting in a canonical order, exactly
/// like the storage shard latches — which still blocks admission
/// globally, preserving the Theorem-1 premise.
pub struct TxnRegistry {
    shards: Vec<RwLock<HashMap<TxnId, Arc<TxnCell>>>>,
}

impl Default for TxnRegistry {
    fn default() -> TxnRegistry {
        TxnRegistry::new()
    }
}

impl TxnRegistry {
    /// Empty registry.
    pub fn new() -> TxnRegistry {
        TxnRegistry {
            shards: (0..REGISTRY_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard_of(&self, id: TxnId) -> &RwLock<HashMap<TxnId, Arc<TxnCell>>> {
        &self.shards[(id.0 as usize) % self.shards.len()]
    }

    /// Register a transaction. `first_lsn` reads the log tail; it runs
    /// under the transaction's shard write lock so that the fuzzy mark
    /// (which holds *all* shard write locks) serializes against
    /// transaction admission.
    pub fn begin_with(&self, id: TxnId, first_lsn: impl FnOnce() -> Lsn) -> Arc<TxnCell> {
        let mut map = self.shard_of(id).write();
        let cell = Arc::new(TxnCell {
            id,
            first_lsn: first_lsn(),
            doomed: AtomicBool::new(false),
            ending: AtomicBool::new(false),
            reported: AtomicBool::new(false),
            undo: Mutex::new(Vec::new()),
        });
        map.insert(id, Arc::clone(&cell));
        cell
    }

    /// Fetch an active transaction.
    pub fn get(&self, id: TxnId) -> DbResult<Arc<TxnCell>> {
        self.shard_of(id)
            .read()
            .get(&id)
            .cloned()
            .ok_or(DbError::TxnNotActive(id))
    }

    /// Deregister (commit or rollback complete).
    pub fn remove(&self, id: TxnId) {
        self.shard_of(id).write().remove(&id);
    }

    /// Whether the transaction is active.
    pub fn is_active(&self, id: TxnId) -> bool {
        self.shard_of(id).read().contains_key(&id)
    }

    /// Cells of all active transactions.
    pub fn cells(&self) -> Vec<Arc<TxnCell>> {
        let mut cells = Vec::new();
        for shard in &self.shards {
            cells.extend(shard.read().values().cloned());
        }
        cells
    }

    /// Run `f` on the oldest first LSN of the active transactions while
    /// *blocking transaction admission* — the fuzzy-mark primitive
    /// ([`Database::fuzzy_mark`](crate::Database::fuzzy_mark)), which
    /// reads the log tail in `f` and appends nothing. Admission is
    /// blocked by holding every shard's write lock, acquired in index
    /// order (`begin_with` takes exactly one of them).
    pub fn with_admission_blocked<R>(&self, f: impl FnOnce(Option<Lsn>) -> R) -> R {
        let guards: Vec<_> = self.shards.iter().map(|shard| shard.write()).collect();
        let oldest = guards
            .iter()
            .flat_map(|g| g.values().map(|c| c.first_lsn))
            .min();
        f(oldest)
    }

    /// Doom a transaction (non-blocking abort synchronization). Returns
    /// `false` if it is no longer active.
    pub fn doom(&self, id: TxnId) -> bool {
        if let Some(cell) = self.shard_of(id).read().get(&id) {
            cell.doomed.store(true, Ordering::Release);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn begin_get_remove() {
        let reg = TxnRegistry::new();
        let cell = reg.begin_with(TxnId(1), || Lsn(10));
        assert_eq!(cell.first_lsn, Lsn(10));
        assert!(reg.is_active(TxnId(1)));
        assert_eq!(reg.get(TxnId(1)).unwrap().id, TxnId(1));
        reg.remove(TxnId(1));
        assert!(!reg.is_active(TxnId(1)));
        assert!(matches!(reg.get(TxnId(1)), Err(DbError::TxnNotActive(_))));
    }

    #[test]
    fn snapshot_reports_oldest_first_lsn() {
        let reg = TxnRegistry::new();
        reg.begin_with(TxnId(1), || Lsn(5));
        reg.begin_with(TxnId(2), || Lsn(9));
        assert_eq!(reg.with_admission_blocked(|oldest| oldest), Some(Lsn(5)));
        reg.remove(TxnId(1));
        reg.remove(TxnId(2));
        assert_eq!(reg.with_admission_blocked(|oldest| oldest), None);
    }

    #[test]
    fn doom_flags_active_only() {
        let reg = TxnRegistry::new();
        let cell = reg.begin_with(TxnId(1), || Lsn(1));
        assert!(!cell.is_doomed());
        assert!(reg.doom(TxnId(1)));
        assert!(cell.is_doomed());
        assert!(!reg.doom(TxnId(99)));
    }

    #[test]
    fn census_and_end_see_each_other() {
        let reg = TxnRegistry::new();
        // Reported first: the census keeps it, and it learns it was
        // reported when it ends.
        let cell = reg.begin_with(TxnId(1), || Lsn(1));
        assert!(cell.report());
        assert!(cell.end());
        // Ending first: the census skips it, and it was not reported.
        let cell = reg.begin_with(TxnId(2), || Lsn(1));
        assert!(!cell.end());
        assert!(!cell.report());
    }

    #[test]
    fn sharded_snapshot_spans_every_shard() {
        // Ids chosen to land on many distinct shards; the admission
        // census must still see all of them.
        let reg = TxnRegistry::new();
        for i in 0..40u64 {
            reg.begin_with(TxnId(i), || Lsn(100 + i));
        }
        assert_eq!(reg.cells().len(), 40);
        assert_eq!(reg.with_admission_blocked(|oldest| oldest), Some(Lsn(100)));
        for i in 0..40u64 {
            reg.remove(TxnId(i));
        }
        assert!(reg.cells().is_empty());
    }

    #[test]
    fn undo_chain_accumulates() {
        let reg = TxnRegistry::new();
        let cell = reg.begin_with(TxnId(1), || Lsn(1));
        cell.undo.lock().push(Lsn(2));
        cell.undo.lock().push(Lsn(3));
        assert_eq!(*cell.undo.lock(), [Lsn(2), Lsn(3)]);
    }
}
