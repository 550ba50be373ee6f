//! The active-transaction registry.
//!
//! Tracks, for every live transaction: its first LSN (fuzzy marks need
//! the oldest one, §3.2), the undo chain for rollback, and the *doomed*
//! flag set by non-blocking-abort synchronization (§3.4).
//!
//! The registry guards a critical ordering invariant: a transaction is
//! registered (with its first LSN fixed) under the same lock that
//! [`write_fuzzy_mark`](crate::Database::write_fuzzy_mark) takes, so a
//! fuzzy mark can never miss an in-flight transaction whose operations
//! might not be reflected in the fuzzy read — the premise of the
//! paper's Theorem 1.

use morph_common::{DbError, DbResult, Lsn, TxnId};
use morph_wal::LogOp;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Mutable per-transaction state.
#[derive(Default)]
pub struct TxnState {
    /// Inverse operations ready to apply, one per forward op, in
    /// forward order (rollback walks it backwards). Each entry pairs
    /// the forward record's LSN with the prepared inverse.
    pub undo: Vec<(Lsn, LogOp)>,
    /// Table-granular lock modes this transaction already holds — a
    /// local cache that lets the engine skip the (global) table-lock
    /// manager for the common repeat acquisition within a transaction.
    pub table_modes: Vec<(morph_common::TableId, morph_txn::GranularMode)>,
}

/// Shared handle to one transaction's bookkeeping.
pub struct TxnCell {
    /// The transaction id.
    pub id: TxnId,
    /// LSN of the Begin record (immutable after creation).
    pub first_lsn: Lsn,
    /// Set by non-blocking-abort synchronization: the transaction must
    /// roll back; every further operation returns `TxnDoomed`.
    pub doomed: AtomicBool,
    /// Undo chain and other mutable state.
    pub state: Mutex<TxnState>,
}

impl TxnCell {
    /// Whether the transaction has been doomed.
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }
}

/// Shard count. Transaction ids are sequential, so a plain modulo
/// spreads them perfectly; 16 shards is comfortably past the
/// updater-thread counts the workloads drive while keeping the
/// all-shards fuzzy-mark sweep cheap.
const REGISTRY_SHARDS: usize = 16;

/// Registry of active transactions, sharded by transaction id so that
/// concurrent begin/get/remove traffic from updater threads does not
/// serialize on one map lock. Whole-set
/// operations (fuzzy mark, checkpoint) take every shard's write lock
/// in index order — same-class nesting in a canonical order, exactly
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

    /// Register a transaction. `log_begin` must append the Begin record
    /// and return its LSN; it runs under the transaction's shard write
    /// lock so that fuzzy marks (which hold *all* shard write locks)
    /// serialize against transaction admission.
    pub fn begin_with(&self, id: TxnId, log_begin: impl FnOnce() -> Lsn) -> Arc<TxnCell> {
        let mut map = self.shard_of(id).write();
        let first_lsn = log_begin();
        let cell = Arc::new(TxnCell {
            id,
            first_lsn,
            doomed: AtomicBool::new(false),
            state: Mutex::new(TxnState::default()),
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

    /// Ids of all active transactions.
    pub fn active_ids(&self) -> Vec<TxnId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.read().keys().copied());
        }
        ids
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// Run `f` with a consistent snapshot of (active ids, oldest first
    /// LSN) while *blocking transaction admission* — the fuzzy-mark
    /// primitive. `f` typically appends the mark to the log. Admission
    /// is blocked by holding every shard's write lock, acquired in
    /// index order (`begin_with` takes exactly one of them).
    pub fn with_admission_blocked<R>(&self, f: impl FnOnce(Vec<TxnId>, Option<Lsn>) -> R) -> R {
        let guards: Vec<_> = self.shards.iter().map(|shard| shard.write()).collect();
        let active: Vec<TxnId> = guards.iter().flat_map(|g| g.keys().copied()).collect();
        let oldest = guards
            .iter()
            .flat_map(|g| g.values().map(|c| c.first_lsn))
            .min();
        f(active, oldest)
    }

    /// Run `f` with the active transactions and their first LSNs while
    /// blocking admission (checkpointing). Same all-shards protocol as
    /// [`TxnRegistry::with_admission_blocked`].
    pub fn with_checkpoint_snapshot<R>(&self, f: impl FnOnce(Vec<(TxnId, Lsn)>) -> R) -> R {
        let guards: Vec<_> = self.shards.iter().map(|shard| shard.write()).collect();
        let entries: Vec<(TxnId, Lsn)> = guards
            .iter()
            .flat_map(|g| g.values().map(|c| (c.id, c.first_lsn)))
            .collect();
        f(entries)
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
    use morph_common::TableId;

    fn dummy_op() -> LogOp {
        LogOp::Insert {
            table: TableId(1),
            row: vec![],
        }
    }

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
        reg.with_admission_blocked(|active, oldest| {
            assert_eq!(active.len(), 2);
            assert_eq!(oldest, Some(Lsn(5)));
        });
        reg.remove(TxnId(1));
        reg.remove(TxnId(2));
        reg.with_admission_blocked(|active, oldest| {
            assert!(active.is_empty());
            assert_eq!(oldest, None);
        });
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
    fn sharded_snapshot_spans_every_shard() {
        // Ids chosen to land on many distinct shards; the admission
        // snapshot and the counters must still see all of them.
        let reg = TxnRegistry::new();
        for i in 0..40u64 {
            reg.begin_with(TxnId(i), || Lsn(100 + i));
        }
        assert_eq!(reg.active_count(), 40);
        assert_eq!(reg.active_ids().len(), 40);
        reg.with_admission_blocked(|active, oldest| {
            assert_eq!(active.len(), 40);
            assert_eq!(oldest, Some(Lsn(100)));
        });
        reg.with_checkpoint_snapshot(|entries| {
            assert_eq!(entries.len(), 40);
            assert!(entries
                .iter()
                .any(|&(id, lsn)| id == TxnId(39) && lsn == Lsn(139)));
        });
        for i in 0..40u64 {
            reg.remove(TxnId(i));
        }
        assert_eq!(reg.active_count(), 0);
    }

    #[test]
    fn undo_chain_accumulates() {
        let reg = TxnRegistry::new();
        let cell = reg.begin_with(TxnId(1), || Lsn(1));
        cell.state.lock().undo.push((Lsn(2), dummy_op()));
        cell.state.lock().undo.push((Lsn(3), dummy_op()));
        assert_eq!(cell.state.lock().undo.len(), 2);
    }
}
