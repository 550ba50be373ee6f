//! Synchronization strategies (§3.4) and lock transfer (§4.3).
//!
//! All three strategies the paper describes are implemented:
//!
//! * **Blocking commit** — freeze the source tables for new
//!   transactions, let current holders finish, final drain, switch.
//! * **Non-blocking abort** — latch the sources for one final (very
//!   short) drain, transfer the locks of still-active transactions to
//!   the transformed tables, doom those transactions, switch; their
//!   compensations wash out through continued background propagation,
//!   which releases the transferred locks as it processes each
//!   transaction's rollback-complete record.
//! * **Non-blocking commit** — like non-blocking abort, but the old
//!   transactions continue to completion on the frozen sources; every
//!   subsequent operation is mirrored onto the transformed tables via
//!   an [`OpInterceptor`] under the Figure-2 origin-tagged
//!   compatibility matrix.
//!
//! ## Proxy lock ownership
//!
//! Transferred locks are installed under a *proxy owner*
//! ([`proxy_owner`]) rather than the original transaction id. The
//! engine releases a transaction's own locks the moment it commits or
//! finishes rolling back — but the transformed tables may only be
//! unlocked once the *propagator has processed* that transaction's end
//! record (§3.4), which happens strictly later. The proxy owner
//! decouples the two lifetimes.

use crate::operator::{source_tables, TransformOperator};
use crate::propagate::Propagator;
use crate::report::SyncStats;
use crate::spec::{SyncStrategy, TransformOptions};
use morph_common::{DbError, DbResult, TableId, TxnId};
use morph_engine::{Database, OpInterceptor, PlannedOp};
use morph_storage::Table;
use morph_txn::LockOrigin;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Proxy lock owner for a grandfathered transaction (top bit set; the
/// engine never allocates ids in that range).
pub fn proxy_owner(txn: TxnId) -> TxnId {
    TxnId(txn.0 | (1 << 63))
}

/// Interceptor installed by non-blocking-commit synchronization: every
/// further operation by a grandfathered transaction on a source table
/// first acquires the corresponding origin-tagged locks on the
/// transformed tables (conflicting with new transactions per Figure 2),
/// then installs proxy grants so the locks outlive the transaction
/// until the propagator has caught up. The operator's
/// [`TransformOperator::mirror_keys`] names those locks.
pub struct MirrorInterceptor {
    oper: Arc<dyn TransformOperator>,
    old_txns: HashSet<TxnId>,
    sources: Vec<TableId>,
}

impl OpInterceptor for MirrorInterceptor {
    fn before_op(
        &self,
        db: &Database,
        txn: TxnId,
        table: &Table,
        op: &PlannedOp<'_>,
    ) -> DbResult<()> {
        if !self.old_txns.contains(&txn) || !self.sources.contains(&table.id()) {
            return Ok(());
        }
        let mode = op.lock_mode();
        for (tid, key, origin) in self.oper.mirror_keys(table.id(), op) {
            // Acquire under the transaction itself (correct wait–die
            // ages against new transactions)…
            db.locks().lock_tagged(txn, tid, &key, mode, origin)?;
            // …then pin a proxy grant that survives until the
            // propagator processes the transaction's end record.
            db.locks()
                .grant_transferred(proxy_owner(txn), tid, &key, mode, origin);
        }
        Ok(())
    }
}

/// The non-blocking-commit mirror's registration, and its one owner:
/// the interceptor stays installed exactly as long as this value lives,
/// so every path out of a synchronized transformation — completion or
/// error — removes it (the [`morph_engine::LogProtection`] pattern).
pub struct MirrorRegistration {
    db: Arc<Database>,
    token: u64,
}

impl Drop for MirrorRegistration {
    fn drop(&mut self) {
        self.db.remove_interceptor(self.token);
    }
}

/// Everything the caller learns from synchronization.
pub struct SyncOutcome {
    /// Timing and counts for the report.
    pub stats: SyncStats,
    /// Grandfathered transactions (empty for blocking commit).
    pub old_txns: HashSet<TxnId>,
    /// The lock mirror (non-blocking commit only); dropping it removes
    /// the interceptor.
    pub mirror: Option<MirrorRegistration>,
}

/// Run the synchronization step.
pub fn synchronize(
    db: &Arc<Database>,
    oper: &Arc<dyn TransformOperator>,
    prop: &mut Propagator,
    options: &TransformOptions,
) -> DbResult<SyncOutcome> {
    // Crash-simulation points, named per strategy so the crash matrix
    // can enumerate kills inside each of the three strategies.
    match options.strategy {
        SyncStrategy::BlockingCommit => blocking_commit(db, &**oper, prop, options),
        SyncStrategy::NonBlockingAbort => non_blocking(
            db,
            oper,
            prop,
            options,
            [
                "sync.nba.latched",
                "sync.nba.drained",
                "sync.nba.treated",
                "sync.nba.switched",
            ],
            false,
        ),
        SyncStrategy::NonBlockingCommit => non_blocking(
            db,
            oper,
            prop,
            options,
            [
                "sync.nbc.latched",
                "sync.nbc.drained",
                "sync.nbc.treated",
                "sync.nbc.switched",
            ],
            true,
        ),
    }
}

pub(crate) fn sorted_sources(
    db: &Database,
    oper: &dyn TransformOperator,
) -> DbResult<Vec<Arc<Table>>> {
    let mut sources = source_tables(db, oper)?;
    sources.sort_by_key(|t| t.id());
    Ok(sources)
}

pub(crate) fn transfer_locks(
    db: &Database,
    oper: &dyn TransformOperator,
    sources: &[Arc<Table>],
) -> (HashSet<TxnId>, usize) {
    let mut old = HashSet::new();
    let mut transferred = 0usize;
    for holder in db.lock_holders(sources) {
        for (si, (src, held)) in sources.iter().zip(holder.held).enumerate() {
            let origin = if si == 0 {
                LockOrigin::SourceR
            } else {
                LockOrigin::SourceS
            };
            for (key, mode) in held {
                for (tid, tkey) in oper.target_keys_for(src.id(), &key) {
                    db.locks()
                        .grant_transferred(proxy_owner(holder.txn), tid, &tkey, mode, origin);
                    transferred += 1;
                }
            }
        }
        old.insert(holder.txn);
    }
    (old, transferred)
}

/// Catalog switch: freeze (or rename) the sources so new transactions
/// land on the transformed tables.
fn switch_catalog(oper: &dyn TransformOperator, sources: &[Arc<Table>], old: &HashSet<TxnId>) {
    if oper.renames_source() {
        // The source becomes a target in place (§5.2 rename-in-place).
        // The table stays Active: old transactions keep operating on it
        // legitimately (their log records still resolve by table id),
        // and new transactions reach it under its new name. The rename
        // itself happens right after the latch is released — it is an
        // O(1) catalog pointer swap either way.
        return;
    }
    for src in sources {
        src.freeze(old.iter().copied().collect());
    }
}

/// Non-blocking abort (`mirror` false: the old transactions are doomed)
/// or non-blocking commit (`mirror` true: they continue under the lock
/// mirror). `points` are the strategy's crash points: latched, drained,
/// treated, switched.
fn non_blocking(
    db: &Arc<Database>,
    oper: &Arc<dyn TransformOperator>,
    prop: &mut Propagator,
    options: &TransformOptions,
    points: [&'static str; 4],
    mirror: bool,
) -> DbResult<SyncOutcome> {
    let [p_latched, p_drained, p_treated, p_switched] = points;
    let sources = sorted_sources(db, &**oper)?;
    // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
    let t0 = Instant::now();
    let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();
    db.crash_point(p_latched)?;

    // Final propagation: after this, the transformed tables are in the
    // same state as the (latched) sources.
    // morph-lint: allow(lock_order, cutover pause: the final drain deliberately runs under the exclusive source latches; catalog/meta acquisitions below cannot deadlock because no other thread latches shards while holding those locks — writers are parked on the latch itself)
    let final_records = prop.drain_all(db, &**oper)?;
    db.crash_point(p_drained)?;

    // Transfer locks of still-active transactions (§3.4/§4.3).
    let (old, locks_transferred) = transfer_locks(db, &**oper, &sources);

    // Strategy-specific treatment of the old transactions. The mirror's
    // registration removes the interceptor on every error return below.
    let registration = if mirror {
        let token = db.add_interceptor(Arc::new(MirrorInterceptor {
            oper: Arc::clone(oper),
            old_txns: old.clone(),
            sources: sources.iter().map(|t| t.id()).collect(),
        }));
        Some(MirrorRegistration {
            db: Arc::clone(db),
            token,
        })
    } else {
        for txn in &old {
            db.doom(*txn);
        }
        None
    };
    db.crash_point(p_treated)?;

    switch_catalog(&**oper, &sources, &old);
    drop(guards);
    let latch_pause = t0.elapsed();
    db.crash_point(p_switched)?;

    // Rename-in-place publishes outside the latch (the rename itself is
    // a catalog pointer swap; doing it after unlatching keeps the pause
    // honest — the name flip is atomic either way).
    if oper.renames_source() {
        oper.publish(db)?;
    }

    prop.enter_post_sync(old.clone());
    Ok(SyncOutcome {
        stats: SyncStats {
            strategy: options.strategy,
            latch_pause,
            final_records,
            old_txns: old.len(),
            locks_transferred,
        },
        old_txns: old,
        mirror: registration,
    })
}

fn blocking_commit(
    db: &Arc<Database>,
    oper: &dyn TransformOperator,
    prop: &mut Propagator,
    options: &TransformOptions,
) -> DbResult<SyncOutcome> {
    let sources = sorted_sources(db, oper)?;
    // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
    let t0 = Instant::now();

    // Block new transactions; let current lock holders finish.
    let holders: HashSet<TxnId> = db
        .lock_holders(&sources)
        .into_iter()
        .map(|h| h.txn)
        .collect();
    for src in &sources {
        src.freeze(holders.clone());
    }
    let switched = frozen_switch(db, oper, prop, options, &sources, &holders);
    // The one exit after the freeze. A failure aborts the migration,
    // never the workload: the sources take new writers again. A renamed
    // source is a target now, and takes them too.
    if switched.is_err() || oper.renames_source() {
        for src in &sources {
            src.reactivate();
        }
    }
    let final_records = switched?;
    prop.enter_post_sync(HashSet::new());

    Ok(SyncOutcome {
        stats: SyncStats {
            strategy: SyncStrategy::BlockingCommit,
            // For the blocking strategy the user-visible pause is the
            // whole freeze window, not just the latch.
            latch_pause: t0.elapsed(),
            final_records,
            old_txns: holders.len(),
            locks_transferred: 0,
        },
        old_txns: HashSet::new(),
        mirror: None,
    })
}

/// Blocking commit's work on the frozen sources: wait out the lock
/// holders, drain the log under the latch, then publish the renamed
/// source or drop the sources, unless the caller retains them (frozen).
/// Returns the final drain's record count.
fn frozen_switch(
    db: &Arc<Database>,
    oper: &dyn TransformOperator,
    prop: &mut Propagator,
    options: &TransformOptions,
    sources: &[Arc<Table>],
    holders: &HashSet<TxnId>,
) -> DbResult<usize> {
    db.crash_point("sync.bc.frozen")?;
    // morph-lint: allow(nondet, drain-wait deadline; wall-time bound on blocking, never replayed state)
    let wait_deadline = Instant::now() + options.deadline.unwrap_or(Duration::from_secs(60));
    while holders.iter().any(|t| db.is_active(*t)) {
        // morph-lint: allow(nondet, drain-wait deadline; wall-time bound on blocking, never replayed state)
        if Instant::now() > wait_deadline {
            return Err(DbError::TransformationAborted(
                "blocking-commit: active transactions did not finish in time".into(),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    db.crash_point("sync.bc.quiesced")?;

    let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();
    let final_records = prop.drain_all(db, oper)?;
    db.crash_point("sync.bc.drained")?;
    drop(guards);
    if oper.renames_source() {
        oper.publish(db)?;
    } else if !options.retain_sources {
        for src in sources {
            db.catalog().drop_table(&src.name())?;
        }
    }
    Ok(final_records)
}
