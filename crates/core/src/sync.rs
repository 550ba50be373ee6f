//! Synchronization strategies (§3.4) and lock transfer (§4.3).
//!
//! All three strategies the paper describes are implemented, plus the
//! lazy cutover:
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
//! * **Lazy** — right after preparation, like non-blocking abort with
//!   nothing to drain, deferring the doomed writers' keys instead of
//!   transferring their locks ([`crate::lazy`]).
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

use crate::lazy::LazyMigration;
use crate::operator::{source_tables, TransformOperator};
use crate::propagate::Propagator;
use crate::report::SyncStats;
use crate::spec::{SyncStrategy, TransformOptions, UNBOUNDED_WAIT_LIMIT};
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

/// An interceptor's registration — the non-blocking-commit lock mirror
/// or the lazy on-access hook — and its one owner: it stays installed
/// exactly as long as this value lives, so every path out of a
/// synchronized transformation removes it (the
/// [`morph_engine::LogProtection`] pattern).
pub(crate) struct HookRegistration {
    db: Arc<Database>,
    token: u64,
}

impl Drop for HookRegistration {
    fn drop(&mut self) {
        self.db.remove_interceptor(self.token);
    }
}

/// What synchronization leaves the job: the report's stats, the
/// interceptor it installed, and a lazy cutover's state.
pub(crate) struct SyncOutcome {
    pub(crate) stats: SyncStats,
    pub(crate) hook: Option<HookRegistration>,
    pub(crate) lazy: Option<Arc<LazyMigration>>,
}

/// Run the synchronization step; all but the lazy cutover drain `prop`.
pub(crate) fn synchronize(
    db: &Arc<Database>,
    oper: &Arc<dyn TransformOperator>,
    prop: Option<&mut Propagator>,
    options: &TransformOptions,
) -> DbResult<SyncOutcome> {
    match (options.strategy, prop) {
        (SyncStrategy::Lazy, _) => lazy_cutover(db, oper),
        (_, None) => Err(DbError::Internal("synchronize before copy".into())),
        (SyncStrategy::BlockingCommit, Some(prop)) => blocking_commit(db, &**oper, prop, options),
        (_, Some(prop)) => non_blocking(db, oper, prop, options),
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

/// Non-blocking abort (the old transactions are doomed) or non-blocking
/// commit (they continue under the lock mirror).
fn non_blocking(
    db: &Arc<Database>,
    oper: &Arc<dyn TransformOperator>,
    prop: &mut Propagator,
    options: &TransformOptions,
) -> DbResult<SyncOutcome> {
    let mirror = options.strategy == SyncStrategy::NonBlockingCommit;
    // Crash-simulation points, named per strategy so the crash matrix
    // can enumerate kills inside each of them.
    let [p_latched, p_drained, p_treated, p_switched] = if mirror {
        [
            "sync.nbc.latched",
            "sync.nbc.drained",
            "sync.nbc.treated",
            "sync.nbc.switched",
        ]
    } else {
        [
            "sync.nba.latched",
            "sync.nba.drained",
            "sync.nba.treated",
            "sync.nba.switched",
        ]
    };
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
    let hook = if mirror {
        Some(HookRegistration {
            db: Arc::clone(db),
            // morph-lint: allow(lock_order, cutover pause: the mirror is registered under the latch so old transactions resume into it; the interceptor list lock is never held while waiting for a shard latch)
            token: db.add_interceptor(Arc::new(MirrorInterceptor {
                oper: Arc::clone(oper),
                old_txns: old.clone(),
                sources: sources.iter().map(|t| t.id()).collect(),
            })),
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
        hook,
        lazy: None,
    })
}

/// The lazy cutover: latch the sorted sources, seed the residual from
/// the `lock_holders` census, doom every holder, freeze the sources,
/// register the on-access hook. The pause copies no source key: the residual counts
/// each latched shard and maps only the doomed writers' exclusively
/// locked keys, deferred past their rollback. Everything it fills is
/// allocated before it: with clients stalled on the latch, even the
/// allocator's deferred work (DESIGN.md §15) would be theirs to wait.
fn lazy_cutover(db: &Arc<Database>, oper: &Arc<dyn TransformOperator>) -> DbResult<SyncOutcome> {
    let lazy = Arc::new(LazyMigration::over(db, oper, sorted_sources(db, &**oper)?));
    let sources = lazy.sources();
    // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
    let t0 = Instant::now();
    let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();
    // Old transactions: anyone holding locks on a source.
    // morph-lint: allow(lock_order, cutover pause: the coordinator alone holds these exclusive latches and user txns never latch shards while holding registry/side locks, so the rank protocol's reverse order cannot occur concurrently)
    let old = lazy.seed(&guards, db.lock_holders(sources));
    for txn in &old {
        db.doom(*txn);
    }
    for src in sources {
        // morph-lint: allow(lock_order, cutover pause: freezing under the exclusive latch is the point — nothing else can hold table.meta while every shard latch is ours)
        src.freeze(old.iter().copied().collect());
    }
    // Registered under the latch: writers blocked on it resume into the
    // hook. A failed cut drops the registration before the latches.
    let hook = HookRegistration {
        db: Arc::clone(db),
        token: db.add_interceptor(lazy.clone()),
    };
    db.crash_point("router.lazy_cutover")?;
    drop(guards);
    Ok(SyncOutcome {
        stats: SyncStats {
            strategy: SyncStrategy::Lazy,
            latch_pause: t0.elapsed(),
            final_records: 0,
            old_txns: old.len(),
            locks_transferred: 0,
        },
        hook: Some(hook),
        lazy: Some(lazy),
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
        hook: None,
        lazy: None,
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
    let wait_deadline = Instant::now() + options.deadline.unwrap_or(UNBOUNDED_WAIT_LIMIT);
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
