//! Synchronization (§3.4) and lock transfer (§4.3): one latched
//! cutover, in the paper's three variants plus the lazy one.
//!
//! One body, `synchronize` (the phase
//! [`crate::TransformJob::synchronize`]), latches the sources, runs the
//! final propagation (the eager strategies), takes the census of the
//! transactions that hold source locks and treats them by strategy,
//! registers the strategy's interceptor, freezes the sources and
//! unlatches:
//!
//! * **Blocking commit** — first freezes the sources for new
//!   transactions and waits out the current lock holders within the
//!   job's deadline, so the latched census normally finds none. Its
//!   pause is the whole freeze window.
//! * **Non-blocking abort** — transfers the locks of the still-active
//!   transactions to the transformed tables and dooms those
//!   transactions; their compensations wash out through continued
//!   background propagation, which releases the transferred locks as it
//!   processes each transaction's rollback-complete record.
//! * **Non-blocking commit** — transfers the locks too, but the old
//!   transactions continue to completion on the frozen sources; every
//!   subsequent operation is mirrored onto the transformed tables via
//!   an [`OpInterceptor`] under the Figure-2 origin-tagged
//!   compatibility matrix.
//! * **Lazy** — runs right after preparation, with nothing to drain:
//!   the census seeds the residual and dooms the holders, deferring
//!   their exclusively locked keys instead of transferring their locks,
//!   and the interceptor is the on-access transform ([`crate::lazy`]).
//!
//! A failure after a freeze reactivates the sources: it aborts the
//! migration, never the workload. The sources are dropped only by
//! [`crate::TransformJob::finish`].
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
use crate::spec::{SyncStrategy, UNBOUNDED_WAIT_LIMIT};
use morph_common::{DbError, DbResult, TableId, TxnId};
use morph_engine::{Database, LockHolder, OpInterceptor, PlannedOp};
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

/// The step's crash-simulation points, named per strategy so the crash
/// matrix can enumerate kills inside each: `[latched, drained, treated,
/// switched]`, `None` where a strategy has no point. Blocking commit's
/// `sync.bc.frozen` and `sync.bc.quiesced` bracket its wait.
fn crash_points(strategy: SyncStrategy) -> [Option<&'static str>; 4] {
    match strategy {
        SyncStrategy::BlockingCommit => [None, Some("sync.bc.drained"), None, None],
        SyncStrategy::NonBlockingAbort => [
            Some("sync.nba.latched"),
            Some("sync.nba.drained"),
            Some("sync.nba.treated"),
            Some("sync.nba.switched"),
        ],
        SyncStrategy::NonBlockingCommit => [
            Some("sync.nbc.latched"),
            Some("sync.nbc.drained"),
            Some("sync.nbc.treated"),
            Some("sync.nbc.switched"),
        ],
        SyncStrategy::Lazy => [None, None, Some("router.lazy_cutover"), None],
    }
}

/// Reactivates the sources when dropped armed: a synchronization that
/// fails after freezing them aborts the migration, never the workload
/// (reactivating an active source changes nothing).
struct Thaw<'a> {
    sources: &'a [Arc<Table>],
    armed: bool,
}

impl Drop for Thaw<'_> {
    fn drop(&mut self) {
        if self.armed {
            for src in self.sources {
                src.reactivate();
            }
        }
    }
}

/// Run the synchronization step under `strategy`; the eager strategies
/// drain `prop`, and blocking commit waits for the source lock holders
/// until the job's `deadline` (or [`UNBOUNDED_WAIT_LIMIT`] from the
/// start of the wait when it has none).
pub(crate) fn synchronize(
    db: &Arc<Database>,
    oper: &Arc<dyn TransformOperator>,
    mut prop: Option<&mut Propagator>,
    strategy: SyncStrategy,
    deadline: Option<Instant>,
) -> DbResult<SyncOutcome> {
    if strategy != SyncStrategy::Lazy && prop.is_none() {
        return Err(DbError::Internal("synchronize before copy".into()));
    }
    let mut sources = source_tables(db, &**oper)?;
    sources.sort_by_key(|t| t.id());
    // Everything the lazy pause fills is allocated before it: with
    // clients stalled on the latch, even the allocator's deferred work
    // (DESIGN.md §15) would be theirs to wait.
    let lazy = (strategy == SyncStrategy::Lazy)
        .then(|| Arc::new(LazyMigration::over(db, oper, sources.clone())));
    let mut thaw = Thaw {
        sources: &sources,
        armed: true,
    };
    // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
    let t0 = Instant::now();
    let mut waited = 0;
    if strategy == SyncStrategy::BlockingCommit {
        // Block new transactions; let the current lock holders finish.
        let holders: HashSet<TxnId> = db
            .lock_holders(&sources)
            .into_iter()
            .map(|h| h.txn)
            .collect();
        for src in &sources {
            src.freeze(holders.clone());
        }
        db.crash_point("sync.bc.frozen")?;
        // morph-lint: allow(nondet, drain-wait deadline; wall-time bound on blocking, never replayed state)
        let wait_deadline = deadline.unwrap_or_else(|| Instant::now() + UNBOUNDED_WAIT_LIMIT);
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
        waited = holders.len();
    }

    let [p_latched, p_drained, p_treated, p_switched] = crash_points(strategy);
    let point = |p: Option<&str>| p.map_or(Ok(()), |p| db.crash_point(p));
    let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();
    point(p_latched)?;
    // Final propagation: after this, the transformed tables are in the
    // same state as the (latched) sources.
    let final_records = match prop.as_deref_mut() {
        // morph-lint: allow(lock_order, cutover pause: the final drain deliberately runs under the exclusive source latches; catalog/meta acquisitions below cannot deadlock because no other thread latches shards while holding those locks — writers are parked on the latch itself)
        Some(prop) => prop.drain_all(db, &**oper)?,
        None => 0,
    };
    point(p_drained)?;

    // The old transactions: every holder of a source lock (§3.4/§4.3).
    // morph-lint: allow(lock_order, cutover pause: the coordinator alone holds these exclusive latches and user txns never latch shards while holding registry/side locks, so the rank protocol's reverse order cannot occur concurrently)
    let holders = db.lock_holders(&sources);
    let (old, locks_transferred) = match &lazy {
        Some(lazy) => (lazy.seed(&guards, holders), 0),
        None => transfer_locks(db, &**oper, &sources, holders),
    };
    // Treat them: the mirror lets them run on (NBC); every other
    // strategy dooms them. Blocking commit's census finds only a
    // transaction that took its first lock between its first census
    // and the freeze, and treats it as non-blocking abort does.
    let interceptor: Option<Arc<dyn OpInterceptor>> = match strategy {
        SyncStrategy::NonBlockingCommit => Some(Arc::new(MirrorInterceptor {
            oper: Arc::clone(oper),
            old_txns: old.clone(),
            sources: sources.iter().map(|t| t.id()).collect(),
        })),
        _ => {
            for txn in &old {
                db.doom(*txn);
            }
            lazy.clone().map(|lazy| lazy as Arc<dyn OpInterceptor>)
        }
    };
    // Registered under the latch: old transactions and writers blocked
    // on it resume into the interceptor. A failed cut drops the
    // registration before the latches.
    let hook = interceptor.map(|interceptor| HookRegistration {
        db: Arc::clone(db),
        // morph-lint: allow(lock_order, cutover pause: the interceptor is registered under the latch so parked transactions resume into it; the interceptor list lock is never held while waiting for a shard latch)
        token: db.add_interceptor(interceptor),
    });
    point(p_treated)?;

    // Catalog switch: new transactions land on the transformed tables.
    // A rename-in-place source (§5.2) is not frozen: old transactions
    // keep operating on it (their log records still resolve by table
    // id), and new ones reach it under its new name once published.
    if !oper.renames_source() {
        for src in &sources {
            // morph-lint: allow(lock_order, cutover pause: freezing under the exclusive latch is the point — nothing else can hold table.meta while every shard latch is ours)
            src.freeze(old.iter().copied().collect());
        }
    }
    drop(guards);
    let latch_pause = t0.elapsed();
    point(p_switched)?;

    // The rename is a catalog pointer swap, atomic either way; doing it
    // after unlatching keeps the pause honest.
    if oper.renames_source() {
        oper.publish(db)?;
    }
    // A renamed source is a target now and takes new writers, also
    // after blocking commit's freeze; every other source stays frozen.
    thaw.armed = oper.renames_source();
    let old_txns = waited + old.len();
    if let Some(prop) = prop {
        prop.enter_post_sync(old);
    }
    Ok(SyncOutcome {
        stats: SyncStats {
            strategy,
            latch_pause,
            final_records,
            old_txns,
            locks_transferred,
        },
        hook,
        lazy,
    })
}

/// Install proxy grants on the transformed tables for every source lock
/// the census `holders` hold; returns the holders and the grant count.
fn transfer_locks(
    db: &Database,
    oper: &dyn TransformOperator,
    sources: &[Arc<Table>],
    holders: Vec<LockHolder>,
) -> (HashSet<TxnId>, usize) {
    let mut old = HashSet::new();
    let mut transferred = 0usize;
    for holder in holders {
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
