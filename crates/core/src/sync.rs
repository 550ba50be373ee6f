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
use morph_common::{DbError, DbResult, Key, TableId, TxnId, Value};
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

/// Immutable mapping data used to mirror source-table locks onto the
/// transformed tables from arbitrary client threads.
pub enum MirrorMap {
    /// FOJ transformation mapping.
    Foj {
        r_id: TableId,
        s_id: TableId,
        t: Arc<Table>,
        idx_rpk: usize,
        idx_join: usize,
        idx_spk: usize,
        r_pk: Vec<usize>,
        r_join: usize,
        s_join: usize,
        many: bool,
    },
    /// Split transformation mapping.
    Split {
        t: Arc<Table>,
        r_id: Option<TableId>,
        s_id: TableId,
        split_t: usize,
        t_pk: Vec<usize>,
    },
    /// Union transformation mapping.
    Union {
        r_id: TableId,
        s_id: TableId,
        t_id: TableId,
        r_tag: Value,
        s_tag: Value,
        src_pk: Vec<usize>,
    },
}

impl MirrorMap {
    /// Transformed-table records affected by `op` on `source`, with the
    /// lock origin to tag them with. Best-effort for inserts (derived
    /// placeholder rows are not pre-locked; the propagator is the only
    /// writer of those and new transactions cannot observe them before
    /// the lock release anyway).
    pub fn targets_for(
        &self,
        source: TableId,
        op: &PlannedOp<'_>,
    ) -> Vec<(TableId, Key, LockOrigin)> {
        match self {
            MirrorMap::Foj {
                r_id,
                s_id,
                t,
                idx_rpk,
                idx_join,
                idx_spk,
                r_pk,
                r_join,
                s_join,
                many,
            } => {
                let (idx, origin, join_pos) = if source == *r_id {
                    (*idx_rpk, LockOrigin::SourceR, *r_join)
                } else if source == *s_id {
                    (*idx_spk, LockOrigin::SourceS, *s_join)
                } else {
                    return Vec::new();
                };
                match op {
                    PlannedOp::Insert { values } => {
                        if source == *r_id && !*many {
                            // Predicted T key: R-pk ⧺ join (as prepared).
                            let mut cols = r_pk.clone();
                            if !cols.contains(r_join) {
                                cols.push(*r_join);
                            }
                            vec![(t.id(), Key::project(values, &cols), origin)]
                        } else {
                            // Rows that will absorb / pair with the new
                            // record: everything on its join value.
                            let jv = values.get(join_pos).cloned().unwrap_or(Value::Null);
                            t.index_lookup(*idx_join, &Key::new([jv]))
                                .into_iter()
                                .map(|k| (t.id(), k, origin))
                                .collect()
                        }
                    }
                    PlannedOp::Update { key, .. }
                    | PlannedOp::Delete { key }
                    | PlannedOp::Read { key } => t
                        .index_lookup(idx, key)
                        .into_iter()
                        .map(|k| (t.id(), k, origin))
                        .collect(),
                }
            }
            MirrorMap::Split {
                t,
                r_id,
                s_id,
                split_t,
                t_pk,
            } => {
                if source != t.id() {
                    return Vec::new();
                }
                let mut out = Vec::new();
                match op {
                    PlannedOp::Insert { values } => {
                        if let Some(r) = r_id {
                            out.push((*r, Key::project(values, t_pk), LockOrigin::SourceR));
                        }
                        if let Some(v) = values.get(*split_t) {
                            out.push((*s_id, Key::new([v.clone()]), LockOrigin::SourceS));
                        }
                    }
                    PlannedOp::Update { key, .. }
                    | PlannedOp::Delete { key }
                    | PlannedOp::Read { key } => {
                        if let Some(r) = r_id {
                            out.push((*r, (*key).clone(), LockOrigin::SourceR));
                        }
                        if let Some(row) = t.get(key) {
                            out.push((
                                *s_id,
                                Key::new([row.values[*split_t].clone()]),
                                LockOrigin::SourceS,
                            ));
                        }
                    }
                }
                out
            }
            MirrorMap::Union {
                r_id,
                s_id,
                t_id,
                r_tag,
                s_tag,
                src_pk,
            } => {
                let (tag, origin) = if source == *r_id {
                    (r_tag, LockOrigin::SourceR)
                } else if source == *s_id {
                    (s_tag, LockOrigin::SourceS)
                } else {
                    return Vec::new();
                };
                let prefix_key = |key: &Key| {
                    let mut vals = Vec::with_capacity(key.arity() + 1);
                    vals.push(tag.clone());
                    vals.extend(key.values().iter().cloned());
                    Key(vals)
                };
                match op {
                    PlannedOp::Insert { values } => {
                        vec![(*t_id, prefix_key(&Key::project(values, src_pk)), origin)]
                    }
                    PlannedOp::Update { key, .. }
                    | PlannedOp::Delete { key }
                    | PlannedOp::Read { key } => vec![(*t_id, prefix_key(key), origin)],
                }
            }
        }
    }
}

/// Interceptor installed by non-blocking-commit synchronization: every
/// further operation by a grandfathered transaction on a source table
/// first acquires the corresponding origin-tagged locks on the
/// transformed tables (conflicting with new transactions per Figure 2),
/// then installs proxy grants so the locks outlive the transaction
/// until the propagator has caught up.
pub struct MirrorInterceptor {
    map: MirrorMap,
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
        for (tid, key, origin) in self.map.targets_for(table.id(), op) {
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

/// Everything the caller learns from synchronization.
pub struct SyncOutcome {
    /// Timing and counts for the report.
    pub stats: SyncStats,
    /// Grandfathered transactions (empty for blocking commit).
    pub old_txns: HashSet<TxnId>,
    /// Interceptor registration token (non-blocking commit only);
    /// removed when the transformation finishes.
    pub interceptor_token: Option<u64>,
}

/// Run the synchronization step.
pub fn synchronize(
    db: &Arc<Database>,
    oper: &mut dyn TransformOperator,
    prop: &mut Propagator,
    options: &TransformOptions,
) -> DbResult<SyncOutcome> {
    match options.strategy {
        SyncStrategy::BlockingCommit => blocking_commit(db, oper, prop, options),
        SyncStrategy::NonBlockingAbort | SyncStrategy::NonBlockingCommit => {
            non_blocking(db, oper, prop, options)
        }
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
fn switch_catalog(
    _db: &Database,
    oper: &dyn TransformOperator,
    sources: &[Arc<Table>],
    old: &HashSet<TxnId>,
) -> DbResult<()> {
    if oper.renames_source() {
        // The source becomes a target in place (§5.2 rename-in-place).
        // The table stays Active: old transactions keep operating on it
        // legitimately (their log records still resolve by table id),
        // and new transactions reach it under its new name. The rename
        // itself happens right after the latch is released — it is an
        // O(1) catalog pointer swap either way.
        return Ok(());
    }
    for src in sources {
        src.freeze(old.iter().copied().collect());
    }
    Ok(())
}

fn non_blocking(
    db: &Arc<Database>,
    oper: &mut dyn TransformOperator,
    prop: &mut Propagator,
    options: &TransformOptions,
) -> DbResult<SyncOutcome> {
    // Crash-simulation points, named per strategy so the crash matrix
    // can enumerate kills inside each of the three strategies.
    let (p_latched, p_drained, p_treated, p_switched) = match options.strategy {
        SyncStrategy::NonBlockingAbort => (
            "sync.nba.latched",
            "sync.nba.drained",
            "sync.nba.treated",
            "sync.nba.switched",
        ),
        SyncStrategy::NonBlockingCommit => (
            "sync.nbc.latched",
            "sync.nbc.drained",
            "sync.nbc.treated",
            "sync.nbc.switched",
        ),
        SyncStrategy::BlockingCommit => unreachable!("handled elsewhere"), // morph-lint: allow(panic, the BlockingCommit arm is dispatched to its own path before this match)
    };
    let sources = sorted_sources(db, oper)?;
    // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
    let t0 = Instant::now();
    let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();
    db.crash_point(p_latched)?;

    // Final propagation: after this, the transformed tables are in the
    // same state as the (latched) sources.
    // morph-lint: allow(lock_order, cutover pause: the final drain deliberately runs under the exclusive source latches; catalog/meta acquisitions below cannot deadlock because no other thread latches shards while holding those locks — writers are parked on the latch itself)
    let final_records = prop.drain_all(db, oper)?;
    db.crash_point(p_drained)?;

    // Transfer locks of still-active transactions (§3.4/§4.3).
    let (old, locks_transferred) = transfer_locks(db, oper, &sources);

    // Strategy-specific treatment of the old transactions.
    let interceptor_token = match options.strategy {
        SyncStrategy::NonBlockingAbort => {
            for txn in &old {
                db.doom(*txn);
            }
            None
        }
        SyncStrategy::NonBlockingCommit => {
            let token = db.add_interceptor(Arc::new(MirrorInterceptor {
                map: oper.mirror_map(),
                old_txns: old.clone(),
                sources: sources.iter().map(|t| t.id()).collect(),
            }));
            Some(token)
        }
        SyncStrategy::BlockingCommit => unreachable!("handled elsewhere"), // morph-lint: allow(panic, the BlockingCommit arm is dispatched to its own path before this match)
    };
    let un_intercept = |db: &Database, e: DbError| {
        if let Some(tok) = interceptor_token {
            db.remove_interceptor(tok);
        }
        Err(e)
    };
    if let Err(e) = db.crash_point(p_treated) {
        return un_intercept(db, e);
    }

    if let Err(e) = switch_catalog(db, oper, &sources, &old) {
        return un_intercept(db, e);
    }
    drop(guards);
    let latch_pause = t0.elapsed();
    if let Err(e) = db.crash_point(p_switched) {
        return un_intercept(db, e);
    }

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
        interceptor_token,
    })
}

fn blocking_commit(
    db: &Arc<Database>,
    oper: &mut dyn TransformOperator,
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
    if let Err(e) = db.crash_point("sync.bc.frozen") {
        for src in &sources {
            src.reactivate();
        }
        return Err(e);
    }
    // morph-lint: allow(nondet, drain-wait deadline; wall-time bound on blocking, never replayed state)
    let wait_deadline = Instant::now() + options.deadline.unwrap_or(Duration::from_secs(60));
    while holders.iter().any(|t| db.is_active(*t)) {
        // morph-lint: allow(nondet, drain-wait deadline; wall-time bound on blocking, never replayed state)
        if Instant::now() > wait_deadline {
            for src in &sources {
                src.reactivate();
            }
            return Err(DbError::TransformationAborted(
                "blocking-commit: active transactions did not finish in time".into(),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    db.crash_point("sync.bc.quiesced")?;

    // Final drain under the latch; then either publish the renamed
    // source or drop the sources outright, unless the caller retains
    // them (frozen).
    let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();
    let final_records = prop.drain_all(db, oper)?;
    db.crash_point("sync.bc.drained")?;
    drop(guards);
    if oper.renames_source() {
        oper.publish(db)?;
    } else if !options.retain_sources {
        for src in &sources {
            db.catalog().drop_table(&src.name())?;
        }
    }
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
        interceptor_token: None,
    })
}
