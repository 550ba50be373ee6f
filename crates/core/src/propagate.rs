//! The log propagator (§3.3), batched and operator-generic.
//!
//! A [`Propagator`] owns a tail cursor into the WAL and drains the log
//! through a [`TransformOperator`]'s propagation rules, paying the
//! priority throttle between batches. Each *iteration* drains up to
//! the tail position observed at entry, writes a fuzzy mark (the next
//! iteration conceptually "reads the log after the previous fuzzy
//! mark"), and reports the remaining backlog so the caller's analysis
//! step can decide what happens next.
//!
//! ## The batched pipeline
//!
//! Relevant data records are not applied one at a time. The propagator
//! accumulates them into a *run*, [coalesces](coalesce) records the
//! operator's [`CoalescePolicy`] allows to be dropped, and hands the
//! survivors to [`TransformOperator::apply_batch`] — which opens one
//! write session per target table for the whole run, paying one latch
//! round trip per run instead of per record. A run is flushed:
//!
//! * before a control record (`CcBegin`/`CcOk`) reaches
//!   [`TransformOperator::on_control`] — the §5.3 checker must observe
//!   every prior touch before certifying;
//! * before a grandfathered transaction's end record releases its
//!   mirrored locks (post-sync mode) — the transaction's final state
//!   must be in the transformed tables first;
//! * at the end of every cursor batch.
//!
//! After synchronization the same propagator keeps running in
//! *post-sync* mode: it tracks the set of grandfathered transactions
//! and releases their mirrored locks when it processes their
//! commit / rollback-complete records — the paper's "source table
//! locks held in the transformed tables are released as soon as the
//! propagator has processed the abort log record of the lock owner"
//! (§3.4).

use crate::operator::{CoalescePolicy, TransformOperator};
use crate::report::IterationStats;
use crate::sync::proxy_owner;
use crate::throttle::Throttle;
use morph_common::{DbError, DbResult, Key, Lsn, Schema, TableId, TxnId};
use morph_engine::Database;
use morph_wal::{LogOp, LogRecord, TailCursor};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one propagation iteration's wall-clock time (see
/// [`Propagator::iterate`]).
pub const ITERATION_BUDGET: Duration = Duration::from_secs(2);

/// Per-drain context: everything about the operator the pipeline needs
/// record-by-record, resolved once per drain instead of per record.
struct DrainCtx {
    sources: Vec<TableId>,
    /// Source schemas, for computing a record's subject key. Source
    /// schemas cannot change while propagation runs (rename-in-place
    /// projection happens strictly after the final drain).
    schemas: HashMap<TableId, Schema>,
    /// Per-source barrier columns (see
    /// [`TransformOperator::coalesce_barrier_cols`]).
    barriers: HashMap<TableId, Vec<usize>>,
    policy: CoalescePolicy,
}

/// One entry of the accumulated run. Records arriving from the cursor
/// share the WAL's `Arc<LogRecord>` instead of deep-cloning the
/// operation (a run of N records used to cost N row clones before the
/// operator ever saw it); tests and synthetic callers may still hand
/// the coalescer owned operations.
enum RunOp {
    /// A data record straight off the log (guaranteed `rec.op().is_some()`).
    Shared(Arc<LogRecord>),
    /// An owned operation (tests, synthetic runs).
    #[cfg_attr(not(test), allow(dead_code))]
    Owned(LogOp),
}

impl RunOp {
    fn op(&self) -> DbResult<&LogOp> {
        match self {
            RunOp::Shared(rec) => rec.op().ok_or_else(|| {
                DbError::Internal(
                    "propagation run holds a control record; only data records may be deferred"
                        .into(),
                )
            }),
            RunOp::Owned(op) => Ok(op),
        }
    }
}

impl DrainCtx {
    fn new(db: &Database, op: &dyn TransformOperator) -> DrainCtx {
        let sources = op.source_ids();
        let mut schemas = HashMap::new();
        let mut barriers = HashMap::new();
        for id in &sources {
            if let Ok(t) = db.catalog().get_by_id(*id) {
                schemas.insert(*id, t.schema());
            }
            barriers.insert(*id, op.coalesce_barrier_cols(*id));
        }
        DrainCtx {
            sources,
            schemas,
            barriers,
            policy: op.coalesce_policy(),
        }
    }
}

/// Drop records of `run` whose effect on the transformed tables is
/// provably erased by a later record in the same run, to the extent
/// `ctx.policy` allows. Never reorders; only drops.
///
/// The *subject* of a record is its row's source-table primary key.
/// Within one subject, a forward pass tracks which earlier records are
/// still pending (= droppable):
///
/// * an **insert** is pending until a delete of the same subject drops
///   it;
/// * a **delete** drops every pending record of its subject and is
///   itself never dropped (applying a delete for an absent row is a
///   no-op under every rule set);
/// * an **update** under [`CoalescePolicy::Full`] drops pending earlier
///   updates whose column set is a subset of its own, then becomes
///   pending itself; under [`CoalescePolicy::DeleteOnly`] it merely
///   becomes pending;
/// * an update touching a **primary-key column** is a barrier: it voids
///   all pending records for both the old and the moved-to subject and
///   is never dropped (later records reference the new key; pairing
///   them across the move is unsound);
/// * an update touching an operator-declared **barrier column** voids
///   its subject's pending records likewise (§4.2 guard columns, shared
///   S-record feeds).
fn coalesce(run: Vec<(Lsn, RunOp)>, ctx: &DrainCtx) -> DbResult<Vec<(Lsn, RunOp)>> {
    if ctx.policy == CoalescePolicy::None || run.len() < 2 {
        return Ok(run);
    }
    let mut keep = vec![true; run.len()];
    // Pending (still droppable) record indices, per table then per
    // subject key. The two-level map lets delete/update lookups borrow
    // the record's key instead of cloning it into a composite probe
    // key; a subject's key is cloned once, on its first pending entry.
    let mut pending: HashMap<TableId, HashMap<Key, Vec<usize>>> = HashMap::new();
    for (i, (_, rop)) in run.iter().enumerate() {
        let op = rop.op()?;
        let table = op.table();
        let Some(schema) = ctx.schemas.get(&table) else {
            continue;
        };
        match op {
            LogOp::Insert { row, .. } => {
                pending
                    .entry(table)
                    .or_default()
                    .entry(schema.key_of(row))
                    .or_default()
                    .push(i);
            }
            LogOp::Delete { key, .. } => {
                if let Some(idxs) = pending.get_mut(&table).and_then(|m| m.remove(key)) {
                    for j in idxs {
                        keep[j] = false;
                    }
                }
            }
            LogOp::Update { key, new, .. } => {
                let pkey = schema.pkey();
                if new.iter().any(|(c, _)| pkey.contains(c)) {
                    // Key move: void both subjects, drop nothing.
                    if let Some(m) = pending.get_mut(&table) {
                        m.remove(key);
                        let mut moved = key.clone();
                        for (c, v) in new {
                            if let Some(p) = pkey.iter().position(|pc| pc == c) {
                                moved.0[p] = v.clone();
                            }
                        }
                        m.remove(&moved);
                    }
                    continue;
                }
                let barrier = ctx
                    .barriers
                    .get(&table)
                    .is_some_and(|bs| new.iter().any(|(c, _)| bs.contains(c)));
                if barrier {
                    if let Some(m) = pending.get_mut(&table) {
                        m.remove(key);
                    }
                    continue;
                }
                let m = pending.entry(table).or_default();
                match m.get_mut(key) {
                    Some(slot) => {
                        if ctx.policy == CoalescePolicy::Full {
                            slot.retain(|&j| match run[j].1.op() {
                                Ok(LogOp::Update { new: prev, .. })
                                    if prev
                                        .iter()
                                        .all(|(c, _)| new.iter().any(|(c2, _)| c2 == c)) =>
                                {
                                    keep[j] = false;
                                    false
                                }
                                // Inserts stay pending (droppable by delete
                                // only), as do updates with columns this one
                                // lacks.
                                _ => true,
                            });
                        }
                        slot.push(i);
                    }
                    None => {
                        m.insert(key.clone(), vec![i]);
                    }
                }
            }
        }
    }
    let mut i = 0;
    let mut run = run;
    run.retain(|_| {
        let k = keep.get(i).copied().unwrap_or(true);
        i += 1;
        k
    });
    Ok(run)
}

/// Post-synchronization bookkeeping: grandfathered transactions whose
/// mirrored locks the propagator still guards.
#[derive(Default, Debug)]
pub struct PostSyncState {
    /// Old transactions still running / rolling back.
    pub old_txns: HashSet<TxnId>,
}

/// Drains the log through a transformation operator's rules.
pub struct Propagator {
    cursor: TailCursor,
    throttle: Throttle,
    /// Set after synchronization: end-records of these transactions
    /// release their mirrors.
    post: Option<PostSyncState>,
    /// Records dropped by the coalescer over this propagator's life.
    coalesced: usize,
    /// Drain context cached across iterations, keyed by the catalog's
    /// structural epoch: name→table resolution and barrier-column
    /// derivation are loop-invariant until a create/drop/rename.
    ctx: Option<(u64, Arc<DrainCtx>)>,
}

impl Propagator {
    /// A propagator starting at `start_lsn` (from the fuzzy mark) with
    /// the given priority.
    pub fn new(db: &Database, start_lsn: Lsn, priority: f64) -> Propagator {
        Propagator {
            cursor: db.log().tail(start_lsn),
            throttle: Throttle::new(priority),
            post: None,
            coalesced: 0,
            ctx: None,
        }
    }

    /// The cached drain context, rebuilt when the catalog's structural
    /// epoch moved (a table was created, dropped or renamed since).
    fn drain_ctx(&mut self, db: &Database, op: &dyn TransformOperator) -> Arc<DrainCtx> {
        let epoch = db.catalog().epoch();
        match &self.ctx {
            Some((e, ctx)) if *e == epoch => Arc::clone(ctx),
            _ => {
                let ctx = Arc::new(DrainCtx::new(db, op));
                self.ctx = Some((epoch, Arc::clone(&ctx)));
                ctx
            }
        }
    }

    /// Remaining log records behind the cursor.
    pub fn backlog(&self, db: &Database) -> usize {
        self.cursor.backlog(db.log())
    }

    /// The LSN the propagator will read next — the position log
    /// truncation must not cross.
    pub fn cursor_lsn(&self) -> Lsn {
        self.cursor.next_lsn()
    }

    /// Current priority.
    pub fn priority(&self) -> f64 {
        self.throttle.priority()
    }

    /// Raise priority (non-convergence escalation).
    pub fn escalate(&mut self, factor: f64) {
        self.throttle.escalate(factor);
    }

    /// Records dropped by the coalescer so far.
    pub fn coalesced(&self) -> usize {
        self.coalesced
    }

    /// Enter post-synchronization mode guarding `old_txns`.
    pub fn enter_post_sync(&mut self, old_txns: HashSet<TxnId>) {
        self.post = Some(PostSyncState { old_txns });
    }

    /// Old transactions still outstanding (post-sync mode).
    pub fn outstanding(&self) -> usize {
        self.post.as_ref().map_or(0, |p| p.old_txns.len())
    }

    /// Coalesce and apply the accumulated run.
    fn flush(
        &mut self,
        op: &mut dyn TransformOperator,
        ctx: &DrainCtx,
        run: &mut Vec<(Lsn, RunOp)>,
    ) -> DbResult<()> {
        if run.is_empty() {
            return Ok(());
        }
        let before = run.len();
        let batch = coalesce(std::mem::take(run), ctx)?;
        self.coalesced += before - batch.len();
        let mut refs: Vec<(Lsn, &LogOp)> = Vec::with_capacity(batch.len());
        for (lsn, rop) in &batch {
            refs.push((*lsn, rop.op()?));
        }
        op.apply_batch(&refs)
    }

    /// Handle one log record: defer relevant data ops into `run`, flush
    /// and react to control / transaction-end records. Returns whether
    /// the record was relevant to this transformation.
    fn process(
        &mut self,
        db: &Database,
        op: &mut dyn TransformOperator,
        ctx: &DrainCtx,
        run: &mut Vec<(Lsn, RunOp)>,
        lsn: Lsn,
        rec: &Arc<LogRecord>,
    ) -> DbResult<bool> {
        if let Some(logop) = rec.op() {
            if ctx.schemas.contains_key(&logop.table()) {
                run.push((lsn, RunOp::Shared(Arc::clone(rec))));
                return Ok(true);
            }
            return Ok(false);
        }
        match &**rec {
            LogRecord::CcBegin { .. } | LogRecord::CcOk { .. } => {
                // The checker must observe every prior touch before a
                // certification is judged (§5.3).
                self.flush(op, ctx, run)?;
                op.on_control(lsn, rec)?;
                Ok(true)
            }
            LogRecord::Commit { txn } | LogRecord::AbortEnd { txn } => {
                let guarded = self.post.as_ref().is_some_and(|p| p.old_txns.contains(txn));
                if guarded {
                    // §3.4: release the transaction's mirrored locks
                    // now that its final state is reflected in the
                    // transformed tables (flush makes that true)…
                    self.flush(op, ctx, run)?;
                    if let Some(post) = &mut self.post {
                        post.old_txns.remove(txn);
                    }
                    db.locks().release_all(proxy_owner(*txn));
                    // …and retire it from the frozen sources.
                    for id in &ctx.sources {
                        if let Ok(t) = db.catalog().get_by_id(*id) {
                            t.retire_allowed(*txn);
                        }
                    }
                    return Ok(true);
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    /// One propagation iteration: drain up to the tail observed at
    /// entry, throttled, running maintenance every `cc_interval`
    /// batches. Returns the iteration statistics.
    ///
    /// The iteration is additionally bounded by [`ITERATION_BUDGET`] of
    /// wall-clock time: at very low priorities the throttle stretches a
    /// single drain across minutes or hours, and the caller's analysis
    /// step (deadline checks, non-convergence detection, external
    /// aborts) must still get control at a reasonable cadence.
    pub fn iterate(
        &mut self,
        db: &Database,
        op: &mut dyn TransformOperator,
        batch_size: usize,
        cc_interval: usize,
        abort: &AtomicBool,
    ) -> DbResult<IterationStats> {
        let ctx = self.drain_ctx(db, op);
        let target = db.log().last_lsn();
        // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
        let t0 = Instant::now();
        let mut run: Vec<(Lsn, RunOp)> = Vec::new();
        let mut records = 0usize;
        let mut relevant = 0usize;
        let mut batches = 0usize;
        while self.cursor.next_lsn() <= target {
            if abort.load(Ordering::Relaxed) || t0.elapsed() > ITERATION_BUDGET {
                break;
            }
            // Crash-simulation point *inside* a propagation iteration,
            // between cursor batches (no write session open here).
            db.crash_point("propagate.batch")?;
            let batch = self.cursor.next_batch(db.log(), batch_size);
            if batch.is_empty() {
                break;
            }
            // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
            let b0 = Instant::now();
            for (lsn, rec) in &batch {
                records += 1;
                if self.process(db, op, &ctx, &mut run, *lsn, rec)? {
                    relevant += 1;
                }
            }
            self.flush(op, &ctx, &mut run)?;
            batches += 1;
            if cc_interval > 0 && batches.is_multiple_of(cc_interval) {
                op.maintenance(db)?;
            }
            self.throttle.pay(b0.elapsed());
        }
        // End of iteration: write the next fuzzy mark (§3.3 — each
        // cycle is bracketed by marks) and run maintenance once. Idle
        // iterations (post-sync polling) skip the mark so they do not
        // flood the log.
        if records > 0 {
            db.write_fuzzy_mark();
        }
        op.maintenance(db)?;
        Ok(IterationStats {
            records,
            relevant,
            duration: t0.elapsed(),
            backlog_after: self.backlog(db),
        })
    }

    /// Drain every record up to the tail observed at entry, without
    /// throttling — the final latched propagation of the
    /// synchronization step. A single pass suffices: the caller holds
    /// exclusive latches on the source tables, so no further
    /// source-table operation can reach the log (records appended
    /// *after* the observed tail belong to other tables, or to
    /// in-flight operations that the post-sync phase handles).
    /// Returns the number of records processed.
    pub fn drain_all(&mut self, db: &Database, op: &mut dyn TransformOperator) -> DbResult<usize> {
        self.drain_with_batch(db, op, 1024)
    }

    /// [`Propagator::drain_all`] with an explicit cursor batch size —
    /// the run (and thus coalescing and latch-amortization) window.
    /// Exposed for the batch-size microbenchmarks; `drain_all`'s 1024
    /// is the right default everywhere else.
    pub fn drain_with_batch(
        &mut self,
        db: &Database,
        op: &mut dyn TransformOperator,
        batch_size: usize,
    ) -> DbResult<usize> {
        let ctx = self.drain_ctx(db, op);
        let mut run: Vec<(Lsn, RunOp)> = Vec::new();
        let mut n = 0usize;
        let target = db.log().last_lsn();
        while self.cursor.next_lsn() <= target {
            // Crash-simulation point inside the final latched drain.
            db.crash_point("propagate.drain.batch")?;
            // Never read past the target: the cursor must not skip
            // records it has not processed.
            let remaining = (target.0 - self.cursor.next_lsn().0 + 1) as usize;
            let batch = self
                .cursor
                .next_batch(db.log(), remaining.min(batch_size.max(1)));
            if batch.is_empty() {
                break;
            }
            for (lsn, rec) in &batch {
                n += 1;
                self.process(db, op, &ctx, &mut run, *lsn, rec)?;
            }
            self.flush(op, &ctx, &mut run)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foj::{figure1_schemas, FojMapping};
    use crate::spec::FojSpec;
    use morph_common::Value;
    use std::sync::Arc;

    fn setup() -> (Arc<Database>, FojMapping) {
        let db = Arc::new(Database::new());
        let (rs, ss) = figure1_schemas();
        db.create_table("R", rs).unwrap();
        db.create_table("S", ss).unwrap();
        let m = FojMapping::prepare(&db, &FojSpec::new("R", "S", "T", "c", "c")).unwrap();
        (db, m)
    }

    fn r_row(a: i64, c: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str("b"), Value::str(c)]
    }

    #[test]
    fn end_to_end_population_plus_propagation() {
        let (db, mut m) = setup();
        // Pre-existing data.
        let txn = db.begin();
        for i in 0..20 {
            db.insert(txn, "R", r_row(i, &format!("j{}", i % 4)))
                .unwrap();
        }
        for j in 0..4 {
            db.insert(txn, "S", vec![Value::str(format!("j{j}")), Value::str("d")])
                .unwrap();
        }
        db.commit(txn).unwrap();

        let (_, start, _) = db.write_fuzzy_mark();
        let mut prop = Propagator::new(&db, start, 1.0);
        m.populate(8).unwrap();

        // Concurrent-ish updates after the fuzzy read.
        let txn = db.begin();
        db.insert(txn, "R", r_row(100, "j0")).unwrap();
        db.delete(txn, "R", &Key::single(3)).unwrap();
        db.update(txn, "R", &Key::single(4), &[(2, Value::str("j1"))])
            .unwrap();
        db.commit(txn).unwrap();

        let abort = AtomicBool::new(false);
        let stats = prop.iterate(&db, &mut m, 16, 0, &abort).unwrap();
        assert!(stats.records > 0);
        assert!(stats.relevant > 0);
        assert_eq!(prop.backlog(&db), 1, "only the trailing fuzzy mark");

        crate::foj::verify_against_reference(&m).expect("converged to reference");
    }

    #[test]
    fn drain_all_catches_up_completely() {
        let (db, mut m) = setup();
        let (_, start, _) = db.write_fuzzy_mark();
        m.populate(8).unwrap();
        let txn = db.begin();
        for i in 0..50 {
            db.insert(txn, "R", r_row(i, "j0")).unwrap();
        }
        db.commit(txn).unwrap();
        let mut prop = Propagator::new(&db, start, 1.0);
        let n = prop.drain_all(&db, &mut m).unwrap();
        assert!(n >= 52); // begin + 50 ops + commit (+ mark)
        assert_eq!(prop.backlog(&db), 0);
        crate::foj::verify_against_reference(&m).unwrap();
    }

    #[test]
    fn post_sync_releases_mirrors_on_end_records() {
        use morph_txn::{LockMode, LockOrigin};
        let (db, mut m) = setup();
        let (_, start, _) = db.write_fuzzy_mark();
        m.populate(4).unwrap();
        let mut prop = Propagator::new(&db, start, 1.0);

        // A transaction that will be "old" at sync.
        let old = db.begin();
        db.insert(old, "R", r_row(1, "j0")).unwrap();

        // Simulate the sync step: mirror a lock under the proxy owner.
        let t_id = m.t_table().id();
        db.locks().grant_transferred(
            proxy_owner(old),
            t_id,
            &Key::new([Value::Int(1), Value::str("j0")]),
            LockMode::Exclusive,
            LockOrigin::SourceR,
        );
        prop.enter_post_sync([old].into_iter().collect());
        assert_eq!(prop.outstanding(), 1);

        // Old txn commits; propagator processes the record and releases.
        db.commit(old).unwrap();
        prop.drain_all(&db, &mut m).unwrap();
        assert_eq!(prop.outstanding(), 0);
        assert_eq!(db.locks().held_count(proxy_owner(old)), 0);
    }

    #[test]
    fn throttled_iteration_still_completes() {
        let (db, mut m) = setup();
        let (_, start, _) = db.write_fuzzy_mark();
        m.populate(4).unwrap();
        let txn = db.begin();
        for i in 0..30 {
            db.insert(txn, "R", r_row(i, "j1")).unwrap();
        }
        db.commit(txn).unwrap();
        let mut prop = Propagator::new(&db, start, 0.2);
        let abort = AtomicBool::new(false);
        let stats = prop.iterate(&db, &mut m, 8, 0, &abort).unwrap();
        assert!(stats.records >= 32);
        crate::foj::verify_against_reference(&m).unwrap();
    }

    #[test]
    fn abort_flag_stops_iteration_early() {
        let (db, mut m) = setup();
        let (_, start, _) = db.write_fuzzy_mark();
        m.populate(4).unwrap();
        let txn = db.begin();
        for i in 0..100 {
            db.insert(txn, "R", r_row(i, "j1")).unwrap();
        }
        db.commit(txn).unwrap();
        let mut prop = Propagator::new(&db, start, 1.0);
        let abort = AtomicBool::new(true); // pre-aborted
        let stats = prop.iterate(&db, &mut m, 8, 0, &abort).unwrap();
        assert_eq!(stats.records, 0);
    }

    // --- coalescer unit tests ------------------------------------------

    fn ctx_for(db: &Database, m: &FojMapping) -> DrainCtx {
        DrainCtx::new(db, m)
    }

    fn owned(run: Vec<(Lsn, LogOp)>) -> Vec<(Lsn, RunOp)> {
        run.into_iter()
            .map(|(l, op)| (l, RunOp::Owned(op)))
            .collect()
    }

    fn full_ctx(mut ctx: DrainCtx) -> DrainCtx {
        ctx.policy = CoalescePolicy::Full;
        ctx
    }

    #[test]
    fn coalesce_delete_swallows_insert_and_updates() {
        let (db, m) = setup();
        let r_id = db.catalog().get("R").unwrap().id();
        let run = vec![
            (
                Lsn(1),
                LogOp::Insert {
                    table: r_id,
                    row: r_row(1, "j0"),
                },
            ),
            (
                Lsn(2),
                LogOp::Update {
                    table: r_id,
                    key: Key::single(1),
                    old: vec![(1, Value::str("b"))],
                    new: vec![(1, Value::str("b2"))],
                },
            ),
            (
                Lsn(3),
                LogOp::Delete {
                    table: r_id,
                    key: Key::single(1),
                    old: r_row(1, "j0"),
                },
            ),
        ];
        let out = coalesce(owned(run), &ctx_for(&db, &m)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1.op().unwrap(), LogOp::Delete { .. }));
    }

    #[test]
    fn coalesce_join_attribute_update_is_a_barrier() {
        let (db, m) = setup();
        let r_id = db.catalog().get("R").unwrap().id();
        // Column 2 is R's join attribute: the update voids pending
        // coalescing, so the later delete swallows nothing.
        let run = vec![
            (
                Lsn(1),
                LogOp::Insert {
                    table: r_id,
                    row: r_row(1, "j0"),
                },
            ),
            (
                Lsn(2),
                LogOp::Update {
                    table: r_id,
                    key: Key::single(1),
                    old: vec![(2, Value::str("j0"))],
                    new: vec![(2, Value::str("j1"))],
                },
            ),
            (
                Lsn(3),
                LogOp::Delete {
                    table: r_id,
                    key: Key::single(1),
                    old: r_row(1, "j1"),
                },
            ),
        ];
        let out = coalesce(owned(run), &ctx_for(&db, &m)).unwrap();
        assert_eq!(out.len(), 3, "nothing may be dropped across the barrier");
    }

    #[test]
    fn coalesce_pkey_move_voids_both_subjects() {
        let (db, m) = setup();
        let r_id = db.catalog().get("R").unwrap().id();
        // Insert y2, move y1 -> y2's key... impossible in a real log;
        // model the sound behavior anyway: pending for both old and new
        // subjects is voided, so the final delete drops nothing.
        let run = vec![
            (
                Lsn(1),
                LogOp::Insert {
                    table: r_id,
                    row: r_row(2, "j0"),
                },
            ),
            (
                Lsn(2),
                LogOp::Update {
                    table: r_id,
                    key: Key::single(1),
                    old: vec![(0, Value::Int(1))],
                    new: vec![(0, Value::Int(2))],
                },
            ),
            (
                Lsn(3),
                LogOp::Delete {
                    table: r_id,
                    key: Key::single(2),
                    old: r_row(2, "j0"),
                },
            ),
        ];
        let out = coalesce(owned(run), &full_ctx(ctx_for(&db, &m))).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn coalesce_full_update_subsumes_subset_updates() {
        let (db, m) = setup();
        let r_id = db.catalog().get("R").unwrap().id();
        let upd = |lsn: u64, v: &str| {
            (
                Lsn(lsn),
                LogOp::Update {
                    table: r_id,
                    key: Key::single(1),
                    old: vec![(1, Value::str("x"))],
                    new: vec![(1, Value::str(v))],
                },
            )
        };
        let run = vec![upd(1, "a"), upd(2, "b"), upd(3, "c")];
        let out = coalesce(owned(run), &full_ctx(ctx_for(&db, &m))).unwrap();
        assert_eq!(out.len(), 1);
        let LogOp::Update { new, .. } = out[0].1.op().unwrap() else {
            panic!()
        };
        assert_eq!(new[0].1, Value::str("c"));
        // DeleteOnly keeps all three.
        let run = vec![upd(1, "a"), upd(2, "b"), upd(3, "c")];
        assert_eq!(coalesce(owned(run), &ctx_for(&db, &m)).unwrap().len(), 3);
    }

    /// Regression: a control record smuggled into a run surfaces as
    /// `DbError::Internal`, not a panic mid-propagation (the panic
    /// would poison the table latches and wedge every writer).
    #[test]
    fn coalesce_rejects_control_record_instead_of_panicking() {
        let (db, m) = setup();
        let r_id = db.catalog().get("R").unwrap().id();
        let run = vec![
            (
                Lsn(1),
                RunOp::Shared(Arc::new(LogRecord::Commit { txn: TxnId(7) })),
            ),
            (
                Lsn(2),
                RunOp::Owned(LogOp::Delete {
                    table: r_id,
                    key: Key::single(1),
                    old: r_row(1, "j0"),
                }),
            ),
        ];
        let Err(err) = coalesce(run, &ctx_for(&db, &m)) else {
            panic!("control record in a run must be rejected")
        };
        assert!(matches!(err, DbError::Internal(_)), "got {err:?}");
    }

    #[test]
    fn coalesced_batch_converges_to_reference() {
        let (db, mut m) = setup();
        let (_, start, _) = db.write_fuzzy_mark();
        m.populate(8).unwrap();
        let txn = db.begin();
        for i in 0..10 {
            db.insert(txn, "R", r_row(i, "j0")).unwrap();
        }
        // Churn: repeated updates and a delete that supersede records.
        for round in 0..5 {
            for i in 0..10 {
                db.update(
                    txn,
                    "R",
                    &Key::single(i),
                    &[(1, Value::str(format!("b{round}")))],
                )
                .unwrap();
            }
        }
        db.delete(txn, "R", &Key::single(7)).unwrap();
        db.commit(txn).unwrap();
        let mut prop = Propagator::new(&db, start, 1.0);
        let abort = AtomicBool::new(false);
        // One big batch so the coalescer sees the whole churn at once.
        prop.iterate(&db, &mut m, 4096, 0, &abort).unwrap();
        assert!(prop.coalesced() > 0, "churn must have been coalesced");
        crate::foj::verify_against_reference(&m).unwrap();
    }
}
