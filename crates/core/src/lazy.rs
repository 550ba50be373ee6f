//! Lazy (SLSM-style) migration: cut the catalog over first, transform
//! records on first touch.
//!
//! The eager §3 pipeline copies and propagates *before* switching; the
//! lazy alternative inverts the order. [`LazyMigration::prepare`]
//! creates the targets; [`PreparedLazy::cut_over`] allocates the
//! [`ResidualSet`]'s lanes and then synchronizes immediately —
//! sources are latched for one short pause, the locks of still-active
//! transactions are treated NBA-style (the transactions are doomed and
//! their exclusively locked keys mapped into the residual), the sources
//! freeze, and the residual counts each latched shard's rows. The pause
//! copies no source key, so its length does not grow with the tables:
//! the frozen source itself is the set of records still to transform.
//! From that point new transactions run against the target tables; a
//! record is transformed on the first read/write that touches it (an
//! [`OpInterceptor`] in the engine's operation path) while a throttled
//! background [`backfill`] drains the cold remainder.
//!
//! Correctness rides on two facts:
//!
//! * All three operators' propagation rules reconstruct the target
//!   from an `Insert` of the frozen source row regardless of arrival
//!   order — FOJ by content checks, split and union by LSN gating
//!   (Theorem 1). So "transform record r" is simply
//!   `oper.apply(r.lsn, Insert{r})` ([`TransformOperator::apply_frozen`]
//!   is that rule for a batch), and a row the workload already
//!   re-wrote in the target wins over the stale frozen image.
//! * The backfill ∥ on-access race is settled by the residual set's
//!   claims: whoever claims a key (alone, or inside a backfill batch)
//!   transforms it; everyone else blocks until the claim completes, so
//!   each record is transformed exactly once ([`ResidualSet`]
//!   invariants, DESIGN.md §15).
//!
//! There is one transform path, `LazyMigration::transform`: a first
//! touch runs it with a batch of one, the backfill with a batch of up
//! to `batch` keys of one residual lane (one source storage shard, walked
//! from the lane's cursor). It holds only what it
//! writes — no lock while it reads the frozen rows and builds the
//! target rows, then (union) a write session over the one target shard
//! the batch routes to. Which source record an access needs first is
//! the operator's inverse mapping, [`TransformOperator::lazy_source`]:
//! one record where a target key mirrors one (union, split's R side),
//! the whole residual where it aggregates many (split's S side, any FOJ
//! key) — correct, and documented as the fallback in DESIGN.md §15.
//!
//! Rows dirtied by a doomed (grandfathered) transaction are *deferred*:
//! their transform waits until the transaction's rollback has restored
//! the committed image in the frozen source. This mirrors eager
//! non-blocking-abort, where transferred proxy locks block access to
//! exactly those rows until propagation processes the rollback.
//!
//! [`backfill`]: LazyMigration::backfill

use crate::operator::{LazySource, TransformOperator};
use crate::throttle::Throttle;
use crate::transform::{PreparedTables, TransformPlan};
use morph_common::{DbError, DbResult, Key, TableId, TxnId};
use morph_engine::{Database, OpInterceptor, PlannedOp};
use morph_storage::{Claim, ClaimGuard, ResidualSet, Table};
use morph_txn::LockMode;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Sentinel for "no interceptor installed".
const NO_TOKEN: u64 = u64::MAX;

/// A lazily-executing migration: catalog already cut over, records
/// transformed on access and by background backfill.
pub struct LazyMigration {
    db: Arc<Database>,
    oper: Arc<dyn TransformOperator>,
    residual: ResidualSet,
    sources: Vec<Arc<Table>>,
    /// Source keys dirtied by a doomed old transaction, transformable
    /// only once that transaction's rollback has completed; set once,
    /// by the cutover, and only if it found such a writer.
    deferred: OnceLock<HashMap<(TableId, Key), TxnId>>,
    token: AtomicU64,
}

/// On-access hook: resolves the touched target key back to its source
/// record and transforms it before the operation proceeds. Holds only a
/// weak reference so a dropped migration leaves a dead no-op hook, not
/// a leak-cycle through the database.
struct LazyInterceptor {
    lazy: Weak<LazyMigration>,
}

impl OpInterceptor for LazyInterceptor {
    fn before_op(
        &self,
        _db: &Database,
        _txn: TxnId,
        table: &Table,
        op: &PlannedOp<'_>,
    ) -> DbResult<()> {
        match self.lazy.upgrade() {
            Some(lazy) => lazy.on_access(table, op),
            None => Ok(()),
        }
    }
}

/// A lazy migration whose targets exist but whose sources are not cut
/// over yet: [`LazyMigration::prepare`]'s result. A fan-out prepares
/// every shard before it cuts any over, so that a shard that cannot
/// prepare leaves no other shard cut over: dropping a `PreparedLazy`
/// drops its targets. The sources were never touched.
pub struct PreparedLazy {
    db: Arc<Database>,
    oper: Arc<dyn TransformOperator>,
    sources: Vec<Arc<Table>>,
    tables: PreparedTables,
}

impl PreparedLazy {
    /// Cut over: latch the sources, doom still-active holders
    /// NBA-style, freeze the sources, seed the residual set, and
    /// install the on-access hook. Returns with the catalog switched
    /// and **zero** records transformed. The pause copies no key: the
    /// residual counts each latched shard and maps only the doomed
    /// writers' exclusively locked keys.
    pub fn cut_over(self) -> DbResult<Arc<LazyMigration>> {
        let PreparedLazy {
            db,
            oper,
            sources,
            mut tables,
        } = self;
        tables.disarm();
        // Everything the pause fills is allocated before it: with
        // clients stalled on the latch, even the allocator's deferred
        // work (DESIGN.md §15) would be theirs to wait out.
        let lazy = Arc::new(LazyMigration {
            db: Arc::clone(&db),
            oper,
            residual: ResidualSet::over(&sources),
            sources,
            deferred: OnceLock::new(),
            token: AtomicU64::new(NO_TOKEN),
        });
        let sources = &lazy.sources;
        let mut deferred = HashMap::new();
        let mut dirty = vec![Vec::new(); sources.len()];

        // --- the cutover pause: everything below runs under the latch.
        let guards: Vec<_> = sources.iter().map(|t| t.latch_exclusive()).collect();

        // Old transactions: anyone holding locks on a source. Their
        // exclusively-locked keys are dirty — map them (a rolled-back
        // delete restores a row the latch cannot see) and defer their
        // transform past the rollback.
        let mut old = HashSet::new();
        // morph-lint: allow(lock_order, cutover pause: the coordinator alone holds these exclusive latches and user txns never latch shards while holding registry/side locks, so the rank protocol's reverse order cannot occur concurrently)
        for holder in db.lock_holders(sources) {
            for ((src, held), dirty) in sources.iter().zip(holder.held).zip(&mut dirty) {
                for (key, mode) in held {
                    if mode == LockMode::Exclusive {
                        deferred.insert((src.id(), key.clone()), holder.txn);
                        dirty.push(key);
                    }
                }
            }
            old.insert(holder.txn);
        }
        for txn in &old {
            db.doom(*txn);
        }
        for ((src, guard), dirty) in sources.iter().zip(&guards).zip(dirty) {
            // morph-lint: allow(lock_order, cutover pause: freezing under the exclusive latch is the point — nothing else can hold table.meta while every shard latch is ours)
            src.freeze(old.iter().copied().collect());
            lazy.residual.seed_latched(src.id(), guard, dirty);
        }
        if !deferred.is_empty() {
            let _ = lazy.deferred.set(deferred);
        }
        // morph-lint: allow(lock_order, cutover pause: interceptor registration under the latch is what makes the cut atomic; writers blocked on the latch observe the interceptor the instant they resume)
        let token = db.add_interceptor(Arc::new(LazyInterceptor {
            lazy: Arc::downgrade(&lazy),
        }));
        lazy.token.store(token, Ordering::SeqCst);
        if let Err(e) = db.crash_point("router.lazy_cutover") {
            // morph-lint: allow(lock_order, a failed cut unregisters under the latch it registered under; the interceptor list lock is never held while waiting for a shard latch)
            db.remove_interceptor(token);
            return Err(e);
        }
        drop(guards);
        Ok(lazy)
    }
}

impl LazyMigration {
    /// Prepare and cut over at once ([`LazyMigration::prepare`], then
    /// [`PreparedLazy::cut_over`]).
    pub fn start(db: &Arc<Database>, plan: &TransformPlan) -> DbResult<Arc<LazyMigration>> {
        LazyMigration::prepare(db, plan)?.cut_over()
    }

    /// Create the targets, before anything is latched. Operators that
    /// rename a source into a target (rename-in-place splits) are
    /// rejected: the lazy scheme needs the frozen source intact as the
    /// transform input, which the in-place rename destroys.
    pub fn prepare(db: &Arc<Database>, plan: &TransformPlan) -> DbResult<PreparedLazy> {
        let (oper, tables) = plan.prepare_operator(db)?;
        if oper.renames_source() {
            return Err(DbError::TransformationAborted(
                "lazy migration does not support rename-in-place splits".into(),
            ));
        }
        Ok(PreparedLazy {
            db: Arc::clone(db),
            sources: crate::sync::sorted_sources(db, &*oper)?,
            oper,
            tables,
        })
    }

    /// Keys still awaiting transformation.
    pub fn remaining(&self) -> usize {
        self.residual.remaining()
    }

    /// Whether every source record has been transformed.
    pub fn is_drained(&self) -> bool {
        self.residual.is_drained()
    }

    /// The underlying residual set (diagnostics and tests).
    pub fn residual(&self) -> &ResidualSet {
        &self.residual
    }

    /// Transform one source record now if it is still pending; blocks
    /// while another claimant is transforming it.
    pub fn touch(&self, source: TableId, key: &Key) -> DbResult<()> {
        match self.residual.claim(source, key) {
            Claim::Done => Ok(()),
            Claim::Transform(guard) => self.transform(guard),
        }
    }

    /// Throttled background backfill: claim and transform pending
    /// records in batches of up to `batch` keys of one residual lane
    /// until nothing is pending, paying the priority throttle per batch
    /// so user transactions keep the machine. Returns the number of
    /// records this call transformed; the residual may still hold keys
    /// in flight with on-access claimants when it returns.
    pub fn backfill(&self, batch: usize, priority: f64) -> DbResult<usize> {
        let mut throttle = Throttle::new(priority);
        let mut total = 0usize;
        loop {
            self.db.crash_point("router.backfill_batch")?;
            // morph-lint: allow(nondet, batch timing feeds throttle pacing only; wall time never enters table or WAL state)
            let t0 = Instant::now();
            let Some(guard) = self.residual.claim_batch(batch) else {
                return Ok(total);
            };
            total += guard.keys().len();
            self.transform(guard)?;
            throttle.pay(t0.elapsed());
        }
    }

    /// Unthrottled full drain (a backfill at full priority).
    pub fn drain_now(&self) -> DbResult<usize> {
        self.backfill(usize::MAX, 1.0)
    }

    /// Complete the migration: requires a drained residual, removes the
    /// on-access hook and drops the frozen sources.
    pub fn finish(&self) -> DbResult<()> {
        if !self.residual.is_drained() {
            return Err(DbError::TransformationAborted(
                "lazy migration finished before the residual set drained".into(),
            ));
        }
        let token = self.token.swap(NO_TOKEN, Ordering::SeqCst);
        if token != NO_TOKEN {
            self.db.remove_interceptor(token);
        }
        self.db.crash_point("router.lazy_done")?;
        for src in &self.sources {
            self.db.catalog().drop_table(&src.name())?;
        }
        self.oper.finalize(&self.db)
    }

    /// The interceptor's entry: resolve a target-table access to the
    /// source record(s) that must be transformed first.
    fn on_access(&self, table: &Table, op: &PlannedOp<'_>) -> DbResult<()> {
        if self.residual.is_drained() {
            return Ok(());
        }
        match self.oper.lazy_source(table.id(), &Self::op_key(table, op)) {
            LazySource::None => Ok(()),
            LazySource::Key(source, key) => self.touch(source, &key),
            LazySource::Residual => self.drain_for_access(),
        }
    }

    /// The whole-residual fallback of an access that has no single
    /// source key: unlike a backfill it may not return while another
    /// claimant still holds a batch in flight, because the access reads
    /// what that batch writes.
    fn drain_for_access(&self) -> DbResult<()> {
        while !self.residual.is_drained() {
            if self.drain_now()? == 0 {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// The target key an operation addresses (for inserts, the key the
    /// new row would get).
    fn op_key<'k>(table: &Table, op: &PlannedOp<'k>) -> Cow<'k, Key> {
        match op {
            PlannedOp::Insert { values } => Cow::Owned(table.schema().key_of(values)),
            PlannedOp::Update { key, .. } | PlannedOp::Delete { key } | PlannedOp::Read { key } => {
                Cow::Borrowed(key)
            }
        }
    }

    /// Transform the claimed source records — a batch of one for a
    /// first touch, of many for the backfill. Reads the frozen rows and
    /// passes the per-record crash point before anything is written or
    /// latched, so a failure there abandons the whole claim with the
    /// targets untouched; then feeds the rows through the operator as
    /// `Insert`s at their own LSNs.
    fn transform(&self, guard: ClaimGuard<'_>) -> DbResult<()> {
        let table = guard.table();
        let Some(src) = self.sources.iter().find(|t| t.id() == table) else {
            guard.complete();
            return Ok(());
        };
        let mut rows = Vec::with_capacity(guard.keys().len());
        for key in guard.keys() {
            if let Some(deferred) = self.deferred.get() {
                self.await_rollback(deferred, table, key);
            }
            // A key whose row is gone from the frozen source was a
            // doomed insert, rolled back: nothing to transform.
            if let Some(row) = src.get(key) {
                self.db.crash_point("router.lazy_touch")?;
                rows.push(row);
            }
        }
        self.oper.apply_frozen(table, rows)?;
        guard.complete();
        Ok(())
    }

    /// Deferred key: a doomed old transaction wrote this row; its
    /// committed image is only back once the rollback finishes. The
    /// wait mirrors eager NBA's transferred proxy locks, which block
    /// access to exactly these rows for exactly this long.
    fn await_rollback(&self, deferred: &HashMap<(TableId, Key), TxnId>, table: TableId, key: &Key) {
        if let Some(&txn) = deferred.get(&(table, key.clone())) {
            while self.db.is_active(txn) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SplitMode;
    use crate::union::UnionSpec;
    use morph_common::{ColumnType, Lsn, Schema, Value};

    /// Empty union sources `r` and `s`.
    fn union_sources() -> Arc<Database> {
        let db = Arc::new(Database::new());
        let schema = || {
            Schema::builder()
                .column("id", ColumnType::Int)
                .column("v", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap()
        };
        db.create_table("r", schema()).unwrap();
        db.create_table("s", schema()).unwrap();
        db
    }

    fn setup_union() -> Arc<Database> {
        let db = union_sources();
        for i in 0..8 {
            let t = db.begin();
            db.insert(t, "r", vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
            db.insert(t, "s", vec![Value::Int(i), Value::Int(i * 100)])
                .unwrap();
            db.commit(t).unwrap();
        }
        db
    }

    fn union_plan() -> TransformPlan {
        TransformPlan::Union(UnionSpec::new("r", "s", "t"))
    }

    fn t_key(src: &str, id: i64) -> Key {
        Key::new([Value::str(src), Value::Int(id)])
    }

    #[test]
    fn lazy_union_backfill_drains_and_finishes() {
        let db = setup_union();
        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        assert_eq!(lazy.remaining(), 16);
        let n = lazy.backfill(4, 1.0).unwrap();
        assert_eq!(n, 16);
        assert!(lazy.is_drained());
        lazy.finish().unwrap();
        let t = db.begin();
        let row = db.read(t, "t", &t_key("r", 3)).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(30));
        db.commit(t).unwrap();
        assert!(db.catalog().get("r").is_err());
    }

    #[test]
    fn lazy_union_on_access_transforms_before_read() {
        let db = setup_union();
        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        // No backfill: the read itself must materialize the record.
        let t = db.begin();
        let row = db.read(t, "t", &t_key("s", 5)).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(500));
        db.commit(t).unwrap();
        assert_eq!(lazy.remaining(), 15);
        lazy.drain_now().unwrap();
        lazy.finish().unwrap();
    }

    #[test]
    fn lazy_union_write_beats_stale_backfill() {
        let db = setup_union();
        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        // Workload updates a record through the target; the on-access
        // touch transforms it first, then the update lands on top. The
        // later backfill of everything else must not resurrect the
        // frozen image.
        let t = db.begin();
        let key = t_key("r", 2);
        db.update(t, "t", &key, &[(2, Value::Int(-1))]).unwrap();
        db.commit(t).unwrap();
        lazy.drain_now().unwrap();
        lazy.finish().unwrap();
        let t = db.begin();
        let row = db.read(t, "t", &key).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(-1));
        db.commit(t).unwrap();
    }

    /// A transform latches only the target shard it writes: with shard
    /// A held by this thread, a first touch and a backfill of keys that
    /// all route elsewhere run to completion on a worker.
    #[test]
    fn lazy_union_transform_latches_only_the_shard_it_writes() {
        use morph_storage::TABLE_SHARDS;
        const HELD: usize = 0;
        let db = Arc::new(Database::new());
        let schema = || {
            Schema::builder()
                .column("id", ColumnType::Int)
                .column("v", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap()
        };
        let r = db.create_table("r", schema()).unwrap();
        db.create_table("s", schema()).unwrap();
        // Sources hold only keys that route away from the held shard.
        let ids: Vec<i64> = (0..)
            .filter(|&i| r.shard_of_key(&Key::single(i)) != HELD)
            .take(100)
            .collect();
        let t = db.begin();
        for &i in &ids {
            db.insert(t, "r", vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
            db.insert(t, "s", vec![Value::Int(i), Value::Int(i * 100)])
                .unwrap();
        }
        db.commit(t).unwrap();

        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        let target = db.catalog().get("t").unwrap();
        // The target shard is derived from the target key, and the
        // target's shard key makes it the source row's shard.
        for &i in &ids {
            assert_eq!(
                target.shard_of_key(&t_key("s", i)),
                r.shard_of_key(&Key::single(i))
            );
        }

        let held = target.write_session_masked(TABLE_SHARDS, HELD);
        let (tx, rx) = std::sync::mpsc::channel();
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let txn = db.begin();
                let touched = db.read(txn, "t", &t_key("r", ids[7]));
                db.commit(txn).unwrap();
                tx.send((touched, lazy.backfill(64, 1.0))).unwrap();
            });
            let outcome = rx.recv_timeout(Duration::from_secs(20));
            drop(held); // a transform stuck on the held shard ends here
            outcome
        });
        let (touched, backfilled) =
            outcome.expect("a transform waited for a shard it does not write");
        assert_eq!(
            touched.unwrap().unwrap(),
            vec![Value::str("r"), Value::Int(ids[7]), Value::Int(ids[7] * 10)]
        );
        assert_eq!(backfilled.unwrap(), 2 * ids.len() - 1);
        assert!(lazy.is_drained());
        lazy.finish().unwrap();
    }

    /// The cutover pause copies no key: over a 100 K-row source the
    /// residual maps nothing and counts every row. With doomed writers
    /// it maps exactly their exclusively locked keys, and counts a key
    /// a doomed delete took out of the source on top.
    #[test]
    fn cutover_maps_only_the_doomed_writers_keys() {
        const ROWS: i64 = 100_000;
        let db = union_sources();
        let r = db.catalog().get("r").unwrap();
        for i in 0..ROWS {
            r.insert(vec![Value::Int(i), Value::Int(i * 10)], Lsn(1))
                .unwrap();
        }
        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        assert!(lazy.residual().explicit_keys().is_empty());
        assert_eq!(lazy.remaining(), ROWS as usize);

        let db = setup_union();
        let (r, s) = (
            db.catalog().get("r").unwrap(),
            db.catalog().get("s").unwrap(),
        );
        let (ins, upd, del, reader) = (db.begin(), db.begin(), db.begin(), db.begin());
        db.insert(ins, "r", vec![Value::Int(100), Value::Int(1)])
            .unwrap();
        db.update(upd, "s", &Key::single(3), &[(1, Value::Int(-3))])
            .unwrap();
        db.delete(del, "r", &Key::single(5)).unwrap();
        db.read(reader, "s", &Key::single(6)).unwrap();
        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        let mut want = vec![
            (r.id(), Key::single(100)),
            (r.id(), Key::single(5)),
            (s.id(), Key::single(3)),
        ];
        want.sort();
        assert_eq!(lazy.residual().explicit_keys(), want);
        assert_eq!(lazy.remaining(), 17);

        for txn in [ins, upd, del, reader] {
            db.abort(txn).unwrap();
        }
        assert_eq!(lazy.drain_now().unwrap(), 17);
        lazy.finish().unwrap();
        let t = db.catalog().get("t").unwrap();
        assert_eq!(t.len(), 16);
        assert_eq!(t.get(&t_key("r", 5)).unwrap().values[2], Value::Int(50));
        assert_eq!(t.get(&t_key("s", 3)).unwrap().values[2], Value::Int(300));
        assert!(t.get(&t_key("r", 100)).is_none());
    }

    #[test]
    fn lazy_rejects_rename_in_place() {
        let db = Arc::new(Database::new());
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .column("g", ColumnType::Int)
            .column("d", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("w", schema).unwrap();
        let plan = TransformPlan::Split(crate::spec::SplitSpec {
            source: "w".into(),
            r_target: "w2".into(),
            s_target: "g2".into(),
            r_cols: vec!["id".into(), "g".into()],
            split_col: "g".into(),
            s_dep_cols: vec!["d".into()],
            check_consistency: false,
            mode: SplitMode::RenameInPlace,
        });
        assert!(LazyMigration::start(&db, &plan).is_err());
    }

    #[test]
    fn lazy_defers_doomed_writers_rows() {
        let db = setup_union();
        // An in-flight transaction dirties r#4 and is still active at
        // cutover: it gets doomed, and the touch of its row must wait
        // for the rollback to restore the committed image.
        let old = db.begin();
        db.update(old, "r", &Key::single(4), &[(1, Value::Int(999))])
            .unwrap();
        let lazy = LazyMigration::start(&db, &union_plan()).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                done.store(true, Ordering::SeqCst);
                db.abort(old).unwrap();
            });
            let t = db.begin();
            let row = db.read(t, "t", &t_key("r", 4)).unwrap().unwrap();
            // The touch blocked until the rollback finished.
            assert!(done.load(Ordering::SeqCst));
            assert_eq!(row[2], Value::Int(40));
            db.commit(t).unwrap();
        });
        lazy.drain_now().unwrap();
        lazy.finish().unwrap();
    }
}
