//! Lazy (SLSM-style) migration: cut the catalog over first, transform
//! records on first touch.
//!
//! The eager §3 pipeline copies and propagates *before* switching;
//! [`SyncStrategy::Lazy`] runs the same [`TransformJob`] in the inverse
//! order. Its synchronization is the lazy variant of the one cutover
//! ([`crate::sync`]): one short latch pause over the sources, with no
//! final drain, dooms still-active transactions NBA-style, maps their
//! exclusively locked keys into the [`ResidualSet`], counts each
//! latched shard's rows, registers the on-access hook and freezes the
//! sources. The pause copies no source key, so its length does not grow
//! with the tables: the frozen source itself is the set of records
//! still to transform. From that point new transactions run against
//! the target tables; a record is transformed on the first read/write
//! that touches it (a [`LazyMigration`] is the [`OpInterceptor`] in the
//! engine's operation path) while the job's copy phase, a throttled
//! [`backfill`], drains the cold remainder.
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
//! touch runs it with a batch of one, the backfill with up to `batch`
//! keys of one residual lane (one source storage shard). It holds only
//! what it writes. Which source record an access needs first is the
//! operator's inverse mapping, [`TransformOperator::lazy_source`]: one
//! record where a target key mirrors one (union, split's R side), the
//! whole residual where it aggregates many (split's S side, any FOJ
//! key) — the fallback of DESIGN.md §15.
//!
//! Rows dirtied by a doomed (grandfathered) transaction are *deferred*:
//! their transform waits until the transaction's rollback has restored
//! the committed image in the frozen source. This mirrors eager
//! non-blocking-abort, where transferred proxy locks block access to
//! exactly those rows until propagation processes the rollback.
//!
//! [`backfill`]: LazyMigration::backfill
//! [`SyncStrategy::Lazy`]: crate::SyncStrategy::Lazy
//! [`TransformJob`]: crate::TransformJob

use crate::operator::{LazySource, TransformOperator};
use crate::throttle::Throttle;
use morph_common::{DbResult, Key, TableId, TxnId};
use morph_engine::{Database, LockHolder, OpInterceptor, PlannedOp};
use morph_storage::{Claim, ClaimGuard, ResidualSet, Table, TableExclusiveLatch};
use morph_txn::LockMode;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A lazily-executing migration: catalog already cut over, records
/// transformed on access (it is its own on-access hook) and by
/// background backfill.
pub struct LazyMigration {
    db: Arc<Database>,
    oper: Arc<dyn TransformOperator>,
    residual: ResidualSet,
    sources: Vec<Arc<Table>>,
    /// Source keys dirtied by a doomed old transaction, transformable
    /// only once that transaction's rollback has completed; set once,
    /// by the cutover, and only if it found such a writer.
    deferred: OnceLock<HashMap<(TableId, Key), TxnId>>,
}

/// On-access hook: resolves the touched target key back to its source
/// record and transforms it before the operation proceeds.
impl OpInterceptor for LazyMigration {
    fn before_op(
        &self,
        _db: &Database,
        _txn: TxnId,
        table: &Table,
        op: &PlannedOp<'_>,
    ) -> DbResult<()> {
        self.on_access(table, op)
    }
}

impl LazyMigration {
    /// The lazy state over `sources` (sorted), empty until
    /// [`LazyMigration::seed`]. Allocates everything the cutover pause
    /// fills, so it is built before the pause.
    pub(crate) fn over(
        db: &Arc<Database>,
        oper: &Arc<dyn TransformOperator>,
        sources: Vec<Arc<Table>>,
    ) -> LazyMigration {
        LazyMigration {
            db: Arc::clone(db),
            oper: Arc::clone(oper),
            residual: ResidualSet::over(&sources),
            sources,
            deferred: OnceLock::new(),
        }
    }

    /// Seed the residual under the cutover's exclusive latches, one per
    /// source in [`LazyMigration::over`]'s order, from the census of
    /// their lock `holders`: count every latched row, and map each
    /// holder's exclusively locked keys (a rolled-back delete restores a
    /// row the latch cannot see), deferred past its rollback. Returns
    /// the holders, to doom.
    pub(crate) fn seed(
        &self,
        latches: &[TableExclusiveLatch<'_>],
        holders: Vec<LockHolder>,
    ) -> HashSet<TxnId> {
        let (mut deferred, mut old) = (HashMap::new(), HashSet::new());
        let mut dirty = vec![Vec::new(); self.sources.len()];
        for holder in holders {
            for ((src, held), dirty) in self.sources.iter().zip(holder.held).zip(&mut dirty) {
                for (key, mode) in held {
                    if mode == LockMode::Exclusive {
                        deferred.insert((src.id(), key.clone()), holder.txn);
                        dirty.push(key);
                    }
                }
            }
            old.insert(holder.txn);
        }
        for ((src, latch), dirty) in self.sources.iter().zip(latches).zip(dirty) {
            self.residual.seed_latched(src.id(), latch, dirty);
        }
        if !deferred.is_empty() {
            let _ = self.deferred.set(deferred);
        }
        old
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
        self.backfill_with(batch, priority, || ())
    }

    /// [`LazyMigration::backfill`], calling `between` before each batch
    /// (the copy phase parks on its pause flag there and publishes its
    /// progress).
    pub(crate) fn backfill_with(
        &self,
        batch: usize,
        priority: f64,
        mut between: impl FnMut(),
    ) -> DbResult<usize> {
        let mut throttle = Throttle::new(priority);
        let mut total = 0usize;
        loop {
            between();
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
            if self.backfill(usize::MAX, 1.0)? == 0 {
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
    use crate::spec::{SplitMode, SyncStrategy, TransformOptions};
    use crate::transform::{TransformJob, TransformPlan};
    use crate::union::UnionSpec;
    use morph_common::{ColumnType, Lsn, Schema, Value};
    use std::sync::atomic::Ordering;

    /// Prepare a lazy job for `plan` and cut it over.
    fn start(
        db: &Arc<Database>,
        plan: &TransformPlan,
    ) -> DbResult<(TransformJob, Arc<LazyMigration>)> {
        let options = TransformOptions::default().strategy(SyncStrategy::Lazy);
        let mut job = TransformJob::prepare(db, plan, options)?;
        job.synchronize()?;
        let lazy = Arc::clone(job.lazy().expect("a synchronized lazy job"));
        Ok((job, lazy))
    }

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
        let (mut job, lazy) = start(&db, &union_plan()).unwrap();
        assert_eq!(lazy.remaining(), 16);
        let n = lazy.backfill(4, 1.0).unwrap();
        assert_eq!(n, 16);
        assert!(lazy.is_drained());
        job.finish().unwrap();
        let t = db.begin();
        let row = db.read(t, "t", &t_key("r", 3)).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(30));
        db.commit(t).unwrap();
        assert!(db.catalog().get("r").is_err());
    }

    #[test]
    fn lazy_union_on_access_transforms_before_read() {
        let db = setup_union();
        let (mut job, lazy) = start(&db, &union_plan()).unwrap();
        // No backfill: the read itself must materialize the record.
        let t = db.begin();
        let row = db.read(t, "t", &t_key("s", 5)).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(500));
        db.commit(t).unwrap();
        assert_eq!(lazy.remaining(), 15);
        lazy.backfill(usize::MAX, 1.0).unwrap();
        job.finish().unwrap();
    }

    #[test]
    fn lazy_union_write_beats_stale_backfill() {
        let db = setup_union();
        let (mut job, lazy) = start(&db, &union_plan()).unwrap();
        // Workload updates a record through the target; the on-access
        // touch transforms it first, then the update lands on top. The
        // later backfill of everything else must not resurrect the
        // frozen image.
        let t = db.begin();
        let key = t_key("r", 2);
        db.update(t, "t", &key, &[(2, Value::Int(-1))]).unwrap();
        db.commit(t).unwrap();
        lazy.backfill(usize::MAX, 1.0).unwrap();
        job.finish().unwrap();
        let t = db.begin();
        let row = db.read(t, "t", &key).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(-1));
        db.commit(t).unwrap();
    }

    /// A transform latches only the target shard it writes: with shard
    /// A held by another thread, a first touch and a backfill of keys
    /// that all route elsewhere run to completion on a worker.
    #[test]
    fn lazy_union_transform_latches_only_the_shard_it_writes() {
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

        let (mut job, lazy) = start(&db, &union_plan()).unwrap();
        let target = db.catalog().get("t").unwrap();
        // The target shard is derived from the target key, and the
        // target's shard key makes it the source row's shard.
        for &i in &ids {
            assert_eq!(
                target.shard_of_key(&t_key("s", i)),
                r.shard_of_key(&Key::single(i))
            );
        }

        // Hold the target's shard HELD: an insert routed there waits,
        // under that shard's latch, for the release and then fails.
        let held_key = (0..)
            .find(|&i| r.shard_of_key(&Key::single(i)) == HELD)
            .unwrap();
        let holder = Arc::clone(&target);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = std::sync::mpsc::channel();
        let outcome = std::thread::scope(|s| {
            s.spawn(move || {
                let row = vec![Value::str("r"), Value::Int(held_key), Value::Int(0)];
                holder.insert_with(row, morph_storage::SYSTEM, || {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                    Err(morph_common::DbError::Internal("latch held".into()))
                })
            });
            held_rx.recv().unwrap();
            s.spawn(|| {
                let txn = db.begin();
                let touched = db.read(txn, "t", &t_key("r", ids[7]));
                db.commit(txn).unwrap();
                tx.send((touched, lazy.backfill(64, 1.0))).unwrap();
            });
            let outcome = rx.recv_timeout(Duration::from_secs(20));
            drop(release_tx); // a transform stuck on the held shard ends here
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
        job.finish().unwrap();
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
        let (_job, lazy) = start(&db, &union_plan()).unwrap();
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
        let (mut job, lazy) = start(&db, &union_plan()).unwrap();
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
        assert_eq!(lazy.backfill(usize::MAX, 1.0).unwrap(), 17);
        job.finish().unwrap();
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
        assert!(start(&db, &plan).is_err());
        assert!(!db.catalog().exists("g2"), "a rejected job kept its target");
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
        let (mut job, lazy) = start(&db, &union_plan()).unwrap();
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
        lazy.backfill(usize::MAX, 1.0).unwrap();
        job.finish().unwrap();
    }
}
