//! The lazy data path under contention and under faults (DESIGN.md
//! §15): first touches racing backfill batches — for every operator —
//! and a batch abandoned by a crash in the middle of it.
//!
//! The oracle is the one `tests/equivalence.rs`'s sharded variant uses:
//! the same rows migrated eagerly on a single engine.

use morphdb::core::spec::{FojSpec, SplitSpec, SyncStrategy, TransformOptions};
use morphdb::core::transform::{TransformJob, TransformPlan};
use morphdb::core::union::UnionSpec;
use morphdb::engine::CrashHook;
use morphdb::orchestrator::{Migration, Orchestrator};
use morphdb::{ColumnType, Database, DbError, DbResult, Key, LazyMigration, Schema, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const ROWS: i64 = 400;

fn source_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    for (name, scale) in [("r", 10), ("s", 100)] {
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .column("v", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table(name, schema).unwrap();
        let txn = db.begin();
        for i in 0..ROWS {
            db.insert(txn, name, vec![Value::Int(i), Value::Int(i * scale)])
                .unwrap();
        }
        db.commit(txn).unwrap();
    }
    db
}

fn target_key(side: &str, id: i64) -> Key {
    Key::new([Value::str(side), Value::Int(id)])
}

fn image_of(db: &Database) -> BTreeMap<Key, Vec<Value>> {
    let u = db.catalog().get("u").unwrap();
    u.snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values))
        .collect()
}

/// The same rows migrated eagerly on a single engine.
fn eager_reference() -> BTreeMap<Key, Vec<Value>> {
    let db = source_db();
    Orchestrator::new(Arc::clone(&db))
        .submit(
            Migration::union("r", "s", "u").build(),
            TransformOptions::default(),
        )
        .unwrap()
        .join()
        .unwrap();
    image_of(&db)
}

/// Prepare a lazy job for `plan` and cut it over, leaving its copy
/// phase to the test: the job's lazy state takes touches and batches.
fn cut_over(db: &Arc<Database>, plan: &TransformPlan) -> (TransformJob, Arc<LazyMigration>) {
    let options = TransformOptions::default().strategy(SyncStrategy::Lazy);
    let mut job = TransformJob::prepare(db, plan, options).unwrap();
    job.synchronize().unwrap();
    let lazy = Arc::clone(job.lazy().unwrap());
    (job, lazy)
}

fn start_lazy(db: &Arc<Database>) -> (TransformJob, Arc<LazyMigration>) {
    cut_over(db, &TransformPlan::Union(UnionSpec::new("r", "s", "u")))
}

/// Counts the records that pass `router.lazy_touch` and kills the run
/// at the `kill_at`-th of them (never, for 0).
struct TouchHook {
    seen: AtomicUsize,
    kill_at: usize,
}

impl CrashHook for TouchHook {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        if point == "router.lazy_touch"
            && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.kill_at
        {
            return Err(DbError::SimulatedCrash(point.to_owned()));
        }
        Ok(())
    }
}

#[test]
fn touches_racing_backfill_batches_transform_every_row_exactly_once() {
    const TOUCHERS: usize = 3;
    let expected = eager_reference();
    let db = source_db();
    let hook = Arc::new(TouchHook {
        seen: AtomicUsize::new(0),
        kill_at: 0,
    });
    db.set_crash_hook(hook.clone());
    let (mut job, lazy) = start_lazy(&db);
    let total = lazy.remaining();
    assert_eq!(total, 2 * ROWS as usize);

    // Everyone starts together, so touches and batches really overlap.
    let start = Barrier::new(TOUCHERS + 2);
    std::thread::scope(|s| {
        for toucher in 0..TOUCHERS as i64 {
            let (db, start) = (&db, &start);
            s.spawn(move || {
                start.wait();
                // Each toucher sweeps every key, from its own offset.
                for n in 0..2 * ROWS {
                    let slot = (n + toucher * (2 * ROWS / TOUCHERS as i64)) % (2 * ROWS);
                    let (side, scale) = if slot % 2 == 0 { ("r", 10) } else { ("s", 100) };
                    let id = slot / 2;
                    let txn = db.begin();
                    let row = db.read(txn, "u", &target_key(side, id)).unwrap();
                    db.commit(txn).unwrap();
                    assert_eq!(
                        row,
                        Some(vec![
                            Value::str(side),
                            Value::Int(id),
                            Value::Int(id * scale)
                        ]),
                        "a read of {side}#{id} ran ahead of its transform"
                    );
                }
            });
        }
        s.spawn(|| {
            start.wait();
            while !lazy.is_drained() {
                lazy.backfill(64, 1.0).unwrap();
            }
        });
        s.spawn(|| {
            start.wait();
            let mut last = total;
            while last > 0 {
                let now = lazy.remaining();
                assert!(now <= last, "remaining() rose from {last} to {now}");
                last = now;
                std::thread::yield_now();
            }
        });
    });

    db.clear_crash_hook();
    assert_eq!(
        hook.seen.load(Ordering::SeqCst),
        total,
        "every record passes the transform exactly once"
    );
    job.finish().unwrap();
    assert_eq!(image_of(&db), expected);
}

/// Rows of every target table: values and reference counter, by table
/// and key.
type Images = BTreeMap<(String, Key), (Vec<Value>, u32)>;

fn images(db: &Database, targets: &[&str]) -> Images {
    let mut out = BTreeMap::new();
    for &name in targets {
        for (key, row) in db.catalog().get(name).unwrap().snapshot() {
            out.insert((name.to_owned(), key), (row.values, row.counter));
        }
    }
    out
}

/// [`touches_racing_backfill_batches_transform_every_row_exactly_once`]
/// for any operator: three touchers read every target row of the eager
/// reference (each from its own offset) while a backfill drains the
/// residual in batches of 64. Every read sees its row transformed,
/// every frozen record passes the transform exactly once,
/// `remaining()` never rises, and the final image is the eager one.
/// Then, on a fresh migration, one first access before any backfill.
fn touchers_race_backfill(load: fn() -> Arc<Database>, plan: TransformPlan, targets: &[&str]) {
    const TOUCHERS: usize = 3;
    let expected = {
        let db = load();
        let job = TransformJob::prepare(&db, &plan, TransformOptions::default()).unwrap();
        job.run(&AtomicBool::new(false), None, |_| Ok(())).unwrap();
        images(&db, targets)
    };
    let keys: Vec<&(String, Key)> = expected.keys().collect();
    let db = load();
    let hook = Arc::new(TouchHook {
        seen: AtomicUsize::new(0),
        kill_at: 0,
    });
    db.set_crash_hook(hook.clone());
    let (mut job, lazy) = cut_over(&db, &plan);
    let total = lazy.remaining();

    let start = Barrier::new(TOUCHERS + 2);
    std::thread::scope(|s| {
        for toucher in 0..TOUCHERS {
            let (db, start, keys, expected) = (&db, &start, &keys, &expected);
            s.spawn(move || {
                start.wait();
                for n in 0..keys.len() {
                    // The last toucher walks backwards from the end, so
                    // the last target table is touched early too.
                    let at = if toucher + 1 == TOUCHERS {
                        keys.len() - 1 - n
                    } else {
                        (n + toucher * keys.len() / TOUCHERS) % keys.len()
                    };
                    let (table, key) = keys[at];
                    let txn = db.begin();
                    let row = db.read(txn, table, key).unwrap();
                    db.commit(txn).unwrap();
                    assert_eq!(
                        row.as_ref(),
                        Some(&expected[keys[at]].0),
                        "a read of {table} {key:?} ran ahead of its transform"
                    );
                }
            });
        }
        s.spawn(|| {
            start.wait();
            while !lazy.is_drained() {
                lazy.backfill(64, 1.0).unwrap();
            }
        });
        s.spawn(|| {
            start.wait();
            let mut last = total;
            while last > 0 {
                let now = lazy.remaining();
                assert!(now <= last, "remaining() rose from {last} to {now}");
                last = now;
                std::thread::yield_now();
            }
        });
    });

    db.clear_crash_hook();
    assert_eq!(
        hook.seen.load(Ordering::SeqCst),
        total,
        "every record passes the transform exactly once"
    );
    job.finish().unwrap();
    assert_eq!(images(&db, targets), expected);

    // Without a race: the first access of a fresh migration, to the
    // last target key, already reads its eager row.
    let db = load();
    let _job = cut_over(&db, &plan);
    let last = keys[keys.len() - 1];
    let txn = db.begin();
    let row = db.read(txn, &last.0, &last.1).unwrap();
    db.commit(txn).unwrap();
    assert_eq!(row.as_ref(), Some(&expected[last].0));
}

/// FOJ: an access to any target key waits for the whole residual, so
/// touchers race each other's drains as well as the backfill.
#[test]
fn touches_racing_backfill_batches_transform_every_row_exactly_once_foj() {
    fn load() -> Arc<Database> {
        let db = Arc::new(Database::new());
        let r = Schema::builder()
            .column("id", ColumnType::Int)
            .column("v", ColumnType::Int)
            .nullable("j", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let s = Schema::builder()
            .column("j", ColumnType::Int)
            .column("w", ColumnType::Int)
            .primary_key(&["j"])
            .build()
            .unwrap();
        db.create_table("r", r).unwrap();
        db.create_table("s", s).unwrap();
        let txn = db.begin();
        for i in 0..ROWS {
            db.insert(
                txn,
                "r",
                vec![Value::Int(i), Value::Int(i * 10), Value::Int(i % 60)],
            )
            .unwrap();
        }
        // Join values 0..50 pair up; 50..60 stay R-only, 60..70 S-only.
        for j in 0..70 {
            if !(50..60).contains(&j) {
                db.insert(txn, "s", vec![Value::Int(j), Value::Int(j * 100)])
                    .unwrap();
            }
        }
        db.commit(txn).unwrap();
        db
    }
    let plan = TransformPlan::Foj(FojSpec::new("r", "s", "u", "j", "j"));
    touchers_race_backfill(load, plan, &["u"]);
}

/// Split: R₂ keys touch one source record, S₂ keys the whole residual.
#[test]
fn touches_racing_backfill_batches_transform_every_row_exactly_once_split() {
    fn load() -> Arc<Database> {
        let db = Arc::new(Database::new());
        let w = Schema::builder()
            .column("id", ColumnType::Int)
            .nullable("g", ColumnType::Int)
            .nullable("d", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("w", w).unwrap();
        let txn = db.begin();
        for i in 0..ROWS {
            let g = i % 40;
            db.insert(
                txn,
                "w",
                vec![Value::Int(i), Value::Int(g), Value::Int(g * 7)],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        db
    }
    let plan = TransformPlan::Split(SplitSpec::new("w", "r2", "s2", &["id", "g"], "g", &["d"]));
    touchers_race_backfill(load, plan, &["r2", "s2"]);
}

#[test]
fn crash_inside_a_batch_abandons_the_whole_batch_and_a_retry_converges() {
    const BATCH: usize = 16;
    let expected = eager_reference();
    let db = source_db();
    let (mut job, lazy) = start_lazy(&db);
    let total = lazy.remaining();
    let u = db.catalog().get("u").unwrap();

    // Peek at the first two batches (dropping a guard abandons it).
    let peek = |skip: bool| {
        let first = lazy.residual().claim_batch(BATCH).unwrap();
        let keys = if skip {
            let second = lazy.residual().claim_batch(BATCH).unwrap();
            second.keys().to_vec()
        } else {
            first.keys().to_vec()
        };
        (first.keys().len(), keys)
    };
    let (first_len, second_keys) = peek(true);
    assert_eq!(lazy.remaining(), total);

    // The kill fires on the fifth record of the second batch.
    db.set_crash_hook(Arc::new(TouchHook {
        seen: AtomicUsize::new(0),
        kill_at: first_len + 5,
    }));
    let err = lazy.backfill(BATCH, 1.0).unwrap_err();
    assert!(matches!(err, DbError::SimulatedCrash(_)), "{err}");
    db.clear_crash_hook();

    // The first batch is in; of the second, nothing is, and every key
    // of it is pending again.
    assert_eq!(lazy.remaining(), total - first_len);
    assert_eq!(u.len(), first_len);
    let (_, retry_keys) = peek(false);
    assert_eq!(retry_keys, second_keys);
    assert_eq!(lazy.remaining(), total - first_len);

    assert_eq!(lazy.backfill(BATCH, 1.0).unwrap(), total - first_len);
    assert!(lazy.is_drained());
    job.finish().unwrap();
    assert_eq!(image_of(&db), expected);
}

/// Composite-key sources routed by their first key column
/// (`set_shard_key(vec![0])`): the residual's lanes follow the sources'
/// own storage shards — every batch holds keys of one — and the lazy
/// result equals the eager reference.
#[test]
fn composite_key_sources_routed_by_a_key_prefix_migrate_like_eager() {
    const A: i64 = 40;
    const B: i64 = 5;
    let load = || {
        let db = Arc::new(Database::new());
        for (name, scale) in [("r", 10), ("s", 100)] {
            let schema = Schema::builder()
                .column("a", ColumnType::Int)
                .column("b", ColumnType::Int)
                .column("v", ColumnType::Int)
                .primary_key(&["a", "b"])
                .build()
                .unwrap();
            let table = db.create_table(name, schema).unwrap();
            table.set_shard_key(vec![0]).unwrap();
            let txn = db.begin();
            for a in 0..A {
                for b in 0..B {
                    let row = vec![
                        Value::Int(a),
                        Value::Int(b),
                        Value::Int((a * B + b) * scale),
                    ];
                    db.insert(txn, name, row).unwrap();
                }
            }
            db.commit(txn).unwrap();
        }
        db
    };
    let expected = {
        let db = load();
        Orchestrator::new(Arc::clone(&db))
            .submit(
                Migration::union("r", "s", "u").build(),
                TransformOptions::default(),
            )
            .unwrap()
            .join()
            .unwrap();
        image_of(&db)
    };

    let db = load();
    let (mut job, lazy) = start_lazy(&db);
    let total = 2 * (A * B) as usize;
    assert_eq!(lazy.remaining(), total);

    // First touches ahead of any batch.
    for a in (0..A).step_by(7) {
        let txn = db.begin();
        let key = Key::new([Value::str("s"), Value::Int(a), Value::Int(a % B)]);
        assert!(db.read(txn, "u", &key).unwrap().is_some());
        db.commit(txn).unwrap();
    }
    let touched = total - lazy.remaining();

    // Hold every batch at once (dropping the guards abandons them).
    let sources = [
        db.catalog().get("r").unwrap(),
        db.catalog().get("s").unwrap(),
    ];
    let mut held = Vec::new();
    while let Some(batch) = lazy.residual().claim_batch(16) {
        let src = sources.iter().find(|t| t.id() == batch.table()).unwrap();
        let shard = src.shard_of_key(&batch.keys()[0]);
        assert!(
            batch
                .keys()
                .iter()
                .all(|key| src.shard_of_key(key) == shard),
            "a batch crossed the source's storage shards"
        );
        held.push(batch);
    }
    let claimed: usize = held.iter().map(|batch| batch.keys().len()).sum();
    assert_eq!(claimed + touched, total);
    drop(held);
    assert_eq!(lazy.remaining(), total - touched);

    assert_eq!(lazy.backfill(16, 1.0).unwrap(), total - touched);
    assert!(lazy.is_drained());
    job.finish().unwrap();
    assert_eq!(image_of(&db), expected);
}
