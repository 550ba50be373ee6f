//! The lazy data path under contention and under faults (DESIGN.md
//! §15): first touches racing backfill batches, and a batch abandoned
//! by a crash in the middle of it.
//!
//! The oracle is the one `tests/equivalence.rs`'s sharded variant uses:
//! the same rows migrated eagerly on a single engine.

use morphdb::core::spec::TransformOptions;
use morphdb::core::transform::TransformPlan;
use morphdb::core::union::UnionSpec;
use morphdb::engine::CrashHook;
use morphdb::orchestrator::{Migration, Orchestrator};
use morphdb::{ColumnType, Database, DbError, DbResult, Key, LazyMigration, Schema, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

fn start_lazy(db: &Arc<Database>) -> Arc<LazyMigration> {
    LazyMigration::start(db, &TransformPlan::Union(UnionSpec::new("r", "s", "u"))).unwrap()
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
    let lazy = start_lazy(&db);
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
    lazy.finish().unwrap();
    assert_eq!(image_of(&db), expected);
}

#[test]
fn crash_inside_a_batch_abandons_the_whole_batch_and_a_retry_converges() {
    const BATCH: usize = 16;
    let expected = eager_reference();
    let db = source_db();
    let lazy = start_lazy(&db);
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
    lazy.finish().unwrap();
    assert_eq!(image_of(&db), expected);
}
