//! MVCC snapshot reads: correctness against the log, and the
//! non-blocking guarantee the whole mechanism exists for.
//!
//! 1. **Snapshot ≡ prefix recovery.** A snapshot taken at LSN *t* must
//!    show exactly the committed state the WAL prefix `..=t` recovers
//!    to: a transaction is visible iff its `Commit` record lies inside
//!    the prefix, in-flight and aborted work fully invisible. Both
//!    sides consume the same log, through entirely different code —
//!    version-chain visibility checks on the live database versus
//!    ARIES redo/undo on a fresh one — so agreement for arbitrary
//!    generated histories (including snapshots taken *mid*-transaction)
//!    pins the visibility rule to the recovery semantics.
//!
//! 2. **Readers never block.** While a split migration
//!    (two copy workers) and four writer threads hammer the source table,
//!    reader threads continuously acquire snapshots and scan. Every
//!    scan must observe a consistent image (exactly the seeded row
//!    count — writers only update in place), and the per-thread
//!    lock-wait counter must stay at zero: snapshot reads take no
//!    transaction locks and wait on nobody, migration or not.

use morphdb::core::{SplitSpec, TransformOptions, Transformer};
use morphdb::engine::recover_into;
use morphdb::txn::LockManagerConfig;
use morphdb::wal::{LogManager, LogRecord};
use morphdb::workload::{spawn_updaters, UpdateTarget};
use morphdb::{thread_lock_waits, ColumnType, Database, Key, Lsn, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn state_of(db: &Database) -> BTreeMap<Key, Vec<Value>> {
    db.catalog()
        .get("t")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values))
        .collect()
}

/// Run a generated history of small transactions on an MVCC-enabled
/// database, taking snapshots at random points — after commits, after
/// aborts, and in the middle of open transactions — then check every
/// snapshot against a fresh recovery of the WAL prefix at its LSN.
fn check_history(seed: u64) -> Result<(), TestCaseError> {
    let db = Database::new();
    let table = db.create_table("t", schema()).unwrap();
    db.enable_mvcc();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<i64> = Vec::new();
    let mut next_id = 0i64;
    let mut snaps = Vec::new();

    for _ in 0..rng.gen_range(4..10usize) {
        let txn = db.begin();
        for _ in 0..rng.gen_range(1..4usize) {
            let roll = rng.gen_range(0u32..100);
            if roll < 40 || live.is_empty() {
                let id = next_id;
                next_id += 1;
                db.insert(txn, "t", vec![Value::Int(id), Value::str(format!("i{id}"))])
                    .unwrap();
                live.push(id);
            } else if roll < 70 {
                let id = live[rng.gen_range(0..live.len())];
                db.update(
                    txn,
                    "t",
                    &Key::single(id),
                    &[(1, Value::str(format!("u{}", rng.gen_range(0..100u32))))],
                )
                .unwrap();
            } else {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                db.delete(txn, "t", &Key::single(id)).unwrap();
            }
        }
        if rng.gen_bool(0.3) {
            // Mid-transaction snapshot: this txn's writes are in the
            // log below the timestamp but must stay invisible.
            snaps.push(db.begin_snapshot().unwrap());
        }
        if rng.gen_bool(0.2) {
            db.abort(txn).unwrap();
            live = table
                .snapshot()
                .iter()
                .map(|(k, _)| match &k.0[0] {
                    Value::Int(i) => *i,
                    other => panic!("unexpected key {other:?}"),
                })
                .collect();
        } else {
            db.commit(txn).unwrap();
        }
        if rng.gen_bool(0.5) {
            snaps.push(db.begin_snapshot().unwrap());
        }
    }
    // One final snapshot so the full history is always covered.
    snaps.push(db.begin_snapshot().unwrap());

    let all: Vec<(Lsn, LogRecord)> = db
        .log()
        .read_range(Lsn(1), usize::MAX)
        .into_iter()
        .map(|(l, r)| (l, (*r).clone()))
        .collect();

    for snap in &snaps {
        let t = snap.lsn();
        let prefix: Vec<LogRecord> = all
            .iter()
            .filter(|(l, _)| *l <= t)
            .map(|(_, r)| r.clone())
            .collect();
        let db2 = Database::with_log(
            Arc::new(LogManager::with_records(prefix.clone())),
            LockManagerConfig::default(),
        );
        db2.catalog()
            .create_table_with_id(table.id(), "t", schema())
            .unwrap();
        recover_into(&db2, &prefix).unwrap();
        let want = state_of(&db2);
        let got: BTreeMap<Key, Vec<Value>> =
            db.snapshot_scan(snap, "t").unwrap().into_iter().collect();
        prop_assert!(
            got == want,
            "snapshot at {:?} disagrees with prefix recovery (seed {}): got {:?}, want {:?}",
            t,
            seed,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot reads at LSN t ≡ committed state of the log prefix
    /// `..=t`, for arbitrary histories.
    #[test]
    fn snapshot_reads_equal_prefix_recovery(seed in any::<u64>()) {
        check_history(seed)?;
    }
}

fn grouped_schema() -> Schema {
    Schema::builder()
        .column("k", ColumnType::Int)
        .nullable("payload", ColumnType::Str)
        .nullable("grp", ColumnType::Int)
        .nullable("dep", ColumnType::Str)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

/// Readers on MVCC snapshots never block — not on the migration, not
/// on the writers — and every scan is a consistent image.
#[test]
fn snapshot_readers_never_block_during_migration() {
    const ROWS: i64 = 400;
    let db = Arc::new(Database::new());
    db.create_table("W", grouped_schema()).unwrap();
    let txn = db.begin();
    for i in 0..ROWS {
        let g = i % 20;
        db.insert(
            txn,
            "W",
            vec![
                Value::Int(i),
                Value::str("p"),
                Value::Int(g),
                Value::str(format!("dep-{g}")),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();
    db.enable_mvcc();

    // Four writers updating in place (row count stays exactly ROWS).
    let pool = spawn_updaters(
        &db,
        vec![UpdateTarget::new("W", ROWS, 1)],
        4,
        Duration::from_micros(200),
    );

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Scan before the first look at `done`: a migration
                // that finishes before this thread is scheduled must
                // not leave it with nothing checked.
                loop {
                    let snap = db.begin_snapshot().unwrap();
                    let rows = db.snapshot_scan(&snap, "W").unwrap();
                    assert_eq!(
                        rows.len(),
                        ROWS as usize,
                        "snapshot scan must be a consistent image"
                    );
                    if done.load(Ordering::Relaxed) {
                        return thread_lock_waits();
                    }
                }
            })
        })
        .collect();

    let handle = Transformer::spawn_split(
        Arc::clone(&db),
        SplitSpec::new(
            "W",
            "W_base",
            "W_groups",
            &["k", "payload", "grp"],
            "grp",
            &["dep"],
        ),
        TransformOptions::default()
            .deadline(Duration::from_secs(60))
            .retain_sources()
            .copy_workers(2),
    );
    let report = handle.join().expect("split under fire");
    done.store(true, Ordering::Relaxed);

    for r in readers {
        assert_eq!(
            r.join().unwrap(),
            0,
            "snapshot readers must never wait on transaction locks"
        );
    }
    let committed = pool.stop();
    assert!(committed > 0, "writers never committed anything");
    assert!(report.population.rows_read >= ROWS as usize);
    assert_eq!(db.catalog().get("W_base").unwrap().len(), ROWS as usize);
    assert_eq!(db.live_snapshots(), 0, "all snapshots released");
    // With no snapshot left alive GC may reclaim freely and must not
    // disturb the live state.
    db.mvcc_gc().unwrap();
    assert_eq!(db.catalog().get("W").unwrap().len(), ROWS as usize);
}
