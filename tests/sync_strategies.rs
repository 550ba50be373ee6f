//! Semantics of the three synchronization strategies (§3.4), observed
//! from the client side, plus the Figure-2 lock behaviour of the
//! non-blocking commit strategy.

use morphdb::core::{
    FojSpec, SplitSpec, SyncStrategy, TransformJob, TransformOptions, TransformPlan,
    TransformReport,
};
use morphdb::engine::CrashHook;
use morphdb::wal::LogRecord;
use morphdb::{ColumnType, Database, DbError, DbResult, Key, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sources(db: &Database, rows: usize) {
    let r = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .primary_key(&["a"])
        .build()
        .unwrap();
    let s = Schema::builder()
        .column("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["c"])
        .build()
        .unwrap();
    db.create_table("R", r).unwrap();
    db.create_table("S", s).unwrap();
    let txn = db.begin();
    for i in 0..rows as i64 {
        db.insert(
            txn,
            "R",
            vec![Value::Int(i), Value::str("b"), Value::Int(i % 10)],
        )
        .unwrap();
    }
    for j in 0..10i64 {
        db.insert(txn, "S", vec![Value::Int(j), Value::str("d")])
            .unwrap();
    }
    db.commit(txn).unwrap();
}

fn opts(strategy: SyncStrategy) -> TransformOptions {
    TransformOptions::default()
        .strategy(strategy)
        .deadline(Duration::from_secs(30))
}

fn foj() -> TransformPlan {
    TransformPlan::Foj(FojSpec::new("R", "S", "T", "c", "c"))
}

/// Prepare `plan` and run it to completion on this thread.
fn run(
    db: &Arc<Database>,
    plan: TransformPlan,
    options: TransformOptions,
) -> DbResult<TransformReport> {
    TransformJob::prepare(db, &plan, options)?.run(&AtomicBool::new(false), None, |_| Ok(()))
}

#[test]
fn non_blocking_abort_dooms_old_and_serves_new() {
    let db = Arc::new(Database::new());
    sources(&db, 100);
    let old = db.begin();
    db.update(old, "R", &Key::single(5), &[(1, Value::str("dirty"))])
        .unwrap();

    let job = TransformJob::prepare(&db, &foj(), opts(SyncStrategy::NonBlockingAbort)).unwrap();
    let handle = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));

    // The old transaction gets doomed; a well-behaved client rolls it
    // back and moves to the new table.
    let t0 = Instant::now();
    loop {
        match db.update(old, "R", &Key::single(6), &[(1, Value::str("x"))]) {
            Ok(()) => {
                assert!(t0.elapsed() < Duration::from_secs(25), "never doomed");
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(DbError::TxnDoomed(_)) | Err(DbError::TableFrozen(_)) => {
                db.abort(old).unwrap();
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    handle.join().unwrap().unwrap();

    // New transactions use T; the doomed transaction's work is absent.
    let t = db.catalog().get("T").unwrap();
    assert!(t
        .snapshot()
        .iter()
        .all(|(_, row)| row.values[1] != Value::str("dirty")));
    let txn = db.begin();
    let read = db
        .read(txn, "T", &Key::new([Value::Int(5), Value::Int(5)]))
        .unwrap();
    assert!(read.is_some());
    db.commit(txn).unwrap();
}

#[test]
fn non_blocking_commit_blocks_new_txn_until_old_commit_propagates() {
    let db = Arc::new(Database::new());
    sources(&db, 50);
    let old = db.begin();
    db.update(old, "R", &Key::single(1), &[(1, Value::str("v1"))])
        .unwrap();

    let job = TransformJob::prepare(&db, &foj(), opts(SyncStrategy::NonBlockingCommit)).unwrap();
    let handle = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));
    // Wait for the switch (R freezes for new transactions).
    let t0 = Instant::now();
    loop {
        if db.catalog().get("R").unwrap().state() != morphdb::storage::TableState::Active {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(25),
            "sync never happened"
        );
        std::thread::sleep(Duration::from_micros(500));
    }

    // A new transaction trying to write the *mirror-locked* T record
    // must conflict (Figure 2: native write vs transferred write).
    let t_key = Key::new([Value::Int(1), Value::Int(1)]);
    let newer = db.begin();
    match db.update(newer, "T", &t_key, &[(1, Value::str("clash"))]) {
        Err(DbError::Deadlock(_)) | Err(DbError::LockTimeout(_)) => {}
        Ok(()) => panic!("new txn must not slip past the transferred lock"),
        Err(e) => panic!("unexpected: {e}"),
    }
    db.abort(newer).unwrap();

    // The old transaction keeps working on the frozen source, commits…
    db.update(old, "R", &Key::single(2), &[(1, Value::str("v2"))])
        .unwrap();
    db.commit(old).unwrap();
    // …and once the propagator catches up the transformation finishes
    // and the record becomes writable.
    handle.join().unwrap().unwrap();
    let txn = db.begin();
    db.update(txn, "T", &t_key, &[(1, Value::str("after"))])
        .unwrap();
    db.commit(txn).unwrap();

    // Both old-transaction updates are visible in T.
    let t = db.catalog().get("T").unwrap();
    let vals: Vec<Value> = t
        .snapshot()
        .iter()
        .map(|(_, r)| r.values[1].clone())
        .collect();
    assert!(vals.contains(&Value::str("v2")));
    assert!(vals.contains(&Value::str("after")));
}

/// Regression test: split synchronization transfers locks for a
/// transaction that is active on the source at the sync instant. An
/// earlier version self-deadlocked here — the lock-transfer path read
/// the *source* table (for the split value) while the synchronization
/// step held the source's exclusive latch.
#[test]
fn split_sync_with_active_source_lock_holder_does_not_deadlock() {
    use morphdb::core::SplitSpec;
    let db = Arc::new(Database::new());
    let t_schema = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", t_schema).unwrap();
    let txn = db.begin();
    for i in 0..100i64 {
        db.insert(
            txn,
            "T",
            vec![
                Value::Int(i),
                Value::str("b"),
                Value::Int(i % 10),
                Value::str(format!("dep-{}", i % 10)),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();

    // Hold exclusive locks on source records across the sync.
    let old = db.begin();
    db.update(old, "T", &Key::single(7), &[(1, Value::str("held"))])
        .unwrap();

    let spec = SplitSpec::new("T", "R2", "S2", &["a", "b", "c"], "c", &["d"]);
    let options = opts(SyncStrategy::NonBlockingAbort);
    let job = TransformJob::prepare(&db, &TransformPlan::Split(spec), options).unwrap();
    let handle = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));
    // Roll the doomed transaction back once the sync fires.
    let t0 = Instant::now();
    loop {
        match db.update(old, "T", &Key::single(8), &[(1, Value::str("x"))]) {
            Ok(()) => {
                assert!(t0.elapsed() < Duration::from_secs(25), "never doomed");
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(DbError::TxnDoomed(_)) | Err(DbError::TableFrozen(_)) => {
                db.abort(old).unwrap();
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let report = handle.join().unwrap().expect("split transformation");
    assert!(
        report.sync.old_txns >= 1,
        "the holder must be grandfathered"
    );
    assert!(report.sync.locks_transferred >= 1);
    // The doomed txn's work is absent from the targets.
    let r2 = db.catalog().get("R2").unwrap();
    assert!(r2
        .snapshot()
        .iter()
        .all(|(_, row)| row.values[1] != Value::str("held")));
}

#[test]
fn blocking_commit_blocks_then_switches() {
    let db = Arc::new(Database::new());
    sources(&db, 50);

    // A transaction holding a source lock delays the strategy; it
    // commits shortly after, from another thread.
    let holder = db.begin();
    db.update(holder, "R", &Key::single(0), &[(1, Value::str("held"))])
        .unwrap();
    let db2 = Arc::clone(&db);
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        db2.commit(holder).unwrap();
    });

    let blocked_seen = Arc::new(AtomicBool::new(false));
    let db3 = Arc::clone(&db);
    let seen2 = Arc::clone(&blocked_seen);
    let prober = std::thread::spawn(move || {
        // Probe during the freeze window: new transactions must be
        // rejected from the sources at some point.
        for _ in 0..2_000 {
            let txn = db3.begin();
            match db3.update(txn, "R", &Key::single(3), &[(1, Value::str("p"))]) {
                Err(DbError::TableFrozen(_)) | Err(DbError::NoSuchTable(_)) => {
                    seen2.store(true, Ordering::Relaxed);
                    let _ = db3.abort(txn);
                    return;
                }
                _ => {
                    let _ = db3.abort(txn);
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    let report = run(&db, foj(), opts(SyncStrategy::BlockingCommit)).unwrap();
    release.join().unwrap();
    prober.join().unwrap();

    assert!(
        blocked_seen.load(Ordering::Relaxed),
        "blocking commit must visibly block new transactions"
    );
    // The holder's committed update made it into T.
    let t = db.catalog().get("T").unwrap();
    assert!(t
        .snapshot()
        .iter()
        .any(|(_, row)| row.values[1] == Value::str("held")));
    assert_eq!(report.sync.strategy, SyncStrategy::BlockingCommit);
    assert!(!db.catalog().exists("R"));
}

/// Parks the first thread that reaches `point` until released.
struct ParkAt {
    point: &'static str,
    armed: AtomicBool,
    parked: AtomicBool,
    released: AtomicBool,
}

impl CrashHook for ParkAt {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        if point == self.point && self.armed.swap(false, Ordering::SeqCst) {
            self.parked.store(true, Ordering::SeqCst);
            while !self.released.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(())
    }
}

/// A client that has appended its end record (`Commit` or `AbortEnd`)
/// but not yet left the registry is parked at `point`, still holding
/// its lock on `R`. Every strategy must finish the FOJ without it: the
/// final drain may already have consumed its end record, so neither
/// waiting on it (blocking commit) nor grandfathering it (the
/// non-blocking strategies) can ever end.
fn sync_with_client_parked_at(point: &'static str) {
    for strategy in [
        SyncStrategy::NonBlockingAbort,
        SyncStrategy::NonBlockingCommit,
        SyncStrategy::BlockingCommit,
    ] {
        let db = Arc::new(Database::new());
        sources(&db, 50);
        let hook = Arc::new(ParkAt {
            point,
            armed: AtomicBool::new(true),
            parked: AtomicBool::new(false),
            released: AtomicBool::new(false),
        });
        db.set_crash_hook(hook.clone());
        let client = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let txn = db.begin();
                db.update(txn, "R", &Key::single(1), &[(1, Value::str("parked"))])?;
                if point == "commit.wal_durable" {
                    db.commit(txn)
                } else {
                    db.abort(txn)
                }
            })
        };
        let t0 = Instant::now();
        while !hook.parked.load(Ordering::SeqCst) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "client never parked"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let options = TransformOptions::default()
            .strategy(strategy)
            .deadline(Duration::from_secs(2));
        let outcome = run(&db, foj(), options);
        hook.released.store(true, Ordering::SeqCst);
        client.join().unwrap().unwrap();
        let report =
            outcome.unwrap_or_else(|e| panic!("{strategy:?}, client parked at {point}: {e}"));
        assert_eq!(report.sync.old_txns, 0, "{strategy:?}: nothing is old");
        let t = db.catalog().get("T").unwrap();
        let seen = t
            .snapshot()
            .iter()
            .any(|(_, row)| row.values[1] == Value::str("parked"));
        assert_eq!(
            seen,
            point == "commit.wal_durable",
            "{strategy:?} at {point}"
        );
    }
}

#[test]
fn sync_does_not_wait_on_a_commit_whose_record_is_logged() {
    sync_with_client_parked_at("commit.wal_durable");
}

#[test]
fn sync_does_not_wait_on_an_abort_whose_end_record_is_logged() {
    sync_with_client_parked_at("abort.wal_durable");
}

/// A read-only transaction holds an S lock on a source key across a
/// cutover that grandfathers it, then ends. It wrote nothing, yet the
/// census reported it, so it logs an end record: the propagator waits
/// for that record and releases the proxy grant on the mirrored target
/// key there, after which a new writer of the key gets its X lock.
fn grandfathered_reader_releases_its_proxy_grant(strategy: SyncStrategy) {
    let db = Arc::new(Database::new());
    sources(&db, 50);
    let old = db.begin();
    assert!(db.read(old, "R", &Key::single(1)).unwrap().is_some());

    let options = TransformOptions::default()
        .strategy(strategy)
        .deadline(Duration::from_secs(5));
    let mut job = TransformJob::prepare(&db, &foj(), options).unwrap();
    job.copy(None).unwrap();
    job.propagate(&AtomicBool::new(false), None).unwrap();
    job.synchronize().unwrap();
    let t = db.catalog().get("T").unwrap().id();
    let t_key = Key::new([Value::Int(1), Value::Int(1)]);
    assert!(
        !db.locks().holders(t, &t_key).is_empty(),
        "{strategy:?}: the reader's S lock is transferred"
    );

    // Non-blocking commit lets the reader commit; non-blocking abort
    // doomed it, so its commit rolls it back.
    let end = match strategy {
        SyncStrategy::NonBlockingAbort => {
            assert!(matches!(db.commit(old), Err(DbError::TxnDoomed(_))));
            LogRecord::AbortEnd { txn: old }
        }
        _ => {
            db.commit(old).unwrap();
            LogRecord::Commit { txn: old }
        }
    };
    let logged = db.log().read(db.log().last_lsn()).unwrap();

    let report = job
        .finish()
        .unwrap_or_else(|e| panic!("{strategy:?}: the propagator never saw the end record: {e}"));
    assert_eq!(report.sync.old_txns, 1);
    assert!(db.locks().holders(t, &t_key).is_empty(), "{strategy:?}");
    let writer = db.begin();
    db.update(writer, "T", &t_key, &[(1, Value::str("after"))])
        .unwrap_or_else(|e| panic!("{strategy:?}: the new writer is still blocked: {e}"));
    db.commit(writer).unwrap();
    assert_eq!(logged, end, "{strategy:?}: the reader's last record");
}

#[test]
fn non_blocking_commit_releases_a_grandfathered_readers_lock_at_its_commit() {
    grandfathered_reader_releases_its_proxy_grant(SyncStrategy::NonBlockingCommit);
}

#[test]
fn non_blocking_abort_releases_a_doomed_readers_lock_at_its_abort_end() {
    grandfathered_reader_releases_its_proxy_grant(SyncStrategy::NonBlockingAbort);
}

/// Blocking commit honours `retain_sources` like the other strategies:
/// with it the frozen sources stay in the catalog and turn new writers
/// away; without it they are dropped.
#[test]
fn blocking_commit_honours_retain_sources() {
    for retain in [false, true] {
        let db = Arc::new(Database::new());
        sources(&db, 50);
        let mut options = opts(SyncStrategy::BlockingCommit);
        if retain {
            options = options.retain_sources();
        }
        run(&db, foj(), options).unwrap();
        assert_eq!(db.catalog().exists("R"), retain, "retain={retain}");
        assert_eq!(db.catalog().exists("S"), retain, "retain={retain}");
        if retain {
            let txn = db.begin();
            match db.update(txn, "R", &Key::single(3), &[(1, Value::str("late"))]) {
                Err(DbError::TableFrozen(_)) => {}
                other => panic!("a new writer must get TableFrozen, got {other:?}"),
            }
            db.abort(txn).unwrap();
        }
    }
}

/// Fails the first time it sees `point` with an ordinary error (not a
/// simulated crash).
struct FailFirst {
    point: &'static str,
    fired: AtomicBool,
}

impl FailFirst {
    fn new(point: &'static str) -> Arc<FailFirst> {
        Arc::new(FailFirst {
            point,
            fired: AtomicBool::new(false),
        })
    }
}

impl CrashHook for FailFirst {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        if point == self.point && !self.fired.swap(true, Ordering::SeqCst) {
            return Err(DbError::Internal(format!("injected failure at {point}")));
        }
        Ok(())
    }
}

/// A post-synchronization propagation error ends `finish` early; the
/// job that owned the non-blocking-commit lock mirror is then dropped,
/// and with it the mirror: the grandfathered transaction's next source
/// update takes no lock on the target.
#[test]
fn a_failed_finish_drops_the_lock_mirror_with_the_job() {
    let db = Arc::new(Database::new());
    sources(&db, 50);
    let old = db.begin();
    db.update(old, "R", &Key::single(1), &[(1, Value::str("v1"))])
        .unwrap();

    let abort = AtomicBool::new(false);
    let mut job =
        TransformJob::prepare(&db, &foj(), opts(SyncStrategy::NonBlockingCommit)).unwrap();
    job.copy(None).unwrap();
    job.propagate(&abort, None).unwrap();
    job.synchronize().unwrap();
    let t = db.catalog().get("T").unwrap().id();
    // T keys are R's key extended with the join value (a % 10).
    let t_key = |a: i64| Key::new([Value::Int(a), Value::Int(a % 10)]);

    // The mirror is in place: an update of R#2 locks T's row too, and
    // logs a record for the post-sync drain to read.
    db.update(old, "R", &Key::single(2), &[(1, Value::str("v2"))])
        .unwrap();
    assert!(!db.locks().holders(t, &t_key(2)).is_empty());

    db.set_crash_hook(FailFirst::new("propagate.batch"));
    assert!(matches!(job.finish(), Err(DbError::Internal(_))));
    db.clear_crash_hook();
    drop(job);

    db.update(old, "R", &Key::single(3), &[(1, Value::str("v3"))])
        .unwrap();
    assert_eq!(
        db.locks().holders(t, &t_key(3)),
        vec![],
        "a dropped job left its lock mirror installed"
    );
    db.commit(old).unwrap();
}

/// `T(a, c, d)` with the functional dependency `c -> d`.
fn split_source(db: &Database) {
    let t = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("c", ColumnType::Str)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", t).unwrap();
    let txn = db.begin();
    for i in 0..20i64 {
        let c = format!("c{}", i % 4);
        let d = format!("d-{c}");
        db.insert(txn, "T", vec![Value::Int(i), Value::str(c), Value::str(d)])
            .unwrap();
    }
    db.commit(txn).unwrap();
}

fn rename_split() -> TransformPlan {
    TransformPlan::Split(SplitSpec::new("T", "R", "S", &["a", "c"], "c", &["d"]).rename_in_place())
}

/// Blocking commit freezes the sources before it publishes a
/// rename-in-place split. A publish that fails (the R name is taken)
/// aborts the migration, not the workload: T takes new writers again.
#[test]
fn a_failed_blocking_commit_publish_reactivates_the_source() {
    let db = Arc::new(Database::new());
    split_source(&db);
    let job =
        TransformJob::prepare(&db, &rename_split(), opts(SyncStrategy::BlockingCommit)).unwrap();
    db.create_table("R", db.catalog().get("T").unwrap().schema())
        .unwrap();
    assert!(matches!(
        job.run(&AtomicBool::new(false), None, |_| Ok(())),
        Err(DbError::TableExists(_))
    ));
    let txn = db.begin();
    db.update(txn, "T", &Key::single(3), &[(2, Value::str("late"))])
        .expect("the source stayed frozen after a failed synchronization");
    db.commit(txn).unwrap();
    assert!(!db.catalog().exists("S"));
}

/// A blocking-commit synchronization that fails after its freeze — here
/// an ordinary error at the final drain — aborts the migration, not the
/// workload: the sources take new writers again and the target is gone.
#[test]
fn a_failed_blocking_commit_drain_reactivates_the_sources() {
    let db = Arc::new(Database::new());
    sources(&db, 50);
    db.set_crash_hook(FailFirst::new("sync.bc.drained"));
    assert!(matches!(
        run(&db, foj(), opts(SyncStrategy::BlockingCommit)),
        Err(DbError::Internal(_))
    ));
    db.clear_crash_hook();
    let txn = db.begin();
    db.update(txn, "R", &Key::single(3), &[(1, Value::str("late"))])
        .expect("the source stayed frozen after a failed synchronization");
    db.commit(txn).unwrap();
    assert!(!db.catalog().exists("T"));
}

/// Blocking commit's wait for the source lock holders ends at the job's
/// deadline, counted from `prepare`, not a fresh budget counted from
/// the start of the wait.
#[test]
fn blocking_commit_wait_ends_at_the_job_deadline() {
    let db = Arc::new(Database::new());
    sources(&db, 50);
    let options = TransformOptions::default()
        .strategy(SyncStrategy::BlockingCommit)
        .deadline(Duration::from_secs(1));
    let t0 = Instant::now();
    let mut job = TransformJob::prepare(&db, &foj(), options).unwrap();
    job.copy(None).unwrap();
    job.propagate(&AtomicBool::new(false), None).unwrap();
    let holder = db.begin();
    db.update(holder, "R", &Key::single(0), &[(1, Value::str("held"))])
        .unwrap();

    std::thread::sleep(Duration::from_millis(900).saturating_sub(t0.elapsed()));
    let call = Instant::now();
    let synced = job.synchronize();
    let waited = call.elapsed();
    assert!(
        matches!(synced, Err(DbError::TransformationAborted(_))),
        "expected a deadline abort, got {synced:?}"
    );
    assert!(
        waited < Duration::from_millis(500),
        "the wait overran the job's deadline: {waited:?}"
    );
    // The holder finishes on the reactivated source.
    db.commit(holder).unwrap();
    assert!(!db.catalog().exists("T"));
}

/// A blocking-commit rename-in-place split publishes T as R, a target:
/// new transactions write to it.
#[test]
fn blocking_commit_rename_in_place_serves_new_writers() {
    let db = Arc::new(Database::new());
    split_source(&db);
    run(&db, rename_split(), opts(SyncStrategy::BlockingCommit)).unwrap();
    let txn = db.begin();
    db.update(txn, "R", &Key::single(3), &[(1, Value::str("c0"))])
        .expect("the renamed source stayed frozen");
    db.commit(txn).unwrap();
}
