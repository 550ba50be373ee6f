//! Recovery idempotence, the property Theorem 1 leans on: replaying a
//! log is a pure function of the log. Two consequences are checked for
//! arbitrary generated histories:
//!
//! 1. **Recover–re-log–recover converges.** Recovering a torn log
//!    appends CLRs and `AbortEnd`s for loser transactions; recovering
//!    that *recovered* log must reproduce the identical table state
//!    with zero further undo work. (This is how a system survives a
//!    crash *during* recovery.)
//! 2. **Every record prefix is a consistent state.** A crash can cut
//!    the durable log after any record; recovery of each prefix must
//!    yield exactly the effects of the transactions that committed
//!    within that prefix — in-flight and aborted ones fully invisible.
//!    Each prefix is also replayed from its framed bytes
//!    (`recover_from_bytes`, which copies each frame's body into its
//!    log slot): both entry points share one replay body, so they must
//!    agree on the tables and on the report.

use morphdb::engine::{recover, recover_from_bytes, RecoveryReport};
use morphdb::txn::LockManagerConfig;
use morphdb::wal::{decode_stream, encode_stream, LogManager, LogRecord};
use morphdb::{ColumnType, Database, Key, Lsn, Schema, TableId, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Generate a history of small transactions — committed, deliberately
/// aborted (logging CLRs), and left in flight at the end — and return
/// the log plus the table id. Key movement is excluded so the shadow
/// model below can replay ops positionally.
fn generate_history(seed: u64) -> (Vec<LogRecord>, TableId) {
    let db = Database::new();
    let table = db.create_table("t", schema()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<i64> = Vec::new();
    let mut next_id = 0i64;
    let n_txns = rng.gen_range(3..10usize);
    for t in 0..n_txns {
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
        if t + 1 == n_txns && rng.gen_bool(0.5) {
            // Leave the last transaction in flight: a loser even for
            // the full log.
            break;
        }
        if rng.gen_bool(0.2) {
            db.abort(txn).unwrap(); // logs CLRs + AbortEnd
                                    // The model below replays committed txns only, so rebuild
                                    // `live` from actual table state after a rollback.
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
    }
    let records = db
        .log()
        .read_range(Lsn(1), usize::MAX)
        .into_iter()
        .map(|(_, r)| (*r).clone())
        .collect();
    (records, table.id())
}

/// Shadow interpreter: the state a prefix *should* recover to — the
/// ops of transactions whose `Commit` lies inside the prefix, applied
/// in log order.
fn expected_state(records: &[LogRecord]) -> BTreeMap<Key, Vec<Value>> {
    let committed: std::collections::HashSet<_> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut state = BTreeMap::new();
    for rec in records {
        let LogRecord::Op { txn, op } = rec else {
            continue;
        };
        if !committed.contains(txn) {
            continue;
        }
        match op {
            morphdb::wal::LogOp::Insert { row, .. } => {
                state.insert(Key(vec![row[0].clone()]), row.clone());
            }
            morphdb::wal::LogOp::Delete { key, .. } => {
                state.remove(key);
            }
            morphdb::wal::LogOp::Update { key, new, .. } => {
                if let Some(row) = state.get_mut(key) {
                    for (i, v) in new {
                        row[*i] = v.clone();
                    }
                }
            }
        }
    }
    state
}

/// A fresh database on `log` whose catalog holds `t` under `id`, not
/// yet recovered.
fn with_table(log: LogManager, id: TableId) -> Database {
    let db = Database::with_log(Arc::new(log), LockManagerConfig::default());
    db.catalog()
        .create_table_with_id(id, "t", schema())
        .unwrap();
    db
}

/// A fresh database whose log holds `records`, recovered from it.
fn recover_fresh(records: &[LogRecord], id: TableId) -> (Database, RecoveryReport) {
    let db = with_table(LogManager::with_records(records.to_vec()), id);
    let report = recover(&db).unwrap();
    (db, report)
}

/// A restart onto the log file at `path`: the log continues the file,
/// and recovery replays it.
fn restart_on(path: &Path, id: TableId) -> (Database, RecoveryReport) {
    let db = with_table(LogManager::with_file(path).unwrap(), id);
    let report = recover(&db).unwrap();
    (db, report)
}

/// A temporary log file path unique to this process and `name`.
fn wal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("morphdb-{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The first life on a new log file at `path`: create `t`, commit
/// row 1 with value "v", and return the table id.
fn first_life(path: &Path) -> TableId {
    let db = Database::with_log(
        Arc::new(LogManager::with_file(path).unwrap()),
        LockManagerConfig::default(),
    );
    let id = db.create_table("t", schema()).unwrap().id();
    let txn = db.begin();
    db.insert(txn, "t", row(1)).unwrap();
    db.commit(txn).unwrap();
    id
}

fn row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::str("v")]
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

/// Three lives of one log file. The second recovers, begins a
/// transaction, writes, flushes and dies without committing; the third
/// must roll that write back. Were the second life's transaction to
/// reuse an id the first life committed under, the third recovery
/// would count it a winner.
#[test]
fn a_second_restart_undoes_an_uncommitted_write() {
    let path = wal_path("restart");
    let id = first_life(&path);

    let (db, _report) = restart_on(&path, id);
    let uncommitted = db.begin();
    db.insert(uncommitted, "t", row(2)).unwrap();
    db.log().flush().unwrap();
    drop(db);

    let (db, report) = restart_on(&path, id);
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.losers, vec![uncommitted]);
    assert_eq!(
        state_of(&db).into_keys().collect::<Vec<_>>(),
        vec![Key::single(1)]
    );
}

/// Three lives of one log file, and a CLR's `undone_lsn` must name the
/// same record in all of them. The second life inserts row 2 and
/// updates row 1 under one transaction and aborts it; its `AbortEnd`
/// is lost (cut off the file, a crash before it was durable), so the
/// third life sees a loser whose every operation is compensated
/// already. A second life that numbered its records from 1 again would
/// have its CLRs name the first life's records, and the third recovery
/// would compensate the loser's operations a second time.
#[test]
fn a_third_restart_finds_the_second_lifes_compensations() {
    let path = wal_path("third-restart");
    let id = first_life(&path);

    let (db, _report) = restart_on(&path, id);
    let txn = db.begin();
    db.insert(txn, "t", row(2)).unwrap();
    db.update(txn, "t", &Key::single(1), &[(1, Value::str("w"))])
        .unwrap();
    db.abort(txn).unwrap();
    db.log().flush().unwrap();
    drop(db);

    let bytes = std::fs::read(&path).unwrap();
    let records = decode_stream(&bytes).unwrap();
    assert_eq!(records.last(), Some(&LogRecord::AbortEnd { txn }));
    let end_frame = encode_stream(&[LogRecord::AbortEnd { txn }]).len();
    std::fs::write(&path, &bytes[..bytes.len() - end_frame]).unwrap();

    let (db, report) = restart_on(&path, id);
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.losers, vec![txn]);
    assert_eq!(report.clrs_written, 0, "every operation was compensated");
    assert_eq!(
        state_of(&db).into_iter().collect::<Vec<_>>(),
        vec![(Key::single(1), row(1))]
    );
}

/// A crash mid-append leaves a torn frame at the end of the file. The
/// next life reopens the file and commits; the life after it must see
/// that commit, so the reopen must cut the torn frame off before
/// appending after it.
#[test]
fn a_commit_after_a_torn_tail_survives_the_next_restart() {
    let path = wal_path("torn-reopen");
    let id = first_life(&path);
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&(1000u32).to_le_bytes()).unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
    }

    let (db, _report) = restart_on(&path, id);
    let txn = db.begin();
    db.insert(txn, "t", row(2)).unwrap();
    db.commit(txn).unwrap();
    db.log().flush().unwrap();
    drop(db);

    let (db, report) = restart_on(&path, id);
    let _ = std::fs::remove_file(&path);
    assert!(report.losers.is_empty());
    assert_eq!(
        state_of(&db).into_keys().collect::<Vec<_>>(),
        vec![Key::single(1), Key::single(2)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recover, re-log, recover again: same state, no second undo.
    #[test]
    fn recover_relog_recover_is_idempotent(seed in any::<u64>()) {
        let (records, id) = generate_history(seed);
        let (db_once, _report) = recover_fresh(&records, id);

        // The recovered log: original records plus the CLRs/AbortEnds
        // recovery appended for losers.
        let relogged: Vec<LogRecord> = db_once
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        let (db_twice, report2) = recover_fresh(&relogged, id);

        prop_assert_eq!(state_of(&db_once), state_of(&db_twice));
        // Second recovery finds every transaction closed: nothing to undo.
        prop_assert!(report2.losers.is_empty(), "losers: {:?}", report2.losers);
        prop_assert_eq!(report2.clrs_written, 0);
    }

    /// Every record prefix recovers to exactly the committed effects
    /// within that prefix, from its records and from its bytes alike.
    #[test]
    fn every_record_prefix_recovers_consistently(seed in any::<u64>()) {
        let (records, id) = generate_history(seed);
        for cut in 0..=records.len() {
            let prefix = &records[..cut];
            let (db, report) = recover_fresh(prefix, id);
            let got = state_of(&db);
            let want = expected_state(prefix);
            prop_assert!(got == want, "prefix of {cut} records diverged: got {got:?}, want {want:?}");

            let db_bytes = with_table(LogManager::new(), id);
            let report_bytes = recover_from_bytes(&db_bytes, &encode_stream(prefix)).unwrap();
            prop_assert!(state_of(&db_bytes) == got, "bytes path diverged at prefix {cut}");
            prop_assert!(
                report_bytes == report,
                "bytes path reported {report_bytes:?}, records path {report:?}, at prefix {cut}"
            );
        }
    }

    /// MVCC GC never reclaims a version the oldest live snapshot can
    /// still see: for an arbitrary history with a snapshot pinned
    /// somewhere in the middle, every read through that snapshot is
    /// identical before and after a GC sweep. Once the snapshot is
    /// dropped, a second sweep reclaims the whole archive.
    #[test]
    fn gc_never_reclaims_versions_visible_to_a_live_snapshot(seed in any::<u64>()) {
        let db = Database::new();
        let table = db.create_table("t", schema()).unwrap();
        db.enable_mvcc();
        let mut rng = StdRng::seed_from_u64(seed);

        let txn = db.begin();
        for id in 0..6i64 {
            db.insert(txn, "t", vec![Value::Int(id), Value::str("seed")]).unwrap();
        }
        db.commit(txn).unwrap();

        let churn = |rng: &mut StdRng, rounds: usize| {
            for _ in 0..rounds {
                let txn = db.begin();
                for id in 0..6i64 {
                    if rng.gen_bool(0.7) {
                        db.update(txn, "t", &Key::single(id),
                            &[(1, Value::str(format!("v{}", rng.gen_range(0..100u32))))],
                        ).unwrap();
                    }
                }
                db.commit(txn).unwrap();
            }
        };

        let rounds = rng.gen_range(1..4usize);
        churn(&mut rng, rounds);
        let snap = db.begin_snapshot().unwrap();
        let before: Vec<_> = (0..6i64)
            .map(|id| db.snapshot_read(&snap, "t", &Key::single(id)).unwrap())
            .collect();
        // Overwrite everything the snapshot is looking at, then sweep.
        let rounds = rng.gen_range(2..5usize);
        churn(&mut rng, rounds);
        db.mvcc_gc().unwrap();
        let after: Vec<_> = (0..6i64)
            .map(|id| db.snapshot_read(&snap, "t", &Key::single(id)).unwrap())
            .collect();
        prop_assert!(before == after,
            "GC changed a live snapshot's view: before {before:?}, after {after:?}");

        drop(snap);
        db.mvcc_gc().unwrap();
        prop_assert_eq!(table.version_count(), 0);
    }
}
