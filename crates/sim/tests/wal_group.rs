//! The commit/abort crash points that sit around the durability
//! watermark, which no transformation-phase kill can reach: a commit
//! killed before its `Commit` record is appended rolls back, one
//! killed after `wait_durable` returned survives, and an abort killed
//! after its CLRs are durable stays rolled back.

use morph_common::{ColumnType, DbError, DbResult, Schema, Value};
use morph_engine::{CrashHook, Database};
use morph_sim::{crash_and_recover, fault_db};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Kill the first time execution reaches `point`, once.
struct KillOnce {
    point: &'static str,
    fired: AtomicBool,
}

impl CrashHook for KillOnce {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        if point == self.point && !self.fired.swap(true, Ordering::SeqCst) {
            return Err(DbError::SimulatedCrash(point.to_owned()));
        }
        Ok(())
    }
}

fn two_col_schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .expect("static schema")
}

/// Crash a commit at `point`, then recover and report whether the
/// in-flight transaction's row survived.
fn crashed_commit_row_survives(point: &'static str, seed: u64) -> bool {
    let (db, fault) = fault_db(seed);
    let table = db.create_table("T", two_col_schema()).unwrap();

    // A committed base row that must survive every crash below.
    let t0 = db.begin();
    db.insert(t0, "T", vec![Value::Int(1), Value::str("base")])
        .unwrap();
    db.commit(t0).unwrap();

    db.set_crash_hook(Arc::new(KillOnce {
        point,
        fired: AtomicBool::new(false),
    }));
    let t1 = db.begin();
    db.insert(t1, "T", vec![Value::Int(2), Value::str("victim")])
        .unwrap();
    match db.commit(t1) {
        Err(DbError::SimulatedCrash(_)) => {}
        other => panic!("commit should have been killed at {point}, got {other:?}"),
    }

    let sources = [(table.id(), "T".to_owned(), two_col_schema())];
    let db2 = crash_and_recover(&db, &fault, &sources).unwrap().db;
    let rows = db2.catalog().get("T").unwrap().snapshot();
    assert!(
        rows.iter().any(|(_, r)| r.values[0] == Value::Int(1)),
        "committed base row lost after {point} crash"
    );
    rows.iter().any(|(_, r)| r.values[0] == Value::Int(2))
}

#[test]
fn kill_before_commit_append_rolls_the_transaction_back() {
    for seed in [3, 17, 91] {
        assert!(
            !crashed_commit_row_survives("commit.wal_append", seed),
            "txn without a Commit record must be a loser (seed {seed})"
        );
    }
}

#[test]
fn kill_after_durability_wait_preserves_the_transaction() {
    // Once wait_durable returned, the Commit record is on stable
    // storage: the tear cannot reach it, and recovery must redo the
    // transaction — the durability watermark is exactly the point of
    // no return.
    for seed in [3, 17, 91] {
        assert!(
            crashed_commit_row_survives("commit.wal_durable", seed),
            "durable commit lost (seed {seed})"
        );
    }
}

#[test]
fn killed_abort_after_durable_clrs_stays_rolled_back() {
    let (db, fault) = fault_db(23);
    let table = db.create_table("T", two_col_schema()).unwrap();
    let t0 = db.begin();
    db.insert(t0, "T", vec![Value::Int(1), Value::str("base")])
        .unwrap();
    db.commit(t0).unwrap();

    db.set_crash_hook(Arc::new(KillOnce {
        point: "abort.wal_durable",
        fired: AtomicBool::new(false),
    }));
    let t1 = db.begin();
    db.insert(t1, "T", vec![Value::Int(2), Value::str("victim")])
        .unwrap();
    match db.abort(t1) {
        Err(DbError::SimulatedCrash(_)) => {}
        other => panic!("abort should have been killed, got {other:?}"),
    }

    let sources = [(table.id(), "T".to_owned(), two_col_schema())];
    let db2 = crash_and_recover(&db, &fault, &sources).unwrap().db;
    let rows = db2.catalog().get("T").unwrap().snapshot();
    assert!(rows.iter().any(|(_, r)| r.values[0] == Value::Int(1)));
    assert!(
        !rows.iter().any(|(_, r)| r.values[0] == Value::Int(2)),
        "aborted row resurrected after crash mid-abort"
    );
}
