//! Property-based tests of the transactional substrate: the engine is
//! compared against a trivial in-memory model, and restart recovery is
//! checked to reconstruct exactly the pre-crash committed state — for
//! *arbitrary* interleavings of committed and aborted transactions.

use morphdb::engine::recover;
use morphdb::txn::LockManagerConfig;
use morphdb::wal::LogManager;
use morphdb::{ColumnType, Database, Key, Lsn, Schema, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// One step of a generated history.
#[derive(Clone, Debug)]
enum Step {
    Insert { id: i64, v: i64 },
    Update { id: i64, v: i64 },
    Delete { id: i64 },
    MoveKey { id: i64, to: i64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..12i64, any::<i64>()).prop_map(|(id, v)| Step::Insert { id, v }),
        (0..12i64, any::<i64>()).prop_map(|(id, v)| Step::Update { id, v }),
        (0..12i64).prop_map(|id| Step::Delete { id }),
        (0..12i64, 0..12i64).prop_map(|(id, to)| Step::MoveKey { id, to }),
    ]
}

/// A transaction: steps plus whether it commits.
fn txn_strategy() -> impl Strategy<Value = (Vec<Step>, bool)> {
    (prop::collection::vec(step_strategy(), 1..6), any::<bool>())
}

/// Apply one transaction to both engine and model; the model only
/// advances if the engine transaction commits.
fn run_txn(db: &Database, model: &mut BTreeMap<i64, i64>, steps: &[Step], commit: bool) {
    let txn = db.begin();
    let mut shadow = model.clone();
    let mut ok = true;
    for step in steps {
        let res = match step {
            Step::Insert { id, v } => db
                .insert(txn, "t", vec![Value::Int(*id), Value::Int(*v)])
                .map(|_| {
                    if shadow.insert(*id, *v).is_some() {
                        unreachable!("engine must have rejected duplicate")
                    }
                }),
            Step::Update { id, v } => db
                .update(txn, "t", &Key::single(*id), &[(1, Value::Int(*v))])
                .map(|()| {
                    shadow.insert(*id, *v);
                }),
            Step::Delete { id } => db.delete(txn, "t", &Key::single(*id)).map(|()| {
                shadow.remove(id);
            }),
            Step::MoveKey { id, to } => db
                .update(txn, "t", &Key::single(*id), &[(0, Value::Int(*to))])
                .map(|()| {
                    let v = shadow.remove(id).expect("engine found it");
                    shadow.insert(*to, v);
                }),
        };
        if res.is_err() {
            ok = false;
            break;
        }
    }
    if ok && commit {
        db.commit(txn).unwrap();
        *model = shadow;
    } else {
        db.abort(txn).unwrap();
    }
}

fn engine_state(db: &Database) -> BTreeMap<i64, i64> {
    db.catalog()
        .get("t")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(k, row)| {
            (
                k.0[0].as_int().unwrap(),
                row.values[1].as_int().unwrap_or(0),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine agrees with a BTreeMap model under arbitrary
    /// committed/aborted histories (aborts must be perfectly undone).
    #[test]
    fn engine_matches_model(txns in prop::collection::vec(txn_strategy(), 1..20)) {
        let db = Database::new();
        db.create_table("t", schema()).unwrap();
        let mut model = BTreeMap::new();
        for (steps, commit) in &txns {
            run_txn(&db, &mut model, steps, *commit);
        }
        prop_assert_eq!(engine_state(&db), model);
    }

    /// Replaying the log into a fresh database reconstructs exactly the
    /// same state — with a loser transaction still open at the "crash".
    #[test]
    fn recovery_rebuilds_state(
        txns in prop::collection::vec(txn_strategy(), 1..12),
        loser_steps in prop::collection::vec(step_strategy(), 0..5),
    ) {
        let db = Database::new();
        let t = db.create_table("t", schema()).unwrap();
        let mut model = BTreeMap::new();
        for (steps, commit) in &txns {
            run_txn(&db, &mut model, steps, *commit);
        }
        // A transaction left in flight at the crash.
        let loser = db.begin();
        for step in &loser_steps {
            let _ = match step {
                Step::Insert { id, v } => db
                    .insert(loser, "t", vec![Value::Int(*id), Value::Int(*v)])
                    .map(|_| ()),
                Step::Update { id, v } => {
                    db.update(loser, "t", &Key::single(*id), &[(1, Value::Int(*v))])
                }
                Step::Delete { id } => db.delete(loser, "t", &Key::single(*id)),
                Step::MoveKey { id, to } => {
                    db.update(loser, "t", &Key::single(*id), &[(0, Value::Int(*to))])
                }
            };
        }

        // Crash: replay the log into a fresh engine.
        let records: Vec<_> = db
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        let db2 = Database::with_log(
            Arc::new(LogManager::with_records(records)),
            LockManagerConfig::default(),
        );
        db2.catalog()
            .create_table_with_id(t.id(), "t", schema())
            .unwrap();
        let report = recover(&db2).unwrap();
        prop_assert!(report.losers.len() <= 1);
        prop_assert_eq!(engine_state(&db2), model);
    }
}
