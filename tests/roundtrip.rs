//! Round-trip: a full outer join transformation followed by a split of
//! the joined table recovers the original decomposition — the two
//! operators the paper picked precisely because they change the
//! normalization degree in opposite directions (§1, §7).
//!
//! `R(a,b,c) ⟗ S(c,d) → T(a,b,c,d)` and then splitting T on `c`
//! yields `R'(a,b,c) ≡ R` and `S'(c,d) ≡ S` (modulo rows that had no
//! join partner, which the FOJ NULL-extends and the split then keeps —
//! the test constructs fully-matched data so the round trip is exact).
//!
//! Everything runs online, with a light concurrent workload across both
//! transformations.

use morphdb::core::{
    FojSpec, SplitSpec, TransformJob, TransformOptions, TransformPlan, TransformReport,
};
use morphdb::{ColumnType, Database, DbResult, Key, Schema, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Prepare `plan` and run it to completion on this thread.
fn run(
    db: &Arc<Database>,
    plan: TransformPlan,
    options: TransformOptions,
) -> DbResult<TransformReport> {
    TransformJob::prepare(db, &plan, options)?.run(&AtomicBool::new(false), None, |_| Ok(()))
}

#[test]
fn foj_then_split_recovers_the_decomposition() {
    let db = Arc::new(Database::new());
    let r_schema = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .primary_key(&["a"])
        .build()
        .unwrap();
    let s_schema = Schema::builder()
        .column("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["c"])
        .build()
        .unwrap();
    db.create_table("R", r_schema).unwrap();
    db.create_table("S", s_schema).unwrap();

    // Fully matched data: every R row has a partner, every S value used.
    let txn = db.begin();
    for i in 0..600i64 {
        db.insert(
            txn,
            "R",
            vec![Value::Int(i), Value::str("b"), Value::Int(i % 40)],
        )
        .unwrap();
    }
    for j in 0..40i64 {
        db.insert(txn, "S", vec![Value::Int(j), Value::str(format!("d{j}"))])
            .unwrap();
    }
    db.commit(txn).unwrap();

    // Keep a snapshot of the original decomposition for the final check.
    let orig_r: BTreeSet<Vec<Value>> = db
        .catalog()
        .get("R")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| row.values)
        .collect();
    let orig_s: BTreeSet<Vec<Value>> = db
        .catalog()
        .get("S")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| row.values)
        .collect();

    // A benign concurrent workload on the dummy side only, so the
    // data round-trips exactly while concurrency still exercises the
    // machinery.
    let dummy = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("p", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .unwrap();
    db.create_table("dummy", dummy).unwrap();
    let txn = db.begin();
    for i in 0..200i64 {
        db.insert(txn, "dummy", vec![Value::Int(i), Value::str("x")])
            .unwrap();
    }
    db.commit(txn).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let db2 = Arc::clone(&db);
    let worker = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            i += 1;
            let txn = db2.begin();
            match db2.update(
                txn,
                "dummy",
                &Key::single((i % 200) as i64),
                &[(1, Value::str(format!("x{i}")))],
            ) {
                Ok(()) => {
                    let _ = db2.commit(txn);
                }
                Err(_) => {
                    let _ = db2.abort(txn);
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    let opts = TransformOptions::default().deadline(Duration::from_secs(60));

    // Denormalize…
    let foj = TransformPlan::Foj(FojSpec::new("R", "S", "T", "c", "c"));
    let report1 = run(&db, foj, opts.clone()).expect("FOJ transformation");
    assert!(!db.catalog().exists("R") && !db.catalog().exists("S"));
    assert_eq!(db.catalog().get("T").unwrap().len(), 600);

    // …and split right back.
    let split = TransformPlan::Split(SplitSpec::new("T", "R", "S", &["a", "b", "c"], "c", &["d"]));
    let report2 = run(&db, split, opts).expect("split transformation");
    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap();
    assert!(!db.catalog().exists("T"));

    let back_r: BTreeSet<Vec<Value>> = db
        .catalog()
        .get("R")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| row.values)
        .collect();
    let back_s: BTreeSet<Vec<Value>> = db
        .catalog()
        .get("S")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| row.values)
        .collect();
    assert_eq!(back_r, orig_r, "R did not round-trip");
    assert_eq!(back_s, orig_s, "S did not round-trip");

    // Split counters reflect the join fan-in (600 rows over 40 values).
    let s = db.catalog().get("S").unwrap();
    for (k, row) in s.snapshot() {
        assert_eq!(row.counter, 15, "counter wrong at {k:?}");
    }

    assert!(report1.sync.latch_pause < Duration::from_millis(100));
    assert!(report2.sync.latch_pause < Duration::from_millis(100));
}

#[test]
fn many_to_many_foj_full_transformation() {
    // The §4.2 generalization driven through the full four-step
    // transformation (not just the rules): enrollments-style data where
    // both sides repeat join values.
    let db = Arc::new(Database::new());
    let r_schema = Schema::builder()
        .column("student", ColumnType::Int)
        .nullable("course", ColumnType::Int)
        .primary_key(&["student"])
        .build()
        .unwrap();
    let s_schema = Schema::builder()
        .column("session", ColumnType::Int)
        .nullable("course", ColumnType::Int)
        .nullable("room", ColumnType::Str)
        .primary_key(&["session"])
        .build()
        .unwrap();
    db.create_table("students", r_schema).unwrap();
    db.create_table("sessions", s_schema).unwrap();
    let txn = db.begin();
    for i in 0..60i64 {
        db.insert(txn, "students", vec![Value::Int(i), Value::Int(i % 5)])
            .unwrap();
    }
    for j in 0..15i64 {
        db.insert(
            txn,
            "sessions",
            vec![Value::Int(j), Value::Int(j % 5), Value::str("room")],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();

    let spec = FojSpec::new("students", "sessions", "timetable", "course", "course").many_to_many();
    let options = TransformOptions::default().deadline(Duration::from_secs(30));
    let report = run(&db, TransformPlan::Foj(spec), options).expect("m2m transformation");

    // 5 courses × (12 students × 3 sessions) pairings.
    let t = db.catalog().get("timetable").unwrap();
    assert_eq!(t.len(), 60 * 3);
    assert!(report.population.rows_written >= 180);
}

#[test]
fn union_merge_full_transformation_under_load() {
    use morphdb::core::UnionSpec;
    let db = Arc::new(Database::new());
    let schema = || {
        Schema::builder()
            .column("id", ColumnType::Int)
            .nullable("v", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    };
    db.create_table("eu", schema()).unwrap();
    db.create_table("us", schema()).unwrap();
    let txn = db.begin();
    for i in 0..400i64 {
        db.insert(txn, "eu", vec![Value::Int(i), Value::str("e")])
            .unwrap();
        // Overlapping key space on purpose: provenance keeps them apart.
        db.insert(txn, "us", vec![Value::Int(i / 2), Value::str("u")])
            .unwrap_or(morphdb::Key::single(0));
    }
    db.commit(txn).unwrap();
    let us_rows = db.catalog().get("us").unwrap().len();

    // Writers on both sources during the transformation.
    let stop = Arc::new(AtomicBool::new(false));
    let db2 = Arc::clone(&db);
    let stop2 = Arc::clone(&stop);
    let worker = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            i += 1;
            let txn = db2.begin();
            let table = if i.is_multiple_of(2) { "eu" } else { "us" };
            let key = Key::single((i % 100) as i64);
            match db2.update(txn, table, &key, &[(1, Value::str(format!("w{i}")))]) {
                Ok(()) => {
                    let _ = db2.commit(txn);
                }
                Err(_) => {
                    let _ = db2.abort(txn);
                }
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    });

    let report = run(
        &db,
        TransformPlan::Union(UnionSpec::new("eu", "us", "customers_all")),
        TransformOptions::default()
            .deadline(Duration::from_secs(60))
            .retain_sources(),
    )
    .expect("union transformation");
    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap();

    let t = db.catalog().get("customers_all").unwrap();
    assert_eq!(t.len(), 400 + us_rows);
    assert!(report.sync.latch_pause < Duration::from_millis(500));

    // Every retained source row appears with its provenance tag and
    // current values.
    for name in ["eu", "us"] {
        let src = db.catalog().get(name).unwrap();
        for (k, row) in src.snapshot() {
            let mut tkey = vec![Value::str(name)];
            tkey.extend(k.values().iter().cloned());
            let trow = t.get(&Key(tkey)).expect("row present in union");
            assert_eq!(&trow.values[1..], &row.values[..], "mismatch at {k:?}");
        }
    }
}
