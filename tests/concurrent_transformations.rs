//! Two transformations running simultaneously on disjoint table sets.
//!
//! The paper treats one transformation at a time; the framework,
//! however, has no global state beyond the shared log, so independent
//! transformations (each with its own propagator cursor, rule set and
//! throttle) must be able to proceed concurrently — each one simply
//! sees the other's target-table writes as irrelevant log records
//! (propagator writes are not logged) and the other's source records as
//! foreign tables to skip.

use morphdb::core::{
    FojSpec, MigrationPhase, SplitSpec, TransformJob, TransformOptions, TransformPlan,
};
use morphdb::engine::CrashHook;
use morphdb::orchestrator::{Migration, Orchestrator};
use morphdb::workload::{ClientConfig, UpdateTarget, WorkloadRunner};
use morphdb::{ColumnType, Database, DbError, DbResult, Key, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Schema used by the declarative-migration tests: splittable on `grp`
/// with one dependent column.
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

fn seed_grouped(db: &Database, table: &str, rows: i64, groups: i64) {
    let txn = db.begin();
    for i in 0..rows {
        let g = i % groups;
        db.insert(
            txn,
            table,
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
}

#[test]
fn disjoint_foj_and_split_run_concurrently() {
    let db = Arc::new(Database::new());

    // Table family 1: FOJ sources.
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

    // Table family 2: split source.
    let u = Schema::builder()
        .column("k", ColumnType::Int)
        .nullable("payload", ColumnType::Str)
        .nullable("grp", ColumnType::Int)
        .nullable("dep", ColumnType::Str)
        .primary_key(&["k"])
        .build()
        .unwrap();
    db.create_table("U", u).unwrap();

    let txn = db.begin();
    for i in 0..800i64 {
        db.insert(
            txn,
            "R",
            vec![Value::Int(i), Value::str("b"), Value::Int(i % 50)],
        )
        .unwrap();
        let g = i % 30;
        db.insert(
            txn,
            "U",
            vec![
                Value::Int(i),
                Value::str("p"),
                Value::Int(g),
                Value::str(format!("dep-{g}")),
            ],
        )
        .unwrap();
    }
    for j in 0..50i64 {
        db.insert(txn, "S", vec![Value::Int(j), Value::str("d")])
            .unwrap();
    }
    db.commit(txn).unwrap();

    // Concurrent writers on both families.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for w in 0..2u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let mut i = w * 10_000;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let txn = db.begin();
                let table = if i % 2 == 0 { "R" } else { "U" };
                let key = Key::single((i % 800) as i64);
                match db.update(txn, table, &key, &[(1, Value::str(format!("w{i}")))]) {
                    Ok(()) => {
                        let _ = db.commit(txn);
                    }
                    Err(_) => {
                        let _ = db.abort(txn);
                    }
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        }));
    }

    let opts = TransformOptions::default()
        .deadline(Duration::from_secs(60))
        .retain_sources();
    let foj = TransformPlan::Foj(FojSpec::new("R", "S", "T_join", "c", "c"));
    let split = TransformPlan::Split(SplitSpec::new(
        "U",
        "U_base",
        "U_groups",
        &["k", "payload", "grp"],
        "grp",
        &["dep"],
    ));
    let [h1, h2] = [foj, split].map(|plan| {
        let job = TransformJob::prepare(&db, &plan, opts.clone()).unwrap();
        std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())))
    });
    let rep1 = h1.join().unwrap().expect("FOJ transformation");
    let rep2 = h2.join().unwrap().expect("split transformation");
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    // Both completed with short pauses, and both targets are whole.
    assert!(rep1.sync.latch_pause < Duration::from_millis(500));
    assert!(rep2.sync.latch_pause < Duration::from_millis(500));
    assert_eq!(db.catalog().get("T_join").unwrap().len(), 800);
    assert_eq!(db.catalog().get("U_base").unwrap().len(), 800);
    assert_eq!(db.catalog().get("U_groups").unwrap().len(), 30);
    let counters: u32 = db
        .catalog()
        .get("U_groups")
        .unwrap()
        .snapshot()
        .iter()
        .map(|(_, row)| row.counter)
        .sum();
    assert_eq!(counters, 800);
}

/// Parks the first job to reach its copy (`transform.prepared`) until
/// released.
#[derive(Default)]
struct ParkFirst {
    parked: AtomicBool,
    released: AtomicBool,
}

impl CrashHook for ParkFirst {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        if point == "transform.prepared" && !self.parked.swap(true, Ordering::SeqCst) {
            while !self.released.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(())
    }
}

/// Two *declarative* splits over disjoint table sets run concurrently
/// under the orchestrator, while an overlapping submission is rejected
/// up front with a structured conflict naming the holder.
#[test]
fn disjoint_declarative_splits_run_concurrently_and_overlap_conflicts() {
    let db = Arc::new(Database::new());
    db.create_table("V1", grouped_schema()).unwrap();
    db.create_table("V2", grouped_schema()).unwrap();
    seed_grouped(&db, "V1", 600, 30);
    seed_grouped(&db, "V2", 600, 20);

    // Concurrent writers on both sources while the migrations run.
    let pool = WorkloadRunner::start(
        Arc::clone(&db),
        ClientConfig {
            updates_per_txn: 1,
            hot_fraction: 1.0,
            targets: vec![
                UpdateTarget::new("V1", 600, 1),
                UpdateTarget::new("V2", 600, 1),
            ],
            dummy: None,
            pacing: Some(Duration::from_micros(300)),
        },
        2,
    );

    let orch = Orchestrator::new(Arc::clone(&db));
    let opts = TransformOptions::default()
        .deadline(Duration::from_secs(60))
        .retain_sources();
    let barrier = Arc::new(ParkFirst::default());
    db.set_crash_hook(barrier.clone());

    // One submission through the text front-end, one through the
    // builder: both compile to the same plan shape.
    let h1 = orch
        .submit_text(
            "ALTER TABLE V1 SPLIT INTO V1_base (k, payload, grp) AND V1_groups (grp -> dep)",
            opts.clone(),
        )
        .unwrap();
    // The first migration parks before its copy, so its claims are
    // provably still held when the overlapping submission arrives below.
    while !barrier.parked.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let h2 = orch
        .submit(
            Migration::split(
                "V2",
                "V2_base",
                "V2_groups",
                &["k", "payload", "grp"],
                "grp",
                &["dep"],
            )
            .build(),
            opts.clone(),
        )
        .unwrap();
    assert_ne!(h1.id(), h2.id());

    // Overlap: V1 is claimed by the parked job #1.
    let err = match orch.submit(
        Migration::split("V1", "X", "Y", &["k", "grp"], "grp", &["dep"]).build(),
        opts.clone(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("overlapping table set must be rejected"),
    };
    match err {
        DbError::MigrationConflict { table, job } => {
            assert_eq!(table, "V1");
            assert_eq!(job, h1.id());
        }
        other => panic!("expected MigrationConflict, got {other}"),
    }

    barrier.released.store(true, Ordering::SeqCst);
    let rep1 = h1.join().expect("declarative split of V1");
    let rep2 = h2.join().expect("declarative split of V2");
    pool.stop();

    assert_eq!(rep1.len(), 1);
    assert_eq!(rep2.len(), 1);
    assert_eq!(db.catalog().get("V1_base").unwrap().len(), 600);
    assert_eq!(db.catalog().get("V1_groups").unwrap().len(), 30);
    assert_eq!(db.catalog().get("V2_base").unwrap().len(), 600);
    assert_eq!(db.catalog().get("V2_groups").unwrap().len(), 20);
    for groups in ["V1_groups", "V2_groups"] {
        let counters: u32 = db
            .catalog()
            .get(groups)
            .unwrap()
            .snapshot()
            .iter()
            .map(|(_, row)| row.counter)
            .sum();
        assert_eq!(counters, 600, "{groups}: split counters must add up");
    }
    // Both jobs released their claims; the registry is drained.
    assert!(db.migrations().active_jobs().is_empty());
}

/// A chained migration — split, then union the split's R output with a
/// sibling table — runs stage 2 only after stage 1 cut over, under
/// concurrent writes to the original source.
#[test]
fn split_then_union_chain_converges() {
    let db = Arc::new(Database::new());
    db.create_table("W", grouped_schema()).unwrap();
    // Sibling with exactly the schema the split's R target will have
    // (unions demand identical schemas); keys disjoint from W's.
    let sibling = Schema::builder()
        .column("k", ColumnType::Int)
        .nullable("payload", ColumnType::Str)
        .nullable("grp", ColumnType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap();
    db.create_table("X", sibling).unwrap();
    seed_grouped(&db, "W", 500, 25);
    let txn = db.begin();
    for i in 0..80i64 {
        db.insert(
            txn,
            "X",
            vec![Value::Int(10_000 + i), Value::str("x"), Value::Int(i % 25)],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();

    let pool = WorkloadRunner::start(
        Arc::clone(&db),
        ClientConfig {
            updates_per_txn: 1,
            hot_fraction: 1.0,
            targets: vec![UpdateTarget::new("W", 500, 1)],
            dummy: None,
            pacing: Some(Duration::from_micros(300)),
        },
        1,
    );

    let orch = Orchestrator::new(Arc::clone(&db));
    let spec = Migration::split(
        "W",
        "W_base",
        "W_groups",
        &["k", "payload", "grp"],
        "grp",
        &["dep"],
    )
    .then_union("W_base", "X", "W_all")
    .build();
    assert_eq!(spec.final_targets(), vec!["W_all"]);

    let handle = orch
        .submit(
            spec,
            TransformOptions::default()
                .deadline(Duration::from_secs(60))
                .retain_sources(),
        )
        .unwrap();
    // The progress handle stays readable independently of the join.
    let prog = handle.progress();
    let reports = handle.join().expect("split-then-union chain");
    pool.stop();

    assert_eq!(prog.phase(), MigrationPhase::CutOver);
    assert!(prog.rows_copied() >= 500 + 80);

    assert_eq!(reports.len(), 2, "one report per chained stage");
    assert_eq!(db.catalog().get("W_base").unwrap().len(), 500);
    assert_eq!(db.catalog().get("W_groups").unwrap().len(), 25);
    // The union carries every W_base row and every X row, keyed by
    // provenance, so nothing collides and nothing is lost.
    assert_eq!(db.catalog().get("W_all").unwrap().len(), 500 + 80);
    assert!(db.migrations().active_jobs().is_empty());
}
