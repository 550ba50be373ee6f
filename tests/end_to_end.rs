//! Whole-system test: paper-shaped (scaled-down) workload — concurrent
//! client threads, each transaction updating 10 records under record
//! locks — running *across* a complete online transformation, with a
//! final independent verification of the transformed tables against
//! the retained source state.
//!
//! The verification oracle here is written from scratch (it does not
//! reuse `morph-core`'s reference implementations), so a bug shared by
//! the rules and their in-crate oracle would still be caught.

use morphdb::core::{
    FojSpec, SplitSpec, TransformJob, TransformOptions, TransformPlan, TransformReport,
};
use morphdb::workload::{
    setup_dummy, setup_foj_sources, setup_split_source, ClientConfig, UpdateTarget, WorkloadRunner,
};
use morphdb::{Database, DbResult, Value};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 2_000;
const S_ROWS: usize = 400;

/// Prepare `plan` and run it to completion on this thread.
fn run(db: &Arc<Database>, plan: TransformPlan) -> DbResult<TransformReport> {
    TransformJob::prepare(db, &plan, opts())?.run(&AtomicBool::new(false), None, |_| Ok(()))
}

fn opts() -> TransformOptions {
    TransformOptions::default()
        .deadline(Duration::from_secs(60))
        .retain_sources()
}

/// Ten-update clients, a fifth of the updates on `targets`.
fn cfg(targets: Vec<UpdateTarget>) -> ClientConfig {
    ClientConfig {
        updates_per_txn: 10,
        hot_fraction: 0.2,
        targets,
        dummy: Some(UpdateTarget::new("dummy", 1_000, 1)),
        pacing: Some(Duration::from_millis(1)),
    }
}

#[test]
fn foj_under_live_workload_matches_independent_oracle() {
    let db = Arc::new(Database::new());
    setup_dummy(&db, 1_000).unwrap();
    setup_foj_sources(&db, ROWS, S_ROWS).unwrap();

    let runner = WorkloadRunner::start(
        Arc::clone(&db),
        cfg(vec![
            UpdateTarget {
                weight: 4,
                ..UpdateTarget::new("R", ROWS as i64, 1)
            },
            UpdateTarget::new("S", S_ROWS as i64, 1),
        ]),
        4,
    );
    std::thread::sleep(Duration::from_millis(100));

    let foj = TransformPlan::Foj(FojSpec::new("R", "S", "T", "c", "c"));
    let report = run(&db, foj).expect("transformation");
    // Let stragglers drain, then stop the workload.
    std::thread::sleep(Duration::from_millis(100));
    runner.stop();
    assert!(report.sync.latch_pause < Duration::from_millis(500));

    // Independent oracle: R and S were retained (frozen). Compute the
    // expected FOJ by hand. Schema: R(a,b,c), S(c,d) → T(a,b,c,d),
    // key (a, c).
    let r_rows: Vec<Vec<Value>> = db
        .catalog()
        .get("R")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| row.values)
        .collect();
    let s_rows: BTreeMap<Value, Vec<Value>> = db
        .catalog()
        .get("S")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| (row.values[0].clone(), row.values))
        .collect();

    let mut expected: BTreeMap<(Value, Value), Vec<Value>> = BTreeMap::new();
    let mut matched_s: std::collections::BTreeSet<Value> = Default::default();
    for r in &r_rows {
        let c = r[2].clone();
        match s_rows.get(&c) {
            Some(s) if !c.is_null() => {
                matched_s.insert(c.clone());
                expected.insert(
                    (r[0].clone(), c.clone()),
                    vec![r[0].clone(), r[1].clone(), c.clone(), s[1].clone()],
                );
            }
            _ => {
                expected.insert(
                    (r[0].clone(), c.clone()),
                    vec![r[0].clone(), r[1].clone(), c, Value::Null],
                );
            }
        }
    }
    for (c, s) in &s_rows {
        if !matched_s.contains(c) {
            expected.insert(
                (Value::Null, c.clone()),
                vec![Value::Null, Value::Null, c.clone(), s[1].clone()],
            );
        }
    }

    let got: BTreeMap<(Value, Value), Vec<Value>> = db
        .catalog()
        .get("T")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(k, row)| ((k.0[0].clone(), k.0[1].clone()), row.values))
        .collect();

    assert_eq!(
        got.len(),
        expected.len(),
        "row-count mismatch between T and oracle"
    );
    for (k, exp) in &expected {
        assert_eq!(got.get(k), Some(exp), "mismatch at key {k:?}");
    }
}

#[test]
fn split_under_live_workload_matches_independent_oracle() {
    let db = Arc::new(Database::new());
    setup_dummy(&db, 1_000).unwrap();
    setup_split_source(&db, ROWS, S_ROWS).unwrap();

    let runner = WorkloadRunner::start(
        Arc::clone(&db),
        cfg(vec![UpdateTarget::new("T", ROWS as i64, 1)]),
        4,
    );
    std::thread::sleep(Duration::from_millis(100));

    let spec = SplitSpec::new("T", "R2", "S2", &["a", "b", "c"], "c", &["d"]);
    let report = run(&db, TransformPlan::Split(spec)).expect("transformation");
    std::thread::sleep(Duration::from_millis(100));
    runner.stop();
    assert!(report.sync.latch_pause < Duration::from_millis(500));

    // Oracle: split the retained T by hand. T(a,b,c,d): R2(a,b,c),
    // S2(c,d) with counters.
    let t_rows: Vec<Vec<Value>> = db
        .catalog()
        .get("T")
        .unwrap()
        .snapshot()
        .into_iter()
        .map(|(_, row)| row.values)
        .collect();
    let mut exp_r: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    let mut exp_s: BTreeMap<Value, (Vec<Value>, u32)> = BTreeMap::new();
    for t in &t_rows {
        exp_r.insert(t[0].clone(), vec![t[0].clone(), t[1].clone(), t[2].clone()]);
        let e = exp_s
            .entry(t[2].clone())
            .or_insert_with(|| (vec![t[2].clone(), t[3].clone()], 0));
        assert_eq!(e.0[1], t[3], "workload must have preserved the FD");
        e.1 += 1;
    }

    let r2 = db.catalog().get("R2").unwrap();
    assert_eq!(r2.len(), exp_r.len());
    for (k, row) in r2.snapshot() {
        assert_eq!(
            Some(&row.values),
            exp_r.get(&k.0[0]),
            "R2 mismatch at {k:?}"
        );
    }
    let s2 = db.catalog().get("S2").unwrap();
    assert_eq!(s2.len(), exp_s.len());
    for (k, row) in s2.snapshot() {
        let (exp_vals, exp_ctr) = exp_s.get(&k.0[0]).expect("unexpected S2 key");
        assert_eq!(&row.values, exp_vals, "S2 values mismatch at {k:?}");
        assert_eq!(row.counter, *exp_ctr, "S2 counter mismatch at {k:?}");
    }
}

#[test]
fn workload_is_never_globally_blocked() {
    // The headline property: at no point does throughput drop to zero.
    let db = Arc::new(Database::new());
    setup_dummy(&db, 1_000).unwrap();
    setup_split_source(&db, ROWS, S_ROWS).unwrap();

    let runner = WorkloadRunner::start(
        Arc::clone(&db),
        cfg(vec![UpdateTarget::new("T", ROWS as i64, 1)]),
        4,
    );
    std::thread::sleep(Duration::from_millis(100));
    let spec = SplitSpec::new("T", "R2", "S2", &["a", "b", "c"], "c", &["d"]);
    let job = TransformJob::prepare(&db, &TransformPlan::Split(spec), opts()).unwrap();
    let handle = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));

    // Sample short windows across the transformation's lifetime.
    let mut zero_windows = 0;
    let mut windows = 0;
    while !handle.is_finished() {
        let w = runner.measure(Duration::from_millis(60));
        windows += 1;
        if w.committed == 0 {
            zero_windows += 1;
        }
    }
    handle.join().unwrap().unwrap();
    runner.stop();
    assert!(windows > 0);
    assert_eq!(
        zero_windows, 0,
        "found {zero_windows}/{windows} windows with zero committed transactions"
    );
}
