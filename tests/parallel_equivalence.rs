//! Property: the partitioned parallel fuzzy copy (§3.2) is
//! observationally equivalent to the serial copy.
//!
//! Two databases replay byte-identical histories. One populates its
//! targets with `populate` over `copy_workers` scan threads, the other
//! with one scan thread; both then drain the
//! same log tail through the one propagation path, and the target
//! tables must come out row-for-row identical (and both must match the
//! reference oracle). Any divergence is the parallel copy's fault: a
//! masked write session that let a row escape its shard class, or a
//! population merge that picked the wrong canonical S image.
//!
//! The worker count honours `MORPH_PAR_COPY_WORKERS` (default 4) so CI
//! can pin the configuration it wants to certify.

use morphdb::core::foj::{self, FojMapping};
use morphdb::core::propagate::Propagator;
use morphdb::core::split::{self, SplitMapping};
use morphdb::core::union::{self, UnionMapping};
use morphdb::core::{FojSpec, SplitSpec, TransformOperator, UnionSpec};
use morphdb::{ColumnType, Database, Key, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn copy_workers() -> usize {
    env_usize("MORPH_PAR_COPY_WORKERS", 4)
}

/// Rows of a target table as comparable tuples (key, values, counter,
/// presence); row LSNs are compared separately where they are
/// semantic (split R side).
fn rows_of(db: &Database, name: &str) -> Vec<(Key, Vec<Value>, u32, String)> {
    let t = db.catalog().get(name).unwrap();
    let mut rows: Vec<_> = t
        .snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values, r.counter, format!("{:?}", r.presence)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

fn rows_with_lsn(db: &Database, name: &str) -> Vec<(Key, Vec<Value>, u32, morphdb::Lsn)> {
    let t = db.catalog().get(name).unwrap();
    let mut rows: Vec<_> = t
        .snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values, r.counter, r.lsn))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

// --- FOJ -------------------------------------------------------------------

#[derive(Clone, Debug)]
enum FojStep {
    InsertR {
        a: i64,
        c: i64,
    },
    InsertS {
        c: i64,
    },
    DeleteR {
        a: i64,
    },
    DeleteS {
        c: i64,
    },
    /// Payload update on R (touches neither key nor join attribute).
    PayloadR {
        a: i64,
        tag: i64,
    },
    JoinMoveR {
        a: i64,
        c: i64,
    },
    KeyMoveR {
        a: i64,
        to: i64,
    },
    PayloadS {
        c: i64,
        tag: i64,
    },
}

fn foj_step() -> impl Strategy<Value = FojStep> {
    // Update-heavy mix: payload updates land on rows the copy wrote.
    prop_oneof![
        (0..24i64, 0..6i64).prop_map(|(a, c)| FojStep::InsertR { a, c }),
        (0..6i64).prop_map(|c| FojStep::InsertS { c }),
        (0..24i64).prop_map(|a| FojStep::DeleteR { a }),
        (0..6i64).prop_map(|c| FojStep::DeleteS { c }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| FojStep::PayloadR { a, tag }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| FojStep::PayloadR { a, tag }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| FojStep::PayloadR { a, tag }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| FojStep::PayloadR { a, tag }),
        (0..24i64, 0..6i64).prop_map(|(a, c)| FojStep::JoinMoveR { a, c }),
        (0..24i64, 0..24i64).prop_map(|(a, to)| FojStep::KeyMoveR { a, to }),
        (0..6i64, 0..1000i64).prop_map(|(c, tag)| FojStep::PayloadS { c, tag }),
    ]
}

fn foj_sources(db: &Database) {
    let r = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Int)
        .nullable("c", ColumnType::Int)
        .primary_key(&["a"])
        .build()
        .unwrap();
    let s = Schema::builder()
        .column("c", ColumnType::Int)
        .nullable("d", ColumnType::Int)
        .primary_key(&["c"])
        .build()
        .unwrap();
    db.create_table("R", r).unwrap();
    db.create_table("S", s).unwrap();
}

fn run_foj_txn(db: &Database, steps: &[FojStep], commit: bool) {
    let txn = db.begin();
    let mut ok = true;
    for step in steps {
        let res = match step {
            FojStep::InsertR { a, c } => db
                .insert(
                    txn,
                    "R",
                    vec![Value::Int(*a), Value::Int(0), Value::Int(*c)],
                )
                .map(|_| ()),
            FojStep::InsertS { c } => db
                .insert(txn, "S", vec![Value::Int(*c), Value::Int(0)])
                .map(|_| ()),
            FojStep::DeleteR { a } => db.delete(txn, "R", &Key::single(*a)),
            FojStep::DeleteS { c } => db.delete(txn, "S", &Key::single(*c)),
            FojStep::PayloadR { a, tag } => {
                db.update(txn, "R", &Key::single(*a), &[(1, Value::Int(*tag))])
            }
            FojStep::JoinMoveR { a, c } => {
                db.update(txn, "R", &Key::single(*a), &[(2, Value::Int(*c))])
            }
            FojStep::KeyMoveR { a, to } => {
                db.update(txn, "R", &Key::single(*a), &[(0, Value::Int(*to))])
            }
            FojStep::PayloadS { c, tag } => {
                db.update(txn, "S", &Key::single(*c), &[(1, Value::Int(*tag))])
            }
        };
        if res.is_err() {
            ok = false;
            break;
        }
    }
    if ok && commit {
        let _ = db.commit(txn);
    } else {
        let _ = db.abort(txn);
    }
}

type FojHistory = Vec<(Vec<FojStep>, bool)>;

fn foj_history(max_txns: usize) -> impl Strategy<Value = FojHistory> {
    prop::collection::vec(
        (prop::collection::vec(foj_step(), 1..5), any::<bool>()),
        1..max_txns,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn foj_parallel_pipeline_equals_serial(
        pre in foj_history(20),
        post in foj_history(40),
    ) {
        let par = Arc::new(Database::new());
        let ser = Arc::new(Database::new());
        foj_sources(&par);
        foj_sources(&ser);
        for (steps, commit) in &pre {
            run_foj_txn(&par, steps, *commit);
            run_foj_txn(&ser, steps, *commit);
        }

        let spec = FojSpec::new("R", "S", "T", "c", "c");
        let mut mp = FojMapping::prepare(&par, &spec).unwrap();
        let mut ms = FojMapping::prepare(&ser, &spec).unwrap();
        let (_, start_p, _) = par.write_fuzzy_mark();
        let (_, start_s, _) = ser.write_fuzzy_mark();
        prop_assert_eq!(start_p, start_s);
        let wp = TransformOperator::populate(&mut mp, &par, 4, copy_workers(), 1.0, None)
            .unwrap();
        let ws = ms.populate(4).unwrap();
        prop_assert_eq!(wp, ws);

        for (steps, commit) in &post {
            run_foj_txn(&par, steps, *commit);
            run_foj_txn(&ser, steps, *commit);
        }

        let mut pp = Propagator::new(&par, start_p, 1.0);
        pp.drain_all(&par, &mut mp).unwrap();
        let mut ps = Propagator::new(&ser, start_s, 1.0);
        ps.drain_all(&ser, &mut ms).unwrap();

        prop_assert_eq!(rows_of(&par, "T"), rows_of(&ser, "T"));
        if let Err(e) = foj::verify_against_reference(&mp) {
            return Err(TestCaseError::fail(format!("parallel diverged: {e}")));
        }
        if let Err(e) = foj::verify_against_reference(&ms) {
            return Err(TestCaseError::fail(format!("serial diverged: {e}")));
        }
    }
}

// --- split -----------------------------------------------------------------

#[derive(Clone, Debug)]
enum SplitStep {
    Insert {
        a: i64,
        c: i64,
    },
    Delete {
        a: i64,
    },
    /// Split-value move (rule 11 reads the shared S image).
    Move {
        a: i64,
        c: i64,
    },
    /// Pure R-part payload update.
    Payload {
        a: i64,
        tag: i64,
    },
    KeyMove {
        a: i64,
        to: i64,
    },
    /// Dependent-column refresh keeping the FD.
    DepRefresh {
        a: i64,
    },
}

fn split_step() -> impl Strategy<Value = SplitStep> {
    prop_oneof![
        (0..24i64, 0..6i64).prop_map(|(a, c)| SplitStep::Insert { a, c }),
        (0..24i64, 0..6i64).prop_map(|(a, c)| SplitStep::Insert { a, c }),
        (0..24i64).prop_map(|a| SplitStep::Delete { a }),
        (0..24i64, 0..6i64).prop_map(|(a, c)| SplitStep::Move { a, c }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| SplitStep::Payload { a, tag }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| SplitStep::Payload { a, tag }),
        (0..24i64, 0..1000i64).prop_map(|(a, tag)| SplitStep::Payload { a, tag }),
        (0..24i64, 0..24i64).prop_map(|(a, to)| SplitStep::KeyMove { a, to }),
        (0..24i64).prop_map(|a| SplitStep::DepRefresh { a }),
        (0..24i64).prop_map(|a| SplitStep::DepRefresh { a }),
    ]
}

fn split_source(db: &Database) {
    let t = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Int)
        .nullable("c", ColumnType::Int)
        .nullable("d", ColumnType::Int)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", t).unwrap();
}

fn dep(c: i64) -> Value {
    Value::Int(c * 100)
}

fn run_split_txn(db: &Database, steps: &[SplitStep], commit: bool) {
    let txn = db.begin();
    let mut ok = true;
    for step in steps {
        let res = match step {
            SplitStep::Insert { a, c } => db
                .insert(
                    txn,
                    "T",
                    vec![Value::Int(*a), Value::Int(0), Value::Int(*c), dep(*c)],
                )
                .map(|_| ()),
            SplitStep::Delete { a } => db.delete(txn, "T", &Key::single(*a)),
            SplitStep::Move { a, c } => db.update(
                txn,
                "T",
                &Key::single(*a),
                &[(2, Value::Int(*c)), (3, dep(*c))],
            ),
            SplitStep::Payload { a, tag } => {
                db.update(txn, "T", &Key::single(*a), &[(1, Value::Int(*tag))])
            }
            SplitStep::KeyMove { a, to } => {
                db.update(txn, "T", &Key::single(*a), &[(0, Value::Int(*to))])
            }
            SplitStep::DepRefresh { a } => {
                // Re-assert the dependent value of the row's current
                // split value: a d-only update that preserves c → d.
                let Some(row) = db
                    .catalog()
                    .get("T")
                    .ok()
                    .and_then(|t| t.get(&Key::single(*a)))
                else {
                    continue;
                };
                let Value::Int(c) = row.values[2] else {
                    continue;
                };
                db.update(txn, "T", &Key::single(*a), &[(3, dep(c))])
            }
        };
        if res.is_err() {
            ok = false;
            break;
        }
    }
    if ok && commit {
        let _ = db.commit(txn);
    } else {
        let _ = db.abort(txn);
    }
}

type SplitHistory = Vec<(Vec<SplitStep>, bool)>;

fn split_history(max_txns: usize) -> impl Strategy<Value = SplitHistory> {
    prop::collection::vec(
        (prop::collection::vec(split_step(), 1..5), any::<bool>()),
        1..max_txns,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn split_parallel_pipeline_equals_serial(
        pre in split_history(20),
        post in split_history(40),
    ) {
        let par = Arc::new(Database::new());
        let ser = Arc::new(Database::new());
        split_source(&par);
        split_source(&ser);
        for (steps, commit) in &pre {
            run_split_txn(&par, steps, *commit);
            run_split_txn(&ser, steps, *commit);
        }

        let spec = SplitSpec::new("T", "R_t", "S_t", &["a", "b", "c"], "c", &["d"]);
        let mut mp = SplitMapping::prepare(&par, &spec).unwrap();
        let mut ms = SplitMapping::prepare(&ser, &spec).unwrap();
        let (_, start_p, _) = par.write_fuzzy_mark();
        let (_, start_s, _) = ser.write_fuzzy_mark();
        prop_assert_eq!(start_p, start_s);
        let wp = TransformOperator::populate(&mut mp, &par, 4, copy_workers(), 1.0, None)
            .unwrap();
        let ws = ms.populate(4).unwrap();
        prop_assert_eq!(wp, ws);

        for (steps, commit) in &post {
            run_split_txn(&par, steps, *commit);
            run_split_txn(&ser, steps, *commit);
        }

        let mut pp = Propagator::new(&par, start_p, 1.0);
        pp.drain_all(&par, &mut mp).unwrap();
        let mut ps = Propagator::new(&ser, start_s, 1.0);
        ps.drain_all(&ser, &mut ms).unwrap();

        // R rows' LSNs are state identifiers (§5.2): the parallel
        // copy must leave the same identifiers the serial one does.
        prop_assert_eq!(rows_with_lsn(&par, "R_t"), rows_with_lsn(&ser, "R_t"));
        // Shared S-records compare on logical state (values, counter);
        // see batched_equivalence.rs for why the watermark is exempt.
        prop_assert_eq!(rows_of(&par, "S_t"), rows_of(&ser, "S_t"));
        if let Err(e) = split::verify_against_reference(&mp) {
            return Err(TestCaseError::fail(format!("parallel diverged: {e}")));
        }
        if let Err(e) = split::verify_against_reference(&ms) {
            return Err(TestCaseError::fail(format!("serial diverged: {e}")));
        }
    }
}

// --- union -----------------------------------------------------------------

#[derive(Clone, Debug)]
enum UnionStep {
    InsertA {
        id: i64,
        v: i64,
    },
    InsertB {
        id: i64,
        v: i64,
    },
    DeleteA {
        id: i64,
    },
    DeleteB {
        id: i64,
    },
    /// Non-pk update.
    PayloadA {
        id: i64,
        tag: i64,
    },
    PayloadB {
        id: i64,
        tag: i64,
    },
    /// Source pk move — two subjects, possibly two target shards.
    KeyMoveA {
        id: i64,
        to: i64,
    },
    KeyMoveB {
        id: i64,
        to: i64,
    },
}

fn union_step() -> impl Strategy<Value = UnionStep> {
    prop_oneof![
        (0..24i64, 0..1000i64).prop_map(|(id, v)| UnionStep::InsertA { id, v }),
        (0..24i64, 0..1000i64).prop_map(|(id, v)| UnionStep::InsertB { id, v }),
        (0..24i64).prop_map(|id| UnionStep::DeleteA { id }),
        (0..24i64).prop_map(|id| UnionStep::DeleteB { id }),
        (0..24i64, 0..1000i64).prop_map(|(id, tag)| UnionStep::PayloadA { id, tag }),
        (0..24i64, 0..1000i64).prop_map(|(id, tag)| UnionStep::PayloadA { id, tag }),
        (0..24i64, 0..1000i64).prop_map(|(id, tag)| UnionStep::PayloadB { id, tag }),
        (0..24i64, 0..1000i64).prop_map(|(id, tag)| UnionStep::PayloadB { id, tag }),
        (0..24i64, 0..24i64).prop_map(|(id, to)| UnionStep::KeyMoveA { id, to }),
        (0..24i64, 0..24i64).prop_map(|(id, to)| UnionStep::KeyMoveB { id, to }),
    ]
}

fn union_sources(db: &Database) {
    let part = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    db.create_table("A", part.clone()).unwrap();
    db.create_table("B", part).unwrap();
}

fn run_union_txn(db: &Database, steps: &[UnionStep], commit: bool) {
    let txn = db.begin();
    let mut ok = true;
    for step in steps {
        let res = match step {
            UnionStep::InsertA { id, v } => db
                .insert(txn, "A", vec![Value::Int(*id), Value::Int(*v)])
                .map(|_| ()),
            UnionStep::InsertB { id, v } => db
                .insert(txn, "B", vec![Value::Int(*id), Value::Int(*v)])
                .map(|_| ()),
            UnionStep::DeleteA { id } => db.delete(txn, "A", &Key::single(*id)),
            UnionStep::DeleteB { id } => db.delete(txn, "B", &Key::single(*id)),
            UnionStep::PayloadA { id, tag } => {
                db.update(txn, "A", &Key::single(*id), &[(1, Value::Int(*tag))])
            }
            UnionStep::PayloadB { id, tag } => {
                db.update(txn, "B", &Key::single(*id), &[(1, Value::Int(*tag))])
            }
            UnionStep::KeyMoveA { id, to } => {
                db.update(txn, "A", &Key::single(*id), &[(0, Value::Int(*to))])
            }
            UnionStep::KeyMoveB { id, to } => {
                db.update(txn, "B", &Key::single(*id), &[(0, Value::Int(*to))])
            }
        };
        if res.is_err() {
            ok = false;
            break;
        }
    }
    if ok && commit {
        let _ = db.commit(txn);
    } else {
        let _ = db.abort(txn);
    }
}

type UnionHistory = Vec<(Vec<UnionStep>, bool)>;

fn union_history(max_txns: usize) -> impl Strategy<Value = UnionHistory> {
    prop::collection::vec(
        (prop::collection::vec(union_step(), 1..5), any::<bool>()),
        1..max_txns,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn union_parallel_pipeline_equals_serial(
        pre in union_history(20),
        post in union_history(40),
    ) {
        let par = Arc::new(Database::new());
        let ser = Arc::new(Database::new());
        union_sources(&par);
        union_sources(&ser);
        for (steps, commit) in &pre {
            run_union_txn(&par, steps, *commit);
            run_union_txn(&ser, steps, *commit);
        }

        let spec = UnionSpec::new("A", "B", "U");
        let mut mp = UnionMapping::prepare(&par, &spec).unwrap();
        let mut ms = UnionMapping::prepare(&ser, &spec).unwrap();
        let (_, start_p, _) = par.write_fuzzy_mark();
        let (_, start_s, _) = ser.write_fuzzy_mark();
        prop_assert_eq!(start_p, start_s);
        let wp = TransformOperator::populate(&mut mp, &par, 4, copy_workers(), 1.0, None)
            .unwrap();
        let ws = ms.populate(4).unwrap();
        prop_assert_eq!(wp, ws);

        for (steps, commit) in &post {
            run_union_txn(&par, steps, *commit);
            run_union_txn(&ser, steps, *commit);
        }

        let mut pp = Propagator::new(&par, start_p, 1.0);
        pp.drain_all(&par, &mut mp).unwrap();
        let mut ps = Propagator::new(&ser, start_s, 1.0);
        ps.drain_all(&ser, &mut ms).unwrap();

        // Union rules mirror the source record's LSN onto the target
        // row, so the identifiers are part of the contract too.
        prop_assert_eq!(rows_with_lsn(&par, "U"), rows_with_lsn(&ser, "U"));
        if let Err(e) = union::verify_against_reference(&mp) {
            return Err(TestCaseError::fail(format!("parallel diverged: {e}")));
        }
        if let Err(e) = union::verify_against_reference(&ms) {
            return Err(TestCaseError::fail(format!("serial diverged: {e}")));
        }
    }
}
