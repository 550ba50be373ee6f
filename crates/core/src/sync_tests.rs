//! Unit tests for the synchronization module (each operator's
//! non-blocking-commit lock mirror, proxy ownership). Lives in a
//! separate file to keep `sync.rs` focused; included from `lib.rs`
//! under `#[cfg(test)]`.

use crate::foj::{figure1_schemas, FojMapping};
use crate::operator::TransformOperator;
use crate::spec::{FojSpec, SplitSpec};
use crate::split::SplitMapping;
use crate::sync::proxy_owner;
use crate::union::{UnionMapping, UnionSpec};
use morph_common::{ColumnType, Key, Lsn, Schema, TxnId, Value};
use morph_engine::{Database, PlannedOp};
use morph_txn::LockOrigin;

#[test]
fn proxy_owner_is_disjoint_from_real_ids() {
    assert_ne!(proxy_owner(TxnId(1)), TxnId(1));
    assert_eq!(proxy_owner(proxy_owner(TxnId(1))), proxy_owner(TxnId(1)));
    // Engine ids grow from 1; the proxy space has the top bit set.
    assert!(proxy_owner(TxnId(12345)).0 >= 1 << 63);
}

fn foj_fixture() -> (Database, FojMapping) {
    let db = Database::new();
    let (r, s) = figure1_schemas();
    db.create_table("R", r).unwrap();
    db.create_table("S", s).unwrap();
    let m = FojMapping::prepare(&db, &FojSpec::new("R", "S", "T", "c", "c")).unwrap();
    (db, m)
}

#[test]
fn foj_mirror_keys_route_keyed_ops() {
    let (db, m) = foj_fixture();
    // Seed T through the rules: r(1,c1) ⟗ s(c1).
    let r_id = db.catalog().get("R").unwrap().id();
    let s_id = db.catalog().get("S").unwrap().id();
    m.apply(
        Lsn(1),
        &morph_wal::LogOp::Insert {
            table: s_id,
            row: vec![Value::str("c1"), Value::str("d")],
        },
    )
    .unwrap();
    m.apply(
        Lsn(2),
        &morph_wal::LogOp::Insert {
            table: r_id,
            row: vec![Value::Int(1), Value::str("b"), Value::str("c1")],
        },
    )
    .unwrap();

    // An update on r^1 maps to the joined T row, tagged SourceR.
    let key = Key::single(1);
    let targets = m.mirror_keys(
        r_id,
        &PlannedOp::Update {
            key: &key,
            cols: &[(1, Value::str("x"))],
        },
    );
    assert_eq!(targets.len(), 1);
    assert_eq!(targets[0].0, m.t_table().id());
    assert_eq!(targets[0].2, LockOrigin::SourceR);

    // An update on s^c1 maps to the same T row, tagged SourceS.
    let skey = Key::single("c1");
    let targets = m.mirror_keys(s_id, &PlannedOp::Read { key: &skey });
    assert_eq!(targets.len(), 1);
    assert_eq!(targets[0].2, LockOrigin::SourceS);

    // Ops on unrelated tables map to nothing.
    assert!(m
        .mirror_keys(morph_common::TableId(999), &PlannedOp::Read { key: &key })
        .is_empty());
}

#[test]
fn foj_mirror_keys_predict_insert_keys() {
    let (db, m) = foj_fixture();
    let r_id = db.catalog().get("R").unwrap().id();
    let values = vec![Value::Int(7), Value::str("b"), Value::str("cx")];
    let targets = m.mirror_keys(r_id, &PlannedOp::Insert { values: &values });
    // Predicted T key = (r-pk, join) = (7, "cx").
    assert_eq!(targets.len(), 1);
    assert_eq!(targets[0].1, Key::new([Value::Int(7), Value::str("cx")]));
}

#[test]
fn split_mirror_keys_route_both_targets() {
    let db = Database::new();
    let ts = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("c", ColumnType::Str)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", ts).unwrap();
    let m = SplitMapping::prepare(
        &db,
        &SplitSpec::new("T", "R", "S", &["a", "c"], "c", &["d"]),
    )
    .unwrap();
    let t_id = db.catalog().get("T").unwrap().id();
    // Seed one row through the rules so the targets know the mapping.
    let row = vec![Value::Int(1), Value::str("c1"), Value::str("d1")];
    db.catalog()
        .get("T")
        .unwrap()
        .insert(row.clone(), Lsn(1))
        .unwrap();
    m.apply(Lsn(1), &morph_wal::LogOp::Insert { table: t_id, row })
        .unwrap();

    let key = Key::single(1);
    let targets = m.mirror_keys(t_id, &PlannedOp::Delete { key: &key });
    // R side by identity key, S side by split value.
    assert_eq!(targets.len(), 2);
    assert_eq!(targets[0].1, key);
    assert_eq!(targets[0].2, LockOrigin::SourceR);
    assert_eq!(targets[1].1, Key::single("c1"));
    assert_eq!(targets[1].2, LockOrigin::SourceS);

    // Insert prediction uses the values directly.
    let values = vec![Value::Int(9), Value::str("c9"), Value::str("d9")];
    let targets = m.mirror_keys(t_id, &PlannedOp::Insert { values: &values });
    assert_eq!(targets.len(), 2);
    assert_eq!(targets[0].1, Key::single(9));
    assert_eq!(targets[1].1, Key::single("c9"));
}

#[test]
fn union_mirror_keys_prefix_the_provenance_tag() {
    let db = Database::new();
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
    let m = UnionMapping::prepare(&db, &UnionSpec::new("eu", "us", "all")).unwrap();
    let (eu, us) = (
        db.catalog().get("eu").unwrap().id(),
        db.catalog().get("us").unwrap().id(),
    );
    let t_id = m.t_table().id();

    // A keyed op on us#3 maps to ("us", 3), tagged SourceS.
    let key = Key::single(3);
    let cols = [(1, Value::str("x"))];
    let targets = m.mirror_keys(
        us,
        &PlannedOp::Update {
            key: &key,
            cols: &cols,
        },
    );
    assert_eq!(
        targets,
        vec![(
            t_id,
            Key::new([Value::str("us"), Value::Int(3)]),
            LockOrigin::SourceS
        )]
    );

    // An insert into eu maps to ("eu", its key), tagged SourceR.
    let values = vec![Value::Int(9), Value::str("v9")];
    let targets = m.mirror_keys(eu, &PlannedOp::Insert { values: &values });
    assert_eq!(
        targets,
        vec![(
            t_id,
            Key::new([Value::str("eu"), Value::Int(9)]),
            LockOrigin::SourceR
        )]
    );

    // Ops on unrelated tables map to nothing.
    assert!(m
        .mirror_keys(t_id, &PlannedOp::Read { key: &key })
        .is_empty());
}
