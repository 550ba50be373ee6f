//! Benchmark data sets, sized as in the paper (§6): "the tests for the
//! FOJ transformation were done with 50000 records in R and 20000
//! records in S. For the split transformation, 50000 records were
//! inserted into T. These were split into approximately 50000 records
//! in R and 20000 records in S."

use morph_common::{ColumnType, DbResult, Schema, Value};
use morph_engine::Database;

/// Paper-scale row counts.
pub const FOJ_R_ROWS: usize = 50_000;
pub const FOJ_S_ROWS: usize = 20_000;
pub const SPLIT_ROWS: usize = 50_000;
pub const SPLIT_VALUES: usize = 20_000;
/// Dummy-table size (absorbs the non-source share of updates).
pub const DUMMY_ROWS: usize = 50_000;

fn bulk_insert(db: &Database, table: &str, rows: impl Iterator<Item = Vec<Value>>) -> DbResult<()> {
    // Batches keep any single transaction's undo chain bounded.
    let mut txn = db.begin();
    let mut n = 0;
    for row in rows {
        db.insert(txn, table, row)?;
        n += 1;
        if n % 5_000 == 0 {
            db.commit(txn)?;
            txn = db.begin();
        }
    }
    db.commit(txn)
}

/// Create and fill the dummy table: `dummy(id, payload)`.
pub fn setup_dummy(db: &Database, rows: usize) -> DbResult<()> {
    let schema = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("payload", ColumnType::Str)
        .primary_key(&["id"])
        .build()?;
    db.create_table("dummy", schema)?;
    bulk_insert(
        db,
        "dummy",
        (0..rows as i64).map(|i| vec![Value::Int(i), Value::str("p")]),
    )
}

/// Create and fill FOJ sources: `R(a, b, c)` (pk `a`, join `c`) and
/// `S(c, d)` (pk = join = `c`); every R row has a join partner so the
/// join fan-in is `FOJ_R_ROWS / FOJ_S_ROWS` ≈ 2.5, as in the paper's
/// 50k/20k setup.
pub fn setup_foj_sources(db: &Database, r_rows: usize, s_rows: usize) -> DbResult<()> {
    let r_schema = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .primary_key(&["a"])
        .build()?;
    let s_schema = Schema::builder()
        .column("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["c"])
        .build()?;
    db.create_table("R", r_schema)?;
    db.create_table("S", s_schema)?;
    bulk_insert(
        db,
        "R",
        (0..r_rows as i64).map(move |i| {
            vec![
                Value::Int(i),
                Value::str("payload"),
                Value::Int(i % s_rows.max(1) as i64),
            ]
        }),
    )?;
    bulk_insert(
        db,
        "S",
        (0..s_rows as i64).map(|j| vec![Value::Int(j), Value::str("dep")]),
    )
}

/// Create and fill the split source: `T(a, b, c, d)` (pk `a`, split
/// attribute `c` with `values` distinct values, `d` functionally
/// dependent on `c`).
pub fn setup_split_source(db: &Database, rows: usize, values: usize) -> DbResult<()> {
    let schema = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()?;
    db.create_table("T", schema)?;
    bulk_insert(
        db,
        "T",
        (0..rows as i64).map(move |i| {
            let c = i % values.max(1) as i64;
            vec![
                Value::Int(i),
                Value::str("payload"),
                Value::Int(c),
                Value::str(format!("dep-{c}")),
            ]
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_build_expected_shapes() {
        let db = Database::new();
        setup_dummy(&db, 100).unwrap();
        setup_foj_sources(&db, 200, 50).unwrap();
        setup_split_source(&db, 150, 30).unwrap();
        assert_eq!(db.catalog().get("dummy").unwrap().len(), 100);
        assert_eq!(db.catalog().get("R").unwrap().len(), 200);
        assert_eq!(db.catalog().get("S").unwrap().len(), 50);
        assert_eq!(db.catalog().get("T").unwrap().len(), 150);
        // FD holds in T.
        let t = db.catalog().get("T").unwrap();
        let rows = t.snapshot();
        for (_, row) in rows {
            let c = row.values[2].as_int().unwrap();
            assert_eq!(row.values[3], Value::str(format!("dep-{c}")));
        }
    }
}
