//! Quickstart: the paper's Figure 1 (full outer join) and Figure 3
//! (split), executed as real online transformations.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use morphdb::core::{FojSpec, SplitSpec, TransformJob, TransformOptions, TransformPlan};
use morphdb::{Database, Value};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Figure 1: full outer join transformation ==\n");
    foj_figure1()?;
    println!("\n== Figure 3: split transformation (the reverse) ==\n");
    split_figure3()?;
    Ok(())
}

fn foj_figure1() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());
    // R(a, b, c) joining S(c, d) on c — the paper's running example.
    let (r_schema, s_schema) = morphdb::core::foj::figure1_schemas();
    db.create_table("R", r_schema)?;
    db.create_table("S", s_schema)?;

    let txn = db.begin();
    for (a, b, c) in [(1, "a", "c1"), (2, "b", "c1"), (5, "e", "f")] {
        db.insert(txn, "R", vec![Value::Int(a), Value::str(b), Value::str(c)])?;
    }
    for (c, d) in [("c1", "d1"), ("c2", "d2")] {
        db.insert(txn, "S", vec![Value::str(c), Value::str(d)])?;
    }
    db.commit(txn)?;

    println!("{}", morphdb::pretty::render(&*db.catalog().get("R")?));
    println!("{}", morphdb::pretty::render(&*db.catalog().get("S")?));

    // The transformation runs in the background; user transactions
    // could keep working on R and S the whole time.
    let spec = FojSpec::new("R", "S", "T", "c", "c");
    let options = TransformOptions::default().deadline(Duration::from_secs(10));
    let job = TransformJob::prepare(&db, &TransformPlan::Foj(spec), options)?;
    let report = job.run(&AtomicBool::new(false), None, |_| Ok(()))?;

    println!("T = R ⟗ S   (rows with r∅ / s∅ are the NULL-extended sides)");
    println!("{}", morphdb::pretty::render(&*db.catalog().get("T")?));
    println!(
        "transformation: {} log records propagated, sources latched for {:?}",
        report.records_processed(),
        report.sync.latch_pause
    );
    Ok(())
}

fn split_figure3() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());
    let schema = morphdb::Schema::builder()
        .column("a", morphdb::ColumnType::Int)
        .nullable("b", morphdb::ColumnType::Str)
        .nullable("c", morphdb::ColumnType::Str)
        .nullable("d", morphdb::ColumnType::Str)
        .primary_key(&["a"])
        .build()?;
    db.create_table("T", schema)?;
    let txn = db.begin();
    for (a, b, c, d) in [
        (1, "a", "c1", "d1"),
        (2, "b", "c1", "d1"),
        (5, "e", "c2", "d2"),
    ] {
        db.insert(
            txn,
            "T",
            vec![Value::Int(a), Value::str(b), Value::str(c), Value::str(d)],
        )?;
    }
    db.commit(txn)?;
    println!("{}", morphdb::pretty::render(&*db.catalog().get("T")?));

    let spec = SplitSpec::new("T", "R", "S", &["a", "b", "c"], "c", &["d"]);
    let options = TransformOptions::default().deadline(Duration::from_secs(10));
    let job = TransformJob::prepare(&db, &TransformPlan::Split(spec), options)?;
    let report = job.run(&AtomicBool::new(false), None, |_| Ok(()))?;

    println!("R (keeps T's key; c is the foreign key into S)");
    println!("{}", morphdb::pretty::render(&*db.catalog().get("R")?));
    println!("S (one record per split value; ctr counts contributing T-rows)");
    println!("{}", morphdb::pretty::render(&*db.catalog().get("S")?));
    println!(
        "transformation: {} log records propagated, source latched for {:?}",
        report.records_processed(),
        report.sync.latch_pause
    );
    Ok(())
}
