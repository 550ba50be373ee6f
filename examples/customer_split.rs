//! The paper's Example 1: splitting a customer table on a functional
//! dependency the DBMS never enforced — and what happens when the data
//! violates it.
//!
//! `customers(customer_id, name, postal_code, city)` is to be split
//! into `customers(customer_id, name, postal_code)` and
//! `postal_codes(postal_code, city)`. Customer 134 has the paper's
//! typo: postal code 7050 with city "Trnodheim" while customer 001 says
//! "Trondheim". The §5.3 consistency checker detects the contradiction
//! (the transformation *cannot* decide which city is right), the DBA
//! repairs the source row with an ordinary online transaction, and the
//! transformation then completes with every S-record certified
//! consistent.
//!
//! ```sh
//! cargo run --example customer_split
//! ```

use morphdb::core::{SplitSpec, TransformJob, TransformOptions, TransformPlan};
use morphdb::{ColumnType, Database, DbError, Key, Schema, Value};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());
    let schema = Schema::builder()
        .column("customer_id", ColumnType::Int)
        .nullable("name", ColumnType::Str)
        .nullable("postal_code", ColumnType::Str)
        .nullable("city", ColumnType::Str)
        .primary_key(&["customer_id"])
        .build()?;
    db.create_table("customers", schema)?;

    let txn = db.begin();
    for (id, name, code, city) in [
        (1, "Peter", "7050", "Trondheim"),
        (2, "Mark", "5020", "Bergen"),
        (3, "Gary", "0050", "Oslo"),
        (134, "Jen", "7050", "Trnodheim"), // the paper's typo
    ] {
        db.insert(
            txn,
            "customers",
            vec![
                Value::Int(id),
                Value::str(name),
                Value::str(code),
                Value::str(city),
            ],
        )?;
    }
    db.commit(txn)?;
    println!("source table (note customers 1 and 134 disagree on 7050's city):\n");
    println!(
        "{}",
        morphdb::pretty::render(&*db.catalog().get("customers")?)
    );

    let spec = || {
        SplitSpec::new(
            "customers",
            "customers_base",
            "postal_codes",
            &["customer_id", "name", "postal_code"],
            "postal_code",
            &["city"],
        )
        .with_consistency_check()
    };
    let options = TransformOptions::default().deadline(Duration::from_secs(10));

    println!("attempting the split with §5.3 consistency checking…");
    let split = |options| {
        let job = TransformJob::prepare(&db, &TransformPlan::Split(spec()), options)?;
        job.run(&AtomicBool::new(false), None, |_| Ok(()))
    };
    match split(options.clone()) {
        Err(DbError::InconsistentSplitData { key, detail }) => {
            println!("  ✗ transformation refused: inconsistent data at {key}");
            println!("    ({detail})\n");
        }
        other => panic!("expected InconsistentSplitData, got {other:?}"),
    }

    println!("DBA repairs the typo with an ordinary online transaction…\n");
    let txn = db.begin();
    db.update(
        txn,
        "customers",
        &Key::single(134),
        &[(3, Value::str("Trondheim"))],
    )?;
    db.commit(txn)?;

    println!("retrying the split…");
    let report = split(options)?;
    println!(
        "  ✓ completed: {} consistency-checker rounds, sources latched {:?}\n",
        report.cc_rounds, report.sync.latch_pause
    );

    println!(
        "{}",
        morphdb::pretty::render(&*db.catalog().get("customers_base")?)
    );
    println!(
        "{}",
        morphdb::pretty::render(&*db.catalog().get("postal_codes")?)
    );
    println!("(ctr=2 on 7050: two customers share that postal code; all flags are C)");
    Ok(())
}
