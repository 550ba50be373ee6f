//! The **non-blocking commit** strategy (§3.4) — what Ronström calls a
//! *soft transformation*: at synchronization, transactions that are
//! still active on the source tables are *not* aborted; they keep
//! running on the (now hidden) sources to completion, while new
//! transactions already use the transformed table. Consistency between
//! the two worlds is enforced by mirroring every old-transaction lock
//! onto the transformed table under the Figure-2 compatibility matrix:
//! a new transaction that touches a mirrored record waits (or is
//! wounded) until the old transaction finishes *and the propagator has
//! caught up with its log records*.
//!
//! The example walks through exactly that interleaving, narrating each
//! step.
//!
//! ```sh
//! cargo run --example soft_transformation
//! ```

use morphdb::core::{FojSpec, SyncStrategy, TransformJob, TransformOptions, TransformPlan};
use morphdb::storage::TableState;
use morphdb::{ColumnType, Database, DbError, Key, Schema, Value};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());
    let orders = Schema::builder()
        .column("order_id", ColumnType::Int)
        .nullable("note", ColumnType::Str)
        .nullable("cust", ColumnType::Int)
        .primary_key(&["order_id"])
        .build()?;
    let customers = Schema::builder()
        .column("cust", ColumnType::Int)
        .nullable("name", ColumnType::Str)
        .primary_key(&["cust"])
        .build()?;
    db.create_table("orders", orders)?;
    db.create_table("customers", customers)?;
    let txn = db.begin();
    for i in 0..100i64 {
        db.insert(
            txn,
            "orders",
            vec![Value::Int(i), Value::str("note"), Value::Int(i % 8)],
        )?;
    }
    for c in 0..8i64 {
        db.insert(
            txn,
            "customers",
            vec![Value::Int(c), Value::str(format!("cust{c}"))],
        )?;
    }
    db.commit(txn)?;

    // A long-running transaction, active when synchronization fires.
    let old = db.begin();
    db.update(
        old,
        "orders",
        &Key::single(5),
        &[(1, Value::str("old-txn-work"))],
    )?;
    println!("old transaction {old} holds a lock on orders[5]");

    println!("launching the FOJ transformation with the non-blocking COMMIT strategy…");
    let spec = FojSpec::new("orders", "customers", "orders_denorm", "cust", "cust");
    let options = TransformOptions::default()
        .strategy(SyncStrategy::NonBlockingCommit)
        .deadline(Duration::from_secs(30));
    let job = TransformJob::prepare(&db, &TransformPlan::Foj(spec), options)?;
    let worker = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));

    // Wait for the switch (sources freeze for everyone but `old`).
    let t0 = Instant::now();
    while db.catalog().get("orders")?.state() == TableState::Active {
        if t0.elapsed() > Duration::from_secs(20) {
            panic!("synchronization never happened");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("synchronized: sources frozen, orders_denorm is live — but {old} lives on");

    // A NEW transaction can use the transformed table immediately…
    let fresh = db.begin();
    let t_key = Key::new([Value::Int(50), Value::Int(2)]); // (order_id, cust)
    db.update(
        fresh,
        "orders_denorm",
        &t_key,
        &[(1, Value::str("new-world"))],
    )?;
    db.commit(fresh)?;
    println!("new transaction updated orders_denorm[50] without waiting");

    // …but the record the old transaction has mirrored locks on is
    // protected: a new writer conflicts per Figure 2 (T.w vs R.w = n).
    let blocked = db.begin();
    let locked_key = Key::new([Value::Int(5), Value::Int(5)]);
    match db.update(
        blocked,
        "orders_denorm",
        &locked_key,
        &[(1, Value::str("clash"))],
    ) {
        Err(DbError::Deadlock(_)) | Err(DbError::LockTimeout(_)) => {
            println!("new transaction correctly blocked on the mirrored lock of {old}");
        }
        Ok(()) => panic!("the mirrored lock failed to protect the record!"),
        Err(e) => return Err(e.into()),
    }
    db.abort(blocked)?;

    // The old transaction continues on the frozen source and COMMITS —
    // nothing it did is lost ("nonconflicting transactions are not
    // aborted due to the transformation").
    db.update(
        old,
        "orders",
        &Key::single(6),
        &[(1, Value::str("late-work"))],
    )?;
    db.commit(old)?;
    println!(
        "{old} committed on the frozen source; propagation washes its work into the new table"
    );

    let report = worker.join().expect("transformation thread panicked")?;
    println!(
        "transformation done: {} old transaction(s) carried over, {} locks transferred, latch pause {:?}",
        report.sync.old_txns, report.sync.locks_transferred, report.sync.latch_pause
    );

    // Everything the old transaction wrote is in the transformed table.
    let t = db.catalog().get("orders_denorm")?;
    let got: Vec<String> = t
        .snapshot()
        .into_iter()
        .filter_map(|(_, row)| row.values[1].as_str().map(str::to_owned))
        .filter(|s| s.contains("work") || s.contains("world"))
        .collect();
    println!("surviving writes in orders_denorm: {got:?}");
    assert!(got.contains(&"old-txn-work".to_owned()));
    assert!(got.contains(&"late-work".to_owned()));
    assert!(got.contains(&"new-world".to_owned()));

    // And the once-locked record is writable again.
    let after = db.begin();
    db.update(
        after,
        "orders_denorm",
        &locked_key,
        &[(1, Value::str("free"))],
    )?;
    db.commit(after)?;
    println!("record released after the propagator processed {old}'s commit — soft transformation complete.");
    Ok(())
}
