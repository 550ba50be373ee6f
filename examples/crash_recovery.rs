//! ARIES-style restart recovery — the substrate assumption the whole
//! transformation framework rests on (§1: redo *and* undo logging with
//! CLRs).
//!
//! A file-backed database runs a mix of committed and in-flight
//! transactions, "crashes" (process state is discarded), and recovers
//! purely from the log file: committed work survives, the loser
//! transaction is rolled back via freshly written compensation
//! records. The restarted database logs to the same file, which its
//! log continues; it commits a transfer and crashes again, and the
//! second restart finds that transfer.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use morphdb::engine::recover;
use morphdb::storage::Table;
use morphdb::txn::LockManagerConfig;
use morphdb::wal::LogManager;
use morphdb::{ColumnType, Database, Key, Schema, TableId, Value};
use std::path::Path;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("balance", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .expect("static schema")
}

/// Restart onto the log file at `path`: reopen the log (it continues
/// the file), re-create the table under its id, and recover from the
/// log. Returns the database and its recovered table.
fn restart(
    path: &Path,
    table_id: TableId,
) -> Result<(Database, Arc<Table>), Box<dyn std::error::Error>> {
    let log = Arc::new(LogManager::with_file(path)?);
    println!("log file: {} records", log.last_lsn());
    let db = Database::with_log(log, LockManagerConfig::default());
    db.catalog()
        .create_table_with_id(table_id, "accounts", schema())?;
    let report = recover(&db)?;
    println!(
        "analysis/redo/undo: {} operations redone, {} loser transaction(s) rolled back, {} CLRs written\n",
        report.redone,
        report.losers.len(),
        report.clrs_written
    );
    let accounts = db.catalog().get("accounts")?;
    Ok((db, accounts))
}

/// The balance of account `id`, if the account exists.
fn balance(accounts: &Table, id: i64) -> Option<Value> {
    accounts
        .get(&Key::single(id))
        .map(|row| row.values[1].clone())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wal_path = std::env::temp_dir().join(format!("morphdb-demo-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);

    // --- phase 1: normal operation, file-backed WAL ---
    let table_id;
    {
        let log = Arc::new(LogManager::with_file(&wal_path)?);
        let db = Database::with_log(log, LockManagerConfig::default());
        let accounts = db.create_table("accounts", schema())?;
        table_id = accounts.id();

        let setup = db.begin();
        for i in 0..5 {
            db.insert(setup, "accounts", vec![Value::Int(i), Value::Int(100)])?;
        }
        db.commit(setup)?;

        // A committed transfer…
        let t1 = db.begin();
        db.update(t1, "accounts", &Key::single(0), &[(1, Value::Int(50))])?;
        db.update(t1, "accounts", &Key::single(1), &[(1, Value::Int(150))])?;
        db.commit(t1)?;

        // …an aborted one (its CLRs are in the log)…
        let t2 = db.begin();
        db.update(t2, "accounts", &Key::single(2), &[(1, Value::Int(0))])?;
        db.abort(t2)?;

        // …and one still in flight when the "power fails".
        let t3 = db.begin();
        db.update(t3, "accounts", &Key::single(3), &[(1, Value::Int(999))])?;
        db.log().flush()?;

        println!("before crash (txn {t3} still holds locks on account 3):");
        println!("{}", morphdb::pretty::render(&accounts));
        // db dropped here: all in-memory state gone.
    }

    // --- phase 2: restart onto the same log file ---
    println!("…crash! restarting from {}\n", wal_path.display());
    let (db, accounts) = restart(&wal_path, table_id)?;
    println!("after recovery:");
    println!("{}", morphdb::pretty::render(&accounts));

    // Invariants: the committed transfer survived, the loser's dirty
    // update is gone.
    assert_eq!(balance(&accounts, 0), Some(Value::Int(50)));
    assert_eq!(balance(&accounts, 1), Some(Value::Int(150)));
    assert_eq!(
        balance(&accounts, 2),
        Some(Value::Int(100)),
        "aborted work must not survive"
    );
    assert_eq!(
        balance(&accounts, 3),
        Some(Value::Int(100)),
        "loser work must be rolled back"
    );
    println!("invariants hold: committed work survived, losers rolled back.\n");

    // The second life logs to the same file, after the first life's
    // records and recovery's compensations: commit one more transfer.
    let t4 = db.begin();
    db.update(t4, "accounts", &Key::single(4), &[(1, Value::Int(75))])?;
    db.update(t4, "accounts", &Key::single(3), &[(1, Value::Int(125))])?;
    db.commit(t4)?;
    drop(db);

    // --- phase 3: a second restart sees the second life's commit ---
    println!("…crash again! restarting from {}\n", wal_path.display());
    let (_db, accounts) = restart(&wal_path, table_id)?;
    println!("after the second recovery:");
    println!("{}", morphdb::pretty::render(&accounts));
    assert_eq!(
        balance(&accounts, 4),
        Some(Value::Int(75)),
        "the second life's commit survives"
    );
    assert_eq!(
        balance(&accounts, 3),
        Some(Value::Int(125)),
        "the second life's commit survives"
    );
    assert_eq!(balance(&accounts, 0), Some(Value::Int(50)));
    assert_eq!(balance(&accounts, 2), Some(Value::Int(100)));
    println!("invariants hold: the second life's commit survived the second restart.");
    std::fs::remove_file(&wal_path)?;
    Ok(())
}
