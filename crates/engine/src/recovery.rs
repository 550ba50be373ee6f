//! Restart recovery (ARIES-style, adapted to a main-memory engine).
//!
//! Because morphdb keeps all data in memory, a restart loses every
//! materialized row; recovery therefore replays the *entire* log from
//! genesis: an **analysis** pass classifies transactions, a **redo**
//! pass re-executes every operation — including CLRs, exactly as they
//! were logged — and an **undo** pass rolls back loser transactions,
//! appending fresh CLRs. This is the same discipline the paper assumes
//! of its substrate ("undo operations produce Compensating Log Records
//! as described in the ARIES method", §1); the transformation framework
//! itself is *not* made crash-persistent — an interrupted
//! transformation simply restarts from its preparation step, which is
//! safe because transformed tables are invisible to users until
//! synchronization completes. That claim is regression-pinned by the
//! crash simulator: `crates/sim/tests/crash_matrix.rs` kills
//! transformations at every instrumented point, recovers from the
//! torn log, restarts from preparation, and demands equivalence with
//! an uninterrupted run, and `crates/sim/tests/migration_matrix.rs`
//! does the same for orchestrated and sharded migrations, which
//! resume from their durable state records (see `morph-sim` and
//! DESIGN.md §9, §13).

use crate::database::Database;
use morph_common::{DbResult, Key, Lsn, TxnId, Value};
use morph_storage::Row;
use morph_wal::{scan_stream, LogOp, LogOpRef, LogRecord, LogRecordRef, ValueRef};
use std::collections::{HashMap, HashSet};

/// What recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Operations (forward + CLR) re-applied.
    pub redone: usize,
    /// Transactions that were alive at the crash and were rolled back.
    pub losers: Vec<TxnId>,
    /// CLRs appended during the undo pass.
    pub clrs_written: usize,
}

/// Replay `records` into `db`. The caller must have re-created the
/// schema: every table id referenced by the log must resolve in the
/// catalog, and the tables must be empty.
pub fn recover_into(db: &Database, records: &[LogRecord]) -> DbResult<RecoveryReport> {
    // --- analysis ---
    struct TxnInfo {
        finished: bool,
        /// Forward ops in order, with their LSNs.
        ops: Vec<(Lsn, LogOp)>,
        /// LSNs already compensated by logged CLRs.
        compensated: HashSet<Lsn>,
    }
    let mut txns: HashMap<TxnId, TxnInfo> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        let lsn = Lsn(i as u64 + 1);
        match rec {
            LogRecord::Begin { txn } => {
                txns.insert(
                    *txn,
                    TxnInfo {
                        finished: false,
                        ops: Vec::new(),
                        compensated: HashSet::new(),
                    },
                );
            }
            LogRecord::Commit { txn } | LogRecord::AbortEnd { txn } => {
                if let Some(info) = txns.get_mut(txn) {
                    info.finished = true;
                }
            }
            LogRecord::Op { txn, op } => {
                if let Some(info) = txns.get_mut(txn) {
                    info.ops.push((lsn, op.clone()));
                }
            }
            LogRecord::Clr {
                txn, undone_lsn, ..
            } => {
                if let Some(info) = txns.get_mut(txn) {
                    info.compensated.insert(*undone_lsn);
                }
            }
            _ => {}
        }
    }

    // --- redo: replay history exactly as logged ---
    let mut redone = 0usize;
    for (i, rec) in records.iter().enumerate() {
        let lsn = Lsn(i as u64 + 1);
        if let Some(op) = rec.op() {
            apply_physical(db, op, lsn)?;
            redone += 1;
        }
    }

    // --- undo losers ---
    let mut losers: Vec<TxnId> = txns
        .iter()
        .filter(|(_, info)| !info.finished)
        .map(|(id, _)| *id)
        .collect();
    losers.sort();
    let mut clrs_written = 0usize;
    for txn in &losers {
        let info = &txns[txn];
        db.log().append(LogRecord::Abort { txn: *txn });
        for (lsn, op) in info.ops.iter().rev() {
            if info.compensated.contains(lsn) {
                continue;
            }
            let inverse = invert_for_undo(db, op)?;
            let clr_lsn = db.log().append(LogRecord::Clr {
                txn: *txn,
                undone_lsn: *lsn,
                op: inverse.clone(),
            });
            apply_physical(db, &inverse, clr_lsn)?;
            clrs_written += 1;
        }
        db.log().append(LogRecord::AbortEnd { txn: *txn });
    }
    db.log().flush()?;

    Ok(RecoveryReport {
        redone,
        losers,
        clrs_written,
    })
}

/// Replay a raw length-prefixed WAL byte stream into `db` without
/// materializing owned records for the bulk of the log. Behaviorally
/// identical to decoding the stream and calling [`recover_into`]
/// (regression-pinned by `recover_from_bytes_matches_recover_into`),
/// but the analysis and redo passes run on borrowed
/// [`LogRecordRef`]s: control records, fuzzy marks, checkpoints and
/// CLR bookkeeping never allocate a single `String`; owned values are
/// built only for the column images an applied operation actually
/// writes, and for the (typically few) loser operations the undo pass
/// must retain past their borrow.
pub fn recover_from_bytes(db: &Database, bytes: &[u8]) -> DbResult<RecoveryReport> {
    // --- analysis (borrowed): who finished, what was compensated ---
    struct TxnMeta {
        finished: bool,
        compensated: HashSet<Lsn>,
    }
    let mut txns: HashMap<TxnId, TxnMeta> = HashMap::new();
    let mut lsn = 0u64;
    scan_stream(bytes, |rec| {
        lsn += 1;
        match rec {
            LogRecordRef::Begin { txn } => {
                txns.insert(
                    txn,
                    TxnMeta {
                        finished: false,
                        compensated: HashSet::new(),
                    },
                );
            }
            LogRecordRef::Commit { txn } | LogRecordRef::AbortEnd { txn } => {
                if let Some(meta) = txns.get_mut(&txn) {
                    meta.finished = true;
                }
            }
            LogRecordRef::Clr {
                txn, undone_lsn, ..
            } => {
                if let Some(meta) = txns.get_mut(&txn) {
                    meta.compensated.insert(undone_lsn);
                }
            }
            _ => {}
        }
        Ok(())
    })?;

    // --- redo (borrowed), collecting owned ops only for losers ---
    let is_loser =
        |txns: &HashMap<TxnId, TxnMeta>, txn: TxnId| txns.get(&txn).is_some_and(|m| !m.finished);
    let mut loser_ops: HashMap<TxnId, Vec<(Lsn, LogOp)>> = HashMap::new();
    let mut redone = 0usize;
    let mut lsn = 0u64;
    scan_stream(bytes, |rec| {
        lsn += 1;
        if let Some(op) = rec.op() {
            apply_physical_ref(db, op, Lsn(lsn))?;
            redone += 1;
            if let LogRecordRef::Op { txn, op } = &rec {
                if is_loser(&txns, *txn) {
                    loser_ops
                        .entry(*txn)
                        .or_default()
                        .push((Lsn(lsn), op.to_owned()));
                }
            }
        }
        Ok(())
    })?;

    // --- undo losers (same protocol as recover_into) ---
    let mut losers: Vec<TxnId> = txns
        .iter()
        .filter(|(_, meta)| !meta.finished)
        .map(|(id, _)| *id)
        .collect();
    losers.sort();
    let mut clrs_written = 0usize;
    for txn in &losers {
        let meta = &txns[txn];
        let ops = loser_ops.remove(txn).unwrap_or_default();
        db.log().append(LogRecord::Abort { txn: *txn });
        for (lsn, op) in ops.iter().rev() {
            if meta.compensated.contains(lsn) {
                continue;
            }
            let inverse = invert_for_undo(db, op)?;
            let clr_lsn = db.log().append(LogRecord::Clr {
                txn: *txn,
                undone_lsn: *lsn,
                op: inverse.clone(),
            });
            apply_physical(db, &inverse, clr_lsn)?;
            clrs_written += 1;
        }
        db.log().append(LogRecord::AbortEnd { txn: *txn });
    }
    db.log().flush()?;

    Ok(RecoveryReport {
        redone,
        losers,
        clrs_written,
    })
}

/// Apply one borrowed logged operation physically, stamping `lsn`.
/// Owned values are built only for the images the write needs: the
/// pre-images (`old`) riding along for undo are never converted.
fn apply_physical_ref(db: &Database, op: &LogOpRef<'_>, lsn: Lsn) -> DbResult<()> {
    fn owned(vals: &[ValueRef<'_>]) -> Vec<Value> {
        vals.iter().map(ValueRef::to_owned).collect()
    }
    let table = db.catalog().get_by_id(op.table())?;
    match op {
        LogOpRef::Insert { row, .. } => {
            table.insert_row(Row::new(owned(row), lsn))?;
        }
        LogOpRef::Delete { key, .. } => {
            // SYSTEM-stamped so a replayed delete stays visible by LSN
            // order under versioning (recovered logs carry no
            // commit-table state to resolve original writers).
            table.delete_with_writer(&Key(owned(key)), morph_storage::SYSTEM, |_| Ok(lsn))?;
        }
        LogOpRef::Update { key, new, .. } => {
            let new: Vec<(usize, Value)> = new.iter().map(|(i, v)| (*i, v.to_owned())).collect();
            table.update(&Key(owned(key)), &new, lsn)?;
        }
    }
    Ok(())
}

/// Apply one logged operation physically, stamping `lsn`.
pub fn apply_physical(db: &Database, op: &LogOp, lsn: Lsn) -> DbResult<()> {
    let table = db.catalog().get_by_id(op.table())?;
    match op {
        LogOp::Insert { row, .. } => {
            table.insert_row(Row::new(row.clone(), lsn))?;
        }
        LogOp::Delete { key, .. } => {
            // See `apply_physical_ref`: SYSTEM stamp, LSN of the
            // replayed record.
            table.delete_with_writer(key, morph_storage::SYSTEM, |_| Ok(lsn))?;
        }
        LogOp::Update { key, new, .. } => {
            table.update(key, new, lsn)?;
        }
    }
    Ok(())
}

/// Build the ready-to-apply inverse of a forward op during recovery
/// undo. For updates this must target the row's *current* key, which
/// may differ from the logged (pre-image) key if primary-key columns
/// were updated.
fn invert_for_undo(db: &Database, op: &LogOp) -> DbResult<LogOp> {
    match op {
        LogOp::Insert { table, row } => {
            let t = db.catalog().get_by_id(*table)?;
            Ok(LogOp::Delete {
                table: *table,
                key: t.schema().key_of(row),
                old: row.clone(),
            })
        }
        LogOp::Delete { table, old, .. } => Ok(LogOp::Insert {
            table: *table,
            row: old.clone(),
        }),
        LogOp::Update {
            table,
            key,
            old,
            new,
        } => {
            let t = db.catalog().get_by_id(*table)?;
            let schema = t.schema();
            // Post-image key: substitute updated primary-key columns.
            let mut post = key.clone();
            for (kpos, col) in schema.pkey().iter().enumerate() {
                if let Some((_, v)) = new.iter().find(|(i, _)| i == col) {
                    post.0[kpos] = v.clone();
                }
            }
            Ok(LogOp::Update {
                table: *table,
                key: post,
                old: new.clone(),
                new: old.clone(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::{ColumnType, DbError, Key, Schema, Value};
    use morph_txn::LockManagerConfig;
    use morph_wal::LogManager;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .column("val", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    fn row(id: i64, v: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::str(v)]
    }

    /// Run `work` against a fresh DB, then "crash": replay the log into
    /// a second DB with the same schema and return both.
    fn crash_and_recover(work: impl FnOnce(&Database)) -> (Database, Database, RecoveryReport) {
        let db1 = Database::new();
        db1.create_table("t", schema()).unwrap();
        work(&db1);
        let records: Vec<LogRecord> = db1
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();

        let db2 = Database::with_log(
            Arc::new(LogManager::with_records(records.clone())),
            LockManagerConfig::default(),
        );
        // Recreate schema with the same table id.
        let orig = db1.catalog().get("t").unwrap();
        db2.catalog()
            .create_table_with_id(orig.id(), "t", schema())
            .unwrap();
        let report = recover_into(&db2, &records).unwrap();
        (db1, db2, report)
    }

    fn table_state(db: &Database) -> Vec<(Key, Vec<Value>)> {
        db.catalog()
            .get("t")
            .unwrap()
            .snapshot()
            .into_iter()
            .map(|(k, r)| (k, r.values))
            .collect()
    }

    #[test]
    fn committed_work_survives() {
        let (db1, db2, report) = crash_and_recover(|db| {
            let txn = db.begin();
            db.insert(txn, "t", row(1, "a")).unwrap();
            db.insert(txn, "t", row(2, "b")).unwrap();
            db.update(txn, "t", &Key::single(1), &[(1, Value::str("a2"))])
                .unwrap();
            db.delete(txn, "t", &Key::single(2)).unwrap();
            db.commit(txn).unwrap();
        });
        assert_eq!(table_state(&db1), table_state(&db2));
        assert_eq!(report.losers, vec![]);
        assert_eq!(report.redone, 4);
    }

    #[test]
    fn loser_transaction_is_rolled_back() {
        let (_db1, db2, report) = crash_and_recover(|db| {
            let committed = db.begin();
            db.insert(committed, "t", row(1, "keep")).unwrap();
            db.commit(committed).unwrap();
            // Crash with this one in flight:
            let loser = db.begin();
            db.insert(loser, "t", row(2, "gone")).unwrap();
            db.update(loser, "t", &Key::single(1), &[(1, Value::str("dirty"))])
                .unwrap();
            // no commit/abort — crash
        });
        let state = table_state(&db2);
        assert_eq!(state.len(), 1);
        assert_eq!(state[0].1, row(1, "keep"));
        assert_eq!(report.losers.len(), 1);
        assert_eq!(report.clrs_written, 2);
    }

    #[test]
    fn crash_mid_rollback_resumes_via_clrs() {
        // A txn that aborted *and completed* rollback before the crash:
        // redo replays its CLRs; undo must not double-compensate.
        let (db1, db2, report) = crash_and_recover(|db| {
            let setup = db.begin();
            db.insert(setup, "t", row(1, "base")).unwrap();
            db.commit(setup).unwrap();
            let txn = db.begin();
            db.update(txn, "t", &Key::single(1), &[(1, Value::str("x"))])
                .unwrap();
            db.abort(txn).unwrap();
        });
        assert_eq!(table_state(&db1), table_state(&db2));
        assert!(report.losers.is_empty());
    }

    #[test]
    fn loser_with_pkey_move_restored() {
        let (_db1, db2, _report) = crash_and_recover(|db| {
            let setup = db.begin();
            db.insert(setup, "t", row(1, "orig")).unwrap();
            db.commit(setup).unwrap();
            let loser = db.begin();
            db.update(loser, "t", &Key::single(1), &[(0, Value::Int(7))])
                .unwrap();
            // crash
        });
        let state = table_state(&db2);
        assert_eq!(state, vec![(Key::single(1), row(1, "orig"))]);
    }

    #[test]
    fn recovered_log_is_replayable_again() {
        // Idempotence at the system level: recovering the *recovered*
        // log yields the same state (all losers now have AbortEnd).
        let (_db1, db2, _report) = crash_and_recover(|db| {
            let loser = db.begin();
            db.insert(loser, "t", row(5, "x")).unwrap();
        });
        let records: Vec<LogRecord> = db2
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        let db3 = Database::new();
        db3.catalog()
            .create_table_with_id(db2.catalog().get("t").unwrap().id(), "t", schema())
            .unwrap();
        let report2 = recover_into(&db3, &records).unwrap();
        assert!(report2.losers.is_empty());
        assert_eq!(table_state(&db2), {
            db3.catalog()
                .get("t")
                .unwrap()
                .snapshot()
                .into_iter()
                .map(|(k, r)| (k, r.values))
                .collect::<Vec<_>>()
        });
    }

    /// Length-prefix-encode records exactly as the file backend does.
    fn to_stream(records: &[LogRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for rec in records {
            let body = morph_wal::codec::encode(rec);
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        bytes
    }

    #[test]
    fn recover_from_bytes_matches_recover_into() {
        // One committed txn (with a pkey move and strings, so borrowed
        // values matter), one fully-rolled-back txn (CLRs in the log),
        // one loser crashed mid-flight.
        let db1 = Database::new();
        db1.create_table("t", schema()).unwrap();
        let committed = db1.begin();
        db1.insert(committed, "t", row(1, "alpha")).unwrap();
        db1.insert(committed, "t", row(2, "beta")).unwrap();
        db1.update(committed, "t", &Key::single(1), &[(0, Value::Int(10))])
            .unwrap();
        db1.commit(committed).unwrap();
        let aborted = db1.begin();
        db1.update(aborted, "t", &Key::single(2), &[(1, Value::str("dirty"))])
            .unwrap();
        db1.abort(aborted).unwrap();
        let loser = db1.begin();
        db1.insert(loser, "t", row(3, "gone")).unwrap();
        db1.delete(loser, "t", &Key::single(2)).unwrap();
        // no commit — crash

        let records: Vec<LogRecord> = db1
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        let bytes = to_stream(&records);
        let t_id = db1.catalog().get("t").unwrap().id();

        let db_a = Database::new();
        db_a.catalog()
            .create_table_with_id(t_id, "t", schema())
            .unwrap();
        let report_a = recover_into(&db_a, &records).unwrap();

        let db_b = Database::new();
        db_b.catalog()
            .create_table_with_id(t_id, "t", schema())
            .unwrap();
        let report_b = recover_from_bytes(&db_b, &bytes).unwrap();

        assert_eq!(report_a, report_b);
        assert_eq!(table_state(&db_a), table_state(&db_b));
        // The undo pass must have appended the same records, too.
        let tail = |db: &Database| -> Vec<LogRecord> {
            db.log()
                .read_range(Lsn(1), usize::MAX)
                .into_iter()
                .map(|(_, r)| (*r).clone())
                .collect()
        };
        assert_eq!(tail(&db_a), tail(&db_b));
    }

    #[test]
    fn recover_from_bytes_tolerates_torn_tail() {
        let db1 = Database::new();
        db1.create_table("t", schema()).unwrap();
        let txn = db1.begin();
        db1.insert(txn, "t", row(1, "keep")).unwrap();
        db1.commit(txn).unwrap();
        let records: Vec<LogRecord> = db1
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        let mut bytes = to_stream(&records);
        bytes.extend_from_slice(&(4096u32).to_le_bytes()); // torn append
        bytes.extend_from_slice(&[7, 7]);

        let db2 = Database::new();
        db2.catalog()
            .create_table_with_id(db1.catalog().get("t").unwrap().id(), "t", schema())
            .unwrap();
        let report = recover_from_bytes(&db2, &bytes).unwrap();
        assert!(report.losers.is_empty());
        assert_eq!(table_state(&db2), vec![(Key::single(1), row(1, "keep"))]);
    }

    #[test]
    fn missing_table_is_reported() {
        let db1 = Database::new();
        db1.create_table("t", schema()).unwrap();
        let txn = db1.begin();
        db1.insert(txn, "t", row(1, "a")).unwrap();
        db1.commit(txn).unwrap();
        let records: Vec<LogRecord> = db1
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        let db2 = Database::new(); // no table created
        assert!(matches!(
            recover_into(&db2, &records),
            Err(DbError::NoSuchTableId(_))
        ));
    }
}
