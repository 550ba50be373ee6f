//! Restart recovery (ARIES-style, adapted to a main-memory engine).
//!
//! Because morphdb keeps all data in memory, a restart loses every
//! materialized row; recovery therefore replays the *entire* log from
//! genesis: an **analysis** pass classifies transactions and reserves
//! every transaction id in the log, so that no transaction begun after
//! the restart reuses one; a **redo** pass re-executes every operation
//! — including CLRs, exactly as they were logged — and an **undo** pass
//! rolls each loser back. Undo is a rollback: the loser is registered
//! with its uncompensated forward operations as its undo chain and
//! rolled back by the body [`Database::abort`] runs, which logs
//! `Abort`, a CLR per operation (each [`LogOp::undo`]) and `AbortEnd`.
//! The three passes run in one body, [`recover_into`], over a slice of
//! owned [`LogRecord`]s; [`recover_from_bytes`] decodes a raw frame
//! stream into that slice first. This is the same discipline the paper
//! assumes of its substrate ("undo operations produce Compensating Log
//! Records as described in the ARIES method", §1); the transformation
//! framework itself is *not* made crash-persistent — an interrupted
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
use morph_common::{DbResult, Lsn, TxnId};
use morph_wal::{decode_stream, LogOp, LogRecord};
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

/// Replay `records`, the log from LSN 1, into `db`: the one replay
/// body. The caller must have re-created the schema: every table id
/// referenced by the log must resolve in the catalog, and the tables
/// must be empty.
pub fn recover_into(db: &Database, records: &[LogRecord]) -> DbResult<RecoveryReport> {
    let lsn_of = |i: usize| Lsn(i as u64 + 1);

    // --- analysis: who finished, what was compensated. A transaction
    // has no begin record: it is known from its first record of any
    // kind, and one that logged nothing needs no recovery ---
    #[derive(Default)]
    struct TxnMeta {
        finished: bool,
        compensated: HashSet<Lsn>,
    }
    let mut txns: HashMap<TxnId, TxnMeta> = HashMap::new();
    for rec in records {
        let Some(txn) = rec.txn() else { continue };
        let meta = txns.entry(txn).or_default();
        match rec {
            LogRecord::Commit { .. } | LogRecord::AbortEnd { .. } => meta.finished = true,
            LogRecord::Clr { undone_lsn, .. } => {
                meta.compensated.insert(*undone_lsn);
            }
            _ => {}
        }
    }
    // Every id in the log stays taken: a transaction begun after the
    // restart must not pass for one of these in a later recovery.
    if let Some(max) = txns.keys().max() {
        db.reserve_txn_ids(*max);
    }

    // --- redo: replay history exactly as logged (CLRs included),
    // collecting each loser's uncompensated forward ops, in log order,
    // as its undo chain ---
    let mut chains: HashMap<TxnId, Vec<(Lsn, LogOp)>> = HashMap::new();
    let mut redone = 0usize;
    for (i, rec) in records.iter().enumerate() {
        let Some(op) = rec.op() else { continue };
        db.apply_logged(op, || Ok(lsn_of(i)))?;
        redone += 1;
        if let LogRecord::Op { txn, .. } = rec {
            let meta = &txns[txn];
            if !meta.finished && !meta.compensated.contains(&lsn_of(i)) {
                chains
                    .entry(*txn)
                    .or_default()
                    .push((lsn_of(i), op.clone()));
            }
        }
    }

    // --- undo: each loser rolls back as a live transaction does ---
    let mut losers: Vec<TxnId> = txns
        .iter()
        .filter(|(_, meta)| !meta.finished)
        .map(|(id, _)| *id)
        .collect();
    losers.sort();
    let mut clrs_written = 0usize;
    for txn in &losers {
        let chain = chains.remove(txn).unwrap_or_default();
        clrs_written += chain.len();
        db.undo_loser(*txn, chain)?;
    }
    db.log().flush()?;

    Ok(RecoveryReport {
        redone,
        losers,
        clrs_written,
    })
}

/// Replay a raw frame stream, as the file backend stores it, into `db`
/// (same preconditions as [`recover_into`]): decode it, tolerating a
/// torn tail, and replay the records.
pub fn recover_from_bytes(db: &Database, bytes: &[u8]) -> DbResult<RecoveryReport> {
    recover_into(db, &decode_stream(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::{ColumnType, DbError, Key, Schema, TableId, Value};
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

    /// Every record of `db`'s log, from LSN 1.
    fn log_of(db: &Database) -> Vec<LogRecord> {
        db.log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect()
    }

    /// A fresh database whose log holds `records` and whose catalog
    /// holds `t` under `id`, recovered from those records.
    fn recover(records: Vec<LogRecord>, id: TableId) -> (Database, RecoveryReport) {
        let db = Database::with_log(
            Arc::new(LogManager::with_records(records.clone())),
            LockManagerConfig::default(),
        );
        db.catalog()
            .create_table_with_id(id, "t", schema())
            .unwrap();
        let report = recover_into(&db, &records).unwrap();
        (db, report)
    }

    /// Run `work` against a fresh DB, then "crash": replay the log into
    /// a second DB with the same schema and return both.
    fn crash_and_recover(work: impl FnOnce(&Database)) -> (Database, Database, RecoveryReport) {
        let db1 = Database::new();
        let id = db1.create_table("t", schema()).unwrap().id();
        work(&db1);
        let (db2, report) = recover(log_of(&db1), id);
        (db1, db2, report)
    }

    /// The CLRs of `db`'s log as `(undone_lsn, op)` pairs, in log order.
    fn clrs(db: &Database) -> Vec<(Lsn, LogOp)> {
        log_of(db)
            .into_iter()
            .filter_map(|r| match r {
                LogRecord::Clr { undone_lsn, op, .. } => Some((undone_lsn, op)),
                _ => None,
            })
            .collect()
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

    /// With no begin record, a transaction is known from its first
    /// record: one with ops and no end record is a loser.
    #[test]
    fn a_transaction_without_a_begin_record_is_a_loser() {
        let db1 = Database::new();
        let t = db1.create_table("t", schema()).unwrap();
        let op = |txn: u64, id: i64| LogRecord::Op {
            txn: TxnId(txn),
            op: LogOp::Insert {
                table: t.id(),
                row: row(id, "x"),
            },
        };
        let records = vec![op(1, 1), op(2, 2), LogRecord::Commit { txn: TxnId(2) }];
        let db2 = Database::new();
        db2.catalog()
            .create_table_with_id(t.id(), "t", schema())
            .unwrap();
        let report = recover_into(&db2, &records).unwrap();
        assert_eq!(report.losers, vec![TxnId(1)]);
        assert_eq!(report.clrs_written, 1);
        assert_eq!(table_state(&db2), vec![(Key::single(2), row(2, "x"))]);
    }

    /// A reader a cutover census reported logs only its Commit; recovery
    /// counts it a winner and rolls back only the writer in flight.
    #[test]
    fn a_reported_reader_with_only_a_commit_is_a_winner() {
        let (_db1, db2, report) = crash_and_recover(|db| {
            let setup = db.begin();
            db.insert(setup, "t", row(1, "keep")).unwrap();
            db.commit(setup).unwrap();
            let reader = db.begin();
            db.read(reader, "t", &Key::single(1)).unwrap();
            let t = db.catalog().get("t").unwrap();
            assert_eq!(db.lock_holders(&[t]).len(), 1);
            db.commit(reader).unwrap();
            let loser = db.begin();
            db.insert(loser, "t", row(2, "gone")).unwrap();
        });
        let reader_records = db2
            .log()
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .filter(|(_, r)| r.txn() == Some(TxnId(2)))
            .count();
        assert_eq!(reader_records, 1, "the reader logged its Commit only");
        assert_eq!(report.losers, vec![TxnId(3)]);
        assert_eq!(table_state(&db2), vec![(Key::single(1), row(1, "keep"))]);
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
        let id = db2.catalog().get("t").unwrap().id();
        let (db3, report2) = recover(log_of(&db2), id);
        assert!(report2.losers.is_empty());
        assert_eq!(table_state(&db2), table_state(&db3));
    }

    #[test]
    fn mixed_log_keeps_committed_work_and_undoes_the_loser() {
        // One committed txn (with a pkey move and strings, so borrowed
        // values matter), one fully-rolled-back txn (CLRs in the log),
        // one loser crashed mid-flight.
        let (_db1, db2, report) = crash_and_recover(|db| {
            let committed = db.begin();
            db.insert(committed, "t", row(1, "alpha")).unwrap();
            db.insert(committed, "t", row(2, "beta")).unwrap();
            db.update(committed, "t", &Key::single(1), &[(0, Value::Int(10))])
                .unwrap();
            db.commit(committed).unwrap();
            let aborted = db.begin();
            db.update(aborted, "t", &Key::single(2), &[(1, Value::str("dirty"))])
                .unwrap();
            db.abort(aborted).unwrap();
            let loser = db.begin();
            db.insert(loser, "t", row(3, "gone")).unwrap();
            db.delete(loser, "t", &Key::single(2)).unwrap();
            // no commit — crash
        });
        assert_eq!(
            table_state(&db2),
            vec![
                (Key::single(2), row(2, "beta")),
                (Key::single(10), row(10, "alpha")),
            ]
        );
        // Four forward ops of the first two txns, one CLR, two loser ops.
        assert_eq!(report.redone, 7);
        assert_eq!(report.losers.len(), 1);
        assert_eq!(report.clrs_written, 2);
        // The undo pass appended Abort, a CLR per loser op (newest
        // first) and AbortEnd.
        let log = db2.log().read_range(Lsn(1), usize::MAX);
        let tail: Vec<&LogRecord> = log.iter().rev().take(4).rev().map(|(_, r)| &**r).collect();
        assert!(matches!(tail[0], LogRecord::Abort { .. }));
        assert!(matches!(
            tail[1],
            LogRecord::Clr {
                op: LogOp::Insert { .. },
                ..
            }
        ));
        assert!(matches!(
            tail[2],
            LogRecord::Clr {
                op: LogOp::Delete { .. },
                ..
            }
        ));
        assert!(matches!(tail[3], LogRecord::AbortEnd { .. }));
    }

    #[test]
    fn recover_from_bytes_tolerates_torn_tail() {
        let db1 = Database::new();
        db1.create_table("t", schema()).unwrap();
        let txn = db1.begin();
        db1.insert(txn, "t", row(1, "keep")).unwrap();
        db1.commit(txn).unwrap();
        let records = log_of(&db1);
        let mut bytes = morph_wal::encode_stream(&records);
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
        let records = log_of(&db1);
        let db2 = Database::new(); // no table created
        assert!(matches!(
            recover_into(&db2, &records),
            Err(DbError::NoSuchTableId(_))
        ));
    }

    /// Recovery reserves every transaction id in the log: the next
    /// transaction gets an id above all of them.
    #[test]
    fn begin_after_recovery_gets_an_id_above_every_logged_id() {
        let db1 = Database::new();
        let t = db1.create_table("t", schema()).unwrap();
        let op = |txn: u64, id: i64| LogRecord::Op {
            txn: TxnId(txn),
            op: LogOp::Insert {
                table: t.id(),
                row: row(id, "x"),
            },
        };
        let records = vec![
            op(7, 1),
            LogRecord::Commit { txn: TxnId(7) },
            op(3, 2),
            LogRecord::Commit { txn: TxnId(3) },
        ];
        let (db2, _report) = recover(records, t.id());
        assert!(db2.begin() > TxnId(7));
    }

    /// One transaction that inserts, moves a primary key and deletes,
    /// rolled back live on one database and undone by recovery on a
    /// twin that crashed with its ops logged: the same table contents
    /// and the same CLRs, compensation for compensation.
    #[test]
    fn live_rollback_and_restart_undo_log_the_same_compensations() {
        let work = |db: &Database| {
            let setup = db.begin();
            db.insert(setup, "t", row(1, "a")).unwrap();
            db.insert(setup, "t", row(2, "b")).unwrap();
            db.commit(setup).unwrap();
            let txn = db.begin();
            db.insert(txn, "t", row(3, "c")).unwrap();
            db.update(
                txn,
                "t",
                &Key::single(1),
                &[(0, Value::Int(9)), (1, Value::str("a9"))],
            )
            .unwrap();
            db.delete(txn, "t", &Key::single(2)).unwrap();
            txn
        };
        let live = Database::new();
        live.create_table("t", schema()).unwrap();
        let txn = work(&live);
        live.abort(txn).unwrap();

        let (_twin, restarted, report) = crash_and_recover(|db| {
            work(db);
        });
        assert_eq!(report.losers, vec![txn]);
        assert_eq!(table_state(&restarted), table_state(&live));
        assert_eq!(
            table_state(&live),
            vec![(Key::single(1), row(1, "a")), (Key::single(2), row(2, "b"))]
        );
        let compensations = clrs(&live);
        assert_eq!(compensations.len(), 3);
        assert_eq!(clrs(&restarted), compensations);
    }

    /// A loser killed between its last CLR and its AbortEnd has nothing
    /// left to compensate: recovery logs one Abort and one AbortEnd for
    /// it and no CLR, and a second recovery finds no loser.
    #[test]
    fn a_loser_compensated_before_the_crash_logs_only_its_end() {
        let db1 = Database::new();
        let id = db1.create_table("t", schema()).unwrap().id();
        let setup = db1.begin();
        db1.insert(setup, "t", row(1, "keep")).unwrap();
        db1.commit(setup).unwrap();
        let txn = db1.begin();
        db1.insert(txn, "t", row(2, "gone")).unwrap();
        db1.update(txn, "t", &Key::single(1), &[(1, Value::str("dirty"))])
            .unwrap();
        db1.abort(txn).unwrap();
        let mut records = log_of(&db1);
        assert_eq!(records.pop(), Some(LogRecord::AbortEnd { txn }));

        let (db2, report) = recover(records.clone(), id);
        assert_eq!(report.losers, vec![txn]);
        assert_eq!(report.clrs_written, 0);
        assert_eq!(
            log_of(&db2)[records.len()..],
            [LogRecord::Abort { txn }, LogRecord::AbortEnd { txn }]
        );
        assert_eq!(table_state(&db2), vec![(Key::single(1), row(1, "keep"))]);

        let (db3, report) = recover(log_of(&db2), id);
        assert!(report.losers.is_empty());
        assert_eq!(table_state(&db3), table_state(&db2));
    }
}
