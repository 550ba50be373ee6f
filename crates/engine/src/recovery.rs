//! Restart recovery (ARIES-style, adapted to a main-memory engine).
//!
//! Because morphdb keeps all data in memory, a restart loses every
//! materialized row; recovery therefore replays the *entire* log from
//! genesis. Its one input is the database's own log, which a restart
//! onto a file reopens with
//! [`LogManager::with_file`](morph_wal::LogManager::with_file) at the
//! file's own LSNs, so a CLR's `undone_lsn` names the same record in
//! every life. [`recover`] reads that log from LSN 1 through a
//! [`TailCursor`](morph_wal::TailCursor) in one pass that is both
//! **analysis** (classify transactions; reserve every transaction id
//! in the log, so that no transaction begun after the restart reuses
//! one) and **redo** (re-execute every operation, CLRs included,
//! exactly as logged). An **undo** pass then rolls each loser back.
//! Undo is a rollback: the loser is registered with the LSNs of its
//! uncompensated forward operations as its undo chain and rolled back
//! by the body [`Database::abort`] runs, which reads each one back and
//! appends a CLR per operation and `AbortEnd` to the same log.
//! [`recover_from_bytes`] loads a raw frame stream into an empty log
//! first, as a reopened file is loaded. This is the same discipline
//! the paper assumes of its substrate ("undo operations produce
//! Compensating Log Records as described in the ARIES method", §1);
//! the transformation framework itself is *not* made crash-persistent
//! — an interrupted transformation simply restarts from its
//! preparation step, which is safe because transformed tables are
//! invisible to users until synchronization completes. That claim is
//! regression-pinned by the crash simulator:
//! `crates/sim/tests/crash_matrix.rs` kills transformations at every
//! instrumented point, recovers from the torn log, restarts from
//! preparation, and demands equivalence with an uninterrupted run, and
//! `crates/sim/tests/migration_matrix.rs` does the same for
//! orchestrated and sharded migrations, which resume from their
//! durable state records (see `morph-sim` and DESIGN.md §9, §13).

use crate::database::Database;
use morph_common::{DbError, DbResult, Lsn, TxnId};
use morph_wal::{LogRecord, RecordKind};
use std::collections::{HashMap, HashSet};

/// Records recovery reads per batch.
const REPLAY_BATCH: usize = 4096;

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

/// Replay `db`'s log, from LSN 1 to its tail, into `db`: the one replay
/// body. The caller must have re-created the schema: every table id
/// referenced by the log must resolve in the catalog, and the tables
/// must be empty. A log truncated past LSN 1 or a record that cannot be
/// read is an error; the replay never stops short. The undo pass
/// appends to the same log and flushes it.
pub fn recover(db: &Database) -> DbResult<RecoveryReport> {
    let log = db.log();
    let end = log.last_lsn();

    // --- analysis and redo, in one pass over the log. A transaction
    // has no begin record: it is known from its first record of any
    // kind, and one that logged nothing needs no recovery. Every
    // operation is replayed exactly as logged (CLRs included), and one
    // not ended by its batch's end keeps its forward LSNs as its undo
    // chain (unread if it ends later); a CLR's undone LSN leaves it ---
    let mut ended: HashMap<TxnId, bool> = HashMap::new();
    let mut chains: HashMap<TxnId, Vec<Lsn>> = HashMap::new();
    let mut compensated: HashSet<Lsn> = HashSet::new();
    let mut redone = 0usize;
    let mut cursor = log.tail(Lsn(1));
    while cursor.next_lsn() <= end {
        let from = cursor.next_lsn();
        let max = ((end.0 + 1 - from.0) as usize).min(REPLAY_BATCH);
        let (scanned, ops) = cursor.next_batch_where(log, max, |peek| {
            if let Some(txn) = peek.txn {
                *ended.entry(txn).or_default() |=
                    matches!(peek.kind, RecordKind::Commit | RecordKind::AbortEnd);
            }
            matches!(peek.kind, RecordKind::Op | RecordKind::Clr)
        })?;
        if scanned == 0 || cursor.next_lsn() != Lsn(from.0 + scanned as u64) {
            return Err(DbError::Internal(format!(
                "recovery replays the log from LSN 1 to {end}, but LSN {from} is no longer in it"
            )));
        }
        for (lsn, rec) in ops {
            let Some(op) = rec.op() else { continue };
            db.apply_logged(op, || Ok(lsn))?;
            redone += 1;
            match rec {
                LogRecord::Op { txn, .. } if !ended[&txn] => {
                    chains.entry(txn).or_default().push(lsn)
                }
                LogRecord::Clr { undone_lsn, .. } => {
                    compensated.insert(undone_lsn);
                }
                _ => {}
            }
        }
    }
    // Every id in the log stays taken: a transaction begun after the
    // restart must not pass for one of these in a later recovery.
    if let Some(max) = ended.keys().max() {
        db.reserve_txn_ids(*max);
    }

    // --- undo: each loser rolls back as a live transaction does ---
    let mut losers: Vec<TxnId> = ended
        .iter()
        .filter(|(_, done)| !**done)
        .map(|(id, _)| *id)
        .collect();
    losers.sort();
    let mut clrs_written = 0usize;
    for txn in &losers {
        let mut chain = chains.remove(txn).unwrap_or_default();
        chain.retain(|lsn| !compensated.contains(lsn));
        clrs_written += chain.len();
        db.undo_loser(*txn, chain)?;
    }
    log.flush()?;

    Ok(RecoveryReport {
        redone,
        losers,
        clrs_written,
    })
}

/// Replay a raw frame stream, as the file backend stores it, into `db`
/// (same preconditions as [`recover`]): load its whole frames into
/// `db`'s log, which must be empty
/// ([`LogManager::load_frames`](morph_wal::LogManager::load_frames)),
/// and [`recover`]. Kept as an alias because `benchmark/` calls it; a
/// restart onto a log file is `LogManager::with_file` and [`recover`].
pub fn recover_from_bytes(db: &Database, bytes: &[u8]) -> DbResult<RecoveryReport> {
    db.log().load_frames(bytes)?;
    recover(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::{ColumnType, DbError, Key, Schema, TableId, Value};
    use morph_txn::LockManagerConfig;
    use morph_wal::{LogManager, LogOp};
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
    /// holds `t` under `id`, not yet recovered.
    fn restarted(records: Vec<LogRecord>, id: TableId) -> Database {
        let db = Database::with_log(
            Arc::new(LogManager::with_records(records)),
            LockManagerConfig::default(),
        );
        db.catalog()
            .create_table_with_id(id, "t", schema())
            .unwrap();
        db
    }

    /// [`restarted`], recovered from its log.
    fn restart(records: Vec<LogRecord>, id: TableId) -> (Database, RecoveryReport) {
        let db = restarted(records, id);
        let report = recover(&db).unwrap();
        (db, report)
    }

    /// Run `work` against a fresh DB, then "crash": replay the log into
    /// a second DB with the same schema and return both.
    fn crash_and_recover(work: impl FnOnce(&Database)) -> (Database, Database, RecoveryReport) {
        let db1 = Database::new();
        let id = db1.create_table("t", schema()).unwrap().id();
        work(&db1);
        let (db2, report) = restart(log_of(&db1), id);
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
        let (db2, report) = restart(records, t.id());
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
        let (db3, report2) = restart(log_of(&db2), id);
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
        // Right after the loser's last op, the undo pass appended a CLR
        // per loser op (newest first) and AbortEnd.
        let log = db2.log().read_range(Lsn(1), usize::MAX);
        let tail: Vec<&LogRecord> = log.iter().rev().take(4).rev().map(|(_, r)| &**r).collect();
        assert!(matches!(
            tail[0],
            LogRecord::Op {
                op: LogOp::Delete { .. },
                ..
            }
        ));
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
        let db2 = Database::with_log(
            Arc::new(LogManager::with_records(log_of(&db1))),
            LockManagerConfig::default(),
        ); // no table created
        assert!(matches!(recover(&db2), Err(DbError::NoSuchTableId(_))));
    }

    /// Recovery needs the log from LSN 1: a log truncated past it is an
    /// error, not a replay of what is left.
    #[test]
    fn a_truncated_log_is_an_error() {
        let db1 = Database::new();
        let id = db1.create_table("t", schema()).unwrap().id();
        for key in 0..3 {
            let txn = db1.begin();
            db1.insert(txn, "t", row(key, "a")).unwrap();
            db1.commit(txn).unwrap();
        }
        let db = restarted(log_of(&db1), id);
        db.log().truncate_until(Lsn(3)).unwrap();
        let err = recover(&db).unwrap_err();
        assert!(
            matches!(err, DbError::Internal(ref m) if m.contains("LSN 1 ")),
            "got {err:?}"
        );
        assert!(table_state(&db).is_empty(), "nothing may be replayed");
    }

    /// The bytes alias loads into an empty log only, and a corrupt
    /// complete frame is an error before anything is replayed: a
    /// bogus record tag, and an `Op` whose header peeks cleanly but
    /// whose value tag is bogus.
    #[test]
    fn recover_from_bytes_needs_an_empty_log_and_whole_frames() {
        let (db1, db2, _report) = crash_and_recover(|db| {
            let txn = db.begin();
            db.insert(txn, "t", row(1, "a")).unwrap();
            db.commit(txn).unwrap();
        });
        let good = morph_wal::encode_stream(&log_of(&db1));
        assert!(matches!(
            recover_from_bytes(&db2, &good),
            Err(DbError::Internal(_))
        ));
        let id = db1.catalog().get("t").unwrap().id();
        let mut op = morph_wal::codec::encode(&LogRecord::Op {
            txn: TxnId(1),
            op: LogOp::Insert {
                table: id,
                row: vec![Value::Null],
            },
        })
        .to_vec();
        *op.last_mut().unwrap() = 250; // the value's tag
        assert!(morph_wal::codec::peek(&op).is_ok());
        for body in [vec![250], op] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&body); // a whole frame
            let db3 = Database::new();
            db3.catalog()
                .create_table_with_id(id, "t", schema())
                .unwrap();
            assert!(matches!(
                recover_from_bytes(&db3, &bytes),
                Err(DbError::CorruptLog { .. })
            ));
            assert!(table_state(&db3).is_empty());
            assert_eq!(db3.log().last_lsn(), Lsn::ZERO, "nothing is loaded");
        }
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
        let (db2, _report) = restart(records, t.id());
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
    /// left to compensate: recovery logs one AbortEnd for it and no CLR,
    /// and a second recovery finds no loser.
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

        let (db2, report) = restart(records.clone(), id);
        assert_eq!(report.losers, vec![txn]);
        assert_eq!(report.clrs_written, 0);
        assert_eq!(log_of(&db2)[records.len()..], [LogRecord::AbortEnd { txn }]);
        assert_eq!(table_state(&db2), vec![(Key::single(1), row(1, "keep"))]);

        let (db3, report) = restart(log_of(&db2), id);
        assert!(report.losers.is_empty());
        assert_eq!(table_state(&db3), table_state(&db2));
    }
}
