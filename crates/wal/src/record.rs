//! Log record types.
//!
//! A [`LogOp`] is the physical, redoable description of one data
//! operation; a [`LogRecord`] wraps operations with the transaction
//! end records (`Commit`/`AbortEnd`), CLRs and consistency-checker
//! records that the transformation framework consumes. There is no
//! begin record: a transaction's first record is its first data
//! record, and one that wrote nothing logs nothing unless a cutover
//! census reported it (DESIGN.md §11). There is no fuzzy-mark record
//! either: the mark is an in-memory census of the registry.

use morph_common::{Key, Lsn, Schema, TableId, TxnId, Value};

/// Phase of a migration job's state machine (the orchestrator layer).
///
/// Persisted in [`LogRecord::MigrationState`] entries so a crashed
/// orchestrator can find the last durable state of every job. The
/// declaration order mirrors the paper's pipeline: prepare → fuzzy copy
/// → log propagation → synchronization → cutover, with `Aborted` as
/// the terminal failure state. It is not the order every job runs in:
/// a lazy job synchronizes before it copies (`Preparing → Syncing →
/// Copying → CutOver`), so a phase's rank says nothing about progress.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MigrationPhase {
    /// Spec accepted and registered; nothing executed yet.
    Planned,
    /// Preparation: target tables being created (§3.1).
    Preparing,
    /// Initial fuzzy population running (§3.2); for a lazy job, the
    /// backfill.
    Copying,
    /// Log propagation loop running (§3.3).
    Propagating,
    /// Synchronization step running (§3.4); for a lazy job, the
    /// cutover.
    Syncing,
    /// Stage complete: targets published, sources retired.
    CutOver,
    /// Job aborted; transformed tables dropped, locks released.
    Aborted,
}

impl MigrationPhase {
    /// Stable wire tag (WAL codec byte).
    pub fn as_u8(self) -> u8 {
        match self {
            MigrationPhase::Planned => 0,
            MigrationPhase::Preparing => 1,
            MigrationPhase::Copying => 2,
            MigrationPhase::Propagating => 3,
            MigrationPhase::Syncing => 4,
            MigrationPhase::CutOver => 5,
            MigrationPhase::Aborted => 6,
        }
    }

    /// Inverse of [`MigrationPhase::as_u8`]; `None` on unknown tags
    /// (the codec maps that to `CorruptLog`).
    pub fn from_u8(tag: u8) -> Option<MigrationPhase> {
        Some(match tag {
            0 => MigrationPhase::Planned,
            1 => MigrationPhase::Preparing,
            2 => MigrationPhase::Copying,
            3 => MigrationPhase::Propagating,
            4 => MigrationPhase::Syncing,
            5 => MigrationPhase::CutOver,
            6 => MigrationPhase::Aborted,
            _ => return None,
        })
    }

    /// Human-readable name (progress output, traces).
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Planned => "planned",
            MigrationPhase::Preparing => "preparing",
            MigrationPhase::Copying => "copying",
            MigrationPhase::Propagating => "propagating",
            MigrationPhase::Syncing => "syncing",
            MigrationPhase::CutOver => "cutover",
            MigrationPhase::Aborted => "aborted",
        }
    }
}

/// A physical data operation, carrying enough for both redo (new
/// image) and undo (old image).
///
/// Updates store *only the changed columns* — the paper leans on this
/// in §4.2: "Update log records are less informative since they
/// typically contain the primary key and updated attribute values
/// only", which is why FOJ propagation rules 5–7 must reconstruct
/// missing attribute values from the transformed table itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogOp {
    /// A full row was inserted.
    Insert {
        /// Target table.
        table: TableId,
        /// Complete row image.
        row: Vec<Value>,
    },
    /// A row was deleted. `old` is the full pre-image (needed to undo).
    Delete {
        /// Target table.
        table: TableId,
        /// Primary key of the deleted row.
        key: Key,
        /// Full pre-image of the deleted row.
        old: Vec<Value>,
    },
    /// Some columns of a row changed. `old`/`new` list `(column
    /// position, value)` pairs for exactly the changed columns.
    Update {
        /// Target table.
        table: TableId,
        /// Primary key of the updated row (pre-update key).
        key: Key,
        /// Changed columns, pre-update values.
        old: Vec<(usize, Value)>,
        /// Changed columns, post-update values.
        new: Vec<(usize, Value)>,
    },
}

impl LogOp {
    /// The table this operation touches.
    pub fn table(&self) -> TableId {
        match self {
            LogOp::Insert { table, .. }
            | LogOp::Delete { table, .. }
            | LogOp::Update { table, .. } => *table,
        }
    }

    /// The compensation of this forward operation, as a rollback
    /// executes and logs it in a CLR: an insert undoes to a delete at
    /// the row's key, a delete to an insert of its pre-image, and an
    /// update to the swapped column lists at its post-image key (which
    /// differs from the logged key when primary-key columns changed).
    #[must_use]
    pub fn undo(&self, schema: &Schema) -> LogOp {
        match self {
            LogOp::Insert { table, row } => LogOp::Delete {
                table: *table,
                key: schema.key_of(row),
                old: row.clone(),
            },
            LogOp::Delete { table, old, .. } => LogOp::Insert {
                table: *table,
                row: old.clone(),
            },
            LogOp::Update {
                table,
                key,
                old,
                new,
            } => {
                let mut post = key.clone();
                for (kpos, col) in schema.pkey().iter().enumerate() {
                    if let Some((_, v)) = new.iter().find(|(i, _)| i == col) {
                        post.0[kpos] = v.clone();
                    }
                }
                LogOp::Update {
                    table: *table,
                    key: post,
                    old: new.clone(),
                    new: old.clone(),
                }
            }
        }
    }
}

/// One record of the write-ahead log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord {
    /// Transaction committed. The log propagator releases the
    /// transaction's mirrored locks on transformed tables when it
    /// processes this record (§4.3).
    Commit { txn: TxnId },
    /// Transaction rollback *finished* — the "transaction aborted log
    /// record" of §3.4, logged after the rollback's CLRs: the propagator releases the transaction's locks
    /// in the transformed tables when it encounters this.
    AbortEnd { txn: TxnId },
    /// A forward data operation executed under `txn`.
    Op { txn: TxnId, op: LogOp },
    /// Compensating Log Record: during rollback, `undone_lsn` was
    /// undone by physically executing `op`, its forward op's
    /// [`LogOp::undo`].
    /// Redoing a CLR re-executes the compensation, which is what makes
    /// fuzzy-copy repair purely forward (§2.2).
    Clr {
        txn: TxnId,
        /// LSN of the forward record this CLR compensates.
        undone_lsn: Lsn,
        /// The physical compensation that was executed.
        op: LogOp,
    },
    /// Consistency checker (§5.3): CC started examining the S-record
    /// with the given split-key.
    CcBegin { split_key: Key },
    /// Consistency checker: the T-rows contributing to `split_key`
    /// agreed, and their common image is `image`. The propagator
    /// upgrades the S-record's flag to Consistent iff nothing touched
    /// it between `CcBegin` and this record.
    CcOk { split_key: Key, image: Vec<Value> },
    /// Orchestrator state transition: migration job `job` reached
    /// `phase` while executing pipeline stage `stage`. `spec` is the
    /// job's declarative text form (`ALTER TABLE …`), logged on every
    /// transition so the latest record alone is enough to resume.
    ///
    /// Deliberately transparent to data redo: `op()` returns `None`
    /// and recovery's analysis pass skips it. Transformations themselves are not redo-logged (§3.5);
    /// an interrupted job restarts from preparation, and this record
    /// only tells the restarted orchestrator *which* jobs to restart
    /// (or, for `Aborted`, to leave dead).
    MigrationState {
        /// Orchestrator-assigned job id (unique per log lifetime).
        job: u64,
        /// Zero-based pipeline stage index within the job.
        stage: u32,
        /// The phase just entered.
        phase: MigrationPhase,
        /// The job's declarative spec text (re-parsed at resume).
        spec: String,
    },
}

/// The variant of a [`LogRecord`], without its payload: what
/// [`codec::peek`](crate::codec::peek) reads from the tag byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordKind {
    Commit,
    AbortEnd,
    Op,
    Clr,
    CcBegin,
    CcOk,
    MigrationState,
}

impl LogRecord {
    /// This record's variant.
    pub fn kind(&self) -> RecordKind {
        match self {
            LogRecord::Commit { .. } => RecordKind::Commit,
            LogRecord::AbortEnd { .. } => RecordKind::AbortEnd,
            LogRecord::Op { .. } => RecordKind::Op,
            LogRecord::Clr { .. } => RecordKind::Clr,
            LogRecord::CcBegin { .. } => RecordKind::CcBegin,
            LogRecord::CcOk { .. } => RecordKind::CcOk,
            LogRecord::MigrationState { .. } => RecordKind::MigrationState,
        }
    }

    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Commit { txn }
            | LogRecord::AbortEnd { txn }
            | LogRecord::Op { txn, .. }
            | LogRecord::Clr { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// The data operation inside, if this is an `Op` or `Clr` record.
    /// CLRs are deliberately transparent here: the propagator redoes
    /// them exactly like forward operations.
    pub fn op(&self) -> Option<&LogOp> {
        match self {
            LogRecord::Op { op, .. } | LogRecord::Clr { op, .. } => Some(op),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::ColumnType;

    fn sample_update() -> LogOp {
        LogOp::Update {
            table: TableId(3),
            key: Key::single(7),
            old: vec![(1, Value::str("a"))],
            new: vec![(1, Value::str("b"))],
        }
    }

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .column("val", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn undo_of_insert_is_a_delete_at_the_rows_key() {
        let row = vec![Value::Int(4), Value::str("x")];
        let op = LogOp::Insert {
            table: TableId(1),
            row: row.clone(),
        };
        assert_eq!(
            op.undo(&schema()),
            LogOp::Delete {
                table: TableId(1),
                key: Key::single(4),
                old: row,
            }
        );
    }

    #[test]
    fn undo_of_update_swaps_images() {
        match sample_update().undo(&schema()) {
            LogOp::Update { key, old, new, .. } => {
                assert_eq!(key, Key::single(7));
                assert_eq!(old, vec![(1, Value::str("b"))]);
                assert_eq!(new, vec![(1, Value::str("a"))]);
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    /// An update that moves the primary key undoes at the row's
    /// post-image key, moving it back.
    #[test]
    fn undo_of_a_key_moving_update_targets_the_post_image_key() {
        let op = LogOp::Update {
            table: TableId(3),
            key: Key::single(7),
            old: vec![(0, Value::Int(7)), (1, Value::str("a"))],
            new: vec![(0, Value::Int(9)), (1, Value::str("b"))],
        };
        assert_eq!(
            op.undo(&schema()),
            LogOp::Update {
                table: TableId(3),
                key: Key::single(9),
                old: vec![(0, Value::Int(9)), (1, Value::str("b"))],
                new: vec![(0, Value::Int(7)), (1, Value::str("a"))],
            }
        );
        assert_eq!(op.undo(&schema()).undo(&schema()), op);
    }

    #[test]
    fn undo_roundtrips_for_updates_and_deletes() {
        let s = schema();
        let op = sample_update();
        assert_eq!(op.undo(&s).undo(&s), op);
        let delete = LogOp::Delete {
            table: TableId(1),
            key: Key::single(1),
            old: vec![Value::Int(1), Value::str("x")],
        };
        assert_eq!(
            delete.undo(&s),
            LogOp::Insert {
                table: TableId(1),
                row: vec![Value::Int(1), Value::str("x")],
            }
        );
        assert_eq!(delete.undo(&s).undo(&s), delete);
    }

    #[test]
    fn record_accessors() {
        let rec = LogRecord::Op {
            txn: TxnId(5),
            op: sample_update(),
        };
        assert_eq!(rec.txn(), Some(TxnId(5)));
        assert!(rec.op().is_some());

        let commit = LogRecord::Commit { txn: TxnId(5) };
        assert_eq!(commit.txn(), Some(TxnId(5)));
        assert!(commit.op().is_none());

        let cc = LogRecord::CcBegin {
            split_key: Key::single(10),
        };
        assert_eq!(cc.txn(), None);
    }

    #[test]
    fn migration_state_is_transparent_to_redo_accessors() {
        let rec = LogRecord::MigrationState {
            job: 3,
            stage: 1,
            phase: MigrationPhase::Propagating,
            spec: "ALTER TABLE t SPLIT INTO r (a) AND s (c -> d)".into(),
        };
        assert_eq!(rec.txn(), None);
        assert!(rec.op().is_none());
    }

    #[test]
    fn migration_phase_tags_roundtrip() {
        for phase in [
            MigrationPhase::Planned,
            MigrationPhase::Preparing,
            MigrationPhase::Copying,
            MigrationPhase::Propagating,
            MigrationPhase::Syncing,
            MigrationPhase::CutOver,
            MigrationPhase::Aborted,
        ] {
            assert_eq!(MigrationPhase::from_u8(phase.as_u8()), Some(phase));
        }
        assert_eq!(MigrationPhase::from_u8(7), None);
    }

    #[test]
    fn clr_is_transparent_to_op_accessor() {
        let rec = LogRecord::Clr {
            txn: TxnId(9),
            undone_lsn: Lsn(4),
            op: sample_update(),
        };
        assert_eq!(rec.op(), Some(&sample_update()));
    }
}
