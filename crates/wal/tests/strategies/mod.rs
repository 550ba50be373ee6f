//! Record strategies shared by the WAL's property tests: every record
//! kind, with values, rows and migration specs both shorter and longer
//! than a log slot's inline bytes.

use morph_common::{Key, Lsn, TableId, TxnId, Value};
use morph_wal::{LogOp, LogRecord, MigrationPhase};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        ".{0,12}".prop_map(Value::Str),
        // Longer than a log slot's inline bytes on its own.
        ".{90,200}".prop_map(Value::Str),
    ]
}

fn values_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), 0..6)
}

/// A wide row: up to 24 columns, long strings among them.
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), 0..24)
}

fn cols_strategy() -> impl Strategy<Value = Vec<(usize, Value)>> {
    prop::collection::vec((0usize..16, value_strategy()), 0..5)
}

fn op_strategy() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        (any::<u32>(), row_strategy()).prop_map(|(t, row)| LogOp::Insert {
            table: TableId(t),
            row,
        }),
        (any::<u32>(), values_strategy(), values_strategy()).prop_map(|(t, k, old)| {
            LogOp::Delete {
                table: TableId(t),
                key: Key(k),
                old,
            }
        }),
        (
            any::<u32>(),
            values_strategy(),
            cols_strategy(),
            cols_strategy()
        )
            .prop_map(|(t, k, old, new)| LogOp::Update {
                table: TableId(t),
                key: Key(k),
                old,
                new,
            }),
    ]
}

pub fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::AbortEnd { txn: TxnId(t) }),
        (any::<u64>(), op_strategy()).prop_map(|(t, op)| LogRecord::Op { txn: TxnId(t), op }),
        (any::<u64>(), any::<u64>(), op_strategy()).prop_map(|(t, l, op)| LogRecord::Clr {
            txn: TxnId(t),
            undone_lsn: Lsn(l),
            op,
        }),
        values_strategy().prop_map(|k| LogRecord::CcBegin { split_key: Key(k) }),
        (values_strategy(), values_strategy()).prop_map(|(k, image)| LogRecord::CcOk {
            split_key: Key(k),
            image,
        }),
        (any::<u64>(), any::<u32>(), 0u8..7, ".{0,400}").prop_map(|(job, stage, p, spec)| {
            LogRecord::MigrationState {
                job,
                stage,
                phase: MigrationPhase::from_u8(p).unwrap(),
                spec,
            }
        }),
    ]
}
