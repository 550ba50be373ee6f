//! Property tests of the log-record codec: every representable record
//! round-trips, and no byte-level corruption can cause a panic (only
//! `CorruptLog` errors).

use morph_common::{Key, Lsn, TableId, TxnId, Value};
use morph_wal::{codec, LogOp, LogRecord};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        ".{0,12}".prop_map(Value::Str),
    ]
}

fn values_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), 0..6)
}

fn cols_strategy() -> impl Strategy<Value = Vec<(usize, Value)>> {
    prop::collection::vec((0usize..16, value_strategy()), 0..5)
}

fn op_strategy() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        (any::<u32>(), values_strategy()).prop_map(|(t, row)| LogOp::Insert {
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

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Begin { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Abort { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::AbortEnd { txn: TxnId(t) }),
        (any::<u64>(), op_strategy()).prop_map(|(t, op)| LogRecord::Op { txn: TxnId(t), op }),
        (any::<u64>(), any::<u64>(), op_strategy()).prop_map(|(t, l, op)| LogRecord::Clr {
            txn: TxnId(t),
            undone_lsn: Lsn(l),
            op,
        }),
        (prop::collection::vec(any::<u64>(), 0..8), any::<u64>()).prop_map(|(a, l)| {
            LogRecord::FuzzyMark {
                active: a.into_iter().map(TxnId).collect(),
                start_lsn: Lsn(l),
            }
        }),
        values_strategy().prop_map(|k| LogRecord::CcBegin { split_key: Key(k) }),
        (values_strategy(), values_strategy()).prop_map(|(k, image)| LogRecord::CcOk {
            split_key: Key(k),
            image,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip(rec in record_strategy()) {
        let bytes = codec::encode(&rec);
        let back = codec::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, rec);
    }

    /// Arbitrary mutations of valid encodings never panic — they either
    /// decode to *some* record or fail cleanly.
    #[test]
    fn corruption_never_panics(
        rec in record_strategy(),
        pos_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut bytes = codec::encode(&rec).to_vec();
        if !bytes.is_empty() {
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] = byte;
        }
        let _ = codec::decode(&bytes); // must not panic
    }

    /// Truncations fail cleanly at every cut point.
    #[test]
    fn truncation_never_panics(rec in record_strategy(), cut_frac in 0.0f64..1.0) {
        let bytes = codec::encode(&rec);
        let cut = ((bytes.len()) as f64 * cut_frac) as usize;
        let _ = codec::decode(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
    }
}
