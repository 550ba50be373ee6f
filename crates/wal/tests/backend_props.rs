//! Property tests of the on-disk log stream: a crash can cut the file
//! at *any* byte offset (torn final write, lost unsynced tail), and
//! recovery must treat whatever is left as a clean prefix of the
//! record sequence — never panic, never error, never resurrect a
//! record that was not fully written.

use morph_common::{Lsn, TableId, TxnId, Value};
use morph_wal::{
    codec, decode_stream, encode_stream, Backend, FileBackend, LogManager, LogOp, LogRecord,
};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        (any::<u64>(), any::<u32>(), ".{0,20}").prop_map(|(t, table, s)| LogRecord::Op {
            txn: TxnId(t),
            op: LogOp::Insert {
                table: TableId(table),
                row: vec![Value::Int(t as i64), Value::Str(s)],
            },
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exhaustive over cut offsets: truncating the stream anywhere
    /// yields `Ok` with a strict prefix of the original records.
    #[test]
    fn truncation_at_every_byte_yields_a_clean_prefix(
        recs in prop::collection::vec(record_strategy(), 0..8),
    ) {
        let bytes = encode_stream(&recs);
        for cut in 0..=bytes.len() {
            let decoded = decode_stream(&bytes[..cut])
                .expect("torn tail must decode as a prefix, not an error");
            prop_assert!(decoded.len() <= recs.len());
            prop_assert_eq!(&decoded[..], &recs[..decoded.len()]);
            // A record is only resurrected once its whole frame is in.
            let whole = encode_stream(&recs[..decoded.len()]).len();
            prop_assert!(cut >= whole);
            if decoded.len() < recs.len() {
                let next = encode_stream(&recs[..decoded.len() + 1]).len();
                prop_assert!(cut < next);
            }
        }
    }
}

/// The same guarantee end-to-end through a real file: write frames via
/// the `FileBackend`, truncate the file at every byte offset, and
/// `LogManager::with_file` must load the clean prefix every time, cut
/// the file back to that prefix's frames, and give the next record the
/// next LSN.
#[test]
fn with_file_survives_truncation_at_every_offset() {
    let recs: Vec<LogRecord> = (0..5)
        .map(|i| LogRecord::Op {
            txn: TxnId(i),
            op: LogOp::Insert {
                table: TableId(7),
                row: vec![Value::Int(i as i64), Value::str(format!("r{i}"))],
            },
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("morph-wal-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.wal");
    {
        let mut backend = FileBackend::open(&full).unwrap();
        for rec in &recs {
            Backend::append(&mut backend, &codec::encode(rec));
        }
        Backend::flush(&mut backend).unwrap();
    }
    let bytes = std::fs::read(&full).unwrap();

    for cut in 0..=bytes.len() {
        let torn = dir.join("torn.wal");
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let log = LogManager::with_file(&torn).unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        let decoded: Vec<LogRecord> = log
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect();
        assert_eq!(&decoded[..], &recs[..decoded.len()], "cut at byte {cut}");
        let whole = encode_stream(&decoded).len();
        assert_eq!(
            std::fs::metadata(&torn).unwrap().len(),
            whole as u64,
            "cut at byte {cut}: torn tail left on the file"
        );
        let next = LogRecord::Commit { txn: TxnId(99) };
        assert_eq!(log.append(next.clone()), Lsn(decoded.len() as u64 + 1));
        log.flush().unwrap();
        let mut want = decoded;
        want.push(next);
        assert_eq!(
            decode_stream(&std::fs::read(&torn).unwrap()).unwrap(),
            want,
            "cut at byte {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
