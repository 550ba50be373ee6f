//! Property tests of the log-record codec: every representable record
//! round-trips, [`codec::peek`] agrees with the full decode, and no
//! byte-level corruption can cause a panic (only `CorruptLog` errors).

mod strategies;

use morph_wal::codec;
use proptest::prelude::*;
use strategies::record_strategy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip(rec in record_strategy()) {
        let bytes = codec::encode(&rec);
        let back = codec::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, rec);
    }

    /// The fixed-offset peek reads the same kind, transaction and
    /// table as the full decode, for every record kind.
    #[test]
    fn peek_agrees_with_decode(rec in record_strategy()) {
        let peek = codec::peek(&codec::encode(&rec)).expect("peek own encoding");
        prop_assert_eq!(peek.kind, rec.kind());
        prop_assert_eq!(peek.txn, rec.txn());
        prop_assert_eq!(peek.table, rec.op().map(|op| op.table()));
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
