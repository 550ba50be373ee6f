//! Property tests of the log's one stored form: every record is kept
//! only as its codec bytes in a chunk slot (inline, or spilled when it
//! is longer than the slot's inline bytes), so each reader must decode
//! back exactly the appended record, and the backend must receive
//! exactly the bytes `codec::encode` gives, in LSN order.

mod strategies;

use morph_common::Lsn;
use morph_wal::{codec, Backend, LogManager, LogRecord};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use strategies::record_strategy;

/// Records per log chunk (`manager.rs`'s `CHUNK_RECORDS`): a cut past
/// it retires at least one whole chunk.
const CHUNK_RECORDS: usize = 256;

/// Every record from `from` on, read back three ways: one `read` per
/// LSN, one `read_range`, and a tail cursor in batches of 7.
fn assert_reads_back(
    log: &LogManager,
    recs: &[LogRecord],
    from: usize,
) -> Result<(), TestCaseError> {
    for (i, rec) in recs.iter().enumerate().skip(from - 1) {
        let lsn = Lsn(i as u64 + 1);
        let read = log.read(lsn);
        prop_assert_eq!(read.as_ref(), Some(rec));
    }
    let range = log.read_range(Lsn(1), usize::MAX);
    prop_assert_eq!(range.len(), recs.len() + 1 - from);
    for (lsn, rec) in &range {
        prop_assert_eq!(&**rec, &recs[lsn.0 as usize - 1]);
    }
    let mut cursor = log.tail(Lsn(from as u64));
    let mut next = from;
    loop {
        let batch = cursor.next_batch(log, 7);
        if batch.is_empty() {
            break;
        }
        for (lsn, rec) in batch {
            prop_assert_eq!(lsn, Lsn(next as u64));
            prop_assert_eq!(&*rec, &recs[next - 1]);
            next += 1;
        }
    }
    prop_assert_eq!(next, recs.len() + 1);
    Ok(())
}

/// A backend that keeps each appended frame body as it arrived.
struct Capture(Arc<Mutex<Vec<Vec<u8>>>>);

impl Backend for Capture {
    fn append(&mut self, encoded: &[u8]) {
        self.0.lock().push(encoded.to_vec());
    }

    fn flush(&mut self) -> morph_common::DbResult<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Records of every kind and size read back equal through `read`,
    /// `read_range` and a `TailCursor`; after a truncation that retires
    /// whole chunks, the retained ones still do, and so do records
    /// appended after it.
    #[test]
    fn every_reader_decodes_what_was_appended(
        recs in prop::collection::vec(record_strategy(), CHUNK_RECORDS * 2..CHUNK_RECORDS * 3),
        cut_frac in 0.0f64..1.0,
        more in prop::collection::vec(record_strategy(), 1..40),
    ) {
        let log = LogManager::new();
        for rec in &recs {
            log.append(rec.clone());
        }
        assert_reads_back(&log, &recs, 1)?;

        let cut = CHUNK_RECORDS + 2 + ((recs.len() - CHUNK_RECORDS - 2) as f64 * cut_frac) as usize;
        prop_assert_eq!(log.truncate_until(Lsn(cut as u64)).unwrap(), cut - 1);
        prop_assert!(log.read(Lsn(cut as u64 - 1)).is_none());
        assert_reads_back(&log, &recs, cut)?;

        let mut all = recs.clone();
        for rec in &more {
            log.append(rec.clone());
            all.push(rec.clone());
        }
        assert_reads_back(&log, &all, cut)?;
    }

    /// The bytes the backend receives are `codec::encode` of each
    /// record in LSN order: the drains a truncation forces and the
    /// drains of flushes alike hand over the slot's one stored form.
    #[test]
    fn backend_receives_the_codec_bytes_in_lsn_order(
        recs in prop::collection::vec(record_strategy(), CHUNK_RECORDS..CHUNK_RECORDS * 3),
        flush_every in 1usize..300,
    ) {
        let frames = Arc::new(Mutex::new(Vec::new()));
        let log = LogManager::with_backend(Box::new(Capture(Arc::clone(&frames))));
        for (i, rec) in recs.iter().enumerate() {
            log.append(rec.clone());
            if i % flush_every == 0 {
                log.flush().unwrap();
            }
            if i == CHUNK_RECORDS + 10 {
                // Retires the first chunk, draining what is left of it.
                log.truncate_until(Lsn(CHUNK_RECORDS as u64 + 5)).unwrap();
            }
        }
        log.flush().unwrap();
        let frames = frames.lock();
        prop_assert_eq!(frames.len(), recs.len());
        for (frame, rec) in frames.iter().zip(&recs) {
            prop_assert_eq!(&frame[..], &codec::encode(rec)[..]);
        }
    }
}
