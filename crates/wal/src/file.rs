//! The on-disk frame format and its backends.
//!
//! Each record is stored as one frame: a `u32` little-endian length
//! prefix, then the encoded body (see [`crate::codec`]). This module
//! owns both directions of that format: `write_frame` is its one
//! writer, used by every [`Backend`], and `frames` its one reader, a
//! walker that yields each whole frame's body, checked in full. Every
//! restart loads those bodies into the log's slots through
//! [`LogManager::load_frames`](crate::LogManager::load_frames):
//! [`LogManager::with_file`](crate::LogManager::with_file) reopening a
//! file, the crash simulator loading the fault backend's surviving
//! image, and `recover_from_bytes`. [`decode_stream`], for tests, maps
//! the codec's decode over the same walker. A final frame whose prefix
//! promises more bytes than exist is a torn tail (a crash mid-append):
//! it is ignored, the standard WAL recovery convention, and a reopened
//! file is cut back to its last whole frame before anything is
//! appended after it. A complete frame with a corrupt body is an
//! error.
//!
//! Appends are buffered; [`flush`] (called by the engine at commit)
//! pushes bytes to the OS and syncs. The [`Backend`] trait abstracts
//! the byte sink so the deterministic crash harness can substitute an
//! in-memory, fault-injecting implementation
//! ([`crate::fault::FaultBackend`]) for the real file.
//!
//! [`flush`]: Backend::flush

use crate::codec;
use crate::record::LogRecord;
use morph_common::{DbError, DbResult};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// A byte sink for encoded log records. `append` buffers; `flush`
/// makes everything appended so far durable (or reports why it
/// cannot). Implementations must never lose *flushed* bytes.
pub trait Backend {
    /// Buffer one encoded record as one frame. Errors
    /// are deferred: the in-memory log is the source of truth until a
    /// commit forces durability via [`Backend::flush`].
    fn append(&mut self, encoded: &[u8]);

    /// Push buffered bytes to durable storage. Surfaces any error
    /// deferred from earlier appends.
    fn flush(&mut self) -> DbResult<()>;
}

/// Write one frame, the length prefix and then `body`, to `out`.
pub(crate) fn write_frame(out: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    out.write_all(&(body.len() as u32).to_le_bytes())?;
    out.write_all(body)
}

/// Encode `records` as a frame stream, the inverse of [`decode_stream`].
pub fn encode_stream(records: &[LogRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for rec in records {
        // morph-lint: allow(panic, writing into a Vec cannot fail)
        write_frame(&mut bytes, &codec::encode(rec)).expect("Vec write");
    }
    bytes
}

/// Decode a frame stream into its records, tolerating a torn tail: a
/// final frame whose length prefix promises more bytes than exist is
/// ignored (crash mid-append), but a complete frame with a corrupt
/// body is a [`DbError::CorruptLog`] whose offset counts from the start
/// of `bytes`.
pub fn decode_stream(bytes: &[u8]) -> DbResult<Vec<LogRecord>> {
    frames(bytes)?.0.into_iter().map(codec::decode).collect()
}

/// Walk a frame stream: the body of every whole frame, in order, and
/// the length of those frames, which is the offset a torn tail starts
/// at, or `bytes.len()`. Each body is checked in full by decoding it,
/// and the record is dropped at once: the bytes come from outside the
/// process, and a body that only peeks cleanly would reach the live
/// log and fail its first reader instead of the load.
pub(crate) fn frames(bytes: &[u8]) -> DbResult<(Vec<&[u8]>, usize)> {
    let mut bodies = Vec::new();
    let mut pos = 0usize;
    while let Some(&[a, b, c, d]) = bytes.get(pos..pos + 4) {
        let start = pos + 4;
        let Some(body) = bytes.get(start..start + u32::from_le_bytes([a, b, c, d]) as usize) else {
            break; // torn final frame: stop here
        };
        codec::decode(body).map_err(|e| match e {
            DbError::CorruptLog { offset, detail } => DbError::CorruptLog {
                offset: start as u64 + offset,
                detail,
            },
            other => other,
        })?;
        bodies.push(body);
        pos = start + body.len();
    }
    Ok((bodies, pos))
}

/// Append-only log file.
pub struct FileBackend {
    writer: BufWriter<File>,
    /// First write error since the last successful flush. Buffered
    /// appends may not touch the OS at all, so a failed `write_all`
    /// must be remembered and surfaced at the next [`flush`] — the
    /// point where the engine actually depends on durability.
    ///
    /// [`flush`]: Backend::flush
    deferred: Option<DbError>,
}

impl FileBackend {
    /// Open (or create) the log file at `path` for appending after
    /// whatever it holds. To reopen a log, use
    /// [`LogManager::with_file`](crate::LogManager::with_file), which
    /// loads the records and cuts a torn tail first.
    pub fn open(path: &Path) -> DbResult<FileBackend> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FileBackend {
            writer: BufWriter::new(file),
            deferred: None,
        })
    }
}

impl Backend for FileBackend {
    /// Buffer one encoded record.
    fn append(&mut self, encoded: &[u8]) {
        let res = write_frame(&mut self.writer, encoded);
        if let (Err(e), None) = (res, &self.deferred) {
            // Sticky: keep the *first* failure; later appends into a
            // wedged buffer would only report follow-on noise.
            self.deferred = Some(DbError::Io(e.to_string()));
        }
    }

    /// Push buffered bytes to the OS and fsync. Surfaces any write
    /// error deferred from a buffered append.
    fn flush(&mut self) -> DbResult<()> {
        if let Some(e) = self.deferred.take() {
            // Reinstate: the log tail is still unwritten, so the next
            // flush must fail too until the caller gives up.
            self.deferred = Some(e.clone());
            return Err(e);
        }
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogOp;
    use crate::LogManager;
    use morph_common::{Lsn, TableId, TxnId, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("morphwal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Every record of `log`, from LSN 1.
    fn records(log: &LogManager) -> Vec<LogRecord> {
        log.read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(_, r)| (*r).clone())
            .collect()
    }

    #[test]
    fn roundtrip_through_file() {
        let path = tmp("roundtrip");
        {
            let mut be = FileBackend::open(&path).unwrap();
            for i in 0..5 {
                be.append(&codec::encode(&LogRecord::Commit { txn: TxnId(i) }));
            }
            be.flush().unwrap();
        }
        let recs = records(&LogManager::with_file(&path).unwrap());
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4], LogRecord::Commit { txn: TxnId(4) });
        std::fs::remove_file(&path).unwrap();
    }

    /// A torn final frame is ignored, and reopening cuts it off the
    /// file, so the next append starts a frame of its own.
    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn");
        {
            let mut be = FileBackend::open(&path).unwrap();
            be.append(&codec::encode(&LogRecord::Commit { txn: TxnId(1) }));
            be.flush().unwrap();
        }
        let whole = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a length prefix promising more
        // bytes than exist.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&(1000u32).to_le_bytes()).unwrap();
            f.write_all(&[1, 2, 3]).unwrap();
        }
        let log = LogManager::with_file(&path).unwrap();
        assert_eq!(records(&log), vec![LogRecord::Commit { txn: TxnId(1) }]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        std::fs::remove_file(&path).unwrap();
    }

    /// A complete frame with a corrupt body fails the reopen and
    /// leaves the file as it was: a bogus record tag, and an `Op` whose
    /// header peeks cleanly but whose value tag is bogus, since loading
    /// checks whole bodies, not headers.
    #[test]
    fn corrupt_body_is_an_error() {
        let mut op = codec::encode(&LogRecord::Op {
            txn: TxnId(1),
            op: LogOp::Insert {
                table: TableId(1),
                row: vec![Value::Null],
            },
        })
        .to_vec();
        *op.last_mut().unwrap() = 250; // the value's tag
        assert!(codec::peek(&op).is_ok());
        for body in [vec![250], op] {
            let path = tmp("corrupt");
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &body).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                LogManager::with_file(&path),
                Err(DbError::CorruptLog { .. })
            ));
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A missing file is created and holds no records; a path that
    /// cannot be opened is an I/O error.
    #[test]
    fn missing_file_starts_empty_and_an_unopenable_path_is_io_error() {
        let path = tmp("never-created");
        let log = LogManager::with_file(&path).unwrap();
        assert_eq!(log.last_lsn(), Lsn::ZERO);
        assert!(path.exists());
        std::fs::remove_file(&path).unwrap();
        let orphan = tmp("no-such-dir").join("log");
        assert!(matches!(
            LogManager::with_file(&orphan),
            Err(DbError::Io(_))
        ));
    }

    #[test]
    fn manager_with_file_persists() {
        let path = tmp("manager");
        {
            let log = LogManager::with_file(&path).unwrap();
            log.append(LogRecord::Commit { txn: TxnId(8) });
            log.append(LogRecord::Commit { txn: TxnId(9) });
            log.flush().unwrap();
        }
        assert_eq!(
            decode_stream(&std::fs::read(&path).unwrap()).unwrap(),
            vec![
                LogRecord::Commit { txn: TxnId(8) },
                LogRecord::Commit { txn: TxnId(9) }
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_offset_counts_from_the_stream_start() {
        let mut bytes = encode_stream(&[LogRecord::Commit { txn: TxnId(1) }]);
        let good = bytes.len() as u64;
        write_frame(&mut bytes, &[250]).unwrap(); // bogus tag
        match decode_stream(&bytes) {
            // The bad tag is read from the second body's first byte
            // (after its 4-byte prefix); the reader reports the
            // position just past it.
            Err(DbError::CorruptLog { offset, .. }) => assert_eq!(offset, good + 4 + 1),
            other => panic!("expected CorruptLog, got {other:?}"),
        }
    }

    #[test]
    fn write_error_is_sticky_and_surfaces_at_flush() {
        // A file opened read-only makes every buffered write fail once
        // the BufWriter spills; use a tiny buffer via many appends to
        // force the spill, then check flush reports the deferred error
        // and keeps reporting it.
        let path = tmp("sticky");
        std::fs::write(&path, b"").unwrap();
        let file = File::open(&path).unwrap(); // read-only handle
        let mut be = FileBackend {
            writer: BufWriter::with_capacity(8, file),
            deferred: None,
        };
        let rec = codec::encode(&LogRecord::Commit { txn: TxnId(1) });
        for _ in 0..64 {
            be.append(&rec); // spills the 8-byte buffer → write fails
        }
        assert!(matches!(be.flush(), Err(DbError::Io(_))));
        // Sticky: a second flush must not silently succeed.
        assert!(matches!(be.flush(), Err(DbError::Io(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
