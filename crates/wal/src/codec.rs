//! Binary codec for log records.
//!
//! A small, hand-rolled, length-transparent binary format built on the
//! [`bytes`] crate. Layout is tag-prefixed and little-endian
//! throughout; strings are UTF-8 with a `u32` length prefix. The codec
//! is total on the encode side and returns [`DbError::CorruptLog`] on
//! any malformed input rather than panicking.
//!
//! There is one decoded form, the owned [`LogRecord`] that the log,
//! propagation and restart recovery all use: [`decode`] builds it
//! directly from the bytes. These bytes are also the one form the log
//! keeps a record in (DESIGN.md §11), so [`peek`] reads a record's
//! kind, transaction and table from fixed offsets without decoding
//! the rest. The frame around each encoded record (its length prefix)
//! belongs to [`crate::file`].

use crate::record::{LogOp, LogRecord, MigrationPhase, RecordKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use morph_common::{DbError, DbResult, Key, Lsn, TableId, TxnId, Value};

// Record tags. Tags 1, 3, 7 and 10 were the begin, abort, fuzzy-mark
// and checkpoint records, which no reader consumed; they stay
// unassigned so a log written with them never decodes as another record.
const T_COMMIT: u8 = 2;
const T_ABORT_END: u8 = 4;
const T_OP: u8 = 5;
const T_CLR: u8 = 6;
const T_CC_BEGIN: u8 = 8;
const T_CC_OK: u8 = 9;
const T_MIGRATION: u8 = 11;

// Op tags.
const O_INSERT: u8 = 1;
const O_DELETE: u8 = 2;
const O_UPDATE: u8 = 3;

// Value tags.
const V_NULL: u8 = 0;
const V_INT: u8 = 1;
const V_STR: u8 = 2;

/// Encode a record into a freshly allocated buffer.
pub fn encode(rec: &LogRecord) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    encode_into(rec, &mut b);
    b.freeze()
}

/// Encode a record, appending to `b`.
pub fn encode_into(rec: &LogRecord, b: &mut impl BufMut) {
    match rec {
        LogRecord::Commit { txn } => {
            b.put_u8(T_COMMIT);
            b.put_u64_le(txn.0);
        }
        LogRecord::AbortEnd { txn } => {
            b.put_u8(T_ABORT_END);
            b.put_u64_le(txn.0);
        }
        LogRecord::Op { txn, op } => {
            b.put_u8(T_OP);
            b.put_u64_le(txn.0);
            encode_op(op, b);
        }
        LogRecord::Clr {
            txn,
            undone_lsn,
            op,
        } => {
            b.put_u8(T_CLR);
            b.put_u64_le(txn.0);
            b.put_u64_le(undone_lsn.0);
            encode_op(op, b);
        }
        LogRecord::CcBegin { split_key } => {
            b.put_u8(T_CC_BEGIN);
            encode_values(&split_key.0, b);
        }
        LogRecord::CcOk { split_key, image } => {
            b.put_u8(T_CC_OK);
            encode_values(&split_key.0, b);
            encode_values(image, b);
        }
        LogRecord::MigrationState {
            job,
            stage,
            phase,
            spec,
        } => {
            b.put_u8(T_MIGRATION);
            b.put_u64_le(*job);
            b.put_u32_le(*stage);
            b.put_u8(phase.as_u8());
            b.put_u32_le(spec.len() as u32);
            b.put_slice(spec.as_bytes());
        }
    }
}

fn encode_op(op: &LogOp, b: &mut impl BufMut) {
    match op {
        LogOp::Insert { table, row } => {
            b.put_u8(O_INSERT);
            b.put_u32_le(table.0);
            encode_values(row, b);
        }
        LogOp::Delete { table, key, old } => {
            b.put_u8(O_DELETE);
            b.put_u32_le(table.0);
            encode_values(&key.0, b);
            encode_values(old, b);
        }
        LogOp::Update {
            table,
            key,
            old,
            new,
        } => {
            b.put_u8(O_UPDATE);
            b.put_u32_le(table.0);
            encode_values(&key.0, b);
            encode_cols(old, b);
            encode_cols(new, b);
        }
    }
}

fn encode_values(vals: &[Value], b: &mut impl BufMut) {
    b.put_u32_le(vals.len() as u32);
    for v in vals {
        encode_value(v, b);
    }
}

fn encode_cols(cols: &[(usize, Value)], b: &mut impl BufMut) {
    b.put_u32_le(cols.len() as u32);
    for (i, v) in cols {
        b.put_u32_le(*i as u32);
        encode_value(v, b);
    }
}

fn encode_value(v: &Value, b: &mut impl BufMut) {
    match v {
        Value::Null => b.put_u8(V_NULL),
        Value::Int(i) => {
            b.put_u8(V_INT);
            b.put_i64_le(*i);
        }
        Value::Str(s) => {
            b.put_u8(V_STR);
            b.put_u32_le(s.len() as u32);
            b.put_slice(s.as_bytes());
        }
    }
}

/// A record's kind, transaction and table, read without decoding it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Peek {
    /// The record's variant.
    pub kind: RecordKind,
    /// [`LogRecord::txn`].
    pub txn: Option<TxnId>,
    /// The table of an `Op` or `Clr` record's operation.
    pub table: Option<TableId>,
}

/// Read the [`Peek`] of an encoded record from fixed offsets: the tag
/// at byte 0, a transaction id at byte 1, and an operation's table at
/// byte 10 (`Op`: tag, txn, op tag) or byte 18 (`Clr`: tag, txn,
/// undone LSN, op tag). Nothing past those fields is checked, so a
/// record that peeks cleanly can still fail to [`decode`].
pub fn peek(buf: &[u8]) -> DbResult<Peek> {
    let mut r = Reader { buf, pos: 0 };
    let kind = match r.u8()? {
        T_COMMIT => RecordKind::Commit,
        T_ABORT_END => RecordKind::AbortEnd,
        T_OP => RecordKind::Op,
        T_CLR => RecordKind::Clr,
        T_CC_BEGIN => RecordKind::CcBegin,
        T_CC_OK => RecordKind::CcOk,
        T_MIGRATION => RecordKind::MigrationState,
        other => return Err(r.corrupt(&format!("unknown record tag {other}"))),
    };
    let txn = match kind {
        RecordKind::CcBegin | RecordKind::CcOk | RecordKind::MigrationState => None,
        _ => Some(TxnId(r.u64()?)),
    };
    let table = match kind {
        RecordKind::Op | RecordKind::Clr => {
            if kind == RecordKind::Clr {
                r.u64()?; // undone LSN
            }
            r.u8()?; // op tag
            Some(TableId(r.u32()?))
        }
        _ => None,
    };
    Ok(Peek { kind, txn, table })
}

/// Decoding context: tracks the byte offset for error reporting.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn corrupt(&self, detail: &str) -> DbError {
        DbError::CorruptLog {
            offset: self.pos as u64,
            detail: detail.to_owned(),
        }
    }

    fn need(&self, n: usize) -> DbResult<()> {
        if self.buf.len() - self.pos < n {
            Err(self.corrupt("unexpected end of record"))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> DbResult<u8> {
        self.need(1)?;
        let mut s = &self.buf[self.pos..];
        self.pos += 1;
        Ok(s.get_u8())
    }

    fn u32(&mut self) -> DbResult<u32> {
        self.need(4)?;
        let mut s = &self.buf[self.pos..];
        self.pos += 4;
        Ok(s.get_u32_le())
    }

    fn u64(&mut self) -> DbResult<u64> {
        self.need(8)?;
        let mut s = &self.buf[self.pos..];
        self.pos += 8;
        Ok(s.get_u64_le())
    }

    fn i64(&mut self) -> DbResult<i64> {
        self.need(8)?;
        let mut s = &self.buf[self.pos..];
        self.pos += 8;
        Ok(s.get_i64_le())
    }

    /// A `u32`-length-prefixed UTF-8 string; `what` names it in the
    /// error if the bytes are not UTF-8.
    fn string(&mut self, what: &str) -> DbResult<String> {
        let n = self.u32()? as usize;
        self.need(n)?;
        let raw = &self.buf[self.pos..self.pos + n];
        let s = std::str::from_utf8(raw).map_err(|_| self.corrupt(what))?;
        self.pos += n;
        Ok(s.to_owned())
    }
}

/// Decode a record previously produced by [`encode`]. The entire buffer
/// must be consumed.
pub fn decode(buf: &[u8]) -> DbResult<LogRecord> {
    let mut r = Reader { buf, pos: 0 };
    let rec = decode_record(&mut r)?;
    if r.pos != buf.len() {
        return Err(r.corrupt("trailing bytes after record"));
    }
    Ok(rec)
}

/// [`decode`] under its former name, kept only for `benchmark/`'s call
/// sites (like [`WalMode`](crate::WalMode)).
pub fn decode_ref(buf: &[u8]) -> DbResult<LogRecord> {
    decode(buf)
}

fn decode_record(r: &mut Reader<'_>) -> DbResult<LogRecord> {
    let tag = r.u8()?;
    Ok(match tag {
        T_COMMIT => LogRecord::Commit {
            txn: TxnId(r.u64()?),
        },
        T_ABORT_END => LogRecord::AbortEnd {
            txn: TxnId(r.u64()?),
        },
        T_OP => LogRecord::Op {
            txn: TxnId(r.u64()?),
            op: decode_op(r)?,
        },
        T_CLR => LogRecord::Clr {
            txn: TxnId(r.u64()?),
            undone_lsn: Lsn(r.u64()?),
            op: decode_op(r)?,
        },
        T_CC_BEGIN => LogRecord::CcBegin {
            split_key: Key(decode_values(r)?),
        },
        T_CC_OK => LogRecord::CcOk {
            split_key: Key(decode_values(r)?),
            image: decode_values(r)?,
        },
        T_MIGRATION => {
            let job = r.u64()?;
            let stage = r.u32()?;
            let ptag = r.u8()?;
            let phase = MigrationPhase::from_u8(ptag)
                .ok_or_else(|| r.corrupt(&format!("unknown migration phase tag {ptag}")))?;
            LogRecord::MigrationState {
                job,
                stage,
                phase,
                spec: r.string("invalid UTF-8 in migration spec")?,
            }
        }
        other => return Err(r.corrupt(&format!("unknown record tag {other}"))),
    })
}

fn decode_op(r: &mut Reader<'_>) -> DbResult<LogOp> {
    let tag = r.u8()?;
    Ok(match tag {
        O_INSERT => LogOp::Insert {
            table: TableId(r.u32()?),
            row: decode_values(r)?,
        },
        O_DELETE => LogOp::Delete {
            table: TableId(r.u32()?),
            key: Key(decode_values(r)?),
            old: decode_values(r)?,
        },
        O_UPDATE => LogOp::Update {
            table: TableId(r.u32()?),
            key: Key(decode_values(r)?),
            old: decode_cols(r)?,
            new: decode_cols(r)?,
        },
        other => return Err(r.corrupt(&format!("unknown op tag {other}"))),
    })
}

fn decode_values(r: &mut Reader<'_>) -> DbResult<Vec<Value>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(decode_value(r)?);
    }
    Ok(out)
}

fn decode_cols(r: &mut Reader<'_>) -> DbResult<Vec<(usize, Value)>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let i = r.u32()? as usize;
        out.push((i, decode_value(r)?));
    }
    Ok(out)
}

fn decode_value(r: &mut Reader<'_>) -> DbResult<Value> {
    let tag = r.u8()?;
    Ok(match tag {
        V_NULL => Value::Null,
        V_INT => Value::Int(r.i64()?),
        V_STR => Value::Str(r.string("invalid UTF-8 in string value")?),
        other => return Err(r.corrupt(&format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: LogRecord) {
        let bytes = encode(&rec);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, rec);
    }

    #[test]
    fn roundtrip_control_records() {
        roundtrip(LogRecord::Commit {
            txn: TxnId(u64::MAX),
        });
        roundtrip(LogRecord::AbortEnd { txn: TxnId(77) });
    }

    #[test]
    fn roundtrip_ops() {
        roundtrip(LogRecord::Op {
            txn: TxnId(3),
            op: LogOp::Insert {
                table: TableId(1),
                row: vec![Value::Int(-1), Value::Null, Value::str("héllo")],
            },
        });
        roundtrip(LogRecord::Op {
            txn: TxnId(3),
            op: LogOp::Delete {
                table: TableId(9),
                key: Key::new([Value::Int(1), Value::str("k")]),
                old: vec![Value::Int(1), Value::str("k"), Value::Null],
            },
        });
        roundtrip(LogRecord::Clr {
            txn: TxnId(3),
            undone_lsn: Lsn(42),
            op: LogOp::Update {
                table: TableId(2),
                key: Key::single(5),
                old: vec![(0, Value::Int(1)), (2, Value::Null)],
                new: vec![(0, Value::Int(2)), (2, Value::str("x"))],
            },
        });
    }

    #[test]
    fn roundtrip_marks() {
        roundtrip(LogRecord::CcBegin {
            split_key: Key::single("7050"),
        });
        roundtrip(LogRecord::CcOk {
            split_key: Key::single("7050"),
            image: vec![Value::str("7050"), Value::str("Trondheim")],
        });
    }

    #[test]
    fn roundtrip_migration_state() {
        for phase in [
            MigrationPhase::Planned,
            MigrationPhase::Preparing,
            MigrationPhase::Copying,
            MigrationPhase::Propagating,
            MigrationPhase::Syncing,
            MigrationPhase::CutOver,
            MigrationPhase::Aborted,
        ] {
            roundtrip(LogRecord::MigrationState {
                job: 42,
                stage: 3,
                phase,
                spec: "ALTER TABLE customer SPLIT INTO cust (id) AND city (pc -> name)".into(),
            });
        }
        roundtrip(LogRecord::MigrationState {
            job: 0,
            stage: 0,
            phase: MigrationPhase::Planned,
            spec: String::new(),
        });
    }

    #[test]
    fn truncated_migration_state_is_corrupt_not_panic() {
        let bytes = encode(&LogRecord::MigrationState {
            job: 7,
            stage: 1,
            phase: MigrationPhase::Syncing,
            spec: "ALTER TABLE a UNION b INTO u".into(),
        });
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DbError::CorruptLog { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn unknown_migration_phase_tag_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(T_MIGRATION);
        b.put_u64_le(1);
        b.put_u32_le(0);
        b.put_u8(200); // bogus phase tag
        b.put_u32_le(0);
        assert!(matches!(decode(&b), Err(DbError::CorruptLog { .. })));
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let insert = LogOp::Insert {
            table: TableId(1),
            row: vec![Value::str("abcdefgh")],
        };
        // A composite string key and a NULL in the pre-image.
        let delete = LogOp::Delete {
            table: TableId(9),
            key: Key::new([Value::Int(1), Value::str("k")]),
            old: vec![Value::Int(1), Value::str("k"), Value::Null],
        };
        for op in [insert, delete] {
            let bytes = encode(&LogRecord::Op { txn: TxnId(3), op });
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(err, DbError::CorruptLog { .. }),
                    "cut at {cut} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&LogRecord::Commit { txn: TxnId(1) }).to_vec();
        bytes.push(0xAB);
        assert!(matches!(decode(&bytes), Err(DbError::CorruptLog { .. })));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(decode(&[99]), Err(DbError::CorruptLog { .. })));
        // The retired begin, abort, fuzzy-mark and checkpoint tags
        // decode and peek as nothing.
        for tag in [1u8, 3, 7, 10] {
            let mut b = BytesMut::new();
            b.put_u8(tag);
            b.put_u64_le(1);
            assert!(matches!(decode(&b), Err(DbError::CorruptLog { .. })));
            assert!(matches!(peek(&b), Err(DbError::CorruptLog { .. })));
        }
        // Op with bad op tag.
        let mut b = BytesMut::new();
        b.put_u8(T_OP);
        b.put_u64_le(1);
        b.put_u8(42);
        assert!(matches!(decode(&b), Err(DbError::CorruptLog { .. })));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(T_CC_BEGIN);
        b.put_u32_le(1); // one value
        b.put_u8(V_STR);
        b.put_u32_le(2);
        b.put_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode(&b), Err(DbError::CorruptLog { .. })));
    }
}
