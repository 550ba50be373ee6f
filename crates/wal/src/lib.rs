//! # morph-wal
//!
//! ARIES-style write-ahead log for morphdb, providing exactly the
//! contracts the transformation framework of Løland & Hvasshovd (EDBT
//! 2006) assumes:
//!
//! * **redo and undo information** in every data record ([`LogOp`]
//!   carries both old and new images),
//! * **Compensating Log Records** ([`LogRecord::Clr`]) written during
//!   rollback, so that a fuzzy copy can be repaired purely by redoing
//!   the log forward — aborted work is *compensated*, never skipped,
//! * **log sequence numbers** assigned in strictly increasing order,
//!   so the §3.2 fuzzy mark is an LSN, not a record: the engine's
//!   census names where log propagation must begin,
//! * **consistency-checker records** (`CcBegin` / `CcOk`, §5.3).
//!
//! The log lives in memory ([`LogManager`]) with an optional
//! length-prefixed binary backend used by restart recovery: the real
//! file ([`file::FileBackend`]) or, for deterministic crash
//! simulation, the seeded fault injector ([`fault::FaultBackend`]).
//! A log reopened on its file ([`LogManager::with_file`]) holds the
//! file's records at their own LSNs and continues them, so restart
//! recovery replays the database's own log.
//! The log keeps each record only as its codec bytes, and every
//! reader decodes to the one owned [`LogRecord`].

pub mod codec;
pub mod fault;
pub mod file;
pub mod manager;
pub mod record;

pub use codec::Peek;
pub use fault::{FaultBackend, FaultConfig, FaultHandle};
pub use file::{decode_stream, encode_stream, Backend, FileBackend};
pub use manager::{GroupCommitConfig, LogManager, TailCursor, WalMode};
pub use record::{LogOp, LogRecord, MigrationPhase, RecordKind};
