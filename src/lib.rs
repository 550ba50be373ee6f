//! # morphdb
//!
//! Umbrella crate for the morphdb workspace — a reproduction of
//! *Online, Non-blocking Relational Schema Changes* (Løland &
//! Hvasshovd, EDBT 2006). Re-exports the public API of every layer so
//! examples and downstream users can depend on a single crate.
//!
//! ## Layers
//!
//! * [`common`] — values, keys, schemas, ids, errors.
//! * [`wal`] — ARIES-style write-ahead log with CLRs and fuzzy marks.
//! * [`storage`] — in-memory tables, secondary indexes, catalog.
//! * [`txn`] — lock manager (wait–die, origin-tagged Figure-2 matrix).
//! * [`engine`] — the transactional [`engine::Database`] facade.
//! * [`core`] — the paper's contribution: non-blocking full outer join
//!   and split schema transformations.
//! * [`orchestrator`] — declarative migration front-end and the
//!   crash-recoverable state machine that drives the pipeline.
//! * [`workload`] — closed-loop benchmark driver used by the
//!   experiment harness.

pub mod pretty;

pub use morph_common as common;
pub use morph_core as core;
pub use morph_engine as engine;
pub use morph_orchestrator as orchestrator;
pub use morph_storage as storage;
pub use morph_txn as txn;
pub use morph_wal as wal;
pub use morph_workload as workload;

pub use morph_common::{ColumnType, DbError, DbResult, Key, Lsn, Schema, TableId, TxnId, Value};
pub use morph_core::LazyMigration;
pub use morph_engine::Database;
pub use morph_engine::{ShardCounters, ShardedDatabase};
pub use morph_orchestrator::{start_lazy_sharded, submit_sharded};
pub use morph_storage::{CommitTable, Snapshot, SnapshotTracker};
pub use morph_txn::thread_lock_waits;
