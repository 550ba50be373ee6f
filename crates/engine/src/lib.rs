//! # morph-engine
//!
//! The transactional database facade tying storage, locking and the
//! write-ahead log together. This is the substrate the paper assumes to
//! exist (§1): strict two-phase record locking (every write takes an
//! exclusive lock — "delta updates are not allowed"), redo **and** undo
//! logging with LSNs, and rollback that emits **Compensating Log
//! Records** so that the log can always be replayed strictly forward.
//!
//! The facade also exposes the three hooks the transformation framework
//! needs and nothing more:
//!
//! * [`Database::fuzzy_mark`] — the LSN log propagation must start
//!   from (§3.2): an in-memory census of the active transactions,
//!   taken with admission blocked, that appends nothing,
//! * [`Database::doom`] — condemn a transaction during non-blocking
//!   abort synchronization (§3.4); its next operation fails and the
//!   client must roll it back,
//! * [`interceptor::OpInterceptor`] — a pre-operation hook used by the
//!   non-blocking *commit* strategy (mirroring source-table locks onto
//!   the transformed table) and by the trigger-based baseline of §2.1.

pub mod database;
pub mod interceptor;
pub mod migrations;
pub mod recovery;
pub mod registry;
pub mod router;

pub use database::{CrashHook, Database, LockHolder, LogProtection, PlannedOp};
pub use interceptor::OpInterceptor;
pub use migrations::MigrationRegistry;
pub use morph_storage::{CommitTable, Snapshot, SnapshotTracker};
pub use recovery::{recover, recover_from_bytes, RecoveryReport};
pub use router::{ShardCounters, ShardedDatabase};
