//! # morph-storage
//!
//! Main-memory storage engine: per-table B-tree heaps keyed by primary
//! key, secondary indexes, a catalog, and the *fuzzy scan* primitive
//! the transformation framework builds on.
//!
//! The paper's prototype (§6) "keeps all data in main memory", arguing
//! this is realistic for the telecom-class databases that need
//! non-blocking schema changes; this crate makes the same choice. What
//! matters for the reproduction is the *contention structure*: physical
//! operations take a short per-table latch, transaction-level record
//! locks live above (in `morph-txn`), and the fuzzy scan reads *without
//! transaction locks* in small latched chunks so that concurrent
//! writers interleave with the copy — producing the genuinely
//! inconsistent "initial image" that log propagation then repairs.
//!
//! Tables also carry the paper-specific row metadata: a per-row LSN
//! (state identifier for split propagation, §5.2), the S-record
//! reference **counter** (§5), and the **C/U consistency flag** (§5.3).

pub mod catalog;
pub mod index;
pub mod mvcc;
pub mod residual;
pub mod row;
pub mod table;

pub use catalog::Catalog;
pub use index::SecondaryIndex;
pub use mvcc::{CommitTable, Snapshot, SnapshotTracker, VersionEntry, SYSTEM};
pub use residual::{Claim, ClaimGuard, ResidualSet};
pub use row::{ConsistencyFlag, Row};
pub use table::{FuzzyScanner, Table, TableExclusiveLatch, TableState, WriteSession, TABLE_SHARDS};
