//! # morph-txn
//!
//! Transaction-level concurrency control: strict two-phase record
//! locking with wait–die deadlock prevention, plus the paper's
//! **origin-tagged lock compatibility matrix** (Figure 2 of Løland &
//! Hvasshovd, EDBT 2006).
//!
//! During the synchronization step of a transformation, locks held by
//! transactions on the *source* tables are transferred to the
//! corresponding records of the *transformed* table. Two source-table
//! operations can map to the same transformed record (a row of T is the
//! join of one R-row and one S-row) even though they touch disjoint
//! attributes — so transferred locks must not conflict with each other,
//! only with locks taken natively on the transformed table. The
//! [`origin`] module encodes that matrix literally and tests it against
//! the paper's figure.

pub mod manager;
pub mod mode;
pub mod origin;
pub mod wait;

pub use manager::{LockManager, LockManagerConfig};
pub use mode::LockMode;
pub use origin::LockOrigin;
pub use wait::{thread_lock_waits, Deadline};
