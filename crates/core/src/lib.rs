//! # morph-core
//!
//! The paper's contribution: **online, non-blocking relational schema
//! changes** — full outer join (FOJ) and vertical split transformations
//! executed while user transactions keep running, with the log as the
//! only channel of change propagation (Løland & Hvasshovd, EDBT 2006).
//!
//! ## The four steps (§3)
//!
//! 1. **Preparation** ([`TransformJob::prepare`]): create the
//!    transformed tables — containing at least one candidate key from
//!    each source — plus the indexes the propagation rules need (join
//!    attribute, S-key).
//! 2. **Initial population**: take the fuzzy mark, read the source
//!    tables *fuzzily* (chunked, without transaction locks), apply the
//!    relational operator and insert the result — the *initial image*,
//!    possibly inconsistent by construction.
//! 3. **Log propagation**: repeatedly drain the log tail through the
//!    operator-specific, idempotent rules (FOJ rules 1–7 in
//!    [`foj`], split rules 8–11 in [`split`]), throttled to a
//!    configurable priority; after each iteration, analyze the backlog
//!    and decide: another iteration, synchronize, or give up
//!    ([`DbError::CannotConverge`]).
//! 4. **Synchronization** ([`sync`]): one of *blocking commit*,
//!    *non-blocking abort* or *non-blocking commit* (§3.4), all three
//!    implemented, including source-to-target lock transfer under the
//!    Figure-2 compatibility matrix.
//!    A fourth, [`SyncStrategy::Lazy`] ([`lazy`]), moves it to the
//!    front and transforms records on first touch.
//!
//! ## Entry points
//!
//! ```no_run
//! use morph_core::{FojSpec, TransformJob, TransformOptions, TransformPlan};
//! # use morph_engine::Database;
//! # use std::sync::atomic::AtomicBool;
//! # use std::sync::Arc;
//! # let db: Arc<Database> = Arc::new(Database::new());
//! let plan = TransformPlan::Foj(FojSpec::new("orders", "customers", "orders_denorm", "cust_id", "id"));
//! let job = TransformJob::prepare(&db, &plan, TransformOptions::default()).unwrap();
//! let worker = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));
//! // ... user transactions keep running ...
//! let report = worker.join().unwrap().unwrap();
//! println!("latch pause: {:?}", report.sync.latch_pause);
//! ```
//!
//! [`TransformJob::run`] drives copy → propagate → synchronize →
//! finish, or synchronize → copy → finish under
//! [`SyncStrategy::Lazy`]; `morph-orchestrator` runs the same job on a
//! worker thread with persisted, crash-recoverable phase transitions.
//!
//! [`DbError::CannotConverge`]: morph_common::DbError::CannotConverge

pub mod baseline;
pub mod cc;
pub mod foj;
pub mod lazy;
pub mod operator;
pub mod progress;
pub mod propagate;
pub mod report;
pub mod spec;
pub mod split;
pub mod sync;
#[cfg(test)]
mod sync_tests;
pub mod throttle;
pub mod transform;
pub mod union;

pub use foj::FojMapping;
pub use lazy::LazyMigration;
pub use morph_wal::MigrationPhase;
pub use operator::{CoalescePolicy, LazySource, TransformOperator};
pub use progress::{Progress, ProgressHandle};
pub use report::{IterationStats, PopulationStats, SyncStats, TransformReport};
pub use spec::{FojSpec, SplitMode, SplitSpec, SyncStrategy, TransformOptions};
pub use split::SplitMapping;
pub use transform::{TransformJob, TransformPlan};
pub use union::{UnionMapping, UnionSpec};
