//! # morph-workload
//!
//! Closed-loop benchmark driver reproducing the paper's measurement
//! methodology (§6):
//!
//! * every transaction updates a fixed number of records (10 in the
//!   paper) under record locks;
//! * a configurable fraction of updates hits the transformation's
//!   source tables (the "20 % / 80 % updates on T" axis of Figure
//!   4(c)); the remainder hits a dummy table "to keep the workload
//!   constant";
//! * *100 % workload* is the number of concurrent client transactions
//!   that maximizes throughput; lower workloads scale the client count
//!   down;
//! * the cost of a schema change is *relative*: throughput and response
//!   time during the change divided by the same quantities measured
//!   without it.
//!
//! One client loop serves every caller. [`ClientConfig`] names its
//! tables as data: weighted [`UpdateTarget`]s and an optional dummy.
//! The paper's clients set `updates_per_txn: 10` and a dummy; the
//! background writers of the examples and tests set
//! `updates_per_txn: 1`, `hot_fraction: 1.0`, no dummy and a pacing
//! sleep, and read [`WorkloadRunner::committed`]. A measurement is one
//! [`WindowStats`]; windows subtract and add.
//!
//! The driver also encodes the client-side reality of an online schema
//! change: when a source table freezes or disappears mid-run
//! (synchronization!), clients see `TableFrozen` / `NoSuchTable` /
//! `TxnDoomed` errors, roll back, and keep going — exactly what the
//! paper's non-blocking guarantee is *for*.

pub mod client;
pub mod runner;
pub mod setup;
pub mod stats;
pub mod step;

pub use client::{ClientConfig, UpdateTarget};
pub use runner::WorkloadRunner;
pub use setup::{setup_dummy, setup_foj_sources, setup_split_source};
pub use stats::WindowStats;
pub use step::{StepOutcome, StepStats, StepWorkload, TableProfile};
