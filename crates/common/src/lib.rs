//! # morph-common
//!
//! Foundation types shared by every morphdb crate: SQL-ish [`Value`]s,
//! order-preserving composite [`Key`]s, table [`Schema`]s, identifier
//! newtypes ([`Lsn`], [`TxnId`], [`TableId`]) and the crate-wide error
//! type [`DbError`].
//!
//! The types here deliberately mirror the vocabulary of Løland &
//! Hvasshovd's EDBT 2006 paper *Online, Non-blocking Relational Schema
//! Changes*: log sequence numbers stamp both log records and rows
//! (§2.2), transactions are identified in log records and cutover
//! censuses by their ids (§3), and record keys identify the rows that propagation rules
//! operate on (§4, §5).

pub mod error;
pub mod ids;
pub mod key;
pub mod schema;
pub mod value;

pub use error::{DbError, DbResult};
pub use ids::{ColId, IndexId, Lsn, TableId, TxnId};
pub use key::Key;
pub use schema::{Column, ColumnType, Schema, SchemaBuilder};
pub use value::Value;
