//! Crate-wide error type.

use crate::ids::{TableId, TxnId};
use std::fmt;

/// Result alias used across all morphdb crates.
pub type DbResult<T> = Result<T, DbError>;

/// Every way a morphdb operation can fail.
///
/// The variants fall into four groups: schema/catalog errors, data
/// errors, concurrency-control outcomes (deadlock victim, doomed
/// transaction, frozen table) and transformation-specific failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    // --- schema / catalog ---
    /// Schema construction failed.
    InvalidSchema(String),
    /// Table name not present in the catalog.
    NoSuchTable(String),
    /// Table id not present in the catalog (dangling reference).
    NoSuchTableId(TableId),
    /// A table with that name already exists.
    TableExists(String),
    /// Column name not present in a schema.
    NoSuchColumn(String),

    // --- data ---
    /// Row arity does not match the schema.
    ArityMismatch { expected: usize, got: usize },
    /// NULL stored into a NOT NULL column.
    NullViolation(String),
    /// Value of the wrong type for its column.
    TypeMismatch { column: String, value: String },
    /// Insert with a primary key that already exists.
    DuplicateKey(String),
    /// Update/delete of a primary key that does not exist.
    KeyNotFound(String),

    // --- concurrency control ---
    /// The transaction was chosen as a wait–die victim and must abort.
    Deadlock(TxnId),
    /// Operation attempted on a transaction that is not active.
    TxnNotActive(TxnId),
    /// The transaction was doomed by a non-blocking-abort
    /// synchronization (paper §3.4) and must roll back.
    TxnDoomed(TxnId),
    /// The table is frozen for new transactions (post-synchronization
    /// state of source tables; only grandfathered transactions may
    /// still touch it during their rollback/commit).
    TableFrozen(TableId),
    /// Lock wait exceeded the configured timeout.
    LockTimeout(TxnId),

    // --- transformation framework ---
    /// The transformed-table schema is missing a candidate key of a
    /// source table (§3.1 requires one from each source).
    MissingCandidateKey(String),
    /// Log propagation cannot converge: the workload produces log
    /// faster than the propagator consumes it at the configured
    /// priority (§3.3).
    CannotConverge { iterations: u32, backlog: usize },
    /// Split found functionally-dependent data that disagrees (paper
    /// Example 1: same postal code, different city); the transformation
    /// cannot complete until it is resolved.
    InconsistentSplitData { key: String, detail: String },
    /// The transformation was aborted (by request or by policy).
    TransformationAborted(String),
    /// Internal invariant violated; indicates a bug, not user error.
    Internal(String),

    // --- migration front-end / orchestrator ---
    /// Declarative migration text failed to parse. `offset` and `len`
    /// span the offending token in the input (byte offsets), so a
    /// caller can underline it.
    ParseError {
        offset: usize,
        len: usize,
        detail: String,
    },
    /// A submitted migration touches a table already claimed by a
    /// running migration job (the orchestrator serializes overlapping
    /// table sets; disjoint jobs run concurrently).
    MigrationConflict { table: String, job: u64 },

    // --- I/O (WAL file backend) ---
    /// Underlying file I/O failure, stringified (io::Error is not
    /// `Clone`/`PartialEq`, which this enum wants for test ergonomics).
    Io(String),
    /// The on-disk log is corrupt at the given byte offset.
    CorruptLog { offset: u64, detail: String },

    // --- simulation ---
    /// A simulated crash was injected at the named crash point. Only
    /// ever produced by the deterministic crash harness (`morph-sim`);
    /// the payload names the point so failures reproduce from traces.
    SimulatedCrash(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::InvalidSchema(m) => write!(f, "invalid schema: {m}"),
            DbError::NoSuchTable(n) => write!(f, "no such table: {n}"),
            DbError::NoSuchTableId(id) => write!(f, "no such table id: {id:?}"),
            DbError::TableExists(n) => write!(f, "table already exists: {n}"),
            DbError::NoSuchColumn(n) => write!(f, "no such column: {n}"),
            DbError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            DbError::NullViolation(c) => write!(f, "NULL in NOT NULL column {c}"),
            DbError::TypeMismatch { column, value } => {
                write!(f, "value {value} has wrong type for column {column}")
            }
            DbError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            DbError::KeyNotFound(k) => write!(f, "primary key not found: {k}"),
            DbError::Deadlock(t) => write!(f, "transaction {t} chosen as deadlock victim"),
            DbError::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            DbError::TxnDoomed(t) => {
                write!(f, "transaction {t} doomed by schema-change synchronization")
            }
            DbError::TableFrozen(id) => {
                write!(f, "table {id:?} is frozen for new transactions")
            }
            DbError::LockTimeout(t) => write!(f, "transaction {t} timed out waiting for a lock"),
            DbError::MissingCandidateKey(m) => {
                write!(f, "transformed table lacks a source candidate key: {m}")
            }
            DbError::CannotConverge {
                iterations,
                backlog,
            } => write!(
                f,
                "log propagation cannot converge after {iterations} iterations \
                 (backlog {backlog} records); raise priority or abort"
            ),
            DbError::InconsistentSplitData { key, detail } => {
                write!(f, "inconsistent split data at {key}: {detail}")
            }
            DbError::TransformationAborted(m) => write!(f, "transformation aborted: {m}"),
            DbError::Internal(m) => write!(f, "internal invariant violated: {m}"),
            DbError::ParseError {
                offset,
                len,
                detail,
            } => write!(
                f,
                "migration parse error at byte {offset} (span {len}): {detail}"
            ),
            DbError::MigrationConflict { table, job } => write!(
                f,
                "table {table} is already claimed by running migration job {job}"
            ),
            DbError::Io(m) => write!(f, "I/O error: {m}"),
            DbError::CorruptLog { offset, detail } => {
                write!(f, "corrupt log at offset {offset}: {detail}")
            }
            DbError::SimulatedCrash(point) => {
                write!(f, "simulated crash at point {point}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbError::CannotConverge {
            iterations: 9,
            backlog: 1234,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains("1234"));
    }

    #[test]
    fn parse_error_carries_span() {
        let e = DbError::ParseError {
            offset: 12,
            len: 5,
            detail: "expected INTO".into(),
        };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains("expected INTO"));
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::other("boom");
        let e: DbError = io.into();
        assert!(matches!(e, DbError::Io(ref m) if m.contains("boom")));
    }
}
