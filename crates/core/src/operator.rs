//! The operator contract behind the transformation framework.
//!
//! The paper develops one *framework* (§3: preparation → fuzzy
//! population → log propagation → synchronization) and then plugs
//! concrete transformations into it: full outer join with propagation
//! rules 1–7 (§4), vertical split with rules 8–11 (§5), and sketches of
//! further operators (§7). [`TransformOperator`] is that plug point:
//! everything the framework layers (`Propagator`, `TransformJob`, the
//! synchronization strategies) need from a transformation, with the
//! operator-independent machinery written once against the trait.
//!
//! ## Method ↔ paper map
//!
//! | method                  | paper                                            |
//! |-------------------------|--------------------------------------------------|
//! | [`populate`]            | §3.2 initial population by fuzzy read, on the    |
//! |                         | job's thread at the job's priority               |
//! | [`apply_batch`]         | §3.3 log propagation: FOJ rules 1–7 are          |
//! |                         | *content-based* (no LSN gating; they decide from |
//! |                         | the current T image, §4.2), split rules 8–11 and |
//! |                         | union are *LSN-gated* (state identifiers, §5.2); |
//! |                         | one target-latch acquisition per batch           |
//! | [`apply`]               | the same for one record                          |
//! | [`on_control`]          | §5.3 `CcBegin`/`CcOk` consistency-checker records|
//! | [`maintenance`]         | §5.3 checker rounds between propagation batches  |
//! | [`readiness`]           | §5.3 gating: sync may not start while S-records  |
//! |                         | remain in the *unknown* state                    |
//! | [`target_keys_for`],    | §3.4/§4.3 lock transfer: source record locks are |
//! | [`mirror_keys`]         | mirrored onto the transformed tables             |
//! | [`lazy_source`],        | lazy mode (SLSM): the inverse mapping a first    |
//! | [`apply_frozen`]        | touch needs, and the transform of frozen rows    |
//! | [`renames_source`],     | §5.2 rename-in-place variant: the source keeps   |
//! | [`publish`],            | living as the R-side target, is renamed at sync  |
//! | [`finalize`]            | and projected down once the old txns drain       |
//!
//! Every method takes `&self`: one operator object is shared, behind an
//! `Arc`, by the propagator, the synchronization step, the
//! non-blocking-commit interceptor and a lazy migration's first-touch
//! and backfill threads.
//!
//! [`populate`]: TransformOperator::populate
//! [`apply`]: TransformOperator::apply
//! [`apply_batch`]: TransformOperator::apply_batch
//! [`on_control`]: TransformOperator::on_control
//! [`maintenance`]: TransformOperator::maintenance
//! [`readiness`]: TransformOperator::readiness
//! [`target_keys_for`]: TransformOperator::target_keys_for
//! [`mirror_keys`]: TransformOperator::mirror_keys
//! [`lazy_source`]: TransformOperator::lazy_source
//! [`apply_frozen`]: TransformOperator::apply_frozen
//! [`renames_source`]: TransformOperator::renames_source
//! [`publish`]: TransformOperator::publish
//! [`finalize`]: TransformOperator::finalize

use crate::cc::Readiness;
use crate::throttle::Throttle;
use morph_common::{DbError, DbResult, Key, Lsn, TableId};
use morph_engine::{Database, PlannedOp};
use morph_storage::{Row, Table};
use morph_txn::LockOrigin;
use morph_wal::{LogOp, LogRecord};
use std::sync::Arc;
use std::time::Instant;

/// How aggressively the propagator may coalesce a batch of log records
/// for one source row before handing it to [`TransformOperator::apply_batch`].
///
/// Coalescing drops *superseded* records — ones whose effect on the
/// transformed tables is provably erased by a later record in the same
/// batch — so the operator applies fewer rules per batch. How much can
/// be dropped safely depends on the operator's propagation rules:
///
/// * FOJ rules 5–7 guard on the *current content* of T (an update whose
///   old image no longer matches is skipped, §4.2), so an intermediate
///   update can be load-bearing: only deletes may swallow earlier
///   records ([`CoalescePolicy::DeleteOnly`]).
/// * Split rules 8–11 gate purely on LSNs and reference counters; an
///   intermediate absorb/release of a transient split value nets to
///   zero, so updates may also swallow earlier updates of the same
///   columns ([`CoalescePolicy::Full`]).
/// * The §5.3 consistency checker must observe *every* touch of an
///   S-record to invalidate in-flight certification rounds, so a
///   checking split forbids coalescing entirely ([`CoalescePolicy::None`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoalescePolicy {
    /// Apply every record verbatim.
    None,
    /// A delete erases earlier pending records for its row.
    DeleteOnly,
    /// Deletes erase earlier records; an update also erases earlier
    /// updates of a subset of its columns.
    Full,
}

/// What a lazy migration must transform before an access to one target
/// key may proceed ([`TransformOperator::lazy_source`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LazySource {
    /// The table is not a target of this operator, or the key maps to
    /// no source record: nothing to transform first.
    None,
    /// The target key mirrors exactly this source record.
    Key(TableId, Key),
    /// The target key aggregates (or joins) source records from
    /// anywhere in the frozen sources: transform the whole residual.
    Residual,
}

/// A transformation operator pluggable into the framework: the paper's
/// propagation-rule sets (§4 FOJ, §5 split, §7 others) behind one
/// object-safe contract.
///
/// `Propagator` drives [`apply_batch`]/[`on_control`]/[`maintenance`],
/// [`TransformJob`](crate::TransformJob) drives [`populate`]/[`readiness`]/
/// [`finalize`], the synchronization strategies drive
/// [`target_keys_for`]/[`mirror_keys`]/[`renames_source`]/[`publish`],
/// and a lazy migration drives [`lazy_source`]/[`apply_frozen`].
///
/// [`apply_batch`]: TransformOperator::apply_batch
/// [`on_control`]: TransformOperator::on_control
/// [`maintenance`]: TransformOperator::maintenance
/// [`populate`]: TransformOperator::populate
/// [`readiness`]: TransformOperator::readiness
/// [`finalize`]: TransformOperator::finalize
/// [`target_keys_for`]: TransformOperator::target_keys_for
/// [`mirror_keys`]: TransformOperator::mirror_keys
/// [`renames_source`]: TransformOperator::renames_source
/// [`publish`]: TransformOperator::publish
/// [`lazy_source`]: TransformOperator::lazy_source
/// [`apply_frozen`]: TransformOperator::apply_frozen
pub trait TransformOperator: Send + Sync {
    /// Source tables whose log records feed the propagation rules.
    fn source_ids(&self) -> Vec<TableId>;

    /// Apply a batch of relevant log records through the propagation
    /// rules (§3.3), under one write session per target table: one
    /// latch round trip per batch instead of per record. Must be
    /// idempotent with respect to re-application after a crash
    /// (Theorem 1): FOJ achieves this by content checks, split and
    /// union by LSN gating.
    fn apply_batch(&self, batch: &[(Lsn, &LogOp)]) -> DbResult<()>;

    /// Apply one record: a batch of one.
    fn apply(&self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        self.apply_batch(&[(lsn, op)])
    }

    /// How much record coalescing this operator's rules tolerate.
    fn coalesce_policy(&self) -> CoalescePolicy {
        CoalescePolicy::DeleteOnly
    }

    /// Columns of `table` whose update must reach the rules verbatim
    /// (beyond primary-key columns, which always act as barriers): an
    /// update touching one of them voids all pending coalescing for its
    /// row and is itself never dropped.
    ///
    /// The FOJ delete rules guard on the *logged pre-image* of the join
    /// attribute (§4.2) — dropping an intermediate join-attribute
    /// update would make a later delete's guard compare against stale
    /// target content and misfire. A split's S-side columns feed shared
    /// S-records whose transient states other rows' rule 11 moves can
    /// read, so they are barriers likewise.
    fn coalesce_barrier_cols(&self, _table: TableId) -> Vec<usize> {
        Vec::new()
    }

    /// Initial population by fuzzy read (§3.2), on the calling thread:
    /// every chunk pays its share of the `priority` duty cycle and
    /// checks the job's wall-clock `deadline` (`check_deadline`).
    /// Returns `(rows_read, rows_written)`. The database handle feeds
    /// the per-chunk crash point (`populate.chunk`) that the
    /// deterministic crash harness kills fuzzy copies at.
    ///
    /// The provided body is the lazy transform run eagerly: each
    /// fuzzy-scanned chunk of every source goes through
    /// [`TransformOperator::apply_frozen`], and every row read counts as
    /// written. FOJ and split override it with bulk copies of their own
    /// (DESIGN.md §10).
    fn populate(
        &self,
        db: &Database,
        chunk: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)> {
        let mut read = 0;
        for id in self.source_ids() {
            let source = db.catalog().get_by_id(id)?;
            read += scan_source(db, &source, chunk, priority, deadline, |batch| {
                self.apply_frozen(id, batch.into_iter().map(|(_, row)| row).collect())
            })?;
        }
        Ok((read, read))
    }

    /// Target keys a record lock on `(table, key)` must be mirrored to
    /// during lock transfer (§3.4). Reads the *transformed* tables, so
    /// it stays correct while the sources are latched.
    fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)>;

    /// Transformed-table records an operation `op` of a grandfathered
    /// transaction on `source` must lock first, with the origin to tag
    /// them with (the §4.3 non-blocking-commit mirror). Runs on client
    /// threads after synchronization, with no latch held. Best-effort
    /// for inserts: derived placeholder rows are not pre-locked; the
    /// propagator is their only writer, and new transactions cannot
    /// observe them before the lock release anyway.
    fn mirror_keys(&self, source: TableId, op: &PlannedOp<'_>) -> Vec<(TableId, Key, LockOrigin)>;

    /// The inverse mapping of a lazy migration's on-access hook: what
    /// must be transformed before an access to `key` of table `target`
    /// may proceed. The default is the fallback that is correct for any
    /// operator, at any table: the whole residual.
    fn lazy_source(&self, _target: TableId, _key: &Key) -> LazySource {
        LazySource::Residual
    }

    /// Transform frozen rows of `source` for a lazy migration: each row
    /// goes through the rules as an `Insert` at its own LSN, one
    /// [`TransformOperator::apply_batch`] per row, so a target latch is
    /// held for one record at a time. A row the workload already
    /// re-wrote in the target wins over the stale frozen image (content
    /// checks or LSN gates, Theorem 1).
    fn apply_frozen(&self, source: TableId, rows: Vec<Row>) -> DbResult<()> {
        for row in rows {
            let op = LogOp::Insert {
                table: source,
                row: row.values,
            };
            self.apply_batch(&[(row.lsn, &op)])?;
        }
        Ok(())
    }

    /// Whether synchronization may start (§5.3: a checking split is not
    /// ready while any S-record flag is unknown).
    fn readiness(&self) -> Readiness {
        Readiness::Ready
    }

    /// Periodic maintenance between propagation batches — the split
    /// consistency checker's certification rounds (§5.3).
    fn maintenance(&self, _db: &Database) -> DbResult<()> {
        Ok(())
    }

    /// React to a non-data control record the propagator encountered
    /// (`CcBegin`/`CcOk`, §5.3).
    fn on_control(&self, _rec: &LogRecord) -> DbResult<()> {
        Ok(())
    }

    /// Completed consistency-checker rounds (reporting).
    fn cc_rounds(&self) -> usize {
        0
    }

    /// Whether this operator keeps a source table alive as a target
    /// (§5.2 rename-in-place): synchronization must then neither freeze
    /// nor drop that source.
    fn renames_source(&self) -> bool {
        false
    }

    /// Publish the targets under their final catalog names. Called by
    /// synchronization while the sources are latched; only meaningful
    /// when [`TransformOperator::renames_source`] is true.
    fn publish(&self, _db: &Database) -> DbResult<()> {
        Ok(())
    }

    /// Final schema surgery after all grandfathered transactions ended
    /// (§5.2: project the renamed source down to the R-side columns).
    fn finalize(&self, _db: &Database) -> DbResult<()> {
        Ok(())
    }
}

/// Source table handles of an operator, resolved through the catalog.
pub fn source_tables(db: &Database, op: &dyn TransformOperator) -> DbResult<Vec<Arc<Table>>> {
    op.source_ids()
        .into_iter()
        .map(|id| db.catalog().get_by_id(id))
        .collect()
}

/// The copy's share of the job's wall-clock safety valve
/// (`TransformOptions::deadline`), checked once per chunk: a
/// low-priority population sleeps most of its life with the log pinned
/// behind its propagation cursor, so it must not outlive the budget.
pub(crate) fn check_deadline(deadline: Option<Instant>) -> DbResult<()> {
    // morph-lint: allow(nondet, operator deadline guard; wall-time bound on total runtime, never replayed state)
    if deadline.is_some_and(|d| Instant::now() > d) {
        return Err(DbError::TransformationAborted(
            "wall-clock deadline exceeded during population".into(),
        ));
    }
    Ok(())
}

/// The §3.2 fuzzy population scan, written once: stream the source
/// shard by shard ([`Table::fuzzy_scan`]), one shard's rows per chunk
/// in key order, and sleep off the work each chunk took at the
/// `priority` duty cycle under one [`Throttle`]. The sink receives
/// the chunks in scan order. Returns the rows read.
///
/// The scan reports the `populate.chunk` crash point between chunks
/// (no write session is open there, so the crash harness may both
/// inject workload and kill the run at that point).
pub(crate) fn scan_source(
    db: &Database,
    table: &Arc<Table>,
    chunk: usize,
    priority: f64,
    deadline: Option<Instant>,
    mut sink: impl FnMut(Vec<(Key, Row)>) -> DbResult<()>,
) -> DbResult<usize> {
    let mut scan = table.fuzzy_scan(chunk);
    let mut throttle = Throttle::new(priority);
    let mut rows = 0usize;
    loop {
        db.crash_point("populate.chunk")?;
        check_deadline(deadline)?;
        // morph-lint: allow(nondet, chunk timing feeds throttle pacing and stats only; wall time never enters table or WAL state)
        let t0 = Instant::now();
        let batch = scan.next_chunk();
        if batch.is_empty() {
            return Ok(rows);
        }
        rows += batch.len();
        sink(batch)?;
        throttle.pay(t0.elapsed());
    }
}
