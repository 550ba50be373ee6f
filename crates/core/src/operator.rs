//! The operator contract behind the transformation framework.
//!
//! The paper develops one *framework* (§3: preparation → fuzzy
//! population → log propagation → synchronization) and then plugs
//! concrete transformations into it: full outer join with propagation
//! rules 1–7 (§4), vertical split with rules 8–11 (§5), and sketches of
//! further operators (§7). [`TransformOperator`] is that plug point:
//! everything the framework layers (`Propagator`, `Transformer`, the
//! synchronization strategies) need from a transformation, with the
//! operator-independent machinery written once against the trait.
//!
//! ## Method ↔ paper map
//!
//! | method                  | paper                                            |
//! |-------------------------|--------------------------------------------------|
//! | [`populate`]            | §3.2 initial population by fuzzy read, over      |
//! |                         | `workers` scan threads sharing one priority      |
//! | [`apply`]               | §3.3 log propagation: FOJ rules 1–7 are          |
//! |                         | *content-based* (no LSN gating; they decide from |
//! |                         | the current T image, §4.2), split rules 8–11 and |
//! |                         | union are *LSN-gated* (state identifiers, §5.2)  |
//! | [`apply_batch`]         | batched §3.3 drain: one target-latch acquisition |
//! |                         | per batch instead of per record                  |
//! | [`on_control`]          | §5.3 `CcBegin`/`CcOk` consistency-checker records|
//! | [`maintenance`]         | §5.3 checker rounds between propagation batches  |
//! | [`readiness`]           | §5.3 gating: sync may not start while S-records  |
//! |                         | remain in the *unknown* state                    |
//! | [`target_keys_for`],    | §3.4/§4.3 lock transfer: source record locks are |
//! | [`mirror_map`]          | mirrored onto the transformed tables             |
//! | [`renames_source`],     | §5.2 rename-in-place variant: the source keeps   |
//! | [`publish`],            | living as the R-side target, is renamed at sync  |
//! | [`finalize`]            | and projected down once the old txns drain       |
//!
//! [`populate`]: TransformOperator::populate
//! [`apply`]: TransformOperator::apply
//! [`apply_batch`]: TransformOperator::apply_batch
//! [`on_control`]: TransformOperator::on_control
//! [`maintenance`]: TransformOperator::maintenance
//! [`readiness`]: TransformOperator::readiness
//! [`target_keys_for`]: TransformOperator::target_keys_for
//! [`mirror_map`]: TransformOperator::mirror_map
//! [`renames_source`]: TransformOperator::renames_source
//! [`publish`]: TransformOperator::publish
//! [`finalize`]: TransformOperator::finalize

use crate::cc::Readiness;
use crate::sync::MirrorMap;
use crate::throttle::Throttle;
use morph_common::{DbError, DbResult, Key, Lsn, TableId};
use morph_engine::Database;
use morph_storage::{shard_stride, Row, Table};
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

/// A transformation operator pluggable into the framework: the paper's
/// propagation-rule sets (§4 FOJ, §5 split, §7 others) behind one
/// object-safe contract.
///
/// `Propagator` drives [`apply_batch`]/[`on_control`]/[`maintenance`],
/// `Transformer` drives [`populate`]/[`readiness`]/
/// [`finalize`], and the synchronization strategies drive
/// [`target_keys_for`]/[`mirror_map`]/[`renames_source`]/[`publish`].
///
/// [`apply_batch`]: TransformOperator::apply_batch
/// [`on_control`]: TransformOperator::on_control
/// [`maintenance`]: TransformOperator::maintenance
/// [`populate`]: TransformOperator::populate
/// [`readiness`]: TransformOperator::readiness
/// [`finalize`]: TransformOperator::finalize
/// [`target_keys_for`]: TransformOperator::target_keys_for
/// [`mirror_map`]: TransformOperator::mirror_map
/// [`renames_source`]: TransformOperator::renames_source
/// [`publish`]: TransformOperator::publish
pub trait TransformOperator: Send {
    /// Source tables whose log records feed the propagation rules.
    fn source_ids(&self) -> Vec<TableId>;

    /// Apply one relevant log record through the propagation rules
    /// (§3.3). Must be idempotent with respect to re-application after
    /// a crash (Theorem 1): FOJ achieves this by content checks, split
    /// and union by LSN gating.
    fn apply(&mut self, lsn: Lsn, op: &LogOp) -> DbResult<()>;

    /// Apply a batch of relevant records. The default simply loops over
    /// [`TransformOperator::apply`]; operators override this to open
    /// one write session per target table for the whole batch, paying
    /// one latch round trip per batch instead of per record.
    fn apply_batch(&mut self, batch: &[(Lsn, &LogOp)]) -> DbResult<()> {
        for &(lsn, op) in batch {
            self.apply(lsn, op)?;
        }
        Ok(())
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

    /// Initial population by fuzzy read (§3.2) with `workers` scan
    /// threads over disjoint key-space partitions. The priority budget
    /// is divided among the workers ([`worker_share`]) so the aggregate
    /// duty cycle honors `priority` at every worker count, and every
    /// chunk checks the job's wall-clock `deadline`
    /// ([`check_deadline`]). Returns `(rows_read, rows_written)`. The
    /// database handle feeds the per-chunk crash point
    /// (`populate.chunk`) that the deterministic crash harness kills
    /// fuzzy copies at.
    fn populate(
        &mut self,
        db: &Database,
        chunk: usize,
        workers: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)>;

    /// Target keys a record lock on `(table, key)` must be mirrored to
    /// during lock transfer (§3.4). Reads the *transformed* tables, so
    /// it stays correct while the sources are latched.
    fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)>;

    /// Closed-form source-op → target-keys mapping for the non-blocking
    /// commit interceptor (§4.3), usable without reading the sources.
    fn mirror_map(&self) -> MirrorMap;

    /// Whether synchronization may start (§5.3: a checking split is not
    /// ready while any S-record flag is unknown).
    fn readiness(&self) -> Readiness {
        Readiness::Ready
    }

    /// Periodic maintenance between propagation batches — the split
    /// consistency checker's certification rounds (§5.3).
    fn maintenance(&mut self, _db: &Database) -> DbResult<()> {
        Ok(())
    }

    /// React to a non-data control record the propagator encountered
    /// (`CcBegin`/`CcOk`, §5.3).
    fn on_control(&mut self, _lsn: Lsn, _rec: &LogRecord) -> DbResult<()> {
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

/// The §3.2 chunk loop, written once: stream partition `part` of
/// `parts` of one source table in primary-key chunks, sleeping off
/// the work each chunk took at `priority` (this scan thread's duty
/// cycle). Returns the rows read.
///
/// With a database handle the scan reports the `populate.chunk` crash
/// point between chunks (no write session is open there, so the crash
/// harness may both inject workload and kill the run at that point).
pub(crate) fn scan_partition(
    db: Option<&Database>,
    table: &Arc<Table>,
    chunk: usize,
    (part, parts): (usize, usize),
    priority: f64,
    deadline: Option<Instant>,
    mut sink: impl FnMut(Vec<(Key, Row)>) -> DbResult<()>,
) -> DbResult<usize> {
    let mut scan = table.fuzzy_scan_partition(chunk, part, parts);
    let mut throttle = Throttle::new(priority);
    let mut rows = 0usize;
    loop {
        if let Some(db) = db {
            db.crash_point("populate.chunk")?;
        }
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

/// Per-worker priority share for an `n`-way parallel fuzzy copy: the
/// duty cycles sum to the configured priority, so `n` workers at
/// `p / n` interfere with user transactions no more than one worker at
/// `p`. Full priority stays full per worker — there is no budget to
/// divide when the transformation may use the whole machine.
pub(crate) fn worker_share(priority: f64, workers: usize) -> f64 {
    if priority >= 1.0 {
        1.0
    } else {
        (priority / workers.max(1) as f64).max(1e-4)
    }
}

/// Run `work` once per input, one population worker each, and collect
/// the results in input order. A single input runs inline on the
/// calling thread (the deterministic crash harness drives one-worker
/// copies and must see their crash points on its own thread); several
/// run on scoped threads, all joined before the first error surfaces.
pub(crate) fn fan_out<I: Send, T: Send>(
    inputs: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> DbResult<T> + Sync,
) -> DbResult<Vec<T>> {
    let mut inputs: Vec<I> = inputs.into_iter().collect();
    if inputs.len() == 1 {
        return Ok(vec![work(inputs.remove(0))?]);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| scope.spawn(move || work(input)))
            .collect();
        let results: Vec<DbResult<T>> = handles
            .into_iter()
            // morph-lint: allow(panic, re-raises a worker panic at the join point; mapping it to DbError would bury the original panic site)
            .map(|h| h.join().expect("population worker panicked"))
            .collect();
        results.into_iter().collect()
    })
}

/// Shared driver for the §3.2 fuzzy population scan: partition the
/// source's storage shards into `workers` disjoint classes and stream
/// each class through [`scan_partition`] on its own [`fan_out`] worker,
/// each paying its own [`worker_share`] of the priority budget. The
/// sink receives `(worker, chunk)` pairs; chunks of different workers
/// arrive concurrently, chunks of one worker arrive in key order.
/// Returns the total rows read.
pub(crate) fn scan_source<F>(
    db: Option<&Database>,
    table: &Arc<Table>,
    chunk: usize,
    workers: usize,
    priority: f64,
    deadline: Option<Instant>,
    sink: &F,
) -> DbResult<usize>
where
    F: Fn(usize, Vec<(Key, Row)>) -> DbResult<()> + Sync,
{
    let workers = shard_stride(workers.max(1));
    let share = worker_share(priority, workers);
    let read = fan_out(0..workers, |w| {
        scan_partition(db, table, chunk, (w, workers), share, deadline, |batch| {
            sink(w, batch)
        })
    })?;
    Ok(read.into_iter().sum())
}
