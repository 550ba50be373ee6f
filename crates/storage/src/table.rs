//! Tables: primary-key B-tree heaps with secondary indexes, short
//! physical latches, freeze states and the fuzzy scan.
//!
//! # Sharded storage
//!
//! The row heap is partitioned into [`TABLE_SHARDS`] sub-heaps, each
//! its own B-tree under its own latch. A row is routed to a shard by a
//! deterministic hash of its *shard key* — by default the whole
//! primary key, optionally a subset of key positions chosen at
//! preparation time ([`Table::set_shard_key`]) so that a source row
//! and the target row mirroring it route to the same shard index (a
//! union target routes by the source-key suffix, skipping the
//! provenance tag).
//!
//! Single-key operations latch only the owning shard, whole-table
//! latches and write sessions compose all shard latches in ascending
//! order, and [`Table::insert_absent`] opens a session over just the
//! shards its rows route to, so a lazy transform and a writer on
//! another shard never share a latch. The fuzzy scan reads one shard
//! at a time under that shard's read latch.
//!
//! # One write path
//!
//! Each of insert, delete and update has one body (`TableShard::insert`,
//! `TableShard::delete`, `WriteSession::update_with`). User
//! transactions, rollbacks and restart redo reach it through
//! [`Table`]'s single-row writes; the propagation rules, the population
//! and [`Table::insert_absent`] through a [`WriteSession`]. The body
//! validates once, checks the primary key, runs the caller's LSN
//! closure, then moves the key if it changes, maintains the indexes and
//! archives the version. Secondary indexes are never unique (see
//! [`crate::index`]), so no write looks beyond the shard that owns its
//! row, and the shard its key moves to.

use crate::index::SecondaryIndex;
use crate::mvcc::{CommitTable, VersionChain, VersionEntry, SYSTEM};
use crate::row::Row;
use morph_common::{DbError, DbResult, Key, Lsn, Schema, TableId, TxnId, Value};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of storage shards per table: the unit of latching, of the
/// fuzzy scan's chunks and of the lazy residual's stripes and lanes.
pub const TABLE_SHARDS: usize = 8;

/// Deterministic routing hash: the same values route to the same shard
/// in every process (SipHash with fixed keys), which keeps crash-sim
/// replays byte-identical.
pub(crate) fn route_hash(values: &[Value], positions: Option<&[usize]>) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match positions {
        None => {
            for v in values {
                v.hash(&mut h);
            }
        }
        Some(pos) => {
            for &p in pos {
                values[p].hash(&mut h);
            }
        }
    }
    (h.finish() % TABLE_SHARDS as u64) as usize
}

/// Access state of a table.
///
/// After a non-blocking synchronization the source tables are *frozen*:
/// only the transactions that were active at synchronization time (and
/// are now rolling back, or — under non-blocking commit — running to
/// completion) may still touch them (§3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableState {
    /// Normal operation.
    Active,
    /// Only the listed transactions may operate on the table.
    Frozen { allowed: HashSet<TxnId> },
    /// The table is logically dropped; no transaction may touch it.
    Dropped,
}

/// One storage shard: a slice of the row heap plus the matching slice
/// of every secondary index (a row's index entries live in the shard
/// that owns the row) and, when versioning is enabled, the archived
/// version chains for keys this shard owns.
struct TableShard {
    rows: BTreeMap<Key, Row>,
    indexes: Vec<SecondaryIndex>,
    /// Pre-images displaced by versioned writes, oldest first. The
    /// inline row in `rows` is the newest state and never appears
    /// here; a key present here but absent from `rows` was deleted
    /// (its chain ends in a tombstone).
    versions: BTreeMap<Key, VersionChain>,
}

impl TableShard {
    /// The insert body. `key` is the primary key of the validated row
    /// (see [`checked_key`]). Returns `false`, running no closure and
    /// touching nothing, when the key is taken; otherwise stamps the
    /// row with the LSN `mk_lsn` produces — after the check, before any
    /// mutation, so a closure error leaves the shard as it was — and
    /// registers it in every index, in one B-tree descent.
    fn insert(
        &mut self,
        key: Key,
        mut row: Row,
        mk_lsn: impl FnOnce() -> DbResult<Lsn>,
    ) -> DbResult<bool> {
        let TableShard { rows, indexes, .. } = self;
        let Entry::Vacant(slot) = rows.entry(key) else {
            return Ok(false);
        };
        row.lsn = mk_lsn()?;
        for idx in indexes {
            idx.insert(&row.values, slot.key());
        }
        slot.insert(row);
        Ok(true)
    }

    /// The delete body. `log` sees the pre-image (for undo logging) and
    /// returns the deleting operation's LSN; it runs after the presence
    /// check and before any mutation. `ver` is `Some(writer)` for a
    /// versioned delete: the pre-image and a tombstone stamped with
    /// that LSN and `writer` are archived, so older snapshots keep
    /// seeing the row. `None` erases the key's archived history
    /// instead — a chain without the context of a logged tombstone
    /// would resurrect stale versions for snapshot readers (an
    /// unversioned table has no chains to erase).
    fn delete(
        &mut self,
        key: &Key,
        ver: Option<TxnId>,
        log: impl FnOnce(&Row) -> DbResult<Lsn>,
    ) -> DbResult<Row> {
        let lsn = log(self.rows.get(key).ok_or_else(|| not_found(key))?)?;
        let row = self.rows.remove(key).expect("checked above"); // morph-lint: allow(panic, presence was checked earlier in the same latched section)
        for idx in &mut self.indexes {
            idx.remove(&row.values, key);
        }
        match ver {
            Some(writer) => {
                let chain = self.versions.entry(key.clone()).or_default();
                chain.push(VersionEntry {
                    lsn: row.lsn,
                    writer: row.writer,
                    data: Some(row.clone()),
                });
                chain.push(VersionEntry {
                    lsn,
                    writer,
                    data: None,
                });
            }
            None => {
                self.versions.remove(key);
            }
        }
        Ok(row)
    }

    fn index_rows_into(&self, idx: usize, ik: &Key, out: &mut Vec<(Key, Row)>) {
        if let Some(set) = self.indexes[idx].pk_set(ik) {
            for pk in set {
                if let Some(r) = self.rows.get(pk) {
                    out.push((pk.clone(), r.clone()));
                }
            }
        }
    }
}

/// Validate a row image and derive its primary key, once per insert
/// and before any latch: the key picks the shard.
fn checked_key(schema: &Schema, values: &[Value]) -> DbResult<Key> {
    schema.validate(values)?;
    Ok(schema.key_of(values))
}

fn not_found(key: &Key) -> DbError {
    DbError::KeyNotFound(format!("{key:?}"))
}

fn taken(key: &Key) -> DbError {
    DbError::DuplicateKey(format!("{key:?}"))
}

fn outside_mask(shard: usize) -> DbError {
    DbError::Internal(format!("shard {shard} routed outside the session mask"))
}

/// A main-memory table.
///
/// All physical operations take a short write latch on the owning row
/// shard; [`Table::latch_exclusive`] composes every shard latch, which
/// the synchronization step holds across the final log propagation
/// iteration (§3.4) — this is what "latching the source tables" means
/// in this engine.
pub struct Table {
    id: TableId,
    name: RwLock<String>,
    schema: RwLock<Schema>,
    state: RwLock<TableState>,
    /// Positions *within the primary key* whose values route a row to
    /// its shard; `None` routes by the whole key.
    shard_key: RwLock<Option<Arc<[usize]>>>,
    /// Whether single-key writes maintain version chains (MVCC). Off by
    /// default: the unversioned engine pays nothing for the feature.
    versioning: AtomicBool,
    shards: [RwLock<TableShard>; TABLE_SHARDS],
}

impl Table {
    /// Create an empty table.
    pub fn new(id: TableId, name: &str, schema: Schema) -> Table {
        Table {
            id,
            name: RwLock::new(name.to_owned()),
            schema: RwLock::new(schema),
            state: RwLock::new(TableState::Active),
            shard_key: RwLock::new(None),
            versioning: AtomicBool::new(false),
            shards: std::array::from_fn(|_| {
                RwLock::new(TableShard {
                    rows: BTreeMap::new(),
                    indexes: Vec::new(),
                    versions: BTreeMap::new(),
                })
            }),
        }
    }

    /// Stable identifier.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Current name (tables can be renamed; §5.2 rename-in-place).
    pub fn name(&self) -> String {
        self.name.read().clone()
    }

    pub(crate) fn set_name(&self, name: &str) {
        *self.name.write() = name.to_owned();
    }

    /// A clone of the current schema (two reference-count bumps).
    pub fn schema(&self) -> Schema {
        self.schema.read().clone()
    }

    // --- versioning -----------------------------------------------------

    /// Turn on version-chain maintenance for single-key writes. Never
    /// turned back off: chains whose entries predate enablement simply
    /// don't exist, and the inline rows' `SYSTEM` stamps make them
    /// visible to every snapshot by LSN order alone.
    pub fn enable_versioning(&self) {
        self.versioning.store(true, Ordering::Release);
    }

    /// Whether versioned writes maintain chains.
    pub fn versioning_enabled(&self) -> bool {
        self.versioning.load(Ordering::Acquire)
    }

    /// Total archived version entries across all shards (GC accounting
    /// and tests; takes each shard latch once).
    pub fn version_count(&self) -> usize {
        self.all_read()
            .iter()
            .map(|g| g.versions.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    // --- shard routing -------------------------------------------------

    /// Route rows to shards by the values at `positions` *within the
    /// primary key* instead of the whole key. Must be called while the
    /// table is empty (preparation time): rows are never re-homed.
    ///
    /// Choosing the key columns a target row shares with its source
    /// row (a union target's source-key suffix) routes the two to the
    /// same shard index, so a lazy transform of one source shard
    /// latches one target shard ([`Table::insert_absent`]).
    pub fn set_shard_key(&self, positions: Vec<usize>) -> DbResult<()> {
        let key_len = self.schema.read().pkey().len();
        if positions.iter().any(|&p| p >= key_len) {
            return Err(DbError::InvalidSchema(format!(
                "shard-key position out of range (key arity {key_len})"
            )));
        }
        if !self.is_empty() {
            return Err(DbError::InvalidSchema(
                "shard key must be configured on an empty table".into(),
            ));
        }
        *self.shard_key.write() = Some(positions.into());
        Ok(())
    }

    /// The shard a row with this primary key lives in.
    pub fn shard_of_key(&self, key: &Key) -> usize {
        route_hash(&key.0, self.shard_key.read().as_deref())
    }

    /// The shard-key positions (`None`: the whole key), for callers that
    /// route many keys of a table whose shard key can no longer change.
    pub(crate) fn shard_key(&self) -> Option<Arc<[usize]>> {
        self.shard_key.read().clone()
    }

    fn route(&self, key: &Key) -> usize {
        self.shard_of_key(key)
    }

    fn all_read(&self) -> [RwLockReadGuard<'_, TableShard>; TABLE_SHARDS] {
        std::array::from_fn(|i| self.shards[i].read())
    }

    fn all_write(&self) -> [RwLockWriteGuard<'_, TableShard>; TABLE_SHARDS] {
        std::array::from_fn(|i| self.shards[i].write())
    }

    // --- access state -------------------------------------------------

    /// Current access state.
    pub fn state(&self) -> TableState {
        self.state.read().clone()
    }

    /// Freeze the table for everyone but `allowed` (§3.4).
    pub fn freeze(&self, allowed: HashSet<TxnId>) {
        *self.state.write() = TableState::Frozen { allowed };
    }

    /// Remove one transaction from the frozen allow-list (it finished
    /// rolling back / committing). Returns `true` when the allow-list
    /// is now empty, i.e. the table can be physically dropped.
    pub fn retire_allowed(&self, txn: TxnId) -> bool {
        let mut st = self.state.write();
        if let TableState::Frozen { allowed } = &mut *st {
            allowed.remove(&txn);
            allowed.is_empty()
        } else {
            false
        }
    }

    /// Mark the table dropped.
    pub fn mark_dropped(&self) {
        *self.state.write() = TableState::Dropped;
    }

    /// Reactivate a frozen table (transformation aborted).
    pub fn reactivate(&self) {
        *self.state.write() = TableState::Active;
    }

    /// Check that `txn` may operate on this table in its current state.
    pub fn check_access(&self, txn: TxnId) -> DbResult<()> {
        match &*self.state.read() {
            TableState::Active => Ok(()),
            TableState::Frozen { allowed } if allowed.contains(&txn) => Ok(()),
            TableState::Frozen { .. } | TableState::Dropped => Err(DbError::TableFrozen(self.id)),
        }
    }

    // --- indexes ------------------------------------------------------

    /// Create a secondary index over the named columns. Existing rows
    /// are indexed immediately (the preparation step creates indexes on
    /// empty transformed tables, so this is cheap there). Each shard
    /// holds the index slice for its own rows.
    pub fn add_index(&self, name: &str, columns: &[&str]) -> DbResult<usize> {
        let schema = self.schema.read();
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(schema.require(c)?);
        }
        drop(schema);
        let mut guards = self.all_write();
        if guards[0].indexes.iter().any(|i| i.name == name) {
            return Err(DbError::InvalidSchema(format!(
                "index {name:?} already exists"
            )));
        }
        for g in &mut guards {
            let mut idx = SecondaryIndex::new(name, cols.clone());
            for (pk, row) in &g.rows {
                idx.insert(&row.values, pk);
            }
            g.indexes.push(idx);
        }
        Ok(guards[0].indexes.len() - 1)
    }

    /// Position of an index by name.
    pub fn index_pos(&self, name: &str) -> Option<usize> {
        self.shards[0]
            .read()
            .indexes
            .iter()
            .position(|i| i.name == name)
    }

    /// Primary keys of rows whose index key equals `ik`, in key order.
    pub fn index_lookup(&self, idx: usize, ik: &Key) -> Vec<Key> {
        let guards = self.all_read();
        let mut out: Vec<Key> = Vec::new();
        for g in &guards {
            if let Some(set) = g.indexes[idx].pk_set(ik) {
                out.extend(set.iter().cloned());
            }
        }
        out.sort();
        out
    }

    /// Rows (with their primary keys) whose index key equals `ik`,
    /// fetched atomically under one composite latch acquisition — the
    /// consistency checker and the propagation rules use this so that a
    /// row cannot vanish between the index probe and the row fetch.
    pub fn index_rows(&self, idx: usize, ik: &Key) -> Vec<(Key, Row)> {
        let guards = self.all_read();
        let mut out: Vec<(Key, Row)> = Vec::new();
        for g in &guards {
            g.index_rows_into(idx, ik, &mut out);
        }
        if out.len() > 1 {
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    // --- physical row operations ---------------------------------------
    //
    // The `_with` forms take the writing transaction and a fallible
    // closure that produces the operation's LSN under the shard latch:
    // the engine re-checks the table's access state and appends the log
    // record there, so "apply + log + stamp" is atomic with respect to
    // fuzzy scans and the consistency checker. The closure runs after
    // every check and before any mutation; on its error nothing is
    // logged or applied.

    /// Insert a full row (counter 1, consistent flag, `SYSTEM` writer).
    pub fn insert(&self, values: Vec<Value>, lsn: Lsn) -> DbResult<Key> {
        self.insert_with(values, SYSTEM, || Ok(lsn))
    }

    /// Insert with the row's LSN produced under the shard latch by
    /// `mk_lsn`, stamped with `writer` for MVCC visibility. While
    /// versioning is disabled the stamp is forced to `SYSTEM` — rows
    /// written before a later [`Table::enable_versioning`] must stay
    /// visible by LSN order (their writers are not in any commit table).
    pub fn insert_with(
        &self,
        values: Vec<Value>,
        writer: TxnId,
        mk_lsn: impl FnOnce() -> DbResult<Lsn>,
    ) -> DbResult<Key> {
        let key = checked_key(&self.schema.read(), &values)?;
        let mut row = Row::new(values, Lsn::ZERO);
        if self.versioning_enabled() {
            row.writer = writer;
        }
        let mut shard = self.shards[self.route(&key)].write();
        if shard.insert(key.clone(), row, mk_lsn)? {
            Ok(key)
        } else {
            Err(taken(&key))
        }
    }

    /// Delete by primary key, returning the removed row.
    ///
    /// This is the *unversioned* delete: on a versioned table it also
    /// erases the key's archived history (a chain without the context
    /// of a logged tombstone would resurrect stale versions for
    /// snapshot readers). Transactional deletes that must preserve
    /// history go through [`Table::delete_with`].
    pub fn delete(&self, key: &Key) -> DbResult<Row> {
        let mut shard = self.shards[self.route(key)].write();
        shard.delete(key, None, |row| Ok(row.lsn))
    }

    /// Versioned delete: `log` sees the pre-image (for undo logging)
    /// and produces the deleting operation's LSN under the latch. With
    /// versioning on, the pre-image and a tombstone stamped with that
    /// LSN and `writer` are archived: snapshots older than the
    /// tombstone keep seeing the row, newer ones see it absent.
    pub fn delete_with(
        &self,
        key: &Key,
        writer: TxnId,
        log: impl FnOnce(&Row) -> DbResult<Lsn>,
    ) -> DbResult<Row> {
        let ver = self.versioning_enabled().then_some(writer);
        let mut shard = self.shards[self.route(key)].write();
        shard.delete(key, ver, log)
    }

    /// Sparse-column update by primary key, stamped `new_lsn` (a
    /// `SYSTEM` write, see [`Table::update_with`]). Handles primary-key
    /// column changes by moving the row; returns the new key if it
    /// moved.
    pub fn update(
        &self,
        key: &Key,
        cols: &[(usize, Value)],
        new_lsn: Lsn,
    ) -> DbResult<Option<Key>> {
        self.update_with(key, cols, SYSTEM, |_| Ok(new_lsn))
    }

    /// Update with the new LSN produced under the latch by `mk_lsn`,
    /// which sees the pre-image (the row before the update) so the
    /// engine can append redo+undo information to the log atomically
    /// with the physical change. With versioning on, the displaced
    /// state is archived and the new inline row is stamped with
    /// `writer`. A primary-key change may move the row to another
    /// shard, so it latches every shard; any other update latches the
    /// owning shard alone and changes the row in place. Returns the
    /// new key if the row moved.
    pub fn update_with(
        &self,
        key: &Key,
        cols: &[(usize, Value)],
        writer: TxnId,
        mk_lsn: impl FnOnce(&Row) -> DbResult<Lsn>,
    ) -> DbResult<Option<Key>> {
        let moves = {
            let schema = self.schema.read();
            cols.iter().any(|(i, _)| schema.pkey().contains(i))
        };
        let owner = self.route(key);
        let ver = self.versioning_enabled().then_some(writer);
        self.session_over(|s| moves || s == owner)
            .update_with(key, cols, ver, mk_lsn)
    }

    /// Mutate a row in place under the latch (propagator-only path for
    /// counter/flag/LSN maintenance that must not move the row).
    ///
    /// Returns `None` if the key does not exist. The closure must not
    /// change columns that participate in the primary key or any index.
    pub fn with_row_mut<R>(&self, key: &Key, f: impl FnOnce(&mut Row) -> R) -> Option<R> {
        let mut g = self.shards[self.route(key)].write();
        g.rows.get_mut(key).map(f)
    }

    /// Clone of the row at `key`.
    pub fn get(&self, key: &Key) -> Option<Row> {
        self.shards[self.route(key)].read().rows.get(key).cloned()
    }

    /// Whether a row with `key` exists.
    pub fn contains(&self, key: &Key) -> bool {
        self.shards[self.route(key)].read().rows.contains_key(key)
    }

    /// Up to `max` keys of storage shard `shard` above `after`
    /// (everything, for `None`), ascending, under that shard's read
    /// latch alone — the lazy backfill's walk over a frozen source.
    pub(crate) fn shard_keys_after(
        &self,
        shard: usize,
        after: Option<&Key>,
        max: usize,
    ) -> Vec<Key> {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        self.shards[shard]
            .read()
            .rows
            .range::<Key, _>((from, Bound::Unbounded))
            .take(max)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of rows (atomic across shards).
    pub fn len(&self) -> usize {
        self.all_read().iter().map(|g| g.rows.len()).sum()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consistent snapshot of all rows in key order (takes every shard
    /// latch once; test and verification helper, not a hot path).
    pub fn snapshot(&self) -> Vec<(Key, Row)> {
        let guards = self.all_read();
        let mut out: Vec<(Key, Row)> = guards
            .iter()
            .flat_map(|g| g.rows.iter().map(|(k, r)| (k.clone(), r.clone())))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    // --- snapshot reads (MVCC) ------------------------------------------

    /// The row at `key` as visible to a snapshot taken at `snapshot`:
    /// the inline row if its version is visible, otherwise the newest
    /// visible archived version (`None` when that is a tombstone or no
    /// version qualifies). Takes only the owning shard's *read* latch —
    /// no transaction locks, ever.
    pub fn snapshot_get(&self, key: &Key, snapshot: Lsn, commit: &CommitTable) -> Option<Row> {
        let g = self.shards[self.route(key)].read();
        resolve_at(&g, key, snapshot, commit)
    }

    /// Every row of the table *as of* `snapshot`, in primary-key order.
    /// Unlike the fuzzy scan this is one consistent cut — concurrent
    /// writers keep committing, but their effects are invisible to the
    /// scan. One pass per shard under that shard's read latch resolves
    /// each key of its rows and of its version chains (a key deleted
    /// after the snapshot lives in the versions map alone); the result
    /// is sorted once at the end. No transaction locks, ever.
    pub fn snapshot_scan(&self, snapshot: Lsn, commit: &CommitTable) -> Vec<(Key, Row)> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let g = self.shards[i].read();
            let history_only = g.versions.keys().filter(|k| !g.rows.contains_key(*k));
            for key in g.rows.keys().chain(history_only) {
                if let Some(row) = resolve_at(&g, key, snapshot, commit) {
                    out.push((key.clone(), row));
                }
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    // --- version GC -----------------------------------------------------

    /// Reclaim archived versions that no snapshot at or after
    /// `watermark` can ever resolve; returns the number of entries
    /// dropped. Per chain (newest first, with the inline row as the
    /// implicit top): once a version visible at the watermark is found,
    /// everything older is unreachable — every surviving snapshot
    /// resolves at or above it. A chain whose watermark-visible answer
    /// is "absent" (visible tombstone, no newer state) is dropped
    /// whole. The caller supplies a sound watermark: no older live
    /// snapshot, no active transaction with an older first LSN.
    pub fn gc_versions(&self, watermark: Lsn, commit: &CommitTable) -> u64 {
        let mut reclaimed = 0u64;
        for i in 0..self.shards.len() {
            let mut g = self.shards[i].write();
            let TableShard { rows, versions, .. } = &mut *g;
            versions.retain(|key, chain| {
                let inline_visible = rows
                    .get(key)
                    .is_some_and(|r| commit.is_visible(r.writer, r.lsn, watermark));
                if inline_visible {
                    // Every surviving snapshot resolves the inline row.
                    reclaimed += chain.len() as u64;
                    return false;
                }
                if let Some(pos) = chain
                    .iter()
                    .rposition(|e| commit.is_visible(e.writer, e.lsn, watermark))
                {
                    if pos == chain.len() - 1
                        && chain[pos].data.is_none()
                        && !rows.contains_key(key)
                    {
                        reclaimed += chain.len() as u64;
                        return false;
                    }
                    reclaimed += pos as u64;
                    chain.drain(..pos);
                }
                true
            });
        }
        reclaimed
    }

    // --- latches --------------------------------------------------------

    /// Exclusive latch over every shard: pauses *all* physical
    /// operations while held — the §3.4 synchronization latch.
    pub fn latch_exclusive(&self) -> TableExclusiveLatch<'_> {
        TableExclusiveLatch {
            guards: self.all_write(),
        }
    }

    /// Open a write session: the composite exclusive latch amortized
    /// over a whole batch of physical operations. The batched log
    /// propagator drains a group of records through one session instead
    /// of paying a latch round trip per record.
    ///
    /// The session snapshots the schema at open; concurrent schema
    /// surgery (`project_columns`) on a table with an open session is
    /// excluded by the latches themselves. While a session is open
    /// every access to this table from the owning thread must go
    /// through the session — the latches are not re-entrant.
    pub fn write_session(&self) -> WriteSession<'_> {
        self.session_over(|_| true)
    }

    /// Insert every row of `rows` whose key the table does not hold
    /// yet (the lazy transform path: a batch of frozen source images,
    /// idempotent on a re-run); returns how many went in. Everything
    /// that needs no latch happens first — validation, key derivation,
    /// routing — and only then a write session opens over exactly the
    /// shards those keys route to (ascending, like every composite
    /// latch), for one B-tree descent per row. Shards no row routes to
    /// stay writable by others throughout. A validation error is raised
    /// before anything is written.
    pub fn insert_absent(&self, rows: impl IntoIterator<Item = Row>) -> DbResult<usize> {
        let mut owns = [false; TABLE_SHARDS];
        let routed = {
            let schema = self.schema.read();
            let shard_key = self.shard_key.read();
            rows.into_iter()
                .map(|row| {
                    let key = checked_key(&schema, &row.values)?;
                    let shard = route_hash(&key.0, shard_key.as_deref());
                    owns[shard] = true;
                    Ok((shard, key, row))
                })
                .collect::<DbResult<Vec<_>>>()?
        };
        let mut session = self.session_over(|s| owns[s]);
        let mut inserted = 0;
        for (shard, key, row) in routed {
            let lsn = row.lsn;
            inserted += session.shard_mut(shard)?.insert(key, row, || Ok(lsn))? as usize;
        }
        Ok(inserted)
    }

    /// A write session over the shards `owns` accepts only. Operations
    /// that route outside them fail with an internal error rather than
    /// touching unlatched state.
    fn session_over(&self, owns: impl Fn(usize) -> bool) -> WriteSession<'_> {
        let schema = self.schema.read().clone();
        let shard_key = self.shard_key.read().clone();
        WriteSession {
            schema,
            shard_key,
            guards: std::array::from_fn(|s| owns(s).then(|| self.shards[s].write())),
        }
    }

    // --- fuzzy scan ------------------------------------------------------

    /// Begin a fuzzy scan: chunked, lock-free (transaction-wise)
    /// iteration, shard by shard and in primary-key order within a
    /// shard. Writers interleave between chunks, so the result may mix
    /// states — by design (§2.2, §3.2).
    pub fn fuzzy_scan(self: &Arc<Self>, chunk_size: usize) -> FuzzyScanner {
        FuzzyScanner {
            table: Arc::clone(self),
            shard: 0,
            after: None,
            chunk_size: chunk_size.max(1),
            #[cfg(test)]
            latches: 0,
        }
    }

    /// [`Table::fuzzy_scan`] under the name `benchmark/src/probes.rs`
    /// calls it by, as `(chunk, 0, 1)`: it scans the whole table
    /// whatever `part` and `parts` say.
    pub fn fuzzy_scan_partition(
        self: &Arc<Self>,
        chunk: usize,
        _: usize,
        _: usize,
    ) -> FuzzyScanner {
        self.fuzzy_scan(chunk)
    }

    // --- schema surgery (rename-in-place split variant, §5.2) -----------

    /// Project the table down to `keep` columns (positions in current
    /// schema order), rewriting rows and rebuilding indexes. The
    /// primary key must be contained in `keep`. Indexes referencing
    /// dropped columns are themselves dropped.
    pub fn project_columns(&self, keep: &[usize]) -> DbResult<()> {
        let old_schema = self.schema.read().clone();
        if !old_schema.covers_pkey(keep) {
            return Err(DbError::InvalidSchema(
                "cannot drop primary-key columns".into(),
            ));
        }
        let mut b = Schema::builder();
        for &i in keep {
            let c = old_schema
                .columns()
                .get(i)
                .ok_or_else(|| DbError::InvalidSchema(format!("no column {i}")))?;
            b = if c.nullable {
                b.nullable(&c.name, c.ty)
            } else {
                b.column(&c.name, c.ty)
            };
        }
        let pkey_names: Vec<String> = old_schema
            .pkey()
            .iter()
            .map(|&p| old_schema.columns()[p].name.clone())
            .collect();
        let pkey_refs: Vec<&str> = pkey_names.iter().map(String::as_str).collect();
        let new_schema = b.primary_key(&pkey_refs).build()?;

        let mut guards = self.all_write();
        let remap: Vec<usize> = keep.to_vec();
        for g in &mut guards {
            // Rebuild surviving indexes with remapped column positions.
            let mut new_indexes: Vec<SecondaryIndex> = g
                .indexes
                .iter()
                .filter_map(|idx| {
                    let cols = idx.cols.iter().map(|c| remap.iter().position(|k| k == c));
                    Some(SecondaryIndex::new(&idx.name, cols.collect::<Option<_>>()?))
                })
                .collect();
            let old_rows = std::mem::take(&mut g.rows);
            for (_, mut row) in old_rows {
                row.values = remap.iter().map(|&i| row.values[i].clone()).collect();
                let key = new_schema.key_of(&row.values);
                for idx in &mut new_indexes {
                    idx.insert(&row.values, &key);
                }
                g.rows.insert(key, row);
            }
            g.indexes = new_indexes;
            // Archived versions carry the old schema's shape; after the
            // projection they cannot be resolved against the new one.
            // Schema surgery erases history (snapshots that straddle a
            // cutover see the post-surgery state).
            g.versions.clear();
        }
        drop(guards);
        *self.schema.write() = new_schema;
        Ok(())
    }
}

/// Resolve `key` within one latched shard as of `snapshot`: inline row
/// if visible, else the newest visible archived version (whose `None`
/// data — a tombstone — means "absent at that time").
fn resolve_at(shard: &TableShard, key: &Key, snapshot: Lsn, commit: &CommitTable) -> Option<Row> {
    if let Some(r) = shard.rows.get(key) {
        if commit.is_visible(r.writer, r.lsn, snapshot) {
            return Some(r.clone());
        }
    }
    let chain = shard.versions.get(key)?;
    chain
        .iter()
        .rev()
        .find(|e| commit.is_visible(e.writer, e.lsn, snapshot))
        .and_then(|e| e.data.clone())
}

/// Composite exclusive latch over all shards of one table.
pub struct TableExclusiveLatch<'a> {
    guards: [RwLockWriteGuard<'a, TableShard>; TABLE_SHARDS],
}

impl TableExclusiveLatch<'_> {
    /// Rows in storage shard `shard`, read through the held latch (a
    /// lazy cutover seeds its residual counts from this — calling
    /// [`Table::len`] instead would re-acquire the shard locks the latch
    /// already holds and self-deadlock).
    pub(crate) fn shard_len(&self, shard: usize) -> usize {
        self.guards[shard].rows.len()
    }

    /// Whether storage shard `shard` holds `key`, read through the held
    /// latch.
    pub(crate) fn shard_contains(&self, shard: usize, key: &Key) -> bool {
        self.guards[shard].rows.contains_key(key)
    }
}

/// An open write session on one table: shard latches held across many
/// physical operations (see [`Table::write_session`]).
///
/// The method surface mirrors [`Table`]'s propagator-facing operations
/// (`insert`, `delete`, `update`, `with_row_mut`, reads and index
/// probes) so rule code can be written once against either, and the
/// writes reach the same bodies. A session over some shards only
/// ([`Table::insert_absent`], a non-moving [`Table::update_with`])
/// checks every operation against them; index probes see those
/// shards only.
///
/// Session writes do *not* archive versions — they are
/// transformation-internal physical writes below the snapshot horizon
/// (pre-cutover target population and propagation) — but on a
/// versioned table a delete still erases the key's chain so later
/// snapshot readers cannot resurrect stale history.
pub struct WriteSession<'a> {
    schema: Schema,
    shard_key: Option<Arc<[usize]>>,
    guards: [Option<RwLockWriteGuard<'a, TableShard>>; TABLE_SHARDS],
}

impl WriteSession<'_> {
    /// Schema snapshot taken when the session was opened.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn route(&self, key: &Key) -> usize {
        route_hash(&key.0, self.shard_key.as_deref())
    }

    fn shard(&self, s: usize) -> DbResult<&TableShard> {
        self.guards[s].as_deref().ok_or_else(|| outside_mask(s))
    }

    fn shard_mut(&mut self, s: usize) -> DbResult<&mut TableShard> {
        self.guards[s].as_deref_mut().ok_or_else(|| outside_mask(s))
    }

    fn owned(&self) -> impl Iterator<Item = &TableShard> {
        self.guards.iter().filter_map(|g| g.as_deref())
    }

    /// Insert a full row (ordinary metadata: counter 1, consistent).
    pub fn insert(&mut self, values: Vec<Value>, lsn: Lsn) -> DbResult<Key> {
        self.insert_row(Row::new(values, lsn))
    }

    /// Insert a row with explicit metadata (counter, flag, presence,
    /// writer and LSN are taken from `row` verbatim).
    pub fn insert_row(&mut self, row: Row) -> DbResult<Key> {
        let key = checked_key(&self.schema, &row.values)?;
        let s = self.route(&key);
        let lsn = row.lsn;
        if self.shard_mut(s)?.insert(key.clone(), row, || Ok(lsn))? {
            Ok(key)
        } else {
            Err(taken(&key))
        }
    }

    /// Delete by primary key, returning the removed row (unversioned:
    /// erases the key's archived history).
    pub fn delete(&mut self, key: &Key) -> DbResult<Row> {
        let s = self.route(key);
        self.shard_mut(s)?.delete(key, None, |row| Ok(row.lsn))
    }

    /// Sparse-column update by primary key, stamped `new_lsn` (moves
    /// the row on a primary-key change; both the old and the new shard
    /// must be inside the session mask). Archives nothing and returns
    /// the new key if the row moved.
    pub fn update(
        &mut self,
        key: &Key,
        cols: &[(usize, Value)],
        new_lsn: Lsn,
    ) -> DbResult<Option<Key>> {
        self.update_with(key, cols, None, |_| Ok(new_lsn))
    }

    /// The update body. `ver` is `Some(writer)` when the write must
    /// maintain version chains: the displaced inline state is archived
    /// at the old key (plus a tombstone there if the key moves) and the
    /// new inline row is stamped with `writer`. `None` leaves chains and
    /// writer stamps untouched (versioning disabled, or a
    /// transformation-internal write below the snapshot horizon).
    ///
    /// A row whose primary key stays put is changed in place, moving
    /// only the entries of the indexes over a touched column; a key
    /// change moves the row, and every index entry, to the new key's
    /// shard and returns the new key. `mk_lsn` sees the pre-image after
    /// every check and before any mutation.
    fn update_with(
        &mut self,
        key: &Key,
        cols: &[(usize, Value)],
        ver: Option<TxnId>,
        mk_lsn: impl FnOnce(&Row) -> DbResult<Lsn>,
    ) -> DbResult<Option<Key>> {
        let arity = self.schema.arity();
        if let Some((i, _)) = cols.iter().find(|(i, _)| *i >= arity) {
            return Err(DbError::ArityMismatch {
                expected: arity,
                got: i + 1,
            });
        }
        let pkey = self.schema.pkey();
        let s_old = self.route(key);
        let moved = if cols.iter().any(|(i, _)| pkey.contains(i)) {
            let row = self.shard(s_old)?.rows.get(key);
            let mut post = row.ok_or_else(|| not_found(key))?.values.clone();
            for (i, v) in cols {
                post[*i] = v.clone();
            }
            Some(Key::project(&post, pkey)).filter(|new_key| new_key != key)
        } else {
            None
        };
        let s_new = moved.as_ref().map_or(s_old, |new_key| self.route(new_key));
        let (old, new) = split_pair(&mut self.guards, s_old, s_new)?;
        if let Some(new_key) = &moved {
            if new.as_deref().unwrap_or(&*old).rows.contains_key(new_key) {
                return Err(taken(new_key));
            }
        }
        let TableShard {
            rows,
            indexes,
            versions,
        } = old;
        let row = rows.get_mut(key).ok_or_else(|| not_found(key))?;
        let lsn = mk_lsn(row)?;

        if let Some(writer) = ver {
            let chain = versions.entry(key.clone()).or_default();
            chain.push(VersionEntry {
                lsn: row.lsn,
                writer: row.writer,
                data: Some(row.clone()),
            });
            if moved.is_some() {
                // The old key ceases to exist as of this operation.
                chain.push(VersionEntry {
                    lsn,
                    writer,
                    data: None,
                });
            }
            row.writer = writer;
        }
        row.lsn = lsn;
        let Some(new_key) = moved else {
            let touched =
                |idx: &SecondaryIndex| idx.cols.iter().any(|c| cols.iter().any(|(i, _)| i == c));
            for idx in indexes.iter_mut().filter(|idx| touched(idx)) {
                idx.remove(&row.values, key);
            }
            row.apply_updates(cols);
            for idx in indexes.iter_mut().filter(|idx| touched(idx)) {
                idx.insert(&row.values, key);
            }
            return Ok(None);
        };
        let mut row = rows.remove(key).expect("checked above"); // morph-lint: allow(panic, presence was checked earlier in the same latched section)
        for idx in indexes.iter_mut() {
            idx.remove(&row.values, key);
        }
        row.apply_updates(cols);
        let (rows, indexes) = match new {
            Some(target) => (&mut target.rows, &mut target.indexes),
            None => (rows, indexes),
        };
        for idx in indexes {
            idx.insert(&row.values, &new_key);
        }
        rows.insert(new_key.clone(), row);
        Ok(Some(new_key))
    }

    /// Mutate a row in place (counter/flag/LSN maintenance; must not
    /// change key or indexed columns).
    pub fn with_row_mut<R>(&mut self, key: &Key, f: impl FnOnce(&mut Row) -> R) -> Option<R> {
        let s = self.route(key);
        self.shard_mut(s).ok()?.rows.get_mut(key).map(f)
    }

    /// Clone of the row at `key`.
    pub fn get(&self, key: &Key) -> Option<Row> {
        let s = self.route(key);
        self.shard(s).ok()?.rows.get(key).cloned()
    }

    /// Read a row by reference, without cloning it. The rules' LSN
    /// gates and single-column reads run once per surviving log
    /// record — a full-row clone there is pure allocator churn.
    pub fn with_row<R>(&self, key: &Key, f: impl FnOnce(&Row) -> R) -> Option<R> {
        let s = self.route(key);
        self.shard(s).ok()?.rows.get(key).map(f)
    }

    /// Whether a row with `key` exists.
    pub fn contains(&self, key: &Key) -> bool {
        let s = self.route(key);
        self.shard(s)
            .map(|g| g.rows.contains_key(key))
            .unwrap_or(false)
    }

    /// Number of rows in the session's shards.
    pub fn len(&self) -> usize {
        self.owned().map(|g| g.rows.len()).sum()
    }

    /// Whether the session's shards hold no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Primary keys of rows (within the session's shards) whose index
    /// key equals `ik`, in key order.
    pub fn index_lookup(&self, idx: usize, ik: &Key) -> Vec<Key> {
        let mut out: Vec<Key> = self
            .owned()
            .flat_map(|g| g.indexes[idx].lookup(ik))
            .collect();
        out.sort();
        out
    }

    /// Rows (with primary keys, within the session's shards) whose
    /// index key equals `ik`, in key order.
    pub fn index_rows(&self, idx: usize, ik: &Key) -> Vec<(Key, Row)> {
        let mut out: Vec<(Key, Row)> = Vec::new();
        for g in self.owned() {
            g.index_rows_into(idx, ik, &mut out);
        }
        if out.len() > 1 {
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }
}

/// Split-borrow the (possibly identical) shards `a` and `b` from a
/// session's guards; with `a == b` the second borrow is `None`. A shard
/// outside the session mask is an error.
fn split_pair<'a, 'g>(
    guards: &'a mut [Option<RwLockWriteGuard<'g, TableShard>>],
    a: usize,
    b: usize,
) -> DbResult<(&'a mut TableShard, Option<&'a mut TableShard>)> {
    if a == b {
        return Ok((
            guards[a].as_deref_mut().ok_or_else(|| outside_mask(a))?,
            None,
        ));
    }
    let (lo_i, hi_i) = (a.min(b), a.max(b));
    let (lo, hi) = guards.split_at_mut(hi_i);
    let lo_g = lo[lo_i].as_deref_mut().ok_or_else(|| outside_mask(lo_i))?;
    let hi_g = hi[0].as_deref_mut().ok_or_else(|| outside_mask(hi_i))?;
    Ok(if a < b {
        (lo_g, Some(hi_g))
    } else {
        (hi_g, Some(lo_g))
    })
}

/// Rows a fuzzy scan copies under one shard read latch. A chunk is
/// read as slices of at most this many rows, latching the shard once
/// per slice, so a writer of the shard being read waits for one
/// slice's clones, not a whole chunk's.
const SCAN_SLICE: usize = 64;

/// Chunked fuzzy scanner (see [`Table::fuzzy_scan`]). Walks the shards
/// one at a time: a chunk is up to `chunk_size` rows of one shard in
/// key order, read slice by slice (64 rows, `SCAN_SLICE`, per read
/// latch), each slice continuing after the last key of the one before.
pub struct FuzzyScanner {
    table: Arc<Table>,
    /// The shard being read.
    shard: usize,
    /// Last key returned from the current shard.
    after: Option<Key>,
    chunk_size: usize,
    /// Shard read latches taken so far.
    #[cfg(test)]
    latches: usize,
}

impl FuzzyScanner {
    /// Next chunk of rows, or an empty vector when the scan is done.
    /// Every key of one chunk routes to the same shard.
    pub fn next_chunk(&mut self) -> Vec<(Key, Row)> {
        while self.shard < TABLE_SHARDS {
            let mut chunk: Vec<(Key, Row)> = Vec::new();
            let mut dry = false;
            while chunk.len() < self.chunk_size {
                let want = SCAN_SLICE.min(self.chunk_size - chunk.len());
                let from = self.after.take().map_or(Bound::Unbounded, Bound::Excluded);
                let before = chunk.len();
                chunk.extend(
                    self.table.shards[self.shard]
                        .read()
                        .rows
                        .range((from, Bound::Unbounded))
                        .take(want)
                        .map(|(k, r)| (k.clone(), r.clone())),
                );
                #[cfg(test)]
                {
                    self.latches += 1;
                }
                self.after = chunk.last().map(|(k, _)| k.clone());
                if chunk.len() - before < want {
                    // The shard ran dry under its latch.
                    dry = true;
                    break;
                }
            }
            if dry {
                self.shard += 1;
                self.after = None;
            }
            if !chunk.is_empty() {
                return chunk;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::ColumnType;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .column("j", ColumnType::Int)
            .nullable("payload", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    fn table() -> Arc<Table> {
        Arc::new(Table::new(TableId(1), "t", schema()))
    }

    fn row(id: i64, j: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(j), Value::str(format!("p{id}"))]
    }

    #[test]
    fn insert_get_delete() {
        let t = table();
        let k = t.insert(row(1, 10), Lsn(1)).unwrap();
        assert_eq!(k, Key::single(1));
        assert_eq!(t.get(&k).unwrap().values, row(1, 10));
        assert_eq!(t.len(), 1);
        assert!(matches!(
            t.insert(row(1, 99), Lsn(2)),
            Err(DbError::DuplicateKey(_))
        ));
        let old = t.delete(&k).unwrap();
        assert_eq!(old.values, row(1, 10));
        assert!(t.is_empty());
        assert!(matches!(t.delete(&k), Err(DbError::KeyNotFound(_))));
    }

    #[test]
    fn update_plain_and_lsn_stamp() {
        let t = table();
        let k = t.insert(row(1, 10), Lsn(1)).unwrap();
        let mut pre = None;
        let moved = t
            .update_with(&k, &[(2, Value::str("new"))], SYSTEM, |row| {
                pre = Some(row.values[2].clone());
                Ok(Lsn(5))
            })
            .unwrap();
        assert_eq!(
            pre,
            Some(Value::str("p1")),
            "the closure sees the pre-image"
        );
        assert_eq!(moved, None);
        let r = t.get(&k).unwrap();
        assert_eq!(r.lsn, Lsn(5));
        assert_eq!(r.values[2], Value::str("new"));
    }

    #[test]
    fn update_moves_row_on_pkey_change() {
        let t = table();
        let k = t.insert(row(1, 10), Lsn(1)).unwrap();
        let moved = t.update(&k, &[(0, Value::Int(2))], Lsn(2)).unwrap();
        assert_eq!(moved, Some(Key::single(2)));
        assert!(t.get(&Key::single(1)).is_none());
        assert!(t.get(&Key::single(2)).is_some());
    }

    #[test]
    fn update_moves_rows_across_every_shard_pair() {
        // Exhaustively exercise same-shard and cross-shard moves.
        let t = table();
        for i in 0..32i64 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        for i in 0..32i64 {
            let target = 1000 + i;
            t.update(&Key::single(i), &[(0, Value::Int(target))], Lsn(2))
                .unwrap();
            assert!(t.get(&Key::single(i)).is_none());
            assert_eq!(
                t.get(&Key::single(target)).unwrap().values[0],
                Value::Int(target)
            );
        }
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn update_pkey_collision_rejected() {
        let t = table();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        t.insert(row(2, 20), Lsn(2)).unwrap();
        assert!(matches!(
            t.update(&Key::single(1), &[(0, Value::Int(2))], Lsn(3)),
            Err(DbError::DuplicateKey(_))
        ));
        // Nothing changed.
        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, 10));
    }

    #[test]
    fn update_out_of_range_column_rejected() {
        let t = table();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        assert!(matches!(
            t.update(&Key::single(1), &[(9, Value::Int(0))], Lsn(2)),
            Err(DbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn secondary_index_tracks_all_mutations() {
        let t = table();
        let j = t.add_index("j_idx", &["j"]).unwrap();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        t.insert(row(2, 10), Lsn(2)).unwrap();
        t.insert(row(3, 30), Lsn(3)).unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(10)).len(), 2);

        // Update join attribute: moves index entry.
        t.update(&Key::single(1), &[(1, Value::Int(30))], Lsn(4))
            .unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(10)), vec![Key::single(2)]);
        assert_eq!(t.index_lookup(j, &Key::single(30)).len(), 2);

        // Delete removes entries.
        t.delete(&Key::single(3)).unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(30)), vec![Key::single(1)]);
    }

    #[test]
    fn update_archives_stamps_and_moves_index_entries() {
        let t = table();
        t.enable_versioning();
        let j = t.add_index("j_idx", &["j"]).unwrap();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        // In place: the pre-image is archived, the new row carries the writer.
        t.update_with(&Key::single(1), &[(2, Value::str("x"))], TxnId(7), |_| {
            Ok(Lsn(2))
        })
        .unwrap();
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get(&Key::single(1)).unwrap().writer, TxnId(7));
        // A key move carries the row's index entries along.
        t.update(&Key::single(1), &[(0, Value::Int(2))], Lsn(3))
            .unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(10)), vec![Key::single(2)]);
    }

    #[test]
    fn index_on_existing_rows() {
        let t = table();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        t.insert(row(2, 10), Lsn(2)).unwrap();
        let j = t.add_index("j_idx", &["j"]).unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(10)).len(), 2);
        assert!(t.add_index("j_idx", &["j"]).is_err());
        assert!(t.add_index("bad", &["nope"]).is_err());
    }

    #[test]
    fn freeze_gates_access() {
        let t = table();
        assert!(t.check_access(TxnId(1)).is_ok());
        t.freeze([TxnId(1)].into_iter().collect());
        assert!(t.check_access(TxnId(1)).is_ok());
        assert!(matches!(
            t.check_access(TxnId(2)),
            Err(DbError::TableFrozen(_))
        ));
        assert!(t.retire_allowed(TxnId(1)));
        t.mark_dropped();
        assert!(t.check_access(TxnId(1)).is_err());
        t.reactivate();
        assert!(t.check_access(TxnId(2)).is_ok());
    }

    #[test]
    fn fuzzy_scan_sees_interleaved_writes_loosely() {
        let t = table();
        for i in 0..100 {
            t.insert(row(i, i % 7), Lsn(i as u64 + 1)).unwrap();
        }
        let mut scan = t.fuzzy_scan(10);
        let first = scan.next_chunk();
        assert_eq!(first.len(), 10);
        assert!(first.iter().all(|(k, _)| *k != Key::single(50)));
        // A writer interleaves: deletes a row ahead of the cursor and
        // inserts one behind it.
        t.delete(&Key::single(50)).unwrap();
        t.insert(row(3000, 0), Lsn(200)).unwrap(); // ahead (large key)
        let rest: Vec<_> = std::iter::from_fn(|| {
            let c = scan.next_chunk();
            if c.is_empty() {
                None
            } else {
                Some(c)
            }
        })
        .flatten()
        .collect();
        let keys: Vec<i64> = rest.iter().filter_map(|(k, _)| k.0[0].as_int()).collect();
        assert!(!keys.contains(&50), "deleted-ahead row must not appear");
        assert!(keys.contains(&3000), "inserted-ahead row appears");
    }

    /// Scan `t` in chunks of `chunk`, asserting the scanner contract on
    /// the way: a chunk's keys route to one shard and are in key order,
    /// and the scan reads the shards one after another in ascending
    /// order, each in key order. Returns every row read, in scan order.
    fn scan_checked(t: &Arc<Table>, chunk: usize) -> Vec<(Key, Row)> {
        let mut seen = Vec::new();
        let mut scan = t.fuzzy_scan(chunk);
        let mut last: Option<(usize, Key)> = None;
        loop {
            let c = scan.next_chunk();
            if c.is_empty() {
                return seen;
            }
            assert!(c.len() <= chunk);
            let shard = t.shard_of_key(&c[0].0);
            assert!(c.iter().all(|(k, _)| t.shard_of_key(k) == shard));
            assert!(c.windows(2).all(|w| w[0].0 < w[1].0));
            if let Some((s, k)) = &last {
                assert!(*s < shard || (*s == shard && *k < c[0].0), "shard order");
            }
            last = c.last().map(|(k, _)| (shard, k.clone()));
            seen.extend(c);
        }
    }

    #[test]
    fn fuzzy_scan_reads_one_shard_per_chunk_in_key_order() {
        let t = table();
        for i in (0..500).rev() {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        assert_eq!(scan_checked(&t, 13).len(), 500);
    }

    #[test]
    fn fuzzy_scan_returns_every_row_exactly_once() {
        let t = table();
        for i in 0..37 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        for chunk in [1, 8, 64] {
            let mut scanned = scan_checked(&t, chunk);
            scanned.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(scanned, t.snapshot(), "chunk={chunk}");
        }
    }

    #[test]
    fn shard_key_routes_by_component() {
        let s = Schema::builder()
            .column("a", ColumnType::Int)
            .column("c", ColumnType::Str)
            .primary_key(&["a", "c"])
            .build()
            .unwrap();
        let t = Arc::new(Table::new(TableId(2), "t", s));
        // Route by the second key component only.
        t.set_shard_key(vec![1]).unwrap();
        for i in 0..64i64 {
            t.insert(
                vec![Value::Int(i), Value::str(format!("g{}", i % 4))],
                Lsn(1),
            )
            .unwrap();
        }
        // All rows of one group share a shard, whatever their first
        // key component.
        for g in 0..4i64 {
            let key = |i: i64| Key::new([Value::Int(i), Value::str(format!("g{g}"))]);
            let shard = t.shard_of_key(&key(g));
            for i in (g..64).step_by(4) {
                assert_eq!(t.shard_of_key(&key(i)), shard);
            }
        }
        // Too late once rows exist.
        assert!(t.set_shard_key(vec![0]).is_err());
        // Out-of-range position rejected.
        let t2 = table();
        assert!(t2.set_shard_key(vec![5]).is_err());
    }

    #[test]
    fn partial_session_rejects_foreign_keys() {
        let t = table();
        for i in 0..64i64 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        // Find a key owned by lane 0 and one that is not.
        let own: i64 = (0..64)
            .find(|&i| t.shard_of_key(&Key::single(i)).is_multiple_of(4))
            .unwrap();
        let foreign: i64 = (0..64)
            .find(|&i| !t.shard_of_key(&Key::single(i)).is_multiple_of(4))
            .unwrap();
        let mut s = t.session_over(|s| s % 4 == 0);
        assert!(s.get(&Key::single(own)).is_some());
        assert!(s.get(&Key::single(foreign)).is_none());
        assert!(matches!(
            s.delete(&Key::single(foreign)),
            Err(DbError::Internal(_))
        ));
        s.delete(&Key::single(own)).unwrap();
    }

    #[test]
    fn insert_absent_skips_present_keys_and_latches_only_routed_shards() {
        let t = table();
        t.insert(row(1, 7), Lsn(1)).unwrap();
        let held_shard = t.shard_of_key(&Key::single(1));
        // While this thread holds one shard, a batch routed elsewhere
        // goes in (a wider latch would self-deadlock here).
        let elsewhere: Vec<i64> = (2..)
            .filter(|&i| t.shard_of_key(&Key::single(i)) != held_shard)
            .take(20)
            .collect();
        let held = t.session_over(|s| s == held_shard);
        let n = t
            .insert_absent(elsewhere.iter().map(|&i| Row::new(row(i, 0), Lsn(2))))
            .unwrap();
        assert_eq!(n, 20);
        drop(held);
        // A second pass over the same keys plus the pre-existing one
        // inserts nothing and overwrites nothing.
        let again = elsewhere.iter().copied().chain([1]);
        let n = t
            .insert_absent(again.map(|i| Row::new(row(i, 99), Lsn(3))))
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(t.len(), 21);
        assert_eq!(t.get(&Key::single(1)).unwrap().values, row(1, 7));
        // Validation runs before anything is written.
        let bad = vec![Row::new(row(500, 0), Lsn(4)), Row::new(vec![], Lsn(4))];
        assert!(t.insert_absent(bad).is_err());
        assert!(!t.contains(&Key::single(500)));
    }

    #[test]
    fn disjoint_sessions_write_concurrently() {
        // Two sessions over disjoint shards insert into the same table
        // at the same time; a full session would deadlock this test.
        let t = table();
        std::thread::scope(|scope| {
            for lane in 0..2 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    let mut s = t.session_over(|s| s % 2 == lane);
                    for i in 0..2000i64 {
                        let key = Key::single(i);
                        if t.shard_of_key(&key) % 2 == lane {
                            s.insert(row(i, 0), Lsn(1)).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn with_row_mut_edits_metadata() {
        let t = table();
        let k = t.insert(row(1, 10), Lsn(1)).unwrap();
        let got = t.with_row_mut(&k, |r| {
            r.counter = 7;
            r.counter
        });
        assert_eq!(got, Some(7));
        assert_eq!(t.get(&k).unwrap().counter, 7);
        assert_eq!(t.with_row_mut(&Key::single(99), |_| ()), None);
    }

    #[test]
    fn project_columns_rewrites_rows_and_schema() {
        let t = table();
        t.add_index("j_idx", &["j"]).unwrap();
        t.add_index("p_idx", &["payload"]).unwrap();
        for i in 0..5 {
            t.insert(row(i, 10 + i), Lsn(1)).unwrap();
        }
        // Keep id + j, drop payload.
        t.project_columns(&[0, 1]).unwrap();
        let s = t.schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.position_of("payload"), None);
        assert_eq!(t.get(&Key::single(3)).unwrap().values.len(), 2);
        // Index on a dropped column is gone; on a kept column survives.
        assert!(t.index_pos("p_idx").is_none());
        let j = t.index_pos("j_idx").unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(12)), vec![Key::single(2)]);
    }

    #[test]
    fn project_cannot_drop_pkey() {
        let t = table();
        assert!(t.project_columns(&[1, 2]).is_err());
    }

    #[test]
    fn write_session_batches_ops_under_one_latch() {
        let t = table();
        let j = t.add_index("j_idx", &["j"]).unwrap();
        {
            let mut s = t.write_session();
            s.insert(row(1, 10), Lsn(1)).unwrap();
            s.insert(row(2, 20), Lsn(2)).unwrap();
            s.update(&Key::single(1), &[(1, Value::Int(20))], Lsn(3))
                .unwrap();
            assert_eq!(s.index_lookup(j, &Key::single(20)).len(), 2);
            s.delete(&Key::single(2)).unwrap();
            assert!(s.contains(&Key::single(1)));
            assert_eq!(s.len(), 1);
            assert_eq!(s.get(&Key::single(1)).unwrap().lsn, Lsn(3));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&Key::single(1)).unwrap().values[1], Value::Int(20));
        assert_eq!(t.index_lookup(j, &Key::single(20)), vec![Key::single(1)]);
    }

    #[test]
    fn write_session_moves_rows_across_shards() {
        let t = table();
        for i in 0..16i64 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        {
            let mut s = t.write_session();
            for i in 0..16i64 {
                s.update(&Key::single(i), &[(0, Value::Int(100 + i))], Lsn(2))
                    .unwrap();
            }
        }
        assert_eq!(t.len(), 16);
        for i in 0..16i64 {
            assert!(t.get(&Key::single(100 + i)).is_some());
        }
    }

    #[test]
    fn write_session_insert_row_keeps_metadata() {
        let t = table();
        let mut r = Row::new(row(1, 10), Lsn(4));
        r.counter = 3;
        let mut s = t.write_session();
        let k = s.insert_row(r).unwrap();
        let got = s.get(&k).unwrap();
        assert_eq!(got.counter, 3);
        assert_eq!(got.lsn, Lsn(4));
    }

    #[test]
    fn exclusive_latch_blocks_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = table();
        t.insert(row(1, 1), Lsn(1)).unwrap();
        let latch = t.latch_exclusive();
        let done = Arc::new(AtomicBool::new(false));
        let (t2, done2) = (Arc::clone(&t), Arc::clone(&done));
        let h = std::thread::spawn(move || {
            t2.insert(row(2, 2), Lsn(2)).unwrap();
            done2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !done.load(Ordering::SeqCst),
            "writer must be paused by the latch"
        );
        drop(latch);
        h.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(t.len(), 2);
    }

    /// A chunk is read a slice at a time: a full chunk takes at least
    /// `chunk / SCAN_SLICE` latches, never one. Keys come out exactly
    /// once and in key order within each shard, across slice and chunk
    /// boundaries (a chunk of 100 is a 64-row and a 36-row slice).
    #[test]
    fn fuzzy_scan_latches_a_slice_at_a_time() {
        let t = table();
        let n = 250 * TABLE_SHARDS as i64;
        for i in 0..n {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        let chunk_size = 100;
        let mut scan = t.fuzzy_scan(chunk_size);
        let mut seen: Vec<Key> = Vec::new();
        let mut full_chunks = 0;
        loop {
            let latches = scan.latches;
            let chunk = scan.next_chunk();
            if chunk.is_empty() {
                break;
            }
            let taken = scan.latches - latches;
            assert!(
                taken >= chunk.len().div_ceil(SCAN_SLICE),
                "{} rows under {taken} latches",
                chunk.len()
            );
            if chunk.len() == chunk_size {
                assert!(taken > 1, "a full chunk was read under one latch");
                full_chunks += 1;
            }
            let shard = t.route(&chunk[0].0);
            assert!(chunk.iter().all(|(k, _)| t.route(k) == shard));
            assert!(chunk.windows(2).all(|w| w[0].0 < w[1].0));
            if let Some(prev) = seen.last() {
                if t.route(prev) == shard {
                    assert!(*prev < chunk[0].0, "a slice repeated or skipped back");
                }
            }
            seen.extend(chunk.into_iter().map(|(k, _)| k));
        }
        assert!(full_chunks > 0);
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "a key was read twice");
        assert_eq!(seen.len() as i64, n, "a key was missed");
    }
}
