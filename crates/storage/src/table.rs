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
//! Single-key operations latch only the owning shard, scans and
//! whole-table latches compose all shard latches in ascending order,
//! and [`Table::write_session_masked`] opens a session over a strided
//! subset of shards — the storage half of the parallel fuzzy copy and
//! of shard-scoped lazy backfill: workers on disjoint masks write the
//! same table concurrently without ever sharing a latch.

use crate::index::SecondaryIndex;
use crate::mvcc::{CommitTable, VersionChain, VersionEntry, SYSTEM};
use crate::row::Row;
use morph_common::{DbError, DbResult, Key, Lsn, Schema, TableId, TxnId, Value};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of storage shards per table. A power of two so that worker
/// strides {1, 2, 4, 8} tile the shard space exactly.
pub const TABLE_SHARDS: usize = 8;

/// Largest stride that tiles the shard space and does not exceed `n`
/// (the usable worker count for a requested parallelism of `n`).
pub fn shard_stride(n: usize) -> usize {
    let mut s = 1;
    while s * 2 <= n.min(TABLE_SHARDS) {
        s *= 2;
    }
    s
}

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
    /// Validate + constraint-check an insert; returns the key without
    /// mutating anything (so a fallible logging closure can run between
    /// the checks and the mutation). Uniqueness is checked within this
    /// shard only — callers that hold more shards extend the check.
    fn check_insert(&self, schema: &Schema, values: &[Value]) -> DbResult<Key> {
        schema.validate(values)?;
        let key = schema.key_of(values);
        if self.rows.contains_key(&key) {
            return Err(DbError::DuplicateKey(format!("{key:?}")));
        }
        check_unique(&self.indexes, values)?;
        Ok(key)
    }

    /// Insert an already validated `row` under its `key` unless the key
    /// exists, in one descent; returns whether it was inserted.
    fn insert_if_absent(&mut self, key: Key, row: Row) -> DbResult<bool> {
        let TableShard { rows, indexes, .. } = self;
        let Entry::Vacant(slot) = rows.entry(key) else {
            return Ok(false);
        };
        check_unique(indexes, &row.values)?;
        for idx in indexes {
            idx.insert(&row.values, slot.key())
                .expect("uniqueness pre-checked"); // morph-lint: allow(panic, uniqueness was checked earlier in the same latched section)
        }
        slot.insert(row);
        Ok(true)
    }

    fn insert_unchecked(&mut self, key: Key, row: Row) -> Key {
        for idx in &mut self.indexes {
            idx.insert(&row.values, &key)
                .expect("uniqueness pre-checked"); // morph-lint: allow(panic, uniqueness was checked earlier in the same latched section)
        }
        self.rows.insert(key.clone(), row);
        key
    }

    fn insert_with(
        &mut self,
        schema: &Schema,
        values: Vec<Value>,
        writer: TxnId,
        mk_lsn: impl FnOnce() -> DbResult<Lsn>,
    ) -> DbResult<Key> {
        let key = self.check_insert(schema, &values)?;
        let lsn = mk_lsn()?;
        let mut row = Row::new(values, lsn);
        row.writer = writer;
        Ok(self.insert_unchecked(key, row))
    }

    /// Insert a row with explicit metadata in one pass (counter, flag,
    /// presence and LSN are taken from `row` verbatim).
    fn insert_row(&mut self, schema: &Schema, row: Row) -> DbResult<Key> {
        let key = self.check_insert(schema, &row.values)?;
        Ok(self.insert_unchecked(key, row))
    }

    fn delete_with(&mut self, key: &Key, log: impl FnOnce(&Row) -> DbResult<()>) -> DbResult<Row> {
        if !self.rows.contains_key(key) {
            return Err(DbError::KeyNotFound(format!("{key:?}")));
        }
        log(&self.rows[key])?;
        let row = self.rows.remove(key).expect("checked above"); // morph-lint: allow(panic, presence was checked earlier in the same latched section)
        for idx in &mut self.indexes {
            idx.remove(&row.values, key);
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

/// The unique-index half of the insert checks, over one shard's index
/// slices.
fn check_unique(indexes: &[SecondaryIndex], values: &[Value]) -> DbResult<()> {
    for idx in indexes {
        if idx.unique && idx.cardinality(&idx.key_of(values)) > 0 {
            return Err(DbError::UniqueViolation {
                index: idx.name.clone(),
                key: format!("{:?}", idx.key_of(values)),
            });
        }
    }
    Ok(())
}

/// Shared core of the update path. `new_shard` is `Some` when a
/// primary-key change moves the row to a different shard (both shard
/// latches are then held by the caller). Unique-index pre-checks that
/// need cross-shard visibility are the caller's responsibility; the
/// local unique check against the destination shard happens here.
///
/// `ver` is `Some(writer)` when the write must maintain version
/// chains: the displaced inline state is archived at the old key (plus
/// a tombstone there if the key moves) and the new inline row is
/// stamped with `writer`. `None` leaves chains and writer stamps
/// untouched (versioning disabled, or a transformation-internal write
/// below the snapshot horizon).
#[allow(clippy::too_many_arguments)]
fn update_core(
    old_shard: &mut TableShard,
    new_shard: Option<&mut TableShard>,
    pkey_cols: &[usize],
    arity: usize,
    key: &Key,
    cols: &[(usize, Value)],
    ver: Option<TxnId>,
    mk_lsn: impl FnOnce(&UpdateOutcome) -> DbResult<Lsn>,
) -> DbResult<UpdateOutcome> {
    for (i, _) in cols {
        if *i >= arity {
            return Err(DbError::ArityMismatch {
                expected: arity,
                got: *i + 1,
            });
        }
    }
    let row = old_shard
        .rows
        .get(key)
        .ok_or_else(|| DbError::KeyNotFound(format!("{key:?}")))?;
    let old_lsn = row.lsn;

    let mut new_values = row.values.clone();
    for (i, v) in cols {
        new_values[*i] = v.clone();
    }
    let new_key = Key::project(&new_values, pkey_cols);

    if new_key != *key {
        let target = new_shard.as_deref().unwrap_or(&*old_shard);
        if target.rows.contains_key(&new_key) {
            return Err(DbError::DuplicateKey(format!("{new_key:?}")));
        }
    }
    // Unique-index pre-check for the new image, within the shards at
    // hand (cross-shard uniqueness is pre-checked by full-table paths).
    for idx in &old_shard.indexes {
        if idx.unique {
            let new_ik = idx.key_of(&new_values);
            let old_ik = idx.key_of(&old_shard.rows[key].values);
            if new_ik != old_ik && idx.cardinality(&new_ik) > 0 {
                return Err(DbError::UniqueViolation {
                    index: idx.name.clone(),
                    key: format!("{new_ik:?}"),
                });
            }
        }
    }

    // Compute the full outcome (pre-images included) before any
    // mutation, so a closure error is side-effect free.
    let old_cols: Vec<(usize, Value)> = {
        let row = &old_shard.rows[key];
        cols.iter()
            .map(|(i, _)| (*i, row.values[*i].clone()))
            .collect()
    };
    let outcome = UpdateOutcome {
        old_cols,
        old_key: key.clone(),
        new_key: new_key.clone(),
        old_lsn,
    };
    let lsn = mk_lsn(&outcome)?;

    let mut row = old_shard.rows.remove(key).expect("checked above"); // morph-lint: allow(panic, presence was checked earlier in the same latched section)
    for idx in &mut old_shard.indexes {
        idx.remove(&row.values, key);
    }
    if let Some(writer) = ver {
        let chain = old_shard.versions.entry(key.clone()).or_default();
        chain.push(VersionEntry {
            lsn: row.lsn,
            writer: row.writer,
            data: Some(row.clone()),
        });
        if new_key != *key {
            // The old key ceases to exist as of this operation.
            chain.push(VersionEntry {
                lsn,
                writer,
                data: None,
            });
        }
    }
    row.apply_updates(cols);
    row.lsn = lsn;
    if let Some(writer) = ver {
        row.writer = writer;
    }
    let target = match new_shard {
        Some(t) => t,
        None => old_shard,
    };
    for idx in &mut target.indexes {
        idx.insert(&row.values, &new_key)
            .expect("uniqueness pre-checked"); // morph-lint: allow(panic, uniqueness was checked earlier in the same latched section)
    }
    target.rows.insert(new_key, row);

    Ok(outcome)
}

/// Outcome of an update, reporting key movement and the pre-images
/// needed for undo logging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Pre-update values of the touched columns.
    pub old_cols: Vec<(usize, Value)>,
    /// Key before the update.
    pub old_key: Key,
    /// Key after the update (differs if a primary-key column changed).
    pub new_key: Key,
    /// Row LSN before the update.
    pub old_lsn: Lsn,
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
    /// Number of unique secondary indexes. Uniqueness needs cross-shard
    /// visibility, so single-key writes fall back to the all-shard path
    /// while this is non-zero.
    unique_indexes: AtomicUsize,
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
            unique_indexes: AtomicUsize::new(0),
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
    /// Choosing the columns a transformation's rules cluster on (the
    /// join component of a FOJ target) makes every row such a rule can
    /// touch live in one shard, which is what lets masked write
    /// sessions apply disjoint rule groups concurrently.
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
    pub fn add_index(&self, name: &str, columns: &[&str], unique: bool) -> DbResult<usize> {
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
            let mut idx = SecondaryIndex::new(name, cols.clone(), unique);
            for (pk, row) in &g.rows {
                idx.insert(&row.values, pk)?;
            }
            g.indexes.push(idx);
        }
        if unique {
            self.unique_indexes.fetch_add(1, Ordering::Relaxed);
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

    /// Number of rows under index key `ik`.
    pub fn index_cardinality(&self, idx: usize, ik: &Key) -> usize {
        self.all_read()
            .iter()
            .map(|g| g.indexes[idx].cardinality(ik))
            .sum()
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

    /// Insert a full row (ordinary path: counter 1, consistent flag).
    pub fn insert(&self, values: Vec<Value>, lsn: Lsn) -> DbResult<Key> {
        self.insert_row(Row::new(values, lsn))
    }

    /// Insert with the row's LSN produced *under the shard latch* by
    /// `mk_lsn` — the engine appends the log record inside the closure,
    /// making "apply + log + stamp" atomic with respect to fuzzy scans
    /// and the consistency checker. The closure is fallible so the
    /// engine can re-check table access state under the latch (closing
    /// the race against a concurrent synchronization freeze);
    /// validation, constraint checks and the closure all run before
    /// anything is mutated, so on failure nothing is logged or applied.
    pub fn insert_with(
        &self,
        values: Vec<Value>,
        mk_lsn: impl FnOnce() -> DbResult<Lsn>,
    ) -> DbResult<Key> {
        self.insert_with_writer(values, SYSTEM, mk_lsn)
    }

    /// [`Table::insert_with`] with an explicit writing transaction for
    /// MVCC visibility. While versioning is disabled the stamp is
    /// forced to `SYSTEM` — rows written before a later
    /// [`Table::enable_versioning`] must stay visible by LSN order
    /// (their writers are not in any commit table).
    pub fn insert_with_writer(
        &self,
        values: Vec<Value>,
        writer: TxnId,
        mk_lsn: impl FnOnce() -> DbResult<Lsn>,
    ) -> DbResult<Key> {
        let writer = if self.versioning_enabled() {
            writer
        } else {
            SYSTEM
        };
        let schema = self.schema.read();
        schema.validate(&values)?;
        if self.unique_indexes.load(Ordering::Relaxed) == 0 {
            let key = schema.key_of(&values);
            let mut g = self.shards[self.route(&key)].write();
            g.insert_with(&schema, values, writer, mk_lsn)
        } else {
            // Unique constraints need cross-shard visibility: take the
            // composite latch (rare path; production transformations
            // only create non-unique indexes).
            let key = schema.key_of(&values);
            let target = self.route(&key);
            let mut guards = self.all_write();
            for (i, g) in guards.iter().enumerate() {
                if i == target {
                    g.check_insert(&schema, &values)?;
                } else {
                    for idx in &g.indexes {
                        if idx.unique && idx.cardinality(&idx.key_of(&values)) > 0 {
                            return Err(DbError::UniqueViolation {
                                index: idx.name.clone(),
                                key: format!("{:?}", idx.key_of(&values)),
                            });
                        }
                    }
                }
            }
            let lsn = mk_lsn()?;
            let mut row = Row::new(values, lsn);
            row.writer = writer;
            Ok(guards[target].insert_unchecked(key, row))
        }
    }

    /// Insert a row with explicit metadata (used by the propagator,
    /// which controls counters, flags and LSN stamping itself). One
    /// pass under one shard-latch acquisition; the metadata is taken
    /// from `row` verbatim.
    pub fn insert_row(&self, row: Row) -> DbResult<Key> {
        let schema = self.schema.read();
        schema.validate(&row.values)?;
        if self.unique_indexes.load(Ordering::Relaxed) == 0 {
            let key = schema.key_of(&row.values);
            let mut g = self.shards[self.route(&key)].write();
            g.insert_row(&schema, row)
        } else {
            let key = schema.key_of(&row.values);
            let target = self.route(&key);
            let mut guards = self.all_write();
            for (i, g) in guards.iter().enumerate() {
                if i != target {
                    for idx in &g.indexes {
                        if idx.unique && idx.cardinality(&idx.key_of(&row.values)) > 0 {
                            return Err(DbError::UniqueViolation {
                                index: idx.name.clone(),
                                key: format!("{:?}", idx.key_of(&row.values)),
                            });
                        }
                    }
                }
            }
            guards[target].insert_row(&schema, row)
        }
    }

    /// Delete by primary key, returning the removed row.
    ///
    /// This is the *unversioned* delete: on a versioned table it also
    /// erases the key's archived history (a chain without the context
    /// of a logged tombstone would resurrect stale versions for
    /// snapshot readers). Transactional deletes that must preserve
    /// history go through [`Table::delete_with_writer`].
    pub fn delete(&self, key: &Key) -> DbResult<Row> {
        self.delete_with(key, |_| Ok(()))
    }

    /// Delete with a fallible logging closure run under the latch after
    /// the row is found (receives the pre-image for undo logging) and
    /// before it is removed; a closure error leaves the row untouched.
    /// Unversioned — see [`Table::delete`].
    pub fn delete_with(&self, key: &Key, log: impl FnOnce(&Row) -> DbResult<()>) -> DbResult<Row> {
        let mut g = self.shards[self.route(key)].write();
        let row = g.delete_with(key, log)?;
        if self.versioning_enabled() {
            g.versions.remove(key);
        }
        Ok(row)
    }

    /// Versioned delete: archives the pre-image and a tombstone stamped
    /// with the deleting operation's LSN (produced under the latch by
    /// `log`, which sees the pre-image for undo logging). Snapshots
    /// older than the tombstone keep seeing the row; newer ones see it
    /// absent. Falls back to plain removal while versioning is off.
    pub fn delete_with_writer(
        &self,
        key: &Key,
        writer: TxnId,
        log: impl FnOnce(&Row) -> DbResult<Lsn>,
    ) -> DbResult<Row> {
        let mut g = self.shards[self.route(key)].write();
        if !g.rows.contains_key(key) {
            return Err(DbError::KeyNotFound(format!("{key:?}")));
        }
        let lsn = log(&g.rows[key])?;
        let row = g.rows.remove(key).expect("checked above"); // morph-lint: allow(panic, presence was checked earlier in the same latched section)
        for idx in &mut g.indexes {
            idx.remove(&row.values, key);
        }
        if self.versioning_enabled() {
            let chain = g.versions.entry(key.clone()).or_default();
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
        Ok(row)
    }

    /// Sparse-column update by primary key. Handles primary-key column
    /// changes by moving the row. `new_lsn` becomes the row's state
    /// identifier.
    pub fn update(
        &self,
        key: &Key,
        cols: &[(usize, Value)],
        new_lsn: Lsn,
    ) -> DbResult<UpdateOutcome> {
        self.update_with(key, cols, |_| Ok(new_lsn))
    }

    /// Update with the new LSN produced under the latch by `mk_lsn`,
    /// which receives the update plan (old column values, key movement,
    /// previous LSN) so the engine can append redo+undo information to
    /// the log atomically with the physical change. The closure runs
    /// before anything is mutated; on error the row is untouched.
    pub fn update_with(
        &self,
        key: &Key,
        cols: &[(usize, Value)],
        mk_lsn: impl FnOnce(&UpdateOutcome) -> DbResult<Lsn>,
    ) -> DbResult<UpdateOutcome> {
        self.update_with_writer(key, cols, SYSTEM, mk_lsn)
    }

    /// [`Table::update_with`] with an explicit writing transaction.
    /// When versioning is on, the displaced state is archived and the
    /// new inline row is stamped with `writer` (see [`update_core`]);
    /// otherwise identical to [`Table::update_with`].
    pub fn update_with_writer(
        &self,
        key: &Key,
        cols: &[(usize, Value)],
        writer: TxnId,
        mk_lsn: impl FnOnce(&UpdateOutcome) -> DbResult<Lsn>,
    ) -> DbResult<UpdateOutcome> {
        let ver = if self.versioning_enabled() {
            Some(writer)
        } else {
            None
        };
        let schema = self.schema.read().clone();
        let pkey_cols = schema.pkey();
        let arity = schema.arity();

        if self.unique_indexes.load(Ordering::Relaxed) > 0 {
            // Composite-latch path: cross-shard unique pre-check, then
            // the shared core over split-borrowed shards.
            let mut guards = self.all_write();
            let s_old = self.route(key);
            let (new_key, new_values) = {
                let row = guards[s_old]
                    .rows
                    .get(key)
                    .ok_or_else(|| DbError::KeyNotFound(format!("{key:?}")))?;
                let mut nv = row.values.clone();
                for (i, v) in cols {
                    if *i >= arity {
                        return Err(DbError::ArityMismatch {
                            expected: arity,
                            got: *i + 1,
                        });
                    }
                    nv[*i] = v.clone();
                }
                (Key::project(&nv, pkey_cols), nv)
            };
            let old_values = guards[s_old].rows[key].values.clone();
            for (i, g) in guards.iter().enumerate() {
                if i == s_old {
                    continue; // local check happens in update_core
                }
                for idx in &g.indexes {
                    if idx.unique {
                        let new_ik = idx.key_of(&new_values);
                        if new_ik != idx.key_of(&old_values) && idx.cardinality(&new_ik) > 0 {
                            return Err(DbError::UniqueViolation {
                                index: idx.name.clone(),
                                key: format!("{new_ik:?}"),
                            });
                        }
                    }
                }
            }
            let s_new = self.route(&new_key);
            let (old_shard, new_shard) = split_pair(&mut guards, s_old, s_new);
            return update_core(
                old_shard, new_shard, pkey_cols, arity, key, cols, ver, mk_lsn,
            );
        }

        // Fast path: no primary-key column is touched, so the key (and
        // with it the shard) cannot change — one shard latch suffices.
        if !cols.iter().any(|(i, _)| pkey_cols.contains(i)) {
            let mut g = self.shards[self.route(key)].write();
            return update_core(&mut g, None, pkey_cols, arity, key, cols, ver, mk_lsn);
        }
        // A key column changes: the row may move shards. Take the
        // composite latch and split-borrow source and destination.
        let mut guards = self.all_write();
        let s_old = self.route(key);
        let s_new = {
            let row = guards[s_old]
                .rows
                .get(key)
                .ok_or_else(|| DbError::KeyNotFound(format!("{key:?}")))?;
            let mut nv = row.values.clone();
            for (i, v) in cols {
                if *i >= arity {
                    return Err(DbError::ArityMismatch {
                        expected: arity,
                        got: *i + 1,
                    });
                }
                nv[*i] = v.clone();
            }
            self.route(&Key::project(&nv, pkey_cols))
        };
        let (old_shard, new_shard) = split_pair(&mut guards, s_old, s_new);
        update_core(
            old_shard, new_shard, pkey_cols, arity, key, cols, ver, mk_lsn,
        )
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

    /// Rows visible at `snapshot` whose index key equals `ik`, in key
    /// order. Indexes are unversioned (they track inline rows only), so
    /// the probe unions the current index entries with the shard's
    /// archived keys, resolves every candidate through the snapshot and
    /// re-checks index-key equality on the resolved values.
    pub fn snapshot_index_rows(
        &self,
        idx: usize,
        ik: &Key,
        snapshot: Lsn,
        commit: &CommitTable,
    ) -> Vec<(Key, Row)> {
        let guards = self.all_read();
        let mut out: Vec<(Key, Row)> = Vec::new();
        for g in &guards {
            let mut cands: Vec<&Key> = g.indexes[idx].pk_set(ik).into_iter().flatten().collect();
            cands.extend(g.versions.keys());
            cands.sort();
            cands.dedup();
            for pk in cands {
                if let Some(r) = resolve_at(g, pk, snapshot, commit) {
                    if g.indexes[idx].covers(&r.values, ik) {
                        out.push((pk.clone(), r));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Begin a snapshot scan: chunked iteration in global primary-key
    /// order over the table *as of* `snapshot`. Unlike the fuzzy scan
    /// this is one consistent cut — concurrent writers keep committing,
    /// but their effects are invisible to the scan. Lock-free like the
    /// fuzzy scan: only short shard read latches per chunk.
    pub fn snapshot_scan(
        self: &Arc<Self>,
        chunk_size: usize,
        snapshot: Lsn,
        commit: Arc<CommitTable>,
    ) -> SnapshotScanner {
        SnapshotScanner {
            table: Arc::clone(self),
            commit,
            snapshot,
            shards: (0..TABLE_SHARDS).collect(),
            after: None,
            chunk_size: chunk_size.max(1),
        }
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

    /// Shared latch over every shard: blocks physical writes while held
    /// (used by the consistency checker's lock-free read of
    /// contributing rows).
    pub fn latch_shared(&self) -> TableSharedLatch<'_> {
        TableSharedLatch {
            _guards: self.all_read(),
        }
    }

    /// Exclusive latch over every shard: pauses *all* physical
    /// operations while held — the §3.4 synchronization latch.
    pub fn latch_exclusive(&self) -> TableExclusiveLatch<'_> {
        TableExclusiveLatch {
            _guards: self.all_write(),
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
        self.write_session_masked(1, 0)
    }

    /// Open a write session over the shards `s` with
    /// `s % stride == offset` only. Sessions with the same stride and
    /// different offsets hold disjoint latch sets, so parallel copy
    /// workers can write the same table concurrently. Operations that
    /// route outside the mask fail with an internal error rather than
    /// touching unlatched state — partitioning bugs surface as hard
    /// errors, not silent corruption.
    ///
    /// `stride` must tile the shard space (see [`shard_stride`]).
    pub fn write_session_masked(&self, stride: usize, offset: usize) -> WriteSession<'_> {
        let stride = shard_stride(stride.max(1));
        let offset = offset % stride;
        self.session_over(|s| s % stride == offset)
    }

    /// Insert every row of `rows` whose key the table does not hold
    /// yet (the lazy transform path: a batch of frozen source images,
    /// idempotent on a re-run); returns how many went in. Everything
    /// that needs no latch happens first — validation, key derivation,
    /// routing — and only then a write session opens over exactly the
    /// shards those keys route to (ascending, like every composite
    /// latch), for the uniqueness checks and one B-tree descent per
    /// row. Shards no row routes to stay writable by others throughout.
    /// A validation error is raised before anything is written; a
    /// uniqueness error leaves the rows before it in.
    pub fn insert_absent(&self, rows: impl IntoIterator<Item = Row>) -> DbResult<usize> {
        let mut owns = [false; TABLE_SHARDS];
        let routed = {
            let schema = self.schema.read();
            let shard_key = self.shard_key.read();
            rows.into_iter()
                .map(|row| {
                    schema.validate(&row.values)?;
                    let key = schema.key_of(&row.values);
                    let shard = route_hash(&key.0, shard_key.as_deref());
                    owns[shard] = true;
                    Ok((shard, key, row))
                })
                .collect::<DbResult<Vec<_>>>()?
        };
        let mut session = self.session_over(|s| owns[s]);
        let mut inserted = 0;
        for (shard, key, row) in routed {
            session.check_unique_owned(&row.values, shard)?;
            inserted += session.shard_mut(shard)?.insert_if_absent(key, row)? as usize;
        }
        Ok(inserted)
    }

    fn session_over(&self, owns: impl Fn(usize) -> bool) -> WriteSession<'_> {
        let schema = self.schema.read().clone();
        let shard_key = self.shard_key.read().clone();
        let versioning = self.versioning_enabled();
        WriteSession {
            schema,
            shard_key,
            versioning,
            guards: std::array::from_fn(|s| owns(s).then(|| self.shards[s].write())),
        }
    }

    // --- fuzzy scan ------------------------------------------------------

    /// Begin a fuzzy scan: chunked, lock-free (transaction-wise)
    /// iteration in primary-key order. Writers interleave between
    /// chunks, so the result may mix states — by design (§2.2, §3.2).
    pub fn fuzzy_scan(self: &Arc<Self>, chunk_size: usize) -> FuzzyScanner {
        FuzzyScanner {
            table: Arc::clone(self),
            shards: (0..TABLE_SHARDS).collect(),
            after: None,
            chunk_size: chunk_size.max(1),
        }
    }

    /// Begin a fuzzy scan over one partition of the key space: the
    /// shards `s` with `s % parts == part`. The `parts` partitions are
    /// disjoint and jointly cover the table, so `parts` workers each
    /// scanning one partition read every row exactly once — the
    /// parallel fuzzy copy. `parts` is normalized via [`shard_stride`].
    pub fn fuzzy_scan_partition(
        self: &Arc<Self>,
        chunk_size: usize,
        part: usize,
        parts: usize,
    ) -> FuzzyScanner {
        let parts = shard_stride(parts.max(1));
        FuzzyScanner {
            table: Arc::clone(self),
            shards: (0..TABLE_SHARDS)
                .filter(|s| s % parts == part % parts)
                .collect(),
            after: None,
            chunk_size: chunk_size.max(1),
        }
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
        let mut dropped_unique = 0usize;
        for g in &mut guards {
            // Rebuild surviving indexes with remapped column positions.
            let mut new_indexes = Vec::new();
            for idx in &g.indexes {
                if let Some(new_cols) = idx
                    .cols
                    .iter()
                    .map(|c| remap.iter().position(|k| k == c))
                    .collect::<Option<Vec<_>>>()
                {
                    new_indexes.push(SecondaryIndex::new(&idx.name, new_cols, idx.unique));
                } else if idx.unique {
                    dropped_unique += 1;
                }
            }
            let old_rows = std::mem::take(&mut g.rows);
            for (_, mut row) in old_rows {
                row.values = remap.iter().map(|&i| row.values[i].clone()).collect();
                let key = new_schema.key_of(&row.values);
                for idx in &mut new_indexes {
                    idx.insert(&row.values, &key)?;
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
        // Every shard drops the same index set; count it once.
        if dropped_unique > 0 {
            self.unique_indexes
                .fetch_sub(dropped_unique / TABLE_SHARDS, Ordering::Relaxed);
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

/// Split-borrow two shards from the composite guard vector. With
/// `a == b` the second borrow is `None` (same-shard update).
fn split_pair<'a, 'g>(
    guards: &'a mut [RwLockWriteGuard<'g, TableShard>],
    a: usize,
    b: usize,
) -> (&'a mut TableShard, Option<&'a mut TableShard>) {
    if a == b {
        (&mut guards[a], None)
    } else if a < b {
        let (lo, hi) = guards.split_at_mut(b);
        (&mut lo[a], Some(&mut hi[0]))
    } else {
        let (lo, hi) = guards.split_at_mut(a);
        (&mut hi[0], Some(&mut lo[b]))
    }
}

/// Composite shared latch over all shards of one table.
pub struct TableSharedLatch<'a> {
    _guards: [RwLockReadGuard<'a, TableShard>; TABLE_SHARDS],
}

/// Composite exclusive latch over all shards of one table.
pub struct TableExclusiveLatch<'a> {
    _guards: [RwLockWriteGuard<'a, TableShard>; TABLE_SHARDS],
}

impl TableExclusiveLatch<'_> {
    /// Every key currently in the table, read through the held latch,
    /// shard by shard and ascending within each shard. A lazy cutover
    /// builds its residual set from this
    /// ([`ResidualSet::track_latched`](crate::ResidualSet::track_latched))
    /// — calling [`Table::snapshot`] instead would re-acquire the shard
    /// locks the latch already holds and self-deadlock.
    pub(crate) fn keys_by_shard(&self) -> impl Iterator<Item = &Key> {
        self._guards.iter().flat_map(|g| g.rows.keys())
    }
}

/// An open write session on one table: shard latches held across many
/// physical operations (see [`Table::write_session`] and
/// [`Table::write_session_masked`]).
///
/// The method surface mirrors [`Table`]'s propagator-facing operations
/// (`insert_row`, `delete`, `update`, `with_row_mut`, reads and index
/// probes) so rule code can be written once against either. On a
/// masked session every operation is checked against the mask; index
/// probes see the masked shards only.
pub struct WriteSession<'a> {
    schema: Schema,
    shard_key: Option<Arc<[usize]>>,
    /// Snapshot of the table's versioning flag at open. Session writes
    /// do *not* archive versions — they are transformation-internal
    /// physical writes below the snapshot horizon (pre-cutover target
    /// population and propagation) — but on a versioned table a delete
    /// must still erase the key's chain so later snapshot readers
    /// cannot resurrect stale history.
    versioning: bool,
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
        self.guards[s]
            .as_deref()
            .ok_or_else(|| DbError::Internal(format!("shard {s} routed outside the session mask")))
    }

    fn shard_mut(&mut self, s: usize) -> DbResult<&mut TableShard> {
        self.guards[s]
            .as_deref_mut()
            .ok_or_else(|| DbError::Internal(format!("shard {s} routed outside the session mask")))
    }

    fn owned(&self) -> impl Iterator<Item = &TableShard> {
        self.guards.iter().filter_map(|g| g.as_deref())
    }

    fn check_unique_owned(&self, values: &[Value], skip: usize) -> DbResult<()> {
        for (s, g) in self.guards.iter().enumerate() {
            let Some(g) = g.as_deref() else { continue };
            if s == skip {
                continue;
            }
            for idx in &g.indexes {
                if idx.unique && idx.cardinality(&idx.key_of(values)) > 0 {
                    return Err(DbError::UniqueViolation {
                        index: idx.name.clone(),
                        key: format!("{:?}", idx.key_of(values)),
                    });
                }
            }
        }
        Ok(())
    }

    /// Insert a full row (ordinary metadata: counter 1, consistent).
    pub fn insert(&mut self, values: Vec<Value>, lsn: Lsn) -> DbResult<Key> {
        self.insert_row(Row::new(values, lsn))
    }

    /// Insert a row with explicit metadata.
    pub fn insert_row(&mut self, row: Row) -> DbResult<Key> {
        self.schema.validate(&row.values)?;
        let key = self.schema.key_of(&row.values);
        let s = self.route(&key);
        self.check_unique_owned(&row.values, s)?;
        let shard = self.guards[s].as_deref_mut().ok_or_else(|| {
            DbError::Internal(format!("shard {s} routed outside the session mask"))
        })?;
        shard.insert_row(&self.schema, row)
    }

    /// Delete by primary key, returning the removed row (unversioned;
    /// erases the key's archived history, see the `versioning` field).
    pub fn delete(&mut self, key: &Key) -> DbResult<Row> {
        let s = self.route(key);
        let versioning = self.versioning;
        let shard = self.shard_mut(s)?;
        let row = shard.delete_with(key, |_| Ok(()))?;
        if versioning {
            shard.versions.remove(key);
        }
        Ok(row)
    }

    /// Sparse-column update by primary key (moves the row on a
    /// primary-key change; both the old and the new shard must be
    /// inside the session mask).
    pub fn update(
        &mut self,
        key: &Key,
        cols: &[(usize, Value)],
        new_lsn: Lsn,
    ) -> DbResult<UpdateOutcome> {
        let s_old = self.route(key);
        // Fast path: no primary-key column changes and no index covers
        // a touched column — the row neither moves nor perturbs any
        // index, so it can be mutated in place instead of going
        // through the remove/re-insert machinery. This is the shape of
        // every payload update the propagation rules apply.
        let arity = self.schema.arity();
        if !cols.iter().any(|(i, _)| self.schema.pkey().contains(i)) {
            for (i, _) in cols {
                if *i >= arity {
                    return Err(DbError::ArityMismatch {
                        expected: arity,
                        got: *i + 1,
                    });
                }
            }
            let shard = self.shard_mut(s_old)?;
            let untouched_indexes = shard
                .indexes
                .iter()
                .all(|idx| !idx.cols.iter().any(|c| cols.iter().any(|(i, _)| i == c)));
            if untouched_indexes {
                let row = shard
                    .rows
                    .get_mut(key)
                    .ok_or_else(|| DbError::KeyNotFound(format!("{key:?}")))?;
                let outcome = UpdateOutcome {
                    old_cols: cols
                        .iter()
                        .map(|(i, _)| (*i, row.values[*i].clone()))
                        .collect(),
                    old_key: key.clone(),
                    new_key: key.clone(),
                    old_lsn: row.lsn,
                };
                row.apply_updates(cols);
                row.lsn = new_lsn;
                return Ok(outcome);
            }
        }
        let s_new = {
            let shard = self.shard(s_old)?;
            let row = shard
                .rows
                .get(key)
                .ok_or_else(|| DbError::KeyNotFound(format!("{key:?}")))?;
            let mut nv = row.values.clone();
            for (i, v) in cols {
                if *i >= arity {
                    return Err(DbError::ArityMismatch {
                        expected: arity,
                        got: *i + 1,
                    });
                }
                nv[*i] = v.clone();
            }
            let s_new = self.route(&Key::project(&nv, self.schema.pkey()));
            if self.owned().any(|g| g.indexes.iter().any(|i| i.unique)) {
                let old_values = shard.rows[key].values.clone();
                for (s, g) in self.guards.iter().enumerate() {
                    let Some(g) = g.as_deref() else { continue };
                    if s == s_old {
                        continue;
                    }
                    for idx in &g.indexes {
                        if idx.unique {
                            let new_ik = idx.key_of(&nv);
                            if new_ik != idx.key_of(&old_values) && idx.cardinality(&new_ik) > 0 {
                                return Err(DbError::UniqueViolation {
                                    index: idx.name.clone(),
                                    key: format!("{new_ik:?}"),
                                });
                            }
                        }
                    }
                }
            }
            s_new
        };
        // Both shards must be owned by this session.
        self.shard(s_new)?;
        let (old_shard, new_shard) = split_pair_opt(&mut self.guards, s_old, s_new)?;
        let pkey = self.schema.pkey();
        update_core(old_shard, new_shard, pkey, arity, key, cols, None, |_| {
            Ok(new_lsn)
        })
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

    /// Number of rows (within the session's shards) under index key
    /// `ik`.
    pub fn index_cardinality(&self, idx: usize, ik: &Key) -> usize {
        self.owned().map(|g| g.indexes[idx].cardinality(ik)).sum()
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

/// Split-borrow two (possibly identical) owned shards from a masked
/// guard vector.
fn split_pair_opt<'a, 'g>(
    guards: &'a mut [Option<RwLockWriteGuard<'g, TableShard>>],
    a: usize,
    b: usize,
) -> DbResult<(&'a mut TableShard, Option<&'a mut TableShard>)> {
    let missing =
        |s: usize| DbError::Internal(format!("shard {s} routed outside the session mask"));
    if a == b {
        let g = guards[a].as_deref_mut().ok_or_else(|| missing(a))?;
        Ok((g, None))
    } else {
        let (lo_i, hi_i) = if a < b { (a, b) } else { (b, a) };
        let (lo, hi) = guards.split_at_mut(hi_i);
        let lo_g = lo[lo_i].as_deref_mut().ok_or_else(|| missing(lo_i))?;
        let hi_g = hi[0].as_deref_mut().ok_or_else(|| missing(hi_i))?;
        if a < b {
            Ok((lo_g, Some(hi_g)))
        } else {
            Ok((hi_g, Some(lo_g)))
        }
    }
}

/// Chunked fuzzy scanner (see [`Table::fuzzy_scan`]). Merges the
/// per-shard B-trees on the fly, so chunks come out in global primary
/// key order exactly as they did when the heap was a single tree.
pub struct FuzzyScanner {
    table: Arc<Table>,
    shards: Vec<usize>,
    after: Option<Key>,
    chunk_size: usize,
}

impl FuzzyScanner {
    /// Next chunk of rows, or an empty vector when the scan is done.
    pub fn next_chunk(&mut self) -> Vec<(Key, Row)> {
        let guards: Vec<RwLockReadGuard<'_, TableShard>> = self
            .shards
            .iter()
            .map(|&s| self.table.shards[s].read())
            .collect();
        let mut iters: Vec<_> = guards
            .iter()
            .map(|g| {
                match &self.after {
                    None => g.rows.range::<Key, _>(..),
                    Some(k) => g
                        .rows
                        .range::<Key, _>((Bound::Excluded(k.clone()), Bound::Unbounded)),
                }
                .peekable()
            })
            .collect();
        let mut chunk: Vec<(Key, Row)> = Vec::new();
        while chunk.len() < self.chunk_size {
            let mut best: Option<(usize, &Key)> = None;
            for (i, it) in iters.iter_mut().enumerate() {
                if let Some(&(k, _)) = it.peek() {
                    if best.as_ref().is_none_or(|(_, bk)| k < *bk) {
                        best = Some((i, k));
                    }
                }
            }
            match best {
                None => break,
                Some((i, _)) => {
                    let (k, r) = iters[i].next().expect("peeked above"); // morph-lint: allow(panic, peek on the same iterator just returned Some)
                    chunk.push((k.clone(), r.clone()));
                }
            }
        }
        if let Some((k, _)) = chunk.last() {
            self.after = Some(k.clone());
        }
        chunk
    }

    /// Drain the remaining chunks into one vector.
    pub fn collect_all(mut self) -> Vec<(Key, Row)> {
        let mut out = Vec::new();
        loop {
            let chunk = self.next_chunk();
            if chunk.is_empty() {
                return out;
            }
            out.extend(chunk);
        }
    }
}

/// Chunked snapshot scanner (see [`Table::snapshot_scan`]): the fuzzy
/// scanner's shard-merge walk, extended to candidate keys that exist
/// only as archived history (a key deleted after the snapshot lives in
/// the versions map alone) and filtered through snapshot visibility.
pub struct SnapshotScanner {
    table: Arc<Table>,
    commit: Arc<CommitTable>,
    snapshot: Lsn,
    shards: Vec<usize>,
    after: Option<Key>,
    chunk_size: usize,
}

impl SnapshotScanner {
    /// Next chunk of snapshot-visible rows, or an empty vector when the
    /// scan is done. Chunks come out in global primary-key order.
    pub fn next_chunk(&mut self) -> Vec<(Key, Row)> {
        let guards: Vec<RwLockReadGuard<'_, TableShard>> = self
            .shards
            .iter()
            .map(|&s| self.table.shards[s].read())
            .collect();
        fn ranged<'a, V>(
            map: &'a BTreeMap<Key, V>,
            after: &Option<Key>,
        ) -> std::collections::btree_map::Range<'a, Key, V> {
            match after {
                None => map.range::<Key, _>(..),
                Some(k) => map.range::<Key, _>((Bound::Excluded(k.clone()), Bound::Unbounded)),
            }
        }
        let mut row_iters: Vec<_> = guards
            .iter()
            .map(|g| ranged(&g.rows, &self.after).peekable())
            .collect();
        let mut ver_iters: Vec<_> = guards
            .iter()
            .map(|g| ranged(&g.versions, &self.after).peekable())
            .collect();
        let mut chunk: Vec<(Key, Row)> = Vec::new();
        while chunk.len() < self.chunk_size {
            // Global minimum over both iterator families. A key lives
            // in exactly one shard (routing), so at most one row and
            // one chain iterator can sit at it — both are consumed.
            let mut best: Option<Key> = None;
            for it in row_iters.iter_mut() {
                if let Some(&(k, _)) = it.peek() {
                    if best.as_ref().is_none_or(|b| k < b) {
                        best = Some(k.clone());
                    }
                }
            }
            for it in ver_iters.iter_mut() {
                if let Some(&(k, _)) = it.peek() {
                    if best.as_ref().is_none_or(|b| k < b) {
                        best = Some(k.clone());
                    }
                }
            }
            let Some(key) = best else { break };
            let mut inline: Option<&Row> = None;
            for it in row_iters.iter_mut() {
                if it.peek().is_some_and(|&(k, _)| *k == key) {
                    inline = it.next().map(|(_, r)| r);
                }
            }
            let mut chain: Option<&VersionChain> = None;
            for it in ver_iters.iter_mut() {
                if it.peek().is_some_and(|&(k, _)| *k == key) {
                    chain = it.next().map(|(_, c)| c);
                }
            }
            let resolved = match inline {
                Some(r) if self.commit.is_visible(r.writer, r.lsn, self.snapshot) => {
                    Some(r.clone())
                }
                _ => chain.and_then(|c| {
                    c.iter()
                        .rev()
                        .find(|e| self.commit.is_visible(e.writer, e.lsn, self.snapshot))
                        .and_then(|e| e.data.clone())
                }),
            };
            self.after = Some(key.clone());
            if let Some(r) = resolved {
                chunk.push((key, r));
            }
        }
        chunk
    }

    /// Drain the remaining chunks into one vector.
    pub fn collect_all(mut self) -> Vec<(Key, Row)> {
        let mut out = Vec::new();
        loop {
            let chunk = self.next_chunk();
            if chunk.is_empty() {
                return out;
            }
            out.extend(chunk);
        }
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
        let out = t.update(&k, &[(2, Value::str("new"))], Lsn(5)).unwrap();
        assert_eq!(out.old_cols, vec![(2, Value::str("p1"))]);
        assert_eq!(out.old_key, out.new_key);
        assert_eq!(out.old_lsn, Lsn(1));
        let r = t.get(&k).unwrap();
        assert_eq!(r.lsn, Lsn(5));
        assert_eq!(r.values[2], Value::str("new"));
    }

    #[test]
    fn update_moves_row_on_pkey_change() {
        let t = table();
        let k = t.insert(row(1, 10), Lsn(1)).unwrap();
        let out = t.update(&k, &[(0, Value::Int(2))], Lsn(2)).unwrap();
        assert_eq!(out.new_key, Key::single(2));
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
        let j = t.add_index("j_idx", &["j"], false).unwrap();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        t.insert(row(2, 10), Lsn(2)).unwrap();
        t.insert(row(3, 30), Lsn(3)).unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(10)).len(), 2);

        // Update join attribute: moves index entry.
        t.update(&Key::single(1), &[(1, Value::Int(30))], Lsn(4))
            .unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(10)), vec![Key::single(2)]);
        assert_eq!(t.index_cardinality(j, &Key::single(30)), 2);

        // Delete removes entries.
        t.delete(&Key::single(3)).unwrap();
        assert_eq!(t.index_lookup(j, &Key::single(30)), vec![Key::single(1)]);
    }

    #[test]
    fn index_on_existing_rows() {
        let t = table();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        t.insert(row(2, 10), Lsn(2)).unwrap();
        let j = t.add_index("j_idx", &["j"], false).unwrap();
        assert_eq!(t.index_cardinality(j, &Key::single(10)), 2);
        assert!(t.add_index("j_idx", &["j"], false).is_err());
        assert!(t.add_index("bad", &["nope"], false).is_err());
    }

    #[test]
    fn unique_index_enforced_on_insert_and_update() {
        let t = table();
        t.add_index("u", &["j"], true).unwrap();
        t.insert(row(1, 10), Lsn(1)).unwrap();
        assert!(matches!(
            t.insert(row(2, 10), Lsn(2)),
            Err(DbError::UniqueViolation { .. })
        ));
        assert_eq!(t.len(), 1, "failed insert must not leave residue");
        t.insert(row(2, 20), Lsn(2)).unwrap();
        assert!(matches!(
            t.update(&Key::single(2), &[(1, Value::Int(10))], Lsn(3)),
            Err(DbError::UniqueViolation { .. })
        ));
        // Updating a row's unique value to itself is fine.
        t.update(&Key::single(2), &[(1, Value::Int(20))], Lsn(4))
            .unwrap();
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

    #[test]
    fn fuzzy_scan_collect_all_matches_snapshot_when_quiescent() {
        let t = table();
        for i in 0..37 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        let scanned = t.fuzzy_scan(8).collect_all();
        assert_eq!(scanned.len(), 37);
        assert_eq!(scanned, t.snapshot());
    }

    #[test]
    fn fuzzy_scan_is_in_global_key_order() {
        let t = table();
        for i in (0..500).rev() {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        let scanned = t.fuzzy_scan(13).collect_all();
        let keys: Vec<&Key> = scanned.iter().map(|(k, _)| k).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "chunks must merge sorted"
        );
        assert_eq!(scanned.len(), 500);
    }

    #[test]
    fn partitioned_scans_tile_the_table() {
        let t = table();
        for i in 0..200 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        for parts in [1usize, 2, 4, 8] {
            let mut seen: Vec<(Key, Row)> = Vec::new();
            for p in 0..parts {
                let part = t.fuzzy_scan_partition(16, p, parts).collect_all();
                // Each partition is itself in key order.
                assert!(part.windows(2).all(|w| w[0].0 < w[1].0));
                seen.extend(part);
            }
            seen.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(seen, t.snapshot(), "parts={parts} must cover exactly");
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
    fn masked_sessions_cover_disjoint_shards() {
        let t = table();
        for i in 0..100i64 {
            t.insert(row(i, 0), Lsn(1)).unwrap();
        }
        let mut covered = 0usize;
        for lane in 0..4 {
            let s = t.write_session_masked(4, lane);
            covered += s.len();
        }
        assert_eq!(covered, 100, "masks must tile the row space");
    }

    #[test]
    fn masked_session_rejects_foreign_keys() {
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
        let mut s = t.write_session_masked(4, 0);
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
        let held = t.write_session_masked(TABLE_SHARDS, held_shard);
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
    fn masked_sessions_write_concurrently() {
        // Two lanes insert into the same table at the same time; a
        // full session would deadlock this test.
        let t = table();
        std::thread::scope(|scope| {
            for lane in 0..2 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    let mut s = t.write_session_masked(2, lane);
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
        t.add_index("j_idx", &["j"], false).unwrap();
        t.add_index("p_idx", &["payload"], false).unwrap();
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
        let j = t.add_index("j_idx", &["j"], false).unwrap();
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
        assert_eq!(t.index_cardinality(j, &Key::single(20)), 1);
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

    #[test]
    fn shard_stride_tiles() {
        assert_eq!(shard_stride(0), 1);
        assert_eq!(shard_stride(1), 1);
        assert_eq!(shard_stride(2), 2);
        assert_eq!(shard_stride(3), 2);
        assert_eq!(shard_stride(4), 4);
        assert_eq!(shard_stride(7), 4);
        assert_eq!(shard_stride(8), 8);
        assert_eq!(shard_stride(64), TABLE_SHARDS);
    }
}
