//! Shared-nothing shard router (SLSM direction, PAPERS.md).
//!
//! A [`ShardedDatabase`] is a key-hash router over N fully independent
//! [`Database`] instances — each shard owns its storage, WAL, lock
//! manager, transaction registry, and MVCC state. Nothing on the data
//! path takes a lock that crosses shards: the router's only shared
//! state is the immutable shard vector and the per-table routing
//! specification, both fixed before traffic starts. Threads play the
//! role of nodes; one engine's commit rate is bounded by its one
//! commit pipeline, and N shards run N pipelines that never contend.
//!
//! Routing defaults to a stable FNV-1a hash of the primary key. A
//! table can opt into routing by a column subset
//! ([`ShardedDatabase::route_by`]) so that migrations whose
//! correctness needs co-partitioning (a FOJ's two sources on the join
//! attribute, a split source on the split column) keep every joined /
//! merged record group within one shard — the classic shard-key design
//! decision, made explicit per table.

use crate::counters::CountersSnapshot;
use crate::database::Database;
use morph_common::{DbError, DbResult, Key, Schema, Value};
use morph_wal::WalMode;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Stable 64-bit FNV-1a over a canonical value encoding; must never
/// change across versions or shard counts (it decides data placement).
fn hash_values(values: &[Value]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    };
    for v in values {
        match v {
            Value::Null => eat(0),
            Value::Int(i) => {
                eat(1);
                for b in i.to_le_bytes() {
                    eat(b);
                }
            }
            Value::Str(s) => {
                eat(2);
                for &b in s.as_bytes() {
                    eat(b);
                }
                eat(0xff);
            }
        }
    }
    h
}

/// Per-shard counter report plus the field-wise aggregate — what
/// benches and tests read instead of poking individual engines.
#[derive(Clone, Debug, Default)]
pub struct ShardCounters {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<CountersSnapshot>,
    /// Field-wise sum of `per_shard`.
    pub total: CountersSnapshot,
}

/// A key-hash router over N shared-nothing engine shards.
pub struct ShardedDatabase {
    shards: Vec<Arc<Database>>,
    /// Optional routing columns per table name (positions into the
    /// row); tables not listed route by primary key.
    route_cols: RwLock<HashMap<String, Vec<usize>>>,
    /// Leading key columns to skip when routing point accesses (union
    /// targets: skip the provenance tag).
    key_skip: RwLock<HashMap<String, usize>>,
}

impl ShardedDatabase {
    /// N shards, each with its own in-memory WAL and default lock
    /// configuration.
    pub fn new(shards: usize) -> ShardedDatabase {
        Self::from_parts(
            (0..shards.max(1))
                .map(|_| Arc::new(Database::new()))
                .collect(),
        )
    }

    /// [`ShardedDatabase::new`]; kept only for `benchmark/`'s call
    /// sites.
    pub fn with_wal_mode(shards: usize, _mode: WalMode) -> ShardedDatabase {
        Self::new(shards)
    }

    /// Assemble a router from caller-built shards (the crash simulator
    /// builds shards over fault-injecting WAL backends, then routes
    /// through them like production code would).
    pub fn from_parts(shards: Vec<Arc<Database>>) -> ShardedDatabase {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        ShardedDatabase {
            shards,
            route_cols: RwLock::new(HashMap::new()),
            key_skip: RwLock::new(HashMap::new()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct handle to one shard's engine.
    pub fn shard(&self, i: usize) -> &Arc<Database> {
        &self.shards[i]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// Create `name` on every shard (same schema everywhere; table ids
    /// are per-shard).
    pub fn create_table(&self, name: &str, schema: Schema) -> DbResult<()> {
        for db in &self.shards {
            db.create_table(name, schema.clone())?;
        }
        Ok(())
    }

    /// Route `table` by the given row positions instead of its primary
    /// key (co-partitioning for migrations: both FOJ sources by the
    /// join attribute, a split source by the split column). Must be
    /// set before any rows are inserted.
    pub fn route_by(&self, table: &str, cols: Vec<usize>) {
        self.route_cols.write().insert(table.to_owned(), cols);
    }

    /// Shard index for a full row of `table`.
    pub fn shard_of_row(&self, table: &str, values: &[Value]) -> DbResult<usize> {
        if let Some(cols) = self.route_cols.read().get(table) {
            let routed: Vec<Value> = cols
                .iter()
                .map(|&c| values.get(c).cloned().unwrap_or(Value::Null))
                .collect();
            return Ok(hash_values(&routed) as usize % self.shards.len());
        }
        let schema = self.shards[0].catalog().get(table)?.schema().clone();
        Ok(hash_values(schema.key_of(values).values()) as usize % self.shards.len())
    }

    /// Route point accesses to `table` by its primary key *minus*
    /// `skip` leading columns. A union target's key prepends a
    /// provenance tag to the source key — skipping the tag makes the
    /// target row route to the same shard as the source row it was
    /// transformed from, so reads mid-migration land where the frozen
    /// source (and its residual entry) lives.
    pub fn route_key_suffix(&self, table: &str, skip: usize) {
        self.key_skip.write().insert(table.to_owned(), skip);
    }

    /// Shard index for a primary key of `table`. Only valid when the
    /// table routes by primary key (the default, optionally minus a
    /// [`route_key_suffix`](ShardedDatabase::route_key_suffix) prefix);
    /// a table routed by non-key columns cannot place a bare key.
    pub fn shard_of_key(&self, table: &str, key: &Key) -> DbResult<usize> {
        if self.route_cols.read().contains_key(table) {
            return Err(DbError::Internal(format!(
                "table {table:?} routes by explicit columns; point access needs the full row"
            )));
        }
        let skip = self.key_skip.read().get(table).copied().unwrap_or(0);
        let vals = key.values();
        let suffix = vals.get(skip..).unwrap_or(vals);
        Ok(hash_values(suffix) as usize % self.shards.len())
    }

    /// Owning shard for a primary key of `table`.
    pub fn shard_for_key(&self, table: &str, key: &Key) -> DbResult<&Arc<Database>> {
        Ok(&self.shards[self.shard_of_key(table, key)?])
    }

    // --- routed single-shot operations --------------------------------
    //
    // Each runs one short transaction on the owning shard. Multi-key
    // transactions stay per-shard by construction (shared-nothing: no
    // cross-shard commit protocol in this layer).

    /// Insert a row into `table` on its owning shard.
    pub fn insert(&self, table: &str, values: Vec<Value>) -> DbResult<Key> {
        let db = &self.shards[self.shard_of_row(table, &values)?];
        let txn = db.begin();
        match db.insert(txn, table, values) {
            Ok(key) => {
                db.commit(txn)?;
                Ok(key)
            }
            Err(e) => {
                let _ = db.abort(txn);
                Err(e)
            }
        }
    }

    /// Read the row at `key` from its owning shard.
    pub fn read(&self, table: &str, key: &Key) -> DbResult<Option<Vec<Value>>> {
        let db = self.shard_for_key(table, key)?;
        let txn = db.begin();
        match db.read(txn, table, key) {
            Ok(row) => {
                db.commit(txn)?;
                Ok(row)
            }
            Err(e) => {
                let _ = db.abort(txn);
                Err(e)
            }
        }
    }

    /// Update columns of the row at `key` on its owning shard.
    pub fn update(&self, table: &str, key: &Key, cols: &[(usize, Value)]) -> DbResult<()> {
        let db = self.shard_for_key(table, key)?;
        let txn = db.begin();
        match db.update(txn, table, key, cols) {
            Ok(()) => db.commit(txn),
            Err(e) => {
                let _ = db.abort(txn);
                Err(e)
            }
        }
    }

    /// Delete the row at `key` on its owning shard.
    pub fn delete(&self, table: &str, key: &Key) -> DbResult<()> {
        let db = self.shard_for_key(table, key)?;
        let txn = db.begin();
        match db.delete(txn, table, key) {
            Ok(()) => db.commit(txn),
            Err(e) => {
                let _ = db.abort(txn);
                Err(e)
            }
        }
    }

    /// Aggregate engine counters across all shards with the per-shard
    /// breakdown (WAL flushes, MVCC reclamation, lock waits,
    /// transaction and op counts).
    pub fn counters(&self) -> ShardCounters {
        let per_shard: Vec<CountersSnapshot> = self
            .shards
            .iter()
            .map(|db| db.counters_snapshot())
            .collect();
        let mut total = CountersSnapshot::default();
        for s in &per_shard {
            total.add(s);
        }
        ShardCounters { per_shard, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::ColumnType;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .nullable("v", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn routing_is_stable_and_total() {
        let sdb = ShardedDatabase::new(4);
        sdb.create_table("t", schema()).unwrap();
        for i in 0..64i64 {
            let a = sdb.shard_of_key("t", &Key::single(i)).unwrap();
            let b = sdb.shard_of_key("t", &Key::single(i)).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
        // All shards get some keys (sanity of the hash spread).
        let mut seen = [false; 4];
        for i in 0..64i64 {
            seen[sdb.shard_of_key("t", &Key::single(i)).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn routed_ops_round_trip() {
        let sdb = ShardedDatabase::new(3);
        sdb.create_table("t", schema()).unwrap();
        for i in 0..32i64 {
            sdb.insert("t", vec![Value::Int(i), Value::str(format!("v{i}"))])
                .unwrap();
        }
        for i in 0..32i64 {
            let row = sdb.read("t", &Key::single(i)).unwrap().unwrap();
            assert_eq!(row[1], Value::str(format!("v{i}")));
        }
        sdb.update("t", &Key::single(7), &[(1, Value::str("x"))])
            .unwrap();
        assert_eq!(
            sdb.read("t", &Key::single(7)).unwrap().unwrap()[1],
            Value::str("x")
        );
        sdb.delete("t", &Key::single(7)).unwrap();
        assert!(sdb.read("t", &Key::single(7)).unwrap().is_none());
        // Rows actually live on distinct shards, and only there.
        let total: usize = sdb
            .shards()
            .iter()
            .map(|db| db.catalog().get("t").unwrap().len())
            .sum();
        assert_eq!(total, 31);
    }

    #[test]
    fn explicit_route_columns_co_partition() {
        let sdb = ShardedDatabase::new(4);
        sdb.create_table("t", schema()).unwrap();
        sdb.route_by("t", vec![1]);
        // Same column-1 value ⇒ same shard, regardless of key.
        let a = sdb
            .shard_of_row("t", &[Value::Int(1), Value::str("g")])
            .unwrap();
        let b = sdb
            .shard_of_row("t", &[Value::Int(999), Value::str("g")])
            .unwrap();
        assert_eq!(a, b);
        // Bare-key routing is refused for explicitly routed tables.
        assert!(sdb.shard_of_key("t", &Key::single(1)).is_err());
    }

    #[test]
    fn counters_roll_up() {
        let sdb = ShardedDatabase::new(2);
        sdb.create_table("t", schema()).unwrap();
        for i in 0..16i64 {
            sdb.insert("t", vec![Value::Int(i), Value::Null]).unwrap();
        }
        let c = sdb.counters();
        assert_eq!(c.per_shard.len(), 2);
        assert_eq!(c.total.commits, 16);
        assert_eq!(c.total.ops, 16);
        assert_eq!(
            c.total.commits,
            c.per_shard.iter().map(|s| s.commits).sum::<u64>()
        );
        // Both shards saw traffic and appended to their own WALs.
        assert!(c.per_shard.iter().all(|s| s.wal_records > 0));
    }
}
