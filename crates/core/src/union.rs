//! Union (horizontal merge) transformation — the first of the "other
//! relational operators" the paper's conclusion calls for (§7).
//!
//! Two source tables with identical schemas (say, regional shards
//! `customers_eu` and `customers_us`) are merged into one table whose
//! primary key is the source key prefixed with a *provenance* tag, so
//! colliding keys from the two sources remain distinct and every
//! transformed row traces back to exactly one source row.
//!
//! Because each target row mirrors exactly one source row, target rows
//! *do* have valid state identifiers, and the propagation rules are the
//! simple LSN-gated forms (the same discipline as the split rules'
//! R side, §5.2) — making union also a minimal, readable template for
//! implementing further [`TransformOperator`]s.

use crate::operator::{scan_source, CoalescePolicy, TransformOperator};
use morph_common::{ColumnType, DbError, DbResult, Key, Lsn, Schema, TableId, Value};
use morph_engine::Database;
use morph_storage::{shard_stride, Row, Table, WriteSession};
use morph_wal::LogOp;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Specification of a union transformation: R ∪ S → T.
#[derive(Clone, Debug)]
pub struct UnionSpec {
    /// First source table.
    pub r_table: String,
    /// Second source table (same schema as the first).
    pub s_table: String,
    /// Name of the merged target table.
    pub target: String,
    /// Name for the provenance column prepended to the target schema
    /// (holds the source table's name).
    pub provenance_col: String,
}

impl UnionSpec {
    /// Build a spec with the default provenance column name `__src`.
    pub fn new(r_table: &str, s_table: &str, target: &str) -> UnionSpec {
        UnionSpec {
            r_table: r_table.to_owned(),
            s_table: s_table.to_owned(),
            target: target.to_owned(),
            provenance_col: "__src".to_owned(),
        }
    }
}

/// Column mapping and rule engine for one union transformation.
pub struct UnionMapping {
    r: Arc<Table>,
    s: Arc<Table>,
    t: Arc<Table>,
    r_tag: Value,
    s_tag: Value,
}

impl UnionMapping {
    /// Preparation step: validate schema equality and create the
    /// target (provenance column first, then the source columns; key =
    /// provenance ⧺ source key).
    pub fn prepare(db: &Database, spec: &UnionSpec) -> DbResult<UnionMapping> {
        let r = db.catalog().get(&spec.r_table)?;
        let s = db.catalog().get(&spec.s_table)?;
        if r.schema() != s.schema() {
            return Err(DbError::InvalidSchema(
                "union sources must have identical schemas".into(),
            ));
        }
        let src_schema = r.schema();
        if src_schema.position_of(&spec.provenance_col).is_some() {
            return Err(DbError::InvalidSchema(format!(
                "provenance column {:?} collides with a source column",
                spec.provenance_col
            )));
        }
        let mut b = Schema::builder().column(&spec.provenance_col, ColumnType::Str);
        for c in src_schema.columns() {
            b = if c.nullable {
                b.nullable(&c.name, c.ty)
            } else {
                b.column(&c.name, c.ty)
            };
        }
        let mut key_names: Vec<&str> = vec![&spec.provenance_col];
        for &p in src_schema.pkey() {
            key_names.push(&src_schema.columns()[p].name);
        }
        let t_schema = b.primary_key(&key_names).build()?;
        let t = db.catalog().create_table(&spec.target, t_schema)?;
        // Shard T by the source-key suffix (skipping the provenance
        // tag): a source row and its target row then route to the same
        // shard index, which both the parallel fuzzy copy (partitioned
        // source scans writing under masked target sessions) and the
        // lazy backfill's shard-scoped batches rely on.
        t.set_shard_key((1..=src_schema.pkey().len()).collect())?;
        Ok(UnionMapping {
            r_tag: Value::str(spec.r_table.clone()),
            s_tag: Value::str(spec.s_table.clone()),
            r,
            s,
            t,
        })
    }

    /// The merged target table.
    pub fn t_table(&self) -> &Arc<Table> {
        &self.t
    }

    /// Source tables whose log records are relevant.
    pub fn source_ids(&self) -> Vec<TableId> {
        vec![self.r.id(), self.s.id()]
    }

    fn tag_for(&self, table: TableId) -> &Value {
        if table == self.r.id() {
            &self.r_tag
        } else {
            &self.s_tag
        }
    }

    /// Target row for a source row.
    fn t_row(&self, table: TableId, src: &[Value]) -> Vec<Value> {
        let mut out = Vec::with_capacity(src.len() + 1);
        out.push(self.tag_for(table).clone());
        out.extend_from_slice(src);
        out
    }

    /// Target key for a source key.
    pub fn t_key(&self, table: TableId, key: &Key) -> Key {
        let mut vals = Vec::with_capacity(key.arity() + 1);
        vals.push(self.tag_for(table).clone());
        vals.extend(key.values().iter().cloned());
        Key(vals)
    }

    /// Inverse of [`UnionMapping::t_key`]: the source record a target
    /// key mirrors (`None` when it carries neither provenance tag) —
    /// what a lazy migration must have transformed before an access to
    /// that target key may proceed.
    pub(crate) fn source_of(&self, t_key: &Key) -> Option<(TableId, Key)> {
        let (tag, rest) = t_key.values().split_first()?;
        let source = if *tag == self.r_tag {
            self.r.id()
        } else if *tag == self.s_tag {
            self.s.id()
        } else {
            return None;
        };
        Some((source, Key(rest.to_vec())))
    }

    /// Lazy-migration entry (DESIGN.md §15): materialize frozen rows of
    /// source `table` in T, skipping keys T already holds (a re-run
    /// after a crash). [`Table::insert_absent`] builds and validates the
    /// target rows and keys before anything is latched, then inserts
    /// under a write session over exactly the target shards those keys
    /// route to — one shard for a residual batch, whose keys share a
    /// routing hash that T's shard key preserves.
    pub(crate) fn apply_frozen(&self, table: TableId, rows: Vec<Row>) -> DbResult<()> {
        let tag = self.tag_for(table);
        self.t.insert_absent(rows.into_iter().map(|src| {
            let mut values = Vec::with_capacity(src.values.len() + 1);
            values.push(tag.clone());
            values.extend(src.values);
            Row::new(values, src.lsn)
        }))?;
        Ok(())
    }

    /// Shift source column positions by the provenance column.
    fn t_cols(cols: &[(usize, Value)]) -> Vec<(usize, Value)> {
        cols.iter().map(|(i, v)| (*i + 1, v.clone())).collect()
    }

    /// Initial population at full priority on one scan thread (tests
    /// and reference builds).
    pub fn populate(&self, chunk_size: usize) -> DbResult<(usize, usize)> {
        self.populate_with(None, chunk_size, 1, 1.0, None)
    }

    /// Initial population: each source is scanned by `workers` threads
    /// over disjoint shard classes, and because T's shard key aligns
    /// target routing with source routing, each scan worker inserts
    /// its chunk directly under a masked target session — no
    /// cross-thread handoff at all. The database handle is threaded
    /// through so the fuzzy scan reports per-chunk crash points (crash
    /// simulation).
    pub(crate) fn populate_with(
        &self,
        db: Option<&Database>,
        chunk_size: usize,
        workers: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)> {
        let workers = shard_stride(workers.max(1));
        let t = Arc::clone(&self.t);
        let written = AtomicUsize::new(0);
        let mut read = 0;
        for src in [&self.r, &self.s] {
            let src_id = src.id();
            let sink = |w: usize, chunk: Vec<(Key, Row)>| {
                let mut ts = t.write_session_masked(workers, w);
                let mut n = 0usize;
                for (_, row) in chunk {
                    let values = self.t_row(src_id, &row.values);
                    match ts.insert_row(Row::new(values, row.lsn)) {
                        Ok(_) | Err(DbError::DuplicateKey(_)) => n += 1,
                        Err(e) => return Err(e),
                    }
                }
                written.fetch_add(n, Ordering::Relaxed);
                Ok(())
            };
            read += scan_source(db, src, chunk_size, workers, priority, deadline, &sink)?;
        }
        Ok((read, written.load(Ordering::Relaxed)))
    }

    /// Apply one logged source operation (LSN-gated, like the split
    /// rules' R side).
    pub fn apply(&self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        let t = Arc::clone(&self.t);
        let mut ts = t.write_session();
        self.apply_in(&mut ts, lsn, op)
    }

    /// Rule dispatch within an open target write session.
    fn apply_in(&self, ts: &mut WriteSession<'_>, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        let table = op.table();
        if table != self.r.id() && table != self.s.id() {
            return Ok(());
        }
        match op {
            LogOp::Insert { row, .. } => {
                let tkey = self.t_key(table, &self.r.schema().key_of(row));
                if ts.contains(&tkey) {
                    return Ok(()); // already reflected
                }
                ts.insert_row(Row::new(self.t_row(table, row), lsn))
                    .map(|_| ())
            }
            LogOp::Delete { key, .. } => {
                let tkey = self.t_key(table, key);
                match ts.get(&tkey) {
                    None => Ok(()),
                    Some(row) if row.lsn >= lsn => Ok(()), // newer state
                    Some(_) => ts.delete(&tkey).map(|_| ()),
                }
            }
            LogOp::Update { key, new, .. } => {
                let tkey = self.t_key(table, key);
                match ts.get(&tkey) {
                    None => Ok(()),
                    Some(row) if row.lsn >= lsn => Ok(()),
                    Some(_) => ts.update(&tkey, &Self::t_cols(new), lsn).map(|_| ()),
                }
            }
        }
    }

    /// Immutable data needed to mirror source locks (non-blocking
    /// commit interceptor).
    pub fn mirror_map(&self) -> crate::sync::MirrorMap {
        crate::sync::MirrorMap::Union {
            r_id: self.r.id(),
            s_id: self.s.id(),
            t_id: self.t.id(),
            r_tag: self.r_tag.clone(),
            s_tag: self.s_tag.clone(),
            src_pk: self.r.schema().pkey().to_vec(),
        }
    }

    /// Target records affected by a source-record lock (sync transfer).
    pub fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        if table != self.r.id() && table != self.s.id() {
            return Vec::new();
        }
        vec![(self.t.id(), self.t_key(table, key))]
    }
}

impl TransformOperator for UnionMapping {
    fn source_ids(&self) -> Vec<TableId> {
        UnionMapping::source_ids(self)
    }

    fn apply(&mut self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        UnionMapping::apply(self, lsn, op)
    }

    fn apply_batch(&mut self, batch: &[(Lsn, &LogOp)]) -> DbResult<()> {
        let t = Arc::clone(&self.t);
        let mut ts = t.write_session();
        for &(lsn, op) in batch {
            self.apply_in(&mut ts, lsn, op)?;
        }
        Ok(())
    }

    fn coalesce_policy(&self) -> CoalescePolicy {
        // Purely LSN-gated, one target row per source row: an update may
        // swallow earlier same-column updates, a delete everything.
        CoalescePolicy::Full
    }

    fn populate(
        &mut self,
        db: &Database,
        chunk: usize,
        workers: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)> {
        UnionMapping::populate_with(self, Some(db), chunk, workers, priority, deadline)
    }

    fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        UnionMapping::target_keys_for(self, table, key)
    }

    fn mirror_map(&self) -> crate::sync::MirrorMap {
        UnionMapping::mirror_map(self)
    }
}

/// Compare T against the union of the current source contents.
pub fn verify_against_reference(m: &UnionMapping) -> Result<(), String> {
    let mut expected: Vec<Vec<Value>> = Vec::new();
    for src in [&m.r, &m.s] {
        for (_, row) in src.snapshot() {
            expected.push(m.t_row(src.id(), &row.values));
        }
    }
    expected.sort();
    let mut got: Vec<Vec<Value>> = m.t.snapshot().into_iter().map(|(_, r)| r.values).collect();
    got.sort();
    if expected != got {
        return Err(format!(
            "union mismatch:\nexpected {expected:?}\ngot      {got:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Database, UnionMapping) {
        let db = Database::new();
        let schema = || {
            Schema::builder()
                .column("id", ColumnType::Int)
                .nullable("v", ColumnType::Str)
                .primary_key(&["id"])
                .build()
                .unwrap()
        };
        db.create_table("eu", schema()).unwrap();
        db.create_table("us", schema()).unwrap();
        let m = UnionMapping::prepare(&db, &UnionSpec::new("eu", "us", "all")).unwrap();
        (db, m)
    }

    #[test]
    fn prepare_validates() {
        let db = Database::new();
        let a = Schema::builder()
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let b = Schema::builder()
            .column("id", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("a", a).unwrap();
        db.create_table("b", b).unwrap();
        assert!(matches!(
            UnionMapping::prepare(&db, &UnionSpec::new("a", "b", "t")),
            Err(DbError::InvalidSchema(_))
        ));
    }

    #[test]
    fn colliding_source_keys_stay_distinct() {
        let (db, m) = setup();
        let r_id = db.catalog().get("eu").unwrap().id();
        let s_id = db.catalog().get("us").unwrap().id();
        for (t, lsn) in [(r_id, 1), (s_id, 2)] {
            m.apply(
                Lsn(lsn),
                &LogOp::Insert {
                    table: t,
                    row: vec![Value::Int(7), Value::str("x")],
                },
            )
            .unwrap();
        }
        assert_eq!(m.t_table().len(), 2);
        verify_against_reference(&m).unwrap_err(); // sources are empty!
    }

    #[test]
    fn lsn_gates_protect_fresher_rows() {
        let (db, m) = setup();
        let r_id = db.catalog().get("eu").unwrap().id();
        db.catalog()
            .get("eu")
            .unwrap()
            .insert(vec![Value::Int(1), Value::str("new")], Lsn(10))
            .unwrap();
        m.populate(4).unwrap();
        // A stale logged update must not regress the fresher image.
        m.apply(
            Lsn(5),
            &LogOp::Update {
                table: r_id,
                key: Key::single(1),
                old: vec![(1, Value::str("old"))],
                new: vec![(1, Value::str("mid"))],
            },
        )
        .unwrap();
        assert_eq!(
            m.t_table()
                .get(&m.t_key(r_id, &Key::single(1)))
                .unwrap()
                .values[2],
            Value::str("new")
        );
        verify_against_reference(&m).unwrap();
    }

    #[test]
    fn randomized_ops_match_reference() {
        for seed in 0..8u64 {
            let (db, m) = setup();
            let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
            let tables = ["eu", "us"];
            let mut lsn = 0u64;
            for step in 0..300 {
                lsn += 1;
                let name = tables[rng.gen_range(0..2)];
                let src = db.catalog().get(name).unwrap();
                let key = Key::single(rng.gen_range(0..16i64));
                match rng.gen_range(0..3) {
                    0 => {
                        if src.get(&key).is_none() {
                            let row = vec![key.0[0].clone(), Value::str(format!("v{step}"))];
                            src.insert(row.clone(), Lsn(lsn)).unwrap();
                            m.apply(
                                Lsn(lsn),
                                &LogOp::Insert {
                                    table: src.id(),
                                    row,
                                },
                            )
                            .unwrap();
                        }
                    }
                    1 => {
                        if src.get(&key).is_some() {
                            let old = src.delete(&key).unwrap();
                            m.apply(
                                Lsn(lsn),
                                &LogOp::Delete {
                                    table: src.id(),
                                    key,
                                    old: old.values,
                                },
                            )
                            .unwrap();
                        }
                    }
                    _ => {
                        if src.get(&key).is_some() {
                            let cols = vec![(1usize, Value::str(format!("u{step}")))];
                            let out = src.update(&key, &cols, Lsn(lsn)).unwrap();
                            m.apply(
                                Lsn(lsn),
                                &LogOp::Update {
                                    table: src.id(),
                                    key,
                                    old: out.old_cols,
                                    new: cols,
                                },
                            )
                            .unwrap();
                        }
                    }
                }
            }
            if let Err(e) = verify_against_reference(&m) {
                panic!("seed {seed}: {e}");
            }
        }
    }
}
