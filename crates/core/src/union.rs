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

use crate::operator::{CoalescePolicy, LazySource, TransformOperator};
use morph_common::{ColumnType, DbError, DbResult, Key, Lsn, Schema, TableId, Value};
use morph_engine::{Database, PlannedOp};
use morph_storage::{Row, Table, WriteSession};
use morph_txn::LockOrigin;
use morph_wal::LogOp;
use std::sync::Arc;

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
        // shard index, which the lazy backfill's shard-scoped batches
        // rely on.
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

    /// Shift source column positions by the provenance column.
    fn t_cols(cols: &[(usize, Value)]) -> Vec<(usize, Value)> {
        cols.iter().map(|(i, v)| (*i + 1, v.clone())).collect()
    }

    /// Rule dispatch within an open target write session (LSN-gated,
    /// like the split rules' R side).
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
}

impl TransformOperator for UnionMapping {
    fn source_ids(&self) -> Vec<TableId> {
        vec![self.r.id(), self.s.id()]
    }

    fn apply_batch(&self, batch: &[(Lsn, &LogOp)]) -> DbResult<()> {
        let mut ts = self.t.write_session();
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

    /// A source record's one target row: its key under the provenance
    /// tag.
    fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        if table != self.r.id() && table != self.s.id() {
            return Vec::new();
        }
        vec![(self.t.id(), self.t_key(table, key))]
    }

    fn mirror_keys(&self, source: TableId, op: &PlannedOp<'_>) -> Vec<(TableId, Key, LockOrigin)> {
        let origin = if source == self.r.id() {
            LockOrigin::SourceR
        } else if source == self.s.id() {
            LockOrigin::SourceS
        } else {
            return Vec::new();
        };
        let key = match op {
            PlannedOp::Insert { values } => Key::project(values, self.r.schema().pkey()),
            PlannedOp::Update { key, .. } | PlannedOp::Delete { key } | PlannedOp::Read { key } => {
                (*key).clone()
            }
        };
        self.target_keys_for(source, &key)
            .into_iter()
            .map(|(t, k)| (t, k, origin))
            .collect()
    }

    /// Inverse of [`UnionMapping::t_key`]: a target key mirrors the one
    /// source record under its provenance tag (none when it carries
    /// neither tag).
    fn lazy_source(&self, target: TableId, key: &Key) -> LazySource {
        if target != self.t.id() {
            return LazySource::None;
        }
        let Some((tag, rest)) = key.values().split_first() else {
            return LazySource::None;
        };
        let source = if *tag == self.r_tag {
            self.r.id()
        } else if *tag == self.s_tag {
            self.s.id()
        } else {
            return LazySource::None;
        };
        LazySource::Key(source, Key(rest.to_vec()))
    }

    /// Materialize frozen rows of `source` in T, skipping keys T
    /// already holds (a re-run after a crash). [`Table::insert_absent`]
    /// builds and validates the target rows and keys before anything is
    /// latched, then inserts under a write session over exactly the
    /// target shards those keys route to — one shard for a residual
    /// batch, whose keys share a routing hash that T's shard key
    /// preserves.
    fn apply_frozen(&self, source: TableId, rows: Vec<Row>) -> DbResult<()> {
        let tag = self.tag_for(source);
        self.t.insert_absent(rows.into_iter().map(|src| {
            let mut values = Vec::with_capacity(src.values.len() + 1);
            values.push(tag.clone());
            values.extend(src.values);
            Row::new(values, src.lsn)
        }))?;
        Ok(())
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
        m.populate(&db, 4, 1.0, None).unwrap();
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
                        if let Some(pre) = src.get(&key) {
                            let cols = vec![(1usize, Value::str(format!("u{step}")))];
                            src.update(&key, &cols, Lsn(lsn)).unwrap();
                            m.apply(
                                Lsn(lsn),
                                &LogOp::Update {
                                    table: src.id(),
                                    key,
                                    old: vec![(1, pre.values[1].clone())],
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
