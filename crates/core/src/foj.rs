//! Full outer join transformation: mapping, propagation rules 1–7 and
//! the many-to-many generalization (§4).
//!
//! ## Data model
//!
//! The transformed table T holds every column of R followed by every
//! column of S except S's join column (the join attribute appears once,
//! Figure 1). T's storage key is R's primary key extended with the
//! join attribute (one-to-many) or with S's primary key (many-to-many)
//! so that NULL-extended rows (`t_null_x`, `t_y_null`) remain uniquely
//! addressable. Which halves of a row are populated is tracked in the
//! row's [`Presence`] metadata.
//!
//! ## No state identifiers
//!
//! As the paper argues (§4.2), a T-row is the join of two source rows
//! and cannot carry a single valid LSN; the rules below therefore
//! decide purely from *content* — existence and presence lookups
//! through the indexes created by the preparation step — and are
//! idempotent. Theorem 1 (sequential propagation from the first record
//! of the oldest transaction active at the fuzzy mark) guarantees rows
//! are never older than the log record being applied, which makes
//! "found ⇒ already reflected ⇒ ignore" sound.

use morph_common::{ColumnType, DbError, DbResult, Key, Lsn, Schema, TableId, Value};
use morph_engine::Database;
use morph_storage::row::Presence;
use morph_storage::{Row, Table, WriteSession};
use morph_wal::LogOp;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use crate::operator::{check_deadline, fan_out, scan_source, worker_share, TransformOperator};
use crate::spec::FojSpec;
use crate::throttle::Throttle;
use morph_storage::shard_stride;

const LEFT: Presence = Presence {
    left: true,
    right: false,
};
const RIGHT: Presence = Presence {
    left: false,
    right: true,
};

/// Column mapping and rule engine for one FOJ transformation.
pub struct FojMapping {
    r: Arc<Table>,
    s: Arc<Table>,
    t: Arc<Table>,
    r_arity: usize,
    s_arity: usize,
    /// Join column position in R / S.
    r_join: usize,
    s_join: usize,
    /// Primary-key column positions in R / S.
    r_pk: Vec<usize>,
    s_pk: Vec<usize>,
    /// S column -> T column position (join column maps onto R's).
    s_to_t: Vec<usize>,
    /// T-side index positions.
    idx_rpk: usize,
    idx_join: usize,
    idx_spk: usize,
    many: bool,
}

impl FojMapping {
    /// Preparation step (§3.1/§4.1): create T with the required
    /// candidate keys and the join-attribute / S-key indexes.
    pub fn prepare(db: &Database, spec: &FojSpec) -> DbResult<FojMapping> {
        let r = db.catalog().get(&spec.r_table)?;
        let s = db.catalog().get(&spec.s_table)?;
        let rs = r.schema();
        let ss = s.schema();
        let r_join = rs.require(&spec.r_join_col)?;
        let s_join = ss.require(&spec.s_join_col)?;

        // T layout: R columns, then S columns minus the join column.
        // Every T column is nullable (outer join NULL-extends).
        let mut b = Schema::builder();
        let mut t_names: Vec<String> = Vec::new();
        for c in rs.columns() {
            b = b.nullable(&c.name, c.ty);
            t_names.push(c.name.clone());
        }
        let mut s_to_t = vec![usize::MAX; ss.arity()];
        s_to_t[s_join] = r_join;
        for (i, c) in ss.columns().iter().enumerate() {
            if i == s_join {
                continue;
            }
            let name = if t_names.iter().any(|n| n == &c.name) {
                format!("{}_s", c.name)
            } else {
                c.name.clone()
            };
            b = b.nullable(&name, c.ty);
            s_to_t[i] = t_names.len();
            t_names.push(name);
        }

        // T's storage key: R-pk ⧺ join (1:N) or R-pk ⧺ S-pk (m:n).
        let mut key_cols: Vec<usize> = rs.pkey().to_vec();
        if spec.many_to_many {
            key_cols.extend(ss.pkey().iter().map(|&p| s_to_t[p]));
        } else if !rs.pkey().contains(&r_join) {
            key_cols.push(r_join);
        }
        // Dedup while preserving order (join col may already be in R-pk).
        let mut seen = BTreeSet::new();
        key_cols.retain(|c| seen.insert(*c));
        let key_names: Vec<&str> = key_cols.iter().map(|&c| t_names[c].as_str()).collect();
        let t_schema = b.primary_key(&key_names).build()?;

        let t = db.catalog().create_table(&spec.target, t_schema)?;
        let rpk_names: Vec<&str> = rs.pkey().iter().map(|&p| t_names[p].as_str()).collect();
        let idx_rpk = t.add_index("__rpk", &rpk_names, false)?;
        let idx_join = t.add_index("__join", &[&t_names[r_join]], false)?;
        let spk_names: Vec<&str> = ss
            .pkey()
            .iter()
            .map(|&p| t_names[s_to_t[p]].as_str())
            .collect();
        let idx_spk = t.add_index("__spk", &spk_names, false)?;

        Ok(FojMapping {
            r,
            s,
            t,
            r_arity: rs.arity(),
            s_arity: ss.arity(),
            r_join,
            s_join,
            r_pk: rs.pkey().to_vec(),
            s_pk: ss.pkey().to_vec(),
            s_to_t,
            idx_rpk,
            idx_join,
            idx_spk,
            many: spec.many_to_many,
        })
    }

    /// Source table R.
    pub fn r_table(&self) -> &Arc<Table> {
        &self.r
    }

    /// Source table S.
    pub fn s_table(&self) -> &Arc<Table> {
        &self.s
    }

    /// The transformed table T.
    pub fn t_table(&self) -> &Arc<Table> {
        &self.t
    }

    // --- row construction ----------------------------------------------

    fn t_arity(&self) -> usize {
        self.t.schema().arity()
    }

    /// T row from an R row alone (joined with `s_null`).
    pub fn t_from_r(&self, r_vals: &[Value]) -> Vec<Value> {
        let mut t = vec![Value::Null; self.t_arity()];
        t[..self.r_arity].clone_from_slice(r_vals);
        t
    }

    /// T row from an S row alone (joined with `r_null`).
    pub fn t_from_s(&self, s_vals: &[Value]) -> Vec<Value> {
        let mut t = vec![Value::Null; self.t_arity()];
        for (i, v) in s_vals.iter().enumerate() {
            t[self.s_to_t[i]] = v.clone();
        }
        t
    }

    /// T row joining an R row and an S row.
    pub fn t_join(&self, r_vals: &[Value], s_vals: &[Value]) -> Vec<Value> {
        let mut t = self.t_from_r(r_vals);
        for (i, v) in s_vals.iter().enumerate() {
            t[self.s_to_t[i]] = v.clone();
        }
        t
    }

    /// Extract the R half of a T row.
    pub fn r_part(&self, t_vals: &[Value]) -> Vec<Value> {
        t_vals[..self.r_arity].to_vec()
    }

    /// Extract the S half of a T row.
    pub fn s_part(&self, t_vals: &[Value]) -> Vec<Value> {
        (0..self.s_arity)
            .map(|i| t_vals[self.s_to_t[i]].clone())
            .collect()
    }

    // --- keys -------------------------------------------------------------

    fn rpk_of_r(&self, r_vals: &[Value]) -> Key {
        Key::project(r_vals, &self.r_pk)
    }

    fn spk_of_s(&self, s_vals: &[Value]) -> Key {
        Key::project(s_vals, &self.s_pk)
    }

    fn spk_of_t(&self, t_vals: &[Value]) -> Key {
        Key::new(self.s_pk.iter().map(|&p| t_vals[self.s_to_t[p]].clone()))
    }

    fn rpk_of_t(&self, t_vals: &[Value]) -> Key {
        Key::project(t_vals, &self.r_pk)
    }

    fn join_key(&self, v: &Value) -> Key {
        Key::new([v.clone()])
    }

    // --- write helpers -----------------------------------------------------

    /// Insert a T row, treating an existing identical key as "already
    /// reflected" (Theorem 1). Writes through the open session on T.
    fn insert_t(
        &self,
        ts: &mut WriteSession<'_>,
        values: Vec<Value>,
        presence: Presence,
        lsn: Lsn,
    ) -> DbResult<()> {
        match ts.insert_row(Row {
            values,
            lsn,
            counter: 1,
            flag: morph_storage::ConsistencyFlag::Consistent,
            presence,
            writer: morph_storage::SYSTEM,
        }) {
            Ok(_) => Ok(()),
            Err(DbError::DuplicateKey(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Update columns of a T row and set its presence; tolerates the
    /// row having vanished (a newer state, per Theorem 1). Returns the
    /// row's (possibly moved) key.
    fn set_row(
        &self,
        ts: &mut WriteSession<'_>,
        key: &Key,
        cols: &[(usize, Value)],
        presence: Presence,
        lsn: Lsn,
    ) -> DbResult<Option<Key>> {
        match ts.update(key, cols, lsn) {
            Ok(out) => {
                ts.with_row_mut(&out.new_key, |r| r.presence = presence);
                Ok(Some(out.new_key))
            }
            Err(DbError::KeyNotFound(_)) | Err(DbError::DuplicateKey(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Column updates that fill the R half of a T row.
    fn r_fill_cols(&self, r_vals: &[Value]) -> Vec<(usize, Value)> {
        r_vals.iter().cloned().enumerate().collect()
    }

    /// Column updates that fill the S half of a T row.
    fn s_fill_cols(&self, s_vals: &[Value]) -> Vec<(usize, Value)> {
        s_vals
            .iter()
            .enumerate()
            .map(|(i, v)| (self.s_to_t[i], v.clone()))
            .collect()
    }

    /// Column updates that clear the S half (back to `s_null`), leaving
    /// the join column alone (the R half still carries it).
    fn s_clear_cols(&self) -> Vec<(usize, Value)> {
        (0..self.s_arity)
            .filter(|&i| i != self.s_join)
            .map(|i| (self.s_to_t[i], Value::Null))
            .collect()
    }

    // --- dispatch ------------------------------------------------------------

    /// Apply one logged source-table operation to T. Operations on
    /// other tables must be filtered out by the caller. Opens a write
    /// session on T for the single record; the batched path
    /// ([`TransformOperator::apply_batch`]) shares one session across a
    /// whole batch.
    pub fn apply(&self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        let t = Arc::clone(&self.t);
        let mut ts = t.write_session();
        self.apply_in(&mut ts, lsn, op)
    }

    /// Rule dispatch against an already-open session on T.
    fn apply_in(&self, ts: &mut WriteSession<'_>, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        if op.table() == self.r.id() {
            match op {
                LogOp::Insert { row, .. } => self.r_insert(ts, row, lsn),
                LogOp::Delete { key, .. } => self.r_delete(ts, key, lsn),
                LogOp::Update { key, old, new, .. } => self.r_update(ts, key, old, new, lsn),
            }
        } else if op.table() == self.s.id() {
            match op {
                LogOp::Insert { row, .. } => self.s_insert(ts, row, lsn),
                LogOp::Delete { key, .. } => self.s_delete(ts, key, lsn),
                LogOp::Update { key, old, new, .. } => self.s_update(ts, key, old, new, lsn),
            }
        } else {
            Ok(())
        }
    }

    /// Tables this rule set reads ops for.
    pub fn source_ids(&self) -> Vec<TableId> {
        vec![self.r.id(), self.s.id()]
    }

    /// T keys affected by a lock on a source record — the
    /// synchronization step transfers source locks through this
    /// (§3.4/§4.3).
    pub fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        let idx = if table == self.r.id() {
            self.idx_rpk
        } else if table == self.s.id() {
            self.idx_spk
        } else {
            return Vec::new();
        };
        self.t
            .index_lookup(idx, key)
            .into_iter()
            .map(|k| (self.t.id(), k))
            .collect()
    }

    /// Initial population at full priority on one scan thread (tests
    /// and reference builds). Returns `(rows_read, rows_written)`.
    pub fn populate(&self, chunk_size: usize) -> DbResult<(usize, usize)> {
        self.populate_with(None, chunk_size, 1, 1.0, None)
    }

    /// Initial population (§3.2/§4.1): both sources are fuzzy-scanned
    /// by `workers` threads over disjoint shard classes, the FOJ image
    /// is joined once, then bucketed by T's shard routing and inserted
    /// by `workers` threads under masked write sessions (each bucket's
    /// rows live entirely in its worker's shard class, so the sessions
    /// never contend). The image goes in chunk-wise, one write session
    /// per chunk, so the latch is held only briefly while concurrent
    /// writers run, and every thread pays [`worker_share`] of the
    /// priority budget per chunk (§3.3: the transformation is "a low
    /// priority background process"). The database handle is threaded
    /// through so scan and insert report per-chunk crash points (crash
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
        let scan = |src: &Arc<Table>| -> DbResult<Vec<Vec<Value>>> {
            let acc: std::sync::Mutex<Vec<Vec<Value>>> = std::sync::Mutex::new(Vec::new());
            let sink = |_w: usize, batch: Vec<(Key, Row)>| {
                let mut rows = batch.into_iter().map(|(_, row)| row.values).collect();
                acc.lock()
                    .expect("scan collector poisoned") // morph-lint: allow(panic, std mutex poison implies a scan worker already panicked; that panic is re-raised at the join)
                    .append(&mut rows);
                Ok(())
            };
            scan_source(db, src, chunk_size, workers, priority, deadline, &sink)?;
            Ok(acc.into_inner().expect("scan collector poisoned")) // morph-lint: allow(panic, into_inner poison implies a scan worker panicked; scan_source already surfaced it)
        };
        let r_rows = scan(&self.r)?;
        let s_rows = scan(&self.s)?;
        let read = r_rows.len() + s_rows.len();
        // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
        let t0 = Instant::now();
        let image = reference_foj(self, &r_rows, &s_rows);
        Throttle::new(priority).pay(t0.elapsed());
        let written = image.len();
        let mut buckets: Vec<Vec<(Vec<Value>, Presence)>> =
            (0..workers).map(|_| Vec::new()).collect();
        if workers == 1 {
            // One worker owns every shard: skip the per-row routing hash.
            buckets[0] = image;
        } else {
            let schema = self.t.schema();
            for (values, presence) in image {
                let key = schema.key_of(&values);
                buckets[self.t.shard_of_key(&key) % workers].push((values, presence));
            }
        }
        fan_out(buckets.into_iter().enumerate(), |(w, bucket)| {
            let mut throttle = Throttle::new(worker_share(priority, workers));
            let mut it = bucket.into_iter().peekable();
            while it.peek().is_some() {
                if let Some(db) = db {
                    db.crash_point("populate.chunk")?;
                }
                check_deadline(deadline)?;
                // morph-lint: allow(nondet, elapsed-time stats for the report; wall time never enters table or WAL state)
                let t0 = Instant::now();
                let mut ts = self.t.write_session_masked(workers, w);
                for (values, presence) in it.by_ref().take(chunk_size.max(1)) {
                    // Duplicate keys can occur if a concurrent writer
                    // slipped a row into the scans twice-joined; the
                    // rules repair it.
                    let _ = self.insert_t(&mut ts, values, presence, Lsn::ZERO);
                }
                drop(ts);
                throttle.pay(t0.elapsed());
            }
            Ok(())
        })?;
        Ok((read, written))
    }

    /// Immutable data needed to mirror source-table locks onto T from
    /// arbitrary threads (the non-blocking-commit interceptor).
    pub fn mirror_map(&self) -> crate::sync::MirrorMap {
        crate::sync::MirrorMap::Foj {
            r_id: self.r.id(),
            s_id: self.s.id(),
            t: Arc::clone(&self.t),
            idx_rpk: self.idx_rpk,
            idx_join: self.idx_join,
            idx_spk: self.idx_spk,
            r_pk: self.r_pk.clone(),
            r_join: self.r_join,
            s_join: self.s_join,
            many: self.many,
        }
    }

    // --- Rule 1: insert r^y_x ------------------------------------------------

    fn r_insert(&self, ts: &mut WriteSession<'_>, r_vals: &[Value], lsn: Lsn) -> DbResult<()> {
        let y = self.rpk_of_r(r_vals);
        if !ts.index_lookup(self.idx_rpk, &y).is_empty() {
            return Ok(()); // t^y exists: already reflected (Theorem 1)
        }
        let x = &r_vals[self.r_join];
        if x.is_null() {
            // A NULL join attribute never matches: standalone row.
            return self.insert_t(ts, self.t_from_r(r_vals), LEFT, lsn);
        }
        let rows_x = ts.index_rows(self.idx_join, &self.join_key(x));

        if !self.many {
            if let Some((k, _)) = rows_x
                .iter()
                .find(|(_, row)| row.presence.right && !row.presence.left)
            {
                // t_null_x found: absorb r into it.
                self.set_row(ts, k, &self.r_fill_cols(r_vals), Presence::BOTH, lsn)?;
            } else if let Some((_, row)) = rows_x.iter().find(|(_, row)| row.presence.right) {
                // t^v_x found: borrow its S half.
                let s_vals = self.s_part(&row.values);
                self.insert_t(ts, self.t_join(r_vals, &s_vals), Presence::BOTH, lsn)?;
            } else {
                self.insert_t(ts, self.t_from_r(r_vals), LEFT, lsn)?;
            }
            return Ok(());
        }

        // Many-to-many: join r with every distinct S-row carrying x,
        // consuming r_null placeholders as they get matched.
        let mut seen = BTreeSet::new();
        let mut matched = false;
        for (k, row) in &rows_x {
            if !row.presence.right {
                continue;
            }
            let spk = self.spk_of_t(&row.values);
            if seen.insert(spk) {
                let s_vals = self.s_part(&row.values);
                self.insert_t(ts, self.t_join(r_vals, &s_vals), Presence::BOTH, lsn)?;
                matched = true;
                if !row.presence.left {
                    // It was a t_null_x placeholder; s now has a match.
                    let _ = ts.delete(k);
                }
            }
        }
        if !matched {
            self.insert_t(ts, self.t_from_r(r_vals), LEFT, lsn)?;
        }
        Ok(())
    }

    // --- Rule 3: delete r^y ----------------------------------------------------

    fn r_delete(&self, ts: &mut WriteSession<'_>, y: &Key, lsn: Lsn) -> DbResult<()> {
        let rows_y = ts.index_rows(self.idx_rpk, y);
        if rows_y.is_empty() {
            return Ok(()); // already reflected
        }
        let doomed: BTreeSet<&Key> = rows_y.iter().map(|(k, _)| k).collect();
        for (k, row) in &rows_y {
            if row.presence.right {
                // Guarantee the S half survives somewhere (FOJ).
                let spk = self.spk_of_t(&row.values);
                let survives = ts
                    .index_rows(self.idx_spk, &spk)
                    .iter()
                    .any(|(k2, r2)| !doomed.contains(k2) && r2.presence.right);
                if !survives {
                    let s_vals = self.s_part(&row.values);
                    self.insert_t(ts, self.t_from_s(&s_vals), RIGHT, lsn)?;
                }
            }
            let _ = ts.delete(k);
        }
        Ok(())
    }

    // --- Rules 5 & 7 (R side): update r ------------------------------------------

    fn r_update(
        &self,
        ts: &mut WriteSession<'_>,
        y: &Key,
        old: &[(usize, Value)],
        new: &[(usize, Value)],
        lsn: Lsn,
    ) -> DbResult<()> {
        let rows_y = ts.index_rows(self.idx_rpk, y);
        if rows_y.is_empty() {
            return Ok(()); // Theorem 1: newer state already reflected
        }
        let join_changed = new.iter().any(|(i, _)| *i == self.r_join);

        if !join_changed {
            // Rule 7 (R side): update the R columns in place.
            for (k, row) in &rows_y {
                self.set_row(ts, k, new, row.presence, lsn)?;
            }
            return Ok(());
        }

        // Rule 5: the join attribute moves from x to z.
        let x_old = old
            .iter()
            .find(|(i, _)| *i == self.r_join)
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null);
        // Paper guard: if the row's current join value is not x, a newer
        // state is already reflected — skip.
        if rows_y[0].1.values[self.r_join] != x_old {
            return Ok(());
        }
        let r_new = {
            let mut r = self.r_part(&rows_y[0].1.values);
            for (i, v) in new {
                if *i < r.len() {
                    r[*i] = v.clone();
                }
            }
            r
        };

        // Delete side: remove r's old contributions, preserving S halves.
        let doomed: BTreeSet<&Key> = rows_y.iter().map(|(k, _)| k).collect();
        for (k, row) in &rows_y {
            if row.presence.right {
                let spk = self.spk_of_t(&row.values);
                let survives = ts
                    .index_rows(self.idx_spk, &spk)
                    .iter()
                    .any(|(k2, r2)| !doomed.contains(k2) && r2.presence.right);
                if !survives {
                    let s_vals = self.s_part(&row.values);
                    self.insert_t(ts, self.t_from_s(&s_vals), RIGHT, lsn)?;
                }
            }
            let _ = ts.delete(k);
        }

        // Insert side: r_new joins whatever carries z.
        let z = r_new[self.r_join].clone();
        if z.is_null() {
            return self.insert_t(ts, self.t_from_r(&r_new), LEFT, lsn);
        }
        let rows_z = ts.index_rows(self.idx_join, &self.join_key(&z));
        if !self.many {
            if let Some((k2, _)) = rows_z
                .iter()
                .find(|(_, r2)| r2.presence.right && !r2.presence.left)
            {
                self.set_row(ts, k2, &self.r_fill_cols(&r_new), Presence::BOTH, lsn)?;
            } else if let Some((_, r2)) = rows_z.iter().find(|(_, r2)| r2.presence.right) {
                let s_vals = self.s_part(&r2.values);
                self.insert_t(ts, self.t_join(&r_new, &s_vals), Presence::BOTH, lsn)?;
            } else {
                self.insert_t(ts, self.t_from_r(&r_new), LEFT, lsn)?;
            }
            return Ok(());
        }
        let mut seen = BTreeSet::new();
        let mut matched = false;
        for (k2, r2) in &rows_z {
            if !r2.presence.right {
                continue;
            }
            let spk = self.spk_of_t(&r2.values);
            if seen.insert(spk) {
                let s_vals = self.s_part(&r2.values);
                self.insert_t(ts, self.t_join(&r_new, &s_vals), Presence::BOTH, lsn)?;
                matched = true;
                if !r2.presence.left {
                    let _ = ts.delete(k2);
                }
            }
        }
        if !matched {
            self.insert_t(ts, self.t_from_r(&r_new), LEFT, lsn)?;
        }
        Ok(())
    }

    // --- Rule 2: insert s^x -------------------------------------------------------

    fn s_insert(&self, ts: &mut WriteSession<'_>, s_vals: &[Value], lsn: Lsn) -> DbResult<()> {
        let x = &s_vals[self.s_join];
        if self.many {
            let u = self.spk_of_s(s_vals);
            if !ts.index_lookup(self.idx_spk, &u).is_empty() {
                return Ok(()); // already reflected
            }
            if x.is_null() {
                return self.insert_t(ts, self.t_from_s(s_vals), RIGHT, lsn);
            }
            let rows_x = ts.index_rows(self.idx_join, &self.join_key(x));
            let mut seen = BTreeSet::new();
            let mut matched = false;
            for (k, row) in &rows_x {
                if !row.presence.left {
                    continue;
                }
                let ypk = self.rpk_of_t(&row.values);
                if seen.insert(ypk) {
                    let r_vals = self.r_part(&row.values);
                    self.insert_t(ts, self.t_join(&r_vals, s_vals), Presence::BOTH, lsn)?;
                    matched = true;
                    if !row.presence.right {
                        // r's placeholder is now matched.
                        let _ = ts.delete(k);
                    }
                }
            }
            if !matched {
                self.insert_t(ts, self.t_from_s(s_vals), RIGHT, lsn)?;
            }
            return Ok(());
        }

        if x.is_null() {
            return self.insert_t(ts, self.t_from_s(s_vals), RIGHT, lsn);
        }
        let rows_x = ts.index_rows(self.idx_join, &self.join_key(x));
        if rows_x.is_empty() {
            return self.insert_t(ts, self.t_from_s(s_vals), RIGHT, lsn);
        }
        // Fill every row still joined with s_null; rows already joined
        // with a real S row are up to date (Theorem 1).
        let fill = self.s_fill_cols(s_vals);
        let mut filled = false;
        for (k, row) in &rows_x {
            if !row.presence.right {
                self.set_row(ts, k, &fill, Presence::BOTH, lsn)?;
                filled = true;
            }
        }
        if filled {
            // Defensive: if a t_null_x placeholder coexisted with the
            // rows we just filled, s^x is now represented by real join
            // partners and the placeholder must go.
            for (k, row) in &rows_x {
                if row.presence.right && !row.presence.left {
                    let _ = ts.delete(k);
                }
            }
        }
        Ok(())
    }

    // --- Rule 4: delete s^x ----------------------------------------------------------

    fn s_delete(&self, ts: &mut WriteSession<'_>, spk: &Key, lsn: Lsn) -> DbResult<()> {
        let rows_u = ts.index_rows(self.idx_spk, spk);
        if rows_u.is_empty() {
            return Ok(());
        }
        let _ = lsn;
        for (k, row) in &rows_u {
            if !row.presence.right {
                continue; // spurious (left rows can't carry this spk)
            }
            if row.presence.left {
                if self.many {
                    // Keep r alive if this was its last pairing.
                    let ypk = self.rpk_of_t(&row.values);
                    let survives = ts
                        .index_rows(self.idx_rpk, &ypk)
                        .iter()
                        .any(|(k2, r2)| k2 != k && r2.presence.left);
                    if !survives {
                        let r_vals = self.r_part(&row.values);
                        self.insert_t(ts, self.t_from_r(&r_vals), LEFT, lsn)?;
                    }
                    let _ = ts.delete(k);
                } else {
                    // One-to-many: clear the S half in place.
                    self.set_row(ts, k, &self.s_clear_cols(), LEFT, lsn)?;
                }
            } else {
                // t_null_x placeholder: remove it.
                let _ = ts.delete(k);
            }
        }
        Ok(())
    }

    // --- Rules 6 & 7 (S side): update s --------------------------------------------------

    fn s_update(
        &self,
        ts: &mut WriteSession<'_>,
        spk: &Key,
        old: &[(usize, Value)],
        new: &[(usize, Value)],
        lsn: Lsn,
    ) -> DbResult<()> {
        let join_changed = new.iter().any(|(i, _)| *i == self.s_join);
        let rows_u = ts.index_rows(self.idx_spk, spk);
        if rows_u.is_empty() {
            return Ok(()); // not reflected / newer state
        }

        if !join_changed {
            // Rule 7 (S side): update S columns in every carrying row.
            let cols: Vec<(usize, Value)> = new
                .iter()
                .map(|(i, v)| (self.s_to_t[*i], v.clone()))
                .collect();
            for (k, row) in &rows_u {
                if row.presence.right {
                    self.set_row(ts, k, &cols, row.presence, lsn)?;
                }
            }
            return Ok(());
        }

        // Rule 6: the S join attribute moves from x to z. Extract the
        // current S image first ("sx is used to extract the attribute
        // values of sz since the log does not include this
        // information").
        let Some((_, src)) = rows_u.iter().find(|(_, r)| r.presence.right) else {
            return Ok(());
        };
        // Paper-style guard: if the row's join value no longer matches
        // the logged pre-image, a newer state is reflected — skip.
        let x_old = old
            .iter()
            .find(|(i, _)| *i == self.s_join)
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null);
        if src.values[self.s_to_t[self.s_join]] != x_old {
            return Ok(());
        }
        let mut s_new = self.s_part(&src.values);
        for (i, v) in new {
            if *i < s_new.len() {
                s_new[*i] = v.clone();
            }
        }

        // Delete side (like delete of s^x)…
        self.s_delete(ts, spk, lsn)?;
        // …followed by insert of s^z.
        self.s_insert(ts, &s_new, lsn)
    }
}

impl TransformOperator for FojMapping {
    fn source_ids(&self) -> Vec<TableId> {
        FojMapping::source_ids(self)
    }

    /// FOJ propagation rules 1–7 (§4.2). Content-based idempotence: no
    /// LSN gating, decisions come from presence/index lookups on T.
    fn apply(&mut self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        FojMapping::apply(self, lsn, op)
    }

    /// One write session on T for the whole batch — a single latch
    /// round trip instead of one per record.
    fn apply_batch(&mut self, batch: &[(Lsn, &LogOp)]) -> DbResult<()> {
        let t = Arc::clone(&self.t);
        let mut ts = t.write_session();
        for &(lsn, op) in batch {
            self.apply_in(&mut ts, lsn, op)?;
        }
        Ok(())
    }

    /// Rules 5 and 6 guard on the *logged pre-image* of the join
    /// attribute against T's current content; an intermediate update
    /// can therefore be load-bearing and only deletes may coalesce
    /// earlier records away.
    fn coalesce_policy(&self) -> crate::operator::CoalescePolicy {
        crate::operator::CoalescePolicy::DeleteOnly
    }

    /// The join attribute is the column those guards read.
    fn coalesce_barrier_cols(&self, table: TableId) -> Vec<usize> {
        if table == self.r.id() {
            vec![self.r_join]
        } else if table == self.s.id() {
            vec![self.s_join]
        } else {
            Vec::new()
        }
    }

    fn populate(
        &mut self,
        db: &Database,
        chunk: usize,
        workers: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)> {
        FojMapping::populate_with(self, Some(db), chunk, workers, priority, deadline)
    }

    fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        FojMapping::target_keys_for(self, table, key)
    }

    fn mirror_map(&self) -> crate::sync::MirrorMap {
        FojMapping::mirror_map(self)
    }
}

/// Reference full outer join — the oracle the property tests (and the
/// initial population) use. NULL join attributes never match.
pub fn reference_foj(
    m: &FojMapping,
    r_rows: &[Vec<Value>],
    s_rows: &[Vec<Value>],
) -> Vec<(Vec<Value>, Presence)> {
    // Hash join on the join attribute (NULLs never participate).
    let mut by_join: std::collections::HashMap<&Value, Vec<usize>> =
        std::collections::HashMap::new();
    for (si, s) in s_rows.iter().enumerate() {
        if !s[m.s_join].is_null() {
            by_join.entry(&s[m.s_join]).or_default().push(si);
        }
    }
    let mut out = Vec::with_capacity(r_rows.len() + s_rows.len());
    let mut s_matched = vec![false; s_rows.len()];
    for r in r_rows {
        let x = &r[m.r_join];
        let mut matched = false;
        if !x.is_null() {
            if let Some(matches) = by_join.get(x) {
                for &si in matches {
                    out.push((m.t_join(r, &s_rows[si]), Presence::BOTH));
                    s_matched[si] = true;
                    matched = true;
                }
            }
        }
        if !matched {
            out.push((m.t_from_r(r), LEFT));
        }
    }
    for (si, s) in s_rows.iter().enumerate() {
        if !s_matched[si] {
            out.push((m.t_from_s(s), RIGHT));
        }
    }
    let schema = m.t.schema();
    out.sort_by_key(|a| schema.key_of(&a.0));
    out
}

/// Compare T against the reference FOJ of the *current* R and S
/// contents. Returns a human-readable mismatch description, if any.
pub fn verify_against_reference(m: &FojMapping) -> Result<(), String> {
    let r_rows: Vec<Vec<Value>> = m.r.snapshot().into_iter().map(|(_, r)| r.values).collect();
    let s_rows: Vec<Vec<Value>> = m.s.snapshot().into_iter().map(|(_, r)| r.values).collect();
    let expect = reference_foj(m, &r_rows, &s_rows);
    let got: Vec<(Vec<Value>, Presence)> =
        m.t.snapshot()
            .into_iter()
            .map(|(_, r)| (r.values, r.presence))
            .collect();
    if expect.len() != got.len() {
        return Err(format!(
            "row count mismatch: expected {}, got {}\nexpected: {:?}\ngot: {:?}",
            expect.len(),
            got.len(),
            expect,
            got
        ));
    }
    for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
        if e != g {
            return Err(format!("row {i} mismatch:\nexpected {e:?}\ngot      {g:?}"));
        }
    }
    Ok(())
}

/// Create standard source schemas used by tests and examples: R(a, b,
/// c) keyed by `a` joining on `c`, and S(c, d) keyed by `c` — the
/// paper's Figure 1 shape.
pub fn figure1_schemas() -> (Schema, Schema) {
    let r = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .expect("static schema"); // morph-lint: allow(panic, static schema literal; the builder cannot fail on compile-time constants)
    let s = Schema::builder()
        .column("c", ColumnType::Str)
        .nullable("d", ColumnType::Str)
        .primary_key(&["c"])
        .build()
        .expect("static schema"); // morph-lint: allow(panic, static schema literal; the builder cannot fail on compile-time constants)
    (r, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_wal::LogOp;

    fn setup() -> (Database, FojMapping) {
        let db = Database::new();
        let (rs, ss) = figure1_schemas();
        db.create_table("R", rs).unwrap();
        db.create_table("S", ss).unwrap();
        let spec = FojSpec::new("R", "S", "T", "c", "c");
        let m = FojMapping::prepare(&db, &spec).unwrap();
        (db, m)
    }

    fn setup_m2m() -> (Database, FojMapping) {
        let db = Database::new();
        let r = Schema::builder()
            .column("a", ColumnType::Int)
            .nullable("c", ColumnType::Str)
            .primary_key(&["a"])
            .build()
            .unwrap();
        let s = Schema::builder()
            .column("sid", ColumnType::Int)
            .nullable("c", ColumnType::Str)
            .nullable("d", ColumnType::Str)
            .primary_key(&["sid"])
            .build()
            .unwrap();
        db.create_table("R", r).unwrap();
        db.create_table("S", s).unwrap();
        let spec = FojSpec::new("R", "S", "T", "c", "c").many_to_many();
        let m = FojMapping::prepare(&db, &spec).unwrap();
        (db, m)
    }

    fn r_row(a: i64, b: &str, c: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str(b), Value::str(c)]
    }

    fn s_row(c: &str, d: &str) -> Vec<Value> {
        vec![Value::str(c), Value::str(d)]
    }

    fn ins(m: &FojMapping, t: &Arc<Table>, row: Vec<Value>, lsn: u64) {
        m.apply(Lsn(lsn), &LogOp::Insert { table: t.id(), row })
            .unwrap();
    }

    fn verify(m: &FojMapping) {
        if let Err(e) = verify_against_reference(m) {
            panic!("T diverged from reference FOJ: {e}");
        }
    }

    /// Drive source tables directly (simulating already-applied ops)
    /// and mirror each op through the rules, then verify.
    struct Driver<'a> {
        m: &'a FojMapping,
        lsn: u64,
    }

    impl<'a> Driver<'a> {
        fn new(m: &'a FojMapping) -> Self {
            Driver { m, lsn: 0 }
        }
        fn next(&mut self) -> Lsn {
            self.lsn += 1;
            Lsn(self.lsn)
        }
        fn insert_r(&mut self, row: Vec<Value>) {
            let lsn = self.next();
            self.m.r.insert(row.clone(), lsn).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Insert {
                        table: self.m.r.id(),
                        row,
                    },
                )
                .unwrap();
        }
        fn insert_s(&mut self, row: Vec<Value>) {
            let lsn = self.next();
            self.m.s.insert(row.clone(), lsn).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Insert {
                        table: self.m.s.id(),
                        row,
                    },
                )
                .unwrap();
        }
        fn delete_r(&mut self, key: Key) {
            let lsn = self.next();
            let old = self.m.r.delete(&key).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Delete {
                        table: self.m.r.id(),
                        key,
                        old: old.values,
                    },
                )
                .unwrap();
        }
        fn delete_s(&mut self, key: Key) {
            let lsn = self.next();
            let old = self.m.s.delete(&key).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Delete {
                        table: self.m.s.id(),
                        key,
                        old: old.values,
                    },
                )
                .unwrap();
        }
        fn update_r(&mut self, key: Key, cols: Vec<(usize, Value)>) {
            let lsn = self.next();
            let out = self.m.r.update(&key, &cols, lsn).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Update {
                        table: self.m.r.id(),
                        key,
                        old: out.old_cols.clone(),
                        new: cols,
                    },
                )
                .unwrap();
        }
        fn update_s(&mut self, key: Key, cols: Vec<(usize, Value)>) {
            let lsn = self.next();
            let out = self.m.s.update(&key, &cols, lsn).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Update {
                        table: self.m.s.id(),
                        key,
                        old: out.old_cols.clone(),
                        new: cols,
                    },
                )
                .unwrap();
        }
    }

    #[test]
    fn figure1_example() {
        // The paper's Figure 1: R = {(1,a,c1),(2,b,c1),(5,e,f)},
        // S = {(c1,d1),(c2,d2)} — result has a NULL-extended row on each
        // side.
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_r(r_row(1, "a", "c1"));
        d.insert_r(r_row(2, "b", "c1"));
        d.insert_r(r_row(5, "e", "f"));
        d.insert_s(s_row("c1", "d1"));
        d.insert_s(s_row("c2", "d2"));
        verify(&m);
        assert_eq!(m.t_table().len(), 4); // (1,c1,d1),(2,c1,d1),(5,f,-),( -,c2,d2)
    }

    #[test]
    fn rule1_insert_r_all_three_cases() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        // Case: no join match → t^y_null.
        d.insert_r(r_row(1, "a", "x"));
        verify(&m);
        // Case: t_null_x exists → absorbed.
        d.insert_s(s_row("q", "dq"));
        d.insert_r(r_row(2, "b", "q"));
        verify(&m);
        // Case: t^v_x exists → borrow S half.
        d.insert_r(r_row(3, "c", "q"));
        verify(&m);
        assert_eq!(m.t_table().len(), 3);
    }

    #[test]
    fn rule1_is_idempotent() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_s(s_row("q", "dq"));
        d.insert_r(r_row(1, "a", "q"));
        // Re-apply the same insert log record (fuzzy overlap).
        ins(&m, &m.r.clone(), r_row(1, "a", "q"), 99);
        verify(&m);
    }

    #[test]
    fn rule2_insert_s_fills_null_rows() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_r(r_row(1, "a", "q"));
        d.insert_r(r_row(2, "b", "q"));
        d.insert_s(s_row("q", "dq"));
        verify(&m);
        // Unmatched s creates t_null_x.
        d.insert_s(s_row("z", "dz"));
        verify(&m);
        assert_eq!(m.t_table().len(), 3);
        // Idempotent re-application.
        ins(&m, &m.s.clone(), s_row("z", "dz"), 99);
        verify(&m);
    }

    #[test]
    fn rule3_delete_r_preserves_last_s() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_s(s_row("q", "dq"));
        d.insert_r(r_row(1, "a", "q"));
        d.insert_r(r_row(2, "b", "q"));
        // Deleting one of two joined r's: s survives in the other row.
        d.delete_r(Key::single(1));
        verify(&m);
        // Deleting the last one: s falls back to t_null_q.
        d.delete_r(Key::single(2));
        verify(&m);
        assert_eq!(m.t_table().len(), 1);
        // Deleting a vanished r is ignored.
        m.apply(
            Lsn(99),
            &LogOp::Delete {
                table: m.r.id(),
                key: Key::single(1),
                old: vec![],
            },
        )
        .unwrap();
        verify(&m);
    }

    #[test]
    fn rule4_delete_s_nulls_join_partners() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_s(s_row("q", "dq"));
        d.insert_s(s_row("z", "dz"));
        d.insert_r(r_row(1, "a", "q"));
        d.delete_s(Key::single("q")); // partner row loses its S half
        verify(&m);
        d.delete_s(Key::single("z")); // t_null_z disappears
        verify(&m);
        assert_eq!(m.t_table().len(), 1);
    }

    #[test]
    fn rule5_update_r_join_attribute() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_s(s_row("q", "dq"));
        d.insert_s(s_row("z", "dz"));
        d.insert_r(r_row(1, "a", "q"));
        // Move r from q to z: s^q must fall back to t_null_q, r joins z.
        d.update_r(Key::single(1), vec![(2, Value::str("z"))]);
        verify(&m);
        // Move to an unmatched value.
        d.update_r(Key::single(1), vec![(2, Value::str("w"))]);
        verify(&m);
        // Move to a value with an existing joined partner.
        d.insert_r(r_row(2, "b", "q"));
        d.update_r(Key::single(1), vec![(2, Value::str("q"))]);
        verify(&m);
    }

    #[test]
    fn rule6_update_s_join_attribute() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_r(r_row(1, "a", "q"));
        d.insert_r(r_row(2, "b", "z"));
        d.insert_s(s_row("q", "dq"));
        // Move s from q to z: r1 loses its S half, r2 gains it.
        d.update_s(Key::single("q"), vec![(0, Value::str("z"))]);
        verify(&m);
        // Move s to a fresh value: t_null appears.
        d.update_s(Key::single("z"), vec![(0, Value::str("v"))]);
        verify(&m);
    }

    #[test]
    fn rule7_non_join_updates() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_s(s_row("q", "dq"));
        d.insert_r(r_row(1, "a", "q"));
        d.insert_r(r_row(2, "b", "q"));
        d.update_r(Key::single(1), vec![(1, Value::str("a2"))]);
        verify(&m);
        // S-side non-join update fans out to both joined rows.
        d.update_s(Key::single("q"), vec![(1, Value::str("dq2"))]);
        verify(&m);
        // Update of a missing record is ignored.
        m.apply(
            Lsn(99),
            &LogOp::Update {
                table: m.r.id(),
                key: Key::single(77),
                old: vec![(1, Value::str("x"))],
                new: vec![(1, Value::str("y"))],
            },
        )
        .unwrap();
        verify(&m);
    }

    #[test]
    fn r_pkey_update_moves_row() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_s(s_row("q", "dq"));
        d.insert_r(r_row(1, "a", "q"));
        d.update_r(Key::single(1), vec![(0, Value::Int(9))]);
        verify(&m);
    }

    #[test]
    fn null_join_attributes_never_match() {
        let (_db, m) = setup();
        let mut d = Driver::new(&m);
        d.insert_r(vec![Value::Int(1), Value::str("a"), Value::Null]);
        d.insert_s(s_row("q", "dq"));
        d.insert_r(r_row(2, "b", "q"));
        verify(&m);
        // r1 stands alone (NULL never matches); r2 absorbed s(q).
        assert_eq!(m.t_table().len(), 2);
        // Moving r2's join attribute to NULL detaches it from s.
        d.update_r(Key::single(2), vec![(2, Value::Null)]);
        verify(&m);
        assert_eq!(m.t_table().len(), 3);
    }

    #[test]
    fn m2m_basic_matrix() {
        let (_db, m) = setup_m2m();
        let mut d = Driver::new(&m);
        // 2 r's and 2 s's all on join value "g" → 4 joined rows.
        d.insert_r(vec![Value::Int(1), Value::str("g")]);
        d.insert_r(vec![Value::Int(2), Value::str("g")]);
        d.insert_s(vec![Value::Int(10), Value::str("g"), Value::str("d10")]);
        d.insert_s(vec![Value::Int(11), Value::str("g"), Value::str("d11")]);
        verify(&m);
        assert_eq!(m.t_table().len(), 4);
    }

    #[test]
    fn m2m_delete_r_keeps_s_alive() {
        let (_db, m) = setup_m2m();
        let mut d = Driver::new(&m);
        d.insert_r(vec![Value::Int(1), Value::str("g")]);
        d.insert_s(vec![Value::Int(10), Value::str("g"), Value::str("d")]);
        d.insert_s(vec![Value::Int(11), Value::str("g"), Value::str("e")]);
        d.delete_r(Key::single(1));
        verify(&m);
        assert_eq!(m.t_table().len(), 2); // two s placeholders
    }

    #[test]
    fn m2m_delete_s_keeps_r_alive() {
        let (_db, m) = setup_m2m();
        let mut d = Driver::new(&m);
        d.insert_r(vec![Value::Int(1), Value::str("g")]);
        d.insert_r(vec![Value::Int(2), Value::str("g")]);
        d.insert_s(vec![Value::Int(10), Value::str("g"), Value::str("d")]);
        d.delete_s(Key::single(10));
        verify(&m);
        assert_eq!(m.t_table().len(), 2); // two r placeholders
    }

    #[test]
    fn m2m_join_moves() {
        let (_db, m) = setup_m2m();
        let mut d = Driver::new(&m);
        d.insert_r(vec![Value::Int(1), Value::str("g")]);
        d.insert_r(vec![Value::Int(2), Value::str("h")]);
        d.insert_s(vec![Value::Int(10), Value::str("g"), Value::str("d")]);
        d.insert_s(vec![Value::Int(11), Value::str("h"), Value::str("e")]);
        // r1 moves from g to h: s10 orphaned, r1+s11 joined.
        d.update_r(Key::single(1), vec![(1, Value::str("h"))]);
        verify(&m);
        // s10 moves from g to h: joins both r's.
        d.update_s(Key::single(10), vec![(1, Value::str("h"))]);
        verify(&m);
        // s-side non-join update fans out.
        d.update_s(Key::single(10), vec![(2, Value::str("d2"))]);
        verify(&m);
        // s pk update (non-join): rows move.
        d.update_s(Key::single(10), vec![(0, Value::Int(99))]);
        verify(&m);
    }

    #[test]
    fn randomized_ops_match_reference_1n() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let (_db, m) = setup();
            let mut d = Driver::new(&m);
            let mut rng = StdRng::seed_from_u64(seed);
            let joins = ["j0", "j1", "j2", "j3"];
            for step in 0..300 {
                match rng.gen_range(0..6) {
                    0 => {
                        let a = rng.gen_range(0..20);
                        if m.r.get(&Key::single(a)).is_none() {
                            let c = joins[rng.gen_range(0..joins.len())];
                            d.insert_r(r_row(a, "b", c));
                        }
                    }
                    1 => {
                        let c = joins[rng.gen_range(0..joins.len())];
                        if m.s.get(&Key::single(c)).is_none() {
                            d.insert_s(s_row(c, "d"));
                        }
                    }
                    2 => {
                        let a = rng.gen_range(0..20);
                        if m.r.get(&Key::single(a)).is_some() {
                            d.delete_r(Key::single(a));
                        }
                    }
                    3 => {
                        let c = joins[rng.gen_range(0..joins.len())];
                        if m.s.get(&Key::single(c)).is_some() {
                            d.delete_s(Key::single(c));
                        }
                    }
                    4 => {
                        let a = rng.gen_range(0..20);
                        if m.r.get(&Key::single(a)).is_some() {
                            let c = joins[rng.gen_range(0..joins.len())];
                            if rng.gen_bool(0.5) {
                                d.update_r(Key::single(a), vec![(2, Value::str(c))]);
                            } else {
                                d.update_r(
                                    Key::single(a),
                                    vec![(1, Value::str(format!("b{step}")))],
                                );
                            }
                        }
                    }
                    _ => {
                        let c = joins[rng.gen_range(0..joins.len())];
                        if m.s.get(&Key::single(c)).is_some() {
                            let z = joins[rng.gen_range(0..joins.len())];
                            if rng.gen_bool(0.5) && m.s.get(&Key::single(z)).is_none() {
                                d.update_s(Key::single(c), vec![(0, Value::str(z))]);
                            } else {
                                d.update_s(
                                    Key::single(c),
                                    vec![(1, Value::str(format!("d{step}")))],
                                );
                            }
                        }
                    }
                }
            }
            verify(&m);
        }
    }

    #[test]
    fn randomized_ops_match_reference_m2m() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let (_db, m) = setup_m2m();
            let mut d = Driver::new(&m);
            let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
            let joins = ["g", "h", "k"];
            for step in 0..250 {
                match rng.gen_range(0..6) {
                    0 => {
                        let a = rng.gen_range(0..12);
                        if m.r.get(&Key::single(a)).is_none() {
                            let c = joins[rng.gen_range(0..joins.len())];
                            d.insert_r(vec![Value::Int(a), Value::str(c)]);
                        }
                    }
                    1 => {
                        let sid = rng.gen_range(100..112);
                        if m.s.get(&Key::single(sid)).is_none() {
                            let c = joins[rng.gen_range(0..joins.len())];
                            d.insert_s(vec![
                                Value::Int(sid),
                                Value::str(c),
                                Value::str(format!("d{step}")),
                            ]);
                        }
                    }
                    2 => {
                        let a = rng.gen_range(0..12);
                        if m.r.get(&Key::single(a)).is_some() {
                            d.delete_r(Key::single(a));
                        }
                    }
                    3 => {
                        let sid = rng.gen_range(100..112);
                        if m.s.get(&Key::single(sid)).is_some() {
                            d.delete_s(Key::single(sid));
                        }
                    }
                    4 => {
                        let a = rng.gen_range(0..12);
                        if m.r.get(&Key::single(a)).is_some() {
                            let c = joins[rng.gen_range(0..joins.len())];
                            d.update_r(Key::single(a), vec![(1, Value::str(c))]);
                        }
                    }
                    _ => {
                        let sid = rng.gen_range(100..112);
                        if m.s.get(&Key::single(sid)).is_some() {
                            match rng.gen_range(0..3) {
                                0 => {
                                    let c = joins[rng.gen_range(0..joins.len())];
                                    d.update_s(Key::single(sid), vec![(1, Value::str(c))]);
                                }
                                1 => d.update_s(
                                    Key::single(sid),
                                    vec![(2, Value::str(format!("d{step}")))],
                                ),
                                _ => {
                                    let nk = rng.gen_range(100..112);
                                    if m.s.get(&Key::single(nk)).is_none() {
                                        d.update_s(Key::single(sid), vec![(0, Value::Int(nk))]);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            verify(&m);
        }
    }

    #[test]
    fn prepare_rejects_bad_columns() {
        let db = Database::new();
        let (rs, ss) = figure1_schemas();
        db.create_table("R", rs).unwrap();
        db.create_table("S", ss).unwrap();
        let spec = FojSpec::new("R", "S", "T", "nope", "c");
        assert!(matches!(
            FojMapping::prepare(&db, &spec),
            Err(DbError::NoSuchColumn(_))
        ));
        let spec = FojSpec::new("R", "ghost", "T", "c", "c");
        assert!(matches!(
            FojMapping::prepare(&db, &spec),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn prepare_handles_name_clash() {
        let db = Database::new();
        let r = Schema::builder()
            .column("id", ColumnType::Int)
            .nullable("info", ColumnType::Str)
            .nullable("j", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let s = Schema::builder()
            .column("j", ColumnType::Int)
            .nullable("info", ColumnType::Str) // clashes with R.info
            .primary_key(&["j"])
            .build()
            .unwrap();
        db.create_table("R", r).unwrap();
        db.create_table("S", s).unwrap();
        let m = FojMapping::prepare(&db, &FojSpec::new("R", "S", "T", "j", "j")).unwrap();
        let t_schema = m.t_table().schema();
        assert!(t_schema.position_of("info").is_some());
        assert!(t_schema.position_of("info_s").is_some());
    }
}
