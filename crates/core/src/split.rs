//! Vertical split transformation: mapping, propagation rules 8–11,
//! counters and C/U flags (§5).
//!
//! A split takes one source table T and produces R (T's primary key
//! plus whatever other columns the DBA keeps) and S (the split
//! attribute — a candidate key of S — plus the columns functionally
//! dependent on it). Multiple T-rows may share an S-part, so each
//! S-record carries a **reference counter** (à la Gupta et al. counting
//! view maintenance): inserted at 1, incremented/decremented as
//! contributing T-rows come and go, removed at zero.
//!
//! Unlike FOJ, split targets *do* have valid state identifiers: every
//! R-row carries the LSN of the last operation reflected in it, and the
//! rules use it for idempotence exactly as §5.2 prescribes — including
//! the subtle choices the paper spells out (the delete rule stamps the
//! delete's LSN onto the S-record; S-side value updates are gated on
//! the S-record's own LSN, while counter bookkeeping is gated on the
//! R-side LSN).
//!
//! With `check_consistency` (§5.3), S-records carry C/U flags and the
//! [consistency checker](crate::cc) certifies U-records through the
//! log.

use crate::cc::{CcState, PendingCc, Readiness};
use crate::operator::{scan_partition, scan_source, CoalescePolicy, TransformOperator};
use crate::spec::{SplitMode, SplitSpec};
use morph_common::{DbError, DbResult, Key, Lsn, Schema, TableId, Value};
use morph_engine::Database;
use morph_storage::{shard_stride, ConsistencyFlag, Row, Table, WriteSession};
use morph_wal::{LogManager, LogOp, LogRecord};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Column mapping and rule engine for one split transformation.
pub struct SplitMapping {
    t: Arc<Table>,
    /// R target (separate mode). `None` in rename-in-place mode, where
    /// T itself becomes R at synchronization.
    r: Option<Arc<Table>>,
    /// Bookkeeping table P (rename-in-place mode): per-record LSN and
    /// split value, keyed like T.
    p: Option<Arc<Table>>,
    s: Arc<Table>,
    /// T positions of T's primary key.
    t_pk: Vec<usize>,
    /// T position of the split attribute.
    split_t: usize,
    /// T positions of the columns going to R, in R column order.
    r_cols: Vec<usize>,
    /// T positions of the columns going to S, in S column order (split
    /// attribute first).
    s_cols: Vec<usize>,
    /// Index on T's split column (consistency checker reads through
    /// it).
    idx_split: Option<usize>,
    check: bool,
    mode: SplitMode,
    /// Name the source is renamed to at synchronization
    /// (rename-in-place mode).
    r_target_name: String,
    /// Consistency-checker state.
    pub cc: CcState,
}

impl SplitMapping {
    /// Preparation step: create the target tables (and, in §5.3 mode,
    /// the split-column index on the source that the checker reads
    /// through).
    pub fn prepare(db: &Database, spec: &SplitSpec) -> DbResult<SplitMapping> {
        let t = db.catalog().get(&spec.source)?;
        let ts = t.schema();
        let split_t = ts.require(&spec.split_col)?;

        // Column sets.
        let mut r_cols = Vec::new();
        for name in &spec.r_cols {
            r_cols.push(ts.require(name)?);
        }
        if !ts.covers_pkey(&r_cols) {
            return Err(DbError::MissingCandidateKey(format!(
                "r_cols of split {:?} must include the source primary key",
                spec.source
            )));
        }
        if !r_cols.contains(&split_t) {
            return Err(DbError::InvalidSchema(
                "r_cols must include the split column (it is R's foreign key into S)".into(),
            ));
        }
        let mut s_cols = vec![split_t];
        for name in &spec.s_dep_cols {
            let pos = ts.require(name)?;
            if pos == split_t {
                return Err(DbError::InvalidSchema(
                    "the split column is implicitly part of S; do not list it in s_dep_cols".into(),
                ));
            }
            s_cols.push(pos);
        }

        // S target: split attribute (key) + dependents, all nullable
        // except as inherited.
        let mut sb = Schema::builder();
        for &pos in &s_cols {
            let c = &ts.columns()[pos];
            sb = sb.nullable(&c.name, c.ty);
        }
        let s_schema = sb.primary_key(&[&ts.columns()[split_t].name]).build()?;
        let s = db.catalog().create_table(&spec.s_target, s_schema)?;

        let (r, p) = match spec.mode {
            SplitMode::SeparateR => {
                let mut rb = Schema::builder();
                for &pos in &r_cols {
                    let c = &ts.columns()[pos];
                    rb = if c.nullable {
                        rb.nullable(&c.name, c.ty)
                    } else {
                        rb.column(&c.name, c.ty)
                    };
                }
                let pk_names: Vec<String> = ts
                    .pkey()
                    .iter()
                    .map(|&p| ts.columns()[p].name.clone())
                    .collect();
                let pk_refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
                let r_schema = rb.primary_key(&pk_refs).build()?;
                (
                    Some(db.catalog().create_table(&spec.r_target, r_schema)?),
                    None,
                )
            }
            SplitMode::RenameInPlace => {
                // P: T's key columns + the split value, keyed like T.
                let mut pb = Schema::builder();
                let mut p_cols: Vec<usize> = ts.pkey().to_vec();
                if !p_cols.contains(&split_t) {
                    p_cols.push(split_t);
                }
                for &pos in &p_cols {
                    let c = &ts.columns()[pos];
                    pb = pb.nullable(&c.name, c.ty);
                }
                let pk_names: Vec<String> = ts
                    .pkey()
                    .iter()
                    .map(|&p| ts.columns()[p].name.clone())
                    .collect();
                let pk_refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
                let p_schema = pb.primary_key(&pk_refs).build()?;
                let p_name = format!("__morph_p_{}", spec.source);
                (None, Some(db.catalog().create_table(&p_name, p_schema)?))
            }
        };

        let idx_split = if spec.check_consistency {
            let name = &ts.columns()[split_t].name;
            Some(match t.index_pos("__morph_split") {
                Some(i) => i,
                None => t.add_index("__morph_split", &[name], false)?,
            })
        } else {
            None
        };

        Ok(SplitMapping {
            t,
            r,
            p,
            s,
            t_pk: ts.pkey().to_vec(),
            split_t,
            r_cols,
            s_cols,
            idx_split,
            check: spec.check_consistency,
            mode: spec.mode,
            r_target_name: spec.r_target.clone(),
            cc: CcState::default(),
        })
    }

    /// The source table T.
    pub fn t_table(&self) -> &Arc<Table> {
        &self.t
    }

    /// The R target (separate mode only).
    pub fn r_table(&self) -> Option<&Arc<Table>> {
        self.r.as_ref()
    }

    /// The S target.
    pub fn s_table(&self) -> &Arc<Table> {
        &self.s
    }

    /// The bookkeeping table P (rename-in-place mode only).
    pub fn p_table(&self) -> Option<&Arc<Table>> {
        self.p.as_ref()
    }

    /// Materialization mode.
    pub fn mode(&self) -> SplitMode {
        self.mode
    }

    /// The name T takes at synchronization (rename-in-place mode).
    pub fn rename_target(&self) -> Option<String> {
        match self.mode {
            SplitMode::RenameInPlace => Some(self.r_target_name.clone()),
            SplitMode::SeparateR => None,
        }
    }

    /// Whether §5.3 consistency checking is active.
    pub fn checking(&self) -> bool {
        self.check
    }

    /// T positions of the columns kept by R (sync uses this to project
    /// the source in rename-in-place mode).
    pub fn r_col_positions(&self) -> &[usize] {
        &self.r_cols
    }

    // --- projections ------------------------------------------------------

    /// R-part of a T row (R column order).
    pub fn r_part(&self, t_vals: &[Value]) -> Vec<Value> {
        self.r_cols.iter().map(|&i| t_vals[i].clone()).collect()
    }

    /// S-part of a T row (S column order; split attribute first).
    pub fn s_part(&self, t_vals: &[Value]) -> Vec<Value> {
        self.s_cols.iter().map(|&i| t_vals[i].clone()).collect()
    }

    fn split_val(&self, t_vals: &[Value]) -> Value {
        t_vals[self.split_t].clone()
    }

    fn s_key(&self, v: &Value) -> Key {
        Key::new([v.clone()])
    }

    // --- the R side, abstracted over the two modes -------------------------

    /// The table playing the R role: R itself in separate mode, the P
    /// bookkeeping table in rename-in-place mode.
    fn r_side(&self) -> &Arc<Table> {
        match self.mode {
            SplitMode::SeparateR => self.r.as_ref().expect("separate mode"), // morph-lint: allow(panic, the constructor populates exactly the side matching the mode)
            SplitMode::RenameInPlace => self.p.as_ref().expect("in-place mode"), // morph-lint: allow(panic, the constructor populates exactly the side matching the mode)
        }
    }

    /// Decode (LSN, split value) from an R-side row.
    fn decode_r(&self, row: &Row) -> (Lsn, Value) {
        match self.mode {
            SplitMode::SeparateR => {
                let split_in_r = self
                    .r_cols
                    .iter()
                    .position(|&c| c == self.split_t)
                    .expect("split col in r_cols"); // morph-lint: allow(panic, spec validation puts the split column in r_cols)
                (row.lsn, row.values[split_in_r].clone())
            }
            SplitMode::RenameInPlace => {
                let v = if self.t_pk.contains(&self.split_t) {
                    // Split col is part of the key; find its position.
                    let pos = self
                        .t_pk
                        .iter()
                        .position(|&c| c == self.split_t)
                        .expect("split in pkey"); // morph-lint: allow(panic, spec validation puts the split column in the primary key)
                    row.values[pos].clone()
                } else {
                    // P layout: key columns then the split value last.
                    row.values[row.values.len() - 1].clone()
                };
                (row.lsn, v)
            }
        }
    }

    /// Current (LSN, split value) of the R-part for key `y`, read
    /// through the table (lock transfer runs outside rule sessions).
    fn r_get(&self, y: &Key) -> Option<(Lsn, Value)> {
        let row = self.r_side().get(y)?;
        Some(self.decode_r(&row))
    }

    /// Session variant of [`SplitMapping::r_get`] for the rules.
    fn r_get_in(&self, rs: &WriteSession<'_>, y: &Key) -> Option<(Lsn, Value)> {
        rs.with_row(y, |row| self.decode_r(row))
    }

    fn r_insert(&self, rs: &mut WriteSession<'_>, t_vals: &[Value], lsn: Lsn) -> DbResult<()> {
        let vals = match self.mode {
            SplitMode::SeparateR => self.r_part(t_vals),
            SplitMode::RenameInPlace => {
                let mut vals: Vec<Value> = self.t_pk.iter().map(|&i| t_vals[i].clone()).collect();
                if !self.t_pk.contains(&self.split_t) {
                    vals.push(t_vals[self.split_t].clone());
                }
                vals
            }
        };
        match rs.insert_row(Row::new(vals, lsn)) {
            Ok(_) | Err(DbError::DuplicateKey(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn r_delete(&self, rs: &mut WriteSession<'_>, y: &Key) -> DbResult<()> {
        match rs.delete(y) {
            Ok(_) | Err(DbError::KeyNotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Apply T-column updates to the R side; `new` uses T positions.
    fn r_update(
        &self,
        rs: &mut WriteSession<'_>,
        y: &Key,
        new: &[(usize, Value)],
        lsn: Lsn,
    ) -> DbResult<()> {
        let p_layout: Vec<usize>;
        let layout: &[usize] = match self.mode {
            SplitMode::SeparateR => &self.r_cols,
            SplitMode::RenameInPlace => {
                let mut l: Vec<usize> = self.t_pk.clone();
                if !self.t_pk.contains(&self.split_t) {
                    l.push(self.split_t);
                }
                p_layout = l;
                &p_layout
            }
        };
        let cols: Vec<(usize, Value)> = new
            .iter()
            .filter_map(|(t_pos, v)| {
                layout
                    .iter()
                    .position(|c| c == t_pos)
                    .map(|pos| (pos, v.clone()))
            })
            .collect();
        if cols.is_empty() && self.mode == SplitMode::RenameInPlace {
            // Update touches neither key nor split columns; P still
            // tracks the LSN.
            rs.with_row_mut(y, |row| row.lsn = lsn);
            return Ok(());
        }
        match rs.update(y, &cols, lsn) {
            Ok(_) => Ok(()),
            Err(DbError::KeyNotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    // --- the S side --------------------------------------------------------

    /// Rule 8's S half: absorb one contribution of `s_vals` under split
    /// value `x` (counter ++ or fresh insert).
    fn s_absorb(
        &mut self,
        ss: &mut WriteSession<'_>,
        x: &Value,
        s_vals: &[Value],
        lsn: Lsn,
    ) -> DbResult<()> {
        let key = self.s_key(x);
        if self.check {
            self.cc.note_touch(x);
        }
        let existed = ss.with_row_mut(&key, |row| {
            row.counter += 1;
            if row.lsn < lsn {
                row.lsn = lsn;
            }
            if row.values != s_vals {
                row.flag = ConsistencyFlag::Unknown;
                true // differs
            } else {
                false
            }
        });
        match existed {
            Some(differs) => {
                if differs && self.check {
                    self.cc.mark_unknown(key);
                }
                Ok(())
            }
            None => {
                ss.insert_row(Row {
                    values: s_vals.to_vec(),
                    lsn,
                    counter: 1,
                    flag: ConsistencyFlag::Consistent,
                    presence: Default::default(),
                    writer: morph_storage::SYSTEM,
                })?;
                Ok(())
            }
        }
    }

    /// Advance the S-record's LSN watermark for split value `x` without
    /// changing its counter or values. Used by rule 9 when the delete's
    /// subject row was never reflected in R (its insert was swallowed
    /// by coalescing, or missed by the fuzzy copy): the one-by-one
    /// schedule would have stamped the shared S-record twice (absorb,
    /// then release), so the batched schedule must at least stamp once.
    fn s_stamp(&mut self, ss: &mut WriteSession<'_>, x: &Value, lsn: Lsn) {
        let key = self.s_key(x);
        if self.check {
            self.cc.note_touch(x);
        }
        let _ = ss.with_row_mut(&key, |row| {
            if row.lsn < lsn {
                row.lsn = lsn;
            }
        });
    }

    /// Rule 9's S half: release one contribution under split value `x`.
    fn s_release(&mut self, ss: &mut WriteSession<'_>, x: &Value, lsn: Lsn) -> DbResult<()> {
        let key = self.s_key(x);
        if self.check {
            self.cc.note_touch(x);
        }
        let drop_row = ss.with_row_mut(&key, |row| {
            row.counter = row.counter.saturating_sub(1);
            // Rule 9: the LSN is stamped even though the operation's
            // subject row no longer exists — sequential propagation
            // makes this safe and avoids the stale-LSN anomaly the
            // paper describes.
            if row.lsn < lsn {
                row.lsn = lsn;
            }
            row.counter == 0
        });
        if drop_row == Some(true) {
            let _ = ss.delete(&key);
            if self.check {
                self.cc.mark_consistent(&key); // gone ⇒ no longer unknown
            }
        }
        Ok(())
    }

    // --- dispatch -----------------------------------------------------------

    /// Tables this rule set reads ops for.
    pub fn source_ids(&self) -> Vec<TableId> {
        vec![self.t.id()]
    }

    /// Apply one logged source-table operation (rules 8–11), paying one
    /// latch round trip per target for this single record. The batched
    /// path ([`TransformOperator::apply_batch`]) amortizes the sessions
    /// over a whole batch instead.
    pub fn apply(&mut self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        if op.table() != self.t.id() {
            return Ok(());
        }
        let r_side = Arc::clone(self.r_side());
        let s = Arc::clone(&self.s);
        let mut rs = r_side.write_session();
        let mut ss = s.write_session();
        self.apply_in(&mut rs, &mut ss, lsn, op)
    }

    /// Rule dispatch within open R-side and S write sessions. Sessions
    /// are always opened in that order (R-side, then S) so concurrent
    /// batch appliers cannot deadlock.
    fn apply_in(
        &mut self,
        rs: &mut WriteSession<'_>,
        ss: &mut WriteSession<'_>,
        lsn: Lsn,
        op: &LogOp,
    ) -> DbResult<()> {
        if op.table() != self.t.id() {
            return Ok(());
        }
        match op {
            LogOp::Insert { row, .. } => self.rule8_insert(rs, ss, row, lsn),
            LogOp::Delete { key, old, .. } => self.rule9_delete(rs, ss, key, old, lsn),
            LogOp::Update { key, new, .. } => self.rule10_11_update(rs, ss, key, new, lsn),
        }
    }

    /// Rule 8: insert t^y_x.
    fn rule8_insert(
        &mut self,
        rs: &mut WriteSession<'_>,
        ss: &mut WriteSession<'_>,
        t_vals: &[Value],
        lsn: Lsn,
    ) -> DbResult<()> {
        let y = Key::project(t_vals, &self.t_pk);
        if self.r_get_in(rs, &y).is_some() {
            return Ok(()); // already reflected (Theorem 1)
        }
        self.r_insert(rs, t_vals, lsn)?;
        let x = self.split_val(t_vals);
        let s_vals = self.s_part(t_vals);
        self.s_absorb(ss, &x, &s_vals, lsn)
    }

    /// Rule 9: delete t^y.
    fn rule9_delete(
        &mut self,
        rs: &mut WriteSession<'_>,
        ss: &mut WriteSession<'_>,
        y: &Key,
        old: &[Value],
        lsn: Lsn,
    ) -> DbResult<()> {
        let Some((rlsn, x)) = self.r_get_in(rs, y) else {
            // The subject row is not in R — either the fuzzy copy never
            // saw it, or a coalesced batch swallowed its insert. The
            // shared S-record (if any) must still observe this delete's
            // LSN: applied one record at a time, absorb-then-release
            // both stamp it, so a coalesced run must not leave the
            // watermark behind. Stamp from the delete's pre-image
            // without touching counter or values (skipped when the
            // pre-image is truncated and the split value unknowable).
            if let Some(x) = old.get(self.split_t).cloned() {
                self.s_stamp(ss, &x, lsn);
            }
            return Ok(());
        };
        if rlsn >= lsn {
            return Ok(()); // newer state already reflected
        }
        self.r_delete(rs, y)?;
        self.s_release(ss, &x, lsn)
    }

    /// Rules 10 + 11: update t^y.
    fn rule10_11_update(
        &mut self,
        rs: &mut WriteSession<'_>,
        ss: &mut WriteSession<'_>,
        y: &Key,
        new: &[(usize, Value)],
        lsn: Lsn,
    ) -> DbResult<()> {
        let Some((rlsn, x_pre)) = self.r_get_in(rs, y) else {
            return Ok(());
        };
        if rlsn >= lsn {
            return Ok(()); // rule 10's LSN gate — S side is skipped too
        }
        // Rule 10: apply the R half (possibly moving the key).
        self.r_update(rs, y, new, lsn)?;

        // Rule 11: the S half, gated on rule 10 having applied.
        let split_changed = new.iter().any(|(i, _)| *i == self.split_t);
        let dep_updates: Vec<(usize, Value)> = new
            .iter()
            .filter(|(i, _)| *i != self.split_t && self.s_cols.contains(i))
            .map(|(i, v)| {
                let s_pos = self.s_cols.iter().position(|c| c == i).expect("filtered"); // morph-lint: allow(panic, position over the predicate the filter just passed)
                (s_pos, v.clone())
            })
            .collect();

        if split_changed {
            let z = new
                .iter()
                .find(|(i, _)| *i == self.split_t)
                .map(|(_, v)| v.clone())
                .expect("split_changed"); // morph-lint: allow(panic, branch is guarded by split_changed, so the column is in new)
                                          // Treated as delete of s^x followed by insert of s^z
                                          // (rule 11). Read s^x's image *before* releasing it.
            let s_old = ss.get(&self.s_key(&x_pre));
            let mut s_new = match &s_old {
                Some(row) => row.values.clone(),
                None => vec![Value::Null; self.s_cols.len()],
            };
            s_new[0] = z.clone();
            for (s_pos, v) in &dep_updates {
                s_new[*s_pos] = v.clone();
            }
            self.s_release(ss, &x_pre, lsn)?;
            self.s_absorb(ss, &z, &s_new, lsn)?;
            return Ok(());
        }

        if dep_updates.is_empty() {
            return Ok(()); // update touched neither split nor dependents
        }
        // Non-split S update: apply values only if the S-record's own
        // LSN is older (prevents regressing a fresher shared record).
        let key = self.s_key(&x_pre);
        if self.check {
            self.cc.note_touch(&x_pre);
        }
        let all_deps = dep_updates.len() == self.s_cols.len() - 1;
        let flagged = ss.with_row_mut(&key, |row| {
            if row.lsn >= lsn {
                return None;
            }
            for (s_pos, v) in &dep_updates {
                row.values[*s_pos] = v.clone();
            }
            row.lsn = lsn;
            // §5.3 flag transitions.
            if row.counter > 1 {
                row.flag = ConsistencyFlag::Unknown;
                Some(true)
            } else if all_deps {
                row.flag = ConsistencyFlag::Consistent;
                Some(false)
            } else {
                None
            }
        });
        if self.check {
            match flagged {
                Some(Some(true)) => self.cc.mark_unknown(key),
                Some(Some(false)) => self.cc.mark_consistent(&key),
                _ => {}
            }
        }
        Ok(())
    }

    // --- initial population (§3.2) --------------------------------------------

    /// Fuzzy-scan the source and build the initial images at full
    /// priority on one scan thread (tests and reference builds).
    /// Returns `(rows_read, rows_written)`.
    pub fn populate(&mut self, chunk_size: usize) -> DbResult<(usize, usize)> {
        self.populate_with(None, chunk_size, 1, 1.0, None)
    }

    /// Row-wise population on the calling thread: each fuzzy-scan
    /// chunk is written under one R-side and one S write session,
    /// through the same rules propagation uses, so the consistency
    /// checker sees every touch.
    fn populate_rowwise(
        &mut self,
        db: Option<&Database>,
        chunk_size: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)> {
        let t = Arc::clone(&self.t);
        let r_side = Arc::clone(self.r_side());
        let s = Arc::clone(&self.s);
        let mut written = 0usize;
        let read = scan_partition(db, &t, chunk_size, (0, 1), priority, deadline, |chunk| {
            let mut rs = r_side.write_session();
            let mut ss = s.write_session();
            for (_, row) in chunk {
                let before = ss.len();
                self.r_insert(&mut rs, &row.values, row.lsn)?;
                let x = self.split_val(&row.values);
                let s_vals = self.s_part(&row.values);
                self.s_absorb(&mut ss, &x, &s_vals, row.lsn)?;
                written += 1 + (ss.len() - before);
            }
            Ok(())
        })?;
        Ok((read, written))
    }

    // --- consistency checker (§5.3) ---------------------------------------------

    /// Run one checker round: pick a U-record, log `CcBegin`, read its
    /// contributors without transaction locks, and log `CcOk` if they
    /// agree. The propagator completes the certification when the
    /// records come back through [`SplitMapping::on_control`].
    pub fn run_cc_round(&mut self, log: &LogManager) -> DbResult<()> {
        if !self.check || self.cc.pending.is_some() {
            return Ok(());
        }
        let Some(key) = self.cc.next_candidate() else {
            return Ok(());
        };
        let begin_lsn = log.append(LogRecord::CcBegin {
            split_key: key.clone(),
        });
        self.cc.pending = Some(PendingCc {
            key: key.clone(),
            begin_lsn,
            touched: false,
        });
        self.cc.rounds += 1;

        let idx = self.idx_split.expect("checking requires the split index"); // morph-lint: allow(panic, consistency checking is only enabled with the split index installed)
        let contributors = self.t.index_rows(idx, &key);
        if contributors.is_empty() {
            // No contributors (any more): leave it to propagation; the
            // record will be deleted when the counter drains.
            self.cc.pending = None;
            return Ok(());
        }
        let image = self.s_part(&contributors[0].1.values);
        let agree = contributors
            .iter()
            .all(|(_, row)| self.s_part(&row.values) == image);
        if agree {
            log.append(LogRecord::CcOk {
                split_key: key,
                image,
            });
        } else {
            // Contradiction in the source data (paper Example 1): the
            // transformation cannot certify this record.
            self.cc.pending = None;
            self.cc.inconsistent.insert(key);
        }
        Ok(())
    }

    /// Handle checker records coming back through the log stream.
    pub fn on_control(&mut self, _lsn: Lsn, rec: &LogRecord) -> DbResult<()> {
        if !self.check {
            return Ok(());
        }
        match rec {
            LogRecord::CcBegin { split_key }
                // Normally already pending (we logged it ourselves); on
                // restart-style replays, re-arm.
                if self.cc.pending.is_none() => {
                    self.cc.pending = Some(PendingCc {
                        key: split_key.clone(),
                        begin_lsn: _lsn,
                        touched: false,
                    });
                }
            LogRecord::CcOk { split_key, image } => {
                let Some(p) = self.cc.pending.take() else {
                    return Ok(());
                };
                if &p.key != split_key {
                    return Ok(());
                }
                if p.touched {
                    return Ok(()); // voided; retry in a later round
                }
                let certified = self.s.with_row_mut(split_key, |row| {
                    row.values = image.clone();
                    row.flag = ConsistencyFlag::Consistent;
                });
                if certified.is_some() {
                    self.cc.mark_consistent(split_key);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// May synchronization start (§5.3: "all records in S should have a
    /// C-flag before synchronization is started")?
    pub fn readiness(&self) -> Readiness {
        self.cc.readiness(self.check)
    }

    // --- lock transfer ------------------------------------------------------------

    /// Target records affected by a lock on source record `key` — used
    /// by the synchronization step's lock transfer. In rename-in-place
    /// mode T keeps its table id through the rename, so R-side locks
    /// carry over by identity and only the S side needs transferring.
    ///
    /// The split value is read from the *target* side (R, or the P
    /// bookkeeping table), never from the source: the caller holds the
    /// source's exclusive latch during synchronization, and the final
    /// drain has just made the targets consistent with it.
    pub fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        if table != self.t.id() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if let Some(r) = &self.r {
            out.push((r.id(), key.clone()));
        }
        if let Some((_, split_val)) = self.r_get(key) {
            out.push((self.s.id(), self.s_key(&split_val)));
        }
        out
    }

    /// Immutable data needed to mirror source locks from arbitrary
    /// threads (non-blocking-commit interceptor).
    pub fn mirror_map(&self) -> crate::sync::MirrorMap {
        crate::sync::MirrorMap::Split {
            t: Arc::clone(&self.t),
            r_id: self.r.as_ref().map(|r| r.id()),
            s_id: self.s.id(),
            split_t: self.split_t,
            t_pk: self.t_pk.clone(),
        }
    }
}

// Worker-local digest of one worker's S contributions during parallel
// population; merged serially into the real S rows afterwards.
struct SContrib {
    /// Smallest T key among this worker's contributors — serial
    /// population takes the S image from the globally smallest one.
    first_key: Key,
    s_vals: Vec<Value>,
    count: u32,
    max_lsn: Lsn,
    /// All contributions seen by this worker carried equal S values.
    uniform: bool,
}

impl SplitMapping {
    /// Initial population (§3.2) with the database handle threaded
    /// through so the fuzzy scan reports per-chunk crash points (crash
    /// simulation). Several workers run a partitioned fuzzy scan with
    /// masked R-side writes per worker, plus worker-local S digests
    /// merged serially afterwards (S rows are shared across subjects,
    /// so they cannot be written worker-locally). One worker, and
    /// checking mode at any worker count, take the row-wise path.
    pub(crate) fn populate_with(
        &mut self,
        db: Option<&Database>,
        chunk_size: usize,
        workers: usize,
        priority: f64,
        deadline: Option<Instant>,
    ) -> DbResult<(usize, usize)> {
        let workers = shard_stride(workers.max(1));
        if workers <= 1 || self.check {
            return self.populate_rowwise(db, chunk_size, priority, deadline);
        }
        let t = Arc::clone(&self.t);
        let r_side = Arc::clone(self.r_side());
        let s = Arc::clone(&self.s);
        let this = &*self;
        let locals: Vec<Mutex<HashMap<Value, SContrib>>> =
            (0..workers).map(|_| Mutex::new(HashMap::new())).collect();
        let sink = |w: usize, chunk: Vec<(Key, Row)>| {
            let mut rs = r_side.write_session_masked(workers, w);
            let mut local = locals[w].lock().expect("populate digest poisoned"); // morph-lint: allow(panic, std mutex poison implies a populate worker already panicked; that panic is re-raised at the join)
            for (key, row) in chunk {
                this.r_insert(&mut rs, &row.values, row.lsn)?;
                let x = this.split_val(&row.values);
                let s_vals = this.s_part(&row.values);
                match local.entry(x) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let c = e.get_mut();
                        c.count += 1;
                        if row.lsn > c.max_lsn {
                            c.max_lsn = row.lsn;
                        }
                        if s_vals != c.s_vals {
                            c.uniform = false;
                        }
                        // The partitioned scan is key-ordered per
                        // worker, so the first-seen key stays minimal.
                        debug_assert!(c.first_key <= key);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(SContrib {
                            first_key: key,
                            s_vals,
                            count: 1,
                            max_lsn: row.lsn,
                            uniform: true,
                        });
                    }
                }
            }
            Ok(())
        };
        let read = scan_source(db, &t, chunk_size, workers, priority, deadline, &sink)?;

        // Merge the worker digests: the canonical S image is the one
        // from the globally smallest contributor key (= what the
        // serial key-ordered scan would have absorbed first).
        let mut merged: BTreeMap<Value, SContrib> = BTreeMap::new();
        for local in locals {
            // morph-lint: allow(panic, into_inner poison implies a populate worker panicked; that panic was re-raised at the join)
            for (x, c) in local.into_inner().expect("populate digest poisoned") {
                match merged.entry(x) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let m = e.get_mut();
                        m.count += c.count;
                        if c.max_lsn > m.max_lsn {
                            m.max_lsn = c.max_lsn;
                        }
                        if !c.uniform || c.s_vals != m.s_vals {
                            m.uniform = false;
                        }
                        if c.first_key < m.first_key {
                            m.first_key = c.first_key;
                            m.s_vals = c.s_vals;
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(c);
                    }
                }
            }
        }
        let s_rows = merged.len();
        let mut ss = s.write_session();
        for (_, c) in merged {
            ss.insert_row(Row {
                values: c.s_vals,
                lsn: c.max_lsn,
                counter: c.count,
                flag: if c.uniform {
                    ConsistencyFlag::Consistent
                } else {
                    ConsistencyFlag::Unknown
                },
                writer: morph_storage::SYSTEM,
                presence: Default::default(),
            })?;
        }
        Ok((read, read + s_rows))
    }
}

impl TransformOperator for SplitMapping {
    fn source_ids(&self) -> Vec<TableId> {
        SplitMapping::source_ids(self)
    }

    fn apply(&mut self, lsn: Lsn, op: &LogOp) -> DbResult<()> {
        SplitMapping::apply(self, lsn, op)
    }

    fn apply_batch(&mut self, batch: &[(Lsn, &LogOp)]) -> DbResult<()> {
        let r_side = Arc::clone(self.r_side());
        let s = Arc::clone(&self.s);
        let mut rs = r_side.write_session();
        let mut ss = s.write_session();
        for &(lsn, op) in batch {
            self.apply_in(&mut rs, &mut ss, lsn, op)?;
        }
        Ok(())
    }

    fn coalesce_policy(&self) -> CoalescePolicy {
        if self.check {
            // §5.3: the checker must see every touch of an S-record to
            // void in-flight certification rounds.
            CoalescePolicy::None
        } else {
            CoalescePolicy::Full
        }
    }

    /// S-relevant columns feed shared S-records: rule 11 builds a moved
    /// row's S-image from the *current* shared record, so a transient
    /// value another row's move could observe must not be dropped. Only
    /// pure R-part updates coalesce.
    fn coalesce_barrier_cols(&self, table: TableId) -> Vec<usize> {
        if table == self.t.id() {
            self.s_cols.clone()
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
        SplitMapping::populate_with(self, Some(db), chunk, workers, priority, deadline)
    }

    fn target_keys_for(&self, table: TableId, key: &Key) -> Vec<(TableId, Key)> {
        SplitMapping::target_keys_for(self, table, key)
    }

    fn mirror_map(&self) -> crate::sync::MirrorMap {
        SplitMapping::mirror_map(self)
    }

    fn readiness(&self) -> Readiness {
        SplitMapping::readiness(self)
    }

    fn maintenance(&mut self, db: &Database) -> DbResult<()> {
        self.run_cc_round(db.log())
    }

    fn on_control(&mut self, lsn: Lsn, rec: &LogRecord) -> DbResult<()> {
        SplitMapping::on_control(self, lsn, rec)
    }

    fn cc_rounds(&self) -> usize {
        self.cc.rounds
    }

    fn renames_source(&self) -> bool {
        self.mode == SplitMode::RenameInPlace
    }

    fn publish(&self, db: &Database) -> DbResult<()> {
        // Rename-in-place completion: give T its R name. Dependent
        // columns are projected away in `finalize`.
        match self.rename_target() {
            Some(target) => db.catalog().rename(&self.t.name(), &target),
            None => Ok(()),
        }
    }

    fn finalize(&self, _db: &Database) -> DbResult<()> {
        if self.mode == SplitMode::RenameInPlace {
            // Project the dependent columns away now that no old
            // transaction can touch them (briefly latches R).
            self.t.project_columns(&self.r_cols)?;
        }
        Ok(())
    }
}

/// Sorted R rows plus (S row, reference counter) pairs — what a split
/// should produce from a consistent source image.
pub type ReferenceSplit = (Vec<Vec<Value>>, Vec<(Vec<Value>, u32)>);

/// Reference split — the oracle for tests. Panics-free: returns an
/// error if the source data violates the functional dependency (which
/// consistent-mode tests treat as a bug and CC tests expect).
pub fn reference_split(m: &SplitMapping, t_rows: &[Vec<Value>]) -> Result<ReferenceSplit, String> {
    let mut r_rows: Vec<Vec<Value>> = t_rows.iter().map(|t| m.r_part(t)).collect();
    r_rows.sort();

    let mut s_map: std::collections::BTreeMap<Value, (Vec<Value>, u32)> =
        std::collections::BTreeMap::new();
    for t in t_rows {
        let x = t[m.split_t].clone();
        let s_vals = m.s_part(t);
        match s_map.get_mut(&x) {
            Some((existing, n)) => {
                if *existing != s_vals {
                    return Err(format!(
                        "functional dependency violated at {x:?}: {existing:?} vs {s_vals:?}"
                    ));
                }
                *n += 1;
            }
            None => {
                s_map.insert(x, (s_vals, 1));
            }
        }
    }
    Ok((r_rows, s_map.into_values().collect()))
}

/// Compare the split targets against the reference split of the
/// *current* source contents (consistent-data mode).
pub fn verify_against_reference(m: &SplitMapping) -> Result<(), String> {
    let t_rows: Vec<Vec<Value>> = m.t.snapshot().into_iter().map(|(_, r)| r.values).collect();
    let (expect_r, expect_s) = reference_split(m, &t_rows)?;

    if let Some(r) = &m.r {
        let mut got_r: Vec<Vec<Value>> = r
            .snapshot()
            .into_iter()
            .map(|(_, row)| row.values)
            .collect();
        got_r.sort();
        if got_r != expect_r {
            return Err(format!(
                "R mismatch:\nexpected {expect_r:?}\ngot      {got_r:?}"
            ));
        }
    } else if let Some(p) = &m.p {
        // Rename-in-place: P must track exactly the source keys.
        if p.len() != t_rows.len() {
            return Err(format!(
                "P row count {} does not match source {}",
                p.len(),
                t_rows.len()
            ));
        }
    }

    let got_s: Vec<(Vec<Value>, u32)> =
        m.s.snapshot()
            .into_iter()
            .map(|(_, row)| (row.values, row.counter))
            .collect();
    if got_s != expect_s {
        return Err(format!(
            "S mismatch:\nexpected {expect_s:?}\ngot      {got_s:?}"
        ));
    }
    Ok(())
}

/// The paper's Figure 3 / Example 1 source schema: customers with a
/// postal-code → city functional dependency.
pub fn example1_schema() -> Schema {
    use morph_common::ColumnType;
    Schema::builder()
        .column("customer_id", ColumnType::Int)
        .nullable("name", ColumnType::Str)
        .nullable("postal_code", ColumnType::Str)
        .nullable("city", ColumnType::Str)
        .primary_key(&["customer_id"])
        .build()
        .expect("static schema") // morph-lint: allow(panic, static schema literal; the builder cannot fail on compile-time constants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::ColumnType;

    fn setup_mode(mode: SplitMode, check: bool) -> (Database, SplitMapping) {
        let db = Database::new();
        let ts = Schema::builder()
            .column("a", ColumnType::Int)
            .nullable("b", ColumnType::Str)
            .nullable("c", ColumnType::Str)
            .nullable("d", ColumnType::Str)
            .primary_key(&["a"])
            .build()
            .unwrap();
        db.create_table("T", ts).unwrap();
        let mut spec = SplitSpec::new("T", "R", "S", &["a", "b", "c"], "c", &["d"]);
        spec.mode = mode;
        spec.check_consistency = check;
        let m = SplitMapping::prepare(&db, &spec).unwrap();
        (db, m)
    }

    fn setup() -> (Database, SplitMapping) {
        setup_mode(SplitMode::SeparateR, false)
    }

    fn t_row(a: i64, b: &str, c: &str, d: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str(b), Value::str(c), Value::str(d)]
    }

    /// Test driver: applies ops to the source table and mirrors them
    /// through the rules.
    struct Driver<'a> {
        m: &'a mut SplitMapping,
        lsn: u64,
    }

    impl<'a> Driver<'a> {
        fn new(m: &'a mut SplitMapping) -> Self {
            Driver { m, lsn: 0 }
        }
        fn next(&mut self) -> Lsn {
            self.lsn += 1;
            Lsn(self.lsn)
        }
        fn insert(&mut self, row: Vec<Value>) {
            let lsn = self.next();
            self.m.t.insert(row.clone(), lsn).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Insert {
                        table: self.m.t.id(),
                        row,
                    },
                )
                .unwrap();
        }
        fn delete(&mut self, key: Key) {
            let lsn = self.next();
            let old = self.m.t.delete(&key).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Delete {
                        table: self.m.t.id(),
                        key,
                        old: old.values,
                    },
                )
                .unwrap();
        }
        fn update(&mut self, key: Key, cols: Vec<(usize, Value)>) {
            let lsn = self.next();
            let out = self.m.t.update(&key, &cols, lsn).unwrap();
            self.m
                .apply(
                    lsn,
                    &LogOp::Update {
                        table: self.m.t.id(),
                        key,
                        old: out.old_cols.clone(),
                        new: cols,
                    },
                )
                .unwrap();
        }
    }

    fn verify(m: &SplitMapping) {
        if let Err(e) = verify_against_reference(m) {
            panic!("split targets diverged: {e}");
        }
    }

    #[test]
    fn figure3_example() {
        // Figure 3: T(a,b,c,d) splits into R(a,b,c) and S(c,d); rows
        // sharing c share one S record.
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        d.insert(t_row(2, "b", "c1", "d1"));
        d.insert(t_row(5, "e", "c2", "d2"));
        verify(&m);
        assert_eq!(m.r_table().unwrap().len(), 3);
        assert_eq!(m.s_table().len(), 2);
        let s1 = m.s_table().get(&Key::single("c1")).unwrap();
        assert_eq!(s1.counter, 2);
    }

    #[test]
    fn rule8_idempotent_and_counter_exact() {
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        // Replaying the same insert (fuzzy overlap) changes nothing.
        m.apply(
            Lsn(1),
            &LogOp::Insert {
                table: m.t.id(),
                row: t_row(1, "a", "c1", "d1"),
            },
        )
        .unwrap();
        verify(&m);
        assert_eq!(m.s_table().get(&Key::single("c1")).unwrap().counter, 1);
    }

    #[test]
    fn rule9_counter_drains_and_row_disappears() {
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        d.insert(t_row(2, "b", "c1", "d1"));
        d.delete(Key::single(1));
        verify(d.m);
        assert_eq!(d.m.s_table().get(&Key::single("c1")).unwrap().counter, 1);
        d.delete(Key::single(2));
        verify(d.m);
        assert!(d.m.s_table().is_empty());
        let _ = d;
        // Stale delete replay ignored (r gone).
        m.apply(
            Lsn(1),
            &LogOp::Delete {
                table: m.t.id(),
                key: Key::single(1),
                old: vec![],
            },
        )
        .unwrap();
        verify(&m);
    }

    #[test]
    fn rule9_lsn_gate_ignores_stale_delete() {
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1")); // lsn 1
        let _ = d;
        // A delete with an older LSN than the row is ignored (the
        // initial image was fresher than this log record).
        m.apply(
            Lsn(0),
            &LogOp::Delete {
                table: m.t.id(),
                key: Key::single(1),
                old: vec![],
            },
        )
        .unwrap();
        assert_eq!(m.r_table().unwrap().len(), 1);
    }

    #[test]
    fn rule10_r_part_update_including_pkey_move() {
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        d.update(Key::single(1), vec![(1, Value::str("a2"))]);
        verify(d.m);
        d.update(Key::single(1), vec![(0, Value::Int(9))]);
        verify(d.m);
        assert!(d.m.r_table().unwrap().get(&Key::single(9)).is_some());
    }

    #[test]
    fn rule11_split_attribute_move() {
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        d.insert(t_row(2, "b", "c1", "d1"));
        // Move row 1 to a fresh split value, updating the dependent too
        // (a consistent transaction would).
        d.update(
            Key::single(1),
            vec![(2, Value::str("c9")), (3, Value::str("d9"))],
        );
        verify(d.m);
        assert_eq!(d.m.s_table().len(), 2);
        assert_eq!(d.m.s_table().get(&Key::single("c1")).unwrap().counter, 1);
        assert_eq!(d.m.s_table().get(&Key::single("c9")).unwrap().counter, 1);
        // Move row 2 onto c9 as well: counter merges; dependents must
        // match for consistency.
        d.update(
            Key::single(2),
            vec![(2, Value::str("c9")), (3, Value::str("d9"))],
        );
        verify(d.m);
        assert_eq!(d.m.s_table().get(&Key::single("c9")).unwrap().counter, 2);
    }

    #[test]
    fn rule11_dependent_update_fans_to_shared_record() {
        let (_db, mut m) = setup();
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        d.insert(t_row(2, "b", "c1", "d1"));
        // Consistent DBMS: the dependent changes in both rows (two ops).
        d.update(Key::single(1), vec![(3, Value::str("d2"))]);
        d.update(Key::single(2), vec![(3, Value::str("d2"))]);
        verify(&m);
        assert_eq!(
            m.s_table().get(&Key::single("c1")).unwrap().values[1],
            Value::str("d2")
        );
    }

    #[test]
    fn rule11_s_lsn_gate_prevents_value_regression() {
        let (_db, mut m) = setup();
        // Initial image is fresh (lsn 10); an older logged dep-update
        // (lsn 5) must update the R LSN but not regress S values.
        m.t.insert(t_row(1, "a", "c1", "dNEW"), Lsn(10)).unwrap();
        let (read, _) = m.populate(16).unwrap();
        assert_eq!(read, 1);
        // Stale log record: r copy in image has lsn 10 ≥ 5 → fully
        // ignored by the rule-10 gate.
        m.apply(
            Lsn(5),
            &LogOp::Update {
                table: m.t.id(),
                key: Key::single(1),
                old: vec![(3, Value::str("dOLD"))],
                new: vec![(3, Value::str("dMID"))],
            },
        )
        .unwrap();
        assert_eq!(
            m.s_table().get(&Key::single("c1")).unwrap().values[1],
            Value::str("dNEW")
        );
        verify(&m);
    }

    #[test]
    fn populate_from_fuzzy_scan_builds_counters() {
        let (_db, mut m) = setup();
        for i in 0..10 {
            m.t.insert(
                t_row(i, "b", if i % 2 == 0 { "even" } else { "odd" }, "dep"),
                Lsn(i as u64 + 1),
            )
            .unwrap();
        }
        let (read, written) = m.populate(3).unwrap();
        assert_eq!(read, 10);
        assert!(written >= 10);
        verify(&m);
        assert_eq!(m.s_table().get(&Key::single("even")).unwrap().counter, 5);
    }

    #[test]
    fn rename_in_place_mode_tracks_p() {
        let (_db, mut m) = setup_mode(SplitMode::RenameInPlace, false);
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "c1", "d1"));
        d.insert(t_row(2, "b", "c1", "d1"));
        d.update(
            Key::single(1),
            vec![(2, Value::str("c2")), (3, Value::str("d2"))],
        );
        d.delete(Key::single(2));
        verify(&m);
        let p = m.p_table().unwrap();
        assert_eq!(p.len(), 1);
        // P tracks the current split value for key 1.
        assert_eq!(p.get(&Key::single(1)).unwrap().values[1], Value::str("c2"));
        assert_eq!(m.s_table().len(), 1);
        assert!(m.s_table().get(&Key::single("c2")).is_some());
    }

    #[test]
    fn cc_flags_inconsistent_insert() {
        let (_db, mut m) = setup_mode(SplitMode::SeparateR, true);
        let mut d = Driver::new(&mut m);
        d.insert(t_row(1, "a", "7050", "Trondheim"));
        d.insert(t_row(2, "b", "7050", "Trnodheim")); // the paper's typo
        assert_eq!(
            m.s_table().get(&Key::single("7050")).unwrap().flag,
            ConsistencyFlag::Unknown
        );
        assert_eq!(m.readiness(), Readiness::Pending { unknowns: 1 });
    }

    #[test]
    fn cc_certifies_after_repair() {
        let (db, mut m) = setup_mode(SplitMode::SeparateR, true);
        {
            let mut d = Driver::new(&mut m);
            d.insert(t_row(1, "a", "7050", "Trondheim"));
            d.insert(t_row(2, "b", "7050", "Trnodheim"));
        }
        // First CC round: contributors disagree → known inconsistent.
        m.run_cc_round(db.log()).unwrap();
        assert_eq!(
            m.readiness(),
            Readiness::Inconsistent {
                keys: vec![Key::single("7050")]
            }
        );
        // Repair the typo at the source (what a DBA would do), mirror
        // through the rules.
        {
            let mut d = Driver::new(&mut m);
            d.lsn = 10;
            d.update(Key::single(2), vec![(3, Value::str("Trondheim"))]);
        }
        // Second CC round: agree → CcBegin/CcOk appended.
        m.run_cc_round(db.log()).unwrap();
        // Feed the CC records back through the propagator path.
        let records = db.log().read_range(Lsn(1), usize::MAX);
        for (lsn, rec) in records {
            m.on_control(lsn, &rec).unwrap();
        }
        assert_eq!(m.readiness(), Readiness::Ready);
        assert_eq!(
            m.s_table().get(&Key::single("7050")).unwrap().flag,
            ConsistencyFlag::Consistent
        );
        assert_eq!(
            m.s_table().get(&Key::single("7050")).unwrap().values[1],
            Value::str("Trondheim")
        );
    }

    #[test]
    fn cc_certification_voided_by_concurrent_touch() {
        let (db, mut m) = setup_mode(SplitMode::SeparateR, true);
        {
            let mut d = Driver::new(&mut m);
            d.insert(t_row(1, "a", "c1", "d1"));
            d.insert(t_row(2, "b", "c1", "dX"));
        }
        assert_eq!(m.readiness(), Readiness::Pending { unknowns: 1 });
        // Repair so CC will find agreement…
        {
            let mut d = Driver::new(&mut m);
            d.lsn = 10;
            d.update(Key::single(2), vec![(3, Value::str("d1"))]);
        }
        m.run_cc_round(db.log()).unwrap();
        // …but an op touches c1 between CcBegin and the propagator
        // reaching CcOk:
        m.apply(
            Lsn(20),
            &LogOp::Update {
                table: m.t.id(),
                key: Key::single(1),
                old: vec![(3, Value::str("d1"))],
                new: vec![(3, Value::str("d1"))],
            },
        )
        .unwrap();
        for (lsn, rec) in db.log().read_range(Lsn(1), usize::MAX) {
            m.on_control(lsn, &rec).unwrap();
        }
        // Certification voided; still pending (not inconsistent).
        assert!(matches!(m.readiness(), Readiness::Pending { .. }));
    }

    #[test]
    fn prepare_validates_spec() {
        let db = Database::new();
        let ts = Schema::builder()
            .column("a", ColumnType::Int)
            .nullable("c", ColumnType::Str)
            .nullable("d", ColumnType::Str)
            .primary_key(&["a"])
            .build()
            .unwrap();
        db.create_table("T", ts).unwrap();
        // r_cols missing the primary key.
        let bad = SplitSpec::new("T", "R", "S", &["c"], "c", &["d"]);
        assert!(matches!(
            SplitMapping::prepare(&db, &bad),
            Err(DbError::MissingCandidateKey(_))
        ));
        // r_cols missing the split column.
        let bad = SplitSpec::new("T", "R", "S", &["a"], "c", &["d"]);
        assert!(matches!(
            SplitMapping::prepare(&db, &bad),
            Err(DbError::InvalidSchema(_))
        ));
        // split column listed among dependents.
        let bad = SplitSpec::new("T", "R", "S", &["a", "c"], "c", &["c"]);
        assert!(matches!(
            SplitMapping::prepare(&db, &bad),
            Err(DbError::InvalidSchema(_))
        ));
    }

    #[test]
    fn randomized_ops_match_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Consistent-data mode: the driver maintains the functional
        // dependency by construction (dep value derived from split
        // value), matching the §5.2 assumption.
        for seed in 0..8u64 {
            let (_db, mut m) = setup();
            let mut rng = StdRng::seed_from_u64(seed * 17 + 3);
            let splits = ["s0", "s1", "s2", "s3"];
            // Current dependent value per split value (consistency!).
            let mut dep: std::collections::HashMap<&str, String> =
                splits.iter().map(|s| (*s, format!("dep-{s}"))).collect();
            let mut d = Driver::new(&mut m);
            for step in 0..300 {
                match rng.gen_range(0..5) {
                    0 => {
                        let a = rng.gen_range(0..24);
                        if d.m.t.get(&Key::single(a)).is_none() {
                            let c = splits[rng.gen_range(0..splits.len())];
                            d.insert(t_row(a, "b", c, &dep[c].clone()));
                        }
                    }
                    1 => {
                        let a = rng.gen_range(0..24);
                        if d.m.t.get(&Key::single(a)).is_some() {
                            d.delete(Key::single(a));
                        }
                    }
                    2 => {
                        // Move a row to another split value.
                        let a = rng.gen_range(0..24);
                        if d.m.t.get(&Key::single(a)).is_some() {
                            let c = splits[rng.gen_range(0..splits.len())];
                            d.update(
                                Key::single(a),
                                vec![(2, Value::str(c)), (3, Value::str(dep[c].clone()))],
                            );
                        }
                    }
                    3 => {
                        // Consistently change the dependent of a split
                        // value across all carriers (one op per row, as
                        // a real transaction would issue).
                        let c = splits[rng.gen_range(0..splits.len())];
                        let nv = format!("dep-{c}-{step}");
                        dep.insert(c, nv.clone());
                        let carriers: Vec<Key> =
                            d.m.t
                                .snapshot()
                                .into_iter()
                                .filter(|(_, row)| row.values[2] == Value::str(c))
                                .map(|(k, _)| k)
                                .collect();
                        for k in carriers {
                            d.update(k, vec![(3, Value::str(nv.clone()))]);
                        }
                    }
                    _ => {
                        // Non-split, non-dependent update.
                        let a = rng.gen_range(0..24);
                        if d.m.t.get(&Key::single(a)).is_some() {
                            d.update(Key::single(a), vec![(1, Value::str(format!("b{step}")))]);
                        }
                    }
                }
            }
            verify(&m);
        }
    }

    #[test]
    fn randomized_rename_in_place_matches_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..4u64 {
            let (_db, mut m) = setup_mode(SplitMode::RenameInPlace, false);
            let mut rng = StdRng::seed_from_u64(seed + 1000);
            let splits = ["s0", "s1", "s2"];
            let mut d = Driver::new(&mut m);
            for _ in 0..200 {
                match rng.gen_range(0..3) {
                    0 => {
                        let a = rng.gen_range(0..16);
                        if d.m.t.get(&Key::single(a)).is_none() {
                            let c = splits[rng.gen_range(0..splits.len())];
                            d.insert(t_row(a, "b", c, &format!("dep-{c}")));
                        }
                    }
                    1 => {
                        let a = rng.gen_range(0..16);
                        if d.m.t.get(&Key::single(a)).is_some() {
                            d.delete(Key::single(a));
                        }
                    }
                    _ => {
                        let a = rng.gen_range(0..16);
                        if d.m.t.get(&Key::single(a)).is_some() {
                            let c = splits[rng.gen_range(0..splits.len())];
                            d.update(
                                Key::single(a),
                                vec![(2, Value::str(c)), (3, Value::str(format!("dep-{c}")))],
                            );
                        }
                    }
                }
            }
            verify(&m);
        }
    }
}
