//! Step-wise, seeded OLTP workload for deterministic simulation.
//!
//! The thread-based [`crate::runner::WorkloadRunner`] is the right
//! tool for throughput measurements, but its scheduling is
//! nondeterministic — useless for a crash simulator that must replay
//! a failure from its seed. [`StepWorkload`] is the deterministic
//! counterpart: a single-threaded generator that, each time the crash
//! harness gives it control, runs **one complete transaction**
//! (begin → a few inserts/updates/deletes → commit or deliberate
//! rollback) against the [`Database`], with every choice drawn from a
//! seeded RNG.
//!
//! Alongside the database it maintains a **model** of the committed
//! state of every table it touches. Because each step is a complete,
//! flushed transaction, the model equals the durable committed state
//! at any crash point between steps — which is exactly the
//! no-lost-updates oracle the harness checks after recovery:
//! recovered table contents must equal the model. The one transaction
//! left open, [`StepWorkload::step_in_flight`] at the crash, commits
//! nothing, so recovery must roll it back to the model.

use morph_common::{DbError, Key, Value};
use morph_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Builds a fresh row from a unique sequence number and the RNG. The
/// primary key must be a function of the sequence number so generated
/// inserts never collide.
pub type RowGen = Box<dyn Fn(u64, &mut StdRng) -> Vec<Value> + Send>;

/// Produces the `(column, value)` set for one update operation. A
/// generator may touch several columns at once — required when a
/// scenario must preserve a functional dependency (e.g. the split's
/// `postal_code → city`).
pub type UpdateGen = Box<dyn Fn(&mut StdRng) -> Vec<(usize, Value)> + Send>;

/// Per-table description of how to generate workload rows.
pub struct TableProfile {
    /// Catalog name of the table.
    pub name: String,
    /// Fresh-row generator for inserts.
    pub gen_row: RowGen,
    /// Update generators; `step` picks one at random per update.
    pub updates: Vec<UpdateGen>,
}

/// Outcome of one [`StepWorkload::step`] transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Transaction committed; model updated.
    Committed,
    /// The step chose to roll back (exercises CLR generation).
    RolledBack,
    /// A schema-change outcome (`TableFrozen` / `NoSuchTable` /
    /// `TxnDoomed`) forced a rollback — expected during
    /// synchronization; the model is untouched.
    SchemaDenied,
}

/// Counters across all steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    pub committed: usize,
    pub rolled_back: usize,
    pub schema_denied: usize,
    pub ops: usize,
}

/// Deterministic single-threaded workload generator (see module docs).
pub struct StepWorkload {
    rng: StdRng,
    profiles: Vec<TableProfile>,
    /// Committed state per profile (same index): pk → row values.
    model: Vec<BTreeMap<Key, Vec<Value>>>,
    next_seq: u64,
    max_ops_per_txn: usize,
    /// Probability a generated transaction rolls itself back.
    rollback_prob: f64,
    pub stats: StepStats,
}

/// One planned model mutation, applied only if the txn commits.
enum Planned {
    Insert(usize, Key, Vec<Value>),
    Update(usize, Key, Vec<(usize, Value)>),
    Delete(usize, Key),
}

impl StepWorkload {
    /// A workload over `profiles`, drawing every choice from `seed`.
    pub fn new(seed: u64, profiles: Vec<TableProfile>) -> StepWorkload {
        let model = profiles.iter().map(|_| BTreeMap::new()).collect();
        StepWorkload {
            rng: StdRng::seed_from_u64(seed),
            profiles,
            model,
            // Start high so generated keys never collide with rows the
            // scenario setup inserted under small sequence numbers.
            next_seq: 1 << 20,
            max_ops_per_txn: 4,
            rollback_prob: 0.15,
            stats: StepStats::default(),
        }
    }

    /// Seed the model with rows already committed to the database
    /// (scenario setup data), keyed by the profile's table name.
    pub fn absorb_existing(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = (Key, Vec<Value>)>,
    ) {
        if let Some(i) = self.profiles.iter().position(|p| p.name == table) {
            self.model[i].extend(rows);
        }
    }

    /// The committed-state model for `table` (pk → row), the
    /// no-lost-updates oracle.
    pub fn model(&self, table: &str) -> Option<&BTreeMap<Key, Vec<Value>>> {
        let i = self.profiles.iter().position(|p| p.name == table)?;
        Some(&self.model[i])
    }

    /// Run one complete transaction against `db`. Never leaves a
    /// transaction open: every path ends in commit or rollback.
    pub fn step(&mut self, db: &Database) -> StepOutcome {
        let n_ops = self.rng.gen_range(1..=self.max_ops_per_txn);
        let deliberate_rollback = self.rng.gen_bool(self.rollback_prob);
        let txn = db.begin();
        let mut planned: Vec<Planned> = Vec::new();

        for _ in 0..n_ops {
            let pi = self.rng.gen_range(0..self.profiles.len());
            self.stats.ops += 1;
            let res = self.one_op(db, txn, pi, &mut planned);
            if let Err(e) = res {
                // Any failure → roll back, discard the plan. The only
                // errors a single-threaded run should see are the
                // schema-change outcomes.
                let _ = db.abort(txn);
                return match e {
                    DbError::TableFrozen(_)
                    | DbError::NoSuchTable(_)
                    | DbError::NoSuchTableId(_)
                    | DbError::TxnDoomed(_) => {
                        self.stats.schema_denied += 1;
                        StepOutcome::SchemaDenied
                    }
                    other => panic!("unexpected workload error: {other}"), // morph-lint: allow(panic, workload driver for tests and sim; an unexpected engine error must fail the run loudly)
                };
            }
        }

        if deliberate_rollback {
            let _ = db.abort(txn);
            self.stats.rolled_back += 1;
            return StepOutcome::RolledBack;
        }
        match db.commit(txn) {
            Ok(()) => {
                self.apply_plan(planned);
                self.stats.committed += 1;
                StepOutcome::Committed
            }
            Err(e @ (DbError::TxnDoomed(_) | DbError::TableFrozen(_))) => {
                let _ = e;
                let _ = db.abort(txn);
                self.stats.schema_denied += 1;
                StepOutcome::SchemaDenied
            }
            Err(other) => panic!("unexpected commit error: {other}"), // morph-lint: allow(panic, workload driver for tests and sim; an unexpected engine error must fail the run loudly)
        }
    }

    /// Begin a transaction, run one step's writes and leave it open:
    /// a client caught mid-transaction by a crash. Its records are
    /// logged but not durable, and the model is untouched, since
    /// nothing committed. Returns the number of writes it logged.
    pub fn step_in_flight(&mut self, db: &Database) -> usize {
        let n_ops = self.rng.gen_range(1..=self.max_ops_per_txn);
        let txn = db.begin();
        let mut planned: Vec<Planned> = Vec::new();
        for _ in 0..n_ops {
            let pi = self.rng.gen_range(0..self.profiles.len());
            if self.one_op(db, txn, pi, &mut planned).is_err() {
                break;
            }
        }
        planned.len()
    }

    fn one_op(
        &mut self,
        db: &Database,
        txn: morph_common::TxnId,
        pi: usize,
        planned: &mut Vec<Planned>,
    ) -> morph_common::DbResult<()> {
        let name = self.profiles[pi].name.clone();
        // Weighted op mix: half updates, the rest split between
        // inserts and deletes so tables neither drain nor explode.
        let roll = self.rng.gen_range(0u32..100);
        let visible = self.visible_keys(pi, planned);
        if roll < 50 && !visible.is_empty() && !self.profiles[pi].updates.is_empty() {
            // Update a random committed row through a random generator.
            let key = visible[self.rng.gen_range(0..visible.len())].clone();
            let ui = self.rng.gen_range(0..self.profiles[pi].updates.len());
            let cols = (self.profiles[pi].updates[ui])(&mut self.rng);
            db.update(txn, &name, &key, &cols)?;
            planned.push(Planned::Update(pi, key, cols));
        } else if roll < 75 && !visible.is_empty() {
            let key = visible[self.rng.gen_range(0..visible.len())].clone();
            db.delete(txn, &name, &key)?;
            planned.push(Planned::Delete(pi, key));
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            let row = (self.profiles[pi].gen_row)(seq, &mut self.rng);
            let key = db.insert(txn, &name, row.clone())?;
            planned.push(Planned::Insert(pi, key, row));
        }
        Ok(())
    }

    /// Keys of profile `pi` as this transaction sees them: committed
    /// model plus the transaction's own planned changes (so the txn
    /// never double-deletes or updates a row it already removed).
    fn visible_keys(&self, pi: usize, planned: &[Planned]) -> Vec<Key> {
        let mut keys: BTreeMap<Key, bool> =
            self.model[pi].keys().map(|k| (k.clone(), true)).collect();
        for p in planned {
            match p {
                Planned::Insert(i, k, _) if *i == pi => {
                    keys.insert(k.clone(), true);
                }
                Planned::Delete(i, k) if *i == pi => {
                    keys.remove(k);
                }
                _ => {}
            }
        }
        keys.into_keys().collect()
    }

    fn apply_plan(&mut self, planned: Vec<Planned>) {
        for p in planned {
            match p {
                Planned::Insert(i, k, row) => {
                    self.model[i].insert(k, row);
                }
                Planned::Update(i, k, cols) => {
                    if let Some(row) = self.model[i].get_mut(&k) {
                        for (col, val) in cols {
                            row[col] = val;
                        }
                    }
                }
                Planned::Delete(i, k) => {
                    self.model[i].remove(&k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::{ColumnType, Schema};
    use std::sync::Arc;

    fn profile() -> TableProfile {
        TableProfile {
            name: "W".into(),
            gen_row: Box::new(|seq, _| vec![Value::Int(seq as i64), Value::str("v0")]),
            updates: vec![Box::new(|rng: &mut StdRng| {
                vec![(1, Value::str(format!("v{}", rng.gen_range(0..1000))))]
            })],
        }
    }

    fn setup() -> Arc<Database> {
        let db = Arc::new(Database::new());
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .nullable("v", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("W", schema).unwrap();
        db
    }

    /// Read back a table's committed contents as pk → row.
    fn table_state(db: &Database, name: &str) -> BTreeMap<Key, Vec<Value>> {
        let t = db.catalog().get(name).unwrap();
        t.snapshot()
            .into_iter()
            .map(|(k, r)| (k, r.values))
            .collect()
    }

    #[test]
    fn model_tracks_database_exactly() {
        let db = setup();
        let mut w = StepWorkload::new(42, vec![profile()]);
        for _ in 0..200 {
            w.step(&db);
        }
        assert!(w.stats.committed > 0 && w.stats.rolled_back > 0);
        assert_eq!(*w.model("W").unwrap(), table_state(&db, "W"));
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let db = setup();
            let mut w = StepWorkload::new(seed, vec![profile()]);
            let outcomes: Vec<StepOutcome> = (0..100).map(|_| w.step(&db)).collect();
            (outcomes, table_state(&db, "W"))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn absorb_existing_rows_are_updatable() {
        let db = setup();
        let txn = db.begin();
        for i in 0..20 {
            db.insert(txn, "W", vec![Value::Int(i), Value::str("seed")])
                .unwrap();
        }
        db.commit(txn).unwrap();
        let mut w = StepWorkload::new(3, vec![profile()]);
        w.absorb_existing("W", table_state(&db, "W"));
        for _ in 0..100 {
            w.step(&db);
        }
        assert_eq!(*w.model("W").unwrap(), table_state(&db, "W"));
    }
}
