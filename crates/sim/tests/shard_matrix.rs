//! Shard-scoped kill matrix: crash ONE shard of a [`ShardedDatabase`]
//! mid-migration and demand the shared-nothing contract:
//!
//! * the surviving shards never notice — their migrations complete and
//!   their targets match an uninterrupted reference run bit-for-bit;
//! * the victim recovers from its own WAL alone (committed source rows
//!   survive exactly — the Theorem-1 oracle — and the in-flight job is
//!   rediscovered and resumed by the per-shard orchestrator);
//! * the re-assembled router converges to the uninterrupted run.
//!
//! A second matrix covers the **lazy** (SLSM-style) mode: the victim is
//! killed between catalog cutover and backfill completion — at the
//! cutover pause, inside an on-access touch, inside a backfill batch,
//! and during completion. After recovery the residual set is rebuilt
//! from scratch and the first on-access read must already serve the
//! correctly transformed row, before any backfill runs.

use morph_common::{ColumnType, DbError, DbResult, Key, Schema, TableId, Value};
use morph_core::SyncStrategy;
use morph_engine::{CrashHook, Database, ShardedDatabase};
use morph_orchestrator::{
    start_lazy_sharded, submit_sharded, Migration, MigrationSpec, Orchestrator,
};
use morph_sim::points::registry;
use morph_sim::{crash_and_recover, fault_db, sim_options};
use morph_wal::FaultHandle;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Minimal kill hook: dies the `occurrence`-th time execution passes
/// `point`; counts everything for later assertions.
struct KillHook {
    inner: Mutex<KillState>,
}

struct KillState {
    point: String,
    occurrence: usize,
    counts: BTreeMap<String, usize>,
    fired: bool,
}

impl KillHook {
    fn arm(point: &str, occurrence: usize) -> Arc<KillHook> {
        Arc::new(KillHook {
            inner: Mutex::new(KillState {
                point: point.to_owned(),
                occurrence,
                counts: BTreeMap::new(),
                fired: false,
            }),
        })
    }

    fn fired(&self) -> bool {
        self.inner.lock().fired
    }
}

impl CrashHook for KillHook {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        let Some(mut g) = self.inner.try_lock() else {
            return Ok(());
        };
        let n = {
            let c = g.counts.entry(point.to_owned()).or_insert(0);
            *c += 1;
            *c
        };
        if g.point == point && g.occurrence == n {
            g.fired = true;
            return Err(DbError::SimulatedCrash(format!("{point}#{n}")));
        }
        Ok(())
    }
}

const SHARDS: usize = 2;
const VICTIM: usize = 0;

fn union_schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .column("v", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn spec() -> MigrationSpec {
    Migration::union("r", "s", "u").build()
}

/// One fault-backed shard, with enough recorded to rebuild it after a
/// torn-WAL crash.
struct ShardUniverse {
    db: Arc<Database>,
    fault: FaultHandle,
    sources: Vec<(TableId, String, Schema)>,
}

struct RouterUniverse {
    sdb: ShardedDatabase,
    shards: Vec<ShardUniverse>,
    /// Committed per-shard source images at seed time, per table.
    models: Vec<BTreeMap<String, BTreeMap<Key, Vec<Value>>>>,
}

fn seed_rows(sdb: &ShardedDatabase) {
    for i in 0..24i64 {
        sdb.insert("r", vec![Value::Int(i), Value::Int(i * 10)])
            .unwrap();
        sdb.insert("s", vec![Value::Int(i), Value::Int(i * 100)])
            .unwrap();
    }
}

fn values_of(db: &Database, table: &str) -> DbResult<BTreeMap<Key, Vec<Value>>> {
    let t = db.catalog().get(table)?;
    Ok(t.snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values))
        .collect())
}

/// Router over `SHARDS` fault-backed engines, seeded through the
/// router exactly like the pristine reference.
fn build(seed: u64) -> RouterUniverse {
    let mut shards = Vec::with_capacity(SHARDS);
    for i in 0..SHARDS {
        let (db, fault) = fault_db(seed + i as u64);
        let mut sources = Vec::new();
        for name in ["r", "s"] {
            let t = db.create_table(name, union_schema()).unwrap();
            sources.push((t.id(), name.to_owned(), union_schema()));
        }
        shards.push(ShardUniverse { db, fault, sources });
    }
    let sdb = ShardedDatabase::from_parts(shards.iter().map(|s| Arc::clone(&s.db)).collect());
    seed_rows(&sdb);
    let models = shards
        .iter()
        .map(|s| {
            ["r", "s"]
                .iter()
                .map(|n| ((*n).to_owned(), values_of(&s.db, n).unwrap()))
                .collect()
        })
        .collect();
    RouterUniverse {
        sdb,
        shards,
        models,
    }
}

/// Tear the victim's WAL, rebuild a fresh engine, replay the durable
/// prefix — the other shards' processes are never involved.
fn recover_shard(u: &ShardUniverse) -> (Arc<Database>, Vec<morph_wal::LogRecord>) {
    let r = crash_and_recover(&u.db, &u.fault, &u.sources).unwrap();
    (r.db, r.durable)
}

/// Uninterrupted eager run over a pristine router with the same key
/// space: the per-shard target images every kill must converge to
/// (routing is a pure key hash, so shard assignment is identical).
fn reference_images() -> Vec<BTreeMap<Key, Vec<Value>>> {
    let sdb = ShardedDatabase::new(SHARDS);
    for name in ["r", "s"] {
        sdb.create_table(name, union_schema()).unwrap();
    }
    seed_rows(&sdb);
    let (_orchs, mig) =
        submit_sharded(&sdb, &spec(), &sim_options(SyncStrategy::NonBlockingAbort)).unwrap();
    mig.join().unwrap();
    sdb.shards()
        .iter()
        .map(|db| values_of(db, "u").unwrap())
        .collect()
}

/// Smallest `r`-key the victim shard owns (the probe for on-access
/// touches after recovery).
fn victim_r_id(u: &RouterUniverse) -> i64 {
    let key = u.models[VICTIM]["r"]
        .keys()
        .next()
        .expect("victim shard must own at least one r row");
    match key.values()[0] {
        Value::Int(i) => i,
        ref v => panic!("unexpected key type {v:?}"),
    }
}

fn target_key(tag: &str, id: i64) -> Key {
    Key::new([Value::str(tag), Value::Int(id)])
}

/// Eager matrix: kill the victim shard at every registered
/// orchestrator state-machine transition; the survivor finishes, the
/// victim recovers and resumes from its own WAL, the router converges.
#[test]
fn shard_kill_recovers_and_router_converges() {
    let reference = reference_images();
    let points: Vec<String> = registry()
        .points
        .iter()
        .map(|p| p.name.clone())
        .filter(|n| n.starts_with("orchestrator.") && n != "orchestrator.aborted")
        .collect();
    assert!(!points.is_empty(), "registry lost the orchestrator points");
    for point in points {
        let u = build(17);
        let hook = KillHook::arm(&point, 1);
        u.shards[VICTIM].db.set_crash_hook(hook.clone());

        let (_orchs, mig) = submit_sharded(
            &u.sdb,
            &spec(),
            &sim_options(SyncStrategy::NonBlockingAbort),
        )
        .unwrap();
        let err = mig.join().expect_err("armed kill must surface");
        assert!(
            matches!(err, DbError::SimulatedCrash(_)),
            "{point}: unexpected error {err}"
        );
        assert!(hook.fired(), "{point}: kill never fired");
        u.shards[VICTIM].db.clear_crash_hook();

        // The survivor never noticed: its own migration completed and
        // matches the uninterrupted run.
        assert_eq!(
            values_of(&u.shards[1].db, "u").unwrap(),
            reference[1],
            "{point}: survivor shard diverged"
        );

        // Victim: recover from its own WAL alone. Theorem-1 oracle —
        // every committed source row survives exactly.
        let (db2, durable) = recover_shard(&u.shards[VICTIM]);
        for (name, want) in &u.models[VICTIM] {
            assert_eq!(
                &values_of(&db2, name).unwrap(),
                want,
                "{point}: committed {name} rows lost on the victim"
            );
        }
        let states = Orchestrator::scan_states(&durable);
        assert_eq!(states.len(), 1, "{point}: expected one in-flight job");
        let orch2 = Orchestrator::new(Arc::clone(&db2));
        let handles = orch2
            .recover(&durable, &sim_options(SyncStrategy::NonBlockingAbort))
            .unwrap();
        assert_eq!(handles.len(), 1, "{point}: resume must relaunch the job");
        handles.into_iter().next().unwrap().join().unwrap();

        // The re-assembled router converges to the uninterrupted run.
        let sdb2 = ShardedDatabase::from_parts(vec![Arc::clone(&db2), Arc::clone(&u.shards[1].db)]);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(
                &values_of(sdb2.shard(i), "u").unwrap(),
                want,
                "{point}: shard {i} diverged after recovery"
            );
        }
    }
}

/// A kill during fan-out planning (`router.shard_plan`, first shard)
/// starts nothing anywhere; a clean re-submit converges.
#[test]
fn fanout_kill_starts_nothing_and_resubmits_cleanly() {
    let reference = reference_images();
    let u = build(19);
    let hook = KillHook::arm("router.shard_plan", 1);
    u.shards[0].db.set_crash_hook(hook.clone());
    let err = match submit_sharded(
        &u.sdb,
        &spec(),
        &sim_options(SyncStrategy::NonBlockingAbort),
    ) {
        Err(e) => e,
        Ok(_) => panic!("fan-out kill must surface"),
    };
    assert!(matches!(err, DbError::SimulatedCrash(_)));
    assert!(hook.fired());
    u.shards[0].db.clear_crash_hook();

    for (i, s) in u.shards.iter().enumerate() {
        assert!(
            s.db.catalog().get("u").is_err(),
            "shard {i}: no shard may have started"
        );
    }
    let (_orchs, mig) = submit_sharded(
        &u.sdb,
        &spec(),
        &sim_options(SyncStrategy::NonBlockingAbort),
    )
    .unwrap();
    mig.join().unwrap();
    for (i, want) in reference.iter().enumerate() {
        assert_eq!(&values_of(u.sdb.shard(i), "u").unwrap(), want, "shard {i}");
    }
}

/// Lazy matrix: kill the victim between catalog cutover and backfill
/// completion. After recovery the residual set is rebuilt, the first
/// on-access read serves the correctly transformed row before any
/// backfill, and both shards converge to the uninterrupted reference.
#[test]
fn lazy_shard_kill_between_cutover_and_backfill_recovers() {
    let reference = reference_images();
    for point in [
        "router.lazy_cutover",
        "router.lazy_touch",
        "router.backfill_batch",
        "router.lazy_done",
    ] {
        let u = build(23);
        let hook = KillHook::arm(point, 1);
        u.shards[VICTIM].db.set_crash_hook(hook.clone());

        // Drive lazy mode until the armed kill surfaces. Pre-crash
        // activity is reads/touches only — in lazy mode target state
        // is rebuilt from the frozen sources, never from the WAL.
        let survivor_started = if point == "router.lazy_cutover" {
            // The victim is first in the fan-out: its cutover dies
            // before the survivor is ever reached.
            let err = match start_lazy_sharded(&u.sdb, &spec()) {
                Err(e) => e,
                Ok(_) => panic!("cutover kill must surface"),
            };
            assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
            false
        } else {
            let mig = start_lazy_sharded(&u.sdb, &spec()).unwrap();
            let err = match point {
                "router.lazy_touch" => {
                    // The first on-access touch dies inside the
                    // record transform.
                    let id = victim_r_id(&u);
                    let txn = u.shards[VICTIM].db.begin();
                    let e = u.shards[VICTIM]
                        .db
                        .read(txn, "u", &target_key("r", id))
                        .expect_err("touch kill");
                    let _ = u.shards[VICTIM].db.abort(txn);
                    e
                }
                "router.backfill_batch" => mig.shards()[VICTIM]
                    .backfill(4, 1.0)
                    .expect_err("backfill kill"),
                "router.lazy_done" => {
                    mig.shards()[VICTIM].drain_now().unwrap();
                    mig.shards()[VICTIM].finish().expect_err("finish kill")
                }
                _ => unreachable!(),
            };
            assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
            // The survivor shard drains and finishes, unaffected.
            mig.shards()[1 - VICTIM].drain_now().unwrap();
            mig.shards()[1 - VICTIM].finish().unwrap();
            true
        };
        assert!(hook.fired(), "{point}: kill never fired");
        u.shards[VICTIM].db.clear_crash_hook();

        // Victim: tear + recover. Theorem-1 oracle on the sources; any
        // recovered target shell is dropped before the re-run (its
        // contents never reach the WAL).
        let (db2, _durable) = recover_shard(&u.shards[VICTIM]);
        for (name, want) in &u.models[VICTIM] {
            assert_eq!(
                &values_of(&db2, name).unwrap(),
                want,
                "{point}: committed {name} rows lost on the victim"
            );
        }
        if db2.catalog().get("u").is_ok() {
            db2.catalog().drop_table("u").unwrap();
        }

        // Re-run lazy on the recovered victim: cutover rebuilds the
        // residual from the recovered sources.
        let victim_router = ShardedDatabase::from_parts(vec![Arc::clone(&db2)]);
        let mig2 = start_lazy_sharded(&victim_router, &spec()).unwrap();

        // On-access before any backfill: the very first read must
        // already serve the correctly transformed row.
        let key = target_key("r", victim_r_id(&u));
        let txn = db2.begin();
        let row = db2.read(txn, "u", &key).unwrap().unwrap();
        db2.commit(txn).unwrap();
        assert_eq!(
            Some(&row),
            reference[VICTIM].get(&key),
            "{point}: on-access row wrong after recovery"
        );
        mig2.drain_now().unwrap();
        mig2.finish().unwrap();

        if !survivor_started {
            let survivor_router = ShardedDatabase::from_parts(vec![Arc::clone(&u.shards[1].db)]);
            let m = start_lazy_sharded(&survivor_router, &spec()).unwrap();
            m.drain_now().unwrap();
            m.finish().unwrap();
        }

        assert_eq!(
            values_of(&db2, "u").unwrap(),
            reference[VICTIM],
            "{point}: victim diverged after lazy recovery"
        );
        assert_eq!(
            values_of(&u.shards[1].db, "u").unwrap(),
            reference[1 - VICTIM],
            "{point}: survivor diverged"
        );
    }
}
