//! Migration kill matrix: kill a migration driven through the
//! orchestrator and the shard router at every `orchestrator.*`
//! transition and every `router.*` point in the checked-in crash-point
//! registry, recover the killed shard from its own torn WAL, and demand
//! the §3.5 resume contract:
//!
//! * committed source data survives exactly (no lost updates — target
//!   writes bypass the log, so only orchestrator bookkeeping sits in
//!   the torn tail);
//! * the other shards never notice: their migrations complete and
//!   their targets match an uninterrupted run;
//! * [`Orchestrator::scan_states`] rediscovers the in-flight job from
//!   the durable `MigrationState` records, and
//!   [`Orchestrator::recover`] re-executes any non-`Aborted` job from
//!   preparation and converges to the uninterrupted run, while a
//!   durably `Aborted` job stays dead (no handle, no target stragglers);
//! * in lazy mode the residual set is rebuilt after recovery and the
//!   first on-access read already serves the correctly transformed
//!   row, before any backfill runs.
//!
//! The transition matrix has two rows: split on a one-shard router
//! (the single-engine orchestrator: `submit_sharded` over one shard is
//! `Orchestrator::submit` plus the `router.shard_plan` point) and union
//! on two shards. The registry decides what gets killed
//! ([`swept_by`]), so a new transition or router point joins the
//! matrix the moment it is registered.

use morph_common::{ColumnType, DbError, Key, Schema, TableId, Value};
use morph_core::split::example1_schema;
use morph_core::SyncStrategy;
use morph_core::TransformOptions;
use morph_engine::{Database, ShardedDatabase};
use morph_orchestrator::{
    start_lazy_sharded, submit_sharded, Migration, MigrationSpec, Orchestrator,
};
use morph_sim::{crash_and_recover, fault_db, sim_options, swept_by, KillHook, Sweep};
use morph_wal::{FaultHandle, MigrationPhase};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The shard every kill lands on; the others are survivors.
const VICTIM: usize = 0;

/// Table name → key → values.
type Tables = BTreeMap<String, BTreeMap<Key, Vec<Value>>>;

fn options() -> TransformOptions {
    sim_options(SyncStrategy::NonBlockingAbort)
}

#[derive(Clone, Copy, Debug)]
enum Row {
    /// Example 1's customer split on one shard.
    Split,
    /// Union of two part tables on two shards.
    Union,
}

impl Row {
    fn shards(self) -> usize {
        match self {
            Row::Split => 1,
            Row::Union => 2,
        }
    }

    fn sources(self) -> Vec<(&'static str, Schema)> {
        match self {
            Row::Split => vec![("C", example1_schema())],
            Row::Union => {
                let part = Schema::builder()
                    .column("id", ColumnType::Int)
                    .column("v", ColumnType::Int)
                    .primary_key(&["id"])
                    .build()
                    .unwrap();
                vec![("r", part.clone()), ("s", part)]
            }
        }
    }

    fn spec(self) -> MigrationSpec {
        match self {
            Row::Split => Migration::split(
                "C",
                "CR",
                "CS",
                &["customer_id", "name", "postal_code"],
                "postal_code",
                &["city"],
            )
            .build(),
            Row::Union => Migration::union("r", "s", "u").build(),
        }
    }

    fn seed_rows(self, sdb: &ShardedDatabase) {
        for i in 0..24i64 {
            match self {
                Row::Split => {
                    let code = i % 6;
                    let row = vec![
                        Value::Int(i),
                        Value::str(format!("n{i}")),
                        Value::str(format!("p{code}")),
                        Value::str(format!("city{code}")),
                    ];
                    sdb.insert("C", row).unwrap();
                }
                Row::Union => {
                    sdb.insert("r", vec![Value::Int(i), Value::Int(i * 10)])
                        .unwrap();
                    sdb.insert("s", vec![Value::Int(i), Value::Int(i * 100)])
                        .unwrap();
                }
            }
        }
    }

    fn source_tables(self, db: &Database) -> Tables {
        tables(
            db,
            self.sources().into_iter().map(|(name, _)| name.to_owned()),
        )
    }

    fn target_tables(self, db: &Database) -> Tables {
        tables(db, self.spec().final_targets())
    }
}

fn tables(db: &Database, names: impl IntoIterator<Item = String>) -> Tables {
    names
        .into_iter()
        .map(|name| {
            let rows = db.catalog().get(&name).unwrap().snapshot();
            (name, rows.into_iter().map(|(k, r)| (k, r.values)).collect())
        })
        .collect()
}

/// One fault-backed shard, with enough recorded to rebuild it after a
/// torn-WAL crash.
struct Shard {
    db: Arc<Database>,
    fault: FaultHandle,
    sources: Vec<(TableId, String, Schema)>,
}

struct Universe {
    sdb: ShardedDatabase,
    shards: Vec<Shard>,
    /// Committed per-shard source images at seed time.
    models: Vec<Tables>,
}

/// A router over fault-backed shards, seeded exactly like the pristine
/// reference.
fn build(row: Row, seed: u64) -> Universe {
    let shards: Vec<Shard> = (0..row.shards())
        .map(|i| {
            let (db, fault) = fault_db(seed + i as u64);
            let sources = row
                .sources()
                .into_iter()
                .map(|(name, schema)| {
                    let t = db.create_table(name, schema.clone()).unwrap();
                    (t.id(), name.to_owned(), schema)
                })
                .collect();
            Shard { db, fault, sources }
        })
        .collect();
    let sdb = ShardedDatabase::from_parts(shards.iter().map(|s| Arc::clone(&s.db)).collect());
    row.seed_rows(&sdb);
    let models = shards.iter().map(|s| row.source_tables(&s.db)).collect();
    Universe {
        sdb,
        shards,
        models,
    }
}

/// Per-shard targets of an uninterrupted eager run over a pristine
/// router with the same key space (routing is a pure key hash, so
/// shard assignment is identical).
fn reference(row: Row) -> Vec<Tables> {
    let sdb = ShardedDatabase::new(row.shards());
    for (name, schema) in row.sources() {
        sdb.create_table(name, schema).unwrap();
    }
    row.seed_rows(&sdb);
    let (_orchs, mig) = submit_sharded(&sdb, &row.spec(), &options()).unwrap();
    mig.join().unwrap();
    sdb.shards()
        .iter()
        .map(|db| row.target_tables(db))
        .collect()
}

/// Tear `shard`'s WAL, rebuild a fresh engine, replay the durable
/// prefix — the other shards are never involved.
fn recover(shard: &Shard) -> (Arc<Database>, Vec<morph_wal::LogRecord>) {
    let r = crash_and_recover(&shard.db, &shard.fault, &shard.sources).unwrap();
    (r.db, r.durable)
}

#[test]
fn registry_lists_every_state_machine_transition() {
    let pts = swept_by(Sweep::Orchestrator);
    for phase in [
        "planned",
        "preparing",
        "copying",
        "propagating",
        "syncing",
        "cutover",
    ] {
        assert!(
            pts.iter()
                .any(|p| p.name == format!("orchestrator.{phase}")),
            "orchestrator.{phase} missing from crash_points.txt"
        );
    }
}

/// The matrix proper: kill the victim at every registered transition
/// the happy path reaches (`orchestrator.aborted` needs a failing
/// stage: the abort tests below), recover, resume, converge.
#[test]
fn migration_survives_kills_at_every_transition() {
    for (row, seed) in [(Row::Split, 7), (Row::Union, 17)] {
        let reference = reference(row);
        for point in swept_by(Sweep::Orchestrator) {
            let point = point.name.as_str();
            if point == "orchestrator.aborted" {
                continue;
            }
            let u = build(row, seed);
            let victim = &u.shards[VICTIM];
            let hook = KillHook::arm(point, 1);
            victim.db.set_crash_hook(hook.clone());
            let (_orchs, mig) = submit_sharded(&u.sdb, &row.spec(), &options()).unwrap();
            let err = mig.join().expect_err("armed kill must surface");
            assert!(
                matches!(err, DbError::SimulatedCrash(_)) && hook.fired(),
                "{row:?} {point}: unexpected error {err}"
            );
            victim.db.clear_crash_hook();

            // The survivors never noticed: their own migrations
            // completed and match the uninterrupted run.
            for (i, shard) in u.shards.iter().enumerate().skip(1) {
                assert_eq!(
                    row.target_tables(&shard.db),
                    reference[i],
                    "{row:?} {point}: survivor shard {i} diverged"
                );
            }

            // The victim recovers from its own WAL alone: every
            // committed source row survives, no target write does.
            let (db2, durable) = recover(victim);
            assert_eq!(
                row.source_tables(&db2),
                u.models[VICTIM],
                "{row:?} {point}: committed source rows lost"
            );
            for target in row.spec().final_targets() {
                assert!(
                    db2.catalog().get(&target).is_err(),
                    "{row:?} {point}: {target} must not survive a crash"
                );
            }

            // The durable state records rediscover the job; resume
            // re-runs it from preparation.
            let states = Orchestrator::scan_states(&durable);
            assert_eq!(states.len(), 1, "{row:?} {point}: expected one job");
            assert_ne!(
                states[0].phase,
                MigrationPhase::Aborted,
                "{row:?} {point}: happy-path kill must not look aborted"
            );
            let handles = Orchestrator::new(Arc::clone(&db2))
                .recover(&durable, &options())
                .unwrap();
            assert_eq!(handles.len(), 1, "{row:?} {point}: resume must relaunch");
            let reports = handles.into_iter().next().unwrap().join().unwrap();
            assert_eq!(reports.len(), 1, "{row:?} {point}: one stage, one report");

            // Every shard converges to the uninterrupted run, and
            // retain_sources (set in sim_options) keeps the frozen
            // sources inspectable after cutover.
            let dbs = std::iter::once(&db2).chain(u.shards.iter().skip(1).map(|s| &s.db));
            for (i, db) in dbs.enumerate() {
                assert_eq!(
                    row.target_tables(db),
                    reference[i],
                    "{row:?} {point}: shard {i} diverged after resume"
                );
                assert_eq!(row.source_tables(db), u.models[i]);
            }
        }
    }
}

/// A spec whose second stage cannot prepare (unknown table): stage 1
/// cuts over, stage 2 fails, and the orchestrator takes the clean
/// abort path — the deterministic way to reach `orchestrator.aborted`.
fn doomed_spec() -> MigrationSpec {
    Migration::split(
        "C",
        "CR",
        "CS",
        &["customer_id", "name", "postal_code"],
        "postal_code",
        &["city"],
    )
    .then_union("CR", "NO_SUCH_TABLE", "U")
    .build()
}

/// A clean (non-crash) failure durably records `Aborted`, and resume
/// leaves the job dead with no target stragglers.
#[test]
fn aborted_job_stays_dead_across_recovery() {
    let u = build(Row::Split, 11);
    let victim = &u.shards[VICTIM];
    let orch = Orchestrator::new(Arc::clone(&victim.db));
    let err = orch
        .submit(doomed_spec(), options())
        .unwrap()
        .join()
        .expect_err("stage 2 must fail to prepare");
    assert!(
        !matches!(err, DbError::SimulatedCrash(_)),
        "clean failure expected, got {err}"
    );

    let (db2, durable) = recover(victim);
    let states = Orchestrator::scan_states(&durable);
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].phase, MigrationPhase::Aborted);
    assert_eq!(states[0].stage, 1, "the failing stage is recorded");

    let orch2 = Orchestrator::new(Arc::clone(&db2));
    let handles = orch2.recover(&durable, &options()).unwrap();
    assert!(handles.is_empty(), "aborted jobs must not resume");
    for target in ["CR", "CS", "U"] {
        assert!(
            db2.catalog().get(target).is_err(),
            "{target}: aborted migration left a straggler"
        );
    }
    assert_eq!(Row::Split.source_tables(&db2), u.models[VICTIM]);

    // The id space moves past the dead job: a fresh submission on the
    // recovered database must not collide with it.
    let fresh = orch2.submit(Row::Split.spec(), options()).unwrap();
    assert!(fresh.id() > states[0].job);
    fresh.join().unwrap();
}

/// Kill *during* the abort conclusion (`orchestrator.aborted`): the
/// durable state may or may not include the Aborted record depending
/// on what the tear kept, but either way recovery plus resume must end
/// in a consistent state — dead-and-clean, or re-run-and-converged.
#[test]
fn kill_during_abort_conclusion_recovers_consistently() {
    let u = build(Row::Split, 13);
    let victim = &u.shards[VICTIM];
    let hook = KillHook::arm("orchestrator.aborted", 1);
    victim.db.set_crash_hook(hook.clone());
    let err = Orchestrator::new(Arc::clone(&victim.db))
        .submit(doomed_spec(), options())
        .unwrap()
        .join()
        .expect_err("kill must surface");
    assert!(matches!(err, DbError::SimulatedCrash(_)));
    assert!(hook.fired());
    victim.db.clear_crash_hook();

    let (db2, durable) = recover(victim);
    assert_eq!(Row::Split.source_tables(&db2), u.models[VICTIM]);

    let handles = Orchestrator::new(Arc::clone(&db2))
        .recover(&durable, &options())
        .unwrap();
    match handles.len() {
        // Aborted record made it into the durable prefix: dead.
        0 => {
            for target in ["CR", "CS", "U"] {
                assert!(db2.catalog().get(target).is_err());
            }
        }
        // Tear ate the Aborted record: the job resumes and hits the
        // same deterministic stage-2 failure, concluding cleanly.
        1 => {
            let err = handles
                .into_iter()
                .next()
                .unwrap()
                .join()
                .expect_err("stage 2 fails again on resume");
            assert!(!matches!(err, DbError::SimulatedCrash(_)));
        }
        n => panic!("expected 0 or 1 resumed jobs, got {n}"),
    }
}

/// A kill during fan-out planning (`router.shard_plan`, first shard)
/// starts nothing anywhere; a clean re-submit converges.
#[test]
fn fanout_kill_starts_nothing_and_resubmits_cleanly() {
    let reference = reference(Row::Union);
    let u = build(Row::Union, 19);
    let hook = KillHook::arm("router.shard_plan", 1);
    u.shards[VICTIM].db.set_crash_hook(hook.clone());
    let err = match submit_sharded(&u.sdb, &Row::Union.spec(), &options()) {
        Err(e) => e,
        Ok(_) => panic!("fan-out kill must surface"),
    };
    assert!(matches!(err, DbError::SimulatedCrash(_)));
    assert!(hook.fired());
    u.shards[VICTIM].db.clear_crash_hook();

    for (i, s) in u.shards.iter().enumerate() {
        assert!(
            s.db.catalog().get("u").is_err(),
            "shard {i}: no shard may have started"
        );
    }
    let (_orchs, mig) = submit_sharded(&u.sdb, &Row::Union.spec(), &options()).unwrap();
    mig.join().unwrap();
    for (i, want) in reference.iter().enumerate() {
        assert_eq!(&Row::Union.target_tables(u.sdb.shard(i)), want, "shard {i}");
    }
}

/// Smallest `r`-key the victim shard owns (the probe for on-access
/// touches after recovery).
fn victim_r_id(u: &Universe) -> i64 {
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

/// Lazy matrix: kill the victim at every `router.*` point — during
/// fan-out, at the cutover pause, inside an on-access touch, inside a
/// backfill batch, at completion. After recovery the residual set is
/// rebuilt, the first on-access read serves the correctly transformed
/// row before any backfill, and both shards converge to the
/// uninterrupted reference.
#[test]
fn lazy_shard_kill_between_cutover_and_backfill_recovers() {
    let row = Row::Union;
    let reference = reference(row);
    let survivor = 1 - VICTIM;
    for point in swept_by(Sweep::Router) {
        let point = point.name.as_str();
        let u = build(row, 23);
        let victim = &u.shards[VICTIM];
        let hook = KillHook::arm(point, 1);
        victim.db.set_crash_hook(hook.clone());

        // Drive lazy mode until the armed kill surfaces. Pre-crash
        // activity is reads/touches only — in lazy mode target state
        // is rebuilt from the frozen sources, never from the WAL.
        let survivor_started = match start_lazy_sharded(&u.sdb, &row.spec()) {
            // The victim is first in the fan-out: a kill while planning
            // or cutting it over surfaces before the survivor is
            // reached.
            Err(err) => {
                assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
                false
            }
            Ok(mig) => {
                let err = match point {
                    "router.lazy_touch" => {
                        // The first on-access touch dies inside the
                        // record transform.
                        let txn = victim.db.begin();
                        let key = target_key("r", victim_r_id(&u));
                        let e = victim.db.read(txn, "u", &key).expect_err("touch kill");
                        let _ = victim.db.abort(txn);
                        e
                    }
                    "router.backfill_batch" => mig.shards()[VICTIM]
                        .backfill(4, 1.0)
                        .expect_err("backfill kill"),
                    "router.lazy_done" => {
                        mig.shards()[VICTIM].drain_now().unwrap();
                        mig.shards()[VICTIM].finish().expect_err("finish kill")
                    }
                    other => panic!("{other}: no lazy driver reaches this point"),
                };
                assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
                // The survivor shard drains and finishes, unaffected.
                mig.shards()[survivor].drain_now().unwrap();
                mig.shards()[survivor].finish().unwrap();
                true
            }
        };
        assert!(hook.fired(), "{point}: kill never fired");
        victim.db.clear_crash_hook();

        // Victim: tear + recover. Theorem-1 oracle on the sources; any
        // recovered target shell is dropped before the re-run (its
        // contents never reach the WAL).
        let (db2, _durable) = recover(victim);
        assert_eq!(
            row.source_tables(&db2),
            u.models[VICTIM],
            "{point}: committed source rows lost on the victim"
        );
        if db2.catalog().get("u").is_ok() {
            db2.catalog().drop_table("u").unwrap();
        }

        // Re-run lazy on the recovered victim: cutover rebuilds the
        // residual from the recovered sources.
        let victim_router = ShardedDatabase::from_parts(vec![Arc::clone(&db2)]);
        let mig2 = start_lazy_sharded(&victim_router, &row.spec()).unwrap();

        // On-access before any backfill: the very first read must
        // already serve the correctly transformed row.
        let key = target_key("r", victim_r_id(&u));
        let txn = db2.begin();
        let got = db2.read(txn, "u", &key).unwrap().unwrap();
        db2.commit(txn).unwrap();
        assert_eq!(
            Some(&got),
            reference[VICTIM]["u"].get(&key),
            "{point}: on-access row wrong after recovery"
        );
        mig2.drain_now().unwrap();
        mig2.finish().unwrap();

        if !survivor_started {
            let survivor_router =
                ShardedDatabase::from_parts(vec![Arc::clone(&u.shards[survivor].db)]);
            let m = start_lazy_sharded(&survivor_router, &row.spec()).unwrap();
            m.drain_now().unwrap();
            m.finish().unwrap();
        }

        assert_eq!(
            row.target_tables(&db2),
            reference[VICTIM],
            "{point}: victim diverged after lazy recovery"
        );
        assert_eq!(
            row.target_tables(&u.shards[survivor].db),
            reference[survivor],
            "{point}: survivor diverged"
        );
    }
}
