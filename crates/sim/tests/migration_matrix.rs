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
//! * in lazy mode ([`SyncStrategy::Lazy`], through the same
//!   `submit_sharded` and recovery) the resumed job cuts over again
//!   over the recovered sources, and an on-access read after that
//!   cutover already serves the correctly transformed row.
//!
//! The transition matrix has two rows: split on a one-shard router
//! (the single-engine orchestrator: `submit_sharded` over one shard is
//! `Orchestrator::submit` plus the `router.shard_plan` point) and union
//! on two shards. The registry decides what gets killed
//! ([`swept_by`]), so a new transition or router point joins the
//! matrix the moment it is registered.

use morph_common::{ColumnType, DbError, DbResult, Key, Schema, TableId, Value};
use morph_core::split::example1_schema;
use morph_core::SyncStrategy;
use morph_core::TransformOptions;
use morph_engine::{CrashHook, Database, ShardedDatabase};
use morph_orchestrator::{submit_sharded, Migration, MigrationHandle, MigrationSpec, Orchestrator};
use morph_sim::{crash_and_recover, fault_db, sim_options, swept_by, KillHook, Sweep};
use morph_wal::{FaultHandle, MigrationPhase};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
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
    let mig = submit_sharded(&sdb, &row.spec(), &options()).unwrap();
    mig.join().unwrap();
    sdb.shards()
        .iter()
        .map(|db| row.target_tables(db))
        .collect()
}

/// Tear `shard`'s WAL, rebuild a fresh engine on the durable prefix
/// and recover it from that log — the other shards are never involved.
fn recover(shard: &Shard) -> Arc<Database> {
    crash_and_recover(&shard.db, &shard.fault, &shard.sources)
        .unwrap()
        .db
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
            let mig = submit_sharded(&u.sdb, &row.spec(), &options()).unwrap();
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
            let db2 = recover(victim);
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
            let orch = Orchestrator::new(Arc::clone(&db2));
            let states = orch.scan_states().unwrap();
            assert_eq!(states.len(), 1, "{row:?} {point}: expected one job");
            assert_ne!(
                states[0].phase,
                MigrationPhase::Aborted,
                "{row:?} {point}: happy-path kill must not look aborted"
            );
            let handles = orch.recover(&options()).unwrap();
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

    let db2 = recover(victim);
    let orch2 = Orchestrator::new(Arc::clone(&db2));
    let states = orch2.scan_states().unwrap();
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].phase, MigrationPhase::Aborted);
    assert_eq!(states[0].stage, 1, "the failing stage is recorded");

    let handles = orch2.recover(&options()).unwrap();
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

    let db2 = recover(victim);
    assert_eq!(Row::Split.source_tables(&db2), u.models[VICTIM]);

    let handles = Orchestrator::new(Arc::clone(&db2))
        .recover(&options())
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

/// A kill during fan-out planning (`router.shard_plan`, at the first
/// shard or a later one) starts nothing anywhere: the claims the
/// earlier shards took are released before any job launched. A clean
/// re-submit converges.
#[test]
fn fanout_kill_starts_nothing_and_resubmits_cleanly() {
    let reference = reference(Row::Union);
    for killed in [VICTIM, 1] {
        let u = build(Row::Union, 19);
        let hook = KillHook::arm("router.shard_plan", 1);
        u.shards[killed].db.set_crash_hook(hook.clone());
        let err = match submit_sharded(&u.sdb, &Row::Union.spec(), &options()) {
            Err(e) => e,
            Ok(_) => panic!("fan-out kill must surface"),
        };
        assert!(matches!(err, DbError::SimulatedCrash(_)));
        assert!(hook.fired());
        u.shards[killed].db.clear_crash_hook();

        let t0 = std::time::Instant::now();
        while !u.shards[0].db.migrations().active_jobs().is_empty() {
            assert!(t0.elapsed() < std::time::Duration::from_secs(30));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for (i, s) in u.shards.iter().enumerate() {
            assert!(
                s.db.catalog().get("u").is_err(),
                "kill at shard {killed}: shard {i} started anyway"
            );
        }
        let mig = submit_sharded(&u.sdb, &Row::Union.spec(), &options()).unwrap();
        mig.join().unwrap();
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&Row::Union.target_tables(u.sdb.shard(i)), want, "shard {i}");
        }
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

/// Wait until `handle`'s job has cut over (lazy: reached its copy
/// phase) or ended.
fn await_cutover(handle: &MigrationHandle) {
    let t0 = std::time::Instant::now();
    while matches!(
        handle.progress().phase(),
        MigrationPhase::Planned | MigrationPhase::Preparing | MigrationPhase::Syncing
    ) && !handle.is_finished()
    {
        assert!(t0.elapsed() < std::time::Duration::from_secs(30));
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The lazy cell's hook: holds every backfill batch until released, so
/// nothing is backfilled before the test's own reads, and kills at the
/// armed point. Once the kill has fired every later point dies too:
/// the process is dead, its worker included.
struct HeldKill {
    kill: Arc<KillHook>,
    held: AtomicBool,
}

impl HeldKill {
    fn arm(point: &str) -> Arc<HeldKill> {
        Arc::new(HeldKill {
            kill: KillHook::arm(point, 1),
            held: AtomicBool::new(true),
        })
    }

    fn release(&self) {
        self.held.store(false, Ordering::SeqCst);
    }
}

impl CrashHook for HeldKill {
    fn at(&self, db: &Database, point: &str) -> DbResult<()> {
        while point == "router.backfill_batch" && self.held.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if self.kill.fired() {
            return Err(DbError::SimulatedCrash(format!("{point} after the kill")));
        }
        self.kill.at(db, point)
    }
}

/// Read `key` of `u` through the lazy hook on `db`.
fn read_u(db: &Database, key: &Key) -> DbResult<Option<Vec<Value>>> {
    let txn = db.begin();
    let got = db.read(txn, "u", key);
    let _ = db.abort(txn);
    got
}

/// Lazy matrix: the union row under [`SyncStrategy::Lazy`], driven by
/// `submit_sharded` and killed on the victim at every `router.*` point
/// — during fan-out, at the cutover pause, inside a client's on-access
/// read, inside a backfill batch, at completion — and at every
/// `orchestrator.*` transition the lazy order reaches. The victim's
/// backfill is held at its first batch until the test releases it.
/// After recovery [`Orchestrator::scan_states`] finds the lazy job,
/// [`Orchestrator::recover`] re-runs it lazily, the first read after
/// its cutover serves the correctly transformed row before any
/// backfill runs, and both shards converge to the uninterrupted eager
/// reference.
#[test]
fn lazy_shard_kill_between_cutover_and_backfill_recovers() {
    let row = Row::Union;
    let reference = reference(row);
    let lazy = sim_options(SyncStrategy::Lazy);
    let survivor = 1 - VICTIM;
    let points = swept_by(Sweep::Router)
        .into_iter()
        .chain(swept_by(Sweep::Orchestrator))
        .map(|p| p.name.as_str())
        // The lazy order has no propagation phase, and the happy path
        // never aborts.
        .filter(|p| !matches!(*p, "orchestrator.propagating" | "orchestrator.aborted"));
    for point in points {
        let u = build(row, 23);
        let victim = &u.shards[VICTIM];
        let key = target_key("r", victim_r_id(&u));
        let hook = HeldKill::arm(point);
        victim.db.set_crash_hook(hook.clone());

        // Only a kill while claiming fails the fan-out itself, and it
        // starts nothing anywhere; any later kill surfaces from the
        // victim's worker, and the survivor completes on its own.
        let survivor_done = match submit_sharded(&u.sdb, &row.spec(), &lazy) {
            Err(err) => {
                assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
                false
            }
            Ok(mig) => {
                if point == "router.lazy_touch" {
                    // The victim has cut over and waits at its first
                    // batch: the client's read dies inside its touch.
                    let handle = &mig.handles()[VICTIM].1;
                    await_cutover(handle);
                    assert!(!handle.is_finished(), "{point}: victim never cut over");
                    let err = read_u(&victim.db, &key).expect_err("touch kill");
                    assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
                }
                hook.release();
                let err = mig.join().expect_err("armed kill must surface");
                assert!(matches!(err, DbError::SimulatedCrash(_)), "{point}: {err}");
                true
            }
        };
        assert!(hook.kill.fired(), "{point}: kill never fired");
        victim.db.clear_crash_hook();
        let survivor_db = &u.shards[survivor].db;
        if survivor_done {
            assert_eq!(
                row.target_tables(survivor_db),
                reference[survivor],
                "{point}: survivor diverged"
            );
        }

        // Victim: tear + recover. Theorem-1 oracle on the sources; no
        // target survives (its contents never reach the WAL).
        let db2 = recover(victim);
        assert_eq!(
            row.source_tables(&db2),
            u.models[VICTIM],
            "{point}: committed source rows lost on the victim"
        );
        assert!(db2.catalog().get("u").is_err(), "{point}: u survived");

        // The durable state records rediscover the lazy job, and
        // recovery re-runs it from preparation, lazily, its backfill
        // held again.
        let orch = Orchestrator::new(Arc::clone(&db2));
        let states = orch.scan_states().unwrap();
        let held = HeldKill::arm("no kill");
        db2.set_crash_hook(held.clone());
        let handles = orch.recover(&lazy).unwrap();
        if survivor_done {
            assert_eq!(states.len(), 1, "{point}: expected one job");
            assert_ne!(states[0].phase, MigrationPhase::Aborted, "{point}");
            assert_eq!(handles.len(), 1, "{point}: resume must relaunch");
            let handle = handles.into_iter().next().unwrap();

            // The first read after the resumed cutover, before any
            // backfill, transforms and serves the row it asks for, and
            // only that row.
            await_cutover(&handle);
            assert!(!handle.is_finished(), "{point}: resumed job never cut over");
            let got = read_u(&db2, &key).unwrap();
            assert_eq!(
                got.as_ref(),
                reference[VICTIM]["u"].get(&key),
                "{point}: on-access row wrong after recovery"
            );
            assert_eq!(db2.catalog().get("u").unwrap().len(), 1, "{point}");
            held.release();
            let reports = handle.join().unwrap();
            assert_eq!(reports.len(), 1, "{point}: one stage, one report");
            assert_eq!(reports[0].sync.strategy, SyncStrategy::Lazy);
        } else {
            assert!(states.is_empty() && handles.is_empty(), "{point}");
            held.release();
            let router =
                ShardedDatabase::from_parts(vec![Arc::clone(&db2), Arc::clone(survivor_db)]);
            submit_sharded(&router, &row.spec(), &lazy)
                .unwrap()
                .join()
                .unwrap();
        }
        db2.clear_crash_hook();

        for (i, db) in [(VICTIM, &db2), (survivor, survivor_db)] {
            assert_eq!(
                row.target_tables(db),
                reference[i],
                "{point}: shard {i} diverged after lazy recovery"
            );
            assert_eq!(row.source_tables(db), u.models[i], "{point}: shard {i}");
        }
    }
}
