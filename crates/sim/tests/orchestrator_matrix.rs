//! Orchestrator kill matrix: kill the migration state machine at every
//! `orchestrator.*` transition in the checked-in crash-point registry,
//! then recover the torn WAL and demand the §3.5 resume contract:
//!
//! * committed source data survives exactly (no lost updates — target
//!   writes bypass the log, so only orchestrator bookkeeping sits in
//!   the torn tail);
//! * [`Orchestrator::scan_states`] rediscovers the in-flight job with
//!   its full spec from the durable `MigrationState` records;
//! * [`Orchestrator::resume`] re-executes any non-`Aborted` job from
//!   preparation and converges to the same tables as an uninterrupted
//!   run, while a durably `Aborted` job stays dead (no handle, no
//!   target stragglers).
//!
//! Like `crash_matrix.rs`, the sweep is registry-driven: the
//! `orchestrator.*` entries in `crates/lint/manifest/crash_points.txt`
//! decide what gets killed, so a new state-machine transition joins
//! the matrix the moment it is registered.

use morph_common::{DbError, DbResult, Key, Schema, TableId, Value};
use morph_core::split::example1_schema;
use morph_core::SyncStrategy;
use morph_engine::{CrashHook, Database};
use morph_orchestrator::{Migration, MigrationSpec, Orchestrator};
use morph_sim::points::registry;
use morph_sim::{crash_and_recover, fault_db, sim_options};
use morph_wal::{FaultHandle, MigrationPhase};
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
        // Same re-entrancy guard as the harness hook: engine-level
        // commit points reached while we hold the lock are not ours.
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

const SOURCE: &str = "C";

fn spec() -> MigrationSpec {
    Migration::split(
        SOURCE,
        "CR",
        "CS",
        &["customer_id", "name", "postal_code"],
        "postal_code",
        &["city"],
    )
    .build()
}

/// A spec whose second stage cannot prepare (unknown table): stage 1
/// cuts over, stage 2 fails, and the orchestrator takes the clean
/// abort path — the deterministic way to reach `orchestrator.aborted`.
fn doomed_spec() -> MigrationSpec {
    Migration::split(
        SOURCE,
        "CR",
        "CS",
        &["customer_id", "name", "postal_code"],
        "postal_code",
        &["city"],
    )
    .then_union("CR", "NO_SUCH_TABLE", "U")
    .build()
}

fn seed_rows(db: &Database) -> DbResult<BTreeMap<Key, Vec<Value>>> {
    let txn = db.begin();
    for i in 0..24i64 {
        let code = i as u64 % 6;
        db.insert(
            txn,
            SOURCE,
            vec![
                Value::Int(i),
                Value::str(format!("n{i}")),
                Value::str(format!("p{code}")),
                Value::str(format!("city{code}")),
            ],
        )?;
    }
    db.commit(txn)?;
    values_of(db, SOURCE)
}

fn values_of(db: &Database, table: &str) -> DbResult<BTreeMap<Key, Vec<Value>>> {
    let t = db.catalog().get(table)?;
    Ok(t.snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values))
        .collect())
}

struct Universe {
    db: Arc<Database>,
    fault: FaultHandle,
    sources: Vec<(TableId, String, Schema)>,
    model: BTreeMap<Key, Vec<Value>>,
}

/// Fault-backed database with the seeded source table committed.
fn build(seed: u64) -> Universe {
    let (db, fault) = fault_db(seed);
    let t = db.create_table(SOURCE, example1_schema()).unwrap();
    let sources = vec![(t.id(), SOURCE.to_owned(), example1_schema())];
    let model = seed_rows(&db).unwrap();
    Universe {
        db,
        fault,
        sources,
        model,
    }
}

/// Tear the WAL, rebuild a fresh database, replay the durable prefix.
fn recover(u: &Universe) -> (Arc<Database>, Vec<morph_wal::LogRecord>) {
    let r = crash_and_recover(&u.db, &u.fault, &u.sources).unwrap();
    (r.db, r.durable)
}

/// Reference: the same migration, uninterrupted, over the same seed
/// rows on a pristine database.
fn reference_targets(spec: &MigrationSpec) -> BTreeMap<String, BTreeMap<Key, Vec<Value>>> {
    let db = Arc::new(Database::new());
    db.create_table(SOURCE, example1_schema()).unwrap();
    seed_rows(&db).unwrap();
    let orch = Orchestrator::new(Arc::clone(&db));
    let handle = orch
        .submit(spec.clone(), sim_options(SyncStrategy::NonBlockingAbort))
        .unwrap();
    handle.join().unwrap();
    spec.final_targets()
        .into_iter()
        .map(|t| {
            let snap = values_of(&db, &t).unwrap();
            (t, snap)
        })
        .collect()
}

/// Every `orchestrator.*` point in the registry that the happy path
/// reaches, in manifest order.
fn happy_path_points() -> Vec<String> {
    registry()
        .points
        .iter()
        .map(|p| p.name.clone())
        .filter(|n| n.starts_with("orchestrator.") && n != "orchestrator.aborted")
        .collect()
}

#[test]
fn registry_lists_every_state_machine_transition() {
    let pts = happy_path_points();
    for phase in [
        "planned",
        "preparing",
        "copying",
        "propagating",
        "syncing",
        "cutover",
    ] {
        assert!(
            pts.iter().any(|p| p == &format!("orchestrator.{phase}")),
            "orchestrator.{phase} missing from crash_points.txt"
        );
    }
}

/// The matrix proper: kill at every registered transition, recover,
/// resume, converge.
#[test]
fn migration_survives_kills_at_every_transition() {
    let reference = reference_targets(&spec());
    for point in happy_path_points() {
        let u = build(7);
        let hook = KillHook::arm(&point, 1);
        u.db.set_crash_hook(hook.clone());

        let orch = Orchestrator::new(Arc::clone(&u.db));
        let handle = orch
            .submit(spec(), sim_options(SyncStrategy::NonBlockingAbort))
            .unwrap();
        let err = handle.join().expect_err("armed kill must surface");
        assert!(
            matches!(err, DbError::SimulatedCrash(_)),
            "{point}: unexpected error {err}"
        );
        assert!(hook.fired(), "{point}: kill never fired");
        u.db.clear_crash_hook();

        let (db2, durable) = recover(&u);

        // Oracle 1: no lost updates on the recovered source.
        assert_eq!(
            values_of(&db2, SOURCE).unwrap(),
            u.model,
            "{point}: committed source rows lost"
        );
        // Target writes bypass the WAL: the crash wiped them.
        assert!(
            db2.catalog().get("CR").is_err() && db2.catalog().get("CS").is_err(),
            "{point}: targets must not survive a crash"
        );

        // The durable state records rediscover the job.
        let states = Orchestrator::scan_states(&durable);
        assert_eq!(states.len(), 1, "{point}: expected one in-flight job");
        assert_ne!(
            states[0].phase,
            MigrationPhase::Aborted,
            "{point}: happy-path kill must not look aborted"
        );

        // Resume: re-run from preparation, converge to the reference.
        let orch2 = Orchestrator::new(Arc::clone(&db2));
        let handles = orch2
            .recover(&durable, &sim_options(SyncStrategy::NonBlockingAbort))
            .unwrap();
        assert_eq!(handles.len(), 1, "{point}: resume must relaunch the job");
        let reports = handles.into_iter().next().unwrap().join().unwrap();
        assert_eq!(reports.len(), 1, "{point}: one stage, one report");

        for (target, want) in &reference {
            assert_eq!(
                &values_of(&db2, target).unwrap(),
                want,
                "{point}: resumed {target} diverges from uninterrupted run"
            );
        }
        // retain_sources is set in sim_options: the frozen source
        // must still be inspectable after cutover.
        assert_eq!(values_of(&db2, SOURCE).unwrap(), u.model);
    }
}

/// A clean (non-crash) failure durably records `Aborted`, and resume
/// leaves the job dead with no target stragglers.
#[test]
fn aborted_job_stays_dead_across_recovery() {
    let u = build(11);
    let orch = Orchestrator::new(Arc::clone(&u.db));
    let handle = orch
        .submit(doomed_spec(), sim_options(SyncStrategy::NonBlockingAbort))
        .unwrap();
    let err = handle.join().expect_err("stage 2 must fail to prepare");
    assert!(
        !matches!(err, DbError::SimulatedCrash(_)),
        "clean failure expected, got {err}"
    );

    let (db2, durable) = recover(&u);
    let states = Orchestrator::scan_states(&durable);
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].phase, MigrationPhase::Aborted);
    assert_eq!(states[0].stage, 1, "the failing stage is recorded");

    let orch2 = Orchestrator::new(Arc::clone(&db2));
    let handles = orch2
        .recover(&durable, &sim_options(SyncStrategy::NonBlockingAbort))
        .unwrap();
    assert!(handles.is_empty(), "aborted jobs must not resume");
    for target in ["CR", "CS", "U"] {
        assert!(
            db2.catalog().get(target).is_err(),
            "{target}: aborted migration left a straggler"
        );
    }
    assert_eq!(values_of(&db2, SOURCE).unwrap(), u.model);

    // The id space moves past the dead job: a fresh submission on the
    // recovered database must not collide with it.
    let fresh = orch2
        .submit(spec(), sim_options(SyncStrategy::NonBlockingAbort))
        .unwrap();
    assert!(fresh.id() > states[0].job);
    fresh.join().unwrap();
}

/// Kill *during* the abort conclusion (`orchestrator.aborted`): the
/// durable state may or may not include the Aborted record depending
/// on what the tear kept, but either way recovery plus resume must end
/// in a consistent state — dead-and-clean, or re-run-and-converged.
#[test]
fn kill_during_abort_conclusion_recovers_consistently() {
    let u = build(13);
    let hook = KillHook::arm("orchestrator.aborted", 1);
    u.db.set_crash_hook(hook.clone());
    let orch = Orchestrator::new(Arc::clone(&u.db));
    let handle = orch
        .submit(doomed_spec(), sim_options(SyncStrategy::NonBlockingAbort))
        .unwrap();
    let err = handle.join().expect_err("kill must surface");
    assert!(matches!(err, DbError::SimulatedCrash(_)));
    assert!(hook.fired());
    u.db.clear_crash_hook();

    let (db2, durable) = recover(&u);
    assert_eq!(values_of(&db2, SOURCE).unwrap(), u.model);

    let orch2 = Orchestrator::new(Arc::clone(&db2));
    let handles = orch2
        .recover(&durable, &sim_options(SyncStrategy::NonBlockingAbort))
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
