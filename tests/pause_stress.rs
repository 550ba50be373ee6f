//! Pause under fire: a declarative migration paused and resumed
//! mid-propagation by the orchestrator while
//! `workload::WorkloadRunner` writers hammer the source.
//!
//! What must hold:
//!
//! * **The pause fence is absolute.** A paused migration parks at a
//!   propagation-iteration boundary; the propagator may not write a
//!   target row while the job is parked — even though the writers keep
//!   committing source updates the whole time (pausing a migration
//!   must never block clients).
//! * **Final targets ≡ uninterrupted reference.** After the writers
//!   stop, the resumed migration must converge to exactly the targets
//!   an uninterrupted run produces from the same final source state
//!   (values, counters, presence — LSNs differ across log histories
//!   and are compared in `equivalence.rs`, where both
//!   pipelines share one).

use morphdb::core::{MigrationPhase, SplitSpec, TransformJob, TransformOptions, TransformPlan};
use morphdb::engine::CrashHook;
use morphdb::orchestrator::{MigrationHandle, Orchestrator};
use morphdb::workload::{ClientConfig, UpdateTarget, WorkloadRunner};
use morphdb::{ColumnType, Database, DbResult, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn grouped_schema() -> Schema {
    Schema::builder()
        .column("k", ColumnType::Int)
        .nullable("payload", ColumnType::Str)
        .nullable("grp", ColumnType::Int)
        .nullable("dep", ColumnType::Str)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn seed_grouped(db: &Database, table: &str, rows: i64, groups: i64) {
    let txn = db.begin();
    for i in 0..rows {
        let g = i % groups;
        db.insert(
            txn,
            table,
            vec![
                Value::Int(i),
                Value::str("p"),
                Value::Int(g),
                Value::str(format!("dep-{g}")),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();
}

/// Rows of `name` without LSNs (cross-database comparable).
fn rows_sans_lsn(db: &Database, name: &str) -> Vec<(morphdb::Key, Vec<Value>, u32, String)> {
    let t = db.catalog().get(name).unwrap();
    let mut rows: Vec<_> = t
        .snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values, r.counter, format!("{:?}", r.presence)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

const SPLIT_TEXT: &str =
    "ALTER TABLE W SPLIT INTO W_base (k, payload, grp) AND W_groups (grp -> dep)";

/// Block until the migration is parked in the propagation phase: the
/// phase marker says `Propagating` and two target snapshots taken
/// across a writer-visible window are identical.
fn await_parked(db: &Database, handle: &MigrationHandle) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "migration never parked in Propagating; phase now {:?}",
            handle.progress().phase()
        );
        if handle.progress().phase() != MigrationPhase::Propagating {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let before = rows_sans_lsn(db, "W_base");
        std::thread::sleep(Duration::from_millis(40));
        if rows_sans_lsn(db, "W_base") == before {
            return;
        }
    }
}

/// Writers committing single-row updates of `W`'s payload column
/// (keys `0..rows`), paced `pace` apart.
fn start_writers(db: &Arc<Database>, rows: i64, threads: usize, pace: Duration) -> WorkloadRunner {
    let cfg = ClientConfig {
        updates_per_txn: 1,
        hot_fraction: 1.0,
        targets: vec![UpdateTarget::new("W", rows, 1)],
        dummy: None,
        pacing: Some(pace),
    };
    WorkloadRunner::start(Arc::clone(db), cfg, threads)
}

/// Holds the job after its copy (`transform.populated`) until
/// released, so that a pause requested after `submit_text` lands
/// before the first propagation iteration however the threads are
/// scheduled.
#[derive(Default)]
struct HoldAfterCopy {
    released: AtomicBool,
}

impl CrashHook for HoldAfterCopy {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        while point == "transform.populated" && !self.released.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }
}

/// Submit the split and park it before its first propagation
/// iteration, with the writers' backlog behind it.
fn submit_paused(db: &Arc<Database>) -> MigrationHandle {
    let hold = Arc::new(HoldAfterCopy::default());
    db.set_crash_hook(hold.clone());
    let handle = Orchestrator::new(Arc::clone(db))
        .submit_text(
            SPLIT_TEXT,
            TransformOptions::default()
                .deadline(Duration::from_secs(120))
                .retain_sources(),
        )
        .unwrap();
    handle.pause();
    hold.released.store(true, Ordering::SeqCst);
    await_parked(db, &handle);
    handle
}

/// Pause fence + uninterrupted reference, in one scripted run:
/// pause lands mid-propagation with a writer-generated backlog, the
/// parked propagator provably applies nothing while clients keep
/// committing, and after resume the targets equal an unpaused
/// from-scratch run over the identical frozen source.
#[test]
fn paused_migration_matches_uninterrupted_reference() {
    let db = Arc::new(Database::new());
    db.create_table("W", grouped_schema()).unwrap();
    seed_grouped(&db, "W", 2000, 20);

    let writers = start_writers(&db, 2000, 2, Duration::from_micros(100));
    // Paused before the first propagation iteration: the job populates,
    // enters `Propagating`, and parks at the first batch boundary —
    // guaranteed mid-propagation, with the updates the writers
    // committed during population still undrained behind it.
    let handle = submit_paused(&db);

    // The fence: writers commit on, the parked propagator applies
    // nothing.
    let committed_before = writers.committed();
    let base_before = rows_sans_lsn(&db, "W_base");
    let groups_before = rows_sans_lsn(&db, "W_groups");
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        rows_sans_lsn(&db, "W_base"),
        base_before,
        "the propagator applied a record past the pause fence"
    );
    assert_eq!(
        rows_sans_lsn(&db, "W_groups"),
        groups_before,
        "the propagator applied a record past the pause fence (S side)"
    );
    assert!(
        writers.committed() > committed_before,
        "writers must keep committing while the migration is parked"
    );

    // Freeze the source while still parked, then let the propagator
    // drain the full backlog.
    let committed = writers.stop();
    assert!(committed > 0, "the stress produced no source traffic");
    let source_rows = rows_sans_lsn(&db, "W");
    handle.resume();
    let progress = handle.progress();
    let reports = handle.join().expect("paused migration must converge");
    assert_eq!(reports.len(), 1);
    assert_eq!(progress.phase(), MigrationPhase::CutOver);
    assert_eq!(
        rows_sans_lsn(&db, "W"),
        source_rows,
        "retained source changed after the writers stopped"
    );

    // Uninterrupted reference: the same split, unpaused, over a fresh
    // database seeded with the frozen source rows.
    let reference = Arc::new(Database::new());
    reference.create_table("W", grouped_schema()).unwrap();
    let txn = reference.begin();
    for (_, values, _, _) in &source_rows {
        reference.insert(txn, "W", values.clone()).unwrap();
    }
    reference.commit(txn).unwrap();
    let plan = TransformPlan::Split(SplitSpec::new(
        "W",
        "W_base",
        "W_groups",
        &["k", "payload", "grp"],
        "grp",
        &["dep"],
    ));
    TransformJob::prepare(
        &reference,
        &plan,
        TransformOptions::default().retain_sources(),
    )
    .and_then(|job| job.run(&AtomicBool::new(false), None, |_| Ok(())))
    .expect("reference split");

    assert_eq!(
        rows_sans_lsn(&db, "W_base"),
        rows_sans_lsn(&reference, "W_base"),
        "paused R side diverged from the uninterrupted reference"
    );
    assert_eq!(
        rows_sans_lsn(&db, "W_groups"),
        rows_sans_lsn(&reference, "W_groups"),
        "paused S side diverged from the uninterrupted reference"
    );
}

/// Unpark into live traffic: where the test above freezes the source
/// before resuming, this one resumes with the writers still hammering
/// the table — the woken job must drain the parked backlog, converge
/// against the live log tail, sync, and cut over, all while updates
/// keep landing. Exact payloads are then unknowable (writers race the
/// cutover), so the oracle is structural: the writers never insert or
/// delete, so row counts, split counters and the grp → dep functional
/// dependency survive any interleaving.
#[test]
fn migration_unparks_into_live_traffic_and_converges() {
    let db = Arc::new(Database::new());
    db.create_table("W", grouped_schema()).unwrap();
    seed_grouped(&db, "W", 800, 16);

    let writers = start_writers(&db, 800, 2, Duration::from_micros(25));
    let handle = submit_paused(&db);

    // Fence under fire, as above — then let go without stopping the
    // writers. The parked window grew the backlog the woken job now
    // has to win against.
    let before = rows_sans_lsn(&db, "W_base");
    let committed_before = writers.committed();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        rows_sans_lsn(&db, "W_base"),
        before,
        "applied past the pause fence"
    );
    assert!(writers.committed() > committed_before);

    handle.resume();
    let progress = handle.progress();
    let reports = handle.join().expect("resumed migration must converge");
    let committed = writers.stop();
    assert!(committed > 0);
    assert_eq!(reports.len(), 1);
    assert_eq!(progress.phase(), MigrationPhase::CutOver);

    let source_rows = rows_sans_lsn(&db, "W");
    let base = rows_sans_lsn(&db, "W_base");
    assert_eq!(base.len(), source_rows.len());
    for ((bk, bv, _, _), (sk, sv, _, _)) in base.iter().zip(&source_rows) {
        assert_eq!(bk, sk);
        // Key and split-attribute columns are writer-invariant; only
        // the payload column raced the cutover.
        assert_eq!(bv[0], sv[0]);
        assert_eq!(bv[2], sv[2]);
    }
    let groups = rows_sans_lsn(&db, "W_groups");
    assert_eq!(groups.len(), 16);
    let counter_sum: u32 = groups.iter().map(|(_, _, c, _)| *c).sum();
    assert_eq!(
        counter_sum,
        source_rows.len() as u32,
        "split S counters must add up to the source row count"
    );
    for (_, values, _, _) in &groups {
        let Value::Int(g) = values[0] else {
            panic!("group key must be an Int");
        };
        assert_eq!(
            values[1],
            Value::str(format!("dep-{g}")),
            "functional dependency grp → dep broken in W_groups"
        );
    }
}
