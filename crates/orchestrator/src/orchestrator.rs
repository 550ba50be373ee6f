//! The migration orchestrator: a crash-recoverable state machine
//! driving declarative migrations through the §3 pipeline.
//!
//! ## State machine
//!
//! ```text
//!            ┌────────────────────────── per stage ─────────────────────────┐
//! Planned ─▶ │ Preparing ─▶ Copying ─▶ Propagating ─▶ Syncing ─▶ (finish) │ ─▶ CutOver
//!            └──────────────────────────────────────────────────────────────┘
//!                 │              │             │            │
//!                 └──────────────┴─────────────┴────────────┴──▶ Aborted
//!
//! lazy, one stage: Planned ─▶ Preparing ─▶ Syncing ─▶ Copying ─▶ CutOver
//! ```
//!
//! Every transition is persisted as a [`LogRecord::MigrationState`]
//! and forced durable *before* the work of the new phase starts, then
//! announced through a named crash point (`orchestrator.<phase>`), so
//! the deterministic crash simulator can kill the orchestrator at
//! every transition and verify recovery. A sharded fan-out begins
//! every shard's job — `Planned`, first stage prepared — before it
//! starts any worker.
//!
//! ## Recovery semantics (§3.5 of the paper)
//!
//! Transformations are *not* redo-logged: target-table writes bypass
//! the WAL, so after a crash the recovered database contains the
//! (fully logged) source tables and none of the in-flight targets.
//! The paper's rule — "the schema transformation process must be
//! restarted, beginning with the preparation step" — is therefore the
//! only sound resume policy, and it is what [`Orchestrator::resume`]
//! implements: any job whose latest durable phase is not `Aborted` is
//! re-planned from its persisted spec text and re-executed from
//! scratch against the recovered sources. Even a durably `CutOver`
//! job re-runs — its targets were lost with the crash, and re-running
//! restores exactly what the client was promised. A durable `Aborted`
//! record, by contrast, means the migration was cancelled: resume
//! leaves the job dead. Its targets were dropped before `Aborted` was
//! persisted, and recovery restores none, so there is nothing to drop
//! — and dropping by name could only hit a later table that took the
//! name. What the state records buy is job *discovery* (which
//! migrations were in flight, with their full spec), the
//! aborted-versus-in-flight distinction, and observability.

use crate::spec::{Migration, MigrationSpec};
use morph_common::{DbError, DbResult, Lsn};
use morph_core::{
    Progress, ProgressHandle, SyncStrategy, TransformJob, TransformOptions, TransformReport,
};
use morph_engine::Database;
use morph_wal::{LogRecord, MigrationPhase, RecordKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-end for submitting, monitoring and recovering migrations
/// over one [`Database`].
pub struct Orchestrator {
    db: Arc<Database>,
}

/// The latest durable state of a migration job, harvested from the
/// log by [`Orchestrator::scan_states`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredMigration {
    /// Job id (unique per log lifetime).
    pub job: u64,
    /// Stage index the job had reached.
    pub stage: u32,
    /// Latest durable phase.
    pub phase: MigrationPhase,
    /// The migration program, serialized in the `ALTER TABLE` dialect.
    pub spec_text: String,
}

impl Orchestrator {
    /// Orchestrator over the given database.
    pub fn new(db: Arc<Database>) -> Orchestrator {
        Orchestrator { db }
    }

    /// The database this orchestrator drives.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Submit a declarative migration. Claims every table the spec
    /// touches (failing with [`DbError::MigrationConflict`] if another
    /// running job overlaps), persists the `Planned` state and starts
    /// the state machine on a background thread.
    pub fn submit(
        &self,
        spec: MigrationSpec,
        options: TransformOptions,
    ) -> DbResult<MigrationHandle> {
        let id = self.db.migrations().next_job_id();
        Ok(self.job(id, spec, options)?.launch(None))
    }

    /// Parse and submit a migration program in the `ALTER TABLE`
    /// dialect.
    pub fn submit_text(&self, text: &str, options: TransformOptions) -> DbResult<MigrationHandle> {
        self.submit(Migration::parse(text)?, options)
    }

    /// Harvest the latest durable [`RecoveredMigration`] per job from
    /// the database's log, in job-id order: after a restart, the log
    /// [`morph_engine::recover`] replayed.
    pub fn scan_states(&self) -> DbResult<Vec<RecoveredMigration>> {
        let log = self.db.log();
        let (_, states) = log.tail(Lsn(1)).next_batch_where(log, usize::MAX, |peek| {
            peek.kind == RecordKind::MigrationState
        })?;
        let mut latest: BTreeMap<u64, RecoveredMigration> = BTreeMap::new();
        for (_, rec) in states {
            if let LogRecord::MigrationState {
                job,
                stage,
                phase,
                spec,
            } = rec
            {
                latest.insert(
                    job,
                    RecoveredMigration {
                        job,
                        stage,
                        phase,
                        spec_text: spec,
                    },
                );
            }
        }
        Ok(latest.into_values().collect())
    }

    /// Resume one recovered job on a freshly recovered database (call
    /// after [`morph_engine::recover`]). Non-`Aborted` jobs are
    /// re-executed from their persisted spec, restarting at preparation
    /// per §3.5 (see the module docs for why); `Aborted` jobs stay dead
    /// and return `None`. The state records do not carry the strategy:
    /// it comes from `options`.
    pub fn resume(
        &self,
        rec: &RecoveredMigration,
        options: TransformOptions,
    ) -> DbResult<Option<MigrationHandle>> {
        let spec = Migration::parse(&rec.spec_text)?;
        self.db.migrations().bump_past(rec.job);
        if rec.phase == MigrationPhase::Aborted {
            return Ok(None);
        }
        Ok(Some(self.job(rec.job, spec, options)?.launch(None)))
    }

    /// Scan the log and resume every recovered job (convenience
    /// wrapper over [`Orchestrator::scan_states`] +
    /// [`Orchestrator::resume`]).
    pub fn recover(&self, options: &TransformOptions) -> DbResult<Vec<MigrationHandle>> {
        let mut handles = Vec::new();
        for rec in self.scan_states()? {
            if let Some(h) = self.resume(&rec, options.clone())? {
                handles.push(h);
            }
        }
        Ok(handles)
    }

    /// Validate `spec` and claim its tables as job `id`, starting
    /// nothing ([`Job::launch`] does). A lazy migration has one stage: a
    /// later stage would have no frozen source to transform from.
    pub(crate) fn job(
        &self,
        id: u64,
        spec: MigrationSpec,
        options: TransformOptions,
    ) -> DbResult<Job> {
        spec.validate()?;
        if options.strategy == SyncStrategy::Lazy && spec.stages.len() != 1 {
            return Err(DbError::TransformationAborted(
                "lazy migration supports exactly one stage".into(),
            ));
        }
        self.db.migrations().claim(id, &spec.tables())?;
        Ok(Job {
            db: Arc::clone(&self.db),
            id,
            text: spec.to_text(),
            spec,
            options,
            progress: Progress::new(),
        })
    }
}

/// A claimed job: what its state machine persists and runs.
pub(crate) struct Job {
    db: Arc<Database>,
    id: u64,
    spec: MigrationSpec,
    text: String,
    options: TransformOptions,
    progress: Arc<Progress>,
}

impl Job {
    /// Persist `Planned` and prepare the first stage.
    pub(crate) fn begin(&self) -> DbResult<TransformJob> {
        self.enter(0, MigrationPhase::Planned)?;
        self.prepare(0)
    }

    /// Run the state machine on a background thread, from `first` if
    /// the caller has begun the job already.
    pub(crate) fn launch(self, first: Option<DbResult<TransformJob>>) -> MigrationHandle {
        let (abort, pause) = (Arc::<AtomicBool>::default(), Arc::<AtomicBool>::default());
        let (id, progress) = (self.id, Arc::clone(&self.progress));
        let (abort2, pause2) = (Arc::clone(&abort), Arc::clone(&pause));
        let join = std::thread::spawn(move || {
            let result = first
                .unwrap_or_else(|| self.begin())
                .map_err(|e| (0, e))
                .and_then(|job| self.run_stages(job, &abort2, &pause2));
            self.conclude(result)
        });
        MigrationHandle {
            id,
            join,
            abort,
            pause,
            progress,
            started: Instant::now(),
        }
    }

    /// The happy path of the state machine; failures return the stage
    /// they happened in so the conclusion can record it. Each stage is
    /// one [`TransformJob::run`], whose phase hook persists the
    /// transition and announces it.
    fn run_stages(
        &self,
        first: TransformJob,
        abort: &AtomicBool,
        pause: &AtomicBool,
    ) -> Result<Vec<TransformReport>, (u32, DbError)> {
        let stages = self.spec.stages.len() as u32;
        let mut first = Some(first);
        let mut reports = Vec::with_capacity(stages as usize);
        for stage in 0..stages {
            let job = match first.take() {
                Some(job) => job,
                None => self.prepare(stage).map_err(|e| (stage, e))?,
            };
            let report = job.run(abort, Some(pause), |phase| self.enter(stage, phase));
            reports.push(report.map_err(|e| (stage, e))?);
        }
        let last = stages.saturating_sub(1);
        self.enter_published(last, MigrationPhase::CutOver)
            .map_err(|e| (last, e))?;
        Ok(reports)
    }

    /// A lazy first stage up to its backfill, for
    /// [`start_lazy_sharded`](crate::start_lazy_sharded): the phases
    /// [`TransformJob::run`] walks before its copy, with the same hook.
    pub(crate) fn cut_over(&self, stage: &mut TransformJob) -> DbResult<()> {
        self.enter(0, MigrationPhase::Syncing)?;
        stage.synchronize()?;
        self.enter_published(0, MigrationPhase::Copying)
    }

    /// Complete a lazy first stage that [`Job::cut_over`] cut over:
    /// drain what the caller left, finish, record `CutOver` and
    /// release the claim.
    pub(crate) fn complete(&self, mut stage: Box<TransformJob>) -> DbResult<()> {
        let done = stage.copy(None).and_then(|()| stage.finish());
        let done = done.and_then(|_| self.enter_published(0, MigrationPhase::CutOver));
        self.conclude(done.map_err(|e| (0, e)))
    }

    /// Persist `stage`'s `Preparing` state, then prepare it.
    fn prepare(&self, stage: u32) -> DbResult<TransformJob> {
        self.enter(stage, MigrationPhase::Preparing)?;
        let plan = &self.spec.stages[stage as usize];
        let progress = Arc::clone(&self.progress);
        TransformJob::prepare_with_progress(&self.db, plan, self.options.clone(), progress)
    }

    /// Persist a transition durably before the new phase's work starts,
    /// then announce it. The record is for discovery and observability,
    /// not replay: redo/undo skip it.
    fn enter(&self, stage: u32, phase: MigrationPhase) -> DbResult<()> {
        self.persist(stage, phase)?;
        announce(&self.db, phase)
    }

    /// [`Job::enter`] once the stage has published its targets: the
    /// record is for discovery, and recovery re-runs a job whose last
    /// durable phase is earlier just the same, so only a crash fails it.
    fn enter_published(&self, stage: u32, phase: MigrationPhase) -> DbResult<()> {
        match self.enter(stage, phase) {
            Err(e @ DbError::SimulatedCrash(_)) => Err(e),
            _ => Ok(()),
        }
    }

    fn persist(&self, stage: u32, phase: MigrationPhase) -> DbResult<()> {
        let lsn = self.db.log().append(LogRecord::MigrationState {
            job: self.id,
            stage,
            phase,
            spec: self.text.clone(),
        });
        self.db.log().wait_durable(lsn)
    }

    /// Conclude the job: release its claim on success, or persist
    /// `Aborted` first on a clean failure. A simulated crash is *not*
    /// an abort: the "process" is dead, so no further state is written
    /// (exactly like a real kill).
    pub(crate) fn conclude<T>(&self, result: Result<T, (u32, DbError)>) -> DbResult<T> {
        match result {
            Ok(value) => {
                self.db.migrations().release(self.id);
                Ok(value)
            }
            Err((_, e @ DbError::SimulatedCrash(_))) => Err(e),
            Err((stage, e)) => {
                self.progress.set_phase(MigrationPhase::Aborted);
                // Best-effort: a failing log backend must not mask the
                // original error.
                let _ = self.persist(stage, MigrationPhase::Aborted);
                self.db.migrations().release(self.id);
                announce(&self.db, MigrationPhase::Aborted)?;
                Err(e)
            }
        }
    }
}

/// Handle to a migration running on a background thread.
pub struct MigrationHandle {
    id: u64,
    join: JoinHandle<DbResult<Vec<TransformReport>>>,
    abort: Arc<AtomicBool>,
    pause: Arc<AtomicBool>,
    progress: Arc<Progress>,
    started: Instant,
}

impl MigrationHandle {
    /// The job id (also the key of its WAL state records).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Park the migration at the next propagation-iteration boundary
    /// (lazy: backfill batch). Nothing is released while parked (log
    /// pin, claims and targets stay); the wall-clock deadline, if any,
    /// keeps ticking.
    pub fn pause(&self) {
        self.pause.store(true, Ordering::Relaxed);
    }

    /// Release a [`MigrationHandle::pause`].
    pub fn resume(&self) {
        self.pause.store(false, Ordering::Relaxed);
    }

    /// Request an abort: the in-flight stage stops at its next batch
    /// boundary and deletes its targets (§6), unless it has synchronized
    /// (a lazy stage: cut over) and so published them. The durable
    /// `Aborted` state is written by the worker.
    pub fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    /// Live progress counters (lock-free reads).
    pub fn progress(&self) -> ProgressHandle {
        ProgressHandle::new(Arc::clone(&self.progress))
    }

    /// Crude remaining-time estimate from the observed propagation
    /// rate and the current backlog; `None` until enough has happened
    /// to extrapolate. Purely informational.
    pub fn eta(&self) -> Option<Duration> {
        let h = self.progress();
        let done = h.records_propagated() + h.rows_copied();
        let secs = self.started.elapsed().as_secs_f64();
        if done == 0 || secs <= 0.0 {
            return None;
        }
        let rate = done as f64 / secs;
        Some(Duration::from_secs_f64(h.backlog() as f64 / rate.max(1e-9)))
    }

    /// Whether the worker thread has finished.
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Wait for the migration; returns one report per completed stage.
    pub fn join(self) -> DbResult<Vec<TransformReport>> {
        self.join
            .join()
            .map_err(|_| DbError::Internal("migration worker thread panicked".into()))?
    }
}

/// Announce a durable transition at its `orchestrator.<phase>` crash
/// point.
fn announce(db: &Database, phase: MigrationPhase) -> DbResult<()> {
    match phase {
        MigrationPhase::Planned => db.crash_point("orchestrator.planned"),
        MigrationPhase::Preparing => db.crash_point("orchestrator.preparing"),
        MigrationPhase::Copying => db.crash_point("orchestrator.copying"),
        MigrationPhase::Propagating => db.crash_point("orchestrator.propagating"),
        MigrationPhase::Syncing => db.crash_point("orchestrator.syncing"),
        MigrationPhase::CutOver => db.crash_point("orchestrator.cutover"),
        MigrationPhase::Aborted => db.crash_point("orchestrator.aborted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::{ColumnType, Key, Schema, Value};
    use morph_core::foj::figure1_schemas;
    use morph_engine::CrashHook;
    use morph_wal::{FaultBackend, FaultConfig, LogManager};
    use std::sync::atomic::AtomicUsize;

    /// A stage whose `Syncing` record cannot be made durable ends the
    /// migration with the I/O error and drops the stage's target: the
    /// sources stay exactly as they were, and nothing is left behind to
    /// fail a retry with `TableExists`.
    #[test]
    fn a_state_record_that_fails_to_persist_drops_the_stage_targets() {
        let (backend, fault) = FaultBackend::new(FaultConfig::crash_only(3));
        let log = Arc::new(LogManager::with_backend(Box::new(backend)));
        let db = Arc::new(Database::with_log(log, Default::default()));
        let (r, s) = figure1_schemas();
        db.create_table("R", r).unwrap();
        db.create_table("S", s).unwrap();
        let txn = db.begin();
        for i in 0..2_000i64 {
            let j = Value::str(format!("j{}", i % 20));
            db.insert(txn, "R", vec![Value::Int(i), Value::str("b"), j.clone()])
                .unwrap();
            if i < 20 {
                db.insert(txn, "S", vec![j, Value::str("d")]).unwrap();
            }
        }
        db.commit(txn).unwrap();
        let image = |name: &str| format!("{:?}", db.catalog().get(name).unwrap().snapshot());
        let sources = (image("R"), image("S"));

        let spec = Migration::join("R", "S", "T", "c", "c").build();
        let options = TransformOptions::default().deadline(Duration::from_secs(30));
        let handle = Orchestrator::new(Arc::clone(&db))
            .submit(spec, options)
            .unwrap();
        handle.pause();
        let t0 = Instant::now();
        while handle.progress().phase() != MigrationPhase::Propagating {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "never reached Propagating"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        fault.crash();
        handle.resume();

        let err = handle
            .join()
            .expect_err("the Syncing record cannot be flushed");
        assert!(matches!(err, DbError::Io(_)), "unexpected error {err}");
        assert!(
            !db.catalog().exists("T"),
            "the failed stage leaked its target"
        );
        assert_eq!((image("R"), image("S")), sources);
    }

    /// A lazy job persists its phases in the order it runs them, and
    /// the claim refuses a lazy migration of more than one stage.
    #[test]
    fn a_lazy_job_persists_sync_before_copy() {
        let db = Arc::new(Database::new());
        let (r, s) = figure1_schemas();
        db.create_table("R", r).unwrap();
        db.create_table("S", s).unwrap();
        let txn = db.begin();
        for i in 0..50i64 {
            let j = Value::str(format!("j{}", i % 5));
            db.insert(txn, "R", vec![Value::Int(i), Value::str("b"), j.clone()])
                .unwrap();
            if i < 5 {
                db.insert(txn, "S", vec![j, Value::str("d")]).unwrap();
            }
        }
        db.commit(txn).unwrap();

        let orch = Orchestrator::new(Arc::clone(&db));
        let lazy = TransformOptions::default().strategy(SyncStrategy::Lazy);
        let two_stages = Migration::join("R", "S", "T", "c", "c")
            .then_union("T", "R", "U")
            .build();
        assert!(orch.submit(two_stages, lazy.clone()).is_err());
        assert!(db.migrations().active_jobs().is_empty());

        let spec = Migration::join("R", "S", "T", "c", "c").build();
        let reports = orch.submit(spec, lazy).unwrap().join().unwrap();
        assert_eq!(reports[0].sync.strategy, SyncStrategy::Lazy);
        assert_eq!(db.catalog().get("T").unwrap().len(), 50);
        let records: Vec<LogRecord> = db
            .log()
            .read_range(morph_common::Lsn(0), usize::MAX)
            .into_iter()
            .map(|(_, rec)| (*rec).clone())
            .collect();
        let phases: Vec<MigrationPhase> = records
            .iter()
            .filter_map(|rec| match rec {
                LogRecord::MigrationState { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        use MigrationPhase::*;
        assert_eq!(phases, [Planned, Preparing, Syncing, Copying, CutOver]);
        let states = orch.scan_states().unwrap();
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].phase, CutOver);
    }

    /// Fails every backfill batch while `failing` is set.
    struct FailingBackfill {
        failing: AtomicBool,
        failures: AtomicUsize,
    }

    impl CrashHook for FailingBackfill {
        fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
            if point == "router.backfill_batch" && self.failing.load(Ordering::SeqCst) {
                self.failures.fetch_add(1, Ordering::SeqCst);
                return Err(DbError::Io("injected backfill fault".into()));
            }
            Ok(())
        }
    }

    /// A lazy copy that fails after the cutover does not end the job:
    /// each failed batch returns its keys to the residual, a read
    /// through the target still transforms the row it asks for, and
    /// once the fault clears the backfill completes. No `Aborted` is
    /// recorded for the published stage.
    #[test]
    fn a_failing_lazy_copy_keeps_its_targets_readable_and_completes() {
        let db = Arc::new(Database::new());
        for name in ["r", "s"] {
            let schema = Schema::builder()
                .column("id", ColumnType::Int)
                .column("v", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap();
            db.create_table(name, schema).unwrap();
            let txn = db.begin();
            for i in 0..20 {
                db.insert(txn, name, vec![Value::Int(i), Value::Int(i * 10)])
                    .unwrap();
            }
            db.commit(txn).unwrap();
        }
        let hook = Arc::new(FailingBackfill {
            failing: AtomicBool::new(true),
            failures: AtomicUsize::new(0),
        });
        db.set_crash_hook(hook.clone());

        let lazy = TransformOptions::default().strategy(SyncStrategy::Lazy);
        let handle = Orchestrator::new(Arc::clone(&db))
            .submit(Migration::union("r", "s", "u").build(), lazy)
            .unwrap();
        let t0 = Instant::now();
        while hook.failures.load(Ordering::SeqCst) < 3 {
            assert!(t0.elapsed() < Duration::from_secs(20), "the copy gave up");
            std::thread::sleep(Duration::from_millis(1));
        }
        let txn = db.begin();
        let row = db.read(txn, "u", &Key::new([Value::str("s"), Value::Int(7)]));
        db.commit(txn).unwrap();
        assert_eq!(
            row.unwrap(),
            Some(vec![Value::str("s"), Value::Int(7), Value::Int(70)])
        );
        assert!(!handle.is_finished(), "the job ended while its copy failed");

        hook.failing.store(false, Ordering::SeqCst);
        let reports = handle.join().unwrap();
        assert_eq!(reports[0].sync.strategy, SyncStrategy::Lazy);
        assert_eq!(db.catalog().get("u").unwrap().len(), 40);
        let aborted = db
            .log()
            .read_range(morph_common::Lsn(0), usize::MAX)
            .into_iter()
            .any(|(_, rec)| {
                matches!(
                    *rec,
                    LogRecord::MigrationState {
                        phase: MigrationPhase::Aborted,
                        ..
                    }
                )
            });
        assert!(!aborted, "a published stage was recorded as aborted");
    }
}
