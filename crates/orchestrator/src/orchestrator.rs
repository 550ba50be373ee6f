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
//! ```
//!
//! Every transition is persisted as a [`LogRecord::MigrationState`]
//! and forced durable *before* the work of the new phase starts, then
//! announced through a named crash point (`orchestrator.<phase>`), so
//! the deterministic crash simulator can kill the orchestrator at
//! every transition and verify recovery.
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
use morph_common::{DbError, DbResult};
use morph_core::{Progress, ProgressHandle, TransformJob, TransformOptions, TransformReport};
use morph_engine::Database;
use morph_wal::{LogRecord, MigrationPhase};
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

/// The latest durable state of a migration job, harvested from a
/// recovered log by [`Orchestrator::scan_states`].
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
        let id = self.claim(&spec)?;
        Ok(self.launch(id, spec, options))
    }

    /// The first half of [`Orchestrator::submit`]: validate `spec` and
    /// claim its tables under a fresh job id, starting nothing.
    pub(crate) fn claim(&self, spec: &MigrationSpec) -> DbResult<u64> {
        spec.validate()?;
        let id = self.db.migrations().next_job_id();
        self.db.migrations().claim(id, &spec.tables())?;
        Ok(id)
    }

    /// Parse and submit a migration program in the `ALTER TABLE`
    /// dialect.
    pub fn submit_text(&self, text: &str, options: TransformOptions) -> DbResult<MigrationHandle> {
        self.submit(Migration::parse(text)?, options)
    }

    /// Harvest the latest durable [`RecoveredMigration`] per job from
    /// a recovered record stream, in job-id order.
    pub fn scan_states(records: &[LogRecord]) -> Vec<RecoveredMigration> {
        let mut latest: BTreeMap<u64, RecoveredMigration> = BTreeMap::new();
        for rec in records {
            if let LogRecord::MigrationState {
                job,
                stage,
                phase,
                spec,
            } = rec
            {
                latest.insert(
                    *job,
                    RecoveredMigration {
                        job: *job,
                        stage: *stage,
                        phase: *phase,
                        spec_text: spec.clone(),
                    },
                );
            }
        }
        latest.into_values().collect()
    }

    /// Resume one recovered job on a freshly recovered database (call
    /// after `recover_into`). Non-`Aborted` jobs are re-executed from
    /// their persisted spec, restarting at preparation per §3.5 (see
    /// the module docs for why); `Aborted` jobs stay dead and return
    /// `None`.
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
        self.db.migrations().claim(rec.job, &spec.tables())?;
        Ok(Some(self.launch(rec.job, spec, options)))
    }

    /// Scan `records` and resume every recovered job (convenience
    /// wrapper over [`Orchestrator::scan_states`] +
    /// [`Orchestrator::resume`]).
    pub fn recover(
        &self,
        records: &[LogRecord],
        options: &TransformOptions,
    ) -> DbResult<Vec<MigrationHandle>> {
        let mut handles = Vec::new();
        for rec in Self::scan_states(records) {
            if let Some(h) = self.resume(&rec, options.clone())? {
                handles.push(h);
            }
        }
        Ok(handles)
    }

    /// The second half of [`Orchestrator::submit`]: start the state
    /// machine of the claimed job `id` on a background thread.
    pub(crate) fn launch(
        &self,
        id: u64,
        spec: MigrationSpec,
        options: TransformOptions,
    ) -> MigrationHandle {
        let abort = Arc::new(AtomicBool::new(false));
        let pause = Arc::new(AtomicBool::new(false));
        let progress = Progress::new();
        let db = Arc::clone(&self.db);
        let abort2 = Arc::clone(&abort);
        let pause2 = Arc::clone(&pause);
        let progress2 = Arc::clone(&progress);
        let join =
            std::thread::spawn(move || run_job(db, id, spec, options, abort2, pause2, progress2));
        MigrationHandle {
            id,
            join,
            abort,
            pause,
            progress,
            started: Instant::now(),
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

    /// Park the migration at the next propagation-iteration boundary.
    /// Nothing is released while parked (log pin, claims and targets
    /// stay); the wall-clock deadline, if any, keeps ticking.
    pub fn pause(&self) {
        self.pause.store(true, Ordering::Relaxed);
    }

    /// Release a [`MigrationHandle::pause`].
    pub fn resume(&self) {
        self.pause.store(false, Ordering::Relaxed);
    }

    /// Whether a pause is currently requested.
    pub fn is_paused(&self) -> bool {
        self.pause.load(Ordering::Relaxed)
    }

    /// Request an abort: the in-flight stage stops at its next batch
    /// boundary and deletes its targets (§6); already cut-over stages
    /// are final. The durable `Aborted` state is written by the worker.
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

/// Persist one state transition and force it durable before the new
/// phase's work starts. The record is transparent to redo/undo (see
/// `morph-wal`): it exists for discovery and observability, not
/// replay.
fn persist(db: &Database, job: u64, stage: u32, phase: MigrationPhase, spec: &str) -> DbResult<()> {
    let lsn = db.log().append(LogRecord::MigrationState {
        job,
        stage,
        phase,
        spec: spec.to_owned(),
    });
    db.log().wait_durable(lsn)
}

/// Worker-thread body: run all stages, then conclude — releasing
/// claims on success, or persisting `Aborted` on a clean failure. A
/// simulated crash is *not* an abort: the "process" is dead, so no
/// further state is written (exactly like a real kill).
fn run_job(
    db: Arc<Database>,
    id: u64,
    spec: MigrationSpec,
    options: TransformOptions,
    abort: Arc<AtomicBool>,
    pause: Arc<AtomicBool>,
    progress: Arc<Progress>,
) -> DbResult<Vec<TransformReport>> {
    let text = spec.to_text();
    match run_stages(&db, id, &spec, &options, &abort, &pause, &progress, &text) {
        Ok(reports) => {
            db.migrations().release(id);
            Ok(reports)
        }
        Err((_, e @ DbError::SimulatedCrash(_))) => Err(e),
        Err((stage, e)) => {
            progress.set_phase(MigrationPhase::Aborted);
            // Best-effort: a failing log backend must not mask the
            // original error.
            let _ = persist(&db, id, stage, MigrationPhase::Aborted, &text);
            db.migrations().release(id);
            announce(&db, MigrationPhase::Aborted)?;
            Err(e)
        }
    }
}

/// The happy path of the state machine; failures return the stage
/// they happened in so the conclusion can record it. Each stage is one
/// [`TransformJob::run`], whose phase hook persists the transition and
/// announces it; a failing hook drops the job, and with it the stage's
/// targets.
#[allow(clippy::too_many_arguments)]
fn run_stages(
    db: &Arc<Database>,
    id: u64,
    spec: &MigrationSpec,
    options: &TransformOptions,
    abort: &AtomicBool,
    pause: &AtomicBool,
    progress: &Arc<Progress>,
    text: &str,
) -> Result<Vec<TransformReport>, (u32, DbError)> {
    let enter = |stage: u32, phase: MigrationPhase| {
        persist(db, id, stage, phase, text)?;
        announce(db, phase)
    };
    enter(0, MigrationPhase::Planned).map_err(|e| (0, e))?;
    let mut reports = Vec::with_capacity(spec.stages.len());
    for (i, plan) in spec.stages.iter().enumerate() {
        let stage = i as u32;
        let fail = |e: DbError| (stage, e);
        enter(stage, MigrationPhase::Preparing).map_err(fail)?;
        let job =
            TransformJob::prepare_with_progress(db, plan, options.clone(), Arc::clone(progress))
                .map_err(fail)?;
        let report = job.run(abort, Some(pause), |phase| enter(stage, phase));
        reports.push(report.map_err(fail)?);
    }
    let last = spec.stages.len().saturating_sub(1) as u32;
    enter(last, MigrationPhase::CutOver).map_err(|e| (last, e))?;
    Ok(reports)
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
    use morph_common::Value;
    use morph_core::foj::figure1_schemas;
    use morph_wal::{FaultBackend, FaultConfig, LogManager};

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
}
