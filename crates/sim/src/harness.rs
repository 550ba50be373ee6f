//! The deterministic crash-and-recovery harness.
//!
//! One [`run_sim`] call is one simulated universe, fully determined by
//! its [`SimConfig`]:
//!
//! 1. Build a [`Database`] whose WAL backend is a seeded
//!    [`FaultBackend`] (volatile buffer + durable prefix).
//! 2. Create the scenario's source tables, seed them, and point a
//!    deterministic [`StepWorkload`] at them.
//! 3. Install a [`CrashHook`]: at every instrumented crash point it
//!    (a) kills the run with [`DbError::SimulatedCrash`] if the armed
//!    kill matches this point's n-th occurrence, and (b) otherwise
//!    injects a few complete workload transactions — so user activity
//!    is interleaved with fuzzy copy, propagation batches, and every
//!    step of all three synchronization strategies.
//! 4. Run the transformation synchronously.
//! 5. If the kill fired: [`crash_and_recover`] (drain the staged
//!    records to the backend, tear its unflushed bytes at a seeded
//!    offset with [`FaultHandle::crash`], decode the durable prefix,
//!    rebuild a fresh database, replay the log with `recover_into`),
//!    then check the **Theorem 1 oracle**:
//!      * recovered sources ≡ the workload's committed-state model
//!        (no lost updates — valid because every workload step is a
//!        complete flushed transaction, so only transformation
//!        bookkeeping can sit in the torn tail);
//!      * re-running the same transformation from preparation on the
//!        recovered database succeeds (the §3.5 recovery story:
//!        transformations are not themselves redo-logged, they are
//!        simply restarted);
//!      * the transformed tables then equal those produced by an
//!        uninterrupted run over the same source state — comparing
//!        values, split counters, C/U flags, and FOJ presence bits,
//!        key by key.
//!
//! Everything — workload choices, injection counts, tear offset — is
//! drawn from RNGs seeded from `SimConfig::seed`, and the run is
//! single-threaded, so the same config replays the same trace byte for
//! byte. The trace is the debugging artifact: a failure report prints
//! the seed, the kill point, and the full trace.

use crate::scenario::Scenario;
use morph_common::{DbError, DbResult, Key, Schema, TableId, Value};
use morph_core::SyncStrategy;
use morph_engine::{recover_into, CrashHook, Database, RecoveryReport};
use morph_storage::row::Presence;
use morph_storage::ConsistencyFlag;
use morph_txn::LockManagerConfig;
use morph_wal::{FaultBackend, FaultConfig, FaultHandle, LogManager, LogRecord};
use morph_workload::{StepStats, StepWorkload};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Kill the run at the `occurrence`-th time (1-based) execution passes
/// the named crash point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kill {
    pub point: String,
    pub occurrence: usize,
}

impl Kill {
    pub fn new(point: &str, occurrence: usize) -> Kill {
        Kill {
            point: point.to_owned(),
            occurrence,
        }
    }
}

/// Full description of one simulated universe.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub seed: u64,
    pub scenario: Scenario,
    pub strategy: SyncStrategy,
    /// `None` = let the transformation complete (census run).
    pub kill: Option<Kill>,
    /// Maximum workload transactions the hook injects across the whole
    /// run. Keeps propagation convergent: once the budget is spent the
    /// workload quiesces and the backlog drains.
    pub inject_budget: usize,
    /// Run the universe with multi-version reads on (off by default,
    /// the determinism pin: the trace is then byte-identical to
    /// pre-MVCC runs). The driver holds a snapshot across the whole
    /// transformation, checks afterwards that the retained sources
    /// still read through it as they did before, and ends with a GC
    /// sweep — so the fuzzy copy runs with versioning on, as durable
    /// deployments ship it. The reference run the oracle compares
    /// against *always* has MVCC off.
    pub mvcc: bool,
}

impl SimConfig {
    pub fn new(seed: u64, scenario: Scenario, strategy: SyncStrategy) -> SimConfig {
        SimConfig {
            seed,
            scenario,
            strategy,
            kill: None,
            inject_budget: 40,
            mvcc: false,
        }
    }

    #[must_use]
    pub fn kill_at(mut self, point: &str, occurrence: usize) -> SimConfig {
        self.kill = Some(Kill::new(point, occurrence));
        self
    }

    /// Turn multi-version reads on for the database under test (the
    /// reference run stays MVCC-off).
    #[must_use]
    pub fn with_mvcc(mut self) -> SimConfig {
        self.mvcc = true;
        self
    }
}

/// How the simulated universe ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No kill fired; the transformation completed and the live
    /// transformed tables passed the oracle.
    CompletedClean,
    /// The armed kill fired; recovery, re-transformation, and the
    /// Theorem 1 oracle all passed.
    KilledAndRecovered,
    /// A kill was armed but execution never reached that occurrence
    /// before the transformation completed (the clean-run oracle was
    /// still checked).
    KillNotReached,
}

/// Successful simulation outcome.
#[derive(Debug)]
pub struct SimReport {
    pub verdict: Verdict,
    /// Deterministic event trace (crash points, injections, kill,
    /// recovery milestones).
    pub trace: Vec<String>,
    /// How many times each crash point fired (census for kill
    /// enumeration).
    pub point_counts: BTreeMap<String, usize>,
    /// Log records that survived the simulated crash (0 for clean
    /// runs).
    pub durable_records: usize,
    /// Unflushed bytes the seeded tear let survive (0 for clean runs).
    pub tail_bytes: usize,
    pub workload: StepStats,
}

/// An oracle violation (or harness-level inconsistency): the bug
/// report. `render()` prints everything needed to replay it.
#[derive(Debug, Clone)]
pub struct SimFailure {
    pub seed: u64,
    pub scenario: &'static str,
    pub strategy: SyncStrategy,
    pub kill: Option<Kill>,
    pub detail: String,
    pub trace: Vec<String>,
}

impl SimFailure {
    /// Human-readable failure report: seed, crash point, full trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== simulation failure ===\n");
        out.push_str(&format!(
            "seed={} scenario={} strategy={:?}\n",
            self.seed, self.scenario, self.strategy
        ));
        match &self.kill {
            Some(k) => out.push_str(&format!(
                "kill point: {} (occurrence {})\n",
                k.point, k.occurrence
            )),
            None => out.push_str("kill point: none (census run)\n"),
        }
        out.push_str(&format!("detail: {}\n", self.detail));
        out.push_str("trace:\n");
        for line in &self.trace {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// What every kill hook keeps: the armed kill, how often each crash
/// point has fired, and whether the kill went off.
#[derive(Default)]
struct KillState {
    kill: Option<Kill>,
    counts: BTreeMap<String, usize>,
    fired: bool,
}

impl KillState {
    /// Count one pass through `point`: its occurrence number, and the
    /// crash error if this pass is the armed one.
    fn pass(&mut self, point: &str) -> (usize, DbResult<()>) {
        let c = self.counts.entry(point.to_owned()).or_insert(0);
        *c += 1;
        let n = *c;
        if self
            .kill
            .as_ref()
            .is_some_and(|k| k.point == point && k.occurrence == n)
        {
            self.fired = true;
            return (n, Err(DbError::SimulatedCrash(format!("{point}#{n}"))));
        }
        (n, Ok(()))
    }
}

/// A [`CrashHook`] that dies the `occurrence`-th time execution passes
/// one crash point, for kill tests that drive the engine, the
/// orchestrator or the router by hand.
pub struct KillHook {
    inner: Mutex<KillState>,
}

impl KillHook {
    pub fn arm(point: &str, occurrence: usize) -> Arc<KillHook> {
        Arc::new(KillHook {
            inner: Mutex::new(KillState {
                kill: Some(Kill::new(point, occurrence)),
                ..KillState::default()
            }),
        })
    }

    /// Whether the armed kill went off.
    pub fn fired(&self) -> bool {
        self.inner.lock().fired
    }
}

impl CrashHook for KillHook {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        // Same re-entrancy guard as `SimHook`.
        let Some(mut g) = self.inner.try_lock() else {
            return Ok(());
        };
        g.pass(point).1
    }
}

struct HookInner {
    rng: StdRng,
    workload: StepWorkload,
    kill: KillState,
    trace: Vec<String>,
    inject_budget: usize,
}

/// The [`CrashHook`] installed on the database under test: a kill hook
/// that also traces every point and injects workload.
struct SimHook {
    inner: Mutex<HookInner>,
}

impl CrashHook for SimHook {
    fn at(&self, db: &Database, point: &str) -> DbResult<()> {
        // Re-entrancy guard: transactions the hook itself injects pass
        // through the engine's commit/abort crash points on this same
        // thread while the hook state is locked. Injected activity is
        // not part of the census (the sim is single-threaded, so
        // try_lock fails exactly when we re-entered ourselves), which
        // also keeps traces identical to pre-group-commit runs.
        let Some(mut g) = self.inner.try_lock() else {
            return Ok(());
        };
        let (n, verdict) = g.kill.pass(point);
        g.trace.push(format!("point:{point}#{n}"));
        if verdict.is_err() {
            g.trace.push(format!("KILL:{point}#{n}"));
            return verdict;
        }
        if g.inject_budget > 0 && crate::points::is_injection_point(point) {
            let steps = g.rng.gen_range(0..=2usize).min(g.inject_budget);
            for _ in 0..steps {
                g.inject_budget -= 1;
                let outcome = g.workload.step(db);
                g.trace.push(format!("inject:{outcome:?}"));
            }
        }
        Ok(())
    }
}

/// A committed row as the oracle compares it: values plus every piece
/// of transformation metadata Theorem 1 is entitled to (state
/// identifiers — LSNs — are excluded: two equivalent histories reach
/// the same state through different log positions).
type OracleRow = (Vec<Value>, u32, ConsistencyFlag, Presence);

fn oracle_snapshot(db: &Database, table: &str) -> DbResult<BTreeMap<Key, OracleRow>> {
    let t = db.catalog().get(table)?;
    Ok(t.snapshot()
        .into_iter()
        .map(|(k, r)| (k, (r.values, r.counter, r.flag, r.presence)))
        .collect())
}

fn values_snapshot(db: &Database, table: &str) -> DbResult<BTreeMap<Key, Vec<Value>>> {
    let t = db.catalog().get(table)?;
    Ok(t.snapshot()
        .into_iter()
        .map(|(k, r)| (k, r.values))
        .collect())
}

/// Render the first difference between two keyed maps, for failure
/// reports.
fn first_diff<V: PartialEq + std::fmt::Debug>(
    label: &str,
    got: &BTreeMap<Key, V>,
    want: &BTreeMap<Key, V>,
) -> Option<String> {
    for (k, v) in want {
        match got.get(k) {
            None => return Some(format!("{label}: missing key {k:?} (want {v:?})")),
            Some(g) if g != v => return Some(format!("{label}: key {k:?}: got {g:?}, want {v:?}")),
            _ => {}
        }
    }
    for k in got.keys() {
        if !want.contains_key(k) {
            return Some(format!("{label}: spurious key {k:?}"));
        }
    }
    None
}

/// A fresh database whose WAL tees into a seeded [`FaultBackend`],
/// and the handle that later crashes it.
pub fn fault_db(seed: u64) -> (Arc<Database>, FaultHandle) {
    let (backend, fault) = FaultBackend::new(FaultConfig::crash_only(seed));
    let log = Arc::new(LogManager::with_backend(Box::new(backend)));
    let db = Arc::new(Database::with_log(log, LockManagerConfig::default()));
    (db, fault)
}

/// What [`crash_and_recover`] hands back: the restarted database and
/// what it restarted from.
pub struct Recovered {
    pub db: Arc<Database>,
    /// Complete records decoded from the surviving byte image.
    pub durable: Vec<LogRecord>,
    /// Unflushed bytes the seeded tear let survive.
    pub tail_bytes: usize,
    pub report: RecoveryReport,
}

/// The one crash step every kill test shares: drain, tear, recover.
///
/// The drain hands the published-but-unflushed records to the backend
/// first, which is what a flush leader that died between its drain and
/// its fsync leaves behind; without it the group pipeline's volatile
/// buffer is always empty at a crash point and the tear has nothing to
/// cut. Then [`FaultHandle::crash`] keeps a seeded-random byte prefix
/// of that buffer, the durable image is decoded (tolerating the torn
/// tail), and a fresh database with the same table ids replays it.
pub fn crash_and_recover(
    db: &Database,
    fault: &FaultHandle,
    sources: &[(TableId, String, Schema)],
) -> DbResult<Recovered> {
    db.log().drain()?;
    let tail_bytes = fault.crash();
    let durable = fault.durable_records()?;
    let log = Arc::new(LogManager::with_records(durable.clone()));
    let db2 = Arc::new(Database::with_log(log, LockManagerConfig::default()));
    for (id, name, schema) in sources {
        db2.catalog()
            .create_table_with_id(*id, name, schema.clone())?;
    }
    let report = recover_into(&db2, &durable)?;
    Ok(Recovered {
        db: db2,
        durable,
        tail_bytes,
        report,
    })
}

struct SimRun {
    db: Arc<Database>,
    fault: FaultHandle,
    hook: Arc<SimHook>,
    /// `(id, name, schema)` of every source table, creation order.
    sources: Vec<(TableId, String, Schema)>,
}

/// Build the faulty universe: fault-backed WAL, database, sources,
/// seed rows, workload, hook.
fn build(cfg: &SimConfig) -> Result<SimRun, SimFailure> {
    let fail = |detail: String| SimFailure {
        seed: cfg.seed,
        scenario: cfg.scenario.tag(),
        strategy: cfg.strategy,
        kill: cfg.kill.clone(),
        detail,
        trace: Vec::new(),
    };

    let (db, fault) = fault_db(cfg.seed);
    if cfg.mvcc {
        db.enable_mvcc();
    }

    let mut sources = Vec::new();
    for (name, schema) in cfg.scenario.source_schemas() {
        let t = db
            .create_table(&name, schema.clone())
            .map_err(|e| fail(format!("create_table({name}): {e}")))?;
        sources.push((t.id(), name, schema));
    }
    cfg.scenario
        .seed_rows(&db)
        .map_err(|e| fail(format!("seed rows: {e}")))?;

    let mut workload = StepWorkload::new(cfg.seed ^ 0x9e37_79b9_7f4a_7c15, cfg.scenario.profiles());
    for (_, name, _) in &sources {
        let rows = values_snapshot(&db, name).map_err(|e| fail(format!("snapshot: {e}")))?;
        workload.absorb_existing(name, rows);
    }

    let hook = Arc::new(SimHook {
        inner: Mutex::new(HookInner {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5851_f42d_4c95_7f2d),
            workload,
            kill: KillState {
                kill: cfg.kill.clone(),
                ..KillState::default()
            },
            trace: Vec::new(),
            inject_budget: cfg.inject_budget,
        }),
    });
    db.set_crash_hook(hook.clone());

    Ok(SimRun {
        db,
        fault,
        hook,
        sources,
    })
}

/// Replay the scenario on a pristine database seeded with exactly
/// `model` as source contents, with no hook and no faults, and return
/// the oracle snapshots of the transformed tables.
fn reference_targets(
    cfg: &SimConfig,
    sources: &[(TableId, String, Schema)],
    model: &BTreeMap<String, BTreeMap<Key, Vec<Value>>>,
) -> DbResult<BTreeMap<String, BTreeMap<Key, OracleRow>>> {
    let db = Arc::new(Database::new());
    for (_, name, schema) in sources {
        db.create_table(name, schema.clone())?;
    }
    for (_, name, _) in sources {
        let rows = &model[name];
        if rows.is_empty() {
            continue;
        }
        let txn = db.begin();
        for values in rows.values() {
            db.insert(txn, name, values.clone())?;
        }
        db.commit(txn)?;
    }
    cfg.scenario.run(&db, cfg.strategy)?;
    let mut out = BTreeMap::new();
    for target in cfg.scenario.target_names() {
        out.insert(target.to_owned(), oracle_snapshot(&db, target)?);
    }
    Ok(out)
}

/// Check transformed tables on `db` against the clean reference run.
fn check_targets(
    cfg: &SimConfig,
    db: &Database,
    sources: &[(TableId, String, Schema)],
    model: &BTreeMap<String, BTreeMap<Key, Vec<Value>>>,
    label: &str,
) -> Result<(), String> {
    let reference =
        reference_targets(cfg, sources, model).map_err(|e| format!("reference run failed: {e}"))?;
    for target in cfg.scenario.target_names() {
        let got =
            oracle_snapshot(db, target).map_err(|e| format!("{label}: snapshot({target}): {e}"))?;
        if let Some(diff) = first_diff(&format!("{label}:{target}"), &got, &reference[target]) {
            return Err(diff);
        }
    }
    Ok(())
}

/// Step 4: run the transformation. An MVCC universe brackets it with
/// a snapshot taken here, by the driver (the hook's re-entrancy guard
/// keeps points reached from inside an injection out of the census):
/// whatever the workload and the schema change did in between, the
/// retained sources must read through that snapshot exactly as they
/// did when it was taken. The closing GC sweep puts `mvcc.gc_reclaim`
/// in the census too; with the snapshot released it may reclaim every
/// archived version up to the durable watermark.
fn drive(cfg: &SimConfig, run: &SimRun) -> DbResult<()> {
    if !cfg.mvcc {
        return cfg.scenario.run(&run.db, cfg.strategy).map(drop);
    }
    let snap = run.db.begin_snapshot()?;
    let mut before = Vec::new();
    for (_, name, _) in &run.sources {
        before.push(run.db.snapshot_scan(&snap, name)?);
    }
    cfg.scenario.run(&run.db, cfg.strategy)?;
    for ((_, name, _), before) in run.sources.iter().zip(before) {
        if run.db.snapshot_scan(&snap, name)? != before {
            return Err(DbError::Internal(format!(
                "snapshot of {name} moved under the transformation"
            )));
        }
    }
    drop(snap);
    run.db.mvcc_gc()?;
    Ok(())
}

/// Run one simulated universe. See module docs for the exact pipeline.
pub fn run_sim(cfg: &SimConfig) -> Result<SimReport, SimFailure> {
    let run = build(cfg)?;
    let result = drive(cfg, &run);

    // Pull the hook's state out; the transformation is done with it.
    run.db.clear_crash_hook();
    let (mut trace, point_counts, model, stats) = {
        let g = run.hook.inner.lock();
        let model: BTreeMap<String, BTreeMap<Key, Vec<Value>>> = run
            .sources
            .iter()
            .map(|(_, name, _)| {
                (
                    name.clone(),
                    g.workload.model(name).cloned().unwrap_or_default(),
                )
            })
            .collect();
        (
            g.trace.clone(),
            g.kill.counts.clone(),
            model,
            g.workload.stats,
        )
    };

    let fail = |detail: String, trace: &[String]| SimFailure {
        seed: cfg.seed,
        scenario: cfg.scenario.tag(),
        strategy: cfg.strategy,
        kill: cfg.kill.clone(),
        detail,
        trace: trace.to_vec(),
    };

    match result {
        Ok(()) => {
            // Clean completion (kill absent or never reached): the live
            // transformed tables must already satisfy Theorem 1.
            check_targets(cfg, &run.db, &run.sources, &model, "live")
                .map_err(|d| fail(d, &trace))?;
            let verdict = if cfg.kill.is_some() {
                Verdict::KillNotReached
            } else {
                Verdict::CompletedClean
            };
            Ok(SimReport {
                verdict,
                trace,
                point_counts,
                durable_records: 0,
                tail_bytes: 0,
                workload: stats,
            })
        }
        Err(DbError::SimulatedCrash(_)) => {
            // ---- the crash, then restart on a fresh database ----
            let Recovered {
                db: db2,
                durable,
                tail_bytes,
                report,
            } = crash_and_recover(&run.db, &run.fault, &run.sources)
                .map_err(|e| fail(format!("crash recovery failed: {e}"), &trace))?;
            trace.push(format!(
                "crash: {} records ({tail_bytes} bytes) durable",
                durable.len()
            ));
            trace.push(format!(
                "recovered: redone={} losers={} clrs={}",
                report.redone,
                report.losers.len(),
                report.clrs_written
            ));

            // ---- oracle 1: no lost updates ----
            for (_, name, _) in &run.sources {
                let got = values_snapshot(&db2, name)
                    .map_err(|e| fail(format!("recovered snapshot({name}): {e}"), &trace))?;
                if let Some(diff) = first_diff(&format!("recovered:{name}"), &got, &model[name]) {
                    return Err(fail(format!("lost updates — {diff}"), &trace));
                }
            }

            // ---- oracle 2: restart the transformation from prep ----
            cfg.scenario
                .run(&db2, cfg.strategy)
                .map_err(|e| fail(format!("re-transformation failed: {e}"), &trace))?;
            trace.push("re-transformation: ok".to_owned());

            // ---- oracle 3: Theorem 1 equivalence ----
            check_targets(cfg, &db2, &run.sources, &model, "recovered")
                .map_err(|d| fail(d, &trace))?;

            Ok(SimReport {
                verdict: Verdict::KilledAndRecovered,
                trace,
                point_counts,
                durable_records: durable.len(),
                tail_bytes,
                workload: stats,
            })
        }
        Err(other) => Err(fail(
            format!("unexpected transformation error: {other}"),
            &trace,
        )),
    }
}
