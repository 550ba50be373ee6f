//! The four workloads, as scenarios for the round engine. Everything
//! here goes through the public API of `morphdb`; the benchmark touches
//! no product layer and keeps no handle the API does not hand out.

use crate::keys::KeyStream;
use crate::rounds::{
    ClientOps, Kind, Maintenance, MigrationOutcome, Outcome, Scenario, Shared, Step, StepCtx,
};
use crate::trace::SpanKind;
use morphdb::core::{SyncStrategy, TransformOptions};
use morphdb::engine::{recover_from_bytes, ShardedDatabase};
use morphdb::orchestrator::{start_lazy_sharded, Migration, Orchestrator};
use morphdb::txn::LockManagerConfig;
use morphdb::wal::{Backend, GroupCommitConfig, LogManager, LogRecord, WalMode};
use morphdb::{ColumnType, Database, DbError, DbResult, Key, Schema, TableId, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Updates per write transaction (10 in the paper, §6).
const UPDATES_PER_TXN: usize = 10;
/// Reads of each kind per read-only transaction.
const READS_PER_TXN: usize = 5;
/// Rows per set-up transaction: keeps any one undo chain bounded.
const LOAD_BATCH: usize = 5_000;
/// A stalled migration is bounded by this, not by the run.
const MIGRATION_DEADLINE: Duration = Duration::from_secs(10);

const INITIAL_B: &str = "payload";
const INITIAL_D: &str = "dep";

fn is_schema_event(e: &DbError) -> bool {
    matches!(
        e,
        DbError::TxnDoomed(_) | DbError::TableFrozen(_) | DbError::NoSuchTable(_)
    )
}

fn two_col_schema(key: &str, val: &str) -> DbResult<Schema> {
    Schema::builder()
        .column(key, ColumnType::Int)
        .nullable(val, ColumnType::Str)
        .primary_key(&[key])
        .build()
}

fn load(db: &Database, table: &str, rows: impl Iterator<Item = Vec<Value>>) -> DbResult<()> {
    let mut txn = db.begin();
    for (n, row) in rows.enumerate() {
        if n > 0 && n % LOAD_BATCH == 0 {
            db.commit(txn)?;
            txn = db.begin();
        }
        db.insert(txn, table, row)?;
    }
    db.commit(txn)
}

fn scaled(rows: u64, scale: f64) -> u64 {
    ((rows as f64 * scale) as u64).max(64)
}

// --- the log device ---------------------------------------------------------

/// What one flush of the modelled log device takes.
pub const FLUSH_LATENCY: Duration = Duration::from_micros(100);

/// The WAL device of the durable workloads: every record is really
/// appended to a real file (the restart check replays that file), but a
/// flush takes a fixed [`FLUSH_LATENCY`] instead of the sandbox's
/// `sync_data`. Measured here, an append plus `sync_data` took 82–141 µs
/// in the probe, and over ten runs of one binary on `FileBackend` the
/// steady p50 of a 10-update transaction moved between 0.22 and 0.35 ms
/// and steady throughput between 1668 and 3556 txn/s: the disk hid the
/// program. The flush sleeps, as a committer blocked on a device does.
/// Spinning instead keeps the committer's CPU busy, and on this 2-vCPU
/// host that alone halved what the client got during a migration
/// (`rel_tput` 0.47 spinning against 0.85 sleeping on the cold split). A
/// sleep of 100 µs takes about 165 µs here (`wal.durable_wait_us`); the
/// overshoot is the kernel's timer slack. The sandbox's real `sync_data`
/// is still reported, as `wal.sync_data_us`.
pub struct ModelDisk {
    writer: BufWriter<File>,
    /// Nanoseconds flushes have taken so far, for whoever shares the
    /// counter: the time committers spent blocked on the device.
    busy_ns: Arc<AtomicU64>,
    /// First write error since the last flush; surfaced by `flush`, as
    /// `FileBackend` does.
    deferred: Option<DbError>,
}

impl ModelDisk {
    pub fn create(path: &Path) -> Result<ModelDisk, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let file = File::create(path).map_err(|e| e.to_string())?;
        Ok(ModelDisk {
            writer: BufWriter::new(file),
            busy_ns: Arc::default(),
            deferred: None,
        })
    }

    pub fn busy_ns(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.busy_ns)
    }
}

impl Backend for ModelDisk {
    fn append(&mut self, encoded: &[u8]) {
        let len = (encoded.len() as u32).to_le_bytes();
        let res = self
            .writer
            .write_all(&len)
            .and_then(|()| self.writer.write_all(encoded));
        if let (Err(e), None) = (res, &self.deferred) {
            self.deferred = Some(DbError::Io(e.to_string()));
        }
    }

    fn flush(&mut self) -> DbResult<()> {
        let start = Instant::now();
        if let Some(e) = &self.deferred {
            return Err(e.clone());
        }
        self.writer.flush()?;
        std::thread::sleep(FLUSH_LATENCY.saturating_sub(start.elapsed()));
        // Relaxed: a statistic, read between windows.
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(())
    }
}

// --- eager workloads: one engine, orchestrated migration ------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EagerKind {
    /// Read/write OLTP on `main`; the migrated table is cold (no client
    /// touches it), so `core` does no relevant work in steady windows
    /// and propagation finds nothing relevant in during windows.
    OltpRw,
    /// The paper's split at twice its size, 20 % of updates hot.
    SplitBc,
    /// Full outer join at 1.6 times the paper's size, 20 % of updates hot.
    /// With one zero-think-time client on a 2-core host the serial
    /// propagator does not keep up with more: it applied 694 K rec/s at
    /// 20 % hot, 345 K at 40 % (where `rel_tput` then swung between 0.3
    /// and 0.86 from run to run) and 184 K at 60 %, where two of three
    /// migrations ended in `CannotConverge`; the paper's 80 % case never
    /// reached synchronization.
    FojNbc,
}

pub struct Eager {
    kind: EagerKind,
    db: Arc<Database>,
    orch: Orchestrator,
    wal_path: Option<PathBuf>,
    /// Time the log device has been busy (stays 0 without one).
    device_ns: Arc<AtomicU64>,
    /// Rows of the shared table that takes the non-hot updates.
    base_rows: u64,
    /// Rows of the per-round source (`t{k}` or `r{k}`).
    src_rows: u64,
    /// Split values, or rows of `s{k}`.
    src_values: u64,
    strategy: SyncStrategy,
    deadline: Duration,
    /// Every table the log may name, for the restart check.
    created: Mutex<Vec<(TableId, String, Schema)>>,
}

const BASE: &str = "main";

impl Eager {
    pub fn new(kind: EagerKind, workload: &str, scale: f64, dir: &Path) -> Result<Eager, String> {
        let durable = kind != EagerKind::FojNbc;
        let mut device_ns = Arc::default();
        let (log, wal_path) = if durable {
            // Flush policy: one device flush per group flush.
            let path = dir.join(format!("wal-{workload}-{}.log", std::process::id()));
            let backend = ModelDisk::create(&path)?;
            device_ns = backend.busy_ns();
            let log = LogManager::with_backend_mode(
                Box::new(backend),
                WalMode::Group,
                GroupCommitConfig::default(),
            );
            (log, Some(path))
        } else {
            (LogManager::new_in(WalMode::Group), None)
        };
        let db = Arc::new(Database::with_log(
            Arc::new(log),
            LockManagerConfig::default(),
        ));
        if kind == EagerKind::OltpRw {
            db.enable_mvcc();
        }
        let (base_rows, src_rows, src_values) = match kind {
            EagerKind::OltpRw => (100_000, 100_000, 40_000),
            EagerKind::SplitBc => (200_000, 100_000, 40_000),
            EagerKind::FojNbc => (100_000, 80_000, 32_000),
        };
        let scn = Eager {
            kind,
            strategy: match kind {
                // Nobody holds a lock on the cold table, so non-blocking
                // abort has no transaction to doom: the default strategy
                // runs on the durable log without the in-flight-commit
                // race that keeps hot NBA/NBC out of the timed suite
                // (README).
                EagerKind::OltpRw => SyncStrategy::NonBlockingAbort,
                EagerKind::SplitBc => SyncStrategy::BlockingCommit,
                EagerKind::FojNbc => SyncStrategy::NonBlockingCommit,
            },
            deadline: MIGRATION_DEADLINE,
            orch: Orchestrator::new(Arc::clone(&db)),
            db,
            wal_path,
            device_ns,
            base_rows: scaled(base_rows, scale),
            src_rows: scaled(src_rows, scale),
            src_values: scaled(src_values, scale),
            created: Mutex::new(Vec::new()),
        };
        scn.create(BASE, two_col_schema("id", "payload"))?;
        load(
            &scn.db,
            BASE,
            (0..scn.base_rows as i64).map(|i| vec![Value::Int(i), Value::str("p")]),
        )
        .map_err(|e| e.to_string())?;
        scn.db.truncate_log().map_err(|e| e.to_string())?;
        Ok(scn)
    }

    /// Another synchronization strategy and deadline (the defect probe).
    pub fn with_sync(mut self, strategy: SyncStrategy, deadline: Duration) -> Eager {
        self.strategy = strategy;
        self.deadline = deadline;
        self
    }

    fn create(&self, name: &str, schema: DbResult<Schema>) -> Result<(), String> {
        let schema = schema.map_err(|e| e.to_string())?;
        let table = self
            .db
            .create_table(name, schema.clone())
            .map_err(|e| e.to_string())?;
        self.created
            .lock()
            .expect("no panic while the list is locked")
            .push((table.id(), name.to_owned(), schema));
        Ok(())
    }

    fn plan(&self) -> ClientPlan {
        match self.kind {
            EagerKind::OltpRw => ClientPlan {
                hot: None,
                read_mix: true,
            },
            EagerKind::SplitBc => ClientPlan {
                hot: Some(Hot {
                    fraction: 0.2,
                    s_share: 0.0,
                }),
                read_mix: false,
            },
            EagerKind::FojNbc => ClientPlan {
                hot: Some(Hot {
                    fraction: 0.2,
                    s_share: 0.2,
                }),
                read_mix: false,
            },
        }
    }

    /// Replay the WAL file into an empty catalog and compare every row
    /// of the OLTP table with the live one: every acknowledged write
    /// must be readable from only the bytes the log flushed.
    pub fn restart_check(&self) -> Result<RestartCheck, String> {
        let path = self.wal_path.as_ref().ok_or("no WAL file")?;
        self.db.log().flush().map_err(|e| e.to_string())?;
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let fresh = Database::new();
        for (id, name, schema) in self.created.lock().expect("list lock").iter() {
            fresh
                .catalog()
                .create_table_with_id(*id, name, schema.clone())
                .map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let report = recover_from_bytes(&fresh, &bytes).map_err(|e| e.to_string())?;
        let recover_s = t.elapsed().as_secs_f64();
        let live = self.db.catalog().get(BASE).map_err(|e| e.to_string())?;
        let back = fresh.catalog().get(BASE).map_err(|e| e.to_string())?;
        let mut mismatches = (live.len() != back.len()) as u64;
        let rows = live.snapshot();
        for (key, row) in &rows {
            if back.get(key).map(|r| r.values) != Some(row.values.clone()) {
                mismatches += 1;
            }
        }
        Ok(RestartCheck {
            checked: rows.len() as u64 + 1,
            mismatches,
            recover_s,
            redone: report.redone as u64,
            losers: report.losers.len() as u64,
        })
    }

    fn names(&self, k: usize) -> RoundNames {
        RoundNames::of(self.kind == EagerKind::FojNbc, k)
    }
}

impl Drop for Eager {
    fn drop(&mut self) {
        if let Some(p) = &self.wal_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

pub struct RestartCheck {
    pub checked: u64,
    pub mismatches: u64,
    pub recover_s: f64,
    pub redone: u64,
    pub losers: u64,
}

impl Scenario for Eager {
    fn client(&self, index: usize, clients: usize, seed: u64) -> Box<dyn ClientOps> {
        let slots = |rows: u64| rows.div_ceil(clients as u64) as usize;
        Box::new(TxnClient {
            db: Arc::clone(&self.db),
            plan: self.plan(),
            foj: self.kind == EagerKind::FojNbc,
            ks: KeyStream::new(seed, index, clients),
            clients: clients as i64,
            index: index as i64,
            base_rows: self.base_rows,
            src_rows: self.src_rows,
            src_values: self.src_values,
            serial: 0,
            hot_alive: false,
            names: Default::default(),
            model_r: vec![0; slots(self.src_rows)],
            model_s: vec![0; slots(self.src_values)],
            pending: Vec::new(),
            aborted: Vec::new(),
        })
    }

    fn setup_round(&self, k: usize) -> Result<(), String> {
        let values = self.src_values as i64;
        let names = self.names(k);
        match self.kind {
            EagerKind::OltpRw | EagerKind::SplitBc => {
                let name = &names.src;
                let schema = Schema::builder()
                    .column("a", ColumnType::Int)
                    .nullable("b", ColumnType::Str)
                    .nullable("c", ColumnType::Int)
                    .nullable("d", ColumnType::Str)
                    .primary_key(&["a"])
                    .build();
                self.create(name, schema)?;
                load(
                    &self.db,
                    name,
                    (0..self.src_rows as i64).map(|i| {
                        let c = i % values;
                        vec![
                            Value::Int(i),
                            Value::str(INITIAL_B),
                            Value::Int(c),
                            Value::str(format!("dep-{c}")),
                        ]
                    }),
                )
            }
            EagerKind::FojNbc => {
                let (r, s) = (&names.src, &names.src_s);
                let r_schema = Schema::builder()
                    .column("a", ColumnType::Int)
                    .nullable("b", ColumnType::Str)
                    .nullable("c", ColumnType::Int)
                    .primary_key(&["a"])
                    .build();
                self.create(r, r_schema)?;
                self.create(s, two_col_schema("c", "d"))?;
                load(
                    &self.db,
                    r,
                    (0..self.src_rows as i64).map(|i| {
                        vec![Value::Int(i), Value::str(INITIAL_B), Value::Int(i % values)]
                    }),
                )
                .and_then(|()| {
                    load(
                        &self.db,
                        s,
                        (0..values).map(|j| vec![Value::Int(j), Value::str(INITIAL_D)]),
                    )
                })
            }
        }
        .and_then(|()| self.db.truncate_log().map(drop))
        .map_err(|e| e.to_string())
    }

    fn migrate(
        &self,
        k: usize,
        _shared: &Shared,
        count_states: bool,
        idle: &mut dyn FnMut(),
    ) -> Result<MigrationOutcome, String> {
        let n = self.names(k);
        let text = match self.kind {
            EagerKind::OltpRw | EagerKind::SplitBc => format!(
                "ALTER TABLE {} SPLIT INTO {} (a, b, c) AND {} (c -> d)",
                n.src, n.target, n.target_s
            ),
            EagerKind::FojNbc => format!(
                "ALTER TABLE {0} JOIN {1} INTO {2} ON {0}.c = {1}.c",
                n.src, n.src_s, n.target
            ),
        };
        let spec = Migration::parse(&text).map_err(|e| e.to_string())?;
        let options = TransformOptions::default()
            .strategy(self.strategy)
            .deadline(self.deadline)
            .retain_sources();
        let from = self.db.log().last_lsn().next();
        let pin = count_states.then(|| self.db.protect_log(from));
        let handle = self.orch.submit(spec, options).map_err(|e| e.to_string())?;
        while !handle.is_finished() {
            idle();
        }
        let reports = handle.join().map_err(|e| e.to_string())?;
        let state_records = match pin {
            Some(_pin) => self
                .db
                .log()
                .read_range(from, usize::MAX)
                .iter()
                .filter(|(_, rec)| matches!(**rec, LogRecord::MigrationState { .. }))
                .count() as u64,
            None => 0,
        };
        Ok(MigrationOutcome {
            reports,
            state_records,
            ..Default::default()
        })
    }

    fn maintain(&self, m: &mut Maintenance) {
        let t = Instant::now();
        let _ = self.db.truncate_log();
        m.truncate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if self.db.mvcc_enabled() {
            let t = Instant::now();
            m.gc_reclaimed += self.db.mvcc_gc().unwrap_or(0);
            m.gc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn end_round(&self, k: usize) {
        for name in self.names(k).all() {
            if self.db.catalog().exists(name) {
                let _ = self.db.catalog().drop_table(name);
            }
        }
    }

    fn wal_bytes(&self) -> u64 {
        self.wal_path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    }

    fn wal_flushes(&self) -> u64 {
        self.db.log().flush_count()
    }

    fn device_ns(&self) -> u64 {
        self.device_ns.load(Ordering::Relaxed)
    }

    fn lock_waits(&self) -> u64 {
        self.db.locks().waits()
    }
}

#[derive(Clone, Copy)]
struct Hot {
    /// Share of updates that go to the round's source tables.
    fraction: f64,
    /// Share of those that go to the join's S side (FOJ only).
    s_share: f64,
}

#[derive(Clone, Copy)]
struct ClientPlan {
    hot: Option<Hot>,
    /// Alternate write transactions with read-only ones.
    read_mix: bool,
}

/// The tables of one round of a single-engine workload.
#[derive(Default)]
struct RoundNames {
    /// `t{k}` or `r{k}`.
    src: String,
    /// `s{k}` (FOJ; empty on a split).
    src_s: String,
    /// Where the hot columns live after cut-over: `t{k}_r` or `j{k}`.
    target: String,
    /// The split's second target, `t{k}_s` (empty on a FOJ).
    target_s: String,
}

impl RoundNames {
    fn of(foj: bool, k: usize) -> RoundNames {
        if foj {
            RoundNames {
                src: format!("r{k}"),
                src_s: format!("s{k}"),
                target: format!("j{k}"),
                target_s: String::new(),
            }
        } else {
            RoundNames {
                src: format!("t{k}"),
                src_s: String::new(),
                target: format!("t{k}_r"),
                target_s: format!("t{k}_s"),
            }
        }
    }

    fn all(&self) -> impl Iterator<Item = &String> {
        [&self.src, &self.src_s, &self.target, &self.target_s]
            .into_iter()
            .filter(|n| !n.is_empty())
    }
}

/// The transactional client of the three single-engine workloads. It
/// keeps, per round, the last value it was acknowledged for every hot
/// key it owns, and reads them back from the target after cut-over.
struct TxnClient {
    db: Arc<Database>,
    plan: ClientPlan,
    foj: bool,
    ks: KeyStream,
    clients: i64,
    index: i64,
    base_rows: u64,
    src_rows: u64,
    src_values: u64,
    serial: u64,
    /// The round's sources still take this client's updates.
    hot_alive: bool,
    names: RoundNames,
    /// Last acknowledged serial by key slot (0 = never written): the
    /// R side (`t.b` / `r.b`) and the S side (`s.d`).
    model_r: Vec<u64>,
    model_s: Vec<u64>,
    /// Hot writes of the open transaction: (S side?, key).
    pending: Vec<(bool, i64)>,
    /// Hot writes of transactions that rolled back: phantom candidates.
    aborted: Vec<(bool, i64)>,
}

impl TxnClient {
    fn write_txn(&mut self, ctx: &mut StepCtx<'_>) -> Outcome {
        let serial = self.serial;
        let db = Arc::clone(&self.db);
        let txn = ctx.spans.timed(SpanKind::Begin, || db.begin());
        self.pending.clear();
        let mut failed = None;
        for _ in 0..UPDATES_PER_TXN {
            let hot = match self.plan.hot {
                Some(h) if self.hot_alive && self.ks.rng.chance(h.fraction) => {
                    Some(self.foj && self.ks.rng.chance(h.s_share))
                }
                _ => None,
            };
            let (table, key) = match hot {
                Some(true) => (self.names.src_s.as_str(), self.ks.key(self.src_values)),
                Some(false) => (self.names.src.as_str(), self.ks.key(self.src_rows)),
                None => (BASE, self.ks.key(self.base_rows)),
            };
            let cols = [(1, Value::str(format!("w{serial}")))];
            let res = ctx.spans.timed(SpanKind::Update, || {
                db.update(txn, table, &Key::single(key), &cols)
            });
            match res {
                Ok(()) => self.pending.extend(hot.map(|s_side| (s_side, key))),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let error = match failed {
            None => match ctx.spans.timed(SpanKind::Commit, || db.commit(txn)) {
                Ok(()) => {
                    for (s_side, key) in self.pending.drain(..) {
                        let slot = (key / self.clients) as usize;
                        if s_side {
                            self.model_s[slot] = serial;
                        } else {
                            self.model_r[slot] = serial;
                        }
                    }
                    return Outcome::Committed;
                }
                // A doomed commit has already rolled itself back.
                Err(e) => e,
            },
            Some(e) => {
                let _ = ctx.spans.timed(SpanKind::Abort, || db.abort(txn));
                e
            }
        };
        self.aborted.append(&mut self.pending);
        if is_schema_event(&error) {
            self.hot_alive = false;
            Outcome::SchemaAbort
        } else {
            Outcome::Failed(error.to_string())
        }
    }

    /// Five locking reads of own keys, then five snapshot reads of any
    /// key (a snapshot takes no lock, so it cannot conflict).
    fn read_txn(&mut self, ctx: &mut StepCtx<'_>) -> Outcome {
        let db = Arc::clone(&self.db);
        let txn = ctx.spans.timed(SpanKind::Begin, || db.begin());
        let mut run = || -> DbResult<()> {
            for _ in 0..READS_PER_TXN {
                let key = Key::single(self.ks.key(self.base_rows));
                let t = Instant::now();
                let row = ctx
                    .spans
                    .timed(SpanKind::Read, || db.read(txn, BASE, &key))?;
                ctx.read_ops.push(t.elapsed().as_nanos() as u64);
                std::hint::black_box(row);
            }
            for _ in 0..READS_PER_TXN {
                let key = Key::single(self.ks.rng.below(self.base_rows) as i64);
                let row = ctx.spans.timed(SpanKind::SnapshotRead, || {
                    let snap = db.begin_snapshot()?;
                    db.snapshot_read(&snap, BASE, &key)
                })?;
                std::hint::black_box(row);
            }
            Ok(())
        };
        match run() {
            Ok(()) => match ctx.spans.timed(SpanKind::Commit, || db.commit(txn)) {
                Ok(()) => Outcome::Committed,
                Err(e) => Outcome::Failed(e.to_string()),
            },
            Err(e) => {
                let _ = ctx.spans.timed(SpanKind::Abort, || db.abort(txn));
                Outcome::Failed(e.to_string())
            }
        }
    }

    /// Read `(key, column)` pairs from the round's target and count the
    /// values that differ from `expect`. The migration has been joined
    /// and the clients are parked, so nothing is in flight and the
    /// lock-free read sees committed state.
    fn read_back(&self, checks: &[(Key, usize, String)]) -> u64 {
        let mut bad = 0;
        for (key, col, expect) in checks {
            match self.db.read_dirty(&self.names.target, key) {
                Ok(Some(row)) if row.get(*col).and_then(Value::as_str) == Some(expect) => {}
                _ => bad += 1,
            }
        }
        bad
    }
}

impl ClientOps for TxnClient {
    fn begin_round(&mut self, k: usize) {
        self.hot_alive = self.plan.hot.is_some();
        self.names = RoundNames::of(self.foj, k);
        self.model_r.fill(0);
        self.model_s.fill(0);
        self.aborted.clear();
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        self.serial += 1;
        ctx.spans.open_txn(self.serial);
        let kind = if self.plan.read_mix && self.serial.is_multiple_of(2) {
            Kind::Read
        } else {
            Kind::Write
        };
        let outcome = match kind {
            Kind::Write => self.write_txn(ctx),
            Kind::Read => self.read_txn(ctx),
        };
        ctx.spans.close_txn();
        Step { kind, outcome }
    }

    /// Theorem 1 end to end: after cut-over every hot key this client
    /// owns holds the last value it was acknowledged (no lost update),
    /// and a key whose only writes rolled back still holds its initial
    /// value (no phantom).
    fn verify(&mut self, _k: usize) -> (u64, u64) {
        if self.plan.hot.is_none() {
            return (0, 0);
        }
        let values = self.src_values as i64;
        let value_of = |serial: u64, initial: &str| match serial {
            0 => initial.to_owned(),
            s => format!("w{s}"),
        };
        // `t{k}_r(a, b, c)` keeps `b` at 1; `j{k}(a, b, c, d)` is keyed
        // by (a, c) and carries `s.d` at 3 on every joined row, of
        // which (j, j) is one.
        let r_key = |a: i64| match self.foj {
            true => Key::new([Value::Int(a), Value::Int(a % values)]),
            false => Key::single(a),
        };
        let mut checks = Vec::new();
        for (slot, &serial) in self.model_r.iter().enumerate() {
            if serial > 0 {
                let a = slot as i64 * self.clients + self.index;
                checks.push((r_key(a), 1, value_of(serial, INITIAL_B)));
            }
        }
        for (slot, &serial) in self.model_s.iter().enumerate() {
            if serial > 0 {
                let j = slot as i64 * self.clients + self.index;
                checks.push((r_key(j), 3, value_of(serial, INITIAL_D)));
            }
        }
        for &(s_side, key) in &self.aborted {
            let slot = (key / self.clients) as usize;
            if s_side && self.model_s[slot] == 0 {
                checks.push((r_key(key), 3, INITIAL_D.to_owned()));
            } else if !s_side && self.model_r[slot] == 0 {
                checks.push((r_key(key), 1, INITIAL_B.to_owned()));
            }
        }
        (checks.len() as u64, self.read_back(&checks))
    }
}

// --- lazy sharded union ----------------------------------------------------

pub struct LazyUnion {
    sdb: Arc<ShardedDatabase>,
    rows: u64,
}

impl LazyUnion {
    pub fn new(scale: f64, cores: usize) -> LazyUnion {
        LazyUnion {
            sdb: Arc::new(ShardedDatabase::with_wal_mode(
                cores.clamp(1, 4),
                WalMode::Group,
            )),
            rows: scaled(30_000, scale),
        }
    }

    /// Load through per-shard batch transactions (the router's own
    /// `insert` is one transaction per row).
    fn load(&self, table: &str) -> DbResult<()> {
        let shards = self.sdb.shards();
        let mut open: Vec<_> = shards.iter().map(|db| (db.begin(), 0usize)).collect();
        for i in 0..self.rows as i64 {
            let row = vec![Value::Int(i), Value::str(INITIAL_B)];
            let s = self.sdb.shard_of_row(table, &row)?;
            shards[s].insert(open[s].0, table, row)?;
            open[s].1 += 1;
            if open[s].1 % LOAD_BATCH == 0 {
                shards[s].commit(open[s].0)?;
                open[s].0 = shards[s].begin();
            }
        }
        for (db, (txn, _)) in shards.iter().zip(open) {
            db.commit(txn)?;
        }
        Ok(())
    }
}

impl Scenario for LazyUnion {
    fn client(&self, index: usize, clients: usize, seed: u64) -> Box<dyn ClientOps> {
        let slots = self.rows.div_ceil(clients as u64) as usize;
        Box::new(RouterClient {
            sdb: Arc::clone(&self.sdb),
            ks: KeyStream::new(seed, index, clients),
            clients: clients as i64,
            index: index as i64,
            rows: self.rows,
            serial: 0,
            on_target: false,
            names: Default::default(),
            model: [vec![0; slots], vec![0; slots]],
        })
    }

    fn setup_round(&self, k: usize) -> Result<(), String> {
        for name in &UnionNames::of(k).src {
            two_col_schema("id", "v")
                .and_then(|schema| self.sdb.create_table(name, schema))
                .and_then(|()| self.load(name))
                .map_err(|e| e.to_string())?;
        }
        for db in self.sdb.shards() {
            db.truncate_log().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn migrate(
        &self,
        k: usize,
        shared: &Shared,
        _count_states: bool,
        idle: &mut dyn FnMut(),
    ) -> Result<MigrationOutcome, String> {
        let UnionNames {
            src: [r, s],
            target: u,
        } = UnionNames::of(k);
        let spec = Migration::union(&r, &s, &u).build();
        // A target key is the provenance tag plus the source key: route
        // it by the suffix so it lands on the shard of its source row.
        self.sdb.route_key_suffix(&u, 1);
        let t = Instant::now();
        let lazy = start_lazy_sharded(&self.sdb, &spec).map_err(|e| e.to_string())?;
        let cutover_ms = t.elapsed().as_secs_f64() * 1e3;
        shared.cutover.store(true, Ordering::SeqCst);

        let t = Instant::now();
        let backfilled = std::thread::scope(|scope| {
            let worker = scope.spawn(|| -> DbResult<u64> {
                let mut n = 0;
                while !lazy.is_drained() {
                    n += lazy.backfill_round(64, 0.5)? as u64;
                    std::thread::yield_now();
                }
                Ok(n)
            });
            while !worker.is_finished() {
                idle();
            }
            worker.join().expect("backfill thread panicked")
        })
        .map_err(|e| e.to_string())?;
        let backfill_s = t.elapsed().as_secs_f64();
        lazy.finish().map_err(|e| e.to_string())?;
        Ok(MigrationOutcome {
            lazy_cutover_ms: cutover_ms,
            lazy_rows: 2 * self.rows,
            lazy_backfilled: backfilled,
            lazy_backfill_s: backfill_s,
            ..Default::default()
        })
    }

    fn maintain(&self, m: &mut Maintenance) {
        let t = Instant::now();
        for db in self.sdb.shards() {
            let _ = db.truncate_log();
        }
        m.truncate_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    fn end_round(&self, k: usize) {
        for db in self.sdb.shards() {
            let names = UnionNames::of(k);
            for name in names.src.iter().chain([&names.target]) {
                if db.catalog().exists(name) {
                    let _ = db.catalog().drop_table(name);
                }
            }
        }
    }

    fn wal_bytes(&self) -> u64 {
        0
    }

    fn wal_flushes(&self) -> u64 {
        self.sdb.counters().total.wal_flushes
    }

    fn device_ns(&self) -> u64 {
        0
    }

    fn lock_waits(&self) -> u64 {
        self.sdb.counters().total.lock_waits
    }
}

#[derive(Default)]
struct UnionNames {
    src: [String; 2],
    target: String,
}

impl UnionNames {
    fn of(k: usize) -> UnionNames {
        UnionNames {
            src: [format!("r{k}"), format!("s{k}")],
            target: format!("u{k}"),
        }
    }
}

/// Single-operation autocommit client of the router: reads and updates
/// half and half, on `r{k}`/`s{k}` until cut-over and on `u{k}` (keyed by
/// provenance tag + source key) from then on.
struct RouterClient {
    sdb: Arc<ShardedDatabase>,
    ks: KeyStream,
    clients: i64,
    index: i64,
    rows: u64,
    serial: u64,
    on_target: bool,
    names: UnionNames,
    /// Last acknowledged serial by (source, key slot).
    model: [Vec<u64>; 2],
}

impl RouterClient {
    fn target_key(&self, side: usize, id: i64) -> Key {
        Key::new([Value::str(self.names.src[side].clone()), Value::Int(id)])
    }
}

impl ClientOps for RouterClient {
    fn begin_round(&mut self, k: usize) {
        self.on_target = false;
        self.names = UnionNames::of(k);
        self.model.iter_mut().for_each(|m| m.fill(0));
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        self.serial += 1;
        let serial = self.serial;
        let side = self.ks.rng.chance(0.5) as usize;
        let id = self.ks.key(self.rows);
        let kind = if self.ks.rng.chance(0.5) {
            Kind::Read
        } else {
            Kind::Write
        };
        let (table, key, col) = if self.on_target {
            (self.names.target.as_str(), self.target_key(side, id), 2)
        } else {
            (self.names.src[side].as_str(), Key::single(id), 1)
        };
        ctx.spans.open_txn(serial);
        let res = match kind {
            Kind::Read => ctx
                .spans
                .timed(SpanKind::RouterRead, || self.sdb.read(table, &key))
                .map(|row| drop(std::hint::black_box(row))),
            Kind::Write => {
                let cols = [(col, Value::str(format!("w{serial}")))];
                ctx.spans.timed(SpanKind::RouterUpdate, || {
                    self.sdb.update(table, &key, &cols)
                })
            }
        };
        ctx.spans.close_txn();
        let outcome = match res {
            Ok(()) => {
                if kind == Kind::Write {
                    self.model[side][(id / self.clients) as usize] = serial;
                }
                Outcome::Committed
            }
            Err(e) if is_schema_event(&e) => {
                // The sources froze shard by shard; the target serves
                // once every shard has cut over. The wait is part of
                // what the client sees (it shows in the stall gap).
                while !ctx.shared.cutover.load(Ordering::SeqCst) && ctx.shared.migrating() {
                    std::thread::yield_now();
                }
                self.on_target = ctx.shared.cutover.load(Ordering::SeqCst);
                Outcome::SchemaAbort
            }
            Err(e) => Outcome::Failed(e.to_string()),
        };
        Step { kind, outcome }
    }

    /// After drain: every key this client updated holds, in `u{k}` and
    /// through the router, the last value it was acknowledged.
    fn verify(&mut self, _k: usize) -> (u64, u64) {
        let (mut checked, mut bad) = (0, 0);
        for side in 0..2 {
            for (slot, &serial) in self.model[side].iter().enumerate() {
                if serial == 0 {
                    continue;
                }
                let id = slot as i64 * self.clients + self.index;
                checked += 1;
                let want = format!("w{serial}");
                match self
                    .sdb
                    .read(&self.names.target, &self.target_key(side, id))
                {
                    Ok(Some(row)) if row.get(2).and_then(Value::as_str) == Some(&want) => {}
                    _ => bad += 1,
                }
            }
        }
        (checked, bad)
    }
}
