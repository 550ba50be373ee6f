//! The interleaved-round engine every workload runs on.
//!
//! One run is `K` rounds in one process, each over its own set of
//! source tables:
//!
//! ```text
//! set up set k (clients parked) → warm-up → reference phase → STEADY
//! window → migrate set k (DURING window = submit … handle joined) →
//! settle → check → drop set k
//! ```
//!
//! This host's speed swings by a quarter and more over periods of
//! several seconds, so one before/after pair is a coin toss. Ratios are
//! therefore taken per round between *adjacent* phases (during over
//! steady, steady over reference) and the run reports their median over
//! rounds; latency percentiles pool all `K` windows of a kind.
//!
//! Clients are closed-loop with zero think time (the paper's 100 %
//! workload, where Fig. 4 shows the largest interference).

use crate::hist::Hist;
use crate::reference::Reference;
use crate::trace::SpanBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PARK: u8 = 0;
pub const WARM: u8 = 1;
pub const STEADY: u8 = 2;
pub const DURING: u8 = 3;
pub const SETTLE: u8 = 4;
pub const VERIFY: u8 = 5;
pub const STOP: u8 = 6;
pub const REF: u8 = 7;

/// Reference iterations between two looks at the phase (~0.2 ms).
const REF_BATCH: u64 = 1_000;

/// What the coordinator and the clients share. `ctl` packs a command
/// counter above the phase so that a client notices every command, even
/// two with the same phase.
#[derive(Default)]
pub struct Shared {
    ctl: AtomicU64,
    acks: AtomicUsize,
    round: AtomicUsize,
    tracing: AtomicBool,
    /// Lazy mode: the targets of the current round serve requests.
    pub cutover: AtomicBool,
}

impl Shared {
    fn command(&self, phase: u8) {
        self.acks.store(0, Ordering::SeqCst);
        let next = ((self.ctl.load(Ordering::SeqCst) >> 8) + 1) << 8 | phase as u64;
        self.ctl.store(next, Ordering::SeqCst);
    }

    /// A migration is running (the during window is open).
    pub fn migrating(&self) -> bool {
        (self.ctl.load(Ordering::SeqCst) & 0xff) as u8 == DURING
    }

    /// Command a phase every client acknowledges (park, verify) and wait
    /// until all have.
    fn command_and_wait(&self, phase: u8, clients: usize) {
        self.command(phase);
        while self.acks.load(Ordering::SeqCst) < clients {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Write,
    Read,
}

pub enum Outcome {
    Committed,
    /// Doomed, frozen or vanished table: the schema change reached this
    /// client. By design, not a failure.
    SchemaAbort,
    Failed(String),
}

/// What a client hands back from one transaction (or one routed
/// operation).
pub struct Step {
    pub kind: Kind,
    pub outcome: Outcome,
}

/// Per-step scratch the engine lends a client.
pub struct StepCtx<'a> {
    pub spans: &'a mut SpanBuf,
    /// Latencies of single read calls made inside this step (ns).
    pub read_ops: &'a mut Vec<u64>,
    pub shared: &'a Shared,
}

pub trait ClientOps: Send {
    /// Called once per round, with the clients about to resume.
    fn begin_round(&mut self, round: usize);
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step;
    /// Read back what this client was acknowledged in `round`; returns
    /// (values compared, mismatches).
    fn verify(&mut self, round: usize) -> (u64, u64);
}

/// How a migration ended; everything optional stays at its default for
/// workloads that have no such phase.
#[derive(Default)]
pub struct MigrationOutcome {
    pub reports: Vec<morphdb::core::TransformReport>,
    /// Orchestrator state records found in the log between submit and
    /// join (counted on traced rounds only).
    pub state_records: u64,
    pub lazy_cutover_ms: f64,
    pub lazy_rows: u64,
    pub lazy_backfilled: u64,
    pub lazy_backfill_s: f64,
}

/// One tick of operator maintenance.
#[derive(Default)]
pub struct Maintenance {
    pub truncate_ms: Vec<f64>,
    pub gc_ms: Vec<f64>,
    pub gc_reclaimed: u64,
}

pub trait Scenario: Sync {
    fn client(&self, index: usize, clients: usize, seed: u64) -> Box<dyn ClientOps>;
    fn setup_round(&self, round: usize) -> Result<(), String>;
    /// Run the migration of `round` to its end. `idle` sleeps about a
    /// millisecond and runs maintenance when it is due; call it while
    /// waiting. `count_states` asks for `state_records`.
    fn migrate(
        &self,
        round: usize,
        shared: &Shared,
        count_states: bool,
        idle: &mut dyn FnMut(),
    ) -> Result<MigrationOutcome, String>;
    /// `truncate_log()` (+ `mvcc_gc()` when MVCC is on), as an operator
    /// would run them; without it the in-memory log grows without bound.
    fn maintain(&self, m: &mut Maintenance);
    fn end_round(&self, round: usize);
    /// Bytes in the WAL file so far (0 without a backend).
    fn wal_bytes(&self) -> u64;
    /// Backend flushes so far, summed over shards.
    fn wal_flushes(&self) -> u64;
    /// Nanoseconds the log device has spent flushing so far (0 without
    /// one): the time committers were blocked on it, not on the CPU.
    fn device_ns(&self) -> u64;
    /// Lock waits so far, summed over shards.
    fn lock_waits(&self) -> u64;
}

/// One window of one client.
#[derive(Default, Clone)]
pub struct WinAcc {
    pub writes: u64,
    pub reads: u64,
    pub write_lat: Hist,
    pub read_lat: Hist,
    pub max_gap_ns: u64,
}

impl WinAcc {
    pub fn merge(&mut self, o: &WinAcc) {
        self.writes += o.writes;
        self.reads += o.reads;
        self.write_lat.merge(&o.write_lat);
        self.read_lat.merge(&o.read_lat);
        self.max_gap_ns = self.max_gap_ns.max(o.max_gap_ns);
    }
}

#[derive(Default, Clone)]
pub struct RoundAcc {
    pub steady: WinAcc,
    pub during: WinAcc,
}

pub struct ClientResult {
    /// Reference iterations per round (see `reference.rs`).
    pub ref_iters: Vec<u64>,
    pub rounds: Vec<RoundAcc>,
    pub attempted: u64,
    pub failed: u64,
    pub schema_aborts: u64,
    pub checked: u64,
    pub mismatches: u64,
    pub errors: Vec<String>,
    pub spans: SpanBuf,
}

fn client_thread(
    shared: Arc<Shared>,
    mut ops: Box<dyn ClientOps>,
    rounds: usize,
    spans: SpanBuf,
    pin: Option<usize>,
) -> ClientResult {
    if let Some(cpu) = pin {
        crate::affinity::pin_to(cpu);
    }
    let mut reference = Reference::new();
    let mut res = ClientResult {
        ref_iters: vec![0; rounds],
        rounds: vec![RoundAcc::default(); rounds],
        attempted: 0,
        failed: 0,
        schema_aborts: 0,
        checked: 0,
        mismatches: 0,
        errors: Vec::new(),
        spans,
    };
    let mut read_ops = Vec::with_capacity(16);
    // Clients start parked; only commands are acknowledged.
    let mut seen = 0;
    let mut round = 0;
    let mut last_commit = Instant::now();
    loop {
        let ctl = shared.ctl.load(Ordering::SeqCst);
        let phase = (ctl & 0xff) as u8;
        if ctl != seen {
            seen = ctl;
            match phase {
                PARK => {
                    shared.acks.fetch_add(1, Ordering::SeqCst);
                }
                VERIFY => {
                    let (checked, bad) = ops.verify(round);
                    res.checked += checked;
                    res.mismatches += bad;
                    shared.acks.fetch_add(1, Ordering::SeqCst);
                }
                WARM => {
                    round = shared.round.load(Ordering::SeqCst);
                    res.spans.set_on(shared.tracing.load(Ordering::SeqCst));
                    ops.begin_round(round);
                }
                _ => {}
            }
        }
        match phase {
            STOP => break,
            PARK | VERIFY => {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            REF => {
                reference.run(REF_BATCH);
                res.ref_iters[round] += REF_BATCH;
                continue;
            }
            _ => {}
        }

        read_ops.clear();
        let t0 = Instant::now();
        let step = ops.step(&mut StepCtx {
            spans: &mut res.spans,
            read_ops: &mut read_ops,
            shared: &shared,
        });
        let t1 = Instant::now();
        let end_phase = (shared.ctl.load(Ordering::SeqCst) & 0xff) as u8;
        res.attempted += 1;
        let acc = &mut res.rounds[round];
        match step.outcome {
            Outcome::Committed => {
                // Throughput counts completions inside the window. A
                // latency belongs to the during window if the step
                // overlapped it at either end, so a stall that outlasts
                // the migration is not lost to the settle phase.
                let lat = (t1 - t0).as_nanos() as u64;
                let touches_during = phase == DURING || end_phase == DURING;
                let lat_win = if touches_during {
                    Some(&mut acc.during)
                } else if phase == STEADY && end_phase == STEADY {
                    Some(&mut acc.steady)
                } else {
                    None
                };
                if let Some(w) = lat_win {
                    match step.kind {
                        Kind::Write => w.write_lat.record(lat),
                        Kind::Read if read_ops.is_empty() => w.read_lat.record(lat),
                        Kind::Read => read_ops.iter().for_each(|ns| w.read_lat.record(*ns)),
                    }
                    if touches_during {
                        w.max_gap_ns = w.max_gap_ns.max((t1 - last_commit).as_nanos() as u64);
                    }
                }
                let count_win = match end_phase {
                    STEADY => Some(&mut acc.steady),
                    DURING => Some(&mut acc.during),
                    _ => None,
                };
                if let Some(w) = count_win {
                    match step.kind {
                        Kind::Write => w.writes += 1,
                        Kind::Read => w.reads += 1,
                    }
                }
                last_commit = t1;
            }
            Outcome::SchemaAbort => res.schema_aborts += 1,
            Outcome::Failed(e) => {
                res.failed += 1;
                if res.errors.len() < 5 {
                    res.errors.push(e);
                }
            }
        }
    }
    res
}

pub struct RoundsCfg {
    pub rounds: usize,
    pub clients: usize,
    pub seed: u64,
    pub warm: Duration,
    pub steady: Duration,
    pub settle: Duration,
    /// Length of the reference phase that opens every round.
    pub reference: Duration,
    /// Record spans on every other round (odd ones), so one run yields
    /// traced and untraced steady windows next to each other.
    pub trace: bool,
    /// CPU of each client, if the run pins its threads.
    pub pin: Vec<usize>,
}

/// Coordinator-side account of one round. Window bounds are in
/// nanoseconds since the run's epoch, for matching spans to windows.
pub struct RoundInfo {
    pub setup_s: f64,
    pub traced: bool,
    /// Length of the reference phase.
    pub ref_s: f64,
    /// Resident set with the round's tables loaded and the log truncated.
    pub rss_mb: f64,
    pub steady_s: f64,
    pub steady_span: (u64, u64),
    pub steady_wal_bytes: u64,
    pub steady_flushes: u64,
    pub steady_device_ns: u64,
    /// `None`: the migration failed; the round is excluded from timing.
    pub during_s: Option<f64>,
    pub during_span: (u64, u64),
    pub migration: MigrationOutcome,
    /// Read-back check plus dropping the round's tables.
    pub check_s: f64,
    pub error: Option<String>,
}

pub struct RunData {
    pub clients: Vec<ClientResult>,
    pub rounds: Vec<RoundInfo>,
    pub maintenance: Maintenance,
    pub lock_waits: u64,
}

/// Runs maintenance once a second of wall time while the coordinator
/// waits.
struct Ticker<'a> {
    scn: &'a dyn Scenario,
    next: Instant,
}

impl<'a> Ticker<'a> {
    fn new(scn: &'a dyn Scenario) -> Self {
        Ticker {
            scn,
            next: Instant::now() + Duration::from_secs(1),
        }
    }

    fn idle(&mut self, m: &mut Maintenance) {
        std::thread::sleep(Duration::from_millis(1));
        if Instant::now() >= self.next {
            self.scn.maintain(m);
            self.next = Instant::now() + Duration::from_secs(1);
        }
    }

    fn sleep(&mut self, d: Duration, m: &mut Maintenance) {
        let until = Instant::now() + d;
        while Instant::now() < until {
            self.idle(m);
        }
    }
}

/// A line of `/proc/self/status` in MB (`VmRSS:`, `VmHWM:`); 0 where the
/// file is missing.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run_rounds(scn: &dyn Scenario, cfg: &RoundsCfg) -> RunData {
    let shared = Arc::new(Shared::default());
    let epoch = Instant::now();
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut maintenance = Maintenance::default();

    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let ops = scn.client(i, cfg.clients, cfg.seed);
                let shared = Arc::clone(&shared);
                let spans = SpanBuf::new(epoch, i as u32);
                let n = cfg.rounds;
                let pin = cfg.pin.get(i).copied();
                s.spawn(move || client_thread(shared, ops, n, spans, pin))
            })
            .collect();

        let mut ticker = Ticker::new(scn);

        for k in 0..cfg.rounds {
            let t = Instant::now();
            let setup = scn.setup_round(k);
            let setup_s = t.elapsed().as_secs_f64();
            let traced = cfg.trace && k % 2 == 1;
            let mut info = RoundInfo {
                setup_s,
                traced,
                ref_s: 0.0,
                rss_mb: 0.0,
                steady_s: 0.0,
                steady_span: (0, 0),
                steady_wal_bytes: 0,
                steady_flushes: 0,
                steady_device_ns: 0,
                during_s: None,
                during_span: (0, 0),
                migration: MigrationOutcome::default(),
                check_s: 0.0,
                error: setup.err(),
            };
            if info.error.is_some() {
                rounds.push(info);
                continue;
            }
            shared.round.store(k, Ordering::SeqCst);
            shared.tracing.store(traced, Ordering::SeqCst);
            shared.cutover.store(false, Ordering::SeqCst);
            shared.command(WARM);
            ticker.sleep(cfg.warm, &mut maintenance);

            scn.maintain(&mut maintenance);
            info.rss_mb = rss_mb("VmRSS:");
            let t_ref = Instant::now();
            shared.command(REF);
            ticker.sleep(cfg.reference, &mut maintenance);
            info.ref_s = t_ref.elapsed().as_secs_f64();
            let (bytes0, flushes0, device0) = (scn.wal_bytes(), scn.wal_flushes(), scn.device_ns());
            let t_steady = Instant::now();
            shared.command(STEADY);
            ticker.sleep(cfg.steady, &mut maintenance);
            let t_during = Instant::now();
            shared.command(DURING);
            info.steady_s = (t_during - t_steady).as_secs_f64();
            info.steady_span = (since(t_steady), since(t_during));
            info.steady_wal_bytes = scn.wal_bytes() - bytes0;
            info.steady_flushes = scn.wal_flushes() - flushes0;
            info.steady_device_ns = scn.device_ns() - device0;

            let migrated = scn.migrate(k, &shared, traced, &mut || ticker.idle(&mut maintenance));
            let t_end = Instant::now();
            shared.command(SETTLE);
            info.during_span = (since(t_during), since(t_end));
            match migrated {
                Ok(m) => {
                    info.during_s = Some((t_end - t_during).as_secs_f64());
                    info.migration = m;
                }
                Err(e) => info.error = Some(e),
            }
            ticker.sleep(cfg.settle, &mut maintenance);
            let t_check = Instant::now();
            if info.error.is_none() {
                shared.command_and_wait(VERIFY, cfg.clients);
            }
            shared.command_and_wait(PARK, cfg.clients);
            scn.end_round(k);
            scn.maintain(&mut maintenance);
            info.check_s = t_check.elapsed().as_secs_f64();
            rounds.push(info);
        }
        shared.command(STOP);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });

    RunData {
        clients,
        rounds,
        maintenance,
        lock_waits: scn.lock_waits(),
    }
}
