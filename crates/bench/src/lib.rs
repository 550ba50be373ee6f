//! # morph-bench
//!
//! Shared machinery for the experiment benches that regenerate the
//! paper's evaluation (Figure 4(a)–(d), the synchronization-pause
//! claim, and the ablation baselines). Each bench target is a
//! `harness = false` binary that prints the same rows/series the paper
//! plots and writes a CSV under `target/experiments/`.
//!
//! ## Methodology mapping (paper §6 → here)
//!
//! * *Server*: the paper used one active CPU on the server node; these
//!   benches run the engine plus one transformation thread on the local
//!   machine.
//! * *Clients*: the paper's clients were separate nodes on a 100 Mb/s
//!   LAN; here they are in-process threads whose per-transaction pacing
//!   sleep stands in for the network round trip. Relative measurements
//!   (before vs. during the change) cancel the constant.
//! * *100 % workload*: the client count that maximizes throughput. Set
//!   `MORPH_FULL_THREADS` to override the default of 10.
//! * *Scale*: 50 000 R-rows / 20 000 S-rows (FOJ) and 50 000 T-rows
//!   over 20 000 split values, as in the paper. `MORPH_QUICK=1` runs a
//!   reduced-scale smoke version of every experiment (used by `cargo
//!   bench` in CI-ish settings; the published numbers use full scale).

use morph_core::propagate::Propagator;
use morph_core::{FojMapping, FojSpec, SplitMapping, SplitSpec, TransformOperator};
use morph_engine::Database;
use morph_workload::{
    setup_dummy, setup_foj_sources, setup_split_source, ClientConfig, UpdateTarget, WindowStats,
    WorkloadRunner,
};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Experiment scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub foj_r_rows: usize,
    pub foj_s_rows: usize,
    pub split_rows: usize,
    pub split_values: usize,
    pub dummy_rows: usize,
    /// Measurement window per point.
    pub window: Duration,
    /// Warm-up before the first window.
    pub warmup: Duration,
}

/// Detected hardware parallelism — recorded next to every parallel
/// number so single-CPU results stop masquerading as scaling data.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether `MORPH_QUICK=1` is set.
pub fn quick() -> bool {
    std::env::var("MORPH_QUICK").is_ok_and(|v| v == "1")
}

/// The active scale (paper scale unless `MORPH_QUICK=1`).
pub fn scale() -> Scale {
    if quick() {
        Scale {
            foj_r_rows: 4_000,
            foj_s_rows: 1_600,
            split_rows: 4_000,
            split_values: 1_600,
            dummy_rows: 4_000,
            window: Duration::from_millis(400),
            warmup: Duration::from_millis(150),
        }
    } else {
        Scale {
            foj_r_rows: 50_000,
            foj_s_rows: 20_000,
            split_rows: 50_000,
            split_values: 20_000,
            dummy_rows: 50_000,
            window: Duration::from_millis(2_000),
            warmup: Duration::from_millis(500),
        }
    }
}

/// Client count defined as 100 % workload — the paper's definition is
/// "the number of concurrent transactions that produced the highest
/// possible throughput" (§6).
///
/// On a single-core host the saturation sweep is *unstable* between
/// runs (the throughput-vs-clients curve is nearly flat over a wide
/// range, so scheduler noise moves the argmax by factors of 2–8, which
/// silently rescales every workload level). The default is therefore a
/// **fixed, documented operating point of 32 clients** — the value a
/// representative calibration on this class of host produced. Override
/// with `MORPH_FULL_THREADS=<n>`, or set `MORPH_CALIBRATE=1` to run the
/// sweep explicitly.
pub fn full_threads() -> usize {
    use std::sync::OnceLock;
    static FULL: OnceLock<usize> = OnceLock::new();
    *FULL.get_or_init(|| {
        if let Some(n) = std::env::var("MORPH_FULL_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            return n;
        }
        if quick() {
            return 10;
        }
        if std::env::var("MORPH_CALIBRATE").is_ok_and(|v| v == "1") {
            eprintln!("calibrating 100% workload (client count maximizing throughput)…");
            let s = scale();
            let n = morph_workload::runner::calibrate_full_workload(
                || db_split(s),
                &split_client_cfg(s, 0.2),
                256,
                Duration::from_millis(800),
            );
            eprintln!("calibrated: 100% workload = {n} client threads");
            return n;
        }
        32
    })
}

/// Thread count for a workload percentage.
pub fn threads_for(pct: u32) -> usize {
    ((full_threads() as f64 * pct as f64 / 100.0).round() as usize).max(1)
}

/// `target/experiments/` (created on demand).
pub fn exp_dir() -> PathBuf {
    let mut dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()));
    dir.push("experiments");
    std::fs::create_dir_all(&dir).expect("experiments dir");
    dir
}

/// The workload levels of Figures 4(a)/(c) (50–100 %).
pub const WORKLOADS_THROUGHPUT: [u32; 6] = [50, 60, 70, 80, 90, 100];
/// The workload levels of Figure 4(b) (40–100 %).
pub const WORKLOADS_RESPONSE: [u32; 7] = [40, 50, 60, 70, 80, 90, 100];

/// Per-transaction pacing standing in for the paper's client-server
/// network round trip. The paper's clients ran on four *separate*
/// nodes; in-process clients must be paced so that generating load
/// does not itself consume the (single) server CPU the propagator
/// needs — 2 ms per transaction keeps the client pool below server
/// saturation while still producing tens of thousands of log records
/// per second at full workload.
pub const PACING: Duration = Duration::from_millis(2);

/// Fresh database with the split source and dummy table.
pub fn db_split(s: Scale) -> Arc<Database> {
    let db = Arc::new(Database::new());
    setup_dummy(&db, s.dummy_rows).expect("dummy");
    setup_split_source(&db, s.split_rows, s.split_values).expect("split source");
    db
}

/// Fresh database with the FOJ sources and dummy table.
pub fn db_foj(s: Scale) -> Arc<Database> {
    let db = Arc::new(Database::new());
    setup_dummy(&db, s.dummy_rows).expect("dummy");
    setup_foj_sources(&db, s.foj_r_rows, s.foj_s_rows).expect("foj sources");
    db
}

/// Client configuration for the split workload with the given fraction
/// of updates on `T.b` (a column that is neither the split attribute
/// nor functionally dependent on it, so concurrent clients preserve the
/// functional dependency without coordination).
pub fn split_client_cfg(s: Scale, hot_fraction: f64) -> ClientConfig {
    client_cfg(
        s,
        hot_fraction,
        vec![UpdateTarget::new("T", s.split_rows as i64, 1)],
    )
}

/// Client configuration for the FOJ workload: hot updates hit `R.b`,
/// one in five of them `S.d` instead (the S-side rules).
pub fn foj_client_cfg(s: Scale, hot_fraction: f64) -> ClientConfig {
    let r = UpdateTarget {
        weight: 4,
        ..UpdateTarget::new("R", s.foj_r_rows as i64, 1)
    };
    let targets = vec![r, UpdateTarget::new("S", s.foj_s_rows as i64, 1)];
    client_cfg(s, hot_fraction, targets)
}

fn client_cfg(s: Scale, hot_fraction: f64, targets: Vec<UpdateTarget>) -> ClientConfig {
    ClientConfig {
        updates_per_txn: 10,
        hot_fraction,
        targets,
        dummy: Some(UpdateTarget::new("dummy", s.dummy_rows as i64, 1)),
        pacing: Some(PACING),
    }
}

/// The standard split spec over the benchmark schema.
pub fn bench_split_spec(r: &str, s: &str, check: bool) -> SplitSpec {
    let mut spec = SplitSpec::new("T", r, s, &["a", "b", "c"], "c", &["d"]);
    spec.check_consistency = check;
    spec
}

/// The standard FOJ spec over the benchmark schema.
pub fn bench_foj_spec(target: &str) -> FojSpec {
    FojSpec::new("R", "S", target, "c", "c")
}

/// Pre-install the consistency checker's split-column index on the
/// benchmark source table. CC-mode preparation creates this index on
/// the *live* source (§5.3 needs it to read contributors); creating it
/// during the measured window would charge its one-time build — and
/// bias the post-phase baseline, which keeps paying its maintenance —
/// to the wrong series. Benches that measure a CC-mode phase install
/// it before the first baseline window instead.
pub fn preinstall_cc_index(db: &Database) {
    let spec = bench_split_spec("__cc_warm_r", "__cc_warm_s", true);
    let _ = SplitMapping::prepare(db, &spec).expect("cc index preinstall");
    let _ = db.catalog().drop_table("__cc_warm_r");
    let _ = db.catalog().drop_table("__cc_warm_s");
}

// --- phase drivers -----------------------------------------------------------

/// Background loop repeatedly performing *initial population* into
/// throwaway targets — isolates the Figure 4(a)/(b) phase: "interference
/// … by initial population".
pub struct PopulationLoop {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

/// Which transformation the phase loops exercise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Split,
    SplitCc,
    Foj,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Split => write!(f, "split"),
            Op::SplitCc => write!(f, "split+cc"),
            Op::Foj => write!(f, "foj"),
        }
    }
}

impl PopulationLoop {
    /// Start populating in the background at the given throttle
    /// priority. The paper runs the transformation "as a low priority
    /// background process"; on a single-CPU host an unthrottled
    /// population loop would simply be a CPU hog and the measured
    /// interference would be dominated by scheduler queueing rather
    /// than by the engine-level contention the figure is about.
    pub fn start(db: Arc<Database>, op: Op, priority: f64) -> PopulationLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut rounds = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let tag = format!("__bench_pop_{rounds}");
                match op {
                    Op::Split | Op::SplitCc => {
                        let spec = bench_split_spec(
                            &format!("{tag}_r"),
                            &format!("{tag}_s"),
                            op == Op::SplitCc,
                        );
                        let m = SplitMapping::prepare(&db, &spec).expect("prepare");
                        TransformOperator::populate(&m, &db, 512, priority, None)
                            .expect("populate");
                        let _ = db.catalog().drop_table(&format!("{tag}_r"));
                        let _ = db.catalog().drop_table(&format!("{tag}_s"));
                    }
                    Op::Foj => {
                        let spec = bench_foj_spec(&format!("{tag}_t"));
                        let m = FojMapping::prepare(&db, &spec).expect("prepare");
                        TransformOperator::populate(&m, &db, 512, priority, None)
                            .expect("populate");
                        let _ = db.catalog().drop_table(&format!("{tag}_t"));
                    }
                }
                rounds += 1;
            }
            rounds
        });
        PopulationLoop { stop, handle }
    }

    /// Stop; returns completed population rounds.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("population loop")
    }
}

/// Background loop continuously applying the log to transformed tables
/// without ever synchronizing — isolates the Figure 4(c) phase:
/// "interference … by log propagation".
pub struct PropagationLoop {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl PropagationLoop {
    /// Prepare + populate + catch up once, then keep propagating at
    /// `priority` until stopped. Returns only after the propagator has
    /// reached a small backlog, so the caller's measurement window
    /// sees *steady-state* log propagation (the phase Figure 4(c) is
    /// about), not the population or initial catch-up.
    pub fn start(db: Arc<Database>, op: Op, priority: f64) -> PropagationLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let ready = Arc::new(AtomicBool::new(false));
        let ready2 = Arc::clone(&ready);
        let handle = std::thread::spawn(move || {
            let oper: Box<dyn TransformOperator> = match op {
                Op::Split | Op::SplitCc => {
                    let spec =
                        bench_split_spec("__bench_prop_r", "__bench_prop_s", op == Op::SplitCc);
                    Box::new(SplitMapping::prepare(&db, &spec).expect("prepare"))
                }
                Op::Foj => {
                    let spec = bench_foj_spec("__bench_prop_t");
                    Box::new(FojMapping::prepare(&db, &spec).expect("prepare"))
                }
            };
            let start_lsn = db.fuzzy_mark();
            let mut prop = Propagator::new(&db, start_lsn, priority);
            oper.populate(&db, 1_024, 1.0, None).expect("populate");
            let abort = AtomicBool::new(false);
            let mut records = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let stats = prop.iterate(&db, &*oper, 256, 16, &abort).expect("iterate");
                records += stats.records;
                if !ready2.load(Ordering::Relaxed) && stats.backlog_after < 2_000 {
                    ready2.store(true, Ordering::Release);
                }
                if stats.records == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            let _ = db.catalog().drop_table("__bench_prop_r");
            let _ = db.catalog().drop_table("__bench_prop_s");
            let _ = db.catalog().drop_table("__bench_prop_t");
            records
        });
        // Wait for steady state (bounded: fall through after 30 s so a
        // non-converging configuration still gets measured).
        let t0 = std::time::Instant::now();
        while !ready.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
        PropagationLoop { stop, handle }
    }

    /// Stop; returns log records processed.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("propagation loop")
    }
}

// --- measurement helpers --------------------------------------------------------

/// One relative measurement with drift control: warm up, measure a
/// baseline window, run `phase` while measuring a second window, tear
/// the phase down, then measure a second baseline window; the reported
/// baseline is the sum of the two bracketing windows so slow drift
/// (memory layout, scheduler state) cancels out of the ratio.
pub fn relative_point<P, H>(
    runner: &WorkloadRunner,
    s: Scale,
    start_phase: impl FnOnce() -> P,
    stop_phase: impl FnOnce(P) -> H,
) -> (WindowStats, WindowStats, H) {
    std::thread::sleep(s.warmup);
    let b1 = runner.measure(s.window);
    let phase = start_phase();
    let during = runner.measure(s.window);
    let out = stop_phase(phase);
    std::thread::sleep(s.warmup / 2);
    let b2 = runner.measure(s.window);
    (b1 + b2, during, out)
}

/// CSV sink under `target/experiments/`.
pub struct Csv {
    file: std::fs::File,
    pub path: PathBuf,
}

impl Csv {
    /// Create (truncate) `target/experiments/<name>.csv` with a header.
    pub fn create(name: &str, header: &str) -> Csv {
        let path = exp_dir().join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path).expect("csv file");
        writeln!(file, "{header}").expect("csv header");
        Csv { file, path }
    }

    /// Append one row (also echoed to stdout by most benches).
    pub fn row(&mut self, line: &str) {
        writeln!(self.file, "{line}").expect("csv row");
    }
}

/// Standard bench banner.
pub fn banner(what: &str, paper: &str) {
    println!("==============================================================");
    println!("{what}");
    println!("  paper reference: {paper}");
    println!(
        "  scale: {} | full workload = {} client threads | pacing {:?}",
        if quick() { "QUICK" } else { "paper (50k/20k)" },
        full_threads(),
        PACING
    );
    println!("==============================================================");
}
