//! The workload runner: a pool of closed-loop clients and its
//! measurement windows.

use crate::client::{Client, ClientConfig};
use crate::stats::{SharedStats, WindowStats};
use morph_engine::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running closed-loop workload.
pub struct WorkloadRunner {
    stats: Arc<SharedStats>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkloadRunner {
    /// Start `threads` clients against `db`.
    pub fn start(db: Arc<Database>, cfg: ClientConfig, threads: usize) -> WorkloadRunner {
        let stats = Arc::new(SharedStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let switched = Arc::new(AtomicBool::new(false));
        let handles = (0..threads.max(1))
            .map(|i| {
                let client = Client {
                    db: Arc::clone(&db),
                    cfg: cfg.clone(),
                    stats: Arc::clone(&stats),
                    stop: Arc::clone(&stop),
                    switched: Arc::clone(&switched),
                    seed: 0x5EED_0000 + i as u64,
                };
                std::thread::spawn(move || client.run())
            })
            .collect();
        WorkloadRunner {
            stats,
            stop,
            handles,
        }
    }

    /// Transactions committed so far (a live count).
    pub fn committed(&self) -> u64 {
        self.stats.committed()
    }

    /// Everything the clients did since the runner started, as one
    /// window; a later reading minus an earlier one is the window
    /// between them.
    pub fn totals(&self) -> WindowStats {
        self.stats.totals()
    }

    /// Measure one window of the given length.
    pub fn measure(&self, window: Duration) -> WindowStats {
        let before = self.totals();
        std::thread::sleep(window);
        self.totals() - before
    }

    /// Stop all clients, wait for them, and return how many
    /// transactions they committed.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            // A panicked client already failed its own test; the count
            // still covers what was committed before.
            let _ = h.join();
        }
        self.stats.committed()
    }
}

/// Find the client count that maximizes throughput — the paper's
/// definition of 100 % workload (§6). Tries powers of two up to
/// `max_threads`, measuring `window` each, and returns the best.
pub fn calibrate_full_workload(
    make_db: impl Fn() -> Arc<Database>,
    cfg: &ClientConfig,
    max_threads: usize,
    window: Duration,
) -> usize {
    let mut best = (1usize, 0.0f64);
    let mut declines = 0;
    let mut t = 1usize;
    while t <= max_threads {
        let db = make_db();
        let runner = WorkloadRunner::start(db, cfg.clone(), t);
        // Warm-up, then measure.
        std::thread::sleep(window / 2);
        let w = runner.measure(window);
        runner.stop();
        if w.throughput() > best.1 {
            best = (t, w.throughput());
            declines = 0;
        } else {
            // Stop once throughput has stopped improving twice in a
            // row — we are past saturation.
            declines += 1;
            if declines >= 2 {
                break;
            }
        }
        t *= 2;
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::UpdateTarget;
    use crate::setup;
    use morph_common::Value;
    use morph_core::{FojSpec, SplitSpec, TransformJob, TransformOptions, TransformPlan};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    fn small_split_db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        setup::setup_dummy(&db, 500).unwrap();
        setup::setup_split_source(&db, 500, 50).unwrap();
        db
    }

    fn cfg_split() -> ClientConfig {
        ClientConfig {
            updates_per_txn: 10,
            hot_fraction: 0.2,
            targets: vec![UpdateTarget::new("T", 500, 1)],
            dummy: Some(UpdateTarget::new("dummy", 500, 1)),
            pacing: Some(Duration::from_micros(100)),
        }
    }

    #[test]
    fn runner_commits_transactions() {
        let db = small_split_db();
        let runner = WorkloadRunner::start(db, cfg_split(), 2);
        let w = runner.measure(Duration::from_millis(200));
        let committed = runner.stop();
        assert!(w.committed > 0, "no commits in window: {w:?}");
        assert!(committed >= w.committed);
        assert!(w.throughput() > 0.0);
        assert!(w.mean_latency_ms() > 0.0);
    }

    /// Also runs a client with no dummy beside the measured workload:
    /// once the split drops `T`, it keeps updating `T` and fails.
    #[test]
    fn workload_survives_split_transformation() {
        let db = small_split_db();
        let runner = WorkloadRunner::start(Arc::clone(&db), cfg_split(), 4);
        let no_dummy = ClientConfig {
            updates_per_txn: 1,
            hot_fraction: 1.0,
            dummy: None,
            ..cfg_split()
        };
        let updater = WorkloadRunner::start(Arc::clone(&db), no_dummy, 1);
        let baseline = runner.measure(Duration::from_millis(150));

        let plan =
            TransformPlan::Split(SplitSpec::new("T", "R", "S", &["a", "b", "c"], "c", &["d"]));
        let options = TransformOptions::default().deadline(Duration::from_secs(30));
        let job = TransformJob::prepare(&db, &plan, options).unwrap();
        let handle = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));
        let during = runner.measure(Duration::from_millis(150));
        let report = handle.join().unwrap().expect("transformation");
        // Keep the workload running across the switch, then stop.
        let after = runner.measure(Duration::from_millis(150));
        // With a dummy, a client would fail on `T` once at most.
        let dropped = updater.totals();
        let deadline = Instant::now() + Duration::from_secs(10);
        while updater.totals().schema_events < dropped.schema_events + 3
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let updater_after = updater.totals() - dropped;
        runner.stop();
        updater.stop();

        assert!(baseline.committed > 0);
        assert!(during.committed > 0, "workload must not block");
        assert!(after.committed > 0, "workload continues after the switch");
        assert!(
            updater_after.schema_events >= 3 && updater_after.committed == 0,
            "a client without a dummy keeps updating the dropped T: {updater_after:?}"
        );
        assert!(report.sync.latch_pause < Duration::from_millis(200));
        assert!(db.catalog().exists("R") && db.catalog().exists("S"));
        assert!(!db.catalog().exists("T"));
        // Integrity: counters in S add up to rows in R.
        let r = db.catalog().get("R").unwrap();
        let s = db.catalog().get("S").unwrap();
        let total: u32 = s.snapshot().iter().map(|(_, row)| row.counter).sum();
        assert_eq!(total as usize, r.len());
    }

    #[test]
    fn calibration_returns_positive_thread_count() {
        let n = calibrate_full_workload(small_split_db, &cfg_split(), 4, Duration::from_millis(60));
        assert!((1..=4).contains(&n));
    }

    /// Weighted targets (R four times as often as S) with a dummy:
    /// both sources take updates, and once the FOJ drops them and a
    /// client has seen the first schema error, the dummy takes every
    /// update.
    #[test]
    fn workload_survives_foj_transformation() {
        let db = Arc::new(Database::new());
        setup::setup_dummy(&db, 500).unwrap();
        setup::setup_foj_sources(&db, 400, 80).unwrap();
        let cfg = ClientConfig {
            updates_per_txn: 10,
            hot_fraction: 0.2,
            targets: vec![
                UpdateTarget {
                    weight: 4,
                    ..UpdateTarget::new("R", 400, 1)
                },
                UpdateTarget::new("S", 80, 1),
            ],
            dummy: Some(UpdateTarget::new("dummy", 500, 1)),
            pacing: Some(Duration::from_micros(100)),
        };
        let runner = WorkloadRunner::start(Arc::clone(&db), cfg, 4);
        let baseline = runner.measure(Duration::from_millis(150));

        let plan = TransformPlan::Foj(FojSpec::new("R", "S", "T", "c", "c"));
        let options = TransformOptions::default().deadline(Duration::from_secs(30));
        let job = TransformJob::prepare(&db, &plan, options).unwrap();
        let handle = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));
        let during = runner.measure(Duration::from_millis(150));
        let report = handle.join().unwrap().expect("transformation");
        let after = runner.measure(Duration::from_millis(150));
        runner.stop();

        assert!(baseline.committed > 0 && during.committed > 0);
        assert!(after.committed > 0, "workload continues after the switch");
        // Each client fails at most once after the drop; without the
        // switch, nine in ten of its transactions would fail.
        assert!(
            after.schema_events <= 4,
            "a switched client hit a source: {after:?}"
        );
        assert!(db.catalog().exists("T"));
        assert!(!db.catalog().exists("R"));
        // All 400 R rows joined (every R has an S partner).
        let t = db.catalog().get("T").unwrap().snapshot();
        assert_eq!(t.len(), 400);
        // T(a, b, c, d): both R.b and S.d were written by the clients.
        let written = |v: &Value| matches!(v, Value::Str(s) if s.starts_with('w'));
        assert!(t.iter().any(|(_, row)| written(&row.values[1])));
        assert!(t.iter().any(|(_, row)| written(&row.values[3])));
        assert!(report.records_processed() > 0);
    }
}
