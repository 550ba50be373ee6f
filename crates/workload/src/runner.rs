//! The workload runner: thread pool + measurement windows.

use crate::client::{Client, ClientConfig};
use crate::stats::SharedStats;
use morph_engine::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Aggregates from one measurement window.
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Window length.
    pub duration: Duration,
    /// Transactions committed in the window.
    pub committed: u64,
    /// Transactions rolled back in the window.
    pub aborted: u64,
    /// Rollbacks caused by the schema change (doomed / frozen).
    pub schema_events: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean committed-transaction latency (milliseconds).
    pub mean_latency_ms: f64,
    /// Approximate 95th-percentile latency (milliseconds).
    pub p95_latency_ms: f64,
}

/// A running closed-loop workload.
pub struct WorkloadRunner {
    stats: Arc<SharedStats>,
    stop: Arc<AtomicBool>,
    switched: Arc<AtomicBool>,
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
            switched,
            handles,
        }
    }

    /// Shared statistics sink.
    pub fn stats(&self) -> &Arc<SharedStats> {
        &self.stats
    }

    /// Whether any client has observed the schema switch.
    pub fn switched(&self) -> bool {
        self.switched.load(Ordering::Relaxed)
    }

    /// Measure one window of the given length.
    pub fn measure(&self, window: Duration) -> WindowStats {
        let before = self.stats.snapshot();
        let t0 = Instant::now();
        std::thread::sleep(window);
        let elapsed = t0.elapsed();
        let delta = self.stats.snapshot().since(&before);
        WindowStats {
            duration: elapsed,
            committed: delta.committed,
            aborted: delta.aborted,
            schema_events: delta.schema_events,
            throughput: delta.committed as f64 / elapsed.as_secs_f64(),
            mean_latency_ms: delta.mean_latency_ns() / 1e6,
            p95_latency_ms: delta.percentile_ns(0.95) as f64 / 1e6,
        }
    }

    /// Stop all clients and wait for them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            let _ = h.join();
        }
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
        if w.throughput > best.1 {
            best = (t, w.throughput);
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
    use crate::client::HotSide;
    use crate::setup;
    use morph_core::{FojSpec, SplitSpec, TransformJob, TransformOptions, TransformPlan};
    use std::sync::atomic::AtomicBool;

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
            hot: HotSide::SplitSource,
            hot_rows: 500,
            hot_s_rows: 0,
            dummy_rows: 500,
            pacing: Some(Duration::from_micros(100)),
        }
    }

    #[test]
    fn runner_commits_transactions() {
        let db = small_split_db();
        let runner = WorkloadRunner::start(db, cfg_split(), 2);
        let w = runner.measure(Duration::from_millis(200));
        runner.stop();
        assert!(w.committed > 0, "no commits in window: {w:?}");
        assert!(w.throughput > 0.0);
        assert!(w.mean_latency_ms > 0.0);
    }

    #[test]
    fn workload_survives_split_transformation() {
        let db = small_split_db();
        let runner = WorkloadRunner::start(Arc::clone(&db), cfg_split(), 4);
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
        runner.stop();

        assert!(baseline.committed > 0);
        assert!(during.committed > 0, "workload must not block");
        assert!(after.committed > 0, "workload continues after the switch");
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

    #[test]
    fn workload_survives_foj_transformation() {
        let db = Arc::new(Database::new());
        setup::setup_dummy(&db, 500).unwrap();
        setup::setup_foj_sources(&db, 400, 80).unwrap();
        let cfg = ClientConfig {
            updates_per_txn: 10,
            hot_fraction: 0.2,
            hot: HotSide::FojSources { s_share: 0.2 },
            hot_rows: 400,
            hot_s_rows: 80,
            dummy_rows: 500,
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
        runner.stop();

        assert!(baseline.committed > 0 && during.committed > 0);
        assert!(db.catalog().exists("T"));
        assert!(!db.catalog().exists("R"));
        // All 400 R rows joined (every R has an S partner).
        assert_eq!(db.catalog().get("T").unwrap().len(), 400);
        assert!(report.records_processed() > 0);
    }
}
