//! **Synchronization pause** (§3.4/§6): "Synchronization takes less
//! than 1 ms in the prototype tests with non-blocking abort."
//!
//! Runs full split and FOJ transformations under a 75 % workload with
//! the non-blocking-abort strategy and reports the source-table latch
//! pause of the synchronization step (the only moment user
//! transactions are physically paused), across several runs.

use morph_bench::{
    banner, bench_foj_spec, bench_split_spec, db_foj, db_split, foj_client_cfg, scale,
    split_client_cfg, threads_for, Csv,
};
use morph_core::{SyncStrategy, TransformJob, TransformOptions, TransformPlan};
use morph_workload::WorkloadRunner;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let s = scale();
    banner(
        "Synchronization pause, non-blocking abort, 75% workload",
        "Løland & Hvasshovd, EDBT 2006, §3.4/§6: \"less than 1 ms\"",
    );
    let mut csv = Csv::create(
        "sync_pause",
        "op,run,latch_pause_us,final_records,old_txns,locks_transferred",
    );
    let runs = if morph_bench::quick() { 2 } else { 5 };
    let threads = threads_for(75);

    for op in ["split", "foj"] {
        let mut pauses = Vec::new();
        for run in 0..runs {
            let (db, cfg) = if op == "split" {
                (db_split(s), split_client_cfg(s, 0.2))
            } else {
                (db_foj(s), foj_client_cfg(s, 0.2))
            };
            let runner = WorkloadRunner::start(Arc::clone(&db), cfg, threads);
            std::thread::sleep(s.warmup);
            let options = TransformOptions::default()
                .strategy(SyncStrategy::NonBlockingAbort)
                .deadline(Duration::from_secs(60));
            let plan = if op == "split" {
                TransformPlan::Split(bench_split_spec("R_out", "S_out", false))
            } else {
                TransformPlan::Foj(bench_foj_spec("T_out"))
            };
            let report = TransformJob::prepare(&db, &plan, options)
                .and_then(|job| job.run(&AtomicBool::new(false), None, |_| Ok(())))
                .expect("transformation");
            runner.stop();
            let us = report.sync.latch_pause.as_micros();
            pauses.push(us);
            println!(
                "{op} run {run}: latch pause {us} µs  (final drain: {} records, \
                 {} old txns, {} locks transferred)",
                report.sync.final_records, report.sync.old_txns, report.sync.locks_transferred
            );
            csv.row(&format!(
                "{op},{run},{us},{},{},{}",
                report.sync.final_records, report.sync.old_txns, report.sync.locks_transferred
            ));
        }
        pauses.sort_unstable();
        println!(
            "{op}: min {} µs / median {} µs / max {} µs  (paper: < 1000 µs)\n",
            pauses[0],
            pauses[pauses.len() / 2],
            pauses[pauses.len() - 1]
        );
    }
    println!("CSV written to {}", csv.path.display());
}
