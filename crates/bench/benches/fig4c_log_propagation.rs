//! **Figure 4(c)**: "Interference on throughput by log propagation for
//! two update scenarios."
//!
//! The propagation phase runs continuously in the background while the
//! workload generates log records; two series differ in the fraction of
//! updates targeting the source table (20 % vs 80 % — four times more
//! relevant log records in the latter). The paper observes the 80 %
//! series interfering clearly more (≈0.88–0.93 relative throughput)
//! than the 20 % series (≈0.93–0.98), both degrading with workload.
//!
//! An FOJ series at 20 % is included ("the same effect is observed on
//! log propagation for FOJ").

use morph_bench::{
    banner, db_foj, db_split, foj_client_cfg, relative_point, scale, split_client_cfg, threads_for,
    Csv, Op, PropagationLoop, WORKLOADS_THROUGHPUT,
};
use morph_workload::WorkloadRunner;
use std::sync::Arc;

fn main() {
    let s = scale();
    banner(
        "Figure 4(c): relative throughput vs workload, log propagation, 20% vs 80% updates on source",
        "Løland & Hvasshovd, EDBT 2006, Fig. 4(c); §6",
    );
    let mut csv = Csv::create(
        "fig4c_log_propagation",
        "series,hot_pct,workload_pct,threads,baseline_tps,during_tps,relative_throughput,records_propagated",
    );

    // (series label, op, fraction of updates on the source table)
    let series = [
        ("split-20", Op::Split, 0.2),
        ("split-80", Op::Split, 0.8),
        ("foj-20", Op::Foj, 0.2),
    ];
    for (label, op, hot) in series {
        println!("\nseries: {label} ({:.0}% updates on source)", hot * 100.0);
        println!(
            "{:>12} {:>8} {:>14} {:>12} {:>22}",
            "workload%", "threads", "baseline tps", "during tps", "relative throughput"
        );
        for pct in WORKLOADS_THROUGHPUT {
            let threads = threads_for(pct);
            let db = match op {
                Op::Foj => db_foj(s),
                _ => db_split(s),
            };
            let cfg = match op {
                Op::Foj => foj_client_cfg(s, hot),
                _ => split_client_cfg(s, hot),
            };
            let runner = WorkloadRunner::start(Arc::clone(&db), cfg, threads);
            let (baseline, during, records) = relative_point(
                &runner,
                s,
                || PropagationLoop::start(Arc::clone(&db), op, 1.0),
                PropagationLoop::stop,
            );
            runner.stop();
            let rel = if baseline.throughput() > 0.0 {
                during.throughput() / baseline.throughput()
            } else {
                0.0
            };
            println!(
                "{:>12} {:>8} {:>14.1} {:>12.1} {:>22.4}",
                pct,
                threads,
                baseline.throughput(),
                during.throughput(),
                rel
            );
            csv.row(&format!(
                "{label},{:.0},{pct},{threads},{:.2},{:.2},{:.4},{records}",
                hot * 100.0,
                baseline.throughput(),
                during.throughput(),
                rel
            ));
        }
    }
    println!("\nCSV written to {}", csv.path.display());
}
