//! **Figure 4(b)**: "Interference on response time by initial
//! population with 20 % updates on T."
//!
//! Same runs as Figure 4(a) but reporting the ratio of mean committed
//! transaction response time (during / baseline), over the paper's
//! wider workload range (40–100 %). The paper observes relative
//! response time climbing from ≈1.0–1.05 at low workloads to ≈1.25–1.30
//! near saturation, with increasing variance.

use morph_bench::{
    banner, db_split, relative_point, scale, split_client_cfg, threads_for, Csv, Op,
    PopulationLoop, WORKLOADS_RESPONSE,
};
use morph_workload::WorkloadRunner;
use std::sync::Arc;

/// Background priority of the population phase (the paper's "low
/// priority background process"); see `PopulationLoop::start`.
const POP_PRIORITY: f64 = 0.25;

fn main() {
    let s = scale();
    banner(
        "Figure 4(b): relative response time vs workload, initial population, 20% updates on source",
        "Løland & Hvasshovd, EDBT 2006, Fig. 4(b); §6",
    );
    let mut csv = Csv::create(
        "fig4b_response_time",
        "workload_pct,threads,baseline_ms,during_ms,relative_response_time,baseline_p95_ms,during_p95_ms",
    );
    println!(
        "{:>12} {:>8} {:>14} {:>12} {:>24}",
        "workload%", "threads", "baseline ms", "during ms", "relative response time"
    );
    for pct in WORKLOADS_RESPONSE {
        let threads = threads_for(pct);
        let db = db_split(s);
        let runner = WorkloadRunner::start(Arc::clone(&db), split_client_cfg(s, 0.2), threads);
        let (baseline, during, _rounds) = relative_point(
            &runner,
            s,
            || PopulationLoop::start(Arc::clone(&db), Op::Split, POP_PRIORITY),
            PopulationLoop::stop,
        );
        runner.stop();
        let rel = if baseline.mean_latency_ms() > 0.0 {
            during.mean_latency_ms() / baseline.mean_latency_ms()
        } else {
            0.0
        };
        println!(
            "{:>12} {:>8} {:>14.3} {:>12.3} {:>24.4}",
            pct,
            threads,
            baseline.mean_latency_ms(),
            during.mean_latency_ms(),
            rel
        );
        csv.row(&format!(
            "{pct},{threads},{:.4},{:.4},{:.4},{:.4},{:.4}",
            baseline.mean_latency_ms(),
            during.mean_latency_ms(),
            rel,
            baseline.percentile_ms(0.95),
            during.percentile_ms(0.95)
        ));
    }
    println!("\nCSV written to {}", csv.path.display());
}
