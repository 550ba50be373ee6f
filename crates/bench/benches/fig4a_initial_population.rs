//! **Figure 4(a)**: "Interference on throughput by initial population
//! with 20 % updates on T."
//!
//! For each workload level (50–100 %) this bench measures committed
//! transactions per second in a window *without* and then *with* the
//! initial-population phase running in the background, and reports the
//! ratio. The paper observes relative throughput falling from ≈0.99 at
//! 50 % workload to ≈0.94–0.96 at 100 %.
//!
//! Three series are produced: the split transformation (the figure's
//! subject), split with §5.3 consistency checking (the paper reports
//! "very similar results"), and FOJ (likewise).

use morph_bench::{
    banner, db_foj, db_split, foj_client_cfg, relative_point, scale, split_client_cfg, threads_for,
    Csv, Op, PopulationLoop, WORKLOADS_THROUGHPUT,
};
use morph_workload::WorkloadRunner;
use std::sync::Arc;

/// Background priority of the population phase (the paper's "low
/// priority background process"); see `PopulationLoop::start`.
const POP_PRIORITY: f64 = 0.25;

fn main() {
    let s = scale();
    banner(
        "Figure 4(a): relative throughput vs workload, initial population, 20% updates on source",
        "Løland & Hvasshovd, EDBT 2006, Fig. 4(a); §6",
    );
    let mut csv = Csv::create(
        "fig4a_initial_population",
        "series,workload_pct,threads,baseline_tps,during_tps,relative_throughput,pop_rounds",
    );

    for op in [Op::Split, Op::SplitCc, Op::Foj] {
        println!("\nseries: {op}");
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
                Op::Foj => foj_client_cfg(s, 0.2),
                _ => split_client_cfg(s, 0.2),
            };
            if op == Op::SplitCc {
                morph_bench::preinstall_cc_index(&db);
            }
            let runner = WorkloadRunner::start(Arc::clone(&db), cfg, threads);
            let (baseline, during, rounds) = relative_point(
                &runner,
                s,
                || PopulationLoop::start(Arc::clone(&db), op, POP_PRIORITY),
                PopulationLoop::stop,
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
                "{op},{pct},{threads},{:.2},{:.2},{:.4},{rounds}",
                baseline.throughput(),
                during.throughput(),
                rel
            ));
        }
    }
    println!("\nCSV written to {}", csv.path.display());
}
