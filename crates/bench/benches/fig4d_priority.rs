//! **Figure 4(d)**: "Time and interference vs transformation priority
//! at 75 % workload."
//!
//! A full split transformation runs at each priority level while the
//! workload holds 75 % of full load; we report (i) the time needed to
//! complete the transformation and (ii) the relative throughput during
//! it. The paper's shape: interference falls with priority while
//! completion time grows hyperbolically, and below a floor (≈0.5 % in
//! their setup) the propagation never finishes. Non-convergent runs are
//! reported as `DNF`.

use morph_bench::{banner, bench_split_spec, db_split, scale, split_client_cfg, threads_for, Csv};
use morph_core::{TransformJob, TransformOptions, TransformPlan};
use morph_workload::WorkloadRunner;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let s = scale();
    banner(
        "Figure 4(d): completion time and interference vs transformation priority, 75% workload",
        "Løland & Hvasshovd, EDBT 2006, Fig. 4(d); §6",
    );
    let mut csv = Csv::create(
        "fig4d_priority",
        "priority_pct,threads,baseline_tps,during_tps,relative_throughput,completion_s,converged",
    );

    let threads = threads_for(75);
    let priorities = [0.002, 0.005, 0.01, 0.05, 0.10, 0.25, 0.50, 1.00];
    let budget = if morph_bench::quick() {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(25)
    };

    println!(
        "{:>10} {:>14} {:>12} {:>22} {:>14}",
        "priority", "baseline tps", "during tps", "relative throughput", "completion"
    );
    for p in priorities {
        let db = db_split(s);
        let runner = WorkloadRunner::start(Arc::clone(&db), split_client_cfg(s, 0.2), threads);
        std::thread::sleep(s.warmup);
        let baseline = runner.measure(s.window);

        let plan = TransformPlan::Split(bench_split_spec("R_out", "S_out", false));
        let options = TransformOptions::default().priority(p).deadline(budget);
        // Interference is measured over the transformation's *actual*
        // lifetime (spawn → join), not a fixed window: at high priority
        // the change completes in a fraction of a second and a fixed
        // window would dilute its cost with idle time.
        let before = runner.totals();
        let result = TransformJob::prepare(&db, &plan, options)
            .and_then(|job| job.run(&AtomicBool::new(false), None, |_| Ok(())));
        let during = runner.totals() - before;
        runner.stop();

        let rel = if baseline.throughput() > 0.0 {
            during.throughput() / baseline.throughput()
        } else {
            0.0
        };
        let (completion, converged) = match &result {
            Ok(report) => (format!("{:.2}s", report.total.as_secs_f64()), true),
            Err(_) => ("DNF".to_owned(), false),
        };
        println!(
            "{:>9.1}% {:>14.1} {:>12.1} {:>22.4} {:>14}",
            p * 100.0,
            baseline.throughput(),
            during.throughput(),
            rel,
            completion
        );
        csv.row(&format!(
            "{:.2},{threads},{:.2},{:.2},{:.4},{},{}",
            p * 100.0,
            baseline.throughput(),
            during.throughput(),
            rel,
            match &result {
                Ok(r) => format!("{:.3}", r.total.as_secs_f64()),
                Err(_) => "inf".to_owned(),
            },
            converged
        ));
    }
    println!("\nCSV written to {}", csv.path.display());
    println!(
        "note: 'DNF' = propagation could not converge (or exceeded the {budget:?} budget) \
         at that priority — the paper's 'the transformation will never finish if the \
         priority is set too low'."
    );
}
