//! **Ablation baselines**: what the paper's design choices buy.
//!
//! 1. *Blocking `insert into select`* (§1): the motivation — "for
//!    tables with large amounts of data, the insert into select method
//!    could easily take tens of minutes". We measure the unavailability
//!    window of the blocking transformation against the non-blocking
//!    framework's synchronization pause on the same data.
//! 2. *Trigger-based maintenance* (Ronström's method, §2.1): the paper
//!    argues synchronous trigger work inside user transactions costs
//!    more than log-based background propagation. We measure workload
//!    throughput and response time with triggers installed vs. with the
//!    log propagator running.
//! 3. *Rename-in-place split* (§5.2 alternative): space savings traded
//!    against a heavier completion step.

use morph_bench::{
    banner, bench_foj_spec, bench_split_spec, db_foj, db_split, foj_client_cfg, scale,
    split_client_cfg, threads_for, Csv, Op, PropagationLoop,
};
use morph_core::baseline::{blocking_split, TriggerMaintenance};
use morph_core::{SplitSpec, SyncStrategy, TransformJob, TransformOptions, TransformPlan};
use morph_workload::WorkloadRunner;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let s = scale();
    banner(
        "Ablations: blocking baseline, trigger-based maintenance, rename-in-place",
        "Løland & Hvasshovd, EDBT 2006, §1 (blocking), §2.1 (Ronström), §5.2 (alternative)",
    );
    let mut csv = Csv::create("ablation_baselines", "experiment,metric,value");
    let threads = threads_for(75);

    // --- ABL1: blocking insert-into-select vs non-blocking sync pause ---
    println!("\n[ABL1] blocking `insert into select` unavailability vs non-blocking pause");
    {
        let db = db_split(s);
        let runner = WorkloadRunner::start(Arc::clone(&db), split_client_cfg(s, 0.2), threads);
        std::thread::sleep(s.warmup);
        let spec = bench_split_spec("R_out", "S_out", false);
        let report = blocking_split(&db, &spec).expect("blocking split");
        runner.stop();
        println!(
            "  blocking: sources unavailable for {:?} ({} rows copied)",
            report.blocked, report.rows_written
        );
        csv.row(&format!(
            "blocking_split,unavailable_us,{}",
            report.blocked.as_micros()
        ));
    }
    {
        let db = db_split(s);
        let runner = WorkloadRunner::start(Arc::clone(&db), split_client_cfg(s, 0.2), threads);
        std::thread::sleep(s.warmup);
        let plan = TransformPlan::Split(bench_split_spec("R_out", "S_out", false));
        let options = TransformOptions::default()
            .strategy(SyncStrategy::NonBlockingAbort)
            .deadline(Duration::from_secs(60));
        let report = TransformJob::prepare(&db, &plan, options)
            .and_then(|job| job.run(&AtomicBool::new(false), None, |_| Ok(())))
            .expect("non-blocking split");
        runner.stop();
        println!(
            "  non-blocking: user-visible pause {:?} (total transformation time {:?})",
            report.sync.latch_pause, report.total
        );
        csv.row(&format!(
            "nonblocking_split,pause_us,{}",
            report.sync.latch_pause.as_micros()
        ));
        csv.row(&format!(
            "nonblocking_split,total_us,{}",
            report.total.as_micros()
        ));
    }

    // --- ABL2: trigger-based (Ronström) vs log propagation ---
    println!("\n[ABL2] trigger-based maintenance vs log propagation (FOJ, 75% workload)");
    let plain = {
        let db = db_foj(s);
        let runner = WorkloadRunner::start(Arc::clone(&db), foj_client_cfg(s, 0.2), threads);
        std::thread::sleep(s.warmup);
        let w = runner.measure(s.window);
        runner.stop();
        w
    };
    println!(
        "  no maintenance:   {:>8.1} tps, {:>7.3} ms mean",
        plain.throughput(),
        plain.mean_latency_ms()
    );
    csv.row(&format!("none,tps,{:.2}", plain.throughput()));
    csv.row(&format!("none,mean_ms,{:.4}", plain.mean_latency_ms()));

    let trig = {
        let db = db_foj(s);
        let tm = TriggerMaintenance::install(&db, &bench_foj_spec("T_trig")).expect("triggers");
        let runner = WorkloadRunner::start(Arc::clone(&db), foj_client_cfg(s, 0.2), threads);
        std::thread::sleep(s.warmup);
        let w = runner.measure(s.window);
        runner.stop();
        tm.uninstall(&db);
        w
    };
    println!(
        "  triggers:         {:>8.1} tps, {:>7.3} ms mean  (rel tps {:.4}, rel resp {:.4})",
        trig.throughput(),
        trig.mean_latency_ms(),
        trig.throughput() / plain.throughput(),
        trig.mean_latency_ms() / plain.mean_latency_ms()
    );
    csv.row(&format!("triggers,tps,{:.2}", trig.throughput()));
    csv.row(&format!("triggers,mean_ms,{:.4}", trig.mean_latency_ms()));

    // The paper's decisive point is not that propagation is free, but
    // that — unlike triggers, whose work is welded into the user
    // transaction — it can be *deferred and throttled* ("updates can
    // therefore be propagated to the transformed tables during low
    // workloads", §2.1). Measure it at full priority and at a
    // background priority; triggers have no such knob.
    for (label, prio) in [("log-prop p=1.0", 1.0), ("log-prop p=0.25", 0.25)] {
        let logprop = {
            let db = db_foj(s);
            let runner = WorkloadRunner::start(Arc::clone(&db), foj_client_cfg(s, 0.2), threads);
            std::thread::sleep(s.warmup);
            let lp = PropagationLoop::start(Arc::clone(&db), Op::Foj, prio);
            let w = runner.measure(s.window);
            lp.stop();
            runner.stop();
            w
        };
        println!(
            "  {label}:  {:>8.1} tps, {:>7.3} ms mean  (rel tps {:.4}, rel resp {:.4})",
            logprop.throughput(),
            logprop.mean_latency_ms(),
            logprop.throughput() / plain.throughput(),
            logprop.mean_latency_ms() / plain.mean_latency_ms()
        );
        csv.row(&format!("{label},tps,{:.2}", logprop.throughput()));
        csv.row(&format!("{label},mean_ms,{:.4}", logprop.mean_latency_ms()));
    }

    // --- ABL3: rename-in-place vs separate-R split ---
    println!("\n[ABL3] rename-in-place split (§5.2 alternative) vs separate R");
    for (label, in_place) in [("separate-R", false), ("rename-in-place", true)] {
        let db = db_split(s);
        let runner = WorkloadRunner::start(Arc::clone(&db), split_client_cfg(s, 0.2), threads);
        std::thread::sleep(s.warmup);
        let mut spec: SplitSpec = bench_split_spec("R_out", "S_out", false);
        if in_place {
            spec = spec.rename_in_place();
        }
        let options = TransformOptions::default().deadline(Duration::from_secs(60));
        let report = TransformJob::prepare(&db, &TransformPlan::Split(spec), options)
            .and_then(|job| job.run(&AtomicBool::new(false), None, |_| Ok(())))
            .expect("split");
        runner.stop();
        println!(
            "  {label:>16}: pause {:?}, total {:?}, population wrote {} rows",
            report.sync.latch_pause, report.total, report.population.rows_written
        );
        csv.row(&format!(
            "{label},pause_us,{}",
            report.sync.latch_pause.as_micros()
        ));
        csv.row(&format!(
            "{label},pop_rows_written,{}",
            report.population.rows_written
        ));
    }

    println!("\nCSV written to {}", csv.path.display());
}
