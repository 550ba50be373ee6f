//! The modes built on single runs: the suite, A/A sets, the smoke run
//! and the known-defect probe. Each run is a child process of the same
//! binary, so that every run starts from a fresh heap and `peak_rss_mb`
//! is that run's own.

use crate::json::{self, Json};
use crate::metrics::{all_workloads, validate_result, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report;
use crate::rounds::{run_rounds, RoundsCfg};
use crate::stats::{median, spread};
use crate::workloads::{Eager, EagerKind};
use morphdb::core::SyncStrategy;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

struct ChildRun {
    /// Everything the run printed before its result line.
    text: String,
    line: Json,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    extra: &[&str],
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: run exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (text, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: run printed no result line"))?;
    Ok(ChildRun {
        text: text.to_owned(),
        line: json::parse(last)?,
    })
}

fn value_of(line: &Json, metric: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn count_of(line: &Json, key: &str) -> f64 {
    line.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn print_table(title: &str, names: &[(&str, &str)], lines: &[Json]) {
    println!("\n## {title}\n");
    print!("| metric | unit |");
    all_workloads().for_each(|w| print!(" {} |", w.name));
    print!("\n|---|---|");
    all_workloads().for_each(|_| print!("---:|"));
    println!();
    for (name, unit) in names {
        print!("| `{name}` | {unit} |");
        for line in lines {
            print!(" {:.5} |", value_of(line, name));
        }
        println!();
    }
}

/// All workloads once, untraced then traced: every end-to-end and
/// per-layer metric by name and unit, the checks, and the counts.
pub fn suite(seed: u64, seconds: f64) -> Result<(), String> {
    let (mut timed, mut traced) = (Vec::new(), Vec::new());
    for w in all_workloads() {
        for trace in [false, true] {
            let run = child(w.name, seed, seconds, trace, &[])?;
            println!("{}\n", run.text);
            let wrong = validate_result(&run.line, trace);
            if !wrong.is_empty() {
                return Err(format!("{}: result line is off: {wrong:?}", w.name));
            }
            if trace { &mut traced } else { &mut timed }.push(run.line);
        }
    }
    let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    print_table(
        &format!("End to end (tracing off, seed {seed})"),
        &e2e,
        &timed,
    );
    print_table("Per layer (traced run)", &layers, &traced);
    println!("\n## Checks\n");
    let mut all_ok = true;
    for (w, (a, b)) in all_workloads().zip(timed.iter().zip(&traced)) {
        for (mode, line) in [("timed", a), ("traced", b)] {
            let correct = line.get("correct") == Some(&Json::Bool(true));
            let failed = count_of(line, "failed");
            all_ok &= correct && failed == 0.0;
            println!(
                "{} ({mode}): correct {correct}, ops_attempted {}, ops_failed {failed}",
                w.name,
                count_of(line, "attempted")
            );
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err("a check failed or an operation failed".into())
    }
}

/// Relative change of `b` against `a` in the direction that is worse
/// (positive = `b` is worse).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two alternating sets of `n` runs of this same binary, on seeds held
/// out per set. Prints, per metric × workload, both medians, both
/// inter-quartile ranges, how much worse the second median is, and the
/// bound. A metric that does not hold its bound is to be demoted to the
/// per-layer list, never given a wider bound.
pub fn aa(n: usize, seconds: f64) -> Result<(), String> {
    // values[workload][metric] = (set A, set B)
    let mut values: BTreeMap<(usize, usize), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut failed_ops = 0.0;
    for i in 0..n as u64 {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            for (set, base) in [(0, 1_000), (1, 2_000)] {
                let run = child(w.name, base + i, seconds, false, &[])?;
                failed_ops += count_of(&run.line, "failed");
                for (mi, m) in END_TO_END.iter().enumerate() {
                    let slot = values.entry((wi, mi)).or_default();
                    let v = value_of(&run.line, m.name);
                    if set == 0 { &mut slot.0 } else { &mut slot.1 }.push(v);
                }
                eprintln!(
                    "aa: run {} of {n}, {}, set {}",
                    i + 1,
                    w.name,
                    ["A", "B"][set]
                );
            }
        }
    }
    println!(
        "A/A: two alternating sets of {n} runs each, {seconds} s per run, cores {}\n",
        crate::cores()
    );
    println!("| workload | metric | median A | IQR/med A | median B | IQR/med B | B worse by | bound | holds |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut demote = Vec::new();
    for ((wi, mi), (a, b)) in &values {
        let m = &END_TO_END[*mi];
        let (ma, mb) = (median(a), median(b));
        let worse = worse_by(ma, mb, m.better).max(worse_by(mb, ma, m.better));
        let wide = spread(a).max(spread(b));
        // `setup_s` is held to its medians only.
        let holds = worse <= m.bound && (m.name == "setup_s" || wide <= m.bound);
        if !holds {
            demote.push(format!("{} on {}", m.name, WORKLOADS[*wi].name));
        }
        println!(
            "| {} | `{}` | {:.5} | {:.3} | {:.5} | {:.3} | {:+.3} | {:.2} | {} |",
            WORKLOADS[*wi].name,
            m.name,
            ma,
            spread(a),
            mb,
            spread(b),
            worse_by(ma, mb, m.better),
            m.bound,
            if holds { "yes" } else { "NO" }
        );
    }
    println!("\nops_failed over all runs: {failed_ops}");
    if demote.is_empty() {
        println!("every end-to-end metric holds its bound on every workload");
        Ok(())
    } else {
        Err(format!(
            "to demote (medians or spread beyond the bound): {}",
            demote.join(", ")
        ))
    }
}

/// One round of every workload on small tables, untraced and traced:
/// checks the result lines against the metric tables, not the numbers.
pub fn smoke() -> Result<(), String> {
    for w in all_workloads() {
        for (trace, rounds) in [(false, "1"), (true, "2")] {
            let run = child(
                w.name,
                1,
                2.0,
                trace,
                &["--rounds", rounds, "--scale", "0.2"],
            )?;
            let mut wrong = validate_result(&run.line, trace);
            if run.line.get("correct") != Some(&Json::Bool(true)) {
                wrong.push("an output check failed".into());
            }
            if !wrong.is_empty() {
                println!("{}", run.text);
                return Err(format!("{} (trace {}): {wrong:?}", w.name, trace as u8));
            }
            println!(
                "smoke: {} trace {} ok ({} operations, {} failed)",
                w.name,
                trace as u8,
                count_of(&run.line, "attempted"),
                count_of(&run.line, "failed")
            );
        }
    }
    Ok(())
}

/// The known defect that keeps `durable × non-blocking` out of the timed
/// suite: with a durable WAL the final drain of an NBA/NBC
/// synchronization can consume the `Commit` of a transaction whose
/// durability wait is still in flight; `transfer_locks` then still sees
/// it as old and `finish()` waits out its deadline. Counts how often, on
/// one client and a 200 K-row split. Reports; never fails.
pub fn probe_sync_inflight_commit(seed: u64) -> Result<(), String> {
    const ROUNDS: usize = 8;
    let dir = PathBuf::from(crate::OUT_DIR);
    println!("probe sync-inflight-commit: 1 client, durable WAL (modelled flush), 200 K-row split, {ROUNDS} rounds per strategy, deadline 4 s");
    for (name, strategy) in [
        ("non-blocking abort", SyncStrategy::NonBlockingAbort),
        ("non-blocking commit", SyncStrategy::NonBlockingCommit),
        ("blocking commit", SyncStrategy::BlockingCommit),
    ] {
        let scn = Eager::new(EagerKind::SplitBc, "probe", 2.0, &dir)?
            .with_sync(strategy, Duration::from_secs(4));
        let cfg = RoundsCfg {
            rounds: ROUNDS,
            clients: 1,
            seed,
            warm: Duration::from_millis(50),
            steady: Duration::from_millis(300),
            settle: Duration::from_millis(50),
            trace: false,
            reference: Duration::from_millis(50),
            pin: Vec::new(),
        };
        let run = run_rounds(&scn, &cfg);
        let sum = report::summarize(&run, None);
        println!(
            "{name}: migrations attempted {ROUNDS}, failed {}; check mismatches {} of {}",
            sum.failed_migrations, sum.mismatches, sum.checked
        );
        let mut texts: Vec<&String> = run.rounds.iter().filter_map(|r| r.error.as_ref()).collect();
        texts.sort();
        texts.dedup();
        for t in texts {
            println!("  error text: {t}");
        }
    }
    Ok(())
}
