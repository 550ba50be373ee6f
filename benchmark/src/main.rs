//! morphbench — interference of an online schema change on live
//! traffic (the paper's §6 yardstick), end to end and layer by layer.
//!
//! ```text
//! morphbench --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! morphbench --suite [--seed N]                              all workloads, untraced and traced
//! morphbench --aa N                                          two alternating sets of N runs each
//! morphbench --smoke                                         tiny run of everything, schema check only
//! morphbench --probe sync-inflight-commit                    the known NBA/NBC defect, counted
//! morphbench --write-manifest                                print BENCHMARK.json into the cwd
//! ```
//!
//! A run prints what it measured, one metric per line, and ends with the
//! one-line JSON result.

mod affinity;
mod hist;
mod json;
mod keys;
mod metrics;
mod modes;
mod probes;
mod reference;
mod report;
mod rounds;
mod stats;
mod trace;
mod workloads;

use json::{obj, s, Json};
use metrics::{END_TO_END, PER_LAYER, ROUNDS, RUN_SECONDS};
use rounds::{run_rounds, RoundsCfg, Scenario};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Eager, EagerKind, LazyUnion};

/// Where WAL files and traces go, relative to the directory the
/// benchmark is started in (the root of the checkout).
pub const OUT_DIR: &str = "target/morphbench";

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rounds per run; the default depends on `trace`.
    pub rounds: Option<usize>,
    /// Table sizes as a share of the full ones (the smoke run shrinks
    /// them).
    pub scale: f64,
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One core is left to the migration (or backfill) thread.
pub fn clients_for(cores: usize) -> usize {
    cores.saturating_sub(1).clamp(1, 3)
}

enum Built {
    Eager(Eager),
    Lazy(LazyUnion),
}

impl Built {
    fn scenario(&self) -> &dyn Scenario {
        match self {
            Built::Eager(e) => e,
            Built::Lazy(l) => l,
        }
    }
}

/// Run one workload once and print its result; the last line is the
/// JSON object of the driver's contract.
pub fn run_workload(args: &RunArgs) -> Result<(), String> {
    let dir = PathBuf::from(OUT_DIR);
    let cores = cores();
    let clients = clients_for(cores);
    let t = Instant::now();
    let eager = |kind| Eager::new(kind, &args.workload, args.scale, &dir).map(Built::Eager);
    let built = match args.workload.as_str() {
        "oltp_rw_durable" => eager(EagerKind::OltpRw)?,
        "split_bc_durable" => eager(EagerKind::SplitBc)?,
        "foj_nbc_hot20_mem" => eager(EagerKind::FojNbc)?,
        "union_lazy_sharded_mem" => Built::Lazy(LazyUnion::new(args.scale, cores)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of {:?}",
                metrics::all_workloads().map(|w| w.name).collect::<Vec<_>>()
            ))
        }
    };
    let setup_once_s = t.elapsed().as_secs_f64();

    // Four rounds when tracing: two with spans and two without, side by
    // side, so the overhead of tracing is measured in the same run.
    let rounds = args.rounds.unwrap_or(if args.trace { 4 } else { ROUNDS });
    // Each client on a CPU of its own; the coordinator, and with it the
    // migration and backfill threads it starts, on the last one.
    let cpus = affinity::allowed_cpus();
    let pin: Vec<usize> = if cpus.len() > clients && affinity::pin_to(cpus[cpus.len() - 1]) {
        cpus[..clients].to_vec()
    } else {
        Vec::new()
    };
    let cfg = RoundsCfg {
        rounds,
        clients,
        seed: args.seed,
        warm: Duration::from_millis(100),
        steady: Duration::from_secs_f64(args.seconds * 0.6 / ROUNDS as f64),
        settle: Duration::from_millis(50),
        reference: Duration::from_millis(250),
        trace: args.trace,
        pin,
    };
    let run = run_rounds(built.scenario(), &cfg);
    // Before the restart check, which holds the whole WAL file in
    // memory and is no part of the workload.
    let peak_rss_mb = rounds::rss_mb("VmHWM:");
    let restart = match &built {
        Built::Eager(e) if args.workload == "oltp_rw_durable" => Some(e.restart_check()?),
        _ => None,
    };
    let sum = report::summarize(&run, restart.as_ref());

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let probes = probes::run(&dir, cores.clamp(1, 4))?;
        let spans: Vec<&trace::SpanBuf> = run.clients.iter().map(|c| &c.spans).collect();
        let path = dir.join(format!("trace-{}.json", args.workload));
        trace::write_file(&path, &args.workload, &spans).map_err(|e| e.to_string())?;
        println!("trace: {}", path.display());
        let inputs = report::LayerInputs {
            probes: &probes,
            peak_rss_mb,
            restart: restart.as_ref(),
            cores,
            clients,
        };
        let values = report::per_layer(&run, &sum, &inputs);
        PER_LAYER
            .iter()
            .map(|m| (m.name, lookup(&values, m.name), m.unit))
            .collect()
    } else {
        let values = report::end_to_end(&run, &sum);
        END_TO_END
            .iter()
            .map(|m| (m.name, lookup(&values, m.name), m.unit))
            .collect()
    };

    println!(
        "workload {} seed {} cores {cores} clients {clients} pinned {} rounds {rounds} ({} completed) steady_window_s {:.2} trace {}",
        args.workload,
        args.seed,
        !cfg.pin.is_empty(),
        sum.ok.len(),
        cfg.steady.as_secs_f64(),
        args.trace as u8
    );
    println!("setup_once_s {setup_once_s:.3}");
    for (k, r) in run.rounds.iter().enumerate() {
        let acc = &sum.per_round[k];
        println!(
            "round {k}: setup_s {:.3} ref {:.0}/s steady {} txn in {:.3} s p50 {:.4} p99 {:.4} ms, during {} txn in {} s p99 {:.4} ms, check_s {:.3}{}{}",
            r.setup_s,
            run.clients.iter().map(|c| c.ref_iters[k]).sum::<u64>() as f64 / r.ref_s.max(1e-9),
            acc.steady.writes,
            r.steady_s,
            acc.steady.write_lat.quantile(0.5) / 1e6,
            acc.steady.write_lat.quantile(0.99) / 1e6,
            acc.during.writes,
            r.during_s.map_or("-".to_owned(), |d| format!("{d:.3}")),
            acc.during.write_lat.quantile(0.99) / 1e6,
            r.check_s,
            if r.traced { " (traced)" } else { "" },
            r.error.as_ref().map_or(String::new(), |e| format!(" FAILED: {e}")),
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    if !args.trace {
        // Measured on every run, bounded on none (see `metrics.rs`).
        for (name, value) in report::unbounded(&run, &sum, peak_rss_mb, restart.as_ref()) {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            println!("{name} {value} {unit}");
        }
    }
    let beyond = |h: &hist::Hist, q: f64| (h.count() as f64 * (1.0 - h.supported_tail(q))) as u64;
    println!(
        "steady latency samples {} (p{} reported, {} beyond); during latency samples {} (p{} reported, {} beyond)",
        sum.steady.write_lat.count(),
        sum.steady.write_lat.supported_tail(0.99) * 100.0,
        beyond(&sum.steady.write_lat, 0.99),
        sum.during.write_lat.count(),
        sum.during.write_lat.supported_tail(0.99) * 100.0,
        beyond(&sum.during.write_lat, 0.99),
    );
    println!(
        "ops_attempted {} ops_failed {} (failed txns {}, failed migrations {}, check mismatches {} of {} values); schema_aborts {} (by design)",
        sum.attempted, sum.failed, sum.failed_txns, sum.failed_migrations, sum.mismatches, sum.checked, sum.schema_aborts
    );
    if let Some(r) = &restart {
        println!(
            "restart check: {} operations redone in {:.3} s, {} losers, {} of {} rows differ",
            r.redone, r.recover_s, r.losers, r.mismatches, r.checked
        );
    }
    for e in &sum.errors {
        println!("error: {e}");
    }

    let line = obj([
        (
            "correct",
            Json::Bool(sum.mismatches == 0 && !sum.ok.is_empty()),
        ),
        ("attempted", Json::Num(sum.attempted.max(1) as f64)),
        ("failed", Json::Num(sum.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            (*name).to_owned(),
                            obj([("value", Json::Num(*value)), ("unit", s(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| {
            panic!("metric {name} is in the table but the report does not compute it")
        })
}

fn usage() -> ! {
    eprintln!(
        "usage: morphbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       morphbench --suite [--seed n] | --aa <n> | --smoke | --probe sync-inflight-commit | --write-manifest",
        metrics::all_workloads().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        rounds: None,
        scale: 1.0,
    };
    let mut mode = String::new();
    let mut mode_arg = String::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| usage())
        };
        match flag {
            "--workload" => run.workload = value(),
            "--seed" => run.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => run.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => run.trace = value() == "1",
            "--rounds" => run.rounds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--scale" => run.scale = value().parse().unwrap_or_else(|_| usage()),
            "--suite" | "--smoke" | "--write-manifest" => mode = flag.to_owned(),
            "--aa" | "--probe" => {
                mode = flag.to_owned();
                mode_arg = value();
            }
            _ => usage(),
        }
        i += 1;
    }
    if !(run.seconds > 0.0 && run.scale > 0.0 && run.rounds != Some(0)) {
        usage();
    }
    let done = match mode.as_str() {
        "" if !run.workload.is_empty() => run_workload(&run),
        "" | "--suite" => modes::suite(run.seed, run.seconds),
        "--aa" => modes::aa(mode_arg.parse().unwrap_or_else(|_| usage()), run.seconds),
        "--smoke" => modes::smoke(),
        "--probe" if mode_arg == "sync-inflight-commit" => {
            modes::probe_sync_inflight_commit(run.seed)
        }
        "--write-manifest" => std::fs::write("BENCHMARK.json", metrics::manifest().render_pretty())
            .map_err(|e| e.to_string()),
        _ => usage(),
    };
    if let Err(e) = done {
        eprintln!("morphbench: {e}");
        std::process::exit(1);
    }
}
