//! From the raw account of a run to the named metrics.

use crate::hist::Hist;
use crate::probes::Probes;
use crate::rounds::{RoundAcc, RunData, WinAcc};
use crate::stats::{median, median_round_ratio};
use crate::trace::{mean_in_windows, mean_txn_self, self_time, SpanBuf, SpanKind};
use crate::workloads::RestartCheck;
use morphdb::core::TransformReport;
use std::time::Duration;

/// A run, pooled the way the metrics need it.
pub struct Summary {
    /// Per round, summed over clients.
    pub per_round: Vec<RoundAcc>,
    pub steady: WinAcc,
    pub during: WinAcc,
    /// Rounds whose migration completed.
    pub ok: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub mismatches: u64,
    pub schema_aborts: u64,
    pub failed_txns: u64,
    pub failed_migrations: u64,
    pub errors: Vec<String>,
}

pub fn summarize(run: &RunData, restart: Option<&RestartCheck>) -> Summary {
    let rounds = run.rounds.len();
    let mut per_round = vec![RoundAcc::default(); rounds];
    for c in &run.clients {
        for (acc, r) in per_round.iter_mut().zip(&c.rounds) {
            acc.steady.merge(&r.steady);
            acc.during.merge(&r.during);
        }
    }
    let ok: Vec<usize> = (0..rounds)
        .filter(|k| run.rounds[*k].during_s.is_some())
        .collect();
    let (mut steady, mut during) = (WinAcc::default(), WinAcc::default());
    for &k in &ok {
        steady.merge(&per_round[k].steady);
        during.merge(&per_round[k].during);
    }
    let sum = |f: fn(&crate::rounds::ClientResult) -> u64| run.clients.iter().map(f).sum::<u64>();
    let failed_txns = sum(|c| c.failed);
    let failed_migrations = (rounds - ok.len()) as u64;
    let mut checked = sum(|c| c.checked);
    let mut mismatches = sum(|c| c.mismatches);
    if let Some(r) = restart {
        checked += r.checked;
        mismatches += r.mismatches;
    }
    let mut errors: Vec<String> = run.clients.iter().flat_map(|c| c.errors.clone()).collect();
    errors.extend(run.rounds.iter().filter_map(|r| r.error.clone()));
    Summary {
        per_round,
        steady,
        during,
        ok,
        attempted: sum(|c| c.attempted) + rounds as u64 + checked,
        failed: failed_txns + failed_migrations + mismatches,
        checked,
        mismatches,
        schema_aborts: sum(|c| c.schema_aborts),
        failed_txns,
        failed_migrations,
        errors,
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// `n / d`, or 0 where there is nothing to divide by (a workload without
/// that phase).
fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The value at the wanted tail, or at the highest tail the sample
/// supports with ten samples beyond it.
fn tail(h: &Hist, wanted: f64) -> f64 {
    h.quantile(h.supported_tail(wanted))
}

/// The ratios and rates of a run over the rounds `only` picks (all of
/// them, or the traced or untraced half of a traced run).
pub struct RunShape {
    pub setup_s: f64,
    pub steady_tput: f64,
    pub during_tput: f64,
    pub rel_tput: f64,
    pub steady_cost_kref: f64,
    pub ref_rate: f64,
    pub migration_s: f64,
    pub rss_mb: f64,
}

pub fn shape(run: &RunData, sum: &Summary, only: impl Fn(usize) -> bool) -> RunShape {
    let ks: Vec<usize> = sum.ok.iter().copied().filter(|k| only(*k)).collect();
    let per_round = |f: &dyn Fn(usize) -> f64| ks.iter().map(|k| f(*k)).collect::<Vec<f64>>();
    let steady_n = per_round(&|k| sum.per_round[k].steady.writes as f64);
    let during_n = per_round(&|k| sum.per_round[k].during.writes as f64);
    let steady_s = per_round(&|k| run.rounds[k].steady_s);
    let during_s = per_round(&|k| run.rounds[k].during_s.unwrap_or(0.0));
    let steady_rates: Vec<f64> = steady_n
        .iter()
        .zip(&steady_s)
        .map(|(n, s)| ratio(*n, *s))
        .collect();
    let during_rates: Vec<f64> = during_n
        .iter()
        .zip(&during_s)
        .map(|(n, s)| ratio(*n, *s))
        .collect();
    let ref_rates = per_round(&|k| {
        let iters: u64 = run.clients.iter().map(|c| c.ref_iters[k]).sum();
        ratio(iters as f64, run.rounds[k].ref_s)
    });
    // What a transaction costs the CPU, in thousands of reference
    // iterations of the same round: the clients' time in the steady
    // window, less the time they were blocked on the log device (one
    // flush per commit that waited for one), at the round's reference
    // rate. Dividing the host's speed at that moment out this way holds
    // for a commit that waits for a device as well as for one that does
    // not; the plain ratio of rates does not, because a flush takes as
    // long on a slow CPU as on a fast one.
    let clients = run.clients.len() as f64;
    let cost_kref: Vec<f64> = ks
        .iter()
        .zip(steady_n.iter().zip(&ref_rates))
        .map(|(k, (txns, ref_rate))| {
            let r = &run.rounds[*k];
            let commits = (sum.per_round[*k].steady.writes + sum.per_round[*k].steady.reads) as f64;
            let per_flush_s = ratio(r.steady_device_ns as f64 / 1e9, r.steady_flushes as f64);
            let blocked_s = per_flush_s * commits.min(r.steady_flushes as f64 * clients);
            let cpu_s = (r.steady_s * clients - blocked_s).max(0.0);
            ratio(cpu_s * ref_rate / clients, *txns) / 1e3
        })
        .collect();
    RunShape {
        setup_s: median(&per_round(&|k| run.rounds[k].setup_s)),
        steady_tput: ratio(steady_n.iter().sum(), steady_s.iter().sum()),
        during_tput: ratio(during_n.iter().sum(), during_s.iter().sum()),
        rel_tput: median_round_ratio(&steady_rates, &during_rates),
        steady_cost_kref: median(&cost_kref),
        ref_rate: median(&ref_rates),
        migration_s: median(&during_s),
        rss_mb: median(&per_round(&|k| run.rounds[k].rss_mb)),
    }
}

pub fn end_to_end(run: &RunData, sum: &Summary) -> Vec<(&'static str, f64)> {
    let sh = shape(run, sum, |_| true);
    vec![
        ("setup_s", sh.setup_s),
        ("steady_cost_kref", sh.steady_cost_kref),
        ("rel_tput", sh.rel_tput),
        ("rss_mb", sh.rss_mb),
    ]
}

/// What a user sees but the benchmark does not bound (see `metrics.rs`).
pub fn unbounded(
    run: &RunData,
    sum: &Summary,
    peak_rss_mb: f64,
    restart: Option<&RestartCheck>,
) -> Vec<(&'static str, f64)> {
    let sh = shape(run, sum, |_| true);
    let steady_commits = (sum.steady.writes + sum.steady.reads) as f64;
    let steady_bytes: u64 = sum.ok.iter().map(|k| run.rounds[*k].steady_wal_bytes).sum();
    vec![
        ("e2e.steady_tput", sh.steady_tput),
        ("e2e.during_tput", sh.during_tput),
        ("e2e.steady_p50_ms", ms(sum.steady.write_lat.quantile(0.5))),
        ("e2e.steady_p99_ms", ms(tail(&sum.steady.write_lat, 0.99))),
        ("e2e.during_p99_ms", ms(tail(&sum.during.write_lat, 0.99))),
        ("e2e.migration_s", sh.migration_s),
        ("e2e.peak_rss_mb", peak_rss_mb),
        ("e2e.ref_rate", sh.ref_rate),
        ("e2e.read_p50_us", sum.steady.read_lat.quantile(0.5) / 1e3),
        ("e2e.read_p99_us", tail(&sum.steady.read_lat, 0.99) / 1e3),
        (
            "e2e.recovery_rec_per_s",
            restart.map_or(0.0, |r| ratio(r.redone as f64, r.recover_s)),
        ),
        (
            "e2e.wal_bytes_per_txn",
            ratio(steady_bytes as f64, steady_commits),
        ),
    ]
}

pub struct LayerInputs<'a> {
    pub probes: &'a Probes,
    pub peak_rss_mb: f64,
    pub restart: Option<&'a RestartCheck>,
    pub cores: usize,
    pub clients: usize,
}

pub fn per_layer(run: &RunData, sum: &Summary, inp: &LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let p = inp.probes;
    let spans: Vec<&SpanBuf> = run.clients.iter().map(|c| &c.spans).collect();
    let traced_steady: Vec<(u64, u64)> = run
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.steady_span)
        .collect();
    let span_mean = |kind: SpanKind| mean_in_windows(&spans, kind, &traced_steady).0;
    let all_spans: u64 = run.clients.iter().map(|c| c.spans.spans.len() as u64).sum();

    let ok_rounds: Vec<&crate::rounds::RoundInfo> =
        sum.ok.iter().map(|k| &run.rounds[*k]).collect();
    let reports: Vec<&TransformReport> = ok_rounds
        .iter()
        .flat_map(|r| r.migration.reports.iter())
        .collect();
    let med = |f: &dyn Fn(&TransformReport) -> f64| {
        median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let dur_ms = |d: Duration| d.as_secs_f64() * 1e3;
    let prop_s = |r: &TransformReport| {
        r.iterations
            .iter()
            .map(|i| i.duration.as_secs_f64())
            .sum::<f64>()
    };
    let prop_records =
        |r: &TransformReport| r.iterations.iter().map(|i| i.records).sum::<usize>() as f64;

    let steady_commits = (sum.steady.writes + sum.steady.reads) as f64;
    let steady_flushes: u64 = ok_rounds.iter().map(|r| r.steady_flushes).sum();
    let steady_bytes: u64 = ok_rounds.iter().map(|r| r.steady_wal_bytes).sum();
    let lazy_rows: u64 = ok_rounds.iter().map(|r| r.migration.lazy_rows).sum();
    let lazy_backfilled: u64 = ok_rounds.iter().map(|r| r.migration.lazy_backfilled).sum();
    let lazy_backfill_s: f64 = ok_rounds.iter().map(|r| r.migration.lazy_backfill_s).sum();
    let overhead_ms: Vec<f64> = ok_rounds
        .iter()
        .filter(|r| !r.migration.reports.is_empty())
        .map(|r| {
            let inside: f64 = r
                .migration
                .reports
                .iter()
                .map(|t| t.total.as_secs_f64())
                .sum();
            (r.during_s.unwrap_or(0.0) - inside) * 1e3
        })
        .collect();
    let state_records: Vec<f64> = ok_rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.migration.state_records as f64)
        .collect();

    let traced = shape(run, sum, |k| run.rounds[k].traced);
    let untraced = shape(run, sum, |k| !run.rounds[k].traced);
    let whole = shape(run, sum, |_| true);

    let update_ns = span_mean(SpanKind::Update);
    let commit_ns = span_mean(SpanKind::Commit);
    // Estimates, until the program has spans of its own: an update
    // takes one record lock, changes one row and appends one record; a
    // write commit appends one record, waits for the flush on a durable
    // log and releases the transaction's locks.
    let durable = steady_bytes > 0;
    let update_children = [
        p.txn_lock_acquire_ns,
        p.storage_update_ns,
        p.wal_encode_ns,
        p.wal_append_ns,
    ];
    let commit_children = [
        p.wal_append_ns,
        if durable {
            p.wal_durable_wait_us * 1e3
        } else {
            0.0
        },
        p.txn_release_all_ns,
    ];

    let mut out = unbounded(run, sum, inp.peak_rss_mb, inp.restart);
    out.extend([
        ("wal.encode_ns", p.wal_encode_ns),
        ("wal.append_ns", p.wal_append_ns),
        ("wal.decode_ns", p.wal_decode_ns),
        ("wal.read_range_ns", p.wal_read_range_ns),
        ("wal.durable_wait_us", p.wal_durable_wait_us),
        ("wal.sync_data_us", p.wal_sync_data_us),
        (
            "wal.flushes_per_commit",
            ratio(steady_flushes as f64, steady_commits),
        ),
        ("wal.bytes_per_record", p.wal_bytes_per_record),
        ("txn.lock_acquire_ns", p.txn_lock_acquire_ns),
        ("txn.release_all_ns", p.txn_release_all_ns),
        ("txn.lock_waits", run.lock_waits as f64),
        ("storage.get_ns", p.storage_get_ns),
        ("storage.update_ns", p.storage_update_ns),
        ("storage.insert_ns", p.storage_insert_ns),
        (
            "storage.fuzzy_scan_rows_per_s",
            p.storage_fuzzy_scan_rows_per_s,
        ),
        ("storage.mvcc_read_ns", p.storage_mvcc_read_ns),
        ("storage.mvcc_gc_ms", median(&run.maintenance.gc_ms)),
        (
            "storage.mvcc_reclaimed",
            run.maintenance.gc_reclaimed as f64,
        ),
        ("storage.residual_claim_ns", p.storage_residual_claim_ns),
        ("engine.begin_ns", span_mean(SpanKind::Begin)),
        ("engine.update_ns", update_ns),
        (
            "engine.update_self_ns",
            self_time(update_ns, &update_children),
        ),
        ("engine.read_ns", span_mean(SpanKind::Read)),
        ("engine.snapshot_read_ns", span_mean(SpanKind::SnapshotRead)),
        ("engine.commit_us", commit_ns / 1e3),
        (
            "engine.commit_self_us",
            self_time(commit_ns, &commit_children) / 1e3,
        ),
        (
            "engine.abort_us",
            mean_in_windows(&spans, SpanKind::Abort, &[(0, u64::MAX)]).0 / 1e3,
        ),
        (
            "engine.truncate_log_ms",
            median(&run.maintenance.truncate_ms),
        ),
        (
            "engine.recover_ms",
            inp.restart.map_or(0.0, |r| r.recover_s * 1e3),
        ),
        (
            "engine.router_update_ns",
            pick(span_mean(SpanKind::RouterUpdate), p.router_update_ns),
        ),
        (
            "engine.router_read_ns",
            pick(span_mean(SpanKind::RouterRead), p.router_read_ns),
        ),
        ("engine.router_overhead_ns", p.router_overhead_ns),
        ("engine.schema_aborts", sum.schema_aborts as f64),
        ("engine.failed_txns", sum.failed_txns as f64),
        ("core.prepare_ms", med(&|r| dur_ms(r.prepare))),
        ("core.populate_ms", med(&|r| dur_ms(r.population.duration))),
        (
            "core.populate_rows_per_s",
            med(&|r| {
                ratio(
                    r.population.rows_read as f64,
                    r.population.duration.as_secs_f64(),
                )
            }),
        ),
        ("core.propagate_ms", med(&|r| prop_s(r) * 1e3)),
        (
            "core.propagate_rec_per_s",
            med(&|r| ratio(prop_records(r), prop_s(r))),
        ),
        (
            "core.propagate_iterations",
            med(&|r| r.iterations.len() as f64),
        ),
        (
            "core.propagate_relevant_share",
            med(&|r| {
                ratio(
                    r.iterations.iter().map(|i| i.relevant).sum::<usize>() as f64,
                    prop_records(r),
                )
            }),
        ),
        (
            "core.backlog_at_sync",
            med(&|r| r.iterations.last().map_or(0.0, |i| i.backlog_after as f64)),
        ),
        (
            "core.sync_latch_pause_us",
            med(&|r| r.sync.latch_pause.as_secs_f64() * 1e6),
        ),
        (
            "core.sync_final_records",
            med(&|r| r.sync.final_records as f64),
        ),
        ("core.sync_old_txns", med(&|r| r.sync.old_txns as f64)),
        (
            "core.sync_locks_transferred",
            med(&|r| r.sync.locks_transferred as f64),
        ),
        ("core.post_sync_ms", med(&|r| dur_ms(r.post_duration))),
        (
            "core.lazy_cutover_ms",
            median(
                &ok_rounds
                    .iter()
                    .map(|r| r.migration.lazy_cutover_ms)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("core.lazy_first_touch_us", p.lazy_first_touch_us),
        (
            "core.lazy_touch_share",
            if lazy_rows > 0 {
                1.0 - ratio(lazy_backfilled as f64, lazy_rows as f64)
            } else {
                0.0
            },
        ),
        (
            "core.lazy_backfill_rows_per_s",
            ratio(lazy_backfilled as f64, lazy_backfill_s),
        ),
        ("core.migrations_failed", sum.failed_migrations as f64),
        ("orchestrator.overhead_ms", median(&overhead_ms)),
        ("orchestrator.state_records", median(&state_records)),
        (
            "bench.trace_overhead",
            ratio(traced.steady_tput, untraced.steady_tput),
        ),
        (
            "bench.client_stall_max_ms",
            ms(sum.during.max_gap_ns as f64),
        ),
        (
            "bench.client_self_ns",
            mean_txn_self(&spans, &traced_steady),
        ),
        ("bench.spans", all_spans as f64),
        ("bench.rel_tput", whole.rel_tput),
        ("bench.steady_samples", sum.steady.write_lat.count() as f64),
        ("bench.during_samples", sum.during.write_lat.count() as f64),
        ("bench.rounds", sum.ok.len() as f64),
        ("bench.cores", inp.cores as f64),
        ("bench.clients", inp.clients as f64),
    ]);
    out
}

/// The workload's own spans where it has them, the probe otherwise.
fn pick(span: f64, probe: f64) -> f64 {
    if span > 0.0 {
        span
    } else {
        probe
    }
}
