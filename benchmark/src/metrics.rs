//! The names, units, directions and bounds of everything the benchmark
//! reports, and `BENCHMARK.json`, which is printed from these tables so
//! that the manifest and the program cannot drift apart.

use crate::json::{obj, s, Json};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds of measurement per run: with `ROUNDS` rounds, 60 % of it is
/// steady windows and the rest is what the migrations are expected to
/// take.
pub const RUN_SECONDS: u64 = 45;
pub const ROUNDS: usize = 18;

/// The workloads the driver runs. Two, so that each run can be long: on
/// this host a metric only repeats within a quarter when a run averages
/// over a minute of it (README, "Host noise").
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "split_bc_durable",
        why: "The paper's split on a durable WAL, 20 % hot, blocking commit, one engine: population, propagation, orchestrator and the commit path work; router and lazy code do nothing.",
    },
    Workload {
        name: "union_lazy_sharded_mem",
        why: "Lazy union through the shard router, no log device, single-operation reads and writes: router, first-touch transforms and residual set work; the eager pipeline does nothing.",
    },
];

/// Runnable (`--workload`, `--suite`) but not tracked by the driver; see
/// README, "Workloads".
pub const UNTRACKED: [Workload; 2] = [
    Workload {
        name: "oltp_rw_durable",
        why: "Durable read/write OLTP with MVCC readers and a restart check; the migrated table is cold.",
    },
    Workload {
        name: "foj_nbc_hot20_mem",
        why: "Full outer join with no log device, 20 % hot, non-blocking commit.",
    },
];

/// Everything `--workload` accepts, tracked first.
pub fn all_workloads() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().chain(&UNTRACKED)
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "steady_cost_kref",
        unit: "kref",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rel_tput",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 76] = [
    // What a user of the system sees, but either too noisy on this host
    // to hold a bound (README, "Demoted") or not defined on every
    // workload (0 where it is not).
    layer("e2e.steady_tput", "1/s", Higher),
    layer("e2e.during_tput", "1/s", Higher),
    layer("e2e.steady_p50_ms", "ms", Lower),
    layer("e2e.steady_p99_ms", "ms", Lower),
    layer("e2e.during_p99_ms", "ms", Lower),
    layer("e2e.migration_s", "s", Lower),
    layer("e2e.peak_rss_mb", "MB", Lower),
    layer("e2e.ref_rate", "1/s", Higher),
    layer("e2e.read_p50_us", "us", Lower),
    layer("e2e.read_p99_us", "us", Lower),
    layer("e2e.recovery_rec_per_s", "1/s", Higher),
    layer("e2e.wal_bytes_per_txn", "B", Lower),
    layer("wal.encode_ns", "ns", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.decode_ns", "ns", Lower),
    layer("wal.read_range_ns", "ns", Lower),
    layer("wal.durable_wait_us", "us", Lower),
    layer("wal.sync_data_us", "us", Lower),
    layer("wal.flushes_per_commit", "ratio", Lower),
    layer("wal.bytes_per_record", "B", Lower),
    layer("txn.lock_acquire_ns", "ns", Lower),
    layer("txn.release_all_ns", "ns", Lower),
    layer("txn.lock_waits", "count", Lower),
    layer("storage.get_ns", "ns", Lower),
    layer("storage.update_ns", "ns", Lower),
    layer("storage.insert_ns", "ns", Lower),
    layer("storage.fuzzy_scan_rows_per_s", "1/s", Higher),
    layer("storage.mvcc_read_ns", "ns", Lower),
    layer("storage.mvcc_gc_ms", "ms", Lower),
    layer("storage.mvcc_reclaimed", "count", Higher),
    layer("storage.residual_claim_ns", "ns", Lower),
    layer("engine.begin_ns", "ns", Lower),
    layer("engine.update_ns", "ns", Lower),
    layer("engine.update_self_ns", "ns", Lower),
    layer("engine.read_ns", "ns", Lower),
    layer("engine.snapshot_read_ns", "ns", Lower),
    layer("engine.commit_us", "us", Lower),
    layer("engine.commit_self_us", "us", Lower),
    layer("engine.abort_us", "us", Lower),
    layer("engine.truncate_log_ms", "ms", Lower),
    layer("engine.recover_ms", "ms", Lower),
    layer("engine.router_update_ns", "ns", Lower),
    layer("engine.router_read_ns", "ns", Lower),
    layer("engine.router_overhead_ns", "ns", Lower),
    layer("engine.schema_aborts", "count", Lower),
    layer("engine.failed_txns", "count", Lower),
    layer("core.prepare_ms", "ms", Lower),
    layer("core.populate_ms", "ms", Lower),
    layer("core.populate_rows_per_s", "1/s", Higher),
    layer("core.propagate_ms", "ms", Lower),
    layer("core.propagate_rec_per_s", "1/s", Higher),
    layer("core.propagate_iterations", "count", Lower),
    layer("core.propagate_relevant_share", "ratio", Higher),
    layer("core.backlog_at_sync", "count", Lower),
    layer("core.sync_latch_pause_us", "us", Lower),
    layer("core.sync_final_records", "count", Lower),
    layer("core.sync_old_txns", "count", Lower),
    layer("core.sync_locks_transferred", "count", Lower),
    layer("core.post_sync_ms", "ms", Lower),
    layer("core.lazy_cutover_ms", "ms", Lower),
    layer("core.lazy_first_touch_us", "us", Lower),
    layer("core.lazy_touch_share", "ratio", Higher),
    layer("core.lazy_backfill_rows_per_s", "1/s", Higher),
    layer("core.migrations_failed", "count", Lower),
    layer("orchestrator.overhead_ms", "ms", Lower),
    layer("orchestrator.state_records", "count", Lower),
    layer("bench.trace_overhead", "ratio", Higher),
    layer("bench.client_stall_max_ms", "ms", Lower),
    layer("bench.client_self_ns", "ns", Lower),
    layer("bench.spans", "count", Higher),
    layer("bench.rel_tput", "ratio", Higher),
    layer("bench.steady_samples", "count", Higher),
    layer("bench.during_samples", "count", Higher),
    layer("bench.rounds", "count", Higher),
    layer("bench.cores", "count", Higher),
    layer("bench.clients", "count", Higher),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Check a result line against the tables: every named metric present,
/// finite, with its unit, and nothing else. Returns what is wrong.
pub fn validate_result(line: &Json, traced: bool) -> Vec<String> {
    let mut wrong = Vec::new();
    let keys: Vec<&str> = line
        .as_obj()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        wrong.push(format!("keys are {keys:?}"));
    }
    let attempted = line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    if attempted < 1.0 || attempted.fract() != 0.0 {
        wrong.push(format!("attempted is {attempted}"));
    }
    let expected: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    if metrics.len() != expected.len() {
        wrong.push(format!(
            "{} metrics, expected {}",
            metrics.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        match line.get("metrics").and_then(|m| m.get(name)) {
            None => wrong.push(format!("{name} missing")),
            Some(m) => {
                if m.get("unit").and_then(Json::as_str) != Some(unit) {
                    wrong.push(format!("{name} has unit {:?}", m.get("unit")));
                }
                match m.get("value").and_then(Json::as_f64) {
                    Some(v) if v.is_finite() => {
                        if !traced && v == 0.0 {
                            wrong.push(format!("{name} is 0"));
                        }
                    }
                    other => wrong.push(format!("{name} has value {other:?}")),
                }
            }
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits of the driver's contract, on the manifest as printed.
    #[test]
    fn manifest_meets_the_contract() {
        let text = manifest().render_pretty();
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!((1..=32).contains(&command.len()));
        for part in command {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [s("benchmark")]
        );
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

        let mut names = std::collections::HashSet::new();
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert_eq!(w.as_obj().unwrap().len(), 2);
            let name = w.get("name").unwrap().as_str().unwrap();
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(name_ok(name) && names.insert(name.to_owned()), "{name}");
            assert!(
                why.chars().count() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert!((1..=16).contains(&e2e.len()));
        for m in e2e {
            assert_eq!(m.as_obj().unwrap().len(), 4);
            let name = m.get("name").unwrap().as_str().unwrap();
            assert!(name_ok(name) && names.insert(name.to_owned()), "{name}");
            assert!(unit_ok(m.get("unit").unwrap().as_str().unwrap()));
            assert!(["lower", "higher"].contains(&m.get("better").unwrap().as_str().unwrap()));
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        let setup = e2e
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"))
            .unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.get("bound").unwrap().as_f64(), Some(widest));

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert!((1..=128).contains(&layers.len()));
        for m in layers {
            assert_eq!(m.as_obj().unwrap().len(), 3);
            let name = m.get("name").unwrap().as_str().unwrap();
            assert!(name_ok(name) && names.insert(name.to_owned()), "{name}");
            assert!(unit_ok(m.get("unit").unwrap().as_str().unwrap()));
            assert!(["lower", "higher"].contains(&m.get("better").unwrap().as_str().unwrap()));
        }
    }

    /// `benchmark/run.sh --write-manifest` was run after the last change
    /// to the tables.
    #[test]
    fn checked_in_manifest_is_current() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest().render_pretty()
        );
    }

    #[test]
    fn result_lines_are_checked_against_the_tables() {
        let metric = |v: f64, unit: &str| obj([("value", Json::Num(v)), ("unit", s(unit))]);
        let line = |metrics: Vec<(String, Json)>| {
            obj([
                ("correct", Json::Bool(true)),
                ("attempted", Json::Num(10.0)),
                ("failed", Json::Num(0.0)),
                ("metrics", Json::Obj(metrics)),
            ])
        };
        let good: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), metric(1.5, m.unit)))
            .collect();
        assert_eq!(
            validate_result(&line(good.clone()), false),
            Vec::<String>::new()
        );

        let mut missing = good.clone();
        missing.pop();
        assert!(!validate_result(&line(missing), false).is_empty());
        let mut zero = good.clone();
        zero[1].1 = metric(0.0, END_TO_END[1].unit);
        assert!(validate_result(&line(zero), false)
            .iter()
            .any(|w| w.contains("is 0")));
        let mut unit = good.clone();
        unit[0].1 = metric(1.0, "ms");
        assert!(validate_result(&line(unit), false)
            .iter()
            .any(|w| w.contains("unit")));
        let mut nan = good;
        nan[2].1 = obj([("value", Json::Null), ("unit", s(END_TO_END[2].unit))]);
        assert!(!validate_result(&line(nan), false).is_empty());
    }
}
