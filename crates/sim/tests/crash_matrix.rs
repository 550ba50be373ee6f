//! Enumerated crash coverage (not sampled): for FOJ and split, under
//! each of the three synchronization strategies, kill the
//! transformation at every crash point in the checked-in registry
//! (`crates/lint/manifest/crash_points.txt`) that fires in the cell's
//! census — loops at their first/middle/last occurrence, bounded steps
//! at their last — then demand the full recovery oracle: committed
//! user data survives the torn WAL exactly, and restarting the
//! transformation from preparation converges to the same tables as an
//! uninterrupted run (Theorem 1). The same cells rerun with MVCC on
//! kill the `mvcc.*` points, and the commit-path tests kill a single
//! transaction at the `commit.*` and `abort.*` points around the
//! durability watermark.
//!
//! The registry, not this file, decides what gets killed: a new
//! `crash_point()` fails morph-lint until registered, and once
//! registered it joins a sweep automatically. Two aggregate tests close
//! the remaining gaps: a registered, non-optional point that fires in
//! *no* cell's census is an error, and so is an `optional` point that
//! no sweep kills.

use std::collections::BTreeSet;

use morph_common::{ColumnType, DbError, Schema, Value};
use morph_core::SyncStrategy;
use morph_lint::manifest::CrashPoint;
use morph_sim::points::{registry, sweep_of};
use morph_sim::{
    crash_and_recover, fault_db, kill_matrix, matrix_points, run_sim, swept_by, uncovered,
    KillHook, Scenario, SimConfig, Sweep, Verdict,
};

const STRATEGIES: [SyncStrategy; 3] = [
    SyncStrategy::BlockingCommit,
    SyncStrategy::NonBlockingAbort,
    SyncStrategy::NonBlockingCommit,
];

/// Kill the universe `cfg` describes at every one of `points` that
/// fired in its census and verify the oracle each time. Returns each
/// killed point with the unflushed bytes that survived its tear.
fn exhaust_cell(cfg: SimConfig, points: &[&CrashPoint]) -> Vec<(String, usize)> {
    let census = run_sim(&cfg).unwrap_or_else(|f| panic!("{}", f.render()));
    assert_eq!(census.verdict, Verdict::CompletedClean);

    let kills = kill_matrix(points, &census.point_counts);
    assert!(
        !kills.is_empty(),
        "{} {:?}: registry produced an empty kill matrix; census: {:?}",
        cfg.scenario.tag(),
        cfg.strategy,
        census.point_counts
    );

    let mut tails = Vec::new();
    for (point, occurrence) in kills {
        let report = run_sim(&cfg.clone().kill_at(&point, occurrence))
            .unwrap_or_else(|f| panic!("{}", f.render()));
        assert_eq!(
            report.verdict,
            Verdict::KilledAndRecovered,
            "{} {:?}: kill {point}#{occurrence} never fired",
            cfg.scenario.tag(),
            cfg.strategy
        );
        tails.push((point, report.tail_bytes));
    }
    tails
}

/// The census-driven cell: every matrix point of `strategy`.
fn exhaust(scenario: Scenario, strategy: SyncStrategy) -> Vec<(String, usize)> {
    exhaust_cell(
        SimConfig::new(1, scenario, strategy),
        &matrix_points(strategy),
    )
}

#[test]
fn foj_survives_kills_at_every_point_all_strategies() {
    for strategy in STRATEGIES {
        exhaust(Scenario::Foj, strategy);
    }
}

#[test]
fn split_survives_kills_at_every_point_all_strategies() {
    for strategy in STRATEGIES {
        exhaust(Scenario::Split, strategy);
    }
}

#[test]
fn split_with_consistency_check_survives_kills() {
    // The C/U flags and certification rounds add bookkeeping log
    // records (CcBegin/CcOk) that land in the torn tail; two
    // strategies suffice on top of the plain-split matrix.
    exhaust(Scenario::SplitCc, SyncStrategy::NonBlockingAbort);
    exhaust(Scenario::SplitCc, SyncStrategy::BlockingCommit);
}

#[test]
fn union_survives_kills() {
    exhaust(Scenario::Union, SyncStrategy::NonBlockingAbort);
}

/// The kills above are only a torn-write test if the tear has bytes to
/// cut. Records appended since the last flush sit staged in the log's
/// slots, not in the backend, so the crash step drains them first
/// (`crash_and_recover`); without that drain every universe below
/// crashes with an empty volatile buffer and this reads 0 of N.
#[test]
fn kills_leave_torn_tails_for_recovery_to_survive() {
    let tails: Vec<usize> = Scenario::ALL
        .into_iter()
        .flat_map(|scenario| exhaust(scenario, SyncStrategy::NonBlockingAbort))
        .map(|(_, bytes)| bytes)
        .collect();
    let torn = tails.iter().filter(|&&bytes| bytes > 0).count();
    println!("torn tails: {torn} of {} killed universes", tails.len());
    assert!(
        torn > 0,
        "no killed universe of {} kept any unflushed bytes: the tear never cut a record",
        tails.len()
    );
}

/// Aggregate registry coverage: every non-optional point applicable to
/// a strategy must fire in the census of at least one scenario under
/// that strategy — otherwise a registered crash point would be
/// silently untested (or a bogus registration would sit in the
/// manifest demanding coverage nothing can provide).
#[test]
fn every_registered_point_fires_somewhere() {
    for strategy in STRATEGIES {
        let mut missing: Option<BTreeSet<&str>> = None;
        for (seed, scenario) in [(1u64, Scenario::Foj), (1, Scenario::Split)] {
            let census = run_sim(&SimConfig::new(seed, scenario, strategy))
                .unwrap_or_else(|f| panic!("{}", f.render()));
            assert_eq!(census.verdict, Verdict::CompletedClean);
            let not_here: BTreeSet<&str> = uncovered(strategy, &census.point_counts)
                .into_iter()
                .collect();
            missing = Some(match missing {
                None => not_here,
                Some(prev) => prev.intersection(&not_here).copied().collect(),
            });
        }
        let missing = missing.unwrap_or_default();
        assert!(
            missing.is_empty(),
            "{strategy:?}: registered crash points that fired in no census: {missing:?}"
        );
    }
}

/// `optional` exempts a point from the census matrix, so an optional
/// point outside every sweep's family would be killed by nothing.
#[test]
fn every_registered_point_is_in_a_kill_list() {
    let unswept: Vec<&str> = registry()
        .points
        .iter()
        .filter(|p| sweep_of(p).is_none())
        .map(|p| p.name.as_str())
        .collect();
    assert!(
        unswept.is_empty(),
        "registered crash points no sweep kills: {unswept:?} (give their family a sweep in morph_sim::points::sweep_of)"
    );
}

/// The per-scenario enumeration is registry-driven: the strategy's
/// sync family is present, foreign families are not.
#[test]
fn kill_points_follow_the_registry() {
    let pts = Scenario::Foj.kill_points(SyncStrategy::BlockingCommit);
    assert!(pts.contains(&"sync.bc.drained"));
    assert!(pts.contains(&"populate.chunk"));
    assert!(!pts.iter().any(|p| p.starts_with("sync.nba.")));
    let pts = Scenario::Split.kill_points(SyncStrategy::NonBlockingAbort);
    assert!(pts.contains(&"sync.nba.switched"));
    assert!(!pts.iter().any(|p| p.starts_with("sync.bc.")));
}

/// Regression pin for the recovery-module doc claim: a transformation
/// interrupted anywhere and restarted from preparation over the
/// recovered database ends in exactly the state of a never-interrupted
/// run. The harness's verdict asserts precisely that equivalence
/// (values, split counters, consistency flags, FOJ presence).
#[test]
fn interrupted_restart_equals_uninterrupted_run() {
    for (scenario, point) in [
        (Scenario::Foj, "populate.chunk"),
        (Scenario::Foj, "propagate.batch"),
        (Scenario::Split, "populate.chunk"),
        (Scenario::Split, "propagate.batch"),
    ] {
        for strategy in STRATEGIES {
            for seed in [2, 3] {
                let cfg = SimConfig::new(seed, scenario, strategy).kill_at(point, 2);
                let report = run_sim(&cfg).unwrap_or_else(|f| panic!("{}", f.render()));
                assert_eq!(
                    report.verdict,
                    Verdict::KilledAndRecovered,
                    "{} {strategy:?} seed {seed}: {point}#2 never fired",
                    scenario.tag()
                );
            }
        }
    }
}

// --- MVCC -------------------------------------------------------------------

const MVCC_SCENARIOS: [Scenario; 3] = [Scenario::Foj, Scenario::Split, Scenario::Union];

/// The `mvcc.*` points are `optional` because the default census runs
/// with MVCC off. `SimConfig::with_mvcc()` turns versioning on before
/// seeding; the driver holds a snapshot across the whole transformation
/// (and checks the retained sources still read through it unchanged),
/// and a GC sweep closes the run, so copy, propagation and
/// synchronization all run over version-archiving tables. Every MVCC
/// point must fire in the census (or the sweep is vacuously green), and
/// every kill must recover to the tables of an MVCC-off reference run.
#[test]
fn mvcc_points_survive_kills() {
    let points = swept_by(Sweep::Mvcc);
    for scenario in MVCC_SCENARIOS {
        let cfg = SimConfig::new(21, scenario, SyncStrategy::NonBlockingAbort).with_mvcc();
        let killed = exhaust_cell(cfg, &points);
        for point in &points {
            assert!(
                killed.iter().any(|(name, _)| *name == point.name),
                "{}: {} never fired in the snapshot census",
                scenario.tag(),
                point.name
            );
        }
    }
}

/// With the default config the MVCC machinery must be completely
/// inert: no MVCC crash point fires while the fuzzy copy
/// (`populate.chunk`) runs.
#[test]
fn default_config_never_touches_mvcc() {
    for scenario in MVCC_SCENARIOS {
        let census = run_sim(&SimConfig::new(
            21,
            scenario,
            SyncStrategy::NonBlockingAbort,
        ))
        .unwrap_or_else(|f| panic!("{}", f.render()));
        assert_eq!(census.verdict, Verdict::CompletedClean);
        for point in swept_by(Sweep::Mvcc) {
            assert!(
                !census.point_counts.contains_key(&point.name),
                "{}: {} fired in a default census",
                scenario.tag(),
                point.name
            );
        }
        assert!(
            census
                .point_counts
                .get("populate.chunk")
                .copied()
                .unwrap_or(0)
                > 0,
            "{}: fuzzy copy never ran",
            scenario.tag()
        );
    }
}

// --- commit path ------------------------------------------------------------

fn two_col_schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .expect("static schema")
}

/// Kill one transaction's commit (or, at an `abort.*` point, its
/// abort) at `point`, recover, and report whether its row survived.
fn killed_txn_survives(point: &str, seed: u64) -> bool {
    let (db, fault) = fault_db(seed);
    let table = db.create_table("T", two_col_schema()).unwrap();

    // A committed base row that must survive every crash below.
    let t0 = db.begin();
    db.insert(t0, "T", vec![Value::Int(1), Value::str("base")])
        .unwrap();
    db.commit(t0).unwrap();

    let hook = KillHook::arm(point, 1);
    db.set_crash_hook(hook.clone());
    let t1 = db.begin();
    db.insert(t1, "T", vec![Value::Int(2), Value::str("victim")])
        .unwrap();
    let end = if point.starts_with("abort.") {
        db.abort(t1)
    } else {
        db.commit(t1)
    };
    assert!(
        matches!(end, Err(DbError::SimulatedCrash(_))) && hook.fired(),
        "transaction end should have been killed at {point}, got {end:?}"
    );

    let sources = [(table.id(), "T".to_owned(), two_col_schema())];
    let db2 = crash_and_recover(&db, &fault, &sources).unwrap().db;
    let rows = db2.catalog().get("T").unwrap().snapshot();
    assert!(
        rows.iter().any(|(_, r)| r.values[0] == Value::Int(1)),
        "committed base row lost after {point} crash"
    );
    rows.iter().any(|(_, r)| r.values[0] == Value::Int(2))
}

/// The commit/abort points sit around the durability watermark, which
/// no transformation-phase kill can reach, and the watermark is the
/// point of no return: a commit killed before its `Commit` record is
/// appended rolls back; one killed after `wait_durable` returned has
/// its record on stable storage, out of the tear's reach, and recovery
/// redoes it; an abort killed after its CLRs are durable stays rolled
/// back.
#[test]
fn commit_path_kills_respect_the_durability_watermark() {
    for point in swept_by(Sweep::CommitPath) {
        let survives = match point.name.as_str() {
            "commit.wal_append" => false,
            "commit.wal_durable" => true,
            "abort.wal_durable" => false,
            other => panic!("{other}: say what recovery must make of a transaction killed here"),
        };
        for seed in [3, 17, 23, 91] {
            assert_eq!(
                killed_txn_survives(&point.name, seed),
                survives,
                "{} (seed {seed})",
                point.name
            );
        }
    }
}
