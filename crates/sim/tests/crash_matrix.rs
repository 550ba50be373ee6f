//! Enumerated crash coverage (not sampled): for FOJ and split, under
//! each of the three synchronization strategies, kill the
//! transformation at every crash point in the checked-in registry
//! (`crates/lint/manifest/crash_points.txt`) that fires in the cell's
//! census — loops at their first/middle/last occurrence, bounded steps
//! at their last — then demand the full recovery oracle: committed
//! user data survives the torn WAL exactly, and restarting the
//! transformation from preparation converges to the same tables as an
//! uninterrupted run (Theorem 1).
//!
//! The registry, not this file, decides what gets killed: a new
//! `crash_point()` fails morph-lint until registered, and once
//! registered it joins the matrix automatically. The aggregate
//! coverage test at the bottom closes the remaining gap: a registered,
//! non-optional point that fires in *no* cell's census is an error,
//! so a point cannot rot into silence.

use std::collections::BTreeSet;

use morph_core::SyncStrategy;
use morph_sim::{kill_matrix, run_sim, uncovered, Scenario, SimConfig, Verdict};

const STRATEGIES: [SyncStrategy; 3] = [
    SyncStrategy::BlockingCommit,
    SyncStrategy::NonBlockingAbort,
    SyncStrategy::NonBlockingCommit,
];

/// Kill `scenario` × `strategy` at every registry point that fired in
/// the census and verify the oracle each time. Returns, per killed
/// universe, the unflushed bytes that survived the tear.
fn exhaust_cell(seed: u64, scenario: Scenario, strategy: SyncStrategy) -> Vec<usize> {
    let census = run_sim(&SimConfig::new(seed, scenario, strategy))
        .unwrap_or_else(|f| panic!("{}", f.render()));
    assert_eq!(census.verdict, Verdict::CompletedClean);

    let kills = kill_matrix(strategy, &census.point_counts);
    assert!(
        !kills.is_empty(),
        "{} {:?}: registry produced an empty kill matrix; census: {:?}",
        scenario.tag(),
        strategy,
        census.point_counts
    );

    let mut tails = Vec::new();
    for (point, occurrence) in kills {
        let cfg = SimConfig::new(seed, scenario, strategy).kill_at(&point, occurrence);
        let report = run_sim(&cfg).unwrap_or_else(|f| panic!("{}", f.render()));
        assert_eq!(
            report.verdict,
            Verdict::KilledAndRecovered,
            "{} {:?}: kill {point}#{occurrence} never fired",
            scenario.tag(),
            strategy
        );
        tails.push(report.tail_bytes);
    }
    tails
}

#[test]
fn foj_survives_kills_at_every_point_all_strategies() {
    for strategy in STRATEGIES {
        exhaust_cell(1, Scenario::Foj, strategy);
    }
}

#[test]
fn split_survives_kills_at_every_point_all_strategies() {
    for strategy in STRATEGIES {
        exhaust_cell(1, Scenario::Split, strategy);
    }
}

#[test]
fn split_with_consistency_check_survives_kills() {
    // The C/U flags and certification rounds add bookkeeping log
    // records (CcBegin/CcOk) that land in the torn tail; two
    // strategies suffice on top of the plain-split matrix.
    exhaust_cell(1, Scenario::SplitCc, SyncStrategy::NonBlockingAbort);
    exhaust_cell(1, Scenario::SplitCc, SyncStrategy::BlockingCommit);
}

#[test]
fn union_survives_kills() {
    exhaust_cell(1, Scenario::Union, SyncStrategy::NonBlockingAbort);
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
        .flat_map(|scenario| exhaust_cell(1, scenario, SyncStrategy::NonBlockingAbort))
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
