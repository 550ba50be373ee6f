//! Kill matrix for the MVCC snapshot-read path (`mvcc.*` crash
//! points).
//!
//! These points are `optional` in the registry because the default sim
//! census runs with MVCC disabled and never reaches them. This sweep
//! runs the same scenarios with `SimConfig::with_mvcc()`: versioning is
//! on from before the sources are seeded, the driver holds a snapshot
//! across the whole transformation (and checks the retained sources
//! still read through it unchanged afterwards), and a GC sweep closes
//! the run. The fuzzy copy, propagation and synchronization therefore
//! all run over version-archiving tables — the configuration durable
//! deployments ship — and the full recovery oracle is demanded every
//! time: committed user data survives the torn WAL exactly, and
//! restarting the transformation from preparation converges to the
//! tables of an uninterrupted *MVCC-off* reference run.
//!
//! The kill occurrences are derived from the checked-in registry via
//! `kill_occurrences` on a census run, exactly like the non-optional
//! matrix in `crash_matrix.rs` — a hardcoded occurrence list would rot
//! the moment chunk sizes change.

use morph_core::SyncStrategy;
use morph_sim::points::{kill_occurrences, registry};
use morph_sim::{run_sim, Scenario, SimConfig, Verdict};

const MVCC_POINTS: [&str; 2] = ["mvcc.snapshot_acquire", "mvcc.gc_reclaim"];

const SCENARIOS: [Scenario; 3] = [Scenario::Foj, Scenario::Split, Scenario::Union];

fn snapshot_cfg(seed: u64, scenario: Scenario, strategy: SyncStrategy) -> SimConfig {
    SimConfig::new(seed, scenario, strategy).with_mvcc()
}

/// Every MVCC point must fire in an MVCC census — otherwise the kill
/// sweep below would be vacuously green — and the clean run must
/// already satisfy the Theorem 1 oracle against the MVCC-off
/// reference.
#[test]
fn snapshot_census_reaches_the_mvcc_points() {
    for scenario in SCENARIOS {
        let census = run_sim(&snapshot_cfg(21, scenario, SyncStrategy::NonBlockingAbort))
            .unwrap_or_else(|f| panic!("{}", f.render()));
        assert_eq!(census.verdict, Verdict::CompletedClean);
        for point in MVCC_POINTS {
            assert!(
                census.point_counts.get(point).copied().unwrap_or(0) > 0,
                "{}: {point} never fired in the snapshot census; counts: {:?}",
                scenario.tag(),
                census.point_counts
            );
        }
    }
}

/// Kill each MVCC point at its registry-derived occurrences (loops at
/// first/middle/last, steps at their last firing in the census) and
/// demand `KilledAndRecovered`: recovery restores committed data
/// exactly and the restarted transformation equals the uninterrupted
/// MVCC-off run.
#[test]
fn mvcc_points_survive_kills() {
    for scenario in SCENARIOS {
        let strategy = SyncStrategy::NonBlockingAbort;
        let census = run_sim(&snapshot_cfg(21, scenario, strategy))
            .unwrap_or_else(|f| panic!("{}", f.render()));
        for name in MVCC_POINTS {
            let point = registry().get(name).expect("registered MVCC point");
            let fired = census.point_counts.get(name).copied().unwrap_or(0);
            for occurrence in kill_occurrences(point, fired) {
                let cfg = snapshot_cfg(21, scenario, strategy).kill_at(name, occurrence);
                let report = run_sim(&cfg).unwrap_or_else(|f| panic!("{}", f.render()));
                assert_eq!(
                    report.verdict,
                    Verdict::KilledAndRecovered,
                    "{}: kill {name}#{occurrence} never fired",
                    scenario.tag()
                );
            }
        }
    }
}

/// With the default config the MVCC machinery must be completely
/// inert: no MVCC crash point fires while the fuzzy copy
/// (`populate.chunk`) runs.
#[test]
fn default_config_never_touches_mvcc() {
    for scenario in SCENARIOS {
        let census = run_sim(&SimConfig::new(
            21,
            scenario,
            SyncStrategy::NonBlockingAbort,
        ))
        .unwrap_or_else(|f| panic!("{}", f.render()));
        assert_eq!(census.verdict, Verdict::CompletedClean);
        for point in MVCC_POINTS {
            assert!(
                !census.point_counts.contains_key(point),
                "{}: {point} fired in a default census",
                scenario.tag()
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
