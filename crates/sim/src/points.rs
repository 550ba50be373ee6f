//! Crash-point registry, shared with morph-lint.
//!
//! The checked-in manifest `crates/lint/manifest/crash_points.txt` is
//! the single source of truth for every `crash_point("…")` in the
//! engine: lint pass 3 cross-checks it against the code in both
//! directions, and this module derives the sim's injection points and
//! kill lists from it — so a newly added crash point fails lint until
//! registered, and once registered is automatically killed: a
//! non-optional point by the census-driven matrix, an `optional` one by
//! the sweep of its family ([`sweep_of`]). `tests/crash_matrix.rs`
//! fails on a registered point that never fires in any census, and on
//! one that no sweep kills.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use morph_core::SyncStrategy;
use morph_lint::manifest::{CrashManifest, CrashPoint, PointKind, PointStrategy};

const MANIFEST: &str = include_str!("../../lint/manifest/crash_points.txt");

/// The parsed registry. Panics only on a corrupted checked-in
/// manifest, which lint (and every sim test) catches immediately.
pub fn registry() -> &'static CrashManifest {
    static REG: OnceLock<CrashManifest> = OnceLock::new();
    REG.get_or_init(|| {
        // morph-lint: allow(panic, checked-in manifest; parse failures are a repo defect caught by any test run)
        CrashManifest::parse(MANIFEST).expect("crash_points.txt must parse")
    })
}

/// Crash points where the hook may inject workload transactions. Only
/// points where no table latches are held: the injection runs complete
/// transactions on the *same thread*, so injecting under a sync latch
/// would self-deadlock (and real user activity is locked out there
/// anyway — that is what the latch is for).
pub fn is_injection_point(name: &str) -> bool {
    registry().get(name).is_some_and(|p| p.inject)
}

/// Can `point` fire under `strategy`?
pub fn strategy_matches(point: &CrashPoint, strategy: SyncStrategy) -> bool {
    match point.strategy {
        PointStrategy::Any => true,
        PointStrategy::Bc => matches!(strategy, SyncStrategy::BlockingCommit),
        PointStrategy::Nba => matches!(strategy, SyncStrategy::NonBlockingAbort),
        PointStrategy::Nbc => matches!(strategy, SyncStrategy::NonBlockingCommit),
    }
}

/// Registered points the kill matrix must cover for `strategy`:
/// everything applicable and not `optional`, in manifest order.
pub fn matrix_points(strategy: SyncStrategy) -> Vec<&'static CrashPoint> {
    registry()
        .points
        .iter()
        .filter(|p| !p.optional && strategy_matches(p, strategy))
        .collect()
}

/// Occurrences to kill at, given a census count: loops get their
/// first, middle, and last firing; bounded steps their last (the one
/// belonging to the final transformation attempt).
pub fn kill_occurrences(point: &CrashPoint, census_count: usize) -> Vec<usize> {
    match point.kind {
        PointKind::Loop => {
            let mut occs = vec![1, census_count / 2 + 1, census_count];
            occs.dedup();
            occs
        }
        PointKind::Step => vec![census_count],
    }
}

/// The kills for one census: every one of `points` that fired in it,
/// at its [`kill_occurrences`]. Points that did not fire in this cell
/// are skipped here — the aggregate coverage test demands that each
/// matrix point fires in *some* cell, so silence across the whole
/// matrix is still an error.
pub fn kill_matrix(
    points: &[&CrashPoint],
    point_counts: &BTreeMap<String, usize>,
) -> Vec<(String, usize)> {
    let mut kills = Vec::new();
    for point in points {
        let Some(&n) = point_counts.get(&point.name) else {
            continue;
        };
        for occ in kill_occurrences(point, n) {
            kills.push((point.name.clone(), occ));
        }
    }
    kills
}

/// Matrix points for `strategy` that are absent from `point_counts` —
/// the aggregate coverage check (empty = full coverage).
pub fn uncovered(
    strategy: SyncStrategy,
    point_counts: &BTreeMap<String, usize>,
) -> Vec<&'static str> {
    matrix_points(strategy)
        .into_iter()
        .filter(|p| !point_counts.contains_key(&p.name))
        .map(|p| p.name.as_str())
        .collect()
}

/// The sweep that kills a registered point. The census-driven matrix
/// takes every non-optional point; an `optional` point is killed by the
/// hand-driven sweep of its family (the name up to the first dot),
/// which takes its kill list from [`swept_by`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `crash_matrix.rs`: every scenario and strategy, from the census.
    Census,
    /// `crash_matrix.rs`: a commit or abort killed around the
    /// durability watermark (`commit.*`, `abort.*`).
    CommitPath,
    /// `crash_matrix.rs`: census cells rerun with MVCC on (`mvcc.*`).
    Mvcc,
    /// `migration_matrix.rs`: the orchestrator's state-machine
    /// transitions (`orchestrator.*`).
    Orchestrator,
    /// `migration_matrix.rs`: fan-out and the lazy lifecycle
    /// (`router.*`).
    Router,
}

/// The sweep that kills `point`; `None` means nothing would.
pub fn sweep_of(point: &CrashPoint) -> Option<Sweep> {
    if !point.optional {
        return Some(Sweep::Census);
    }
    match point.name.split('.').next() {
        Some("commit" | "abort") => Some(Sweep::CommitPath),
        Some("mvcc") => Some(Sweep::Mvcc),
        Some("orchestrator") => Some(Sweep::Orchestrator),
        Some("router") => Some(Sweep::Router),
        _ => None,
    }
}

/// Registered points `sweep` kills, in manifest order.
pub fn swept_by(sweep: Sweep) -> Vec<&'static CrashPoint> {
    registry()
        .points
        .iter()
        .filter(|p| sweep_of(p) == Some(sweep))
        .collect()
}
