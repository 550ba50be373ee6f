//! Fixture suite: every seeded defect must be caught by exactly its
//! pass at exactly its file:line — and the clean fixtures must stay
//! silent across all passes. These pins are what make the lint
//! trustworthy as a CI gate: a pass that drifts (wrong line, wrong
//! pass, silent miss, noisy false positive) fails here first.
//!
//! The interprocedural pins deserve a note: `deep_inversion.rs` seeds
//! a lock inversion that only exists across three call frames, and
//! the expected line is the *origin call site* (the call made while
//! the guard is held), not the acquire buried in the leaf — that is
//! where an `allow` or a restructure belongs. `clean_interproc.rs`
//! is its control: the same shape with the guard dropped before the
//! descent must produce nothing.

use morph_lint::manifest::{AtomicsManifest, CrashManifest, LockRanks};
use morph_lint::{run_all, Config, SourceFile};

const MANIFEST_PATH: &str = "crates/lint/tests/fixtures/crash_points.txt";
const RANKS_PATH: &str = "crates/lint/tests/fixtures/lock_ranks.txt";

fn fixture_config() -> Config {
    Config {
        lock_ranks: LockRanks::parse(include_str!("fixtures/lock_ranks.txt")).unwrap(),
        lock_ranks_path: RANKS_PATH.to_string(),
        crash_points: CrashManifest::parse(include_str!("fixtures/crash_points.txt")).unwrap(),
        crash_manifest_path: MANIFEST_PATH.to_string(),
        det_zones: vec!["fixtures/".into()],
        panic_exempt: Vec::new(),
        wal_write_fns: vec![("fixtures/wal_write.rs".into(), "drain_staged".into())],
        wal_backend_impls: Vec::new(),
        atomics: AtomicsManifest::parse(include_str!("fixtures/atomics.txt")).unwrap(),
        atomics_manifest_path: "crates/lint/tests/fixtures/atomics.txt".to_string(),
        atomics_zones: vec!["fixtures/".into()],
        purity_roots: vec!["Reader::snapshot_read".into()],
        purity_forbidden: vec!["lock.table".into()],
        crate_deps: std::collections::HashMap::new(),
    }
}

fn fixture_files() -> Vec<SourceFile> {
    vec![
        SourceFile::from_source(
            "fixtures/atomic_ordering.rs",
            include_str!("fixtures/atomic_ordering.rs"),
        ),
        SourceFile::from_source("fixtures/clean.rs", include_str!("fixtures/clean.rs")),
        SourceFile::from_source(
            "fixtures/clean_interproc.rs",
            include_str!("fixtures/clean_interproc.rs"),
        ),
        SourceFile::from_source(
            "fixtures/deep_inversion.rs",
            include_str!("fixtures/deep_inversion.rs"),
        ),
        SourceFile::from_source(
            "fixtures/impure_snapshot.rs",
            include_str!("fixtures/impure_snapshot.rs"),
        ),
        SourceFile::from_source(
            "fixtures/lane_inversion.rs",
            include_str!("fixtures/lane_inversion.rs"),
        ),
        SourceFile::from_source(
            "fixtures/naked_unwrap.rs",
            include_str!("fixtures/naked_unwrap.rs"),
        ),
        SourceFile::from_source(
            "fixtures/nondet_call.rs",
            include_str!("fixtures/nondet_call.rs"),
        ),
        SourceFile::from_source(
            "fixtures/orphan_crash_point.rs",
            include_str!("fixtures/orphan_crash_point.rs"),
        ),
        SourceFile::from_source(
            "fixtures/rank_inversion.rs",
            include_str!("fixtures/rank_inversion.rs"),
        ),
        SourceFile::from_source(
            "fixtures/stale_allow.rs",
            include_str!("fixtures/stale_allow.rs"),
        ),
        SourceFile::from_source(
            "fixtures/wal_write.rs",
            include_str!("fixtures/wal_write.rs"),
        ),
    ]
}

#[test]
fn every_seeded_defect_is_caught_at_its_line() {
    let findings = run_all(&fixture_config(), &fixture_files());
    let got: Vec<(&str, usize, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.pass))
        .collect();
    let expected: Vec<(&str, usize, &str)> = vec![
        // Registered `fixture.miscounted` has one code site, manifest
        // says two; `fixture.bogus` never appears in code at all.
        (MANIFEST_PATH, 3, "crash_point"),
        (MANIFEST_PATH, 4, "crash_point"),
        // Undeclared atomic field `rogue` (declaration is the pin),
        // and the Relaxed store to the `publish`-role `flag`; the
        // correctly ordered Release/Acquire pair is silent.
        ("fixtures/atomic_ordering.rs", 9, "atomics"),
        ("fixtures/atomic_ordering.rs", 14, "atomics"),
        // 3-deep interprocedural inversion, pinned at the origin call
        // site in `hold_and_descend` (see module doc).
        ("fixtures/deep_inversion.rs", 16, "lock_order"),
        // Snapshot root reaches the lock manager two frames down.
        ("fixtures/impure_snapshot.rs", 17, "purity"),
        // Lane-pool inversion: a steal (lane deque lock) under the
        // held epoch fence lock, directly and through the `steal_task`
        // call edge; the placement-order hand-off below them is silent.
        ("fixtures/lane_inversion.rs", 14, "lock_order"),
        ("fixtures/lane_inversion.rs", 21, "lock_order"),
        // Naked unwrap / expect; the allowed one (line 13) is silent.
        ("fixtures/naked_unwrap.rs", 5, "panic"),
        ("fixtures/naked_unwrap.rs", 9, "panic"),
        // Instant::now and thread_rng; the allowed Instant is silent.
        ("fixtures/nondet_call.rs", 7, "nondet"),
        ("fixtures/nondet_call.rs", 16, "nondet"),
        // crash_point with an unregistered literal.
        ("fixtures/orphan_crash_point.rs", 6, "crash_point"),
        // inner-then-outer inversion, double outer, inner re-acquired
        // through the `take_inner` call edge; the ordered + sharded
        // nesting below them is silent.
        ("fixtures/rank_inversion.rs", 14, "lock_order"),
        ("fixtures/rank_inversion.rs", 21, "lock_order"),
        ("fixtures/rank_inversion.rs", 28, "lock_order"),
        // An escape that suppresses nothing is itself a finding.
        ("fixtures/stale_allow.rs", 6, "stale_allow"),
        // sink.append outside the approved fn, and a raw write_all;
        // the same chain inside `drain_staged` is silent.
        ("fixtures/wal_write.rs", 10, "wal_bytes"),
        ("fixtures/wal_write.rs", 14, "wal_bytes"),
    ];
    assert_eq!(
        got,
        expected,
        "full findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn clean_fixtures_are_silent_on_every_pass() {
    // Run the clean files alone, with the manifest-side demands the
    // other fixtures satisfy removed — no registry or stale-entry
    // findings can leak in.
    let mut cfg = fixture_config();
    cfg.crash_points = CrashManifest::parse("").unwrap();
    cfg.atomics = AtomicsManifest::parse("").unwrap();
    cfg.purity_roots = Vec::new();
    // Rank entries only the other fixtures match would be stale here.
    cfg.lock_ranks.sites.retain(|s| s.recv != "shards[]");
    cfg.lock_ranks.fns.retain(|f| f.call == "take_inner");
    let files = vec![
        SourceFile::from_source("fixtures/clean.rs", include_str!("fixtures/clean.rs")),
        SourceFile::from_source(
            "fixtures/clean_interproc.rs",
            include_str!("fixtures/clean_interproc.rs"),
        ),
    ];
    let findings = run_all(&cfg, &files);
    assert!(
        findings.is_empty(),
        "clean fixtures produced findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixture_messages_name_the_defect() {
    let findings = run_all(&fixture_config(), &fixture_files());
    let msg_of = |file: &str, line: usize| {
        findings
            .iter()
            .find(|f| f.file == file && f.line == line)
            .map(|f| f.msg.as_str())
            .unwrap_or("")
    };
    assert!(msg_of("fixtures/rank_inversion.rs", 14).contains("inversion"));
    assert!(msg_of("fixtures/rank_inversion.rs", 21).contains("re-acquisition"));
    assert!(msg_of("fixtures/lane_inversion.rs", 14).contains("inversion"));
    assert!(msg_of("fixtures/orphan_crash_point.rs", 6).contains("not registered"));
    assert!(msg_of(MANIFEST_PATH, 4).contains("does not appear"));
    assert!(msg_of("fixtures/wal_write.rs", 14).contains("byte order"));
    // The interprocedural finding carries the whole chain, frame by
    // frame, and names the acquire site it anchors away from.
    let deep = msg_of("fixtures/deep_inversion.rs", 16);
    assert!(deep.contains("hold_and_descend"), "chain start: {deep}");
    assert!(deep.contains("step_leaf"), "chain end: {deep}");
    assert!(
        deep.contains("deep_inversion.rs:25"),
        "acquire site: {deep}"
    );
    // The purity finding prints the root-to-acquire path.
    let pure = msg_of("fixtures/impure_snapshot.rs", 17);
    assert!(pure.contains("snapshot_read"), "purity root: {pure}");
    assert!(pure.contains("fetch_version"), "purity path: {pure}");
    assert!(msg_of("fixtures/atomic_ordering.rs", 14).contains("weaker"));
    assert!(msg_of("fixtures/atomic_ordering.rs", 9).contains("not declared"));
    assert!(msg_of("fixtures/stale_allow.rs", 6).contains("stale"));
}

#[test]
fn finding_ids_are_stable_and_json_escapes() {
    let findings = run_all(&fixture_config(), &fixture_files());
    let deep = findings
        .iter()
        .find(|f| f.file == "fixtures/deep_inversion.rs")
        .expect("deep inversion finding");
    assert_eq!(
        deep.id(),
        "lock_order@fixtures/deep_inversion.rs:16#lane.sync<-lane.queue"
    );
    let json = morph_lint::to_json(&findings);
    assert!(json.starts_with('['), "json array: {json}");
    assert!(
        json.contains("\"id\":\"lock_order@fixtures/deep_inversion.rs:16#lane.sync<-lane.queue\""),
        "stable id in json: {json}"
    );
    // Every finding appears exactly once.
    assert_eq!(json.matches("\"id\"").count(), findings.len());
}

/// A rank-manifest line that matches nothing is a finding at that
/// line: one dead `fn` line gives exactly one more finding, and so
/// does one dead `site` line. The real manifest stays at zero through
/// the workspace lint run.
#[test]
fn stale_rank_manifest_entries_are_findings() {
    let base = run_all(&fixture_config(), &fixture_files());
    assert!(
        base.iter().all(|f| f.file != RANKS_PATH),
        "the fixture manifest has no stale entry"
    );
    let ranks = include_str!("fixtures/lock_ranks.txt");
    let dead_line = ranks.lines().count() + 1;
    for (dead, what) in [
        ("fn inner never_called_anywhere", "matches no call"),
        ("site inner fixtures/ self.no_such_lock", "resolves no lock"),
    ] {
        let mut cfg = fixture_config();
        cfg.lock_ranks = LockRanks::parse(&format!("{ranks}{dead}\n")).unwrap();
        let findings = run_all(&cfg, &fixture_files());
        let stale: Vec<_> = findings.iter().filter(|f| f.file == RANKS_PATH).collect();
        assert_eq!(stale.len(), 1, "{dead}: {findings:?}");
        assert_eq!(findings.len(), base.len() + 1);
        assert_eq!(stale[0].line, dead_line);
        assert_eq!(stale[0].pass, "lock_order");
        assert!(stale[0].msg.contains(what), "{}", stale[0].msg);
    }
}
